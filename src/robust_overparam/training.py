"""Adversarial training loop, losses, schedules, and the pseudo-network fit.

Training follows the two-phase loop: every iteration first rebuilds the
adversarial dataset against the current network, then takes one full-batch
subgradient step on it, treating the attacked points as constants.  One
workspace per iteration gives its losses, step and coupling sample, which the
trace records with the drift, whose invariants are checked inline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataspace import Dataset
from .network import (
    InitSnapshot,
    NetworkState,
    _blas_single_threaded,
    _count_gram,
    _pre_activations,
    _Workspace,
    drift_2inf,
    forward_real,
)

DRIFT_SLACK = 1e-9
GRAD_SLACK = 1e-12
# units per tile of the pseudo-network fit's coefficient pass: at n = 420 a
# tile's float64 mask takes 3.4 MB; on 2 cores 4096-unit tiles raised the fit's
# traced peak to 29 MB and fit m = 65536 at most ~15% faster
_FIT_TILE = 1024


class AbsoluteLoss:
    """l(a, y) = |a - y|; subgradient at 0 chosen as 0 (stationarity)."""

    def value(self, pred, y):
        return np.abs(np.asarray(pred, dtype=float) - y)

    def slope(self, pred, y):
        return np.sign(np.asarray(pred, dtype=float) - y)


class HuberLoss:
    """Huber loss with quadratic width 1: r^2 / 2 for |r| <= 1, else |r| - 1/2; 1-Lipschitz."""

    def value(self, pred, y):
        r = np.asarray(pred, dtype=float) - y
        return np.where(np.abs(r) <= 1.0, r * r / 2.0, np.abs(r) - 0.5)

    def slope(self, pred, y):
        return np.clip(np.asarray(pred, dtype=float) - y, -1.0, 1.0)


def make_loss(tag: str):
    if tag == "absolute":
        return AbsoluteLoss()
    if tag == "huber":
        return HuberLoss()
    raise ValueError(f"unknown loss {tag!r}; expected 'absolute' or 'huber'")


@dataclass(frozen=True)
class HyperParams:
    T: int
    eta: float
    R: float
    eps: float
    c_T: float = 1.0
    c_eta: float = 1.0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and non-negative, got {self.eta!r}")


def schedule(eps: float, R: float, m: int, c_T: float = 1.0, c_eta: float = 1.0) -> HyperParams:
    """T = ceil(c_T eps^-2 R^2), eta = c_eta eps m^(-1/3)."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 1 <= R < math.inf:
        raise ValueError("R must be finite and >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (math.isfinite(c_T) and math.isfinite(c_eta)):
        raise ValueError(f"c_T and c_eta must be finite, got {c_T!r} and {c_eta!r}")
    return HyperParams(
        T=math.ceil(c_T * eps**-2 * R**2),
        eta=c_eta * eps * m ** (-1.0 / 3.0),
        R=R,
        eps=eps,
        c_T=c_T,
        c_eta=c_eta,
    )


def robust_loss(state: NetworkState, dataset: Dataset, adversary, loss, tag: int = 0) -> float:
    """Mean loss on the adversary's perturbations of the training set."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    Xt = adversary.perturb(state, dataset.X, dataset.y, loss, tag=tag)
    return float(np.mean(loss.value(forward_real(state, Xt), dataset.y)))


@dataclass
class TrainingTrace:
    """Per-iteration records; one row per pre-update iterate W^(t)."""

    t: list[int] = field(default_factory=list)
    robust_loss: list[float] = field(default_factory=list)
    standard_loss: list[float] = field(default_factory=list)
    drift_2inf: list[float] = field(default_factory=list)
    grad_21: list[float] = field(default_factory=list)
    coupling_sample: list[float] = field(default_factory=list)

    COLUMNS = ("t", "robust_loss", "standard_loss", "drift_2inf", "grad_21", "coupling_sample")

    def append(self, row) -> None:
        for column, value in zip(self.COLUMNS, row):
            getattr(self, column).append(value)

    def rows(self):
        return zip(*(getattr(self, c) for c in self.COLUMNS))


@dataclass
class TrainingResult:
    trace: TrainingTrace
    best_t: int
    best_robust_loss: float
    final_W: np.ndarray
    hp: HyperParams
    violations: list[str]


@_blas_single_threaded()
def adversarial_train(
    state: NetworkState,
    dataset: Dataset,
    adversary,
    loss,
    hp: HyperParams,
) -> TrainingResult:
    """Run the adversarial training loop; return the trace, the final weights
    and the iteration with the lowest robust loss.

    Every iteration regenerates adversarial examples against the current
    weights, records the current iterate's standard loss and its robust loss
    on them, and takes one full-batch gradient step that treats the attacked
    points as constants; its coupling sample is max |f - g| over the attacked
    batch.  Drift and per-unit gradient-size invariants are checked inline;
    violations are recorded, not raised, so a broken run is still inspectable.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    init = state.init
    m_third = init.m ** (-1.0 / 3.0)
    cur = state
    trace = TrainingTrace()
    violations: list[str] = []
    best_t, best_loss = -1, math.inf
    for t in range(hp.T):
        Xt = adversary.perturb(cur, dataset.X, dataset.y, loss, tag=t)

        # one workspace evaluates the clean batch, then the attacked batch for
        # the robust loss, the step and the coupling sample; its buffers are
        # freed before the next attack allocates its own
        ws = _Workspace(cur, dataset.n)
        std = float(np.mean(loss.value(ws.forward(dataset.X), dataset.y)))
        preds = ws.forward(Xt)
        rob = float(np.mean(loss.value(preds, dataset.y)))
        grad = ws.weight_gradient(Xt, loss.slope(preds, dataset.y))
        gap = float(np.max(np.abs(preds - ws.pseudo_forward(Xt))))
        del ws

        drift = drift_2inf(cur.W, init.W0)
        grad_cols = np.linalg.norm(grad, axis=0)
        # written as `not x <= bound` so that a NaN counts as a violation
        drift_bound = hp.eta * t * m_third + DRIFT_SLACK
        if not drift <= drift_bound:
            violations.append(f"t={t}: drift {drift:.3e} > bound {drift_bound:.3e}")
        if not float(grad_cols.max()) <= m_third + GRAD_SLACK:
            violations.append(f"t={t}: gradient column {grad_cols.max():.3e} > {m_third:.3e}")
        trace.append((t, rob, std, drift, float(grad_cols.sum()), gap))
        if rob < best_loss:
            best_t, best_loss = t, rob
        cur = cur.with_weights(cur.W - hp.eta * grad)
    return TrainingResult(
        trace=trace,
        best_t=best_t,
        best_robust_loss=best_loss,
        final_W=cur.W,
        hp=hp,
        violations=violations,
    )


class FitDegenerateError(Exception):
    """Every random feature is inactive on the whole sample."""


@dataclass
class FitResult:
    """Last-row pseudo-network fit: deviation only along the constant coordinate."""

    coeffs: np.ndarray
    max_error: float
    two_inf: float
    r_star: float
    ridge: float


@_blas_single_threaded()
def fit_pseudo_to_target(init: InitSnapshot, target, sample, ridge: float | None = None) -> FitResult:
    """Ridge least squares for a pseudo-network matching `target` on `sample`.

    With deviations restricted to the last coordinate, the pseudo-network is
    linear in the per-unit scalars c_r with features
    phi_r(x) = a0_r * (1/2) * 1{<W0_r, x> + b0_r >= 0}; the ridge system is
    solved in its dual (kernel) form, K = Phi Phi^T + ridge I.

    Every |a0_r| is m^(-1/3), so Phi Phi^T = (|a0| / 2)^2 C, where C is the
    exact activation-count Gram network._count_gram(S, W0, b0); a0 entries
    of unequal magnitude raise ValueError.  With K dropped once alpha is
    solved, the features are formed again in _FIT_TILE-unit tiles for
    coeffs = Phi^T alpha and the residual Phi coeffs - target.  So the fit
    holds n x n matrices and n x tile buffers but no n x m array, and never
    an n x n matrix beside the wider tiles.
    """
    S = np.atleast_2d(np.asarray(sample, dtype=float))
    vals = np.asarray(target(S) if callable(target) else target, dtype=float)
    if vals.shape != (len(S),):
        raise ValueError("target values must be one per sample row")
    a = abs(init.a0[0])
    if np.any(np.abs(init.a0) != a):
        raise ValueError("a0 entries must all have the same magnitude")
    K = _count_gram(S, init.W0, init.b0)
    if not K.any():
        raise FitDegenerateError("all features are zero on the sample")
    n = len(S)
    lam = 1e-8 * n if ridge is None else float(ridge)
    if not 0 < lam < math.inf:  # written so that a NaN fails
        raise ValueError(f"ridge must be finite and positive, got {lam!r}")
    K *= (0.5 * a) ** 2
    K[np.diag_indices_from(K)] += lam
    alpha = np.linalg.solve(K, vals)
    del K
    coeffs = np.empty(init.m)
    fitted = np.zeros(n)
    for c, mask in _pre_activations(S, init.W0, init.b0, _FIT_TILE):
        np.greater_equal(mask, 0.0, out=mask)
        phi_c = 0.5 * init.a0[c]
        np.multiply(alpha @ mask, phi_c, out=coeffs[c])
        fitted += mask @ (phi_c * coeffs[c])
    max_err = float(np.max(np.abs(fitted - vals)))
    two_inf = float(np.max(np.abs(coeffs)))
    return FitResult(
        coeffs=coeffs,
        max_error=max_err,
        two_inf=two_inf,
        r_star=two_inf * init.m ** (2.0 / 3.0),
        ridge=lam,
    )
