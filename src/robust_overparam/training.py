"""Adversarial training loop, losses, schedules, and the pseudo-network fit.

Training follows the two-phase loop: every iteration first rebuilds the
adversarial dataset against the current network, then takes one full-batch
subgradient step on it, treating the attacked points as constants.  The
per-iteration trace records robust/standard losses, deviation norms and a
coupling sample, with drift and gradient-size invariants checked inline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataspace import Dataset
from .network import (
    InitSnapshot,
    NetworkState,
    _loss_slopes,
    _Workspace,
    coupling_scan,
    forward_real,
    weight_norms,
)

DRIFT_SLACK = 1e-9
GRAD_SLACK = 1e-12


class AbsoluteLoss:
    """l(a, y) = |a - y|; subgradient at 0 chosen as 0 (stationarity)."""

    tag = "absolute"

    def value(self, pred, y):
        return np.abs(np.asarray(pred, dtype=float) - y)

    def slope(self, pred, y):
        return np.sign(np.asarray(pred, dtype=float) - y)


class HuberLoss:
    """Huber loss with quadratic width kappa <= 1, keeping it 1-Lipschitz."""

    def __init__(self, kappa: float = 1.0):
        if not 0 < kappa <= 1:
            raise ValueError("kappa must be in (0, 1]")
        self.kappa = kappa
        self.tag = f"huber({kappa})"

    def value(self, pred, y):
        r = np.asarray(pred, dtype=float) - y
        k = self.kappa
        return np.where(np.abs(r) <= k, r * r / (2.0 * k), np.abs(r) - k / 2.0)

    def slope(self, pred, y):
        r = np.asarray(pred, dtype=float) - y
        return np.clip(r / self.kappa, -1.0, 1.0)


def make_loss(tag: str, kappa: float = 1.0):
    if tag == "absolute":
        return AbsoluteLoss()
    if tag == "huber":
        return HuberLoss(kappa)
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


def standard_loss(state: NetworkState, dataset: Dataset, loss) -> float:
    if dataset.n == 0:
        raise ValueError("empty dataset")
    return float(np.mean(loss.value(forward_real(state, dataset.X), dataset.y)))


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

    def rows(self):
        for i in range(len(self.t)):
            yield (
                self.t[i],
                self.robust_loss[i],
                self.standard_loss[i],
                self.drift_2inf[i],
                self.grad_21[i],
                self.coupling_sample[i],
            )


@dataclass
class TrainingResult:
    trace: TrainingTrace
    best_t: int
    best_robust_loss: float
    best_W: np.ndarray
    final_W: np.ndarray
    hp: HyperParams
    violations: list[str]


def adversarial_train(
    state: NetworkState,
    dataset: Dataset,
    adversary,
    loss,
    hp: HyperParams,
) -> TrainingResult:
    """Run the adversarial training loop and return the trace and best iterate.

    Every iteration regenerates adversarial examples against the current
    weights, records the robust loss of the current iterate on them, and
    takes one full-batch gradient step that treats the attacked points as
    constants.  Drift and per-unit gradient-size invariants are checked
    inline; violations are recorded, not raised, so a broken run is still
    inspectable.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    init = state.init
    m_third = init.m ** (-1.0 / 3.0)
    W = state.W.copy()
    trace = TrainingTrace()
    violations: list[str] = []
    best_t, best_loss, best_W = -1, math.inf, W.copy()
    for t in range(hp.T):
        cur = NetworkState(init, W)
        Xt = adversary.perturb(cur, dataset.X, dataset.y, loss, tag=t)
        std = standard_loss(cur, dataset, loss)
        # one forward of the attacked batch gives the robust loss and the step;
        # its buffers are freed before the coupling scan and the next attack allocate theirs
        ws = _Workspace(cur, len(Xt))
        preds = ws.forward(Xt)
        rob = float(np.mean(loss.value(preds, dataset.y)))
        grad = ws.weight_gradient(Xt, _loss_slopes(loss, preds, dataset.y))
        del ws
        norms = weight_norms(W, init.W0)
        grad_cols = np.linalg.norm(grad, axis=0)
        gap = coupling_scan(cur, Xt)[0]

        # written as `not x <= bound` so that a NaN counts as a violation
        drift_bound = hp.eta * t * m_third + DRIFT_SLACK
        if not norms.two_inf <= drift_bound:
            violations.append(f"t={t}: drift {norms.two_inf:.3e} > bound {drift_bound:.3e}")
        if not float(grad_cols.max()) <= m_third + GRAD_SLACK:
            violations.append(f"t={t}: gradient column {grad_cols.max():.3e} > {m_third:.3e}")

        trace.t.append(t)
        trace.robust_loss.append(rob)
        trace.standard_loss.append(std)
        trace.drift_2inf.append(norms.two_inf)
        trace.grad_21.append(float(grad_cols.sum()))
        trace.coupling_sample.append(gap)
        if rob < best_loss:
            best_t, best_loss, best_W = t, rob, W.copy()

        W = W - hp.eta * grad
    return TrainingResult(
        trace=trace,
        best_t=best_t,
        best_robust_loss=best_loss,
        best_W=best_W,
        final_W=W,
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


def fit_pseudo_to_target(init: InitSnapshot, target, sample, ridge: float | None = None) -> FitResult:
    """Ridge least squares for a pseudo-network matching `target` on `sample`.

    With deviations restricted to the last coordinate, the pseudo-network is
    linear in the per-unit scalars c_r with features
    phi_r(x) = a0_r * (1/2) * 1{<W0_r, x> + b0_r >= 0}; the ridge system is
    solved in its dual (kernel) form, K = Phi Phi^T + ridge I.
    """
    S = np.atleast_2d(np.asarray(sample, dtype=float))
    vals = np.asarray(target(S) if callable(target) else target, dtype=float)
    if vals.shape != (len(S),):
        raise ValueError("target values must be one per sample row")
    mask = (S @ init.W0 + init.b0) >= 0
    if not mask.any():
        raise FitDegenerateError("all features are zero on the sample")
    Phi = mask * (0.5 * init.a0)
    n = len(S)
    lam = 1e-8 * n if ridge is None else float(ridge)
    if lam <= 0:
        raise ValueError("ridge must be positive")
    K = Phi @ Phi.T
    K[np.diag_indices_from(K)] += lam
    alpha = np.linalg.solve(K, vals)
    coeffs = Phi.T @ alpha
    max_err = float(np.max(np.abs(Phi @ coeffs - vals)))
    two_inf = float(np.max(np.abs(coeffs)))
    return FitResult(
        coeffs=coeffs,
        max_error=max_err,
        two_inf=two_inf,
        r_star=two_inf * init.m ** (2.0 / 3.0),
        ridge=lam,
    )
