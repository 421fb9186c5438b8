"""Two-layer ReLU network, its linearization, and coupling diagnostics.

The network is f_W(x) = sum_r a_r relu(<W_r, x> + b_r) with only the hidden
weights W trained; a and b stay frozen at initialization.  The pseudo-network
g_W freezes every unit's activation pattern at initialization, making it
linear in W - W0.  Operations here compute forwards, loss (sub)gradients in W,
deviation norms, and the empirical gap between network and pseudo-network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream

# rows of X are points; W has one column per hidden unit
_CHUNK = 256
# elements per coupling_scan tile: its two float and two bool workspaces take
# 1.1 MiB, inside a 2 MiB L2 cache; on a 2-core Xeon with that L2, 65536 was
# the fastest of 16384-131072
_TILE = 65536


@dataclass(frozen=True)
class InitSnapshot:
    """Frozen initialization: W0, b0 entries iid N(0, 1/m), a0 entries +-m^(-1/3)."""

    W0: np.ndarray
    b0: np.ndarray
    a0: np.ndarray
    m: int
    d: int
    seed: int


@dataclass
class NetworkState:
    init: InitSnapshot
    W: np.ndarray

    def __post_init__(self):
        if self.W.shape != (self.init.d, self.init.m):
            raise ValueError("W must be d x m matching the snapshot")

    def with_weights(self, W: np.ndarray) -> "NetworkState":
        return NetworkState(self.init, W)


@dataclass(frozen=True)
class WeightNorms:
    two_inf: float
    two_one: float
    frob: float


def init_network(m: int, d: int, seed: int) -> NetworkState:
    if m < 1 or d < 2:
        raise ValueError("need m >= 1 and d >= 2")
    scale = 1.0 / math.sqrt(m)
    W0 = stream(seed, "init-w").standard_normal((d, m)) * scale
    b0 = stream(seed, "init-b").standard_normal(m) * scale
    signs = stream(seed, "init-a").integers(0, 2, size=m) * 2.0 - 1.0
    a0 = signs * m ** (-1.0 / 3.0)
    snap = InitSnapshot(W0=W0, b0=b0, a0=a0, m=m, d=d, seed=seed)
    return NetworkState(init=snap, W=W0.copy())


class _Workspace:
    """n x m buffers that every evaluation of an n-point batch refills in place.

    A forward leaves the active mask 1{X @ W + b0 >= 0} in mask, which both
    gradients read.  act holds X @ W + b0, then its ReLU, then the n x m
    factor of each gradient.
    """

    def __init__(self, state: NetworkState, n: int):
        self.state = state
        self.act = np.empty((n, state.init.m))
        self.mask = np.empty((n, state.init.m), dtype=bool)

    def forward(self, X) -> np.ndarray:
        """f(x) = sum_r a_r relu(<W_r, x> + b_r) at each row of X."""
        np.matmul(X, self.state.W, out=self.act)
        self.act += self.state.init.b0
        np.greater_equal(self.act, 0.0, out=self.mask)
        np.maximum(self.act, 0.0, out=self.act)
        return self.act @ self.state.init.a0

    def input_gradient(self, slopes: np.ndarray) -> np.ndarray:
        """slopes * sum_r a_r W_r 1{active} at the points of the last forward."""
        np.copyto(self.act, self.mask)
        self.act *= self.state.init.a0
        return slopes[:, None] * (self.act @ self.state.W.T)

    def weight_gradient(self, X, slopes: np.ndarray) -> np.ndarray:
        """Mean over the last forward's points X of slopes * a_r x 1{active}, d x m."""
        np.multiply(slopes[:, None], self.state.init.a0, out=self.act)
        self.act *= self.mask
        grad = X.T @ self.act
        grad /= len(X)
        return grad


def forward_real(state: NetworkState, x) -> float | np.ndarray:
    """f(x) = sum_r a_r relu(<W_r, x> + b_r); accepts one point or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = _Workspace(state, len(X)).forward(X)
    return float(out[0]) if single else out


def forward_pseudo(state: NetworkState, x) -> float | np.ndarray:
    """g(x) = sum_r a_r <W_r - W0_r, x> 1{<W0_r, x> + b0_r >= 0}."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    init = state.init
    mask0 = (X @ init.W0 + init.b0) >= 0
    out = ((X @ (state.W - init.W0)) * mask0) @ init.a0
    return float(out[0]) if single else out


def _loss_slopes(loss, preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(loss.slope(preds, y), dtype=float)


def grad_loss_real(state: NetworkState, X, y, loss) -> np.ndarray:
    """d x m subgradient of the mean loss, with relu'(z) = 1{z >= 0}.

    Each column satisfies ||grad_r||_2 <= |a_r| <= m^(-1/3) for a 1-Lipschitz
    loss since inputs are unit vectors.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if len(X) == 0:
        raise ValueError("empty batch")
    ws = _Workspace(state, len(X))
    return ws.weight_gradient(X, _loss_slopes(loss, ws.forward(X), y))


def grad_loss_pseudo(state: NetworkState, X, y, loss) -> np.ndarray:
    """Same as grad_loss_real but through g: frozen indicators, slopes at g."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if len(X) == 0:
        raise ValueError("empty batch")
    init = state.init
    mask0 = (X @ init.W0 + init.b0) >= 0
    lp = _loss_slopes(loss, ((X @ (state.W - init.W0)) * mask0) @ init.a0, y)
    weights = mask0 * (lp[:, None] * init.a0[None, :])
    return (X.T @ weights) / len(X)


def _scan_block(init: InitSnapshot, dW: np.ndarray, X: np.ndarray, cols: int):
    """One row block's (max |f - g|, flip mask), in tiles of cols units.

    The block owns its four tile workspaces, so blocks can run on any
    thread; its f - g is the sum of its tiles' matvecs, in column order.
    """
    diff = np.zeros(len(X))
    flipped = np.empty(init.m, dtype=bool)
    bufs = [np.empty(len(X) * cols, dtype=t) for t in (float, float, bool, bool)]
    for c0 in range(0, init.m, cols):
        c = slice(c0, c0 + cols)
        shape = (len(X), min(cols, init.m - c0))
        pre, shift, on0, on = (buf[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
        np.matmul(X, init.W0[:, c], out=pre)
        pre += init.b0[c]
        np.greater_equal(pre, 0.0, out=on0)
        np.matmul(X, dW[:, c], out=shift)
        pre += shift
        np.greater_equal(pre, 0.0, out=on)
        np.not_equal(on, on0, out=on)
        on.any(axis=0, out=flipped[c])
        np.maximum(pre, 0.0, out=pre)
        shift *= on0
        pre -= shift
        diff += pre @ init.a0[c]
    return np.max(np.abs(diff)), flipped


def coupling_scan(state: NetworkState, sample, map=map) -> tuple[float, np.ndarray]:
    """Network-vs-pseudo-network comparison over the sample, in one pass.

    Returns the gap max |f_W(x) - g_W(x)| over the sample (a lower bound on
    the sup) and a per-unit mask of units whose activation on some sample
    point differs from initialization.  With p0 = X @ W0 + b0 and
    s = X @ (W - W0),

        f - g = (relu(p0 + s) - s * 1{p0 >= 0}) @ a0,
        flip  = 1{p0 + s >= 0} != 1{p0 >= 0}.

    Rows are scanned in blocks of _CHUNK by _scan_block, each in tiles of
    _TILE // min(_CHUNK, len(sample)) columns that stay in cache.  map runs
    the blocks: in turn, or over the `coupling` command's thread pool.  Gaps
    combine by a NaN-propagating max and masks by an OR: no bit depends on map.
    """
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if len(sample) == 0:
        raise ValueError("empty sample")
    init = state.init
    dW = state.W - init.W0
    cols = max(1, _TILE // min(_CHUNK, len(sample)))
    starts = range(0, len(sample), _CHUNK)
    gaps, flips = zip(*map(lambda lo: _scan_block(init, dW, sample[lo : lo + _CHUNK], cols), starts))
    return float(np.max(gaps)), np.logical_or.reduce(flips)  # max() would drop a NaN gap


def gradient_coupling_norm(g1: np.ndarray, g2: np.ndarray) -> float:
    """(2,1)-norm of the gradient difference: sum over units of column norms."""
    if g1.shape != g2.shape:
        raise ValueError(f"shape mismatch: {g1.shape} vs {g2.shape}")
    return float(np.linalg.norm(g1 - g2, axis=0).sum())


def weight_norms(W: np.ndarray, W0: np.ndarray) -> WeightNorms:
    col = np.linalg.norm(W - W0, axis=0)
    return WeightNorms(
        two_inf=float(col.max()) if col.size else 0.0,
        two_one=float(col.sum()),
        frob=float(np.linalg.norm(W - W0)),
    )


def perturbed_state(state: NetworkState, deviation_scale: float, seed: int) -> NetworkState:
    """W0 plus per-unit deviations of norm exactly deviation_scale * m^(-2/3).

    Random directions; sits on the boundary of the deviation ball used by the
    coupling experiments (worst case within the hypothesis).
    """
    init = state.init
    dirs = stream(seed, "coupling-dw").standard_normal((init.d, init.m))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    return state.with_weights(init.W0 + deviation_scale * init.m ** (-2.0 / 3.0) * dirs)


@dataclass(frozen=True)
class AntiConcentrationRow:
    t: float
    estimate: float
    exact: float
    stderr: float
    envelope: float


def anti_concentration_check(m: int, d: int, t_grid, trials: int, seed: int):
    """Monte-Carlo check that Pr[|<u,x> + beta| <= t] stays O(t).

    With u ~ N(0, I_d), beta ~ N(0,1) and x on the domain, the probe variable
    is exactly N(0, 2), so the estimate must match 2*Phi(t/sqrt(2)) - 1 =
    erf(t/2) and stay below the density envelope t/sqrt(pi), both up to 5
    standard errors.  Raises CertificationError on violation and ValueError
    on a negative threshold or d < 2 (x needs two distinct coordinates).  m
    is recorded for provenance only; the scaled probe does not depend on it.
    """
    from .polyapprox import CertificationError

    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials")
    t_grid = [float(t) for t in t_grid]
    if any(not t >= 0 for t in t_grid):
        raise ValueError(f"thresholds must be >= 0, got {t_grid}")
    rng = stream(seed, "anticonc")
    x = np.zeros(d)
    x[0] = math.sqrt(3.0) / 2.0
    x[-1] = 0.5
    u = rng.standard_normal((trials, d))
    beta = rng.standard_normal(trials)
    probe = np.abs(u @ x + beta)
    rows = []
    for t in t_grid:
        est = float(np.mean(probe <= t))
        exact = math.erf(t / 2.0)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / trials)
        envelope = t / math.sqrt(math.pi)
        rows.append(AntiConcentrationRow(t, est, exact, se, envelope))
        if abs(est - exact) > 5.0 * se:
            raise CertificationError(
                f"anti-concentration estimate at t={t} off by more than 5 SE: "
                f"{est:.6f} vs exact {exact:.6f} (se {se:.2e})"
            )
        if est > envelope + 5.0 * se:
            raise CertificationError(
                f"anti-concentration estimate at t={t} above the linear envelope: "
                f"{est:.6f} > {envelope:.6f} + 5 SE"
            )
    return rows
