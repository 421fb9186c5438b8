"""Two-layer ReLU network, its linearization, and coupling diagnostics.

The network is f_W(x) = sum_r a_r relu(<W_r, x> + b_r) with only the hidden
weights W trained; a and b stay frozen at initialization.  The pseudo-network
g_W freezes every unit's activation pattern at initialization, making it
linear in W - W0.  Operations here compute forwards, loss (sub)gradients in W,
the (2,inf) drift, and the empirical gap between network and pseudo-network.

Both coupling diagnostics stream over the hidden units, coupling_scan in
cache-sized tiles and gradient_coupling_ratio in unit tiles, each forming
W - W0 one tile at a time, so a coupling cell holds W0, W and one n x m
buffer, and no d x m difference or gradient.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .rng import stream

# rows of X are points; W has one column per hidden unit
_CHUNK = 256
# elements per coupling_scan tile: its two float and two bool workspaces take
# 1.1 MiB, inside a 2 MiB L2 cache; on a 2-core Xeon with that L2, 65536 was
# the fastest of 16384-131072
_TILE = 65536
# units per tile of gradient_coupling_ratio and of the pseudo forward's
# X @ (W - W0); see _unit_tiles for the last tile
_UNIT_TILE = 4096


@dataclass(frozen=True)
class InitSnapshot:
    """Read-only initialization: W0, b0 entries iid N(0, 1/m), a0 entries +-m^(-1/3)."""

    W0: np.ndarray
    b0: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        for array in (self.W0, self.b0, self.a0):
            array.flags.writeable = False

    @property
    def d(self) -> int:
        return self.W0.shape[0]

    @property
    def m(self) -> int:
        return self.W0.shape[1]


@dataclass
class NetworkState:
    init: InitSnapshot
    W: np.ndarray

    def __post_init__(self):
        if self.W.shape != self.init.W0.shape:
            raise ValueError("W must be d x m matching the snapshot")

    def with_weights(self, W: np.ndarray) -> "NetworkState":
        return NetworkState(self.init, W)


def init_network(m: int, d: int, seed: int) -> NetworkState:
    if m < 1 or d < 2:
        raise ValueError("need m >= 1 and d >= 2")
    scale = 1.0 / math.sqrt(m)
    W0 = stream(seed, "init-w").standard_normal((d, m)) * scale
    b0 = stream(seed, "init-b").standard_normal(m) * scale
    signs = stream(seed, "init-a").integers(0, 2, size=m) * 2.0 - 1.0
    a0 = signs * m ** (-1.0 / 3.0)
    return NetworkState(init=InitSnapshot(W0=W0, b0=b0, a0=a0), W=W0)


def _unit_tiles(m: int, width: int = _UNIT_TILE) -> list[slice]:
    """Column slices of width units; the last one takes the remainder.

    So no tile is narrower than min(m, width): numpy takes a one-column
    product through gemv and a one-column norm through a pairwise sum, and
    both round differently from the full-width ones.
    """
    starts = range(0, max(m - width, 0) + 1, width)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], m])]


def _weight_gradient(X, slopes: np.ndarray, a0: np.ndarray, mask, factor) -> np.ndarray:
    """Mean over the rows of X of slopes * a_r x 1{mask}, d x len(a0); factor is an n x len(a0) buffer."""
    np.multiply(slopes[:, None], a0, out=factor)
    factor *= mask
    grad = X.T @ factor
    grad /= len(X)
    return grad


class _Workspace:
    """n x m buffers that every evaluation of an n-point batch refills in place.

    A forward leaves the active mask 1{X @ W + b0 >= 0} in mask, which both
    gradients read; a pseudo forward leaves 1{X @ W0 + b0 >= 0} there
    instead.  act holds X @ W + b0, then its ReLU, then the n x m factor of
    each gradient.
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

    def pseudo_forward(self, X, mask0=None) -> np.ndarray:
        """g(x) = sum_r a_r <W_r - W0_r, x> 1{<W0_r, x> + b0_r >= 0} at each row of X.

        Leaves the initial active mask in mask0 (default: mask).  X @ (W - W0)
        is filled into act one unit tile at a time, from a d x tile
        difference, so no d x m difference is allocated.
        """
        init = self.state.init
        mask0 = self.mask if mask0 is None else mask0
        np.matmul(X, init.W0, out=self.act)
        self.act += init.b0
        np.greater_equal(self.act, 0.0, out=mask0)
        for c in _unit_tiles(init.m):
            np.matmul(X, self.state.W[:, c] - init.W0[:, c], out=self.act[:, c])
        self.act *= mask0
        return self.act @ init.a0

    def input_gradient(self, slopes: np.ndarray) -> np.ndarray:
        """slopes * sum_r a_r W_r 1{active} at the points of the last forward."""
        np.copyto(self.act, self.mask)
        self.act *= self.state.init.a0
        return slopes[:, None] * (self.act @ self.state.W.T)

    def weight_gradient(self, X, slopes: np.ndarray) -> np.ndarray:
        """Mean over the last forward's points X of slopes * a_r x 1{active}, d x m."""
        return _weight_gradient(X, slopes, self.state.init.a0, self.mask, self.act)


def forward_real(state: NetworkState, x) -> float | np.ndarray:
    """f(x) = sum_r a_r relu(<W_r, x> + b_r); accepts one point or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = _Workspace(state, len(X)).forward(X)
    return float(out[0]) if single else out


def _batch(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if len(X) == 0:
        raise ValueError("empty batch")
    return X, y


def grad_loss_real(state: NetworkState, X, y, loss) -> np.ndarray:
    """d x m subgradient of the mean loss, with relu'(z) = 1{z >= 0}.

    Each column satisfies ||grad_r||_2 <= |a_r| <= m^(-1/3) for a 1-Lipschitz
    loss since inputs are unit vectors.
    """
    X, y = _batch(X, y)
    ws = _Workspace(state, len(X))
    return ws.weight_gradient(X, loss.slope(ws.forward(X), y))


def gradient_coupling_ratio(state: NetworkState, X, y, loss) -> float:
    """sum_r ||g_pseudo,r - g_real,r||_2 / sum_r ||g_real,r||_2; inf when the denominator is 0.

    On the batch's n rows x_i, column r of the mean-loss gradients is
    g_real,r = a_r / n * sum_i l'(f(x_i), y_i) 1{<W_r, x_i> + b_r >= 0} x_i,
    that of grad_loss_real, and g_pseudo,r the same with g for f and W0_r
    for W_r.  Neither d x m gradient is formed: both forwards run at full
    width on one n x m workspace; then each unit tile forms its two d x tile
    gradient blocks, whose column norms go into two length-m vectors that
    are summed once at the end.  The bits are those of the full-width
    gradients wherever BLAS rounds a tile's product as it rounds the same
    columns of the full product (see the README).
    """
    X, y = _batch(X, y)
    init = state.init
    ws = _Workspace(state, len(X))
    slopes = loss.slope(ws.forward(X), y)
    mask0 = np.empty_like(ws.mask)
    pseudo_slopes = loss.slope(ws.pseudo_forward(X, mask0), y)
    real_norms, diff_norms = np.empty(init.m), np.empty(init.m)
    for c in _unit_tiles(init.m):
        g_real = _weight_gradient(X, slopes, init.a0[c], ws.mask[:, c], ws.act[:, c])
        diff = _weight_gradient(X, pseudo_slopes, init.a0[c], mask0[:, c], ws.act[:, c])
        diff -= g_real
        real_norms[c] = np.linalg.norm(g_real, axis=0)
        diff_norms[c] = np.linalg.norm(diff, axis=0)
    denom = float(real_norms.sum())
    return float(diff_norms.sum()) / denom if denom > 0 else float("inf")


def _scan_block(state: NetworkState, X: np.ndarray, cols: int):
    """One row block's (max |f - g|, flip mask), in tiles of cols units.

    The block makes its own four tile buffers (float, float, bool, bool), so
    blocks can run on any thread, and forms each tile's W - W0 as a d x cols
    difference instead of reading one d x m W - W0; its f - g is the sum of
    its tiles' matvecs, in column order.
    """
    init = state.init
    bufs = [np.empty(len(X) * cols, dtype=t) for t in (float, float, bool, bool)]
    diff = np.zeros(len(X))
    flipped = np.empty(init.m, dtype=bool)
    for c0 in range(0, init.m, cols):
        c = slice(c0, c0 + cols)
        shape = (len(X), min(cols, init.m - c0))
        pre, shift, on0, on = (buf[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
        np.matmul(X, init.W0[:, c], out=pre)
        pre += init.b0[c]
        np.greater_equal(pre, 0.0, out=on0)
        np.matmul(X, state.W[:, c] - init.W0[:, c], out=shift)
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
    _TILE // max(min(_CHUNK, len(sample)), d) columns that stay in cache:
    neither a tile nor its d x cols W - W0 outgrows _TILE elements.  map runs
    the blocks: in turn, or over the `coupling` command's thread pool.  Gaps
    combine by a NaN-propagating max and masks by an OR, folded into one mask
    as each block finishes: no bit depends on map.
    """
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if len(sample) == 0:
        raise ValueError("empty sample")
    cols = max(1, _TILE // max(min(_CHUNK, len(sample)), state.init.d))
    flipped = np.zeros(state.init.m, dtype=bool)
    lock = threading.Lock()

    def scan(lo):
        gap, block_flipped = _scan_block(state, sample[lo : lo + _CHUNK], cols)
        with lock:
            np.logical_or(flipped, block_flipped, out=flipped)
        return gap

    gaps = list(map(scan, range(0, len(sample), _CHUNK)))
    return float(np.max(gaps)), flipped  # max() would drop a NaN gap


def drift_2inf(W: np.ndarray, W0: np.ndarray) -> float:
    """||W - W0||_{2,inf}: the largest column norm of the deviation from initialization."""
    return float(np.linalg.norm(W - W0, axis=0).max())


def perturbed_state(state: NetworkState, deviation_scale: float, seed: int) -> NetworkState:
    """W0 plus per-unit deviations of norm exactly deviation_scale * m^(-2/3).

    Random directions; sits on the boundary of the deviation ball used by the
    coupling experiments (worst case within the hypothesis).  Raises
    ValueError unless deviation_scale is finite and >= 0: a negative one
    would be a radius |deviation_scale| with every direction flipped.  W is
    built in place in the array of directions, normalized one unit tile at a
    time so that the norm's squares take d x tile, not d x m.
    """
    if not (math.isfinite(deviation_scale) and deviation_scale >= 0):
        raise ValueError(f"deviation scale R must be finite and >= 0, got {deviation_scale!r}")
    init = state.init
    dirs = stream(seed, "coupling-dw").standard_normal((init.d, init.m))
    for c in _unit_tiles(init.m):
        dirs[:, c] /= np.linalg.norm(dirs[:, c], axis=0)
    dirs *= deviation_scale * init.m ** (-2.0 / 3.0)
    dirs += init.W0
    return state.with_weights(dirs)


@dataclass(frozen=True)
class AntiConcentrationRow:
    t: float
    estimate: float
    exact: float
    stderr: float
    envelope: float


def anti_concentration_check(d: int, t_grid, trials: int, seed: int):
    """Monte-Carlo check that Pr[|<u,x> + beta| <= t] stays O(t).

    With u ~ N(0, I_d), beta ~ N(0,1) and x on the domain, the probe variable
    is exactly N(0, 2), so the estimate must match 2*Phi(t/sqrt(2)) - 1 =
    erf(t/2) and stay below the density envelope t/sqrt(pi), both up to 5
    standard errors.  Raises CertificationError on violation and ValueError
    on a negative threshold or d < 2 (x needs two distinct coordinates).  The
    probe does not depend on the network's width.
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
