"""Two-layer ReLU network, its linearization, and coupling diagnostics.

The network is f_W(x) = sum_r a_r relu(<W_r, x> + b_r) with only the hidden
weights W trained; a and b stay frozen at initialization.  The pseudo-network
g_W freezes every unit's activation pattern at initialization, making it
linear in W - W0.  Operations here compute forwards, loss (sub)gradients in W,
the (2,inf) drift, and the empirical gap between network and pseudo-network.

The PGA attack evaluates the network on _CapWorkspace, which folds the units
that keep one sign on an example's cap into one linear term per example, or
evaluates every unit where gathering the others would outweigh an n x m
workspace.
Every unit tile's pre-activations X @ W_c + b0_c, in the count Gram, the
pseudo-network fit, the cap split and both coupling diagnostics, come from
_pre_activations.
The coupling diagnostics form W - W0 one tile at a time, so a coupling cell
holds W0 and W but no n x m array, d x m difference or gradient.  The
scan's workers work in buffers made on the calling thread, one set each,
so the scan's memory does not grow with the sample or stay in the
workers' malloc arenas.
The kernels whose bits would follow the BLAS thread count run on one
thread, inside _blas_single_threaded, wherever they are called from.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dataspace import DOMAIN_ATOL
from .rng import stream

# rows of X are points; W has one column per hidden unit
_CHUNK = 256
# elements per coupling_scan tile but its last: at 256 rows and d = 16 its two
# float and two bool workspaces and its d x tile W - W0 take 1.2 MiB, inside a
# 2 MiB L2 cache; on a 2-core Xeon with that L2, 65536 was the fastest of
# 16384-131072
_TILE = 65536
# units per tile of gradient_coupling_ratio and of the pseudo forward's
# X @ (W - W0); see _unit_tiles for the last tile
_UNIT_TILE = 4096
# units per tile of _CapWorkspace's split, the pseudo-network fit's width: at
# n = 20, m = 8192 an attack took 9.1 ms with it against 13.5 ms with 4096-unit
# tiles, and m-unit tiles added 1 MB to its traced peak
_CAP_TILE = 1024
# units per tile of _count_gram's float32 mask (even: its pre-activations come
# in half-width float64 tiles); on a 2-core Xeon at n = 420, 256 gave the
# benchmark's `interpolant` a 44.6 MB peak RSS against 45.0 MB at 512, but
# `fit --m 65536` 52.1 MB against 50.1 MB, and the Gram took 23.5 and 186 ms
# against 21.9 and 167 ms at m = 8192 and 65536
_GRAM_TILE = 512
# the widest W whose counts _count_gram's float32 sums hold exactly
_GRAM_MAX_UNITS = 2**24

# (get, set) thread-count symbols of an OpenBLAS build; numpy's wheels bundle
# scipy-openblas, which prefixes them, and 64-bit-integer builds add a suffix
_BLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_threads() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    The libraries are found in /proc/self/maps, so the list is empty where
    that file does not exist or no OpenBLAS exporting _BLAS_SYMBOLS is loaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            # a mapping's path is its sixth field
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


# open pins, the (set, count) each library had before the outermost one, and
# _openblas_threads() as the first outermost pin found it; process-wide, as
# the thread counts they guard are
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []
_blas_controls: list | None = None


@contextlib.contextmanager
def _blas_single_threaded():
    """One OpenBLAS thread inside the block, each library's old count after it.

    Pins nest and may be open on several threads at once: the outermost
    entry sets the counts to 1 and only the last exit restores them.  The
    libraries are looked up once, at the first outermost entry.  The kernels
    whose bits would follow the thread count run inside one, so a library
    caller gets the CLI's bits.
    """
    global _pin_depth, _pin_saved, _blas_controls
    with _pin_lock:
        if _pin_depth == 0:
            if _blas_controls is None:
                _blas_controls = _openblas_threads()
            _pin_saved = [(set_, get()) for get, set_ in _blas_controls]
            for set_, _ in _pin_saved:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)


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


def _unit_tiles(m: int, width: int = _UNIT_TILE):
    """Yield column slices of width units; the last one takes the remainder.

    So no tile is narrower than min(m, width): numpy takes a one-column
    product through gemv and a one-column norm through a pairwise sum, and
    both round differently from the full-width ones.  The slices are made
    as they are asked for, since a coupling block walks up to m / 256 tiles.
    """
    last = max(m - width, 0) // width * width  # the last tile's first unit
    return (slice(lo, m if lo == last else lo + width) for lo in range(0, last + 1, width))


def _tile_buffer(n: int, m: int, width: int, dtype=float) -> np.ndarray:
    """A flat buffer for n x the last, widest tile of _unit_tiles(m, width)."""
    return np.empty(n * min(m, width + m % width), dtype=dtype)


def _pre_activations(X, W, b0, width: int, buf=None):
    """Yield (c, X @ W[:, c] + b0[c]) over the tiles c of _unit_tiles(m, width).

    Each is formed in place at the head of buf, a flat float buffer the
    caller owns from _tile_buffer, or one made here when buf is None; so a
    consumer must be done with a tile before asking for the next.  The
    view's shape is written out, as (n, -1) is ambiguous at n = 0.
    """
    buf = _tile_buffer(len(X), W.shape[1], width) if buf is None else buf
    for c in _unit_tiles(W.shape[1], width):
        pre = buf[: len(X) * (c.stop - c.start)].reshape(len(X), c.stop - c.start)
        np.matmul(X, W[:, c], out=pre)
        pre += b0[c]
        yield c, pre


def _count_gram(X, W, b0) -> np.ndarray:
    """C = M M^T with M = 1{X @ W + b0 >= 0}: the units active at both points, as float64.

    Each tile c of _unit_tiles(m, _GRAM_TILE) fills one float32 n x tile
    0/1 mask by in-place >= compares of its half-width tiles' pre-activations,
    formed in one float64 buffer, and its M_c M_c^T is summed into a float32
    C.  Every partial sum is an integer at most m, exact in float32 up to
    2^24 units, so C is exact and does not depend on the tile width, BLAS
    blocking or thread count; a wider W raises ValueError.  C becomes float64
    only once the tile buffers are freed.
    """
    n, m = len(X), W.shape[1]
    if m > _GRAM_MAX_UNITS:
        raise ValueError(f"the count Gram is exact for at most 2^24 units, got {m}")
    half = _GRAM_TILE // 2
    masks, pres = _tile_buffer(n, m, _GRAM_TILE, np.float32), _tile_buffer(n, m, half)
    C = np.zeros((n, n), dtype=np.float32)
    for c in _unit_tiles(m, _GRAM_TILE):
        mask = masks[: n * (c.stop - c.start)].reshape(n, c.stop - c.start)
        for h, pre in _pre_activations(X, W[:, c], b0[c], half, pres):
            np.greater_equal(pre, 0.0, out=mask[:, h])
        C += mask @ mask.T
    del masks, pres, mask, pre
    return C.astype(float)


def _weight_gradient(X, slopes: np.ndarray, a0: np.ndarray, mask, factor, out=None) -> np.ndarray:
    """Mean over the rows of X of slopes * a_r x 1{mask}, d x len(a0), in out when given.

    factor is an n x len(a0) buffer.
    """
    np.multiply(slopes[:, None], a0, out=factor)
    factor *= mask
    grad = np.matmul(X.T, factor, out=out)
    grad /= len(X)
    return grad


def _column_norms(A: np.ndarray, out: np.ndarray) -> None:
    """out = np.linalg.norm(A, axis=0) bit for bit, squaring A in place instead of into a copy."""
    np.square(A, out=A)
    np.add.reduce(A, axis=0, out=out)
    np.sqrt(out, out=out)


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

    def forward(self, X, mask=None) -> np.ndarray:
        """f(x) = sum_r a_r relu(<W_r, x> + b_r) at each row of X.

        Leaves the active mask in mask (default: self.mask).
        """
        mask = self.mask if mask is None else mask
        np.matmul(X, self.state.W, out=self.act)
        self.act += self.state.init.b0
        np.greater_equal(self.act, 0.0, out=mask)
        np.maximum(self.act, 0.0, out=self.act)
        return self.act @ self.state.init.a0

    def pseudo_forward(self, X) -> np.ndarray:
        """g(x) = sum_r a_r <W_r - W0_r, x> 1{<W0_r, x> + b0_r >= 0} at each row of X.

        Leaves the initial active mask in mask.  X @ (W - W0) is filled into
        act one unit tile at a time, from a d x tile difference, so no d x m
        difference is allocated.
        """
        init = self.state.init
        np.matmul(X, init.W0, out=self.act)
        self.act += init.b0
        np.greater_equal(self.act, 0.0, out=self.mask)
        for c in _unit_tiles(init.m):
            np.matmul(X, self.state.W[:, c] - init.W0[:, c], out=self.act[:, c])
        self.act *= self.mask
        return self.act @ init.a0

    def input_gradient(self, slopes: np.ndarray, mask=None) -> np.ndarray:
        """slopes * sum_r a_r W_r 1{active}, active read from mask (default: the last forward's)."""
        np.copyto(self.act, self.mask if mask is None else mask)
        self.act *= self.state.init.a0
        return slopes[:, None] * (self.act @ self.state.W.T)

    def weight_gradient(self, X, slopes: np.ndarray) -> np.ndarray:
        """Mean over the last forward's points X of slopes * a_r x 1{active}, d x m."""
        return _weight_gradient(X, slopes, self.state.init.a0, self.mask, self.act)


def _stable_on_cap(P: np.ndarray, W: np.ndarray, radius: float) -> np.ndarray:
    """1{unit r has one sign on all of row i's cap}, from P[i, r] = <W_r, x_i> + b_r.

    W holds the units' d x units weights, x_i is a center on the domain
    within DOMAIN_ATOL, and every point z of its cap has z_d = 1/2 and a head
    within radius of x_i's.  So p_r moves by at most reach_r =
    radius * ||W_head,r|| + DOMAIN_ATOL * |W_d,r| on the cap; the added
    DOMAIN_ATOL * ||W_head,r|| and 1e-12 absorb the rounding of the length-d
    products for any d below 10^4.  Written as `|P| > reach` so that a
    non-finite pre-activation or reach counts as unstable.
    """
    reach = (radius + DOMAIN_ATOL) * np.linalg.norm(W[:-1], axis=0) + DOMAIN_ATOL * np.abs(W[-1]) + 1e-12
    return np.abs(P) > reach


class _CapWorkspace:
    """The network on the cap around each row of X, evaluated at k points per cap.

    A unit whose sign cannot change on row i's cap (_stable_on_cap) is
    linear there, so the stable active units fold into one d-vector
    v_i = sum_r a_r W_r and one constant c_i = sum_r a_r b_r, and only the
    other units, about erf(rho sqrt(d - 1) / 2) of m at initialization,
    are evaluated:

        f(z) = <v_i, z> + c_i + sum_{u unstable} a_u relu(<W_u, z> + b_u).

    The split runs in _CAP_TILE-unit tiles and never forms an n x m float.
    Row i's unstable columns are gathered once, in unit order, into Wu[i],
    n x d x u, padded with zero units to the largest set, u.  forward
    takes a (k * n) x d batch whose rows j * n + i lie on cap i, and leaves
    the unstable units' active mask in on, which input_gradient reads; both
    fill k x n x u and k x n x d buffers in place.

    When d * u > m the gathered weights would outweigh an n x m workspace
    (at rho = 0.35, d = 10, m = 65536, where about half the units are
    unstable, the gather doubled a train run's peak RSS and took 1.6 times
    as long).  The split stops at the tile where a count passes m / d, and
    the fold goes unused: full holds an n-row _Workspace that evaluates
    every unit, one block of n rows at a time, leaving block j's active
    mask in masks[j]; otherwise full is None.
    """

    def __init__(self, state: NetworkState, X: np.ndarray, radius: float, k: int):
        W, init = state.W, state.init
        n, d = X.shape
        unstable = np.empty((n, init.m), dtype=bool)
        counts = np.zeros(n, dtype=np.int64)
        self.v, self.c = np.zeros((n, d)), np.zeros(n)
        for c, pre in _pre_activations(X, W, init.b0, _CAP_TILE):
            stable = _stable_on_cap(pre, W[:, c], radius)
            np.logical_not(stable, out=unstable[:, c])
            counts += unstable[:, c].sum(axis=1)
            if d * counts.max(initial=0) > init.m:
                break
            stable &= pre >= 0.0
            np.copyto(pre, stable)
            pre *= init.a0[c]
            self.v += pre @ W[:, c].T
            self.c += pre @ init.b0[c]
        del pre, stable
        u = int(counts.max(initial=0))
        self.full = None
        if d * u > init.m:
            del unstable
            self.full = _Workspace(state, n)
            self.masks = [self.full.mask] + [np.empty_like(self.full.mask) for _ in range(k - 1)]
            return
        cols = np.nonzero(unstable)[1]
        del unstable
        self.Wu = np.zeros((n, d, u))
        self.bu, self.au = np.zeros((n, 1, u)), np.zeros((n, u))
        for i, (count, end) in enumerate(zip(counts, np.cumsum(counts))):
            idx = cols[end - count : end]
            self.Wu[i, :, :count] = W[:, idx]
            self.bu[i, 0, :count] = init.b0[idx]
            self.au[i, :count] = init.a0[idx]
        self.pre = np.empty((k, n, 1, u))
        self.on = np.empty((k, n, 1, u), dtype=bool)
        self.grad = np.empty((k, n, 1, d))

    def forward(self, Z: np.ndarray) -> np.ndarray:
        """f at each row of Z, (k * n) x d with row j * n + i on cap i."""
        if self.full is not None:
            blocks = np.split(Z, len(self.masks))
            return np.concatenate([self.full.forward(B, mask) for B, mask in zip(blocks, self.masks)])
        Z = Z.reshape(self.grad.shape)
        np.matmul(Z, self.Wu, out=self.pre)
        self.pre += self.bu
        np.greater_equal(self.pre, 0.0, out=self.on)
        np.maximum(self.pre, 0.0, out=self.pre)
        f = self.pre @ self.au[:, :, None]
        f += Z @ self.v[:, :, None]
        f += self.c[:, None, None]
        return f.reshape(-1)

    def input_gradient(self, slopes: np.ndarray) -> np.ndarray:
        """slopes * (v_i + sum_u a_u W_u 1{active}) at the points of the last forward."""
        if self.full is not None:
            blocks = np.split(slopes, len(self.masks))
            return np.vstack([self.full.input_gradient(s, mask) for s, mask in zip(blocks, self.masks)])
        np.copyto(self.pre, self.on)
        self.pre *= self.au[:, None, :]
        np.matmul(self.pre, self.Wu.transpose(0, 2, 1), out=self.grad)
        self.grad += self.v[:, None, :]
        return slopes[:, None] * self.grad.reshape(len(slopes), self.grad.shape[-1])


@_blas_single_threaded()
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


@_blas_single_threaded()
def grad_loss_real(state: NetworkState, X, y, loss) -> np.ndarray:
    """d x m subgradient of the mean loss, with relu'(z) = 1{z >= 0}.

    Each column satisfies ||grad_r||_2 <= |a_r| <= m^(-1/3) for a 1-Lipschitz
    loss since inputs are unit vectors.
    """
    X, y = _batch(X, y)
    ws = _Workspace(state, len(X))
    return ws.weight_gradient(X, loss.slope(ws.forward(X), y))


@_blas_single_threaded()
def gradient_coupling_ratio(state: NetworkState, X, y, loss) -> float:
    """sum_r ||g_pseudo,r - g_real,r||_2 / sum_r ||g_real,r||_2; inf when the denominator is 0.

    On the batch's n rows x_i, column r of the mean-loss gradients is
    g_real,r = a_r / n * sum_i l'(f(x_i), y_i) 1{<W_r, x_i> + b_r >= 0} x_i,
    that of grad_loss_real, and g_pseudo,r the same with g for f and W0_r
    for W_r.  Neither d x m gradient nor any n x m array is formed: one pass
    over the unit tiles forms each tile's active mask at W0 and adds the
    tile's relu(X @ W_c + b0_c) @ a0_c into f and
    ((X @ (W_c - W0_c)) * mask0_c) @ a0_c into g; a second pass forms the
    masks at W0 and at W from the same products and then the tile's two
    d x tile gradient blocks, in two d x tile buffers, whose column norms
    (_column_norms) go into two length-m vectors that are summed once at the
    end.  Both passes work on one n x tile float buffer, where each tile's
    W product is formed over its W0 one once mask0 is taken, and two
    n x tile bool buffers.  f and g are
    sums of tile products, so past one tile their low bits can differ from
    forward_real's and _Workspace.pseudo_forward's; the gradients are those
    of the full-width formula wherever the slopes agree and BLAS rounds a
    tile's product as it rounds the same columns of the full product (see
    the README).
    """
    X, y = _batch(X, y)
    init, n = state.init, len(X)
    buf, mask_buf, mask0_buf = (_tile_buffer(n, init.m, _UNIT_TILE, t) for t in (float, bool, bool))

    def tiles():
        """Yield (c, act, mask0) per tile, with act left holding X @ W_c + b0_c."""
        pres = _pre_activations(X, state.W, init.b0, _UNIT_TILE, buf)
        for c, pre0 in _pre_activations(X, init.W0, init.b0, _UNIT_TILE, buf):
            mask0 = mask0_buf[: pre0.size].reshape(pre0.shape)
            np.greater_equal(pre0, 0.0, out=mask0)
            _, act = next(pres)  # over pre0, in buf
            yield c, act, mask0

    f, g = np.zeros(n), np.zeros(n)
    for c, act, mask0 in tiles():
        np.maximum(act, 0.0, out=act)
        f += act @ init.a0[c]
        np.matmul(X, state.W[:, c] - init.W0[:, c], out=act)
        act *= mask0
        g += act @ init.a0[c]
    slopes, pseudo_slopes = loss.slope(f, y), loss.slope(g, y)
    real_norms, diff_norms = np.empty(init.m), np.empty(init.m)
    real_buf, diff_buf = (_tile_buffer(init.d, init.m, _UNIT_TILE) for _ in range(2))
    for c, act, mask0 in tiles():
        mask = mask_buf[: act.size].reshape(act.shape)
        np.greater_equal(act, 0.0, out=mask)
        g_real, diff = (b[: init.d * act.shape[1]].reshape(init.d, -1) for b in (real_buf, diff_buf))
        _weight_gradient(X, slopes, init.a0[c], mask, act, out=g_real)
        _weight_gradient(X, pseudo_slopes, init.a0[c], mask0, act, out=diff)
        diff -= g_real
        _column_norms(g_real, real_norms[c])
        _column_norms(diff, diff_norms[c])
    denom = float(real_norms.sum())
    return float(diff_norms.sum()) / denom if denom > 0 else float("inf")


def _scan_buffers(init: InitSnapshot, rows: int, cols: int) -> list:
    """One set of every array _scan_block fills, for blocks of up to rows rows.

    Four rows x tile buffers (float, float, bool, bool) and a d x tile one
    for the tiles of _unit_tiles(m, cols), and an m-unit flip mask.
    """
    tiles = [_tile_buffer(rows, init.m, cols, t) for t in (float, float, bool, bool)]
    return [*tiles, _tile_buffer(init.d, init.m, cols), np.empty(init.m, dtype=bool)]


def _scan_block(state: NetworkState, X: np.ndarray, cols: int, bufs: list):
    """One row block's (max |f - g|, flip mask), over _unit_tiles(m, cols).

    bufs is a set from _scan_buffers: each tile's arrays are formed in place
    at the heads of its buffers, and the flip mask returned is its last
    array, so a set serves one block at a time.  The block forms each tile's
    W - W0 as a d x tile difference instead of reading one d x m W - W0, and
    its f - g is the sum of its tiles' matvecs, in column order.
    """
    init = state.init
    pre_buf, *bufs, dW_buf, flipped = bufs
    diff = np.zeros(len(X))
    for c, pre in _pre_activations(X, init.W0, init.b0, cols, pre_buf):
        shift, on0, on = (buf[: pre.size].reshape(pre.shape) for buf in bufs)
        dW = dW_buf[: init.d * pre.shape[1]].reshape(init.d, -1)
        np.greater_equal(pre, 0.0, out=on0)
        np.subtract(state.W[:, c], init.W0[:, c], out=dW)
        np.matmul(X, dW, out=shift)
        pre += shift
        np.greater_equal(pre, 0.0, out=on)
        np.not_equal(on, on0, out=on)
        on.any(axis=0, out=flipped[c])
        np.maximum(pre, 0.0, out=pre)
        shift *= on0
        pre -= shift
        diff += pre @ init.a0[c]
    return np.max(np.abs(diff)), flipped


@_blas_single_threaded()
def coupling_scan(state: NetworkState, sample, workers: int = 1) -> tuple[float, np.ndarray]:
    """Network-vs-pseudo-network comparison over the sample, in one pass.

    Returns the gap max |f_W(x) - g_W(x)| over the sample (a lower bound on
    the sup) and a per-unit mask of units whose activation on some sample
    point differs from initialization.  With p0 = X @ W0 + b0 and
    s = X @ (W - W0),

        f - g = (relu(p0 + s) - s * 1{p0 >= 0}) @ a0,
        flip  = 1{p0 + s >= 0} != 1{p0 >= 0}.

    Rows are scanned in blocks of _CHUNK by _scan_block, each in the
    _unit_tiles of cols = _TILE // max(min(_CHUNK, len(sample)), d) columns,
    which stay in cache: neither a tile nor its d x cols W - W0 outgrows _TILE
    elements, but the last, which takes the remainder.  The scan runs on
    min(workers, blocks) threads: the caller's alone for one, else a pool of
    its own.  Each takes the next block from one shared iterator and scans it
    in its own _scan_buffers set.  The sets are all made on the calling
    thread before any worker starts, so their memory is the caller's to
    reuse once the scan returns (made on the workers, it stayed in their
    malloc arenas), and the scan holds nothing per block but its gap.  Gaps
    combine by a NaN-propagating max and masks by an OR, folded into one mask
    as each block finishes: no bit depends on workers.  The scan runs pinned
    to one BLAS thread, so its workers do not each start every OpenBLAS
    thread.  An exception in a block is raised here once the other workers
    have stopped.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if len(sample) == 0:
        raise ValueError("empty sample")
    rows = min(_CHUNK, len(sample))
    cols = max(1, _TILE // max(rows, state.init.d))
    starts = range(0, len(sample), _CHUNK)
    sets = [_scan_buffers(state.init, rows, cols) for _ in range(min(workers, len(starts)))]
    flipped = np.zeros(state.init.m, dtype=bool)
    gaps = np.empty(len(starts))
    blocks = iter(enumerate(starts))
    lock = threading.Lock()  # guards blocks and flipped

    def work(bufs):
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            i, lo = block
            try:
                gaps[i], block_flipped = _scan_block(state, sample[lo : lo + _CHUNK], cols, bufs)
            except BaseException:
                with lock:
                    for _ in blocks:  # the other workers stop at their next block
                        pass
                raise
            with lock:
                np.logical_or(flipped, block_flipped, out=flipped)

    if len(sets) == 1:
        work(sets[0])
    else:
        import concurrent.futures  # a pooled scan's, not every importer's

        with concurrent.futures.ThreadPoolExecutor(max_workers=len(sets)) as pool:
            list(pool.map(work, sets))
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
