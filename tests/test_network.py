"""Tests for the network, its linearization, and the coupling diagnostics."""

import concurrent.futures
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest

from robust_overparam import network
from robust_overparam.dataspace import synth_separated, uniform_domain_sample
from robust_overparam.network import (
    _CHUNK,
    _TILE,
    _UNIT_TILE,
    InitSnapshot,
    NetworkState,
    _Workspace,
    anti_concentration_check,
    coupling_scan,
    drift_2inf,
    forward_real,
    grad_loss_real,
    gradient_coupling_ratio,
    init_network,
    perturbed_state,
)
from robust_overparam.polyapprox import CertificationError
from robust_overparam.rng import stream
from robust_overparam.training import make_loss

R = math.sqrt(3.0) / 2.0
LOSS = make_loss("absolute")


def _tiny_state(W, b, a):
    W = np.asarray(W, dtype=float)
    snap = InitSnapshot(W0=W.copy(), b0=np.asarray(b, dtype=float), a0=np.asarray(a, dtype=float))
    return NetworkState(snap, W.copy())


def _forward_pseudo(state, x):
    """g(x) = sum_r a_r <W_r - W0_r, x> 1{<W0_r, x> + b0_r >= 0}, one point or a batch."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    out = _Workspace(state, len(X)).pseudo_forward(X)
    return float(out[0]) if x.ndim == 1 else out


def _grad_loss_pseudo(state, X, y, loss):
    """grad_loss_real through g: frozen indicators, slopes at g."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ws = _Workspace(state, len(X))
    return ws.weight_gradient(X, loss.slope(ws.pseudo_forward(X), np.atleast_1d(y)))


def _coupling_norm(g1, g2):
    """(2,1)-norm of the gradient difference: the sum over units of its column norms."""
    return float(np.linalg.norm(g1 - g2, axis=0).sum())


class TestInit:
    def test_deterministic(self):
        a = init_network(64, 5, seed=11)
        b = init_network(64, 5, seed=11)
        assert np.array_equal(a.init.W0, b.init.W0)
        assert np.array_equal(a.init.b0, b.init.b0)
        assert np.array_equal(a.init.a0, b.init.a0)

    def test_weight_moments(self):
        m, d = 4096, 16
        st = init_network(m, d, seed=3)
        assert abs(st.init.W0.mean()) <= 3.0 / (m * math.sqrt(d))
        assert abs(st.init.W0.var() * m - 1.0) <= 0.1

    def test_outer_weights(self):
        m = 4096
        st = init_network(m, 16, seed=3)
        assert np.all(np.abs(np.abs(st.init.a0) - m ** (-1 / 3)) == 0.0)
        balance = np.mean(st.init.a0 > 0)
        assert abs(balance - 0.5) <= 4.0 / math.sqrt(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            init_network(0, 5, seed=0)

    def test_snapshot_arrays_are_read_only(self):
        init = _tiny_state(np.ones((3, 5)), np.zeros(5), np.ones(5)).init
        for array in (init.W0, init.b0, init.a0):
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        assert np.all(init.W0 == 1.0) and np.all(init.b0 == 0.0) and np.all(init.a0 == 1.0)

    def test_initial_weights_are_w0(self):
        st = init_network(64, 5, seed=11)
        assert np.shares_memory(st.W, st.init.W0)

    def test_m_and_d_follow_w0(self):
        init = _tiny_state(np.ones((3, 5)), np.zeros(5), np.ones(5)).init
        assert (init.m, init.d) == (5, 3)
        init = init_network(64, 7, seed=11).init
        assert (init.m, init.d) == (64, 7) == init.W0.shape[::-1]


class TestForwardReal:
    def test_hand_case(self):
        st = _tiny_state([[1.0], [0.0]], [0.1], [1.0])
        x = np.array([R, 0.5])
        assert forward_real(st, x) == pytest.approx(R + 0.1, abs=1e-12)

    def test_dead_relu(self):
        st = _tiny_state([[-1.0], [0.0]], [-0.1], [1.0])
        assert forward_real(st, np.array([R, 0.5])) == 0.0

    def test_finite_difference_in_weights(self):
        st = init_network(64, 6, seed=5)
        x = uniform_domain_sample(1, 6, stream(5, "fd"))[0]
        rng = np.random.default_rng(17)
        h = 1e-6
        pre = x @ st.W + st.init.b0
        checked = 0
        while checked < 20:
            j, r = rng.integers(0, 6), rng.integers(0, 64)
            if abs(pre[r]) < 1e-3:
                continue
            Wp, Wm = st.W.copy(), st.W.copy()
            Wp[j, r] += h
            Wm[j, r] -= h
            fd = (forward_real(st.with_weights(Wp), x) - forward_real(st.with_weights(Wm), x)) / (2 * h)
            an = st.init.a0[r] * (pre[r] >= 0) * x[j]
            assert fd == pytest.approx(an, rel=1e-5, abs=1e-9)
            checked += 1


class TestForwardPseudo:
    def test_zero_at_init(self):
        st = init_network(128, 5, seed=2)
        X = uniform_domain_sample(50, 5, stream(2, "x"))
        assert np.max(np.abs(_forward_pseudo(st, X))) == 0.0

    def test_linear_in_deviation(self):
        st = init_network(64, 5, seed=2)
        rng = np.random.default_rng(8)
        d1, d2 = rng.standard_normal((2, 5, 64)) * 0.01
        X = uniform_domain_sample(20, 5, stream(2, "x"))
        g12 = _forward_pseudo(st.with_weights(st.init.W0 + d1 + d2), X)
        g1 = _forward_pseudo(st.with_weights(st.init.W0 + d1), X)
        g2 = _forward_pseudo(st.with_weights(st.init.W0 + d2), X)
        assert np.max(np.abs(g12 - g1 - g2)) <= 1e-10

    @pytest.mark.parametrize("c", [-2.0, -1.0, 0.5, 3.0])
    def test_homogeneous_in_deviation(self, c):
        st = init_network(64, 5, seed=2)
        dw = np.random.default_rng(9).standard_normal((5, 64)) * 0.01
        X = uniform_domain_sample(20, 5, stream(2, "x"))
        g = _forward_pseudo(st.with_weights(st.init.W0 + dw), X)
        gc = _forward_pseudo(st.with_weights(st.init.W0 + c * dw), X)
        assert np.max(np.abs(gc - c * g)) <= 1e-10

    def test_hand_case(self):
        st = _tiny_state([[1.0], [0.0]], [0.1], [1.0])
        st = st.with_weights(np.array([[1.2], [0.3]]))
        x = np.array([R, 0.5])
        # active at init; g = a * <dW, x>
        assert _forward_pseudo(st, x) == pytest.approx(0.2 * R + 0.3 * 0.5, abs=1e-12)


class TestGradients:
    def test_zero_subgradient_at_exact_fit(self):
        st = init_network(64, 5, seed=4)
        X = uniform_domain_sample(10, 5, stream(4, "x"))
        y = np.clip(forward_real(st, X), -1.0, 1.0)
        # exact fit wherever |f| <= 1; those terms contribute slope 0
        mask_fit = np.abs(forward_real(st, X) - y) == 0.0
        g = grad_loss_real(st, X[mask_fit], y[mask_fit], LOSS)
        assert np.max(np.abs(g)) == 0.0

    def test_column_norm_bound(self):
        st = init_network(512, 8, seed=6)
        ds = synth_separated(16, 8, 0.5, seed=6)
        g = grad_loss_real(st, ds.X, ds.y, LOSS)
        assert np.linalg.norm(g, axis=0).max() <= 512 ** (-1 / 3) + 1e-12

    def test_finite_difference_loss_gradient(self):
        m, d = 64, 6
        st = init_network(m, d, seed=5)
        ds = synth_separated(8, d, 0.5, seed=5)
        g = grad_loss_real(st, ds.X, ds.y, LOSS)
        pre = ds.X @ st.W + st.init.b0
        rng = np.random.default_rng(21)
        h = 1e-6
        checked = 0
        while checked < 20:
            j, r = rng.integers(0, d), rng.integers(0, m)
            if np.min(np.abs(pre[:, r])) < 1e-3:
                continue

            def loss_at(W):
                return float(np.mean(LOSS.value(forward_real(st.with_weights(W), ds.X), ds.y)))

            Wp, Wm = st.W.copy(), st.W.copy()
            Wp[j, r] += h
            Wm[j, r] -= h
            fd = (loss_at(Wp) - loss_at(Wm)) / (2 * h)
            assert fd == pytest.approx(g[j, r], rel=1e-5, abs=1e-9)
            checked += 1

    def test_pseudo_gradient_frozen_indicators(self):
        st = init_network(64, 5, seed=7)
        ds = synth_separated(10, 5, 0.5, seed=7)
        g0 = _grad_loss_pseudo(st, ds.X, ds.y, LOSS)
        # small deviation: no activation flips enter the pseudo gradient, and
        # with residual signs fixed it is independent of W
        st2 = st.with_weights(st.init.W0 + 1e-4)
        g1 = _grad_loss_pseudo(st2, ds.X, ds.y, LOSS)
        assert np.array_equal(g0, g1)

    def test_pseudo_finite_difference(self):
        m, d = 64, 6
        st = init_network(m, d, seed=8)
        st = st.with_weights(st.init.W0 + 0.01)
        ds = synth_separated(8, d, 0.5, seed=8)
        g = _grad_loss_pseudo(st, ds.X, ds.y, LOSS)
        rng = np.random.default_rng(22)
        h = 1e-6

        def pseudo_loss(W):
            return float(np.mean(LOSS.value(_forward_pseudo(st.with_weights(W), ds.X), ds.y)))

        for _ in range(20):
            j, r = rng.integers(0, d), rng.integers(0, m)
            Wp, Wm = st.W.copy(), st.W.copy()
            Wp[j, r] += h
            Wm[j, r] -= h
            fd = (pseudo_loss(Wp) - pseudo_loss(Wm)) / (2 * h)
            assert fd == pytest.approx(g[j, r], rel=1e-5, abs=1e-9)

    def test_all_inactive_at_init(self):
        st = _tiny_state([[0.0], [0.0]], [-5.0], [1.0])
        X = np.array([[R, 0.5], [-R, 0.5]])
        y = np.array([1.0, -1.0])
        assert np.max(np.abs(grad_loss_real(st, X, y, LOSS))) == 0.0
        assert np.max(np.abs(_grad_loss_pseudo(st, X, y, LOSS))) == 0.0

    def test_empty_batch_rejected(self):
        st = init_network(16, 5, seed=1)
        with pytest.raises(ValueError):
            grad_loss_real(st, np.zeros((0, 5)), np.zeros(0), LOSS)


class TestGradientsPinned:
    """The gradients equal the plain-numpy formula X.T @ (mask * (slopes a0)) / n bit for bit."""

    M, D = 512, 8

    def _setup(self, n, seed):
        st = perturbed_state(init_network(self.M, self.D, seed), 2.0, seed)
        X = uniform_domain_sample(n, self.D, stream(seed, "x"))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return st, X, y

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    @pytest.mark.parametrize("n", [1, 20])
    def test_real(self, n, loss_tag):
        st, X, y = self._setup(n, 31)
        loss, init = make_loss(loss_tag), st.init
        pre = X @ st.W + init.b0
        preds = np.maximum(pre, 0.0) @ init.a0
        slopes = loss.slope(preds, y)
        assert np.array_equal(forward_real(st, X), preds)
        assert np.array_equal(grad_loss_real(st, X, y, loss), X.T @ ((pre >= 0) * (slopes[:, None] * init.a0)) / n)

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    @pytest.mark.parametrize("n", [1, 20])
    def test_pseudo(self, n, loss_tag):
        st, X, y = self._setup(n, 32)
        loss, init = make_loss(loss_tag), st.init
        mask0 = (X @ init.W0 + init.b0) >= 0
        slopes = loss.slope(((X @ (st.W - init.W0)) * mask0) @ init.a0, y)
        assert np.array_equal(_grad_loss_pseudo(st, X, y, loss), X.T @ (mask0 * (slopes[:, None] * init.a0)) / n)


def _full_width_ratio(st, X, y, loss):
    """The gradient coupling ratio from both d x m gradients, as TestGradientsPinned writes them."""
    init, n = st.init, len(X)
    pre = X @ st.W + init.b0
    slopes = loss.slope(np.maximum(pre, 0.0) @ init.a0, y)
    g_real = X.T @ ((pre >= 0) * (slopes[:, None] * init.a0)) / n
    mask0 = (X @ init.W0 + init.b0) >= 0
    slopes0 = loss.slope(((X @ (st.W - init.W0)) * mask0) @ init.a0, y)
    g_pseudo = X.T @ (mask0 * (slopes0[:, None] * init.a0)) / n
    return g_real, g_pseudo, _coupling_norm(g_pseudo, g_real) / np.linalg.norm(g_real, axis=0).sum()


class TestGradientCouplingRatio:
    """The streamed ratio against the full-width gradients, bit for bit."""

    @pytest.mark.parametrize("perturbed", [False, True], ids=["init", "perturbed"])
    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    @pytest.mark.parametrize("n", [1, 20])
    @pytest.mark.parametrize("m", [300, 4096, 4097, 9000])
    def test_matches_full_width_gradients(self, m, n, loss_tag, perturbed):
        # below one unit tile, one whole tile, one unit over, a ragged last tile
        assert _UNIT_TILE == 4096
        st = init_network(m, 16, seed=41)
        if perturbed:
            st = perturbed_state(st, 2.0, seed=41)
        X = uniform_domain_sample(n, 16, stream(41, "ratio", n))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        loss = make_loss(loss_tag)
        g_real, g_pseudo = grad_loss_real(st, X, y, loss), _grad_loss_pseudo(st, X, y, loss)
        ref_real, ref_pseudo, ref_ratio = _full_width_ratio(st, X, y, loss)
        assert np.array_equal(g_real, ref_real) and np.array_equal(g_pseudo, ref_pseudo)
        expected = _coupling_norm(g_pseudo, g_real) / np.linalg.norm(g_real, axis=0).sum()
        assert gradient_coupling_ratio(st, X, y, loss) == expected == ref_ratio

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m", [4097, 9000])
    def test_last_unit_alone(self, m, seed):
        # only the last unit is ever active, so the ratio is that one column's
        # and no other column's norm can hide a rounding difference in the sums
        st = perturbed_state(init_network(m, 16, seed), 2.0, seed)
        b0 = np.full(m, -5.0)
        b0[-1] = 5.0
        st = NetworkState(InitSnapshot(st.init.W0, b0, st.init.a0), st.W)
        X = uniform_domain_sample(20, 16, stream(seed, "ratio-last"))
        y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        loss = make_loss("huber")
        assert gradient_coupling_ratio(st, X, y, loss) == _full_width_ratio(st, X, y, loss)[2] > 0

    @pytest.mark.parametrize("m", [1, 9000])
    def test_no_active_unit_is_inf(self, m):
        W = np.random.default_rng(42).standard_normal((2, m))
        st = _tiny_state(W, np.full(m, -5.0), np.ones(m))
        X = np.array([[R, 0.5], [-R, 0.5]])
        assert gradient_coupling_ratio(st, X, np.array([1.0, -1.0]), LOSS) == math.inf

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            gradient_coupling_ratio(init_network(16, 5, seed=1), np.zeros((0, 5)), np.zeros(0), LOSS)


class TestPerturbedState:
    @pytest.mark.parametrize("R_", [0.0, 2.0])
    def test_equals_the_formula(self, R_):
        st = init_network(300, 7, seed=43)
        dirs = stream(43, "coupling-dw").standard_normal((7, 300))
        dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
        W = perturbed_state(st, R_, seed=43).W
        assert np.array_equal(W, st.init.W0 + R_ * 300 ** (-2.0 / 3.0) * dirs)
        assert np.allclose(np.linalg.norm(W - st.init.W0, axis=0), R_ * 300 ** (-2.0 / 3.0))

    @pytest.mark.parametrize("d,m", [(16, 300), (8, 4097), (10, 8192), (16, 65536)])
    def test_tiled_norm_is_the_full_width_norm(self, d, m):
        # the directions are normalized one unit tile at a time, bit for bit
        # as by the full-width column norm
        st = init_network(m, d, seed=44)
        dirs = stream(44, "coupling-dw").standard_normal((d, m))
        dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
        W = perturbed_state(st, 2.0, seed=44).W
        assert np.array_equal(W, st.init.W0 + 2.0 * m ** (-2.0 / 3.0) * dirs)

    @pytest.mark.parametrize("R_", [-2.0, -1e-300, math.nan, math.inf])
    def test_negative_or_nonfinite_scale_rejected(self, R_):
        with pytest.raises(ValueError, match="R must be finite and >= 0"):
            perturbed_state(init_network(16, 5, seed=1), R_, seed=1)


class TestCoupling:
    def test_gap_at_init_is_forward_magnitude(self):
        st = init_network(256, 6, seed=9)
        X = uniform_domain_sample(500, 6, stream(9, "x"))
        gap, _ = coupling_scan(st, X)
        assert gap == pytest.approx(np.max(np.abs(forward_real(st, X))), abs=1e-15)

    def test_gap_deterministic(self):
        st = perturbed_state(init_network(256, 6, seed=9), 2.0, seed=9)
        X = uniform_domain_sample(500, 6, stream(9, "x"))
        assert coupling_scan(st, X)[0] == coupling_scan(st, X)[0]

    def test_norm_chain(self):
        # the drift is the largest column norm, so (2,inf) <= Frobenius <= (2,1)
        rng = np.random.default_rng(12)
        for _ in range(5):
            W0 = rng.standard_normal((6, 20))
            W = W0 + rng.standard_normal((6, 20))
            cols = np.linalg.norm(W - W0, axis=0)
            assert drift_2inf(W, W0) == cols.max()
            assert drift_2inf(W, W0) <= np.linalg.norm(W - W0) + 1e-12 <= cols.sum() + 1e-12

    def test_flip_count_zero_at_init(self):
        st = init_network(128, 5, seed=10)
        X = uniform_domain_sample(100, 5, stream(10, "x"))
        assert coupling_scan(st, X)[1].sum() == 0

    def test_single_constructed_flip(self):
        st = _tiny_state([[1.0, 1.0], [0.0, 0.0]], [0.1, 5.0], [1.0, -1.0])
        x = np.array([R, 0.5])
        W = st.W.copy()
        W[:, 0] = [-10.0, 0.0]  # unit 0 flips on x, unit 1 stays active
        assert coupling_scan(st.with_weights(W), x[None, :])[1].sum() == 1

    def test_single_point_flip_fraction_shrinks_with_width(self):
        # per-point flip probability scales like m^(-1/6) at fixed deviation scale
        x = None
        fracs = []
        for m in (1024, 4096, 16384):
            st = perturbed_state(init_network(m, 8, seed=13), 2.0, seed=13)
            x = uniform_domain_sample(1, 8, stream(13, "x"))
            fracs.append(coupling_scan(st, x)[1].sum() / m)
        assert fracs[0] > fracs[1] > fracs[2]


def _scan_reference(state, X, chunk=None):
    """The coupling_scan docstring formula in plain numpy, tiled as the scan tiles it.

    Rows go in blocks of `chunk`, and each block walks the units in tiles of
    _TILE // max(rows, d) columns, summing its tiles' one-matvec f - g in column
    order.  With chunk=None the whole sample is one block and one tile.
    BLAS may block a larger matmul differently (at m = 300 a 700-row
    X @ W0 differs from its 256-row blocks in the last bit), and the sum
    over tiles rounds differently from one matvec, so only the reference
    over the scan's own blocks and tiles can be compared bit for bit.
    """
    init = state.init
    dW = state.W - init.W0
    rows = min(chunk or len(X), len(X))
    cols = max(1, _TILE // max(rows, init.d)) if chunk else init.m
    gaps, flips = [], []
    for lo in range(0, len(X), rows):
        Xc = X[lo : lo + rows]
        diff = np.zeros(len(Xc))
        tile_flips = []
        for c0 in range(0, init.m, cols):
            c = slice(c0, c0 + cols)
            pre0 = Xc @ init.W0[:, c] + init.b0[c]
            shift = Xc @ dW[:, c]
            mask0 = pre0 >= 0
            diff += (np.maximum(pre0 + shift, 0.0) - shift * mask0) @ init.a0[c]
            tile_flips.append(((pre0 + shift >= 0) != mask0).any(axis=0))
        gaps.append(float(np.max(np.abs(diff))))
        flips.append(np.concatenate(tile_flips))
    return max(gaps), np.logical_or.reduce(flips)


class TestCouplingScanReference:
    def scan(self, state, X):
        """The scan under test: coupling_scan with its blocks run in turn."""
        return coupling_scan(state, X)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["init", "perturbed"])
    @pytest.mark.parametrize("m", [300, 4096])
    @pytest.mark.parametrize("n", [1, 20, 255, 256, 257, 700])
    def test_matches_reference(self, n, m, perturbed):
        # n = 257 and n = 700 end in a ragged block of 1 and 188 rows
        st = init_network(m, 16, seed=21)
        if perturbed:
            st = perturbed_state(st, 2.0, seed=21)
        X = uniform_domain_sample(n, 16, stream(21, "scan", n))
        W = st.W.copy()
        gap, flipped = self.scan(st, X)
        ref_gap, ref_flipped = _scan_reference(st, X, _CHUNK)
        assert gap == ref_gap
        assert np.array_equal(flipped, ref_flipped)
        # against one unchunked block: equal up to the low bits BLAS blocking moves
        whole_gap, whole_flipped = _scan_reference(st, X)
        assert gap == pytest.approx(whole_gap, rel=1e-12, abs=0.0)
        assert np.array_equal(flipped, whole_flipped)
        assert np.array_equal(st.W, W)
        assert flipped.any() == perturbed

    @pytest.mark.parametrize("tiles", [0.5, 2, 2.25], ids=["below-one-tile", "whole-tiles", "ragged"])
    @pytest.mark.parametrize("n", [1, 257])
    def test_tile_edges(self, n, tiles):
        # n = 1 gives one-row tiles _TILE // d wide; n = 257 gives 256 x 256 tiles and a one-row block
        m = int(tiles * (_TILE // max(min(_CHUNK, n), 16)))
        st = perturbed_state(init_network(m, 16, seed=24), 2.0, seed=24)
        X = uniform_domain_sample(n, 16, stream(24, "scan", n))
        gap, flipped = self.scan(st, X)
        ref_gap, ref_flipped = _scan_reference(st, X, _CHUNK)
        assert gap == ref_gap
        assert np.array_equal(flipped, ref_flipped)
        whole_gap, whole_flipped = _scan_reference(st, X)
        assert gap == pytest.approx(whole_gap, rel=1e-12, abs=0.0)
        assert np.array_equal(flipped, whole_flipped)
        # the definition, through forward_real's X @ W rather than p0 + s
        by_definition = np.max(np.abs(forward_real(st, X) - _forward_pseudo(st, X)))
        assert gap == pytest.approx(by_definition, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 700])
    def test_nan_column_propagates(self, n):
        # max(gap, nan) would keep the finite gap and report a NaN network as 0.0
        st = perturbed_state(init_network(300, 16, seed=23), 2.0, seed=23)
        X = uniform_domain_sample(n, 16, stream(23, "scan", n))
        W = st.W.copy()
        W[:, 7] = np.nan
        gap, flipped = self.scan(st.with_weights(W), X)
        assert math.isnan(gap)
        assert flipped.shape == (300,) and flipped.dtype == bool

    def test_successive_calls_at_different_widths(self):
        states = [perturbed_state(init_network(m, 16, seed=22), 2.0, seed=22) for m in (4096, 300)]
        X = uniform_domain_sample(300, 16, stream(22, "scan"))
        for st in states + states[:1]:
            gap, flipped = self.scan(st, X)
            ref_gap, ref_flipped = _scan_reference(st, X, _CHUNK)
            assert gap == ref_gap
            assert np.array_equal(flipped, ref_flipped)


class TestPooledCouplingScan(TestCouplingScanReference):
    """The reference checks again, with each scan's row blocks on a 2-worker pool."""

    @pytest.fixture(autouse=True)
    def _pool(self):
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            self.pool = pool
            yield

    def scan(self, state, X):
        """coupling_scan on the pool, equal bit for bit to the serial scan."""
        gap, flipped = coupling_scan(state, X, map=self.pool.map)
        serial_gap, serial_flipped = coupling_scan(state, X)
        assert gap == serial_gap or math.isnan(gap) and math.isnan(serial_gap)
        assert np.array_equal(flipped, serial_flipped)
        return gap, flipped

    def test_many_blocks_match_reference(self):
        # 16 row blocks, the last one 160 rows, on two workers
        st = perturbed_state(init_network(4096, 16, seed=25), 2.0, seed=25)
        X = uniform_domain_sample(4000, 16, stream(25, "scan"))
        gap, flipped = coupling_scan(st, X, map=self.pool.map)
        ref_gap, ref_flipped = _scan_reference(st, X, _CHUNK)
        assert gap == ref_gap
        assert np.array_equal(flipped, ref_flipped)

    def test_scan_allocates_no_d_by_m_array(self):
        # each block's four tile buffers take 1.1 MiB and its flip mask m
        # bytes, about 0.44 d x m here; a whole W - W0 alone would be one
        m, d = 65536, 16
        st = perturbed_state(init_network(m, d, seed=26), 2.0, seed=26)
        X = uniform_domain_sample(4000, d, stream(26, "scan"))
        tracemalloc.start()
        try:
            coupling_scan(st, X, map=self.pool.map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * d * m * 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flip_masks_fold_as_blocks_finish(self, workers):
        # each block's m-byte flip mask is ORed into one mask as the block
        # finishes; kept until a final OR, the 79 masks of 20000 rows raised
        # the peak by about 0.5 d x m over 4000 rows.  The pool's futures take
        # about 1.6 KB per block whatever m is (0.19 d x m at m = 4096), so the
        # width is one where the masks, not the futures, would show
        m, d = 16384, 16
        st = perturbed_state(init_network(m, d, seed=28), 2.0, seed=28)
        run = map if workers == 1 else self.pool.map
        peaks = []
        for n in (4000, 20_000):
            X = uniform_domain_sample(n, d, stream(28, "scan", n))
            tracemalloc.start()
            try:
                coupling_scan(st, X, map=run)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.1 * d * m * 8

    def test_fold_under_contention(self, monkeypatch):
        # blocks that return at once spend their time in the fold; with more
        # workers than cores and a short switch interval, a fold that lost an
        # update would leave a unit of some block's mask unset
        m, blocks = 1 << 20, 32
        masks = [np.arange(m) % blocks == i for i in range(blocks)]
        monkeypatch.setattr(network, "_scan_block", lambda state, X, cols: (0.0, masks[int(X[0, 0])]))
        state = types.SimpleNamespace(init=types.SimpleNamespace(m=m, d=2))
        sample = np.repeat(np.arange(blocks, dtype=float), _CHUNK)[:, None].repeat(2, axis=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    assert coupling_scan(state, sample, map=pool.map)[1].all()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [1, 4])
    def test_few_rows_allocate_a_small_share_of_d_by_m(self, n):
        # with fewer rows than d, _TILE // rows columns would make a tile's
        # d x cols W - W0 larger than the tile: about 1.15 d x m at one row
        m, d = 65536, 16
        st = perturbed_state(init_network(m, d, seed=27), 2.0, seed=27)
        X = uniform_domain_sample(n, d, stream(27, "scan", n))
        tracemalloc.start()
        try:
            coupling_scan(st, X, map=self.pool.map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * d * m * 8


class TestAntiConcentration:
    def test_matches_exact_cdf(self):
        rows = anti_concentration_check(12, [0.01, 0.05, 0.1, 0.5], trials=100_000, seed=21)
        for r in rows:
            assert abs(r.estimate - r.exact) <= 5.0 * r.stderr

    def test_zero_threshold(self):
        rows = anti_concentration_check(8, [0.0], trials=10_000, seed=22)
        assert rows[0].estimate == 0.0

    def test_envelope_at_point_one(self):
        rows = anti_concentration_check(8, [0.1], trials=100_000, seed=23)
        r = rows[0]
        assert r.estimate <= 0.1 / math.sqrt(math.pi) + 5.0 * r.stderr

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            anti_concentration_check(8, [0.1], trials=100, seed=0)

    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_fewer_than_two_coordinates(self, d):
        # at d = 1, x[0] and x[-1] are one coordinate and the probe is not N(0, 2)
        with pytest.raises(ValueError, match="d >= 2"):
            anti_concentration_check(d, [0.1], trials=10_000, seed=0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match=">= 0"):
            anti_concentration_check(8, [-0.1, 0.05], trials=10_000, seed=0)

    def test_exact_is_normal_cdf(self):
        # Pr[|N(0, 2)| <= t] = 2 Phi(t / sqrt 2) - 1, with Phi by the midpoint rule
        rows = anti_concentration_check(8, [0.05, 0.5, 1.0], trials=10_000, seed=24)
        for r in rows:
            x = (np.arange(200_000) + 0.5) * (r.t / 200_000)
            mass = 2.0 * np.sum(np.exp(-x * x / 4.0)) * (r.t / 200_000) / math.sqrt(4.0 * math.pi)
            assert abs(r.exact - mass) <= 1e-12
