"""Tests for losses, the schedule, the training loop, and the pseudo fit."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from robust_overparam.adversary import Adversary, AttackConfig, random_cap_point
from robust_overparam.dataspace import synth_separated, uniform_domain_sample
from robust_overparam.network import (
    InitSnapshot,
    _Workspace,
    coupling_scan,
    forward_real,
    init_network,
    perturbed_state,
)
from robust_overparam.rng import stream
from robust_overparam.training import (
    _FIT_TILE,
    FitDegenerateError,
    _count_gram,
    HyperParams,
    adversarial_train,
    fit_pseudo_to_target,
    make_loss,
    robust_loss,
    schedule,
)


def _standard_loss(state, dataset, loss):
    """The mean loss on the clean training set."""
    return float(np.mean(loss.value(forward_real(state, dataset.X), dataset.y)))


class TestLossContracts:
    @pytest.mark.parametrize("tag,kwargs", [("absolute", {}), ("huber", {})])
    def test_zero_at_match(self, tag, kwargs):
        loss = make_loss(tag, **kwargs)
        y = np.linspace(-1, 1, 11)
        assert np.max(np.abs(loss.value(y, y))) == 0.0

    @pytest.mark.parametrize("tag,kwargs", [("absolute", {}), ("huber", {})])
    def test_one_lipschitz(self, tag, kwargs):
        loss = make_loss(tag, **kwargs)
        rng = np.random.default_rng(0)
        a1, a2, y = rng.uniform(-3, 3, size=(3, 10_000))
        gap = np.abs(loss.value(a1, y) - loss.value(a2, y))
        assert np.all(gap <= np.abs(a1 - a2) + 1e-12)

    @pytest.mark.parametrize("tag,kwargs", [("absolute", {}), ("huber", {})])
    def test_midpoint_convexity_and_nonneg(self, tag, kwargs):
        loss = make_loss(tag, **kwargs)
        rng = np.random.default_rng(1)
        a1, a2, y = rng.uniform(-3, 3, size=(3, 10_000))
        mid = loss.value((a1 + a2) / 2.0, y)
        assert np.all(mid <= (loss.value(a1, y) + loss.value(a2, y)) / 2.0 + 1e-12)
        assert np.all(loss.value(a1, y) >= 0.0)

    def test_slope_conventions(self):
        assert make_loss("absolute").slope(np.array([1.0]), np.array([1.0]))[0] == 0.0
        assert make_loss("huber").slope(np.array([2.0]), np.array([0.0]))[0] == 1.0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            make_loss("nope")


class TestSchedule:
    def test_examples(self):
        assert schedule(0.5, 1.0, 4).T == 4
        assert schedule(0.1, 2.0, 4).T == 400
        assert schedule(0.1, 1.0, 10**6).eta == pytest.approx(1e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            schedule(0.5, 0.5, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="eta"):
            HyperParams(T=3, eta=bad, R=1.0, eps=0.5)
        with pytest.raises(ValueError, match="c_eta"):
            schedule(0.5, 1.0, 64, c_eta=bad)
        with pytest.raises(ValueError, match="c_T"):
            schedule(0.5, 1.0, 64, c_T=bad)
        with pytest.raises(ValueError, match="R must"):
            schedule(0.5, bad, 64)


class TestLosses:
    def test_exact_fit_zero(self):
        st = init_network(64, 5, seed=30)
        X = uniform_domain_sample(10, 5, stream(30, "x"))
        y = np.clip(forward_real(st, X), -1.0, 1.0)
        keep = np.abs(forward_real(st, X)) <= 1.0
        from robust_overparam.dataspace import Dataset

        ds = Dataset(X[keep], y[keep])
        assert _standard_loss(st, ds, make_loss("absolute")) == 0.0

    def test_single_point_value(self):
        st = init_network(8, 3, seed=31)
        from robust_overparam.dataspace import Dataset

        x = uniform_domain_sample(1, 3, stream(31, "x"))
        f = forward_real(st, x)[0]
        ds = Dataset(x, np.array([1.0]))
        assert _standard_loss(st, ds, make_loss("absolute")) == pytest.approx(abs(f - 1.0), abs=1e-15)

    def test_matches_independent_summation(self):
        st = init_network(128, 6, seed=32)
        ds = synth_separated(40, 6, 0.3, seed=32)
        loss = make_loss("absolute")
        ours = _standard_loss(st, ds, loss)
        ref = math.fsum(abs(forward_real(st, ds.X[i]) - ds.y[i]) for i in range(ds.n)) / ds.n
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_identity_adversary_equals_standard(self):
        st = init_network(64, 5, seed=33)
        ds = synth_separated(8, 5, 0.5, seed=33)
        loss = make_loss("absolute")
        adv = Adversary("identity", AttackConfig(rho=0.1))
        assert robust_loss(st, ds, adv, loss) == _standard_loss(st, ds, loss)

    def test_worst_at_least_standard(self):
        st = init_network(64, 5, seed=34)
        ds = synth_separated(8, 5, 0.5, seed=34)
        loss = make_loss("absolute")
        adv = Adversary("worst", AttackConfig(rho=0.1, seed=2))
        assert robust_loss(st, ds, adv, loss) >= _standard_loss(st, ds, loss) - 1e-15

    def test_against_random_search_oracle(self):
        st = init_network(8, 3, seed=35)
        ds = synth_separated(2, 3, 0.5, seed=35)
        loss = make_loss("absolute")
        rho = 0.1
        oracle_means = []
        for i in range(ds.n):
            rng = stream(35, "oracle", i)
            cand = np.vstack([random_cap_point(ds.X[i], rho, rng) for _ in range(100_000)])
            oracle_means.append(np.max(loss.value(forward_real(st, cand), ds.y[i])))
        oracle = float(np.mean(oracle_means))
        adv = Adversary("worst", AttackConfig(rho=rho, seed=3))
        ours = robust_loss(st, ds, adv, loss)
        assert abs(ours - oracle) <= 0.02 * oracle + 1e-9


class TestAdversarialTrain:
    def _setup(self, m=512, n=6, d=6, seed=40):
        st = init_network(m, d, seed)
        ds = synth_separated(n, d, 0.8, seed=seed)
        loss = make_loss("absolute")
        adv = Adversary("worst", AttackConfig(rho=0.05, seed=seed))
        return st, ds, loss, adv

    def test_zero_step_size_freezes_weights(self):
        st, ds, loss, adv = self._setup()
        hp = HyperParams(T=3, eta=0.0, R=1.0, eps=0.5)
        res = adversarial_train(st, ds, adv, loss, hp)
        assert np.array_equal(res.final_W, st.init.W0)
        assert all(v == 0.0 for v in res.trace.drift_2inf)

    def test_drift_and_gradient_invariants(self):
        st, ds, loss, adv = self._setup()
        hp = schedule(0.5, 1.0, st.init.m)
        res = adversarial_train(st, ds, adv, loss, hp)
        assert res.violations == []
        m_third = st.init.m ** (-1.0 / 3.0)
        for t, drift in zip(res.trace.t, res.trace.drift_2inf):
            assert drift <= hp.eta * t * m_third + 1e-9

    def test_loss_decreases_and_best_iterate(self):
        st, ds, loss, adv = self._setup()
        hp = schedule(0.35, 1.0, st.init.m)  # T = 9
        res = adversarial_train(st, ds, adv, loss, hp)
        assert len(res.trace.t) == hp.T
        assert res.best_robust_loss < res.trace.robust_loss[0]
        assert res.best_robust_loss == min(res.trace.robust_loss)
        assert res.trace.robust_loss[res.best_t] == res.best_robust_loss

    def test_deterministic(self):
        st, ds, loss, adv = self._setup()
        hp = HyperParams(T=3, eta=0.01, R=1.0, eps=0.5)
        r1 = adversarial_train(st, ds, adv, loss, hp)
        r2 = adversarial_train(st, ds, adv, loss, hp)
        assert np.array_equal(r1.final_W, r2.final_W)
        assert r1.trace.robust_loss == r2.trace.robust_loss

    def test_trace_coupling_column_present(self):
        st, ds, loss, adv = self._setup()
        hp = HyperParams(T=2, eta=0.01, R=1.0, eps=0.5)
        res = adversarial_train(st, ds, adv, loss, hp)
        assert len(res.trace.coupling_sample) == 2
        assert res.trace.coupling_sample[0] >= 0.0

    def test_identity_trace_losses_are_standard_losses(self):
        # with no attack the robust loss is the standard loss, and each row's
        # standard loss is the mean clean loss at that row's pre-update weights
        st, ds, loss, _ = self._setup()
        identity = Adversary("identity", AttackConfig(rho=0.05))
        hp = HyperParams(T=4, eta=0.05, R=1.0, eps=0.5)
        res = adversarial_train(st, ds, identity, loss, hp)
        assert res.trace.robust_loss == res.trace.standard_loss
        assert res.trace.standard_loss[0] == _standard_loss(st, ds, loss)
        one = adversarial_train(st, ds, identity, loss, HyperParams(T=1, eta=0.05, R=1.0, eps=0.5))
        assert res.trace.standard_loss[1] == _standard_loss(st.with_weights(one.final_W), ds, loss)
        assert res.trace.standard_loss[1] != res.trace.standard_loss[0]

    def test_identity_coupling_sample_is_the_forward_gap(self):
        # with no attack the coupling sample is max |f - g| over the training
        # set at that row's pre-update weights, bit for bit as forward_real and
        # the pseudo forward give it, and coupling_scan's gap up to rounding
        st, ds, loss, _ = self._setup()
        identity = Adversary("identity", AttackConfig(rho=0.05))
        hp = HyperParams(T=4, eta=0.05, R=1.0, eps=0.5)
        res = adversarial_train(st, ds, identity, loss, hp)
        for t in range(hp.T):
            # row t's weights are the final weights of a t-step run
            W = st.W if t == 0 else adversarial_train(st, ds, identity, loss, replace(hp, T=t)).final_W
            cur = st.with_weights(W)
            gap = float(np.max(np.abs(forward_real(cur, ds.X) - _Workspace(cur, ds.n).pseudo_forward(ds.X))))
            assert res.trace.coupling_sample[t] == gap
            assert gap == pytest.approx(coupling_scan(cur, ds.X)[0], rel=1e-12, abs=0.0)
        assert res.trace.coupling_sample[-1] != res.trace.coupling_sample[0]

    def test_leaves_state_weights_unchanged(self):
        st, ds, loss, adv = self._setup()
        st = perturbed_state(st, 1.0, seed=40)  # a writable W apart from W0
        W = st.W.copy()
        res = adversarial_train(st, ds, adv, loss, HyperParams(T=2, eta=0.05, R=1.0, eps=0.5))
        assert np.array_equal(st.W, W)
        assert not np.array_equal(res.final_W, W)

    def test_nan_step_size_is_a_violation(self):
        # a NaN drift or gradient norm fails `x <= bound`, so it is recorded
        st, ds, loss, adv = self._setup(m=64)
        hp = HyperParams(T=3, eta=0.01, R=1.0, eps=0.5)
        # HyperParams rejects a NaN eta; force one past it to reach the loop's own checks
        object.__setattr__(hp, "eta", math.nan)
        res = adversarial_train(st, ds, adv, loss, hp)
        assert any("drift" in v for v in res.violations)
        assert any("gradient column" in v for v in res.violations)
        assert all(math.isnan(c) for c in res.trace.coupling_sample[1:])


class TestFitPseudo:
    def test_zero_target_gives_zero(self):
        st = init_network(256, 6, seed=50)
        S = uniform_domain_sample(40, 6, stream(50, "s"))
        fit = fit_pseudo_to_target(st.init, lambda X: np.zeros(len(X)), S)
        assert np.max(np.abs(fit.coeffs)) == 0.0
        assert fit.max_error == 0.0

    def test_recovers_pseudo_network_values(self):
        # target generated by a last-row pseudo-network is fit to near zero error
        st = init_network(128, 6, seed=51)
        c_true = stream(51, "c").standard_normal(128) * 0.05
        S = uniform_domain_sample(200, 6, stream(51, "s"))
        mask = (S @ st.init.W0 + st.init.b0) >= 0
        target_vals = (mask * (0.5 * st.init.a0)) @ c_true
        fit = fit_pseudo_to_target(st.init, target_vals, S, ridge=1e-10 * len(S))
        assert fit.max_error <= 1e-6

    def test_degenerate_features(self):
        d, m = 4, 8
        snap = InitSnapshot(W0=np.zeros((d, m)), b0=np.full(m, -10.0), a0=np.full(m, m ** (-1 / 3)))
        S = uniform_domain_sample(5, d, stream(0, "s"))
        with pytest.raises(FitDegenerateError):
            fit_pseudo_to_target(snap, lambda X: np.ones(len(X)), S)

    def test_ridge_validated(self):
        st = init_network(16, 4, seed=52)
        S = uniform_domain_sample(5, 4, stream(52, "s"))
        with pytest.raises(ValueError):
            fit_pseudo_to_target(st.init, lambda X: np.ones(len(X)), S, ridge=0.0)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf])
    def test_nonfinite_ridge_rejected(self, ridge):
        # a NaN ridge gave a NaN fit and an infinite one an all-zero fit
        st = init_network(16, 4, seed=52)
        S = uniform_domain_sample(5, 4, stream(52, "s"))
        with pytest.raises(ValueError, match="finite and positive"):
            fit_pseudo_to_target(st.init, lambda X: np.ones(len(X)), S, ridge=ridge)

    def test_interpolant_target_fit_error(self):
        # the n=20 instance target is fit to within eps/3 at width 4096
        from robust_overparam.harness import build_fit_instance

        _, target, sample = build_fit_instance(20, 10, 0.8, 0.05, 0.3, 7, 20)
        st = init_network(4096, 10, seed=7)
        fit = fit_pseudo_to_target(st.init, target, sample)
        assert fit.max_error <= 0.1

    @pytest.mark.parametrize("sample_kind", ["random", "fit-instance"])
    @pytest.mark.parametrize("m", [300, 1024, 1025, 4097, 9000])
    def test_streamed_fit_matches_dense_formula(self, m, sample_kind):
        # below one unit tile, one whole tile, one unit over, four tiles and
        # a unit, a ragged last tile
        from robust_overparam.harness import build_fit_instance

        assert _FIT_TILE == 1024
        if sample_kind == "random":
            S = uniform_domain_sample(60, 10, stream(53, "s"))
            vals = np.sin(7.0 * S[:, 0])
        else:
            _, target, S = build_fit_instance(20, 10, 0.8, 0.05, 0.3, 7, 20)
            vals = target(S)
        init = init_network(m, 10, seed=53).init
        fit = fit_pseudo_to_target(init, vals, S)

        mask = (S @ init.W0 + init.b0) >= 0
        assert np.array_equal(_count_gram(init, S), mask.astype(np.int64) @ mask.T.astype(np.int64))
        Phi = mask * (0.5 * init.a0)
        K = Phi @ Phi.T
        K[np.diag_indices_from(K)] += fit.ridge
        coeffs = Phi.T @ np.linalg.solve(K, vals)
        two_inf = np.max(np.abs(coeffs))
        # with n = 420 points and m <= 1025 the fit instance's K has condition
        # number ~1e8, and the dense coefficients alone move by up to 8e-12
        # relative when the units are permuted; 1e-12 holds where K is well
        # conditioned
        rtol = 1e-12 if sample_kind == "random" else 1e-10
        assert np.max(np.abs(fit.coeffs - coeffs)) <= rtol * two_inf
        assert fit.two_inf == pytest.approx(two_inf, rel=rtol, abs=0)
        assert fit.r_star == pytest.approx(two_inf * m ** (2.0 / 3.0), rel=rtol, abs=0)
        resid = np.max(np.abs(Phi @ fit.coeffs - vals))
        assert fit.max_error == pytest.approx(resid, rel=1e-9, abs=0)

    def test_fit_holds_no_n_by_m_array(self):
        # a 420 x 65536 float64 array alone is 220 MB
        from robust_overparam.harness import build_fit_instance

        _, target, sample = build_fit_instance(20, 10, 0.8, 0.05, 0.3, 7, 20)
        init = init_network(65536, 10, seed=7).init
        vals = target(sample)
        tracemalloc.start()
        try:
            fit_pseudo_to_target(init, vals, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_a0_magnitudes_validated(self):
        st = init_network(64, 4, seed=54)
        a0 = st.init.a0.copy()
        a0[3] *= 2.0
        snap = InitSnapshot(W0=st.init.W0, b0=st.init.b0, a0=a0)
        S = uniform_domain_sample(10, 4, stream(54, "s"))
        with pytest.raises(ValueError, match="same magnitude"):
            fit_pseudo_to_target(snap, np.ones(10), S)

    def test_width_doubling_sweep(self):
        # at a ridge level where the residual is meaningful, error is
        # non-increasing in width and the deviation scale stays bounded
        from robust_overparam.harness import build_fit_instance

        _, target, sample = build_fit_instance(20, 10, 0.8, 0.05, 0.3, 7, 20)
        ridge = 1e-4 * len(sample)
        errs, stars = [], []
        for m in (256, 512, 1024, 2048):
            st = init_network(m, 10, seed=7)
            fit = fit_pseudo_to_target(st.init, target, sample, ridge=ridge)
            errs.append(fit.max_error)
            stars.append(fit.r_star)
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        assert max(stars) <= 150.0  # regression bound from the first correct run


def test_empty_dataset_rejected():
    from robust_overparam.dataspace import Dataset

    st = init_network(16, 4, seed=1)
    empty = Dataset(np.zeros((0, 4)), np.zeros(0))
    with pytest.raises(ValueError):
        robust_loss(st, empty, Adversary("identity", AttackConfig(rho=0.1)), make_loss("absolute"))
    with pytest.raises(ValueError):
        adversarial_train(
            st, empty, Adversary("identity", AttackConfig(rho=0.1)),
            make_loss("absolute"), HyperParams(T=1, eta=0.1, R=1.0, eps=0.5),
        )
