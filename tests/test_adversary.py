"""Tests for the cap projection and the rho-bounded adversaries."""

import math

import numpy as np
import pytest

from robust_overparam.adversary import (
    Adversary,
    AttackConfig,
    _project_cap_batch,
    attack_batch,
    input_gradient,
    random_cap_point,
)
from robust_overparam.dataspace import uniform_domain_sample, validate_domain
from robust_overparam.network import InitSnapshot, NetworkState, forward_real, init_network
from robust_overparam.rng import stream
from robust_overparam.training import make_loss

R = math.sqrt(3.0) / 2.0
LOSS = make_loss("absolute")


def _tiny_state(W, b, a):
    W = np.asarray(W, dtype=float)
    snap = InitSnapshot(W0=W.copy(), b0=np.asarray(b, dtype=float), a0=np.asarray(a, dtype=float))
    return NetworkState(snap, W.copy())


def _project_to_cap(z, center, rho):
    """_project_cap_batch on one point (and its center) or a batch."""
    z = np.asarray(z, dtype=float)
    out = _project_cap_batch(np.atleast_2d(z), np.atleast_2d(center), rho)
    return out[0] if z.ndim == 1 else out


class TestInputGradient:
    def test_all_inactive_is_zero(self):
        st = _tiny_state([[0.0], [0.0]], [-5.0], [1.0])
        g = input_gradient(st, np.array([R, 0.5]), 1.0, LOSS)
        assert np.max(np.abs(g)) == 0.0

    def test_hand_case(self):
        st = _tiny_state([[1.0], [0.2]], [0.1], [1.0])
        x = np.array([R, 0.5])
        # f(x) = 1.066 > y = 0 -> slope +1; grad = a * W_1
        g = input_gradient(st, x, 0.0, LOSS)
        assert np.allclose(g, [1.0, 0.2], atol=1e-12)

    def test_finite_difference(self):
        st = init_network(64, 6, seed=14)
        x = uniform_domain_sample(1, 6, stream(14, "x"))[0]
        y = 1.0
        g = input_gradient(st, x, y, LOSS)
        h = 1e-6
        rng = np.random.default_rng(2)
        pre = x @ st.W + st.init.b0
        # skip if any unit sits near its kink along the probed coordinate
        for _ in range(20):
            j = rng.integers(0, 6)
            if np.min(np.abs(pre)) < 1e-3:
                continue
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (
                LOSS.value(forward_real(st, xp), y) - LOSS.value(forward_real(st, xm), y)
            ) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-9)


class TestProjectToCap:
    def test_center_fixed_point(self):
        c = np.array([R, 0.0, 0.5])
        assert np.allclose(_project_to_cap(c, c, 0.1), c, atol=1e-12)

    def test_inside_cap_unchanged(self):
        c = np.array([R, 0.0, 0.5])
        z = _project_to_cap(c + np.array([0.0, 0.01, 0.0]), c, 0.1)
        z2 = _project_to_cap(z, c, 0.1)
        assert np.allclose(z, z2, atol=1e-12)

    def test_feasibility_random(self):
        rng = np.random.default_rng(6)
        centers = uniform_domain_sample(50, 7, stream(6, "c"))
        Z = centers + rng.standard_normal(centers.shape)
        out = _project_to_cap(Z, centers, 0.2)
        validate_domain(out)
        assert np.all(np.linalg.norm(out - centers, axis=1) <= 0.2 + 1e-9)

    def test_antipodal_and_zero_head(self):
        c = np.array([R, 0.0, 0.0, 0.5])
        out = _project_to_cap(np.array([-R, 0.0, 0.0, 0.5]), c, 0.2)
        assert np.linalg.norm(out - c) <= 0.2 + 1e-9
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
        out2 = _project_to_cap(np.array([0.0, 0.0, 0.0, 0.5]), c, 0.2)
        assert np.allclose(out2, c, atol=1e-12)

    def test_antipodal_head_at_d2_is_the_center(self):
        # a one-coordinate head has no tangent direction to rotate along;
        # for rho < sqrt(3) the center is the only cap point within rho
        c = np.array([R, 0.5])
        assert np.array_equal(_project_to_cap(np.array([-R, 0.5]), c, 0.3), c)
        centers = uniform_domain_sample(40, 2, stream(3, "c"))
        for rho in (0.01, 0.3, 1.0):
            out = _project_to_cap(centers * np.array([-1.0, 1.0]), centers, rho)
            assert np.array_equal(out, centers)

    @pytest.mark.parametrize("rho", [0.05, 0.2, 1.0])
    def test_far_and_antipodal_land_at_distance_rho(self, rho):
        # one geodesic rotation puts the head at chord rho from the center;
        # projecting again only renormalizes the head and rotates nothing
        centers = uniform_domain_sample(50, 7, stream(25, "c"))
        C = np.vstack([centers, centers])
        antipodal = centers * np.append(-np.ones(6), 1.0)
        Z = np.vstack([uniform_domain_sample(50, 7, stream(25, "z")), antipodal])
        far = np.linalg.norm(Z - C, axis=1) > rho
        C, Z = C[far], Z[far]
        out = _project_to_cap(Z, C, rho)
        assert len(out) >= 60
        assert np.max(np.abs(np.linalg.norm(out - C, axis=1) - rho)) <= 1e-12
        heads = out[:, :-1]
        renormed = np.hstack([heads * (R / np.linalg.norm(heads, axis=1, keepdims=True)), out[:, -1:]])
        assert np.array_equal(_project_to_cap(out, C, rho), renormed)

    def test_d3_grid_oracle(self):
        # the cap in d=3 is an arc; compare against a dense arc grid
        c = np.array([R, 0.0, 0.5])
        rho = 0.2
        theta_max = 2.0 * math.asin(rho / (2.0 * R))
        rng = np.random.default_rng(7)
        thetas = np.linspace(-theta_max, theta_max, 200_001)
        arc = np.stack(
            [R * np.cos(thetas), R * np.sin(thetas), np.full_like(thetas, 0.5)], axis=1
        )
        for _ in range(10):
            z = c + rng.standard_normal(3) * 0.5
            ours = _project_to_cap(z, c, rho)
            best = arc[np.argmin(np.linalg.norm(arc - z, axis=1))]
            assert np.linalg.norm(ours - best) <= 1e-3


class TestWorstCaseAttack:
    def test_zero_steps_single_restart_identity(self):
        st = init_network(32, 5, seed=15)
        x = uniform_domain_sample(1, 5, stream(15, "x"))[0]
        cfg = AttackConfig(rho=0.1, steps=0, restarts=1, seed=0)
        out = Adversary("worst", cfg).perturb(st, x, 1.0, LOSS)
        assert np.array_equal(out[0], x)

    def test_feasible_and_on_domain(self):
        st = init_network(64, 6, seed=16)
        X = uniform_domain_sample(10, 6, stream(16, "x"))
        cfg = AttackConfig(rho=0.1, seed=1)
        out = attack_batch(st, X, np.ones(10), LOSS, cfg)
        validate_domain(out)
        assert np.all(np.linalg.norm(out - X, axis=1) <= 0.1 + 1e-9)

    def test_never_below_clean_loss(self):
        st = init_network(64, 6, seed=16)
        X = uniform_domain_sample(10, 6, stream(16, "x"))
        y = np.ones(10)
        cfg = AttackConfig(rho=0.1, seed=1)
        out = attack_batch(st, X, y, LOSS, cfg)
        clean = LOSS.value(forward_real(st, X), y)
        attacked = LOSS.value(forward_real(st, out), y)
        assert np.all(attacked >= clean - 1e-15)

    def test_more_restarts_never_hurt(self):
        st = init_network(64, 6, seed=17)
        x = uniform_domain_sample(1, 6, stream(17, "x"))[0]
        cfg2 = AttackConfig(rho=0.1, restarts=2, seed=5)
        cfg5 = AttackConfig(rho=0.1, restarts=5, seed=5)
        l2 = LOSS.value(forward_real(st, Adversary("worst", cfg2).perturb(st, x, 1.0, LOSS)[0]), 1.0)
        l5 = LOSS.value(forward_real(st, Adversary("worst", cfg5).perturb(st, x, 1.0, LOSS)[0]), 1.0)
        assert l5 >= l2 - 1e-15

    def test_deterministic(self):
        st = init_network(64, 6, seed=18)
        x = uniform_domain_sample(1, 6, stream(18, "x"))[0]
        adv = Adversary("worst", AttackConfig(rho=0.1, seed=2))
        a = adv.perturb(st, x, -1.0, LOSS, tag=3)
        b = adv.perturb(st, x, -1.0, LOSS, tag=3)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        # each example's attack depends only on its own row and index, so
        # every prefix of the batch reproduces the batch's leading rows
        st = init_network(64, 6, seed=19)
        X = uniform_domain_sample(4, 6, stream(19, "x"))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        cfg = AttackConfig(rho=0.1, seed=3)
        batch = attack_batch(st, X, y, LOSS, cfg, tag=7)
        for k in range(1, 4):
            prefix = attack_batch(st, X[:k], y[:k], LOSS, cfg, tag=7)
            assert np.allclose(prefix, batch[:k], atol=1e-12)

    def test_random_search_oracle(self):
        # d=3, m=8, rho=0.1: multi-restart ascent reaches within 2% of a
        # 1e5-point random search over the cap
        st = init_network(8, 3, seed=20)
        x = uniform_domain_sample(1, 3, stream(20, "x"))[0]
        y = 1.0
        rng = stream(20, "oracle")
        cand = np.vstack([random_cap_point(x, 0.1, rng) for _ in range(100_000)])
        oracle = float(np.max(LOSS.value(forward_real(st, cand), y)))
        cfg = AttackConfig(rho=0.1, steps=20, restarts=3, seed=4)
        ours = float(LOSS.value(forward_real(st, Adversary("worst", cfg).perturb(st, x, y, LOSS)[0]), y))
        assert ours >= 0.98 * oracle

    def test_rejects_off_domain_input(self):
        st = init_network(8, 3, seed=20)
        adv = Adversary("worst", AttackConfig(rho=0.1))
        with pytest.raises(ValueError):
            adv.perturb(st, np.array([1.0, 0.0, 0.0]), 1.0, LOSS)
        with pytest.raises(ValueError):
            attack_batch(st, np.array([[math.nan, math.nan, math.nan]]), np.ones(1), LOSS, adv.cfg)


def _reference_attack(st, X, y, loss, cfg, tag=0):
    """Multi-restart PGA composed from the public pieces, one call per stage."""
    step = cfg.rho / 5.0
    best_x = X.copy()
    best_l = loss.value(forward_real(st, X), y)

    def consider(cur):
        l = loss.value(forward_real(st, cur), y)
        upd = l > best_l
        best_l[upd] = l[upd]
        best_x[upd] = cur[upd]

    for r in range(cfg.restarts):
        if r == 0:
            cur = X.copy()
        else:
            cur = np.vstack(
                [random_cap_point(X[i], cfg.rho, stream(cfg.seed, "attack", tag, i, r)) for i in range(len(X))]
            )
            consider(cur)
        for _ in range(cfg.steps):
            cur = _project_to_cap(cur + step * input_gradient(st, cur, y, loss), X, cfg.rho)
            consider(cur)
    return best_x


class _PlateauLoss:
    """floor(128 |pred - y|) / 128, with the slope of |pred - y|."""

    def value(self, pred, y):
        return np.floor(128.0 * np.abs(np.asarray(pred, dtype=float) - y)) / 128.0

    def slope(self, pred, y):
        return np.sign(np.asarray(pred, dtype=float) - y)


class TestAttackPinned:
    """attack_batch equals the stage-by-stage composition bit for bit."""

    # n x m x 8 B = 192 KiB, above glibc malloc's default 128 KiB mmap threshold
    N, M, D = 6, 4096, 8

    def _setup(self, seed):
        st = init_network(self.M, self.D, seed=seed)
        X = uniform_domain_sample(self.N, self.D, stream(seed, "x"))
        y = np.array([1.0, -1.0] * (self.N // 2))
        return st, X, y

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("steps", [0, 5])
    def test_matches_reference(self, loss_tag, restarts, steps):
        st, X, y = self._setup(21)
        loss = make_loss(loss_tag)
        cfg = AttackConfig(rho=0.1, steps=steps, restarts=restarts, seed=6)
        W = st.W.copy()
        out = attack_batch(st, X, y, loss, cfg, tag=4)
        assert np.array_equal(out, _reference_attack(st, X, y, loss, cfg, tag=4))
        assert np.array_equal(st.W, W)
        assert not np.shares_memory(out, st.W)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("restarts,steps", [(3, 0), (3, 5), (2, 7)])
    def test_plateau_ties_resolve_in_restart_order(self, seed, restarts, steps):
        # a loss flat on 1/128-wide bands makes equal maxima across restarts
        # and steps common; the earliest of them must win, as in the reference
        st, X, y = self._setup(30 + seed)
        cfg = AttackConfig(rho=0.1, steps=steps, restarts=restarts, seed=seed)
        out = attack_batch(st, X, y, _PlateauLoss(), cfg, tag=2)
        assert np.array_equal(out, _reference_attack(st, X, y, _PlateauLoss(), cfg, tag=2))

    def test_repeat_calls_agree(self):
        st, X, y = self._setup(22)
        cfg = AttackConfig(rho=0.1, steps=5, restarts=3, seed=8)
        a = attack_batch(st, X, y, LOSS, cfg, tag=1)
        b = attack_batch(st, X, y, LOSS, cfg, tag=1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    def test_input_gradient_formula(self, loss_tag):
        st, X, y = self._setup(23)
        loss = make_loss(loss_tag)
        W = st.W.copy()
        g = input_gradient(st, X, y, loss)
        slopes = loss.slope(forward_real(st, X), y)
        mask = (X @ st.W + st.init.b0) >= 0
        assert np.array_equal(g, slopes[:, None] * ((mask * st.init.a0) @ st.W.T))
        assert np.array_equal(st.W, W)
        assert not np.shares_memory(g, st.W)

    def test_random_adversary_matches_per_example(self):
        st, X, y = self._setup(24)
        cfg = AttackConfig(rho=0.3, seed=10)
        adv = Adversary("random", cfg)
        out = adv.perturb(st, X, y, LOSS, tag=5)
        ref = np.vstack(
            [random_cap_point(X[i], cfg.rho, stream(cfg.seed, "attack-rand", 5, i)) for i in range(len(X))]
        )
        assert np.array_equal(out, ref)
        assert np.array_equal(out, adv.perturb(st, X, y, LOSS, tag=5))


class TestBaselines:
    def test_identity(self):
        x = np.array([R, 0.0, 0.5])
        out = Adversary("identity", AttackConfig(rho=0.1)).perturb(None, x, 1.0, LOSS)
        assert np.array_equal(out, x[None, :])

    def test_random_feasible_and_deterministic(self):
        # two copies of x, so row 1 draws from the example-index-1 stream
        X = np.array([[R, 0.0, 0.5]] * 2)
        adv = Adversary("random", AttackConfig(rho=0.15, seed=9))
        a = adv.perturb(None, X, None, LOSS)
        b = adv.perturb(None, X, None, LOSS)
        assert np.array_equal(a, b)
        validate_domain(a)
        assert np.all(np.linalg.norm(a - X, axis=1) <= 0.15 + 1e-9)

    @pytest.mark.parametrize("name", ["random", "identity"])
    def test_rejects_off_domain_input(self, name):
        adv = Adversary(name, AttackConfig(rho=0.1))
        for x in ([1.0, 0.0, 0.0], [math.nan, math.nan, math.nan]):
            with pytest.raises(ValueError):
                adv.perturb(None, np.array([x]), None, LOSS)

    def test_construct_by_name(self):
        cfg = AttackConfig(rho=0.1)
        for name in ("worst", "random", "identity"):
            adv = Adversary(name, cfg)
            assert adv.name == name
            assert adv.cfg is cfg
        with pytest.raises(ValueError):
            Adversary("nope", cfg)

    def test_config_validation(self):
        for rho in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                AttackConfig(rho=rho)
        # a float or NaN count would construct and fail later in range()
        for bad in ({"restarts": 0}, {"restarts": 1.5}, {"steps": -1}, {"steps": 2.5}, {"steps": math.nan}):
            with pytest.raises(ValueError):
                AttackConfig(rho=0.1, **bad)
        assert AttackConfig(rho=0.1, steps=np.int64(5), restarts=np.int64(2)).steps == 5
