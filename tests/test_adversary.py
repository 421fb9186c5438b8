"""Tests for the cap projection and the rho-bounded adversaries."""

import math

import numpy as np
import pytest

from robust_overparam.adversary import (
    _PROJECT_TOL,
    Adversary,
    AttackConfig,
    _project_cap_batch,
    attack_batch,
    input_gradient,
    random_cap_point,
)
from robust_overparam.dataspace import DOMAIN_ATOL, Dataset, uniform_domain_sample, validate_domain
from robust_overparam.network import (
    InitSnapshot,
    NetworkState,
    _CapWorkspace,
    _stable_on_cap,
    _Workspace,
    forward_real,
    init_network,
)
from robust_overparam.rng import stream
from robust_overparam.training import HyperParams, adversarial_train, make_loss

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


def _compose_attack(X, y, loss, cfg, tag, forward, gradient):
    """Multi-restart PGA composed one restart and one stage at a time.

    forward(cur) gives f at the n rows of cur, one per example, and
    gradient(cur) the loss's input gradient there.
    """
    step = cfg.rho / 5.0
    best_x = X.copy()
    best_l = loss.value(forward(X), y)

    def consider(cur):
        l = loss.value(forward(cur), y)
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
            cur = _project_to_cap(cur + step * gradient(cur), X, cfg.rho)
            consider(cur)
    return best_x


def _reference_attack(st, X, y, loss, cfg, tag=0):
    """The attack on a one-restart cap workspace; pins streams, lockstep, projection, best iterate and ties."""
    ws = _CapWorkspace(st, X, cfg.rho + _PROJECT_TOL, 1)
    return _compose_attack(
        X, y, loss, cfg, tag, ws.forward, lambda cur: ws.input_gradient(loss.slope(ws.forward(cur), y))
    )


def _full_width_attack(st, X, y, loss, cfg, tag=0):
    """The attack on the full-width network: forward_real and input_gradient over every unit."""
    return _compose_attack(
        X, y, loss, cfg, tag, lambda cur: forward_real(st, cur), lambda cur: input_gradient(st, cur, y, loss)
    )


class _PlateauLoss:
    """floor(128 |pred - y|) / 128, with the slope of |pred - y|."""

    def value(self, pred, y):
        return np.floor(128.0 * np.abs(np.asarray(pred, dtype=float) - y)) / 128.0

    def slope(self, pred, y):
        return np.sign(np.asarray(pred, dtype=float) - y)


class TestAttackPinned:
    """attack_batch equals the stage-by-stage composition on a cap workspace bit for bit."""

    # at rho = 0.1 a cap's unstable units are about 12% of m at d = 6, so
    # d * u stays below m and the attack takes the gathered path
    N, M, D = 6, 4096, 6

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
        assert _CapWorkspace(st, X, cfg.rho + _PROJECT_TOL, restarts).full is None
        W = st.W.copy()
        out = attack_batch(st, X, y, loss, cfg, tag=4)
        assert np.array_equal(out, _reference_attack(st, X, y, loss, cfg, tag=4))
        assert np.array_equal(st.W, W)
        assert not np.shares_memory(out, st.W)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_full_width_past_the_gather_limit(self, restarts):
        # at rho = 0.3 about a third of the units can flip on a cap, so
        # d * u > m: every unit is evaluated, one restart at a time, and the
        # attack is the full-width composition bit for bit
        st, X, y = self._setup(23)
        cfg = AttackConfig(rho=0.3, steps=5, restarts=restarts, seed=6)
        assert _CapWorkspace(st, X, cfg.rho + _PROJECT_TOL, restarts).full is not None
        out = attack_batch(st, X, y, LOSS, cfg, tag=4)
        assert np.array_equal(out, _reference_attack(st, X, y, LOSS, cfg, tag=4))
        assert np.array_equal(out, _full_width_attack(st, X, y, LOSS, cfg, tag=4))

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


U = 2.0**-53  # unit roundoff


def _boundary_points(X, radius, rng):
    """A point of each row's cap whose head is exactly radius (chord) from the center's.

    Each head turns along the geodesic in a random tangent direction; the
    last coordinate is 1/2.  Needs d >= 3, so that a head has a tangent.
    """
    H = X[:, :-1] / np.linalg.norm(X[:, :-1], axis=1, keepdims=True)
    w = rng.standard_normal(H.shape)
    w -= np.sum(w * H, axis=1, keepdims=True) * H
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    theta = 2.0 * math.asin(radius / (2.0 * R))
    return np.hstack([R * (math.cos(theta) * H + math.sin(theta) * w), np.full((len(X), 1), 0.5)])


def _pga_iterates(st, X, y, rho, steps, seed):
    """Every iterate of a full-width PGA run from a random start on each row's cap."""
    cur = np.vstack([random_cap_point(X[i], rho, stream(seed, "start", i)) for i in range(len(X))])
    out = [cur]
    for _ in range(steps):
        cur = _project_to_cap(cur + (rho / 5.0) * input_gradient(st, cur, y, LOSS), X, rho)
        out.append(cur)
    return out


def _check_against_workspace(st, X, Z, rho, slopes):
    """_CapWorkspace at Z, k x n rows with row j * n + i on cap i, against _Workspace.

    A unit that _stable_on_cap calls stable must keep its center's sign at
    every row of Z.  The workspace gathers each row's other units when
    d * u <= m, u the largest count, and evaluates every unit otherwise;
    either way its active set must be the full workspace's mask exactly.
    f and the input gradient must agree to within log2(m) units of
    roundoff of their absolute-value evaluations: both sum m terms, in
    different orders, and a blocked sum's rounding grows about as log2 m
    (measured over these tests: at most 0.31 units for f and 1.3 for the
    gradient when gathered, and 3.7 for the gradient at full width, where
    the two workspaces' products differ in row count; log2 m >= 8.2).
    """
    n, k = len(X), len(Z) // len(X)
    d, m = st.W.shape
    radius = rho + _PROJECT_TOL
    cap = _CapWorkspace(st, X, radius, k)
    f_cap = cap.forward(Z)
    full = _Workspace(st, len(Z))
    f = full.forward(Z)
    at_centers = _Workspace(st, n)
    at_centers.forward(X)
    # the decision on a full-width product
    unstable = ~_stable_on_cap(X @ st.W + st.init.b0, st.W, radius)
    stable = np.tile(~unstable, (k, 1))
    assert np.array_equal(full.mask[stable], np.tile(at_centers.mask, (k, 1))[stable])
    assert (cap.full is not None) == (d * unstable.sum(axis=1).max(initial=0) > m)
    if cap.full is not None:
        active = np.vstack(cap.masks)
    else:
        active = np.tile(at_centers.mask, (k, 1))
        for i in range(n):
            units = np.flatnonzero(unstable[i])
            assert np.array_equal(cap.Wu[i, :, : len(units)], st.W[:, units])
            assert not cap.Wu[i, :, len(units) :].any()
            for j in range(k):
                active[j * n + i, units] = cap.on[j, i, 0, : len(units)]
    assert np.array_equal(active, full.mask)
    absolute = np.abs(st.init.a0) @ (np.abs(Z) @ np.abs(st.W) + np.abs(st.init.b0)).T
    ulps = math.log2(m) * U
    assert np.all(np.abs(f_cap - f) <= ulps * absolute)
    g_cap = cap.input_gradient(slopes)
    g = full.input_gradient(slopes)
    g_absolute = np.abs(slopes)[:, None] * ((full.mask * np.abs(st.init.a0)) @ np.abs(st.W).T)
    assert np.all(np.abs(g_cap - g) <= ulps * g_absolute)
    return unstable


def _short_training(st, X, y, rho, T=4):
    """Weights after T steps of adversarial training at ten times the schedule's step."""
    hp = HyperParams(T=T, eta=10 * 0.3 * st.init.m ** (-1.0 / 3.0), R=1.0, eps=0.3)
    adv = Adversary("worst", AttackConfig(rho=rho, steps=5, restarts=2, seed=1))
    return st.with_weights(adversarial_train(st, Dataset(X, y), adv, LOSS, hp).final_W)


class TestCapWorkspace:
    """_CapWorkspace gives the full-width network's active set, f and gradient on every cap."""

    @pytest.mark.parametrize("trained", [False, True])
    @pytest.mark.parametrize(
        "m,d,rho,seed", [(300, 16, 0.1, 1), (2500, 10, 0.05, 2), (8192, 10, 0.05, 3), (1500, 2, 0.3, 4), (1024, 3, 0.5, 5)]
    )
    def test_matches_workspace(self, m, d, rho, seed, trained):
        st = init_network(m, d, seed=seed)
        X = uniform_domain_sample(8, d, stream(seed, "x"))
        y = np.array([1.0, -1.0] * 4)
        if trained:
            st = _short_training(st, X, y, rho)
        rng = np.random.default_rng(seed)
        randoms = [
            np.vstack([random_cap_point(X[i], rho, stream(seed, "cap", j, i)) for i in range(len(X))])
            for j in range(3)
        ]
        point_sets = [X] + randoms + _pga_iterates(st, X, y, rho, 6, seed)
        if d >= 3:
            point_sets += [_boundary_points(X, rho + _PROJECT_TOL, rng) for _ in range(3)]
        for Z in point_sets:
            _check_against_workspace(st, X, Z, rho, rng.uniform(-1.0, 1.0, len(Z)))
        # k points per cap in one call, as attack_batch evaluates its restarts
        Z = np.vstack(point_sets[:3])
        unstable = _check_against_workspace(st, X, Z, rho, rng.uniform(-1.0, 1.0, len(Z)))
        assert 0 < unstable.sum() < unstable.size

    def test_centers_off_the_domain(self):
        # centers off by up to DOMAIN_ATOL in the last coordinate and the
        # norm; every iterate has a last coordinate of exactly 1/2
        st = init_network(4096, 10, seed=6)
        X = uniform_domain_sample(8, 10, stream(6, "x"))
        signs = np.array([1.0, -1.0] * 4)
        X[:, -1] += 0.5 * DOMAIN_ATOL * signs
        X[:, :-1] *= 1.0 + 0.5 * DOMAIN_ATOL * signs[:, None]
        validate_domain(X)
        y = np.array([1.0, -1.0] * 4)
        rng = np.random.default_rng(6)
        for Z in _pga_iterates(st, X, y, 0.05, 6, 6) + [_boundary_points(X, 0.05 + _PROJECT_TOL, rng)]:
            _check_against_workspace(st, X, Z, 0.05, np.ones(len(Z)))

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_units_at_the_reach(self, shift):
        # one center with x_d = 1/2 - 0.999 DOMAIN_ATOL, so every cap point
        # moves p_r by 0.999 DOMAIN_ATOL W_d,r in the last coordinate alone.
        # Units sit just inside and just outside reach_r, some built to flip
        # on the cap: a unit outside must be stable and keep its sign, and
        # one that flips must be evaluated
        d, rho = 4, 0.05
        radius = rho + _PROJECT_TOL
        x = np.array([R, 0.0, 0.0, 0.5])
        x[-1] -= 0.999 * DOMAIN_ATOL
        X = x[None, :]
        validate_domain(X)
        tangent = np.array([0.0, 1.0, 0.0])
        last = 1e6  # a last-coordinate weight whose domain slack is 1e-3
        W_cols, b, reach = [], [], []
        for head, w_d in ((tangent, 0.0), (0.0 * tangent, last), (0.5 * tangent, 0.1 * last)):
            W_r = np.append(head, w_d)
            r = (radius + DOMAIN_ATOL) * np.linalg.norm(head) + DOMAIN_ATOL * abs(w_d) + 1e-12
            for factor in (1.0 - 1e-6, 1.0 + 1e-6, 0.85, 1.5):
                W_cols.append(W_r)
                b.append(shift * factor * r - W_r @ x)
                reach.append(r)
        W = np.array(W_cols).T
        st = _tiny_state(W, b, np.ones(len(b)))
        P = x @ W + np.array(b)
        stable = _stable_on_cap(P[None, :], W, radius)[0]
        assert np.array_equal(stable, np.abs(P) > np.array(reach))
        assert np.array_equal(stable, np.tile([False, True, False, True], 3))
        rng = np.random.default_rng(9)
        theta = 2.0 * math.asin(radius / (2.0 * R))
        # the boundary points turned along and against the tangent, where the
        # head moves p_r most, then random ones
        points = [np.array([[R * math.cos(t), R * math.sin(t), 0.0, 0.5]]) for t in (theta, -theta)]
        points += [_boundary_points(X, radius, rng) for _ in range(50)]
        flipped = np.zeros(len(b), dtype=bool)
        for Z in points:
            flipped |= ((Z @ W + np.array(b)) >= 0)[0] != (P >= 0)
            _check_against_workspace(st, X, Z, rho, np.ones(1))
        assert not (flipped & stable).any()
        assert flipped.any()


class TestAttackEdges:
    """Inputs where the attack has no iterate to improve on."""

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
    def test_non_finite_label_raises(self, label):
        # a non-finite label makes every loss on its row non-finite, so the
        # clean point would come back as if it were the worst case
        st = init_network(64, 6, seed=16)
        X = uniform_domain_sample(4, 6, stream(16, "x"))
        y = np.array([1.0, label, -1.0, 0.5])
        cfg = AttackConfig(rho=0.1, seed=1)
        with pytest.raises(ValueError, match="finite"):
            attack_batch(st, X, y, LOSS, cfg)
        with pytest.raises(ValueError, match="finite"):
            Adversary("worst", cfg).perturb(st, X, label, LOSS)

    def test_empty_batch(self):
        st = init_network(64, 6, seed=16)
        out = attack_batch(st, np.empty((0, 6)), np.empty(0), LOSS, AttackConfig(rho=0.1, seed=1))
        assert out.shape == (0, 6)

    def test_nan_weight_column_leaves_rows_unmoved(self):
        st = init_network(256, 6, seed=16)
        W = st.W.copy()
        W[:, 7] = math.nan
        st = st.with_weights(W)
        X = uniform_domain_sample(5, 6, stream(16, "x"))
        assert np.isnan(forward_real(st, X)).all()
        out = attack_batch(st, X, np.ones(5), LOSS, AttackConfig(rho=0.1, seed=1))
        assert np.array_equal(out, X)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_zero_steps_picks_as_the_full_width_attack(self, restarts):
        # no step: the attack only scores the clean point and the random starts
        st, X, y = TestAttackPinned()._setup(26)
        cfg = AttackConfig(rho=0.1, steps=0, restarts=restarts, seed=3)
        out = attack_batch(st, X, y, LOSS, cfg, tag=2)
        assert np.array_equal(out, _full_width_attack(st, X, y, LOSS, cfg, tag=2))
        if restarts == 1:
            assert np.array_equal(out, X)

    def test_one_restart_follows_the_full_width_attack(self):
        st, X, y = TestAttackPinned()._setup(27)
        cfg = AttackConfig(rho=0.1, steps=8, restarts=1, seed=3)
        out = attack_batch(st, X, y, LOSS, cfg, tag=2)
        assert np.max(np.abs(out - _full_width_attack(st, X, y, LOSS, cfg, tag=2))) <= 1e-15

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    def test_every_unit_stable(self, loss_tag):
        # |b_r| = 1 against ||W_r|| about 0.1: no unit can change sign on a
        # 0.1-cap, so every step is the linear part alone
        st = init_network(512, 8, seed=28)
        st = _tiny_state(st.W, np.sign(st.init.b0), st.init.a0)
        X = uniform_domain_sample(6, 8, stream(28, "x"))
        y = np.array([1.0, -1.0] * 3)
        cfg = AttackConfig(rho=0.1, steps=6, restarts=3, seed=4)
        assert _CapWorkspace(st, X, cfg.rho + _PROJECT_TOL, 3).Wu.shape[2] == 0
        out = attack_batch(st, X, y, make_loss(loss_tag), cfg, tag=1)
        assert np.max(np.abs(out - _full_width_attack(st, X, y, make_loss(loss_tag), cfg, tag=1))) <= 1e-15

    @pytest.mark.parametrize("loss_tag", ["absolute", "huber"])
    def test_every_unit_unstable(self, loss_tag):
        # with b_r = -W_d,r / 2, p_r = <W_head,r, x_head>, at most
        # sqrt(3)/2 ||W_head,r|| < rho ||W_head,r|| on a 0.9-cap: every unit
        # can flip, so d * u > m and the attack runs at full width
        st = init_network(512, 8, seed=29)
        st = _tiny_state(st.W, -0.5 * st.W[-1], st.init.a0)
        X = uniform_domain_sample(6, 8, stream(29, "x"))
        y = np.array([1.0, -1.0] * 3)
        cfg = AttackConfig(rho=0.9, steps=6, restarts=3, seed=4)
        assert not _stable_on_cap(X @ st.W + st.init.b0, st.W, cfg.rho + _PROJECT_TOL).any()
        assert _CapWorkspace(st, X, cfg.rho + _PROJECT_TOL, 3).full is not None
        out = attack_batch(st, X, y, make_loss(loss_tag), cfg, tag=1)
        assert np.array_equal(out, _full_width_attack(st, X, y, make_loss(loss_tag), cfg, tag=1))


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
