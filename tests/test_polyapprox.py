"""Tests for the polynomial constructions and their certificates."""

import math
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
import pytest

from robust_overparam import polyapprox
from robust_overparam.dataspace import Dataset, SeparabilityError
from robust_overparam.polyapprox import (
    CertificationError,
    Polynomial,
    StepSpec,
    chebyshev_int_coeffs,
    complexity_measures,
    compressed_power,
    compressed_sign_poly,
    robust_interpolant,
    step_poly,
)

GRID = np.linspace(-1.0, 1.0, 1001)


def _unit(k: int) -> np.ndarray:
    """Chebyshev coefficients of T_k alone."""
    return np.eye(k + 1)[k]


def _horner(coeffs, z: Fraction) -> Fraction:
    """Exact Horner evaluation of ascending monomial coefficients at a rational point."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class TestChebyshevT:
    def test_base_cases(self):
        assert chebyshev_int_coeffs(0) == [1]
        assert chebyshev_int_coeffs(1) == [0, 1]

    def test_known_row_k10(self):
        # T_10 = 512 z^10 - 1280 z^8 + 1120 z^6 - 400 z^4 + 50 z^2 - 1
        assert chebyshev_int_coeffs(10) == [-1, 0, 50, 0, -400, 0, 1120, 0, -1280, 0, 512]

    def test_coefficient_bound_k10(self):
        assert all(abs(c) <= 2**20 for c in chebyshev_int_coeffs(10))

    def test_cosine_identity(self):
        # T_5(0.3) = cos(5 arccos 0.3), by Clenshaw and by the integer row
        expected = math.cos(5 * math.acos(0.3))
        assert abs(polyapprox.clenshaw(_unit(5), 0.3) - expected) <= 1e-12
        assert abs(float(_horner(chebyshev_int_coeffs(5), Fraction(3, 10))) - expected) <= 1e-12

    def test_matches_numpy_basis(self):
        for k in (2, 7, 12):
            ours = [float(c) for c in chebyshev_int_coeffs(k)]
            ref = np.polynomial.chebyshev.cheb2poly(_unit(k))
            assert np.allclose(ours, ref, atol=1e-9)

    def test_degree_is_highest_nonzero(self):
        # T_k has degree k and leading coefficient 2^(k-1) for k >= 1
        for k in (0, 1, 5, 30):
            row = chebyshev_int_coeffs(k)
            assert len(row) == k + 1
            assert row[-1] == (2 ** (k - 1) if k else 1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_int_coeffs(-1)


def _product_sign(eta: float, eps1: float):
    """The product-form series p(z) = z sum_{i<=k} w_i (1 - z^2)^i that compressed_sign_poly compresses."""
    w = polyapprox._walk_weights(polyapprox.sign_gap_terms(eta, eps1))
    return lambda z: z * np.polynomial.polynomial.polyval(1.0 - z * z, w)


def _product_sign_exact(eta: float, eps1: float) -> list[Fraction]:
    """Monomial coefficients of _product_sign, with w_i = C(2i, i) / 4^i over 4^k."""
    k = polyapprox.sign_gap_terms(eta, eps1)
    series = [c << 2 * (k - i) for i, c in enumerate(polyapprox._central_binomials(k))]
    return polyapprox._to_fractions(polyapprox._expand_w_power_series((series, 2 * k)))


class TestSignPoly:
    """sign_gap_terms' series length and the weights that compressed_sign_poly compresses."""

    def test_odd_and_zero(self):
        p = _product_sign(0.3, 0.2)
        assert p(0.0) == 0.0
        assert np.max(np.abs(p(GRID) + p(-GRID))) <= 1e-10

    @pytest.mark.parametrize("eta,eps1", [(0.5, 0.2), (0.25, 0.1), (0.1, 0.05)])
    def test_gap_accuracy(self, eta, eps1):
        # within eps1/2 of sign on [eta, 1]
        p = _product_sign(eta, eps1)
        g = np.linspace(eta, 1.0, 10_000)
        assert np.max(np.abs(p(g) - 1.0)) <= eps1 / 2.0

    def test_frozen_point_value(self):
        # exact Fraction evaluation of the k=48 series at z=1/2
        assert polyapprox.sign_gap_terms(0.25, 0.1) == 48
        assert abs(_product_sign(0.25, 0.1)(0.5) - 0.9999998819507973) <= 1e-12

    def test_exact_expansion_matches_evaluator(self):
        p, exact = _product_sign(0.5, 0.5), _product_sign_exact(0.5, 0.5)
        for z in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 8)):
            assert abs(float(_horner(exact, z)) - float(p(float(z)))) <= 1e-12

    @pytest.mark.parametrize("eta,eps1", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)])
    def test_rejects_bad_params(self, eta, eps1):
        with pytest.raises(ValueError):
            compressed_sign_poly(eta, eps1)


class TestCompressedPower:
    def test_single_step_is_identity(self):
        p = compressed_power(1, 1)
        assert p.degree == 1
        assert np.allclose(p.chebyshev_coeffs, [0.0, 1.0])

    def test_untruncated_reproduces_power(self):
        p = compressed_power(6, 6)
        g = np.linspace(-1.0, 1.0, 10_000)
        assert np.max(np.abs(p(g) - g**6)) <= 1e-12

    @pytest.mark.parametrize("s,cap", [(10, 6), (20, 12), (40, 18)])
    def test_uniform_error_bound(self, s, cap):
        p = compressed_power(s, cap)
        g = np.linspace(-1.0, 1.0, 10_000)
        assert np.max(np.abs(p(g) - g**s)) <= 2.0 * math.exp(-(cap**2) / (2.0 * s))

    def test_truncated_degree(self):
        p = compressed_power(20, 12)
        assert p.degree == 12
        assert compressed_power(20, 11).degree == 10  # parity of s

    def test_monte_carlo_walk_oracle(self):
        # independent oracle: simulate the random walk and average the
        # truncated T_{walk} values directly
        from robust_overparam.rng import stream

        s, cap = 9, 5
        p = compressed_power(s, cap)
        rng = stream(123, "walk-oracle")
        steps = rng.choice([-1.0, 1.0], size=(200_000, s))
        walks = np.abs(steps.sum(axis=1))
        for z in (-0.8, 0.1, 0.6):
            vals = np.where(walks <= cap, np.cos(walks * math.acos(z)), 0.0)
            mc = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(p(z) - mc) <= 4.0 * se

    def test_horner_clenshaw_agree(self):
        p = compressed_power(12, 8)
        _assert_exact_matches_grid(p.exact_monomial, p, 1e-8)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            compressed_power(0, 3)
        with pytest.raises(ValueError):
            compressed_power(3, 0.0)


class TestCompressedSign:
    def test_odd_symmetry(self):
        p = compressed_sign_poly(0.5, 0.2)
        assert p(0.0) == 0.0
        assert np.max(np.abs(p(GRID) + p(-GRID))) <= 1e-10

    def test_degree_budget(self):
        p = compressed_sign_poly(0.5, 0.2)
        assert p.degree <= math.ceil(6.0 * math.log(20.0))  # = 18

    def test_grid_accuracy(self):
        p = compressed_sign_poly(0.5, 0.2)
        g = np.linspace(0.5, 1.0, 10_000)
        assert np.max(np.abs(p(g) - 1.0)) <= 0.2
        assert np.max(np.abs(p(-g) + 1.0)) <= 0.2

    def test_certification_recorded(self):
        p = compressed_sign_poly(0.25, 0.1)
        cert = p.meta["certification"]
        assert cert["pass"] and cert["max_error"] <= 0.1

    @pytest.mark.parametrize("eta,eps1", [(0.5, 0.2), (0.25, 0.1)])
    def test_coefficient_bound(self, eta, eps1):
        p = compressed_sign_poly(eta, eps1)
        bound_log2 = 4.0 * p.meta["walk_cap"]
        mags = p.monomial_magnitudes()
        top = max(mags)
        assert math.log2(top) <= bound_log2

    def test_chebyshev_basis_consistent(self):
        p = compressed_sign_poly(0.25, 0.1)
        assert np.max(np.abs(polyapprox.clenshaw(p.chebyshev_coeffs, GRID) - p(GRID))) <= 1e-8

    def test_chebyshev_basis_matches_numpy_interpolation(self):
        # independent basis oracle: numpy's node interpolation of the evaluator
        p = compressed_sign_poly(0.5, 0.2)
        ref = np.polynomial.chebyshev.chebinterpolate(lambda z: p(z), p.degree)
        assert np.allclose(p.chebyshev_coeffs, ref, atol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            compressed_sign_poly(1.5, 0.1)

    # the (eta_gap, eps1) of the compressed sign polynomials behind the
    # acceptance coefficient-bound cases and the step-certification matrix
    SERIES_SPECS = [(0.5, 0.2), (0.25, 0.1), (0.2, 0.1)] + [
        (StepSpec(rho=rho, delta=delta, eps1=eps1).eta_gap, eps1)
        for delta in (0.5, 0.8, 1.2)
        for rho in (0.02, 0.05)
        for eps1 in (0.1, 0.01)
    ]

    @pytest.mark.parametrize("eta,eps1", SERIES_SPECS)
    def test_float_series_matches_exact(self, eta, eps1):
        series, k, _, cap, _ = polyapprox._sign_series(eta, eps1)
        nums, e = polyapprox._sign_series_exact(k, cap)
        exact = np.array([float(Fraction(n, 2**e)) for n in nums])
        assert np.max(np.abs(series - exact) / np.abs(exact)) <= 1e-11


class TestStepPoly:
    SPEC = StepSpec(rho=0.05, delta=0.8, eps1=0.01)

    def test_midpoint_is_half(self):
        q = step_poly(self.SPEC)
        assert q(self.SPEC.alpha_shift) == 0.5

    def test_near_one_plateau(self):
        q = step_poly(self.SPEC)
        assert abs(q(1.0) - 1.0) <= 0.01

    def test_far_zero_plateau(self):
        q = step_poly(self.SPEC)
        hi = 1.0 - (self.SPEC.delta - self.SPEC.rho) ** 2 / 2.0
        g = np.linspace(-1.0, hi, 10_000)
        assert np.max(np.abs(q(g))) <= 0.01

    def test_derived_quantities(self):
        assert self.SPEC.eta_gap == pytest.approx(0.07)
        assert self.SPEC.alpha_shift == pytest.approx(0.85875)

    def test_spec_rejects_overlapping_balls(self):
        with pytest.raises(SeparabilityError):
            StepSpec(rho=0.3, delta=0.5, eps1=0.1)

    def test_spec_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            StepSpec(rho=0.05, delta=2.5, eps1=0.1)
        with pytest.raises(ValueError):
            StepSpec(rho=0.05, delta=0.8, eps1=1.5)

    def test_exact_expansion_matches_evaluator(self):
        q = step_poly(StepSpec(rho=0.05, delta=1.2, eps1=0.1))
        for z in (Fraction(1, 2), Fraction(-3, 4), Fraction(99, 100)):
            assert abs(float(_horner(q.exact_monomial, z)) - float(q(float(z)))) <= 1e-10

    def test_chebyshev_basis_consistent(self):
        q = step_poly(self.SPEC)
        assert np.max(np.abs(polyapprox.clenshaw(q.chebyshev_coeffs, GRID) - q(GRID))) <= 1e-8


class TestCertified:
    """The one grid certifier behind compressed_sign_poly and step_poly."""

    @staticmethod
    def _identity(plateaus, tol=0.1):
        return polyapprox._certified(
            1, lambda z: np.asarray(z, dtype=float), lambda: ([0, 1], 0), plateaus, tol, {"kind": "identity"}
        )

    def test_missed_plateau_raises_naming_kind(self):
        # z is within 0.05 of 0.5 on [0.45, 0.55] but 0.5 away from 1 at z = 0.5
        with pytest.raises(CertificationError, match="identity") as exc:
            self._identity([(0.45, 0.55, 0.5), (0.5, 1.0, 1.0)])
        assert "5.000e-01" in str(exc.value)

    def test_passing_plateaus_build_the_polynomial(self):
        p = self._identity([(0.45, 0.55, 0.5), (-1.0, -0.95, -1.0)])
        cert = p.meta["certification"]
        assert cert["intervals"] == [[0.45, 0.55], [-1.0, -0.95]]
        assert cert["errors"] == pytest.approx([0.05, 0.05])
        assert cert["pass"] and cert["tolerance"] == 0.1
        assert p.exact_monomial == [0, 1] and p.chebyshev_coeffs == pytest.approx([0.0, 1.0])

    def test_step_certificate(self):
        spec = StepSpec(0.05, 0.8, 0.01)
        cert = step_poly(spec).meta["certification"]
        assert cert["intervals"] == [
            [1.0 - spec.rho**2 / 2.0, 1.0], [-1.0, 1.0 - (spec.delta - spec.rho) ** 2 / 2.0]
        ]
        assert len(cert["errors"]) == len(cert["intervals"])
        assert cert["max_error"] == max(cert["errors"]) <= cert["tolerance"] == spec.eps1
        assert cert["pass"] is True


def _assert_exact_matches_grid(coeffs, evaluate, tol: float, stride: int = 1):
    """Exact Horner of the monomial coeffs at the rational points of GRID against evaluate there."""
    vals = evaluate(GRID)
    for idx in range(0, len(GRID), stride):
        z = Fraction(idx - 500, 500)
        assert abs(float(_horner(coeffs, z)) - vals[idx]) <= tol


class TestChebyshevConsistency:
    """Exact Horner of chebyshev_int_coeffs (where float would cancel) vs Clenshaw on a 1001 grid."""

    @pytest.mark.parametrize("k", [3, 11])
    def test_float_agreement_low_degree(self, k):
        _assert_exact_matches_grid(chebyshev_int_coeffs(k), lambda z: polyapprox.clenshaw(_unit(k), z), 1e-8)

    @pytest.mark.parametrize("k", [50, 200])
    def test_exact_agreement_high_degree(self, k):
        _assert_exact_matches_grid(
            chebyshev_int_coeffs(k), lambda z: polyapprox.clenshaw(_unit(k), z), 1e-8, stride=10
        )


def _exact_poly(nums: list[int]) -> Polynomial:
    """A polynomial with integer monomial coefficients nums (ascending)."""
    return Polynomial(
        len(nums) - 1,
        evaluator=lambda z: np.polynomial.polynomial.polyval(z, nums),
        exact_expander=lambda: (nums, 0),
        chebyshev_coeffs=np.polynomial.chebyshev.poly2cheb(nums),
        meta={},
    )


class TestComplexity:
    def test_zero_polynomial(self):
        rep = complexity_measures(_exact_poly([0]), eps1=0.1)
        assert rep.c_eps == 0.0 and rep.c_plain == 0.0

    def test_linear_plain_value(self):
        rep = complexity_measures(_exact_poly([0, 1]), eps1=0.5)
        assert rep.c_plain == pytest.approx(2.0 * 2**1.75, rel=1e-12)

    def test_linear_eps_value(self):
        eps1 = 0.5
        rep = complexity_measures(_exact_poly([0, 1]), eps1=eps1)
        expected = 2.0 * (1.0 + math.sqrt(math.log(1.0 / eps1)))
        assert rep.c_eps == pytest.approx(expected, rel=1e-12)

    def test_constant_term_convention(self):
        rep = complexity_measures(_exact_poly([3]), eps1=0.1)
        assert rep.c_eps == pytest.approx(6.0, rel=1e-12)

    def test_step_poly_fixture(self):
        # regression values pinned from the first correct run (exact expansion)
        q = step_poly(StepSpec(rho=0.05, delta=0.8, eps1=0.01))
        rep = complexity_measures(q, eps1=0.01)
        assert rep.c_eps == pytest.approx(1.5640969199435863e92, rel=1e-9)
        assert rep.c_plain == pytest.approx(1.0371673648781376e49, rel=1e-9)

    def test_rejects_bad_params(self):
        p = _exact_poly([0, 1])
        with pytest.raises(ValueError):
            complexity_measures(p, eps1=1.5)


def _two_point_dataset():
    r = math.sqrt(3.0) / 2.0
    X = np.array([[r, 0.0, 0.5], [-r, 0.0, 0.5]])
    return Dataset(X, np.array([1.0, -1.0]))


class TestRobustInterpolant:
    def test_single_point(self):
        r = math.sqrt(3.0) / 2.0
        ds = Dataset(np.array([[r, 0.0, 0.5]]), np.array([1.0]))
        spec = StepSpec(rho=0.05, delta=1.0, eps1=0.3 / 3.0)
        f = robust_interpolant(ds, spec)
        assert abs(f(ds.X[0]) - 1.0) <= 0.1

    def test_two_point_sampled_caps(self):
        from robust_overparam.adversary import random_cap_point
        from robust_overparam.rng import stream

        ds = _two_point_dataset()
        eps = 0.3
        spec = StepSpec(rho=0.05, delta=math.sqrt(3.0) - 1e-9, eps1=eps / (3 * ds.n))
        f = robust_interpolant(ds, spec)
        for i in range(ds.n):
            pts = np.vstack(
                [random_cap_point(ds.X[i], 0.05, stream(11, "cap", i, j)) for j in range(200)]
            )
            assert np.max(np.abs(f(pts) - ds.y[i])) <= eps / 3.0

    def test_far_point_is_small(self):
        ds = _two_point_dataset()
        eps = 0.3
        spec = StepSpec(rho=0.05, delta=1.0, eps1=eps / (3 * ds.n))
        f = robust_interpolant(ds, spec)
        # orthogonal head: <x_i, x> = 1/4, below 1 - (delta-rho)^2/2 = 0.549
        x = np.array([0.0, math.sqrt(3.0) / 2.0, 0.5])
        assert all(ds.X @ x <= 1.0 - (spec.delta - spec.rho) ** 2 / 2.0)
        assert abs(f(x)) <= eps / 3.0

    def test_duplicate_points_rejected(self):
        r = math.sqrt(3.0) / 2.0
        X = np.array([[r, 0.0, 0.5], [r, 0.0, 0.5]])
        ds = Dataset(X, np.array([1.0, -1.0]))
        spec = StepSpec(rho=0.05, delta=0.5, eps1=0.05)
        with pytest.raises(SeparabilityError):
            robust_interpolant(ds, spec)

    def test_nan_label_rejected(self):
        ds = _two_point_dataset()
        ds.y[1] = math.nan  # Dataset checked its labels when it was made
        with pytest.raises(ValueError, match="labels"):
            robust_interpolant(ds, StepSpec(rho=0.05, delta=1.7, eps1=0.05))

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            robust_interpolant(ds, StepSpec(rho=0.05, delta=1.7, eps1=0.05))

    def test_metadata_reported(self):
        ds = _two_point_dataset()
        spec = StepSpec(rho=0.05, delta=1.7, eps1=0.05)
        f = robust_interpolant(ds, spec)
        assert f.degree == f.q.degree
        assert f.meta["degree_bound_nominal"] > 0
        assert f.meta["coeff_bound_log2"] > 0


# ---------------------------------------------------------------------------
# Oracle: the Fraction expansion that the dyadic integer expansion replaced.
# The helpers below are the former library code, kept verbatim (only
# chebyshev_int_coeffs renamed), so `exact_monomial` is checked with `==`
# against an independent rational computation.
# ---------------------------------------------------------------------------

def _ref_chebyshev_int_coeffs(k: int) -> list[int]:
    """Monomial coefficients of T_k, ascending, exact integers."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return cur


def _walk_weight_exact(i: int) -> Fraction:
    return Fraction(comb(2 * i, i), 4**i)


def _sign_series_exact(k: int, cap: int) -> list[Fraction]:
    series = [Fraction(0)] * (cap + 1)
    for i in range(k + 1):
        ci = _walk_weight_exact(i)
        den = 2**i
        for v in range(i % 2, min(i, cap) + 1, 2):
            b = Fraction(comb(i, (i + v) // 2), den)
            series[v] += ci * (b if v == 0 else 2 * b)
    return series


def _expand_w_power_series(series: Sequence[Fraction]) -> list[Fraction]:
    """Exact z-monomial coefficients of z * sum_u series[u] * (1 - z^2)^u."""
    n = len(series) - 1
    out = [Fraction(0)] * (2 * n + 2)
    for u, hu in enumerate(series):
        if hu == 0:
            continue
        for j in range(u + 1):
            out[2 * j + 1] += hu * comb(u, j) * (-1) ** j
    return out


def _expand_w_cheb_series(series: Sequence[Fraction]) -> list[Fraction]:
    """Exact z-monomial coefficients of z * sum_v series[v] * T_v(1 - z^2)."""
    cap = len(series) - 1
    h = [Fraction(0)] * (cap + 1)
    for v, bv in enumerate(series):
        if bv == 0:
            continue
        for u, tc in enumerate(_ref_chebyshev_int_coeffs(v)):
            h[u] += bv * tc
    return _expand_w_power_series(h)


def _affine_substitute_exact(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> list[Fraction]:
    """Exact coefficients of p(a z + b) given coefficients of p."""
    deg = len(coeffs) - 1
    out = [Fraction(0)] * (deg + 1)
    a_pow = [Fraction(1)]
    b_pow = [Fraction(1)]
    for _ in range(deg):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        for j in range(i + 1):
            out[j] += ci * comb(i, j) * a_pow[j] * b_pow[i - j]
    return out


def _ref_sign_poly(k: int) -> list[Fraction]:
    series = [_walk_weight_exact(i) for i in range(k + 1)]
    return _expand_w_power_series(series)


def _ref_compressed_power(s: int, d_cap: float) -> tuple[list[Fraction], list[Fraction]]:
    """(Chebyshev coefficients, monomial coefficients) of compressed_power(s, d_cap)."""
    cap = min(s, int(math.floor(d_cap)))
    coeffs = [Fraction(0)] * (cap + 1)
    for j in range(s + 1):
        v = abs(2 * j - s)
        if v <= cap:
            coeffs[v] += Fraction(comb(s, j), 2**s)
    degree = max((v for v in range(cap + 1) if coeffs[v] != 0), default=0)
    out = [Fraction(0)] * (degree + 1)
    for v in range(degree + 1):
        if coeffs[v] == 0:
            continue
        for u, tc in enumerate(_ref_chebyshev_int_coeffs(v)):
            out[u] += coeffs[v] * tc
    return coeffs[: degree + 1], out


def _ref_compressed_sign_poly(meta: dict) -> list[Fraction]:
    return _expand_w_cheb_series(_sign_series_exact(meta["k"], meta["index_cap"]))


def _ref_step_poly(q: Polynomial) -> list[Fraction]:
    inner = _ref_compressed_sign_poly(q.meta["sign_meta"])
    alpha = q.meta["alpha_shift"]
    shifted = _affine_substitute_exact(inner, Fraction(1, 2), -Fraction(alpha) / 2)
    out = [c / 2 for c in shifted]
    out[0] += Fraction(1, 2)
    return out


def _assert_fractions_equal(got, ref):
    assert len(got) == len(ref)
    assert all(type(c) is Fraction for c in got)
    assert got == ref


class TestExactOracle:
    """`exact_monomial` == the Fraction reference, coefficient for coefficient."""

    @pytest.mark.parametrize("eta,eps1", [(0.5, 0.5), (0.25, 0.1)])
    def test_sign_poly(self, eta, eps1):
        # the product-form series, before compression
        k = polyapprox.sign_gap_terms(eta, eps1)
        _assert_fractions_equal(_product_sign_exact(eta, eps1), _ref_sign_poly(k))

    @pytest.mark.parametrize("s", [6, 10, 20, 40])
    def test_compressed_power(self, s):
        for cap in range(1, s + 1):
            p = compressed_power(s, cap)
            cheb, mono = _ref_compressed_power(s, cap)
            _assert_fractions_equal(p.exact_monomial, mono)
            # the float metadata is the correctly rounded exact values, bit for bit
            assert p.chebyshev_coeffs.tobytes() == np.array([float(c) for c in cheb]).tobytes()

    @pytest.mark.parametrize("eta,eps1", [(0.5, 0.2), (0.25, 0.1), (0.2, 0.1)])
    def test_compressed_sign_poly(self, eta, eps1):
        p = compressed_sign_poly(eta, eps1)
        _assert_fractions_equal(p.exact_monomial, _ref_compressed_sign_poly(p.meta))

    @pytest.mark.parametrize("delta,eps1,alpha_den", [(1.2, 0.1, 2**53), (0.95, 0.005, 64)])
    def test_step_poly(self, delta, eps1, alpha_den):
        q = step_poly(StepSpec(rho=0.05, delta=delta, eps1=eps1))
        assert Fraction(q.meta["alpha_shift"]).denominator == alpha_den
        _assert_fractions_equal(q.exact_monomial, _ref_step_poly(q))

    def test_chebyshev_T(self):
        for k in (0, 1, 7, 40):
            assert chebyshev_int_coeffs(k) == _ref_chebyshev_int_coeffs(k)

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.1, 51 / 64])
    def test_affine_substitution(self, alpha):
        # a dense dyadic polynomial with both signs, at shifts of either sign
        nums, e = [3, -7, 0, 12, -1, 5, 9], 4
        got = polyapprox._to_fractions(polyapprox._affine_substitute_exact((nums, e), alpha))
        ref = _affine_substitute_exact([Fraction(n, 2**e) for n in nums], Fraction(1, 2), -Fraction(alpha) / 2)
        _assert_fractions_equal(got, ref)

    def test_taylor_shift(self):
        # (x + 2)^3 = 8 + 12 x + 6 x^2 + x^3
        assert polyapprox._taylor_shift([0, 0, 0, 1], 2) == [8, 12, 6, 1]
        assert polyapprox._taylor_shift([5], -3) == [5]
