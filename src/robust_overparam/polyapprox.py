"""Certified polynomial approximations of the sign and step functions.

The constructions here follow a fixed pipeline: a truncated product-form
series approximating sign(z) on [-1,1] outside a gap (-eta, eta), a Chebyshev
compression of its high powers via a truncated random-walk expectation, and an
affine shift/scale of the compressed approximant that turns it into a step
polynomial q with q ~ 1 near z = 1 and q ~ 0 on the far side.  A robust
interpolant for a labelled dataset is a sum of step polynomials of inner
products.

Evaluation always goes through structured forms (power series in w = 1 - z^2,
Clenshaw recurrences); expanded monomial coefficients reach 2^(4D) and cancel
catastrophically in float, so monomial expansion is done only with exact
rational arithmetic and only for coefficient-bound certification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np
from scipy.fft import dct
from scipy.special import gammaln

from .dataspace import Dataset, SeparabilityError, separability

CERT_GRID = 10_000


class CertificationError(Exception):
    """A certified grid property failed; signals a numerics bug, not expected use."""


def horner(coeffs, z):
    """Evaluate sum_j coeffs[j] z^j. Stable only for well-scaled coefficients."""
    z = np.asarray(z, dtype=float)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def clenshaw(coeffs, z):
    """Evaluate sum_j coeffs[j] T_j(z) by the Clenshaw recurrence."""
    z = np.asarray(z, dtype=float)
    b1 = np.zeros_like(z)
    b2 = np.zeros_like(z)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * z * b1 - b2 + c, b1
    return z * b1 - b2 + (coeffs[0] if len(coeffs) else 0.0)


def chebyshev_nodes_series(fn: Callable, degree: int) -> np.ndarray:
    """Chebyshev T-basis coefficients of a degree-bounded function.

    Interpolates fn at the degree+1 extrema nodes cos(pi*j/degree) via DCT-I;
    exact (to roundoff) whenever fn is a polynomial of degree <= `degree`.
    """
    if degree == 0:
        return np.asarray([float(np.asarray(fn(np.zeros(1)))[0])])
    nodes = np.cos(np.pi * np.arange(degree + 1) / degree)
    vals = np.asarray(fn(nodes), dtype=float)
    c = dct(vals, type=1) / degree
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


class Polynomial:
    """Univariate polynomial with monomial and/or Chebyshev representations.

    `degree` is the structural degree of the construction.  `evaluator`, when
    present, is the numerically stable structured form and is what calls go
    through; `monomial_coeffs` / `chebyshev_coeffs` are float metadata.
    Exact (Fraction) monomial coefficients are expanded lazily on first use.
    """

    def __init__(
        self,
        degree: int,
        monomial_coeffs=None,
        chebyshev_coeffs=None,
        evaluator: Callable | None = None,
        exact_expander: Callable[[], list[Fraction]] | None = None,
        meta: dict | None = None,
    ):
        self.degree = int(degree)
        self.monomial_coeffs = None if monomial_coeffs is None else np.asarray(monomial_coeffs, dtype=float)
        self.chebyshev_coeffs = None if chebyshev_coeffs is None else np.asarray(chebyshev_coeffs, dtype=float)
        self._evaluator = evaluator
        self._exact_expander = exact_expander
        self._exact_monomial: list[Fraction] | None = None
        self.meta = dict(meta or {})

    def __call__(self, z):
        if self._evaluator is not None:
            return self._evaluator(np.asarray(z, dtype=float))
        if self.chebyshev_coeffs is not None:
            return self.eval_clenshaw(z)
        return self.eval_horner(z)

    def eval_horner(self, z):
        if self.monomial_coeffs is None:
            raise ValueError("no monomial coefficients available")
        return horner(self.monomial_coeffs, z)

    def eval_clenshaw(self, z):
        if self.chebyshev_coeffs is None:
            raise ValueError("no Chebyshev coefficients available")
        return clenshaw(self.chebyshev_coeffs, z)

    @property
    def exact_monomial(self) -> list[Fraction] | None:
        if self._exact_monomial is None and self._exact_expander is not None:
            self._exact_monomial = self._exact_expander()
        return self._exact_monomial

    def eval_exact(self, z: Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point (arbitrary precision)."""
        coeffs = self.exact_monomial
        if coeffs is None:
            raise ValueError("no exact monomial expansion available")
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def monomial_magnitudes(self) -> list:
        """|coeff| per degree, exact Fractions when available, floats otherwise."""
        if self.exact_monomial is not None:
            return [abs(c) for c in self.exact_monomial]
        if self.monomial_coeffs is not None:
            return [abs(float(c)) for c in self.monomial_coeffs]
        raise ValueError("no monomial coefficients available")


# ---------------------------------------------------------------------------
# Chebyshev polynomials of the first kind
# ---------------------------------------------------------------------------

def chebyshev_int_coeffs(k: int) -> list[int]:
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


def chebyshev_T(k: int) -> Polynomial:
    """T_k in both bases; monomial coefficients by exact integer recurrence."""
    ints = chebyshev_int_coeffs(k)
    cheb = np.zeros(k + 1)
    cheb[k] = 1.0
    return Polynomial(
        degree=k,
        monomial_coeffs=[float(c) for c in ints],
        chebyshev_coeffs=cheb,
        exact_expander=lambda: [Fraction(c) for c in ints],
        meta={"kind": "chebyshev_T", "k": k},
    )


# ---------------------------------------------------------------------------
# Product-form sign approximant
# ---------------------------------------------------------------------------

def _walk_weights(k: int) -> np.ndarray:
    """w_i = prod_{j<=i} (2j-1)/(2j) for i = 0..k."""
    w = np.ones(k + 1)
    if k >= 1:
        j = np.arange(1, k + 1, dtype=float)
        w[1:] = np.cumprod((2.0 * j - 1.0) / (2.0 * j))
    return w


def _walk_weight_exact(i: int) -> Fraction:
    return Fraction(comb(2 * i, i), 4**i)


def sign_gap_terms(eta_gap: float, eps1: float) -> int:
    """Series length k making the truncated product form an eps1/2 sign approx."""
    return math.ceil(math.log(2.0 / eps1) / eta_gap**2)


def sign_poly(eta_gap: float, eps1: float) -> Polynomial:
    """Odd series p(z) = z * sum_{i<=k} w_i (1-z^2)^i approximating sign(z).

    Accurate to eps1/2 on [-1,1] outside (-eta_gap, eta_gap).  Evaluated in the
    product form (Horner in w = 1 - z^2, all weights in (0,1]); the monomial
    expansion exists only as exact metadata.
    """
    _check_unit_interval(eta_gap=eta_gap, eps1=eps1)
    k = sign_gap_terms(eta_gap, eps1)
    w_coeffs = _walk_weights(k)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return z * horner(w_coeffs, 1.0 - z * z)

    def expand() -> list[Fraction]:
        series = [_walk_weight_exact(i) for i in range(k + 1)]
        return _expand_w_power_series(series)

    return Polynomial(
        degree=2 * k + 1,
        evaluator=evaluate,
        exact_expander=expand,
        meta={"kind": "sign_poly", "k": k, "eta_gap": eta_gap, "eps1": eps1},
    )


# ---------------------------------------------------------------------------
# Compressed powers (truncated random-walk expectation in the T basis)
# ---------------------------------------------------------------------------

def compressed_power(s: int, d_cap: float) -> Polynomial:
    """Low-degree Chebyshev surrogate for z^s.

    z^s equals the expectation of T_{S}(z) over a simple random walk S of s
    steps; dropping walk endpoints with |S| > d_cap leaves the finite sum
    sum_j C(s,j) 2^-s T_{2j-s}(z) over |2j-s| <= d_cap, with T_{-v} = T_v.
    Uniform error at most 2 exp(-d_cap^2 / (2 s)) on [-1, 1].
    """
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    if d_cap <= 0:
        raise ValueError("d_cap must be positive")
    s = int(s)
    cap = min(s, int(math.floor(d_cap)))
    coeffs = [Fraction(0)] * (cap + 1)
    for j in range(s + 1):
        v = abs(2 * j - s)
        if v <= cap:
            coeffs[v] += Fraction(comb(s, j), 2**s)
    degree = max((v for v in range(cap + 1) if coeffs[v] != 0), default=0)
    cheb = np.array([float(c) for c in coeffs[: degree + 1]])

    def expand() -> list[Fraction]:
        out = [Fraction(0)] * (degree + 1)
        for v in range(degree + 1):
            if coeffs[v] == 0:
                continue
            for u, tc in enumerate(chebyshev_int_coeffs(v)):
                out[u] += coeffs[v] * tc
        return out

    mono = None
    if degree <= 200:
        ex = expand()
        mono = [float(c) for c in ex]
    return Polynomial(
        degree=degree,
        monomial_coeffs=mono,
        chebyshev_coeffs=cheb,
        exact_expander=expand,
        meta={"kind": "compressed_power", "s": s, "d_cap": d_cap},
    )


# ---------------------------------------------------------------------------
# Compressed sign approximant
# ---------------------------------------------------------------------------

def _sign_series_params(eta_gap: float, eps1: float):
    k = sign_gap_terms(eta_gap, eps1)
    d_walk = math.sqrt(2.0 * k * math.log(4.0 * k / eps1))
    budget = math.ceil((3.0 / eta_gap) * math.log(2.0 / (eta_gap * eps1)))
    # The walk cap bounds the Chebyshev index in w = 1 - z^2, so the z-degree
    # of the assembled series is 2*cap + 1.  Capping additionally by the
    # advertised degree budget keeps the construction inside its own degree
    # bound; the grid certificate below is the correctness gate.
    cap = min(int(math.floor(d_walk)), (budget - 1) // 2, k)
    return k, d_walk, cap, budget


def _sign_series(eta_gap: float, eps1: float):
    """Float coefficients B_v of p~(z) = z * sum_v B_v T_v(1 - z^2)."""
    k, d_walk, cap, budget = _sign_series_params(eta_gap, eps1)
    i = np.arange(k + 1, dtype=float)[:, None]
    v = np.arange(cap + 1, dtype=float)[None, :]
    valid = (v <= i) & ((i - v) % 2 == 0)
    with np.errstate(invalid="ignore"):
        logpmf = gammaln(i + 1) - gammaln((i + v) / 2 + 1) - gammaln((i - v) / 2 + 1) - i * math.log(2.0)
    beta = np.where(valid, np.exp(np.where(valid, logpmf, 0.0)), 0.0)
    beta[:, 1:] *= 2.0
    series = _walk_weights(k) @ beta
    return series, k, d_walk, cap, budget


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
        for u, tc in enumerate(chebyshev_int_coeffs(v)):
            h[u] += bv * tc
    return _expand_w_power_series(h)


def compressed_sign_poly(eta_gap: float, eps1: float) -> Polynomial:
    """Low-degree sign approximant, certified to eps1 outside the gap.

    Applies the compressed-power surrogate to every term of the product-form
    series, which collapses into a single Chebyshev series in w = 1 - z^2.
    Certifies max |p~(z) - sign(z)| <= eps1 on a dense grid of
    [-1, -eta] u [eta, 1] and raises CertificationError otherwise.
    """
    _check_unit_interval(eta_gap=eta_gap, eps1=eps1)
    series, k, d_walk, cap, budget = _sign_series(eta_gap, eps1)
    degree = 2 * cap + 1

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return z * clenshaw(series, 1.0 - z * z)

    grid = np.linspace(eta_gap, 1.0, CERT_GRID)
    err = max(
        float(np.max(np.abs(evaluate(grid) - 1.0))),
        float(np.max(np.abs(evaluate(-grid) + 1.0))),
    )
    if err > eps1:
        raise CertificationError(
            f"compressed sign approximant missed its tolerance: "
            f"max grid error {err:.3e} > eps1 {eps1:.3e}"
        )

    def expand() -> list[Fraction]:
        return _expand_w_cheb_series(_sign_series_exact(k, cap))

    return Polynomial(
        degree=degree,
        chebyshev_coeffs=chebyshev_nodes_series(evaluate, degree),
        evaluator=evaluate,
        exact_expander=expand,
        meta={
            "kind": "compressed_sign_poly",
            "eta_gap": eta_gap,
            "eps1": eps1,
            "k": k,
            "walk_cap": d_walk,
            "index_cap": cap,
            "degree_budget": budget,
            "coeff_bound_log2": 4.0 * d_walk,
            "certification": {
                "intervals": [[-1.0, -eta_gap], [eta_gap, 1.0]],
                "max_error": err,
                "tolerance": eps1,
                "pass": True,
            },
        },
    )


# ---------------------------------------------------------------------------
# Step polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSpec:
    """Parameters of the step construction for a rho-bounded adversary.

    delta is the minimum pairwise distance of the dataset the step polynomial
    will be used on; eps1 the per-term tolerance.  The derived sign gap and
    shift place the transition of the step between the inner-product ranges
    of perturbed same-point pairs and of well-separated pairs.
    """

    rho: float
    delta: float
    eps1: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0 < self.delta <= 2:
            raise ValueError("delta must be in (0, 2]")
        if not 0 < self.eps1 < 1:
            raise ValueError("eps1 must be in (0, 1)")
        if self.delta - 2 * self.rho <= 0:
            raise SeparabilityError(
                f"delta - 2*rho = {self.delta - 2 * self.rho:.4g} <= 0; "
                "perturbation balls of distinct points may overlap"
            )
        if not -1.0 < self.alpha_shift < 1.0:
            raise ValueError("derived alpha_shift outside (-1, 1)")

    @property
    def eta_gap(self) -> float:
        return self.delta * (self.delta - 2 * self.rho) / 8.0

    @property
    def alpha_shift(self) -> float:
        return 1.0 - self.rho**2 / 2.0 - 2.0 * self.eta_gap


def step_poly(spec: StepSpec, cert_grid: int = CERT_GRID) -> Polynomial:
    """Step polynomial q built from the compressed sign approximant.

    q(z) = (p~((z - alpha)/2) + 1) / 2.  The half-scale affine map keeps the
    argument of p~ inside (-1, 1) for every z in [-1, 1] and sends the two
    certified plateaus onto [1 - rho^2/2, 1] (where q ~ 1) and
    [-1, 1 - (delta-rho)^2/2] (where q ~ 0); both are grid-certified here.
    """
    if cert_grid < 2:
        raise ValueError("cert_grid must be at least 2")
    ptil = compressed_sign_poly(spec.eta_gap, spec.eps1)
    alpha = spec.alpha_shift
    base_eval = ptil._evaluator

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return (base_eval((z - alpha) * 0.5) + 1.0) * 0.5

    hi_lo = 1.0 - spec.rho**2 / 2.0
    far_hi = 1.0 - (spec.delta - spec.rho) ** 2 / 2.0
    g1 = np.linspace(hi_lo, 1.0, cert_grid)
    g2 = np.linspace(-1.0, far_hi, cert_grid)
    err_one = float(np.max(np.abs(evaluate(g1) - 1.0)))
    err_zero = float(np.max(np.abs(evaluate(g2))))
    if max(err_one, err_zero) > spec.eps1:
        raise CertificationError(
            f"step polynomial missed its tolerance: near-one error {err_one:.3e}, "
            f"far-zero error {err_zero:.3e}, eps1 {spec.eps1:.3e}"
        )

    def expand() -> list[Fraction]:
        inner = ptil.exact_monomial
        shifted = _affine_substitute_exact(inner, Fraction(1, 2), -Fraction(alpha) / 2)
        out = [c / 2 for c in shifted]
        out[0] += Fraction(1, 2)
        return out

    return Polynomial(
        degree=ptil.degree,
        chebyshev_coeffs=chebyshev_nodes_series(evaluate, ptil.degree),
        evaluator=evaluate,
        exact_expander=expand,
        meta={
            "kind": "step_poly",
            "rho": spec.rho,
            "delta": spec.delta,
            "eps1": spec.eps1,
            "eta_gap": spec.eta_gap,
            "alpha_shift": alpha,
            "sign_meta": {k: v for k, v in ptil.meta.items() if k != "certification"},
            "certification": {
                "intervals": [[hi_lo, 1.0], [-1.0, far_hi]],
                "max_error": max(err_one, err_zero),
                "errors": {"near_one": err_one, "far_zero": err_zero},
                "tolerance": spec.eps1,
                "pass": True,
            },
        },
    )


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


# ---------------------------------------------------------------------------
# Complexity measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    c_eps: float
    c_plain: float
    base_constant: float


def _log_abs(x) -> float:
    if isinstance(x, Fraction):
        return math.log(x.numerator if x >= 0 else -x.numerator) - math.log(x.denominator)
    return math.log(abs(x))


def _logsumexp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def complexity_measures(p: Polynomial, eps1: float, base_constant: float = 2.0) -> ComplexityReport:
    """Coefficient-weighted complexity of a polynomial.

    c_eps  = sum_j c^j (1 + (ln(1/eps1)/j)^(j/2)) |a_j|, with the j = 0 factor
    taken as its limit 1 (so the term is 2|a_0|); c_plain = c * sum_j
    (j+1)^1.75 |a_j|.  Sums are accumulated in log space: coefficients of the
    compressed constructions can exceed the float range.
    """
    if not 0 < eps1 < 1:
        raise ValueError("eps1 must be in (0, 1)")
    if base_constant <= 1:
        raise ValueError("base_constant must be > 1")
    mags = p.monomial_magnitudes()
    log_l = math.log(math.log(1.0 / eps1))
    logc = math.log(base_constant)
    eps_terms: list[float] = []
    plain_terms: list[float] = []
    for j, mag in enumerate(mags):
        if mag == 0:
            continue
        logm = _log_abs(mag)
        plain_terms.append(logc + 1.75 * math.log(j + 1.0) + logm)
        if j == 0:
            extra = 2.0
        else:
            half_pow = 0.5 * j * (log_l - math.log(float(j)))
            extra = 1.0 + math.exp(half_pow) if half_pow < 700 else math.exp(half_pow)
        eps_terms.append(j * logc + math.log(extra) + logm)
    if not eps_terms:
        return ComplexityReport(0.0, 0.0, base_constant)

    def from_log(lv: float) -> float:
        return math.exp(lv) if lv < math.log(np.finfo(float).max) else float("inf")

    return ComplexityReport(
        c_eps=from_log(_logsumexp(eps_terms)),
        c_plain=from_log(_logsumexp(plain_terms)),
        base_constant=base_constant,
    )


# ---------------------------------------------------------------------------
# Robust interpolant
# ---------------------------------------------------------------------------

class RobustInterpolant:
    """f*(x) = sum_i y_i q(<x_i, x>) for a separated labelled dataset.

    Callable on a single point or a batch of rows; carries the step
    polynomial and its degree/coefficient metadata.
    """

    def __init__(self, q: Polynomial, dataset: Dataset, spec: StepSpec, meta: dict):
        self.q = q
        self.X = dataset.X
        self.y = dataset.y
        self.spec = spec
        self.degree = q.degree
        self.meta = meta

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        gram = np.atleast_2d(x) @ self.X.T
        vals = self.q(gram) @ self.y
        return float(vals[0]) if single else vals


def robust_interpolant(dataset: Dataset, spec: StepSpec) -> RobustInterpolant:
    """Build the certified robust interpolant for a gamma-separable dataset.

    The caller scales spec.eps1 to eps/(3n) for a target robust error eps/3.
    Preconditions: labels bounded by 1 and measured pairwise separation at
    least spec.delta with spec.delta - 2 rho > 0.
    """
    if np.max(np.abs(dataset.y)) > 1.0 + 1e-12:
        raise ValueError("labels must satisfy |y_i| <= 1")
    if dataset.n >= 2:
        rep = separability(dataset, spec.rho)
        if rep.gamma <= 0:
            raise SeparabilityError(
                f"dataset is not separable for rho={spec.rho}: delta={rep.delta:.4g}"
            )
        if rep.delta < spec.delta - 1e-12:
            raise SeparabilityError(
                f"measured min distance {rep.delta:.4g} below spec delta {spec.delta:.4g}"
            )
    q = step_poly(spec)
    n = dataset.n
    eps_total = 3.0 * n * spec.eps1
    gamma = spec.delta * (spec.delta - 2 * spec.rho)
    degree_bound = (24.0 / gamma) * math.log(48.0 * n / eps_total)
    meta = {
        "n": n,
        "eps_total": eps_total,
        "gamma": gamma,
        "degree": q.degree,
        "degree_bound_nominal": degree_bound,
        "coeff_bound_log2": 6.0 * degree_bound + math.log2(1.0 / gamma),
    }
    return RobustInterpolant(q, dataset, spec, meta)


def _check_unit_interval(**kwargs):
    for name, val in kwargs.items():
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {val}")
