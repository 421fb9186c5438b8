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
catastrophically in float, so monomial expansion is done only exactly and
only for coefficient-bound certification.  Every exact coefficient here is
dyadic (central binomials over powers of 4, binomials over powers of 2,
integer Chebyshev coefficients, and a float shift), so the expansion carries
integer numerators over one power of two and makes Fractions once, at the
end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .dataspace import Dataset, SeparabilityError, separability

CERT_GRID = 10_000


# An exact polynomial (nums, e): the coefficient of z^j is nums[j] / 2**e.
Dyadic = tuple[list[int], int]


class CertificationError(Exception):
    """A certified grid property failed; signals a numerics bug, not expected use."""


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

    Interpolates fn at the degree+1 extrema nodes cos(pi*j/degree) via DCT-I,
    computed as the real FFT of the even extension of the node values;
    exact (to roundoff) whenever fn is a polynomial of degree <= `degree`.
    """
    if degree == 0:
        return np.asarray([float(np.asarray(fn(np.zeros(1)))[0])])
    nodes = np.cos(np.pi * np.arange(degree + 1) / degree)
    vals = np.asarray(fn(nodes), dtype=float)
    c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / degree
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


class Polynomial:
    """Univariate polynomial: a stable evaluator and an exact monomial expander.

    `degree` is the structural degree of the construction.  Calls go through
    `evaluator`, the numerically stable structured form; `chebyshev_coeffs`
    is optional float metadata.  Monomial coefficients exist only exactly:
    the expander returns them as dyadic integers on first use, and
    `exact_monomial` holds them as Fractions.
    """

    def __init__(
        self,
        degree: int,
        evaluator: Callable,
        exact_expander: Callable[[], Dyadic],
        chebyshev_coeffs=None,
        meta: dict | None = None,
    ):
        self.degree = int(degree)
        self.chebyshev_coeffs = None if chebyshev_coeffs is None else np.asarray(chebyshev_coeffs, dtype=float)
        self._evaluator = evaluator
        self._exact_expander = exact_expander
        self._exact_monomial: list[Fraction] | None = None
        self.meta = dict(meta or {})

    def __call__(self, z):
        return self._evaluator(np.asarray(z, dtype=float))

    @property
    def exact_monomial(self) -> list[Fraction]:
        if self._exact_monomial is None:
            self._exact_monomial = _to_fractions(self._exact_expander())
        return self._exact_monomial

    def eval_exact(self, z: Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point (arbitrary precision)."""
        acc = Fraction(0)
        for c in reversed(self.exact_monomial):
            acc = acc * z + c
        return acc

    def monomial_magnitudes(self) -> list[Fraction]:
        """|coeff| per degree, from the exact coefficients."""
        return [abs(c) for c in self.exact_monomial]


def _certified(degree: int, evaluate: Callable, expand: Callable[[], Dyadic], plateaus, tol: float,
               grid: int, meta: dict) -> Polynomial:
    """Grid-certify `evaluate`, then build the Polynomial carrying the certificate.

    plateaus lists (lo, hi, target); the error on a plateau is the max of
    |evaluate - target| at `grid` evenly spaced points of [lo, hi].  Any error
    above tol raises CertificationError; otherwise meta gains "certification".
    """
    errors = [
        float(np.max(np.abs(evaluate(np.linspace(lo, hi, grid)) - target))) for lo, hi, target in plateaus
    ]
    if max(errors) > tol:
        raise CertificationError(
            f"{meta['kind']} missed its tolerance {tol:.3e}: plateau errors "
            + ", ".join(f"{err:.3e}" for err in errors)
        )
    meta["certification"] = {
        "intervals": [[lo, hi] for lo, hi, _ in plateaus],
        "errors": errors,
        "max_error": max(errors),
        "tolerance": tol,
        "pass": True,
    }
    return Polynomial(degree, evaluate, expand, chebyshev_nodes_series(evaluate, degree), meta)


# ---------------------------------------------------------------------------
# Chebyshev polynomials of the first kind
# ---------------------------------------------------------------------------

def _chebyshev_rows():
    """T_0, T_1, ... as ascending exact integer coefficient lists."""
    prev, cur = [1], [0, 1]
    yield prev
    while True:
        yield cur
        nxt = [0] + [2 * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt


def chebyshev_int_coeffs(k: int) -> list[int]:
    """Monomial coefficients of T_k, ascending, exact integers."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return next(islice(_chebyshev_rows(), k, None))


def _cheb_to_monomial(b: Sequence[int]) -> list[int]:
    """Integer monomial coefficients of sum_v b[v] T_v, building T_v row by row."""
    out = [0] * len(b)
    for v, (bv, tv) in enumerate(zip(b, _chebyshev_rows())):
        if bv:
            for u in range(v % 2, v + 1, 2):  # T_v has the parity of v
                out[u] += bv * tv[u]
    return out


def chebyshev_T(k: int) -> Polynomial:
    """T_k, evaluated by Clenshaw; monomial coefficients by exact integer recurrence."""
    ints = chebyshev_int_coeffs(k)
    cheb = np.zeros(k + 1)
    cheb[k] = 1.0
    return Polynomial(
        degree=k,
        evaluator=lambda z: clenshaw(cheb, z),
        exact_expander=lambda: (ints, 0),
        chebyshev_coeffs=cheb,
        meta={"kind": "chebyshev_T", "k": k},
    )


# ---------------------------------------------------------------------------
# Exact dyadic arithmetic
# ---------------------------------------------------------------------------

def _to_fractions(poly: Dyadic) -> list[Fraction]:
    """Fraction coefficients of a dyadic polynomial, made once per expansion.

    Dividing out each numerator's own power of two first leaves Fraction a
    gcd of an odd number with a power of two, about half the work.
    """
    nums, e = poly
    out = []
    for n in nums:
        tz = min(e, (n & -n).bit_length() - 1) if n else e
        out.append(Fraction(n >> tz, 1 << (e - tz)))
    return out


def _central_binomials(k: int) -> list[int]:
    """C(2i, i) for i = 0..k, by the ratio C(2i+2, i+1) / C(2i, i) = 2(2i+1)/(i+1)."""
    out = [1]
    for i in range(k):
        out.append(out[-1] * 2 * (2 * i + 1) // (i + 1))
    return out


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Integer coefficients of f(x + a) from those of f, by repeated synthetic division.

    O(deg^2) additions and small multiplications; von zur Gathen and
    Gerhard, "Fast algorithms for Taylor shifts" (1997).
    """
    c = list(coeffs)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


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
        return z * np.polynomial.polynomial.polyval(1.0 - z * z, w_coeffs)

    def expand() -> Dyadic:
        # w_i = C(2i, i) / 4^i, over the common denominator 4^k
        series = [c << 2 * (k - i) for i, c in enumerate(_central_binomials(k))]
        return _expand_w_power_series((series, 2 * k))

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
    # T-basis coefficients over the common denominator 2^s; C(s, j) by ratio
    coeffs = [0] * (cap + 1)
    binom = 1
    for j in range(s + 1):
        v = abs(2 * j - s)
        if v <= cap:
            coeffs[v] += binom
        binom = binom * (s - j) // (j + 1)
    degree = max((v for v in range(cap + 1) if coeffs[v] != 0), default=0)
    den = 2**s
    cheb = np.array([c / den for c in coeffs[: degree + 1]])

    def expand() -> Dyadic:
        return _cheb_to_monomial(coeffs[: degree + 1]), s

    return Polynomial(
        degree=degree,
        evaluator=lambda z: clenshaw(cheb, z),
        exact_expander=expand,
        chebyshev_coeffs=cheb,
        meta={"kind": "compressed_power", "s": s, "d_cap": d_cap},
    )


# ---------------------------------------------------------------------------
# Compressed sign approximant
# ---------------------------------------------------------------------------

def _sign_series(eta_gap: float, eps1: float):
    """Float coefficients B_v of p~(z) = z * sum_v B_v T_v(1 - z^2)."""
    k = sign_gap_terms(eta_gap, eps1)
    d_walk = math.sqrt(2.0 * k * math.log(4.0 * k / eps1))
    budget = math.ceil((3.0 / eta_gap) * math.log(2.0 / (eta_gap * eps1)))
    # The walk cap bounds the Chebyshev index in w = 1 - z^2, so the z-degree
    # of the assembled series is 2*cap + 1.  Capping additionally by the
    # advertised degree budget keeps the construction inside its own degree
    # bound; the grid certificate is the correctness gate.
    cap = min(int(math.floor(d_walk)), (budget - 1) // 2, k)
    i = np.arange(k + 1)[:, None]
    v = np.arange(cap + 1)[None, :]
    valid = (v <= i) & ((i - v) % 2 == 0)
    # log C(i, (i+v)/2) / 2^i from log-factorials; invalid (i, v) read 0! and are masked
    log_fact = np.array([math.lgamma(j + 1) for j in range(k + 1)])
    hi, lo = np.where(valid, (i + v) // 2, 0), np.where(valid, (i - v) // 2, 0)
    logpmf = log_fact[i] - log_fact[hi] - log_fact[lo] - i * math.log(2.0)
    beta = np.where(valid, np.exp(np.where(valid, logpmf, 0.0)), 0.0)
    beta[:, 1:] *= 2.0
    series = _walk_weights(k) @ beta
    return series, k, d_walk, cap, budget


def _sign_series_exact(k: int, cap: int) -> Dyadic:
    """Exact B_v = sum_i C(2i,i)/4^i * (2 - [v=0]) C(i, (i+v)/2)/2^i, over 2^(3k).

    Term i carries 8^(-i), so each B_v is accumulated by Horner in powers of
    8.  Only i of the parity of v contribute, so a v steps by 8^2 per term,
    and the parity class that ends at i = k - 1 takes one last factor of 8.
    """
    acc = [0] * (cap + 1)
    central = 1  # C(i, ceil(i/2)), the row's entry at v = i % 2
    for i, walk in enumerate(_central_binomials(k)):
        t = walk * central
        for v in range(i % 2, min(i, cap) + 1, 2):
            acc[v] = (acc[v] << 6) + t
            j = (i + v) // 2
            t = t * (i - j) // (j + 1)  # C(i, j+1) from C(i, j)
        # C(i+1, ceil((i+1)/2)) from C(i, ceil(i/2))
        central = central * (i + 1) // (i // 2 + 1) if i % 2 == 0 else 2 * central
    for v in range(1 - k % 2, cap + 1, 2):
        acc[v] <<= 3
    # T_v and T_{-v} coincide, so every v >= 1 counts twice
    return [acc[0]] + [a << 1 for a in acc[1:]], 3 * k


def _expand_w_power_series(series: Dyadic) -> Dyadic:
    """Exact z-monomial coefficients of z * sum_u series[u] * (1 - z^2)^u.

    With y = z^2, sum_u h_u (1 - y)^u = sum_u (-1)^u h_u (y - 1)^u: a Taylor
    shift by -1, whose synthetic division builds the binomials of (1 - y)^u
    by Pascal's recurrence.
    """
    h, e = series
    shifted = _taylor_shift([-c if u % 2 else c for u, c in enumerate(h)], -1)
    out = [0] * (2 * len(h))
    out[1::2] = shifted
    return out, e


def _expand_w_cheb_series(series: Dyadic) -> Dyadic:
    """Exact z-monomial coefficients of z * sum_v series[v] * T_v(1 - z^2)."""
    b, e = series
    return _expand_w_power_series((_cheb_to_monomial(b), e))


def compressed_sign_poly(eta_gap: float, eps1: float) -> Polynomial:
    """Low-degree sign approximant, certified to eps1 outside the gap.

    Applies the compressed-power surrogate to every term of the product-form
    series, which collapses into a single Chebyshev series in w = 1 - z^2.
    Certifies max |p~(z) - sign(z)| <= eps1 on a dense grid of
    [-1, -eta] u [eta, 1] and raises CertificationError otherwise.
    """
    _check_unit_interval(eta_gap=eta_gap, eps1=eps1)
    series, k, d_walk, cap, budget = _sign_series(eta_gap, eps1)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return z * clenshaw(series, 1.0 - z * z)

    def expand() -> Dyadic:
        return _expand_w_cheb_series(_sign_series_exact(k, cap))

    meta = {
        "kind": "compressed_sign_poly",
        "eta_gap": eta_gap,
        "eps1": eps1,
        "k": k,
        "walk_cap": d_walk,
        "index_cap": cap,
        "degree_budget": budget,
        "coeff_bound_log2": 4.0 * d_walk,
    }
    plateaus = [(-1.0, -eta_gap, -1.0), (eta_gap, 1.0, 1.0)]
    return _certified(2 * cap + 1, evaluate, expand, plateaus, eps1, CERT_GRID, meta)


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

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return (ptil((z - alpha) * 0.5) + 1.0) * 0.5

    sign_expand = ptil._exact_expander

    def expand() -> Dyadic:
        nums, e = _affine_substitute_exact(sign_expand(), alpha)
        nums[0] += 1 << e
        return nums, e + 1

    meta = {
        "kind": "step_poly",
        "rho": spec.rho,
        "delta": spec.delta,
        "eps1": spec.eps1,
        "eta_gap": spec.eta_gap,
        "alpha_shift": alpha,
        "sign_meta": {k: v for k, v in ptil.meta.items() if k != "certification"},
    }
    near_one = (1.0 - spec.rho**2 / 2.0, 1.0, 1.0)
    far_zero = (-1.0, 1.0 - (spec.delta - spec.rho) ** 2 / 2.0, 0.0)
    return _certified(ptil.degree, evaluate, expand, [near_one, far_zero], spec.eps1, cert_grid, meta)


def _affine_substitute_exact(poly: Dyadic, alpha: float) -> Dyadic:
    """Exact coefficients of p((z - alpha) / 2) given those of p.

    alpha = A / 2^s exactly.  With p = sum_j N_j z^j / 2^e of degree D and
    u = 2^s z, the argument is (u - A) / 2^(s+1), so
    2^(e + D(s+1)) p((z - alpha) / 2) = sum_j N_j 2^((D-j)(s+1)) (u - A)^j:
    an integer Taylor shift by -A, after which u^i contributes 2^(s i) z^i.
    """
    nums, e = poly
    A, den = float(alpha).as_integer_ratio()
    s = den.bit_length() - 1
    deg = len(nums) - 1
    scaled = [n << (deg - j) * (s + 1) for j, n in enumerate(nums)]
    shifted = _taylor_shift(scaled, -A)
    return [c << s * i for i, c in enumerate(shifted)], e + deg * (s + 1)


# ---------------------------------------------------------------------------
# Complexity measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    c_eps: float
    c_plain: float


def _logsumexp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def complexity_measures(p: Polynomial, eps1: float) -> ComplexityReport:
    """Coefficient-weighted complexity of a polynomial.

    c_eps  = sum_j c^j (1 + (ln(1/eps1)/j)^(j/2)) |a_j|, with the j = 0 factor
    taken as its limit 1 (so the term is 2|a_0|); c_plain = c * sum_j
    (j+1)^1.75 |a_j|; both take c = 2.  Sums are accumulated in log space:
    coefficients of the compressed constructions can exceed the float range.
    """
    if not 0 < eps1 < 1:
        raise ValueError("eps1 must be in (0, 1)")
    mags = p.monomial_magnitudes()
    log_l = math.log(math.log(1.0 / eps1))
    logc = math.log(2.0)
    eps_terms: list[float] = []
    plain_terms: list[float] = []
    for j, mag in enumerate(mags):
        if mag == 0:
            continue
        logm = math.log(mag.numerator) - math.log(mag.denominator)
        plain_terms.append(logc + 1.75 * math.log(j + 1.0) + logm)
        if j == 0:
            extra = 2.0
        else:
            half_pow = 0.5 * j * (log_l - math.log(float(j)))
            extra = 1.0 + math.exp(half_pow) if half_pow < 700 else math.exp(half_pow)
        eps_terms.append(j * logc + math.log(extra) + logm)
    if not eps_terms:
        return ComplexityReport(0.0, 0.0)

    def from_log(lv: float) -> float:
        return math.exp(lv) if lv < math.log(np.finfo(float).max) else float("inf")

    return ComplexityReport(
        c_eps=from_log(_logsumexp(eps_terms)),
        c_plain=from_log(_logsumexp(plain_terms)),
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
