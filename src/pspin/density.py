"""Large-p asymptotics, the digamma/Binet identity, and the density of states.

At large p the genus-g intersection values grow as B_g/((2g)! 2g) p^g, with
B_g = |B_{2g}| from the signed Bernoulli sequence ``bernoulli_std`` kept here;
``zeta_identity`` checks B_g/((2g)! 2g) (2pi)^{2g} g = zeta(2g) against a
direct sum.  The Fourier-transformed one-point function produces the density

    rho(E) = d/dE Im log Gamma(iE) - pi/2 - 1/(2E) = Re psi(iE) - pi/2 - 1/(2E)

which is compared, up to affine freedom (overall constants and a log-epsilon
offset), against the simplified coset-model density
(2/pi) d/dE Im log Gamma(-iE).

The digamma psi is evaluated here, in ``decimal`` at 45 digits: shifted to
|w| >= 20, then summed by its Stirling series, whose coefficients
B_2g/(2g) = -zeta(1-2g) are the p = -1 one-point intersection numbers with
their sign flipped (``stirling_coefficients``).  The series serves psi alone:
the Gamma tokens of ``ExactScalar.numeric`` come from ``exact``'s own series.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import DomainError, LaurentP, UsageError
from .oracle import NumericError, check_size, gauss_legendre


@lru_cache(maxsize=None)
def bernoulli_std(n: int) -> Fraction:
    """Standard signed Bernoulli number B_n (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    # recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_std(k)
    return -acc / (n + 1)


def bernoulli_leading(g: int) -> Fraction:
    """Exact leading coefficient |B_{2g}|/((2g)! 2g) of the p^g growth."""
    if g < 1:
        raise UsageError("g >= 1 required")
    return abs(bernoulli_std(2 * g)) / (factorial(2 * g) * 2 * g)


def zeta_identity(g: int) -> bool:
    """bernoulli_leading(g) (2pi)^{2g} g = zeta(2g), with zeta(2g) summed directly.

    With s = 2g and N = 1000 terms, the tail sum_{n>=N} n^-s lies between its
    integral N^{1-s}/(s-1) and that plus N^-s.  So the left side must lie in
    [lower, lower + N^-s], lower = sum_{n<N} n^-s + N^{1-s}/(s-1), widened by a
    relative 1e-12 for rounding (the float error stays below 1e-14 to g = 16).
    """
    s, n_terms = 2 * g, 1000
    lhs = float(bernoulli_leading(g)) * (2.0 * math.pi) ** s * g
    lower = math.fsum(n**-s for n in range(1, n_terms)) + n_terms ** (1 - s) / (s - 1)
    slack = 1e-12 * lower
    return lower - slack <= lhs <= lower + n_terms**-s + slack


def large_p_check(formula: LaurentP, g: int) -> bool:
    """Whether formula's leading term ``formula.leading()`` is bernoulli_leading(g) p^g."""
    return formula.leading() == (g, bernoulli_leading(g))


def exp_kernel_integrand(sigma: float) -> float:
    """1/2 - 1/sigma + 1/(e^sigma - 1), with a series switch near zero.

    The three pieces cancel catastrophically as sigma -> 0; below 1e-3 the
    Taylor series sigma/12 - sigma^3/720 + sigma^5/30240 is used instead.
    """
    if sigma < 0:
        raise DomainError("integrand defined for sigma >= 0")
    if sigma < 1e-3:
        return sigma / 12.0 - sigma**3 / 720.0 + sigma**5 / 30240.0
    # past 700, 1/(e^sigma - 1) < 1e-304 is lost against 1/2 - 1/sigma
    return 0.5 - 1.0 / sigma + 1.0 / math.expm1(min(sigma, 700.0))


_STIRLING_TERMS = 16
# psi's Stirling series takes over at |w|^2 >= 400: there the first term left
# out, |B_34|/(34 |w|^34), is below 1e-34 on the real axis (at |w| >= 10 it is
# 1e-24, which moves the float of psi(x) near its zero x = 1.4616...)
_STIRLING_FROM = 400
_DIGITS = Context(prec=45)


def stirling_coefficients() -> tuple[Fraction, ...]:
    """B_2g/(2g) for g = 1..16: psi(w) ~ ln w - 1/(2w) - sum_g B_2g/(2g w^2g).

    Each equals -zeta(1-2g), minus the p = -1 one-point intersection number
    <tau_{1,0}>_g, so the density's series is the p = -1 continuation of the
    intersection numbers.  Only the digamma (``_re_digamma``) sums them.
    """
    return tuple(bernoulli_std(2 * g) / (2 * g) for g in range(1, _STIRLING_TERMS + 1))


@lru_cache(maxsize=None)
def _stirling_digits() -> tuple[Decimal, ...]:
    """stirling_coefficients() at 45 digits, highest genus first for Horner's rule."""
    return tuple(
        _DIGITS.divide(c.numerator, c.denominator) for c in reversed(stirling_coefficients())
    )


def _re_digamma(x: float, y: float) -> float:
    """Re psi(x + iy) for x, y >= 0, not both 0, rounded to a float.

    psi(z) = psi(w) - sum_{k<n} 1/(z+k) with w = z + n the first shift with
    |w| >= 20, and psi(w) from its Stirling series.  Only real parts are
    needed: Re 1/(a+iy) = a/(a^2+y^2) and Re ln w = ln|w|.  The series is cut
    below 1e-34 on the real axis and below 1e-28 on the imaginary axis, and
    the arithmetic keeps 45 digits, so the float is the nearest one unless
    the value lies that close to a rounding boundary.
    """
    ctx = _DIGITS
    add, sub, mul, div = ctx.add, ctx.subtract, ctx.multiply, ctx.divide
    a, y = Decimal(x), Decimal(y)
    y2 = mul(y, y)
    r = add(mul(a, a), y2)
    shift = Decimal(0)
    while r < _STIRLING_FROM:
        shift = add(shift, div(a, r))
        a = add(a, 1)
        r = add(mul(a, a), y2)
    # Horner's rule in u = 1/w^2 = conj(w)^2 / |w|^4
    r2 = mul(r, r)
    ur, ui = div(sub(mul(a, a), y2), r2), div(mul(-2, mul(a, y)), r2)
    sr = si = Decimal(0)
    for c in _stirling_digits():
        sr, si = add(sub(mul(sr, ur), mul(si, ui)), c), add(mul(sr, ui), mul(si, ur))
    series = sub(mul(sr, ur), mul(si, ui))
    # Re psi(w) = ln|w| - Re 1/(2w) - Re(series)
    return float(sub(sub(div(sub(ctx.ln(r), div(a, r)), 2), series), shift))


_BINET_NODES = 16
_BINET_TOL = 1e-9


def binet_check(z: float) -> tuple[float, float, float]:
    """(lhs, rhs, |difference|) of the integral representation of digamma.

    lhs: psi(z) from the shifted Stirling series, which rests on the Bernoulli
    numbers ``bernoulli_std``.
    rhs: log z - 1/(2z) - int_0^inf (1/2 - 1/sigma + 1/(e^sigma-1)) e^{-sigma z} dsigma.
    The integral runs over panels doubling in width from min(1/4, 1/z) to past
    40/z + 40, where e^{-sigma z} < e^{-40}; the kernel stays below 1/2.  Its
    quadrature error is held to 1e-9 max(1, |integral|): the integral grows
    like 1/(2z) as z -> 0, and only its rounding grows with it.
    """
    if not 0 < z < math.inf:
        raise DomainError("binet_check needs a finite z > 0")
    first = min(0.25, 1.0 / z)
    doublings = math.log2((40.0 / z + 40.0) / first)
    check_size(3 * _BINET_NODES * doublings)
    lhs = _re_digamma(z, 0.0)
    edges = (0.0,) + tuple(math.ldexp(first, k) for k in range(math.ceil(doublings) + 1))
    integral = gauss_legendre(
        lambda s, _: [exp_kernel_integrand(v) * math.exp(-v * z) for v in s],
        edges, _BINET_NODES, _BINET_TOL, relative=True,
    )
    rhs = math.log(z) - 1.0 / (2.0 * z) - integral
    return lhs, rhs, abs(lhs - rhs)


class DensityConfig:
    """Evaluation grid for the density comparison."""

    __slots__ = ("e_grid",)

    def __init__(self, e_grid: tuple[float, ...]):
        if not all(0 < e < math.inf for e in e_grid):
            raise DomainError("E grid must be finite and strictly positive (pole at E=0)")
        self.e_grid = e_grid

    @staticmethod
    def linspace(e_min: float, e_max: float, n: int) -> "DensityConfig":
        if n < 3:
            # two points fit the two affine parameters exactly: nothing is compared
            raise UsageError("density grid needs at least 3 samples")
        check_size(n)  # one digamma call per grid point
        step = (e_max - e_min) / (n - 1)
        return DensityConfig(tuple(e_min + i * step for i in range(n)))


# The fit's determinant n*sxx - sx^2 cancels on narrow grids.  Of 9000 seeded
# grids (E_min in 1e-3..1e6, width E_min*10^U(-8,1), n in {3, 10, 100}), every
# one whose alpha or beta printed other than -pi/2 had it <= 2.7e-4 * n*sxx;
# the tests', README's and benchmark's grids have >= 1.9e-3 (5..6 with n = 3).
_FIT_MIN_SPREAD = 1e-3


class AffineFitReport:
    __slots__ = ("alpha", "beta", "max_residual", "max_residual_full", "rows")

    def __init__(
        self, alpha: float, beta: float, max_residual: float, max_residual_full: float, rows: list
    ):
        self.alpha, self.beta = alpha, beta
        self.max_residual, self.max_residual_full = max_residual, max_residual_full
        self.rows = rows

    def render(self) -> str:
        return (
            f"affine fit rho_matrix = alpha * rho_bh + beta: "
            f"alpha={self.alpha:.10f} beta={self.beta:.10f} "
            f"max|residual|={self.max_residual:.3e} "
            f"(pole term kept: {self.max_residual_full:.3e})"
        )


def blackhole_density_compare(cfg: DensityConfig) -> AffineFitReport:
    """Least-squares affine fit of rho_matrix against the coset density.

    The densities differ by explicit overall constants, a log-epsilon offset
    and a conjugation sign, so the claim under test is affine equivalence of
    the E-dependence.  The comparison is made in the large-E reduction that
    defines the simplified coset density (half-shift terms dropped), i.e.
    against d/dE Im log Gamma(iE) - pi/2; the explicit -1/(2E) pole term is
    itself a dropped half-term and is reported separately: keeping it adds a
    genuine O(1/E) non-affine deviation (max_residual_full).  Rows are
    (E, y, x, residual): y = Re psi(iE) - pi/2 is rho_matrix less its pole
    term (the CSV's rho_matrix column), x is the coset density, one psi each.
    A grid too narrow to fix both parameters raises NumericError.
    """
    psis = [_re_digamma(0.0, e) for e in cfg.e_grid]
    # (2/pi) d/dE Im log Gamma(-iE) = -(2/pi) Re psi(iE) by conjugation
    xs = [-(2.0 / math.pi) * psi for psi in psis]
    # read Re psi(iE) - pi/2 directly: adding 1/(2E) back onto rho_matrix
    # cancels catastrophically at small E
    ys = [psi - math.pi / 2.0 for psi in psis]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom <= _FIT_MIN_SPREAD * n * sxx:
        share = denom / (n * sxx)
        raise NumericError(f"E grid too narrow for the affine fit (determinant share {share:.1e})")
    alpha = (n * sxy - sx * sy) / denom
    beta = (sy - alpha * sx) / n
    rows = []
    max_res = 0.0
    max_res_full = 0.0
    for e, psi, x, y in zip(cfg.e_grid, psis, xs, ys):
        fit = alpha * x + beta
        res = y - fit
        max_res = max(max_res, abs(res))
        max_res_full = max(max_res_full, abs(psi - math.pi / 2.0 - 1.0 / (2.0 * e) - fit))
        rows.append((e, y, x, res))
    # a subnormal E overflows the pole term 1/(2E)
    values = [alpha, beta, max_res_full] + [v for row in rows for v in row[1:]]
    if not all(map(math.isfinite, values)):
        raise ArithmeticError("density comparison is not finite on this E grid")
    return AffineFitReport(alpha, beta, max_res, max_res_full, rows)


def central_charge_negative_branch(k_prime) -> Fraction:
    """Continuation 2 + 6/(k'-2); equals 26 at k' = 9/4."""
    k_prime = Fraction(k_prime)
    if k_prime == 2:
        raise DomainError("central charge pole at k' = 2")
    return 2 + Fraction(6) / (k_prime - 2)
