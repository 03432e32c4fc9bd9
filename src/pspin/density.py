"""Large-p asymptotics, the digamma/Binet identity, and densities of states.

The leading large-p growth of the intersection numbers is B_g/((2g)! 2g) p^g
with the positive Bernoulli sequence B_g; the Fourier-transformed one-point
function produces the density

    rho(E) = d/dE Im log Gamma(iE) - pi/2 - 1/(2E) = Re psi(iE) - pi/2 - 1/(2E)

which is compared, up to affine freedom (overall constants and a log-epsilon
offset), against the simplified coset-model density
(2/pi) d/dE Im log Gamma(-iE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import mpmath

from .exact import DomainError, ExactScalar, RatP, UsageError
from .numbers import bernoulli_abs, zeta_even_rational_part


def bernoulli_leading(g: int) -> Fraction:
    """Exact leading coefficient B_g/((2g)! 2g) of the p^g growth."""
    if g < 1:
        raise UsageError("g >= 1 required")
    return bernoulli_abs(g) / (factorial(2 * g) * 2 * g)


def zeta_identity_exact(g: int) -> bool:
    """B_g/((2g)!(2g)) = zeta(2g)/((2pi)^{2g} g), checked symbolically.

    zeta(2g) enters as an exact multiple of pi^{2g}, so both sides are
    compared as ExactScalar values with their pi powers intact.
    """
    lhs = ExactScalar.from_fraction(bernoulli_leading(g))
    zeta = ExactScalar(zeta_even_rational_part(g), pi_pow=2 * g)
    rhs = zeta * ExactScalar.rational_power(2, -2 * g) * ExactScalar.pi(-2 * g).scale(
        Fraction(1, g)
    )
    return lhs == rhs


@dataclass(frozen=True)
class LargePReport:
    genus: int
    degree: int
    leading: Fraction
    matches: bool
    negligible: bool


def large_p_check(formula: RatP, g: int) -> LargePReport:
    """Compare the leading p^g coefficient with bernoulli_leading(g).

    Formulas of lower growth order (degree < g) are reported as negligible,
    matching how subleading families behave at large p.
    """
    deg, lead = formula.leading()
    if deg == g:
        return LargePReport(g, deg, lead, lead == bernoulli_leading(g), False)
    return LargePReport(g, deg, lead, False, deg < g)


def log_sinh_series(order: int) -> list[Fraction]:
    """Exact x^{2n} coefficients of log(sinh(x/2)/(x/2)), n = 1..order.

    c_n = (-1)^{n-1} B_n / ((2n)! 2n) with the positive B_n = |B_{2n}|;
    signs alternate starting positive.
    """
    if order > 12:
        raise UsageError("series order capped at 12")
    return [
        Fraction((-1) ** (n - 1)) * bernoulli_abs(n) / (factorial(2 * n) * 2 * n)
        for n in range(1, order + 1)
    ]


def log_sinh_partial_sum(sigma: float, order: int) -> float:
    return sum(float(c) * sigma ** (2 * n) for n, c in enumerate(log_sinh_series(order), 1))


def exp_kernel_integrand(sigma: float) -> float:
    """1/2 - 1/sigma + 1/(e^sigma - 1), with a series switch near zero.

    The three pieces cancel catastrophically as sigma -> 0; below 1e-3 the
    Taylor series sigma/12 - sigma^3/720 + sigma^5/30240 is used instead.
    """
    if sigma < 0:
        raise DomainError("integrand defined for sigma >= 0")
    if sigma < 1e-3:
        return sigma / 12.0 - sigma**3 / 720.0 + sigma**5 / 30240.0
    if sigma > 700.0:  # e^sigma overflows; its reciprocal is exactly 0 here
        return 0.5 - 1.0 / sigma
    return 0.5 - 1.0 / sigma + 1.0 / math.expm1(sigma)


def binet_check(z: float) -> tuple[float, float, float]:
    """(lhs, rhs, |difference|) of the integral representation of digamma.

    lhs: psi(z) from the high-precision library evaluation.
    rhs: log z - 1/(2z) - int_0^inf (1/2 - 1/sigma + 1/(e^sigma-1)) e^{-sigma z} dsigma.
    """
    if z <= 0:
        raise DomainError("binet_check needs z > 0")
    from scipy.integrate import quad

    lhs = float(mpmath.digamma(z))
    integral, err = quad(
        lambda s: exp_kernel_integrand(s) * math.exp(-s * z),
        0.0,
        math.inf,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=300,
    )
    if err > 1e-9:
        raise ArithmeticError(f"Binet integral quadrature error {err} too large")
    rhs = math.log(z) - 1.0 / (2.0 * z) - integral
    return lhs, rhs, abs(lhs - rhs)


def sinh_log_derivative_identity(sigma: float) -> tuple[float, float, float]:
    """d/dsigma [-log(sinh(s/2)/(s/2))] vs 1/sigma - 1/2 - 1/(e^sigma - 1).

    The bridge between the large-p kernel and the digamma integrand; both
    sides evaluated independently, returning (lhs, rhs, |diff|).
    """
    if sigma <= 0:
        raise DomainError("sigma > 0 required")
    lhs = -(0.5 / math.tanh(sigma / 2.0) - 1.0 / sigma)
    rhs = 1.0 / sigma - 0.5 - 1.0 / math.expm1(sigma)
    return lhs, rhs, abs(lhs - rhs)


@dataclass(frozen=True)
class DensityConfig:
    """Evaluation grid and tolerances for the density comparison."""

    e_grid: tuple[float, ...]
    epsilon: float = 1.0
    tol: float = 1e-10

    def __post_init__(self):
        if any(e <= 0 for e in self.e_grid):
            raise DomainError("E grid must be strictly positive (pole at E=0)")

    @staticmethod
    def linspace(e_min: float, e_max: float, n: int) -> "DensityConfig":
        if e_min <= 0:
            raise DomainError("E grid must be strictly positive (pole at E=0)")
        if n < 2:
            raise UsageError("density grid needs at least 2 samples")
        step = (e_max - e_min) / (n - 1)
        return DensityConfig(tuple(e_min + i * step for i in range(n)))


def _re_psi_imag_axis(e: float, dps: int = 30) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.re(mpmath.digamma(mpmath.mpc(0, e))))


def _im_loggamma(e: float, dps: int = 40):
    with mpmath.workdps(dps):
        return mpmath.im(mpmath.loggamma(mpmath.mpc(0, e)))


def rho_matrix(e: float) -> float:
    """rho(E) = Re psi(iE) - pi/2 - 1/(2E) for E > 0."""
    if e <= 0:
        raise DomainError("rho defined for E > 0 (explicit pole -1/(2E))")
    return _re_psi_imag_axis(e) - math.pi / 2.0 - 1.0 / (2.0 * e)


def rho_matrix_fd(e: float, h: float = 1e-5) -> float:
    """Same density via central finite differences of Im log Gamma(iE)."""
    if e <= 0:
        raise DomainError("rho defined for E > 0")
    with mpmath.workdps(40):
        d = (_im_loggamma(e + h) - _im_loggamma(e - h)) / (2 * mpmath.mpf(h))
    return float(d) - math.pi / 2.0 - 1.0 / (2.0 * e)


def rho_density(cfg: DensityConfig) -> list[tuple[float, float]]:
    """Density of states on the configured grid (digamma path)."""
    return [(e, rho_matrix(e)) for e in cfg.e_grid]


def rho_blackhole(e: float) -> float:
    """Simplified coset-model density (2/pi) d/dE Im log Gamma(-iE)."""
    if e <= 0:
        raise DomainError("E > 0 required")
    # d/dE Im log Gamma(-iE) = -Re psi(iE) by conjugation
    return -(2.0 / math.pi) * _re_psi_imag_axis(e)


@dataclass
class AffineFitReport:
    alpha: float
    beta: float
    max_residual: float
    max_residual_full: float
    rows: list[tuple[float, float, float, float]] = field(default_factory=list)

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
    genuine O(1/E) non-affine deviation (max_residual_full).
    """
    xs = [rho_blackhole(e) for e in cfg.e_grid]
    ys = [rho_matrix(e) + 1.0 / (2.0 * e) for e in cfg.e_grid]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if abs(denom) < 1e-30:
        raise ArithmeticError("degenerate affine fit")
    alpha = (n * sxy - sx * sy) / denom
    beta = (sy - alpha * sx) / n
    rows = []
    max_res = 0.0
    max_res_full = 0.0
    for e, x, y in zip(cfg.e_grid, xs, ys):
        res = y - (alpha * x + beta)
        max_res = max(max_res, abs(res))
        max_res_full = max(max_res_full, abs(res - 1.0 / (2.0 * e)))
        rows.append((e, y, x, res))
    return AffineFitReport(alpha, beta, max_res, max_res_full, rows)


def conjugation_identity(e: float) -> float:
    """|d/dE Im log Gamma(-iE) + d/dE Im log Gamma(iE)| via finite differences."""
    h = 1e-6
    with mpmath.workdps(40):
        dp = (_im_loggamma(e + h) - _im_loggamma(e - h)) / (2 * mpmath.mpf(h))
        dm = (
            mpmath.im(mpmath.loggamma(mpmath.mpc(0, -(e + h))))
            - mpmath.im(mpmath.loggamma(mpmath.mpc(0, -(e - h))))
        ) / (2 * mpmath.mpf(h))
    return abs(float(dm) + float(dp))


def central_charge(k) -> Fraction:
    """Central charge 2 - 6/(k+2) of the compact coset model."""
    k = Fraction(k)
    if k == -2:
        raise DomainError("central charge pole at k = -2")
    return 2 - Fraction(6) / (k + 2)


def central_charge_negative_branch(k_prime) -> Fraction:
    """Continuation 2 + 6/(k'-2); equals 26 at k' = 9/4."""
    k_prime = Fraction(k_prime)
    if k_prime == 2:
        raise DomainError("central charge pole at k' = 2")
    return 2 + Fraction(6) / (k_prime - 2)
