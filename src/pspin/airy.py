"""Generalized Airy kernels phi for each p: exact data and numeric evaluation.

Two kernel flavours are carried throughout:

* ``real``: phi(y) = int_0^inf du exp(-u^p/p + y u).  Its derivative rewrite
  carries a boundary constant, phi^{(p-1)}(y) = y phi(y) + 1, and the exact
  derivatives at zero are the moments int u^k exp(-u^p/p) du
  = p^{(k+1)/p - 1} Gamma((k+1)/p).
* ``contour``: homogeneous rewrite phi^{(p-1)}(y) = y phi(y).  For p = 3 this
  is the classical Airy function Ai (oscillatory kernel), whose values at
  zero are sqrt(3)/(2 pi) * (-1)^k times the real-kernel moments within the
  canonical band k <= p-2.  For p >= 4 no oscillatory normalization is pinned
  down here, so contour mode keeps the real-kernel moment values and differs
  from real mode only through the vanishing rewrite constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, ExactScalar, UsageError

CONTOUR = "contour"
REAL = "real"


@dataclass(frozen=True)
class AiryFamily:
    """Kernel family: base p and the rewrite-constant convention."""

    p: int
    kernel_mode: str = REAL

    def __post_init__(self):
        if self.p < 3:
            raise UsageError("AiryFamily needs integer p >= 3")
        mode_constant(self.kernel_mode)

    @property
    def ode_constant(self) -> Fraction:
        return mode_constant(self.kernel_mode)


def mode_constant(kernel_mode: str) -> Fraction:
    """Rewrite constant c0 in phi^{(p-1)} = y phi + c0 for a kernel mode."""
    if kernel_mode == CONTOUR:
        return Fraction(0)
    if kernel_mode == REAL:
        return Fraction(1)
    raise UsageError(f"unknown kernel_mode {kernel_mode!r}")


def _moment(p: int, k: int) -> ExactScalar:
    """int_0^inf u^k e^{-u^p/p} du = p^{(k+1)/p - 1} Gamma((k+1)/p), exact."""
    e = Fraction(k + 1, p) - 1
    return ExactScalar.rational_power(p, e) * ExactScalar.gamma(Fraction(k + 1, p))


def phi_deriv_zero(p: int, k: int, kernel_mode: str = REAL) -> ExactScalar:
    """Exact phi^{(k)}(0) for the family (p, kernel_mode), any k >= 0.

    Orders k >= p-1 are reduced through the derivative rewrite:
    phi^{(p-1+m)}(0) = m phi^{(m-1)}(0) + [m = 0] * ode_constant.
    """
    if k < 0:
        raise DomainError("derivative order must be >= 0")
    fam = AiryFamily(p, kernel_mode)
    if k <= p - 2:
        base = _moment(p, k)
        if kernel_mode == CONTOUR and p == 3:
            # classical Ai: Ai^{(k)}(0) = (-1)^k sqrt(3)/(2 pi) * moment
            phase = ExactScalar.sqrt(3).scale(Fraction((-1) ** k, 2)) * ExactScalar.pi(-1)
            return base * phase
        return base
    m = k - (p - 1)
    if m == 0:
        return ExactScalar.from_fraction(fam.ode_constant)
    return phi_deriv_zero(p, m - 1, kernel_mode).scale(m)


@dataclass(frozen=True)
class RewriteRule:
    """phi^{(b)}(y) -> sum of terms (y_power, rational, order) + constant."""

    b: int
    terms: tuple[tuple[int, Fraction, int], ...]
    constant: Fraction

    def render(self) -> str:
        bits = []
        for y_pow, c, order in self.terms:
            mono = "" if y_pow == 0 else ("y*" if y_pow == 1 else f"y^{y_pow}*")
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{mono}phi^({order})")
        if self.constant:
            bits.append(str(self.constant))
        return f"phi^({self.b}) -> " + " + ".join(bits)


def ode_rewrite(fam: AiryFamily, b: int) -> RewriteRule | None:
    """One Leibniz step of the derivative rewrite; None when b < p-1 (no-op).

    Differentiating phi^{(p-1)} = y phi + c0 exactly (b-p+1) times gives
    phi^{(b)} = y phi^{(b-p+1)} + (b-p+1) phi^{(b-p)} + [b = p-1] c0.
    """
    p = fam.p
    if b < p - 1:
        return None
    m = b - (p - 1)
    terms: list[tuple[int, Fraction, int]] = []
    if m > 0:
        terms.append((0, Fraction(m), m - 1))
    terms.append((1, Fraction(1), m))
    constant = fam.ode_constant if m == 0 else Fraction(0)
    return RewriteRule(b, tuple(terms), constant)


def phi_eval(fam: AiryFamily, y: float, tol: float = 1e-10, deriv: int = 0) -> float:
    """Numeric phi^{(deriv)}(y) within tol.

    Contour mode is implemented for p=3 only (classical Ai via scipy).
    Real mode evaluates the defining integral by adaptive quadrature; for
    strongly positive y the integrand grows and the constraint is accuracy,
    not convergence of the quadrature itself.
    """
    if fam.kernel_mode == CONTOUR:
        if fam.p != 3:
            raise DomainError("contour-mode numeric evaluation available for p=3 only")
        from .oracle import ai_deriv

        return float(ai_deriv(y, deriv))
    import numpy as np
    from scipy.integrate import quad

    p = fam.p
    if y > 3.0:
        raise DomainError("real-kernel numeric evaluation restricted to y <= 3")

    def integrand(u):
        return u**deriv * np.exp(-(u**p) / p + y * u)

    val, err = quad(integrand, 0.0, np.inf, epsabs=tol / 4, epsrel=tol / 4,
                    points=None, limit=200)
    if err > max(tol, 1e-13 * abs(val)):
        raise ArithmeticError(f"quadrature error {err} exceeds tol {tol}")
    return float(val)

