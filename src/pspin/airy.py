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


def reduce_order_at_zero(p: int, k: int) -> tuple[int, int | None]:
    """phi^{(k)}(0) as (mult, order): mult * phi^{(order)}(0) with order <= p-2,
    or mult * c0 (order None) when the reduction ends on the rewrite constant.

    At zero the rewrite phi^{(p-1)} = y phi + c0 gives
    phi^{(p-1+m)}(0) = m phi^{(m-1)}(0) + [m = 0] c0; each step lowers the
    order by p, so the loop ends.
    """
    if k < 0:
        raise DomainError("derivative order must be >= 0")
    if p < 3:
        raise UsageError("derivative rewrite needs integer p >= 3")
    mult = 1
    while k >= p - 1:
        m = k - (p - 1)
        if m == 0:
            return mult, None
        mult *= m
        k = m - 1
    return mult, k


def phi_deriv_zero(p: int, k: int, kernel_mode: str = REAL) -> ExactScalar:
    """Exact phi^{(k)}(0) for the family (p, kernel_mode), any k >= 0.

    Orders k >= p-1 are reduced through ``reduce_order_at_zero``.
    """
    mult, order = reduce_order_at_zero(p, k)
    c0 = mode_constant(kernel_mode)  # also rejects an unknown mode
    if order is None:
        return ExactScalar.from_fraction(c0 * mult)
    base = _moment(p, order)
    if kernel_mode == CONTOUR and p == 3:
        # classical Ai: Ai^{(j)}(0) = (-1)^j sqrt(3)/(2 pi) * moment, j <= p-2
        phase = ExactScalar.sqrt(3).scale(Fraction((-1) ** order, 2)) * ExactScalar.pi(-1)
        base = base * phase
    return base.scale(mult)


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

