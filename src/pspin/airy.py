"""Generalized Airy kernels phi for each p: exact derivatives at zero.

Two kernel flavours, each with its rewrite constant c0 (``mode_constant``).
The mode changes only the p = 3 contour values at zero (``phi_deriv_zero``)
and the c0 = 0 projection of ``moments.reduce_moment``; both modes give one
two-point table, so the two-point grades and series take no mode.

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

Nothing here evaluates a kernel numerically: the quadrature oracle
(``oracle.quad_moment``) evaluates Ai in plain floats, ``_airy`` giving Ai
and Ai' at a list of points and ``_rewrite`` the higher derivatives by
Ai'' = x Ai, and the tests check both through ``oracle.ai_deriv``.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import DomainError, ExactScalar, UsageError

CONTOUR = "contour"
REAL = "real"


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
    if not isinstance(p, int) or p < 3:
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
        return ExactScalar(c0 * mult)
    base = _moment(p, order)
    if kernel_mode == CONTOUR and p == 3:
        # classical Ai: Ai^{(j)}(0) = (-1)^j sqrt(3)/(2 pi) * moment, j <= p-2
        phase = ExactScalar.sqrt(3).scale(Fraction((-1) ** order, 2)) * ExactScalar.pi(-1)
        base = base * phase
    return base.scale(mult)

