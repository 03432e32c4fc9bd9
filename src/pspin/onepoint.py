"""One-point correlator expansion: genus coefficients exact in p.

Expanding the single-kernel integral representation in the binomial-tail
terms turns each monomial into a Gamma value:

    int_0^inf dt t^{1/p - 1} exp(-t - sum_{r>=1} g_r y^r t^{1 - 2r/p}),
    y = c^{2/p} s^{2 + 2/p},  g_r = p(p-1)...(p-2r+1)/((2r+1)! 4^r).

The y^g coefficient is a sum over multi-indices {k_r} with sum r k_r = g:

    C_g(p) = sum prod_r (-g_r)^{k_r}/k_r! * prod_{i=1}^{K-1} (i - (2g-1)/p)
             (K = sum k_r),  times the common factor Gamma(1 - (2g-1)/p).

The multi-indices with the same K add up to [y^g] T^K/K!, T = -sum_r g_r y^r,
so the sum runs over K alone (``twopoint.tail_power``).

C_g(p) is an exact Laurent polynomial in p; everything here is symbolic and
is evaluated at fixed rational p (including negative p) on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, LaurentP, UsageError
from .twopoint import tail_power


@lru_cache(maxsize=None)
def genus_coefficient(g: int) -> LaurentP:
    """C_g(p): coefficient of y^g Gamma(1-(2g-1)/p) in the kernel expansion.

    Each [y^g] T^K/K! (``tail_power``) is a polynomial in p and each
    Gamma-shift factor i - (2g-1)/p is a Laurent polynomial, so the whole sum
    is a Laurent polynomial in p.
    """
    if g < 0:
        raise UsageError("genus must be >= 0")
    if g == 0:
        return LaurentP.const(1)
    total = LaurentP()
    shift = LaurentP.const(1)  # Gamma(K + (1-2g)/p) / Gamma(1 + (1-2g)/p)
    for K in range(1, g + 1):
        total = total + tail_power(K, g) * shift
        shift = shift * LaurentP({0: K, -1: 1 - 2 * g})
    return total


@dataclass(frozen=True)
class OnePointTerm:
    """Genus-g term of the one-point expansion.

    coefficient: (-1)^g C_g(p) / p^g, a Laurent polynomial in p; the common
    factor Gamma(1 - (2g-1)/p) stays symbolic
    """

    genus: int
    coefficient: LaurentP


def one_point_series(g_max: int) -> list[OnePointTerm]:
    """Exact genus coefficients for g = 1..g_max (symbolic in p)."""
    if g_max > 16:
        # the tests check every g <= 16 by zeta(1-2g) at p=-1 and by the
        # Bernoulli leading term; g <= 16 takes 0.04-0.06 s in process
        # (2-vCPU Xeon, Python 3.11.7, five cold runs)
        raise UsageError("one-point expansion checked through genus 16")
    out = []
    p = LaurentP.var()
    for g in range(1, g_max + 1):
        coeff = genus_coefficient(g) / p**g
        if g % 2:
            coeff = -coeff
        out.append(OnePointTerm(g, coeff))
    return out


def selection_rule(p, genus: int, marks) -> bool:
    """Degree selection rule (p+1)(2g-2+n) = sum_i (p m_i + j_i + 1), exactly."""
    marks = tuple(marks)
    lhs = (p + 1) * (2 * genus - 2 + len(marks))
    rhs = sum(p * m + j + 1 for m, j in marks)
    return lhs == rhs


def admissible_one_point_label(p: int, g: int) -> tuple[int, int] | None:
    """The unique (n, j) with (p+1)(2g-1) = p n + j + 1, 0 <= j <= p-2.

    That is the one-point solution of ``selection_rule``.
    """
    if p < 2:
        return None
    j = (2 * g - 2) % p
    if j > p - 2:
        return None
    n = 2 * g - 1 + (2 * g - 2 - j) // p
    return (n, j)


def gamma_ratio_at(p, g: int, j: int) -> Fraction:
    """Exact Gamma(1-(2g-1)/p) / Gamma(1-(1+j)/p) at fixed rational p.

    Requires the exponent shift q = (2g-2-j)/p to be an integer; the ratio is
    then a finite product of rational factors.  A pole inside the shift
    (argument hitting a non-positive integer) raises DomainError.
    """
    p = Fraction(p)
    if p == 0:
        raise DomainError("p must be nonzero")
    qf = Fraction(2 * g - 2 - j, 1) / p
    if qf.denominator != 1:
        raise DomainError(f"label j={j} not admissible at p={p} (non-integer shift)")
    q = int(qf)
    z = 1 - Fraction(1 + j, 1) / p
    out = Fraction(1)
    if q >= 1:
        # Gamma(z - q)/Gamma(z) = 1 / prod_{t=1}^{q} (z - t)
        for t in range(1, q + 1):
            f = z - t
            if f == 0:
                raise DomainError(f"Gamma-ratio pole at p={p}, g={g}, j={j}")
            out /= f
    else:
        for t in range(0, -q):
            out *= z + t
    return out


def one_point_value(p, g: int, j: int | None = None) -> Fraction:
    """Exact <tau_{n,j}>_g at fixed rational p (analytic continuation included).

    With j omitted, the admissible spin label at integer p >= 2 is used.
    """
    if g < 1:
        raise UsageError("genus must be >= 1")
    pf = Fraction(p)
    if j is None:
        if pf.denominator != 1 or pf < 2:
            raise UsageError("automatic label needs integer p >= 2; pass j explicitly")
        lab = admissible_one_point_label(int(pf), g)
        if lab is None:
            # spin index would be p-1: the selection rule admits no entry
            return Fraction(0)
        _, j = lab
    term = one_point_series(g)[g - 1]
    return term.coefficient.eval(pf) * gamma_ratio_at(pf, g, j)
