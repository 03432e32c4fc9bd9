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

C_g(p) is an exact Laurent polynomial in p, and so is the genus-g term
(-1)^g C_g(p)/p^g (``one_point_term``, a plain ``LaurentP``).  It is evaluated
at a fixed rational p (negative p included) and spin j on demand
(``one_point_value``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, LaurentP, UsageError
from .twopoint import tail_power


@lru_cache(maxsize=None)
def genus_coefficient(g: int) -> LaurentP:
    """C_g(p): coefficient of y^g Gamma(1-(2g-1)/p) in the kernel expansion.

    Each [y^g] T^K/K! (``tail_power``) is a polynomial in p and each
    Gamma-shift factor i - (2g-1)/p is a Laurent polynomial, so the whole sum
    is a Laurent polynomial in p, summed with one reduction (``LaurentP.dot``).
    Genus g >= 1 only: the one-point terms start at genus 1.
    """
    if g < 1:
        raise UsageError("genus must be >= 1")
    shifts = [LaurentP.const(1)]  # Gamma(K + (1-2g)/p) / Gamma(1 + (1-2g)/p), K = 1..g
    for K in range(1, g):
        shifts.append(shifts[-1] * LaurentP({0: K, -1: 1 - 2 * g}))
    return LaurentP.dot((tail_power(K, g), shifts[K - 1]) for K in range(1, g + 1))


def one_point_term(g: int) -> LaurentP:
    """(-1)^g C_g(p) / p^g: the genus-g one-point term without Gamma(1 - (2g-1)/p)."""
    if g > 16:
        # the tests check every g <= 16 by zeta(1-2g) at p=-1 and by the
        # Bernoulli leading term; g <= 16 takes 0.04-0.06 s in process
        # (2-vCPU Xeon, Python 3.11.7, five cold runs)
        raise UsageError("one-point expansion checked through genus 16")
    coeff = genus_coefficient(g) / LaurentP.var() ** g
    return -coeff if g % 2 else coeff


def one_point_series(g_max: int) -> list[LaurentP]:
    """``one_point_term(g)`` for g = 1..g_max; entry i is genus i + 1."""
    return [one_point_term(g) for g in range(1, g_max + 1)]


def selection_rule(p, genus: int, marks) -> bool:
    """Degree selection rule (p+1)(2g-2+n) = sum_i (p m_i + j_i + 1), exactly."""
    marks = tuple(marks)
    lhs = (p + 1) * (2 * genus - 2 + len(marks))
    rhs = sum(p * m + j + 1 for m, j in marks)
    return lhs == rhs


def admissible_one_point_label(p: int, g: int) -> tuple[int, int] | None:
    """The unique (n, j) with (p+1)(2g-1) = p n + j + 1, 0 <= j <= p-2, at integer p >= 2.

    That is the one-point solution of ``selection_rule``.
    """
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


def one_point_value(p, g: int, j: int) -> Fraction:
    """Exact <tau_{n,j}>_g at fixed rational p (analytic continuation included).

    At integer p >= 2 the spin j must be 0..p-2; ``one_point_table`` picks
    the label.
    """
    if g < 1:
        raise UsageError("genus must be >= 1")
    pf = Fraction(p)
    if pf.denominator == 1 and pf >= 2 and not 0 <= j <= pf - 2:
        raise UsageError(f"spin j={j} outside 0..{pf - 2} at p={pf}")
    return one_point_term(g).eval(pf) * gamma_ratio_at(pf, g, j)
