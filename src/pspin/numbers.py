"""Exact integer/rational helpers: Bernoulli numbers and even zeta values.

Two Bernoulli conventions coexist in this code base:

* ``bernoulli_std(n)`` is the standard signed B_n (B_1 = -1/2).
* ``bernoulli_abs(g)`` is the positive sequence |B_{2g}| = 1/6, 1/30, 1/42,
  1/30, ... used throughout the asymptotic formulas here.

All arithmetic is exact (``fractions.Fraction``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


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


def bernoulli_abs(g: int) -> Fraction:
    """Positive Bernoulli sequence |B_{2g}| for g >= 1 (1/6, 1/30, 1/42, ...)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return abs(bernoulli_std(2 * g))


def zeta_even_rational_part(n: int) -> Fraction:
    """Rational r_n with zeta(2n) = r_n * pi^{2n}, n >= 1.

    zeta(2n) = (2 pi)^{2n} |B_{2n}| / (2 (2n)!), so r_n = 2^{2n}|B_{2n}|/(2(2n)!).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(2 ** (2 * n)) * bernoulli_abs(n) / (2 * factorial(2 * n))

