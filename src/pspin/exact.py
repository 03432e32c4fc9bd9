"""Exact arithmetic: scalars with pi powers, radicals and Gamma tokens, and the
coefficient types of the formal variables, LaurentP (p) and CycloA (a).

The scalar domain used throughout the engine is

    rational * pi^k * prod_q prime_q^{e_q} * prod_a Gamma(a)^{m_a}

with exact ``Fraction`` arithmetic everywhere.  Canonicalization rules:

* Gamma arguments are shifted into (0, 1] via the recurrence
  Gamma(z) = (z-1) Gamma(z-1); Gamma(1) leaves no token and Gamma at
  non-positive integers is rejected.  Tokens are opaque: products only add
  their exponents, and no reflection or multiplication identity is applied.
* Radicals are stored as prime -> exponent with exponents in (0, 1), so
  4^(1/4) and 2^(1/2) normalize identically.

``ExactScalar`` is a monomial in these tokens: it multiplies, scales and
compares, and has no sum, difference or quotient.  Equal canonical forms
mean equal values, but not the converse: Gamma(1/3) Gamma(2/3) and
2 pi / sqrt(3) are two forms of one value.  The engine never needs such an
identity, because the spin factors cancel the Gamma tokens of the boundary
values pair by pair, before anything is summed.  Where one would be needed
the engine fails loudly, never silently: a boundary pair whose Gamma
tokens the spin factors do not cancel raises CalibrationError, decided and
reported on integers with no scalar built (``twopoint._pair_weight``), and a
cross term or residue that does not cancel raises CancellationError.  The
numeric value is preserved by construction.  ``ExactScalar.numeric`` returns
it as a ``decimal.Decimal``, with no library beyond the standard one and no
other pspin module: the Gamma tokens and pi = Gamma(1/2)^2 come from ``_gamma``.
The tests check both against mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class UsageError(ValueError):
    """API misuse: incompatible operands or invalid configuration."""


class PoleError(DomainError):
    """Evaluation at a pole; carries the pole order."""

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


# ---------------------------------------------------------------------------
# prime factorization of small integers (bases of radicals are tiny here)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    if n <= 0:
        raise DomainError(f"cannot factor non-positive integer {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def record_repr(rec) -> str:
    """Name(field=value, ...) over a slotted record's fields, in slot order."""
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec.__slots__)
    return f"{type(rec).__qualname__}({fields})"


class ExactScalar:
    """Canonical exact monomial: a product of tokens, no sums; immutable by convention."""

    __slots__ = ("rational", "pi_pow", "radical", "gammas")

    def __init__(self, rational: Fraction = Fraction(0), pi_pow: int = 0, radical=(), gammas=()):
        # radical: ((prime, exponent in (0, 1)), ...); gammas: ((q in (0, 1), power), ...)
        self.rational, self.pi_pow, self.radical, self.gammas = rational, pi_pow, radical, gammas

    def __eq__(self, other):
        if other.__class__ is not ExactScalar:
            return NotImplemented
        return self.rational == other.rational and self.surd == other.surd

    __repr__ = record_repr

    # -- constructors (ExactScalar() is zero) --------------------------------

    @staticmethod
    def pi(k: int = 1) -> "ExactScalar":
        return ExactScalar(Fraction(1), pi_pow=k)

    @staticmethod
    def sqrt(r) -> "ExactScalar":
        """sqrt of a positive rational."""
        return ExactScalar.rational_power(r, Fraction(1, 2))

    @staticmethod
    def rational_power(base, exp) -> "ExactScalar":
        """base^exp for positive rational base and rational exp, canonicalized."""
        b = Fraction(base)
        e = Fraction(exp)
        if b <= 0:
            raise DomainError(f"power of non-positive base {b}")
        rad = {prime: e * mult for prime, mult in _factorize(b.numerator)}
        rad.update((q, -e * m) for q, m in _factorize(b.denominator))  # coprime to the numerator
        rat, radical = _norm_radical(rad)
        return ExactScalar(rat, radical=radical)

    @staticmethod
    def gamma(arg, mult: int = 1) -> "ExactScalar":
        """Gamma(arg)^mult with the argument shifted into (0, 1]; no token at 1."""
        a = Fraction(arg)
        if a.denominator == 1 and a <= 0:
            raise DomainError(f"Gamma pole at non-positive integer {a}")
        rat = Fraction(1)
        while a > 1:
            a -= 1
            rat *= a
        while a <= 0:
            rat /= a
            a += 1
        if a == 1 or mult == 0:
            return ExactScalar(rat**mult)
        return ExactScalar(rat**mult, gammas=((a, mult),))

    @property
    def surd(self) -> tuple:
        """The irrational part (pi_pow, radical, gammas), the key of a surd class."""
        return self.pi_pow, self.radical, self.gammas

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        rat = self.rational * other.rational
        if rat == 0:
            return ExactScalar()
        factor, pi_pow, radical, gammas = _surd_product(self.surd, other.surd)
        return ExactScalar(rat * factor, pi_pow, radical, gammas)

    def scale(self, r) -> "ExactScalar":
        r = Fraction(r)
        if r == 0:
            return ExactScalar()
        return ExactScalar(self.rational * r, self.pi_pow, self.radical, self.gammas)

    # -- conversions ---------------------------------------------------------

    def numeric(self, prec: int = 50):
        """The value as a ``Decimal`` rounded to prec significant digits.

        Computed in ``decimal`` at prec + 15 digits: the rational is divided
        exactly, each prime^e is exp(e ln prime), each Gamma token comes from
        ``_gamma`` and pi^k is Gamma(1/2)^(2k).
        """
        from decimal import Context

        ctx = Context(prec=prec + 15)
        v = ctx.divide(self.rational.numerator, self.rational.denominator)
        if self.pi_pow:
            v = ctx.multiply(v, ctx.power(_gamma(Fraction(1, 2), ctx), 2 * self.pi_pow))
        for prime, e in self.radical:
            v = ctx.multiply(v, ctx.exp(ctx.divide(ctx.multiply(e.numerator, ctx.ln(prime)),
                                                   e.denominator)))
        for q, m in self.gammas:
            v = ctx.multiply(v, ctx.power(_gamma(q, ctx), m))
        return Context(prec=prec).plus(v)

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical text rendering, stable for golden files."""
        if self.rational == 0:
            return "0"
        sign = "-" if self.rational < 0 else ""
        r = abs(self.rational)
        parts = [f"{sign}{r.numerator}" + (f"/{r.denominator}" if r.denominator != 1 else "")]
        if self.pi_pow:
            parts.append("pi" if self.pi_pow == 1 else f"pi^{self.pi_pow}")
        sqrt_rad = 1
        for prime, e in self.radical:
            if e == Fraction(1, 2):
                sqrt_rad *= prime
            else:
                parts.append(f"{prime}^({e.numerator}/{e.denominator})")
        if sqrt_rad != 1:
            parts.insert(1 + (1 if self.pi_pow else 0), f"sqrt({sqrt_rad})")
        for q, m in self.gammas:
            token = f"Gamma({q.numerator}/{q.denominator})"
            parts.append(token if m == 1 else f"{token}^{m}")
        return " * ".join(parts)


def _gamma(q: Fraction, ctx):
    """Gamma(q) for rational 0 < q <= 1 at the precision of ctx, as a ``Decimal``.

    Gamma(q) = x^q e^-x sum_k x^k / (q (q+1) ... (q+k)) + Gamma(q, x), and for
    x = floor(2.303 prec) + 3 the dropped tail Gamma(q, x) <= e^-x is below one
    unit in the last digit of Gamma(q) >= 1.  The terms are positive; they are
    summed in integer units of 10^-prec until one rounds down to zero.
    """
    a, b = q.numerator, q.denominator
    x = int(2.303 * ctx.prec) + 3
    unit = 10**ctx.prec
    term = total = unit * b // a
    k = 0
    while term:
        k += 1
        term = term * x * b // (a + k * b)
        total += term
    scale = ctx.exp(ctx.subtract(ctx.divide(ctx.multiply(a, ctx.ln(x)), b), x))
    return ctx.multiply(ctx.divide(total, unit), scale)


def _norm_radical(rad: dict[int, Fraction]) -> tuple[Fraction, tuple[tuple[int, Fraction], ...]]:
    """Split radical exponents into a rational multiplier and exponents in (0, 1)."""
    out = {}
    mult = Fraction(1)
    for prime, e in rad.items():
        whole = e.numerator // e.denominator
        frac = e - whole
        mult *= Fraction(prime) ** whole
        if frac:
            out[prime] = frac
    return mult, tuple(sorted(out.items()))


def _surd_product(x: tuple, y: tuple) -> tuple:
    """Canonical irrational part of x * y, for irrational parts (pi_pow, radical, gammas).

    Returns (rational factor, pi_pow, radical, gammas), where the factor
    collects prime^floor(e) from the merged radical exponents.
    """
    rad: dict[int, Fraction] = dict(x[1])
    for prime, e in y[1]:
        rad[prime] = rad.get(prime, Fraction(0)) + e
    factor, radical = _norm_radical(rad)
    gam: dict[Fraction, int] = dict(x[2])
    for q, m in y[2]:
        gam[q] = gam.get(q, 0) + m
    gammas = tuple(sorted((q, m) for q, m in gam.items() if m != 0))
    return factor, x[0] + y[0], radical, gammas


# ---------------------------------------------------------------------------
# exact coefficient types of the two formal variables p and a
# ---------------------------------------------------------------------------


def _terms_text(coeffs: dict, var: str, power: str) -> str:
    """Terms in descending powers, e.g. ``2*p^3 - p + 3`` or ``-a**2 + 1``."""
    if not coeffs:
        return "0"
    bits = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        mono = "" if e == 0 else (var if e == 1 else f"{var}{power}{e}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        bits.append(("- " if c < 0 else "+ ") + body)
    head = bits[0][2:] if bits[0][0] == "+" else "-" + bits[0][2:]
    return " ".join([head] + bits[1:])


class LaurentP:
    """Laurent polynomial in p with exact rational coefficients.

    Every p-valued result (genus coefficients, one-point terms, the
    interpolants and their closed forms) is a polynomial in p over a power
    of p, so this one type carries them all.  Division is defined only by a
    monomial c*p^k; any other divisor raises DomainError.  The same
    arithmetic serves as the numerator of ``CycloA``, a Laurent polynomial
    in a.

    The value is sum_e nums[e] p^e / den with integer ``nums`` (no zeros)
    and one positive integer ``den``, kept in lowest terms:
    gcd(den, *nums) = 1.  Equal values therefore have equal fields, and
    arithmetic runs on ints with one gcd per result; ``dot`` sums products
    with one gcd for the whole sum.  ``coeffs`` gives the coefficients as
    Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: dict | None = None):
        fracs = {e: Fraction(c) for e, c in (coeffs or {}).items() if c}
        # over the lcm of reduced denominators the form is already lowest
        self.den = math.lcm(*(c.denominator for c in fracs.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator) for e, c in fracs.items()}

    @staticmethod
    def _reduced(nums: dict[int, int], den: int) -> "LaurentP":
        """nums / den in lowest terms; nums has no zero entries, den > 0."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        out = object.__new__(LaurentP)
        out.nums, out.den = nums, den
        return out

    @staticmethod
    def const(r) -> "LaurentP":
        return LaurentP({0: r})

    @staticmethod
    def var(e: int = 1) -> "LaurentP":
        return LaurentP._reduced({e: 1}, 1)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """{exponent: Fraction coefficient}, a fresh dict."""
        return {e: Fraction(n, self.den) for e, n in self.nums.items()}

    def __add__(self, other: "LaurentP") -> "LaurentP":
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {e: n * s1 for e, n in self.nums.items()}
        for e, n in other.nums.items():
            out[e] = out.get(e, 0) + n * s2
        return LaurentP._reduced({e: n for e, n in out.items() if n}, d1 * s1)

    def __neg__(self) -> "LaurentP":
        return LaurentP._reduced({e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other: "LaurentP") -> "LaurentP":
        return self + (-other)

    @staticmethod
    def dot(pairs) -> "LaurentP":
        """sum of x * y over the (x, y) pairs: integer sums over one running
        denominator, reduced once."""
        out: dict[int, int] = {}
        den = 1
        for x, y in pairs:
            d = x.den * y.den
            if den % d:
                s = d // math.gcd(den, d)
                for e in out:
                    out[e] *= s
                den *= s
            s = den // d
            for e1, c1 in x.nums.items():
                c1 *= s
                for e2, c2 in y.nums.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentP._reduced({e: n for e, n in out.items() if n}, den)

    def __mul__(self, other: "LaurentP") -> "LaurentP":
        return LaurentP.dot(((self, other),))

    def __truediv__(self, other: "LaurentP") -> "LaurentP":
        if len(other.nums) != 1:
            if not other.nums:
                raise ZeroDivisionError("division by the zero Laurent polynomial")
            raise DomainError(f"division by the non-monomial {other}")
        ((k, c),) = other.nums.items()  # other = c/d * p^k
        d = other.den if c > 0 else -other.den
        return LaurentP._reduced({e - k: n * d for e, n in self.nums.items()}, self.den * abs(c))

    def __pow__(self, k: int) -> "LaurentP":
        if k < 0:
            return LaurentP.const(1) / self ** (-k)
        out = LaurentP.const(1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, r) -> "LaurentP":
        r = Fraction(r)
        if not r:
            return LaurentP()
        return LaurentP._reduced(
            {e: n * r.numerator for e, n in self.nums.items()}, self.den * r.denominator
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentP) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, tuple(sorted(self.nums.items()))))

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        if x == 0 and any(e < 0 for e in self.nums):
            raise PoleError("Laurent polynomial has a pole at 0", order=-min(self.nums))
        return sum((c * x**e for e, c in self.coeffs.items()), Fraction(0))

    def degree(self) -> int:
        return max(self.nums, default=0)

    def leading(self) -> tuple[int, Fraction]:
        """(degree, coefficient) of the leading p-power as p -> infinity."""
        e = self.degree()
        return e, Fraction(self.nums.get(e, 0), self.den)

    def numer_denom_laurent(self) -> tuple["LaurentP", "LaurentP"]:
        """Coprime integer form N / D with D = s*p^k.

        k = max(0, -lowest exponent) and s = ``den``, so N = s*p^k*self is an
        integer polynomial in p: the stored numerators shifted by k.
        """
        k = max(0, -min(self.nums, default=0))
        return (
            LaurentP._reduced({e + k: n for e, n in self.nums.items()}, 1),
            LaurentP._reduced({k: self.den}, 1),
        )

    def __str__(self) -> str:
        return _terms_text(self.coeffs, "p", "^")

    def __repr__(self) -> str:
        return f"LaurentP({self})"


RatP = LaurentP  # former name of the p-valued type; bench/ops.py still imports it


def _cancel_cyclo(num: dict[int, int], p: int, limit: int) -> tuple[dict[int, int], int]:
    """(num / (1+a^p)^i, i) for the largest i <= limit that divides num exactly.

    The limit is always m, the denominator power of the ``CycloA`` being
    built.  1 + a^p is monic, so quotients of num's integer coefficients stay
    integral, and by Gauss's lemma they keep the content of num."""
    i = 0
    while i < limit and len(num) > 1:  # a monomial is never divisible
        rem, quo = dict(num), {}
        for e in range(max(num), min(num) + p - 1, -1):
            c = rem.pop(e, 0)
            if c:
                quo[e - p] = c
                rem[e - p] = rem.get(e - p, 0) - c
        if any(rem.values()):
            break
        num, i = quo, i + 1
    return num, i


class CycloA:
    """N(a) / (1 + a^p)^m: the exact coefficient type of the variable a.

    Moment reductions bring powers of a and 1/a from integration by parts
    and divide by 1 + a^p, the only cycle denominator, so their coefficients
    live in Q[a, 1/a, 1/(1+a^p)] for the p of the engine.  N is a Laurent
    polynomial in a.  The form is canonical (N is not divisible by 1 + a^p
    when m > 0), so equality is structural.  It has no ``+``: the engine
    sums whole atom vectors at once (``moments._vec_sum``), each atom's
    numerators over one power of 1 + a^p, and builds each sum with the
    constructor, the one place that trial-divides by 1 + a^p.  Besides that
    it has ``times_monomial`` (times c a^j, coprime to 1 + a^p), ``eval`` and
    ``str``; there is no general product, difference or inverse.
    """

    __slots__ = ("p", "num", "m")

    def __init__(self, p: int, num: "LaurentP | dict | None" = None, m: int = 0):
        if m < 0:
            raise UsageError("the (1+a^p) power of a denominator must be >= 0")
        num = num if isinstance(num, LaurentP) else LaurentP(num)
        if m:
            quo, i = _cancel_cyclo(num.nums, p, m)
            if i:
                num, m = LaurentP._reduced(quo, num.den), m - i
        self.p, self.num, self.m = p, num, (m if num.nums else 0)

    @staticmethod
    def var(p: int, e: int = 1) -> "CycloA":
        """a^e."""
        return CycloA(p, LaurentP.var(e))

    def times_monomial(self, c, j: int = 0) -> "CycloA":
        """self * c a^j for an int or Fraction c: N shifted and scaled, m kept."""
        nums = {e + j: n * c.numerator for e, n in self.num.nums.items()} if c else {}
        out = object.__new__(CycloA)  # c a^j is coprime to 1 + a^p: still canonical
        out.p, out.num = self.p, LaurentP._reduced(nums, self.num.den * c.denominator)
        out.m = self.m if nums else 0
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloA) and (self.p, self.m, self.num) == (
            other.p, other.m, other.num
        )

    def __hash__(self):
        return hash((self.p, self.m, self.num))

    def eval(self, a) -> Fraction:
        """Exact value at a rational a; PoleError at a pole of the stored form."""
        a = Fraction(a)
        den = (1 + a**self.p) ** self.m
        if den == 0:
            raise PoleError(f"coefficient pole at a={a}", order=self.m)
        return self.num.eval(a) / den

    def __str__(self) -> str:
        """Integer numerator over integer denominator, e.g. ``-2*a/(a**3 + 1)``."""
        numer, den = self.num.numer_denom_laurent()
        den = (den * LaurentP({0: 1, self.p: 1}) ** self.m).coeffs
        text = _terms_text(numer.coeffs, "a", "**")
        if den == {0: 1}:
            return text
        if len(numer.nums) > 1:
            text = f"({text})"
        denom = _terms_text(den, "a", "**")
        if den != {1: 1} and list(den) != [0]:  # only a or an integer stays bare
            denom = f"({denom})"
        return f"{text}/{denom}"

    def __repr__(self) -> str:
        return f"CycloA({self}, p={self.p})"


# ---------------------------------------------------------------------------
# fractional-power monomials of the two-point grades
# ---------------------------------------------------------------------------


class Monomial:
    """prod_i s_i^(m_i + f_i/p), one (m, f) pair per marked point, 0 <= f < p."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[tuple[int, int], ...]):
        self.slots = slots

    __repr__ = record_repr
