"""Exact scalar canonicalization and Laurent/rational-function arithmetic."""

import functools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspin.exact import (
    CycloA,
    DomainError,
    ExactScalar as ES,
    LaurentP,
    PoleError,
    _norm_radical,
    _terms_text,
)
from pspin.moments import _vec_sum
from reference import cyclo_add


class TestGammaNormalize:
    def test_airy_product_identity(self):
        # Ai(0) Ai'(0) = -Gamma(1/3)Gamma(2/3)/(2 pi)^2 = -1/(2 pi sqrt(3))
        ai0 = ES.rational_power(3, F(-2, 3)) * ES.gamma(F(2, 3), -1)
        aip0 = (ES.rational_power(3, F(-1, 3)) * ES.gamma(F(1, 3), -1)).scale(-1)
        prod = ai0 * aip0
        # value preservation against a floating oracle
        assert abs(float(prod.numeric(30)) - float(mpmath.airyai(0) * mpmath.airyai(0, 1))) < 1e-12

    def test_reflection_is_not_applied(self):
        # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3): one value, two canonical forms
        x = ES.gamma(F(1, 3)) * ES.gamma(F(2, 3))
        y = ES.pi().scale(2) * ES.rational_power(3, F(-1, 2))
        assert x != y
        assert x.gammas == ((F(1, 3), 1), (F(2, 3), 1)) and not y.gammas
        with mpmath.workdps(40):
            assert abs(x.numeric(40) - y.numeric(40)) < mpmath.mpf(10) ** -40 * abs(y.numeric(40))
        assert x.surd != y.surd

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            ES.gamma(0)
        with pytest.raises(DomainError):
            ES.gamma(-3)

    def test_argument_shift(self):
        # Gamma(7/3) = (4/3)(1/3) Gamma(1/3)
        assert ES.gamma(F(7, 3)) == ES.gamma(F(1, 3)).scale(F(4, 9))
        # Gamma(-2/3) = -(3/2) Gamma(1/3)
        assert ES.gamma(F(-2, 3)) == ES.gamma(F(1, 3)).scale(F(-3, 2))

    def test_random_products_preserve_value(self):
        # canonicalization must never change the numeric value
        rng = random.Random(7)
        args = [F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6), F(5, 6), F(1, 2),
                F(1, 5), F(4, 5), F(2, 7), F(5, 3), F(-1, 4)]
        for _ in range(1000):
            x = ES(F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
            raw = mpmath.mpf(x.rational.numerator) / x.rational.denominator
            for _ in range(rng.randint(1, 4)):
                q = rng.choice(args)
                m = rng.choice([-1, 1])
                x = x * ES.gamma(q, m)
                raw *= mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator) ** m
            got = x.numeric(40)
            assert abs(got - raw) <= 1e-12 * abs(raw)

    def test_render_stable(self):
        x = ES.gamma(F(1, 3)) * ES.pi(-2).scale(F(-5, 12)) * ES.sqrt(3)
        assert x.render() == "-5/12 * pi^-2 * sqrt(3) * Gamma(1/3)"
        assert ES().render() == "0"
        assert ES.rational_power(4, F(1, 4)).render() == ES.sqrt(2).render()


class TestExactArithmetic:
    def test_radical_normalization(self):
        assert ES.rational_power(4, F(1, 4)) == ES.sqrt(2)
        assert ES.sqrt(8) == ES.sqrt(2).scale(2)
        assert ES.rational_power(3, F(5, 3)) == ES.rational_power(3, F(2, 3)).scale(3)



class TestLaurentAndRatP:
    def test_laurent_eval_examples(self):
        # one-point genus-2 coefficient vanishes at p=3 through the (p-3) factor
        p = LaurentP.var()
        c = LaurentP.const
        g2 = (p - c(1)) * (p - c(3)) * (c(1) + c(2) * p) / (p.scale(5760))
        assert g2.eval(3) == 0
        # continued to p=-1 with the Gamma-ratio Gamma(4)/Gamma(2) = 6
        assert g2.eval(-1) * 6 == F(1, 120)
        g1 = (p - c(1)) / c(24)
        assert g1.eval(-3) == F(-1, 6)

    def test_pole_reporting(self):
        # p-valued results are polynomials over a power of p: poles sit at p=0
        p = LaurentP.var()
        f = LaurentP.const(1) / p ** 3
        with pytest.raises(PoleError) as exc:
            f.eval(0)
        assert exc.value.order == 3
        # a cancelled power of p evaluates
        g = (p ** 2 - p.scale(2)) / p
        assert g.eval(0) == -2
        # any divisor other than a monomial c*p^k leaves the type
        with pytest.raises(DomainError):
            (p ** 2 - LaurentP.const(4)) / (p - LaurentP.const(2))

    def test_eval_multiplicative(self):
        p = LaurentP.var()
        f = (p - LaurentP.const(1)) / p.scale(2)
        g = (p ** 2).scale(F(3, 7)) / p ** 3
        for q in (F(3), F(-4), F(7, 3)):
            assert (f * g).eval(q) == f.eval(q) * g.eval(q)

    def test_laurent_str(self):
        lp = LaurentP({3: F(2), 2: F(-7), 1: F(2), 0: F(3)})
        assert str(lp) == "2*p^3 - 7*p^2 + 2*p + 3"

    def test_leading(self):
        p = LaurentP.var()
        f = (p ** 3).scale(2) / (p.scale(5760))
        assert f.leading() == (2, F(1, 2880))


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20).filter(lambda q: q != 0),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
)
def test_ratp_eval_is_multiplicative(q, cs1, cs2):
    def build(cs):
        p = LaurentP.var()
        out = LaurentP.const(0)
        for e, c in enumerate(cs):
            out = out + (p ** e).scale(c)
        return out

    f, g = build(cs1), build(cs2)
    assert (f * g).eval(q) == f.eval(q) * g.eval(q)


# ---------------------------------------------------------------------------
# reference route: Fraction-dict Laurent polynomials and N(a)/(1+a^p)^m, the
# arithmetic the integer-numerator kernels replaced
# ---------------------------------------------------------------------------


class RefLaurent:
    def __init__(self, coeffs=None):
        self.coeffs = {e: F(c) for e, c in (coeffs or {}).items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return RefLaurent(out)

    def __neg__(self):
        return RefLaurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return RefLaurent(out)

    def __truediv__(self, other):
        ((k, c),) = other.coeffs.items()
        return RefLaurent({e - k: v / c for e, v in self.coeffs.items()})

    def __pow__(self, k):
        out = RefLaurent({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def scale(self, r):
        return RefLaurent({e: c * F(r) for e, c in self.coeffs.items()})

    def eval(self, x):
        x = F(x)
        if x == 0 and any(e < 0 for e in self.coeffs):
            raise PoleError("pole at 0", order=-min(self.coeffs))
        return sum((c * x**e for e, c in self.coeffs.items()), F(0))

    def leading(self):
        e = max(self.coeffs, default=0)
        return e, self.coeffs.get(e, F(0))

    def numer_denom_laurent(self):
        k = max(0, -min(self.coeffs, default=0))
        den = RefLaurent({k: math.lcm(*(c.denominator for c in self.coeffs.values()))})
        return self * den, den

    def __str__(self):
        return _terms_text(self.coeffs, "p", "^")


def _ref_cancel(num, p, limit):
    i = 0
    while i < limit and len(num) > 1:
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


class RefCyclo:
    def __init__(self, p, num=None, m=0):
        num = num if isinstance(num, RefLaurent) else RefLaurent(num)
        quo, i = _ref_cancel(num.coeffs, p, m)
        self.p, self.num, self.m = p, (RefLaurent(quo) if i else num), (m - i if quo else 0)

    def _over(self, m):
        return self.num * RefLaurent({0: 1, self.p: 1}) ** (m - self.m)

    def __add__(self, other):
        m = max(self.m, other.m)
        return RefCyclo(self.p, self._over(m) + other._over(m), m)

    def __neg__(self):
        return RefCyclo(self.p, -self.num, self.m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefCyclo):
            return RefCyclo(self.p, self.num.scale(other), self.m)
        return RefCyclo(self.p, self.num * other.num, self.m + other.m)

    def __pow__(self, k):
        out = RefCyclo(self.p, {0: 1})
        for _ in range(k):
            out = out * self
        return out

    def eval(self, a):
        a = F(a)
        den = (1 + a**self.p) ** self.m
        if den == 0:
            raise PoleError("pole", order=self.m)
        return self.num.eval(a) / den

    def __str__(self):
        numer, den = self.num.numer_denom_laurent()
        den = RefCyclo(self.p, den)._over(self.m).coeffs
        text = _terms_text(numer.coeffs, "a", "**")
        if den == {0: 1}:
            return text
        if len(numer.coeffs) > 1:
            text = f"({text})"
        denom = _terms_text(den, "a", "**")
        if den != {1: 1} and list(den) != [0]:
            denom = f"({denom})"
        return f"{text}/{denom}"


def _outcome(f):
    """f() or the type of the exception it raises, for two-route comparisons."""
    try:
        return f()
    except (PoleError, DomainError, ZeroDivisionError) as exc:
        return type(exc)


def _same_laurent(new, ref):
    """new (LaurentP) has ref's value, str and lowest-terms integer form."""
    assert new.coeffs == ref.coeffs and str(new) == str(ref)
    assert new.den > 0 and all(new.nums.values())
    assert math.gcd(new.den, *new.nums.values()) == 1


def _same_cyclo(new, ref):
    assert (new.p, new.m) == (ref.p, ref.m) and str(new) == str(ref)
    _same_laurent(new.num, ref.num)


fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
laurent_dicts = st.dictionaries(st.integers(-3, 4), fractions, max_size=5)
nonzero = fractions.filter(bool)


@settings(max_examples=200, deadline=None)
@given(laurent_dicts, laurent_dicts, nonzero, st.integers(-3, 3), fractions, st.integers(0, 3))
def test_laurent_matches_reference(d1, d2, c, k, x, n):
    x1, x2, r1, r2 = LaurentP(d1), LaurentP(d2), RefLaurent(d1), RefLaurent(d2)
    _same_laurent(x1, r1)
    _same_laurent(x1 + x2, r1 + r2)
    _same_laurent(x1 - x2, r1 - r2)
    _same_laurent(-x1, -r1)
    _same_laurent(x1 * x2, r1 * r2)
    _same_laurent(x1 ** n, r1 ** n)
    _same_laurent(x1.scale(c), r1.scale(c))
    _same_laurent(x1.scale(0), r1.scale(0))
    _same_laurent(x1 / LaurentP({k: c}), r1 / RefLaurent({k: c}))
    assert _outcome(lambda: x1.eval(x)) == _outcome(lambda: r1.eval(x))
    assert x1.leading() == r1.leading()
    for new, ref in zip(x1.numer_denom_laurent(), r1.numer_denom_laurent()):
        assert new.coeffs == ref.coeffs and str(new) == str(ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(laurent_dicts, laurent_dicts), max_size=6), st.booleans())
def test_laurent_dot_matches_reference(pairs, cancel):
    # one reduction for the whole sum of products, against a fold of reference products
    if cancel and pairs:
        pairs.append(({e: -c for e, c in pairs[0][0].items()}, pairs[0][1]))
    want = RefLaurent()
    for d1, d2 in pairs:
        want = want + RefLaurent(d1) * RefLaurent(d2)
    _same_laurent(LaurentP.dot((LaurentP(d1), LaurentP(d2)) for d1, d2 in pairs), want)


@settings(max_examples=100, deadline=None)
@given(laurent_dicts, laurent_dicts, nonzero)
def test_laurent_equal_values_equal_objects(d1, d2, c):
    x, y = LaurentP(d1), LaurentP(d2)
    p2 = LaurentP.var(2)
    for same in ((x + y) - y, x.scale(c).scale(1 / c), LaurentP(x.coeffs), (x * p2) / p2):
        assert same == x and hash(same) == hash(x)
        assert (same.nums, same.den) == (x.nums, x.den)


def _cyclo_pair(p, d, i, m):
    """CycloA and RefCyclo of d * (1+a^p)^i / (1+a^p)^m, so cancellation is exercised."""
    num = RefLaurent(d) * RefLaurent({0: 1, p: 1}) ** i
    return CycloA(p, num.coeffs, m), RefCyclo(p, num.coeffs, m)


cyclo_args = st.tuples(laurent_dicts, st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 7), cyclo_args, cyclo_args, fractions)
def test_cyclo_matches_reference(p, args1, args2, a):
    x1, r1 = _cyclo_pair(p, *args1)
    x2, r2 = _cyclo_pair(p, *args2)
    _same_cyclo(x1, r1)
    _same_cyclo(cyclo_add(x1, x2), r1 + r2)
    assert _outcome(lambda: x1.eval(a)) == _outcome(lambda: r1.eval(a))


atom_vectors = st.dictionaries(st.sampled_from("uvwxyz"), cyclo_args, max_size=4)
vec_terms = st.lists(
    st.tuples(fractions, st.integers(-4, 4), st.integers(-2, 3), atom_vectors), max_size=6
)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 7), vec_terms, st.booleans())
def test_vec_sum_matches_reference(p, terms, cancel):
    # the engine's one accumulation path against a left fold of reference sums
    # of c a^j (1+a^p)^k x: same values, atoms in the order a term with c != 0
    # first brings them, and atoms that cancel dropped
    if cancel and terms:
        c, j, k, vec = terms[0]
        terms.append((-c, j, k, vec))
    lib, ref = [], {}
    for c, j, k, vec in terms:
        pairs = {atom: _cyclo_pair(p, *args) for atom, args in vec.items()}
        pairs = {atom: pair for atom, pair in pairs.items() if pair[0].num.nums}
        lib.append((c, j, k, {atom: x for atom, (x, _) in pairs.items()}))
        if c:
            for atom, (_, r) in pairs.items():
                r = r * RefCyclo(p, {j: c})
                if k >= 0:
                    r = r * RefCyclo(p, {0: 1, p: 1}) ** k
                else:
                    r = RefCyclo(p, r.num, r.m - k)
                ref[atom] = ref[atom] + r if atom in ref else r
    got = _vec_sum(p, lib)
    want = {atom: r for atom, r in ref.items() if r.num.coeffs}
    assert list(got) == list(want)
    for atom, r in want.items():
        _same_cyclo(got[atom], r)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 7), cyclo_args, fractions, st.integers(-4, 4))
def test_times_monomial_matches_reference(p, args, c, j):
    # the engine's only product: a shifted, scaled numerator over the same (1+a^p)^m
    x, r = _cyclo_pair(p, *args)
    _same_cyclo(x.times_monomial(c, j), r * RefCyclo(p, {j: c}))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 7), cyclo_args, cyclo_args, nonzero)
def test_cyclo_equal_values_equal_objects(p, args1, args2, c):
    x, _ = _cyclo_pair(p, *args1)
    y, _ = _cyclo_pair(p, *args2)
    cyclo = LaurentP({0: 1, p: 1})
    for same in (
        cyclo_add(cyclo_add(x, y), y.times_monomial(-1)),
        x.times_monomial(c).times_monomial(1 / c),
        CycloA(p, x.num * cyclo, x.m + 1),
    ):
        assert same == x and hash(same) == hash(x)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 7), cyclo_args, st.integers(-2, 4))
def test_times_cyclo_matches_multiplication(p, args, k):
    # a sum's (1+a^p)^k factor, a shift of the denominator power, equals plain
    # multiplication by (1+a^p)^k, or for k < 0 the constructor's form over
    # (1+a^p)^(m-k)
    x, r = _cyclo_pair(p, *args)
    want = r * RefCyclo(p, {0: 1, p: 1}) ** k if k >= 0 else RefCyclo(p, r.num, r.m - k)
    _same_cyclo(_vec_sum(p, [(1, 0, k, {"x": x})]).get("x", CycloA(p)), want)


class TestRepr:
    def test_laurent(self):
        assert repr(LaurentP.var() - LaurentP.const(1)) == "LaurentP(p - 1)"
        assert repr(LaurentP()) == "LaurentP(0)"

    def test_cyclo(self):
        assert repr(CycloA(3, {1: -2}, 1)) == "CycloA(-2*a/(a**3 + 1), p=3)"


# ---------------------------------------------------------------------------
# ExactScalar products and Gamma tokens against a from-scratch canonicalization
# ---------------------------------------------------------------------------


def _ref_mul(x, y):
    """x * y canonicalized from scratch, without ``_surd_product``."""
    rat = x.rational * y.rational
    if rat == 0:
        return ES()
    rad = dict(x.radical)
    for prime, e in y.radical:
        rad[prime] = rad.get(prime, F(0)) + e
    factor, radical = _norm_radical(rad)
    gam = dict(x.gammas)
    for q, m in y.gammas:
        gam[q] = gam.get(q, 0) + m
    gammas = tuple(sorted((q, m) for q, m in gam.items() if m != 0))
    return ES(rat * factor, x.pi_pow + y.pi_pow, radical, gammas)


def _ref_gamma(arg, mult):
    a, rat = F(arg), F(1)
    while a > 1:
        a -= 1
        rat *= a
    while a <= 0:
        rat /= a
        a += 1
    scalar = ES(rat**mult)
    if a != 1:
        scalar = _ref_mul(scalar, ES(F(1), gammas=((a, mult),)))
    return scalar


gamma_args = st.builds(F, st.integers(-7, 12), st.sampled_from([2, 3, 4, 5, 6])).filter(
    lambda q: q.denominator != 1 or q > 0
)
factors = st.one_of(
    st.builds(ES, nonzero),
    st.builds(ES.pi, st.integers(-3, 3)),
    st.builds(ES.rational_power, st.integers(2, 12),
              st.builds(F, st.integers(-7, 7), st.sampled_from([2, 3, 4, 6]))),
    st.builds(_ref_gamma, gamma_args, st.integers(-2, 2)),
)
scalars = st.lists(factors, min_size=1, max_size=5).map(
    lambda fs: functools.reduce(_ref_mul, fs, ES(F(1)))
)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, gamma_args, st.integers(-2, 2))
def test_cached_products_match_uncached(x, y, q, mult):
    assert x * y == _ref_mul(x, y)
    assert x * x == _ref_mul(x, x)
    assert ES.gamma(q, mult) == _ref_gamma(q, mult)
