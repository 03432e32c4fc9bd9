"""Exact scalar canonicalization and Laurent/rational-function arithmetic."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspin.exact import (
    DomainError,
    ExactScalar as ES,
    ExactSum,
    LaurentP,
    PoleError,
    RatP,
    UsageError,
    gamma_normalize,
)


class TestGammaNormalize:
    def test_reflection_third(self):
        # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3)
        x = ES.gamma(F(1, 3)) * ES.gamma(F(2, 3))
        assert x == ES.pi().scale(2) * ES.rational_power(3, F(-1, 2))

    def test_reflection_half(self):
        assert ES.gamma(F(1, 2)) * ES.gamma(F(1, 2)) == ES.pi()

    def test_airy_product_identity(self):
        # Ai(0) Ai'(0) = -Gamma(1/3)Gamma(2/3)/(2 pi)^2 = -1/(2 pi sqrt(3))
        ai0 = ES.rational_power(3, F(-2, 3)) / ES.gamma(F(2, 3))
        aip0 = -(ES.rational_power(3, F(-1, 3)) / ES.gamma(F(1, 3)))
        prod = ai0 * aip0
        target = (ES.gamma(F(1, 3)) * ES.gamma(F(2, 3)) * ES.pi(-2)).scale(F(-1, 4))
        assert prod == target
        assert prod == ES.pi(-1).scale(F(-1, 6)) * ES.sqrt(3)
        # value preservation against a floating oracle
        assert abs(float(prod) - float(mpmath.airyai(0) * mpmath.airyai(0, 1))) < 1e-12

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

    def test_idempotent(self):
        x = ES.gamma(F(5, 7), 2) * ES.pi(3).scale(F(-7, 11)) * ES.sqrt(F(18, 5))
        assert gamma_normalize(x) == x
        assert gamma_normalize(gamma_normalize(x)) == gamma_normalize(x)

    def test_random_products_preserve_value(self):
        # canonicalization must never change the numeric value
        rng = random.Random(7)
        args = [F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 6), F(5, 6), F(1, 2),
                F(1, 5), F(4, 5), F(2, 7), F(5, 3), F(-1, 4)]
        for _ in range(1000):
            x = ES.from_fraction(F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
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
        assert ES.zero().render() == "0"
        assert ES.rational_power(4, F(1, 4)).render() == ES.sqrt(2).render()


class TestExactArithmetic:
    def test_radical_normalization(self):
        assert ES.rational_power(4, F(1, 4)) == ES.sqrt(2)
        assert ES.sqrt(8) == ES.sqrt(2).scale(2)
        assert ES.rational_power(3, F(5, 3)) == ES.rational_power(3, F(2, 3)).scale(3)

    def test_add_proportional(self):
        a = ES.gamma(F(1, 5)).scale(F(2, 3))
        b = ES.gamma(F(1, 5)).scale(F(1, 3))
        assert a + b == ES.gamma(F(1, 5))
        with pytest.raises(UsageError):
            _ = a + ES.pi()

    def test_division_cancels_tokens(self):
        x = ES.gamma(F(2, 5)) * ES.gamma(F(1, 5))
        y = x / ES.gamma(F(1, 5))
        assert y == ES.gamma(F(2, 5))

    def test_exact_sum_merges(self):
        s = ExactSum()
        s.add(ES.pi().scale(2))
        s.add(ES.gamma(F(1, 5)))
        s.add(ES.pi().scale(-2))
        assert len(s.terms) == 1
        assert s.single() == ES.gamma(F(1, 5))


class TestLaurentAndRatP:
    def test_laurent_eval_examples(self):
        # one-point genus-2 coefficient vanishes at p=3 through the (p-3) factor
        p = RatP.var()
        c = RatP.const
        g2 = (p - c(1)) * (p - c(3)) * (c(1) + c(2) * p) / (p.scale(5760))
        assert g2.eval(3) == 0
        # continued to p=-1 with the Gamma-ratio Gamma(4)/Gamma(2) = 6
        assert g2.eval(-1) * 6 == F(1, 120)
        g1 = (p - c(1)) / c(24)
        assert g1.eval(-3) == F(-1, 6)

    def test_pole_reporting(self):
        # p-valued results are polynomials over a power of p: poles sit at p=0
        p = RatP.var()
        f = RatP.const(1) / p ** 3
        with pytest.raises(PoleError) as exc:
            f.eval(0)
        assert exc.value.order == 3
        # a cancelled power of p evaluates
        g = (p ** 2 - p.scale(2)) / p
        assert g.eval(0) == -2
        # any divisor other than a monomial c*p^k leaves the type
        with pytest.raises(DomainError):
            (p ** 2 - RatP.const(4)) / (p - RatP.const(2))

    def test_eval_multiplicative(self):
        p = RatP.var()
        f = (p - RatP.const(1)) / p.scale(2)
        g = (p ** 2).scale(F(3, 7)) / p ** 3
        for q in (F(3), F(-4), F(7, 3)):
            assert (f * g).eval(q) == f.eval(q) * g.eval(q)

    def test_laurent_str(self):
        lp = LaurentP({3: F(2), 2: F(-7), 1: F(2), 0: F(3)})
        assert str(lp) == "2*p^3 - 7*p^2 + 2*p + 3"

    def test_leading(self):
        p = RatP.var()
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
        p = RatP.var()
        out = RatP.const(0)
        for e, c in enumerate(cs):
            out = out + (p ** e).scale(c)
        return out

    f, g = build(cs1), build(cs2)
    assert (f * g).eval(q) == f.eval(q) * g.eval(q)
