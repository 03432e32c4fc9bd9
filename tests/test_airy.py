"""Generalized Airy kernels: exact boundary data, rewrites, Ai at p = 3."""

from fractions import Fraction as F

import mpmath
import pytest
from scipy.integrate import quad
from scipy.special import airy

from pspin.airy import CONTOUR, REAL, phi_deriv_zero, reduce_order_at_zero
from pspin.exact import DomainError, ExactScalar as ES, UsageError
from pspin.oracle import ai_deriv


def kernel_moment_quad(p: int, k: int) -> float:
    """Independent oracle: quadrature of int_0^inf u^k exp(-u^p/p) du."""
    import numpy as np

    val, err = quad(lambda u: u**k * np.exp(-(u**p) / p), 0, np.inf,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return val


class TestDerivZero:
    def test_general_p_minus_2(self):
        # phi^{(p-2)}(0) = p^{-1/p} Gamma(1 - 1/p)
        for p in (3, 4, 5, 6, 7):
            want = ES.rational_power(p, F(-1, p)) * ES.gamma(1 - F(1, p))
            assert phi_deriv_zero(p, p - 2, REAL) == want

    def test_contour_p3_values(self):
        # Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3), to 40 digits
        with mpmath.workdps(40):
            for k in (0, 1):
                want = mpmath.airyai(0, derivative=k)
                got = mpmath.mpf(str(phi_deriv_zero(3, k, CONTOUR).numeric(40)))
                assert abs(got - want) < mpmath.mpf(10) ** -35 * abs(want)
        assert phi_deriv_zero(3, 2, CONTOUR) == ES()  # Ai''(0) = 0 Ai(0)

    def test_real_p4_zero_order(self):
        # quadrature oracle pins 4^{-3/4} Gamma(1/4) ~ 1.28190
        got = phi_deriv_zero(4, 0, REAL)
        assert got == ES.rational_power(4, F(-3, 4)) * ES.gamma(F(1, 4))
        assert abs(float(got.numeric(30)) - kernel_moment_quad(4, 0)) < 1e-8
        assert abs(float(got.numeric(30)) - 1.2818466760204237) < 1e-10

    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
    def test_moments_match_quadrature(self, p):
        for k in range(0, p + 1):
            exact = float(phi_deriv_zero(p, k, REAL).numeric(30))
            assert abs(exact - kernel_moment_quad(p, k)) < 1e-8

    def test_rewrite_constant_orders(self):
        # order p-1 hits the constant: 1 in real mode, 0 in contour mode
        for p in (3, 4, 5):
            assert phi_deriv_zero(p, p - 1, REAL) == ES(F(1))
            assert phi_deriv_zero(p, p - 1, CONTOUR) == ES()
            # order p: phi^{(p)}(0) = phi(0) in both modes
            assert phi_deriv_zero(p, p, REAL) == phi_deriv_zero(p, 0, REAL)

    def test_reflection_consistency(self):
        # contour-normalized product equals the canonical Ai(0)Ai'(0) scalar
        prod = phi_deriv_zero(3, 0, CONTOUR) * phi_deriv_zero(3, 1, CONTOUR)
        target = (ES.gamma(F(1, 3)) * ES.gamma(F(2, 3)) * ES.pi(-2)).scale(F(-1, 4))
        assert prod == target
        # real-kernel product carries the same Gamma content, opposite sign
        # (the two contour phases sqrt(3)/(2 pi) multiply to 3/(4 pi^2))
        real_prod = phi_deriv_zero(3, 0, REAL) * phi_deriv_zero(3, 1, REAL)
        assert real_prod == (prod * ES.pi(2)).scale(F(-4, 3))


class TestOdeRewrite:
    def test_reduce_order_at_zero(self):
        # phi^{(p-1+m)}(0) = m phi^{(m-1)}(0) + [m = 0] c0, one step per p orders
        assert reduce_order_at_zero(3, 1) == (1, 1)
        assert reduce_order_at_zero(3, 2) == (1, None)
        assert reduce_order_at_zero(3, 4) == (2, 1)
        assert reduce_order_at_zero(3, 5) == (3, None)
        assert reduce_order_at_zero(3, 7) == (5 * 2, 1)
        assert reduce_order_at_zero(4, 10) == (7 * 3, 2)
        assert reduce_order_at_zero(4, 11) == (8 * 4, None)
        for p in (3, 4, 5, 6):
            for k in range(4 * p):
                mult, order = reduce_order_at_zero(p, k)
                assert mult >= 1 and (order is None or 0 <= order <= p - 2)
        with pytest.raises(UsageError):
            reduce_order_at_zero(2, 1)
        with pytest.raises(DomainError):
            reduce_order_at_zero(3, -1)

    def test_invalid_family(self):
        with pytest.raises(UsageError):
            phi_deriv_zero(2, 0, REAL)
        with pytest.raises(UsageError):
            phi_deriv_zero(3, 0, "weird")

    @pytest.mark.parametrize("p", [F(7, 2), 3.0])
    def test_non_integer_p_refused(self, p):
        # the rewrite ladder steps by p-1 orders, so only an integer p >= 3 ends on 0..p-2
        with pytest.raises(UsageError, match="integer p >= 3"):
            reduce_order_at_zero(p, 3)
        with pytest.raises(UsageError, match="integer p >= 3"):
            phi_deriv_zero(p, 1)


class TestPhiEval:
    """phi at p = 3 in contour mode is Ai, evaluated by oracle.ai_deriv."""

    def test_ode_finite_difference(self):
        # |Ai''(y) - y Ai(y)| < 1e-6 by central differences
        h = 1e-4
        for y in (-2.0, -1.0, 0.0, 1.0):
            second = (ai_deriv(y + h, 0) - 2 * ai_deriv(y, 0) + ai_deriv(y - h, 0)) / h**2
            assert abs(second - y * ai_deriv(y, 0)) < 1e-6

    def test_higher_derivatives_via_rewrite(self):
        ai, aip, _, _ = airy(1.0)
        # Ai'''(y) = Ai(y) + y Ai'(y)
        assert abs(ai_deriv(1.0, 3) - (ai + 1.0 * aip)) < 1e-12
