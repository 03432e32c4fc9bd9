"""Large-p leading coefficients, the zeta identity, the digamma, Binet identity, densities, central charge."""

import functools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from pspin import density
from pspin.correlators import one_point_table
from pspin.density import (
    DensityConfig,
    bernoulli_leading,
    bernoulli_std,
    binet_check,
    blackhole_density_compare,
    central_charge_negative_branch,
    exp_kernel_integrand,
    large_p_check,
    zeta_identity,
)
from pspin.exact import DomainError, LaurentP, UsageError
from pspin.onepoint import one_point_series
from pspin.oracle import NumericError

P = LaurentP.var()
C = LaurentP.const


def log_sinh_partial_sum(sigma: float, order: int) -> float:
    # log(sinh(x/2)/(x/2)) = sum_n (-1)^(n-1) bernoulli_leading(n) x^(2n)
    return sum((-1) ** (n - 1) * float(bernoulli_leading(n)) * sigma ** (2 * n)
               for n in range(1, order + 1))


def rho_rows(*es: float) -> list[tuple[float, float, float]]:
    """(E, rho(E), coset density) from the rows of the density fit: rho = y - 1/(2E)."""
    rows = blackhole_density_compare(DensityConfig(es)).rows
    return [(e, y - 1.0 / (2.0 * e), x) for e, y, x, _ in rows]


def d_im_loggamma(e: float, h: float, sign: int = 1) -> float:
    """Central finite difference in E of Im log Gamma(sign * iE), at 40 digits."""
    with mpmath.workdps(40):
        def im_loggamma(x):
            return mpmath.im(mpmath.loggamma(mpmath.mpc(0, sign * x)))

        return float((im_loggamma(e + h) - im_loggamma(e - h)) / (2 * mpmath.mpf(h)))


class TestBernoulliLeading:
    def test_values(self):
        assert bernoulli_leading(1) == F(1, 24)
        assert bernoulli_leading(2) == F(1, 2880)   # (1/30)/(24*4)
        assert bernoulli_leading(3) == F(1, 181440)  # (1/42)/(720*6)

    def test_refusals(self):
        with pytest.raises(ValueError, match="Bernoulli index must be >= 0"):
            bernoulli_std(-1)
        with pytest.raises(UsageError, match="g >= 1 required"):
            bernoulli_leading(0)

    def test_zeta_identity_symbolic(self):
        # zeta(2g) summed directly, to the one-point cap
        for g in range(1, 17):
            assert zeta_identity(g), g

    def test_zeta_identity_refuses_changed_bernoulli(self, monkeypatch):
        # B_4 = -1/30 planted as -1/31 reaches B_6 and B_8 through the recurrence
        real = density.bernoulli_std.__wrapped__
        planted = functools.lru_cache(maxsize=None)(
            lambda n: F(-1, 31) if n == 4 else real(n)
        )
        monkeypatch.setattr(density, "bernoulli_std", planted)
        assert [zeta_identity(g) for g in (1, 2, 3, 4)] == [True, False, False, False]

    def test_zeta_identity_window(self, monkeypatch):
        # a relative 1e-9 shift stays inside g=1's window N^-2 = 1e-6 and leaves
        # every narrower one, N^-2g <= 1e-12 for g >= 2
        leading = density.bernoulli_leading
        monkeypatch.setattr(density, "bernoulli_leading", lambda g: leading(g) * F(10**9 + 1, 10**9))
        assert [zeta_identity(g) for g in range(1, 17)] == [True] + [False] * 15


class TestLargeP:
    def test_one_point_families(self):
        for g, term in enumerate(one_point_series(4), 1):
            assert large_p_check(term, g), g

    def test_two_point_g2_families(self):
        f = (P - C(1)) * (P - C(3)) * (C(2) * P + C(1)) / (P.scale(5760))
        assert large_p_check(f, 2)
        g = (P - C(1)) * (P - C(2)) * (P + C(2)) / (P.scale(2880))
        assert large_p_check(g, 2)

    def test_subleading_family_negligible(self):
        f = (C(2) * P**3 + C(13) * P**2 - C(158) * P + C(215)) / ((P**2).scale(5760))
        assert not large_p_check(f, 2)
        assert f.leading()[0] == 1


class TestLogSinh:
    def test_partial_sum_matches_function(self):
        target = math.log(math.sinh(0.25) / 0.25)
        assert abs(log_sinh_partial_sum(0.5, 8) - target) < 1e-10

    def test_zero_limit(self):
        assert log_sinh_partial_sum(0.0, 5) == 0.0


def mp_re_psi_imag(e: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.re(mpmath.digamma(mpmath.mpc(0, e))))


def mp_psi_real(x: float) -> float:
    with mpmath.workdps(50):
        return float(mpmath.digamma(x))


class TestDigamma:
    # the float psi the density and Binet read, against mpmath, bit for bit
    DENSITY_GRIDS = ((5.0, 50.0, 100), (5, 10, 6), (6.5, 65.0, 37), (5.0, 6.0, 3),
                     (1e-300, 1.0, 5), (1e-320, 1.0, 5))

    def test_imaginary_axis_matches_mpmath(self):
        points = [e for grid in self.DENSITY_GRIDS for e in DensityConfig.linspace(*grid).e_grid]
        points += [1.0, 25.0, 100.0, 1000.0, 5e-324, 1e-3, 1e308, 1.7976931348623157e308]
        rng = random.Random(32)
        points += [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(300)]
        for e in points:
            assert density._re_digamma(0.0, e) == mp_re_psi_imag(e), e

    def test_real_axis_correctly_rounded(self):
        # psi(x) crosses zero at x0 = 1.4616...: the floats next to it are
        # where a series cut at |w| >= 10 (error 1e-24) would round wrongly
        near_zero = [1.4616321449683622]
        for direction in (0.0, 2.0):
            x = near_zero[0]
            for _ in range(5):
                x = math.nextafter(x, direction)
                near_zero.append(x)
        rng = random.Random(33)
        points = [0.5, 1.0, 2.0, 5.5, 10.0, 0.01, 500.0, 1e-300, 1e300] + near_zero
        points += [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(300)]
        for x in points:
            assert density._re_digamma(x, 0.0) == mp_psi_real(x), x

    def test_stirling_coefficients_are_p_minus_1_intersection_numbers(self):
        # B_2g/(2g) = -zeta(1-2g) = -<tau_{1,0}>_g at p = -1, term by term
        table = one_point_table(-1, 16)
        assert [e.genus for e in table] == list(range(1, 17))
        assert list(density.stirling_coefficients()) == [-e.value for e in table]


class TestBinet:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.5, 10.0])
    def test_identity(self, z):
        lhs, rhs, diff = binet_check(z)
        assert diff < 1e-8

    @pytest.mark.parametrize("z", [0.01, 0.5, 10.0, 500.0])
    def test_identity_across_scales(self, z):
        # panels doubling from min(1/4, 1/z) reach both the small- and large-z tails
        _, _, diff = binet_check(z)
        assert diff <= 1e-10 * max(1.0, 1.0 / z)

    def test_unreachable_z_raises(self, monkeypatch):
        # 40/z overflows, so no panel list can reach the tail: refused before psi is summed
        def digamma(x, y):
            raise AssertionError("psi evaluated before the size check")

        monkeypatch.setattr(density, "_re_digamma", digamma)
        with pytest.raises(NumericError):
            binet_check(1e-320)

    def test_non_finite_z_raises(self):
        for z in (math.inf, math.nan):
            with pytest.raises(DomainError):
                binet_check(z)

    def test_integrand_pointwise(self):
        # one float in, one float out, on both sides of the series switch
        for v in (5e-4, 0.5, 3.0):
            assert isinstance(exp_kernel_integrand(v), float) and 0 < exp_kernel_integrand(v) < 0.5
        assert exp_kernel_integrand(0.0) == 0.0
        assert exp_kernel_integrand(800.0) == 0.5 - 1 / 800.0
        with pytest.raises(DomainError):
            exp_kernel_integrand(-1.0)

    @pytest.mark.parametrize("z", [1e-12, 1e-16, 1e-20, 1e-30, 1e-32, 1e-100])
    def test_small_z_certified_relative_to_the_integral(self, z):
        # the integral is about 1/(2z); its quadrature error is held to 1e-9 of it.
        # At 1e-12, 1e-20 and 1e-32 the 16- and 32-point sums differ by one ulp of
        # the integral, which an absolute 1e-9 would refuse
        lhs, rhs, diff = binet_check(z)
        assert diff <= 2 * 2**-52 * abs(lhs)

    def test_known_values(self):
        lhs, _, _ = binet_check(2.0)
        assert abs(lhs - (1 - 0.5772156649015329)) < 1e-10
        lhs1, _, _ = binet_check(1.0)
        assert abs(lhs1 - (-0.5772156649015329)) < 1e-10

    def test_large_z_integral_vanishes(self):
        # lhs - (log z - 1/(2z)) -> 0 as z grows
        z = 500.0
        lhs, _, _ = binet_check(z)
        assert abs(lhs - (math.log(z) - 1 / (2 * z))) < 1e-3

    def test_integrand_series_switch(self):
        # the series branch agrees with the direct expression where both work
        for s in (5e-4, 1.5e-3, 1e-2):
            series = s / 12.0 - s**3 / 720.0 + s**5 / 30240.0
            direct = 0.5 - 1.0 / s + 1.0 / math.expm1(s)
            assert abs(series - direct) < 1e-12
            assert abs(exp_kernel_integrand(s) - direct) < 1e-12

    def test_bridge_identity(self):
        # d/dsigma [-log(sinh(s/2)/(s/2))] = 1/sigma - 1/2 - 1/(e^sigma - 1): the
        # bridge between the large-p kernel and the digamma integrand
        for s in (0.3, 0.7, 1.5, 4.0):
            lhs = -(0.5 / math.tanh(s / 2.0) - 1.0 / s)
            rhs = 1.0 / s - 0.5 - 1.0 / math.expm1(s)
            assert abs(lhs - rhs) < 1e-12


class TestRho:
    def test_two_paths_agree(self):
        # the fit's digamma path vs finite differences of Im log Gamma(iE) and of
        # Im log Gamma(-iE) for the coset density
        for e, rho, x in rho_rows(1.0, 5.0, 10.0, 25.0, 50.0):
            fd = d_im_loggamma(e, 1e-5) - math.pi / 2.0 - 1.0 / (2.0 * e)
            assert abs(rho - fd) < 1e-7
            assert abs(x - (2.0 / math.pi) * d_im_loggamma(e, 1e-5, -1)) < 1e-7

    def test_log_asymptote(self):
        # rho(E) - log E stays bounded as E grows
        vals = [rho - math.log(e) for e, rho, _ in rho_rows(10.0, 100.0, 1000.0)]
        assert all(abs(v) < 2.0 for v in vals)
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_pole_at_zero(self):
        with pytest.raises(DomainError):
            DensityConfig((0.0, 1.0))

    def test_non_finite_e_raises(self):
        for e in (math.inf, math.nan):
            with pytest.raises(DomainError):
                DensityConfig((1.0, e))

    def test_grid_past_size_cap_raises(self):
        # checked before the n-tuple is built: one digamma call per grid point
        with pytest.raises(NumericError, match="numeric rule needs"):
            DensityConfig.linspace(5.0, 50.0, 2**20 + 1)

    def test_grid_evaluation(self):
        rows = blackhole_density_compare(DensityConfig.linspace(5, 10, 6)).rows
        assert [row[0] for row in rows] == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


class TestBlackholeComparison:
    def test_affine_fit_quality(self):
        cfg = DensityConfig.linspace(5, 50, 100)
        rep = blackhole_density_compare(cfg)
        assert rep.max_residual < 1e-3
        # the conjugation sign and offset come out as -pi/2 each
        assert abs(rep.alpha + math.pi / 2) < 1e-9
        assert abs(rep.beta + math.pi / 2) < 1e-9
        # keeping the dropped pole term is a visible (reported) deviation
        assert rep.max_residual_full > 1e-2

    def test_residual_with_pole_term(self):
        # max |Re psi(iE) - pi/2 - 1/(2E) - (alpha x + beta)| with x = -(2/pi) Re psi(iE),
        # psi from mpmath and alpha, beta from the fit
        cfg = DensityConfig.linspace(0.5, 20.0, 40)
        rep = blackhole_density_compare(cfg)
        with mpmath.workdps(30):
            want = 0.0
            for e in cfg.e_grid:
                psi = float(mpmath.re(mpmath.digamma(mpmath.mpc(0, e))))
                x = -(2.0 / math.pi) * psi
                want = max(want, abs(psi - math.pi / 2.0 - 1.0 / (2.0 * e) - (rep.alpha * x + rep.beta)))
        assert rep.max_residual_full == pytest.approx(want, rel=1e-12)

    def test_tiny_e_fit(self):
        # at E = 1e-300 the pole term 1/(2E) is 5e299: the pole-free fit must
        # not be recovered by adding it back onto rho_matrix
        rep = blackhole_density_compare(DensityConfig.linspace(1e-300, 1.0, 5))
        assert abs(rep.alpha + math.pi / 2) < 1e-9
        assert abs(rep.beta + math.pi / 2) < 1e-9
        assert rep.max_residual < 1e-12
        assert rep.max_residual_full == pytest.approx(5e299)

    def test_subnormal_e_raises(self):
        # 1/(2E) overflows at E = 1e-320, so the fit would be NaN
        with pytest.raises(ArithmeticError):
            blackhole_density_compare(DensityConfig.linspace(1e-320, 1.0, 5))

    @pytest.mark.parametrize("grid", [(1000.0, 1001.0, 3), (5.0, 5.000000000001, 3)])
    def test_narrow_grid_raises(self, grid):
        # n*sxx - sx^2 cancels: the fit printed alpha=-1.5707963289 and alpha=0 here
        with pytest.raises(NumericError, match="too narrow for the affine fit"):
            blackhole_density_compare(DensityConfig.linspace(*grid))

    def test_accepted_grids_fit_minus_half_pi(self):
        # y = -(pi/2) x - pi/2 exactly, so every grid the fit accepts prints
        # -pi/2 for both parameters; narrow ones are refused instead
        rng = random.Random(33)
        refused = 0
        for _ in range(300):
            e_min = 10.0 ** rng.uniform(-3.0, 6.0)
            e_max = e_min * (1.0 + 10.0 ** rng.uniform(-8.0, 1.0))
            try:
                rep = blackhole_density_compare(DensityConfig.linspace(e_min, e_max, rng.choice((3, 10))))
            except NumericError:
                refused += 1
                continue
            assert "alpha=-1.5707963268 beta=-1.5707963268 " in rep.render(), (e_min, e_max)
        assert 0 < refused < 300

    def test_one_digamma_per_grid_point(self, monkeypatch):
        # the fit's three densities share Re psi(iE): one evaluation per point
        calls = []
        digamma = density._re_digamma
        monkeypatch.setattr(density, "_re_digamma", lambda x, y: calls.append(y) or digamma(x, y))
        blackhole_density_compare(DensityConfig.linspace(6.5, 65.0, 37))
        assert len(calls) == 37

    def test_conjugation_identity(self):
        # d/dE Im log Gamma(-iE) = -d/dE Im log Gamma(iE)
        for e in (5.0, 12.5, 40.0):
            assert abs(d_im_loggamma(e, 1e-6, -1) + d_im_loggamma(e, 1e-6)) < 1e-10


class TestCentralCharge:
    def test_blackhole_point(self):
        assert central_charge_negative_branch(F(9, 4)) == 26

    def test_poles(self):
        with pytest.raises(DomainError):
            central_charge_negative_branch(2)
