"""Quadrature oracle honesty, Monte Carlo reproducibility, zeta values."""

import math
from fractions import Fraction as F

import pytest
from scipy.special import airy

from pspin.correlators import FiniteNSource, finite_n_evaluate
from pspin.exact import DomainError, ExactScalar, UsageError
from pspin.oracle import (
    McConfig,
    mc_trace_moments,
    oracle_report,
    quad_moment,
    reports_to_json,
    zeta_oracle,
)

AI0 = float(airy(0)[0])
AIP0 = float(airy(0)[1])


class TestQuadMoment:
    @pytest.mark.parametrize("a", [0.5, 0.8, 1.0])
    def test_i2_identity(self, a):
        # (1 + a^3) I2 = Ai(0)^2 - 2a T, T = int Ai(y) Ai'(-a y) dy
        i2 = quad_moment(1, 2, 0, a)
        t = quad_moment(0, 0, 1, a)
        assert abs((1 + a**3) * i2 - (AI0**2 - 2 * a * t)) < 1e-6

    def test_k2_at_unit_ratio(self):
        assert abs(quad_moment(0, 1, 1, 1.0)) < 1e-8

    def test_k1_closed_form(self):
        a = 0.5
        got = quad_moment(0, 2, 0, a)
        want = -(1 + a) / (1 + a**3) * AI0 * AIP0
        assert abs(got - want) < 1e-6

    def test_k2_closed_form_quadrature(self):
        # arbitration fixture: K2 = (a^2-1)/(1+a^3) Ai(0)Ai'(0)
        a = 0.5
        got = quad_moment(0, 1, 1, a)
        want = (a**2 - 1) / (1 + a**3) * AI0 * AIP0
        assert abs(got - want) < 1e-6
        assert got > 0  # the product of two negative slopes near zero

    def test_tolerance_honesty(self):
        # halving tol never moves the result by more than the previous tol
        for tol in (1e-6, 1e-8):
            v1 = quad_moment(3, 1, 0, 0.8, tol=tol)
            v2 = quad_moment(3, 1, 0, 0.8, tol=tol / 2)
            assert abs(v1 - v2) <= tol

    def test_bounds(self):
        with pytest.raises(Exception):
            quad_moment(9, 0, 0, 0.5)
        with pytest.raises(DomainError):
            quad_moment(1, 0, 0, -0.5)


class TestMonteCarlo:
    def test_bit_reproducible(self):
        cfg = McConfig(3, (0.5, -0.5, 1.0), (0.4,), sample_count=500, rng_seed=42)
        assert mc_trace_moments(cfg) == mc_trace_moments(cfg)

    def test_seed_sensitivity(self):
        cfg1 = McConfig(3, (0.5, -0.5, 1.0), (0.4,), sample_count=500, rng_seed=42)
        cfg2 = McConfig(3, (0.5, -0.5, 1.0), (0.4,), sample_count=500, rng_seed=43)
        assert mc_trace_moments(cfg1) != mc_trace_moments(cfg2)

    def test_s_zero_exact(self):
        cfg = McConfig(4, (1.0, -1.0, 2.0, -2.0), (0.0,), sample_count=10)
        assert mc_trace_moments(cfg) == (1.0, 0.0)

    def test_too_few_samples_rejected(self):
        for count in (1, 0, -5):
            with pytest.raises(UsageError):
                McConfig(2, (0.5, -0.5), (0.3,), sample_count=count)

    def test_scalar_mgf(self):
        # N=1 Gaussian: <e^{0.5 m}> = e^{0.125}
        cfg = McConfig(1, (0.0,), (0.5,), sample_count=20000, rng_seed=7)
        mean, se = mc_trace_moments(cfg)
        assert abs(mean - math.exp(0.125)) < 3 * se

    def test_convergence_rate(self):
        # doubling samples shrinks the standard error like 1/sqrt(n)
        cfg1 = McConfig(2, (0.3, -0.3), (0.5,), sample_count=2000, rng_seed=11)
        cfg2 = McConfig(2, (0.3, -0.3), (0.5,), sample_count=8000, rng_seed=11)
        _, se1 = mc_trace_moments(cfg1)
        _, se2 = mc_trace_moments(cfg2)
        assert 0.4 < se1 / se2 / 2.0 < 1.6

    def test_matches_residue_formula_n2(self):
        eigs = (1.0, -1.0, 2.0, -2.0)
        cfg = McConfig(4, eigs, (0.3, 0.2), sample_count=20000, rng_seed=5)
        mean, se = mc_trace_moments(cfg)
        exact = finite_n_evaluate(FiniteNSource(4, eigs), [0.3, 0.2])
        assert abs(mean - exact) <= 3 * se


class TestZetaOracle:
    def test_exact_values(self):
        assert zeta_oracle(-1) == F(-1, 12)
        assert zeta_oracle(-3) == F(1, 120)
        assert zeta_oracle(2) == ExactScalar(F(1, 6), pi_pow=2)
        assert zeta_oracle(-2) == 0

    def test_numeric_fallback(self):
        assert abs(zeta_oracle(3) - 1.2020569031595943) < 1e-12

    def test_pole(self):
        with pytest.raises(DomainError):
            zeta_oracle(1)


def test_report_shapes():
    rep = oracle_report("demo", {"a": 0.5}, 1.0, 1.0 + 1e-9, 1e-6)
    assert rep["pass"] and rep["abs_diff"] <= 1e-6
    text = reports_to_json([rep])
    assert '"identity": "demo"' in text
