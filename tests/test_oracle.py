"""Quadrature oracle honesty, Monte Carlo reproducibility."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy

from pspin import oracle
from pspin.airy import CONTOUR, phi_deriv_zero
from pspin.correlators import FiniteNSource, finite_n_evaluate
from pspin.exact import DomainError, UsageError
from pspin.oracle import (
    McConfig,
    NumericError,
    ai_deriv,
    mc_trace_moments,
    oracle_report,
    quad_moment,
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

    def test_uncertifiable_raises(self):
        # beyond the node cap, and a NaN error estimate or tolerance
        for a in (1e9, math.inf):
            with pytest.raises(NumericError):
                quad_moment(0, 0, 0, a)
        with pytest.raises(NumericError):
            quad_moment(1, 1, 1, 0.5, tol=math.nan)


class TestAiryValues:
    def test_matches_scipy(self):
        x = np.linspace(-60.0, 30.0, 9001)
        ai, aip, _, _ = airy(x)
        assert np.max(np.abs(ai_deriv(x, 0) - ai)) <= 1e-13
        # scipy's own Ai' is off by up to 1e-13 near x = -60 (against mpmath),
        # so Ai' is held to 1e-13 times its envelope |x|^{1/4}
        assert np.all(np.abs(ai_deriv(x, 1) - aip) <= 1e-13 * np.maximum(1.0, np.abs(x)) ** 0.25)
        pos = x > 0
        assert np.max(np.abs(ai_deriv(x[pos], 0) / ai[pos] - 1)) <= 1e-13
        assert np.max(np.abs(ai_deriv(x[pos], 1) / aip[pos] - 1)) <= 1e-13

    def test_matches_mpmath(self):
        x = np.linspace(-60.0, 30.0, 91)
        with mpmath.workdps(30):
            ai = np.array([float(mpmath.airyai(v)) for v in x])
            aip = np.array([float(mpmath.airyai(v, derivative=1)) for v in x])
        assert np.max(np.abs(ai_deriv(x, 0) - ai)) <= 5e-15
        assert np.max(np.abs(ai_deriv(x, 1) - aip)) <= 3e-14

    def test_scalar_and_closed_forms_at_zero(self):
        # the correctly rounded Ai(0), Ai'(0): the exact closed forms at 30 digits
        assert ai_deriv(0.0, 0) == float(phi_deriv_zero(3, 0, CONTOUR).numeric(30))
        assert ai_deriv(0.0, 1) == float(phi_deriv_zero(3, 1, CONTOUR).numeric(30))
        assert ai_deriv(0.0, 2) == 0.0
        assert np.ndim(ai_deriv(1.5, 3)) == 0

    def test_far_positive_axis_underflows_to_zero(self):
        assert ai_deriv(1e4, 0) == 0.0 and ai_deriv(1e4, 1) == 0.0

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            ai_deriv(np.array([0.5, math.nan]), 0)

    def test_walk_too_long_raises(self):
        with pytest.raises(NumericError):
            ai_deriv(-1e6, 0)

    def test_landing_check(self, monkeypatch):
        # a two-term asymptotic start misses Ai(0) by far more than 1e-13
        monkeypatch.setattr(oracle, "_ASYMPTOTIC_TERMS", 2)
        oracle._positive_walk.cache_clear()
        try:
            with pytest.raises(NumericError):
                ai_deriv(1.0, 0)
        finally:
            oracle._positive_walk.cache_clear()


# the 18 symbols of `pspin verify airy-quad` and its two irreducible moments
CLI_SYMBOLS = [
    (5, 0, 0), (1, 2, 0), (1, 0, 2), (1, 1, 1), (3, 1, 0), (3, 0, 1),
    (7, 0, 0), (5, 1, 0), (5, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2),
    (1, 3, 0), (1, 0, 3), (1, 2, 1), (1, 1, 2), (0, 2, 0), (0, 1, 1),
    (0, 0, 0), (0, 0, 1),
]


def scipy_ai_deriv(y, order):
    ai, aip, _, _ = airy(y)
    vals = [ai, aip]
    for k in range(2, order + 1):
        vals.append(y * vals[k - 2] + ((k - 2) * vals[k - 3] if k >= 3 else 0.0))
    return vals[order]


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_quad_moment_matches_scipy(a):
    for n, b, c in CLI_SYMBOLS:
        want, err = quad(lambda y: y**n * scipy_ai_deriv(y, b) * scipy_ai_deriv(-a * y, c),
                         0.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=1000)
        assert err <= 1e-10
        got = quad_moment(n, b, c, a)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (n, b, c)


class TestGaussLegendre:
    @staticmethod
    def reference(n):
        """Nodes and weights 2 / ((1 - x^2) P_n'(x)^2) at 40 digits, Newton from leggauss's nodes."""
        with mpmath.workdps(40):
            rows = []
            for x0 in np.polynomial.legendre.leggauss(n)[0].tolist():
                x = mpmath.mpf(x0)
                for _ in range(3):
                    slope = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
                    x -= mpmath.legendre(n, x) / slope
                rows.append((float(x), float(2 / ((1 - x * x) * slope * slope))))
        return rows

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_matches_leggauss(self, n):
        nodes, weights = oracle._legendre(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        assert all(abs(x - y) <= 4 * np.spacing(abs(y)) for x, y in zip(nodes, want_nodes))
        # leggauss rescales its weights to sum to 2, which leaves them up to
        # 6.7 * 2^-52 off at n = 24; against a 40-digit reference they are within 4 ulp
        assert all(abs(w - v) <= 8 * 2**-52 for w, v in zip(weights, want_weights))
        for (x, w), (rx, rw) in zip(zip(nodes, weights), self.reference(n)):
            assert abs(x - rx) <= 4 * np.spacing(abs(rx)) and abs(w - rw) <= 4 * np.spacing(rw)

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_exact_to_rounding(self, n):
        # an n-point rule integrates x^k exactly for k < 2n; rounding the nodes moves
        # x^k by at most k/2 ulp, so the sum stays within (k + 2) ulp of 2/(k+1)
        nodes, weights = oracle._legendre(n)
        for k in range(0, 2 * n - 1, 2):
            got = math.fsum(w * x**k for x, w in zip(nodes, weights))
            assert abs(got - 2 / (k + 1)) <= (k + 2) * np.spacing(2 / (k + 1)), k
            assert math.fsum(w * x ** (k + 1) for x, w in zip(nodes, weights)) == 0.0

    def test_relative_certificate(self):
        # 12 and 24 points disagree by err on one panel of scale / (x + 0.01), whose
        # integral is 4.6 scale: the relative bound tol max(1, |integral|) is the
        # absolute one while the integral is at most 1, and scales with it above
        edges = (0.0, 1.0)

        def kernel(scale):
            return lambda xs, _: [scale / (x + 0.01) for x in xs]

        coarse, fine = (math.fsum(map(lambda x, w: w / (x + 0.01), *oracle._panel_rule(edges, m)))
                        for m in (12, 24))
        err = abs(fine - coarse)
        assert err > 0
        for scale, share, relative, passes in ((1.0, 0.99, False, False), (1.0, 0.99, True, True),
                                               (0.1, 0.99, True, False), (0.1, 1.01, True, True),
                                               (1e6, 0.99, True, True), (1e6, 0.99, False, False)):
            tol = share * err * scale
            if passes:
                got = oracle.gauss_legendre(kernel(scale), edges, 12, tol, relative=relative)
                assert abs(got - scale * math.log(101.0)) <= 2 * err * scale
            else:
                with pytest.raises(NumericError):
                    oracle.gauss_legendre(kernel(scale), edges, 12, tol, relative=relative)


# quad_moment(n, b, c, a) of CLI_SYMBOLS at the default ratios, as float.hex,
# from the numpy quadrature that preceded the pure-float one
RECORDED_MOMENTS = {
    0.5: (
        '0x1.8e7b470bbb360p+0', '0x1.5c8e90b8a772ap-3', '-0x1.5c8e90b8a772ap-4',
        '0x1.76c73fc3e94fcp-6', '-0x1.e590448116e47p-2', '0x1.2a2ca49f223cap-4',
        '0x1.4e8df66fd3578p+3', '-0x1.4e8df66fd3578p+1', '0x1.4e8df66fd3578p+0',
        '-0x1.4e8df66fd3578p-3', '0x1.4e8df66fd3576p-1', '-0x1.4e8df66fd3577p-2',
        '-0x1.f5d4f1a7bd036p-4', '0x1.f5d4f1a7bd032p-4', '-0x1.b800000000000p-59',
        '0x1.f5d4f1a7bd034p-4', '0x1.f5d4f1a7bd032p-4', '0x1.f5d4f1a7bd038p-5',
        '0x1.29b0d8b25aa2cp-3', '-0x1.0bf9184d4e0d4p-4',
    ),
    0.8: (
        '0x1.489c88c793364p-4', '0x1.f4272953d8f9cp-4', '-0x1.901f544313fb0p-4',
        '-0x1.5441b5338fbf6p-5', '-0x1.962b23bab49cap-3', '0x1.ae1380d3d510ap-3',
        '-0x1.2fbc82c7c55dap+2', '0x1.1025d56f69292p-3', '0x1.542f4acb43731p+0',
        '-0x1.69f4e0fd22e72p-2', '0x1.7d01c468c66c6p-3', '-0x1.30ce36ba3856cp-3',
        '-0x1.800e11c1ad636p-5', '0x1.800e11c1ad632p-5', '0x1.400bb976bb27fp-4',
        '0x1.0009612bc8ecdp-3', '0x1.c0106a0c9f9e5p-4', '0x1.6673880a194bcp-6',
        '0x1.2c261cdae027ep-3', '-0x1.2bf06b37c36bfp-5',
    ),
    1.0: (
        '-0x1.0223d6a9155a6p-2', '0x1.4deb10aef4d12p-4', '-0x1.4deb10aef4d13p-4',
        '-0x1.0223d6a9155a6p-4', '-0x1.e57984bab3becp-5', '0x1.7b8237d7c24a0p-3',
        '-0x1.a76babe5877acp+1', '0x1.1a47c7ee5a51ep-1', '0x1.1a47c7ee5a51cp-1',
        '-0x1.1a47c7ee5a51dp-2', '0x1.1500000000000p-55', '-0x1.b800000000000p-56',
        '-0x1.2380000000000p-55', '0x1.0000000000000p-56', '0x1.785fb53dcdc26p-4',
        '0x1.785fb53dcdc29p-4', '0x1.785fb53dcdc26p-4', '0x1.7800000000000p-56',
        '0x1.208c7f3450fd6p-3', '-0x1.2f1ce8177ddafp-6',
    ),
}


@pytest.mark.parametrize("a", sorted(RECORDED_MOMENTS))
def test_quad_moment_matches_recorded(a):
    for (n, b, c), text in zip(CLI_SYMBOLS, RECORDED_MOMENTS[a]):
        want = float.fromhex(text)
        assert abs(quad_moment(n, b, c, a) - want) <= 1e-13 * max(1.0, abs(want)), (n, b, c)


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

    def test_size_caps(self):
        # both caps are checked when the config is built, before any sampling
        McConfig(4, (1.0, -1.0, 2.0, -2.0), (0.3,), sample_count=2**20)
        with pytest.raises(NumericError, match="Monte Carlo samples"):
            McConfig(4, (1.0, -1.0, 2.0, -2.0), (0.3,), sample_count=2**20 + 1)
        McConfig(724, (0.0,) * 724, (0.3,), sample_count=2)  # 2 N^2 = 1048352
        with pytest.raises(NumericError, match="array entries"):
            McConfig(725, (0.0,) * 725, (0.3,), sample_count=2)  # 2 N^2 = 1051250

    def test_n_below_one_rejected(self):
        # N = 0 used to pass and end in a ZeroDivisionError in the chunk rule
        for n in (0, -1):
            with pytest.raises(UsageError):
                McConfig(n, (), (0.3,), sample_count=10)

    @pytest.mark.parametrize("cfg", [
        McConfig(2, (0.0, 1.0), (300.0,), 100),
        McConfig(2, (0.0, 1e200), (0.3,), 100),
    ], ids=["large-s", "large-eigenvalue"])
    def test_non_finite_estimate_raises(self, cfg):
        # both used to return (inf, nan)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            mc_trace_moments(cfg)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3, 2**128 - 1], ids=["zero", "two-words", "top"])
    def test_substream_states(self, seed):
        # sample i's state is where Philox(key=seed) lands after advance(i * 4096)
        samples = [0, 1, 4097, 2**52 + 5]
        for i, state in zip(samples, oracle._substream_states(seed, samples)):
            ref = np.random.Philox(key=seed)
            ref.advance(i * 4096)
            got = np.random.Philox(key=0)
            got.state = state
            assert repr(got.state) == repr(ref.state), i
            assert got.random_raw(5).tolist() == ref.random_raw(5).tolist(), i

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

    @pytest.mark.parametrize("cfg, pinned", [
        (McConfig(4, (1.0, -1.0, 2.0, -2.0), (0.3,), 5000, 20121220),
         "(1.1637534844182036, 0.0013514661657091265)"),
        # 4100 samples cross one 4096-sample chunk boundary
        (McConfig(3, (0.5, -0.25, 1.5), (0.3, 0.2), 4100, 7),
         "(4.47734662873775, 0.012080260311613425)"),
        (McConfig(2, (0.5, -0.5), (0.45,), 2, 3),
         "(1.1162757022051097, 0.07288179075224113)"),
        # 3300 samples cross the 3236-sample chunk at N=9; the key has a nonzero high word
        (McConfig(9, tuple(i / 4 - 1 for i in range(9)), (0.2, 0.1), 3300, 2**100 + 7),
         "(9.330084391041389, 0.0055216607191363384)"),
    ], ids=["n4", "n3-across-chunk", "n2-two-samples", "n9-across-chunk-wide-key"])
    def test_pinned_estimates(self, cfg, pinned):
        # the per-sample Philox substreams fix every bit of (mean, stderr)
        assert repr(mc_trace_moments(cfg)) == pinned

    def test_matches_per_sample_loop(self):
        # reference: one fresh Philox substream and one eigvalsh per sample.
        # At N=20 the 4 MiB cap gives 655-sample chunks, so 700 samples cross one.
        eigs = tuple(i / 10 - 1 for i in range(20))
        cfg = McConfig(20, eigs, (0.1, 0.2), sample_count=700, rng_seed=14)
        total = total_sq = 0.0
        for i in range(cfg.sample_count):
            bit = np.random.Philox(key=cfg.rng_seed)
            bit.advance(i * 4096)
            rng = np.random.Generator(bit)
            re, im = rng.standard_normal((20, 20)), rng.standard_normal((20, 20))
            x = (re + 1j * im) / math.sqrt(2.0)
            g = (x + x.conj().T) / 2.0 * math.sqrt(2.0 / 20)
            eig = np.linalg.eigvalsh(g + np.diag(eigs))
            val = 1.0
            for s in cfg.s_values:
                val *= float(np.sum(np.exp(s * eig)))
            val /= 20
            total += val
            total_sq += val * val
        mean = total / cfg.sample_count
        stderr = math.sqrt(max(total_sq / cfg.sample_count - mean * mean, 0.0) / cfg.sample_count)
        assert mc_trace_moments(cfg) == (mean, stderr)

    def test_matches_residue_formula_n2(self):
        eigs = (1.0, -1.0, 2.0, -2.0)
        cfg = McConfig(4, eigs, (0.3, 0.2), sample_count=20000, rng_seed=5)
        mean, se = mc_trace_moments(cfg)
        exact = finite_n_evaluate(FiniteNSource(4, eigs), [0.3, 0.2])
        assert abs(mean - exact) <= 3 * se


def test_report_shapes():
    rep = oracle_report("demo", {"a": 0.5}, 1.0, 1.0 + 1e-9, 1e-6)
    assert rep["pass"] and rep["abs_diff"] <= 1e-6
    text = json.dumps([rep], indent=2, sort_keys=True)
    assert '"identity": "demo"' in text
