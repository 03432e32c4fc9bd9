"""Tables, calibration, interpolation, finite-N evaluation, serialization."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pspin import moments, twopoint
from pspin.airy import CONTOUR, REAL
from pspin.correlators import (
    DegreeInsufficientError,
    FiniteNSource,
    calibration_constant,
    finite_n_evaluate,
    general_p_interpolate,
    lagrange_polynomial,
    one_point_table,
    table_to_csv,
    table_to_dict,
    table_to_json,
    two_point_low_value,
    two_point_table,
)
from pspin.density import bernoulli_leading
from pspin.exact import DomainError, LaurentP, UsageError
from pspin.moments import assemble_grade
from pspin.oracle import NumericError
from pspin.onepoint import (
    admissible_one_point_label,
    gamma_ratio_at,
    genus_coefficient,
    one_point_series,
    one_point_term,
    one_point_value,
)
from pspin.twopoint import (
    _side_terms,
    binomial_tail_coefficient,
    grade_contributions,
    two_point_grade,
    two_point_low_orders,
    two_point_series,
)
from reference import mirror_reduce, ref_pair_weight, zeta_one_minus_2g

P = LaurentP.var()
C = LaurentP.const


def table_map(p, g_max, mode=REAL):
    return {(e.genus, e.marks): e.value for e in two_point_table(p, g_max, mode)}


class TestCalibration:
    def test_constants(self):
        # one constant per marked-point count, from the designated anchors
        assert calibration_constant(1) == 1
        assert calibration_constant(2) == -1
        with pytest.raises(UsageError, match="calibration defined for 1 or 2 marked points"):
            calibration_constant(3)

    def test_one_point_anchor_checked(self, monkeypatch):
        # a genus-1 coefficient that is no constant multiple of (p-1)/24 is refused
        from pspin import correlators
        from pspin.twopoint import CalibrationError

        monkeypatch.setattr(correlators, "one_point_series", lambda g_max: [LaurentP.var(2)])
        with pytest.raises(CalibrationError, match="one-point calibration is not constant: p\\^2"):
            calibration_constant.__wrapped__(1)

    def test_non_rational_residue_raises(self):
        from pspin.twopoint import CalibrationError, _pair_weight

        # the a^1 grade has slots (1, 1), whose Gamma(2/3)^2 cannot cancel phi(0)^2:
        # order 0 carries Gamma(1/3), and slot f cancels only order p-1-f = 1
        with pytest.raises(CalibrationError) as exc:
            _pair_weight(3, 1, 1, 0, 0)
        assert str(exc.value) == (
            "non-rational residue after normalization at genus 1, a^1, pair (0, 0): "
            "boundary orders (0, 0), spin slots (1, 1)"
        )

    @pytest.mark.parametrize("p, g", [(p, g) for p in range(3, 10) for g in (1, 2)] + [(3, 3)])
    def test_pair_weight_matches_reference(self, p, g):
        # the integer rule gives the ExactScalar product's value, or its error
        # with the same message up to the pair (the reference renders the
        # leftover, the library the integers); p = 4, 8, 9 split p^e into
        # radicals by prime
        from pspin.twopoint import CalibrationError, _pair_weight, grade_monomial

        for m in range(2 * g * (p + 1) + 1):
            if grade_monomial(p, g, m) is None:
                continue
            for i in range(p + 2):
                for k in range(p + 2):
                    try:
                        want = ref_pair_weight(p, g, m, i, k)
                    except CalibrationError as exc:
                        with pytest.raises(CalibrationError) as got:
                            _pair_weight(p, g, m, i, k)
                        head = ("non-rational residue after normalization at "
                                f"genus {g}, a^{m}, pair {(i, k)}: ")
                        assert str(exc).startswith(head), (m, i, k)
                        assert str(got.value).startswith(head), (m, i, k)
                    else:
                        assert _pair_weight(p, g, m, i, k) == want, (m, i, k)


class TestOnePoint:
    def test_symbolic_closed_forms(self):
        # genus coefficients as rational functions of p, Gamma ratios cleared
        expected = {
            1: (P - C(1)) / C(24),
            2: (P - C(1)) * (P - C(3)) * (C(1) + C(2) * P) / (P.scale(5760)),
            3: (P - C(5)) * (P - C(1)) * (C(1) + C(2) * P)
            * (C(8) * P**2 - C(13) * P - C(13)) / ((P**2).scale(2903040)),
            4: (P - C(7)) * (P - C(1)) * (C(1) + C(2) * P)
            * (C(72) * P**4 - C(298) * P**3 - C(17) * P**2 + C(562) * P + C(281))
            / ((P**3).scale(1393459200)),
        }
        for g, term in enumerate(one_point_series(4), 1):
            assert term == expected[g], g

    def test_anchor_value(self):
        assert one_point_value(3, 1, 0) == F(1, 12)
        assert one_point_value(4, 1, 0) == F(1, 8)

    def test_string_value_p5(self):
        # <tau_{3,2}>_{g=2} at p=5: (4*2*11)/(5*5760) = 11/3600
        assert one_point_value(5, 2, 2) == F(11, 3600)

    def test_inadmissible_label_is_zero(self):
        # p=3, g=2 would need spin 2 = p-1: the genus term vanishes there
        # through its (p-3) factor, and the table has no entry
        assert admissible_one_point_label(3, 2) is None
        assert one_point_term(2).eval(3) == 0
        assert [e.genus for e in one_point_table(3, 2)] == [1]

    @pytest.mark.parametrize("g", [0, -1])
    def test_genus_below_one_raises(self, g):
        with pytest.raises(UsageError, match="genus must be >= 1"):
            one_point_value(3, g, 0)
        with pytest.raises(UsageError, match="genus must be >= 1"):
            genus_coefficient(g)

    @pytest.mark.parametrize("p, j", [(4, 6), (4, 3), (4, -1), (3, 2), (2, 1)])
    def test_spin_outside_range_raises(self, p, j):
        # at integer p >= 2 the spins are 0..p-2
        with pytest.raises(UsageError, match=f"spin j={j} outside 0..{p - 2}"):
            one_point_value(p, 2, j)

    def test_continued_labels_keep_any_spin(self):
        # negative and non-integer p have no spin range: j = 2 > p - 2 stays valid
        assert one_point_value(-3, 2, 2) == F(1, 144)
        assert one_point_value(F(7, 2), 2, 2) == F(1, 2016)

    @pytest.mark.parametrize("p, labels", [
        (F(-1, 2), [(1, 0), (3, 2), (5, 4), (7, 6)]),
        (F(5, 2), [(1, 0), (3, 2), (5, 4), (7, 6)]),
        (-3, [(1, 0), (3, 2), (6, 1), (7, 6)]),
    ], ids=["-1_2", "5_2", "-3"])
    def test_continued_labels(self, p, labels):
        # the family tau_{2g-1,2g-2}; p = -3 takes the positive-p tau_{6,1} at genus 3
        assert [e.marks for e in one_point_table(p, 4)] == [(label,) for label in labels]

    @pytest.mark.parametrize("p, g, j, message", [
        (0, 2, 0, "p must be nonzero"),
        (3, 2, 1, r"label j=1 not admissible at p=3 \(non-integer shift\)"),
        (3, 2, -1, "Gamma-ratio pole at p=3, g=2, j=-1"),
    ], ids=["zero-p", "shift", "pole"])
    def test_gamma_ratio_refusals(self, p, g, j, message):
        with pytest.raises(DomainError, match=message):
            gamma_ratio_at(p, g, j)

    def test_p2_is_witten_kdv(self):
        # p=2 labels are tau(3g-2, 0), valued 1/(24^g g!) (Witten's KdV case)
        witten = [(g, ((3 * g - 2, 0),), F(1, 24**g * math.factorial(g))) for g in range(1, 17)]
        assert [(e.genus, e.marks, e.value) for e in one_point_table(2, 16)] == witten
        assert one_point_value(2, 2, 0) == F(1, 1152)

    def test_checked_genus_range(self):
        # two independent routes for every genus the series admits
        for g, term in enumerate(one_point_series(16), 1):
            gamma_at_minus_one = math.factorial(2 * g - 1)  # Gamma(1 + (2g-1))
            assert term.eval(-1) * gamma_at_minus_one == zeta_one_minus_2g(g), g
            assert term.leading() == (g, bernoulli_leading(g)), g
        with pytest.raises(UsageError):
            one_point_series(17)

    def test_genus_coefficient_denominators(self):
        # the y^g coefficient carries Gamma(1 - (2g-1)/p); the rational part
        # has denominator p^{K-1} growth only
        for g in (1, 2, 3):
            deg, lead = genus_coefficient(g).leading()
            assert deg == 2 * g


class TestTwoPointTables:
    def test_p3_g2(self):
        t = table_map(3, 2)
        assert t[(2, ((0, 1), (4, 1)))] == F(1, 864)
        assert t[(2, ((1, 1), (3, 1)))] == F(11, 4320)
        assert t[(2, ((2, 1), (2, 1)))] == F(17, 4320)

    def test_p3_g3(self):
        t = table_map(3, 3)
        want = {
            ((0, 0), (7, 1)): F(1, 31104),
            ((0, 1), (7, 0)): F(1, 15552),
            ((1, 0), (6, 1)): F(5, 31104),
            ((1, 1), (6, 0)): F(19, 77760),
            ((2, 0), (5, 1)): F(103, 217728),
            ((2, 1), (5, 0)): F(47, 77760),
            ((3, 0), (4, 1)): F(443, 544320),
            ((3, 1), (4, 0)): F(67, 77760),
        }
        for marks, v in want.items():
            assert t[(3, marks)] == v

    def test_p4(self):
        t = table_map(4, 2)
        assert t[(1, ((0, 0), (2, 0)))] == F(1, 8)
        assert t[(1, ((1, 0), (1, 0)))] == F(1, 8)
        assert t[(1, ((0, 2), (1, 2)))] == F(1, 96)
        assert t[(2, ((0, 1), (4, 1)))] == F(1, 320)

    def test_p5(self):
        t = table_map(5, 2)
        assert t[(1, ((1, 3), (0, 2)))] == F(1, 60)
        assert t[(1, ((1, 0), (1, 0)))] == F(1, 6)
        assert t[(1, ((0, 0), (2, 0)))] == F(1, 6)
        assert t[(2, ((0, 1), (4, 1)))] == F(7, 1200)

    def test_p6_p7(self):
        t6 = table_map(6, 1)
        assert t6[(1, ((0, 3), (1, 3)))] == F(1, 36)
        assert t6[(1, ((0, 2), (1, 4)))] == F(1, 48)
        assert t6[(1, ((0, 4), (1, 2)))] == F(1, 48)
        t7 = table_map(7, 1)
        assert t7[(1, ((0, 2), (1, 5)))] == F(1, 42)
        assert t7[(1, ((0, 4), (1, 3)))] == F(1, 28)
        assert t7[(1, ((1, 0), (1, 0)))] == F(1, 4)

    def test_series_symmetric(self):
        # exchanging s1 and s2 maps the a-power m to 2g(p+1) - m
        for p in (3, 4):
            s = two_point_series(p, 2)
            for g, grade in s.items():
                assert {2 * g * (p + 1) - m for m in grade} == set(grade)
                for m, coeff in grade.items():
                    assert coeff == grade[2 * g * (p + 1) - m], (p, g, m)

    def test_selection_rule_every_entry(self):
        for p in (3, 4, 5):
            for e in two_point_table(p, 2):
                assert e.selection_ok()

    def test_kernel_modes_agree(self):
        # rewrite-constant choice cannot move the extracted numbers
        for p in (3, 4, 5):
            assert table_map(p, 2, REAL) == table_map(p, 2, CONTOUR)

    def test_small_a_route_matches_exact(self):
        exact = table_map(4, 2)
        assert two_point_low_value(4, 2, 1) == exact[(2, ((0, 0), (4, 2)))]
        assert two_point_low_value(4, 2, 2) == exact[(2, ((0, 1), (4, 1)))]
        assert two_point_low_value(4, 2, 3) == exact[(2, ((0, 2), (4, 0)))]
        # discarded grade reports None
        assert two_point_low_value(5, 2, 4) is None

    def test_genus_zero_empty(self):
        assert two_point_series(3, 0) == {}
        assert two_point_table(3, 0) == []


class TestInterpolation:
    def test_constant_samples(self):
        f = general_p_interpolate({3: F(5), 4: F(5), 5: F(5)}, 0, 0)
        assert f == C(5)

    def test_g1_family(self):
        samples = {p: two_point_low_value(p, 1, 1) for p in range(3, 13)}
        f = general_p_interpolate(samples, num_degree=1, den_power=0)
        assert f == (P - C(1)) / C(24)

    def test_g1_mixed_family(self):
        # <tau_{0,2} tau_{1,p-2}>_{g=1} = (p-3)/(24p)
        samples = {p: two_point_low_value(p, 1, 3) for p in range(4, 13)}
        f = general_p_interpolate(samples, num_degree=1, den_power=1)
        assert f == (P - C(3)) / (P.scale(24))

    def test_g2_families(self):
        cases = [
            (1, range(4, 13), 3, 1,
             (P - C(1)) * (P - C(3)) * (C(2) * P + C(1)) / (P.scale(5760))),
            (2, range(3, 13), 3, 1,
             (P - C(1)) * (P - C(2)) * (P + C(2)) / (P.scale(2880))),
            (3, range(4, 13), 3, 1,
             (P - C(1)) * (P - C(3)) * (C(2) * P + C(11)) / (P.scale(5760))),
            (5, range(6, 15), 3, 2,
             (C(2) * P**3 + C(13) * P**2 - C(158) * P + C(215)) / ((P**2).scale(5760))),
        ]
        for m, p_range, ndeg, dpow, target in cases:
            samples = {p: two_point_low_value(p, 2, m) for p in p_range}
            f = general_p_interpolate(samples, num_degree=ndeg, den_power=dpow)
            assert f == target, m

    def test_g3_families(self):
        cases = [
            (1, range(6, 14),
             (P - C(5)) * (P - C(1)) * (C(1) + C(2) * P)
             * (C(8) * P**2 - C(13) * P - C(13)) / ((P**2).scale(2903040))),
            (2, range(5, 13),
             (P - C(1)) * (P - C(2)) * (P - C(4)) * (P + C(2)) * (C(2) * P + C(1))
             / ((P**2).scale(362880))),
            (3, range(4, 13),
             (P - C(1)) * (P - C(3))
             * (C(16) * P**3 + C(34) * P**2 - C(155) * P - C(129))
             / ((P**2).scale(2903040))),
        ]
        for m, p_range, target in cases:
            samples = {p: two_point_low_value(p, 3, m) for p in p_range}
            f = general_p_interpolate(samples, num_degree=5, den_power=2)
            assert f == target, m

    def test_too_few_samples_usage_error(self):
        with pytest.raises(UsageError, match="need at least 3 samples, got 2"):
            general_p_interpolate({3: F(1), 4: F(2)}, 2, 0)

    def test_duplicate_nodes_usage_error(self):
        with pytest.raises(UsageError, match="interpolation nodes must be distinct"):
            lagrange_polynomial([(F(3), F(1)), (3, F(2))])

    def test_held_out_validation(self):
        samples = {p: two_point_low_value(p, 1, 1) for p in (3, 4)}
        held = {11: two_point_low_value(11, 1, 1)}
        f = general_p_interpolate(samples, 1, 0, held_out=held)
        assert f == (P - C(1)) / C(24)
        with pytest.raises(DegreeInsufficientError):
            general_p_interpolate(samples, 1, 0, held_out={11: F(1, 7)})

    def test_degree_insufficient(self):
        # quadratic data forced through a linear model
        samples = {p: F(p * p) for p in (3, 4, 5, 6)}
        with pytest.raises(DegreeInsufficientError):
            general_p_interpolate(samples, 1, 0)

    def test_lagrange_exactness(self):
        pts = [(F(1), F(2)), (F(2), F(5)), (F(4), F(17))]
        poly = lagrange_polynomial(pts)
        for x, y in pts:
            assert poly.eval(x) == y


def residue_reference(eigs, s):
    """U(s) or U(s1, s2) as residue sums over distinct eigenvalues.

    The reference route for the contour rule: each simple pole b contributes
    (s/N) e^{sb} prod_{b' != b} (1 + s/(N(b - b'))), and the two-point sum
    adds the coupling pole u2 = u1 + s1/N.  Valid only for well-separated
    eigenvalues with b - b' away from +-s_i/N and s1 + s2 away from 0.
    """
    N = len(eigs)

    def res(a, t):
        r = (t / N) * math.exp(t * a)
        for b in eigs:
            if b != a:
                r *= 1 + t / (N * (a - b))
        return r

    if len(s) == 1:
        (s1,) = s
        return math.exp(s1 * s1 / (2 * N)) * sum(res(a, s1) for a in eigs) / s1
    s1, s2 = s
    total = 0.0
    for a in eigs:
        for b in eigs:
            coupling = N * N / (s1 * s2) - 1 / ((a - b + s1 / N) * (b - a + s2 / N))
            total += res(a, s1) * res(b, s2) * coupling
        rc = res(a, s1) * math.exp(s2 * a + s1 * s2 / N) * N / (s1 + s2)
        for b in eigs:
            rc *= 1 + s2 / (N * (a + s1 / N - b))
        total += rc
    return math.exp((s1 * s1 + s2 * s2) / (2 * N)) / N * total


def well_separated_cases(seed, per_n=3, pairs=8):
    """Sources with gaps in [0.4, 1], |s| <= 3, away from the residue poles."""
    rng = random.Random(seed)
    for n in range(2, 9):
        for _ in range(per_n):
            eigs, x = [], rng.uniform(-2.0, -1.0)
            for _ in range(n):
                eigs.append(x)
                x += rng.uniform(0.4, 1.0)
            k = 0
            while k < pairs:
                s1, s2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
                if min(abs(s1), abs(s2), abs(s1 + s2)) < 0.1:
                    continue
                gaps = [a - b for a in eigs for b in eigs if a != b]
                if min(abs(d + t) for d in gaps for t in (s1 / n, s2 / n)) < 0.05:
                    continue
                k += 1
                yield tuple(eigs), s1, s2


class TestFiniteN:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_residue_reference(self, seed):
        for eigs, s1, s2 in well_separated_cases(seed):
            src = FiniteNSource(len(eigs), eigs)
            for s in ([s1], [s1, s2]):
                want = residue_reference(eigs, s)
                assert math.isclose(finite_n_evaluate(src, s), want, rel_tol=1e-12), (eigs, s)

    def test_repeated_eigenvalues_two_point(self):
        s = [0.3, 0.2]
        at = finite_n_evaluate(FiniteNSource(3, (1.0, 1.0, -1.0)), s)
        near = finite_n_evaluate(FiniteNSource(3, (1.0, 1.0 + 1e-12, -1.0)), s)
        assert math.isclose(at, near, rel_tol=1e-9)
        assert finite_n_evaluate(FiniteNSource(2, (1.0, 1.0)), s) > 0

    def test_opposite_s(self):
        src = FiniteNSource(4, (1.0, -1.0, 2.0, -2.0))
        at = finite_n_evaluate(src, [0.3, -0.3])
        assert math.isclose(at, finite_n_evaluate(src, [0.3, -0.3 + 1e-7]), rel_tol=1e-6)
        assert math.isclose(at, finite_n_evaluate(src, [-0.3, 0.3]), rel_tol=1e-12)

    def test_gap_equal_to_s_over_n(self):
        # a - b = s1/N is a removable singularity of the residue terms
        s = [0.3, 0.2]
        at = finite_n_evaluate(FiniteNSource(3, (1.0, 1.1, -1.0)), s)
        for d in (0.1 - 1e-7, 0.1 + 1e-7):
            near = finite_n_evaluate(FiniteNSource(3, (1.0, 1.0 + d, -1.0)), s)
            assert math.isclose(at, near, rel_tol=1e-6)

    def test_zero_insertion_is_n_times_one_point(self):
        src = FiniteNSource(3, (0.5, -0.25, 1.5))
        assert finite_n_evaluate(src, [0.4, 0.0]) == 3 * finite_n_evaluate(src, [0.4])
        assert finite_n_evaluate(src, [0.0, 0.4]) == 3 * finite_n_evaluate(src, [0.4])

    def test_subnormal_s(self):
        # U(s) -> 1 as s -> 0; a factor N/s used to overflow to inf here
        src = FiniteNSource(3, (1.0, 2.0, 3.0))
        for s in (1e-320, -1e-320, 5e-324):
            assert abs(finite_n_evaluate(src, [s]) - 1.0) <= 1e-12, s
            for s2 in (0.3, -0.2):
                tiny = finite_n_evaluate(src, [s, s2])
                assert math.isclose(tiny, 3 * finite_n_evaluate(src, [s2]), rel_tol=1e-12)
                # U(s1, s2) moves by O(s1) between s1 = 1e-8 and the subnormal s1
                assert math.isclose(tiny, finite_n_evaluate(src, [1e-8, s2]), rel_tol=1e-7)

    def test_uncertified_raises(self, monkeypatch):
        src = FiniteNSource(5, (1.0, -1.0, 2.0, -2.0, 0.5))
        with pytest.raises(NumericError):
            finite_n_evaluate(src, [12.0, -6.0])  # its node grid would pass the array cap
        monkeypatch.setattr("pspin.correlators._CERTIFY_RTOL", 0.0)
        with pytest.raises(NumericError):
            finite_n_evaluate(src, [0.3, 0.2])

    @pytest.mark.parametrize("eigs, s, cause", [
        # q rounds to 1.0, so the node count used to divide by -log(q) = 0
        ((0.0, 1e200), [0.3], "radius ratio 1.0"),
        ((0.0, 1e200), [0.3, 0.2], "radius ratio 1.0"),
        # exp(s^2/2N) used to end in OverflowError("math range error")
        ((0.0, 1.0), [800.0], "e^160000"),
        # the factor and the contour value are finite, their product is not (it was inf)
        ((100.0,), [7.0], "overflows a float"),
    ], ids=["spread-1", "spread-2", "factor", "product"])
    def test_out_of_float_range_raises(self, eigs, s, cause):
        with pytest.raises(NumericError) as info:
            finite_n_evaluate(FiniteNSource(len(eigs), eigs), s)
        assert cause in str(info.value)

    @pytest.mark.parametrize("s", [[1e300], [1e300, 1.0]], ids=["one", "two"])
    def test_infinite_factor_raises(self, s):
        # s^2 overflows to inf and exp(inf) raises nothing, so no OverflowError is caught
        with pytest.raises(NumericError) as info:
            finite_n_evaluate(FiniteNSource(1, (0.0,)), s)
        assert str(info.value) == "U(s) overflows a float: its factor e^(sum s^2/2N) is e^inf"

    def test_three_insertions_usage_error(self):
        with pytest.raises(UsageError, match="finite-N evaluation supports 1 or 2 insertions"):
            finite_n_evaluate(FiniteNSource(2, (0.5, -0.5)), [0.1, 0.2, 0.3])

    def test_non_finite_inputs_usage_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError):
                FiniteNSource(2, (bad, 1.0))
            with pytest.raises(UsageError):
                finite_n_evaluate(FiniteNSource(2, (0.5, -0.5)), [0.3, bad])

    def test_probe_edges(self):
        # the frozen edge configurations of the benchmark, each against Monte Carlo
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--probe-edges"],
            cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all edge configurations pass" in proc.stdout

    def test_n1_gaussian_calibration(self):
        src = FiniteNSource(1, (0.0,))
        for s in (0.1, 0.5, 1.3):
            assert math.isclose(
                finite_n_evaluate(src, [s]), math.exp(s * s / 2), rel_tol=1e-14
            )

    def test_s_zero_is_one(self):
        assert finite_n_evaluate(FiniteNSource(4, (1.0, -1.0, 2.0, -2.0)), [0.0]) == 1.0

    def test_n1_two_point_identity(self):
        # single eigenvalue: <e^{s1 m} e^{s2 m}> = exp((s1+s2)^2/2 + a(s1+s2))
        for a0, s1, s2 in [(0.0, 0.3, 0.2), (0.7, 0.4, -0.3)]:
            got = finite_n_evaluate(FiniteNSource(1, (a0,)), [s1, s2])
            want = math.exp((s1 + s2) ** 2 / 2 + a0 * (s1 + s2))
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_confluent_pair(self):
        # N=2 with a doubly degenerate source: exp(s^2/4)(1 + s^2/4)
        s = 0.7
        got = finite_n_evaluate(FiniteNSource(2, (0.0, 0.0)), [s])
        assert math.isclose(got, math.exp(s * s / 4) * (1 + s * s / 4), rel_tol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(UsageError):
            FiniteNSource(2, (1.0,))


class TestSerialization:
    def test_json_schema(self):
        entries = two_point_table(4, 1)
        data = json.loads(table_to_json(entries, 2))
        assert data["p"] == 4 and data["points"] == 2
        row = data["entries"][0]
        assert set(row) == {"m", "j", "genus", "num", "den"}
        assert isinstance(row["num"], str) and isinstance(row["den"], str)

    def test_csv_mirror(self):
        entries = two_point_table(4, 1)
        text = table_to_csv(entries, 2)
        lines = text.strip().splitlines()
        assert lines[0] == "p,genus,m,j,num,den"
        assert len(lines) == len(table_to_dict(entries, 2)["entries"]) + 1

    def test_symbolic_table(self):
        entries = one_point_table("symbolic", 2)
        data = table_to_dict(entries, 1)
        assert data["p"] == "symbolic"
        assert data["entries"][0]["num"] == "p - 1"
        assert data["entries"][0]["den"] == "24"

    def test_byte_stability(self):
        a = table_to_json(two_point_table(3, 2), 2)
        b = table_to_json(two_point_table(3, 2), 2)
        assert a == b


class TestSpotValues:
    def test_interpolated_g2_values_at_fixed_p(self):
        # second g=2 family at p=3 reproduces the anchor, at p=5 gives 7/1200
        f = (P - C(1)) * (P - C(2)) * (P + C(2)) / (P.scale(2880))
        assert f.eval(3) == F(1, 864)
        assert f.eval(5) == F(7, 1200)

    def test_p6_subleading_family_value(self):
        # <tau_{0,4} tau_{3,4}>_{g=2} at p=6 from the p>=6 family
        want = F(2 * 216 + 13 * 36 - 158 * 6 + 215, 5760 * 36)
        assert two_point_low_value(6, 2, 5) == want
        exact = table_map(6, 2)
        assert exact[(2, ((0, 4), (3, 4)))] == want

    def test_p4_g1_entry_set(self):
        assert {(e.genus, e.marks) for e in two_point_table(4, 1)} == {
            (1, ((0, 0), (2, 0))), (1, ((1, 0), (1, 0))), (1, ((2, 0), (0, 0))),
            (1, ((0, 2), (1, 2))), (1, ((1, 2), (0, 2))),
        }

    def test_exact_route_cost_guard(self):
        with pytest.raises(UsageError):
            two_point_table(4, 3)

    def test_exact_route_p_bound(self):
        # refused before any grade is built; the small-a route has no p bound
        with pytest.raises(UsageError, match="p <= 100"):
            two_point_series(101, 1)
        assert two_point_low_orders(101, 1)

    def test_reduction_render_golden(self):
        from pspin.moments import MomentSymbol, reduce_moment

        red = reduce_moment(MomentSymbol(1, 2, 0, 3), ode_constant=F(0))
        assert sorted(red) == [("bdry", 0, 0), ("irr", 1)]
        rendered = (
            f"bdry phi^(0)(0)*phi^(0)(0): {red['bdry', 0, 0]}\n"
            f"irr T_1: {red['irr', 1]}"
        )
        assert rendered == (
            "bdry phi^(0)(0)*phi^(0)(0): 1/(a**3 + 1)\n"
            "irr T_1: -2*a/(a**3 + 1)"
        )


class TestSeriesShape:
    def test_p4_g1_series_structure(self):
        # genus-1 grade at p=4: two families,
        #   (1/4)(phi''(0))^2 s1^{1/4}s2^{1/4}(s1^2+s1 s2+s2^2)
        # + (1/12)(s1 s2)^{3/4}(s1+s2)(phi(0))^2
        # a-powers: s1^{1/4}, s1^{5/4}, s1^{9/4} and s1^{3/4}, s1^{7/4}
        s = two_point_series(4, 1)[1]
        ca = [s[m] for m in (1, 5, 9)]
        cb = [s[m] for m in (3, 7)]
        assert ca[0] == ca[1] == ca[2]
        assert cb[0] == cb[1]
        # coefficient ratio (1/4)(phi'')^2 : (1/12)(phi)^2 = 3 phi''(0)^2/phi(0)^2,
        # each over its spin factors: Gamma(3/4)^2 at a^1, Gamma(1/4)^2 at a^3
        from pspin.airy import phi_deriv_zero
        from pspin.exact import ExactScalar as ES

        a1 = phi_deriv_zero(4, 2) * phi_deriv_zero(4, 2) * ES.gamma(F(3, 4), -2)
        a3 = phi_deriv_zero(4, 0) * phi_deriv_zero(4, 0) * ES.gamma(F(1, 4), -2)
        assert a1 == a3.scale(4)
        assert ca[0] / cb[0] == 3 * 4

    def test_grade_ledger_reporting(self):
        from pspin.twopoint import grade_monomial

        # the rewrite-constant sector is populated in real mode and every
        # residue there sits on a discarded grade
        constants = two_point_grade(3, 1).constants
        assert constants
        for poly in constants.values():
            for m in poly:
                assert grade_monomial(3, 1, m) is None

    @pytest.mark.parametrize("p, g", [(p, g) for p in range(3, 10) for g in (1, 2)] + [(3, 3)])
    def test_one_boundary_pair_per_a_power(self, p, g):
        # the pair whose boundary values the a^m grade's spin factors cancel, and
        # no other, reaches each extractable a-power; so no coefficient is a sum of
        # surd classes, and each pair normalizes to a rational on its own
        from pspin.twopoint import grade_monomial

        boundary = two_point_grade(p, g).boundary
        reached = {m for poly in boundary.values() for m in poly}
        assert reached
        for m in reached:
            assert grade_monomial(p, g, m) is not None
            pairs = [pair for pair, poly in boundary.items() if poly.get(m)]
            assert pairs == [tuple(sorted((p - 1 - m % p, p - 1 - (2 * g - m) % p)))], m

    def test_boundary_on_discarded_grade_raises(self, monkeypatch):
        # a boundary product on a discarded grade (a^3 at p=3, g=1) is a residue
        from pspin.exact import ExactScalar
        from pspin.moments import AssembledGrade, CancellationError

        grade = AssembledGrade({(0, 0): {3: F(1)}}, {}, ExactScalar(F(1)))
        monkeypatch.setattr(twopoint, "two_point_grade", lambda p, g: grade)
        with pytest.raises(CancellationError, match="discarded grades") as exc:
            two_point_series(3, 1)
        assert exc.value.residues == {(0, 0): {3: F(1)}}

    def test_constant_on_extractable_grade_raises(self, monkeypatch):
        # a rewrite-constant residue on an extractable grade (a^1 at p=3, g=1)
        from pspin.exact import ExactScalar
        from pspin.moments import AssembledGrade, CancellationError

        grade = AssembledGrade({}, {("sing", 0): {1: F(1)}}, ExactScalar(F(1)))
        monkeypatch.setattr(twopoint, "two_point_grade", lambda p, g: grade)
        with pytest.raises(CancellationError, match=r"extractable grades.*\('sing', 0\)") as exc:
            two_point_series(3, 1)
        assert exc.value.residues == {("sing", 0): {1: F(1)}}


class TestCrossRoute:
    @pytest.mark.parametrize("p,g", [(6, 2), (7, 2), (8, 2)])
    def test_exact_vs_small_a_more_p(self, p, g):
        exact = table_map(p, g)
        by_marks = {marks: v for (gg, marks), v in exact.items() if gg == g}
        for m in range(1, min(p, 6)):
            low = two_point_low_value(p, g, m)
            if low is None:
                continue
            marks = next(
                mk for mk in by_marks
                if mk[0] == (m // p, m % p - 1)
            )
            assert low == by_marks[marks], (p, g, m)


def test_two_point_grade_one_cache_entry_per_key():
    # positional and keyword forms share one cached assembly
    before = two_point_grade.cache_info().misses
    grades = [two_point_grade(3, 2), two_point_grade(3, g=2), two_point_grade(p=3, g=2)]
    assert two_point_grade.cache_info().misses - before <= 1
    assert grades[0] is grades[1] is grades[2]


def test_small_a_grade_built_once_per_key():
    # asking every m < p costs one small-a build, not one per m
    p, g = 10, 2
    twopoint._low_orders.cache_clear()  # other tests may have built this grade
    before = twopoint.two_point_low_orders.cache_info().misses
    for _ in range(2):
        for m in range(p):
            two_point_low_value(p, g, m)
        twopoint.two_point_low_orders(p, g)
        assert twopoint.two_point_low_orders.cache_info().misses - before == 1
    with pytest.raises(UsageError):  # m = 11 is extractable, but beyond a^p
        two_point_low_value(p, g, p + 1)


@pytest.mark.parametrize("p,g,m", [(3, 1, -1), (10, 2, -4), (3, 1, 3), (10, 2, 11)],
                         ids=["m=-1", "m=-4", "m=p discarded", "m=p+1 extractable"])
def test_low_value_refuses_m_outside_zero_to_p(p, g, m):
    # a^-1 is no grade of the expansion, discarded or not; a^p and above are
    # out of the small-a route's reach whether the grade is discarded or not
    with pytest.raises(UsageError, match="0 <= m < p"):
        two_point_low_value(p, g, m)


def test_pair_weights_build_no_exact_scalar_product(monkeypatch):
    """Both two-point routes normalize on integers: no ExactScalar product or Gamma token.

    Grade terms are Fractions, so term generation and the small-a route build
    no ExactScalar at all, and the exact route builds only each assembled
    grade's display prefactor.  A pair that leaves an irrational residue is
    refused and reported on integers too, with no ExactScalar built.
    """
    from pspin.exact import ExactScalar

    def refuse(*args):
        raise AssertionError(f"ExactScalar product or Gamma token built: {args}")

    built = []
    init, rational_power, scale = ExactScalar.__init__, ExactScalar.rational_power, ExactScalar.scale

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_rational_power(base, exp):
        built.append("rational_power")
        return rational_power(base, exp)

    def counting_scale(self, r):
        built.append("scale")
        return scale(self, r)

    monkeypatch.setattr(ExactScalar, "__mul__", refuse)
    monkeypatch.setattr(ExactScalar, "gamma", refuse)
    monkeypatch.setattr(ExactScalar, "__init__", counting_init)
    monkeypatch.setattr(ExactScalar, "rational_power", staticmethod(counting_rational_power))
    monkeypatch.setattr(ExactScalar, "scale", counting_scale)
    for cached in (twopoint._pair_weight, twopoint._assembled_grade, twopoint._low_orders,
                   moments._engine):
        cached.cache_clear()
    cases = [(3, 3), (5, 2), (9, 2)]
    for p, g in cases:
        assert grade_contributions(p, g)
    assert two_point_low_orders(13, 3)
    assert built == []
    for p, g in cases:
        built.clear()
        assert two_point_series(p, g)[g]
        # per grade: p^(2g/p), then its scaled copy, the stored prefactor
        assert built == ["rational_power", "init", "scale", "init"] * g, (p, g)
    built.clear()
    with pytest.raises(twopoint.CalibrationError, match="boundary orders"):
        twopoint._pair_weight(3, 1, 1, 0, 0)
    assert built == []


TWO_POINT_ROUTES = {
    "series": two_point_series,
    "grade": two_point_grade,
    "low_orders": twopoint.two_point_low_orders,
    "low_value": lambda p, g: two_point_low_value(p, g, 0),
}


@pytest.mark.parametrize("route", TWO_POINT_ROUTES)
@pytest.mark.parametrize("p", [0, 2, -3, F(7, 2), 3.0], ids=["0", "2", "-3", "7_2", "3.0"])
def test_two_point_routes_refuse_bad_p(route, p):
    cached = _side_terms.cache_info().currsize
    with pytest.raises(UsageError, match="integer p >= 3"):
        TWO_POINT_ROUTES[route](p, 1)
    assert _side_terms.cache_info().currsize == cached


@pytest.mark.parametrize("route", ["grade", "low_orders", "low_value"])
@pytest.mark.parametrize("g", [0, -1])
def test_per_grade_routes_refuse_genus_below_one(route, g):
    with pytest.raises(UsageError, match="genus must be >= 1"):
        TWO_POINT_ROUTES[route](3, g)


def test_mirror_engine_tables_identical(monkeypatch):
    # the mirrored rule orientation must reproduce the grades the tables use;
    # the references are built (and cached) before assembly is rerouted
    want = {g: two_point_grade(3, g) for g in (1, 2)}
    monkeypatch.setattr(moments, "reduce_moment", mirror_reduce)
    for g, grade in want.items():
        assert assemble_grade(grade_contributions(3, g), grade.prefactor) == grade, g


def test_p9_g2_family_values():
    # exact route at p=9 against the interpolated closed forms
    t = table_map(9, 2)
    p = F(9)
    assert t[(2, ((0, 0), (4, 2)))] == (p - 1) * (p - 3) * (2 * p + 1) / (5760 * p)
    assert t[(2, ((0, 1), (4, 1)))] == (p - 1) * (p - 2) * (p + 2) / (2880 * p)
    assert t[(2, ((0, 4), (3, 7)))] == (2 * p**3 + 13 * p**2 - 158 * p + 215) / (5760 * p**2)


def test_kernel_modes_agree_genus3():
    # with moment-normalized boundary values the agreement extends to g=3:
    # the rewrite constant stays confined to the discarded sectors
    a = {(e.genus, e.marks): e.value for e in two_point_table(3, 3, REAL)}
    b = {(e.genus, e.marks): e.value for e in two_point_table(3, 3, CONTOUR)}
    assert a == b


def test_two_point_table_refuses_unknown_mode():
    # checked up front, not only once a grade is built: g_max = 0 builds none
    with pytest.raises(UsageError, match="unknown kernel_mode 'bogus'"):
        two_point_table(3, 0, "bogus")


def test_p12_exact_table_matches_closed_forms():
    t = table_map(12, 2)
    p = F(12)
    assert t[(1, ((0, 0), (2, 0)))] == (p - 1) / 24
    assert t[(2, ((0, 0), (4, 2)))] == (p - 1) * (p - 3) * (2 * p + 1) / (5760 * p)
    assert t[(2, ((0, 4), (3, 10)))] == (
        (2 * p**3 + 13 * p**2 - 158 * p + 215) / (5760 * p**2)
    )


def _deformation_multisets(rho, rmax):
    """Multisets {r: k_r} with sum r k_r = rho, parts 1 <= r <= rmax."""

    def rec(remaining, r, acc):
        if remaining == 0:
            yield dict(acc)
            return
        if r > rmax:
            return
        for k in range(remaining // r + 1):
            if k:
                acc[r] = k
            yield from rec(remaining - r * k, r + 1, acc)
            acc.pop(r, None)

    yield from rec(rho, 1, {})


def _multiset_side_terms(p, rho):
    """(coeff, K, D) per deformation multiset of one kernel at level rho."""
    out = []
    for multi in _deformation_multisets(rho, p // 2):
        coeff, K, D = F(1), 0, 0
        for r, k in multi.items():
            coeff *= (-binomial_tail_coefficient(r).eval(p)) ** k / math.factorial(k)
            K += k
            D += k * (p - 2 * r)
        out.append((coeff, K, D))
    return tuple(out)


@pytest.mark.parametrize("p", range(3, 14))
def test_side_terms_group_multisets_by_K(p):
    for rho in range(7):
        grouped = {}
        for coeff, K, D in _multiset_side_terms(p, rho):
            assert D == K * p - 2 * rho
            grouped[K] = grouped.get(K, 0) + coeff
        want = tuple((c, K, K * p - 2 * rho) for K, c in sorted(grouped.items()) if c)
        assert _side_terms(p, rho) == want, (p, rho)


@pytest.mark.parametrize("p", [6, 7])
def test_grade_matches_per_multiset_contributions(p, monkeypatch):
    # at level 4 the multisets {1,3} and {2,2} share K=2 and are merged
    merged, grade = grade_contributions(p, 4), two_point_grade(p, 4)
    monkeypatch.setattr(twopoint, "_side_terms", _multiset_side_terms)
    per_multiset = grade_contributions(p, 4)
    assert (len(per_multiset), len(merged)) == (36, 34)
    assert assemble_grade(per_multiset, grade.prefactor) == grade


def _genus_coefficient_field_route(g):
    """C_g(p) summed term by term in LaurentP field arithmetic."""
    total = C(0)
    for multi in _deformation_multisets(g, g):
        term = C(1)
        K = 0
        for r, k in multi.items():
            g_r = C(F(1, math.factorial(2 * r + 1) * 4**r))
            for t in range(2 * r):
                g_r = g_r * (P - C(t))
            term = (term * (-g_r) ** k).scale(F(1, math.factorial(k)))
            K += k
        for i in range(1, K):
            term = term * (C(i) - C(2 * g - 1) / P)
        total = total + term
    return total


@pytest.mark.parametrize("g", range(1, 8))
def test_genus_coefficient_matches_field_route(g):
    assert genus_coefficient(g) == _genus_coefficient_field_route(g)
