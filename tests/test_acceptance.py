"""Acceptance suite: the exit criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; exact means exact rational equality.
"""

import math
import time
from fractions import Fraction as F

from pspin.correlators import (
    FiniteNSource,
    finite_n_evaluate,
    general_p_interpolate,
    one_point_table,
    two_point_low_value,
    two_point_table,
)
from pspin.density import (
    DensityConfig,
    bernoulli_leading,
    binet_check,
    blackhole_density_compare,
    central_charge_negative_branch,
    large_p_check,
    zeta_identity_exact,
)
from pspin.exact import RatP
from pspin.moments import CancellationError
from pspin.onepoint import one_point_series, one_point_value
from pspin.oracle import McConfig, mc_trace_moments, quad_moment
from pspin.tautology import string_check
from pspin.twopoint import two_point_grade
from reference import zeta_one_minus_2g

P = RatP.var()
C = RatP.const


def report(number: int, ok: bool, label: str):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def table_map(p, g_max):
    return {(e.genus, e.marks): F(e.value) for e in two_point_table(p, g_max)}


def test_criterion_01_p3_g2_exact():
    t0 = time.time()
    t = table_map(3, 2)
    ok = (
        t[(2, ((0, 1), (4, 1)))] == F(1, 864)
        and t[(2, ((1, 1), (3, 1)))] == F(11, 4320)
        and t[(2, ((2, 1), (2, 1)))] == F(17, 4320)
    )
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10, f"p=3 g=2 table exact ({elapsed:.2f}s < 10s)")


def test_criterion_02_p3_g3_exact():
    t0 = time.time()
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
    ok = all(t[(3, marks)] == v for marks, v in want.items())
    elapsed = time.time() - t0
    report(2, ok and elapsed < 60, f"p=3 g=3 eight values exact ({elapsed:.2f}s < 60s)")


def test_criterion_03_higher_p_tables():
    t4 = table_map(4, 2)
    t5 = table_map(5, 2)
    t6 = table_map(6, 1)
    t7 = table_map(7, 1)
    ok = (
        t4[(1, ((0, 0), (2, 0)))] == F(1, 8)
        and t4[(1, ((1, 0), (1, 0)))] == F(1, 8)
        and t4[(1, ((0, 2), (1, 2)))] == F(1, 96)
        and t4[(2, ((0, 1), (4, 1)))] == F(1, 320)
        and t5[(1, ((1, 3), (0, 2)))] == F(1, 60)
        and t5[(1, ((1, 0), (1, 0)))] == F(1, 6)
        and t5[(2, ((0, 1), (4, 1)))] == F(7, 1200)
        and t6[(1, ((0, 3), (1, 3)))] == F(1, 36)
        and t6[(1, ((0, 2), (1, 4)))] == F(1, 48)
        and t6[(1, ((0, 4), (1, 2)))] == F(1, 48)
        and t7[(1, ((0, 2), (1, 5)))] == F(1, 42)
        and t7[(1, ((0, 4), (1, 3)))] == F(1, 28)
        and t7[(1, ((1, 0), (1, 0)))] == F(1, 4)
    )
    report(3, ok, "p=4..7 tables exact (g=1 lists, p=4 g=2 1/320, p=5 g=2 7/1200)")


ONE_POINT_CLOSED_FORMS = {
    1: (P - C(1)) / C(24),
    2: (P - C(1)) * (P - C(3)) * (C(1) + C(2) * P) / (P.scale(5760)),
    3: (P - C(5)) * (P - C(1)) * (C(1) + C(2) * P)
    * (C(8) * P**2 - C(13) * P - C(13)) / ((P**2).scale(2903040)),
    4: (P - C(7)) * (P - C(1)) * (C(1) + C(2) * P)
    * (C(72) * P**4 - C(298) * P**3 - C(17) * P**2 + C(562) * P + C(281))
    / ((P**3).scale(1393459200)),
}


def test_criterion_04_one_point_symbolic():
    ok = all(
        term.coefficient == ONE_POINT_CLOSED_FORMS[term.genus]
        for term in one_point_series(4)
    )
    report(4, ok, "one-point g=1..4 coefficients equal the closed forms in p")


def test_criterion_05_interpolation():
    ok = True

    def family(g, m, p_range, ndeg, dpow, target):
        nonlocal ok
        pts = list(p_range)
        samples = {p: two_point_low_value(p, g, m) for p in pts[:-2]}
        held = {p: two_point_low_value(p, g, m) for p in pts[-2:]}
        f = general_p_interpolate(samples, ndeg, dpow, held_out=held)
        ok = ok and (f == target)

    family(1, 1, range(3, 13), 1, 0, (P - C(1)) / C(24))
    family(1, 3, range(4, 13), 1, 1, (P - C(3)) / (P.scale(24)))
    family(2, 1, range(4, 14), 3, 1,
           (P - C(1)) * (P - C(3)) * (C(2) * P + C(1)) / (P.scale(5760)))
    family(2, 2, range(3, 13), 3, 1,
           (P - C(1)) * (P - C(2)) * (P + C(2)) / (P.scale(2880)))
    family(2, 3, range(4, 14), 3, 1,
           (P - C(1)) * (P - C(3)) * (C(2) * P + C(11)) / (P.scale(5760)))
    family(2, 5, range(6, 16), 3, 2,
           (C(2) * P**3 + C(13) * P**2 - C(158) * P + C(215)) / ((P**2).scale(5760)))
    family(3, 1, range(6, 16), 5, 2, ONE_POINT_CLOSED_FORMS[3])
    family(3, 2, range(5, 15), 5, 2,
           (P - C(1)) * (P - C(2)) * (P - C(4)) * (P + C(2)) * (C(2) * P + C(1))
           / ((P**2).scale(362880)))
    family(3, 3, range(4, 14), 5, 2,
           (P - C(1)) * (P - C(3))
           * (C(16) * P**3 + C(34) * P**2 - C(155) * P - C(129))
           / ((P**2).scale(2903040)))
    report(5, ok, "integer-p samples interpolate to every closed form, 2 held out each")


def test_criterion_06_string_equation():
    ok = True
    for p in range(3, 10):
        rep = string_check(two_point_table(p, 2), p)
        ok = ok and rep.all_passed and bool(rep.checked)
        if p == 5:
            vals = {
                c.lhs_key: c for c in rep.checked
                if c.lhs_key.startswith("tau(0,0) tau(4,2)")
            }
            entry = next(iter(vals.values()))
            ok = ok and entry.passed
            ok = ok and one_point_value(5, 2) == F(11, 3600)
    g3 = [e for e in two_point_table(3, 3) if e.genus == 3]
    rep3 = string_check(g3, 3)
    ok = ok and rep3.all_passed and bool(rep3.checked)
    # the general-p genus-3 instance: the interpolated family equals the
    # one-point closed form identically (verified in criterion 5, family 3/1)
    report(6, ok, "string equation exact for p=3..9 g<=2 and the g=3 instance")


def test_criterion_07_negative_p():
    t3 = {(e.genus, e.marks[0]): e.value for e in one_point_table(-3, 3)}
    t1 = {e.genus: e.value for e in one_point_table(-1, 4)}
    ok = (
        t3[(1, (1, 0))] == F(-1, 6)
        and t3[(2, (3, 2))] == F(1, 144)
        and t3[(3, (6, 1))] == F(-35, 34992)
        and all(t1[g] == zeta_one_minus_2g(g) for g in range(1, 5))
        and [t1[g] for g in range(1, 5)]
        == [F(-1, 12), F(1, 120), F(-1, 252), F(1, 240)]
    )
    report(7, ok, "p=-1 gives zeta(1-2g) for g=1..4; p=-3 gives the continuation list")


def test_criterion_08_cancellation_ledger():
    from pspin.twopoint import grade_monomial

    ok = True
    cases = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)]
    for p, g in cases:
        try:
            grade = two_point_grade(p, g, "real")
        except CancellationError:
            ok = False
            continue
        # irreducible residues already vanish (or assembly would raise);
        # rewrite-constant terms must avoid every extractable grade
        for atom, poly in grade.constants.items():
            for m in poly:
                if grade_monomial(p, g, m) is not None:
                    ok = False
    report(8, ok, "T-type and rewrite-constant residues vanish on extracted grades")


def test_criterion_09_large_p():
    ok = all(
        large_p_check(term.coefficient, term.genus).matches
        for term in one_point_series(3)
    )
    two_point_formulas = {
        2: [
            (P - C(1)) * (P - C(3)) * (C(2) * P + C(1)) / (P.scale(5760)),
            (P - C(1)) * (P - C(2)) * (P + C(2)) / (P.scale(2880)),
            (P - C(1)) * (P - C(3)) * (C(2) * P + C(11)) / (P.scale(5760)),
        ],
        3: [
            (P - C(1)) * (P - C(2)) * (P - C(4)) * (P + C(2)) * (C(2) * P + C(1))
            / ((P**2).scale(362880)),
            (P - C(1)) * (P - C(3))
            * (C(16) * P**3 + C(34) * P**2 - C(155) * P - C(129))
            / ((P**2).scale(2903040)),
        ],
    }
    for g, fs in two_point_formulas.items():
        for f in fs:
            ok = ok and large_p_check(f, g).matches
    ok = ok and bernoulli_leading(1) == F(1, 24)
    ok = ok and all(zeta_identity_exact(g) for g in (1, 2, 3, 4))
    report(9, ok, "leading p^g coefficients equal B_g/((2g)! 2g); zeta identity g=1..4")


def test_criterion_10_numeric_oracles():
    from scipy.special import airy

    ai0 = float(airy(0)[0])
    aip0 = float(airy(0)[1])
    ok = True
    # moment identities at three ratios
    for a in (0.5, 0.8, 1.0):
        i2 = quad_moment(1, 2, 0, a)
        t = quad_moment(0, 0, 1, a)
        ok = ok and abs((1 + a**3) * i2 - (ai0**2 - 2 * a * t)) < 1e-6
        k1 = quad_moment(0, 2, 0, a)
        ok = ok and abs(k1 + (1 + a) / (1 + a**3) * ai0 * aip0) < 1e-6
        k2 = quad_moment(0, 1, 1, a)
        ok = ok and abs(k2 - (a**2 - 1) / (1 + a**3) * ai0 * aip0) < 1e-6
    # Binet/digamma at the pinned points
    for z in (0.5, 1.0, 2.0, 5.5, 10.0):
        ok = ok and binet_check(z)[2] < 1e-8
    # finite-N residue formula vs Monte Carlo at N=4, 1e5 samples, fixed seed
    eigs = (1.0, -1.0, 2.0, -2.0)
    cfg = McConfig(4, eigs, (0.3,), sample_count=100_000, rng_seed=20121220)
    mean, se = mc_trace_moments(cfg)
    exact = finite_n_evaluate(FiniteNSource(4, eigs), [0.3])
    ok = ok and abs(mean - exact) <= 3 * se
    # N=1 calibration is the analytic Gaussian moment-generating function
    for s in (0.25, 0.5, 1.0):
        ok = ok and math.isclose(
            finite_n_evaluate(FiniteNSource(1, (0.0,)), [s]),
            math.exp(s * s / 2),
            rel_tol=1e-14,
        )
    report(10, ok, "moment identities 1e-6; Binet 1e-8; MC within 3 sigma; N=1 exact")


def test_criterion_11_density_comparison():
    rep = blackhole_density_compare(DensityConfig.linspace(5.0, 50.0, 100))
    ok = rep.max_residual < 1e-3
    ok = ok and central_charge_negative_branch(F(9, 4)) == 26
    report(11, ok, f"affine fit max residual {rep.max_residual:.2e} < 1e-3; C(9/4) = 26")
