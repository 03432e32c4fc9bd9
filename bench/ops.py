"""Op lists of the in-process workloads and the checks on their outputs.

An op is one call (or one short fixed sequence of calls) into pspin.  Its
wall time counts toward ``run_s``; its check runs after the whole op list,
outside the timed region, and returns a list of problems.  Exact outputs are
checked against truth from independent sources and against digests recorded
in ``expected.json``; float outputs by verdict or tolerance only.

Ops look pspin functions up on their modules at call time, so the timing
wrappers of a traced run see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from pspin import airy, correlators, density, golden, moments, onepoint, oracle, tautology, twopoint
from pspin.correlators import FiniteNSource
from pspin.exact import RatP
from pspin.oracle import McConfig

from common import MC_Z_BOUND, bernoulli_leading, canonical, zeta_one_minus_2g

REAL, CONTOUR = "real", "contour"


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]  # receives the outputs of earlier ops
    check: Callable[[object, dict], list[str]]  # (output, earlier outputs) -> problems
    text: Callable[[object], str] | None = None  # canonical form pinned by a digest
    fingerprint: Callable[[object], str] | None = None  # bit-exact form, same seed


# ---------------------------------------------------------------------------
# truth from independent sources
# ---------------------------------------------------------------------------

P = RatP.var()


def C(r) -> RatP:
    return RatP.const(r)


# one-point coefficients (-1)^g C_g(p) / p^g in closed form
ONE_POINT_CLOSED_FORMS = {
    1: (P - C(1)) / C(24),
    2: (P - C(1)) * (P - C(3)) * (C(1) + C(2) * P) / P.scale(5760),
    3: (P - C(5)) * (P - C(1)) * (C(1) + C(2) * P)
    * (C(8) * P**2 - C(13) * P - C(13)) / (P**2).scale(2903040),
    4: (P - C(7)) * (P - C(1)) * (C(1) + C(2) * P)
    * (C(72) * P**4 - C(298) * P**3 - C(17) * P**2 + C(562) * P + C(281))
    / (P**3).scale(1393459200),
}

# two-point families <tau tau>_g at the a^m grade, closed forms in p:
# (g, m) -> (sample p range, numerator degree, power of p in the denominator, form)
FAMILIES = {
    (1, 1): (range(3, 13), 1, 0, (P - C(1)) / C(24)),
    (1, 3): (range(4, 13), 1, 1, (P - C(3)) / P.scale(24)),
    (2, 1): (range(4, 14), 3, 1, (P - C(1)) * (P - C(3)) * (C(2) * P + C(1)) / P.scale(5760)),
    (2, 2): (range(3, 13), 3, 1, (P - C(1)) * (P - C(2)) * (P + C(2)) / P.scale(2880)),
    (2, 3): (range(4, 14), 3, 1, (P - C(1)) * (P - C(3)) * (C(2) * P + C(11)) / P.scale(5760)),
    (2, 5): (range(6, 16), 3, 2,
             (C(2) * P**3 + C(13) * P**2 - C(158) * P + C(215)) / (P**2).scale(5760)),
    (3, 1): (range(6, 16), 5, 2, ONE_POINT_CLOSED_FORMS[3]),
    (3, 2): (range(5, 15), 5, 2,
             (P - C(1)) * (P - C(2)) * (P - C(4)) * (P + C(2)) * (C(2) * P + C(1))
             / (P**2).scale(362880)),
    (3, 3): (range(4, 14), 5, 2,
             (P - C(1)) * (P - C(3)) * (C(16) * P**3 + C(34) * P**2 - C(155) * P - C(129))
             / (P**2).scale(2903040)),
}


def _table_map(entries) -> dict:
    return {(e.genus, e.marks): Fraction(e.value) for e in entries}


def check_golden(p: int, g_max: int, reference: dict) -> Callable:
    """Every published two-point entry at this p (genus <= g_max) reproduced."""

    def check(entries, outputs) -> list[str]:
        got = _table_map(entries)
        problems = [f"selection rule fails on {e.marks} g={e.genus}"
                    for e in entries if not e.selection_ok()]
        for (g, marks), want in sorted(reference.get(p, {}).items()):
            if g <= g_max and got.get((g, marks)) != want:
                problems.append(f"g={g} {marks}: expected {want}, got {got.get((g, marks))}")
        if not entries:
            problems.append("empty table")
        return problems

    return check


def check_grade(p: int, g: int) -> Callable:
    """Rewrite-constant residues must stay off the extractable a-powers."""

    def check(grade, outputs) -> list[str]:
        problems = [] if grade.boundary else ["empty boundary sector"]
        for atom, poly in grade.constants.items():
            bad = sorted(m for m in poly if twopoint.grade_monomial(p, g, m) is not None)
            if bad:
                problems.append(f"constant sector {atom} reaches extractable grades {bad}")
        return problems

    return check


def _p_minus_one_problems(value: RatP, g: int) -> list[str]:
    """At p=-1 the genus-g one-point value times Gamma(2g)/Gamma(2) is zeta(1-2g)."""
    got = value.eval(-1) * math.factorial(2 * g - 1)
    want = zeta_one_minus_2g(g)
    return [] if got == want else [f"g={g}: p=-1 gives {got}, zeta(1-2g) = {want}"]


def _large_p_problems(value: RatP, g: int) -> list[str]:
    """Leading p^g coefficient of the genus-g one-point term is |B_2g|/((2g)! 2g)."""
    deg, lead = value.leading()
    want = bernoulli_leading(g)
    return [] if (deg, lead) == (g, want) else [f"g={g}: leading p^{deg} * {lead}, want p^{g} * {want}"]


def check_one_point_symbolic(entries, outputs) -> list[str]:
    problems = [] if len(entries) == 8 else [f"expected 8 genera, got {len(entries)}"]
    for e in entries:
        g = e.genus
        if g in ONE_POINT_CLOSED_FORMS and e.value != ONE_POINT_CLOSED_FORMS[g]:
            problems.append(f"g={g}: {e.value} differs from the closed form")
        problems += _large_p_problems(e.value, g) + _p_minus_one_problems(e.value, g)
    return problems


def check_genus_coefficient(g: int) -> Callable:
    def check(coeff, outputs) -> list[str]:
        term = coeff / P**g
        term = -term if g % 2 else term
        return _large_p_problems(term, g) + _p_minus_one_problems(term, g)

    return check


def table_text(points: int) -> Callable:
    return lambda entries: correlators.table_to_json(entries, points)


def grade_text(grade) -> str:
    return canonical({
        "boundary": sorted(
            [list(k), sorted([e, str(v)] for e, v in poly.items())]
            for k, poly in grade.boundary.items()
        ),
        "constants": sorted(
            [repr(atom), sorted([e, str(v)] for e, v in poly.items())]
            for atom, poly in grade.constants.items()
        ),
        "prefactor": grade.prefactor.render(),
    })


def ratp_text(value: RatP) -> str:
    num, den = value.numer_denom_laurent()
    return canonical([str(num), str(den)])


# ---------------------------------------------------------------------------
# exact-deep: one deep p=3 ladder plus the symbolic one-point tail
# ---------------------------------------------------------------------------


def exact_deep(seed: int) -> list[Op]:
    """Fixed (p, g) list: cost depends on (p, g), not on the seed."""
    ops = [Op("two_point_table p=3 g=3",
              lambda out: correlators.two_point_table(3, 3),
              check_golden(3, 3, golden.REFERENCE_TWO_POINT), table_text(2))]
    for p, g in ((3, 4), (3, 5), (3, 6), (4, 3), (5, 3)):
        ops.append(Op(f"two_point_grade p={p} g={g}",
                      lambda out, p=p, g=g: twopoint.two_point_grade(p, g),
                      check_grade(p, g), grade_text))
    ops.append(Op("one_point_table symbolic g=8",
                  lambda out: correlators.one_point_table("symbolic", 8),
                  check_one_point_symbolic, table_text(1)))
    for g in range(9, 13):
        ops.append(Op(f"genus_coefficient g={g}",
                      lambda out, g=g: onepoint.genus_coefficient(g),
                      check_genus_coefficient(g), ratp_text))
    return ops


# ---------------------------------------------------------------------------
# p-sweep: many small engines, breadth first
# ---------------------------------------------------------------------------


def _table_op(p: int, mode: str) -> Op:
    def check(entries, outputs) -> list[str]:
        problems = check_golden(p, 2, golden.REFERENCE_TWO_POINT)(entries, outputs)
        if mode == CONTOUR:
            real = outputs.get(f"two_point_table p={p} g=2 {REAL}")
            if real is None or _table_map(real) != _table_map(entries):
                problems.append("contour table differs from the real table")
        return problems

    return Op(f"two_point_table p={p} g=2 {mode}",
              lambda out: correlators.two_point_table(p, 2, mode), check, table_text(2))


def _report_check(report, outputs) -> list[str]:
    if not report.checked:
        return ["no identities checked"]
    return [f"{r.identity} {r.lhs_key}: off by {r.difference}" for r in report.failures()]


def _tautology_ops(p: int, mode: str) -> list[Op]:
    table = f"two_point_table p={p} g=2 {mode}"
    return [
        Op(f"string_check p={p} {mode}",
           lambda out: tautology.string_check(out[table], p), _report_check),
        Op(f"dilaton_check p={p} {mode}",
           lambda out: tautology.dilaton_check(out[table], p), _report_check),
        Op(f"selection_rule p={p} {mode}",
           lambda out: [tautology.selection_rule(p, e.genus, e.marks) for e in out[table]],
           lambda verdicts, outputs: [] if verdicts and all(verdicts) else ["selection rule fails"]),
    ]


def _low_value_check(p: int, g: int, m: int) -> Callable:
    """Small-a route against the exact route (p <= 9, g <= 2) and the closed forms."""

    def check(value, outputs) -> list[str]:
        mono = twopoint.grade_monomial(p, g, m)
        if mono is None:
            return [] if value is None else [f"discarded grade returned {value}"]
        if value is None:
            return ["extractable grade returned None"]
        problems = []
        family = FAMILIES.get((g, m))
        if family is not None and family[3].eval(p) != value:
            problems.append(f"closed form gives {family[3].eval(p)}, route gives {value}")
        table = outputs.get(f"two_point_table p={p} g=2 {REAL}")
        if g <= 2 and table is not None:
            marks = tuple((k, f - 1) for k, f in mono.slots)
            exact = _table_map(table).get((g, marks), Fraction(0))
            if exact != value:
                problems.append(f"exact route gives {exact}, small-a route gives {value}")
        return problems

    return check


def _interpolation_op(g: int, m: int) -> Op:
    p_range, num_degree, den_power, form = FAMILIES[(g, m)]

    def run(out):
        pts = list(p_range)
        samples = {p: correlators.two_point_low_value(p, g, m) for p in pts[:-2]}
        held = {p: correlators.two_point_low_value(p, g, m) for p in pts[-2:]}
        return correlators.general_p_interpolate(samples, num_degree, den_power, held_out=held)

    return Op(f"general_p_interpolate g={g} m={m}", run,
              lambda value, outputs: [] if value == form else [f"interpolant {value} != {form}"],
              ratp_text)


def p_sweep(seed: int) -> list[Op]:
    """Fixed p list: every p builds a fresh engine with little reuse."""
    ops = [_table_op(p, mode) for p in range(3, 10) for mode in (REAL, CONTOUR)]
    ops += [op for p in range(3, 10) for mode in (REAL, CONTOUR) for op in _tautology_ops(p, mode)]
    for p in range(8, 14):
        for g in range(1, 4):
            for m in range(p):
                ops.append(Op(f"two_point_low_value p={p} g={g} m={m}",
                              lambda out, p=p, g=g, m=m: correlators.two_point_low_value(p, g, m),
                              _low_value_check(p, g, m), str))
    ops += [_interpolation_op(g, m) for g, m in FAMILIES]
    return ops


# ---------------------------------------------------------------------------
# oracles: the numeric layer, inputs drawn from the seed
# ---------------------------------------------------------------------------

MC_SAMPLES = 20_000
AIRY_SYMBOLS = (
    (5, 0, 0), (1, 2, 0), (1, 0, 2), (1, 1, 1), (3, 1, 0), (3, 0, 1),
    (7, 0, 0), (5, 1, 0), (5, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2),
    (1, 3, 0), (1, 0, 3), (1, 2, 1), (1, 1, 2), (0, 2, 0), (0, 1, 1),
)
AIRY_TOL = 1e-6
BINET_POINTS = (0.5, 1.0, 2.0, 5.5, 10.0)
BINET_TOL = 1e-8
SYMMETRY_RTOL = 1e-12


def draw_source(rng: random.Random, n: int) -> FiniteNSource:
    """Distinct eigenvalues with gaps in [0.4, 1.0].

    Every gap exceeds s/N for the s values drawn below (s <= 0.6, N >= 2), so
    no configuration comes near the removable singularity a - b = s/N; that
    edge and near-coincident eigenvalues are probed separately
    (``run.py --probe-edges``).
    """
    eigs, x = [], rng.uniform(-2.0, -1.0)
    for _ in range(n):
        eigs.append(x)
        x += rng.uniform(0.4, 1.0)
    rng.shuffle(eigs)
    return FiniteNSource(n, tuple(eigs))


def _mc_problems(mean: float, se: float, exact: float) -> list[str]:
    if not se > 0:
        return [f"standard error {se}"]
    z = abs(mean - exact) / se
    return [] if z <= MC_Z_BOUND else [f"MC {mean} +- {se} vs exact {exact}: |z| = {z:.3g}"]


def mc_op(name: str, cfg: McConfig) -> Op:
    def check(result, outputs) -> list[str]:
        src = FiniteNSource(cfg.N, cfg.eigenvalues)
        return _mc_problems(*result, correlators.finite_n_evaluate(src, list(cfg.s_values)))

    return Op(name, lambda out: oracle.mc_trace_moments(cfg), check, fingerprint=repr)


def _grid_op(rng: random.Random, n: int) -> Op:
    src = draw_source(rng, n)
    pairs = [(rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)) for _ in range(40)]

    def run(out):
        u = correlators.finite_n_evaluate
        return [(u(src, [a, b]), u(src, [b, a]), u(src, [a]), u(src, [a, 0.0])) for a, b in pairs]

    def check(rows, outputs) -> list[str]:
        problems = []
        for (a, b), (u12, u21, u1, u10) in zip(pairs, rows):
            if not math.isclose(u12, u21, rel_tol=SYMMETRY_RTOL):
                problems.append(f"U({a},{b}) = {u12} but U({b},{a}) = {u21}")
            if u10 != n * u1:
                problems.append(f"U({a},0) = {u10} but N U({a}) = {n * u1}")
        return problems

    return Op(f"finite_n_evaluate grid N={n}", run, check, fingerprint=repr)


def _gaussian_op(rng: random.Random) -> Op:
    s_values = [rng.uniform(0.05, 1.5) for _ in range(20)]
    src = FiniteNSource(1, (0.0,))

    def check(values, outputs) -> list[str]:
        return [f"N=1 U({s}) = {v}, exp(s^2/2) = {math.exp(s * s / 2)}"
                for s, v in zip(s_values, values)
                if not math.isclose(v, math.exp(s * s / 2), rel_tol=1e-14)]

    return Op("finite_n_evaluate N=1 gaussian",
              lambda out: [correlators.finite_n_evaluate(src, [s]) for s in s_values],
              check, fingerprint=repr)


def _airy_quad_op(a: float) -> Op:
    """Quadrature against the exact reduction (contour kernel, p=3) at ratio a."""

    def run(out):
        bvals = {k: float(airy.phi_deriv_zero(3, k, CONTOUR).numeric(30)) for k in (0, 1)}
        irr = {c: oracle.quad_moment(0, 0, c, a) for c in (0, 1)}
        rows = []
        for n, b, c in AIRY_SYMBOLS:
            red = moments.reduce_moment(moments.MomentSymbol(n, b, c, 3), ode_constant=Fraction(0))
            rows.append((oracle.quad_moment(n, b, c, a),
                         moments.reduction_numeric(red, a, bvals, irr)))
        return rows

    def check(rows, outputs) -> list[str]:
        return [f"moment{sym} a={a}: quad {lhs} vs reduction {rhs}"
                for sym, (lhs, rhs) in zip(AIRY_SYMBOLS, rows) if not abs(lhs - rhs) <= AIRY_TOL]

    return Op(f"airy-quad a={a}", run, check, fingerprint=repr)


def oracles(seed: int) -> list[Op]:
    """Seeded numeric inputs: MC sampler seed, finite-N sources and s values."""
    rng = random.Random(seed)
    src = draw_source(rng, 4)
    s1, s2 = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
    ops = [
        mc_op("mc_trace_moments N=4 one insertion",
              McConfig(4, src.eigenvalues, (s1,), MC_SAMPLES, rng.randrange(1, 2**31))),
        mc_op("mc_trace_moments N=4 two insertions",
              McConfig(4, src.eigenvalues, (s1, s2), MC_SAMPLES, rng.randrange(1, 2**31))),
    ]
    ops += [_grid_op(rng, n) for n in (2, 3, 4, 5, 6, 8)]
    ops.append(_gaussian_op(rng))
    ops += [_airy_quad_op(a) for a in (0.5, 0.8, 1.0)]
    ops.append(Op("blackhole_density_compare 100 points",
                  lambda out: density.blackhole_density_compare(density.DensityConfig.linspace(5.0, 50.0, 100)),
                  lambda rep, outputs: [] if rep.max_residual < 1e-3 else [f"max residual {rep.max_residual}"],
                  fingerprint=lambda rep: repr((rep.alpha, rep.beta, rep.max_residual))))
    ops.append(Op("binet_check",
                  lambda out: [density.binet_check(z) for z in BINET_POINTS],
                  lambda rows, outputs: [f"z={z}: |diff| {d}" for z, (_, _, d) in zip(BINET_POINTS, rows)
                                         if not d <= BINET_TOL],
                  fingerprint=repr))
    return ops


# ---------------------------------------------------------------------------
# ROADMAP direction 4 edge configurations (known failures, probed apart)
# ---------------------------------------------------------------------------

EDGE_S = (0.3, 0.2)
EDGE_GAPS = (0.1, 1e-11, 1e-12)


def edge_ops(seed: int) -> list[Op]:
    """Sources (1, 1+d, -1) at N=3, s=(0.3, 0.2): d = s1/N and near-coincident.

    Each is checked against Monte Carlo at the same source; the one-point
    value at d=1e-11 is checked against its d -> 0 limit.
    """
    rng = random.Random(seed)
    ops = []
    for d in EDGE_GAPS:
        cfg = McConfig(3, (1.0, 1.0 + d, -1.0), EDGE_S, MC_SAMPLES, rng.randrange(1, 2**31))

        def run(out, cfg=cfg):
            src = FiniteNSource(cfg.N, cfg.eigenvalues)
            return correlators.finite_n_evaluate(src, list(cfg.s_values)), oracle.mc_trace_moments(cfg)

        ops.append(Op(f"finite_n_evaluate edge d={d}", run,
                      lambda res, outputs: _mc_problems(*res[1], res[0])))

    def one_point_limit(out):
        near = correlators.finite_n_evaluate(FiniteNSource(3, (1.0, 1.0 + 1e-11, -1.0)), [EDGE_S[0]])
        limit = correlators.finite_n_evaluate(FiniteNSource(3, (1.0, 1.0, -1.0)), [EDGE_S[0]])
        return near, limit

    ops.append(Op("finite_n_evaluate one-point d=1e-11 vs d=0",
                  one_point_limit,
                  lambda res, outputs: [] if math.isclose(*res, rel_tol=1e-9)
                  else [f"U = {res[0]} at d=1e-11, {res[1]} at d=0"]))
    return ops


WORKLOADS = {"exact-deep": exact_deep, "p-sweep": p_sweep, "oracles": oracles, "edges": edge_ops}
