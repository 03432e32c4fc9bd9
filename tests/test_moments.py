"""Moment reduction: fixtures, confluence, linearity, cancellation, numerics."""

import hashlib
import random
import re
from fractions import Fraction as F

import pytest

from pspin.airy import CONTOUR, REAL, phi_deriv_zero
from pspin.exact import CycloA, ExactScalar as ES, LaurentP, UsageError
from pspin.moments import (
    CancellationError,
    MomentEngine,
    MomentSymbol,
    _engine,
    assemble_grade,
    poly_coeffs,
    reduce_moment,
    reduction_numeric,
)
from pspin.twopoint import grade_contributions, two_point_grade
from reference import MirrorEngine, cyclo_add, cyclo_mul, mirror_reduce

one = CycloA.var(3, 0)
zero = CycloA(3)


def vec(res, scale=1):
    out = {k: cyclo_mul(v, scale) for k, v in res.items()}
    return {k: v for k, v in out.items() if v.num.nums}


def combine(*scaled):
    out = {}
    for coeff, res in scaled:
        for k, v in vec(res, coeff).items():
            out[k] = cyclo_add(out.get(k, zero), v)
    return {k: v for k, v in out.items() if v.num.nums}


def M(n, b, c, p=3, c0=0, mirror=False):
    reduce = mirror_reduce if mirror else reduce_moment
    return reduce(MomentSymbol(n, b, c, p), ode_constant=F(c0))


class TestClosedForms:
    def test_k1(self):
        # int phi'' phi(-ay) = -(1+a)/(1+a^3) phi(0) phi'(0)
        assert M(0, 2, 0) == {("bdry", 0, 1): CycloA(3, {0: -1, 1: -1}, 1)}

    def test_k2_and_ibp_relation(self):
        # int phi' phi'(-ay) = (a^2-1)/(1+a^3) phi(0) phi'(0),
        # consistent with K1 = -phi(0)phi'(0) + a K2 (one integration by parts)
        k1 = M(0, 2, 0)[("bdry", 0, 1)]
        k2 = M(0, 1, 1)[("bdry", 0, 1)]
        assert k2 == CycloA(3, {2: 1, 0: -1}, 1)
        assert k1 == cyclo_add(CycloA(3, {0: -1}), k2.times_monomial(1, 1))

    def test_k2_vanishes_at_unit_ratio(self):
        k2 = M(0, 1, 1)[("bdry", 0, 1)]
        from pspin.moments import eval_coefficient

        assert eval_coefficient(k2, F(1)) == 0.0

    def test_i2_identity(self):
        # (1+a^3) I2 = phi(0)^2 - 2a T with T = int phi(y) phi'(-ay) dy
        assert M(1, 2, 0) == {
            ("bdry", 0, 0): CycloA(3, {0: 1}, 1),
            ("irr", 1): CycloA(3, {1: -2}, 1),
        }

    def test_i2_ode_prestep(self):
        # substituting the rewrite directly: int y phi'' phi(-ay) = int y^2 phi phi(-ay)
        assert vec(M(1, 2, 0)) == vec(M(2, 0, 0))

    @pytest.mark.parametrize("closing, pivot", [
        ((1, 1), "-a + 1"), ((1, 3), "-a**3 + 1"), ((-2, 3), "2*a**3 + 1"),
    ], ids=["a", "a^p", "-2a^p"])
    def test_non_conforming_pivot_raises(self, closing, pivot):
        # a forced cycle X = c a^j X has pivot 1 - c a^j; a ring must close at -a^p
        from pspin import moments

        loop = ("M", 2, 1, 1)

        class LoopEngine(moments.MomentEngine):
            def rule(self, node):
                return ([(closing, loop)], {}) if node == loop else super().rule(node)

        with pytest.raises(moments.ReductionCycleError, match=f"pivot {re.escape(pivot)}$"):
            LoopEngine(3).reduce(MomentSymbol(2, 1, 1, 3))

    def test_second_link_into_cycle_raises(self):
        # X = -a^3 X + Y + T_0 and Y = a^3 X + T_1 has determinant 1, so the
        # system is solvable, but X links twice into its cycle: not a ring
        from pspin import moments

        x, y = ("M", 2, 1, 1), ("M", 2, 1, 2)

        class TwoLinkEngine(moments.MomentEngine):
            def rule(self, node):
                if node == x:
                    return [((-1, 3), x), ((1, 0), y)], {("irr", 0): one}
                if node == y:
                    return [((1, 3), x)], {("irr", 1): one}
                return super().rule(node)

        with pytest.raises(moments.ReductionCycleError, match="links twice"):
            TwoLinkEngine(3).reduce(MomentSymbol(2, 1, 1, 3))


class TestGenus3Relations:
    """The ten genus-3 integrals and the published relations among them.

    In the source convention the second factor's primes differentiate in y,
    which maps each symbol to (-a)^c times the argument-derivative symbol.
    """

    @pytest.fixture(scope="class")
    @staticmethod
    def J():
        table = {
            1: vec(M(7, 0, 0)),
            2: vec(M(5, 1, 0)),
            3: vec(M(5, 0, 1), CycloA(3, {1: -1})),
            4: vec(M(3, 1, 1), CycloA(3, {1: -1})),
            5: vec(M(3, 2, 0)),
            6: vec(M(3, 0, 2), CycloA(3, {2: 1})),
            7: vec(M(1, 3, 0)),
            8: vec(M(1, 0, 3), CycloA(3, {3: -1})),
            9: vec(M(1, 2, 1), CycloA(3, {1: -1})),
            10: vec(M(1, 1, 2), CycloA(3, {2: 1})),
        }
        table["K1"] = vec(M(0, 2, 0))
        table["K2"] = vec(M(0, 1, 1), CycloA(3, {1: -1}))
        return table

    def scaled(self, V, c):
        return vec(V, c)

    def add(self, *vs):
        out = {}
        for V in vs:
            for k, v in V.items():
                out[k] = cyclo_add(out.get(k, zero), v)
        return {k: v for k, v in out.items() if v.num.nums}

    def test_j10(self, J):
        want = self.add(
            self.scaled(J["K1"], CycloA(3, {3: 2}, 1)),
            self.scaled(J["K2"], CycloA(3, {3: -1}, 1)),
        )
        assert J[10] == want

    def test_j9(self, J):
        assert J[9] == self.add(self.scaled(J["K2"], -1), self.scaled(J[10], -1))

    def test_j8_closed_form(self, J):
        L = {("bdry", 0, 1): one}
        coeff = CycloA(3, {3: 1, 4: 2, 6: -2, 7: -1}, 2)
        assert J[8] == self.scaled(L, coeff)

    def test_j7_j6_j5(self, J):
        assert J[7] == self.scaled(J[8], CycloA.var(3, -3))
        assert J[6] == self.scaled(J[7], CycloA(3, {3: 6}, 1))
        assert J[5] == self.scaled(J[6], CycloA(3, {-3: -1}))

    def test_j4(self, J):
        assert J[4] == self.add(self.scaled(J[5], CycloA(3, {3: 1})), self.scaled(J[9], -3))

    def test_j123(self, J):
        assert J[1] == self.add(
            self.scaled(J[5], CycloA(3, {0: 30}, 1)),
            self.scaled(J[3], CycloA(3, {0: 12}, 1)),
        )
        assert J[2] == self.add(
            self.scaled(J[5], CycloA(3, {0: -5}, 1)),
            self.scaled(J[4], CycloA(3, {0: 4}, 1)),
        )
        assert J[3] == self.add(
            self.scaled(J[5], CycloA(3, {3: -5}, 1)),
            self.scaled(J[4], CycloA(3, {0: -4}, 1)),
        )


class TestConfluenceAndLinearity:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_confluence_random_symbols(self, p):
        # two genuinely different rule orientations must agree on the fixed point
        rng = random.Random(100 + p)
        for _ in range(67):
            n = rng.randint(0, 8)
            b = rng.randint(0, p - 2)
            c = rng.randint(0, p - 2)
            c0 = rng.choice([0, 1])
            r1 = M(n, b, c, p=p, c0=c0)
            r2 = M(n, b, c, p=p, c0=c0, mirror=True)
            assert vec(r1) == vec(r2), (p, n, b, c, c0)

    def test_linearity(self):
        # reduce respects linear combinations by construction of the vectors
        lhs = combine((CycloA(3, {0: 3}), M(2, 1, 0)), (CycloA(3, {2: -1}), M(2, 1, 0)))
        rhs = vec(M(2, 1, 0), CycloA(3, {0: 3, 2: -1}))
        assert lhs == rhs


class TestAssembleGrade:
    def test_p3_genus2_pattern(self):
        grade = two_point_grade(3, 2)
        poly = grade.boundary[(0, 0)]
        base = poly[2]
        ratios = [poly[m] / base for m in (2, 5, 8, 11, 14)]
        assert ratios == [F(1), F(11, 5), F(17, 5), F(11, 5), F(1)]
        assert base < 0  # overall sign of the genus-2 grade

    def test_grade_is_polynomial_and_palindromic(self):
        for p, g in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)]:
            grade = two_point_grade(p, g)
            top = 2 * g * (p + 1)
            for (i, j), poly in grade.boundary.items():
                for m, coeff in poly.items():
                    assert 0 < m < top
                    assert poly.get(top - m) == coeff  # s1 <-> s2 symmetry

    def test_single_contribution_passthrough(self):
        from pspin.moments import combine_contributions

        sym = MomentSymbol(0, 2, 0, 3)
        acc = combine_contributions([(F(1), 0, sym)])
        # a contribution with no irreducible part passes through, times (1+a^3)^(n-1),
        # its rewrite-constant atom included
        assert acc == {
            ("bdry", 0, 1): CycloA(3, {0: -1, 1: -1}, 2),
            ("omega",): CycloA(3, {2: 2}, 2),
        }

    def test_t_residue_raises(self):
        # a lone I2 contribution leaves an uncancelled T coefficient
        sym = MomentSymbol(1, 2, 0, 3)
        with pytest.raises(CancellationError) as exc:
            assemble_grade([(F(1), 0, sym)], ES(F(1)))
        assert exc.value.residues

    @pytest.mark.parametrize("contributions, message", [
        ([], "empty grade"),
        ([(F(1), 0, MomentSymbol(0, 2, 0, 3)), (F(1), 0, MomentSymbol(0, 2, 0, 4))],
         "mixed p"),
    ], ids=["empty", "mixed-p"])
    def test_combine_refuses_malformed_grade(self, contributions, message):
        from pspin.moments import combine_contributions

        with pytest.raises(UsageError, match=message):
            combine_contributions(contributions)

    @pytest.mark.parametrize("p, g, digest", [
        (3, 7, "903e35e42f73c34cb417329308cba970f38e70469b4f00035c0a64c6d401c4bb"),
        (3, 8, "2117262a4f035e7985dbbfc553d5dd729bad1fc78cb723256745c81d9e7b073e"),
        (5, 4, "4f11c7b499fc7ba1f226f7a89e4b38285f8e3a3addd6ae7f4a40285e0c1e4cf4"),
        (7, 3, "baa9b3429d36575ad2c95f93ab4b4af8002e704e8a99e12c9c0ac9b5374b8cd8"),
        (7, 4, "0a2393124a991bbfcee039b1ab3b470f74c4ed6e1fa4d2979984e69369625603"),
    ], ids=["p3-g7", "p3-g8", "p5-g4", "p7-g3", "p7-g4"])
    def test_grades_past_the_benchmark_as_recorded(self, p, g, digest):
        # grades no benchmark digest covers, recorded before the engine summed
        # each atom once: both sectors, their atom order and each poly's order
        grade = two_point_grade(p, g)
        text = repr((list(grade.boundary.items()), list(grade.constants.items())))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_constant_sector_confined(self):
        # rewrite-constant leftovers live only on integer-exponent grades
        from pspin.twopoint import grade_monomial

        for p, g in [(3, 1), (3, 2), (4, 1), (5, 1)]:
            grade = two_point_grade(p, g)
            for atom, poly in grade.constants.items():
                for m in poly:
                    assert grade_monomial(p, g, m) is None, (p, g, atom, m)


class TestNumericFidelity:
    """Quadrature oracle vs reduced expressions, p=3 oscillatory kernel."""

    @pytest.mark.parametrize("a_val", [0.5, 0.8, 1.0])
    def test_all_low_symbols(self, a_val):
        from pspin.airy import phi_deriv_zero
        from pspin.oracle import quad_moment

        bvals = {
            0: float(phi_deriv_zero(3, 0, "contour").numeric(30)),
            1: float(phi_deriv_zero(3, 1, "contour").numeric(30)),
        }
        irr = {c: quad_moment(0, 0, c, a_val) for c in (0, 1)}
        symbols = [
            (5, 0, 0), (1, 2, 0), (1, 0, 2), (1, 1, 1), (3, 1, 0), (3, 0, 1),
            (7, 0, 0), (5, 1, 0), (5, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2),
            (1, 3, 0), (1, 0, 3), (1, 2, 1), (1, 1, 2), (0, 2, 0), (0, 1, 1),
        ]
        for n, b, c in symbols:
            red = M(n, b, c)
            got = reduction_numeric(red, a_val, bvals, irr)
            want = quad_moment(n, b, c, a_val)
            assert abs(got - want) < 1e-6, (n, b, c, a_val)

    def test_coefficient_evaluated_at_the_given_a(self):
        # a float is a dyadic rational, so the coefficient is evaluated at a
        # itself and rounded once; a rounded a = 3e-13 would give -180 exactly
        from pspin.moments import eval_coefficient

        coeff = M(7, 0, 0)[("bdry", 0, 1)]
        for a in (3e-13, 0.8, 1 / 3, 2.5):
            assert eval_coefficient(coeff, a) == float(coeff.eval(F(a)))
        assert eval_coefficient(coeff, 3e-13) != -180.0

    def test_constant_sector_atoms_raise(self):
        # a real-mode (c0 = 1) reduction keeps sing/omega/zdiv atoms, which have no value here
        values = {k: 1.0 for k in range(3)}
        for n, b, c in [(0, 2, 0), (2, 0, 0), (5, 0, 0)]:
            red = M(n, b, c, c0=1)
            assert {kind for kind, *_ in red} & {"sing", "omega", "zdiv"}, (n, b, c)
            with pytest.raises(UsageError):
                reduction_numeric(red, 0.5, values, values)


@pytest.mark.parametrize("p", [6, 7])
def test_confluence_larger_p_smoke(p):
    rng = random.Random(200 + p)
    for _ in range(6):
        n = rng.randint(0, 5)
        b = rng.randint(0, p - 2)
        c = rng.randint(0, p - 2)
        c0 = rng.choice([0, 1])
        r1 = M(n, b, c, p=p, c0=c0)
        r2 = M(n, b, c, p=p, c0=c0, mirror=True)
        assert vec(r1) == vec(r2), (p, n, b, c, c0)


class TestGroupedCombine:
    """combine_contributions groups by symbol; the sum must not change."""

    @staticmethod
    def per_contribution_sum(contributions, c0):
        # the ungrouped route: reduce and scale every contribution on its own,
        # multiplying by the expanded w a^k (1+a^p)^(n-1) as a general product
        acc = {}
        for w, a_pow, sym in contributions:
            sinh = LaurentP({0: 1, sym.p: 1}) ** (sym.n - 1)
            weight = CycloA(sym.p, LaurentP({a_pow: w}) * sinh)
            for atom, coeff in M(sym.n, sym.b, sym.c, sym.p, c0).items():
                acc[atom] = cyclo_add(acc.get(atom, CycloA(sym.p)), cyclo_mul(coeff, weight))
        return {atom: coeff for atom, coeff in acc.items() if coeff.num.nums}

    @pytest.mark.parametrize("c0", [1, 0])
    @pytest.mark.parametrize("p,g", [(3, 3), (4, 2), (5, 2), (4, 3), (6, 4)])
    def test_equals_per_contribution_sum(self, p, g, c0):
        from pspin.moments import combine_contributions
        from pspin.twopoint import grade_contributions

        contribs = grade_contributions(p, g)
        acc = combine_contributions(contribs)
        if c0 == 0:  # the c0 = 0 sum is the 'bdry'/'irr' part of the c0 = 1 sum
            acc = {atom: coeff for atom, coeff in acc.items() if atom[0] in ("bdry", "irr")}
        assert contribs[0][0] == 1
        assert acc == self.per_contribution_sum(contribs, c0)

    def test_each_symbol_reduced_once(self, monkeypatch):
        from collections import Counter

        from pspin import moments
        from pspin.twopoint import grade_contributions

        calls = Counter()
        reduce = moments.reduce_moment

        def counting(sym, *args, **kwargs):
            calls[sym] += 1
            return reduce(sym, *args, **kwargs)

        monkeypatch.setattr(moments, "reduce_moment", counting)
        # at p=3 every term is its own symbol; at (4, 3) symbols repeat
        contribs = grade_contributions(4, 3)
        moments.combine_contributions(contribs)
        distinct = {sym for _, _, sym in contribs}
        assert (len(contribs), len(distinct)) == (16, 13)
        assert set(calls) == distinct
        assert set(calls.values()) == {1}

    def test_zero_weight_symbol_on_degenerate_cycle_raises(self, monkeypatch):
        from pspin import moments

        loop = ("M", 2, 1, 1)

        class LoopEngine(moments.MomentEngine):
            def rule(self, node):
                # X = X: the cycle's linear system is singular
                return ([((1, 0), loop)], {}) if node == loop else super().rule(node)

        engine = LoopEngine(3)
        monkeypatch.setattr(moments, "_engine", lambda p: engine)
        sym = MomentSymbol(2, 1, 1, 3)
        # the two weights cancel, yet the symbol must still be reduced
        contribs = [(F(1), 4, sym), (F(-1), 4, sym)]
        with pytest.raises(moments.ReductionCycleError):
            moments.combine_contributions(contribs)


class TestBoundaryAtoms:
    """The engine's boundary atoms agree with airy's derivatives at zero."""

    @pytest.mark.parametrize("mode", [REAL, CONTOUR])
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_bdry_vector_matches_phi_deriv_zero(self, p, mode):
        eng = _engine(p)
        for i in range(2 * p + 2):
            for j in range(2 * p + 2):
                want = phi_deriv_zero(p, i, mode) * phi_deriv_zero(p, j, mode)
                (((kind, *orders), coeff),) = eng._bdry_vector(i, j).items()  # one atom
                assert kind in ("bdry", "sing", "const")
                if kind != "bdry" and mode == CONTOUR:
                    # a factor reduced to the rewrite constant, which vanishes here
                    assert want == ES(), (i, j)
                    continue
                atom = ES(F(1))
                for k in orders:
                    atom = atom * phi_deriv_zero(p, k, mode)
                assert atom.scale(poly_coeffs(coeff)[0]) == want, (i, j)


@pytest.mark.parametrize("p", [F(7, 2), 3.0, 2], ids=["7_2", "3.0", "2"])
def test_moment_symbol_refuses_bad_p(p):
    with pytest.raises(UsageError, match="integer p >= 3"):
        reduce_moment(MomentSymbol(1, 1, 0, p), F(0))


ATOM_KINDS = {"bdry", "irr", "sing", "const", "omega", "zdiv"}


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_rule_links_are_product_symbols(p):
    """Over the closure of the genus-2 grade symbols, rule links only ('M', n, b, c)
    nodes, each with a monomial coefficient c a^j given as the pair (c, j)."""
    roots = {("M", sym.n, sym.b, sym.c) for _, _, sym in grade_contributions(p, 2)}
    for engine in (MomentEngine, MirrorEngine):
        eng = engine(p)
        seen, stack = set(), list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            links, rhs = eng.rule(node)
            for (c, j), nxt in links:
                assert nxt[0] == "M" and len(nxt) == 4, (engine, node, nxt)
                assert isinstance(c, (int, F)) and c and isinstance(j, int), (node, c, j)
                stack.append(nxt)
            assert {atom[0] for atom in rhs} <= ATOM_KINDS, (engine, node)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
def test_every_cycle_is_a_ring(p):
    """Each component the solver receives is a lone symbol or a ring of p+1 symbols.

    Every ring member links once into it, and the link monomials multiply
    to -a^p (library orientation) or -a^-p (mirrored), so the ring's pivot is
    1 + a^{+-p}.
    """
    g_max = 4 if p == 3 else 2
    closing = {MomentEngine: (-1, p), MirrorEngine: (-1, -p)}

    components = []  # each one as {member: its links into the component}

    for engine in (MomentEngine, MirrorEngine):

        class RecordingEngine(engine):
            def _solve_component(self, comp, edges):
                members = set(comp)
                components.append(
                    {n: [(c, nxt) for c, nxt in edges[n][0] if nxt in members] for n in comp}
                )
                super()._solve_component(comp, edges)

        components.clear()
        eng = RecordingEngine(p)
        for g in range(1, g_max + 1):
            for _, _, sym in grade_contributions(p, g):
                eng.reduce(sym)
        rings = [comp for comp in components if any(comp.values())]
        assert rings, engine
        for comp in rings:
            assert len(comp) == p + 1, (engine, comp)
            assert all(len(links) == 1 for links in comp.values()), (engine, comp)
            product, head = (1, 0), next(iter(comp))
            node = head
            for _ in comp:
                (c, j), node = comp[node][0]
                product = (product[0] * c, product[1] + j)
            assert node == head, (engine, comp)
            assert product == closing[engine], (engine, comp)


@pytest.mark.parametrize("p", range(3, 13))
def test_single_kernel_moment_closed_form(p):
    """int y^m phi(y) dy = (-1)^m (m-1)! phi^{(p-1-m)}(0) + scaleless terms, 1 <= m <= p-1.

    The small-a two-point route uses this closed form in place of the engine.
    """
    from math import factorial

    engine = MomentEngine(p)
    for m in range(1, p):
        got = {atom: c for atom, c in engine.reduce_single(1, m, 0).items() if atom[0] != "zdiv"}
        assert got == {("sing", p - 1 - m): CycloA(p, {0: (-1) ** m * factorial(m - 1)})}, m


def test_library_path_has_no_general_product(monkeypatch):
    """Grade assembly and the airy-quad reductions never multiply two CycloA values.

    Every engine multiplier is a monomial c a^j (``CycloA.times_monomial``);
    a general product would bring back a trial division per step.  CycloA has
    no product operator, so one put back on the library path meets ``refuse``.
    """
    from pspin import moments, twopoint
    from pspin.cli import _AIRY_QUAD_SYMBOLS

    def refuse(self, other):
        raise AssertionError(f"general CycloA product on the library path: {self} * {other}")

    monkeypatch.setattr(CycloA, "__mul__", refuse, raising=False)
    monkeypatch.setattr(CycloA, "__rmul__", refuse, raising=False)
    moments._engine.cache_clear()
    twopoint._assembled_grade.cache_clear()
    for p, g in [(3, 4), (4, 3), (5, 2)]:
        two_point_grade(p, g)
    for n, b, c in _AIRY_QUAD_SYMBOLS:
        reduce_moment(MomentSymbol(n, b, c, 3), F(0))


class ZeroConstantEngine(MomentEngine):
    """The c0 = 0 rules: a single-factor integral and a boundary factor that
    reduces to the rewrite constant both vanish."""

    def reduce_single(self, side, n, d):
        return {}

    def _bdry_vector(self, i, j):
        return {atom: c for atom, c in super()._bdry_vector(i, j).items() if atom[0] == "bdry"}


def test_zero_constant_is_the_constant_sector_dropped():
    """c0 multiplies only terminal atoms, so reducing at c0 = 1 and dropping the
    rewrite-constant sector gives the c0 = 0 engine's vector, key order included."""
    from pspin.cli import _AIRY_QUAD_SYMBOLS

    roots = {(p, (sym.n, sym.b, sym.c)) for p in range(3, 9) for g in (1, 2)
             for _, _, sym in grade_contributions(p, g)}
    assert len(roots) == 63
    roots |= {(3, nbc) for nbc in _AIRY_QUAD_SYMBOLS}  # 6 of the 18 are grade roots
    assert len(roots) == 75
    engines = {p: ZeroConstantEngine(p) for p in range(3, 9)}
    for p, nbc in sorted(roots):
        sym = MomentSymbol(*nbc, p)
        want = engines[p].reduce(sym)
        assert list(reduce_moment(sym, 0).items()) == list(want.items()), (p, nbc)
        assert mirror_reduce(sym, 0) == want, (p, nbc)  # another graph, another key order


@pytest.mark.parametrize("c0", [F(1, 2), 2, -1])
def test_reduce_moment_refuses_other_rewrite_constants(c0):
    with pytest.raises(UsageError, match="rewrite constant must be 0 or 1"):
        reduce_moment(MomentSymbol(1, 2, 0, 3), c0)


def test_one_engine_and_grade_per_p_for_both_modes():
    # the contour tables reuse the real engine and grades
    from pspin import moments, twopoint
    from pspin.correlators import two_point_table

    moments._engine.cache_clear()
    twopoint._assembled_grade.cache_clear()
    for p in (3, 4, 5):
        for mode in (REAL, CONTOUR):
            two_point_table(p, 2, mode)
    assert moments._engine.cache_info().currsize == 3
    assert twopoint._assembled_grade.cache_info().currsize == 6
