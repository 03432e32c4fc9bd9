"""Term-rewriting reduction of Airy product moments.

A product symbol M(n, b, c) stands for the (possibly formal) integral

    int_0^inf y^n phi^{(b)}(y) phi^{(c)}(-a y) dy

with a treated as a formal variable.  Repeated use of the derivative rewrite
phi^{(p-1)}(y) = y phi(y) + c0 together with integration by parts (boundary
terms at infinity set to zero by regularization) reduces every such symbol to

* boundary products  phi^{(i)}(0) phi^{(j)}(0)  with coefficients in Q(a),
* irreducible cross terms T_c = int phi(y) phi^{(c)}(-a y) dy,
* rewrite-constant leftovers (single-factor integrals, each unrolled in one
  loop), tracked separately; c0 multiplies only these terminal atoms, so
  c0 = 0 is c0 = 1 without them.

The product symbols, the only nodes of the rewrite graph, form cycles, and
solving them is what produces the characteristic (1 + a^p) denominators.
Every multiplier a rule applies is a monomial c a^j, carried as the pair
(c, j); every stored coefficient is a ``CycloA``, N(a)/(1+a^p)^m.  Each
cycle is a ring of p+1 symbols, each linking once into it, whose links must
multiply to -a^p (-a^-p when mirrored).  Rules only link nodes and name
atoms.  One pass of Tarjan's SCC algorithm builds the graph as it walks it
and solves each component exactly, a ring by walking it once, as soon as the
pass closes it; any other cycle raises ReductionCycleError.

Every sum of atom vectors is one ``_vec_sum``: each atom's numerators are
added as integers, per power of 1 + a^p, and cancelled once at the end.
Each memo entry and each grade is one such sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .airy import reduce_order_at_zero
from .exact import CycloA, DomainError, ExactScalar, LaurentP, UsageError, record_repr

# resolved atom kinds
#   ('bdry', i, j)           phi^{(i)}(0) phi^{(j)}(0), i <= j
#   ('irr', c)               T_c = M(0, 0, c), irreducible cross term
#   ('sing', i)              phi^{(i)}(0) single factor (rewrite-constant sector)
#   ('const',)               unit atom: both boundary factors reduced to the constant
#   ('omega',)               int_0^inf phi(z) dz, irreducible single factor
#   ('zdiv', k)              int_0^inf y^k dy, scaleless leftover

Atom = tuple
Node = tuple  # ('M', n, b, c): the product symbol M(n, b, c), the only graph node
Mono = tuple[Fraction, int]  # (c, j) stands for the multiplier c a^j
Links = list[tuple[Mono, Node]]
Term = tuple  # (c, j, k, vec) stands for c a^j (1+a^p)^k times the atom vector vec


class ReductionCycleError(RuntimeError):
    """Degenerate rewrite cycle; carries the offending trace."""


class CancellationError(AssertionError):
    """An irreducible or constant-sector coefficient failed to cancel."""

    def __init__(self, message: str, residues: dict):
        super().__init__(message)
        self.residues = residues


class MomentSymbol:
    """Canonical key of a product moment integral; immutable by convention."""

    __slots__ = ("n", "b", "c", "p")

    def __init__(self, n: int, b: int, c: int, p: int):
        if n < 0 or b < 0 or c < 0:
            raise UsageError("moment symbol indices must be >= 0")
        if not isinstance(p, int) or p < 3:
            raise UsageError("moment symbol needs integer p >= 3")
        self.n, self.b, self.c, self.p = n, b, c, p

    def __eq__(self, other):
        if other.__class__ is not MomentSymbol:
            return NotImplemented
        return (self.n, self.b, self.c, self.p) == (other.n, other.b, other.c, other.p)

    def __hash__(self):
        return hash((self.n, self.b, self.c, self.p))

    __repr__ = record_repr


def _vec_sum(p: int, terms: list[Term]) -> dict[Atom, CycloA]:
    """sum of c a^j (1+a^p)^k vec over the (c, j, k, vec) terms, one CycloA per atom.

    Each atom's numerators are summed as integers over a running lcm
    denominator, one sum per power of 1 + a^p, with no product and no trial
    division.  Horner's rule in 1 + a^p then lifts the powers to the top one,
    each step a shift and an add, and the CycloA constructor cancels once.
    Atoms keep the order in which a term with c != 0 first brings them, and
    those that sum to zero are dropped.
    """
    sums: dict[Atom, dict] = {}
    for c, j, k, vec in terms:
        if not c:
            continue
        cn, cd = c.numerator, c.denominator
        for atom, v in vec.items():
            levels = sums.get(atom)
            if levels is None:
                levels = sums[atom] = {}
            num, m = v.num, v.m - k
            den = num.den * cd
            level = levels.get(m)
            if level is None:
                levels[m] = [{e + j: n * cn for e, n in num.nums.items()}, den]
                continue
            acc, lden = level
            if lden % den:
                s = den // math.gcd(lden, den)
                for e in acc:
                    acc[e] *= s
                level[1] = lden = lden * s
            s = cn * (lden // den)
            for e, n in num.nums.items():
                acc[e + j] = acc.get(e + j, 0) + n * s
    out: dict[Atom, CycloA] = {}
    for atom, got in sums.items():
        den = math.lcm(*(d for _, d in got.values()))
        top = max(0, *got)
        nums: dict[int, int] = {}
        for m in range(min(got), top + 1):
            for e, n in list(nums.items()):  # nums *= 1 + a^p
                nums[e + p] = nums.get(e + p, 0) + n
            level = got.get(m)
            if level is not None:
                s = den // level[1]
                for e, n in level[0].items():
                    nums[e] = nums.get(e, 0) + n * s
        nums = {e: nums[e] for e in sorted(nums) if nums[e]}  # ascending a-powers
        if nums:
            out[atom] = CycloA(p, LaurentP._reduced(nums, den), top)
    return out


class MomentEngine:
    """Shared reduction engine for one p, at the rewrite constant c0 = 1.

    Below the derivative rewrites, the rules integrate the side-1 factor
    phi^{(b)}(y) by parts and raise b = 0 through y phi = phi^{(p-1)} - 1,
    so every irreducible cross term lands on T_c = M(0, 0, c).
    """

    def __init__(self, p: int):
        self.p = p
        self._one = CycloA.var(p, 0)
        self._memo: dict[Node, dict[Atom, CycloA]] = {}

    # -- rewrite rules ---------------------------------------------------------

    def rule(self, node: Node) -> tuple[Links, dict[Atom, CycloA]]:
        """One rewrite step: (links, rhs).

        links are the ((c, j), node) pairs into the rewrite graph, each
        coefficient the monomial c a^j and each node a product symbol; rhs
        names the step's terminal atoms, read only.
        """
        _, n, b, c = node
        p = self.p
        if b >= p:  # derivative rewrite, side 1 (k >= 1)
            k = b - (p - 1)
            return [((k, 0), ("M", n, k - 1, c)), ((1, 0), ("M", n + 1, k, c))], {}
        if c >= p:  # derivative rewrite, side 2 (k >= 1)
            k = c - (p - 1)
            return [((k, 0), ("M", n, b, k - 1)), ((-1, 1), ("M", n + 1, b, k))], {}
        if c == p - 1 and b == 0:  # phi^{(p-1)}(-ay) = -a y phi(-ay) + 1
            return [((-1, 1), ("M", n + 1, 0, 0))], self._single(1, n, 0)
        if b >= 1:  # integrate the side-1 factor by parts
            up = ((1, 1), ("M", n, b - 1, c + 1))
            if n:
                return [((-n, 0), ("M", n - 1, b - 1, c)), up], {}
            bdry = self._bdry_vector(b - 1, c)
            return [up], {atom: v.times_monomial(Fraction(-1)) for atom, v in bdry.items()}
        if n >= 1:  # b == 0: raise through y phi = phi^{(p-1)} - 1
            return [((1, 0), ("M", n - 1, p - 1, c))], self._single(2, n - 1, c, -1)
        return [], {("irr", c): self._one}

    def _single(self, side: int, n: int, d: int, c: int = 1, e: int = 0) -> dict[Atom, CycloA]:
        """c a^e int y^n phi^{(d)}(y) dy (side 1), or of phi^{(d)}(-a y) (side 2), in one
        loop of steps s a^j (1, or -1/a on side 2), deepest atom first.  No memo:
        each call serves one product symbol, which the rewrite graph memoizes."""
        s, j, atoms = (1, 0, []) if side == 1 else (-1, -1, [])
        while n:  # c a^e multiplies int y^n phi^{(d)}
            e += j
            if d:  # integrate by parts
                c, n, d = -s * n * c, n - 1, d - 1
            else:  # y phi = phi^{(p-1)} - 1, whose -1 leaves int y^{n-1} dy
                atoms.append((("zdiv", n - 1), -s * c, e))
                c, n, d = s * c, n - 1, self.p - 1
        atoms.append((("sing", d - 1), -s * c, e + j) if d else (("omega",), c, e + j))
        return {atom: self._one.times_monomial(c, e) for atom, c, e in reversed(atoms)}

    def _bdry_vector(self, i: int, j: int) -> dict[Atom, CycloA]:
        """Canonical form of a boundary product phi^{(i)}(0) phi^{(j)}(0).

        Each index >= p-1 is reduced at zero; reducing them keeps the atom
        basis independent, which is what makes different rule orders land on
        literally identical fixed points.  A factor that reduces to the
        rewrite constant moves the product to the constant sector: ('sing', k)
        for one such factor, ('const',) for two.
        """
        mi, oi = reduce_order_at_zero(self.p, i)
        mj, oj = reduce_order_at_zero(self.p, j)
        scale = Fraction(mi * mj)
        orders = sorted(o for o in (oi, oj) if o is not None)
        kind = "bdry" if len(orders) == 2 else "sing" if orders else "const"
        return {(kind, *orders): self._one.times_monomial(scale)}

    # -- closure + SCC solve ---------------------------------------------------

    def reduce(self, sym: MomentSymbol) -> dict[Atom, CycloA]:
        """Fixed point of sym as an atom vector (the engine's memo entry; read only).

        One Tarjan SCC pass over the unreduced nodes reachable from sym.
        rule() runs on a node's first visit.  Tarjan closes components in
        reverse topological order and each is solved as it closes, so every
        link leaving a component is memoized by then, and a node that is
        seen but not yet memoized is on Tarjan's stack.
        """
        if sym.p != self.p:
            raise UsageError("symbol p does not match engine p")
        root, memo = ("M", sym.n, sym.b, sym.c), self._memo
        hit = memo.get(root)
        if hit is not None:
            return hit
        edges: dict[Node, tuple[Links, dict[Atom, CycloA]]] = {}
        index: dict[Node, int] = {}
        low: dict[Node, int] = {}
        stack: list[Node] = []

        def visit(node: Node):
            if len(index) >= 200000:
                raise ReductionCycleError(f"closure from {root} exceeds bound")
            index[node] = low[node] = len(index)
            stack.append(node)
            links, _ = edges[node] = self.rule(node)
            return node, iter(links)

        work = [visit(root)]
        while work:
            node, it = work[-1]
            for _, nxt in it:
                if nxt in memo:
                    continue
                if nxt not in index:
                    work.append(visit(nxt))
                    break
                low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    self._solve_component(comp, edges)
        return memo[root]

    def _solve_component(self, comp: list[Node], edges: dict) -> None:
        """Memoize one SCC, given as Tarjan pops it (its first-visited head last).

        A lone node is the sum of its rhs and its links.  A cycle must be a
        ring, each member linking once into it: X_i = r_i + c_i X_{i+1},
        closing at the head X_0.  One walk gives
        X_0 (1 - c_0...c_{k-1}) = sum_i c_0...c_{i-1} r_i, and the other
        members follow backwards.  Closing at -a^p (-a^-p) gives the pivot
        1 + a^p (a^-p (1 + a^p)).  A second link into the component, or any
        other closing, raises ReductionCycleError.  Each memo entry is one
        ``_vec_sum`` over the terms it collects.
        """
        p, memo = self.p, self._memo
        ring: dict[Node, tuple[Mono, Node]] = {}
        own: dict[Node, list] = {}  # r_i: the rhs and every link leaving the component
        for node in comp:
            links, rhs = edges.pop(node)
            terms = own[node] = [(1, 0, 0, rhs)]
            for (c, j), nxt in links:
                if nxt in memo:
                    terms.append((c, j, 0, memo[nxt]))
                elif node in ring:
                    raise ReductionCycleError(f"{node} links twice into its cycle")
                else:
                    ring[node] = ((c, j), nxt)
        head = comp[-1]
        if not ring:
            memo[head] = _vec_sum(p, own[head])
            return
        walk: list[tuple[Node, int, int]] = []  # (member, c_0...c_{i-1} as (c, j))
        c, j, node = 1, 0, head
        for _ in comp:
            walk.append((node, c, j))
            (ci, ji), node = ring[node]
            c, j = c * ci, j + ji
        if (c, abs(j)) != (-1, p):
            pivot = CycloA(p, {0: 1, j: -c} if j else {0: 1 - c})
            raise ReductionCycleError(f"degenerate cycle through {head}: pivot {pivot}")
        shift = p if j < 0 else 0  # a^-p (1 + a^p): shift the sum by a^p
        memo[head] = _vec_sum(p, [(c * ci, j + ji + shift, -1, vec) for node, c, j in walk
                                  for ci, ji, _, vec in own[node]])
        for node, _, _ in reversed(walk[1:]):
            (c, j), nxt = ring[node]
            memo[node] = _vec_sum(p, own[node] + [(c, j, 0, memo[nxt])])


@lru_cache(maxsize=None)
def _engine(p: int) -> MomentEngine:
    return MomentEngine(p)


def reduce_moment(sym: MomentSymbol, ode_constant=1) -> dict[Atom, CycloA]:
    """Reduce one moment symbol under phi^{(p-1)} = y phi + c0 with c0 = ode_constant.

    c0 = 1 returns the engine's memo entry (read only), c0 = 0 a fresh dict
    of its 'bdry' and 'irr' atoms in the same order; any other c0 raises
    UsageError.  One engine per p serves both.
    """
    return _at_rewrite_constant(_engine(sym.p).reduce(sym), ode_constant)


def _at_rewrite_constant(vec: dict[Atom, CycloA], c0) -> dict[Atom, CycloA]:
    if c0 not in (0, 1):
        raise UsageError(f"rewrite constant must be 0 or 1, got {c0}")
    return vec if c0 else {atom: coeff for atom, coeff in vec.items() if atom[0] in ("bdry", "irr")}


def eval_coefficient(coeff: CycloA, a: float) -> float:
    """Numeric value of a coefficient at a real point, exact up to one rounding."""
    return float(coeff.eval(Fraction(a)))


def reduction_numeric(
    vec: dict[Atom, CycloA],
    a: float,
    boundary_values: dict[int, float],
    irreducible_values: dict[int, float],
) -> float:
    """Numeric value of a reduced moment given boundary and cross-term data.

    Only ('bdry', i, j) and ('irr', c) atoms have values here; any other atom
    raises UsageError.  Boundary products are summed before cross terms.
    """
    if any(atom[0] not in ("bdry", "irr") for atom in vec):
        raise UsageError("numeric evaluation expects a constant-free reduction")
    total = 0.0
    for (kind, *idx), coeff in vec.items():
        if kind == "bdry":
            i, j = idx
            total += eval_coefficient(coeff, a) * boundary_values[i] * boundary_values[j]
    for (kind, *idx), coeff in vec.items():
        if kind == "irr":
            total += eval_coefficient(coeff, a) * irreducible_values[idx[0]]
    return total


def poly_coeffs(coeff: CycloA, allow_negative: bool = False) -> dict[int, Fraction]:
    """Exact a-power coefficients of a coefficient without a (1+a^p) denominator."""
    if coeff.m:
        raise DomainError(f"not a Laurent polynomial in a: {coeff}")
    if not allow_negative and any(e < 0 for e in coeff.num.nums):
        raise DomainError(f"negative a-power in {coeff}")
    return coeff.num.coeffs


# ---------------------------------------------------------------------------
# grade assembly
# ---------------------------------------------------------------------------


class AssembledGrade:
    """One total-degree grade of a two-point expansion, exact in a.

    boundary: (i, j) -> {a-power: Fraction} multiplying phi^{(i)}(0) phi^{(j)}(0)
    constants: atom -> {a-power: Fraction} rewrite-constant sector (empty at c0 = 0)
    prefactor: the grade's common ExactScalar, for display; the contribution
    weights are relative to it
    """

    __slots__ = ("boundary", "constants", "prefactor")

    def __init__(self, boundary: dict, constants: dict, prefactor: ExactScalar):
        self.boundary, self.constants, self.prefactor = boundary, constants, prefactor

    def __eq__(self, other):
        if other.__class__ is not AssembledGrade:
            return NotImplemented
        return (self.boundary, self.constants, self.prefactor) == (
            other.boundary, other.constants, other.prefactor
        )


def combine_contributions(
    contributions: list[tuple[Fraction, int, MomentSymbol]],
) -> dict[Atom, CycloA]:
    """Reduce and sum contributions at c0 = 1; returns the CycloA atom vector.

    A contribution (w, k, M(n, b, c)) stands for
    w * a^k * (1+a^p)^{n-1} * M(n, b, c), a two-point expansion term of
    hyperbolic sine order n, with the Fraction w relative to the grade's
    common scalar.  The weights w * a^k are summed per symbol, so every
    distinct symbol is reduced once, and the grade is one ``_vec_sum`` of a
    term ratio * a^k * (1+a^p)^{n-1} per a-power of each summed weight; the
    sinh factor only lowers the (1+a^p) power its numerators are summed at.
    A symbol whose weights sum to zero is still reduced, so a degenerate
    rewrite cycle raises ReductionCycleError.

    Every irreducible cross-term coefficient must cancel identically as a
    rational function of a; a nonzero residue raises CancellationError with
    the offending coefficients.
    """
    if not contributions:
        raise UsageError("empty grade")
    if len({sym.p for _, _, sym in contributions}) != 1:
        raise UsageError("mixed p in one grade")
    weights: dict[MomentSymbol, dict[int, Fraction]] = {}
    for weight, a_pow, sym in contributions:
        w = weights.setdefault(sym, {})
        w[a_pow] = w.get(a_pow, Fraction(0)) + weight
    terms = []
    for sym, w in weights.items():
        vec = reduce_moment(sym)
        terms.extend((ratio, a_pow, sym.n - 1, vec) for a_pow, ratio in w.items())
    acc = _vec_sum(contributions[0][2].p, terms)
    residues = {rest[0]: coeff for (kind, *rest), coeff in acc.items() if kind == "irr"}
    if residues:
        raise CancellationError(
            f"irreducible cross terms did not cancel: {sorted(residues)}", residues
        )
    return acc


def assemble_grade(
    contributions: list[tuple[Fraction, int, MomentSymbol]],
    prefactor: ExactScalar,
) -> AssembledGrade:
    """Full grade assembly at c0 = 1: cancellation checked, boundary part polynomial.

    The prefactor is the grade's common scalar; it is stored, never read.
    At c0 = 0 the grade is the same without its constants.
    """
    acc = combine_contributions(contributions)
    boundary: dict[tuple[int, int], dict[int, Fraction]] = {}
    constants: dict[Atom, dict[int, Fraction]] = {}
    for atom, coeff in acc.items():
        if atom[0] == "bdry":  # each (i, j) pair is one atom of the vector
            boundary[(atom[1], atom[2])] = poly_coeffs(coeff)
        else:
            constants[atom] = poly_coeffs(coeff, allow_negative=True)
    return AssembledGrade(boundary, constants, prefactor)
