"""Term-rewriting reduction of Airy product moments.

A product symbol M(n, b, c) stands for the (possibly formal) integral

    int_0^inf y^n phi^{(b)}(y) phi^{(c)}(-a y) dy

with a treated as a formal variable.  Repeated use of the derivative rewrite
phi^{(p-1)}(y) = y phi(y) + c0 together with integration by parts (boundary
terms at infinity set to zero by regularization) reduces every such symbol to

* boundary products  phi^{(i)}(0) phi^{(j)}(0)  with coefficients in Q(a),
* irreducible cross terms T_c = int phi(y) phi^{(c)}(-a y) dy,
* rewrite-constant leftovers (single-factor integrals), tracked separately;
  c0 multiplies only these terminal atoms, so c0 = 0 is c0 = 1 without them.

The graph of product symbols has cycles, and solving them is what produces
the characteristic (1 + a^p) denominators.  Every multiplier a rule applies
is a monomial c a^j, carried as the pair (c, j); every stored coefficient is
a ``CycloA``, N(a)/(1+a^p)^m.  Each cycle is a ring of p+1 symbols, each
linking once into it, whose links must multiply to -a^p (-a^-p when
mirrored).  One pass of Tarjan's SCC algorithm builds the graph as it walks
it (every other part of a rewrite step is resolved at once) and solves each
ring exactly, by walking it once, as soon as the pass closes it; any other
component raises ReductionCycleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .airy import reduce_order_at_zero
from .exact import CycloA, DomainError, ExactScalar, UsageError

# graph nodes
#   ('M', n, b, c)           product symbol
# resolved atom kinds
#   ('bdry', i, j)           phi^{(i)}(0) phi^{(j)}(0), i <= j
#   ('irr', c)               T_c = M(0, 0, c), irreducible cross term
#   ('sing', i)              phi^{(i)}(0) single factor (rewrite-constant sector)
#   ('const',)               unit atom: both boundary factors reduced to the constant
#   ('omega',)               int_0^inf phi(z) dz, irreducible single factor
#   ('zdiv', k)              int_0^inf y^k dy, scaleless leftover

Atom = tuple
Node = tuple
Mono = tuple[Fraction, int]  # (c, j) stands for the multiplier c a^j
Links = list[tuple[Mono, Node]]


class ReductionCycleError(RuntimeError):
    """Degenerate rewrite cycle; carries the offending trace."""


class CancellationError(AssertionError):
    """An irreducible or constant-sector coefficient failed to cancel."""

    def __init__(self, message: str, residues: dict):
        super().__init__(message)
        self.residues = residues


@dataclass(frozen=True)
class MomentSymbol:
    """Canonical key of a product moment integral."""

    n: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        if self.n < 0 or self.b < 0 or self.c < 0:
            raise UsageError("moment symbol indices must be >= 0")
        if not isinstance(self.p, int) or self.p < 3:
            raise UsageError("moment symbol needs integer p >= 3")


def _vec_add(dst: dict, src: dict, mono: Mono) -> None:
    c, j = mono  # dst += c a^j src; entries that cancel are removed
    for k, v in src.items():
        cur = dst.get(k)
        nv = v.times_monomial(c, j) if cur is None else cur + v.times_monomial(c, j)
        if nv:
            dst[k] = nv
        elif cur is not None:
            del dst[k]


def _scaled(src: dict, mono: Mono) -> dict:
    out: dict = {}
    _vec_add(out, src, mono)
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
        self._s_memo: dict[Node, dict[Atom, CycloA]] = {}

    # -- single-factor reduction (acyclic) ----------------------------------

    def reduce_single(self, side: int, n: int, d: int) -> dict[Atom, CycloA]:
        """Reduce int y^n phi^{(d)}(y) dy (side 1) or ... phi^{(d)}(-a y) dy (side 2).

        Integration by parts lowers any d >= 1; the callers pass d <= p-1.
        """
        key = ("S", side, n, d)
        hit = self._s_memo.get(key)
        if hit is not None:
            return hit
        p, one = self.p, self._one
        out: dict[Atom, CycloA] = {}
        if d >= 1:
            if n == 0:
                out[("sing", d - 1)] = CycloA(p, {0: -1} if side == 1 else {-1: 1})
            else:
                prev = self.reduce_single(side, n - 1, d - 1)
                _vec_add(out, prev, (-n, 0) if side == 1 else (n, -1))
        elif n >= 1:
            # y phi = phi^{(p-1)} - 1 (side 1); y phi(-ay) = -(phi^{(p-1)}(-ay) - 1)/a
            prev = self.reduce_single(side, n - 1, p - 1)
            _vec_add(out, prev, (1, 0) if side == 1 else (-1, -1))
            _vec_add(out, {("zdiv", n - 1): one}, (-1, 0) if side == 1 else (1, -1))
        else:
            out[("omega",)] = CycloA.var(p, 0 if side == 1 else -1)
        self._s_memo[key] = out
        return out

    # -- product-symbol rewrite rules ----------------------------------------

    def rule(self, node: Node) -> tuple[Links, dict[Atom, CycloA]]:
        """One rewrite step: (links, rhs).

        links are the ((c, j), ('M', n, b, c)) pairs that stay in the rewrite
        graph, each coefficient the monomial c a^j; rhs is the step's
        already-resolved atom vector (single-factor reductions, boundary
        products and T_c atoms), a fresh dict on every call.
        """
        _, n, b, c = node
        p = self.p
        if b >= p:  # derivative rewrite, side 1 (k >= 1)
            k = b - (p - 1)
            return [((k, 0), ("M", n, k - 1, c)), ((1, 0), ("M", n + 1, k, c))], {}
        if c >= p:  # derivative rewrite, side 2 (k >= 1)
            k = c - (p - 1)
            return [((k, 0), ("M", n, b, k - 1)), ((-1, 1), ("M", n + 1, b, k))], {}
        if c == p - 1 and b == 0:
            # phi^{(p-1)}(-ay) = -a y phi(-ay) + 1
            return [((-1, 1), ("M", n + 1, 0, 0))], dict(self.reduce_single(1, n, 0))
        if b >= 1:  # integrate the side-1 factor by parts
            if n == 0:
                links, rhs = [], _scaled(self._bdry_vector(b - 1, c), (-1, 0))
            else:
                links, rhs = [((-n, 0), ("M", n - 1, b - 1, c))], {}
            links.append(((1, 1), ("M", n, b - 1, c + 1)))
            return links, rhs
        if n >= 1:  # b == 0: raise through y phi = phi^{(p-1)} - 1
            rhs = _scaled(self.reduce_single(2, n - 1, c), (-1, 0))
            return [((1, 0), ("M", n - 1, p - 1, c))], rhs
        return [], {("irr", c): self._one}

    # -- closure + SCC solve ---------------------------------------------------

    def reduce(self, sym: MomentSymbol) -> dict[Atom, CycloA]:
        """Fixed point of sym as an atom vector (the engine's memo entry; read only)."""
        if sym.p != self.p:
            raise UsageError("symbol p does not match engine p")
        return self._reduce_node(("M", sym.n, sym.b, sym.c))

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

    def _reduce_node(self, root: Node) -> dict[Atom, CycloA]:
        """Tarjan's SCC pass over the unreduced product symbols reachable from root.

        rule() runs on a symbol's first visit.  Tarjan closes components in
        reverse topological order and each is solved as it closes, so every
        link leaving a component is memoized by then, and a symbol that is
        seen but not yet memoized is on Tarjan's stack.
        """
        memo = self._memo
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

        A lone symbol keeps its rhs.  A cycle must be a ring, each member
        linking once into it: X_i = r_i + c_i X_{i+1}, closing at the head X_0.
        One walk gives X_0 (1 - c_0...c_{k-1}) = sum_i c_0...c_{i-1} r_i, and
        the other members follow backwards.  Closing at -a^p (-a^-p) gives the
        pivot 1 + a^p (a^-p (1 + a^p)).  A second link into the component, or
        any other closing, raises ReductionCycleError.
        """
        ring: dict[Node, tuple[Mono, Node]] = {}
        for node in comp:
            links, rhs = edges[node]
            for coeff, nxt in links:
                if nxt in self._memo:  # every link leaving the component
                    _vec_add(rhs, self._memo[nxt], coeff)
                elif node in ring:
                    raise ReductionCycleError(f"{node} links twice into its cycle")
                else:
                    ring[node] = (coeff, nxt)
        head = comp[-1]
        if not ring:
            self._memo[head] = edges[head][1]
            return
        walk: list[Node] = []
        total: dict[Atom, CycloA] = {}
        c, j, node = 1, 0, head
        for _ in comp:
            walk.append(node)
            _vec_add(total, edges[node][1], (c, j))
            (ci, ji), node = ring[node]
            c, j = c * ci, j + ji
        if (c, abs(j)) != (-1, self.p):
            pivot = self._one - CycloA(self.p, {j: c})
            raise ReductionCycleError(f"degenerate cycle through {head}: pivot {pivot}")
        shift = self.p if j < 0 else 0
        self._memo[head] = {k: v.times_monomial(1, shift).times_cyclo(-1) for k, v in total.items()}
        for node in reversed(walk[1:]):
            coeff, nxt = ring[node]
            rhs = edges[node][1]
            _vec_add(rhs, self._memo[nxt], coeff)
            self._memo[node] = rhs


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
    af = Fraction(a).limit_denominator(10**12) if not isinstance(a, Fraction) else a
    return float(coeff.eval(af))


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


@dataclass
class AssembledGrade:
    """One total-degree grade of a two-point expansion, exact in a.

    boundary: (i, j) -> {a-power: Fraction} multiplying phi^{(i)}(0) phi^{(j)}(0)
    constants: atom -> {a-power: Fraction} rewrite-constant sector (empty at c0 = 0)
    prefactor: the grade's common ExactScalar, for display; the contribution
    weights are relative to it
    """

    boundary: dict[tuple[int, int], dict[int, Fraction]]
    constants: dict[Atom, dict[int, Fraction]]
    prefactor: ExactScalar


def combine_contributions(
    contributions: list[tuple[Fraction, int, MomentSymbol]],
) -> dict[Atom, CycloA]:
    """Reduce and sum contributions at c0 = 1; returns the CycloA atom vector.

    A contribution (w, k, M(n, b, c)) stands for
    w * a^k * (1+a^p)^{n-1} * M(n, b, c), a two-point expansion term of
    hyperbolic sine order n, with the Fraction w relative to the grade's
    common scalar.  The weights w * a^k are summed per symbol, so every
    distinct symbol is reduced once; each coefficient of its vector takes
    (1+a^p)^{n-1} as a shift of its denominator power
    (``CycloA.times_cyclo``), and the vector is scaled by each monomial
    ratio * a^k of the summed weight.  A symbol whose
    weights sum to zero is still reduced, so a degenerate rewrite cycle
    raises ReductionCycleError.

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
    acc: dict[Atom, CycloA] = {}
    for sym, w in weights.items():
        vec = reduce_moment(sym)
        vec = {atom: c.times_cyclo(sym.n - 1) for atom, c in vec.items()}
        for a_pow, ratio in w.items():
            _vec_add(acc, vec, (ratio, a_pow))
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
