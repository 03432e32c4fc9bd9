"""Term-rewriting reduction of Airy product moments.

A product symbol M(n, b, c) stands for the (possibly formal) integral

    int_0^inf y^n phi^{(b)}(y) phi^{(c)}(-a y) dy

with a treated as a formal variable.  Repeated use of the derivative rewrite
phi^{(p-1)}(y) = y phi(y) + c0 together with integration by parts (boundary
terms at infinity set to zero by regularization) reduces every such symbol to

* boundary products  phi^{(i)}(0) phi^{(j)}(0)  with coefficients in Q(a),
* irreducible cross terms T_c = int phi(y) phi^{(c)}(-a y) dy,
* rewrite-constant leftovers (single-factor integrals), tracked separately.

The graph of product symbols has cycles, and solving them is what produces
the characteristic (1 + a^p) denominators.  Each cycle is a ring of p+1
symbols, each linking once into it, whose link coefficients multiply to -a^p.
One pass of Tarjan's SCC algorithm builds the graph as it walks it (every
other part of a rewrite step is resolved at once) and solves each ring
exactly, by walking it once, as soon as the pass closes it.  Every
coefficient is a ``CycloA``, N(a)/(1+a^p)^m; a component that is not a
ring, or whose pivot is not c a^j (1+a^p)^i, raises ReductionCycleError.
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
Links = list[tuple[CycloA, Node]]


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
        if self.p < 3:
            raise UsageError("moment symbol needs p >= 3")


def _vec_add(dst: dict, src: dict, scale) -> None:
    for k, v in src.items():
        cur = dst.get(k)
        nv = v * scale if cur is None else cur + v * scale
        if nv:
            dst[k] = nv
        elif cur is not None:
            del dst[k]


def _scaled(src: dict, scale) -> dict:
    out: dict = {}
    _vec_add(out, src, scale)
    return out


class MomentEngine:
    """Shared reduction engine for one (p, rewrite constant).

    Below the derivative rewrites, the rules integrate the side-1 factor
    phi^{(b)}(y) by parts and raise b = 0 through y phi = phi^{(p-1)} - c0,
    so every irreducible cross term lands on T_c = M(0, 0, c).
    """

    def __init__(self, p: int, ode_constant: Fraction = Fraction(1)):
        self.p = p
        self.c0 = Fraction(ode_constant)
        self._one = CycloA.var(p, 0)
        self._a = CycloA.var(p)
        self._inv_a = CycloA.var(p, -1)
        self._memo: dict[Node, dict[Atom, CycloA]] = {}
        self._s_memo: dict[Node, dict[Atom, CycloA]] = {}

    # -- single-factor reduction (acyclic) ----------------------------------

    def reduce_single(self, side: int, n: int, d: int) -> dict[Atom, CycloA]:
        """Reduce int y^n phi^{(d)}(y) dy (side 1) or ... phi^{(d)}(-a y) dy (side 2)."""
        key = ("S", side, n, d)
        hit = self._s_memo.get(key)
        if hit is not None:
            return hit
        p, c0, one, inv_a = self.p, self.c0, self._one, self._inv_a
        out: dict[Atom, CycloA] = {}
        if d >= p:
            k = d - (p - 1)
            _vec_add(out, self.reduce_single(side, n, k - 1), one * k)
            tail = self.reduce_single(side, n + 1, k)
            _vec_add(out, tail, one if side == 1 else -self._a)
        elif d >= 1:
            if n == 0:
                out[("sing", d - 1)] = -one if side == 1 else inv_a
            else:
                prev = self.reduce_single(side, n - 1, d - 1)
                _vec_add(out, prev, one * -n if side == 1 else inv_a * n)
        elif n >= 1:
            # y phi = phi^{(p-1)} - c0 (side 1); y phi(-ay) = -(phi^{(p-1)}(-ay) - c0)/a
            prev = self.reduce_single(side, n - 1, p - 1)
            _vec_add(out, prev, one if side == 1 else -inv_a)
            if c0:
                zc = one * -c0 if side == 1 else inv_a * c0
                _vec_add(out, {("zdiv", n - 1): zc}, one)
        else:
            out[("omega",)] = one if side == 1 else inv_a
        self._s_memo[key] = out
        return out

    # -- product-symbol rewrite rules ----------------------------------------

    def rule(self, node: Node) -> tuple[Links, dict[Atom, CycloA]]:
        """One rewrite step: (links, rhs).

        links are the (CycloA coefficient, ('M', n, b, c)) pairs that stay in
        the rewrite graph; rhs is the step's already-resolved atom vector
        (single-factor reductions, boundary products and T_c atoms), a fresh
        dict on every call.
        """
        _, n, b, c = node
        p, c0, one, a = self.p, self.c0, self._one, self._a
        if b >= p:  # derivative rewrite, side 1 (k >= 1)
            k = b - (p - 1)
            return [(one * k, ("M", n, k - 1, c)), (one, ("M", n + 1, k, c))], {}
        if c >= p:  # derivative rewrite, side 2 (k >= 1)
            k = c - (p - 1)
            return [(one * k, ("M", n, b, k - 1)), (-a, ("M", n + 1, b, k))], {}
        if c == p - 1 and b == 0:
            # phi^{(p-1)}(-ay) = -a y phi(-ay) + c0
            rhs = _scaled(self.reduce_single(1, n, 0), one * c0) if c0 else {}
            return [(-a, ("M", n + 1, 0, 0))], rhs
        if b >= 1:  # integrate the side-1 factor by parts
            if n == 0:
                links, rhs = [], _scaled(self._bdry_vector(b - 1, c), -one)
            else:
                links, rhs = [(one * -n, ("M", n - 1, b - 1, c))], {}
            links.append((a, ("M", n, b - 1, c + 1)))
            return links, rhs
        if n >= 1:  # b == 0: raise through y phi = phi^{(p-1)} - c0
            rhs = _scaled(self.reduce_single(2, n - 1, c), one * -c0) if c0 else {}
            return [(one, ("M", n - 1, p - 1, c))], rhs
        return [], {("irr", c): one}

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
        scale = self._one * (mi * mj)
        orders = sorted(o for o in (oi, oj) if o is not None)
        if len(orders) == 2:
            return {("bdry", *orders): scale}
        if not self.c0:
            return {}
        scale = scale * self.c0 ** (2 - len(orders))
        return {("sing", *orders) if orders else ("const",): scale}

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
        the other members follow backwards.  A second link into the component,
        or a pivot 1 - c_0...c_{k-1} outside c a^j (1+a^p)^i (zero included),
        raises ReductionCycleError.
        """
        ring: dict[Node, tuple[CycloA, Node]] = {}
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
        prod, node = self._one, head
        for _ in comp:
            walk.append(node)
            _vec_add(total, edges[node][1], prod)
            coeff, node = ring[node]
            prod = prod * coeff
        try:
            inv = (self._one - prod).inverse()
        except DomainError as exc:
            raise ReductionCycleError(f"degenerate cycle through {head}: {exc}") from exc
        self._memo[head] = _scaled(total, inv)
        for node in reversed(walk[1:]):
            coeff, nxt = ring[node]
            rhs = edges[node][1]
            _vec_add(rhs, self._memo[nxt], coeff)
            self._memo[node] = rhs


@lru_cache(maxsize=None)
def _engine(p: int, c0: Fraction) -> MomentEngine:
    return MomentEngine(p, c0)


def reduce_moment(sym: MomentSymbol, ode_constant: Fraction = Fraction(1)) -> dict[Atom, CycloA]:
    """Reduce one moment symbol to its fixed-point atom vector (memoized per engine; read only)."""
    return _engine(sym.p, Fraction(ode_constant)).reduce(sym)


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
    constants: atom -> {a-power: Fraction} rewrite-constant sector
    prefactor: common ExactScalar (pure p-power) for the whole grade
    """

    boundary: dict[tuple[int, int], dict[int, Fraction]]
    constants: dict[Atom, dict[int, Fraction]]
    prefactor: ExactScalar


def combine_contributions(
    contributions: list[tuple[ExactScalar, int, MomentSymbol]],
    ode_constant: Fraction = Fraction(1),
) -> tuple[dict[Atom, CycloA], ExactScalar]:
    """Reduce and sum contributions; returns (CycloA atom vector, unit).

    A contribution (scalar, k, M(n, b, c)) stands for
    scalar * a^k * (1+a^p)^{n-1} * M(n, b, c), a two-point expansion term of
    hyperbolic sine order n.  The weights a^k * (scalar / unit) are summed
    per symbol, so every distinct symbol is reduced once; each coefficient
    of its vector takes (1+a^p)^{n-1} as a shift of its denominator power
    (``CycloA.times_cyclo``) and is scaled once by the summed weight.  A
    symbol whose weights sum to zero is still reduced, so a degenerate
    rewrite cycle raises ReductionCycleError either way.

    Every irreducible cross-term coefficient must cancel identically as a
    rational function of a; a nonzero residue raises CancellationError with
    the offending coefficients.
    """
    if not contributions:
        raise UsageError("empty grade")
    if len({sym.p for _, _, sym in contributions}) != 1:
        raise UsageError("mixed p in one grade")
    unit = contributions[0][0]
    weights: dict[MomentSymbol, dict[int, Fraction]] = {}
    for scalar, a_pow, sym in contributions:
        ratio = scalar.proportional_ratio(unit)
        if ratio is None:
            raise UsageError(f"contribution scalar {scalar} not proportional to grade unit {unit}")
        w = weights.setdefault(sym, {})
        w[a_pow] = w.get(a_pow, Fraction(0)) + ratio
    acc: dict[Atom, CycloA] = {}
    for sym, w in weights.items():
        vec = reduce_moment(sym, ode_constant).items()
        _vec_add(acc, {atom: c.times_cyclo(sym.n - 1) for atom, c in vec}, CycloA(sym.p, w))
    residues = {rest[0]: coeff for (kind, *rest), coeff in acc.items() if kind == "irr"}
    if residues:
        raise CancellationError(
            f"irreducible cross terms did not cancel: {sorted(residues)}", residues
        )
    return acc, unit


def assemble_grade(
    contributions: list[tuple[ExactScalar, int, MomentSymbol]],
    ode_constant: Fraction = Fraction(1),
) -> AssembledGrade:
    """Full grade assembly: cancellation checked, boundary part polynomial."""
    acc, unit = combine_contributions(contributions, ode_constant)
    boundary: dict[tuple[int, int], dict[int, Fraction]] = {}
    constants: dict[Atom, dict[int, Fraction]] = {}
    for atom, coeff in acc.items():
        if atom[0] == "bdry":  # each (i, j) pair is one atom of the vector
            boundary[(atom[1], atom[2])] = poly_coeffs(coeff)
        else:
            constants[atom] = poly_coeffs(coeff, allow_negative=True)
    return AssembledGrade(boundary, constants, unit)
