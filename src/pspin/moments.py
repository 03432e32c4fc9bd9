"""Term-rewriting reduction of Airy product moments.

A product symbol M(n, b, c) stands for the (possibly formal) integral

    int_0^inf y^n phi^{(b)}(y) phi^{(c)}(-a y) dy

with a treated as a formal variable.  Repeated use of the derivative rewrite
phi^{(p-1)}(y) = y phi(y) + c0 together with integration by parts (boundary
terms at infinity set to zero by regularization) reduces every such symbol to

* boundary products  phi^{(i)}(0) phi^{(j)}(0)  with coefficients in Q(a),
* irreducible cross terms T_c = int phi(y) phi^{(c)}(-a y) dy,
* rewrite-constant leftovers (single-factor integrals), tracked separately.

The rewrite graph contains short cycles; those close through loops whose
linear solution is what produces the characteristic (1 + a^p) denominators.
Cycles are handled exactly: the reachable closure is built first, strongly
connected components are solved as small linear systems over Q(a) in reverse
topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Hashable

from .airy import reduce_order_at_zero
from .exact import A_VAR, _FIELD_A, DomainError, ExactScalar, UsageError, _from_qq, _to_qq

_ONE = _FIELD_A.one
_A = A_VAR

# successor node kinds
#   ('M', n, b, c)           product symbol
# resolved atom kinds
#   ('bdry', i, j)           phi^{(i)}(0) phi^{(j)}(0)
#   ('irr', c)               T_c = M(0, 0, c), irreducible cross term
#   ('sing', i)              phi^{(i)}(0) single factor (rewrite-constant sector)
#   ('omega',)               int_0^inf phi(z) dz, irreducible single factor
#   ('zdiv', k)              int_0^inf y^k dy, scaleless leftover

Atom = tuple
Node = tuple


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


@dataclass
class ReductionResult:
    """Fixed point of the rewrite system for one symbol (coefficients in Q(a))."""

    boundary_terms: dict[tuple[int, int], object] = field(default_factory=dict)
    irreducible_terms: dict[int, object] = field(default_factory=dict)
    ode_constant_terms: dict[Atom, object] = field(default_factory=dict)
    denominator_conforms: bool = True

    def as_vector(self) -> dict[Atom, object]:
        out: dict[Atom, object] = {}
        for (i, j), coeff in self.boundary_terms.items():
            out[("bdry", i, j)] = coeff
        for c, coeff in self.irreducible_terms.items():
            out[("irr", c)] = coeff
        out.update(self.ode_constant_terms)
        return out

    def render(self) -> str:
        lines = []
        for (i, j) in sorted(self.boundary_terms):
            lines.append(f"bdry phi^({i})(0)*phi^({j})(0): {self.boundary_terms[(i, j)]}")
        for c in sorted(self.irreducible_terms):
            lines.append(f"irr T_{c}: {self.irreducible_terms[c]}")
        for atom in sorted(self.ode_constant_terms, key=repr):
            lines.append(f"ode {atom}: {self.ode_constant_terms[atom]}")
        return "\n".join(lines) if lines else "0"


def _vec_add(dst: dict, src: dict, scale) -> None:
    for k, v in src.items():
        cur = dst.get(k)
        nv = v * scale if cur is None else cur + v * scale
        if nv:
            dst[k] = nv
        elif cur is not None:
            del dst[k]


class MomentEngine:
    """Shared reduction engine for one (p, rewrite constant, strategy)."""

    def __init__(self, p: int, ode_constant: Fraction = Fraction(1), strategy: str = "side1"):
        if strategy not in ("side1", "side2"):
            raise UsageError(f"unknown strategy {strategy!r}")
        self.p = p
        self.c0 = Fraction(ode_constant)
        self.strategy = strategy
        self._memo: dict[Node, dict[Atom, object]] = {}
        self._s_memo: dict[Node, dict[Atom, object]] = {}

    # -- single-factor reduction (acyclic) ----------------------------------

    def reduce_single(self, side: int, n: int, d: int) -> dict[Atom, object]:
        """Reduce int y^n phi^{(d)}(y) dy (side 1) or ... phi^{(d)}(-a y) dy (side 2)."""
        key = ("S", side, n, d)
        hit = self._s_memo.get(key)
        if hit is not None:
            return hit
        p, c0 = self.p, self.c0
        out: dict[Atom, object] = {}
        if d >= p:
            k = d - (p - 1)
            _vec_add(out, self.reduce_single(side, n, k - 1), _ONE * k)
            tail = self.reduce_single(side, n + 1, k)
            _vec_add(out, tail, _ONE if side == 1 else -_A)
        elif d >= 1:
            if n == 0:
                if side == 1:
                    out[("sing", d - 1)] = -_ONE
                else:
                    out[("sing", d - 1)] = _ONE / _A
            else:
                prev = self.reduce_single(side, n - 1, d - 1)
                _vec_add(out, prev, -_ONE * n if side == 1 else (_ONE * n) / _A)
        elif n >= 1:
            # y phi = phi^{(p-1)} - c0 (side 1); y phi(-ay) = -(phi^{(p-1)}(-ay) - c0)/a
            prev = self.reduce_single(side, n - 1, p - 1)
            _vec_add(out, prev, _ONE if side == 1 else -_ONE / _A)
            if c0:
                z = ("zdiv", n - 1)
                zc = _to_qq(-c0) * _ONE if side == 1 else _to_qq(c0) * _ONE / _A
                _vec_add(out, {z: zc}, _ONE)
        else:
            out[("omega",)] = _ONE if side == 1 else _ONE / _A
        self._s_memo[key] = out
        return out

    # -- product-symbol rewrite rules ----------------------------------------

    def rule(self, node: Node) -> list[tuple[object, Hashable]]:
        """One rewrite step: list of (Q(a) coefficient, successor node or atom).

        Successors tagged ('M', ...) stay in the rewrite graph; S-reductions
        and boundary atoms are resolved parts.
        """
        _, n, b, c = node
        p = self.p
        out: list[tuple[object, Hashable]] = []
        if b >= p:  # derivative rewrite, side 1 (k >= 1)
            k = b - (p - 1)
            out.append((_ONE * k, ("M", n, k - 1, c)))
            out.append((_ONE, ("M", n + 1, k, c)))
            return out
        if c >= p:  # derivative rewrite, side 2 (k >= 1)
            k = c - (p - 1)
            out.append((_ONE * k, ("M", n, b, k - 1)))
            out.append((-_A, ("M", n + 1, b, k)))
            return out
        if self.strategy == "side1":
            return self._rule_side1(n, b, c)
        return self._rule_side2(n, b, c)

    def _rule_side1(self, n: int, b: int, c: int) -> list:
        p, c0 = self.p, self.c0
        out: list = []
        if c == p - 1 and b == 0:
            # phi^{(p-1)}(-ay) = -a y phi(-ay) + c0
            out.append((-_A, ("M", n + 1, 0, 0)))
            if c0:
                out.append((_to_qq(c0) * _ONE, ("SINGLE", 1, n, 0)))
            return out
        if b >= 1:  # integrate the side-1 factor by parts
            if n == 0:
                out.append((-_ONE, ("bdry", b - 1, c)))
            else:
                out.append((-_ONE * n, ("M", n - 1, b - 1, c)))
            out.append((_A, ("M", n, b - 1, c + 1)))
            return out
        if n >= 1:  # b == 0: raise through y phi = phi^{(p-1)} - c0
            out.append((_ONE, ("M", n - 1, p - 1, c)))
            if c0:
                out.append((_to_qq(-c0) * _ONE, ("SINGLE", 2, n - 1, c)))
            return out
        out.append((_ONE, ("irr", c)))
        return out

    def _rule_side2(self, n: int, b: int, c: int) -> list:
        p, c0 = self.p, self.c0
        out: list = []
        if b == p - 1 and c == 0:
            # phi^{(p-1)}(y) = y phi(y) + c0
            out.append((_ONE, ("M", n + 1, 0, 0)))
            if c0:
                out.append((_to_qq(c0) * _ONE, ("SINGLE", 2, n, 0)))
            return out
        if c >= 1:  # integrate the side-2 factor by parts
            if n == 0:
                out.append((_ONE / _A, ("bdry", b, c - 1)))
            else:
                out.append(((_ONE * n) / _A, ("M", n - 1, b, c - 1)))
            out.append((_ONE / _A, ("M", n, b + 1, c - 1)))
            return out
        if n >= 1:  # c == 0: raise through y phi(-ay) = -(phi^{(p-1)}(-ay) - c0)/a
            out.append((-_ONE / _A, ("M", n - 1, b, p - 1)))
            if c0:
                out.append(((_to_qq(c0) * _ONE) / _A, ("SINGLE", 1, n - 1, b)))
            return out
        if b >= 1:
            # normalize mirror irreducibles M(0,b,0) into the T basis
            out.append((_ONE, ("MIRROR", b)))
            return out
        out.append((_ONE, ("irr", 0)))
        return out

    # -- closure + SCC solve ---------------------------------------------------

    def reduce(self, sym: MomentSymbol) -> ReductionResult:
        if sym.p != self.p:
            raise UsageError("symbol p does not match engine p")
        vec = self._reduce_node(("M", sym.n, sym.b, sym.c))
        res = ReductionResult()
        for atom, coeff in vec.items():
            if not coeff:
                continue
            if atom[0] == "bdry":
                # _bdry_vector emits every product with sorted indices (i <= j)
                res.boundary_terms[atom[1:]] = coeff
            elif atom[0] == "irr":
                res.irreducible_terms[atom[1]] = coeff
            else:
                res.ode_constant_terms[atom] = coeff
        res.denominator_conforms = all(
            _denominator_divides_cyclo(coeff, self.p)
            for coeff in res.boundary_terms.values()
        )
        return res

    def _resolve_part(self, succ: Hashable) -> dict[Atom, object] | None:
        """Resolved vector for non-graph successors; None if it is a graph node."""
        if succ[0] == "M":
            return None
        if succ[0] == "SINGLE":
            _, side, n, d = succ
            return self.reduce_single(side, n, d)
        if succ[0] == "MIRROR":
            b = succ[1]
            eng = _engine(self.p, self.c0, "side1")
            return eng._reduce_node(("M", 0, b, 0))
        if succ[0] == "bdry":
            return self._bdry_vector(succ[1], succ[2])
        return {succ: _ONE}

    def _bdry_vector(self, i: int, j: int) -> dict[Atom, object]:
        """Canonical form of a boundary product phi^{(i)}(0) phi^{(j)}(0).

        Each index >= p-1 is reduced at zero; reducing them keeps the atom
        basis independent, which is what makes different rule orders land on
        literally identical fixed points.  A factor that reduces to the
        rewrite constant moves the product to the constant sector: ('sing', k)
        for one such factor, ('const',) for two.
        """
        mi, oi = reduce_order_at_zero(self.p, i)
        mj, oj = reduce_order_at_zero(self.p, j)
        scale = _ONE * (mi * mj)
        orders = sorted(o for o in (oi, oj) if o is not None)
        if len(orders) == 2:
            return {("bdry", *orders): scale}
        if not self.c0:
            return {}
        scale = scale * _to_qq(self.c0) ** (2 - len(orders))
        return {("sing", *orders) if orders else ("const",): scale}

    def _reduce_node(self, root: Node) -> dict[Atom, object]:
        hit = self._memo.get(root)
        if hit is not None:
            return hit
        # build reachable closure of unreduced graph nodes
        edges: dict[Node, list[tuple[object, Hashable]]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node in edges or node in self._memo:
                continue
            succs = self.rule(node)
            edges[node] = succs
            if len(edges) > 200000:
                raise ReductionCycleError(f"closure from {root} exceeds bound")
            for _, succ in succs:
                if succ[0] == "M" and succ not in self._memo and succ not in edges:
                    stack.append(succ)
        # Tarjan SCC (iterative) over graph nodes
        order = _tarjan(edges, self._memo)
        # solve SCCs in reverse topological order
        for comp in order:
            self._solve_component(comp, edges)
        return self._memo[root]

    def _solve_component(self, comp: list[Node], edges: dict) -> None:
        idx = {node: i for i, node in enumerate(comp)}
        k = len(comp)
        # rows: coefficients over comp unknowns + resolved RHS vector
        rows: list[tuple[dict[int, object], dict[Atom, object]]] = []
        for node in comp:
            lin: dict[int, object] = {}
            rhs: dict[Atom, object] = {}
            for coeff, succ in edges[node]:
                if succ[0] == "M":
                    if succ in idx:
                        j = idx[succ]
                        lin[j] = lin.get(j, _FIELD_A.zero) + coeff
                        continue
                    part = self._memo[succ]
                else:
                    part = self._resolve_part(succ)
                _vec_add(rhs, part, coeff)
            rows.append((lin, rhs))
        if k == 1 and not rows[0][0]:
            self._memo[comp[0]] = rows[0][1]
            return
        # Gaussian elimination on (I - C) X = B over Q(a)
        mat = [
            {j: (_ONE if i == j else _FIELD_A.zero) - lin.get(j, _FIELD_A.zero) for j in range(k)}
            for i, (lin, _) in enumerate(rows)
        ]
        rhs = [dict(r) for _, r in rows]
        for col in range(k):
            piv = next((r for r in range(col, k) if mat[r][col]), None)
            if piv is None:
                raise ReductionCycleError(f"degenerate cycle through {comp[col]}")
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = _ONE / mat[col][col]
            for j in range(col, k):
                mat[col][j] = mat[col][j] * inv
            rhs[col] = {a: v * inv for a, v in rhs[col].items()}
            for r in range(k):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    for j in range(col, k):
                        mat[r][j] = mat[r][j] - f * mat[col][j]
                    _vec_add(rhs[r], rhs[col], -f)
        for i, node in enumerate(comp):
            self._memo[node] = {a: v for a, v in rhs[i].items() if v}


def _tarjan(edges: dict[Node, list], resolved: dict) -> list[list[Node]]:
    """SCCs of the node graph in reverse topological order (iterative Tarjan)."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    onstack: set[Node] = set()
    stack: list[Node] = []
    out: list[list[Node]] = []
    counter = [0]

    def succs(node):
        return [
            s
            for _, s in edges[node]
            if s[0] == "M" and s not in resolved
        ]

    for start in edges:
        if start in index:
            continue
        work = [(start, iter(succs(start)))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        onstack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    onstack.add(nxt)
                    work.append((nxt, iter(succs(nxt))))
                    advanced = True
                    break
                if nxt in onstack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


@lru_cache(maxsize=None)
def _engine(p: int, c0: Fraction, strategy: str) -> MomentEngine:
    return MomentEngine(p, c0, strategy)


def reduce_moment(
    sym: MomentSymbol, ode_constant: Fraction = Fraction(1), strategy: str = "side1"
) -> ReductionResult:
    """Reduce one moment symbol to its fixed point (memoized per engine)."""
    return _engine(sym.p, Fraction(ode_constant), strategy).reduce(sym)


def _denominator_divides_cyclo(coeff, p: int) -> bool:
    """True when every denominator factor divides a^k (1 + a^p)^m.

    Common factors between (1+a^p)-powers and the numerator are cancelled by
    the field arithmetic, so the check works factor-wise through gcds.
    """
    den = coeff.denom
    mod = ((_A**p + 1) * _A).numer
    for _ in range(256):
        if den.degree() == 0:
            return True
        g = den.gcd(mod)
        if g.degree() == 0:
            return False
        den = den.quo(g)
    return False


def eval_coefficient(coeff, a: float) -> float:
    """Numeric value of a Q(a) coefficient at a real point."""
    af = Fraction(a).limit_denominator(10**12) if not isinstance(a, Fraction) else a
    aq = _to_qq(af)
    num = coeff.numer.evaluate(0, aq)
    den = coeff.denom.evaluate(0, aq)
    if den == 0:
        raise DomainError(f"coefficient pole at a={a}")
    return float(Fraction(int(num.numerator), int(num.denominator))
                 / Fraction(int(den.numerator), int(den.denominator)))


def reduction_numeric(
    res: ReductionResult,
    a: float,
    boundary_values: dict[int, float],
    irreducible_values: dict[int, float],
) -> float:
    """Numeric value of a reduced moment given boundary and cross-term data."""
    total = 0.0
    for (i, j), coeff in res.boundary_terms.items():
        total += eval_coefficient(coeff, a) * boundary_values[i] * boundary_values[j]
    for c, coeff in res.irreducible_terms.items():
        total += eval_coefficient(coeff, a) * irreducible_values[c]
    if res.ode_constant_terms:
        raise UsageError("numeric evaluation expects a constant-free reduction")
    return total


def poly_coeffs(coeff, allow_negative: bool = False) -> dict[int, Fraction]:
    """Exact a-power coefficients of a Q(a) element with monomial denominator."""
    den = coeff.denom
    if len(den.terms()) != 1:
        raise DomainError(f"not a Laurent polynomial in a: {coeff}")
    (dexp,), dco = next(iter(den.terms()))
    out: dict[int, Fraction] = {}
    for (e,), c in coeff.numer.terms():
        power = e - dexp
        if power < 0 and not allow_negative:
            raise DomainError(f"negative a-power in {coeff}")
        out[power] = _from_qq(c) / _from_qq(dco)
    return out


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
    strategy: str = "side1",
) -> tuple[dict[Atom, object], ExactScalar]:
    """Reduce and sum contributions; returns (atom vector over Q(a), unit).

    Contributions are grouped by moment symbol first: each one's weight
    a^k * (scalar / unit) is summed per symbol as exact {k: Fraction}
    coefficients, so every distinct symbol is reduced once and its vector
    is scaled once by a single Q(a) polynomial.  (1+a^p)^{l-1} expands into
    l terms on the same symbol, which is what the grouping saves.  A symbol
    whose weights sum to zero is still reduced, so a degenerate rewrite
    cycle raises ReductionCycleError either way.

    Every irreducible cross-term coefficient must cancel identically as a
    rational function of a; a nonzero residue raises CancellationError with
    the offending coefficients.
    """
    if not contributions:
        raise UsageError("empty grade")
    ps = {sym.p for _, _, sym in contributions}
    if len(ps) != 1:
        raise UsageError("mixed p in one grade")
    unit = contributions[0][0]
    weights: dict[MomentSymbol, dict[int, Fraction]] = {}
    for scalar, a_pow, sym in contributions:
        ratio = scalar.proportional_ratio(unit)
        if ratio is None:
            raise UsageError(
                f"contribution scalar {scalar} not proportional to grade unit {unit}"
            )
        w = weights.setdefault(sym, {})
        w[a_pow] = w.get(a_pow, Fraction(0)) + ratio
    acc: dict[Atom, object] = {}
    for sym, w in weights.items():
        red = reduce_moment(sym, ode_constant, strategy)
        weight = sum((_A**e * _to_qq(c) for e, c in w.items()), _FIELD_A.zero)
        _vec_add(acc, red.as_vector(), weight)
    residues = {rest[0]: coeff for (kind, *rest), coeff in acc.items()
                if kind == "irr" and coeff}
    if residues:
        raise CancellationError(
            f"irreducible cross terms did not cancel: {sorted(residues)}", residues
        )
    return acc, unit


def assemble_grade(
    contributions: list[tuple[ExactScalar, int, MomentSymbol]],
    ode_constant: Fraction = Fraction(1),
    strategy: str = "side1",
) -> AssembledGrade:
    """Full grade assembly: cancellation checked, boundary part polynomial."""
    acc, unit = combine_contributions(contributions, ode_constant, strategy)
    boundary: dict[tuple[int, int], dict[int, Fraction]] = {}
    constants: dict[Atom, dict[int, Fraction]] = {}
    for atom, coeff in acc.items():
        if not coeff:
            continue
        if atom[0] == "bdry":
            dst = boundary.setdefault((atom[1], atom[2]), {})
            for e, v in poly_coeffs(coeff).items():
                nv = dst.get(e, Fraction(0)) + v
                if nv:
                    dst[e] = nv
                elif e in dst:
                    del dst[e]
        else:
            constants[atom] = poly_coeffs(coeff, allow_negative=True)
    boundary = {k: v for k, v in boundary.items() if v}
    constants = {k: v for k, v in constants.items() if v}
    return AssembledGrade(boundary, constants, unit)
