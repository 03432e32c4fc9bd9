"""Independent reference routes that only the tests use.

``MirrorEngine`` reduces product moments with the mirrored (side-2) rule
orientation: it integrates the phi^{(c)}(-a y) factor by parts and raises
c = 0 through y phi(-ay) = -(phi^{(p-1)}(-ay) - c0)/a, so its rewrite rings
close at -a^-p where the library's close at -a^p.  The two orientations walk
different graphs, so agreement of their fixed points is a confluence check.
"""

from fractions import Fraction
from functools import lru_cache

from pspin.moments import MomentEngine, MomentSymbol, _scaled, reduce_moment
from pspin.numbers import bernoulli_std


class MirrorEngine(MomentEngine):
    """The library engine with the side-2 rules below the derivative rewrites."""

    def rule(self, node):
        _, n, b, c = node
        p, c0 = self.p, self.c0
        if b >= p or c >= p:
            return super().rule(node)
        if b == p - 1 and c == 0:
            # phi^{(p-1)}(y) = y phi(y) + c0
            rhs = _scaled(self.reduce_single(2, n, 0), (c0, 0)) if c0 else {}
            return [((1, 0), ("M", n + 1, 0, 0))], rhs
        if c >= 1:  # integrate the side-2 factor by parts
            if n == 0:
                links, rhs = [], _scaled(self._bdry_vector(b, c - 1), (1, -1))
            else:
                links, rhs = [((n, -1), ("M", n - 1, b, c - 1))], {}
            links.append(((1, -1), ("M", n, b + 1, c - 1)))
            return links, rhs
        if n >= 1:  # c == 0: raise through y phi(-ay) = -(phi^{(p-1)}(-ay) - c0)/a
            rhs = _scaled(self.reduce_single(1, n - 1, b), (c0, -1)) if c0 else {}
            return [((-1, -1), ("M", n - 1, b, p - 1))], rhs
        if b >= 1:
            # normalize mirror irreducibles M(0,b,0) into the library's T basis
            return [], dict(reduce_moment(MomentSymbol(0, b, 0, p), c0))
        return [], {("irr", 0): self._one}


@lru_cache(maxsize=None)
def _mirror_engine(p: int, c0: Fraction) -> MirrorEngine:
    return MirrorEngine(p, c0)


def mirror_reduce(sym: MomentSymbol, ode_constant: Fraction = Fraction(1)) -> dict:
    """``reduce_moment`` through the mirrored orientation (memoized per engine)."""
    return _mirror_engine(sym.p, Fraction(ode_constant)).reduce(sym)


def zeta_one_minus_2g(g: int) -> Fraction:
    """Exact zeta(1-2g) = -B_{2g}/(2g) for g >= 1: -1/12, 1/120, -1/252, ..."""
    return -bernoulli_std(2 * g) / (2 * g)
