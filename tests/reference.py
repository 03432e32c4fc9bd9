"""Independent reference routes that only the tests use.

``MirrorEngine`` reduces product moments with the mirrored (side-2) rule
orientation: it integrates the phi^{(c)}(-a y) factor by parts and raises
c = 0 through y phi(-ay) = -(phi^{(p-1)}(-ay) - 1)/a, so its rewrite rings
close at -a^-p where the library's close at -a^p.  The two orientations walk
different graphs, so agreement of their fixed points is a confluence check.
Like the library engine it reduces at c0 = 1 and projects to c0 = 0.

``ref_pair_weight`` derives a two-point pair weight by multiplying the
boundary values and spin factors as ``ExactScalar`` tokens and testing the
product for rationality, where the library decides it on integers.  Its
CalibrationError renders the irrational leftover; the library's names the
integers instead, so the two messages agree up to the pair.

``cyclo_mul`` and ``cyclo_add`` are the general ``CycloA`` product and sum,
which the library leaves out: its engine multiplies only by monomials and
sums whole vectors at once (``moments._vec_sum``).
"""

from fractions import Fraction
from functools import lru_cache

from pspin.airy import phi_deriv_zero
from pspin.density import bernoulli_std
from pspin.exact import CycloA, ExactScalar, LaurentP
from pspin.moments import MomentEngine, MomentSymbol, _at_rewrite_constant, _vec_sum, reduce_moment
from pspin.twopoint import CalibrationError, grade_monomial


class MirrorEngine(MomentEngine):
    """The library engine with the side-2 rules below the derivative rewrites."""

    def rule(self, node):
        _, n, b, c = node
        p = self.p
        if b >= p or c >= p:
            return super().rule(node)
        if b == p - 1 and c == 0:
            # phi^{(p-1)}(y) = y phi(y) + 1
            return [((1, 0), ("M", n + 1, 0, 0))], dict(self.reduce_single(2, n, 0))
        if c >= 1:  # integrate the side-2 factor by parts
            if n == 0:
                links, rhs = [], _vec_sum(p, [(1, -1, 0, self._bdry_vector(b, c - 1))])
            else:
                links, rhs = [((n, -1), ("M", n - 1, b, c - 1))], {}
            links.append(((1, -1), ("M", n, b + 1, c - 1)))
            return links, rhs
        if n >= 1:  # c == 0: raise through y phi(-ay) = -(phi^{(p-1)}(-ay) - 1)/a
            rhs = _vec_sum(p, [(1, -1, 0, self.reduce_single(1, n - 1, b))])
            return [((-1, -1), ("M", n - 1, b, p - 1))], rhs
        if b >= 1:
            # normalize mirror irreducibles M(0,b,0) into the library's T basis
            return [], dict(reduce_moment(MomentSymbol(0, b, 0, p)))
        return [], {("irr", 0): self._one}


@lru_cache(maxsize=None)
def _mirror_engine(p: int) -> MirrorEngine:
    return MirrorEngine(p)


def mirror_reduce(sym: MomentSymbol, ode_constant=1) -> dict:
    """``reduce_moment`` through the mirrored orientation (memoized per p)."""
    return _at_rewrite_constant(_mirror_engine(sym.p).reduce(sym), ode_constant)


def cyclo_mul(x: CycloA, y) -> CycloA:
    """x * y for CycloA values, or x scaled by a rational y."""
    if not isinstance(y, CycloA):
        return x.times_monomial(Fraction(y))
    return CycloA(x.p, x.num * y.num, x.m + y.m)


def cyclo_add(x: CycloA, y: CycloA) -> CycloA:
    """x + y for CycloA values of one p, over the larger (1+a^p) power."""
    assert x.p == y.p
    lift = LaurentP({0: 1, x.p: 1})
    m = max(x.m, y.m)
    return CycloA(x.p, x.num * lift ** (m - x.m) + y.num * lift ** (m - y.m), m)


def zeta_one_minus_2g(g: int) -> Fraction:
    """Exact zeta(1-2g) = -B_{2g}/(2g) for g >= 1: -1/12, 1/120, -1/252, ..."""
    return -bernoulli_std(2 * g) / (2 * g)


@lru_cache(maxsize=None)
def _ref_grade_unit(p: int, g: int, m: int) -> ExactScalar:
    """p^(2g/p+1-g) / prod_f Gamma(1-f/p) over the a^m grade's slots f (spin j = f-1)."""
    w = ExactScalar.rational_power(p, Fraction(2 * g, p) + 1 - g)
    for _, f in grade_monomial(p, g, m).slots:
        w = w * ExactScalar.gamma(1 - Fraction(f, p), -1)
    return w


@lru_cache(maxsize=None)
def _ref_boundary_product(p: int, i: int, k: int) -> ExactScalar:
    """phi^(i)(0) phi^(k)(0), shared by every genus and a-power at p."""
    return phi_deriv_zero(p, i) * phi_deriv_zero(p, k)


def ref_pair_weight(p: int, g: int, m: int, i: int, k: int) -> Fraction:
    """``twopoint._pair_weight`` through ExactScalar products (same value or error).

    (-1)^g p^(2g/p+1-g) phi^(i)(0) phi^(k)(0) / prod_j Gamma(1-(1+j)/p) over
    the spins j of the a^m grade's monomial, or CalibrationError when the
    product keeps an irrational token.
    """
    w = _ref_grade_unit(p, g, m) * _ref_boundary_product(p, i, k)
    if w.surd != (0, (), ()):
        raise CalibrationError(
            f"non-rational residue after normalization at genus {g}, a^{m}, "
            f"pair {(i, k)}: {w.render()}"
        )
    return w.rational * (-1) ** g
