"""Two-point correlator expansion U(s1, s2) in fractional powers.

The rescaled integral representation

    U(s1,s2) ~ 2/((s1+s2)(p s2)^{1/p}) * int_0^inf dx sh((s1+s2)/2 (p s1)^{1/p} x)
               * Phi_1(x) * Phi_2(-a x),        a = (s1/s2)^{1/p}

with deformed kernels Phi_i = int dv exp(-v^p/p + (+-)x v - sum_r g_r eps_r(s_i) v^{p-2r}),
g_r = p(p-1)...(p-2r+1) / ((2r+1)! 4^r),  eps_r(s) = p^{2r/p-1} s^{2r(1+1/p)},
is expanded term by term.  At genus g (total degree 2g(1+1/p)) the hyperbolic
sine order l and the total deformation level rho are tied by l = 2(g-rho)+1,
and every term is a product moment M(l, D1, D2) with derivative orders
D_i = sum_r k_r (p-2r) from the deformation multi-indices.

Kernel normalization carries sqrt(p) per phi factor (one factor p per grade),
and every boundary value phi^{(k)}(0) is the real-kernel moment; the
oscillatory p=3 normalization would rescale each factor and is not used, so
one calibration constant works across all p.  Nothing here takes a kernel
mode: a contour grade would be the real one without its rewrite-constant
sector, which never reaches an extractable grade.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .airy import reduce_order_at_zero
from .exact import ExactScalar, LaurentP, Monomial, UsageError
from .moments import AssembledGrade, CancellationError, MomentSymbol, assemble_grade


@lru_cache(maxsize=None)
def binomial_tail_coefficient(r: int) -> LaurentP:
    """g_r(p) = p(p-1)...(p-2r+1) / ((2r+1)! 4^r) from the binomial expansion."""
    g_r = LaurentP.const(Fraction(1, factorial(2 * r + 1) * 4**r))
    for t in range(2 * r):
        g_r = g_r * LaurentP({1: 1, 0: -t})
    return g_r


@lru_cache(maxsize=None)
def tail_power(K: int, n: int) -> LaurentP:
    """[y^n] T(y)^K / K! with T(y) = -sum_{r>=1} g_r(p) y^r, exact in p.

    Built by the recurrence T^K/K! = (T * T^{K-1}/(K-1)!) / K, one
    ``LaurentP.dot`` per coefficient; it vanishes for n < K because T starts
    at y^1.
    """
    if K == 0:
        return LaurentP.const(1 if n == 0 else 0)
    pairs = ((binomial_tail_coefficient(r), tail_power(K - 1, n - r)) for r in range(1, n - K + 2))
    return LaurentP.dot(pairs).scale(Fraction(-1, K))


@lru_cache(maxsize=None)
def _side_terms(p: int, rho: int) -> tuple[tuple[Fraction, int, int], ...]:
    """Deformation expansion of one kernel at level rho: (coeff, K, D) triples.

    K counts the deformation insertions and D = sum_r k_r (p - 2r) = K p - 2 rho
    their derivative order; multi-indices with the same K share D, so their
    coefficients are summed in ``tail_power``.  At integer p the terms with
    r > p//2 drop out by themselves: g_r(p) = 0 there.
    """
    out = []
    for K in range(rho + 1):
        coeff = tail_power(K, rho).eval(p)
        if coeff:
            out.append((coeff, K, K * p - 2 * rho))
    return tuple(out)


def _grade_unit(g: int) -> Fraction:
    """Rational part of u_g = p^(2g/p) / (4^g (2g+1)!), the grade's leading-term scalar."""
    return Fraction(1, 4**g * factorial(2 * g + 1))


def _grade_terms(p: int, g: int, a_max: int | None = None):
    """Expansion terms at genus g: (weight w, a0, moment symbol M(l, D1, D2)).

    A term stands for w * u_g * a^a0 * (1+a^p)^{l-1} * M(l, D1, D2), with the
    hyperbolic sine order l = 2(g - rho) + 1 and u_g = p^(2g/p) / (4^g (2g+1)!)
    the scalar of the leading term (rho = 0, l = 2g+1), whose w is 1.  Every
    term carries p^(2g/p), so w = 4^rho (2g+1)!/l! * c1 c2 / p^(K1+K2) is a
    Fraction; grade assembly applies the factor.  Terms with a0 > a_max are
    skipped.
    """
    for rho in range(g + 1):
        l = 2 * (g - rho) + 1
        sinh_ratio = Fraction(4**rho * factorial(2 * g + 1), factorial(l))
        for rho1 in range(rho + 1):
            a0 = l + 2 * rho1 * (p + 1)
            if a_max is not None and a0 > a_max:
                break  # a0 grows with rho1
            rho2 = rho - rho1
            for c1, k1, d1 in _side_terms(p, rho1):
                for c2, k2, d2 in _side_terms(p, rho2):
                    w = sinh_ratio * c1 * c2 / p ** (k1 + k2)
                    yield w, a0, MomentSymbol(l, d1, d2, p)


def grade_contributions(p: int, g: int) -> list[tuple[Fraction, int, MomentSymbol]]:
    """All (weight, a-power, moment symbol) contributions at genus g, as _grade_terms."""
    return list(_grade_terms(p, g)) if g >= 1 else []


def _check_p(p: int) -> None:  # every two-point route refuses p up front unless integer >= 3
    if not isinstance(p, int) or p < 3:
        raise UsageError("two-point expansion needs integer p >= 3")


def _check_grade(p: int, g: int) -> None:  # every per-grade route also refuses g < 1
    _check_p(p)
    if g < 1:
        raise UsageError("genus must be >= 1")


@lru_cache(maxsize=None)
def _assembled_grade(p: int, g: int) -> AssembledGrade:
    prefactor = ExactScalar.rational_power(p, Fraction(2 * g, p)).scale(_grade_unit(g))
    return assemble_grade(grade_contributions(p, g), prefactor)


def two_point_grade(p: int, g: int) -> AssembledGrade:
    """Assembled genus-g grade at c0 = 1; raises CancellationError on a T-type residue.

    Assembled once per (p, g).  The arguments are checked before the cache
    lookup, since the cache treats 3.0 and 3 as one key.
    """
    _check_grade(p, g)
    return _assembled_grade(p, g)


two_point_grade.cache_info = _assembled_grade.cache_info


def grade_monomial(p: int, g: int, m: int) -> Monomial | None:
    """Monomial s1^(m/p) s2^(2g + (2g-m)/p) when both slots are fractional."""
    f1 = m % p
    f2 = (2 * g - m) % p
    if f1 == 0 or f2 == 0:
        return None
    e2_num = 2 * g * p + (2 * g - m)  # p * exponent of s2
    if m < 0 or e2_num < 0:
        return None
    return Monomial(((m // p, f1), ((e2_num - f2) // p, f2)))


class CalibrationError(ArithmeticError):
    """A grade coefficient failed to normalize to a pure rational."""


@lru_cache(maxsize=None)
def _pair_weight(p: int, g: int, m: int, i: int, k: int) -> Fraction:
    """One boundary product's share of <tau tau>_g / kappa_2, a Fraction:

    (-1)^g p^(2g/p+1-g) phi^(i)(0) phi^(k)(0) / prod_j Gamma(1-(1+j)/p),
    with j the spins of the a^m grade's monomial.  A grade term
    r p^(2g/p) a^m phi^(i)(0) phi^(k)(0), times the kernels' factor p
    (sqrt(p) each), contributes r times this weight: the extraction divides
    by p^g and the spin factors, and (-1)^g tracks the contour phase per
    genus unit.

    Decided on integers.  With (mult, o) = ``reduce_order_at_zero`` for each
    order, phi^(i)(0) = mult p^((o+1)/p-1) Gamma((o+1)/p), and the spin
    factors are Gamma(1 - f/p) for the monomial's slots f1 = m mod p and
    f2 = (2g-m) mod p.  The opaque Gamma tokens cancel exactly when both
    orders exist and {o_i+1, o_k+1} = {p-f1, p-f2}; then the weight is
    (-1)^g mult_i mult_k p^E with E = (2g+2p-f1-f2)/p - 1 - g, an integer
    because f1 + f2 = 2g (mod p).  Any other pair leaves an irrational
    residue and raises CalibrationError naming the integers that decided it,
    the orders (o_i, o_k) and the slots (f1, f2).
    """
    mult_i, o_i = reduce_order_at_zero(p, i)
    mult_k, o_k = reduce_order_at_zero(p, k)
    f1, f2 = m % p, (2 * g - m) % p
    if o_i is None or o_k is None or sorted((o_i + 1, o_k + 1)) != sorted((p - f1, p - f2)):
        raise CalibrationError(
            f"non-rational residue after normalization at genus {g}, a^{m}, "
            f"pair {(i, k)}: boundary orders {(o_i, o_k)}, spin slots {(f1, f2)}"
        )
    e = (2 * g + 2 * p - f1 - f2) // p - 1 - g
    return (-1) ** g * mult_i * mult_k * Fraction(p) ** e


def two_point_series(p: int, g_max: int) -> dict[int, dict[int, Fraction]]:
    """Exact two-point expansion through genus g_max: {g: {m: <tau tau>_g / kappa_2}}.

    m runs over the extractable a-powers of each grade (``grade_monomial``),
    the shape ``two_point_low_orders`` returns for one grade; zero entries
    are dropped.  Each boundary entry is normalized by ``_pair_weight``,
    which raises CalibrationError on an irrational leftover.  Boundary
    products must stay off the discarded grades and rewrite-constant
    leftovers out of doubly-fractional ones, which makes the series the
    same in both kernel modes; a violation raises CancellationError (this
    is a verified property, not an assumption).  A (p, g_max) past the
    route's cost bound is a UsageError.
    """
    _check_p(p)
    # cost bound (in process, 2 vCPUs): genus 2 took 0.38/1.6/3.2 s at p=50/100/150, and
    # genus 1 0.42/1.7/7.9 s at p=100/200/400; the small-a route has no bound
    if p > 100:
        raise UsageError("exact-in-a route supports p <= 100")
    if g_max > 3 or (g_max > 2 and p > 3):
        raise UsageError("exact-in-a route supports g<=3 at p=3, g<=2 for p>=4")
    series: dict[int, dict[int, Fraction]] = {}
    for g in range(1, g_max + 1):
        grade = two_point_grade(p, g)
        for pair, poly in grade.boundary.items():
            bad = {m: v for m, v in poly.items() if grade_monomial(p, g, m) is None}
            if bad:
                raise CancellationError(
                    f"boundary residue on discarded grades at genus {g}: {pair} -> {bad}",
                    {pair: bad},
                )
        for atom, poly in grade.constants.items():
            bad = {m: v for m, v in poly.items() if grade_monomial(p, g, m) is not None}
            if bad:
                raise CancellationError(
                    f"rewrite-constant residue on extractable grades at genus {g}: "
                    f"{atom} -> {bad}",
                    {atom: bad},
                )
        unit = _grade_unit(g)
        coeffs: dict[int, Fraction] = {}
        for (i, k), poly in grade.boundary.items():
            for m, frac in poly.items():
                coeffs[m] = coeffs.get(m, 0) + unit * frac * _pair_weight(p, g, m, i, k)
        series[g] = {m: c for m, c in coeffs.items() if c}
    return series


# ---------------------------------------------------------------------------
# small-a route: Taylor expansion of the second kernel factor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _low_orders(p: int, g: int) -> dict[int, Fraction]:
    coeffs: dict[int, Fraction] = {}
    unit = _grade_unit(g)
    # below a^p only the constant term 1 of each term's (1+a^p)^{l-1} survives;
    # a0 <= p-1 forces rho1 = 0, so D1 = 0 and a0 = l
    for w, a0, sym in _grade_terms(p, g, p - 1):
        for m in range(a0, p):
            if grade_monomial(p, g, m) is None:
                continue
            t = m - a0
            # int y^m phi(y) dy = (-1)^m (m-1)! phi^{(p-1-m)}(0) for 1 <= m <= p-1
            part = unit * w * Fraction((-1) ** (t + m) * factorial(m - 1), factorial(t))
            coeffs[m] = coeffs.get(m, 0) + part * _pair_weight(p, g, m, sym.c + t, p - 1 - m)
    return {m: c for m, c in coeffs.items() if c}


def two_point_low_orders(p: int, g: int) -> dict[int, Fraction]:
    """<tau tau>_g / kappa_2 at every a^m with m < p, via the small-a expansion.

    The second factor is expanded as
    phi^{(D2)}(-a x) = sum_t (-a)^t/t! phi^{(D2+t)}(0) x^t.  Below a^p only
    terms with rho1 = 0 survive, so D1 = 0 and a0 = l, and the term t leaves
    int_0^inf y^m phi(y) dy with m = l + t in 1..p-1.  Through
    y phi = phi^{(p-1)} - c0 and m-1 integrations by parts that integral is
    (-1)^m (m-1)! phi^{(p-1-m)}(0) plus scaleless int y^k dy terms, which
    vanish under the scaling regularization this route uses.  No irreducible
    int phi dy arises (it would need m = 0 mod p), so the route needs neither
    the rewrite engine nor a residue check.  Valid term by term in a, so
    only below a^p, and much cheaper than the exact route for large p.

    The route uses the real kernel's moments and normalizes each term with
    ``_pair_weight``, as the exact route does.  Returns {m: value} for the
    extractable m with a nonzero value, cached once per (p, g) however the
    arguments are passed.
    """
    _check_grade(p, g)
    return dict(_low_orders(p, g))


two_point_low_orders.cache_info = _low_orders.cache_info
