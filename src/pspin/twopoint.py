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

Kernel normalization carries sqrt(p) per phi factor (one factor p per grade);
this is what makes a single calibration constant work across all p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .airy import CONTOUR, REAL  # kernel modes re-exported
from .airy import mode_constant, phi_deriv_zero, reduce_order_at_zero
from .exact import ExactScalar, LaurentP, Monomial, UsageError
from .moments import (
    AssembledGrade,
    CancellationError,
    MomentSymbol,
    _engine,
    assemble_grade,
    poly_coeffs,
)

_ZERO = ExactScalar.zero()


def expansion_boundary_value(p: int, k: int, kernel_mode: str) -> ExactScalar:
    """Boundary value phi^{(k)}(0) in the expansion normalization.

    The expansion is normalized by the kernel moments p^{(k+1)/p-1}
    Gamma((k+1)/p) for every mode; the oscillatory p=3 normalization would
    re-scale each kernel factor and is deliberately not used here, so one
    calibration constant serves all p and both modes.  The mode enters only
    through the rewrite constant at order p-1.
    """
    _, order = reduce_order_at_zero(p, k)
    return phi_deriv_zero(p, k, kernel_mode if order is None else REAL)


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

    Built by the recurrence T^K/K! = (T * T^{K-1}/(K-1)!) / K; the
    coefficient vanishes for n < K because T starts at y^1.
    """
    if K == 0:
        return LaurentP.const(1 if n == 0 else 0)
    total = LaurentP()
    for r in range(1, n - K + 2):
        total = total - binomial_tail_coefficient(r) * tail_power(K - 1, n - r)
    return total.scale(Fraction(1, K))


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


def _grade_terms(p: int, g: int, a_max: int | None = None):
    """Expansion terms at genus g: (base scalar, a0, moment symbol M(l, D1, D2)).

    A term stands for base * a^a0 * (1+a^p)^{l-1} * M(l, D1, D2), with the
    hyperbolic sine order l = 2(g - rho) + 1; grade assembly applies the
    factor.  Terms with a0 > a_max are skipped before their scalars are built.
    """
    for rho in range(g + 1):
        l = 2 * (g - rho) + 1
        sinh_rational = Fraction(1, 2 ** (l - 1) * factorial(l))
        for rho1 in range(rho + 1):
            a0 = l + 2 * rho1 * (p + 1)
            if a_max is not None and a0 > a_max:
                break  # a0 grows with rho1
            rho2 = rho - rho1
            for c1, k1, d1 in _side_terms(p, rho1):
                for c2, k2, d2 in _side_terms(p, rho2):
                    base = ExactScalar.rational_power(p, Fraction(2 * g, p) - k1 - k2)
                    base = base.scale(sinh_rational * c1 * c2)
                    yield base, a0, MomentSymbol(l, d1, d2, p)


def grade_contributions(p: int, g: int) -> list[tuple[ExactScalar, int, MomentSymbol]]:
    """All (scalar, a-power, moment symbol) contributions at genus g, as _grade_terms."""
    return list(_grade_terms(p, g)) if g >= 1 else []


def _check_p(p: int) -> None:  # every two-point route refuses p up front unless integer >= 3
    if not isinstance(p, int) or p < 3:
        raise UsageError("two-point expansion needs integer p >= 3")


def _check_grade(p: int, g: int) -> None:  # every per-grade route also refuses g < 1
    _check_p(p)
    if g < 1:
        raise UsageError("genus must be >= 1")


@lru_cache(maxsize=None)
def _assembled_grade(p: int, g: int, kernel_mode: str) -> AssembledGrade:
    return assemble_grade(grade_contributions(p, g), mode_constant(kernel_mode))


def two_point_grade(p: int, g: int, kernel_mode: str = REAL) -> AssembledGrade:
    """Assembled genus-g grade; raises CancellationError on a T-type residue.

    Cached once per (p, g, kernel_mode), however the arguments are passed.
    """
    _check_grade(p, g)
    return _assembled_grade(p, g, kernel_mode)


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


@dataclass
class GradeLedger:
    """Non-extractable residues of one grade, kept for reporting."""

    discarded_boundary: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)
    constant_sector: dict[tuple, dict[int, Fraction]] = field(default_factory=dict)


def two_point_series(
    p: int,
    g_max: int,
    kernel_mode: str = REAL,
    ledgers: dict[int, GradeLedger] | None = None,
) -> dict[int, dict[int, ExactScalar]]:
    """Exact two-point expansion through genus g_max: {g: {m: coefficient}}.

    m runs over the extractable a-powers of each grade (``grade_monomial``),
    the shape ``two_point_low_orders`` returns for one grade.  Each coefficient
    is a single surd class; a second class raises UsageError.  Rewrite-constant
    leftovers must stay out of doubly-fractional grades; a violation raises
    CancellationError (this is a verified property, not an assumption).
    """
    _check_p(p)
    if g_max > 3 or (g_max > 2 and p > 3):
        # cost bound: genus 3 exact-in-a only at p=3; larger p goes through
        # the small-a route (two_point_low_orders)
        raise UsageError("exact-in-a route supports g<=3 at p=3, g<=2 for p>=4")
    series: dict[int, dict[int, ExactScalar]] = {}
    p_scalar = ExactScalar.from_fraction(p)  # sqrt(p) per kernel factor
    for g in range(1, g_max + 1):
        grade = two_point_grade(p, g, kernel_mode)
        ledger = GradeLedger()
        coeffs: dict[int, ExactScalar] = {}
        for (i, j), poly in grade.boundary.items():
            pair_value = (
                expansion_boundary_value(p, i, kernel_mode)
                * expansion_boundary_value(p, j, kernel_mode)
                * p_scalar
            )
            for m, frac in poly.items():
                coeff = grade.prefactor.scale(frac) * pair_value
                if grade_monomial(p, g, m) is None:
                    if coeff.rational:
                        ledger.discarded_boundary[(i, j, m)] = frac
                    continue
                coeffs[m] = coeffs.get(m, _ZERO) + coeff
        for atom, poly in grade.constants.items():
            bad = {m: v for m, v in poly.items() if grade_monomial(p, g, m) is not None}
            if bad:
                raise CancellationError(
                    f"rewrite-constant residue on extractable grades at genus {g}: "
                    f"{atom} -> {bad}",
                    {atom: bad},
                )
            ledger.constant_sector[atom] = poly
        series[g] = {m: c for m, c in coeffs.items() if c.rational}
        if ledgers is not None:
            ledgers[g] = ledger
    return series


# ---------------------------------------------------------------------------
# small-a route: Taylor expansion of the second kernel factor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _low_orders(p: int, g: int, kernel_mode: str) -> dict[int, ExactScalar]:
    eng = _engine(p, mode_constant(kernel_mode))
    p_scalar = ExactScalar.from_fraction(p)
    coeffs: dict[int, ExactScalar] = {}
    residues: dict[tuple, ExactScalar] = {}  # (atom, m, surd class) -> coefficient
    # below a^p only the constant term 1 of each term's (1+a^p)^{l-1} survives
    for base, a0, sym in _grade_terms(p, g, p - 1):
        for t in range(p - a0):
            taylor = Fraction((-1) ** t, factorial(t))
            term = base * expansion_boundary_value(p, sym.c + t, kernel_mode) * p_scalar
            for atom, coeff in eng.reduce_single(1, sym.n + t, sym.b).items():
                if atom[0] == "zdiv":
                    # scaleless int y^k dy: zero under the scaling
                    # regularization this route uses (the exact-in-a
                    # route keeps them and confines them to the
                    # discarded sectors; extractable output agrees)
                    continue
                scalar = term
                if atom[0] == "sing":
                    scalar = term * expansion_boundary_value(p, atom[1], kernel_mode)
                for shift, cf in poly_coeffs(coeff, allow_negative=True).items():
                    m = a0 + t + shift
                    if not 0 <= m < p or grade_monomial(p, g, m) is None:
                        continue
                    part = scalar.scale(taylor * cf)
                    if atom[0] == "sing":
                        coeffs[m] = coeffs.get(m, _ZERO) + part
                    else:
                        key = (atom, m, part.surd)
                        residues[key] = residues.get(key, _ZERO) + part
    leftover = {k: v for k, v in residues.items() if v.rational}
    if leftover:
        raise CancellationError(
            f"irreducible single-kernel residue on extractable grades: "
            f"{sorted(leftover, key=repr)}",
            leftover,
        )
    return {m: c for m, c in coeffs.items() if c.rational}


def two_point_low_orders(
    p: int, g: int, kernel_mode: str = REAL
) -> dict[int, ExactScalar]:
    """Grade coefficients of a^m for every m < p, via the small-a expansion.

    The second factor is expanded as
    phi^{(D2)}(-a x) = sum_t (-a)^t/t! phi^{(D2+t)}(0) x^t, which turns every
    term into a single-kernel moment int x^{l+t} phi^{(D1)}(x) dx; those
    reduce without cycles.  Much cheaper than the exact route for large p,
    and only valid term by term in a, so only below a^p.

    Returns {m: coefficient} for extractable m, cached once per
    (p, g, kernel_mode) however the arguments are passed.  Irreducible
    single-kernel integrals must cancel from extractable powers, class by
    surd class (CancellationError else).
    """
    _check_grade(p, g)
    return dict(_low_orders(p, g, kernel_mode))


two_point_low_orders.cache_info = _low_orders.cache_info
