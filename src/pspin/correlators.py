"""Intersection-number extraction, calibration, interpolation, finite-N formula.

Extraction convention: a graded coefficient of the expansion engine is turned
into an intersection number by

    <tau...>_g = kappa_n * (-1)^g * coeff / (p^g * prod_k Gamma(1-(1+j_k)/p))

where the sign tracks the contour phase per genus unit and kappa_n is one
constant per marked-point count, fixed by a single anchor value and then
frozen; every other table entry must follow with no further freedom.  The
two-point routes (``twopoint``) apply everything but kappa_2 term by term
and return rationals; this module only multiplies by kappa_n.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import ceil, e, exp, inf, isfinite, log, log1p

from .airy import REAL, mode_constant
from .exact import DomainError, LaurentP, UsageError, record_repr
from .onepoint import (
    admissible_one_point_label,
    one_point_series,
    one_point_value,
    selection_rule,
)
from .oracle import NumericError, check_size
from .twopoint import (
    CalibrationError,
    _check_grade,
    grade_monomial,
    two_point_low_orders,
    two_point_series,
)


class TauCorrelator:
    """One table entry <prod_k tau_{m_k, j_k}>_g with its exact value; immutable by convention."""

    __slots__ = ("p", "genus", "marks", "value")

    def __init__(self, p: object, genus: int, marks: tuple[tuple[int, int], ...], value: object):
        # p: Fraction, or "symbolic"; value: Fraction, or LaurentP in symbolic runs
        self.p, self.genus, self.marks, self.value = p, genus, marks, value

    __repr__ = record_repr

    def selection_ok(self) -> bool:
        return self.p == "symbolic" or selection_rule(self.p, self.genus, self.marks)


@lru_cache(maxsize=None)
def calibration_constant(npoints: int) -> Fraction:
    """One normalization constant per marked-point count, from the anchor.

    n=1 anchor: <tau_{1,0}>_{g=1} = (p-1)/24 (symbolic in p).
    n=2 anchor: <tau_{0,1} tau_{4,1}>_{g=2} = 1/864 at p=3, read from the
    two-point series, which both kernel modes share.
    The derived constant must be a pure rational; it is then used unchanged
    for every p, genus and grade.
    """
    if npoints == 1:
        (coefficient,) = one_point_series(1)
        anchor = (LaurentP.var() - LaurentP.const(1)).scale(Fraction(1, 24))
        kappa = anchor.leading()[1] / coefficient.leading()[1]
        if coefficient.scale(kappa) != anchor:
            raise CalibrationError(f"one-point calibration is not constant: {coefficient}")
        return kappa
    if npoints == 2:
        return Fraction(1, 864) / two_point_series(3, 2)[2][2]  # a^2: (0,1),(4,1)
    raise UsageError("calibration defined for 1 or 2 marked points")


def extract_intersections(p: int, series: dict[int, dict[int, Fraction]]) -> list[TauCorrelator]:
    """Intersection numbers from a two-point series {g: {m: <tau tau>_g / kappa_2}}.

    Multiplies by the calibrated constant, labels each entry (the series
    holds no zero) by its grade's monomial and checks the selection rule on
    it.  Entries come in genus order, then by the a-power m.
    """
    kappa = calibration_constant(2)
    out: list[TauCorrelator] = []
    for g in sorted(series):
        for m in sorted(series[g]):
            value = kappa * series[g][m]
            marks = tuple((k, f - 1) for k, f in grade_monomial(p, g, m).slots)
            tau = TauCorrelator(Fraction(p), g, marks, value)
            if not tau.selection_ok():
                raise DomainError(f"selection rule violated by {tau}")
            out.append(tau)
    return out


def two_point_table(p: int, g_max: int, kernel_mode: str = REAL) -> list[TauCorrelator]:
    """Exact two-point intersection table through genus g_max, one for both kernel modes.

    The mode is only validated: c0 = 0 would drop only the rewrite-constant
    sector, which ``two_point_series`` keeps off the extractable grades.
    """
    mode_constant(kernel_mode)
    return extract_intersections(p, two_point_series(p, g_max))


def two_point_low_value(p: int, g: int, m: int) -> Fraction | None:
    """<tau tau>_g at the a^m grade via the small-a route (0 <= m < p required).

    Returns None when the grade is discarded (one slot integer-powered).
    """
    _check_grade(p, g)
    if not 0 <= m < p:
        raise UsageError("small-a route restricted to a-powers a^m with 0 <= m < p")
    if grade_monomial(p, g, m) is None:
        return None
    return calibration_constant(2) * two_point_low_orders(p, g).get(m, 0)


def one_point_table(p, g_max: int) -> list[TauCorrelator]:
    """One-point table at a rational p < 0 or p >= 2, or at p = 'symbolic'.

    The label at integer p >= 2 is the admissible one (a genus without one is
    skipped).  At p = -1 it is tau_{1,0} for every genus (orbifold Euler
    characteristics), at p = -3 and genus 3 the positive-p label tau_{6,1},
    and elsewhere the continued family tau_{2g-1,2g-2}, which at p = -3 is
    the positive-p label for g = 1, 2.  Zero values are kept.
    """
    kappa1 = calibration_constant(1)
    out: list[TauCorrelator] = []
    if p == "symbolic":
        for g, term in enumerate(one_point_series(g_max), 1):
            out.append(TauCorrelator("symbolic", g, ((2 * g - 1, 2 * g - 2),), term.scale(kappa1)))
        return out
    pf = Fraction(p)
    if 0 < pf < 2:
        raise UsageError("positive one-point tables need p >= 2")
    for g in range(1, g_max + 1):
        if pf.denominator == 1 and pf >= 2:
            label = admissible_one_point_label(int(pf), g)
            if label is None:
                continue
        elif pf == -1:
            label = (1, 0)
        elif pf == -3 and g == 3:
            label = (6, 1)
        else:
            label = (2 * g - 1, 2 * g - 2)  # continued label family
        out.append(TauCorrelator(pf, g, (label,), kappa1 * one_point_value(pf, g, j=label[1])))
    return out


# ---------------------------------------------------------------------------
# exact interpolation of the p-dependence
# ---------------------------------------------------------------------------


class DegreeInsufficientError(ArithmeticError):
    """Interpolated degree bound failed hold-out validation."""


def lagrange_polynomial(points: list[tuple[Fraction, Fraction]]) -> LaurentP:
    """Exact Lagrange interpolation through the given (x, y) points."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise UsageError("interpolation nodes must be distinct")
    total = LaurentP()
    for i, (xi, yi) in enumerate(points):
        term = LaurentP.const(Fraction(yi))
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            # multiply by (x - xk)/(xi - xk)
            term = term * LaurentP({1: 1, 0: -Fraction(xk)}).scale(1 / (xi - Fraction(xk)))
        total = total + term
    return total


def general_p_interpolate(
    samples: dict[int, Fraction],
    num_degree: int,
    den_power: int,
    held_out: dict[int, Fraction] | None = None,
) -> LaurentP:
    """Recover value(p) = poly(p)/p^den_power from exact integer-p samples.

    Uses num_degree+1 nodes, so the interpolant's degree is at most
    num_degree; remaining samples and any held_out points are verified
    exactly, and a mismatch raises DegreeInsufficientError.
    """
    if len(samples) < num_degree + 1:
        raise UsageError(
            f"need at least {num_degree + 1} samples, got {len(samples)}"
        )
    items = sorted((Fraction(p), Fraction(v)) for p, v in samples.items())
    nodes = items[: num_degree + 1]
    rest = items[num_degree + 1 :]
    poly = lagrange_polynomial([(p, v * p**den_power) for p, v in nodes])
    checks = rest + [
        (Fraction(p), Fraction(v)) for p, v in (held_out or {}).items()
    ]
    for p, v in checks:
        if poly.eval(p) != v * p**den_power:
            raise DegreeInsufficientError(
                f"hold-out mismatch at p={p}: interpolant disagrees with sample"
            )
    return poly / LaurentP.var(den_power)


# ---------------------------------------------------------------------------
# finite-N correlators (trapezoidal rule on circles)
# ---------------------------------------------------------------------------


class FiniteNSource:
    """External-source configuration for the Gaussian ensemble at finite N."""

    __slots__ = ("N", "eigenvalues")

    def __init__(self, N: int, eigenvalues: tuple):
        if N < 1 or len(eigenvalues) != N:
            raise UsageError("need N >= 1 eigenvalues")
        if not all(isfinite(a) for a in eigenvalues):
            raise UsageError("source eigenvalues must be finite")
        self.N, self.eigenvalues = N, eigenvalues


# Node counts aim the every-other-node half rule at e^-23 ~ 1e-10 relative
# error, so the full rule errs by about its square.  A half-rule difference
# above _CERTIFY_RTOL, or an array past the oracle's entry cap, raises NumericError.
_CERTIFY_RTOL = 1e-8


def _node_count(q: float, sr: float, growth: float) -> int:
    """Even node count on a circle of radius r, q = (singular radius) / r.

    Trapezoidal sums on a circle alias Laurent coefficients (Trefethen &
    Weideman, SIAM Review 56, 2014): the poles contribute q^h to the half rule
    of h = n/2 nodes, and the entire factor e^{su} about (e |s| r/h)^h.  Both
    are scaled by e^growth, a bound on the integrand over the result.
    """
    if not q < 1:  # also catches NaN
        raise NumericError(
            f"contour circle and poles coincide in floating point (radius ratio {q!r}): "
            "the eigenvalue spread is too wide for |s|"
        )
    t = 23 + growth
    return 2 * ceil(max(t / -log(q), e * sr + t))


def _circle_terms(src: FiniteNSource, s: float, c: float, r: float, n: int):
    """Nodes u on |u - c| = r, with f_s(u) and N e^{su} (prod_b (1 + s y_b) - 1)/s.

    Both carry the weights of the n-point rule, so a sum is (1/2 pi i) oint.
    As oint e^{su} = 0, the second sums to (N/s) oint f_s without cancellation
    at small s; y_b = 1/(N(u - b)), and (prod - 1)/s = sum_b y_b prod_{b'<b}
    (1 + s y_b'), which has no 1/s to overflow at subnormal s.
    """
    import numpy as np

    check_size(n * src.N)
    w = r * np.exp(2j * np.pi * np.arange(n) / n)
    u = c + w
    y = 1 / (src.N * (u[:, None] - np.asarray(src.eigenvalues)))
    q = y[:, 0] + (y[:, 1:] * np.cumprod(1 + s * y[:, :-1], axis=1)).sum(axis=1)
    ew = np.exp(s * u) * w / n
    return u, ew * (1 + s * q), src.N * ew * q


def _certified(factor: float, full: complex, half: complex) -> float:
    """factor times full, the contour value; NumericError when the half rule
    disagrees with it or the product overflows a float."""
    if not abs(full - half) <= _CERTIFY_RTOL * abs(full):
        raise NumericError(f"contour rule uncertified: {abs(full - half):.3g} off {abs(full):.3g}")
    if not isfinite(factor * float(full.real)):  # a Python float overflows without a warning
        raise NumericError(f"U(s) = {factor:.6g} * {full.real:.6g} overflows a float")
    return factor * full.real


def finite_n_evaluate(src: FiniteNSource, s: list[float]) -> float:
    """U(s_1,...,s_n) = (1/N) <prod_i tr e^{s_i M}> for n <= 2, by contour rule.

    Measure exp(-N/2 tr M^2 + N tr M A).  With f_s(u) = e^{su} prod_b
    (1 + s/(N(u - b))) over the source eigenvalues b, U(s) = e^{s^2/2N}/s oint
    f_s and U(s1, s2) = e^{(s1^2+s2^2)/2N}/N oint oint f_s1(u1) f_s2(u2)
    [N^2/(s1 s2) - 1/((u1-u2+s1/N)(u2-u1+s2/N))], each oint over (2 pi i), on
    circles about the eigenvalues' centre.  u2's circle encloses u1's widened
    by max|s|/N, so both coupling poles lie inside; their contributions
    +-(N/(s1+s2)) e^{s1 s2/N} oint f_{s1+s2} cancel.  So one trapezoidal rule
    per circle serves distinct, coincident and nearly coincident eigenvalues
    and s1 + s2 = 0 alike.  N=1, A=0 reduces to exp(s^2/2).

    NumericError when the rule cannot be certified, its circle rounds onto
    the poles, or the value overflows a float.
    """
    if not 1 <= len(s) <= 2:
        raise UsageError("finite-N evaluation supports 1 or 2 insertions")
    if not all(isfinite(x) for x in s):
        raise UsageError("s values must be finite")
    N = src.N
    if len(s) == 1 and s[0] == 0:
        return 1.0
    if len(s) == 2 and 0 in s:  # U(s, 0) = N U(s), bit for bit
        return float(N) * finite_n_evaluate(src, [s[0] or s[1]])
    exponent = sum(x * x for x in s) / (2 * N)
    try:
        factor = exp(exponent) / N
    except OverflowError:
        factor = inf
    if not isfinite(factor):  # past the float range s^2 is inf, and exp(inf) raises nothing
        msg = f"U(s) overflows a float: its factor e^(sum s^2/2N) is e^{exponent:.6g}"
        raise NumericError(msg)
    sigma = max(abs(x) for x in s)
    lo, hi = min(src.eigenvalues), max(src.eigenvalues)
    c, rho = (lo + hi) / 2, (hi - lo) / 2
    gap = min(1.5 / sigma, 4 * (rho + 1))  # e^{su} grows by e^{|s| gap} <= e^1.5 past rho
    r1 = rho + gap
    # growth of e^{su} to r1, and of prod_b (1 + x_b) on |u - c| = rho + gap/4
    growth = sigma * r1 + N * log1p(4 * sigma / (N * gap))
    if len(s) == 1:
        n1 = _node_count((rho + gap / 4) / r1, sigma * r1, growth)
        _, _, g1 = _circle_terms(src, s[0], c, r1, n1)
        return _certified(factor, g1.sum(), 2 * g1[::2].sum())
    s1, s2 = s
    r2 = r1 + sigma / N + 1.5 * gap  # 1.5 gaps needed the fewest nodes on the oracle inputs
    n1 = _node_count(r1 / (r2 - sigma / N), sigma * r1, growth)
    n2 = _node_count((r1 + sigma / N) / r2, sigma * r2, sigma * r2)
    check_size(n1 * n2)
    u1, f1, g1 = _circle_terms(src, s1, c, r1, n1)
    u2, f2, g2 = _circle_terms(src, s2, c, r2, n2)
    x = (u1 + s1 / N)[:, None] - u2
    coupling = 1 / (x * ((s1 + s2) / N - x))
    full = g1.sum() * g2.sum() - f1 @ coupling @ f2
    half = 4 * (g1[::2].sum() * g2[::2].sum() - f1[::2] @ coupling[::2, ::2] @ f2[::2])
    return _certified(factor, full, half)


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------


def table_to_dict(entries: list[TauCorrelator], points: int, p=None) -> dict:
    """Serializable table; p labels a table without entries."""
    p0 = entries[0].p if entries else p
    rows = []
    for e in entries:
        if isinstance(e.value, Fraction):
            num, den = str(e.value.numerator), str(e.value.denominator)
        else:
            n_lp, d_lp = e.value.numer_denom_laurent()
            num, den = str(n_lp), str(d_lp)
        rows.append(
            {
                "m": [m for m, _ in e.marks],
                "j": [j for _, j in e.marks],
                "genus": e.genus,
                "num": num,
                "den": den,
            }
        )
    if p0 not in (None, "symbolic"):
        p0 = int(p0) if Fraction(p0).denominator == 1 else str(Fraction(p0))
    return {
        "p": p0,
        "genus": max((e.genus for e in entries), default=None),
        "points": points,
        "entries": rows,
    }


def table_to_json(entries: list[TauCorrelator], points: int, p=None) -> str:
    return json.dumps(table_to_dict(entries, points, p), indent=2, sort_keys=True) + "\n"


def table_to_csv(entries: list[TauCorrelator], points: int, p=None) -> str:
    data = table_to_dict(entries, points, p)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "genus", "m", "j", "num", "den"])
    for row in data["entries"]:
        writer.writerow(
            [
                data["p"],
                row["genus"],
                " ".join(map(str, row["m"])),
                " ".join(map(str, row["j"])),
                row["num"],
                row["den"],
            ]
        )
    return buf.getvalue()
