"""Intersection-number extraction, calibration, interpolation, finite-N formula.

Extraction convention: a graded coefficient of the expansion engine is turned
into an intersection number by

    <tau...>_g = kappa_n * (-1)^g * coeff / (p^g * prod_k Gamma(1-(1+j_k)/p))

where the sign tracks the contour phase per genus unit and kappa_n is one
constant per marked-point count, fixed by a single anchor value and then
frozen; every other table entry must follow with no further freedom.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial

from .exact import DomainError, ExactScalar, ExactSum, LaurentP, UsageError
from .onepoint import (
    admissible_one_point_label,
    one_point_series,
    one_point_value,
)
from .twopoint import REAL, grade_monomial, two_point_low_orders, two_point_series


class CalibrationError(ArithmeticError):
    """A normalized coefficient failed to reduce to a pure rational."""


@dataclass(frozen=True)
class TauCorrelator:
    """One table entry <prod_k tau_{m_k, j_k}>_g with its exact value."""

    p: object  # Fraction for fixed p, the string "symbolic" otherwise
    genus: int
    marks: tuple[tuple[int, int], ...]
    value: object  # Fraction, or LaurentP in symbolic runs

    def selection_ok(self) -> bool:
        if self.p == "symbolic":
            return True
        p = Fraction(self.p)
        lhs = (p + 1) * (2 * self.genus - 2 + len(self.marks))
        rhs = sum(p * m + j + 1 for m, j in self.marks)
        return lhs == rhs

    def key(self) -> tuple:
        return (self.genus, self.marks)


def spin_factor(p: int, j: int) -> ExactScalar:
    """Gamma(1 - (1+j)/p), the spin factor of one marked point."""
    return ExactScalar.gamma(1 - Fraction(1 + j, p))


@lru_cache(maxsize=None)
def calibration_constant(npoints: int, kernel_mode: str = REAL) -> Fraction:
    """One normalization constant per marked-point count, from the anchor.

    n=1 anchor: <tau_{1,0}>_{g=1} = (p-1)/24 (symbolic in p).
    n=2 anchor: <tau_{0,1} tau_{4,1}>_{g=2} = 1/864 at p=3.
    The derived constant must be a pure rational; it is then used unchanged
    for every p, genus and grade.
    """
    if npoints == 1:
        coefficient = one_point_series(1)[0].coefficient
        anchor = (LaurentP.var() - LaurentP.const(1)).scale(Fraction(1, 24))
        kappa = anchor.leading()[1] / coefficient.leading()[1]
        if coefficient.scale(kappa) != anchor:
            raise CalibrationError(f"one-point calibration is not constant: {coefficient}")
        return kappa
    if npoints == 2:
        coeff = two_point_series(3, 2, kernel_mode)[2][2]  # a^2 grade: (0,1),(4,1)
        raw = _normalize(coeff.single(), 3, 2, grade_monomial(3, 2, 2).spins())
        return Fraction(1, 864) / raw
    raise UsageError("calibration defined for 1 or 2 marked points")


def _normalize(coeff: ExactScalar, p: int, g: int, spins: tuple[int, ...]) -> Fraction:
    """(-1)^g coeff / (p^g prod spin factors); must come out rational."""
    out = coeff
    for j in spins:
        out = out / spin_factor(p, j)
    out = out.scale(Fraction((-1) ** g, p**g))
    if not out.is_rational:
        raise CalibrationError(
            f"non-rational residue after normalization: {out.render()}"
        )
    return out.as_fraction()


def extract_intersections(
    p: int, series: dict[int, dict[int, ExactSum]], kernel_mode: str = REAL
) -> list[TauCorrelator]:
    """Intersection numbers from a two-point expansion {g: {m: coefficient}}.

    Divides by the spin factors, applies (-1)^g/p^g and the calibrated
    constant, and checks the selection rule on every nonzero entry.  Entries
    come in genus order, then by the a-power m.
    """
    kappa = calibration_constant(2, kernel_mode)
    out: list[TauCorrelator] = []
    for g in sorted(series):
        for m in sorted(series[g]):
            mono = grade_monomial(p, g, m)
            value = kappa * _normalize(series[g][m].single(), p, g, mono.spins())
            if value == 0:
                continue
            marks = tuple((k, f - 1) for k, f in mono.slots)
            tau = TauCorrelator(Fraction(p), g, marks, value)
            if not tau.selection_ok():
                raise DomainError(f"selection rule violated by {tau}")
            out.append(tau)
    return out


def two_point_table(p: int, g_max: int, kernel_mode: str = REAL) -> list[TauCorrelator]:
    """Exact two-point intersection table through genus g_max."""
    return extract_intersections(p, two_point_series(p, g_max, kernel_mode), kernel_mode)


def two_point_low_value(
    p: int, g: int, m: int, kernel_mode: str = REAL
) -> Fraction | None:
    """<tau tau>_g at the a^m grade via the small-a route (m < p required).

    Returns None when the grade is discarded (one slot integer-powered).
    """
    mono = grade_monomial(p, g, m)
    if mono is None:
        return None
    coeffs = two_point_low_orders(p, g, m, kernel_mode)
    if m not in coeffs:
        return Fraction(0)
    kappa = calibration_constant(2, kernel_mode)
    return kappa * _normalize(coeffs[m].single(), p, g, mono.spins())


def one_point_table(p, g_max: int) -> list[TauCorrelator]:
    """One-point table; p may be a rational or the string 'symbolic'."""
    kappa1 = calibration_constant(1)
    out: list[TauCorrelator] = []
    if p == "symbolic":
        for term in one_point_series(g_max):
            out.append(
                TauCorrelator(
                    "symbolic",
                    term.genus,
                    ((2 * term.genus - 1, 2 * term.genus - 2),),
                    term.coefficient.scale(kappa1),
                )
            )
        return out
    pf = Fraction(p)
    for g in range(1, g_max + 1):
        if pf.denominator == 1 and pf >= 3:
            lab = admissible_one_point_label(int(pf), g)
            if lab is None:
                continue
            n, j = lab
        else:
            n, j = 2 * g - 1, 2 * g - 2  # continued label family
        value = kappa1 * one_point_value(pf, g, j=j)
        if value:
            out.append(TauCorrelator(pf, g, ((n, j),), value))
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

    Uses num_degree+1 nodes; remaining samples and any held_out points are
    verified exactly.  A mismatch (or an interpolant exceeding num_degree)
    raises DegreeInsufficientError.
    """
    if len(samples) < num_degree + 1:
        raise UsageError(
            f"need at least {num_degree + 1} samples, got {len(samples)}"
        )
    items = sorted((Fraction(p), Fraction(v)) for p, v in samples.items())
    nodes = items[: num_degree + 1]
    rest = items[num_degree + 1 :]
    poly = lagrange_polynomial([(p, v * p**den_power) for p, v in nodes])
    if poly.degree() > num_degree:
        raise DegreeInsufficientError(
            f"interpolant degree {poly.degree()} exceeds bound {num_degree}"
        )
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
# exact finite-N correlators (residue sums)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteNSource:
    """External-source configuration for the Gaussian ensemble at finite N."""

    N: int
    eigenvalues: tuple

    def __post_init__(self):
        if self.N < 1 or len(self.eigenvalues) != self.N:
            raise UsageError("need N >= 1 eigenvalues")


def _taylor_mul(f: list[float], g: list[float], order: int) -> list[float]:
    out = [0.0] * (order + 1)
    for i, fi in enumerate(f):
        if i > order or fi == 0.0:
            continue
        for j, gj in enumerate(g):
            if i + j > order:
                break
            out[i + j] += fi * gj
    return out


def _group_eigenvalues(eigs) -> list[tuple[float, int]]:
    groups: list[tuple[float, int]] = []
    for a in sorted(float(x) for x in eigs):
        if groups and abs(groups[-1][0] - a) < 1e-12:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((a, 1))
    return groups


def _residues_one(src: FiniteNSource, s: float) -> float:
    """sum over residues of e^{su} prod_alpha (1 + s/(N(u - a_alpha))).

    Coincident eigenvalues are grouped; a group of multiplicity k is a pole
    of order k whose residue is the x^{k-1} Taylor coefficient of the
    regular part around it.
    """
    N = src.N
    groups = _group_eigenvalues(src.eigenvalues)
    total = 0.0
    for a0, k in groups:
        order = k - 1
        # local numerator (x + s/N)^k over the pole x^k, truncated
        reg = [comb(k, i) * (s / N) ** (k - i) for i in range(order + 1)]
        for b0, kb in groups:
            if b0 == a0:
                continue
            # (1 + s/(N(x + d)))^{kb} expanded around x = 0, d = a0 - b0
            base = _taylor_inverse_shift(a0 - b0, order)
            fac = [1.0 + (s / N) * base[0]] + [(s / N) * c for c in base[1:]]
            for _ in range(kb):
                reg = _taylor_mul(reg, fac, order)
        es = [exp(s * a0) * s**i / factorial(i) for i in range(order + 1)]
        reg = _taylor_mul(reg, es, order)
        total += reg[order]
    return total


def _taylor_inverse_shift(d: float, order: int) -> list[float]:
    """Taylor coefficients of 1/(x + d) around x = 0."""
    return [(-1.0) ** i / d ** (i + 1) for i in range(order + 1)]


def finite_n_evaluate(src: FiniteNSource, s: list[float]) -> float:
    """Exact U(s_1,...,s_n) = (1/N) <prod_i tr e^{s_i M}> for n <= 2.

    Gaussian measure exp(-N/2 tr M^2 + N tr M A); contour integrals around
    the source eigenvalues evaluated as residue sums (confluent limits via
    higher-order poles).  The N=1, A=0 case reduces to exp(s^2/2).
    """
    if not 1 <= len(s) <= 2:
        raise UsageError("finite-N evaluation supports 1 or 2 insertions")
    N = src.N
    if len(s) == 1:
        (s1,) = s
        if s1 == 0:
            return 1.0
        # the determinant diagonal contributes N/s per insertion
        return exp(s1**2 / (2 * N)) * _residues_one(src, s1) / s1
    s1, s2 = s
    if s1 == 0:
        return float(N) * finite_n_evaluate(src, [s2])
    if s2 == 0:
        return float(N) * finite_n_evaluate(src, [s1])
    pref = exp((s1**2 + s2**2) / (2 * N)) / N
    groups = _group_eigenvalues(src.eigenvalues)
    if any(k > 1 for _, k in groups):
        raise DomainError("two-point residue formula implemented for distinct eigenvalues")
    eigs = [a for a, _ in groups]
    total = 0.0
    for a0 in eigs:
        r1 = (s1 / N) * exp(s1 * a0)
        for b0 in eigs:
            if b0 != a0:
                r1 *= 1.0 + s1 / (N * (a0 - b0))
        # residues of the second contour at the source poles
        for b0 in eigs:
            r2 = (s2 / N) * exp(s2 * b0)
            for c0_ in eigs:
                if c0_ != b0:
                    r2 *= 1.0 + s2 / (N * (b0 - c0_))
            coupling = N**2 / (s1 * s2) - 1.0 / (
                (a0 - b0 + s1 / N) * (b0 - a0 + s2 / N)
            )
            total += r1 * r2 * coupling
        # residue of the second contour at the coupling pole u2 = u1 + s1/N,
        # which the nested-contour prescription encloses; it carries the
        # e^{s1 s2/N} cross term (pinned by the N=1 Gaussian check)
        rc = (s1 / N) * exp((s1 + s2) * a0 + s1 * s2 / N) * (N / (s1 + s2))
        for b0 in eigs:
            if b0 != a0:
                rc *= 1.0 + s1 / (N * (a0 - b0))
        for b0 in eigs:
            rc *= 1.0 + s2 / (N * (a0 + s1 / N - b0))
        total += rc
    return pref * total


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------


def table_to_dict(entries: list[TauCorrelator], points: int) -> dict:
    if not entries:
        return {"p": None, "genus": None, "points": points, "entries": []}
    p0 = entries[0].p
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
    p_out = "symbolic" if p0 == "symbolic" else (
        int(p0) if Fraction(p0).denominator == 1 else str(p0)
    )
    genera = sorted({e.genus for e in entries})
    return {
        "p": p_out,
        "genus": genera[-1] if genera else None,
        "points": points,
        "entries": rows,
    }


def table_to_json(entries: list[TauCorrelator], points: int) -> str:
    return json.dumps(table_to_dict(entries, points), indent=2, sort_keys=True) + "\n"


def table_to_csv(entries: list[TauCorrelator], points: int) -> str:
    data = table_to_dict(entries, points)
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
