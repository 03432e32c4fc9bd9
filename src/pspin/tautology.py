"""Universal-equation checks over computed tables.

The checks here are exact: a passing identity has literally zero difference.

* selection rule  (p+1)(2g-2+n) = sum_i (p m_i + j_i + 1)
* string equation: removing a tau_{0,0} insertion lowers one descendant index
* dilaton equation: removing tau_{1,0} costs a factor (2g-2+k)
* orbifold Euler characteristics chi(M_{g,s})
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .correlators import TauCorrelator
from .exact import UsageError
from .numbers import zeta_one_minus_2g
from .onepoint import one_point_value, selection_rule  # selection_rule re-exported


@dataclass
class CheckRecord:
    identity: str
    lhs_key: str
    rhs_keys: tuple[str, ...]
    passed: bool
    difference: Fraction


@dataclass
class TautologyReport:
    checked: list[CheckRecord] = field(default_factory=list)

    def record(self, identity: str, lhs_key: str, rhs_keys, lhs: Fraction, rhs: Fraction):
        self.checked.append(
            CheckRecord(identity, lhs_key, tuple(rhs_keys), lhs == rhs, lhs - rhs)
        )

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checked)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checked if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.all_passed,
            "checks": [
                {
                    "identity": c.identity,
                    "lhs": c.lhs_key,
                    "rhs": list(c.rhs_keys),
                    "pass": c.passed,
                    "difference": str(c.difference),
                }
                for c in self.checked
            ],
        }

    def render(self) -> str:
        lines = []
        for c in self.checked:
            status = "PASS" if c.passed else f"FAIL (diff {c.difference})"
            lines.append(f"[{status}] {c.identity}: {c.lhs_key} = {', '.join(c.rhs_keys)}")
        if not lines:
            return "no applicable checks"
        return "\n".join(lines)


def _mark_str(marks) -> str:
    return " ".join(f"tau({m},{j})" for m, j in marks)


def string_check(two_point: list[TauCorrelator], p: int) -> TautologyReport:
    """tau_{0,0}-insertions against the one-point closed forms, exactly.

    For every two-point entry <tau_{0,0} tau_{n,j}>_g the string equation
    asserts equality with <tau_{n-1,j}>_g.
    """
    report = TautologyReport()
    for e in two_point:
        for k, (m, j) in enumerate(e.marks):
            if (m, j) != (0, 0):
                continue
            others = [e.marks[i] for i in range(len(e.marks)) if i != k]
            if len(others) != 1:
                continue
            (n2, j2) = others[0]
            if n2 == 0:
                continue
            rhs = one_point_value(p, e.genus, j=j2)
            report.record(
                f"string g={e.genus}",
                _mark_str(e.marks) + f"_g{e.genus}",
                (f"tau({n2 - 1},{j2})_g{e.genus}",),
                Fraction(e.value),
                rhs,
            )
            break
    return report


def dilaton_check(two_point: list[TauCorrelator], p: int) -> TautologyReport:
    """<tau_{1,0} X>_g / <X>_g = 2g - 2 + k as a ratio identity.

    Run over two-point entries containing tau_{1,0} whose partner exists in
    the one-point table (k = 1 remaining insertion).
    """
    report = TautologyReport()
    for e in two_point:
        for k, (m, j) in enumerate(e.marks):
            if (m, j) != (1, 0):
                continue
            others = [e.marks[i] for i in range(len(e.marks)) if i != k]
            if len(others) != 1:
                continue
            (n2, j2) = others[0]
            partner = one_point_value(p, e.genus, j=j2)
            if partner == 0:
                continue
            expected = Fraction(2 * e.genus - 2 + 1)
            report.record(
                f"dilaton g={e.genus}",
                _mark_str(e.marks) + f"_g{e.genus}",
                (f"(2g-2+1) * tau({n2},{j2})_g{e.genus}",),
                Fraction(e.value) / partner,
                expected,
            )
            break
    return report


def euler_characteristic(g: int, s: int) -> Fraction:
    """Orbifold Euler characteristic chi(M_{g,s}) for g >= 1, s >= 1.

    chi(M_{g,1}) = zeta(1-2g) (Harer-Zagier), and forgetting a point gives
    chi(M_{g,s+1}) = (2-2g-s) chi(M_{g,s}), so
    chi(M_{g,s}) = (-1)^{s-1} (2g+s-3)!/(2g-2)! * zeta(1-2g).
    """
    if g < 1 or s < 1:
        raise UsageError("Euler characteristic needs g >= 1, s >= 1")
    return (
        (-1) ** (s - 1)
        * Fraction(factorial(2 * g + s - 3), factorial(2 * g - 2))
        * zeta_one_minus_2g(g)
    )
