"""Universal-equation checks over computed tables.

The checks here are exact: a passing identity has literally zero difference.

* selection rule  (p+1)(2g-2+n) = sum_i (p m_i + j_i + 1)
* string equation: removing a tau_{0,0} insertion lowers one descendant index
* dilaton equation: removing tau_{1,0} costs a factor (2g-2+k)
"""

from __future__ import annotations

from fractions import Fraction

from .correlators import TauCorrelator
from .onepoint import one_point_value, selection_rule  # selection_rule re-exported


class CheckRecord:
    __slots__ = ("identity", "lhs_key", "rhs_keys", "passed", "difference")

    def __init__(
        self, identity: str, lhs_key: str, rhs_keys: tuple, passed: bool, difference: Fraction
    ):
        self.identity, self.lhs_key, self.rhs_keys = identity, lhs_key, rhs_keys
        self.passed, self.difference = passed, difference


class TautologyReport:
    __slots__ = ("checked",)

    def __init__(self):
        self.checked: list[CheckRecord] = []

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


def _insertion_report(
    two_point: list[TauCorrelator], p, identity: str, inserted, shift: int, compare
) -> TautologyReport:
    """Check each entry <inserted tau_{n,j}>_g against <tau_{n-shift,j}>_g.

    Partners with n < shift are passed over before any lookup.
    compare(entry, partner_key, partner_value) returns the (rhs_keys, lhs,
    rhs) to record; an entry records once, at its first inserted mark.
    """
    report = TautologyReport()
    for e in two_point:
        for k, mark in enumerate(e.marks):
            others = [e.marks[i] for i in range(len(e.marks)) if i != k]
            if mark != inserted or len(others) != 1 or others[0][0] < shift:
                continue
            n, j = others[0][0] - shift, others[0][1]
            g = f"_g{e.genus}"
            found = compare(e, f"tau({n},{j}){g}", one_point_value(p, e.genus, j=j))
            report.record(f"{identity} g={e.genus}", _mark_str(e.marks) + g, *found)
            break
    return report


def string_check(two_point: list[TauCorrelator], p: int) -> TautologyReport:
    """tau_{0,0}-insertions against the one-point closed forms, exactly.

    For every two-point entry <tau_{0,0} tau_{n,j}>_g the string equation
    asserts equality with <tau_{n-1,j}>_g.
    """
    return _insertion_report(
        two_point, p, "string", (0, 0), 1,
        lambda e, key, partner: ((key,), Fraction(e.value), partner),
    )


def dilaton_check(two_point: list[TauCorrelator], p: int) -> TautologyReport:
    """<tau_{1,0} X>_g / <X>_g = 2g - 2 + k as a ratio identity.

    Run over two-point entries containing tau_{1,0} whose partner exists in
    the one-point table (k = 1 remaining insertion).  No partner is zero:
    the genus-g one-point term vanishes at an integer p >= 3 only at
    p = 2g - 1 (closed forms through g = 4), where the partner's spin would be
    p - 1, outside the table.  A zero partner would raise ZeroDivisionError
    (exit 3), never pass silently.
    """
    return _insertion_report(
        two_point, p, "dilaton", (1, 0), 0,
        lambda e, key, partner: ((f"(2g-2+1) * {key}",), Fraction(e.value) / partner,
                                 Fraction(2 * e.genus - 2 + 1)),
    )
