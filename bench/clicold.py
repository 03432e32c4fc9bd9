"""The cli-cold workload: cold ``python -m pspin`` commands and their checks.

Stdlib only: ``run.py`` checks command outputs without importing pspin.
Reference tables come from ``pspin/golden.py`` loaded by path; zeta(1-2g)
and the Bernoulli leading coefficients are computed in ``common``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

from common import bernoulli_leading, digest, zeta_one_minus_2g

# PSPIN_OUTPUT_DIR for the commands, relative to the checkout so that the
# "wrote <path>" lines, and hence the stdout digests, do not depend on it
OUTPUT_DIR = ".bench_out/cli"


@dataclass
class Completed:
    code: int
    stdout: str
    stderr: str
    out_dir: Path


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Completed, object], list[str]]  # (result, golden module) -> problems
    pinned: Callable[[Completed], dict[str, str]]  # texts pinned by recorded digests

    @property
    def label(self) -> str:
        return "pspin " + " ".join(self.argv)


def _stdout(res: Completed) -> dict[str, str]:
    return {"stdout": res.stdout}


def _no_pins(res: Completed) -> dict[str, str]:
    return {}


def _two_point_problems(p: int, got: dict, golden) -> list[str]:
    return [
        f"g={g} {marks}: expected {want}, got {got.get((g, marks))}"
        for (g, marks), want in sorted(golden.REFERENCE_TWO_POINT[p].items())
        if got.get((g, marks)) != want
    ]


def _check_p3_json(res: Completed, golden) -> list[str]:
    problems = []
    if "golden: all reference entries reproduced for p=3" not in res.stdout:
        problems.append("golden line missing")
    data = json.loads((res.out_dir / "p3_g3.json").read_text(encoding="utf-8"))
    got = {
        (row["genus"], tuple(zip(row["m"], row["j"]))): Fraction(int(row["num"]), int(row["den"]))
        for row in data["entries"]
    }
    return problems + _two_point_problems(3, got, golden)


def _check_p5_csv(res: Completed, golden) -> list[str]:
    rows = list(csv.DictReader(io.StringIO((res.out_dir / "p5_g2.csv").read_text(encoding="utf-8"))))
    got = {
        (int(r["genus"]), tuple(zip(map(int, r["m"].split()), map(int, r["j"].split())))):
        Fraction(int(r["num"]), int(r["den"]))
        for r in rows
    }
    return _two_point_problems(5, got, golden)


_TERM = re.compile(r"^(\d+)?\*?(p)?(?:\^(\d+))?$")


def parse_poly(text: str) -> dict[int, Fraction]:
    """Integer polynomial in p as printed by the CLI, e.g. '2*p^3 - 7*p^2 + 3'."""
    out: dict[int, Fraction] = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = -1 if token == "-" else 1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        match = _TERM.match(token)
        if not match or not (match.group(1) or match.group(2)):
            raise ValueError(f"unparsable term {token!r} in {text!r}")
        coeff = int(match.group(1) or 1)
        power = int(match.group(3) or 1) if match.group(2) else 0
        out[power] = out.get(power, Fraction(0)) + sign * coeff
        sign = 1
    return out


def _eval(poly: dict[int, Fraction], p: Fraction) -> Fraction:
    return sum((c * p**e for e, c in poly.items()), Fraction(0))


_SYMBOLIC_LINE = re.compile(r"^\s+g=(\d+)\s+tau\((\d+),(\d+)\) = \((.*)\) / \((.*)\)$")


def _check_symbolic(res: Completed, golden) -> list[str]:
    """p=-1 values against zeta(1-2g); large-p leading terms against Bernoulli."""
    problems = []
    seen = 0
    for line in res.stdout.splitlines():
        match = _SYMBOLIC_LINE.match(line)
        if not match:
            continue
        seen += 1
        g = int(match.group(1))
        num, den = parse_poly(match.group(4)), parse_poly(match.group(5))
        value = _eval(num, Fraction(-1)) / _eval(den, Fraction(-1))
        if value * factorial(2 * g - 1) != zeta_one_minus_2g(g):
            problems.append(f"g={g}: p=-1 value {value} disagrees with zeta(1-2g)")
        deg = max(num) - max(den)
        lead = num[max(num)] / den[max(den)]
        if (deg, lead) != (g, bernoulli_leading(g)):
            problems.append(f"g={g}: leading p^{deg} * {lead}")
    if seen != 6:
        problems.append(f"expected 6 genera, parsed {seen}")
    return problems


_NEG_LINE = re.compile(r"^\s+g=(\d+)\s+tau\(1,0\) = (-?\d+)/(\d+)$")


def _check_p_minus_one(res: Completed, golden) -> list[str]:
    problems = [] if "golden: all reference entries reproduced for p=-1" in res.stdout else ["golden line missing"]
    values = {int(m.group(1)): Fraction(int(m.group(2)), int(m.group(3)))
              for m in map(_NEG_LINE.match, res.stdout.splitlines()) if m}
    for g in range(1, 5):
        if values.get(g) != zeta_one_minus_2g(g):
            problems.append(f"g={g}: {values.get(g)} != zeta(1-2g) = {zeta_one_minus_2g(g)}")
    return problems


def _needs(*fragments: str) -> Callable:
    def check(res: Completed, golden) -> list[str]:
        problems = [f"missing {f!r}" for f in fragments if f not in res.stdout]
        if "FAIL" in res.stdout:
            problems.append("a FAIL line was printed")
        return problems

    return check


_RESIDUAL = re.compile(r"max\|residual\|=(\S+)")


def _check_density(res: Completed, golden) -> list[str]:
    match = _RESIDUAL.search(res.stdout)
    if not match or not float(match.group(1)) < 1e-3:
        return [f"affine fit residual {match.group(1) if match else 'missing'} not below 1e-3"]
    lines = (res.out_dir / "density.csv").read_text(encoding="utf-8").splitlines()
    return [] if len(lines) == 101 else [f"density.csv has {len(lines)} lines, want 101"]


def _table_file(name: str) -> Callable:
    def pinned(res: Completed) -> dict[str, str]:
        return {"stdout": res.stdout, name: (res.out_dir / name).read_text(encoding="utf-8")}

    return pinned


COMMANDS = [
    Command(["intersect", "--p", "3", "--genus", "3", "--golden", "--output", "p3_g3.json"],
            _check_p3_json, _table_file("p3_g3.json")),
    Command(["intersect", "--p", "5", "--genus", "2", "--format", "csv", "--output", "p5_g2.csv"],
            _check_p5_csv, _table_file("p5_g2.csv")),
    Command(["intersect", "--p", "symbolic", "--points", "1", "--genus", "6"], _check_symbolic, _stdout),
    Command(["intersect", "--p", "-1", "--points", "1", "--genus", "4", "--golden"],
            _check_p_minus_one, _stdout),
    Command(["verify", "string"], _needs("[PASS] string g=1"), _stdout),
    Command(["verify", "cancellation", "--p", "5", "--genus", "2"],
            _needs("cancellation ledger clean for p=5"), _stdout),
    Command(["verify", "airy-quad"], _needs("airy-quad: 54/54 identities pass"), _no_pins),
    Command(["verify", "largep", "--genus", "4"], _needs("largep g=4", "zeta identity g=4: PASS"), _stdout),
    Command(["density", "--output", "density.csv"], _check_density, _no_pins),
    Command(["density", "--central-charge", "9/4"], _needs("central charge at k'=9/4: 26\n"), _stdout),
]


def check_command(cmd: Command, res: Completed, golden, expected: dict | None) -> list[str]:
    """Exit code, output checks and, unless recording, the pinned digests."""
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
    try:
        problems = cmd.check(res, golden)
        if expected is not None:
            for part, text in cmd.pinned(res).items():
                want = expected.get(f"{cmd.label} [{part}]")
                if want is None:
                    problems.append(f"no recorded digest for {part}")
                elif digest(text) != want:
                    problems.append(f"{part} differs from the recorded output")
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return problems


def command_digests(cmd: Command, res: Completed) -> dict[str, str]:
    return {f"{cmd.label} [{part}]": digest(text) for part, text in cmd.pinned(res).items()}
