"""Helpers shared by ``run.py`` and its worker processes (stdlib only).

Nothing here imports ``pspin``: ``run.py`` must stay cheap and must be able
to report a missing source tree without importing the program.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import statistics
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

# |z| bound for Monte Carlo against the exact finite-N value.  Every run
# draws a fresh sampler seed, so the benchmark makes hundreds of these
# comparisons; at 3 sigma a correct sampler would miss about once in 370,
# at 5 sigma once in 1.7 million.  Real defects sit far outside either.
MC_Z_BOUND = 5.0


def digest(text: str) -> str:
    """sha256 of a canonical text form; digests pin byte-stable outputs."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_expected() -> dict[str, str]:
    """Recorded digests, op name -> sha256 (empty when not recorded yet)."""
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def load_golden(src_root: Path):
    """``pspin/golden.py`` loaded by path, so ``run.py`` needs no pspin import.

    The module holds the published reference tables and imports only
    ``fractions``.
    """
    path = src_root / "pspin" / "golden.py"
    spec = importlib.util.spec_from_file_location("bench_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bernoulli(n: int) -> Fraction:
    """Signed Bernoulli number B_n (B_1 = -1/2), by the Akiyama-Tanigawa table.

    Computed here rather than taken from ``pspin.numbers`` so that the
    zeta(1-2g) checks are independent of the program under test.
    """
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    value = a[0]  # Akiyama-Tanigawa yields B_n with B_1 = +1/2
    return -value if n == 1 else value


def zeta_one_minus_2g(g: int) -> Fraction:
    """zeta(1-2g) = -B_{2g}/(2g)."""
    return -bernoulli(2 * g) / (2 * g)


def bernoulli_leading(g: int) -> Fraction:
    """Leading large-p coefficient |B_{2g}| / ((2g)! 2g) of the genus-g term."""
    return abs(bernoulli(2 * g)) / (factorial(2 * g) * 2 * g)


def median(values):
    return statistics.median(values) if values else 0.0


def settle(cpus: set[int]) -> None:
    """Pin this process to the CPU that runs a short fixed loop fastest now.

    On shared hosts each virtual CPU has its own phases, seconds long, in
    which another tenant slows it by up to 1.5x; starting each child, and
    each op of a pass, on the CPU that is quick at that moment keeps most of
    the timed work out of such phases.
    """
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        timings.append((time.perf_counter() - start, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})
