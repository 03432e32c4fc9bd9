"""One benchmark pass in a fresh interpreter; prints one JSON line.

    worker.py --workload NAME --seed N --pass-index I --trace 0|1 --out DIR
    worker.py --probe        import pspin, report when that finished and the
                             environment, exit
    worker.py --record ...   print digests of the exact outputs instead of checking
    worker.py --self-test    show that a corrupted expected value is caught

``bench/run.py`` starts it with ``src`` on PYTHONPATH.  pspin is the first
import after ``time``, so ``import_done`` (a CLOCK_MONOTONIC reading, which
is shared by every process on the machine) marks "interpreter started to
``import pspin`` done" for ``run.py``, which noted the spawn time.
"""

import sys
import time

import pspin  # noqa: E402  (timed: see the module docstring)

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

from common import digest, load_expected, settle  # noqa: E402
from tracing import Tracer, cache_counts  # noqa: E402


def environment() -> dict:
    """Versions and machine facts that change what the numbers mean."""
    import mpmath
    import numpy
    import scipy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "pspin": pspin.__version__,
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_model": cpu,
        "machine": platform.machine(),
    }


RESETTLE_S = 0.5


def run_pass(ops, tracer) -> tuple[dict, dict, dict]:
    """Run the op list; returns (outputs, seconds, errors) per op name.

    Between ops, at most every RESETTLE_S seconds and outside the timed
    region, the process moves to whichever CPU is quickest at that moment
    (``common.settle``).
    """
    cpus = {int(c) for c in os.environ["BENCH_CPUS"].split(",")}
    settled = float("-inf")
    outputs, seconds, errors = {}, {}, {}
    for op in ops:
        if time.perf_counter() - settled > RESETTLE_S:
            settle(cpus)
            settled = time.perf_counter()
        start = time.perf_counter()
        try:
            if tracer is None:
                outputs[op.name] = op.run(outputs)
            else:
                with tracer.span(f"op.{op.name}"):
                    outputs[op.name] = op.run(outputs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors[op.name] = f"raised {type(exc).__name__}: {exc}"
        seconds[op.name] = time.perf_counter() - start
    return outputs, seconds, errors


def check_op(op, output, outputs, expected) -> list[str]:
    try:
        problems = list(op.check(output, outputs))
        if op.text is not None:
            want = expected.get(op.name)
            if want is None:
                problems.append("no recorded digest")
            elif digest(op.text(output)) != want:
                problems.append("digest differs from the recorded output")
    except Exception as exc:  # a check that cannot run leaves the output unverified
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def self_test() -> dict:
    """One corrupted golden entry and one corrupted digest must both be caught."""
    from fractions import Fraction

    import ops as op_lists

    table = pspin.correlators.two_point_table(3, 2)
    reference = {3: dict(pspin.golden.REFERENCE_TWO_POINT[3])}
    key = (2, ((0, 1), (4, 1)))
    clean = op_lists.check_golden(3, 2, reference)(table, {})
    reference[3][key] += Fraction(1, 10**9)
    corrupted = op_lists.check_golden(3, 2, reference)(table, {})

    op = op_lists.exact_deep(0)[0]
    output = op.run({})
    expected = load_expected()
    digest_clean = check_op(op, output, {}, expected)
    bad = dict(expected)
    bad[op.name] = digest(op.text(output) + " ")
    digest_corrupted = check_op(op, output, {}, bad)
    return {
        "golden_clean": clean,
        "golden_corrupted": corrupted,
        "digest_clean": digest_clean,
        "digest_corrupted": digest_corrupted,
        "caught": not clean and bool(corrupted) and not digest_clean and bool(digest_corrupted),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".bench_out")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    result = {"import_done": IMPORT_DONE}
    if args.probe:
        result["environment"] = environment()
        print(json.dumps(result))
        return 0
    if args.self_test:
        result["self_test"] = self_test()
        print(json.dumps(result))
        return 0

    import ops as op_lists

    ops = op_lists.WORKLOADS[args.workload](args.seed)
    warm = {k: v for k, v in cache_counts().items() if v}
    if warm:
        raise RuntimeError(f"caches not cold at pass start: {warm}")
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pass{args.pass_index}")
        tracer.install()
    try:
        outputs, seconds, errors = run_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["caches"] = cache_counts()
    result["run_s"] = sum(seconds.values())

    expected = {} if args.record else load_expected()
    rows = []
    for op in ops:
        if op.name in errors:
            problems = [errors[op.name]]
        elif args.record:
            problems = []
        else:
            problems = check_op(op, outputs[op.name], outputs, expected)
        rows.append([op.name, seconds[op.name], problems])
    result["ops"] = rows
    result["fingerprints"] = {
        op.name: op.fingerprint(outputs[op.name])
        for op in ops if op.fingerprint is not None and op.name in outputs
    }
    if args.record:
        result["digests"] = {
            op.name: digest(op.text(outputs[op.name])) for op in ops if op.text is not None
        }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(Path(args.out) / "traces" / f"{tracer.trace_id}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
