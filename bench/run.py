"""pspin benchmark: four workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; pspin is used from ``src`` as it stands, so
there is nothing to build.  Workloads are closed loops with one client and
one process at a time:

  cli-cold    ten cold ``python -m pspin`` commands covering every subcommand
  exact-deep  p=3 table to genus 3, the p=3 grades g=4..6, the p=4 and p=5
              genus-3 grades, the symbolic one-point table to genus 8 and
              the genus coefficients g=9..12 (deep reuse of one engine)
  p-sweep     two-point tables p=3..9 in both kernel modes, string, dilaton
              and selection checks on each, small-a values p=8..13, and the
              interpolation families (many small engines)
  oracles     Monte Carlo, a finite-N grid, the airy-quad identities, the
              density fit and Binet; the seed draws the numeric inputs

A run repeats passes of the workload, each in a fresh interpreter so that
every pass starts with cold caches, as a command-line user does, while
another pass still fits in --seconds (always at least one).  Outputs are
checked after each pass, outside the timed region.

--trace 0 prints the end-to-end metrics:
  run_s        wall time of the op list (commands, for cli-cold), without
               set-up or the output checks: the sum over ops of each op's
               fastest pass (see op_min_sum)
  setup_s      fresh interpreter to ``import pspin`` done, median of at
               least five samples
  peak_rss_mb  peak resident memory of a pass's process, median over passes
--trace 1 prints the per-layer metrics (see PER_LAYER): self times of spans
put around public pspin calls by ``tracing.py``, counts taken from arguments,
return values and public ``cache_info()``, the import breakdown from
``python -X importtime``, and the tracing overhead against one untraced pass
of the same run.  Traced cli-cold commands run through ``shim.py``, which
also yields each command's interpreter start-up and exit time.  What no span
covers is ``trace.unattributed_s``.  Span files go to ``.bench_out/traces``,
result files to ``.bench_out/results``.

Other modes:
  --self-test        a corrupted expected value must be caught; the same seed
                     must give bit-identical Monte Carlo; another seed passes
  --probe-edges      the finite-N edge configurations of ROADMAP direction 4;
                     exits 1 while any of them fails
  --record-digests   rewrite bench/expected.json from the current outputs.
                     Only for a change meant to alter outputs: the digests
                     are what proves that refactors leave results unchanged.
  --compare A B      compare two result files; flags environment differences

The last stdout line of a measuring run is the JSON result.  Exit code 0
when every check passed, 1 when one failed or a worker crashed, 2 on bad
usage or when there is no pspin source tree under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import clicold
import tracing
from common import EXPECTED_PATH, load_expected, load_golden, median, settle

WORKLOADS = ("cli-cold", "exact-deep", "p-sweep", "oracles")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
OUT = ".bench_out"

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    *(f"import.{pkg}_s" for pkg in tracing.IMPORT_PACKAGES),
    "cli.startup_s", "cli.import_s", "cli.command_s", "cli.exit_s", "cli.p50_s", "cli.commands",
    "cli.errors",
    "twopoint.grade_contributions_s", "twopoint.two_point_series_s",
    "twopoint.two_point_low_orders_s", "twopoint.contributions", "twopoint.distinct_symbols",
    "twopoint.two_point_grade.hits", "twopoint.two_point_grade.misses",
    "twopoint.two_point_grade.hit_ratio", "twopoint.errors",
    "moments.combine_contributions_s", "moments.assemble_grade_s", "moments.reduce_moment_s",
    "moments.reduce_moment.calls", "moments.reduce_per_symbol", "moments.errors",
    "correlators.extract_intersections_s", "correlators.calibration_constant_s",
    "correlators.calibration_constant.hits", "correlators.calibration_constant.misses",
    "correlators.entries", "correlators.general_p_interpolate_s",
    "correlators.finite_n_evaluate_s", "correlators.finite_n_evaluate.calls", "correlators.errors",
    "onepoint.genus_coefficient_s", "onepoint.genus_coefficient.hits",
    "onepoint.genus_coefficient.misses", "onepoint.errors",
    "tautology.checks_s", "tautology.records", "tautology.errors",
    "oracle.mc_trace_moments_s", "oracle.mc.samples", "oracle.mc.samples_per_s",
    "oracle.quad_moment_s", "oracle.quad_moment.calls", "oracle.errors",
    "density.blackhole_density_compare_s", "density.binet_check_s", "density.errors",
    "trace.run_s", "trace.overhead_s", "trace.unattributed_s", "trace.spans",
)


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(("hit_ratio", "per_symbol")):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not measure (a worker crashed or timed out)."""


@dataclass
class Child:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    spawned: float  # CLOCK_MONOTONIC at spawn


@dataclass
class Pass:
    run_s: float
    rss_mb: float
    rows: list  # [op name, seconds, problems]
    setup_s: float | None = None
    fingerprints: dict = field(default_factory=dict)
    layers: dict | None = None
    caches: dict = field(default_factory=dict)


class Runner:
    """Starts the child processes of one run, one at a time, in the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.out = root / OUT
        self.out.mkdir(exist_ok=True)
        self.cpus = os.sched_getaffinity(0)
        src = str(root / "src")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else src,
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PSPIN_OUTPUT_DIR=clicold.OUTPUT_DIR,
            BENCH_CPUS=",".join(map(str, sorted(self.cpus))),
        )

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time and peak RSS from wait4."""
        out_path, err_path = self.out / "child.out", self.out / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            settle(self.cpus)  # the child inherits the chosen CPU
            spawned = time.monotonic()
            try:
                proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                        stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            finally:
                os.sched_setaffinity(0, self.cpus)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(ended - spawned, proc.returncode,
                     out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
                     usage.ru_maxrss / 1024.0, spawned)

    def worker(self, *args: str) -> tuple[Child, dict]:
        child = self.spawn([sys.executable, "bench/worker.py", *args])
        lines = child.stdout.splitlines()
        if child.code != 0 or not lines:
            raise BenchError(f"worker {' '.join(args)} exited {child.code}:\n{child.stderr[-3000:]}")
        return child, json.loads(lines[-1])

    def setup_sample(self) -> float:
        child, res = self.worker("--probe")
        return res["import_done"] - child.spawned


def in_process_pass(runner: Runner, workload: str, seed: int, index: int, trace: bool) -> Pass:
    child, res = runner.worker("--workload", workload, "--seed", str(seed), "--pass-index",
                               str(index), "--trace", str(int(trace)), "--out", OUT)
    return Pass(res["run_s"], child.rss_mb, res["ops"], res["import_done"] - child.spawned,
                res["fingerprints"], res.get("layers"), res["caches"])


def cli_pass(runner: Runner, seed: int, index: int, trace: bool, golden,
             expected: dict | None, digests: dict | None = None) -> Pass:
    """Each command in a fresh interpreter: ``python -m pspin``, or the shim when traced."""
    out_dir = runner.root / clicold.OUTPUT_DIR
    result = Pass(0.0, 0.0, [], layers=Counter() if trace else None, caches=Counter())
    for k, cmd in enumerate(clicold.COMMANDS):
        shutil.rmtree(out_dir, ignore_errors=True)  # a command must write its own file
        if trace:
            trace_path = Path(OUT) / "traces" / f"cli-cold-seed{seed}-pass{index}-cmd{k}.json"
            argv = [sys.executable, "bench/shim.py", str(trace_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "pspin", *cmd.argv]
        child = runner.spawn(argv)
        done = clicold.Completed(child.code, child.stdout, child.stderr, out_dir)
        result.rows.append([cmd.label, child.seconds, clicold.check_command(cmd, done, golden, expected)])
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        if digests is not None and child.code == 0:
            digests.update(clicold.command_digests(cmd, done))
        if trace and child.code == 0:
            data = json.loads((runner.root / trace_path).read_text(encoding="utf-8"))
            result.layers.update(data["layers"])
            result.layers["cli.startup_s"] += data["entered"] - child.spawned
            result.layers["cli.exit_s"] += child.spawned + child.seconds - data["leaving"]
            result.caches.update(data["caches"])
    result.run_s = sum(seconds for _, seconds, _ in result.rows)
    return result


def layer_metrics(runner: Runner, traced: list[Pass], baseline: Pass, cli: bool) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes, plus derived ratios."""
    per_pass = []
    for p in traced:
        m = {**p.layers, **p.caches}
        self_time = sum(v for k, v in p.layers.items() if k.endswith("_s"))
        m["trace.run_s"] = p.run_s
        m["trace.unattributed_s"] = p.run_s - self_time
        per_pass.append(m)
    out = {name: median([m.get(name, 0.0) for m in per_pass]) for name in PER_LAYER}

    def ratio(num: str, den: str) -> float:
        return out[num] / out[den] if out[den] else 0.0

    hits, misses = out["twopoint.two_point_grade.hits"], out["twopoint.two_point_grade.misses"]
    out["twopoint.two_point_grade.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["moments.reduce_per_symbol"] = ratio("moments.reduce_moment.calls", "twopoint.distinct_symbols")
    out["oracle.mc.samples_per_s"] = ratio("oracle.mc.samples", "oracle.mc_trace_moments_s")
    out["trace.overhead_s"] = out["trace.run_s"] - baseline.run_s
    if cli:  # latency of the real ``python -m pspin`` commands of the untraced pass
        out["cli.p50_s"] = median([seconds for _, seconds, _ in baseline.rows])
        out["cli.commands"] = len(baseline.rows)
    child = runner.spawn([sys.executable, "-X", "importtime", "-c", "import pspin"])
    if child.code != 0:
        raise BenchError(f"import pspin failed:\n{child.stderr[-3000:]}")
    out.update(tracing.import_breakdown(child.stderr))
    return out


def op_min_sum(passes: list[Pass]) -> float:
    """Sum over the op list of each op's fastest time across the passes.

    Shared hosts slow a virtual CPU by up to 1.5x for seconds at a time; the
    fastest of a run's passes mostly avoids that, where a median of two or
    three passes often does not.
    """
    per_op = zip(*([seconds for _, seconds, _ in p.rows] for p in passes))
    return sum(min(times) for times in per_op)


def seed_contract(passes: list[Pass]) -> list[str]:
    """Same seed, fresh processes: numeric outputs must agree to the bit."""
    prints = [p.fingerprints for p in passes if p.fingerprints]
    return [
        f"seed contract: {name} differs between passes"
        for name in (prints[0] if len(prints) > 1 else {})
        if any(fp.get(name) != prints[0][name] for fp in prints[1:])
    ]


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = load_golden(runner.root / "src")
    expected = load_expected()
    # untimed warm-up: byte-compiles the sources and fills the page cache
    _, warm = runner.worker("--probe")
    environment = {**warm["environment"], "nproc": len(runner.cpus), "workload": workload,
                   "seed": seed, "seconds": seconds, "trace": int(trace)}

    def one_pass(index: int, traced: bool) -> Pass:
        if workload == "cli-cold":
            return cli_pass(runner, seed, index, traced, golden, expected)
        return in_process_pass(runner, workload, seed, index, traced)

    start = time.monotonic()
    baseline = one_pass(0, False) if trace else None
    passes, walls = [], []
    while True:
        t0 = time.monotonic()
        passes.append(one_pass(len(passes) + int(trace), trace))
        walls.append(time.monotonic() - t0)
        if time.monotonic() - start + median(walls) > seconds:
            break
    every = ([baseline] if baseline else []) + passes

    setup = [p.setup_s for p in every if p.setup_s is not None]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.setup_sample())

    rows = [row for p in every for row in p.rows]
    contract = seed_contract(every)
    attempted = len(rows) + (len(every[0].fingerprints) if len(every) > 1 else 0)
    failed = sum(1 for row in rows if row[2]) + len(contract)
    problems = [f"{name}: {'; '.join(probs)}" for name, _, probs in rows if probs] + contract

    if trace:
        metrics = layer_metrics(runner, passes, baseline, workload == "cli-cold")
    else:
        metrics = {
            "run_s": op_min_sum(passes),
            "setup_s": median(setup),
            "peak_rss_mb": median([p.rss_mb for p in passes]),
        }
    return {
        "environment": environment,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "passes": [{"run_s": p.run_s, "rss_mb": p.rss_mb, "setup_s": p.setup_s,
                    "ops": p.rows} for p in every],
        "setup_samples": setup,
    }


def report(result: dict) -> int:
    names = PER_LAYER if result["environment"]["trace"] else END_TO_END
    metrics = {n: {"value": result["metrics"][n], "unit": unit(n)} for n in names}
    for line in result["problems"][:30]:
        print(f"FAIL {line}")
    for n, m in metrics.items():
        print(f"  {n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": result["environment"]}, sort_keys=True))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    ignore = {"seed", "seconds", "trace", "workload"}
    differs = sorted(k for k in set(a["environment"]) | set(b["environment"])
                     if k not in ignore and a["environment"].get(k) != b["environment"].get(k))
    for k in differs:
        print(f"ENVIRONMENT DIFFERS {k}: {a['environment'].get(k)!r} vs {b['environment'].get(k)!r}")
    if a["environment"]["workload"] != b["environment"]["workload"]:
        print("WORKLOADS DIFFER: the numbers below are not comparable")
    for name in a["metrics"]:
        va, vb = a["metrics"][name], b["metrics"].get(name)
        change = f"{(vb - va) / va:+.1%}" if vb is not None and va else "n/a"
        print(f"  {name}: {va:.6g} -> {vb if vb is None else format(vb, '.6g')} ({change})")
    return 1 if differs else 0


def self_test(runner: Runner, seed: int) -> int:
    _, res = runner.worker("--self-test")
    st = res["self_test"]
    print(f"corrupted golden entry caught: {bool(st['golden_corrupted'])} {st['golden_corrupted'][:1]}")
    print(f"corrupted digest caught: {bool(st['digest_corrupted'])} {st['digest_corrupted'][:1]}")
    print(f"clean references pass: {not st['golden_clean'] and not st['digest_clean']}")
    first, again, other = (in_process_pass(runner, "oracles", s, 0, False) for s in (seed, seed, seed + 1))
    same = first.fingerprints == again.fingerprints and bool(first.fingerprints)
    print(f"seed {seed} twice: bit-identical numeric outputs: {same}")
    other_problems = [row for row in other.rows + first.rows if row[2]]
    print(f"seeds {seed} and {seed + 1}: every check passes: {not other_problems}")
    for name, _, probs in other_problems:
        print(f"  FAIL {name}: {probs}")
    return 0 if st["caught"] and same and not other_problems else 1


def probe_edges(runner: Runner, seed: int) -> int:
    _, res = runner.worker("--workload", "edges", "--seed", str(seed))
    failures = 0
    for name, _, problems in res["ops"]:
        print(f"{'FAIL' if problems else 'PASS'} {name}" + (f": {'; '.join(problems)}" if problems else ""))
        failures += bool(problems)
    print(f"{failures} of {len(res['ops'])} edge configurations fail "
          "(known defects of finite_n_evaluate, ROADMAP direction 4)" if failures else "all edge configurations pass")
    return 1 if failures else 0


def record_digests(runner: Runner) -> int:
    digests: dict[str, str] = {}
    for workload in ("exact-deep", "p-sweep"):
        _, res = runner.worker("--workload", workload, "--record")
        errors = [row for row in res["ops"] if row[2]]
        if errors:
            print(f"not recording: {workload} ops raised: {errors[:3]}", file=sys.stderr)
            return 1
        digests.update(res["digests"])
    golden = load_golden(runner.root / "src")
    cli = cli_pass(runner, 0, 0, False, golden, None, digests)
    errors = [row for row in cli.rows if row[2]]
    if errors:
        print(f"not recording: commands failed: {errors[:3]}", file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {EXPECTED_PATH.name}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--probe-edges", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    root = Path.cwd()
    if not (root / "src" / "pspin" / "__init__.py").is_file():
        print("bench: no src/pspin under the current directory; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    try:
        if args.self_test:
            return self_test(runner, args.seed)
        if args.probe_edges:
            return probe_edges(runner, args.seed)
        if args.record_digests:
            return record_digests(runner)
        if not args.workload:
            ap.error("--workload is required")
        result = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    results = runner.out / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    return report(result)


if __name__ == "__main__":
    sys.exit(main())
