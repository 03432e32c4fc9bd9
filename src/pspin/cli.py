"""Command-line interface: table computation, verification, densities.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal or
numeric error.  Output files are byte-stable for a fixed configuration and
seed; exact rationals are serialized as decimal numerator/denominator
strings.  The default output directory comes from PSPIN_OUTPUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import density as density_mod
from .correlators import (
    FiniteNSource,
    finite_n_evaluate,
    one_point_table,
    table_to_csv,
    table_to_dict,
    table_to_json,
    two_point_table,
)
from .exact import DomainError, UsageError
from .moments import CancellationError, ReductionCycleError
from .oracle import McConfig, mc_trace_moments, oracle_report, quad_moment
from .tautology import dilaton_check, selection_rule, string_check
from .twopoint import two_point_series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _warn(message: str) -> None:
    """Print message on stderr.  A stderr that cannot be written loses the
    line but not the exit code, as with argparse's own messages."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _out_dir() -> Path:
    return Path(os.environ.get("PSPIN_OUTPUT_DIR", "."))


def _write(path: Path, text: str) -> None:
    # the directories this call makes, innermost first; a spelling through ".."
    # may name one that exists once its sibling is made, so it is never removed
    made = [d for d in path.parents if not d.exists() and ".." not in d.parts]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        for d in made:  # a refused write leaves no directory behind ("sub/..")
            try:
                d.rmdir()
            except OSError:
                pass
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _rational(raw: str, what: str) -> Fraction:
    """raw as an exact rational; anything else is a usage error saying what was wanted."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what}, got {raw!r}") from exc


def _parse_p(raw: str):
    if raw == "symbolic":
        return "symbolic"
    p = _rational(raw, "--p must be a rational or 'symbolic'")
    if p == 0:
        raise UsageError("--p must be nonzero")
    return int(p) if p.denominator == 1 else p


def _value_text(row: dict) -> str:
    """An entry's value as num/den, each side parenthesized when it is a sum."""
    num, den = row["num"], row["den"]
    return f"{num}/{den}" if " " not in num and " " not in den else f"({num}) / ({den})"


def cmd_intersect(args) -> int:
    p = _parse_p(args.p)
    if args.genus < 0:
        raise UsageError("--genus must be >= 0")
    if args.points == 2:
        entries = two_point_table(p, args.genus)
    else:
        entries = one_point_table(p, args.genus)
    if args.golden:
        from . import golden

        problems = golden.compare(p, args.points, entries, g_max=args.genus)
        if problems is None:
            _warn(f"golden: no bundled reference table for p={p} at genus <= {args.genus}")
            return EXIT_USAGE
        if problems:
            for line in problems:
                _warn(f"golden drift: {line}")
            return EXIT_VERIFY_FAILED
        print(f"golden: all reference entries reproduced for p={p}")
    data = table_to_dict(entries, args.points, p)
    print(f"computed {len(data['entries'])} entries (p={data['p']}, points={args.points})")
    for row in data["entries"]:
        marks = " ".join(f"tau({m},{j})" for m, j in zip(row["m"], row["j"]))
        print(f"  g={row['genus']}  {marks} = {_value_text(row)}")
    if args.output:
        path = _out_dir() / args.output
        if args.format == "json":
            _write(path, table_to_json(entries, args.points, p))
        elif args.format == "csv":
            _write(path, table_to_csv(entries, args.points, p))
        else:
            lines = [
                f"g={row['genus']} m={row['m']} j={row['j']} value={_value_text(row)}"
                for row in data["entries"]
            ]
            _write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def _verify_insertion(args) -> tuple[bool, dict]:
    check = string_check if args.check == "string" else dilaton_check
    report = check(two_point_table(args.p, args.genus), args.p)
    print(report.render())
    return report.all_passed, report.to_dict()


def _verify_selection(args) -> tuple[bool, dict]:
    table = two_point_table(args.p, args.genus)
    ok = all(selection_rule(args.p, e.genus, e.marks) for e in table)
    print(f"selection rule on {len(table)} entries: {'PASS' if ok else 'FAIL'}")
    return ok, {"entries": len(table), "pass": ok}


def _verify_cancellation(args) -> tuple[bool, dict]:
    try:  # the tables' own route: their bounds and all three residue ledgers
        two_point_series(args.p, args.genus)
        print(
            f"cancellation ledger clean for p={args.p}, g<= {args.genus} "
            f"(irreducible cross terms vanish identically)"
        )
        return True, {"p": args.p, "g_max": args.genus, "pass": True}
    except CancellationError as exc:
        _warn(f"cancellation FAILED: {exc}")
        return False, {"p": args.p, "g_max": args.genus, "pass": False}


def _check_tol(tol: float, failed: tuple | list = ()) -> None:
    """Refuse a --tol that is not positive or is below 2^-52 max(|lhs|, |rhs|) for every FAIL."""
    if not tol > 0:  # also rejects NaN
        raise UsageError(f"--tol must be positive, got {tol}")
    res = [2**-52 * max(abs(x), abs(y)) if abs(x - y) < math.inf else 0 for x, y in failed]
    if res and all(tol < r for r in res):
        raise UsageError(f"--tol {tol} is below the float resolution of every failing "
                         f"comparison (the finest is {min(res):.3e})")


# (n, b, c) of the p=3 product moments that ``verify airy-quad`` checks
_AIRY_QUAD_SYMBOLS = (
    (5, 0, 0), (1, 2, 0), (1, 0, 2), (1, 1, 1), (3, 1, 0), (3, 0, 1),
    (7, 0, 0), (5, 1, 0), (5, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2),
    (1, 3, 0), (1, 0, 3), (1, 2, 1), (1, 1, 2), (0, 2, 0), (0, 1, 1),
)


def _verify_airy_quad(args) -> tuple[bool, dict]:
    from .airy import phi_deriv_zero
    from .moments import MomentSymbol, reduce_moment, reduction_numeric

    if not all(0 < a < math.inf for a in args.a_values):  # also rejects NaN
        raise UsageError("--a-values must be positive finite ratios a = (s1/s2)^(1/p)")
    _check_tol(args.tol)
    tol = args.tol
    bvals = {
        0: float(phi_deriv_zero(3, 0, "contour").numeric(30)),
        1: float(phi_deriv_zero(3, 1, "contour").numeric(30)),
    }
    reports = []
    ok = True
    for a in args.a_values:
        irr = {c: quad_moment(0, 0, c, a) for c in (0, 1)}
        for (n, b, c) in _AIRY_QUAD_SYMBOLS:
            red = reduce_moment(MomentSymbol(n, b, c, 3), ode_constant=Fraction(0))
            rhs = reduction_numeric(red, a, bvals, irr)
            lhs = quad_moment(n, b, c, a)
            rep = oracle_report(
                f"moment({n},{b},{c})", {"a": a}, lhs, rhs, tol
            )
            reports.append(rep)
            ok = ok and rep["pass"]
    fails = [r for r in reports if not r["pass"]]
    _check_tol(tol, [(r["lhs"], r["rhs"]) for r in fails])
    print(f"airy-quad: {len(reports) - len(fails)}/{len(reports)} identities pass at tol {tol}")
    for r in fails:
        print(f"  FAIL {r['identity']} a={r['parameters']['a']}: |diff|={r['abs_diff']:.3e}")
    return ok, {"reports": reports}


def _verify_mc(args) -> tuple[bool, dict]:
    eigs = tuple(args.eigenvalues)
    cfg = McConfig(args.n, eigs, tuple(args.s), sample_count=args.samples, rng_seed=args.seed)
    exact = finite_n_evaluate(FiniteNSource(args.n, eigs), list(args.s))
    mean, se = mc_trace_moments(cfg)
    if se:
        z = abs(mean - exact) / se
    else:
        # only the all-zero-s shortcut is exact; any other zero spread is no evidence
        z = 0.0 if mean == exact else float("inf")
    ok = z <= 3.0
    print(
        f"mc: estimate {mean:.8f} +- {se:.8f}, exact {exact:.8f}, |z| = {z:.2f} "
        f"({'PASS' if ok else 'FAIL'} at 3 sigma)"
    )
    payload = {
        "mean": mean,
        "stderr": se,
        "exact": exact,
        "z": z,
        "convention": "measure exp(-N/2 tr M^2 + N tr M A); "
        "prefactor exp(sum s_i^2/(2N)) fixed by the N=1 Gaussian check",
    }
    return ok, payload


def _verify_binet(args) -> tuple[bool, dict]:
    if not 0 < args.z < math.inf:  # also rejects NaN
        raise UsageError("--z must be positive and finite (digamma integral needs z > 0)")
    _check_tol(args.tol)
    lhs, rhs, diff = density_mod.binet_check(args.z)
    ok = diff <= args.tol
    _check_tol(args.tol, [] if ok else [(lhs, rhs)])
    print(f"binet z={args.z}: lhs={lhs:.12f} rhs={rhs:.12f} |diff|={diff:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tol})")
    return ok, {"z": args.z, "lhs": lhs, "rhs": rhs, "diff": diff}


def _verify_largep(args) -> tuple[bool, dict]:
    from .onepoint import one_point_series

    ok = True
    rows = []
    for g, term in enumerate(one_point_series(args.genus), 1):
        matches = density_mod.large_p_check(term, g)
        leading = term.leading()[1]
        rows.append((g, matches, str(leading)))
        ok = ok and matches
        print(f"largep g={g}: leading {leading} {'== B_g/((2g)! 2g) PASS' if matches else 'FAIL'}")
    for g in range(1, args.genus + 1):
        ident = density_mod.zeta_identity(g)
        ok = ok and ident
        print(f"zeta identity g={g}: {'PASS' if ident else 'FAIL'}")
    return ok, {"rows": rows}


# option -> its settings; each check reads the options _VERIFY_CHECKS lists and --output
_VERIFY_OPTIONS = {
    "--p": {"type": int, "default": 3},
    "--genus": {"type": int, "default": 2},
    "--a-values": {"type": float, "nargs": "+", "default": [0.5, 0.8, 1.0]},
    "--tol": {"type": float, "default": 1e-6},
    "--z": {"type": float, "default": 2.0},
    "--n": {"type": int, "default": 4},
    "--eigenvalues": {"type": float, "nargs": "+", "default": [1.0, -1.0, 2.0, -2.0]},
    "--s": {"type": float, "nargs": "+", "default": [0.3]},
    "--samples": {"type": int, "default": 100_000},
    "--seed": {"type": int, "default": 20121220},
    "--output": {"default": None},
}

_VERIFY_CHECKS = {
    "airy-quad": (_verify_airy_quad, ("--a-values", "--tol")),
    "binet": (_verify_binet, ("--z", "--tol")),
    "cancellation": (_verify_cancellation, ("--p", "--genus")),
    "dilaton": (_verify_insertion, ("--p", "--genus")),
    "largep": (_verify_largep, ("--genus",)),
    "mc": (_verify_mc, ("--n", "--eigenvalues", "--s", "--samples", "--seed")),
    "selection": (_verify_selection, ("--p", "--genus")),
    "string": (_verify_insertion, ("--p", "--genus")),
}


def cmd_verify(args) -> int:
    if getattr(args, "genus", 1) < 1:  # a check that reads --genus runs over genera 1..--genus
        raise UsageError(f"verify {args.check} needs --genus >= 1")
    ok, payload = _VERIFY_CHECKS[args.check][0](args)
    if args.output:
        path = _out_dir() / args.output
        _write(path, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_density(args) -> int:
    if args.central_charge is not None:
        # the range options default to None, so any of them here was given
        given = [opt for opt, v in (("--e-min", args.e_min), ("--e-max", args.e_max),
                                    ("--samples", args.samples), ("--output", args.output))
                 if v is not None]
        if given:
            args.parser.error(f"--central-charge takes no {', '.join(given)}")
        k_prime = _rational(args.central_charge, "--central-charge must be a rational")
        try:
            value = density_mod.central_charge_negative_branch(k_prime)
        except DomainError as exc:  # the formula's pole is a bad input, not a failure
            raise UsageError(f"--central-charge: {exc}") from exc
        print(f"central charge at k'={args.central_charge}: {value}")
        return EXIT_OK
    e_min = 5.0 if args.e_min is None else args.e_min
    e_max = 50.0 if args.e_max is None else args.e_max
    samples = 100 if args.samples is None else args.samples
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise UsageError("--e-min and --e-max must be finite")
    if e_min <= 0:
        raise UsageError("--e-min must be positive (density has a pole at E=0)")
    if not e_max > e_min:
        raise UsageError("--e-max must be greater than --e-min")
    cfg = density_mod.DensityConfig.linspace(e_min, e_max, samples)
    report = density_mod.blackhole_density_compare(cfg)
    print(report.render())
    lines = ["E,rho_matrix,rho_bh,residual"]  # rho_matrix less its -1/(2E) pole term
    for e, y, x, res in report.rows:
        lines.append(f"{e!r},{y!r},{x!r},{res!r}")
    if args.output:
        path = _out_dir() / args.output
        _write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -5e-1 and -1/2 as negative numbers, not options,
    and takes no abbreviated option.

    argparse's own negative-number pattern has neither an exponent nor a
    fraction.  Abbreviations would make every unique prefix part of the
    interface, so that adding or renaming an option changes what an old
    prefix means.  Subparsers are built from the parent's class, so they
    inherit both.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-\d+/\d+$"
        )


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pspin",
        description="Exact spin intersection numbers from matrix-model correlators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ap_i = sub.add_parser("intersect", help="compute intersection-number tables")
    ap_i.add_argument("--p", required=True, help="integer p, negative p, or 'symbolic'")
    ap_i.add_argument("--genus", type=int, required=True)
    ap_i.add_argument("--points", type=int, choices=(1, 2), default=2)
    ap_i.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap_i.add_argument("--output", default=None)
    ap_i.add_argument("--golden", action="store_true",
                      help="compare against the bundled reference tables")
    ap_i.set_defaults(func=cmd_intersect, parser=ap_i)

    ap_v = sub.add_parser("verify", help="run verification checks")
    checks = ap_v.add_subparsers(dest="check", required=True)
    for check, (_, options) in _VERIFY_CHECKS.items():
        ap_c = checks.add_parser(check)
        for option in options + ("--output",):
            ap_c.add_argument(option, **_VERIFY_OPTIONS[option])
        ap_c.set_defaults(func=cmd_verify, parser=ap_c)

    ap_d = sub.add_parser("density", help="density of states and coset comparison")
    ap_d.add_argument("--e-min", type=float, default=None)
    ap_d.add_argument("--e-max", type=float, default=None)
    ap_d.add_argument("--samples", type=int, default=None)
    ap_d.add_argument("--central-charge", default=None,
                      help="evaluate the continued central charge at k' and exit")
    ap_d.add_argument("--output", default=None)
    ap_d.set_defaults(func=cmd_density, parser=ap_d)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # the subcommand reports them, with its own usage line (exit 2)
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (UsageError,) as exc:
        _warn(f"usage error: {exc}")
        return EXIT_USAGE
    except (DomainError, CancellationError, ReductionCycleError, ArithmeticError) as exc:
        _warn(f"error: {exc}")
        return EXIT_INTERNAL
    except OSError as exc:  # files go through _write, so this is stdout: full, or a closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit then writes nowhere
        os.close(devnull)
        _warn(f"error: cannot write stdout: {exc}")
        return EXIT_INTERNAL
    return code
