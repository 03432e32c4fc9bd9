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
from . import golden
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
from .moments import CancellationError
from .oracle import McConfig, mc_trace_moments, oracle_report, quad_moment
from .tautology import dilaton_check, selection_rule, string_check
from .twopoint import REAL, two_point_grade

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _out_dir() -> Path:
    return Path(os.environ.get("PSPIN_OUTPUT_DIR", "."))


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
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


def cmd_intersect(args) -> int:
    p = _parse_p(args.p)
    if args.genus < 0:
        raise UsageError("--genus must be >= 0")
    if args.points == 2:
        entries = two_point_table(p, args.genus, args.kernel)
    else:
        entries = one_point_table(p, args.genus)
    if args.golden:
        problems = golden.compare(p, args.points, entries, g_max=args.genus)
        if problems is None:
            print(f"golden: no bundled reference table for p={p} at genus <= {args.genus}",
                  file=sys.stderr)
            return EXIT_USAGE
        if problems:
            for line in problems:
                print(f"golden drift: {line}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print(f"golden: all reference entries reproduced for p={p}")
    data = table_to_dict(entries, args.points, p)
    print(f"computed {len(data['entries'])} entries (p={data['p']}, points={args.points})")
    for row in data["entries"]:
        marks = " ".join(f"tau({m},{j})" for m, j in zip(row["m"], row["j"]))
        num, den = row["num"], row["den"]
        value = f"{num}/{den}" if " " not in num and " " not in den else f"({num}) / ({den})"
        print(f"  g={row['genus']}  {marks} = {value}")
    if args.output:
        path = _out_dir() / args.output
        if args.format == "json":
            _write(path, table_to_json(entries, args.points, p))
        elif args.format == "csv":
            _write(path, table_to_csv(entries, args.points, p))
        else:
            lines = [
                f"g={row['genus']} m={row['m']} j={row['j']} value={row['num']}/{row['den']}"
                for row in data["entries"]
            ]
            _write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def _verify_insertion(args) -> tuple[bool, dict]:
    check = string_check if args.check == "string" else dilaton_check
    report = check(two_point_table(args.p, args.genus, args.kernel), args.p)
    print(report.render())
    return report.all_passed, report.to_dict()


def _verify_selection(args) -> tuple[bool, dict]:
    table = two_point_table(args.p, args.genus, args.kernel)
    ok = all(selection_rule(args.p, e.genus, e.marks) for e in table)
    print(f"selection rule on {len(table)} entries: {'PASS' if ok else 'FAIL'}")
    return ok, {"entries": len(table), "pass": ok}


def _verify_cancellation(args) -> tuple[bool, dict]:
    try:
        for g in range(1, args.genus + 1):
            two_point_grade(args.p, g, args.kernel)
        print(
            f"cancellation ledger clean for p={args.p}, g<= {args.genus} "
            f"(irreducible cross terms vanish identically)"
        )
        return True, {"p": args.p, "g_max": args.genus, "pass": True}
    except CancellationError as exc:
        print(f"cancellation FAILED: {exc}", file=sys.stderr)
        return False, {"p": args.p, "g_max": args.genus, "pass": False}


def _check_tol(tol: float) -> None:
    if not tol > 0:  # also rejects NaN
        raise UsageError(f"--tol must be positive, got {tol}")


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
    symbols = [
        (5, 0, 0), (1, 2, 0), (1, 0, 2), (1, 1, 1), (3, 1, 0), (3, 0, 1),
        (7, 0, 0), (5, 1, 0), (5, 0, 1), (3, 1, 1), (3, 2, 0), (3, 0, 2),
        (1, 3, 0), (1, 0, 3), (1, 2, 1), (1, 1, 2), (0, 2, 0), (0, 1, 1),
    ]
    reports = []
    ok = True
    for a in args.a_values:
        irr = {c: quad_moment(0, 0, c, a) for c in (0, 1)}
        for (n, b, c) in symbols:
            red = reduce_moment(MomentSymbol(n, b, c, 3), ode_constant=Fraction(0))
            rhs = reduction_numeric(red, a, bvals, irr)
            lhs = quad_moment(n, b, c, a)
            rep = oracle_report(
                f"moment({n},{b},{c})", {"a": a}, lhs, rhs, tol
            )
            reports.append(rep)
            ok = ok and rep["pass"]
    fails = [r for r in reports if not r["pass"]]
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
    print(f"binet z={args.z}: lhs={lhs:.12f} rhs={rhs:.12f} |diff|={diff:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tol})")
    return ok, {"z": args.z, "lhs": lhs, "rhs": rhs, "diff": diff}


def _verify_largep(args) -> tuple[bool, dict]:
    from .onepoint import one_point_series

    ok = True
    rows = []
    for term in one_point_series(args.genus):
        rep = density_mod.large_p_check(term.coefficient, term.genus)
        rows.append((term.genus, rep.matches, str(rep.leading)))
        ok = ok and rep.matches
        print(
            f"largep g={term.genus}: leading {rep.leading} "
            f"{'== B_g/((2g)! 2g) PASS' if rep.matches else 'FAIL'}"
        )
    for g in range(1, args.genus + 1):
        ident = density_mod.zeta_identity_exact(g)
        ok = ok and ident
        print(f"zeta identity g={g}: {'PASS' if ident else 'FAIL'}")
    return ok, {"rows": rows}


_VERIFY_DISPATCH = {
    "string": _verify_insertion,
    "dilaton": _verify_insertion,
    "selection": _verify_selection,
    "cancellation": _verify_cancellation,
    "airy-quad": _verify_airy_quad,
    "mc": _verify_mc,
    "binet": _verify_binet,
    "largep": _verify_largep,
}


# checks that run over genera 1..--genus
_GENUS_CHECKS = {"string", "dilaton", "selection", "cancellation", "largep"}


def cmd_verify(args) -> int:
    if args.check in _GENUS_CHECKS and args.genus < 1:
        raise UsageError(f"verify {args.check} needs --genus >= 1")
    ok, payload = _VERIFY_DISPATCH[args.check](args)
    if args.output:
        path = _out_dir() / args.output
        _write(path, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_density(args) -> int:
    if args.central_charge is not None:
        k_prime = _rational(args.central_charge, "--central-charge must be a rational")
        value = density_mod.central_charge_negative_branch(k_prime)
        print(f"central charge at k'={args.central_charge}: {value}")
        return EXIT_OK
    if not (math.isfinite(args.e_min) and math.isfinite(args.e_max)):
        raise UsageError("--e-min and --e-max must be finite")
    if args.e_min <= 0:
        raise UsageError("--e-min must be positive (density has a pole at E=0)")
    if not args.e_max > args.e_min:
        raise UsageError("--e-max must be greater than --e-min")
    cfg = density_mod.DensityConfig.linspace(args.e_min, args.e_max, args.samples)
    report = density_mod.blackhole_density_compare(cfg)
    print(report.render())
    lines = ["E,rho_matrix,rho_bh,residual"]
    for e, y, x, res in report.rows:
        lines.append(f"{e!r},{y!r},{x!r},{res!r}")
    if args.output:
        path = _out_dir() / args.output
        _write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -5e-1 and -1/2 as negative numbers, not options.

    argparse's own negative-number pattern has neither an exponent nor a
    fraction; subparsers are built from the parent's class, so they inherit
    this one.
    """

    def __init__(self, *args, **kwargs):
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
    ap_i.add_argument("--kernel", choices=("real", "contour"), default=REAL)
    ap_i.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap_i.add_argument("--output", default=None)
    ap_i.add_argument("--golden", action="store_true",
                      help="compare against the bundled reference tables")
    ap_i.set_defaults(func=cmd_intersect)

    ap_v = sub.add_parser("verify", help="run verification checks")
    ap_v.add_argument("check", choices=sorted(_VERIFY_DISPATCH))
    ap_v.add_argument("--p", type=int, default=3)
    ap_v.add_argument("--genus", type=int, default=2)
    ap_v.add_argument("--kernel", choices=("real", "contour"), default=REAL)
    ap_v.add_argument("--a-values", type=float, nargs="+", default=[0.5, 0.8, 1.0])
    ap_v.add_argument("--tol", type=float, default=1e-6)
    ap_v.add_argument("--z", type=float, default=2.0)
    ap_v.add_argument("--n", type=int, default=4)
    ap_v.add_argument("--eigenvalues", type=float, nargs="+", default=[1.0, -1.0, 2.0, -2.0])
    ap_v.add_argument("--s", type=float, nargs="+", default=[0.3])
    ap_v.add_argument("--samples", type=int, default=100_000)
    ap_v.add_argument("--seed", type=int, default=20121220)
    ap_v.add_argument("--output", default=None)
    ap_v.set_defaults(func=cmd_verify)

    ap_d = sub.add_parser("density", help="density of states and coset comparison")
    ap_d.add_argument("--e-min", type=float, default=5.0)
    ap_d.add_argument("--e-max", type=float, default=50.0)
    ap_d.add_argument("--samples", type=int, default=100)
    ap_d.add_argument("--central-charge", default=None,
                      help="evaluate the continued central charge at k' and exit")
    ap_d.add_argument("--output", default=None)
    ap_d.set_defaults(func=cmd_density)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
    except (UsageError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, CancellationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
