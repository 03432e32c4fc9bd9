"""CLI behavior: commands, exit codes, output files, byte stability."""

import ast
import contextlib
import errno
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspin import golden
from pspin.cli import _VERIFY_CHECKS, build_parser, main
from pspin.correlators import TauCorrelator, one_point_table, two_point_table
from pspin.exact import UsageError
from pspin.moments import CancellationError, ReductionCycleError


def run(*argv):
    return main(list(argv))


class TestIntersect:
    def test_p3_g2_stdout(self, capsys):
        assert run("intersect", "--p", "3", "--genus", "2", "--points", "2") == 0
        out = capsys.readouterr().out
        assert "tau(0,1) tau(4,1) = 1/864" in out
        assert "tau(2,1) tau(2,1) = 17/4320" in out

    def test_golden_flag(self, capsys):
        assert run("intersect", "--p", "4", "--genus", "2", "--points", "2",
                   "--golden") == 0
        assert "all reference entries reproduced" in capsys.readouterr().out

    def test_symbolic_one_point(self, capsys):
        assert run("intersect", "--p", "symbolic", "--genus", "2", "--points", "1") == 0
        out = capsys.readouterr().out
        assert "(2*p^3 - 7*p^2 + 2*p + 3) / (5760*p)" in out

    def test_p2_one_point_labels(self, capsys):
        # the admissible p=2 label is tau(3g-2, 0), not the continued tau(2g-1, 2g-2)
        assert run("intersect", "--p", "2", "--genus", "2", "--points", "1") == 0
        out = capsys.readouterr().out
        assert "g=1  tau(1,0) = 1/24" in out and "g=2  tau(4,0) = 1/1152" in out

    def test_genus_zero_empty(self, capsys):
        assert run("intersect", "--p", "3", "--genus", "0", "--points", "2") == 0
        assert "computed 0 entries (p=3, points=2)" in capsys.readouterr().out

    def test_json_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("intersect", "--p", "4", "--genus", "1", "--points", "2",
                   "--format", "json", "--output", "t.json") == 0
        data = json.loads((tmp_path / "t.json").read_text())
        assert data["p"] == 4 and data["points"] == 2
        rows = {tuple(r["m"]) + tuple(r["j"]): (r["num"], r["den"])
                for r in data["entries"]}
        assert rows[(0, 2, 0, 0)] == ("1", "8")

    def test_csv_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("intersect", "--p", "3", "--genus", "2", "--points", "2",
                   "--format", "csv", "--output", "t.csv") == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "p,genus,m,j,num,den"
        assert any(line.endswith("1,864") for line in lines)

    @pytest.mark.parametrize("p,genus,want", [
        ("3", "1", "g=1 m=[1] j=[0] value=1/12\n"),
        ("symbolic", "2", "g=1 m=[1] j=[0] value=(p - 1) / (24)\n"
                          "g=2 m=[3] j=[2] value=(2*p^3 - 7*p^2 + 2*p + 3) / (5760*p)\n"),
    ], ids=["numeric", "symbolic"])
    def test_text_output(self, p, genus, want, tmp_path, monkeypatch, capsys):
        # the file renders each value as stdout does
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("intersect", "--p", p, "--genus", genus, "--points", "1",
                   "--format", "text", "--output", "t.txt") == 0
        assert (tmp_path / "t.txt").read_text() == want
        out = capsys.readouterr().out
        for line in want.splitlines():
            assert f" = {line.split('value=')[1]}\n" in out

    def test_golden_drift_exit_1(self, monkeypatch, capsys):
        anchor = (2, ((0, 1), (4, 1)))
        drifted = {3: {**golden.REFERENCE_TWO_POINT[3], anchor: Fraction(1, 865)}}
        monkeypatch.setattr(golden, "REFERENCE_TWO_POINT", drifted)
        assert run("intersect", "--p", "3", "--genus", "2", "--points", "2",
                   "--golden") == 1
        captured = capsys.readouterr()
        assert captured.err == ("golden drift: drift at g=2 marks=((0, 1), (4, 1)): "
                                "expected 1/865, computed 1/864\n")
        assert "reproduced" not in captured.out

    def test_byte_stable_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        run("intersect", "--p", "3", "--genus", "2", "--points", "2",
            "--format", "json", "--output", "a.json")
        run("intersect", "--p", "3", "--genus", "2", "--points", "2",
            "--format", "json", "--output", "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_usage_error_exit_2(self, capsys):
        assert run("intersect", "--p", "2", "--genus", "1", "--points", "2") == 2
        assert run("intersect", "--p", "x", "--genus", "1", "--points", "2") == 2

    def test_symbolic_two_point_usage_error(self, capsys):
        assert run("intersect", "--p", "symbolic", "--genus", "1", "--points", "2") == 2
        assert "computed" not in capsys.readouterr().out

    def test_one_point_past_checked_genus_usage_error(self, capsys):
        assert run("intersect", "--p", "symbolic", "--genus", "17", "--points", "1") == 2
        assert "computed" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", [("intersect", "--p", "3", "--genus", "1"),
                                         ("verify", "string")], ids=["intersect", "verify"])
    def test_kernel_option_gone(self, command, capsys):
        # every command uses the real kernel; the contour kernel is a library cross-check
        with pytest.raises(SystemExit) as exc:
            run(*command, "--kernel", "contour")
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel contour" in capsys.readouterr().err

    def test_negative_genus_usage_error(self, capsys):
        for points in ("1", "2"):
            assert run("intersect", "--p", "3", "--genus", "-1", "--points", points) == 2
        assert "computed" not in capsys.readouterr().out

    def test_zero_p_usage_error(self, capsys):
        assert run("intersect", "--p", "0", "--genus", "1") == 2
        assert capsys.readouterr().err == "usage error: --p must be nonzero\n"

    def test_one_point_p_between_0_and_2_usage_error(self, capsys):
        assert run("intersect", "--p", "3/2", "--genus", "2", "--points", "1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: positive one-point tables need p >= 2\n"

    def test_mixed_surd_classes_exit_3(self, monkeypatch, capsys):
        # two boundary pairs on one a-power: (0, 0) cannot normalize to a rational
        from pspin import twopoint
        from pspin.exact import ExactScalar
        from pspin.moments import AssembledGrade

        grade = AssembledGrade({(0, 0): {1: Fraction(1)}, (1, 1): {1: Fraction(1)}}, {},
                               ExactScalar.rational_power(3, Fraction(2, 3)))
        monkeypatch.setattr(twopoint, "two_point_grade", lambda p, g: grade)
        assert run("intersect", "--p", "3", "--genus", "1") == 3
        assert capsys.readouterr().err.startswith("error: non-rational residue")

    def test_p_past_exact_route_bound_exit_2(self, capsys):
        assert run("intersect", "--p", "101", "--genus", "1") == 2
        assert capsys.readouterr().err == "usage error: exact-in-a route supports p <= 100\n"

    @pytest.mark.parametrize("argv, prog, unknown", [
        (("intersect", "--p", "3", "--genus", "2", "--gold"), "intersect", "--gold"),
        (("verify", "string", "--bogus", "1"), "verify string", "--bogus 1"),
    ], ids=["intersect", "verify"])
    def test_unknown_option_shows_subcommand_usage(self, argv, prog, unknown, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pspin {argv[0]} ")
        assert err.endswith(f"pspin {prog}: error: unrecognized arguments: {unknown}\n")

    def test_abbreviated_option_refused(self, capsys):
        # a unique prefix is not the option: --gold does not run as --golden
        with pytest.raises(SystemExit) as exc:
            run("intersect", "--p", "3", "--genus", "2", "--gold")
        assert exc.value.code == 2
        assert "unrecognized arguments: --gold" in capsys.readouterr().err


class TestVerify:
    def test_string_pass(self, capsys):
        assert run("verify", "string", "--p", "5", "--genus", "2") == 0
        assert "PASS" in capsys.readouterr().out

    def test_cancellation(self, capsys):
        assert run("verify", "cancellation", "--p", "3", "--genus", "3") == 0
        assert "clean" in capsys.readouterr().out

    def test_cancellation_failure_exit_1(self, monkeypatch, capsys):
        def residue(p, g):
            raise CancellationError("irreducible cross terms did not cancel: [0]", {})

        monkeypatch.setattr("pspin.twopoint.two_point_grade", residue)
        assert run("verify", "cancellation", "--p", "3", "--genus", "1") == 1
        captured = capsys.readouterr()
        assert "cancellation FAILED: irreducible cross terms" in captured.err
        assert "clean" not in captured.out

    def test_reduction_cycle_exit_3(self, monkeypatch, capsys):
        # a degenerate ring or an oversized closure is an internal error, not a failed check
        def degenerate(p, g):
            raise ReductionCycleError("closure from ('M', 1, 0, 0) exceeds bound")

        monkeypatch.setattr("pspin.twopoint.two_point_grade", degenerate)
        assert run("verify", "cancellation", "--p", "3", "--genus", "1") == 3
        assert capsys.readouterr().err == "error: closure from ('M', 1, 0, 0) exceeds bound\n"

    @pytest.mark.parametrize("p", ["0", "-3", "2"])
    def test_cancellation_bad_p_usage_error(self, p, capsys):
        # every two-point route refuses p < 3 before any arithmetic on p
        assert run("verify", "cancellation", "--p", p, "--genus", "1") == 2
        assert "p >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("p, genus, bound", [
        ("101", "1", "p <= 100"), ("4", "3", "g<=2 for p>=4"),
    ], ids=["p101", "p4_g3"])
    def test_cancellation_keeps_exact_route_bounds(self, p, genus, bound, monkeypatch, capsys):
        # refused with the tables' bounds before any grade is built
        def build(p, g):
            raise AssertionError("grade built past the exact route's bounds")

        monkeypatch.setattr("pspin.twopoint.two_point_grade", build)
        assert run("verify", "cancellation", "--p", p, "--genus", genus) == 2
        assert bound in capsys.readouterr().err

    def test_cancellation_runs_the_tables_ledgers(self, monkeypatch, capsys):
        # a boundary pair on a discarded a-power is refused as the tables refuse it
        from pspin import twopoint
        from pspin.moments import AssembledGrade

        real = twopoint._assembled_grade(3, 1)
        assert twopoint.grade_monomial(3, 1, 0) is None
        grade = AssembledGrade({**real.boundary, (0, 0): {0: Fraction(1)}}, real.constants,
                               real.prefactor)
        monkeypatch.setattr(twopoint, "_assembled_grade", lambda p, g: grade)
        assert run("verify", "cancellation", "--p", "3", "--genus", "1") == 1
        captured = capsys.readouterr()
        assert "cancellation FAILED: boundary residue on discarded grades" in captured.err
        assert "clean" not in captured.out

    @pytest.mark.parametrize("argv", [
        ("largep", "--p", "3"), ("airy-quad", "--p", "5"), ("mc", "--tol", "1e-3"),
        ("binet", "--genus", "2"), ("string", "--z", "2"), ("cancellation", "--samples", "10"),
    ], ids=lambda argv: argv[0])
    def test_option_the_check_does_not_read_exit_2(self, argv, capsys):
        # each check accepts only its own options, and reports others with its usage line
        with pytest.raises(SystemExit) as exc:
            run("verify", *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pspin verify {argv[0]} [-h]")
        unknown = " ".join(argv[1:])
        assert err.endswith(f"pspin verify {argv[0]}: error: unrecognized arguments: {unknown}\n")

    def test_binet(self, capsys):
        assert run("verify", "binet", "--z", "2", "--tol", "1e-8") == 0

    def test_selection(self):
        assert run("verify", "selection", "--p", "4", "--genus", "2") == 0

    def test_largep(self):
        assert run("verify", "largep", "--genus", "3") == 0

    def test_largep_changed_bernoulli_exit_1(self, monkeypatch, capsys):
        # B_4 = -1/30 planted as -1/31: the direct zeta(4) sum refuses it
        from pspin import density

        real = density.bernoulli_std.__wrapped__
        planted = functools.lru_cache(maxsize=None)(
            lambda n: Fraction(-1, 31) if n == 4 else real(n)
        )
        monkeypatch.setattr(density, "bernoulli_std", planted)
        assert run("verify", "largep", "--genus", "2") == 1
        out = capsys.readouterr().out
        assert "zeta identity g=1: PASS\n" in out
        assert "zeta identity g=2: FAIL\n" in out

    def test_largep_scaled_coefficient_exit_1(self, monkeypatch, capsys):
        # the genus-2 one-point coefficient off by 1%: its leading p^2 term no longer matches
        from pspin import onepoint

        series = onepoint.one_point_series

        def scaled(g_max):
            terms = series(g_max)
            terms[1] = terms[1].scale(Fraction(101, 100))
            return terms

        monkeypatch.setattr(onepoint, "one_point_series", scaled)
        assert run("verify", "largep", "--genus", "3") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "largep g=2: leading 101/288000 FAIL"
        assert lines[0].endswith("PASS") and lines[2].endswith("PASS")

    @pytest.mark.parametrize("check, marks, line", [
        ("string", ((0, 0), (2, 0)),
         "[FAIL (diff 1/1200)] string g=1: tau(0,0) tau(2,0)_g1 = tau(1,0)_g1"),
        ("dilaton", ((1, 0), (1, 0)),
         "[FAIL (diff 1/100)] dilaton g=1: tau(1,0) tau(1,0)_g1 = (2g-2+1) * tau(1,0)_g1"),
    ], ids=["string", "dilaton"])
    def test_insertion_scaled_entry_exit_1(self, check, marks, line, monkeypatch, capsys):
        # one tau(0,0) or tau(1,0) entry of the p=3 table off by 1%: only its line fails
        from pspin import cli

        table = cli.two_point_table

        def planted(p, g_max):
            return [TauCorrelator(e.p, e.genus, e.marks, e.value * Fraction(101, 100))
                    if (e.genus, e.marks) == (1, marks) else e for e in table(p, g_max)]

        monkeypatch.setattr(cli, "two_point_table", planted)
        assert run("verify", check) == 1
        lines = capsys.readouterr().out.splitlines()
        assert line in lines
        assert [ln for ln in lines if "FAIL" in ln] == [line]

    def test_airy_quad_shifted_boundary_value_exit_1(self, monkeypatch, capsys):
        # Ai'(0) off by 1e-3 relative: the identities that read it fail
        from pspin import airy

        real = airy.phi_deriv_zero

        def shifted(p, k, kernel_mode=airy.REAL):
            value = real(p, k, kernel_mode)
            return value.scale(Fraction(1001, 1000)) if k == 1 else value

        monkeypatch.setattr(airy, "phi_deriv_zero", shifted)
        assert run("verify", "airy-quad") == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [ln for ln in lines if ln.startswith("  FAIL moment(")]
        assert fails and len(fails) == len(lines) - 1
        assert lines[0] == f"airy-quad: {54 - len(fails)}/54 identities pass at tol 1e-06"

    def test_binet_scaled_kernel_exit_1(self, monkeypatch, capsys):
        from pspin import density

        kernel = density.exp_kernel_integrand
        monkeypatch.setattr(density, "exp_kernel_integrand", lambda s: 1.001 * kernel(s))
        assert run("verify", "binet", "--z", "2") == 1
        out = capsys.readouterr().out
        assert out.startswith("binet z=2.0: ") and out.endswith("(FAIL at 1e-06)\n")

    def test_binet_changed_bernoulli_exit_1(self, monkeypatch, capsys):
        # B_2 = 1/6 planted as 1/7: the Stirling lhs moves, the quadrature rhs does not
        from pspin import density

        real = density.bernoulli_std.__wrapped__
        planted = functools.lru_cache(maxsize=None)(
            lambda n: Fraction(1, 7) if n == 2 else real(n)
        )
        monkeypatch.setattr(density, "bernoulli_std", planted)
        density._stirling_digits.cache_clear()
        try:
            assert run("verify", "binet", "--z", "2") == 1
        finally:
            density._stirling_digits.cache_clear()
        out = capsys.readouterr().out
        assert out.startswith("binet z=2.0: ") and out.endswith("(FAIL at 1e-06)\n")

    def test_mc_small(self, capsys):
        assert run("verify", "mc", "--n", "2", "--eigenvalues", "0.5", "-0.5",
                   "--s", "0.3", "--samples", "4000") == 0
        assert "PASS" in capsys.readouterr().out

    def test_mc_too_few_samples_usage_error(self):
        for samples in ("1", "0", "-5"):
            assert run("verify", "mc", "--samples", samples) == 2, samples

    def test_mc_past_sample_cap_exit_3(self, monkeypatch, capsys):
        def no_sampling(cfg):
            raise AssertionError("sampling ran before the cap was checked")

        monkeypatch.setattr("pspin.cli.mc_trace_moments", no_sampling)
        assert run("verify", "mc", "--samples", str(2**20 + 1)) == 3
        assert "Monte Carlo samples (cap 1048576)" in capsys.readouterr().err

    def test_mc_zero_stderr_is_no_pass(self, monkeypatch, capsys):
        # a zero spread away from the exact value is a failure, not |z| = 0
        monkeypatch.setattr("pspin.cli.mc_trace_moments", lambda cfg: (1.27, 0.0))
        assert run("verify", "mc", "--samples", "2") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_mc_three_insertions_usage_error(self, capsys):
        assert run("verify", "mc", "--s", "0.1", "0.2", "0.3") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: one or two insertions supported\n"

    def test_mc_seed_out_of_range_usage_error(self):
        for seed in ("-1", str(2**128)):
            assert run("verify", "mc", "--seed", seed, "--samples", "2") == 2, seed

    def test_mc_non_finite_usage_error(self):
        assert run("verify", "mc", "--n", "2", "--eigenvalues", "nan", "1") == 2
        for s in ("nan", "inf", "-inf"):
            assert run("verify", "mc", f"--s={s}") == 2, s

    @pytest.mark.parametrize("argv, cause", [
        (("--eigenvalues", "0", "1e200", "--s", "0.3"), "radius ratio 1.0"),
        (("--eigenvalues", "0", "1", "--s", "800"), "e^160000"),
    ], ids=["spread", "factor"])
    def test_mc_out_of_float_range_exit_3(self, argv, cause, capsys):
        # these used to exit 3 with "float division by zero" and "math range error"
        assert run("verify", "mc", "--n", "2", *argv, "--samples", "100") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err

    def test_mc_infinite_factor_exit_3(self, capsys):
        # s^2 overflows to inf; this exited 3 with "cannot convert float infinity to integer"
        assert run("verify", "mc", "--n", "1", "--eigenvalues", "0", "--s", "1e300") == 3
        assert capsys.readouterr().err == (
            "error: U(s) overflows a float: its factor e^(sum s^2/2N) is e^inf\n")

    @pytest.mark.parametrize("argv", [
        ("--s", "0.3", "-0.3"),
        ("--n", "2", "--eigenvalues", "1", "1", "--s", "0.3", "0.2"),
    ], ids=["opposite-s", "repeated-eigenvalues"])
    def test_mc_former_residue_edges(self, argv, capsys):
        assert run("verify", "mc", *argv, "--samples", "4000") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("--n", "2", "--eigenvalues", "0.5", "-5e-1", "--s", "0.3"),
        ("--n", "2", "--eigenvalues", "0.5", "-0.5", "--s", "-3e-1"),
    ], ids=["eigenvalue", "s"])
    def test_mc_negative_exponent_form(self, argv, capsys):
        # argparse alone reads -5e-1 as an unknown option (exit 2)
        assert run("verify", "mc", *argv, "--samples", "4000") == 0
        assert "PASS" in capsys.readouterr().out

    def test_mc_all_zero_s_exact(self, capsys):
        assert run("verify", "mc", "--s", "0", "--samples", "2") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("z, line", [
        ("1e-12", "lhs=-1000000000000.577270507812 rhs=-1000000000000.577148437500 |diff|=1.221e-04"),
        ("1e-16", "lhs=-10000000000000000.000000000000 rhs=-10000000000000000.000000000000 "
                  "|diff|=0.000e+00"),
        ("1e-30", "lhs=-999999999999999879147136483328.000000000000 "
                  "rhs=-999999999999999879147136483328.000000000000 |diff|=0.000e+00"),
        ("1e-100", "lhs=-1000000000000000015902891109759918046836080856394528138978132755774783877217038"
                   "1060813469985856815104.000000000000 rhs=-1000000000000000015902891109759918046836080"
                   "8563945281389781327557747838772170381060813469985856815104.000000000000 "
                   "|diff|=0.000e+00"),
    ])
    def test_binet_tiny_z_passes(self, z, line, capsys):
        # all four exited 3, "quadrature error estimate ... exceeds tol 1e-09": the
        # integral is about 1/(2z), and at 1e-12 its two rules still differ by one
        # ulp of it, which the bound 1e-9 max(1, |integral|) accepts
        assert run("verify", "binet", "--z", z, "--tol", "1") == 0
        assert capsys.readouterr().out == f"binet z={float(z)}: {line} (PASS at 1.0)\n"

    def test_binet_nonpositive_z_usage_error(self):
        assert run("verify", "binet", "--z", "0") == 2

    def test_binet_non_finite_z_usage_error(self, capsys):
        # --z inf used to end in "float division by zero" (exit 3)
        for z in ("inf", "nan"):
            assert run("verify", "binet", "--z", z) == 2, z
        assert capsys.readouterr().err.count("usage error: --z") == 2

    def test_binet_nonpositive_tol_usage_error(self):
        for tol in ("-1", "0", "nan"):
            assert run("verify", "binet", "--tol", tol) == 2, tol

    def test_airy_quad_nonpositive_tol_usage_error(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the tolerance was checked")

        monkeypatch.setattr("pspin.cli.quad_moment", no_quadrature)
        for tol in ("-1", "0", "nan"):
            assert run("verify", "airy-quad", "--tol", tol) == 2, tol

    @pytest.mark.parametrize("argv", [["binet", "--z", "1e-13"], ["airy-quad", "--tol", "1e-300"],
                                      ["binet", "--z", "10", "--tol", "1e-300"]])
    def test_tol_below_float_resolution_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # each FAIL is at most an ulp or so of the values compared (psi(1e-13) is
        # about -1e13, one ulp 2.0e-3), so it says nothing about the identity
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("verify", *argv, "--output", "report.json") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --tol ") and "float resolution" in captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_tol_resolution_rule(self):
        from pspin.cli import _check_tol

        with pytest.raises(UsageError, match="the finest is 2.220e-02"):
            _check_tol(1e-6, [(-1e14, -1e14 + 0.015625)])
        # a FAIL at or above its resolution, with or without another one below, is a verdict
        for failed in ([], [(1.0, 1.5)], [(-1e14, -1e14 + 0.015625), (1.0, 1.5)],
                       [(1.0, 0.5)], [(math.inf, 1.0)], [(math.nan, 1.0)], [(1e14, math.nan)]):
            tol = 2**-52 if failed == [(1.0, 0.5)] else 1e-6
            _check_tol(tol, failed)

    def test_airy_quad_nonpositive_ratio_usage_error(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the ratios were checked")

        monkeypatch.setattr("pspin.cli.quad_moment", no_quadrature)
        # ratios must be positive and finite, and are refused before any quadrature
        for values in (["0"], ["-0.5"], ["0.5", "0"], ["inf"], ["1e400"], ["nan"], ["0.5", "inf"]):
            assert run("verify", "airy-quad", "--a-values", *values) == 2, values

    def test_airy_quad_uncertifiable_ratio_exit_3(self, capsys):
        # the node and walk caps refuse a = 1e9 up front: no NaN FAIL lines, no hang
        start = time.perf_counter()
        assert run("verify", "airy-quad", "--a-values", "1e9") == 3
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "FAIL" not in captured.out

    @pytest.mark.parametrize("check", ["string", "dilaton", "selection", "cancellation", "largep"])
    def test_genus_below_one_usage_error(self, check, capsys):
        for genus in ("0", "-1"):
            assert run("verify", check, "--genus", genus) == 2, genus
        assert "PASS" not in capsys.readouterr().out

    def test_report_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("verify", "dilaton", "--p", "4", "--genus", "2",
                   "--output", "dilaton.json") == 0
        payload = json.loads((tmp_path / "dilaton.json").read_text())
        assert payload["passed"] is True


class TestDensity:
    def test_density_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("density", "--e-min", "5", "--e-max", "50", "--samples", "20",
                   "--output", "rho.csv") == 0
        out = capsys.readouterr().out
        assert "affine fit" in out
        lines = (tmp_path / "rho.csv").read_text().splitlines()
        assert lines[0] == "E,rho_matrix,rho_bh,residual"
        assert len(lines) == 21

    def test_central_charge(self, capsys):
        assert run("density", "--central-charge", "9/4") == 0
        assert "26" in capsys.readouterr().out

    def test_central_charge_bad_value_usage_error(self, capsys):
        for raw in ("abc", "inf", "1/0"):
            assert run("density", "--central-charge", raw) == 2, raw
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("usage error: --central-charge"), err

    @pytest.mark.parametrize("argv", [
        ("--e-min", "1", "--output", "x.csv"), ("--e-max", "60"), ("--samples", "5"),
        ("--output", "x.csv"),
    ], ids=["e-min-output", "e-max", "samples", "output"])
    def test_central_charge_refuses_range_options(self, argv, tmp_path, monkeypatch, capsys):
        # the value is exact and nothing is written, so a range option or --output is a mistake
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            run("density", "--central-charge", "9/4", *argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: pspin density [-h]")
        given = ", ".join(a for a in argv if a.startswith("--"))
        assert captured.err.endswith(f"error: --central-charge takes no {given}\n")
        assert list(tmp_path.iterdir()) == []

    def test_central_charge_pole_usage_error(self, capsys):
        # k' = 2 is the pole of 2 + 6/(k'-2): a bad input, not an internal error
        assert run("density", "--central-charge", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --central-charge: central charge pole at k' = 2\n"

    def test_pole_usage_error(self):
        assert run("density", "--e-min", "0", "--e-max", "10", "--samples", "5") == 2

    def test_reversed_range_usage_error(self):
        assert run("density", "--e-min", "5", "--e-max", "1") == 2

    def test_too_few_samples_usage_error(self):
        for samples in ("2", "1", "0"):
            assert run("density", "--samples", samples) == 2, samples

    def test_non_finite_range_usage_error(self, capsys):
        # refused before the grid is built: Re psi(iE) has no value at E = inf or nan
        for bounds in (("--e-max", "inf"), ("--e-max", "1e400"), ("--e-min", "nan"),
                       ("--e-max", "nan"), ("--e-min=-inf",)):
            assert run("density", *bounds) == 2, bounds
        assert "affine fit" not in capsys.readouterr().out

    @pytest.mark.parametrize("e_min, e_max", [("1000", "1001"), ("5", "5.000000000001")])
    def test_narrow_grid_exit_3(self, e_min, e_max, tmp_path, monkeypatch, capsys):
        # the fit's normal equations cancel there: no alpha, no beta, no file
        monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
        assert run("density", "--e-min", e_min, "--e-max", e_max, "--samples", "3",
                   "--output", "x.csv") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: E grid too narrow for the affine fit")
        assert list(tmp_path.iterdir()) == []

    def test_subnormal_e_min_exit_3(self, capsys):
        # 1/(2E) overflows at E = 1e-320; the NaN fit used to print and exit 0
        assert run("density", "--e-min", "1e-320", "--e-max", "1", "--samples", "5") == 3
        captured = capsys.readouterr()
        assert "nan" not in captured.out and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("intersect", "--p", "3", "--genus", "1"),
    ("verify", "selection", "--p", "3", "--genus", "1"),
    ("density", "--e-min", "5", "--e-max", "6", "--samples", "3"),
], ids=["intersect", "verify", "density"])
def test_unwritable_output_usage_error(argv, tmp_path, monkeypatch, capsys):
    # the output's parent is a regular file: one usage line, not a traceback
    monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "afile").write_text("")
    assert run(*argv, "--output", "afile/x.out") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: cannot write {tmp_path}"), err


@pytest.mark.parametrize("output", ["sub/..", "new/../empty/..", "afile/x.out"],
                         ids=["made-then-refused", "existing-empty-kept", "under-a-file"])
def test_refused_output_leaves_no_directory(output, tmp_path, monkeypatch):
    # `sub/..` used to leave `sub` behind on exit 2; a directory that was there stays
    monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "empty").mkdir()
    (tmp_path / "afile").write_text("")
    assert run("verify", "string", "--output", output) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "empty"]


def test_write_cut_short_usage_error(tmp_path, monkeypatch, capsys):
    # a device that fills mid-write: exit 2 with one usage line, as for a refused open
    monkeypatch.setenv("PSPIN_OUTPUT_DIR", str(tmp_path))

    def cut_short(path, text, encoding=None):
        path.touch()
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", cut_short)
    assert run("verify", "string", "--output", "sub/r.json") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: cannot write {tmp_path / 'sub' / 'r.json'}: "
                   "[Errno 28] No space left on device"], err


@pytest.mark.parametrize("spaced,joined", [
    (("intersect", "--p", "-1/2", "--points", "1", "--genus", "2"),
     ("intersect", "--p=-1/2", "--points", "1", "--genus", "2")),
    (("density", "--central-charge", "-1/2"), ("density", "--central-charge=-1/2")),
], ids=["intersect-p", "density-central-charge"])
def test_negative_fraction_argument(spaced, joined, capsys):
    # argparse alone reads a spaced -1/2 as an option ("expected one argument")
    assert run(*joined) == 0
    want = capsys.readouterr().out
    assert run(*spaced) == 0
    assert capsys.readouterr().out == want


def test_readme_commands_parse():
    # every pspin line of README's "Command line" block parses with no leftover
    # option, so the documented options stay in step with each subcommand's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("pspin ")]
    assert len(lines) == 15
    parser = build_parser()
    for line in lines:
        args, extra = parser.parse_known_args(shlex.split(line)[1:])
        assert extra == [], line


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pspin", "intersect", "--p", "3", "--genus", "1",
         "--points", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tau(1,0) tau(1,0) = 1/12" in proc.stdout


def _run_into(stdout, argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "pspin", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_exits_3(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _run_into(full, ["intersect", "--p", "3", "--genus", "3"], unbuffered)
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_into_a_closed_pipe_exits_3(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = _run_into(write_end, ["intersect", "--p", "symbolic", "--points", "1",
                                     "--genus", "16"], unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, stdout_full, code", [
    (["intersect", "--p", "2", "--genus", "1"], False, 2),
    (["intersect", "--p", "3", "--genus", "1", "--bogus"], False, 2),
    (["verify", "airy-quad", "--a-values", "1e5"], False, 3),
    (["intersect", "--p", "3", "--genus", "3"], True, 3),
], ids=["usage", "argparse", "numeric", "stdout"])
def test_unwritable_stderr_keeps_exit_code(argv, stdout_full, code):
    # the message is lost, the documented exit code is not (it was 1, with no traceback shown)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "pspin", *argv], stderr=full,
                              stdout=full if stdout_full else subprocess.DEVNULL)
    assert proc.returncode == code


_CLI_PROBE = """
import runpy, sys
sys.argv = ["pspin"] + {argv!r}
try:
    runpy.run_module("pspin", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""

_PROBES = {
    # probe -> the numeric libraries it may load, and whether it runs the CLI
    "import": ("import pspin", [], False),
    "help": (_CLI_PROBE.format(argv=["--help"]), [], True),
    "intersect": (_CLI_PROBE.format(argv=["intersect", "--p", "3", "--genus", "2"]), [], True),
    "airy-quad": (_CLI_PROBE.format(argv=["verify", "airy-quad"]), [], True),
    "mc": (_CLI_PROBE.format(argv=["verify", "mc", "--samples", "1000"]), ["numpy"], True),
    "binet": (_CLI_PROBE.format(argv=["verify", "binet", "--z", "2"]), [], True),
    "density": (_CLI_PROBE.format(argv=["density", "--e-min", "5", "--e-max", "6", "--samples", "3"]),
                [], True),
}


@pytest.mark.parametrize("probe, allowed, cli", list(_PROBES.values()), ids=list(_PROBES))
def test_sympy_stays_unimported(probe, allowed, cli):
    # the exact core carries its own coefficient types, the numeric libraries
    # load only inside the functions that use them, and scipy not at all
    script = probe + (
        "\nimport json, sys"
        "\nprint(json.dumps([sorted({'sympy', 'numpy', 'scipy', 'mpmath'} & set(sys.modules)),"
        " sorted(m for m in sys.modules if m.startswith('pspin.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    heavy, submodules = json.loads(proc.stdout.splitlines()[-1])
    assert heavy == allowed
    if cli:
        # the traced benchmark wraps the bindings of both modules once pspin.cli is imported
        assert {"pspin.oracle", "pspin.density"} <= set(submodules)
    else:
        # a bare import loads no submodule: names are imported from their module
        assert submodules == []


def test_airy_quad_runs_without_mpmath():
    # Ai(0) and Ai'(0) come from pspin's own Gamma series (exact._gamma), not mpmath's Gamma
    script = "import sys\nsys.modules['mpmath'] = None\n" + _CLI_PROBE.format(
        argv=["verify", "airy-quad"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "airy-quad: 54/54 identities pass" in proc.stdout


@pytest.mark.parametrize("argv, line", [
    (["verify", "airy-quad", "--a-values", "0.5", "2", "7"], "airy-quad: 54/54 identities pass"),
    (["verify", "binet", "--z", "2"], "binet z=2.0: lhs=0.422784335098 rhs=0.422784335098 "
                                      "|diff|=0.000e+00 (PASS at 1e-06)\n"),
], ids=["airy-quad", "binet"])
def test_quadrature_runs_without_numpy(argv, line):
    # Gauss-Legendre rules, Ai and the Binet kernel are plain floats and math
    script = "import sys\nsys.modules['numpy'] = None\n" + _CLI_PROBE.format(argv=argv)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(line)


def _package_imports(top: str) -> list[str]:
    """'file: module' for every import of package `top` in a src/pspin module."""
    package = Path(__file__).resolve().parents[1] / "src" / "pspin"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == top]
    return found


def test_no_scipy_import_in_package():
    assert _package_imports("scipy") == []


def test_no_dataclasses_import_in_package():
    # the records are plain slotted classes: dataclasses would load inspect, ast
    # and dis, and compile generated methods for each class, in every cold command
    assert _package_imports("dataclasses") == []


def test_cold_commands_skip_dataclasses_and_inspect():
    # typing is not checked: a site-wide .pth file may import it at start-up
    argvs = [["intersect", "--p", "3", "--genus", "2"], ["verify", "string"],
             ["density", "--central-charge", "9/4"]]
    script = "".join(_CLI_PROBE.format(argv=argv) for argv in argvs) + (
        "\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestGoldenVariants:
    def test_negative_p_golden(self, capsys):
        assert run("intersect", "--p", "-3", "--genus", "3", "--points", "1",
                   "--golden") == 0
        assert "all reference entries reproduced for p=-3" in capsys.readouterr().out

    def test_compare_by_genus_and_marks(self):
        two = two_point_table(3, 2)
        one = one_point_table(-1, 4)
        assert golden.compare(3, 2, two, g_max=2) == [] and golden.compare(-1, 1, one) == []
        assert golden.compare(3, 1, one_point_table(3, 2)) is None  # no one-point table
        anchor = (2, ((0, 1), (4, 1)))
        bad = [TauCorrelator(e.p, e.genus, e.marks, e.value + 1) if (e.genus, e.marks) == anchor else e
               for e in two]
        assert golden.compare(3, 2, bad, g_max=2) == [
            "drift at g=2 marks=((0, 1), (4, 1)): expected 1/864, computed 865/864"]
        assert golden.compare(-1, 1, one[1:]) == ["missing reference entry g=1 marks=((1, 0),)"]

    @pytest.mark.parametrize("argv", [
        ("--p", "3", "--genus", "1", "--points", "2"),
        ("--p", "-3", "--genus", "0", "--points", "1"),
    ])
    def test_golden_without_entry_in_range(self, argv, capsys):
        # a reference table with no entry at genus <= --genus compared nothing
        genus = argv[3]
        assert run("intersect", *argv, "--golden") == 2
        captured = capsys.readouterr()
        assert "reproduced" not in captured.out
        assert f"at genus <= {genus}" in captured.err
        assert golden.compare(3, 2, two_point_table(3, 1), g_max=1) is None

    def test_golden_without_reference_table(self, capsys):
        assert run("intersect", "--p", "9", "--genus", "1", "--points", "2",
                   "--golden") == 2
        assert "no bundled reference table" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the grammar as a whole: argv drawn from each subcommand's options, extremes
# included, each bounded so that a draw does little work (p <= 9, genus <= 3,
# --samples <= 200, --n <= 4 past the refusals) and starts no process or thread
# ---------------------------------------------------------------------------

_HUGE = str(10**30)
_REALS = ["0", "-1", "0.5", "2", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf",
          "1/0", _HUGE]


def _one(values):
    return st.sampled_from(values).map(lambda v: [v])


def _several(values, most):
    return st.lists(st.sampled_from(values), max_size=most)  # [] is argparse's refusal


_GENUS = _one(["-1", "0", "1", "2", "3", _HUGE, "-" + _HUGE, "nan", "1/0"])
_SWEEP_OPTIONS = {
    "--p": _one(["-3", "0", "2", "3", "4", "9", _HUGE, "nan", "1/0"]),
    "--genus": _GENUS,
    "--a-values": _several(_REALS, 3),
    "--tol": _one(_REALS),
    "--z": _one(_REALS),
    "--n": _one(["-1", "0", "1", "2", "4", _HUGE]),
    "--eigenvalues": _several(_REALS, 4),
    "--s": _several(_REALS, 3),
    "--samples": _one(["-1", "0", "2", "3", "200", _HUGE]),
    "--seed": _one(["-1", "0", "7", str(2**128), _HUGE]),
    "--output": _one(["out.txt", "sub/out.txt", ".", "sub/.."]),
}
_SWEEP_GRAMMAR = {
    ("intersect",): {
        "--p": _one(["symbolic", "-1/2", "-3", "-1", "0", "1", "2", "3", "4", "9", "7/3",
                     "1/0", "nan", "1e-300", "1e300", _HUGE]),
        "--genus": _GENUS,
        "--points": _one(["0", "1", "2", "3"]),
        "--format": _one(["json", "csv", "text", "xml"]),
        "--output": _SWEEP_OPTIONS["--output"],
        "--golden": st.just([]),
    },
    **{("verify", check): {opt: _SWEEP_OPTIONS[opt] for opt in options + ("--output",)}
       for check, (_, options) in _VERIFY_CHECKS.items()},
    ("density",): {
        "--e-min": _one(_REALS),
        "--e-max": _one(_REALS),
        "--samples": _SWEEP_OPTIONS["--samples"],
        "--central-charge": _one(["2", "9/4", "-1/2", "0", "1/0", "nan", _HUGE]),
        "--output": _SWEEP_OPTIONS["--output"],
    },
}
_SWEEP_ARGV = st.one_of([
    st.fixed_dictionaries({}, optional=options).map(
        lambda drawn, head=head: [*head, *(t for opt, vals in drawn.items() for t in (opt, *vals))])
    for head, options in _SWEEP_GRAMMAR.items()
])


@settings(max_examples=60, deadline=None)
@given(_SWEEP_ARGV)
def test_grammar_sweep_keeps_documented_exits(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"PSPIN_OUTPUT_DIR": tmp}), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own refusals, exit 2
                code = exc.code
        left = sorted(str(path.relative_to(tmp)) for path in Path(tmp).rglob("*"))
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 3):  # exit 1 may leave the report that records the failure
        assert left == [], (argv, left)
