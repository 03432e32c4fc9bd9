"""CLI behavior: commands, exit codes, output files, byte stability."""

import json
import subprocess
import sys

import pytest

from pspin.cli import main


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

    def test_genus_zero_empty(self, capsys):
        assert run("intersect", "--p", "3", "--genus", "0", "--points", "2") == 0
        assert "computed 0 entries" in capsys.readouterr().out

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

    def test_negative_genus_usage_error(self, capsys):
        for points in ("1", "2"):
            assert run("intersect", "--p", "3", "--genus", "-1", "--points", points) == 2
        assert "computed" not in capsys.readouterr().out


class TestVerify:
    def test_string_pass(self, capsys):
        assert run("verify", "string", "--p", "5", "--genus", "2") == 0
        assert "PASS" in capsys.readouterr().out

    def test_cancellation(self, capsys):
        assert run("verify", "cancellation", "--p", "3", "--genus", "3") == 0
        assert "clean" in capsys.readouterr().out

    def test_binet(self, capsys):
        assert run("verify", "binet", "--z", "2", "--tol", "1e-8") == 0

    def test_selection(self):
        assert run("verify", "selection", "--p", "4", "--genus", "2") == 0

    def test_largep(self):
        assert run("verify", "largep", "--genus", "3") == 0

    def test_mc_small(self, capsys):
        assert run("verify", "mc", "--n", "2", "--eigenvalues", "0.5", "-0.5",
                   "--s", "0.3", "--samples", "4000") == 0
        assert "PASS" in capsys.readouterr().out

    def test_mc_too_few_samples_usage_error(self):
        for samples in ("1", "0", "-5"):
            assert run("verify", "mc", "--samples", samples) == 2, samples

    def test_mc_zero_stderr_is_no_pass(self, monkeypatch, capsys):
        # a zero spread away from the exact value is a failure, not |z| = 0
        monkeypatch.setattr("pspin.cli.mc_trace_moments", lambda cfg: (1.27, 0.0))
        assert run("verify", "mc", "--samples", "2") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_mc_all_zero_s_exact(self, capsys):
        assert run("verify", "mc", "--s", "0", "--samples", "2") == 0
        assert "PASS" in capsys.readouterr().out

    def test_binet_nonpositive_z_usage_error(self):
        assert run("verify", "binet", "--z", "0") == 2

    def test_airy_quad_nonpositive_ratio_usage_error(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the ratios were checked")

        monkeypatch.setattr("pspin.cli.quad_moment", no_quadrature)
        for values in (["0"], ["-0.5"], ["0.5", "0"]):
            assert run("verify", "airy-quad", "--a-values", *values) == 2, values

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

    def test_pole_usage_error(self):
        assert run("density", "--e-min", "0", "--e-max", "10", "--samples", "5") == 2

    def test_reversed_range_usage_error(self):
        assert run("density", "--e-min", "5", "--e-max", "1") == 2

    def test_too_few_samples_usage_error(self):
        for samples in ("1", "0"):
            assert run("density", "--samples", samples) == 2, samples


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pspin", "intersect", "--p", "3", "--genus", "1",
         "--points", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tau(1,0) tau(1,0) = 1/12" in proc.stdout


class TestGoldenVariants:
    def test_negative_p_golden(self, capsys):
        assert run("intersect", "--p", "-3", "--genus", "3", "--points", "1",
                   "--golden") == 0
        assert "all reference entries reproduced for p=-3" in capsys.readouterr().out

    def test_golden_without_reference_table(self, capsys):
        assert run("intersect", "--p", "9", "--genus", "1", "--points", "2",
                   "--golden") == 2
        assert "no bundled reference table" in capsys.readouterr().err
