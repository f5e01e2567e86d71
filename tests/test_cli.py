"""End-to-end CLI behavior: outputs, exit codes, round trips, determinism."""

import errno
import hashlib
import os
import re
import subprocess
import sys
import warnings

import pytest

from fusioncat import cyclotomic
from fusioncat.cli import main
from fusioncat.modular_data import ModularDatum

from test_golden import CLI_SHA256


def run_cli(argv, stdin_text=None, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        proc = subprocess.run(
            [sys.executable, "-m", "fusioncat.cli", *argv],
            input=stdin_text, capture_output=True, text=True, timeout=600)
        return proc.returncode, proc.stdout, proc.stderr
    assert capsys is not None
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestFuse:
    def test_offdiagonal_square(self, capsys):
        code, out, _ = run_cli(["fuse", "--catalog", "U", "M^0", "M^0"],
                               capsys=capsys)
        assert code == 0
        assert out.strip() == "M~_0[0] + M~_0[1] + M~_0[2] + 2*M^0"

    def test_w_aliases(self, capsys):
        code, out, _ = run_cli(["fuse", "--catalog", "U", "W6", "W6"],
                               capsys=capsys)
        assert code == 0
        assert out.strip() == "M~_0[0] + M~_0[1] + M~_0[2] + 2*M^0"

    def test_vltau(self, capsys):
        code, out, _ = run_cli(
            ["fuse", "--catalog", "VLtau", "V(c,0)", "V(c,0)"], capsys=capsys)
        assert code == 0
        assert out.strip() == ("V(0,0)[0] + V(0,0)[1] + V(0,0)[2] "
                               "+ 2*V(c,0)")

    def test_unknown_label_exits_2(self, capsys):
        code, _, err = run_cli(["fuse", "--catalog", "U", "nope", "M^0"],
                               capsys=capsys)
        assert code == 2
        assert "error" in err


class TestCount:
    def test_twenty(self, capsys):
        code, out, _ = run_cli(["count", "2"], capsys=capsys)
        assert code == 0
        assert out.strip() == "20"

    def test_nine(self, capsys):
        code, out, _ = run_cli(["count", "1"], capsys=capsys)
        assert out.strip() == "9"

    def test_invalid_exits_2(self, capsys):
        code, _, _ = run_cli(["count", "0"], capsys=capsys)
        assert code == 2


class TestVerify:
    def test_catalog_u_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--catalog", "U"], capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "Verlinde round-trip" in out

    def test_catalog_vltau_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--catalog", "VLtau"],
                               capsys=capsys)
        assert code == 0

    def test_stdin_round_trip(self, capsys):
        code, emitted, _ = run_cli(["catalog", "U"], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["verify", "-"], stdin_text=emitted)
        assert code == 0
        assert "FAIL" not in out

    def test_broken_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcat"
        bad.write_text("category broken\nlabel 0 one\nlabel 1 t\nunit 0\n"
                       "N 0 0 0 1\nN 1 1 0 1\n")
        code, out, _ = run_cli(["verify", str(bad)], capsys=capsys)
        assert code == 1
        assert "FAIL" in out

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcat"
        bad.write_text("wibble 1 2 3\n")
        code, _, err = run_cli(["verify", str(bad)], capsys=capsys)
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "/nonexistent/x.fcat"],
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: /nonexistent/x.fcat: {os.strerror(errno.ENOENT)}"]

    def test_directory_input_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run_cli(["verify", str(tmp_path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {tmp_path}: {os.strerror(errno.EISDIR)}"]

    def test_input_file_is_closed(self, tmp_path, capsys):
        path = tmp_path / "one.fcat"
        path.write_text("category one\nlabel 0 one\nunit 0\nN 0 0 0 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(["verify", str(path)], capsys=capsys)
        assert code == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_modular_report_computed_once(self, monkeypatch, capsys):
        calls = []
        check = ModularDatum._check_modular

        def counted(md):
            calls.append(md)
            return check(md)
        monkeypatch.setattr(ModularDatum, "_check_modular", counted)
        code, out, _ = run_cli(["verify", "--catalog", "U"], capsys=capsys)
        assert code == 0
        assert "Verlinde round-trip         PASS" in out
        assert len(calls) == 1


_FIBONACCI = """category fib
label 0 1
label 1 t
unit 0
N 0 0 0 1
N 0 1 1 1
N 1 0 1 1
N 1 1 0 1
N 1 1 1 1
twist 0 0/1
twist 1 2/5
dim 0 1
dim 1 -e(2/5)-e(3/5)
"""

# Z3 with dims 1, e(1/3), e(2/3): the global dimension 1 + e(2/3) + e(1/3)
# is 0.
_Z3_ZERO_DIM = """category z3
label 0 a
label 1 b
label 2 c
unit 0
N 0 0 0 1
N 0 1 1 1
N 0 2 2 1
N 1 0 1 1
N 1 1 2 1
N 1 2 0 1
N 2 0 2 1
N 2 1 0 1
N 2 2 1 1
twist 0 0/1
twist 1 1/3
twist 2 1/3
dim 0 1
dim 1 e(1/3)
dim 2 e(2/3)
"""


class TestGlobalDimension:
    @pytest.mark.parametrize("command", ["verify", "smatrix", "verlinde"])
    def test_irrational_global_dimension_is_one_error_line(
            self, command, tmp_path, capsys):
        path = tmp_path / "fib.fcat"
        path.write_text(_FIBONACCI)
        code, _, err = run_cli([command, str(path)], capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            "error: global dimension 2-e(2/5)-e(3/5) is irrational; "
            "no square-root rule"]

    def test_irrational_global_dimension_still_gives_stilde(
            self, tmp_path, capsys):
        path = tmp_path / "fib.fcat"
        path.write_text(_FIBONACCI)
        code, out, _ = run_cli(["smatrix", "--unnormalized", str(path)],
                               capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["0 0 1", "0 1 -e(2/5)-e(3/5)",
                                    "1 0 -e(2/5)-e(3/5)", "1 1 -1"]

    @pytest.mark.parametrize("command", ["verify", "smatrix", "verlinde"])
    def test_zero_global_dimension_is_one_error_line(
            self, command, tmp_path, capsys):
        path = tmp_path / "z3.fcat"
        path.write_text(_Z3_ZERO_DIM)
        code, _, err = run_cli([command, str(path)], capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            "error: global dimension is 0; S = s~/D is undefined"]


class TestNoScalarStilde:
    """verify and verlinde run on the s-tilde array, never on stilde()."""

    @pytest.mark.parametrize("command,catalog",
                             [("verify", "U"), ("verlinde", "VLtau")])
    def test_passes_without_scalar_stilde(self, command, catalog,
                                          monkeypatch, capsys):
        def refuse(md):
            raise AssertionError("stilde() called")
        monkeypatch.setattr(ModularDatum, "stilde", refuse)
        code, out, _ = run_cli([command, "--catalog", catalog], capsys=capsys)
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == CLI_SHA256[command, catalog])


class TestOrderCap:
    def test_cap_exceeded_is_one_error_line(self, capsys):
        code, _, err = run_cli(["--order-cap", "10", "verify", "--catalog",
                                "U"], capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            "error: promotion to order 36 exceeds cap 10"]

    def test_cap_restored_after_main(self, capsys):
        before = cyclotomic.DEFAULT_ORDER_CAP
        run_cli(["--order-cap", "10", "verify", "--catalog", "U"],
                capsys=capsys)
        assert cyclotomic.DEFAULT_ORDER_CAP == before
        code, out, _ = run_cli(["--order-cap", "100000", "count", "2"],
                               capsys=capsys)
        assert (code, out) == (0, "20\n")
        assert cyclotomic.DEFAULT_ORDER_CAP == before

    def test_cap_read_when_d_is_computed(self, monkeypatch):
        from fusioncat import build_U
        md = build_U()
        monkeypatch.setattr(cyclotomic, "DEFAULT_ORDER_CAP", 4)
        with pytest.raises(cyclotomic.OrderCapExceeded):
            md.D                  # 6 sqrt(2) lies at order 8


    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_rejected_first(self, cap, capsys):
        code, out, err = run_cli(["--order-cap", cap, "verify", "--catalog",
                                  "U"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: --order-cap must be at least 1, not {cap}"]


class TestCatalogWithInput:
    @pytest.mark.parametrize("argv", [
        ["qdim", "--catalog", "U", "M^0"],
        ["smatrix", "--catalog", "U", "/nonexistent"],
        ["verify", "--catalog", "VLtau", "-"],
        ["fuse", "--catalog", "U", "W6", "W6", "x.fcat"],
    ], ids=["qdim", "smatrix", "verify", "fuse"])
    def test_both_sources_is_one_error_line(self, argv, capsys):
        code, out, err = run_cli(argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: give --catalog or an input file, not both "
            f"(input {argv[-1]!r})"]


class TestMatrices:
    def test_smatrix_grid_byte_stable(self, capsys):
        code, out1, _ = run_cli(["smatrix", "--catalog", "U"], capsys=capsys)
        assert code == 0
        code, out2, _ = run_cli(["smatrix", "--catalog", "U"], capsys=capsys)
        assert out1 == out2
        assert out1.splitlines()[0].startswith("0 0 ")

    def test_smatrix_unnormalized_first_entry(self, capsys):
        code, out, _ = run_cli(
            ["smatrix", "--catalog", "U", "--unnormalized"], capsys=capsys)
        lines = out.splitlines()
        assert lines[0] == "0 0 1"
        assert lines[6] == "0 6 3"

    def test_smatrix_float(self, capsys):
        code, out, _ = run_cli(
            ["smatrix", "--catalog", "U", "--format", "float"],
            capsys=capsys)
        first = out.splitlines()[0].split()
        assert abs(float(first[2]) - 1 / (72 ** 0.5)) < 1e-9

    @pytest.mark.parametrize("catalog", ["U", "VLtau"])
    def test_smatrix_float_prints_exact_zero_parts_as_0(self, catalog,
                                                        capsys):
        # S_00 = 1/D is real: its imaginary part prints 0, not 1e-18 noise.
        code, out, _ = run_cli(
            ["smatrix", "--catalog", catalog, "--format", "float"],
            capsys=capsys)
        assert code == 0
        assert out.splitlines()[0].endswith(" 0")
        exponents = [int(x) for x in re.findall(r"e-(\d+)", out)]
        assert all(x <= 12 for x in exponents)

    def test_tmatrix(self, capsys):
        code, out, _ = run_cli(["tmatrix", "--catalog", "U"], capsys=capsys)
        assert code == 0
        # e(-1/8) in canonical basis form (zeta_8^7 = -zeta_8^3)
        assert out.splitlines()[0] == "0 -e(3/8)"

    def test_verlinde_lines(self, capsys):
        code, out, _ = run_cli(["verlinde", "--catalog", "U"], capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert "N 0 0 0 1" in lines
        assert "N 6 6 6 2" in lines


class TestCatalogChar:
    def test_catalog_emission_stable(self, capsys):
        _, out1, _ = run_cli(["catalog", "VLtau"], capsys=capsys)
        _, out2, _ = run_cli(["catalog", "VLtau"], capsys=capsys)
        assert out1 == out2
        assert out1.startswith("category VLtau\n")

    def test_unknown_catalog_exits_2(self, capsys):
        code, _, _ = run_cli(["catalog", "Q"], capsys=capsys)
        assert code == 2

    def test_char_m0(self, capsys):
        code, out, _ = run_cli(["char", "M^0", "--cutoff", "3"],
                               capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "3/8 4"

    def test_char_negative_cutoff_exits_2(self, capsys):
        code, out, err = run_cli(["char", "M^0", "--cutoff", "-5"],
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: --cutoff must be non-negative, not -5"]

    def test_char_zero_cutoff_is_valid(self, capsys):
        code, _, err = run_cli(["char", "M^0", "--cutoff", "0"],
                               capsys=capsys)
        assert (code, err) == (0, "")

    def test_char_rejects_eigenspace_label(self, capsys):
        code, _, err = run_cli(["char", "M~_0[1]"], capsys=capsys)
        assert code == 2
        assert "out of scope" in err


class TestClosedStdout:
    # Cutoff 3 fits the stdout buffer, so the pipe breaks on the final
    # flush; cutoff 300 breaks it while the lines are printed.
    @pytest.mark.parametrize("cutoff", [3, 300])
    def test_closed_pipe_is_one_error_line(self, cutoff):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fusioncat.cli", "char", "M^0",
                 "--cutoff", str(cutoff)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=600)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: {os.strerror(errno.EPIPE)}"]


class TestUsage:
    def test_no_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "fusioncat.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fusioncat.cli", "count", "--frob", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 2
