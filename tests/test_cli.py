"""End-to-end CLI behavior: outputs, exit codes, round trips, determinism."""

import contextlib
import errno
import hashlib
import io
import os
import re
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncat import cli, cyclotomic, modular_data
from fusioncat.cli import main
from fusioncat.cyclotomic import parse_cyc
from fusioncat.fcat import parse_fcat
from fusioncat.modular_data import ModularDatum

from test_golden import CLI_SHA256, pointed_fcat
from test_package import SRC


def _python(*args, **kwargs):
    """A fresh interpreter that imports fusioncat from this checkout."""
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=SRC), **kwargs)


def run_cli(argv, stdin_text=None, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        proc = _python("-m", "fusioncat.cli", *argv, input=stdin_text,
                       capture_output=True, text=True, timeout=600)
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

    def test_w_aliases_on_emitted_u(self, tmp_path, capsys):
        path = tmp_path / "u.fcat"
        path.write_text(run_cli(["catalog", "U"], capsys=capsys)[1])
        assert run_cli(["fuse", "W6", "W6", str(path)], capsys=capsys) == (
            0, "M~_0[0] + M~_0[1] + M~_0[2] + 2*M^0\n", "")
        assert run_cli(["fuse", "W25", "W6", str(path)], capsys=capsys) == (
            2, "", "error: W-index 'W25' out of range\n")

    @pytest.mark.parametrize("index", ["0020", "1" * 5000],
                             ids=["0020", "5000-digits"])
    def test_w_index_out_of_range(self, index, capsys):
        # past int()'s 4300-digit limit too
        assert run_cli(["fuse", "--catalog", "U", f"W{index}", "W6"],
                       capsys=capsys) == (
            2, "", f"error: W-index 'W{index}' out of range\n")

    def test_w_name_elsewhere_is_an_unknown_label(self, capsys):
        assert run_cli(["fuse", "--catalog", "VLtau", "W3", "W3"],
                       capsys=capsys) == (2, "", "error: unknown label 'W3'\n")

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

    def test_help_describes_the_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuse", "--help"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "usage: fusioncat fuse [-h] [--catalog CATALOG] a b [input]")
        assert "--catalog CATALOG  built-in catalog: U or VLtau" in out
        assert "input              FCAT v1 file path, or '-' for stdin" in out


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


@pytest.mark.parametrize("argv,message", [
    (["count", "٢"],
     "fusioncat count: error: argument n: invalid int value: '٢'"),
    (["count", " 2"],
     "fusioncat count: error: argument n: invalid int value: ' 2'"),
    (["char", "M^0", "--cutoff", "1_0"],
     "fusioncat char: error: argument --cutoff: invalid int value: '1_0'"),
], ids=["count-arabic-indic", "count-space", "cutoff-underscore"])
def test_integer_arguments_are_ascii(argv, message, capsys):
    # As in FCAT: int() alone reads them, as 2, 2 and 10.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == ("", message)


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

    def test_no_source_exits_2(self, capsys):
        code, out, err = run_cli(["verify"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: an input file or --catalog is required"]

    def test_unit_twist_fails_first_row(self, tmp_path, capsys):
        # theta_0 = -1 scales the unit row of s~ by -1: it is -dims.
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat().replace("twist 0 0/1", "twist 0 1/2"))
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert "first row = dims/D          FAIL" in lines
        assert lines[-1] == "  detail: first row of S is not dims/D"

    @pytest.mark.parametrize("text", [
        ("category semion\nlabel 0 1\nlabel 1 s\nunit 0\n"
         "N 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\nN 1 1 0 1\n"
         "twist 0 0/1\ntwist 1 1/4\ndim 0 -1\ndim 1 -1\n"),
        "label 0 a\nunit 0\nN 0 0 0 1\ntwist 0 0/1\ndim 0 -1\n",
    ], ids=["semion", "rank-1"])
    def test_unit_dim_minus_one_fails_first_row(self, text, tmp_path,
                                                capsys):
        # Negating every dim keeps the other checks true: only d_unit = 1
        # tells such a file apart.
        path = tmp_path / "negated.fcat"
        path.write_text(text)
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 12
        assert [line for line in lines if "FAIL" in line] == [
            "first row = dims/D          FAIL"]
        assert lines[-1] == "  detail: dim of the unit label is -1, not 1"
        code, out, err = run_cli(["verlinde", str(path)], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: datum fails verify_modular"]

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcat"
        bad.write_text("wibble 1 2 3\n")
        code, _, err = run_cli(["verify", str(bad)], capsys=capsys)
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("line,message", [
        ("dual 7 0", "dual(7) = 0"),
        ("dual 0 7", "dual(0) = 7"),
        ("dual -1 1", "dual(-1) = 1"),
        ("N 0 2 1 1", "N[0,2,1]"),
        ("twist 7 1/2", "twist(7)"),
        ("dim -1 1", "dim(-1)"),
    ])
    def test_label_index_out_of_range_exits_2(self, line, message, tmp_path,
                                              capsys):
        path = tmp_path / "z2.fcat"
        path.write_text("category z2\nlabel 0 one\nlabel 1 t\nunit 0\n"
                        "N 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\nN 1 1 0 1\n"
                        f"{line}\n")
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: label index out of range in {message}"]

    @pytest.mark.parametrize("line,message", [
        ("label 1 c", "line 13: label(1) already given on line 3"),
        ("N 1 1 0 2", "line 13: N[1,1,0] already given on line 8"),
        ("twist 1 1/2", "line 13: twist(1) already given on line 10"),
        ("dim 1 1", "line 13: dim(1) already given on line 12"),
        ("dual 1 1\ndual 1 1", "line 14: dual(1) already given on line 13"),
        ("unit 0", "line 13: unit already given on line 4"),
    ], ids=["label", "N", "twist", "dim", "dual", "unit"])
    def test_repeated_directive_exits_2(self, line, message, tmp_path,
                                        capsys):
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat() + f"{line}\n")
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("lineno,line,message", [
        (4, "unit 0 1", "'unit' directive: 2 fields, expected 1"),
        (2, "label 0 a b", "'label' directive: 3 fields, expected 2"),
        (13, "dual 0 0 5", "'dual' directive: 3 fields, expected 2"),
        (10, "twist 1 1/4 3/4", "'twist' directive: 3 fields, expected 2"),
        (4, "unit", "'unit' directive: 0 fields, expected 1"),
        (2, "label 0", "'label' directive: 1 fields, expected 2"),
        (13, "dual 0", "'dual' directive: 1 fields, expected 2"),
        (5, "N 0 0", "'N' directive: 2 fields, expected 4"),
        (5, "N 0 0 0 1 7", "'N' directive: 5 fields, expected 4"),
        (10, "twist 1", "'twist' directive: 1 fields, expected 2"),
        (10, "twist 1 1", "'twist' directive: expected p/q, got '1'"),
        (10, "twist 1 1/4/3", "'twist' directive: expected p/q, got '1/4/3'"),
        (13, "dim", "'dim' directive: 0 fields, expected at least 1"),
        (8, "N 1 1 0 1_0",
         "'N' directive: invalid literal for int() with base 10: '1_0'"),
        (3, "label \u0661 b",
         "'label' directive: invalid literal for int() with base 10: "
         "'\u0661'"),
        (4, "unit \u0660",
         "'unit' directive: invalid literal for int() with base 10: "
         "'\u0660'"),
        (10, "twist 1 1/\u0664",
         "'twist' directive: invalid literal for int() with base 10: "
         "'\u0664'"),
    ], ids=["unit", "label", "dual", "twist", "unit-short", "label-short",
            "dual-short", "N-short", "N-long", "twist-short", "twist-no-slash",
            "twist-two-slashes", "dim-empty", "N-underscore",
            "label-arabic-indic", "unit-arabic-indic", "twist-arabic-indic"])
    def test_fields_past_arity_exit_2(self, lineno, line, message, tmp_path,
                                      capsys):
        lines = _z2_fcat().splitlines()
        lines[lineno - 1:lineno] = [line]       # line 13 is appended
        path = tmp_path / "z2.fcat"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: line {lineno}: malformed {message}"]

    @pytest.mark.parametrize("name,message", [
        ("duplicate-label-name", "duplicate labels"),
        ("unit-out-of-range", "unit index out of range"),
        ("dim-nested-too-deep",
         "bad dim expression for label 0: expression nested too deeply"),
        ("dim-without-expression",
         "bad dim expression for label 0: empty expression"),
        ("dim-arabic-indic-digit", "bad dim expression for label 1: "
         "bad character in expression at '\u0661'"),
    ])
    def test_ring_and_dim_errors_exit_2(self, name, message, tmp_path,
                                        capsys):
        path = tmp_path / "crafted.fcat"
        path.write_text(_CRAFTED[name])
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_rank_above_bound_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.fcat"
        path.write_text(_CRAFTED["rank-2000"])
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: rank 2000 exceeds the rank bound 512"]

    def test_oversized_multiplicity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat().replace("N 1 1 0 1",
                                           "N 1 1 0 99999999999999999999"))
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: structure constant N[1,1,0] = 99999999999999999999 "
            "exceeds 2^63 - 1"]

    def test_zero_quantum_dimension_fails_verlinde(self, tmp_path, capsys):
        # S = diag(1, -1) passes every modular check; Verlinde divides by
        # the dims.
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(dim="0"))
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert all(line.endswith(" PASS") for line in lines[:-1])
        assert lines[-1] == "Verlinde round-trip         FAIL"
        code, out, err = run_cli(["verlinde", str(path)], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: Verlinde divides by the quantum dimension of label "
            "'b', which is 0"]

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
        notes = []
        build = modular_data.CheckReport

        def counted(note, outcomes):
            notes.append(note)
            return build(note, outcomes)
        monkeypatch.setattr(modular_data, "CheckReport", counted)
        code, out, _ = run_cli(["verify", "--catalog", "U"], capsys=capsys)
        assert code == 0
        assert "Verlinde round-trip         PASS" in out
        assert notes.count("detail") == 1


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
        # Fibonacci, D^2 = 2-e(2/5)-e(3/5): the Gauss sums give D, so a
        # datum with an irrational global dimension verifies.
        path = tmp_path / "fib.fcat"
        path.write_text(_FIBONACCI)
        code, out, err = run_cli([command, str(path)], capsys=capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if command == "verify":
            assert len(lines) == 12
            assert all(line.endswith(" PASS") for line in lines)
        elif command == "verlinde":
            assert lines == [line for line in _FIBONACCI.splitlines()
                             if line.startswith("N ")]
        else:
            s00 = parse_cyc(lines[0].removeprefix("0 0 "))
            assert s00 * s00 * parse_cyc("2-e(2/5)-e(3/5)") == 1

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
        assert code == 1
        assert err.splitlines() == [
            "error: global dimension is 0; S = s~/D is undefined"]


# Pointed Z5 with twists x^2/5, but label 1 shifted to 2/5: theta_1 !=
# theta_4, and p+ = D e(c/8) has no real solution D with D^2 = 5.
_Z5_WRONG_TWIST = "".join(
    ["category z5\n"] + [f"label {x} g{x}\n" for x in range(5)] + ["unit 0\n"]
    + [f"N {x} {y} {(x + y) % 5} 1\n" for x in range(5) for y in range(5)]
    + [f"twist {x} {t}\n" for x, t in enumerate(["0/1", "2/5", "4/5", "4/5",
                                                  "1/5"])]
    + [f"dim {x} 1\n" for x in range(5)])


def _mark_columns(out: str) -> set[int]:
    """The column of each mark of `verify` past the ring's four lines: the
    modular checks and the Verlinde line, not the failure details."""
    return {len(line) - 4 for line in out.splitlines()[4:]
            if not line.startswith("  ")}


class TestWithoutD:
    @pytest.fixture
    def wrong_twist(self, tmp_path):
        path = tmp_path / "z5.fcat"
        path.write_text(_Z5_WRONG_TWIST)
        return str(path)

    def test_verify_marks_share_one_column(self, wrong_twist, capsys):
        code, out, _ = run_cli(["verify", wrong_twist], capsys=capsys)
        assert code == 1
        assert len(out.splitlines()[4:]) > 7       # 7 checks, then details
        code, catalog, _ = run_cli(["verify", "--catalog", "U"],
                                   capsys=capsys)
        assert code == 0
        assert catalog.splitlines()[-1].startswith("Verlinde round-trip ")
        assert _mark_columns(out) == _mark_columns(catalog) == {28}

    def test_smatrix_is_one_error_line(self, wrong_twist, capsys):
        code, out, err = run_cli(["smatrix", wrong_twist], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: no real D with D^2 = 5 and p+ = D e(c/8); "
            "S = s~/D is undefined"]

    def test_tmatrix_is_one_error_line(self, wrong_twist, capsys):
        # FCAT carries no c: c mod 8 comes from the Gauss sum that gives D.
        code, out, err = run_cli(["tmatrix", wrong_twist], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: no real D with D^2 = 5 and p+ = D e(c/8); "
            "S = s~/D is undefined"]

    def test_unnormalized_smatrix_still_prints(self, wrong_twist, capsys):
        code, out, err = run_cli(["smatrix", "--unnormalized", wrong_twist],
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 25
        assert out.startswith("0 0 1\n")

    def test_verlinde_is_one_error_line(self, wrong_twist, capsys):
        code, out, err = run_cli(["verlinde", wrong_twist], capsys=capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: datum fails verify_modular"]


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


def _z2_fcat(dim: str = "1", twist: str = "1/4") -> str:
    """Z2 with dims 1 and `dim`: the global dimension is 1 + dim^2."""
    return ("category z2\nlabel 0 a\nlabel 1 b\nunit 0\n"
            "N 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\nN 1 1 0 1\n"
            f"twist 0 0/1\ntwist 1 {twist}\ndim 0 1\ndim 1 {dim}\n")


# Crafted FCAT inputs that each ended in a traceback, exited 0 on a file
# it read only in part, or printed Python's internal text, in some command.
_CRAFTED = {
    "twist-out-of-range": _z2_fcat() + "twist 7 1/2\n",
    "dim-out-of-range": _z2_fcat() + "dim -1 1\n",
    "oversized-multiplicity": _z2_fcat() + "N 1 1 0 99999999999999999999\n",
    "zero-dim": _z2_fcat(dim="0"),
    "minus-one-dim": _z2_fcat(dim="-1"),
    "huge-twist-numerator": _z2_fcat(twist=f"{10**23 + 1}/4"),
    "huge-dim": _z2_fcat(dim=str(10**29)),
    "repeated-label": _z2_fcat() + "label 1 c\n",
    "repeated-N": _z2_fcat() + "N 1 1 0 2\n",
    "repeated-twist": _z2_fcat() + "twist 1 1/2\n",
    "unit-extra-field": _z2_fcat().replace("unit 0", "unit 0 1"),
    "label-extra-field": _z2_fcat().replace("label 0 a", "label 0 a b"),
    "dual-extra-field": _z2_fcat() + "dual 0 0 5\n",
    "twist-extra-field": _z2_fcat().replace("twist 1 1/4",
                                            "twist 1 1/4 3/4"),
    "unit-short": _z2_fcat().replace("unit 0", "unit"),
    "label-short": _z2_fcat().replace("label 0 a", "label 0"),
    "dual-short": _z2_fcat() + "dual 0\n",
    "N-short": _z2_fcat() + "N 0 0\n",
    "N-long": _z2_fcat() + "N 0 0 0 1 7\n",
    "twist-no-slash": _z2_fcat(twist="1"),
    "twist-two-slashes": _z2_fcat(twist="1/2/3"),
    "dim-empty": _z2_fcat() + "dim\n",
    "dim-without-expression": "label 0 a\nunit 0\nN 0 0 0 1\ndim 0\n",
    "dim-arabic-indic-digit": _z2_fcat(dim="\u0661"),
    "N-underscore": _z2_fcat().replace("N 1 1 0 1", "N 1 1 0 1_0"),
    "duplicate-label-name": _z2_fcat().replace("label 1 b", "label 1 a"),
    "unit-out-of-range": "label 0 a\nunit 5\nN 0 0 0 1\n",
    "dim-nested-too-deep": ("label 0 a\nunit 0\nN 0 0 0 1\ndim 0 "
                            + "(" * 5000 + "1" + ")" * 5000 + "\n"),
    # 2,000 labels: the dense tensor alone would take 59.6 GiB.
    "rank-2000": "unit 0\n" + "".join(f"label {i} x{i}\n"
                                      for i in range(2000)),
}


@pytest.mark.parametrize("command",
                         ["verify", "smatrix", "tmatrix", "verlinde", "qdim"])
@pytest.mark.parametrize("name", sorted(_CRAFTED))
def test_crafted_input_ends_without_traceback(name, command, tmp_path,
                                              capsys):
    path = tmp_path / "crafted.fcat"
    path.write_text(_CRAFTED[name])
    code, _, err = run_cli([command, str(path)], capsys=capsys)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


def _cli_in_subprocess(argv, prelude="", timeout=120):
    """Run the CLI in a fresh interpreter after `prelude`, so limits the
    prelude sets apply to that process only."""
    code = (prelude + "\nimport runpy\n"
            "runpy.run_module('fusioncat.cli', run_name='__main__')")
    return _python("-c", code, *argv, capture_output=True, text=True,
                   timeout=timeout)


def _assert_no_d(run, path: str, glob: str):
    """Z2 with dims 1 and n (D^2 = 1 + n^2) and twist 1/4 is no modular
    datum: verify fails the Gauss product, and smatrix finds no D."""
    code, out, _ = run(["verify", path])
    assert code == 1
    assert "Gauss sums p+p- = D^2       FAIL" in out.splitlines()
    code, out, err = run(["smatrix", path])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: no real D with D^2 = {glob} and p+ = D e(c/8); "
        "S = s~/D is undefined"]


class TestBeyondTheDoubleRange:
    """Valid files whose numbers no double holds: p+ p- != D^2, so there is
    no D, and a float of such a number is +-inf or 0, never an error."""

    ONE_LABEL = "label 0 a\nunit 0\nN 0 0 0 1\ntwist 0 0/1\ndim 0 {}\n"
    # text, D^2, the float S~, and the verify lines: a one-label file also
    # fails the first row, as its unit's dim is not 1
    FILES = {
        "dim-10^400": (ONE_LABEL.format(10**400), f"{10**800}",
                       ["0 0 inf 0"], 13),
        "dim-1/10^400": (ONE_LABEL.format(f"1/{10**400}"), f"1/{10**800}",
                         ["0 0 0 0"], 13),
        "z2-dims-1-and-10^400": (_z2_fcat(dim=str(10**400)),
                                 f"{10**800 + 1}",
                                 ["0 0 1 0", "0 1 inf 0", "1 0 inf 0",
                                  "1 1 -1 0"], 12),
    }

    @pytest.fixture(params=sorted(FILES))
    def case(self, request, tmp_path):
        text, *expected = self.FILES[request.param]
        path = tmp_path / "huge.fcat"
        path.write_text(text)
        return str(path), *expected

    def test_verify_fails_and_smatrix_finds_no_d(self, case, capsys):
        path, glob, _, verify_lines = case
        _assert_no_d(lambda argv: run_cli(argv, capsys=capsys), path, glob)
        code, out, err = run_cli(["verify", path], capsys=capsys)
        assert (code, len(out.splitlines()), err) == (1, verify_lines, "")

    def test_unnormalized_smatrix_prints(self, case, capsys):
        path, _, floats, _ = case
        code, out, err = run_cli(["smatrix", "--unnormalized", path],
                                 capsys=capsys)
        assert (code, len(out.splitlines()), err) == (0, len(floats), "")
        assert run_cli(["smatrix", "--unnormalized", "--format", "float",
                        path], capsys=capsys) == (
            0, "".join(f"{line}\n" for line in floats), "")


@st.composite
def _pointed_fcat(draw):
    """A pointed Z_n file, n <= 6, with twists p/q of one q <= 24, so its
    field stays inside the cap, and dims +-k 10^e or +-1/10^e, e <= 400."""
    n, q = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    lines = [f"label {i} g{i}" for i in range(n)] + ["unit 0"]
    lines += [f"N {i} {j} {(i + j) % n} 1" for i in range(n) for j in range(n)]
    for i in range(n):
        sign = draw(st.sampled_from(["", "-"]))
        e = draw(st.integers(0, 400))
        dim = (f"1/{10**e}" if draw(st.booleans())
               else f"{draw(st.integers(1, 9)) * 10**e}")
        lines += [f"twist {i} {draw(st.integers(-30, 30))}/{q}",
                  f"dim {i} {sign}{dim}"]
    return "\n".join(lines) + "\n"


def _main_on_text(argv, text):
    """`main` in process on `text` as stdin: the exit code and the stderr
    lines, after checking that the code is 0, 1 or 2 and that stderr is at
    most one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "-"])
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1
                           and lines[0].startswith("error: ")), argv
    return code, lines


@settings(deadline=None)
@given(_pointed_fcat())
def test_any_pointed_datum_ends_without_traceback(text):
    for argv in (["verify"], ["smatrix"],
                 ["smatrix", "--unnormalized", "--format", "float"],
                 ["tmatrix"], ["verlinde"]):
        _main_on_text(argv, text)


@st.composite
def _broken_pointed_fcat(draw):
    """A `_pointed_fcat` file with one N line dropped or changed, with or
    without its twist and dim lines."""
    lines = draw(_pointed_fcat()).splitlines()
    n = sum(line.startswith("label ") for line in lines)
    at = draw(st.sampled_from([i for i, line in enumerate(lines)
                               if line.startswith("N ")]))
    _, i, j, _, _ = lines[at].split()
    if draw(st.booleans()):
        k, m = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
        lines[at] = f"N {i} {j} {k} {m}"
    else:
        del lines[at]
    if draw(st.booleans()):
        lines = [line for line in lines
                 if not line.startswith(("twist ", "dim "))]
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(_broken_pointed_fcat(), st.data())
def test_a_ring_that_fails_validation_is_exit_1(text, data):
    # One rule, whichever command meets the invalid ring: its error line
    # and exit 1.  `verify` prints its report instead, and a matrix command
    # on a file without annotations stops at that first.
    doc = parse_fcat(text)
    valid = doc.ring.validate().passed
    labels = st.sampled_from(doc.ring.labels)
    for argv in (["verify"], ["fuse", data.draw(labels), data.draw(labels)],
                 ["qdim"], ["smatrix"], ["tmatrix"], ["verlinde"]):
        code, lines = _main_on_text(argv, text)
        if valid:
            continue
        if argv[0] == "verify":
            assert (code, lines) == (1, []), argv
        elif argv[0] in ("smatrix", "tmatrix", "verlinde") \
                and not doc.has_modular_annotations:
            assert (code, lines) == (
                2, ["error: input lacks twist/dim annotations needed here"])
        else:
            assert code == 1, argv
            assert lines[0].startswith("error: invalid fusion ring: "), argv


class TestOrderCap:
    # Each field above the cap is refused where it would be built, before
    # its tables are allocated.  D is sought next to the Gauss sums, so a
    # large prime D^2 asks for no field of its own.

    @pytest.mark.parametrize("dim,order", [
        ("e(1/2003)", 2003),      # a dim that is a root of unity of order 2003
        ("40", None),             # D^2 = 1601, a prime: L = 4 is all it needs
    ], ids=["e(1/2003)-2003", "40-1601"])
    def test_field_above_cap_is_never_built(self, dim, order, tmp_path,
                                            capsys, refuse_fields_above_cap):
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(dim=dim))
        if order is None:
            _assert_no_d(lambda argv: run_cli(argv, capsys=capsys),
                         str(path), "1601")
            return
        code, _, err = run_cli(["verify", str(path)], capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            f"error: cyclotomic order {order} exceeds cap 720"]

    def test_prime_global_dimension_fits_in_memory(self, tmp_path):
        # D^2 = 1 + 110^2 = 12101, a prime: Q(zeta_12101) would need
        # gigabytes, and no call asks for it.
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(dim="110"))

        def run(argv):
            proc = _cli_in_subprocess(
                argv, prelude="import resource\nresource.setrlimit("
                              "resource.RLIMIT_AS, (1 << 30, 1 << 30))")
            return proc.returncode, proc.stdout, proc.stderr
        _assert_no_d(run, str(path), "12101")

    def test_huge_global_dimension_is_refused_quickly(self, tmp_path):
        # D^2 = 1 + 10^24, and L = 4: refused from the Gauss sums alone.
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(dim="1000000000000"))

        def run(argv):
            proc = _cli_in_subprocess(argv, timeout=20)
            return proc.returncode, proc.stdout, proc.stderr
        _assert_no_d(run, str(path), "1" + "0" * 23 + "1")

    def test_cap_exceeded_is_one_error_line(self, monkeypatch, capsys):
        # A catalog datum past the cap takes the same one-line refusal.
        monkeypatch.setattr(cyclotomic, "DEFAULT_ORDER_CAP", 10)
        code, _, err = run_cli(["verify", "--catalog", "U"], capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            "error: cyclotomic order 36 exceeds cap 10"]

    def test_cap_read_when_d_is_computed(self, monkeypatch):
        from fusioncat import build_U
        md = build_U()
        monkeypatch.setattr(cyclotomic, "DEFAULT_ORDER_CAP", 4)
        with pytest.raises(cyclotomic.OrderCapExceeded):
            md.D                  # p+ lies at order 36, D at order 72


class TestZeroDenominator:
    @pytest.mark.parametrize("twist,dim,message", [
        ("1/0", "1", "error: line 10: malformed 'twist' directive: "
                     "zero denominator in 1/0"),
        ("1/4", "1/0", "error: bad dim expression for label 1: "
                       "zero denominator in 1/0"),
        ("1/4", "e(1/0)", "error: bad dim expression for label 1: "
                          "zero denominator in 1/0"),
    ])
    def test_zero_denominator_is_one_error_line(self, twist, dim, message,
                                                tmp_path, capsys):
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(dim=dim, twist=twist))
        code, out, err = run_cli(["verify", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [message]


_ISING = """category Ising
label 0 1
label 1 psi
label 2 sigma
unit 0
N 0 0 0 1
N 0 1 1 1
N 0 2 2 1
N 1 0 1 1
N 1 1 0 1
N 1 2 2 1
N 2 0 2 1
N 2 1 2 1
N 2 2 0 1
N 2 2 1 1
twist 0 0/1
twist 1 1/2
twist 2 1/16
dim 0 1
dim 1 1
dim 2 e(1/8)+e(-1/8)
"""


class TestIsing:
    """Ising: N_sigma has eigenvalues sqrt 2, -sqrt 2 and 0, and c = 1/2 is
    not an integer."""

    @pytest.fixture
    def ising(self, tmp_path):
        path = tmp_path / "ising.fcat"
        path.write_text(_ISING)
        return str(path)

    def test_qdim_is_the_spectral_radius(self, ising, capsys):
        code, out, _ = run_cli(["qdim", ising], capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["1 1", "psi 1", "sigma 1.414213562"]

    def test_verify_infers_a_fractional_central_charge(self, ising, capsys):
        code, out, _ = run_cli(["verify", ising], capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert all(line.endswith(" PASS") for line in lines)

    def test_tmatrix_uses_the_inferred_central_charge(self, ising, capsys):
        code, out, _ = run_cli(["tmatrix", ising], capsys=capsys)
        assert code == 0
        # e(h - c/24) with c = 1/2: e(-1/48), e(23/48), e(1/24).
        assert out.splitlines() == ["0 e(7/48)-e(5/16)",
                                    "1 -e(7/48)+e(5/16)", "2 e(1/24)"]


class TestQdim:
    @pytest.mark.parametrize("catalog,label", [("U", "W6"),
                                               ("VLtau", "V(c,0)")])
    def test_one_label(self, catalog, label, capsys):
        code, out, err = run_cli(
            ["qdim", "--catalog", catalog, "--label", label], capsys=capsys)
        assert (code, out, err) == (0, "3\n", "")

    def test_unknown_label_exits_2(self, capsys):
        code, out, err = run_cli(["qdim", "--catalog", "U", "--label", "nope"],
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: unknown label 'nope'"]

    def test_w_index_digits_are_ascii(self, capsys):
        # int() alone reads the Arabic-Indic 6 as U's W6.
        assert run_cli(["qdim", "--catalog", "U", "--label", "W٦"],
                       capsys=capsys) == (2, "", "error: unknown label 'W٦'\n")


class TestRingOnly:
    """fuse and qdim read the ring alone: they build no datum, so its field
    can neither refuse them nor cost them the Gauss sums."""

    @pytest.fixture
    def above_cap(self, tmp_path):
        # A valid Z2 ring whose twists need Q(zeta_1147), above the cap.
        path = tmp_path / "z2.fcat"
        path.write_text(_z2_fcat(twist="1/37").replace("twist 0 0/1",
                                                       "twist 0 1/31"))
        return str(path)

    @pytest.mark.parametrize("argv,out", [
        (["qdim"], "a 1\nb 1\n"),
        (["qdim", "--label", "b"], "1\n"),
        (["fuse", "a", "b"], "b\n"),
    ], ids=["qdim", "qdim-label", "fuse"])
    def test_field_above_cap_is_no_error(self, argv, out, above_cap, capsys):
        assert run_cli([*argv, above_cap], capsys=capsys) == (0, out, "")

    def test_verify_still_refuses_the_field(self, above_cap, capsys):
        assert run_cli(["verify", above_cap], capsys=capsys) == (
            2, "", "error: cyclotomic order 1147 exceeds cap 720\n")

    def test_qdim_computes_no_gauss_sums(self, tmp_path, monkeypatch,
                                         capsys):
        def refuse(md):
            raise AssertionError("gauss_sums() called")
        monkeypatch.setattr(ModularDatum, "gauss_sums", refuse)
        path = tmp_path / "z17.fcat"
        path.write_text(pointed_fcat(17, 1, 0))
        code, out, err = run_cli(["qdim", str(path)], capsys=capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 17


@pytest.mark.parametrize("command", ["smatrix", "tmatrix", "verlinde"])
def test_matrices_need_annotations(command, tmp_path, capsys):
    path = tmp_path / "z2.fcat"
    path.write_text("\n".join(_z2_fcat().splitlines()[:8]) + "\n")
    code, out, err = run_cli([command, str(path)], capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: input lacks twist/dim annotations needed here"]


@pytest.mark.parametrize("command", ["smatrix", "tmatrix", "verlinde"])
def test_matrices_on_an_invalid_annotated_ring(command, tmp_path, capsys):
    # Every label has a twist and a dim, but without N[0,1]^1 the ring
    # fails validation: the ring's own error line, exit 1 as for every
    # failed check.
    path = tmp_path / "z2.fcat"
    path.write_text(_z2_fcat().replace("N 0 1 1 1\n", ""))
    code, out, err = run_cli([command, str(path)], capsys=capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: invalid fusion ring: unit: N[unit,1]^1 = 0; "
        "commutativity: N[0,1]^1 != N[1,0]^1; "
        "associativity: quadruple (0,1,1,0) 0 != 1"]
    # `qdim` prints the same line for the same ring, with the same exit 1
    code, _, qdim_err = run_cli(["qdim", str(path)], capsys=capsys)
    assert (code, qdim_err) == (1, err)


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

    def test_tmatrix_float(self, capsys):
        code, out, _ = run_cli(["tmatrix", "--catalog", "U", "--format",
                                "float"], capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines[0] == "0 0.7071067812 -0.7071067812"

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

    @pytest.mark.parametrize("cutoff", [10_001, 10**12])
    def test_char_cutoff_above_the_bound_exits_2(self, cutoff, monkeypatch,
                                                  capsys):
        def refuse(*args):
            raise AssertionError("character() called")
        monkeypatch.setattr(cli, "character", refuse)
        code, out, err = run_cli(["char", "M^0", "--cutoff", str(cutoff)],
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: --cutoff {cutoff} exceeds the bound 10000"]

    def test_char_cutoff_at_the_bound_is_valid(self, monkeypatch, capsys):
        cutoffs = []

        def record(pieces, c, cutoff):
            cutoffs.append(cutoff)
            return types.SimpleNamespace(dump_lines=lambda: ["0 1"])
        monkeypatch.setattr(cli, "character", record)
        assert run_cli(["char", "M^0", "--cutoff", "10000"],
                       capsys=capsys) == (0, "0 1\n", "")
        assert cutoffs == [Fraction(10000)]

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
    # flush; cutoff 300 breaks it while the lines are printed, and so does
    # the S matrix, in a process that has numpy loaded.
    @pytest.mark.parametrize("argv", [
        pytest.param(["char", "M^0", "--cutoff", "3"], id="3"),
        pytest.param(["char", "M^0", "--cutoff", "300"], id="300"),
        pytest.param(["smatrix", "--catalog", "U"], id="smatrix"),
    ])
    def test_closed_pipe_is_one_error_line(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python("-m", "fusioncat.cli", *argv, stdout=write_end,
                           stderr=subprocess.PIPE, text=True, timeout=600)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: {os.strerror(errno.EPIPE)}"]


class TestUsage:
    def test_no_subcommand_exits_2(self):
        proc = _python("-m", "fusioncat.cli", capture_output=True, text=True)
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self):
        proc = _python("-m", "fusioncat.cli", "count", "--frob", "2",
                       capture_output=True, text=True)
        assert proc.returncode == 2

    def test_order_cap_is_no_option(self):
        # The order cap is the fixed 720, so the flag is an unknown argument.
        proc = _python("-m", "fusioncat.cli", "--order-cap", "720", "verify",
                       "--catalog", "U", capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: fusioncat")
