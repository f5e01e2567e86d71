"""Tests of the seeded Z_n FCAT generator and the output checks built on it.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402
import zn_fcat  # noqa: E402

SEEDS = (0, 1, 2)


def cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    return subprocess.run([sys.executable, "-m", "fusioncat.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("n", zn_fcat.SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_bytes(n, seed):
    d = zn_fcat.make_datum(n, seed)
    assert d == zn_fcat.make_datum(n, seed)
    assert zn_fcat.fcat_text(d) == zn_fcat.fcat_text(zn_fcat.make_datum(n, seed))
    assert math.gcd(2 * d.a, n) == 1
    assert sorted(d.values) == list(range(n))
    assert d.values[0] != 0, "the unit must not sit at index 0"


def test_seeds_differ():
    texts = {zn_fcat.fcat_text(zn_fcat.make_datum(13, s)) for s in range(6)}
    assert len(texts) > 1


@pytest.mark.parametrize("n", zn_fcat.SIZES)
def test_generated_datum_verifies_and_matches_closed_form(n, tmp_path):
    d = zn_fcat.make_datum(n, seed=5)
    path = tmp_path / f"z{n}.fcat"
    path.write_text(zn_fcat.fcat_text(d), encoding="utf-8")
    proc = cli("verify", str(path))
    assert workloads.check_verify(proc.returncode, proc.stdout) is None, proc.stdout
    proc = cli("smatrix", str(path))
    assert workloads.check_smatrix(d)(proc.returncode, proc.stdout) is None


@pytest.mark.parametrize("n", zn_fcat.SIZES)
def test_wrong_twist_fails_verify(n, tmp_path):
    d = zn_fcat.make_datum(n, seed=5)
    path = tmp_path / f"z{n}-bad.fcat"
    path.write_text(zn_fcat.fcat_text(d, zn_fcat.perturbed_label(d)),
                    encoding="utf-8")
    proc = cli("verify", str(path))
    assert proc.returncode == 1
    assert workloads.check_verify(proc.returncode, proc.stdout) is not None


def test_smatrix_check_rejects_another_form(tmp_path):
    d = zn_fcat.make_datum(11, seed=5)
    path = tmp_path / "z11.fcat"
    path.write_text(zn_fcat.fcat_text(d), encoding="utf-8")
    proc = cli("smatrix", str(path))
    other = zn_fcat.PointedDatum(d.n, (d.a + 1) % d.n or 1, d.values)
    assert workloads.check_smatrix(other)(proc.returncode, proc.stdout)


def test_eval_cyc_grammar():
    assert zn_fcat.eval_cyc("3") == 3
    assert abs(zn_fcat.eval_cyc("e(1/4)") - 1j) < 1e-12
    assert abs(zn_fcat.eval_cyc("-1/2*e(1/3)-1/2*e(-1/3)") - 0.5) < 1e-12
    assert abs(zn_fcat.eval_cyc("(1-2)*e(1/2)") - 1) < 1e-12
    with pytest.raises(ValueError):
        zn_fcat.eval_cyc("e(1/3")
