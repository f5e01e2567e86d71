"""Golden outputs: CLI bytes and exact report texts pinned verbatim.

Any change to how the matrix checks compute must leave these unchanged:
the CLI prints the same bytes, failures keep their texts and name the same
first failing entry.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fusioncat import build_U, build_VLtau
from fusioncat.cli import main
from fusioncat.modular_data import VerlindeError

from test_modular_data import z3_datum

# sha256 of stdout; every call exits 0.
CLI_SHA256 = {
    ("verify", "U"):
        "757eaf2a2be084024ba098449febd1ec73dd14d27543a0adeb01dbbc8615c59f",
    ("verlinde", "U"):
        "5d6d5f957e4f5255e392ae22ecd858993199ae730becd295d061cdab8a41d873",
    ("smatrix", "U"):
        "6361945f16ff3ad4166e4eeaf3ba74eb0461aeed3373eb7b6d5077e8aa4fe433",
    ("tmatrix", "U"):
        "eeede8fd626aaf40603f2235286569949ad4058d8d1e4436c087c8e9097d229c",
    ("verify", "VLtau"):
        "757eaf2a2be084024ba098449febd1ec73dd14d27543a0adeb01dbbc8615c59f",
    ("verlinde", "VLtau"):
        "9f529cf8138bff4847fed1acaee1c999e576f4ba23aa3960da12b4c7e457bc3b",
    ("smatrix", "VLtau"):
        "3ce7d74103d60b266d9a6f9ecc48868cf8740697820780e05ab9eaf174c98d92",
    ("tmatrix", "VLtau"):
        "0da540e846551cb6cdfe69a671723eb63b712785e9fa13c071d0941492b8425c",
    ("smatrix --unnormalized", "U"):
        "43142e417f3b71c0cc0ab0a96de33221a17d5926daedefe9ba6cc8d4f7a7ec73",
    ("smatrix --unnormalized", "VLtau"):
        "0671609c2eef4187678c7a8d645ea993a46843feec63a92933fb01df4c10fa46",
}

# sha256 of `catalog <name>` stdout; every call exits 0.
CATALOG_SHA256 = {
    "U": "2105996d2c92909085cecb4ca7dbe603b3a6214bdcbdfbf32de1afa3ded58080",
    "VLtau": "86f7af36c4e476349c450a72028516018d7448d557d5bdc8503e598d8ad7ab52",
}

# sha256 of `smatrix [--unnormalized] <file>` stdout on pointed_fcat(n, a, seed).
# S is computed at order 44 (Z11) and 60 (Z15), s-tilde at order n; each
# entry prints at its minimal order.
POINTED_SHA256 = {
    (11, 3, 1, "smatrix"):
        "765b39aa723219f18a356e06c1188df7a0bce61d3515fd0418b337d2c7907ccb",
    (11, 3, 1, "smatrix --unnormalized"):
        "3a59228fe90f1b31d9de0acfb7f8be1eb9e1d892e65dc8f2b5b677575cbf1eb5",
    (15, 2, 2, "smatrix"):
        "2d67ea936a23263b884656dc45598389c441a054dcf0cd3e19c39e310345a52a",
    (15, 2, 2, "smatrix --unnormalized"):
        "94f6e4337a18186ec0d51f5d9833895e6b8267a71b7a9d8a429dd1408915bb35",
}

# sha256 of `char <label> --cutoff <c>` stdout; every call exits 0.
CHAR_SHA256 = {
    ("M^0", 100):
        "d9955d73232815c6c4374f551e264be4fc1c34051f1df21ab316d26b255316e2",
    ("M^0", 300):
        "c0d197917d79c4fc6b69110ef1e85b45ade1db2769b3eadfc7f0f697e8222020",
    ("M^1", 100):
        "e946861a1cb70cc895ff25e0b1eb627d3d115d01dad21a3d504352ee4328b465",
    ("M^1", 300):
        "ba3874597c2645ff9f837a54188186e9b2ee192ee0be92f50a4c3b272183f984",
    # Coefficients near q^1000 pass 2^64, so the product slots span bytes.
    ("M^0", 1000):
        "baac9afb378c7375c96ced87fc739be9617bcf250fd0ccf4ebaf4108a93f4f96",
    ("M^1", 1000):
        "bd41004d9ac7373c7139bc11d78541fd113cf62da43d4601eb61351063bd3a66",
}

_FAILING_CHECKS = [
    "S symmetric                 FAIL",
    "S^2 = charge conjugation    FAIL",
    "S dual-invariant            FAIL",
    "S unitary                   FAIL",
    "first row = dims/D          PASS",
    "Gauss sums p+p- = D^2       FAIL",
    "Gauss ratio e^(2 pi i c/4)  FAIL",
]


def _stdout_digest(argv, capsys) -> str:
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def pointed_fcat(n: int, a: int, seed: int) -> str:
    """Z_n with twists a x^2 / n, dims 1 and the labels in shuffled order."""
    values = list(range(n))
    random.Random(seed).shuffle(values)
    index = {x: i for i, x in enumerate(values)}
    lines = [f"category Z{n}", f"unit {index[0]}"]
    lines += [f"label {i} g{x}" for i, x in enumerate(values)]
    for i, x in enumerate(values):
        t = Fraction(a * x * x % n, n)
        lines.append(f"twist {i} {t.numerator}/{t.denominator}")
        lines.append(f"dim {i} 1")
        lines += [f"N {i} {j} {index[(x + y) % n]} 1"
                  for j, y in enumerate(values)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,catalog", sorted(CLI_SHA256))
def test_cli_stdout_digest(command, catalog, capsys):
    argv = command.split() + ["--catalog", catalog]
    assert _stdout_digest(argv, capsys) == CLI_SHA256[command, catalog]


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_stdout_digest(name, capsys):
    assert _stdout_digest(["catalog", name], capsys) == CATALOG_SHA256[name]


@pytest.mark.parametrize("key", sorted(POINTED_SHA256))
def test_pointed_smatrix_digest(key, tmp_path, capsys):
    n, a, seed, command = key
    path = tmp_path / f"z{n}.fcat"
    path.write_text(pointed_fcat(n, a, seed))
    argv = command.split() + [str(path)]
    assert _stdout_digest(argv, capsys) == POINTED_SHA256[key]


@pytest.mark.parametrize("label,cutoff", sorted(CHAR_SHA256))
def test_char_stdout_digest(label, cutoff, capsys):
    code = main(["char", label, "--cutoff", str(cutoff)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_SHA256[label, cutoff]


def test_perturbed_z3_report_lines():
    md = z3_datum().perturbed(1, Fraction(1, 9))
    assert md.verify_modular().lines() == _FAILING_CHECKS + [
        "  detail: S[0][1] != S[1][0]",
        "  detail: (S^2)[0][0] != C[0][0]",
        "  detail: S[i'][j'] != S[i][j] somewhere",
        "  detail: (S S*)[0][1] = "
        "-1/3+1/3*e(1/18)+1/3*e(1/9)+1/3*e(1/6)-1/3*e(2/9)",
        "  detail: p+ p- != D^2",
        "  detail: p+/p- != e^{2 pi i c/4}",
    ]


def test_perturbed_u_report_lines():
    md = build_U().perturbed(8, Fraction(1, 9))
    assert md.verify_modular().lines() == _FAILING_CHECKS + [
        "  detail: S[0][8] != S[8][0]",
        "  detail: (S^2)[0][0] != C[0][0]",
        "  detail: S[i'][j'] != S[i][j] somewhere",
        "  detail: (S S*)[0][1] = -1/18*e(1/18)+1/9*e(1/6)-1/18*e(5/18)",
        "  detail: p+ p- != D^2",
        "  detail: p+/p- != e^{2 pi i c/4}",
    ]


def test_perturbed_z3_verlinde_message():
    md = z3_datum().perturbed(1, Fraction(1, 9))
    with pytest.raises(VerlindeError) as info:
        md.verlinde(require_verified=False)
    assert str(info.value) == "non-rational Verlinde value at (0,0,1)"


@pytest.mark.parametrize("build", [build_U, build_VLtau, z3_datum],
                         ids=["U", "VLtau", "Z3"])
def test_st_relation_is_reported_false(build):
    # T carries the -c/24 shift, so (ST)^3 = S^2, not e^{2 pi i c/8} S^2.
    assert build().st_relation_holds() is False
