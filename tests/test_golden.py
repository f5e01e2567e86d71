"""Golden outputs: CLI bytes and exact report texts pinned verbatim.

Any change to how the matrix checks compute must leave these unchanged:
the CLI prints the same bytes, failures keep their texts and name the same
first failing entry.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from fusioncat import build_U, build_VLtau
from fusioncat.cli import main
from fusioncat.fcat import parse_fcat
from fusioncat.modular_data import ModularDatum, VerlindeError

from reference import shifted_twist
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
    ("qdim", "U"):
        "4f30d487755bbfd6f81acf20b7c7853e2e034523bf5d9c8845a7843e17ee3ab9",
    ("qdim", "VLtau"):
        "bea78e4946762cbdf9f16df583e8361a63c6b5385f467b54acfc2430ef919fab",
}

# sha256 of `catalog <name>` stdout; every call exits 0.
CATALOG_SHA256 = {
    "U": "2105996d2c92909085cecb4ca7dbe603b3a6214bdcbdfbf32de1afa3ded58080",
    "VLtau": "86f7af36c4e476349c450a72028516018d7448d557d5bdc8503e598d8ad7ab52",
}

# sha256 of `smatrix [--unnormalized] <file>` stdout on pointed_fcat(n, a, seed).
# S is computed at order 44 (Z11), 60 (Z15) and 252 (Z63), s-tilde at order
# n; each entry prints at its minimal order.  Z63's S entries demote to
# orders 28, 84 and 252 (`test_pointed_z63_s_demotes`).
POINTED_SHA256 = {
    (11, 3, 1, "smatrix"):
        "765b39aa723219f18a356e06c1188df7a0bce61d3515fd0418b337d2c7907ccb",
    (11, 3, 1, "smatrix --unnormalized"):
        "3a59228fe90f1b31d9de0acfb7f8be1eb9e1d892e65dc8f2b5b677575cbf1eb5",
    (15, 2, 2, "smatrix"):
        "2d67ea936a23263b884656dc45598389c441a054dcf0cd3e19c39e310345a52a",
    (15, 2, 2, "smatrix --unnormalized"):
        "94f6e4337a18186ec0d51f5d9833895e6b8267a71b7a9d8a429dd1408915bb35",
    (63, 2, 3, "smatrix"):
        "cbbfc8d2b73b097cada136b523a326f654e84fb9aae6820fa2b70ca07f2025ec",
    (63, 2, 3, "smatrix --unnormalized"):
        "4b4ad0542372a194111e45af3110c6f8a048fe98fbf04ec537f541b939a6ba17",
}

# Two files with irrational dims, so `verlinde` divides by an irrational S
# entry and the S entries print in Q(zeta_20) and Q(zeta_8).
FIBONACCI_FCAT = """category fib
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

ISING_FCAT = """category ising
label 0 1
label 1 sigma
label 2 psi
unit 0
N 0 0 0 1
N 0 1 1 1
N 0 2 2 1
N 1 0 1 1
N 1 1 0 1
N 1 1 2 1
N 1 2 1 1
N 2 0 2 1
N 2 1 1 1
N 2 2 0 1
twist 0 0/1
twist 1 1/16
twist 2 1/2
dim 0 1
dim 1 e(1/8)-e(3/8)
dim 2 1
"""

# sha256 of `<command> <file>` stdout on the two files above; every call
# exits 0.
IRRATIONAL_SHA256 = {
    ("fibonacci", "verify"):
        "757eaf2a2be084024ba098449febd1ec73dd14d27543a0adeb01dbbc8615c59f",
    ("fibonacci", "verlinde"):
        "4a6fa4e44b0bbcbf03188a4485a19c98b3905d1d339c4ece658a0400f6130763",
    ("fibonacci", "smatrix"):
        "1ac9a4020396769abd668b1918e80ace5e1132b73e7fd4f8f205aead07ca34a8",
    ("fibonacci", "smatrix --unnormalized"):
        "fbc2c2b4ce7f87bf224b87605a2441274ef0b1d897eb70065994d4e93e9fc403",
    ("fibonacci", "tmatrix"):
        "b487d55d3141ed8abb1b3cdf4ba95583dbff3121659fec7ba90f82ddce75190a",
    ("ising", "verify"):
        "757eaf2a2be084024ba098449febd1ec73dd14d27543a0adeb01dbbc8615c59f",
    ("ising", "verlinde"):
        "b73e133052dbb30a222760679a34c4e4c1c83478edafea28d409c3ba325df68b",
    ("ising", "smatrix"):
        "e6457963e58bf0f40df3364118195039a542c4f306da1b14cee2284703a43609",
    ("ising", "smatrix --unnormalized"):
        "6b8e089d57c84b5158a9a65205dc38045d8d46feaf5511561d89e31b94535b4b",
    ("ising", "tmatrix"):
        "6fdd38f8da9220b4b2c5693ee84028f0d9df26252d97c738c65f95527c3c7eca",
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


@pytest.mark.parametrize("key", sorted(IRRATIONAL_SHA256))
def test_irrational_dims_digest(key, tmp_path, capsys):
    name, command = key
    path = tmp_path / f"{name}.fcat"
    path.write_text({"fibonacci": FIBONACCI_FCAT, "ising": ISING_FCAT}[name])
    argv = command.split() + [str(path)]
    assert _stdout_digest(argv, capsys) == IRRATIONAL_SHA256[key]


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_byte_order_mark_is_skipped(name, tmp_path, capsys):
    # A file saved with a UTF-8 byte-order mark reads as the plain file.
    text = {"fibonacci": FIBONACCI_FCAT, "ising": ISING_FCAT}[name]
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / f"{name}{len(mark)}.fcat"
        path.write_bytes(mark + text.encode())
        runs.append((main(["verify", str(path)]), capsys.readouterr()))
    assert runs[1] == runs[0]
    assert runs[0][0] == 0


def test_pointed_z63_s_demotes():
    doc = parse_fcat(pointed_fcat(63, 2, 3))
    s = ModularDatum(doc.ring, doc.twists, doc.dims).s_matrix()
    assert Counter(x.order for row in s for x in row) == {
        252: 1764, 84: 1176, 28: 1029}


@pytest.mark.parametrize("label,cutoff", sorted(CHAR_SHA256))
def test_char_stdout_digest(label, cutoff, capsys):
    code = main(["char", label, "--cutoff", str(cutoff)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_SHA256[label, cutoff]


@pytest.mark.parametrize("alias,label", [("W6", "M^0"), ("W7", "M^1")])
@pytest.mark.parametrize("cutoff", [100, 300])
def test_char_w_alias_prints_its_module(alias, label, cutoff, capsys):
    code = main(["char", alias, "--cutoff", str(cutoff)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_SHA256[label, cutoff]


def test_perturbed_z3_report_lines():
    md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
    assert md.verify_modular().lines() == _FAILING_CHECKS + [
        "  detail: S[0][1] != S[1][0]",
        "  detail: (S^2)[0][0] != C[0][0]",
        "  detail: S[i'][j'] != S[i][j] somewhere",
        "  detail: (S S*)[0][1] = "
        "1/3*e(1/9)-1/3*e(2/9)+1/3*e(1/3)-1/3*e(5/9)",
        "  detail: p+ p- != D^2",
        "  detail: p+/p- != e^{2 pi i c/4}",
    ]


def test_perturbed_u_report_lines():
    md = shifted_twist(build_U(), 8, Fraction(1, 9))
    assert md.verify_modular().lines() == _FAILING_CHECKS + [
        "  detail: S[0][8] != S[8][0]",
        "  detail: (S^2)[0][0] != C[0][0]",
        "  detail: S[i'][j'] != S[i][j] somewhere",
        "  detail: (S S*)[0][1] = "
        "1/9-1/18*e(1/9)+1/9*e(1/3)-1/18*e(4/9)+1/18*e(5/9)",
        "  detail: p+ p- != D^2",
        "  detail: p+/p- != e^{2 pi i c/4}",
    ]


def test_perturbed_z3_verlinde_message():
    md = shifted_twist(z3_datum(), 1, Fraction(1, 9))
    with pytest.raises(VerlindeError) as info:
        md.verlinde(require_verified=False)
    assert str(info.value) == "non-rational Verlinde value at (0,0,1)"


@pytest.mark.parametrize("build", [build_U, build_VLtau, z3_datum],
                         ids=["U", "VLtau", "Z3"])
def test_st_relation_holds(build):
    # T carries the -c/24 shift, so (ST)^3 = S^2 holds exactly when
    # p+ = D e(c/8): the Gauss sum gives c mod 8 as the datum states it.
    md = build()
    assert md.infer_central_charge_mod8() == md.central_charge % 8
