"""The three workloads: the CLI calls of one pass, their inputs, and the
checks every output must pass.

A check never parses output with fusioncat's own code: structure constants
come from the catalog's FCAT text read line by line, S entries are compared
with a closed form through `zn_fcat.eval_cyc`, and characters with digests
recorded when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import zn_fcat

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# sha256 of `char <label> --cutoff <c>` stdout; the CLI output is byte-stable.
CHAR_DIGESTS = {
    ("M^0", 100): "d9955d73232815c6c4374f551e264be4fc1c34051f1df21ab316d26b255316e2",
    ("M^0", 300): "c0d197917d79c4fc6b69110ef1e85b45ade1db2769b3eadfc7f0f697e8222020",
    ("M^1", 300): "ba3874597c2645ff9f837a54188186e9b2ee192ee0be92f50a4c3b272183f984",
}

# ring axioms (4) + modular checks (7) + Verlinde round trip (1)
VERIFY_LINES = 12
S_TOLERANCE = 1e-9

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI call: `python -m fusioncat.cli <argv>`."""

    metric: str | None      # per-command metric the call's time adds to
    argv: tuple[str, ...]
    check: Check            # (exit code, stdout) -> error message or None


@dataclass
class Workload:
    calls: list[Call]        # one pass, in seeded order
    setup_argv: list[str]    # fresh interpreter: import fusioncat, build inputs

    @property
    def metrics(self) -> list[str]:
        """The per-command metrics, in first-call order."""
        return list(dict.fromkeys(c.metric for c in self.calls if c.metric))


@dataclass(frozen=True)
class Proc:
    code: int | None        # None when killed on timeout
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


def program_present() -> bool:
    return (SRC / "fusioncat" / "cli.py").is_file()


def run_python(args: list[str], timeout: float) -> Proc:
    """Run a fresh interpreter on the checkout's sources and reap it with
    wait4, so its CPU time and max-RSS are its own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.1), os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(None if proc.returncode < 0 else proc.returncode,
                    out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"),
                    wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


# -- output checks -----------------------------------------------------------

def check_verify(code: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if code != 0:
        return f"verify exited {code}"
    bad = [line for line in lines if not line.rstrip().endswith(" PASS")]
    if bad or len(lines) != VERIFY_LINES:
        return f"verify printed {len(lines)} lines, not all PASS: {bad[:2]}"
    return None


def check_fails(code: int, stdout: str) -> str | None:
    return None if code == 1 else f"perturbed datum: exit {code}, expected 1"


def check_verlinde(expected: frozenset[str]) -> Check:
    def check(code: int, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if code != 0:
            return f"verlinde exited {code}"
        if len(lines) != len(expected) or set(lines) != expected:
            return (f"verlinde: {len(lines)} lines, {len(set(lines) ^ expected)}"
                    " differ from the catalog's N lines")
        return None
    return check


def check_smatrix(d: zn_fcat.PointedDatum) -> Check:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"smatrix exited {code}"
        seen = set()
        for line in stdout.splitlines():
            try:
                i, j, expr = line.split(" ", 2)
                i, j = int(i), int(j)
                err = abs(zn_fcat.eval_cyc(expr) - d.s_entry(i, j))
            except (ValueError, IndexError) as exc:
                return f"Z{d.n} smatrix line {line!r}: {exc}"
            if err > S_TOLERANCE:
                return f"Z{d.n} S[{i}][{j}] = {expr} is off by {err:.3g}"
            seen.add((i, j))
        if len(seen) != d.n * d.n:
            return f"Z{d.n} smatrix gave {len(seen)} of {d.n * d.n} entries"
        return None
    return check


def check_digest(digest: str) -> Check:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"char exited {code}"
        got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return None if got == digest else f"char digest {got[:12]} != {digest[:12]}"
    return check


# -- workloads ---------------------------------------------------------------

def _catalog_n_lines(name: str) -> frozenset[str]:
    proc = run_python(["-m", "fusioncat.cli", "catalog", name], timeout=120)
    if proc.code != 0:
        raise RuntimeError(f"catalog {name} exited {proc.code}: {proc.stderr}")
    return frozenset(line for line in proc.stdout.splitlines()
                     if line.startswith("N "))


def catalog_verify(seed: int, workdir: Path) -> Workload:
    """The three calls ROADMAP names; Verlinde in Q(zeta72)/Q(zeta36) dominates."""
    calls = [
        Call("verify_U_s", ("verify", "--catalog", "U"), check_verify),
        Call("verify_VLtau_s", ("verify", "--catalog", "VLtau"), check_verify),
        Call("verlinde_VLtau_s", ("verlinde", "--catalog", "VLtau"),
             check_verlinde(_catalog_n_lines("VLtau"))),
    ]
    random.Random(seed).shuffle(calls)
    code = "import fusioncat; fusioncat.build_U(); fusioncat.build_VLtau()"
    return Workload(calls, ["-c", code])


def fcat_pointed(seed: int, workdir: Path) -> Workload:
    """Generic FCAT input: pointed Z_n with seeded twists and label order."""
    calls, paths = [], []
    bad_n = random.Random(seed).choice(zn_fcat.SIZES)
    for n in zn_fcat.SIZES:
        d = zn_fcat.make_datum(n, seed)
        path = workdir / f"z{n}.fcat"
        path.write_text(zn_fcat.fcat_text(d), encoding="utf-8")
        paths.append(str(path))
        calls.append(Call("fcat_verify_s", ("verify", str(path)), check_verify))
        calls.append(Call("fcat_smatrix_s", ("smatrix", str(path)),
                          check_smatrix(d)))
        if n == bad_n:
            bad = workdir / f"z{n}-wrong-twist.fcat"
            bad.write_text(zn_fcat.fcat_text(d, zn_fcat.perturbed_label(d)),
                           encoding="utf-8")
            paths.append(str(bad))
            calls.append(Call(None, ("verify", str(bad)), check_fails))
    code = ("import sys, fusioncat\n"
            "for p in sys.argv[1:]:\n"
            "    fusioncat.parse_fcat(open(p, encoding='utf-8').read())")
    return Workload(calls, ["-c", code, *paths])


def characters(seed: int, workdir: Path) -> Workload:
    """q-series products and lattice box enumeration; no cyclotomic work."""
    calls = []
    for label, cutoff in CHAR_DIGESTS:
        metric = "char_M0_c100_s" if cutoff == 100 else "char_c300_s"
        calls.append(Call(metric, ("char", label, "--cutoff", str(cutoff)),
                          check_digest(CHAR_DIGESTS[label, cutoff])))
    random.Random(seed).shuffle(calls)
    code = ("from fractions import Fraction\n"
            "import fusioncat\n"
            "from fusioncat.lattice import coset_L, coset_Zbeta1\n"
            "for i in (0, 1):\n"
            "    [(coset_Zbeta1(Fraction(3 * i + 2 * p, 6)), coset_L('c', p))"
            " for p in range(3)]")
    return Workload(calls, ["-c", code])


BUILDERS = {"catalog-verify": catalog_verify, "fcat-pointed": fcat_pointed,
            "characters": characters}
