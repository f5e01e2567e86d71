"""The traced pass: per-layer numbers, measured in process.

Each CLI call of the workload runs through `fusioncat.cli.main`, with spans
and without, in alternating order, so the difference is the tracing
overhead.  Spans wrap the public functions the command calls (and the ones
`character` and `build_VLtau` call by module-level name); they are installed
from here and removed afterwards, so the package itself is unchanged.  Then
the layer probes time each per-layer metric on fixed seeded inputs, also as
spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction

import workloads
import zn_fcat

LAYERS = ("cli", "orbifold_catalog", "fusion_ring", "cyclotomic",
          "modular_data", "lattice", "qseries")
PROBE_CUTOFF = 100
MIRROR_PASSES = 3
MIRROR_BUDGET_S = 20
OP_PAIRS = 2000


@dataclass
class Span:
    id: int
    name: str               # "<layer>.<function>"
    parent: int | None
    command: str            # the CLI call or probe the span belongs to
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `command` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.command, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self, spans: list[Span]) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            out[s.name.split(".")[0]] += s.seconds - covered[s.id]
        return out


def _import_package():
    if str(workloads.SRC) not in sys.path:
        sys.path.insert(0, str(workloads.SRC))
    import fusioncat
    return fusioncat


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the functions the CLI commands reach, and restore them after."""
    from fusioncat import cli, orbifold_catalog, qseries
    from fusioncat.fusion_ring import FusionRing
    from fusioncat.modular_data import ModularDatum
    targets = [
        (cli, "build_U", "orbifold_catalog.build_U"),
        (cli, "build_VLtau", "orbifold_catalog.build_VLtau"),
        (orbifold_catalog, "min_norm", "lattice.min_norm"),
        (cli, "parse_fcat", "fusion_ring.parse_fcat"),
        (FusionRing, "validate", "fusion_ring.validate"),
        (ModularDatum, "infer_central_charge_mod8", "modular_data.infer_c"),
        (ModularDatum, "stilde", "modular_data.stilde"),
        (ModularDatum, "s_matrix", "modular_data.s_matrix"),
        (ModularDatum, "verify_modular", "modular_data.verify_modular"),
        (ModularDatum, "verlinde", "modular_data.verlinde"),
        (cli, "format_cyc", "cyclotomic.format"),
        (cli, "coset_L", "lattice.coset_L"),
        (cli, "coset_Zbeta1", "lattice.coset_Zbeta1"),
        (cli, "character", "qseries.character"),
        (qseries, "eta_inverse_power", "qseries.eta_inverse_power"),
        # theta_coset lives in qseries but is the lattice box enumeration
        (qseries, "theta_coset", "lattice.theta_coset"),
    ]
    # A function a later version no longer has simply gets no span.
    targets = [(owner, attr, name) for owner, attr, name in targets
               if attr in vars(owner)]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(vars(owner)[attr], name))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _cli_in_process(argv) -> tuple[int, str]:
    from fusioncat import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def mirror(wl: workloads.Workload, tracer: Tracer, errors: list[str]) -> dict:
    """Passes over the workload's calls, each call once traced and once
    untraced in alternating order; a further pass starts only while the
    passes so far took under MIRROR_BUDGET_S.  Returns, per command, the
    traced and untraced seconds of every pass."""
    times: dict[str, tuple[list[float], list[float]]] = {}
    start = time.perf_counter()
    for rep in range(MIRROR_PASSES):
        if rep and time.perf_counter() - start > MIRROR_BUDGET_S:
            break
        for i, call in enumerate(wl.calls):
            tracer.command = f"{i}: {' '.join(call.argv)}"
            traced, untraced = times.setdefault(tracer.command, ([], []))
            for with_spans in ((True, False) if rep % 2 == 0 else (False, True)):
                t0 = time.perf_counter()
                if with_spans:
                    with instrumented(tracer), tracer.span("cli.main"):
                        code, out = _cli_in_process(call.argv)
                else:
                    code, out = _cli_in_process(call.argv)
                (traced if with_spans else untraced).append(time.perf_counter() - t0)
                err = call.check(code, out)
                if err:
                    errors.append(f"in process {tracer.command}: {err}")
    return times


# -- layer probes --------------------------------------------------------------

class Probes:
    """Each per-layer metric timed on fixed inputs made from the seed."""

    def __init__(self, tracer: Tracer, seed: int, errors: list[str]):
        self.t = tracer
        self.seed = seed
        self.errors = errors
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0

    def time(self, metric: str, fn, repeats: int, per: int = 1,
             prepare=lambda: None):
        """Median span time of `fn(prepare())` over `repeats` calls, per
        operation (in microseconds when `per` > 1); returns the last result.
        `prepare` runs outside the span, for inputs that cache their results."""
        name = metric.rsplit("_", 1)[0]
        self.t.command = f"probe {metric}"
        values = []
        for _ in range(repeats):
            arg = prepare()
            with self.t.span(name) as s:
                result = fn(arg)
            values.append(s.seconds / per * (1e6 if per > 1 else 1))
        unit = "us" if per > 1 else "s"
        self.metrics[metric] = (statistics.median(values), unit, repeats)
        return result

    def check(self, what: str, error: str | None):
        self.attempted += 1
        if error:
            self.errors.append(f"probe {what}: {error}")

    def run(self):
        fc = _import_package()
        from fusioncat.lattice import coset_L, coset_Zbeta1, min_norm
        from fusioncat.qseries import (QSeries, character, eta_inverse_power,
                                       theta_coset)
        rng = random.Random(f"probes:{self.seed}")

        self.import_time()

        u = self.time("orbifold_catalog.build_U_s", lambda _: fc.build_U(), 5)
        vl = self.time("orbifold_catalog.build_VLtau_s",
                       lambda _: fc.build_VLtau(), 5)

        constants = {(i, j, k): m for i, j, k, m in vl.ring.nonzero()}
        report = self.time(
            "fusion_ring.validate_s", lambda ring: ring.validate(), 5,
            prepare=lambda: fc.FusionRing(vl.ring.labels, vl.ring.unit, constants))
        self.check("validate", None if report.passed else "VLtau ring invalid")

        data = [zn_fcat.make_datum(n, self.seed) for n in zn_fcat.SIZES]
        texts = [zn_fcat.fcat_text(d) for d in data]
        docs = self.time("fusion_ring.parse_fcat_s",
                         lambda _: [fc.parse_fcat(x) for x in texts], 5)

        def fresh_u(*cached):
            md = fc.ModularDatum(u.ring, dict(enumerate(u.twists)),
                                 dict(enumerate(u.dims)), u.central_charge)
            for method in cached:
                getattr(md, method)()
            return md
        self.time("modular_data.stilde_s", lambda md: md.stilde(), 3,
                  prepare=fresh_u)
        self.time("modular_data.s_matrix_s", lambda md: md.s_matrix(), 3,
                  prepare=lambda: fresh_u("stilde"))
        rep = self.time("modular_data.verify_modular_s",
                        lambda md: md.verify_modular(), 3,
                        prepare=lambda: fresh_u("s_matrix"))
        self.check("verify_modular U", None if rep.passed else "U fails")
        tensor = self.time("modular_data.verlinde_s",
                           lambda md: md.verlinde(require_verified=False), 1,
                           prepare=lambda: fresh_u("stilde"))
        self.check("verlinde U", None if (tensor == u.ring.tensor).all()
                   else "U Verlinde round trip differs")

        cs = self.time(
            "modular_data.infer_c_s",
            lambda mds: [m.infer_central_charge_mod8() for m in mds], 5,
            prepare=lambda: [fc.ModularDatum(doc.ring, doc.twists, doc.dims)
                             for doc in docs])
        self.check("infer_c", None if None not in cs else "c mod 8 not found")

        s_entries = [x for row in fresh_u().s_matrix() for x in row]
        pairs = [(rng.choice(s_entries), rng.choice(s_entries))
                 for _ in range(OP_PAIRS)]
        self.time("cyclotomic.mul_us", lambda _: [x * y for x, y in pairs], 5,
                  per=OP_PAIRS)
        self.time("cyclotomic.add_us", lambda _: [x + y for x, y in pairs], 5,
                  per=OP_PAIRS)

        zn = []
        for d, doc in zip(data, docs):
            s = fc.ModularDatum(doc.ring, doc.twists, doc.dims).s_matrix()
            zn += [(d, i, j, s[i][j]) for i in range(d.n) for j in range(d.n)]
        text = self.time("cyclotomic.format_us",
                         lambda _: [fc.format_cyc(x) for *_, x in zn], 5,
                         per=len(zn))
        worst = max(abs(zn_fcat.eval_cyc(t) - d.s_entry(i, j))
                    for (d, i, j, _), t in zip(zn, text))
        self.check("format_cyc", None if worst <= workloads.S_TOLERANCE
                   else f"S entry off by {worst:.3g}")

        cut = Fraction(PROBE_CUTOFF)
        pieces = [(coset_Zbeta1(Fraction(2 * p, 6)), coset_L("c", p))
                  for p in range(3)]
        thetas = self.time("lattice.theta_coset_s",
                           lambda _: [(theta_coset(a, cut), theta_coset(b, cut))
                                      for a, b in pieces], 3)
        c_cosets = [coset_L("c", j) for j in range(3)]
        self.time("lattice.min_norm_s",
                  lambda _: [min_norm(c) for c in c_cosets], 10)
        eta3 = self.time("qseries.eta_inverse_power_s",
                         lambda _: eta_inverse_power(3, cut), 5)

        def replay(_):
            # character() with c = 3: the eta shift is zero
            total = QSeries.zero(cut)
            for a, b in thetas:
                total = total + (a * b) * eta3
            return total
        digest = workloads.CHAR_DIGESTS["M^0", PROBE_CUTOFF]
        replayed = self.time("qseries.series_mul_s", replay, 3)
        self.check("series_mul", _series_error(replayed, digest))
        char = self.time("qseries.character_s",
                         lambda _: character(pieces, 3, cut), 3)
        self.check("character", _series_error(char, digest))

    def import_time(self):
        """Fresh `import fusioncat` minus a bare interpreter start."""
        self.t.command = "probe cli.import_s"
        bare, full = [], []
        for _ in range(5):
            for argv, into in ((["-c", "pass"], bare),
                               (["-c", "import fusioncat"], full)):
                with self.t.span("cli.interpreter" if into is bare else "cli.import"):
                    proc = workloads.run_python(argv, timeout=60)
                self.check("import", None if proc.code == 0 else proc.stderr[-200:])
                into.append(proc.wall)
        self.metrics["cli.import_s"] = (
            statistics.median(full) - statistics.median(bare), "s", len(full))


def _series_error(series, digest: str) -> str | None:
    text = "".join(line + "\n" for line in series.dump_lines())
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return None if got == digest else f"digest {got[:12]} != {digest[:12]}"


def run(wl: workloads.Workload, seed: int, errors: list[str]):
    """Traced pass plus probes; returns (metrics, report lines, attempted, spans)."""
    _import_package()
    tracer = Tracer()
    times = mirror(wl, tracer, errors)
    mirrored = [s for s in tracer.spans if not s.command.startswith("probe")]
    probes = Probes(tracer, seed, errors)
    probes.run()

    passes = len(next(iter(times.values()))[0])
    lines = [f"traced pass: {len(wl.calls)} CLI calls in process, {passes} "
             f"traced and {passes} untraced passes, {len(mirrored)} spans"]
    for layer, secs in tracer.self_times(mirrored).items():
        lines.append(f"  self time {layer:<17} {secs / passes:10.4f} s per pass")
    for command, (t, u) in times.items():
        lines.append(f"  {command}: traced {statistics.median(t):.4f} s / "
                     f"untraced {statistics.median(u):.4f} s (medians of {passes})")
    traced = sum(statistics.median(t) for t, _ in times.values())
    untraced = sum(statistics.median(u) for _, u in times.values())
    lines.append(f"tracing overhead: traced {traced:.4f} s / untraced "
                 f"{untraced:.4f} s = {traced / untraced:.4f} "
                 f"({(traced - untraced) / untraced:+.2%} of untraced)")
    lines += [f"probe {k:<32} median {v:.6g} {u} (n={n})"
              for k, (v, u, n) in probes.metrics.items()]
    attempted = 2 * passes * len(wl.calls) + probes.attempted
    metrics = {k: (v, u) for k, (v, u, _) in probes.metrics.items()}
    return metrics, lines, attempted, [asdict(s) for s in tracer.spans]
