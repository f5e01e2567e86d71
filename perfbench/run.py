"""Benchmark of the fusioncat CLI: time to a checked result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures whole passes of
the workload's CLI calls, one fresh `python -m fusioncat.cli` process at a
time (a closed loop with one client), while another pass is expected to end
within --seconds.  A pass is never cut, so a run measures at least one.
With --trace 1 it runs the traced pass instead (see traced.py).  Every
output is checked.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  A record with provenance and all samples
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import workloads
from workloads import OUT, ROOT

SETUP_REPEATS = 9
RUN_LIMIT_S = 170       # no call may end later than this into the run
CALL_TIMEOUT_S = 150


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic that still has at
    least ten samples above it; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def describe(name: str, samples: list[float], unit: str) -> str:
    med = statistics.median(samples)
    hp = high_percentile(samples)
    tail = (f"p{hp[0]:.0f} {hp[1]:.4f} {unit}" if hp
            else "no percentile with ten samples beyond it")
    return f"{name:<18} median {med:.4f} {unit}; {tail} (n={len(samples)})"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {"python": platform.python_version(), "numpy": numpy, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git": _git_commit(),
            "seed": seed, "loadavg_before": _read("/proc/loadavg").strip()}


def timed_run(wl: workloads.Workload, seconds: int, started: float,
              errors: list[str]):
    """Set-up repeats, then whole passes; returns metrics, lines, attempted, record."""
    attempted = 0

    def call(args, label, check):
        nonlocal attempted
        attempted += 1
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = workloads.run_python(args, min(CALL_TIMEOUT_S, left))
        err = "killed (timeout)" if proc.code is None else check(proc.code, proc.stdout)
        if err:
            errors.append(f"{label}: {err} {proc.stderr[-300:]}".rstrip())
        return proc

    def setup_ok(code, _):
        return None if code == 0 else f"exit {code}"

    def setup_launch():
        setup.append(call(wl.setup_argv, "setup", setup_ok).wall)

    # Set-up launches are spread over the run, one before each CLI call, so
    # that they meet the same machine load as the passes.
    setup: list[float] = []
    passes, calls = [], []
    t0 = time.perf_counter()
    while True:
        row = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "complete": True}
        row.update({m: 0.0 for m in wl.metrics})
        for c in wl.calls:
            if time.perf_counter() - started >= RUN_LIMIT_S:
                attempted += 1
                errors.append(f"{' '.join(c.argv)}: run limit reached")
                row["complete"] = False
                break
            if len(setup) < SETUP_REPEATS:
                setup_launch()
            proc = call(["-m", "fusioncat.cli", *c.argv], " ".join(c.argv), c.check)
            calls.append({"argv": list(c.argv), "code": proc.code,
                          "wall": proc.wall, "cpu": proc.cpu,
                          "maxrss_kb": proc.maxrss_kb})
            row["wall"] += proc.wall
            row["cpu"] += proc.cpu
            row["rss_kb"] = max(row["rss_kb"], proc.maxrss_kb)
            if c.metric:
                row[c.metric] += proc.wall
        passes.append(row)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(p["wall"] for p in passes)
        if not row["complete"] or elapsed + typical > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup_launch()

    done = [p for p in passes if p["complete"]] or passes
    series = {"setup_s": setup, "wall_s": [p["wall"] for p in done],
              "cpu_s": [p["cpu"] for p in done]}
    series.update({m: [p[m] for p in done] for m in wl.metrics})
    peak = max(p["rss_kb"] for p in passes) / 1024
    metrics = {k: (statistics.median(series[k]), "s")
               for k in ("setup_s", "wall_s", "cpu_s")}
    metrics["peak_rss_mb"] = (peak, "MB")

    lines = [f"closed loop, 1 client: {len(done)} complete passes of "
             f"{len(wl.calls)} CLI calls, {len(calls)} calls in all"]
    lines += [describe(k, v, "s") for k, v in series.items()]
    lines.append(f"{'peak_rss_mb':<18} {peak:.1f} MB (max over {len(calls)} calls)")
    record = {"series": series, "passes": passes, "calls": calls}
    return metrics, lines, attempted, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not workloads.program_present():
        print(f"error: no fusioncat sources under {workloads.SRC}; run from the "
              "root of a fusioncat checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    wl = workloads.BUILDERS[args.workload](args.seed, workdir)
    errors: list[str] = []

    if args.trace:
        import traced
        metrics, lines, attempted, spans = traced.run(wl, args.seed, errors)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans))
        record = {}
    else:
        metrics, lines, attempted, record = timed_run(wl, args.seconds, started,
                                                      errors)
    prov["loadavg_after"] = _read("/proc/loadavg").strip()
    failed = len(errors)

    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.perf_counter() - started:.1f} s")
    for line in lines:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for err in errors:
        print(f"FAILED {err}")

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=prov, attempted=attempted, failed=failed,
                  errors=errors, metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
