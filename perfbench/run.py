"""tracelab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in its own process

Run from the repository root; tracelab is imported from ``src/`` there and
nowhere else.  A run sends a fixed number of requests, whole blocks of the
workload's stream, sized from ``--seconds`` and the workload's request rate
at the commit that defined the benchmark, so that every commit measures the
same requests for a given seed.  Times are scaled to a reference host
speed measured by an interleaved loop (see hostspeed.py); the unscaled
figures are printed on the info line.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
are written under ``.perfbench/``.  Earlier lines give sample counts, input
properties, the classify p99, failed_share and the stamp (commit, nproc,
Python and numpy versions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("classify", "scan", "fibers", "levelsets")
SETUP_REPS = 5
# A run stops early, once p90 is supported, if it takes longer than this.
WALL_CAP_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_tracelab() -> None:
    """Import tracelab from this checkout's src/, or exit with status 1."""
    if not (SRC / "tracelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tracelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracelab

    if Path(tracelab.__file__).resolve().parent != (SRC / "tracelab").resolve():
        sys.exit(f"perfbench: imported tracelab from {tracelab.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time to import tracelab (and numpy) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import tracelab; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def repeated(fn, reps: int) -> tuple[list[float], list[float]]:
    """(raw, host-speed scaled) seconds of ``reps`` calls of ``fn``."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    raw = []
    for k in range(reps):
        speed.mark(k)
        raw.append(fn())
    speed.close(reps)
    return raw, speed.scale(raw)


def stamp() -> dict:
    import numpy

    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def request_count(wl, seconds: float, need: int) -> int:
    """Whole blocks worth about ``seconds`` at the workload's nominal rate,
    and at least ``need`` requests."""
    blocks = max(round(seconds * wl.rate / wl.block), math.ceil(need / wl.block))
    return blocks * wl.block


def timed_request(wl, req, i: int, seed: int, tracer=None):
    """Run one request; returns (latency, items, problems)."""
    if tracer is not None:
        tracer.current_request = i
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(req)
        err = None
    except Exception as exc:  # a raising request is a failed request
        out, err = None, f"request {i} raised {exc!r}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.current_request = -1
    if err:
        return dt, 0, [err]
    problems = wl.check(req, out, random.Random(f"check-{seed}-{i}"))
    return dt, 0 if problems else wl.items(req, out), problems


def run_untraced(name: str, seed: int, seconds: int, workdir: str) -> dict:
    from hostspeed import HostSpeed
    from percentiles import TooFewSamples, min_samples, percentile
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir)

    def setup_once() -> float:
        t0 = time.perf_counter()
        wl.setup()
        return time.perf_counter() - t0

    imports_raw, imports = repeated(import_seconds, SETUP_REPS)
    setups_raw, setups = repeated(setup_once, SETUP_REPS)
    count = request_count(wl, seconds, min_samples(90))
    speed = HostSpeed(every_s=0.1)
    raw: list[float] = []
    items = failed = 0
    problems: list[str] = []
    wall0 = time.perf_counter()
    for i, req in enumerate(wl.stream()):
        if i >= count or (time.perf_counter() - wall0 > WALL_CAP_S and i >= min_samples(90)):
            break
        speed.mark(i, raw[-1] if raw else 0.0)
        dt, done, found = timed_request(wl, req, i, seed)
        raw.append(dt)
        items += done
        failed += bool(found)
        problems.extend(found[:2])
    speed.close(len(raw))
    wl.finish()
    final = wl.final_checks()

    def figures(setup: float, lat: list[float]) -> dict:
        return {
            "setup_s": setup,
            "items_per_s": items / sum(lat),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
        }

    lat = speed.scale(raw)
    metrics = figures(statistics.median(imports) + statistics.median(setups), lat)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "samples": len(lat),
        "unscaled": figures(statistics.median(imports_raw) + statistics.median(setups_raw), raw),
        "host_loop_median_s": statistics.median(speed.loops),
        "failed_share": failed / len(lat),
        "properties": wl.properties(),
    }
    try:
        info["latency_p99_ms"] = percentile(lat, 99) * 1e3
    except TooFewSamples:
        info["latency_p99_ms"] = None
    return {
        "correct": failed == 0 and not final,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "info": info,
        "problems": problems + final,
    }


def run_traced(name: str, seed: int, seconds: int, workdir: str) -> dict:
    """Per-layer metrics from a traced twin of an untraced run.

    Two copies of the workload take the same request stream from fresh
    state; each request runs untraced on the first copy and then traced on
    the second, so both see the same machine conditions.  Together they
    send as many requests as an untraced run of ``seconds``.
    """
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    plain = WORKLOADS[name](seed, os.path.join(workdir, "plain"))
    traced = WORKLOADS[name](seed, os.path.join(workdir, "traced"))
    tracer = Tracer()
    plain.setup()
    tracer.install()
    try:
        traced.setup()
    finally:
        tracer.uninstall()
    count = request_count(plain, seconds / 2, 1)
    busy = {"plain": 0.0, "traced": 0.0}
    failed = 0
    problems: list[str] = []
    for i, pair in enumerate(zip(plain.stream(), traced.stream())):
        if i >= count:
            break
        for key, wl, req in (("plain", plain, pair[0]), ("traced", traced, pair[1])):
            dt, _, found = timed_request(wl, req, i, seed, tracer if key == "traced" else None)
            busy[key] += dt
            failed += bool(found)
            problems.extend(found[:2])
    plain.finish()
    tracer.install()
    try:
        traced.finish()
    finally:
        tracer.uninstall()
    final = traced.final_checks()
    metrics = tracer.metrics(busy["traced"] / busy["plain"] - 1)
    spans_path = OUT / f"spans-{name}-seed{seed}.npz"
    tracer.write_spans(str(spans_path))
    return {
        "correct": failed == 0 and not final,
        "attempted": 2 * count,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()},
        "info": {
            "samples": count,
            "spans": tracer.span_count(),
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
        "problems": problems + final,
    }


def run_one(args) -> int:
    _import_tracelab()
    workdir = str(OUT / f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        res = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"stamp: {json.dumps(stamp())}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"info: {json.dumps(res['info'])}")
    for line in res["problems"][:20]:
        print(f"problem: {line}")
    for k, v in res["metrics"].items():
        print(f"  {k:28s} {v['value']:.6g} {v['unit']}")
    # Not in the JSON: p99 has too few samples outside classify, and
    # failed_share is also given by failed / attempted.
    for k, unit in (("latency_p99_ms", "ms"), ("failed_share", "ratio")):
        if res["info"].get(k) is not None:
            print(f"  {k:28s} {res['info'][k]:.6g} {unit}")
    print(f"  {'samples':28s} {res['info']['samples']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak RSS do not leak."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        print(f"  correct: {res['correct']}  attempted: {res['attempted']}  failed: {res['failed']}\n")
        status |= not res["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
