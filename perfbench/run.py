"""Benchmark of the remixed package: four workloads, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

A run sends a fixed number of queries, ``--seconds`` times the workload's
rate, which take about that long at the seed commit.  ``--trace 0``
measures the end-to-end metrics with no wrapper installed, each timing
rescaled by the machine's speed around it (speed.py).
``--trace 1`` runs a fixed number of queries twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

from speed import BURST, NOMINAL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("verify", "eval", "crosscheck", "simulate")
# queries generated ahead, outside the timed region; the first block is set-up
BLOCK = 256
# reference kernel samples a set-up probe takes once it is ready
PROBE_SAMPLES = 5


def import_package():
    """Import remixed from this checkout's src/ and nowhere else."""
    if not (SRC / "remixed" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import remixed

    if Path(remixed.__file__).resolve().parent != SRC / "remixed":
        raise SystemExit(f"error: imported remixed from {remixed.__file__}, not {SRC}")
    import workloads

    return workloads


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(xs: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ys = sorted(xs)
    return ys[max(1, -(-pct * len(ys) // 100)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(wl, queries, tracer=None, speed: Speed | None = None) -> list[tuple]:
    """Send the queries one after another; (query, latency_s, kept, wall_s) each.

    Queries are drawn from their iterator in blocks, outside the timed
    region.  A query that raises is kept as its exception and fails its
    check.  With ``speed``, the reference kernel is timed between queries
    and inside long ones, and latency_s is wall_s rescaled by the
    machine's speed around the query; without it the two are the same.
    """
    if speed is None:
        timed = timed_loop(wl, queries, tracer, Speed(), sampled=False)
        return [(q, wall, kept, wall) for q, wall, kept, *_ in timed]
    speed.sample(BURST)
    with speed.installed():
        timed = timed_loop(wl, queries, tracer, speed, sampled=True)
    speed.sample(BURST)
    return [
        (q, speed.rescale(wall, t0, t1, wl.speed_exponent), kept, wall) for q, wall, kept, t0, t1 in timed
    ]


def timed_loop(wl, queries, tracer, speed: Speed, sampled: bool) -> list[tuple]:
    """(query, wall_s, kept, start, end) of each query, in order."""
    timed = []
    stream = iter(queries)
    with wl.session():
        while block := list(islice(stream, BLOCK)):
            for query in block:
                wl.before_query()
                if sampled:
                    speed.due()
                    if wl.sample_inside:
                        speed.arm()
                spent = speed.spent
                if tracer is not None:
                    tracer.query = len(timed)
                t0 = time.perf_counter()
                try:
                    out = wl.execute(query)
                except Exception as exc:  # counted as a failed query
                    out = exc
                if sampled and wl.sample_inside:
                    speed.disarm()
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.query = -1
                # kernel samples taken inside the call are not its time
                wall = t1 - t0 - (speed.spent - spent)
                kept = out if isinstance(out, Exception) else wl.summarize(query, out)
                timed.append((query, wall, kept, t0, t1))
    return timed


def format_exc(exc: Exception) -> str:
    return "".join(traceback.format_exception(exc)).rstrip()


def check_all(wl, samples: list[tuple]) -> list[str]:
    reasons = []
    for query, _, kept, *_ in samples:
        if isinstance(kept, Exception):
            reasons.append(f"{query}: raised\n{format_exc(kept)}")
            continue
        try:
            why = wl.check(query, kept)
        except Exception as exc:  # a check that cannot run is a failed query
            why = f"{query}: check raised\n{format_exc(exc)}"
        if why:
            reasons.append(why)
    return reasons


def route_mix(wl, samples: list[tuple]) -> dict[str, float] | None:
    routes = [wl.route_of(k) for _, _, k, *_ in samples if not isinstance(k, Exception)]
    routes = [r for r in routes if r is not None]
    if not routes:
        return None
    return {r: routes.count(r) / len(routes) for r in sorted(set(routes))}


def probe_setup(args) -> tuple[float, float]:
    """Start a fresh process that sets up this workload.

    Returns the seconds until it is ready and the median time of the
    reference kernel, which the process runs once it is ready.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--probe-setup"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        kernel = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
    return ready, float(kernel)


def env_record(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": "tiny" if args.tiny else "full",
    }


def end_to_end(args, wl, sizes, workloads) -> tuple[dict, dict, dict, list[str], int]:
    """Contract metrics, further printed metrics, report notes, failures, attempts."""
    # each probe's set-up time is rescaled by the kernel timed in that process
    probes = [probe_setup(args) for _ in range(sizes.setup_probes)]
    setups = [ready * NOMINAL_S / kernel for ready, kernel in probes]
    speed = Speed()
    memo0 = workloads.memo_counts()
    samples = closed_loop(wl, islice(wl.queries(), wl.count(args.seconds)), speed=speed)
    rss = peak_rss_mb()
    memo1 = workloads.memo_counts()
    reasons = check_all(wl, samples)

    lat = [s[1] for s in samples]
    wall = [s[3] for s in samples]
    busy = sum(lat)
    tail_s = percentile(lat, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "fail_ratio": (len(reasons) / len(samples), "ratio"),
        "tail_percentile": (wl.tail_pct, "%"),
        "samples": (len(lat), "count"),
        "samples_beyond_tail": (sum(x > tail_s for x in lat), "count"),
        "setup_samples": (len(setups), "count"),
        # the same figures unscaled, and the kernel time that scaled them
        "p50_wall_ms": (statistics.median(wall) * 1e3, "ms"),
        "tail_wall_ms": (percentile(wall, wl.tail_pct) * 1e3, "ms"),
        "ops_wall_per_s": (len(wall) / sum(wall), "1/s"),
        "setup_wall_s": (statistics.median(r for r, _ in probes), "s"),
        "reference_ms": (speed.median_s() * 1e3, "ms"),
        "reference_samples": (len(speed.secs), "count"),
    }
    if wl.name == "verify":
        details["verify_s"] = (statistics.median(lat), "s")
    if wl.name == "simulate":
        trials = sum(k["trials"] for _, _, k, *_ in samples if not isinstance(k, Exception))
        details["sim_trials_per_s"] = (trials / busy, "1/s")
    hits, misses = memo1[0] - memo0[0], memo1[1] - memo0[1]
    observed = {
        "route_mix": route_mix(wl, samples),
        "memo_hits": hits,
        "memo_misses": misses,
        "memo_hit_ratio": hits / (hits + misses) if hits + misses else None,
    }
    return metrics, details, {"observed": observed}, reasons, len(samples)


def traced(args, wl, sizes, workloads) -> tuple[dict, dict, dict, list[str], int]:
    """Per-layer metrics, further printed metrics, report notes, failures, attempts."""
    from tracing import Tracer

    k = sizes.trace_queries[wl.name]
    # drawn before any wrapper goes on, so drawing them is not traced
    queries = list(islice(wl.queries(), k))

    def untraced_pass() -> tuple[float, list[str]]:
        workloads.reset_caches()
        samples = closed_loop(wl, queries)
        return sum(s[3] for s in samples), check_all(wl, samples)

    # untraced passes on both sides of the traced one, so that warm-up and
    # drift in machine speed do not land in the overhead
    before_s, reasons = untraced_pass()
    workloads.reset_caches()
    tracer = Tracer()
    memo0 = workloads.memo_counts()
    tracer.install()
    try:
        samples = closed_loop(wl, queries, tracer=tracer)
    finally:
        tracer.uninstall()
    memo1 = workloads.memo_counts()
    memo = (memo1[0] - memo0[0], memo1[1] - memo0[1])
    qbin_size = len(workloads.qcalc._QBIN_CACHE)
    reasons += check_all(wl, samples)
    after_s, more = untraced_pass()
    reasons += more
    untraced_s = (before_s + after_s) / 2
    metrics = tracer.metrics(sum(s[3] for s in samples), untraced_s, memo, qbin_size)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(path, {"env": env_record(args), "metrics": metrics})
    details = {"queries_per_pass": (k, "count"), "spans": (len(tracer.spans), "count")}
    notes = {"trace_file": str(path.relative_to(ROOT)), "untraced_targets": tracer.missing}
    return metrics, details, notes, reasons, 3 * k


def run_one(args) -> int:
    workloads = import_package()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    if args.probe_setup:
        list(islice(wl.queries(), BLOCK))
        print("ready", flush=True)
        # the machine's speed in this process, to rescale its set-up time
        speed = Speed()
        speed.sample(PROBE_SAMPLES)
        print(speed.median_s())
        return 0

    run = traced if args.trace else end_to_end
    metrics, details, notes, reasons, attempted = run(args, wl, sizes, workloads)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    for why in reasons[:20]:
        print(f"  FAIL {why}")
    print("report " + json.dumps({"env": env_record(args), **notes}, sort_keys=True))
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=12, help="run length: seconds times the workload's rate queries"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n <= 5 and a handful of queries")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.probe_setup:
            parser.error("--probe-setup needs a single workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
