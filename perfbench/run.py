"""intham benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bowl-orbit --seed 7 --seconds 20 --trace 0

``--trace 0`` times a closed loop of ops for ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds
untraced, then with spans around every layer's entry points, then untraced
again, and prints the per-layer metrics; its spans go to
``perfbench/out/``.  Both modes then replay the first rounds at the default
seed and compare their output digest with the pinned one.  Earlier stdout
lines carry the environment stamp and run details; the last line is the
result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The engine is imported from this checkout's sources, never from an
# installed copy; without them the run exits non-zero, printing nothing.
if not (ROOT / "src" / "intham" / "__init__.py").is_file():
    sys.exit(f"error: no engine sources at {ROOT / 'src' / 'intham'}")
sys.path.insert(0, str(ROOT / "src"))
import numpy  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    EXPECTED_DIGESTS,
    WORKLOADS,
    SpeedProbe,
    Tally,
    run_rounds,
)

SETUP_BATCHES = 5
SETUP_BATCH_SECONDS = 0.05
#: Enough ops that p90 has at least ten samples beyond it.
MIN_OPS = 100
#: Most chunks a timed run's ops are split into for the latency medians.
CHUNKS = 5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def time_setup(workload, inputs: dict, probe) -> tuple[float, float, dict]:
    """Median over several batches of the mean set-up time per build, scaled
    by the speed probe, and the same unscaled.

    A batch repeats the set-up until it has taken a small fixed time, so
    that even a set-up of microseconds is timed above the clock's noise.
    """
    raw, ends = [], []
    for _ in range(SETUP_BATCHES):
        builds = 0
        start = time.perf_counter()
        while True:
            ctx = workload.setup(inputs)
            builds += 1
            end = time.perf_counter()
            if end - start >= SETUP_BATCH_SECONDS:
                break
        raw.append((end - start) / builds)
        ends.append(end)
        probe.measure()
    scaled = [t * k for t, k in zip(raw, probe.scales(ends))]
    return statistics.median(scaled), statistics.median(raw), ctx


def reference_check(workload, expected: str | None, smoke: bool):
    """Replay the first rounds at the default seed.  A digest other than
    ``expected`` fails the pass; None skips the comparison."""
    tally = Tally()
    ctx = workload.setup(workload.inputs(DEFAULT_SEED, smoke))
    run_rounds(workload, ctx, tally, rounds=workload.digest_rounds)
    if expected is not None and tally.digest != expected:
        tally.fail(f"{workload.name}: digest {tally.digest} != expected {expected}")
    return tally


def _latency_metrics(tally: Tally, latencies: list[float]) -> dict:
    """Throughput and op latency percentiles, each the median over up to
    ``CHUNKS`` consecutive chunks of at least ``MIN_OPS`` ops, so that a
    burst of interference from other tenants moves at most one chunk."""
    n = len(latencies)
    chunks = max(1, min(CHUNKS, n // MIN_OPS))
    cuts = [n * i // chunks for i in range(chunks + 1)]
    done = tally.updates_before + [tally.updates]
    rates, p50, p90 = [], [], []
    for a, b in zip(cuts, cuts[1:]):
        lat = sorted(latencies[a:b])
        rates.append((done[b] - done[a]) / sum(lat))
        p50.append(statistics.median(lat))
        p90.append(statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0])
    return {
        "updates_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p50) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p90) * 1e3, "ms"),
    }


def run_timed(workload, seed: int, seconds: float, expected: str | None, smoke: bool = False) -> dict:
    """End-to-end run: timed set-up, then ops for ``seconds`` seconds."""
    inputs = workload.inputs(seed, smoke)
    probe = SpeedProbe()
    setup_s, raw_setup_s, ctx = time_setup(workload, inputs, probe)
    tally = Tally(probe=probe)
    run_rounds(workload, ctx, tally, deadline=time.perf_counter() + seconds, min_ops=MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = reference_check(workload, expected, smoke)

    metrics = {
        "setup_s": (setup_s, "s"),
        **_latency_metrics(tally, tally.latencies),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = _latency_metrics(tally, tally.raw_latencies)
    details = {
        "op_samples": tally.attempted,
        "rounds": tally.rounds,
        "updates": tally.updates,
        "l1_over_cap": tally.l1_over_cap,
        "digest": reference.digest,
        "probe_scale_median": statistics.median(s / r for s, r in zip(tally.latencies, tally.raw_latencies)),
        "unscaled": {"setup_s": raw_setup_s, **{k: v for k, (v, _) in unscaled.items()}},
    }
    return _result([tally, reference], metrics, details)


def run_traced(workload, seed: int, expected: str | None, smoke: bool = False, write: bool = True) -> dict:
    """Per-layer run: the same fixed rounds untraced, traced, and untraced
    again, each from a fresh set-up."""
    inputs = workload.inputs(seed, smoke)
    probe = SpeedProbe()

    def untraced_pass():
        tally = Tally(probe=probe)
        run_rounds(workload, workload.setup(inputs), tally, rounds=workload.trace_rounds)
        return tally

    before = untraced_pass()
    tracer = Tracer()
    traced = Tally(tracer, probe=probe)
    with tracer:
        ctx = workload.setup(inputs)
        run_rounds(workload, ctx, traced, rounds=workload.trace_rounds)
    after = untraced_pass()
    for untraced in (before, after):
        if traced.counts() != untraced.counts():
            traced.fail(f"counts differ: traced {traced.counts()} != untraced {untraced.counts()}")
    reference = reference_check(workload, expected, smoke)

    untraced_s = (sum(before.latencies) + sum(after.latencies)) / 2
    metrics = tracer.metrics(overhead_ratio=sum(traced.latencies) / untraced_s)
    metrics["workload.ops"] = (traced.attempted, "count")
    metrics["workload.updates"] = (traced.updates, "count")
    metrics["fields.lightcone.l1_over_cap"] = (traced.l1_over_cap, "count")
    details = {
        "counts": traced.counts(),
        "tracer_counts": dict(tracer.counts),
        "spans": len(tracer.spans),
        "not_traced": tracer.missing,
        "count_failures": tracer.count_failures,
    }
    if write:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{seed}.json"
        with open(path, "w") as f:
            json.dump({"env": env_stamp(workload.name, seed), "details": details, "spans": tracer.spans}, f)
        details["trace_file"] = str(path.relative_to(ROOT))
    return _result([before, traced, after, reference], metrics, details)


def _result(tallies, metrics: dict, details: dict) -> dict:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    details["failures"] = [m for t in tallies for m in t.failures][:20]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": env_stamp(workload.name, args.seed)}), flush=True)
    expected = EXPECTED_DIGESTS[workload.name]
    if args.trace:
        result = run_traced(workload, args.seed, expected)
    else:
        result = run_timed(workload, args.seed, args.seconds, expected)
    details = result.pop("details")
    print(json.dumps({"details": details}))
    for message in details["failures"]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
