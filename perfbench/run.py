"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_ca_lt --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` is a separate run that gives the per-layer
metrics: it spends half its time untraced and half under spans and a
per-layer CPU profile, and reports the ratio of the two.  Every run
prints its provenance and each metric with its unit, then, as its last
line, one JSON object; the full record (spans included) is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Cold set-ups (fresh interpreter each) whose median is ``setup_s``.
SETUP_PROBES = 9
#: Interleaved repeats of the bare / capture / checked tap probe.
TAP_REPEATS = 3
#: A run stops starting new rounds once this many operations failed.
MAX_FAILURES = 20
#: A run that has not finished after this long (or twice ``--seconds``
#: plus a minute, if longer) kills its workers and exits with code 3.
HARD_LIMIT_S = 170.0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold set-up in a fresh interpreter (see setup_sample).
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest whole percentile with at least ten samples beyond it
    (the maximum when there are ten samples or fewer)."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return {"value": ordered[-1] if ordered else 0.0,
                "percentile": 100, "samples": count, "beyond": 0}
    percentile = math.floor(100 * (count - 10) / count)
    rank = max(1, math.ceil(percentile * count / 100))
    return {"value": ordered[rank - 1], "percentile": percentile,
            "samples": count, "beyond": count - rank}


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/`` (path + content), the commit's stand-in in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, fleet: int) -> Dict[str, Any]:
    return {"workload": args.workload, "seed": args.seed,
            "mode": "traced" if args.trace else "timed",
            "seconds": args.seconds, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "fleet": fleet, "commit": commit(),
            "src_sha256": source_digest()}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def setup_sample(args: argparse.Namespace) -> float:
    """One cold set-up in a fresh interpreter, timed by that interpreter
    from its ``main`` on: imports, elaboration (in process) or service
    start, pool spawn and warm-up pass (service)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup_probe(workloads: Any, args: argparse.Namespace,
                started: float) -> int:
    cache_dir = Path(os.environ["REPRO_SWEEP_CACHE"]).with_name(
        f"probe-{os.getpid()}")
    cache = workloads.TracedCache(str(cache_dir), workloads.Tracer())
    workload = workloads.WORKLOADS[args.workload](
        args.seed, {section: {} for section in workloads.REF_SECTIONS},
        fleet())
    workload.setup_probe(cache)
    print(time.perf_counter() - started, flush=True)
    return 0


def tap_ratios(seed: int) -> Dict[str, float]:
    """One Fig. 5 configuration with ``capture(energy=True)`` and with
    ``checked()``, each relative to the bare run."""
    from repro.check import checked
    from repro.obs import capture
    from repro.platforms import fig5_instances

    import workloads

    config = fig5_instances()["distributed_stbus"].scaled(seed=seed)
    bare: List[float] = []
    captured: List[float] = []
    checked_s: List[float] = []
    for _ in range(TAP_REPEATS):
        start = time.perf_counter()
        workloads.simulate(config)
        bare.append(time.perf_counter() - start)
        with capture(energy=True):
            start = time.perf_counter()
            workloads.simulate(config)
            captured.append(time.perf_counter() - start)
        with checked() as session:
            start = time.perf_counter()
            workloads.simulate(config)
            checked_s.append(time.perf_counter() - start)
        session.finalize()
    return {"obs.capture_ratio": median(captured) / median(bare),
            "check.checked_ratio": median(checked_s) / median(bare)}


def watchdog(seconds: float) -> None:
    """Bound a run whose service hangs: kill the fleet and exit."""
    def abort() -> None:
        print(f"perfbench: run exceeded {seconds:.0f} s, aborting",
              file=sys.stderr, flush=True)
        for child in multiprocessing.active_children():
            child.kill()
        os._exit(3)

    timer = threading.Timer(seconds, abort)
    timer.daemon = True
    timer.start()


def fleet() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def run_phase(workload: Any, tally: Any, tracer: Any, seconds: float,
              probe: Optional[Callable[[], None]] = None,
              probes: int = 0) -> None:
    """Whole rounds until ``seconds`` of them have passed (at least one).

    ``probe`` is called ``probes`` times, between rounds, spread evenly
    over the phase so that its samples see the same host as the rounds;
    its time does not count towards ``seconds``.
    """
    busy, done = 0.0, 0
    while workload.has_round() and tally.failed < MAX_FAILURES:
        start = time.perf_counter()
        tally.round(lambda: workload.run_round(tally, tracer))
        busy += time.perf_counter() - start
        if probe is not None and done < probes * min(1.0, busy / seconds):
            probe()
            done += 1
        if busy >= seconds:
            break
    for _ in range(done, probes):
        probe()


def end_to_end(timed: Any, setup: List[float]) -> Dict[str, float]:
    busy = sum(timed.round_s)
    return {
        "wall_s": busy / len(timed.round_s),
        "setup_s": median(setup),
        "peak_rss_mb": timed.peak_rss_kb / 1024,
        "txn_per_s": timed.txn / busy,
        "points_per_s": timed.points / busy,
        "job_s_p50": median(timed.job_s),
        "job_s_tail": tail(timed.job_s)["value"],
    }


def per_layer(untraced: Any, traced: Any, tracer: Any, layers: Dict[str, float],
              cache: Any, taps: Dict[str, float]) -> Dict[str, float]:
    rounds = max(1, len(traced.round_s))
    metrics: Dict[str, float] = {
        "core.events": untraced.round_events[0],
        "core.ns_per_event": (sum(untraced.new_s) / untraced.events * 1e9
                              if untraced.events else 0.0),
    }
    metrics.update({f"{layer}.self_s": seconds / rounds
                    for layer, seconds in layers.items()})
    metrics.update({f"mode.{mode}_s": seconds / len(untraced.round_s)
                    for mode, seconds in untraced.mode_s.items()})
    metrics.update({
        "platforms.build_s": median(tracer.durations("build_platform")),
        "sweep.hit_job_s": median(untraced.hit_s),
        "sweep.cache_hit_ratio": cache.hits / cache.gets if cache.gets
        else 0.0,
        "sweep.cache_get_s": median(tracer.durations("SweepCache.get")),
        "sweep.cache_put_s": median(tracer.durations("SweepCache.put")),
        "service.submit_s": median(tracer.durations("ServiceClient.submit")),
        "service.result_wait_s": median(
            tracer.durations("ServiceClient.result")),
        "service.dedupe_ratio": traced.deduped / traced.units
        if traced.units else 0.0,
        "snapshot.resume_job_s": median(untraced.resume_s),
        "snapshot.preemptions": traced.preemptions,
        "snapshot.resume_over_straight": median(traced.resume_over_straight),
        "check.lt_exec_drift_pct": 100 * max(
            untraced.exec_drift + traced.exec_drift, default=0.0),
        "check.lt_latency_drift_pct": 100 * max(
            untraced.latency_drift + traced.latency_drift, default=0.0),
        "trace.overhead_ratio": median(traced.round_s)
        / median(untraced.round_s),
    })
    metrics.update(taps)
    return metrics


def report(record: Dict[str, Any], units: Dict[str, str]) -> None:
    """Human-readable lines: provenance, every metric with its unit."""
    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    for name, value in record["metrics"].items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    for name, value in record["details"].items():
        print(f"# {name}: {value}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_JOBS", None)
    import workloads
    from tracing import LayerProfiler, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(workloads, args, started)

    watchdog(max(HARD_LIMIT_S, 2 * args.seconds + 60))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    refs = json.loads((BENCH / "refs.json").read_text())

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    os.environ["REPRO_SWEEP_CACHE"] = str(run_dir / "cache")
    try:
        setup: List[float] = []
        tracer = Tracer()
        cache = workloads.TracedCache(str(run_dir / "cache"), tracer)
        workload = workloads.WORKLOADS[args.workload](args.seed, refs,
                                                      fleet())
        untraced = workloads.Tally(workload.memory_rounds)
        traced = workloads.Tally()
        profiler = LayerProfiler(run_dir, str(SRC / "repro") + os.sep,
                                 workload.cpu_time_profile)
        taps = tap_ratios(workloads.ROUND_SEEDS[0]) if args.trace else {}
        workload.start(cache, traced=bool(args.trace))
        try:
            if not args.trace:
                run_phase(workload, untraced, tracer, args.seconds,
                          lambda: setup.append(setup_sample(args)),
                          SETUP_PROBES)
            else:
                run_phase(workload, untraced, tracer, args.seconds / 2)
                tracer.enabled = True
                profiler.start()
                workload.restart()
                run_phase(workload, traced, tracer, args.seconds / 2)
        finally:
            workload.stop()
            profiler.stop()
        if args.trace:
            metrics = per_layer(untraced, traced, tracer,
                                profiler.self_seconds(), cache, taps)
        else:
            metrics = end_to_end(untraced, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    phases = (untraced, traced)
    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    exec_drift = untraced.exec_drift + traced.exec_drift
    latency_drift = untraced.latency_drift + traced.latency_drift
    job_tail = tail(untraced.job_s)
    record = {
        "provenance": provenance(args, fleet()),
        "metrics": metrics,
        "details": {
            "error_rate": failed / attempted if attempted else 1.0,
            "attempted": attempted, "failed": failed,
            "rounds": [len(t.round_s) for t in phases],
            "forced_checkpoints": [t.forced_checkpoints for t in phases],
            "preemptions": [t.preemptions for t in phases],
            "job_s_tail": f"p{job_tail['percentile']} of "
                          f"{job_tail['samples']} new sweep jobs "
                          f"({job_tail['beyond']} beyond)",
            "setup_samples_s": [round(s, 4) for s in setup],
            "lt_drift_pct": (
                f"exec {100 * max(exec_drift):.3f} latency "
                f"{100 * max(latency_drift):.3f} (worst over "
                f"{len(exec_drift)} configs, CA base from refs.json)"
                if exec_drift else "n/a"),
        },
        "samples": {name: [getattr(t, name) for t in phases]
                    for name in ("round_s", "job_s", "new_s", "hit_s",
                                 "resume_s")},
        "failures": [f for t in phases for f in t.failures],
    }
    if args.trace:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    report(record, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
