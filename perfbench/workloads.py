"""The benchmark's workloads and the configurations each draws from a seed.

Every workload runs in rounds.  A ``paper_ca_lt`` round builds and runs
each of one seed's configurations once, serially, in this process: the
Fig. 3 and Fig. 5 instances at CA and the STBus instances at LT.  A
``service_sweep`` round sends a job service three kinds of job:

* **new** — sweep points no one simulated before in this run;
* **repeat** — the identical job again, served by dedupe;
* **resume** — a configuration checkpointed at half its run, preempted
  and resumed.

Configuration seeds come from fixed pools, shuffled by the run's seed,
so that every simulated result has a stored reference (``refs.json``,
written by ``make_refs.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunResult
from repro.core import Simulator
from repro.interconnect.protocols import platform_protocols
from repro.platforms import (
    PlatformConfig,
    build_platform,
    fig3_instances,
    fig4_pair,
    fig5_instances,
    quick_config,
)
from repro.platforms.loader import config_to_dict
from repro.snapshot import result_digest
from repro.sweep import DEFAULT_MAX_PS, CachedRun, SweepCache, result_from_dict

from tracing import Tracer

#: Configuration seeds the in-process workload draws one per round.
ROUND_SEEDS = tuple(range(1, 25))
#: Seeds of the service workload's quick-platform sweep points.
POINT_SEEDS = tuple(range(1, 161))
#: Seeds of the service workload's forced-checkpoint configurations.
RESUME_SEEDS = tuple(range(1001, 1113))
TOPOLOGIES = ("distributed", "collapsed")
#: Seed and traffic scale of the service's untimed warm-up jobs (outside
#: every pool).
WARM_SEED = 0
WARM_SCALE = 0.05

#: Sections of ``refs.json``: the Fig. 3/5 CA runs, the CA base of the
#: STBus LT runs, and the service's sweep points and resume configs.
REF_SECTIONS = ("paper_ca", "stbus_lt", "service_sweep")
#: Characters of a result digest kept in the references.
DIGEST_CHARS = 32

SERVICE_TENANT = "perfbench"
POINTS_PER_JOB = 4
JOBS_PER_ROUND = 6
#: Client-side bound on one service call, so a hung job fails the run
#: instead of stalling it.
JOB_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------
def paper_ca_configs(seed: int) -> Dict[str, PlatformConfig]:
    """The Fig. 3 and Fig. 5 instances (CA)."""
    configs = {f"fig3.{name}": config
               for name, config in fig3_instances().items()}
    configs.update({f"fig5.{name}": config
                    for name, config in fig5_instances().items()})
    return {name: config.scaled(seed=seed) for name, config in configs.items()}


def stbus_lt_configs(seed: int,
                     resolution: str = "lt") -> Dict[str, PlatformConfig]:
    """The STBus instances of Figs. 3, 4 and 5."""
    fig3, fig5 = fig3_instances(), fig5_instances()
    configs = {"fig3.collapsed_stbus": fig3["collapsed_stbus"],
               "fig3.full_stbus": fig3["full_stbus"]}
    for latency in (0, 8, 32):
        for name, config in fig4_pair(latency, traffic_scale=0.5).items():
            configs[f"fig4.lat{latency}.{name}"] = config
    configs["fig5.distributed_stbus"] = fig5["distributed_stbus"]
    configs["fig5.collapsed_stbus"] = fig5["collapsed_stbus"]
    return {name: config.scaled(seed=seed, resolution=resolution)
            for name, config in configs.items()}


def service_points() -> List[Tuple[str, str, int]]:
    """Every (protocol, topology, seed) sweep point the service may get."""
    return [(protocol, topology, seed) for protocol in platform_protocols()
            for topology in TOPOLOGIES for seed in POINT_SEEDS]


def point_config(protocol: str, topology: str, seed: int) -> PlatformConfig:
    return quick_config(protocol=protocol, topology=topology, seed=seed)


def point_key(protocol: str, topology: str, seed: int) -> str:
    return f"{protocol}/{topology}@{seed}"


def resume_config(seed: int) -> PlatformConfig:
    return point_config("stbus", "distributed", seed)


def reference(result: RunResult, sim: Simulator) -> Dict[str, Any]:
    """The simulated statistics a reference stores for one run."""
    return {"digest": result_digest(result)[:DIGEST_CHARS],
            "events": sim.processed_events,
            "exec_ps": result.execution_time_ps,
            "txn": result.transactions,
            "bytes": result.bytes_transferred,
            "mean_latency_ps": result.mean_latency_ps,
            "now_ps": sim.now}


def shuffled(items: Sequence[Any], workload: str, seed: int) -> List[Any]:
    order = list(items)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def simulate(config: PlatformConfig,
             tracer: Optional[Tracer] = None) -> Tuple[RunResult, Simulator]:
    tracer = tracer or Tracer()
    with tracer.op("build_platform"):
        sim = Simulator()
        platform = build_platform(sim, config)
    with tracer.op("PlatformInstance.run"):
        result = platform.run(max_ps=DEFAULT_MAX_PS)
    return result, sim


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
class TracedCache(SweepCache):
    """A sweep cache that counts its hits and times its reads and writes."""

    def __init__(self, root: str, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.gets = 0
        self.hits = 0

    def get(self, key: str) -> Optional[CachedRun]:
        with self.tracer.op("SweepCache.get"):
            run = super().get(key)
        self.gets += 1
        self.hits += run is not None
        return run

    def put(self, key: str, run: CachedRun) -> None:
        with self.tracer.op("SweepCache.put"):
            super().put(key, run)


class Tally:
    """What one phase of a run did, measured and checked.

    ``memory_rounds`` is the number of rounds after which the phase reads
    its peak RSS, so that the reading covers a fixed amount of work
    whatever the host's speed (0: never read).
    """

    def __init__(self, memory_rounds: int = 0) -> None:
        self.memory_rounds = memory_rounds
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.new_s: List[float] = []
        #: New sweep jobs: a whole round in process, one job on the service.
        self.job_s: List[float] = []
        #: Seconds of new jobs at CA and at LT.
        self.mode_s = {"ca": 0.0, "lt": 0.0}
        self.hit_s: List[float] = []
        self.resume_s: List[float] = []
        self.round_s: List[float] = []
        self.round_events: List[int] = []
        self.points = 0
        self.txn = 0
        self.events = 0
        self.units = 0
        self.deduped = 0
        self.preemptions = 0
        self.forced_checkpoints = 0
        self.resume_over_straight: List[float] = []
        self.exec_drift: List[float] = []
        self.latency_drift: List[float] = []

    @contextmanager
    def attempt(self, what: str) -> Iterator[List[str]]:
        """One operation: any exception or listed problem fails it."""
        self.attempted += 1
        problems: List[str] = []
        try:
            yield problems
        except Exception as exc:  # every failure mode counts, none aborts
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def round(self, body) -> None:
        """Run one round; its time is the sum of its jobs' times."""
        marks = len(self.new_s), len(self.hit_s), len(self.resume_s)
        events = self.events
        body()
        self.round_s.append(sum(self.new_s[marks[0]:])
                            + sum(self.hit_s[marks[1]:])
                            + sum(self.resume_s[marks[2]:]))
        self.round_events.append(self.events - events)
        if len(self.round_s) <= self.memory_rounds:
            self.peak_rss_kb = peak_rss_kb()


# ----------------------------------------------------------------------
# in-process workload
# ----------------------------------------------------------------------
class PaperCaLt:
    """Serial rounds in this process.  A round is one seed's Fig. 3 and
    Fig. 5 instances at CA and its STBus Fig. 3/4/5 instances at LT,
    each built and run once as a new job; the round is one sweep job."""

    name = "paper_ca_lt"
    #: Its layers are profiled on wall time (one thread, never waits).
    cpu_time_profile = False
    #: By the second round every configuration has run, and run again.
    memory_rounds = 2

    def __init__(self, seed: int, refs: Dict[str, Any], fleet: int) -> None:
        self.ca_refs = refs["paper_ca"]
        self.lt_refs = refs["stbus_lt"]
        self.seeds = shuffled(ROUND_SEEDS, self.name, seed)
        self.next = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.jobs = 0

    @staticmethod
    def configs(seed: int) -> Dict[Tuple[str, str], PlatformConfig]:
        configs = {("ca", name): config
                   for name, config in paper_ca_configs(seed).items()}
        configs.update({("lt", name): config
                        for name, config in stbus_lt_configs(seed).items()})
        return configs

    def setup_probe(self, cache: SweepCache) -> None:
        """Elaborate the first round's platforms."""
        for config in self.configs(self.seeds[0]).values():
            build_platform(Simulator(), config)

    def start(self, cache: SweepCache, traced: bool) -> None:
        """Nothing to start: the jobs run in this process, uncached."""

    def restart(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def has_round(self) -> bool:
        return self.next < len(self.seeds)

    def run_round(self, tally: Tally, tracer: Tracer) -> None:
        seed = self.seeds[self.next]
        self.next += 1
        mark = len(tally.new_s)
        try:
            for (mode, name), config in self.configs(seed).items():
                self.next_cpu()
                self.run_job(mode, name, seed, config, tally, tracer)
        finally:
            os.sched_setaffinity(0, self.cpus)
        tally.job_s.append(sum(tally.new_s[mark:]))

    def next_cpu(self) -> None:
        """Pin this process to the next of its CPUs in turn.  The speeds
        of a shared host's CPUs drift apart, so a run that stayed on the
        one CPU the scheduler left it on would measure that CPU."""
        os.sched_setaffinity(0, {self.cpus[self.jobs % len(self.cpus)]})
        self.jobs += 1

    def run_job(self, mode: str, name: str, seed: int,
                config: PlatformConfig, tally: Tally,
                tracer: Tracer) -> None:
        with tally.attempt(f"new {mode} {name}@{seed}") as problems:
            with tracer.op("new_job", tally.new_s):
                result, sim = simulate(config, tracer)
            tally.mode_s[mode] += tally.new_s[-1]
            tally.points += 1
            tally.txn += result.transactions
            tally.events += sim.processed_events
            if mode == "ca":
                self.verify_ca(f"{name}@{seed}", result, sim, problems)
            else:
                self.verify_lt(f"{name}@{seed}", result, sim, tally,
                               problems)

    def verify_ca(self, key: str, result: RunResult, sim: Simulator,
                  problems: List[str]) -> None:
        got, ref = reference(result, sim), self.ca_refs[key]
        for field in ("digest", "events", "exec_ps", "txn"):
            if got[field] != ref[field]:
                problems.append(f"{field} {got[field]!r} != reference "
                                f"{ref[field]!r}")

    def verify_lt(self, key: str, result: RunResult, sim: Simulator,
                  tally: Tally, problems: List[str]) -> None:
        from repro.check.lt_accuracy import LtComparison, universal_failures

        ca = self.lt_refs[key]
        comparison = LtComparison(
            label=key,
            ca=RunResult(label=result.label, execution_time_ps=ca["exec_ps"],
                         transactions=ca["txn"],
                         bytes_transferred=ca["bytes"],
                         mean_latency_ps=ca["mean_latency_ps"]),
            lt=result, ca_events=ca["events"],
            lt_events=sim.processed_events, ca_now=ca["now_ps"],
            lt_now=sim.now, lt_fastforwards=sim.lt_fastforwards)
        problems.extend(universal_failures(comparison))
        tally.exec_drift.append(comparison.execution_time_drift)
        tally.latency_drift.append(comparison.mean_latency_drift)


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
class ServiceSweep:
    """One closed-loop client against an in-process job service."""

    name = "service_sweep"
    #: Its threads and workers block, so layers are profiled on CPU time.
    cpu_time_profile = True
    #: The service keeps every finished job, so its memory grows with
    #: the rounds run.
    memory_rounds = 25

    def __init__(self, seed: int, refs: Dict[str, Any], fleet: int) -> None:
        self.refs = refs["service_sweep"]
        self.fleet = fleet
        self.points = shuffled(service_points(), self.name, seed)
        self.resume_seeds = shuffled(RESUME_SEEDS, self.name, seed)
        self.next_point = 0
        self.next_resume = 0
        self.cache: Optional[SweepCache] = None
        self.service = None
        self.client = None
        self.starts = 0
        self.traced = False

    def setup_probe(self, cache: SweepCache) -> None:
        self.start(cache, traced=False)
        self.stop()

    def start(self, cache: SweepCache, traced: bool) -> None:
        """Start the service.  ``traced`` runs also fetch each new job's
        event log, elaborate its points here (timed as
        ``build_platform``) and run an uncached straight job beside each
        forced checkpoint; none of it counts towards the jobs' times."""
        from repro.service import BackgroundService, ServiceClient

        self.cache = cache
        self.traced = traced
        self.service = BackgroundService(
            fleet=self.fleet, use_processes=True, cache=cache).start()
        self.client = ServiceClient(port=self.service.port,
                                    timeout=JOB_TIMEOUT_S)
        # Spawn the process fleet and pass once through each kind of job
        # with tiny throw-away configurations, seeded apart from every
        # earlier start so that the cache cannot serve the first job.
        self.starts += 1
        seed = WARM_SEED - self.starts
        warm = self.sweep_document([("stbus", "collapsed", seed),
                                    ("ahb", "collapsed", seed)],
                                   scale=WARM_SCALE)
        self.call(warm, Tracer())
        self.call(warm, Tracer())
        config = config_to_dict(resume_config(seed).scaled(
            traffic_scale=WARM_SCALE))
        self.call({"tenant": SERVICE_TENANT, "config": config,
                   "checkpoint_at_us": 0.5}, Tracer())

    def restart(self) -> None:
        self.stop()
        self.start(self.cache, self.traced)

    def stop(self) -> None:
        if self.service is None:
            return
        self.service.stop()
        self.service = None
        for child in multiprocessing.active_children():
            child.join(timeout=30.0)

    def has_round(self) -> bool:
        return (self.next_point + JOBS_PER_ROUND * POINTS_PER_JOB
                <= len(self.points)
                and self.next_resume < len(self.resume_seeds))

    @staticmethod
    def sweep_document(points: Sequence[Tuple[str, str, int]],
                       scale: Optional[float] = None) -> Dict[str, Any]:
        base = config_to_dict(quick_config())
        if scale is not None:
            base["traffic_scale"] = scale
        return {"tenant": SERVICE_TENANT, "sweep": {
            "base": base,
            "points": [{"label": point_key(*point), "protocol": point[0],
                        "topology": point[1], "seed": point[2]}
                       for point in points]}}

    def call(self, document: Dict[str, Any],
             tracer: Tracer) -> Dict[str, Any]:
        """Submit one job and wait for its result."""
        with tracer.op("ServiceClient.submit"):
            job = self.client.submit(document)
        with tracer.op("ServiceClient.result"):
            out = self.client.result(job["id"], timeout=JOB_TIMEOUT_S)
        if out["state"] != "done":
            raise RuntimeError(f"job {job['id']} ended {out['state']}: "
                               f"{out.get('error')}")
        return out

    def job_events(self, job_id: str) -> int:
        return sum(int(event.get("events", 0))
                   for event in self.client.events(job_id)
                   if event["event"] == "unit_done")

    def run_round(self, tally: Tally, tracer: Tracer) -> None:
        for _ in range(JOBS_PER_ROUND):
            points = self.points[self.next_point:
                                 self.next_point + POINTS_PER_JOB]
            self.next_point += POINTS_PER_JOB
            document = self.sweep_document(points)
            self.new_and_repeat(points, document, tally, tracer)
        self.forced_checkpoint(tally, tracer)

    def new_and_repeat(self, points, document, tally: Tally,
                       tracer: Tracer) -> None:
        labels = ",".join(point_key(*point) for point in points)
        first: Optional[Dict[str, Any]] = None
        with tally.attempt(f"new job {labels}") as problems:
            with tracer.op("new_job", tally.new_s):
                first = self.call(document, tracer)
            tally.job_s.append(tally.new_s[-1])
            for point, unit in zip(points, first["results"]):
                result = result_from_dict(unit["result"])
                tally.points += 1
                tally.txn += result.transactions
                if unit["cached"] is not None:
                    problems.append(f"{unit['label']} was not simulated "
                                    f"(cached={unit['cached']})")
                if (result_digest(result)[:DIGEST_CHARS]
                        != self.refs[point_key(*point)]["digest"]):
                    problems.append(f"{unit['label']} differs from its "
                                    f"in-process reference")
            if self.traced:
                tally.events += self.job_events(first["id"])
                for point in points:
                    with tracer.op("build_platform"):
                        build_platform(Simulator(), point_config(*point))
        with tally.attempt(f"repeat job {labels}") as problems:
            with tracer.op("hit_job", tally.hit_s):
                again = self.call(document, tracer)
            units = (first or {}).get("results", [])
            tally.units += len(again["results"]) + len(units)
            tally.deduped += sum(unit["cached"] is not None
                                 for unit in again["results"] + units)
            missed = [unit["label"] for unit in again["results"]
                      if unit["cached"] is None]
            if missed:
                problems.append(f"{','.join(missed)} simulated again, not "
                                f"served by dedupe")
            if [u["result"] for u in again["results"]] \
                    != [u["result"] for u in units]:
                problems.append("repeat differs from the first submission")

    def forced_checkpoint(self, tally: Tally, tracer: Tracer) -> None:
        seed = self.resume_seeds[self.next_resume]
        self.next_resume += 1
        config = resume_config(seed)
        ref = self.refs[point_key("stbus", "distributed", seed)]
        document = {"tenant": SERVICE_TENANT,
                    "config": config_to_dict(config),
                    "checkpoint_at_us": ref["exec_ps"] / 2 / 1e6}
        straight_s: List[float] = []
        if self.traced:
            # The uncached straight-through job the resume is compared to.
            with tally.attempt(f"straight stbus@{seed}") as problems:
                with tracer.op("straight_job", straight_s):
                    plain = self.call({"tenant": SERVICE_TENANT,
                                       "config": document["config"]}, tracer)
                if plain["results"][0]["cached"] is not None:
                    problems.append("straight-through job was not simulated")
        with tally.attempt(f"resume stbus@{seed}") as problems:
            tally.forced_checkpoints += 1
            with tracer.op("resume_job", tally.resume_s):
                out = self.call(document, tracer)
            unit = out["results"][0]
            tally.units += 1
            tally.deduped += unit["cached"] is not None
            tally.preemptions += int(unit["preemptions"])
            if unit["preemptions"] != 1:
                problems.append(f"{unit['preemptions']} preemptions, not 1")
            if (result_digest(result_from_dict(unit["result"]))[:DIGEST_CHARS]
                    != ref["digest"]):
                problems.append("resumed result differs from the "
                                "straight-through reference")
            if straight_s:
                tally.resume_over_straight.append(tally.resume_s[-1]
                                                  / straight_s[0])


def vm_hwm_kb(pid: Any = "self") -> int:
    """Peak resident set size of a process, in kB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its live child processes."""
    return vm_hwm_kb() + sum(vm_hwm_kb(child.pid)
                             for child in multiprocessing.active_children())


WORKLOADS = {cls.name: cls for cls in (PaperCaLt, ServiceSweep)}
