"""Benchmark-side tracing: spans around layer calls, self time per layer.

Nothing here reaches into ``src/``.  Spans are recorded from the
benchmark's own files around each call it makes into a layer, and the
self-time profile is plain :mod:`cProfile` grouped by the ``repro``
module file a function lives in.  A single-threaded workload that never
waits is profiled on the default wall-clock timer, which costs the least;
one whose threads and workers block (the job service) is profiled on
per-thread CPU time, so that a thread blocked on a socket or a pool
worker waiting for its next unit accrues nothing.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import util
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Modules reported one by one; other files of these packages are grouped
#: as ``<package>.other``.
_NAMED = {
    "core": ("kernel", "events", "fifo", "clock", "sync"),
    "interconnect": ("stbus", "base", "arbiter", "ahb", "axi", "generic"),
    "bridge": ("genconv", "lightweight"),
    "memory": ("lmi", "sdram", "onchip"),
}
#: Packages reported as one layer each.
_WHOLE = ("traffic", "cpu", "analysis", "platforms", "service", "snapshot",
          "obs", "check")

#: Every layer a profile is split into, in report order.  They partition
#: the profiled time: ``stdlib`` is everything outside ``repro``
#: (builtins, the standard library and the benchmark's own code).
LAYERS = tuple(
    [f"{pkg}.{mod}" for pkg, mods in _NAMED.items()
     for mod in mods + ("other",)]
    + list(_WHOLE) + ["sweep", "other", "stdlib"])


def layer_of(filename: str, repro_prefix: str) -> str:
    """The layer a code object's file belongs to."""
    if not filename.startswith(repro_prefix):
        return "stdlib"
    parts = filename[len(repro_prefix):].split(os.sep)
    if len(parts) == 1:
        return "sweep" if parts[0] == "sweep.py" else "other"
    package, module = parts[0], parts[-1].rsplit(".", 1)[0]
    if package in _NAMED:
        return f"{package}.{module}" if module in _NAMED[package] \
            else f"{package}.other"
    return package if package in _WHOLE else "other"


def group_stats(profile: cProfile.Profile,
                repro_prefix: str) -> Dict[str, float]:
    """Self seconds of one profile, summed per layer."""
    totals: Dict[str, float] = {}
    for entry in profile.getstats():
        filename = getattr(entry.code, "co_filename", "")
        layer = layer_of(filename, repro_prefix)
        totals[layer] = totals.get(layer, 0.0) + entry.inlinetime
    return totals


class Tracer:
    """Times operations; when enabled, also keeps them as spans.

    A span has a name, start, end, its parent span and a trace id shared
    by every span under one root.  Spans stay in memory until the run
    writes them out.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def op(self, name: str,
           samples: Optional[List[float]] = None) -> Iterator[None]:
        span: Optional[Dict[str, object]] = None
        stack: List[Dict[str, object]] = []
        if self.enabled:
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            span = {"id": span_id, "name": name,
                    "parent": parent["id"] if parent else None,
                    "trace": parent["trace"] if parent else span_id}
            stack.append(span)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if samples is not None:
                samples.append(end - start)
            if span is not None:
                stack.pop()
                span["start"], span["end"] = start, end
                self.spans.append(span)

    def durations(self, name: str) -> List[float]:
        return [float(s["end"]) - float(s["start"])  # type: ignore[arg-type]
                for s in self.spans if s["name"] == name]


class LayerProfiler:
    """Self time per layer over this process, its threads and the worker
    processes forked while it runs.

    The calling thread is profiled directly, threads started later are
    profiled from their first call, and a multiprocessing child started
    later profiles itself and writes its totals to ``dump_dir`` as it
    exits.
    """

    def __init__(self, dump_dir: Path, repro_prefix: str,
                 cpu_time: bool) -> None:
        self.dump_dir = dump_dir
        self.repro_prefix = repro_prefix
        self._timer = (time.thread_time,) if cpu_time else ()
        self._profiles: List[cProfile.Profile] = []
        self._main: Optional[cProfile.Profile] = None

    def _new_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile(*self._timer)
        self._profiles.append(profile)
        return profile

    def _start_thread(self, _frame, _event, _arg) -> None:
        sys.setprofile(None)
        self._new_profile().enable()

    def _start_child(self) -> None:
        profile = cProfile.Profile(*self._timer)
        util.Finalize(None, self._dump_child, args=(profile,),
                      exitpriority=100)
        profile.enable()

    def _dump_child(self, profile: cProfile.Profile) -> None:
        profile.disable()
        path = self.dump_dir / f"prof-{os.getpid()}.json"
        path.write_text(json.dumps(group_stats(profile, self.repro_prefix)))

    def start(self) -> None:
        util.register_after_fork(self, LayerProfiler._start_child)
        threading.setprofile(self._start_thread)
        self._main = self._new_profile()
        self._main.enable()

    def stop(self) -> None:
        threading.setprofile(None)  # type: ignore[arg-type]
        if self._main is not None:
            self._main.disable()

    def self_seconds(self) -> Dict[str, float]:
        """Summed self seconds per layer; call after the workers ended."""
        totals = {layer: 0.0 for layer in LAYERS}
        groups = [group_stats(p, self.repro_prefix) for p in self._profiles]
        groups += [json.loads(path.read_text())
                   for path in sorted(self.dump_dir.glob("prof-*.json"))]
        for group in groups:
            for layer, seconds in group.items():
                totals[layer] += seconds
        return totals
