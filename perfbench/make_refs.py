"""Regenerate ``perfbench/refs.json``: reference statistics of every
configuration the workloads can draw.

    python3 perfbench/make_refs.py

The references pin the simulated results of the commit they were made
on; a change that alters any simulated statistic shows up as failed
operations in the benchmark.  Regenerating them is a benchmark change of
its own.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def tasks():
    for seed in workloads.ROUND_SEEDS:
        for name, config in workloads.paper_ca_configs(seed).items():
            yield "paper_ca", f"{name}@{seed}", config
        # The LT runs are checked against their CA base.
        for name, config in workloads.stbus_lt_configs(seed, "ca").items():
            yield "stbus_lt", f"{name}@{seed}", config
    for point in workloads.service_points():
        yield ("service_sweep", workloads.point_key(*point),
               workloads.point_config(*point))
    for seed in workloads.RESUME_SEEDS:
        yield ("service_sweep", workloads.point_key("stbus", "distributed",
                                                    seed),
               workloads.resume_config(seed))


def reference(task):
    section, key, config = task
    result, sim = workloads.simulate(config)
    return section, key, workloads.reference(result, sim)


def main() -> int:
    refs = {section: {} for section in workloads.REF_SECTIONS}
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for section, key, ref in pool.imap(reference, tasks(), chunksize=4):
            refs[section][key] = ref
    (BENCH / "refs.json").write_text(
        json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    print({name: len(entries) for name, entries in refs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
