"""Change-gated stall polling keeps the cycle-accurate event stream exact.

A CA request channel whose queued requests all decode to a full target
stalls one clock edge at a time, but rescans only once an initiator
``pending`` FIFO or a target ``request_fifo`` moved (``Fabric._stall``).
These tests pin the observable result of four contended platforms
(STBus, AXI, a generic-engine protocol and the STBus crossbar) to the
figures recorded before the gating existed, bound how often the gated
scans run, and check the version watcher itself.
"""

import pytest

from repro.check import CheckedRun
from repro.core import Simulator
from repro.interconnect import AddressRange, StbusNode, StbusType
from repro.platforms import build_platform
from repro.platforms.config import (
    ClusterSpec,
    CpuConfig,
    IpSpec,
    MemoryConfig,
    PlatformConfig,
)
from repro.snapshot import result_digest

from .helpers import read


def _contended(protocol, crossbar=False):
    """Four initiators hammering one slow, single-slot on-chip memory."""
    ips = tuple(
        IpSpec(name=f"ip{i}", transactions=24, burst_beats=4,
               read_fraction=0.5, idle_cycles=0, max_outstanding=4)
        for i in range(4))
    return PlatformConfig(
        protocol=protocol,
        topology="collapsed",
        memory=MemoryConfig(kind="onchip", wait_states=6, request_depth=1),
        cpu=CpuConfig(enabled=False),
        clusters=(ClusterSpec(name="c0", freq_mhz=250.0, data_width_bytes=8,
                              stbus_type=StbusType.T3, ips=ips),),
        central_crossbar=crossbar,
        seed=3,
    )


#: name -> (config, scan method, processed_events, result_digest); the
#: event counts and digests were recorded with per-cycle rescans.
CASES = {
    "stbus": (_contended("stbus"), "_eligible_requests", 5209,
              "356c3cca5c567b6be00de12d46f4b4e6"
              "57feed889efbb994425bacc956826cdb"),
    "axi": (_contended("axi"), "_candidates_for", 5451,
            "5a1c3c440bb1e4c936dfedd7f0031469"
            "d0848e6922a67066bb28b2cdad65c657"),
    "avalon": (_contended("avalon"), "_eligible_requests", 4989,
               "fcfffcb087337dd8c117ddc46bcccce8"
               "cc2b80226b512af26323a1db29c610fd"),
    "crossbar": (_contended("stbus", crossbar=True),
                 "_candidates_for_target", 5031,
                 "356c3cca5c567b6be00de12d46f4b4e6"
                 "57feed889efbb994425bacc956826cdb"),
}


def _run(config, scan=None):
    """Run ``config``; with ``scan``, count calls of that method on the
    central fabric per first argument (AXI channel, crossbar target) and
    the clock edges spent inside gated stalls."""
    sim = Simulator()
    platform = build_platform(sim, config)
    central = platform.central
    calls = {}
    stalled = 0
    if scan is not None:
        original_scan = getattr(central, scan)
        original_stall = central._stall

        def counted(*args):
            key = args[0] if args else None
            calls[key] = calls.get(key, 0) + 1
            return original_scan(*args)

        def counted_stall(seen):
            nonlocal stalled
            for edge in original_stall(seen):
                stalled += 1
                yield edge

        setattr(central, scan, counted)
        central._stall = counted_stall
    result = platform.run()
    return sim, central, result, calls, stalled


@pytest.mark.parametrize("name", sorted(CASES))
def test_contended_run_matches_per_cycle_rescan(name):
    config, _scan, events, digest = CASES[name]
    sim, _central, result, _calls, _stalled = _run(config)
    assert sim.processed_events == events
    assert result_digest(result) == digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_scans_run_once_per_version_change_or_grant(name):
    config, scan, _events, _digest = CASES[name]
    _sim, central, _result, calls, stalled = _run(config, scan)
    grants = sum(port.issued.value for port in central.initiators)
    bound = central._scan_version + grants
    assert calls, "the scan never ran"
    for key, count in calls.items():
        assert count <= bound, (key, count, bound)
    # The config really stalls: one rescan per stalled edge (the
    # ungated poll) would have broken the bound.
    assert sum(calls.values()) + stalled > bound


def test_fifo_remove_on_watched_fifo_bumps_version():
    sim = Simulator()
    node = StbusNode(sim, "node", sim.clock(freq_mhz=200, name="clk"))
    port = node.connect_initiator("ip0", max_outstanding=2)
    txn = read(0x0)
    assert port.pending.try_put(txn)
    before = node._scan_version
    port.pending.remove(txn)
    assert node._scan_version > before


def test_watched_fifos_are_the_scan_inputs():
    sim = Simulator()
    node = StbusNode(sim, "node", sim.clock(freq_mhz=200, name="clk"))
    port = node.connect_initiator("ip0")
    target = node.add_target("mem", AddressRange(0, 64))
    assert node._on_scan_input in port.pending._watchers
    assert node._on_scan_input in target.request_fifo._watchers
    assert node._on_scan_input not in target.response_fifo._watchers


@pytest.mark.check_smoke
@pytest.mark.parametrize("name", ["axi", "stbus"])
def test_stalled_config_differential_run_is_clean(name):
    """Fast vs traced kernel loop over a stall-heavy config, bit for bit."""
    outcome = CheckedRun(CASES[name][0])
    assert outcome.ok, outcome.format()
    assert outcome.fast_events == outcome.reference_events
    assert outcome.fast == outcome.reference
