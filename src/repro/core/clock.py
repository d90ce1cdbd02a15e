"""Clock domains.

Industrial MPSoC platforms are heavily multi-clock: in the reference platform
the ST220 runs at 400 MHz, the central STBus node at 250 MHz, peripheral
clusters and the LMI memory controller at their own rates.  A :class:`Clock`
converts between cycles and kernel picoseconds and hands out *edge events*.

The one invariant every bus model relies on: :meth:`Clock.edge` resolves to
the **next strictly future** rising edge.  A process woken at an edge that
immediately yields ``clock.edge()`` therefore advances exactly one period —
there is no way to observe the same edge twice.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Optional

from .events import PRIORITY_NORMAL, Timeout, _PooledTimeout

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

#: Picoseconds per second, used to convert frequencies to integer periods.
_PS_PER_S = 1_000_000_000_000


class Clock:
    """A periodic rising-edge source.

    Parameters
    ----------
    freq_mhz:
        Frequency in MHz.  Mutually exclusive with ``period_ps``.
    period_ps:
        Period in integer picoseconds.
    phase_ps:
        Offset of the first rising edge from time zero.
    """

    def __init__(self, sim: "Simulator", freq_mhz: Optional[float] = None,
                 period_ps: Optional[int] = None, phase_ps: int = 0,
                 name: str = "clk") -> None:
        if (freq_mhz is None) == (period_ps is None):
            raise ValueError("specify exactly one of freq_mhz / period_ps")
        if period_ps is None:
            period_ps = round(_PS_PER_S / (freq_mhz * 1_000_000))
        if period_ps <= 0:
            raise ValueError(f"non-positive clock period {period_ps}")
        if phase_ps < 0:
            raise ValueError(f"negative clock phase {phase_ps}")
        self.sim = sim
        self.name = name
        self.period_ps = int(period_ps)
        self.phase_ps = int(phase_ps)
        # Event labels are precomputed: an f-string per edge wait is pure
        # overhead on the hottest allocation site in the simulator.
        self._edge_name = name + ".edge"
        self._delay_name = name + ".delay"

    # ------------------------------------------------------------------
    @property
    def freq_mhz(self) -> float:
        """Nominal frequency in MHz (derived from the integer period)."""
        return _PS_PER_S / self.period_ps / 1_000_000

    def cycle_index(self, time_ps: Optional[int] = None) -> int:
        """Number of rising edges at or before ``time_ps`` (default: now)."""
        if time_ps is None:
            time_ps = self.sim.now
        if time_ps < self.phase_ps:
            return 0
        return (time_ps - self.phase_ps) // self.period_ps + 1

    def next_edge_time(self, time_ps: Optional[int] = None) -> int:
        """Absolute time of the next strictly-future rising edge."""
        if time_ps is None:
            time_ps = self.sim.now
        if time_ps < self.phase_ps:
            return self.phase_ps
        since = (time_ps - self.phase_ps) % self.period_ps
        return time_ps + (self.period_ps - since)

    def at_edge(self, time_ps: Optional[int] = None) -> bool:
        """True when ``time_ps`` (default now) falls exactly on a rising edge."""
        if time_ps is None:
            time_ps = self.sim.now
        return time_ps >= self.phase_ps and (
            (time_ps - self.phase_ps) % self.period_ps == 0)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def edge(self, priority: int = PRIORITY_NORMAL) -> Timeout:
        """Event firing at the next strictly-future rising edge.

        The returned timeout comes from the simulator's reuse pool: yield
        it (or attach a callback) and forget it.  Holding one across a
        later edge wait is not supported — see
        :meth:`~repro.core.kernel.Simulator.pooled_timeout`.
        """
        sim = self.sim
        now = sim._now
        phase = self.phase_ps
        # Inlined next_edge_time(): one frame less per edge wait, and edge
        # waits are most of what a cycle-accurate platform schedules.
        if now < phase:
            delay = phase - now
        else:
            period = self.period_ps
            delay = period - (now - phase) % period
        # Inlined Simulator.pooled_timeout() re-arm (delay > 0 here).
        pool = sim._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = None
            timeout._ok = True
            timeout._processed = False
            timeout.delay = delay
            timeout.name = self._edge_name
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (now + delay, priority, sequence, timeout))
            return timeout
        return _PooledTimeout(sim, delay, priority=priority,
                              name=self._edge_name)

    def edges(self, n: int, priority: int = PRIORITY_NORMAL) -> Timeout:
        """Event firing ``n`` rising edges from now (``n`` >= 1).

        Pooled, like :meth:`edge`."""
        if n < 1:
            raise ValueError(f"edges() needs n >= 1, got {n}")
        sim = self.sim
        now = sim._now
        phase = self.phase_ps
        period = self.period_ps
        if now < phase:
            delay = phase - now + (n - 1) * period
        else:
            delay = n * period - (now - phase) % period
        pool = sim._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = None
            timeout._ok = True
            timeout._processed = False
            timeout.delay = delay
            timeout.name = self._edge_name
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (now + delay, priority, sequence, timeout))
            return timeout
        return _PooledTimeout(sim, delay, priority=priority,
                              name=self._edge_name)

    def delay(self, cycles: int) -> Timeout:
        """Event firing exactly ``cycles`` periods from *now* (not aligned).

        Use :meth:`edges` for edge-aligned waits; this is for modelling
        latencies quoted in cycles that start mid-cycle (e.g. combinational
        paths crossing a node).  Pooled, like :meth:`edge`.
        """
        if cycles < 0:
            raise ValueError(f"negative cycle delay {cycles}")
        return self.sim.pooled_timeout(cycles * self.period_ps,
                                       name=self._delay_name)

    def to_ps(self, cycles: int) -> int:
        """Convert a cycle count to picoseconds."""
        return cycles * self.period_ps

    def to_cycles(self, duration_ps: int) -> float:
        """Convert a picosecond duration to (possibly fractional) cycles."""
        return duration_ps / self.period_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Clock {self.name} {self.freq_mhz:.1f} MHz>"
