"""Per-layer metrics for the traced run.

Two sources, both outside the program:

* self time and call counts from ``cProfile``, folded by repro package
  (the layer names of ``tools/check_layers.LAYERS``, read from that
  file, so a renamed or added layer shows up here).  Self time spent
  in numpy or builtins is charged to the package that called it, in
  proportion to each caller's share;
* exact counts read from public results (``SimResult`` fields, its
  ``perf`` snapshot, oracle violations, event logs) and from counting
  wrappers the benchmark installs around three public callables.
"""

from __future__ import annotations

import contextlib
import importlib.util
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, Optional

from workloads import ROOT, SRC

import repro.sensors.plant as plant_module
import repro.sim.engine as engine_module
from repro.core import ConflictScheduler

#: Packages of ``tools/check_layers.LAYERS`` that no workload runs: grid
#: and serve are parked by the ROADMAP, analysis and cli only wrap
#: finished runs, and ``<top>`` is the facade.
UNMEASURED = ("grid", "analysis", "cli", "serve", "<top>")


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "check_layers", ROOT / "tools" / "check_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(name for name in module.LAYERS if name not in UNMEASURED)


#: Layers reported, in check_layers order (L0 substrate upwards).
LAYERS = _load_layers()

#: (name, unit) of every count metric, in output order.
COUNTS = (
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("vehicle.ticks", "count"),
    ("vehicle.idle_ticks", "count"),
    ("vehicle.idle_tick_share", "ratio"),
    ("sim.lane_predecessor_calls", "count"),
    ("core.requests", "count"),
    ("core.rejects", "count"),
    ("core.compute_s", "s"),
    ("geometry.tile_cells_simulated", "count"),
    ("geometry.tile_cache_hit_rate", "ratio"),
    ("network.messages", "count"),
    ("network.drops", "count"),
    ("protocol.exchanges", "count"),
    ("protocol.timeouts", "count"),
    ("protocol.retries", "count"),
    ("timesync.samples", "count"),
    ("timesync.resamples", "count"),
    ("faults.injections", "count"),
    ("obs.events_logged", "count"),
    ("scenarios.violations", "count"),
)

_REPRO = str(SRC / "repro")
_BENCH = str(Path(__file__).resolve().parent)


def package_of(filename: str) -> Optional[str]:
    """The repro package a source file belongs to, ``"perfbench"`` for
    the benchmark's own files, None for everything else."""
    if filename.startswith(_REPRO + "/"):
        return Path(filename[len(_REPRO) + 1:]).parts[0].removesuffix(".py")
    if filename.startswith(_BENCH + "/"):
        return "perfbench"
    return None


def fold_profile(stats: pstats.Stats) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer."""
    table = stats.stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, active) -> Dict[str, float]:
        pkg = package_of(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in table:
            return {}
        callers = table[func][4]
        # Split by the self time each caller edge accounts for; fall
        # back to call counts when every edge rounds to zero time.
        weight = {c: edge[2] for c, edge in callers.items()}
        total = sum(weight.values())
        if total <= 0:
            weight = {c: edge[1] for c, edge in callers.items()}
            total = sum(weight.values())
        share: Dict[str, float] = defaultdict(float)
        for caller, w in weight.items():
            for pkg, frac in owners(caller, active | {func}).items():
                share[pkg] += frac * w / total
        memo[func] = dict(share)
        return memo[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        pkg = package_of(func[0])
        if pkg is not None:
            calls[pkg] += nc
        for owner, frac in owners(func, frozenset()).items():
            self_s[owner] += tt * frac
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    return out


class Counters:
    """Counting wrappers around ``LongitudinalPlant.step`` (every
    vehicle control tick), ``repro.sim.engine.lane_predecessor`` (the
    car-following leader scan) and ``ConflictScheduler.assign`` (the
    VT-IM and Crossroads slot search; a None return is a refusal)."""

    def __init__(self):
        self.ticks = 0
        self.idle_ticks = 0
        self.lane_predecessor_calls = 0
        self.scheduler_refusals = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator["Counters"]:
        step = plant_module.LongitudinalPlant.step
        predecessor = engine_module.lane_predecessor
        assign = ConflictScheduler.assign

        def counted_step(plant, v_cmd, dt):
            self.ticks += 1
            if plant.velocity == 0.0 and v_cmd == 0.0:
                self.idle_ticks += 1
            return step(plant, v_cmd, dt)

        def counted_predecessor(lane, me_index):
            self.lane_predecessor_calls += 1
            return predecessor(lane, me_index)

        def counted_assign(scheduler, *args, **kwargs):
            slot = assign(scheduler, *args, **kwargs)
            if slot is None:
                self.scheduler_refusals += 1
            return slot

        plant_module.LongitudinalPlant.step = counted_step
        engine_module.lane_predecessor = counted_predecessor
        ConflictScheduler.assign = counted_assign
        try:
            yield self
        finally:
            plant_module.LongitudinalPlant.step = step
            engine_module.lane_predecessor = predecessor
            ConflictScheduler.assign = assign


def result_counts(cells, counters: Counters, untraced_wall: float) -> Dict[str, float]:
    """The exact count metrics of one round."""
    c: Dict[str, float] = defaultdict(float)
    hits = misses = 0.0
    for cell in cells:
        r = cell.result
        perf = r.perf
        c["des.events"] += perf.get("count.des_events", 0)
        c["core.requests"] += r.compute_requests
        c["core.rejects"] += r.rejects  # AIM's refusals; the scheduler's are below
        c["core.compute_s"] += r.compute_time
        c["geometry.tile_cells_simulated"] += perf.get("count.tile_cells_simulated", 0)
        hits += perf.get("count.tile_cache_hits", 0)
        misses += perf.get("count.tile_cache_misses", 0)
        c["network.messages"] += r.messages_sent
        c["network.drops"] += sum(r.losses_by_reason.values())
        c["protocol.exchanges"] += perf.get("count.machine.request_loop.exchanges", 0)
        c["protocol.timeouts"] += perf.get("count.machine.request_loop.timeouts", 0)
        c["protocol.retries"] += r.retries
        c["timesync.samples"] += perf.get("count.machine.timesync.samples", 0)
        c["timesync.resamples"] += perf.get("count.machine.timesync.resamples", 0)
        c["faults.injections"] += sum(r.fault_injections.values())
        c["obs.events_logged"] += cell.events_logged
        c["scenarios.violations"] += len(cell.violations)
    c["des.events_per_s"] = c["des.events"] / untraced_wall
    c["vehicle.ticks"] = counters.ticks
    c["vehicle.idle_ticks"] = counters.idle_ticks
    c["vehicle.idle_tick_share"] = (
        counters.idle_ticks / counters.ticks if counters.ticks else 0.0
    )
    c["sim.lane_predecessor_calls"] = counters.lane_predecessor_calls
    c["core.rejects"] += counters.scheduler_refusals
    c["geometry.tile_cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    return {name: c[name] for name, _unit in COUNTS}


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return dict(COUNTS)[name]
