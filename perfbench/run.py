"""Crossroads end-to-end benchmark: one workload, one process.

    python3 perfbench/run.py --workload saturated --seed 1 --trace 0

``--trace 0`` times whole rounds of the workload for about ``--seconds``
seconds (default: ``run_seconds`` of BENCHMARK.json; at least two
rounds, the count set from the first round's time) and reports the
end-to-end metrics: ``wall_s`` (median round wall
time), ``vehicles_per_s`` (vehicles that cleared the box per second of
round wall time, median over rounds), ``setup_s`` (median over
fresh-interpreter probes, see ``probe.py``) and ``peak_rss_mb``.

``--trace 1`` is the traced run: one untraced round, then one round
under ``cProfile`` with counting wrappers installed, and it reports the
per-layer metrics of ``layers.py`` plus the tracing overhead (traced
wall / untraced wall).  ``--seconds`` does not apply to it.

Every round's outputs go through ``checks.py``; repeated rounds (and
the traced round) must give bit-identical ``summary()`` digests.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (operations = vehicle crossings) and
``metrics``.  A failed check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads
from repro.geometry import ConflictTable, IntersectionGeometry

HERE = Path(__file__).resolve().parent
#: Fresh-interpreter set-up probes per run (median reported).
SETUP_PROBES = 9
#: Rounds per timed run, at least (so round digests can be compared).
MIN_ROUNDS = 2


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over :data:`SETUP_PROBES` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{out.stdout}{out.stderr}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Run:
    """One benchmark run: its rounds, their checks and its tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self._conflicts = ConflictTable(IntersectionGeometry())
        self.attempted = self.failed = 0
        self.digests = []

    def _round(self):
        return workloads.ROUNDS[self.workload](self.seed)

    def _account(self, cells) -> None:
        checks.check_round(self.workload, cells, self._conflicts,
                           workloads.KNOWN_FAILING)
        self.attempted += sum(len(c.arrivals) for c in cells)
        self.failed += sum(len(c.failed_vehicles) for c in cells)
        self.digests.append(workloads.round_digest(cells))

    def timed_round(self):
        """Run, time and check one round; returns ``(cells, wall_s)``."""
        gc.collect()
        start = time.perf_counter()
        cells = self._round()
        wall = time.perf_counter() - start
        self._account(cells)
        return cells, wall

    def timed(self, seconds: float) -> dict:
        """Whole rounds filling about ``seconds`` (at least
        :data:`MIN_ROUNDS`, sized from the first); the end-to-end metrics."""
        walls, rates = [], []
        rounds = MIN_ROUNDS
        while len(walls) < rounds:
            cells, wall = self.timed_round()
            walls.append(wall)
            rates.append(sum(c.result.n_finished for c in cells) / wall)
            del cells
            rounds = max(MIN_ROUNDS, round(seconds / walls[0]))
        checks.check_digests(self.digests)
        return {
            "wall_s": (statistics.median(walls), "s"),
            "vehicles_per_s": (statistics.median(rates), "veh/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
            ),
        }

    def traced(self) -> dict:
        """One untraced round, then one profiled and counted round; the
        per-layer metrics."""
        _cells, untraced_wall = self.timed_round()
        del _cells
        counters = layers.Counters()
        profile = cProfile.Profile()
        with counters.installed():
            gc.collect()
            start = time.perf_counter()
            profile.enable()
            cells = self._round()
            profile.disable()
            traced_wall = time.perf_counter() - start
        self._account(cells)
        checks.check_digests(self.digests, what="the untraced and traced rounds")
        values = layers.fold_profile(pstats.Stats(profile))
        values.update(layers.result_counts(cells, counters, untraced_wall))
        metrics = {name: (v, layers.unit_of(name)) for name, v in values.items()}
        metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics = run.traced()
        else:
            metrics = run.timed(args.seconds)
            metrics["setup_s"] = (setup_s, "s")
        correct = True
    except checks.CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        metrics, correct = {}, False

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value:16.6f} {unit}")
    print(f"{args.workload:15s} operations attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
