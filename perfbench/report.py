"""Spread and trace reports over every workload, one fresh process per run.

    python3 perfbench/report.py spread --runs 10 --first-seed 100
    python3 perfbench/report.py trace --repeat 2 --first-seed 1

``spread`` repeats ``run.py --trace 0`` on each workload with seeds
``first-seed .. first-seed+runs-1`` at BENCHMARK.json's run length and
prints, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median; the bounds in
``BENCHMARK.json`` are set from it.  ``trace`` runs ``run.py --trace 1``
on each workload ``--repeat`` times with the same seed, prints the
per-layer metrics with each layer's share of folded self time, and
fails when a count metric differs between the repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
#: Per-layer metrics that are timings, not exact counts.
TIMED = ("des.events_per_s", "trace.overhead")


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(args) -> int:
    for workload in WORKLOADS:
        results = [run_once(workload, args.first_seed + i, 0)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed share "
              f"{sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/med':>12s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:16s} {med:12.5f} {q1:12.5f} {q3:12.5f} {(q3 - q1) / med:12.2%}"
                  f"   {results[0]['metrics'][name]['unit']}")
    return 0


def trace(args) -> int:
    mismatched = []
    for workload in WORKLOADS:
        repeats = [run_once(workload, args.first_seed, 1)["metrics"]
                   for _ in range(args.repeat)]
        metrics = repeats[0]
        total_self = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"\n{workload} (seed {args.first_seed}, {args.repeat} traced runs)")
        for name, entry in metrics.items():
            value = entry["value"]
            share = (f"{value / total_self:7.1%} of self time"
                     if name.endswith(".self_s") and total_self else "")
            print(f"  {name:32s} {value:16.4f} {entry['unit']:6s} {share}")
            exact = not (name.endswith(".self_s") or name in TIMED)
            if exact and any(r[name]["value"] != value for r in repeats[1:]):
                mismatched.append(f"{workload} {name}: "
                                  f"{[r[name]['value'] for r in repeats]}")
    for line in mismatched:
        print(f"COUNT DIFFERS between repeats: {line}", file=sys.stderr)
    return 1 if mismatched else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread", help="repeat timed runs; medians and quartiles")
    p_spread.add_argument("--runs", type=int, default=10)
    p_trace = sub.add_parser("trace", help="traced runs; per-layer metrics")
    p_trace.add_argument("--repeat", type=int, default=2)
    for p in (p_spread, p_trace):
        p.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    return spread(args) if args.command == "spread" else trace(args)


if __name__ == "__main__":
    raise SystemExit(main())
