"""Set-up probe: one fresh interpreter, timed to the first unit of work.

Prints the seconds from the start of the ``repro`` import to the first
run's first DES event (the first scheduler request for
``analytic-sweep``, whose engine has no DES), covering the import and
the geometry, conflict-table, traffic and world construction before
it.  The run is abandoned at that point.

    python3 perfbench/probe.py --workload saturated --seed 1
"""

import argparse
import time

T0 = time.perf_counter()

import workloads  # noqa: E402  (imports repro: the timed part)


class _Reached(BaseException):
    """Unwinds the run at the first unit of work (a BaseException, so
    no handler inside the program swallows it)."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.workload == "analytic-sweep":
        from repro.core.scheduler import ConflictScheduler as owner
        name = "note_request"
    else:
        from repro.des import Environment as owner
        name = "step"

    def reached(*_args, **_kwargs):
        raise _Reached

    setattr(owner, name, reached)
    try:
        workloads.ROUNDS[args.workload](args.seed)
    except _Reached:
        print(repr(time.perf_counter() - T0))
        return 0
    print(f"probe: {args.workload} finished without reaching its first unit of work")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
