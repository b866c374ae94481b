"""Output checks: properties every run of the method must have.

None of these compares against a stored copy of earlier output.  Each
is either computed apart from the program (path length over top speed,
spawn order from the benchmark's own arrival list) or a property the
paper's method guarantees (every vehicle crosses, no body collision on
clean channels, the paper's policy ordering).  The analytic engine has
no ground-truth monitor, so its collision check replays the plans it
granted (and executes exactly) against the geometry's conflict regions.  A check that does not
hold raises :class:`CheckFailed`.

Checks judge the operations that did not fail; which operations may
fail at all is itself checked (:func:`check_failures`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import AbstractSet, Dict, List, Mapping, Sequence

#: The micro engine's noisy plant may overshoot ``v_max`` slightly (the
#: lowest observed transit/bound ratio is 0.981); the analytic engine
#: executes profiles exactly, so it gets float slack only.
TRANSIT_TOLERANCE = {"micro": 0.05, "analytic": 1e-9}

#: Float slack on times recomputed from an analytic engine's plans.
TIME_SLACK = 1e-9

#: Fig 7.2: at the sparse end the two VT-style policies are at parity.
PARITY_FLOW = 0.05
PARITY_TOLERANCE = 0.15
#: ...and from this flow on Crossroads is strictly ahead.
AHEAD_FROM_FLOW = 0.3


class CheckFailed(AssertionError):
    """A property of the method did not hold on this run's outputs."""


def _ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_failures(cells, known_failing: Mapping[str, AbstractSet[int]]) -> None:
    """Only the named vehicles of the named cells may fail."""
    for cell in cells:
        unexpected = cell.failed_vehicles - known_failing.get(cell.label, set())
        _ensure(not unexpected,
                f"{cell.label}: unexpected failed operations, vehicles {sorted(unexpected)}")


def check_all_cleared(cells) -> None:
    """Every spawned vehicle exists in the result (failed ones are
    counted, not excused, by :func:`check_failures`)."""
    for cell in cells:
        records = cell.result.records
        _ensure(len(records) == len(cell.arrivals),
                f"{cell.label}: {len(records)} records for {len(cell.arrivals)} arrivals")
        ids = sorted(r.vehicle_id for r in records)
        _ensure(ids == list(range(len(cell.arrivals))),
                f"{cell.label}: vehicle ids do not match the arrival list")


def check_no_collisions(cells) -> None:
    """The ground-truth monitor saw no body overlap."""
    for cell in cells:
        _ensure(cell.result.collisions == 0,
                f"{cell.label}: {cell.result.collisions} collisions")


def _occupancy(grant, s_in: float, s_out: float):
    """When the body of a granted plan covers ``[s_in, s_out]`` (metres
    past the stop line): front reaches ``s_in`` until rear leaves
    ``s_out``; a plan that never gets there or never leaves covers it
    from the start or for ever."""
    _movement, profile, toa, length = grant
    line = profile.position_at(toa)
    t_in = profile.time_at_position(line + s_in)
    t_out = profile.time_at_position(line + s_out + length)
    return (profile.start_time if t_in is None else t_in,
            math.inf if t_out is None else t_out)


def check_grants_executed(cells, geometry) -> None:
    """Analytic cells: every vehicle's record is the execution of the
    plan it was granted (box entry at the ToA, exit when the rear
    clears the path)."""
    for cell in cells:
        if cell.engine != "analytic":
            continue
        for record in cell.result.records:
            grant = cell.grants.get(record.vehicle_id)
            _ensure(grant is not None, f"{cell.label}: V{record.vehicle_id} has no grant")
            enter, exit_ = _occupancy(grant, 0.0, geometry.crossing_distance(grant[0]))
            _ensure(abs(record.enter_time - enter) <= TIME_SLACK
                    and abs(record.exit_time - exit_) <= TIME_SLACK,
                    f"{cell.label}: V{record.vehicle_id} record does not follow its grant")


def check_conflict_regions_exclusive(cells, conflicts) -> None:
    """Analytic cells: no two bodies are inside one conflict region of
    their movements at the same time.

    The regions come from the geometry (``conflicts`` is its
    :class:`~repro.geometry.ConflictTable`: crossing paths, and the
    whole path for same-lane pairs); the times come from the granted
    plans, without the scheduler's safety buffers.
    """
    for cell in cells:
        if cell.engine != "analytic":
            continue
        box = sorted(
            (_occupancy(grant, 0.0, conflicts.geometry.crossing_distance(grant[0])), vid)
            for vid, grant in cell.grants.items()
        )
        for k, ((_enter, exit_), a) in enumerate(box):
            for (enter_b, _), b in box[k + 1:]:
                if enter_b >= exit_:
                    break  # b and everything after enter after a has left
                ga, gb = cell.grants[a], cell.grants[b]
                for iv in conflicts.intervals(ga[0], gb[0]):
                    a_in, a_out = _occupancy(ga, iv.a_in, iv.a_out)
                    b_in, b_out = _occupancy(gb, iv.b_in, iv.b_out)
                    _ensure(
                        max(a_in, b_in) >= min(a_out, b_out) - TIME_SLACK,
                        f"{cell.label}: V{a} ({ga[0].key}) and V{b} ({gb[0].key}) "
                        f"share a conflict region during [{max(a_in, b_in):.4f}, "
                        f"{min(a_out, b_out):.4f}] s",
                    )


def _good_records(cell):
    bad = cell.failed_vehicles
    return [r for r in cell.result.records if r.vehicle_id not in bad]


def check_spawn_order(cells) -> None:
    """Per approach, vehicles enter the box in spawn order."""
    for cell in cells:
        lanes: Dict[str, list] = defaultdict(list)
        for record in _good_records(cell):
            lanes[record.movement_key.split("-")[0]].append(record)
        for approach, records in lanes.items():
            records.sort(key=lambda r: (r.spawn_time, r.vehicle_id))
            for ahead, behind in zip(records, records[1:]):
                _ensure(
                    behind.enter_time >= ahead.enter_time,
                    f"{cell.label}: V{behind.vehicle_id} entered from {approach} at "
                    f"{behind.enter_time:.4f} before V{ahead.vehicle_id} "
                    f"({ahead.enter_time:.4f}), which spawned earlier",
                )


def check_transit_bound(cells, geometry) -> None:
    """Spawn->exit takes at least the path length over ``v_max``.

    The path is the approach, the crossing and the body length (the
    rear bumper clears the box); ``geometry`` is the program's default
    layout, the one every workload runs on.
    """
    for cell in cells:
        slack = 1.0 - TRANSIT_TOLERANCE[cell.engine]
        for record in _good_records(cell):
            arrival = cell.arrivals[record.vehicle_id]
            path = (geometry.approach_length
                    + geometry.crossing_distance(arrival.movement)
                    + arrival.spec.length)
            bound = path / arrival.spec.v_max
            transit = record.exit_time - record.spawn_time
            _ensure(transit >= bound * slack,
                    f"{cell.label}: V{record.vehicle_id} transit {transit:.4f} s "
                    f"is below the {bound:.4f} s free-flow bound")


def check_saturated_ordering(cells) -> None:
    """Crossroads beats VT-IM and AIM on the saturated cell."""
    throughput = {cell.policy: cell.result.throughput for cell in cells}
    for other in ("vt-im", "aim"):
        _ensure(throughput["crossroads"] > throughput[other],
                f"saturated: crossroads throughput {throughput['crossroads']:.5f} "
                f"does not exceed {other}'s {throughput[other]:.5f}")


def check_analytic_ordering(cells) -> None:
    """Fig 7.2 shape, on throughput averaged over the round's seeds:
    parity at the sparse end, Crossroads ahead from flow 0.3 on."""
    sums: Dict[tuple, List[float]] = defaultdict(list)
    for cell in cells:
        sums[(cell.policy, cell.flow)].append(cell.result.throughput)
    mean = {key: sum(v) / len(v) for key, v in sums.items()}
    for flow in sorted({flow for _, flow in mean}):
        cr, vt = mean[("crossroads", flow)], mean[("vt-im", flow)]
        if flow == PARITY_FLOW:
            _ensure(abs(cr - vt) <= PARITY_TOLERANCE * vt,
                    f"analytic: flow {flow}: crossroads {cr:.5f} and vt-im {vt:.5f} "
                    f"differ by more than {PARITY_TOLERANCE:.0%}")
        if flow >= AHEAD_FROM_FLOW:
            _ensure(cr > vt, f"analytic: flow {flow}: crossroads {cr:.5f} "
                             f"is not ahead of vt-im {vt:.5f}")


def check_digests(digests: Sequence[List[str]], what: str = "rounds") -> None:
    """Every repeat of the same inputs gives bit-identical summaries."""
    for i, other in enumerate(digests[1:], start=1):
        _ensure(other == digests[0],
                f"summary() digests differ between {what} 0 and {i}")


def check_round(workload: str, cells, conflicts,
                known_failing: Mapping[str, AbstractSet[int]]) -> None:
    """Every check that applies to ``workload`` on one round's cells;
    ``conflicts`` is the conflict table of the default layout, the one
    every workload runs on."""
    geometry = conflicts.geometry
    check_all_cleared(cells)
    check_failures(cells, known_failing)
    check_spawn_order(cells)
    check_transit_bound(cells, geometry)
    if workload == "saturated":
        check_no_collisions(cells)
        check_saturated_ordering(cells)
    if workload == "analytic-sweep":
        check_grants_executed(cells, geometry)
        check_conflict_regions_exclusive(cells, conflicts)
        check_analytic_ordering(cells)
