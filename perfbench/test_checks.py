"""Each output check passes real outputs and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

import copy
import cProfile
import json
import pstats
from types import SimpleNamespace

import pytest

import checks
import layers
import workloads
from repro.geometry import ConflictTable, IntersectionGeometry
from repro.sensors.plant import LongitudinalPlant, PlantConfig
from repro.traffic import PoissonTraffic

GEOMETRY = IntersectionGeometry()
CONFLICTS = ConflictTable(GEOMETRY)


@pytest.fixture(scope="module")
def real_cell():
    arrivals = PoissonTraffic(0.3, seed=3).generate(12)
    return workloads._micro_cell("crossroads@0.3", "crossroads", 0.3, arrivals, 3)


@pytest.fixture
def cell(real_cell):
    return copy.deepcopy(real_cell)


@pytest.fixture(scope="module")
def real_analytic_cell():
    arrivals = PoissonTraffic(0.8, seed=5).generate(40)
    return workloads._analytic_cell("crossroads@0.8", "crossroads", 0.8,
                                    arrivals, CONFLICTS)


@pytest.fixture
def analytic_cell(real_analytic_cell):
    return copy.deepcopy(real_analytic_cell)


def test_real_outputs_pass_every_check(cell, analytic_cell):
    checks.check_round("fault-matrix", [cell], CONFLICTS, {})
    checks.check_no_collisions([cell])
    checks.check_round("fault-matrix", [analytic_cell], CONFLICTS, {})
    checks.check_grants_executed([analytic_cell], GEOMETRY)
    checks.check_conflict_regions_exclusive([analytic_cell], CONFLICTS)


def test_lost_vehicle_is_rejected(cell):
    cell.result.records.pop()
    with pytest.raises(checks.CheckFailed, match="records"):
        checks.check_all_cleared([cell])


def test_unfinished_vehicle_fails_outside_known_cells(cell):
    cell.result.records[0].exit_time = None
    with pytest.raises(checks.CheckFailed, match="unexpected failed"):
        checks.check_failures([cell], {})
    checks.check_failures([cell], {cell.label: {0}})


def test_unnamed_vehicle_fails_inside_a_known_cell(cell):
    cell.collision_pairs.append((0, 1))
    checks.check_failures([cell], {cell.label: {0, 1}})
    with pytest.raises(checks.CheckFailed, match=r"vehicles \[1\]"):
        checks.check_failures([cell], {cell.label: {0, 2}})


def test_collision_party_fails_outside_known_cells(cell):
    cell.collision_pairs.append((0, 1))
    assert cell.failed_vehicles == {0, 1}
    with pytest.raises(checks.CheckFailed, match="unexpected failed"):
        checks.check_failures([cell], {})


def test_swapped_entry_times_are_rejected(cell):
    by_approach = {}
    for record in cell.result.records:
        by_approach.setdefault(record.movement_key.split("-")[0], []).append(record)
    first, second = next(rs for rs in by_approach.values() if len(rs) >= 2)[:2]
    first.enter_time, second.enter_time = second.enter_time, first.enter_time
    with pytest.raises(checks.CheckFailed, match="before"):
        checks.check_spawn_order([cell])


def test_too_fast_transit_is_rejected(cell):
    record = cell.result.records[0]
    record.exit_time = record.spawn_time + 0.5 * (record.exit_time - record.spawn_time)
    with pytest.raises(checks.CheckFailed, match="free-flow bound"):
        checks.check_transit_bound([cell], GEOMETRY)


def test_nonzero_collision_count_is_rejected(cell):
    cell.result.collisions = 1
    with pytest.raises(checks.CheckFailed, match="collisions"):
        checks.check_no_collisions([cell])


def test_shared_conflict_region_is_rejected(analytic_cell):
    # Give a same-lane follower its leader's timing: both bodies then
    # cover the shared lane at once.
    records = sorted(analytic_cell.result.records, key=lambda r: r.spawn_time)
    leader, follower = next(
        (a, b) for a in records for b in records
        if a.vehicle_id < b.vehicle_id
        and a.movement_key.split("-")[0] == b.movement_key.split("-")[0]
    )
    _movement, *timing = analytic_cell.grants[leader.vehicle_id]
    analytic_cell.grants[follower.vehicle_id] = (
        analytic_cell.grants[follower.vehicle_id][0], *timing)
    with pytest.raises(checks.CheckFailed, match="share a conflict region"):
        checks.check_conflict_regions_exclusive([analytic_cell], CONFLICTS)


def test_record_that_departs_from_its_grant_is_rejected(analytic_cell):
    analytic_cell.result.records[3].exit_time -= 0.01
    with pytest.raises(checks.CheckFailed, match="does not follow its grant"):
        checks.check_grants_executed([analytic_cell], GEOMETRY)


def _stub(policy, throughput, flow=0.3):
    return SimpleNamespace(policy=policy, flow=flow,
                           result=SimpleNamespace(throughput=throughput))


def test_reversed_saturated_ordering_is_rejected():
    good = [_stub("crossroads", 0.4), _stub("vt-im", 0.1), _stub("aim", 0.05)]
    checks.check_saturated_ordering(good)
    bad = [_stub("crossroads", 0.08), _stub("vt-im", 0.1), _stub("aim", 0.05)]
    with pytest.raises(checks.CheckFailed, match="vt-im"):
        checks.check_saturated_ordering(bad)


def test_analytic_ordering_needs_parity_and_lead():
    good = [_stub("crossroads", 0.50, 0.05), _stub("vt-im", 0.48, 0.05),
            _stub("crossroads", 0.30, 0.3), _stub("vt-im", 0.20, 0.3)]
    checks.check_analytic_ordering(good)
    reversed_lead = good[:2] + [_stub("crossroads", 0.20, 0.3), _stub("vt-im", 0.30, 0.3)]
    with pytest.raises(checks.CheckFailed, match="not ahead"):
        checks.check_analytic_ordering(reversed_lead)
    no_parity = [_stub("crossroads", 0.70, 0.05), _stub("vt-im", 0.48, 0.05)] + good[2:]
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_analytic_ordering(no_parity)


def test_changed_digest_is_rejected(cell):
    before = workloads.round_digest([cell])
    checks.check_digests([before, workloads.round_digest([cell])])
    cell.result.rejects += 1
    with pytest.raises(checks.CheckFailed, match="digests differ"):
        checks.check_digests([before, workloads.round_digest([cell])])


def test_numpy_self_time_is_charged_to_the_calling_layer():
    plant = LongitudinalPlant(PlantConfig(), velocity=1.0)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3000):
        plant.step(2.0, 0.01)
    profile.disable()
    stats = pstats.Stats(profile)
    folded = layers.fold_profile(stats)
    sensors_own = sum(tt for func, (_, _, tt, _, _) in stats.stats.items()
                      if layers.package_of(func[0]) == "sensors")
    assert folded["sensors.self_s"] > sensors_own
    assert folded["sensors.calls"] >= 3000
    assert folded["des.self_s"] == 0.0


def test_scheduler_refusals_are_counted_as_rejects(real_analytic_cell):
    counters = layers.Counters()
    with counters.installed():
        cell = workloads._analytic_cell(
            "vt-im@0.8", "vt-im", 0.8, real_analytic_cell.arrivals, CONFLICTS)
    result = cell.result
    assert result.rejects == 0  # the analytic engine leaves this field unset
    assert counters.scheduler_refusals == result.compute_requests - len(result.records)
    assert counters.scheduler_refusals > 0
    counts = layers.result_counts([cell], counters, untraced_wall=1.0)
    assert counts["core.rejects"] == counters.scheduler_refusals


def test_benchmark_lists_every_per_layer_metric():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    emitted = {f"{layer}.{kind}" for layer in layers.LAYERS for kind in ("self_s", "calls")}
    emitted |= {name for name, _unit in layers.COUNTS} | {"trace.overhead"}
    assert {m["name"] for m in declared} == emitted
