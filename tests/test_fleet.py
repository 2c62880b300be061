"""Fleet co-simulation: spec round-trips, compilation, coupling,
tiered execution, catalog dedup, and fleet metrics."""

import dataclasses
import json

import pytest

from repro.catalog import Catalog
from repro.fleet import (
    FleetMetrics,
    fleet_links,
    fleet_metrics,
    fleet_scenarios,
    homogeneous_fleet,
    run_fleet,
    run_fleet_ensemble,
)
from repro.fleet.compile import listen_powers
from repro.fleet.metrics import node_lifetime_s
from repro.load import RadioModel, WirelessSensorNode
from repro.simulation.metrics import RunMetrics
from repro.spec import (
    ComponentSpec,
    EnvironmentSpec,
    FleetNodeSpec,
    FleetSpec,
    run_fleet as run_fleet_spec,
    spec_for,
    spec_from_dict,
    spec_hash,
)

DAY = 86_400.0


def _env(seed: int = 3, days: float = 1.0, dt: float = 300.0):
    return EnvironmentSpec("outdoor", duration=days * DAY, dt=dt,
                           seed=seed)


def _fleet(n: int = 4, **kwargs):
    kwargs.setdefault("topology", "ring")
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("name", "test-fleet")
    return homogeneous_fleet(spec_for("C"), _env(), n, **kwargs)


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------
class TestFleetSpec:
    def test_round_trips_through_json(self):
        spec = _fleet(3, spread=0.2)
        clone = FleetSpec.from_json(spec.to_json())
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)

    def test_dispatches_through_the_kind_registry(self):
        spec = _fleet(3)
        clone = spec_from_dict(json.loads(spec.to_json()))
        assert isinstance(clone, FleetSpec)
        assert clone == spec

    def test_validates_nodes_and_links(self):
        with pytest.raises(ValueError):
            FleetSpec(system=spec_for("C"), environment=_env(), nodes=())
        node = FleetNodeSpec()
        with pytest.raises(ValueError):
            FleetSpec(system=spec_for("C"), environment=_env(),
                      nodes=(node, node), links=((0, 0),))  # self-loop
        with pytest.raises(ValueError):
            FleetSpec(system=spec_for("C"), environment=_env(),
                      nodes=(node, node), links=((0, 5),))  # out of range

    def test_node_names_default_to_indexed(self):
        spec = FleetSpec(
            system=spec_for("C"), environment=_env(),
            nodes=(FleetNodeSpec(name="hub"), FleetNodeSpec()))
        assert spec.node_name(0) == "hub"
        assert spec.node_name(1) == "n01"


class TestFleetLinks:
    def test_topologies(self):
        assert fleet_links("none", 4) == ()
        assert fleet_links("ring", 3) == ((0, 1), (1, 2), (2, 0))
        assert fleet_links("star", 4) == ((1, 0), (2, 0), (3, 0))
        assert fleet_links("line", 3) == ((0, 1), (1, 2))
        assert fleet_links("ring", 1) == ()

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            fleet_links("mesh", 4)

    def test_spread_spaces_node_scales(self):
        spec = _fleet(5, spread=0.2)
        scales = [node.scale for node in spec.nodes]
        assert scales[0] == pytest.approx(0.8)
        assert scales[2] == pytest.approx(1.0)
        assert scales[-1] == pytest.approx(1.2)
        with pytest.raises(ValueError):
            _fleet(3, spread=1.5)


# ---------------------------------------------------------------------------
# Compilation: coupling + per-node scenarios
# ---------------------------------------------------------------------------
class TestFleetCompilation:
    def test_listen_power_matches_the_radio_model(self):
        spec = _fleet(3)  # ring: each node receives from one neighbor
        scenarios = fleet_scenarios(spec)
        node = WirelessSensorNode()  # System C uses the stock node
        expected = node.radio.rx_energy(
            node.payload_bytes, spec.listen_window_s) / \
            node.measurement_interval_s
        for scenario in scenarios:
            assert scenario.params["listen_power_w"] == \
                pytest.approx(expected)

    def test_star_hub_pays_for_every_leaf(self):
        spec = _fleet(4, topology="star")
        powers = [s.params["listen_power_w"]
                  for s in fleet_scenarios(spec)]
        node = WirelessSensorNode()
        per_link = node.radio.rx_energy(
            node.payload_bytes, spec.listen_window_s) / \
            node.measurement_interval_s
        assert powers[0] == pytest.approx(3 * per_link)
        assert powers[1:] == [0.0, 0.0, 0.0]

    def test_coupling_raises_the_sleep_floor(self):
        spec = _fleet(3)
        scenario = fleet_scenarios(spec)[0]
        injected = scenario.system.params["node"]
        base_sleep = WirelessSensorNode().sleep_power_w
        assert injected.params["sleep_power_w"] == pytest.approx(
            base_sleep + scenario.params["listen_power_w"])
        # The declarative twin carries the radio explicitly.
        assert injected.params["radio"].type == "packet_radio"

    def test_link_free_nodes_keep_the_base_spec(self):
        spec = _fleet(3, topology="none")
        for scenario in fleet_scenarios(spec):
            assert scenario.system == spec_for("C")
            assert scenario.params["listen_power_w"] == 0.0

    def test_identity_siting_keeps_the_shared_environment(self):
        spec = _fleet(3, topology="none")
        for scenario in fleet_scenarios(spec):
            assert scenario.environment == spec.environment

    def test_scaled_siting_wraps_the_environment(self):
        spec = _fleet(3, topology="none", spread=0.2)
        scenarios = fleet_scenarios(spec)
        assert scenarios[0].environment.environment == "scaled"
        assert scenarios[0].environment.params["scale"] == \
            pytest.approx(0.8)
        # The middle node sits at scale 1.0: identity, unwrapped.
        assert scenarios[1].environment == spec.environment

    def test_node_param_overrides_merge(self):
        override = ComponentSpec("node", "wireless_sensor_node",
                                 params={"measurement_interval_s": 15.0})
        spec = FleetSpec(
            system=spec_for("C"), environment=_env(),
            nodes=(FleetNodeSpec(),
                   FleetNodeSpec(params={"node": override})))
        scenarios = fleet_scenarios(spec)
        assert "node" not in scenarios[0].system.params
        assert scenarios[1].system.params["node"] == override

    def test_heterogeneous_interval_changes_the_neighbor_cost(self):
        # Node 0 transmits 4x as often -> its receiver pays 4x the
        # listen power of the other link.
        def node_with_interval(interval):
            return FleetNodeSpec(params={"node": ComponentSpec(
                "node", "wireless_sensor_node",
                params={"measurement_interval_s": interval})})

        spec = FleetSpec(system=spec_for("C"), environment=_env(),
                         nodes=(node_with_interval(15.0),
                                node_with_interval(60.0)),
                         links=((0, 1), (1, 0)))
        scenarios = fleet_scenarios(spec)
        powers = [s.params["listen_power_w"] for s in scenarios]
        # receiver 1 hears the chatty node; receiver 0 hears the quiet
        # one: 60/15 = 4x apart.
        assert powers[1] == pytest.approx(4 * powers[0])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
class TestRunFleet:
    def test_same_hardware_fleet_rides_the_batched_tier(self):
        result = run_fleet(_fleet(4, spread=0.2), tier="batched")
        assert result.execution_paths() == {"batched": 4}
        assert len(result.results) == 4
        assert result.metrics.nodes == 4

    def test_run_fleet_spec_dispatch(self):
        spec = _fleet(2)
        assert run_fleet_spec(spec).metrics == run_fleet(spec).metrics
        with pytest.raises(TypeError):
            run_fleet_spec(spec_for("C"))

    def test_heterogeneous_hardware_splits_into_groups(self):
        nodes = (FleetNodeSpec(), FleetNodeSpec(),
                 FleetNodeSpec(system=spec_for("D")),
                 FleetNodeSpec(system=spec_for("D")))
        spec = FleetSpec(system=spec_for("C"), environment=_env(),
                         nodes=nodes, seed=3, name="mixed")
        result = run_fleet(spec, tier="batched")
        assert len(result.results) == 4
        assert result.metrics.nodes == 4
        # Each hardware class forms its own lockstep group.
        assert result.execution_paths() == {"batched": 4}

    def test_catalog_dedups_fleet_runs(self, tmp_path):
        spec = _fleet(3, spread=0.2)
        catalog = Catalog(tmp_path / "store")
        first = run_fleet(spec, catalog=catalog)
        assert first.catalog_report.misses == 3
        second = run_fleet(spec, catalog=catalog)
        assert second.catalog_report.hits == 3
        assert second.catalog_report.misses == 0
        assert [r.metrics for r in second.results] == \
            [r.metrics for r in first.results]
        assert second.metrics == first.metrics

    def test_ensemble_replicates_and_summaries(self):
        ensemble = run_fleet_ensemble(_fleet(2), replicates=3,
                                      root_seed=5, tier="batched")
        assert len(ensemble) == 3
        assert len(set(ensemble.seeds)) == 3
        assert all(len(fleet.results) == 2 for fleet in ensemble)
        summary = ensemble.summary("coverage_fraction")
        assert summary.n == 3
        assert 0.0 <= summary.mean <= 1.0
        rows = ensemble.rows()
        assert [row["replicate"] for row in rows] == [0, 1, 2]
        assert "coverage_fraction" in ensemble.report()

    def test_ensemble_is_deterministic(self):
        a = run_fleet_ensemble(_fleet(2), replicates=2, root_seed=9)
        b = run_fleet_ensemble(_fleet(2), replicates=2, root_seed=9)
        assert [f.metrics for f in a] == [f.metrics for f in b]


# ---------------------------------------------------------------------------
# Fleet metrics
# ---------------------------------------------------------------------------
def _metrics(uptime: float, measurements: float, first_dead: float,
             duration: float = 1000.0) -> RunMetrics:
    return RunMetrics(
        duration_s=duration, harvested_raw_j=1.0,
        harvested_delivered_j=1.0, mpp_available_j=1.0,
        charge_accepted_j=1.0, quiescent_j=0.0, node_consumed_j=1.0,
        node_demand_j=1.0, backup_used_j=0.0, uptime_fraction=uptime,
        dead_time_s=(1.0 - uptime) * duration, brownouts=0,
        measurements=measurements, harvest_coverage=1.0,
        first_dead_s=first_dead)


class TestFleetMetrics:
    def test_aggregates_node_rows(self):
        rows = [_metrics(1.0, 100.0, -1.0),
                _metrics(0.5, 50.0, 400.0),
                _metrics(0.8, 80.0, 900.0)]
        fm = fleet_metrics(rows, quantiles=(0.5,))
        assert fm.nodes == 3
        assert fm.coverage_fraction == pytest.approx((1.0 + 0.5 + 0.8) / 3)
        assert fm.data_yield == pytest.approx(230.0)
        assert fm.deaths == 2
        assert fm.first_death_s == 400.0
        assert fm.fleet_lifetime_s == 400.0
        assert fm.mean_lifetime_s == pytest.approx(
            (1000.0 + 400.0 + 900.0) / 3)
        assert fm.lifetime_quantile(0.5) == 900.0

    def test_undying_fleet_is_censored_at_duration(self):
        fm = fleet_metrics([_metrics(1.0, 10.0, -1.0)] * 3)
        assert fm.deaths == 0
        assert fm.first_death_s == -1.0
        assert fm.fleet_lifetime_s == 1000.0
        assert node_lifetime_s(_metrics(1.0, 1.0, -1.0)) == 1000.0

    def test_rejects_empty_fleets(self):
        with pytest.raises(ValueError):
            fleet_metrics([])

    def test_row_flattens_quantiles(self):
        fm = fleet_metrics([_metrics(1.0, 10.0, -1.0)], quantiles=(0.5,))
        row = fm.row()
        assert row["lifetime_q0.5"] == 1000.0
        assert row["nodes"] == 1

    def test_unknown_quantile_raises(self):
        fm = FleetMetrics(nodes=1, duration_s=1.0, coverage_fraction=1.0,
                          data_yield=1.0, deaths=0, first_death_s=-1.0,
                          fleet_lifetime_s=1.0, mean_lifetime_s=1.0,
                          lifetime_quantiles=((0.5, 1.0),))
        with pytest.raises(KeyError):
            fm.lifetime_quantile(0.25)


class TestListenPowersDirect:
    def test_zero_without_links(self):
        spec = _fleet(3, topology="none")
        nodes = [WirelessSensorNode() for _ in range(3)]
        assert listen_powers(spec, nodes) == [0.0, 0.0, 0.0]

    def test_fragmented_payloads_cost_more_per_interval(self):
        radio = RadioModel()
        spec = FleetSpec(
            system=spec_for("C"), environment=_env(),
            nodes=(FleetNodeSpec(), FleetNodeSpec()), links=((0, 1),),
            listen_window_s=0.0)
        def power(payload):
            node = WirelessSensorNode(payload_bytes=payload, radio=radio)
            return listen_powers(spec, [node, node])[1]
        # Two full frames cost exactly twice one full frame (no shared
        # per-packet term once the listen window is zero)...
        assert power(220) == pytest.approx(2 * power(110))
        # ... and the 111th byte drags in a whole extra frame's startup
        # and ACK, so fragmentation is never silently cheaper per byte.
        interval = WirelessSensorNode().measurement_interval_s
        assert power(111) - power(110) > radio.startup_energy_j / interval
