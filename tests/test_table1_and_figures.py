"""The headline reproduction tests: Table I and Figures 1-2 (T1, F1, F2)."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.analysis import (
    PAPER_TABLE_I,
    architecture_graph,
    compare_with_paper,
    generate_table1,
    render_architecture,
    render_table1,
)
from repro.analysis.table1 import ROW_LABELS, _parse_quiescent
from repro.systems import build_system


class TestPaperTranscription:
    def test_seven_devices(self):
        assert sorted(PAPER_TABLE_I) == list("ABCDEFG")

    def test_every_row_present_for_every_device(self):
        for letter, row in PAPER_TABLE_I.items():
            for label in ROW_LABELS:
                assert label in row, f"{letter} missing {label}"

    def test_quiescent_parser(self):
        amps, bound = _parse_quiescent("5 uA")
        assert amps == pytest.approx(5e-6) and bound is False
        amps, bound = _parse_quiescent("< 32 uA")
        assert amps == pytest.approx(32e-6) and bound is True


class TestTable1Reproduction:
    """T1: the regenerated table must match the paper cell-for-cell."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_with_paper()

    def test_full_agreement(self, comparison):
        assert comparison.mismatches == (), comparison.report()
        assert comparison.agreement == 1.0

    def test_cell_count(self, comparison):
        # 7 devices x 10 rows.
        assert len(comparison.cells) == 70

    def test_render_contains_all_devices(self):
        text = render_table1()
        for name in ("Smart Power Unit", "Plug-and-Play", "AmbiMax",
                     "MPWiNode", "Maxim MAX17710 Eval", "Cymbet EVAL-09",
                     "Microstrain EH-Link"):
            assert name in text

    def test_render_contains_all_row_labels(self):
        text = render_table1()
        for label in ROW_LABELS:
            assert label in text

    def test_generated_rows_match_letters(self):
        rows = generate_table1()
        assert sorted(rows) == list("ABCDEFG")

    def test_comparison_detects_deliberate_mismatch(self):
        rows = generate_table1()
        # Sabotage one cell and confirm the differ catches it.
        import dataclasses
        rows["A"] = dataclasses.replace(rows["A"],
                                        swappable_sensor_node="No")
        comparison = compare_with_paper(rows)
        assert any(c.device == "A" and c.row == "Swappable Sensor Node"
                   for c in comparison.mismatches)


class TestFigure1:
    """F1: the Smart Power Unit block diagram (survey Fig. 1)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return architecture_graph(build_system("A"))

    def test_three_harvest_paths_into_bus(self, graph):
        conditioners = [n for n, d in graph.nodes(data=True)
                        if d.get("role") == "input_conditioner"]
        assert len(conditioners) == 3
        for node in conditioners:
            assert graph.has_edge(node, "storage-bus")

    def test_mppt_on_every_input(self, graph):
        trackers = {d["tracker"] for n, d in graph.nodes(data=True)
                    if d.get("role") == "input_conditioner"}
        assert trackers == {"PerturbObserve"}

    def test_three_stores_on_bus(self, graph):
        stores = [n for n, d in graph.nodes(data=True)
                  if d.get("role") == "storage"]
        assert len(stores) == 3

    def test_fuel_cell_is_discharge_only(self, graph):
        fuel = next(n for n, d in graph.nodes(data=True)
                    if d.get("role") == "storage" and d.get("backup"))
        assert graph.has_edge(fuel, "storage-bus")
        assert not graph.has_edge("storage-bus", fuel)

    def test_buck_boost_output_path(self, graph):
        assert graph.nodes["output-conditioner"]["converter"] == \
            "BuckBoostConverter"
        assert graph.has_edge("storage-bus", "output-conditioner")
        assert graph.has_edge("output-conditioner", "embedded-device")

    def test_mcu_bidirectional_with_node(self, graph):
        # Fig. 1: the SPU MCU exchanges data with the sensor node (I2C).
        assert graph.has_edge("power-unit-mcu", "embedded-device")
        assert graph.has_edge("embedded-device", "power-unit-mcu")
        assert graph.edges["power-unit-mcu",
                           "embedded-device"]["kind"] == "data"

    def test_power_path_reaches_node_from_every_harvester(self, graph):
        power = nx.DiGraph((u, v) for u, v, d in graph.edges(data=True)
                           if d["kind"] == "power")
        harvesters = [n for n, d in graph.nodes(data=True)
                      if d.get("role") == "harvester"]
        for h in harvesters:
            assert nx.has_path(power, h, "embedded-device")

    def test_render_mentions_key_blocks(self):
        text = render_architecture(build_system("A"))
        assert "Smart Power Unit" in text
        assert "BuckBoostConverter" in text
        assert "fuel-cell" in text
        assert "power-unit-mcu" in text


class TestFigure2:
    """F2: the Plug-and-Play block diagram (survey Fig. 2)."""

    @pytest.fixture(scope="class")
    def system(self):
        return build_system("B")

    @pytest.fixture(scope="class")
    def graph(self, system):
        return architecture_graph(system)

    def test_six_module_slots(self, graph):
        slots = [n for n, d in graph.nodes(data=True)
                 if d.get("role") == "module_slot"]
        assert len(slots) == 6

    def test_every_slot_has_datasheet(self, graph):
        for node, data in graph.nodes(data=True):
            if data.get("role") == "module_slot":
                assert data["has_datasheet"], node

    def test_slots_mix_harvesters_and_storage(self, graph):
        kinds = [d["kind"] for n, d in graph.nodes(data=True)
                 if d.get("role") == "module_slot"]
        assert kinds.count("harvester") == 4
        assert kinds.count("storage") == 2

    def test_no_power_unit_mcu(self, graph):
        # Fig. 2: no on-board microcontroller; the node's MCU hosts the
        # intelligence (survey Sec. II.4).
        assert "power-unit-mcu" not in graph.nodes

    def test_data_links_go_to_embedded_device(self, graph):
        slots = [n for n, d in graph.nodes(data=True)
                 if d.get("role") == "module_slot"]
        for slot in slots:
            assert graph.has_edge(slot, "embedded-device")
            assert graph.edges[slot, "embedded-device"]["kind"] == "data"

    def test_ldo_output_stage(self, graph):
        assert graph.nodes["output-conditioner"]["converter"] == \
            "LinearRegulator"

    def test_fixed_point_conditioning(self, graph):
        trackers = {d["tracker"] for n, d in graph.nodes(data=True)
                    if d.get("role") == "input_conditioner"}
        assert trackers == {"FixedVoltage"}

    def test_render_mentions_slots(self, system):
        text = render_architecture(system)
        assert "Plug-and-Play" in text
        assert "slot[" in text
        assert "LinearRegulator" in text


def test_import_leaves_networkx_unloaded():
    """Only :func:`architecture_graph` needs networkx, and it imports it
    itself, so ``import repro`` in a fresh interpreter does not load it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
