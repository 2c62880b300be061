"""Architecture-graph extraction for Figures 1 and 2 (experiments F1/F2).

The survey's two figures are block diagrams of the reference systems. We
regenerate them structurally: :func:`architecture_graph` walks a live
:class:`~repro.core.MultiSourceSystem` and emits a directed graph whose
nodes are the architecture blocks (harvesters, conditioning stages, stores,
output stage, embedded device, management MCU, digital bus) and whose
edges are power flows (``kind='power'``) and data/control links
(``kind='data'``). :func:`render_architecture` prints the ASCII rendition;
tests assert the topological properties the figures show (e.g. System A's
MCU sits on the bus between power unit and node; System B's modules each
carry their own interface circuit and datasheet).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.system import MultiSourceSystem

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["architecture_graph", "render_architecture"]


def architecture_graph(system: MultiSourceSystem) -> "nx.DiGraph":
    """Directed block diagram of a system model.

    Node attributes: ``role`` in {harvester, input_conditioner, storage,
    output_conditioner, embedded_device, mcu, bus, module_slot}.
    Edge attribute: ``kind`` in {power, data}.
    """
    import networkx as nx  # only figure extraction needs it

    graph = nx.DiGraph(name=system.architecture.name)

    graph.add_node("embedded-device", role="embedded_device",
                   label=type(system.node).__name__)

    for i, channel in enumerate(system.channels):
        h_node = f"harvester:{channel.name}"
        c_node = f"conditioner:{channel.name}"
        graph.add_node(h_node, role="harvester",
                       source=channel.source_type.value,
                       label=type(channel.harvester).__name__)
        graph.add_node(c_node, role="input_conditioner",
                       tracker=type(channel.conditioner.tracker).__name__,
                       converter=type(channel.conditioner.converter).__name__)
        graph.add_edge(h_node, c_node, kind="power")
        graph.add_edge(c_node, "storage-bus", kind="power")

    graph.add_node("storage-bus", role="bus", label="power bus")
    for store in system.bank.stores:
        s_node = f"store:{store.name}"
        graph.add_node(s_node, role="storage",
                       backup=store.is_backup,
                       label=type(store).__name__)
        if store.rechargeable:
            graph.add_edge("storage-bus", s_node, kind="power")
        graph.add_edge(s_node, "storage-bus", kind="power")

    graph.add_node("output-conditioner", role="output_conditioner",
                   converter=type(system.output.converter).__name__)
    graph.add_edge("storage-bus", "output-conditioner", kind="power")
    graph.add_edge("output-conditioner", "embedded-device", kind="power")

    if system.mcu is not None:
        graph.add_node("power-unit-mcu", role="mcu",
                       label=type(system.mcu).__name__)
        graph.add_edge("power-unit-mcu", "storage-bus", kind="data")
        graph.add_edge("power-unit-mcu", "embedded-device", kind="data")
        graph.add_edge("embedded-device", "power-unit-mcu", kind="data")

    if system.slots is not None:
        for slot in system.slots.occupied_slots:
            module = system.slots.module_at(slot)
            m_node = f"slot[{slot}]:{module.name}"
            graph.add_node(m_node, role="module_slot",
                           kind=module.kind.value,
                           has_datasheet=module.datasheet is not None)
            graph.add_edge(m_node, "embedded-device", kind="data")

    return graph


def render_architecture(system: MultiSourceSystem) -> str:
    """ASCII rendition of the block diagram (the 'figure')."""
    graph = architecture_graph(system)
    arch = system.architecture
    lines = [
        f"Architecture: {arch.name} (System {arch.short_name})",
        f"  input conditioning : {arch.input_style.value} "
        f"({arch.conditioning_location.value})",
        f"  output stage       : {arch.output_style.value}",
        f"  intelligence       : {arch.intelligence.value}",
        f"  communication      : {arch.communication.value}",
        "",
        "  power path:",
    ]
    for channel in system.channels:
        lines.append(
            f"    [{channel.harvester.table_label:<10}] "
            f"--({type(channel.conditioner.tracker).__name__})--> "
            f"[{type(channel.conditioner.converter).__name__}] --> (bus)"
        )
    for store in system.bank.stores:
        marker = "backup" if store.is_backup else "buffer"
        lines.append(f"    (bus) <==> [{store.name} : {marker}]")
    lines.append(
        f"    (bus) --> [{type(system.output.converter).__name__}] "
        f"--> [sensor node]"
    )
    data_edges = [(u, v) for u, v, d in graph.edges(data=True)
                  if d.get("kind") == "data"]
    if data_edges:
        lines.append("")
        lines.append("  data/control links:")
        for u, v in data_edges:
            lines.append(f"    {u} -> {v}")
    return "\n".join(lines)
