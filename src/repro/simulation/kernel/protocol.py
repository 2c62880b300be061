"""Component lowering protocol for the composable kernel.

The kernel executes a simulation with the interpreter overhead of the
legacy per-step path removed, while staying **bit-for-bit identical** to
it. Instead of one hand-inlined special case (the old
``repro.simulation._fastpath`` supported single-supercapacitor systems
only), every component type *lowers itself*: it exposes a
``lower_kernel(dt) -> <Lowering>`` hook that emits specialized per-step
closures over hoisted run constants, and a
:class:`~repro.simulation.kernel.plan.KernelPlan` composes the lowered
pieces for an arbitrary :class:`~repro.core.MultiSourceSystem`.

Contract for every lowering closure:

* **Exactness** — a closure performs the same floating-point operations
  in the same order as the component method it replaces. Hoisting is
  only allowed for subexpressions whose value cannot change between
  steps (run constants), and expressions must be copied operator by
  operator (e.g. ``0.5 * c * v ** 2`` hoists to ``half_c = 0.5 * c``
  then ``half_c * v ** 2`` — the same association order).
* **Live state** — closures read and write the component's *own
  attributes* directly, never shadow copies, so managers, monitors, bus
  devices, and scheduled events observe exactly the state they would see
  on the legacy path at every step boundary.
* **Capability, not trust** — a lowering that inlines arithmetic must
  not inline it for instances whose class overrides the methods being
  inlined (:func:`ensure_unmodified`). Such a component lowers to
  closures that call its own methods with the arguments the legacy
  step passes (a tracker's ``step``, a node's state machine, a store's
  ``charge``/``discharge``/``step_idle``), which is exact for any
  subclass. Only orchestration classes whose phases :func:`~repro.
  simulation.kernel.plan.run_plan` replicates — a system, bank, channel
  or conditioner subclass — have no such closure and refuse.

A hook signals "no lowering" by raising :exc:`LoweringUnsupported`. The
engine turns a refusal before step 0 into the legacy path; a refusal
after a mid-run event propagates. The batched tier keeps every refusal,
since per-lane method calls would defeat vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CapabilityReport",
    "LoweringUnsupported",
    "ensure_unmodified",
    "overridden_methods",
    "is_library_harvester",
    "StoreLowering",
    "BankLowering",
    "ChannelLowering",
    "OutputLowering",
    "NodeLowering",
    "SystemLowering",
]


@dataclass(frozen=True)
class CapabilityReport:
    """Structured account of why a component refused to lower.

    A refusal is capability negotiation, not an error: the report names
    the *component* that refused (or ``"scenario"`` when the run itself
    is outside the tier), the *capability* it lacks, and the
    human-readable *detail*. Sweep rows carry the report in their
    extras (``batch_fallback_reason``) and ``repro sweep --batch on
    --explain`` renders it as a table.
    """

    component: str
    capability: str
    detail: str

    def as_dict(self) -> dict:
        """Flat JSON-friendly payload (sweep-row extras, ``--json``)."""
        return {"component": self.component, "capability": self.capability,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.component}: missing {self.capability} — " \
               f"{self.detail}"


class LoweringUnsupported(Exception):
    """A component has no lowering on the tier that asked for one.

    Raise sites may attach structured identity (``component``,
    ``capability``); :meth:`capability_report` always yields a full
    :class:`CapabilityReport`, synthesizing conservative defaults for
    plain-string raises.
    """

    def __init__(self, message: str, *, component: str | None = None,
                 capability: str | None = None):
        super().__init__(message)
        self.component = component
        self.capability = capability

    def capability_report(self) -> CapabilityReport:
        """The refusal as a structured :class:`CapabilityReport`."""
        detail = str(self)
        component = self.component
        if component is None:
            # Raise-site convention: messages lead with the refusing
            # component's class name ("TunedSupercap overrides ...").
            component = detail.split()[0].rstrip(":,") if detail else \
                "unknown"
        return CapabilityReport(
            component=component,
            capability=self.capability or "lowering",
            detail=detail,
        )


def _resolve(cls: type, name: str):
    """The attribute ``cls`` actually uses for ``name`` (MRO walk)."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass.__dict__[name]
    return None


def overridden_methods(obj, base: type, *names: str) -> list:
    """Which of ``names`` ``type(obj)`` resolves differently from ``base``."""
    cls = type(obj)
    return [name for name in names
            if _resolve(cls, name) is not _resolve(base, name)]


def ensure_unmodified(obj, base: type, *names: str) -> None:
    """Refuse to inline methods an instance's class overrides.

    Raises :exc:`LoweringUnsupported` naming the offending methods — the
    subclass may legitimately change the physics the lowering would
    inline. A store's ``lower_kernel`` catches it and calls the store's
    own methods; the batched tier and orchestration classes refuse (a
    subclass can define its own ``lower_kernel`` / ``_kernel_*`` hook
    to opt back in).
    """
    changed = overridden_methods(obj, base, *names)
    if changed:
        raise LoweringUnsupported(
            f"{type(obj).__name__} overrides {', '.join(changed)}() of "
            f"{base.__name__} and defines no kernel lowering of its own",
            component=type(obj).__name__,
            capability=f"unmodified {base.__name__} physics")


def is_library_harvester(harvester) -> bool:
    """Whether ``harvester``'s class is defined in :mod:`repro.harvesters`.

    Library harvesters are pure in ``(voltage, ambient)``: their I-V and
    MPP methods keep no state a call could change. Lowerings that skip
    or memoize harvester calls (the kernel's MPP memo, the P&O limit-
    cycle fast-forward over ``power_at``, the IncCond one over
    ``current_at``, the fused codegen memos, and the per-ambient I-V
    lowering :meth:`~repro.harvesters.base.Harvester.lower_iv`, which
    writes this test out) engage only for them; a user harvester class
    may count or randomize its calls and so keeps every call.
    """
    return type(harvester).__module__.startswith("repro.harvesters")


class StoreLowering:
    """Lowered energy store: per-step closures sharing the store's state.

    ``voltage() -> V``, ``charge(power_w) -> accepted_w``,
    ``discharge(power_w) -> delivered_w`` and ``idle()`` replicate the
    store's methods with ``dt`` baked in and validation hoisted out.
    """

    __slots__ = ("store", "voltage", "charge", "discharge", "idle")

    def __init__(self, store, voltage, charge, discharge, idle):
        self.store = store
        self.voltage = voltage
        self.charge = charge
        self.discharge = discharge
        self.idle = idle


class BankLowering:
    """Lowered storage bank: routing composed over store lowerings."""

    __slots__ = ("bank", "voltage", "charge", "discharge", "idle",
                 "backup_energy", "store_objects", "store_voltages")

    def __init__(self, bank, voltage, charge, discharge, idle,
                 backup_energy, store_objects, store_voltages):
        self.bank = bank
        self.voltage = voltage
        self.charge = charge
        self.discharge = discharge
        self.idle = idle
        #: () -> total backup-store energy (J), or None when the bank has
        #: no backup stores (the backup_power column is then constant 0).
        self.backup_energy = backup_energy
        #: Stores in bank order, for the recorder's per-store energy
        #: column (energy_j is an attribute read on both paths).
        self.store_objects = store_objects
        #: Terminal-voltage closures in bank order (per-store column).
        self.store_voltages = store_voltages


class ChannelLowering:
    """Lowered harvesting channel: ``step(ambient_value, bus_v)``."""

    __slots__ = ("channel", "source_type", "step")

    def __init__(self, channel, source_type, step):
        self.channel = channel
        self.source_type = source_type
        self.step = step


class OutputLowering:
    """Lowered output stage: ``needed(demand_w, store_v) -> input W``."""

    __slots__ = ("output", "needed")

    def __init__(self, output, needed):
        self.output = output
        self.needed = needed


class NodeLowering:
    """Lowered node: ``demand() -> W`` and ``step(supplied_w, dt)``."""

    __slots__ = ("node", "demand", "step")

    def __init__(self, node, demand, step):
        self.node = node
        self.demand = demand
        self.step = step


class SystemLowering:
    """Every lowered piece of one system, ready for plan composition."""

    __slots__ = ("system", "bank", "channels", "output", "node",
                 "manager_control", "quiescent_a", "bus")

    def __init__(self, system, bank, channels, output, node,
                 manager_control, quiescent_a, bus):
        self.system = system
        self.bank = bank
        self.channels = channels
        self.output = output
        self.node = node
        #: (t, dt, system) -> None, or None for unmanaged platforms.
        self.manager_control = manager_control
        #: Hoisted MultiSourceSystem.total_quiescent_current_a.
        self.quiescent_a = quiescent_a
        self.bus = bus
