"""The survey's design taxonomy as typed vocabulary.

Section II of the survey introduces a taxonomy of multi-source energy
harvesting systems along four axes, "subsequently used to classify the
design of existing systems" (Table I). This module encodes each axis as an
enum whose members map one-to-one onto the options the survey enumerates,
plus :class:`ArchitectureDescriptor`, the metadata block every system
model carries so the classifier (:mod:`repro.core.classification`) can
regenerate Table I from live objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "ConditioningLocation",
    "InputConditioningStyle",
    "OutputStageStyle",
    "HardwareFlexibility",
    "MonitoringCapability",
    "ControlCapability",
    "IntelligenceLocation",
    "CommunicationStyle",
    "ArchitectureDescriptor",
]


class ConditioningLocation(enum.Enum):
    """Where the input power conditioning circuitry lives (Sec. III.1)."""

    POWER_UNIT = "power unit"        # all systems except B
    PER_MODULE = "per energy module"  # System B's interface boards


class InputConditioningStyle(enum.Enum):
    """How the harvester operating point is chosen (Sec. II.1)."""

    MPPT = "mppt"                    # tracking arrangement (System A, C...)
    FIXED_POINT = "fixed point"      # System B's compromise
    DIODE_ONLY = "diode only"        # bare rectifier/blocker front end


class OutputStageStyle(enum.Enum):
    """Output conditioning between store and load (Sec. II.1)."""

    BUCK_BOOST = "buck-boost"        # System A
    LINEAR_REGULATOR = "linear regulator"  # System B
    DIRECT = "direct"                # unregulated store-to-load


class HardwareFlexibility(enum.Enum):
    """The exchangeable-hardware ladder of Sec. II.2, in ascending order."""

    FIXED = "fixed"
    SWAPPABLE_HARVESTERS = "swappable harvesters"
    SWAPPABLE_HARVESTERS_AND_STORAGE = "swappable harvesters and storage"
    COMPLETELY_FLEXIBLE = "completely flexible"

    def __lt__(self, other):
        if not isinstance(other, HardwareFlexibility):
            return NotImplemented
        return _RANK[self] < _RANK[other]

    def __le__(self, other):
        return self == other or self < other


class MonitoringCapability(enum.Enum):
    """Energy monitoring ladder of Sec. II.3, in ascending order."""

    NONE = "none"
    STORE_VOLTAGE = "store voltage"       # analog line (systems C, D)
    DEVICE_ACTIVITY = "device activity"   # which devices are active (F)
    FULL = "full"                         # stored energy + input power (A, B)

    def __lt__(self, other):
        if not isinstance(other, MonitoringCapability):
            return NotImplemented
        return _RANK[self] < _RANK[other]

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        if not isinstance(other, MonitoringCapability):
            return NotImplemented
        return not self < other

    def __gt__(self, other):
        if not isinstance(other, MonitoringCapability):
            return NotImplemented
        return other < self


#: Declaration rank of each member of the two ordered ladders.
_RANK = {member: rank
         for ladder in (HardwareFlexibility, MonitoringCapability)
         for rank, member in enumerate(ladder)}


class ControlCapability(enum.Enum):
    """Whether the communication is one-way or two-way (Sec. II.3)."""

    NONE = "none"
    OBSERVE_ONLY = "observe only"
    TWO_WAY = "two-way"  # the MCU can "impose changes on the power conditioning"


class IntelligenceLocation(enum.Enum):
    """Where the energy-awareness computation runs (Sec. II.4)."""

    NONE = "none"                      # systems C, D, E, G
    EMBEDDED_DEVICE = "embedded device"  # System B
    POWER_UNIT = "power unit"          # systems A, F
    ENERGY_DEVICES = "energy devices"  # the 'smart harvester' future scheme


class CommunicationStyle(enum.Enum):
    """Physical style of the energy-status interface (Sec. II.3)."""

    NONE = "none"
    ANALOG = "analog"
    DIGITAL = "digital"


@dataclass
class ArchitectureDescriptor:
    """Static design metadata carried by every system model.

    Fields mirror the design decisions of Table I that are properties of
    the platform rather than of the live simulation state. Dynamic rows
    (harvester/store counts, types) are derived from the model itself by
    the classifier.
    """

    name: str
    short_name: str = ""
    conditioning_location: ConditioningLocation = ConditioningLocation.POWER_UNIT
    input_style: InputConditioningStyle = InputConditioningStyle.MPPT
    output_style: OutputStageStyle = OutputStageStyle.BUCK_BOOST
    flexibility: HardwareFlexibility = HardwareFlexibility.FIXED
    monitoring: MonitoringCapability = MonitoringCapability.NONE
    control: ControlCapability = ControlCapability.NONE
    intelligence: IntelligenceLocation = IntelligenceLocation.NONE
    communication: CommunicationStyle = CommunicationStyle.NONE
    swappable_sensor_node: bool = False
    swappable_storage_detail: str = "No"
    swappable_harvester_detail: str = "No"
    energy_monitoring_detail: str = "No"
    quiescent_current_a: float = 0.0
    quiescent_is_upper_bound: bool = False  # Table I's "< x uA" entries
    commercial: bool = False
    auto_recognition: bool = False  # datasheet-driven swap recognition (B)
    shared_slots: int = 0           # harvester/storage-agnostic slots (B: 6)
    reference: str = ""
    # Table I lists *supported* device types, which may exceed what is
    # physically installed (e.g. System E: 2 inputs, 3 supported types).
    # When set, the classifier renders these; tests check the installed
    # hardware's labels are a subset.
    supported_harvester_labels: tuple = ()
    supported_storage_labels: tuple = ()
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("architecture name is required")
        if self.quiescent_current_a < 0:
            raise ValueError("quiescent_current_a must be non-negative")
        if self.shared_slots < 0:
            raise ValueError("shared_slots must be non-negative")
        if not self.short_name:
            self.short_name = self.name

    @property
    def quiescent_display(self) -> str:
        """Table I style rendering, e.g. ``"< 5 uA"`` or ``"75 uA"``."""
        ua = self.quiescent_current_a * 1e6
        prefix = "< " if self.quiescent_is_upper_bound else ""
        if ua >= 10 or ua == int(ua):
            return f"{prefix}{ua:.0f} uA"
        return f"{prefix}{ua:g} uA"

    @property
    def has_digital_interface(self) -> bool:
        """Table I "Digital Interface" row: an *explicit* digital energy-
        status interface to the embedded system (true of A and F only)."""
        return (self.communication is CommunicationStyle.DIGITAL and
                self.intelligence is IntelligenceLocation.POWER_UNIT)
