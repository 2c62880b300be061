"""Simulation recorder: per-step power-flow history as columnar arrays.

The seed recorder kept a Python list of
:class:`~repro.core.SystemStepRecord` objects and rebuilt a fresh numpy
array on *every* column access, so ``compute_metrics`` re-scanned all
records once per column. This version is columnar: scalar columns live in
preallocated float64 arrays grown geometrically, filled either

* on :meth:`append` (the legacy per-step engine path), which extracts
  the columns of each record and keeps no record object, or
* directly by the fast-path kernel through :meth:`reserve` /
  :meth:`columns_for_writing` / :meth:`commit`, skipping record objects
  entirely.

Either way, metrics and trace extraction read the same arrays, which is
what makes the fast path's results bit-for-bit comparable with the legacy
path's.
"""

from __future__ import annotations

import numpy as np

from ..core.system import SystemStepRecord
from ..environment.trace import Trace
from ..load.node import NodeState

__all__ = ["Recorder", "STATE_RUNNING", "STATE_DEAD", "STATE_REBOOTING"]

#: Integer codes for the node state column (``state_codes``).
STATE_RUNNING = 0
STATE_DEAD = 1
STATE_REBOOTING = 2

_STATE_CODE = {
    NodeState.RUNNING: STATE_RUNNING,
    NodeState.DEAD: STATE_DEAD,
    NodeState.REBOOTING: STATE_REBOOTING,
}

#: Scalar column names, in storage order.
SCALAR_COLUMNS = (
    "t",
    "harvest_raw",
    "harvest_delivered",
    "harvest_mpp",
    "charge_accepted",
    "quiescent",
    "node_demand",
    "node_supplied",
    "node_consumed",
    "backup_power",
    "measurements",
)

_MIN_CAPACITY = 256


class Recorder:
    """Accumulates per-step columns and exposes them as traces/arrays.

    Parameters
    ----------
    dt:
        Simulation timestep, seconds.
    """

    def __init__(self, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self._n = 0
        self._capacity = 0
        self._scalars: dict = {}
        self._state: np.ndarray | None = None
        self._store_energy: np.ndarray | None = None   # (cap, n_stores)
        self._store_voltage: np.ndarray | None = None  # (cap, n_stores)
        self._channel_power: np.ndarray | None = None  # (cap, n_channels)

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    def _allocate(self, n_stores: int, n_channels: int,
                  capacity: int) -> None:
        self._capacity = capacity
        self._scalars = {name: np.empty(capacity, dtype=np.float64)
                         for name in SCALAR_COLUMNS}
        self._state = np.empty(capacity, dtype=np.int8)
        self._store_energy = np.empty((capacity, n_stores), dtype=np.float64)
        self._store_voltage = np.empty((capacity, n_stores), dtype=np.float64)
        self._channel_power = np.empty((capacity, n_channels),
                                       dtype=np.float64)

    def _grow(self, min_capacity: int) -> None:
        new_cap = max(_MIN_CAPACITY, self._capacity)
        while new_cap < min_capacity:
            new_cap *= 2
        if new_cap == self._capacity:
            return
        for name, arr in self._scalars.items():
            grown = np.empty(new_cap, dtype=np.float64)
            grown[:self._n] = arr[:self._n]
            self._scalars[name] = grown
        for attr in ("_state", "_store_energy", "_store_voltage",
                     "_channel_power"):
            arr = getattr(self, attr)
            shape = (new_cap,) + arr.shape[1:]
            grown = np.empty(shape, dtype=arr.dtype)
            grown[:self._n] = arr[:self._n]
            setattr(self, attr, grown)
        self._capacity = new_cap

    def reserve(self, n_steps: int, n_stores: int, n_channels: int) -> None:
        """Preallocate room for ``n_steps`` more appended steps.

        Called by the engine at run start so neither path reallocates
        mid-loop. First call fixes the store/channel widths.
        """
        needed = self._n + n_steps
        if self._capacity == 0:
            self._allocate(n_stores, n_channels, max(_MIN_CAPACITY, needed))
        elif needed > self._capacity:
            self._grow(needed)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: SystemStepRecord) -> None:
        """Append one step record, extracting its columns eagerly."""
        n = self._n
        if self._capacity == 0:
            self._allocate(len(record.store_energies_j),
                           len(record.per_channel), _MIN_CAPACITY)
        elif n >= self._capacity:
            self._grow(n + 1)
        scalars = self._scalars
        scalars["t"][n] = record.t
        scalars["harvest_raw"][n] = record.harvest_raw_w
        scalars["harvest_delivered"][n] = record.harvest_delivered_w
        scalars["harvest_mpp"][n] = record.harvest_mpp_w
        scalars["charge_accepted"][n] = record.charge_accepted_w
        scalars["quiescent"][n] = record.quiescent_w
        scalars["node_demand"][n] = record.node_demand_w
        scalars["node_supplied"][n] = record.node_supplied_w
        node_result = record.node_result
        scalars["node_consumed"][n] = node_result.consumed_w
        scalars["backup_power"][n] = record.backup_power_w
        scalars["measurements"][n] = node_result.measurements
        self._state[n] = _STATE_CODE[node_result.state]
        self._store_energy[n] = record.store_energies_j
        self._store_voltage[n] = record.store_voltages
        for j, hs in enumerate(record.per_channel):
            self._channel_power[n, j] = hs.delivered_power
        self._n = n + 1

    def columns_for_writing(self) -> tuple:
        """Raw writable arrays for the fast-path kernel.

        Returns ``(scalars_dict, state, store_energy, store_voltage,
        channel_power, start_index)``. The caller must write rows
        ``start_index .. start_index + k - 1`` and then :meth:`commit`
        ``k`` appended steps. :meth:`reserve` must have been called with
        enough room first.
        """
        return (self._scalars, self._state, self._store_energy,
                self._store_voltage, self._channel_power, self._n)

    def commit(self, n_steps: int) -> None:
        """Declare ``n_steps`` rows written through raw column access."""
        if self._n + n_steps > self._capacity:
            raise ValueError("commit beyond reserved capacity")
        self._n += n_steps

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Column extraction
    # ------------------------------------------------------------------
    @property
    def n_stores(self) -> int:
        return 0 if self._store_energy is None else self._store_energy.shape[1]

    @property
    def n_channels(self) -> int:
        return 0 if self._channel_power is None else \
            self._channel_power.shape[1]

    def state_codes(self) -> np.ndarray:
        """Node state per step (``STATE_RUNNING`` / ``_DEAD`` / ``_REBOOTING``)."""
        if self._state is None:
            return np.empty(0, dtype=np.int8)
        return self._state[:self._n]

    def column(self, name: str) -> np.ndarray:
        """Named scalar column as a float64 array (a view, do not mutate)."""
        derived = _DERIVED_COLUMNS.get(name)
        if derived is not None:
            return derived(self)
        try:
            arr = self._scalars[name]
        except KeyError:
            available = sorted(set(SCALAR_COLUMNS) - {"t"} |
                               set(_DERIVED_COLUMNS))
            raise KeyError(
                f"unknown column {name!r}; available: {available}"
            ) from None
        return arr[:self._n]

    def trace(self, column: str) -> Trace:
        """Named column as a Trace.

        Columns: ``harvest_raw``, ``harvest_delivered``, ``harvest_mpp``,
        ``charge_accepted``, ``quiescent``, ``node_demand``,
        ``node_supplied``, ``node_consumed``, ``backup_power``,
        ``stored_energy``, ``bus_voltage``, ``alive``, ``measurements``.
        """
        if column == "t":
            raise KeyError(
                "unknown column 't'; use the trace's own time base")
        return Trace(self.column(column).copy(), self.dt, name=column)

    def store_energy_trace(self, index: int) -> Trace:
        """Energy history of one store."""
        if self._store_energy is None or not \
                0 <= index < self._store_energy.shape[1]:
            raise IndexError(f"no store column {index}")
        return Trace(self._store_energy[:self._n, index].copy(),
                     self.dt, name=f"store[{index}]", units="J")

    def channel_delivered_trace(self, index: int) -> Trace:
        """Delivered-power history of one harvesting channel."""
        if self._channel_power is None or not \
                0 <= index < self._channel_power.shape[1]:
            raise IndexError(f"no channel column {index}")
        return Trace(self._channel_power[:self._n, index].copy(),
                     self.dt, name=f"channel[{index}]", units="W")


def _stored_energy(rec: Recorder) -> np.ndarray:
    if rec._store_energy is None:
        return np.empty(0, dtype=np.float64)
    return rec._store_energy[:rec._n].sum(axis=1)


def _bus_voltage(rec: Recorder) -> np.ndarray:
    if rec._store_voltage is None or rec._store_voltage.shape[1] == 0:
        return np.zeros(rec._n, dtype=np.float64)
    return rec._store_voltage[:rec._n, 0]


def _alive(rec: Recorder) -> np.ndarray:
    return (rec.state_codes() == STATE_RUNNING).astype(np.float64)


#: Columns computed from the stored ones on access.
_DERIVED_COLUMNS = {
    "stored_energy": _stored_energy,
    "bus_voltage": _bus_voltage,
    "alive": _alive,
}
