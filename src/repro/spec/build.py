"""Resolve declarative specs into live objects and execute them.

The other half of the spec layer: :mod:`repro.spec.specs` describes a
simulation as plain data; this module materializes and runs it.

* :func:`build` — any spec -> live object (system, environment, or bare
  component);
* :func:`run` — a :class:`~repro.spec.specs.RunSpec` -> a finished
  :class:`~repro.simulation.SimulationResult`;
* :func:`run_sweep` — a :class:`~repro.spec.specs.SweepSpec` -> a
  :class:`~repro.simulation.SweepResult` (process-parallel: specs are
  pure data, so no module-level factories are needed);
* :func:`spec_for` — the canonical :class:`SystemSpec` of a Table I
  letter, guaranteed to rebuild the exact platform of
  :func:`repro.systems.build_system`.

All repro imports happen lazily inside functions: component modules
import :mod:`repro.spec.registry` at class-definition time, so this
module must never import them back at import time.
"""

from __future__ import annotations

import dataclasses

from .registry import REGISTRY
from .specs import (
    ComponentSpec,
    EnvironmentSpec,
    MonteCarloSpec,
    RunSpec,
    SweepSpec,
    SystemSpec,
)

__all__ = [
    "build",
    "build_component",
    "build_environment",
    "run",
    "run_sweep",
    "run_montecarlo",
    "run_fleet",
    "spec_for",
    "to_scenario",
    "describe_registry",
]

_registered = False


def _ensure_registered() -> None:
    """Import every package that self-registers components.

    Registration happens at class-definition time via decorators; this
    forces those modules in so a bare ``import repro.spec`` suffices to
    resolve any canonical spec.
    """
    global _registered
    if _registered:
        return
    # Import every component package explicitly — relying on the system
    # modules' transitive imports would silently skip any component that
    # no surveyed platform happens to use yet.
    from .. import (  # noqa: F401
        conditioning,
        core,
        environment,
        harvesters,
        load,
        storage,
        systems,
    )
    _registered = True


def _resolve_params(params: dict) -> dict:
    """Recursively materialize nested component specs inside params."""
    return {key: _resolve_value(value) for key, value in params.items()}


def _resolve_value(value):
    if isinstance(value, ComponentSpec):
        return build_component(value)
    if isinstance(value, dict):
        return {key: _resolve_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_resolve_value(item) for item in value]
    return value


def build_component(spec: ComponentSpec):
    """Materialize one registered component from its spec."""
    _ensure_registered()
    factory = REGISTRY.get(spec.category, spec.type)
    return factory(**_resolve_params(spec.params))


def build_environment(spec: EnvironmentSpec, *, seed: int | None = None):
    """Materialize an :class:`~repro.environment.Environment`.

    ``seed`` (when given) overrides the spec's own seed — how sweeps
    inject deterministic per-scenario seeding.
    """
    _ensure_registered()
    factory = REGISTRY.get("environment", spec.environment)
    return factory(**_resolve_params(spec.factory_kwargs(seed=seed)))


def build(spec):
    """Materialize any spec into the live object it describes.

    * :class:`SystemSpec` -> :class:`~repro.core.MultiSourceSystem`
    * :class:`EnvironmentSpec` -> :class:`~repro.environment.Environment`
    * :class:`ComponentSpec` -> the registered component

    :class:`RunSpec` / :class:`SweepSpec` describe *executions*, not
    single objects — use :func:`run` / :func:`run_sweep` for those.
    """
    if isinstance(spec, SystemSpec):
        _ensure_registered()
        factory = REGISTRY.get("system", spec.system)
        return factory(**_resolve_params(spec.params))
    if isinstance(spec, EnvironmentSpec):
        return build_environment(spec)
    if isinstance(spec, ComponentSpec):
        return build_component(spec)
    if isinstance(spec, (RunSpec, SweepSpec)):
        raise TypeError(f"{type(spec).__name__} describes an execution; "
                        f"use repro.spec.run()/run_sweep() instead of build()")
    raise TypeError(f"cannot build {spec!r}; expected a SystemSpec, "
                    f"EnvironmentSpec, or ComponentSpec")


def spec_for(letter: str, **overrides) -> SystemSpec:
    """Canonical spec of a surveyed platform by its Table I letter.

    ``build(spec_for("C"))`` is the same platform as
    ``build_system("C")`` — bit-identical under simulation. Keyword
    overrides flow into the builder (e.g. ``initial_soc=0.8``).
    """
    _ensure_registered()
    from ..systems.registry import spec_for as _system_spec_for
    return _system_spec_for(letter, **overrides)


def run(spec: RunSpec, *, fast=None):
    """Execute one run spec; returns a
    :class:`~repro.simulation.SimulationResult`."""
    from ..simulation.engine import simulate
    if not isinstance(spec, RunSpec):
        raise TypeError(f"run() takes a RunSpec, got {type(spec).__name__}")
    system = build(spec.system)
    environment = build_environment(spec.environment, seed=spec.seed)
    return simulate(system, environment, duration=spec.duration,
                    dt=spec.dt, fast=spec.fast if fast is None else fast)


def to_scenario(spec: RunSpec):
    """One run spec as a :class:`~repro.simulation.ScenarioSpec` row.

    The scenario carries the specs themselves (plain data), so the
    resulting sweep payload pickles across process boundaries without
    module-level factory functions.
    """
    from ..simulation.sweep import ScenarioSpec
    params = dict(spec.params) or {
        "system": spec.system.system,
        "environment": spec.environment.environment,
    }
    return ScenarioSpec(
        name=spec.label,
        system=spec.system,
        environment=spec.environment,
        duration=spec.duration,
        dt=spec.dt,
        seed=spec.seed,
        params=params,
        fast=spec.fast,
    )


def run_sweep(spec: SweepSpec, *, processes: int | None = None, fast=None,
              batch="auto", catalog=None):
    """Execute every run of a sweep spec via
    :class:`~repro.simulation.SweepRunner`; returns a
    :class:`~repro.simulation.SweepResult` in input order.

    ``fast`` (when given) overrides the engine-path selection of every
    scenario — how the CLI's ``--fast`` reaches a sweep.
    ``batch`` selects the lockstep batched tier (``"auto"``/``True``/
    ``False``, see :class:`~repro.simulation.SweepRunner`). ``catalog``
    (a :class:`~repro.catalog.Catalog`) enables the dedup cache and
    per-scenario checkpointing.
    """
    from ..simulation.sweep import SweepRunner
    if not isinstance(spec, SweepSpec):
        raise TypeError(f"run_sweep() takes a SweepSpec, "
                        f"got {type(spec).__name__}")
    effective = spec.processes if processes is None else processes
    runner = SweepRunner(processes=effective,
                         fast=spec.fast if fast is None else fast,
                         batch=batch, catalog=catalog)
    scenarios = [to_scenario(run_spec) for run_spec in spec.runs]
    if fast is not None:
        scenarios = [dataclasses.replace(s, fast=fast) for s in scenarios]
    return runner.run(scenarios)


def run_montecarlo(spec: MonteCarloSpec, *, tier: str = "auto",
                   processes: int | None = None, fast=None, catalog=None):
    """Execute a Monte Carlo spec via
    :func:`repro.simulation.montecarlo.run_ensemble`; returns an
    :class:`~repro.simulation.EnsembleResult`.

    ``tier`` pins the execution tier (``"auto"`` / ``"batched"`` /
    ``"multiprocessing"`` / ``"in-process"``); ``fast`` (when given)
    overrides the engine-path selection of every replicate; ``catalog``
    enables per-replicate dedup and checkpointing.
    """
    from ..simulation.montecarlo import run_ensemble
    if not isinstance(spec, MonteCarloSpec):
        raise TypeError(f"run_montecarlo() takes a MonteCarloSpec, "
                        f"got {type(spec).__name__}")
    return run_ensemble(spec, tier=tier, processes=processes,
                        fast="auto" if fast is None else fast,
                        catalog=catalog)


def run_fleet(spec, *, tier: str = "auto", processes: int | None = None,
              fast=None, catalog=None):
    """Execute a :class:`~repro.spec.specs.FleetSpec` via
    :func:`repro.fleet.run_fleet`; returns a
    :class:`~repro.fleet.FleetResult`.

    Same knobs as :func:`run_montecarlo`: ``tier`` pins the execution
    tier, ``fast`` overrides every node's engine path, ``catalog``
    dedups the derived per-node scenarios.
    """
    from ..fleet import run_fleet as _run_fleet
    from .specs import FleetSpec
    if not isinstance(spec, FleetSpec):
        raise TypeError(f"run_fleet() takes a FleetSpec, "
                        f"got {type(spec).__name__}")
    return _run_fleet(spec, tier=tier, processes=processes, fast=fast,
                      catalog=catalog)


def describe_registry(category: str | None = None) -> dict:
    """JSON-able catalog of every registered component."""
    _ensure_registered()
    return REGISTRY.describe(category)
