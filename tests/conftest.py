"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.environment import (
    Environment,
    SourceType,
    Trace,
    indoor_industrial_environment,
    outdoor_environment,
)

DAY = 86_400.0


@pytest.fixture(scope="session")
def outdoor_env() -> Environment:
    """Two deterministic outdoor days at 5-minute resolution."""
    return outdoor_environment(duration=2 * DAY, dt=300.0, seed=1234)


@pytest.fixture(scope="session")
def indoor_env() -> Environment:
    """Two deterministic indoor days at 5-minute resolution."""
    return indoor_industrial_environment(duration=2 * DAY, dt=300.0,
                                         seed=1234)


@pytest.fixture
def refuse_codegen(monkeypatch):
    """Make the engine's fused codegen attempt refuse every plan.

    Under ``fast="auto"`` a fused-shape run (the single-supercapacitor /
    P&O platform) then takes the scalar kernel, ``run_plan``, as every
    other shape does; tests meant for the scalar kernel use this.
    """
    from repro.simulation import engine
    from repro.simulation.kernel import LoweringUnsupported

    def refuse(plan, compiled):
        raise LoweringUnsupported("fused codegen refused by the test",
                                  capability="fused codegen emission")

    monkeypatch.setattr(engine, "prepare_codegen", refuse)


@pytest.fixture
def flat_light_env() -> Environment:
    """Constant 500 W/m^2 light for analytic comparisons."""
    return Environment(
        {SourceType.LIGHT: Trace.constant(500.0, DAY, dt=60.0)},
        name="flat-light",
    )
