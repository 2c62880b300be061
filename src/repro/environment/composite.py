"""Prebuilt deployment environments used across the experiment suite.

The survey stresses that harvester choice is *deployment-specific*
("the importance of considering the deployment environment when choosing
energy hardware", Sec. IV). These factories bundle the channel generators
into the deployment archetypes the surveyed systems target:

* :func:`outdoor_environment` — System A / AmbiMax territory: sun + wind
  (+ small diurnal thermal gradient).
* :func:`indoor_industrial_environment` — System B territory: office-level
  light, machine vibration, machine thermal gradients, ambient RF.
* :func:`agricultural_environment` — System D (MPWiNode) territory: sun,
  wind, irrigation water flow.
* :func:`urban_rf_environment` — systems E/F/G territory: indoor light,
  broadcast RF, occasional reader bursts, mains vibration.
"""

from __future__ import annotations

from ..spec.registry import register

from .ambient import Environment, SourceType
from .indoor_light import OfficeLightingModel
from .rf_field import BroadcastRFModel, ReaderRFModel
from .solar import SolarModel
from .thermal import DiurnalThermalModel, MachineThermalModel
from .vibration import MachineVibrationModel
from .water_flow import IrrigationFlowModel
from .wind import WindModel

__all__ = [
    "outdoor_environment",
    "indoor_industrial_environment",
    "agricultural_environment",
    "urban_rf_environment",
    "scaled_environment",
]

DAY = 86_400.0

#: ``[key, environment]``: the last base realization
#: :func:`scaled_environment` built.
_LAST_BASE: list = [None, None]


@register("environment", "scaled")
def scaled_environment(duration: float | None = None,
                       dt: float | None = None, *,
                       base: str = "outdoor", scale: float = 1.0,
                       offset: float = 0.0, base_params: dict | None = None,
                       seed: int = 0) -> Environment:
    """An affine per-channel transform of a registered base environment.

    Every channel trace of the base becomes ``trace * scale + offset``
    (offsets in the channel's native units). The base environment is
    built from the same ``seed``, so N scaled variants of one seed share
    a single stochastic realization — how fleet nodes see one ambient
    field through per-node micro-siting factors (partial shading, mast
    height, distance to the machine). The last base realization built is
    kept and scaled again while calls ask for the same base factory,
    seed and keyword arguments: synthesis is deterministic, so it equals
    a fresh build trace for trace. The identity transform
    (``scale == 1.0 and offset == 0.0``) returns the base environment
    itself, bit-for-bit.
    """
    from ..spec.registry import REGISTRY
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    kwargs = dict(base_params or {})
    if duration is not None:
        kwargs["duration"] = duration
    if dt is not None:
        kwargs["dt"] = dt
    factory = REGISTRY.get("environment", base)
    key = (factory, seed, kwargs)
    if _LAST_BASE[0] != key:
        _LAST_BASE[:] = [key, factory(seed=seed, **kwargs)]
    environment = _LAST_BASE[1]
    if scale == 1.0 and offset == 0.0:
        return environment
    channels = {source: environment.trace(source) * scale + offset
                for source in environment.sources}
    return Environment(channels,
                       name=f"{environment.name}*{scale:g}{offset:+g}")


@register("environment", "outdoor")
def outdoor_environment(duration: float = 7 * DAY, dt: float = 60.0, *,
                        cloudiness: float = 0.3, mean_wind: float = 5.0,
                        day_fraction: float = 0.5, seed: int = 0,
                        overcast_windows: tuple = (),
                        calm_windows: tuple = ()) -> Environment:
    """Temperate outdoor site: solar + complementary wind + diurnal thermal.

    ``overcast_windows`` / ``calm_windows`` script lulls for backup-storage
    experiments (E10).
    """
    solar = SolarModel(cloudiness=cloudiness, day_fraction=day_fraction,
                       seed=seed).trace(duration, dt,
                                        overcast_windows=overcast_windows)
    wind = WindModel(mean_speed=mean_wind, seed=seed + 1).trace(
        duration, dt, calm_windows=calm_windows)
    thermal = DiurnalThermalModel(seed=seed + 2).trace(duration, dt)
    return Environment(
        {SourceType.LIGHT: solar, SourceType.WIND: wind, SourceType.THERMAL: thermal},
        name="outdoor-temperate",
    )


@register("environment", "indoor-industrial")
def indoor_industrial_environment(duration: float = 7 * DAY, dt: float = 60.0, *,
                                  work_lux: float = 400.0, accel_rms: float = 2.0,
                                  delta_t_running: float = 25.0,
                                  seed: int = 0) -> Environment:
    """Indoor industrial site (System B's target): light, vibration,
    machine thermal gradient, weak ambient RF."""
    light = OfficeLightingModel(work_lux=work_lux, seed=seed).trace(duration, dt)
    vib = MachineVibrationModel(accel_rms=accel_rms, seed=seed + 1).trace(duration, dt)
    thermal = MachineThermalModel(delta_t_running=delta_t_running,
                                  seed=seed + 2).trace(duration, dt)
    rf = BroadcastRFModel(mean_density=0.005, seed=seed + 3).trace(duration, dt)
    return Environment(
        {
            SourceType.LIGHT: light,
            SourceType.VIBRATION: vib,
            SourceType.THERMAL: thermal,
            SourceType.RF: rf,
        },
        name="indoor-industrial",
    )


@register("environment", "agricultural")
def agricultural_environment(duration: float = 7 * DAY, dt: float = 60.0, *,
                             cloudiness: float = 0.25, mean_wind: float = 4.0,
                             flow_speed: float = 1.0, seed: int = 0) -> Environment:
    """Agricultural site (System D's target): sun, wind, irrigation flow."""
    solar = SolarModel(cloudiness=cloudiness, seed=seed).trace(duration, dt)
    wind = WindModel(mean_speed=mean_wind, seed=seed + 1).trace(duration, dt)
    water = IrrigationFlowModel(flow_speed=flow_speed, seed=seed + 2).trace(duration, dt)
    return Environment(
        {SourceType.LIGHT: solar, SourceType.WIND: wind, SourceType.WATER_FLOW: water},
        name="agricultural",
    )


@register("environment", "urban-rf")
def urban_rf_environment(duration: float = 7 * DAY, dt: float = 60.0, *,
                         work_lux: float = 300.0, broadcast_density: float = 0.01,
                         seed: int = 0) -> Environment:
    """Urban indoor site for RF-centric commercial kits (systems E/F/G)."""
    light = OfficeLightingModel(work_lux=work_lux, seed=seed).trace(duration, dt)
    broadcast = BroadcastRFModel(mean_density=broadcast_density,
                                 seed=seed + 1).trace(duration, dt)
    reader = ReaderRFModel(seed=seed + 2).trace(duration, dt)
    vib = MachineVibrationModel(accel_rms=0.8, shift_hours=(0.0, 24.0),
                                run_fraction=0.5, seed=seed + 3).trace(duration, dt)
    return Environment(
        {
            SourceType.LIGHT: light,
            SourceType.RF: broadcast + reader,
            SourceType.VIBRATION: vib,
        },
        name="urban-rf",
    )
