"""Tests for ambient channels and the synthetic environment generators."""

import numpy as np
import pytest

from repro.environment import (
    AmbientSample,
    BroadcastRFModel,
    DiurnalThermalModel,
    Environment,
    IrrigationFlowModel,
    MachineThermalModel,
    MachineVibrationModel,
    OfficeLightingModel,
    ReaderRFModel,
    SolarModel,
    SourceType,
    StreamFlowModel,
    Trace,
    WindModel,
    lux_to_irradiance,
)

DAY = 86_400.0


class TestSourceType:
    def test_every_source_has_units(self):
        for source in SourceType:
            assert isinstance(source.units, str) and source.units

    def test_light_units(self):
        assert SourceType.LIGHT.units == "W/m^2"


class TestAmbientSample:
    def test_missing_channel_reads_zero(self):
        assert AmbientSample({}).get(SourceType.WIND) == 0.0

    def test_with_channel_is_functional(self):
        base = AmbientSample({SourceType.LIGHT: 100.0})
        updated = base.with_channel(SourceType.WIND, 5.0)
        assert base.get(SourceType.WIND) == 0.0
        assert updated.get(SourceType.WIND) == 5.0
        assert updated.get(SourceType.LIGHT) == 100.0


class TestEnvironment:
    def test_rejects_non_sourcetype_keys(self):
        with pytest.raises(TypeError):
            Environment({"light": Trace([1.0], dt=1.0)})

    def test_rejects_mixed_dt(self):
        with pytest.raises(ValueError, match="share dt"):
            Environment({
                SourceType.LIGHT: Trace([1.0], dt=1.0),
                SourceType.WIND: Trace([1.0], dt=2.0),
            })

    def test_sample_returns_all_channels(self):
        env = Environment({
            SourceType.LIGHT: Trace([100.0, 200.0], dt=10.0),
            SourceType.WIND: Trace([3.0, 4.0], dt=10.0),
        })
        sample = env.sample(10.0)
        assert sample.get(SourceType.LIGHT) == 200.0
        assert sample.get(SourceType.WIND) == 4.0

    def test_duration_is_longest_channel(self):
        env = Environment({
            SourceType.LIGHT: Trace([1.0] * 10, dt=1.0),
            SourceType.WIND: Trace([1.0] * 5, dt=1.0),
        })
        assert env.duration == 10.0

    def test_merged_with_overrides(self):
        a = Environment({SourceType.LIGHT: Trace([1.0], dt=1.0)}, name="a")
        b = Environment({SourceType.LIGHT: Trace([9.0], dt=1.0)}, name="b")
        merged = a.merged_with(b)
        assert merged.trace(SourceType.LIGHT).values[0] == 9.0

    def test_has(self):
        env = Environment({SourceType.LIGHT: Trace([1.0], dt=1.0)})
        assert env.has(SourceType.LIGHT)
        assert not env.has(SourceType.RF)


class TestSolarModel:
    def test_seed_determinism(self):
        a = SolarModel(seed=7).trace(DAY, dt=300.0)
        b = SolarModel(seed=7).trace(DAY, dt=300.0)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = SolarModel(seed=1).trace(DAY, dt=300.0)
        b = SolarModel(seed=2).trace(DAY, dt=300.0)
        assert not np.array_equal(a.values, b.values)

    def test_night_is_dark(self):
        model = SolarModel(day_fraction=0.5, cloudiness=0.0, seed=0)
        # Midnight (t=0) and 3am must be dark with a noon-centred sun.
        assert model.clear_sky(0.0) == 0.0
        assert model.clear_sky(3 * 3600.0) == 0.0

    def test_noon_is_peak(self):
        model = SolarModel(peak_irradiance=800.0, day_fraction=0.5)
        assert model.clear_sky(DAY / 2) == pytest.approx(800.0)

    def test_clear_sky_never_exceeds_peak(self):
        model = SolarModel(peak_irradiance=1000.0)
        values = [model.clear_sky(t) for t in np.arange(0, DAY, 600)]
        assert max(values) <= 1000.0

    def test_trace_nonnegative_and_bounded(self):
        tr = SolarModel(seed=3).trace(2 * DAY, dt=300.0)
        assert tr.min() >= 0.0
        assert tr.max() <= 1000.0

    def test_overcast_window_attenuates(self):
        clear = SolarModel(cloudiness=0.0, seed=0).trace(DAY, dt=300.0)
        lull = SolarModel(cloudiness=0.0, seed=0).trace(
            DAY, dt=300.0, overcast_windows=((0.0, DAY),))
        noon = int((DAY / 2) / 300)
        assert lull.values[noon] == pytest.approx(0.07 * clear.values[noon])

    def test_day_fraction_validation(self):
        with pytest.raises(ValueError):
            SolarModel(day_fraction=0.01)

    def test_cloudiness_validation(self):
        with pytest.raises(ValueError):
            SolarModel(cloudiness=1.5)

    def test_longer_day_more_energy(self):
        winter = SolarModel(day_fraction=0.33, cloudiness=0.0).trace(DAY, 300)
        summer = SolarModel(day_fraction=0.67, cloudiness=0.0).trace(DAY, 300)
        assert summer.integral() > winter.integral()


class TestWindModel:
    def test_seed_determinism(self):
        a = WindModel(seed=5).trace(DAY, dt=300.0)
        b = WindModel(seed=5).trace(DAY, dt=300.0)
        assert np.array_equal(a.values, b.values)

    def test_nonnegative(self):
        tr = WindModel(seed=9).trace(2 * DAY, dt=300.0)
        assert tr.min() >= 0.0

    def test_long_run_mean_near_target(self):
        tr = WindModel(mean_speed=5.0, diurnal_amplitude=0.0,
                       gustiness=0.0, seed=11).trace(30 * DAY, dt=1800.0)
        assert tr.mean() == pytest.approx(5.0, rel=0.25)

    def test_calm_window_reduces_speed(self):
        normal = WindModel(seed=2).trace(DAY, dt=300.0)
        calmed = WindModel(seed=2).trace(DAY, dt=300.0,
                                         calm_windows=((0.0, DAY),))
        assert calmed.mean() == pytest.approx(0.15 * normal.mean(), rel=1e-9)

    def test_zero_mean_speed_gives_zero_trace(self):
        tr = WindModel(mean_speed=0.0, seed=1).trace(DAY, dt=600.0)
        assert tr.max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindModel(mean_speed=-1.0)
        with pytest.raises(ValueError):
            WindModel(weibull_k=0.0)
        with pytest.raises(ValueError):
            WindModel(diurnal_amplitude=1.0)


class TestIndoorLight:
    def test_lux_conversion(self):
        assert lux_to_irradiance(120.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            lux_to_irradiance(-1.0)

    def test_weekday_lit_weekend_dark(self):
        model = OfficeLightingModel(seed=0)
        week = model.trace(7 * DAY, dt=600.0, start_weekday=0)
        # Working-hours mean (Tue 10:00-16:00) far exceeds Sunday's.
        def window_mean(day, h0, h1):
            i0 = int((day * DAY + h0 * 3600) / 600)
            i1 = int((day * DAY + h1 * 3600) / 600)
            return week.values[i0:i1].mean()
        assert window_mean(1, 10, 16) > 5 * window_mean(6, 10, 16)

    def test_night_is_dark(self):
        model = OfficeLightingModel(seed=0)
        tr = model.trace(DAY, dt=600.0)
        night = tr.values[: int(5 * 3600 / 600)]
        assert night.max() == pytest.approx(0.0)

    def test_levels_are_office_scale(self):
        tr = OfficeLightingModel(work_lux=400.0, seed=1).trace(DAY, dt=600.0)
        # Indoor harvestable irradiance is watts per m^2, not hundreds.
        assert tr.max() < 10.0

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            OfficeLightingModel(on_hour=19.0, off_hour=8.0)


class TestThermalModels:
    def test_machine_gradient_follows_shift(self):
        tr = MachineThermalModel(seed=0).trace(DAY, dt=600.0)
        night = tr.values[: int(5 * 3600 / 600)]
        assert night.mean() < 2.0  # machine off at night

    def test_machine_determinism(self):
        a = MachineThermalModel(seed=4).trace(DAY, dt=600.0)
        b = MachineThermalModel(seed=4).trace(DAY, dt=600.0)
        assert np.array_equal(a.values, b.values)

    def test_diurnal_peaks_in_afternoon(self):
        tr = DiurnalThermalModel(amplitude=4.0, noise=0.0, seed=0).trace(
            DAY, dt=600.0)
        peak_index = int(np.argmax(tr.values))
        peak_hour = peak_index * 600.0 / 3600.0
        assert 12.0 <= peak_hour <= 16.0

    def test_nonnegative(self):
        assert DiurnalThermalModel(seed=1).trace(DAY, 600.0).min() >= 0.0
        assert MachineThermalModel(seed=1).trace(DAY, 600.0).min() >= 0.0


class TestVibration:
    def test_profile_traces_align(self):
        profile = MachineVibrationModel(seed=0).profile(DAY, dt=600.0)
        assert len(profile.acceleration) == len(profile.frequency)

    def test_night_is_quiet(self):
        tr = MachineVibrationModel(seed=0).trace(DAY, dt=600.0)
        night = tr.values[: int(5 * 3600 / 600)]
        assert night.max() == 0.0

    def test_frequency_stays_near_nominal(self):
        profile = MachineVibrationModel(base_frequency=50.0,
                                        seed=2).profile(2 * DAY, dt=600.0)
        assert profile.frequency.min() >= 45.0
        assert profile.frequency.max() <= 55.0


class TestRFModels:
    def test_broadcast_positive_and_fading(self):
        tr = BroadcastRFModel(mean_density=0.01, seed=0).trace(DAY, dt=600.0)
        assert tr.min() > 0.0
        assert tr.values.std() > 0.0  # fading actually varies

    def test_reader_is_bursty(self):
        tr = ReaderRFModel(burst_density=1.0, bursts_per_hour=6.0,
                           seed=0).trace(DAY, dt=60.0)
        on = tr.fraction_above(0.5)
        assert 0.0 < on < 0.5  # bursts exist but are sparse

    def test_reader_zero_rate_is_silent(self):
        tr = ReaderRFModel(bursts_per_hour=0.0, seed=0).trace(DAY, dt=600.0)
        assert tr.max() == 0.0


class TestWaterFlow:
    def test_irrigation_only_in_windows(self):
        model = IrrigationFlowModel(windows=((6.0, 8.0),),
                                    skip_probability=0.0, seed=0)
        tr = model.trace(DAY, dt=600.0)
        noon = int(12 * 3600 / 600)
        assert tr.values[noon] == 0.0
        window = tr.values[int(6.5 * 3600 / 600)]
        assert window > 0.0

    def test_stream_flows_continuously(self):
        tr = StreamFlowModel(mean_speed=0.8, seed=0).trace(DAY, dt=600.0)
        assert tr.fraction_above(0.0) > 0.95

    def test_window_validation(self):
        with pytest.raises(ValueError):
            IrrigationFlowModel(windows=((8.0, 6.0),))


class TestCompositeEnvironments:
    def test_outdoor_channels(self, outdoor_env):
        assert outdoor_env.has(SourceType.LIGHT)
        assert outdoor_env.has(SourceType.WIND)
        assert outdoor_env.has(SourceType.THERMAL)

    def test_indoor_channels(self, indoor_env):
        for source in (SourceType.LIGHT, SourceType.VIBRATION,
                       SourceType.THERMAL, SourceType.RF):
            assert indoor_env.has(source)

    def test_indoor_light_dimmer_than_outdoor(self, outdoor_env, indoor_env):
        out = outdoor_env.trace(SourceType.LIGHT).mean()
        ind = indoor_env.trace(SourceType.LIGHT).mean()
        assert out > 20 * ind

    def test_scaled_environment_reuses_the_last_base_realization(
            self, monkeypatch):
        """Scaled variants of one seeded base synthesize it once, and a
        variant scaled from the kept realization equals a cold build
        trace for trace; another seed or base parameter builds anew."""
        from repro.environment import composite
        builds = []
        trace = composite.SolarModel.trace

        def counting(model, *args, **kwargs):
            builds.append(1)
            return trace(model, *args, **kwargs)

        def scaled(**kwargs):
            return composite.scaled_environment(DAY, 300.0, **kwargs)

        def cold(**kwargs):
            monkeypatch.setattr(composite, "_LAST_BASE", [None, None])
            return scaled(**kwargs)

        monkeypatch.setattr(composite, "_LAST_BASE", [None, None])
        monkeypatch.setattr(composite.SolarModel, "trace", counting)
        variants = [dict(seed=3, scale=0.8),
                    dict(seed=3, scale=0.5, offset=1.0),
                    dict(seed=4, scale=0.5, offset=1.0),
                    dict(seed=4, scale=0.5, offset=1.0,
                         base_params={"cloudiness": 0.6})]
        warm = [scaled(**kwargs) for kwargs in variants]
        assert len(builds) == 3
        for got, kwargs in zip(warm, variants):
            want = cold(**kwargs)
            assert got.sources == want.sources
            for source in want.sources:
                assert np.array_equal(got.trace(source).values,
                                      want.trace(source).values), kwargs
        assert not np.array_equal(warm[1].trace(SourceType.LIGHT).values,
                                  warm[2].trace(SourceType.LIGHT).values)
        assert not np.array_equal(warm[2].trace(SourceType.LIGHT).values,
                                  warm[3].trace(SourceType.LIGHT).values)
