"""ControlConfig validation, serialization and spec integration."""

import pytest

from repro.analysis.executor.spec import ExperimentSpec
from repro.core import CONTROL_POLICIES, ControlConfig


def _spec(**overrides):
    return ExperimentSpec(workload="silo", offered_rps=500.0, requests=100, **overrides)


def test_defaults_round_trip():
    config = ControlConfig()
    assert config.policy == "none"
    assert CONTROL_POLICIES == ("none", "shed", "scale")
    assert ControlConfig.from_dict(config.to_dict()) == config


def test_coercion_and_replace():
    config = ControlConfig(policy="shed", trigger_windows="3", window_ns=5_000_000.0)
    assert config.trigger_windows == 3
    assert config.window_ns == 5_000_000
    scaled = config.replace(policy="scale", scale_step=2)
    assert scaled.policy == "scale"
    assert scaled.scale_step == 2
    assert config.policy == "shed"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "bogus"},
        {"window_ns": 0},
        {"calibrate_windows": 2},
        {"confidence_floor": 0.0},
        {"confidence_floor": 1.5},
        {"knee_multiplier": 1.0},
        {"cov2_floor": -0.1},
        {"slack_ratio": 1.0},
        {"rps_drop_ratio": 1.0},
        {"min_events": 1},
        {"trigger_windows": 0},
        {"clear_windows": 0},
        {"cooldown_windows": -1},
        {"shed_fraction": 0.0},
        {"shed_fraction": 1.5},
    ],
)
def test_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ControlConfig(**kwargs)


def test_spec_coerces_mapping_and_round_trips():
    spec = _spec(control={"policy": "shed", "shed_fraction": 0.25})
    assert isinstance(spec.control, ControlConfig)
    assert spec.control.shed_fraction == 0.25
    rebuilt = ExperimentSpec.from_dict(spec.to_dict())
    assert rebuilt == spec


def test_spec_phases_coercion_and_round_trip():
    spec = _spec(phases=[[100, 50], (200.0, 50)])
    assert spec.phases == ((100.0, 50), (200.0, 50))
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("phases", [[], [(0.0, 10)], [(100.0, 0)]])
def test_spec_phases_validation(phases):
    with pytest.raises(ValueError, match="phases"):
        _spec(phases=phases)


def test_control_and_phases_are_cache_key_relevant():
    base = _spec()
    assert _spec(control=ControlConfig(policy="shed")).cache_key() != base.cache_key()
    assert _spec(phases=[(100.0, 50), (200.0, 50)]).cache_key() != base.cache_key()
