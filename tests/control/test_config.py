"""ControlConfig validation, serialization and spec integration."""

import pytest

from repro.analysis.executor.spec import ExperimentSpec
from repro.core import CONTROL_POLICIES, ControlConfig
from repro.core.config import DEFAULT_CONTROL_WINDOW_NS

#: The fields a ControlConfig has; every other keyword is unexpected.
FIELDS = {"policy", "window_ns", "slack_ratio", "rps_drop_ratio"}


def _spec(**overrides):
    return ExperimentSpec(workload="silo", offered_rps=500.0, requests=100, **overrides)


def test_defaults_round_trip():
    config = ControlConfig(policy="shed")
    assert CONTROL_POLICIES == ("shed", "scale")
    assert config.to_dict() == {
        "policy": "shed",
        "window_ns": DEFAULT_CONTROL_WINDOW_NS,
        "slack_ratio": 6.0,
        "rps_drop_ratio": 2.0,
    }
    assert ControlConfig.from_dict(config.to_dict()) == config


def test_coercion_and_replace():
    config = ControlConfig(policy="shed", window_ns=5_000_000.0)
    assert config.window_ns == 5_000_000
    assert isinstance(config.window_ns, int)
    scaled = config.replace(policy="scale", rps_drop_ratio=1.3)
    assert scaled.policy == "scale"
    assert scaled.rps_drop_ratio == 1.3
    assert config.policy == "shed"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "bogus"},
        {"policy": "none"},
        {"policy": "shed", "window_ns": 0},
        {"policy": "shed", "slack_ratio": 1.0},
        {"policy": "shed", "rps_drop_ratio": 1.0},
        {"window_ns": 5_000_000},
        {"policy": "shed", "calibrate_windows": 8},
        {"policy": "shed", "confidence_floor": 0.5},
        {"policy": "shed", "knee_multiplier": 4.0},
        {"policy": "shed", "cov2_floor": 2.0},
        {"policy": "shed", "min_events": 4},
        {"policy": "shed", "trigger_windows": 3},
        {"policy": "shed", "clear_windows": 3},
        {"policy": "shed", "cooldown_windows": 1},
        {"policy": "shed", "shed_fraction": 0.25},
        {"policy": "scale", "scale_step": 1},
        {"policy": "shed", "reject_size": 64},
    ],
)
def test_validation_rejects(kwargs):
    """Bad values are a ValueError (``control=None`` is the only way to
    run without a controller, so ``"none"`` is not a policy); a missing
    policy or a keyword naming one of the controller's constants is a
    TypeError."""
    valid_keywords = "policy" in kwargs and set(kwargs) <= FIELDS
    with pytest.raises(ValueError if valid_keywords else TypeError):
        ControlConfig(**kwargs)


def test_spec_coerces_mapping_and_round_trips():
    spec = _spec(control={"policy": "shed", "slack_ratio": 2.5})
    assert isinstance(spec.control, ControlConfig)
    assert spec.control.slack_ratio == 2.5
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
