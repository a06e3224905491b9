"""The unified CollectorConfig/ExportConfig contract: validation,
serialization, config resolution, and the removed legacy keywords (which
served their one-release deprecation cycle and are gone from the
constructor signatures)."""

import pytest

from repro.core import (
    CollectorConfig,
    DeltaCollector,
    DurationCollector,
    ExportConfig,
    RequestMetricsMonitor,
    StreamingDeltaCollector,
)
from repro.core.config import resolve_collector_config
from repro.kernel import Kernel, MachineSpec, Sys
from repro.sim import MSEC, Environment, SeedSequence


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    return Kernel(Environment(), spec, SeedSequence(1), interference=False)


class TestExportConfig:
    def test_defaults(self):
        config = ExportConfig()
        assert config.to_dict() == {"window_ns": 100 * MSEC}

    def test_validation(self):
        """A window below 1 ns is rejected; the namespace, exemplars and
        labels are exporter constants, so naming one is an unexpected
        keyword."""
        with pytest.raises(ValueError):
            ExportConfig(window_ns=0)
        for removed in ({"namespace": "x"}, {"exemplars": False},
                        {"labels": (("host", "a"),)}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ExportConfig(**removed)

    def test_round_trip(self):
        config = ExportConfig(window_ns=5 * MSEC)
        assert ExportConfig.from_dict(config.to_dict()) == config

    def test_replace(self):
        assert ExportConfig().replace(window_ns=7).window_ns == 7


class TestCollectorConfig:
    def test_defaults(self):
        config = CollectorConfig()
        assert config.mode == "native"
        assert config.vm_tier is None
        assert config.capacity == 65536
        assert not config.charge_cost
        assert config.export is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CollectorConfig(mode="jit")
        with pytest.raises(ValueError):
            CollectorConfig(vm_tier="bogus")
        with pytest.raises(ValueError):
            CollectorConfig(capacity=0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            CollectorConfig(cpus=2)

    def test_export_mapping_coerced(self):
        config = CollectorConfig(export={"window_ns": 5 * MSEC})
        assert isinstance(config.export, ExportConfig)
        assert config.export.window_ns == 5 * MSEC

    def test_round_trip(self):
        config = CollectorConfig(mode="stream", vm_tier="reference",
                                 capacity=128, charge_cost=True,
                                 export=ExportConfig(window_ns=5 * MSEC))
        assert CollectorConfig.from_dict(config.to_dict()) == config


class TestResolve:
    def test_none_gives_defaults(self):
        assert resolve_collector_config(None, "X") == CollectorConfig()

    def test_mode_string_shorthand(self):
        assert resolve_collector_config("vm", "X").mode == "vm"

    def test_config_passed_through(self):
        config = CollectorConfig(mode="stream", capacity=8)
        assert resolve_collector_config(config, "X") is config

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="CollectorConfig"):
            resolve_collector_config(42, "X")


class TestRemovedConstructorKeywords:
    """The legacy per-knob keywords are gone from the constructor
    signatures: supplying one is Python's unexpected-keyword TypeError,
    and the config form is the only spelling."""

    def test_delta_collector(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DeltaCollector(_kernel(), 1, [Sys.SENDMSG], mode="vm")
        modern = DeltaCollector(_kernel(), 1, [Sys.SENDMSG], "vm")
        assert modern.config.mode == "vm"

    def test_duration_collector(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DurationCollector(_kernel(), 1, [Sys.EPOLL_WAIT], charge_cost=True)
        modern = DurationCollector(
            _kernel(), 1, [Sys.EPOLL_WAIT],
            CollectorConfig(charge_cost=True))
        assert modern.config.charge_cost

    def test_streaming_collector(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            StreamingDeltaCollector(
                _kernel(), 1, [Sys.SENDMSG], per_cpu_capacity=4)
        modern = StreamingDeltaCollector(
            _kernel(), 1, [Sys.SENDMSG], CollectorConfig(capacity=4))
        assert modern.config.capacity == 4
        assert modern.config.mode == "stream"

    def test_monitor(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            RequestMetricsMonitor(_kernel(), 1, mode="stream",
                                  stream_capacity=4)
        modern = RequestMetricsMonitor(
            _kernel(), 1, config=CollectorConfig(mode="stream", capacity=4))
        assert modern.config.mode == "stream"
        assert modern.config.capacity == 4

    def test_config_plus_legacy_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DeltaCollector(_kernel(), 1, [Sys.SENDMSG],
                           CollectorConfig(), mode="vm")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode|mode must be"):
            DeltaCollector(_kernel(), 1, [Sys.SENDMSG], "stream")
        with pytest.raises(ValueError):
            StreamingDeltaCollector(_kernel(), 1, [Sys.SENDMSG],
                                    CollectorConfig(mode="vm"))
