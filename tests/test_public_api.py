"""The package's public surface: imports, __all__ integrity, versioning."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.kernel",
    "repro.net",
    "repro.ebpf",
    "repro.workloads",
    "repro.loadgen",
    "repro.core",
    "repro.faults",
    "repro.analysis",
    "repro.export",
]


def test_version():
    assert repro.__version__ == "1.16.0"


def test_one_process_driver():
    """``Process`` answers SELF_DRIVE itself: the sim package has no
    second driver class and no ``compiled`` module."""
    import repro.sim

    assert "SELF_DRIVE" in repro.sim.__all__
    assert repro.sim.SELF_DRIVE is repro.sim.process.SELF_DRIVE
    assert not hasattr(repro.sim, "FlatProcess")
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim.compiled")


def test_tracepoints_pass_the_firings_fields():
    """Probes take a firing's own arguments: the kernel has no context
    objects, and the record packers take the fields themselves."""
    import repro.ebpf
    import repro.kernel
    import repro.kernel.tracepoints

    for name in ("SysEnterCtx", "SysExitCtx"):
        assert not hasattr(repro.kernel, name), name
        assert not hasattr(repro.kernel.tracepoints, name), name
    enter = repro.ebpf.pack_sys_enter((7 << 32) | 9, 44, (3, 4))
    assert len(enter) == repro.ebpf.SYS_ENTER_CTX_SIZE
    assert enter[4:8] == (9).to_bytes(4, "little") and enter[8:16] == (44).to_bytes(8, "little")
    exit_ = repro.ebpf.pack_sys_exit((7 << 32) | 9, 44, -1)
    assert len(exit_) == repro.ebpf.SYS_EXIT_CTX_SIZE and exit_[16:] == b"\xff" * 8


def test_top_level_all_resolvable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolvable(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, module_name
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


def test_nine_workloads_exposed():
    assert len(repro.workload_keys()) == 9
    assert set(repro.WORKLOADS) == set(repro.workload_keys())


def test_public_entry_points_are_documented():
    for name in ("Kernel", "RequestMetricsMonitor", "OpenLoopClient",
                 "run_level", "sweep", "ExperimentSpec", "ResultCache",
                 "run_cells"):
        obj = getattr(repro, name)
        assert (obj.__doc__ or "").strip(), name


def test_executor_types_exported_at_top_level():
    for name in ("ExperimentSpec", "LevelResult", "SweepResult",
                 "ResultCache", "run_cells"):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name


def test_run_level_legacy_form_removed():
    """The deprecation cycle is over: the keyword form raises with a
    message pointing at the ExperimentSpec replacement."""
    definition = repro.get_workload("silo")
    with pytest.raises(TypeError):
        repro.run_level(definition, 500, requests=150, seed=7)
    with pytest.raises(TypeError, match="ExperimentSpec.*removed"):
        repro.run_level(definition)


def test_collector_config_exported_at_top_level():
    for name in ("CollectorConfig", "ExportConfig"):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name


def test_run_level_spec_form_rejects_extra_arguments():
    spec = repro.ExperimentSpec(workload="silo", offered_rps=500, requests=100)
    with pytest.raises(TypeError):
        repro.run_level(spec, 600)
