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
    assert repro.__version__ == "1.14.0"


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
