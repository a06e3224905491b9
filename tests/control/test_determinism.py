"""Controller determinism: same spec + seed => bit-identical results.

The controller's decisions derive only from windowed snapshot values the
executor already reproduces bit-identically, so a controlled cell must
stay byte-stable across process pools, eBPF VM tiers and workload-sim
tiers.
"""

from repro.analysis.executor.pool import execute_cell, run_cells
from repro.control.scenarios import build_scenario
from repro.ebpf import VM_TIERS

REQUESTS = 900


def _controlled_spec(**overrides):
    built = build_scenario("silo", "surge-shed", REQUESTS)
    spec = built["spec"].replace(control=built["control"])
    return spec.replace(**overrides) if overrides else spec


def test_jobs_fanout_is_bit_identical():
    spec = _controlled_spec()
    serial, _ = run_cells([spec], jobs=1, cache=None)
    fanned, _ = run_cells([spec], jobs=4, cache=None)
    assert serial[0].to_dict() == fanned[0].to_dict()
    serial_control = serial[0].extra["control"]
    assert serial_control["actions"] == fanned[0].extra["control"]["actions"]
    assert serial_control["engagements"] >= 1


def test_vm_and_sim_tiers_are_bit_identical():
    results = {}
    for vm_tier in VM_TIERS:
        for sim_tier in ("reference", "compiled"):
            spec = _controlled_spec(monitor_mode="vm", vm_tier=vm_tier, sim_tier=sim_tier)
            results[(vm_tier, sim_tier)] = execute_cell(spec).to_dict()
    baseline = results[("reference", "reference")]
    for combo, result in results.items():
        assert result == baseline, f"{combo} diverged from reference/reference"
