"""Tests for the slack-driven DVFS governor (§VI extension)."""

import pytest

from repro.core import RequestMetricsMonitor, SlackDvfsGovernor
from repro.kernel import DvfsDriver, Kernel, MachineSpec
from repro.loadgen import OpenLoopClient
from repro.sim import MSEC, Environment, SeedSequence
from repro.workloads import get_workload


def _stack(rate_frac, governed, requests=1200, seed=5, **gov_kwargs):
    definition = get_workload("xapian")
    config = definition.config
    env = Environment()
    seeds = SeedSequence(seed)
    kernel = Kernel(env, MachineSpec(name="t", cores=config.cores), seeds)
    app = definition.build(kernel)
    driver = DvfsDriver(env, kernel.cpu)
    monitor = RequestMetricsMonitor(kernel, app.tgid, spec=config.syscalls).attach()
    client = OpenLoopClient(
        env, app.client_sockets, seeds.stream("client"),
        rate_rps=definition.paper_fail_rps * rate_frac,
        total_requests=requests,
        qos_latency_ns=config.qos_latency_ns,
        arrival="uniform",
    )
    governor = None
    if governed:
        governor = SlackDvfsGovernor(monitor, driver, workers=config.workers,
                                     **gov_kwargs)
    client.start()
    report = env.run(until=client.done)
    return report, driver, governor


def test_validation():
    definition = get_workload("xapian")
    env = Environment()
    kernel = Kernel(env, MachineSpec(name="t", cores=4), SeedSequence(1))
    monitor = RequestMetricsMonitor(kernel, 1).attach()
    driver = DvfsDriver(env, kernel.cpu)
    with pytest.raises(ValueError):
        SlackDvfsGovernor(monitor, driver, workers=4,
                          idle_threshold=0.2, busy_threshold=0.4)


def test_downclocks_at_low_load():
    _report, driver, governor = _stack(0.3, governed=True)
    assert driver.transitions > 0
    assert any(d.action == "down" for d in governor.decisions)
    # Spent time below max frequency.
    assert min(d.pstate_index for d in governor.decisions) < len(driver.pstates) - 1


def test_saves_energy_at_low_load_without_qos_violation():
    base_report, base_driver, _ = _stack(0.3, governed=False)
    gov_report, gov_driver, _ = _stack(0.3, governed=True)
    assert not base_report.qos_violated
    assert not gov_report.qos_violated
    savings = 1 - gov_driver.energy_joules() / base_driver.energy_joules()
    assert savings > 0.15


def test_stays_at_max_when_busy():
    _report, driver, governor = _stack(0.85, governed=True)
    # Hot system: the governor must not park below max for long.
    below_max = sum(1 for d in governor.decisions
                    if d.pstate_index < len(driver.pstates) - 1)
    assert below_max <= len(governor.decisions) // 3


def test_decisions_recorded_with_fields():
    _report, _driver, governor = _stack(0.5, governed=True)
    assert governor.decisions
    decision = governor.decisions[0]
    assert decision.action in ("up", "down", "hold", "max")
    assert 0.0 <= decision.idleness <= 1.0
    assert decision.time_ns > 0


def test_governor_reacts_to_saturation_with_race_to_max():
    """Force low frequency, then slam the system: governor must race to max."""
    definition = get_workload("xapian")
    config = definition.config
    env = Environment()
    seeds = SeedSequence(9)
    kernel = Kernel(env, MachineSpec(name="t", cores=config.cores), seeds)
    app = definition.build(kernel)
    driver = DvfsDriver(env, kernel.cpu)
    monitor = RequestMetricsMonitor(kernel, app.tgid, spec=config.syscalls).attach()
    governor = SlackDvfsGovernor(monitor, driver, workers=config.workers)
    client = OpenLoopClient(
        env, app.client_sockets, seeds.stream("client"),
        rate_rps=definition.paper_fail_rps,  # saturating at full speed
        total_requests=1500, arrival="uniform",
    )
    driver.set_index(0)  # start parked at minimum frequency
    client.start()
    env.run(until=client.done)
    assert driver.at_max  # it recovered to maximum frequency
