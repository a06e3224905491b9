"""EXT-PWR — §VI extension: energy/QoS trade-off of a slack-driven governor.

Not a paper figure — the paper *motivates* this use case ("power management
frameworks... carried out by drivers in the kernel... in-kernel
observability... break[s] the dependency on client-provided performance
feedback").  We quantify it: at each load level, compare a fixed-max
baseline with the observability-fed DVFS governor.

Expected shape: large savings at low load with intact QoS, tapering to zero
at high load (no headroom), never *causing* a QoS violation the baseline
does not have.
"""

from __future__ import annotations

from conftest import emit, scaled

from repro.analysis import save_record, series_table
from repro.core import RequestMetricsMonitor, SlackDvfsGovernor
from repro.kernel import DvfsDriver, Kernel
from repro.kernel.machine import AMD_EPYC_7302
from repro.loadgen import OpenLoopClient
from repro.sim import Environment, SeedSequence
from repro.workloads import get_workload

LOAD_FRACTIONS = (0.25, 0.4, 0.55, 0.7, 0.85)


def run_once(key: str, fraction: float, governed: bool) -> dict:
    definition = get_workload(key)
    config = definition.config
    env = Environment()
    seeds = SeedSequence(23).child(f"{key}-{fraction:g}")
    kernel = Kernel(env, AMD_EPYC_7302.with_cores(config.cores), seeds)
    app = definition.build(kernel)
    driver = DvfsDriver(env, kernel.cpu)
    monitor = RequestMetricsMonitor(kernel, app.tgid, spec=config.syscalls).attach()
    client = OpenLoopClient(
        env, app.client_sockets, seeds.stream("client"),
        rate_rps=definition.paper_fail_rps * fraction,
        total_requests=scaled(2000, minimum=600),
        qos_latency_ns=config.qos_latency_ns, arrival="uniform",
    )
    if governed:
        # Subscribes its control step to the monitor's window bus.
        SlackDvfsGovernor(monitor, driver, workers=config.workers)
    client.start()
    report = env.run(until=client.done)
    return {
        "energy_j": driver.energy_joules(),
        "p99_ms": report.p99_ns / 1e6,
        "qos_ok": not report.qos_violated,
    }


def run_extension() -> list:
    rows = []
    for fraction in LOAD_FRACTIONS:
        base = run_once("xapian", fraction, governed=False)
        governed = run_once("xapian", fraction, governed=True)
        rows.append({
            "load_fraction": fraction,
            "base_energy_j": base["energy_j"],
            "gov_energy_j": governed["energy_j"],
            "savings": 1 - governed["energy_j"] / base["energy_j"],
            "base_p99_ms": base["p99_ms"],
            "gov_p99_ms": governed["p99_ms"],
            "base_qos_ok": base["qos_ok"],
            "gov_qos_ok": governed["qos_ok"],
        })
    return rows


def test_power_governor_extension(benchmark):
    rows = benchmark.pedantic(run_extension, rounds=1, iterations=1)
    save_record({"extension": "power_governor", "rows": rows}, "ext_power")

    emit("EXT-PWR — slack-driven DVFS governor vs fixed-max baseline (xapian)")
    emit(series_table({
        "load": [r["load_fraction"] for r in rows],
        "base J": [r["base_energy_j"] for r in rows],
        "gov J": [r["gov_energy_j"] for r in rows],
        "savings %": [100 * r["savings"] for r in rows],
        "base p99": [r["base_p99_ms"] for r in rows],
        "gov p99": [r["gov_p99_ms"] for r in rows],
        "gov QoS": [str(r["gov_qos_ok"]) for r in rows],
    }))

    # Savings at the trough, tapering with load.
    assert rows[0]["savings"] > 0.2
    assert rows[0]["savings"] >= rows[-1]["savings"] - 0.05
    # The governor never breaks QoS where the baseline holds it.
    for row in rows:
        if row["base_qos_ok"]:
            assert row["gov_qos_ok"], f"governor broke QoS at load {row['load_fraction']}"
