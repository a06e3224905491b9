#!/usr/bin/env python3
"""An in-kernel DVFS governor fed by request-level observability (§VI).

The paper's headline implication: power managers live in the kernel, and
passing userspace request metrics to them "would require significant
overhead" — but eBPF syscall observability gives the kernel those metrics
for free.  This example closes that loop:

* the governor takes a monitor window every 100 ms from the monitor's
  window bus (idleness + dispersion);
* comfortable slack → lower the P-state (cubic dynamic-power savings);
* contention signatures → race back to maximum frequency.

It then replays a day-in-miniature load trace (trough → ramp → peak →
trough) and compares energy and tail latency against a fixed-max baseline.

Run:  python examples/power_governor.py
"""

from repro import (
    AMD_EPYC_7302,
    Environment,
    Kernel,
    OpenLoopClient,
    RequestMetricsMonitor,
    SeedSequence,
    get_workload,
)
from repro.core import SlackDvfsGovernor
from repro.kernel import DvfsDriver

SEED = 31


def run_trace(governed: bool):
    definition = get_workload("xapian")
    config = definition.config
    fail = definition.paper_fail_rps

    env = Environment()
    seeds = SeedSequence(SEED)
    kernel = Kernel(env, AMD_EPYC_7302.with_cores(config.cores), seeds)
    app = definition.build(kernel)
    driver = DvfsDriver(env, kernel.cpu)
    monitor = RequestMetricsMonitor(kernel, app.tgid, spec=config.syscalls).attach()

    # Diurnal miniature: trough, morning ramp, peak, evening trough.
    phases = [
        (0.25 * fail, 800),
        (0.50 * fail, 1500),
        (0.85 * fail, 2500),
        (0.30 * fail, 900),
    ]
    client = OpenLoopClient(
        env, app.client_sockets, seeds.stream("client"),
        rate_rps=phases[0][0], total_requests=1, phases=phases,
        qos_latency_ns=config.qos_latency_ns, arrival="uniform",
    )
    governor = None
    if governed:
        # Subscribes its control step to the monitor's window bus.
        governor = SlackDvfsGovernor(monitor, driver, workers=config.workers)
    client.start()
    report = env.run(until=client.done)
    return report, driver, governor


def main() -> None:
    base_report, base_driver, _ = run_trace(governed=False)
    gov_report, gov_driver, governor = run_trace(governed=True)

    base_energy = base_driver.energy_joules()
    gov_energy = gov_driver.energy_joules()
    savings = 1 - gov_energy / base_energy

    print("diurnal trace: trough -> ramp -> peak -> trough (xapian)")
    print(f"{'':<12}{'energy J':>10}{'p99 ms':>10}{'QoS ok?':>9}")
    print(f"{'fixed max':<12}{base_energy:>10.1f}{base_report.p99_ns / 1e6:>10.1f}"
          f"{str(not base_report.qos_violated):>9}")
    print(f"{'governed':<12}{gov_energy:>10.1f}{gov_report.p99_ns / 1e6:>10.1f}"
          f"{str(not gov_report.qos_violated):>9}")
    print(f"\nenergy savings: {100 * savings:.1f}%  "
          f"({gov_driver.transitions} P-state transitions)")

    actions = [d.action for d in governor.decisions]
    print(f"governor actions: down={actions.count('down')} "
          f"hold={actions.count('hold')} up={actions.count('up')} "
          f"max={actions.count('max')}")

    assert savings > 0.1, "expected >10% energy savings over the trace"
    assert not gov_report.qos_violated, "governor must not break QoS here"
    print("\nOK — kernel-space power management driven entirely by "
          "syscall-derived request metrics.")


if __name__ == "__main__":
    main()
