#!/usr/bin/env python3
"""Live saturation detection during a load ramp (Fig. 3 in action).

A management runtime subscribes to the monitor's window bus in fixed
windows while the client ramps Xapian from comfortable load into
overload.  The online detector watches the dispersion of send-deltas
(var/mean², the rate-independent Eq. 2 form) and raises its flag when
contention signatures appear — which should line up with the load
crossing the QoS failure region.

Run:  python examples/saturation_monitor.py
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
from repro.core import OnlineSaturationDetector
from repro.sim import MSEC

SEED = 21
WINDOW_MS = 400


def main() -> None:
    definition = get_workload("xapian")
    config = definition.config
    fail = definition.paper_fail_rps

    env = Environment()
    seeds = SeedSequence(SEED)
    kernel = Kernel(env, AMD_EPYC_7302.with_cores(config.cores), seeds)
    app = definition.build(kernel)
    monitor = RequestMetricsMonitor(kernel, app.tgid, spec=config.syscalls).attach()
    detector = OnlineSaturationDetector(
        threshold_factor=4.0, warmup_windows=3, hysteresis=2
    )

    # Ramp: 40% -> 70% -> 95% -> 115% of the paper's failure RPS.
    phases = [
        (0.40 * fail, 1200),
        (0.70 * fail, 2000),
        (0.95 * fail, 2500),
        (1.15 * fail, 3000),
    ]
    client = OpenLoopClient(
        env, app.client_sockets, seeds.stream("client"),
        rate_rps=phases[0][0], total_requests=1,  # overridden by phases
        phases=phases, arrival="uniform",
        qos_latency_ns=config.qos_latency_ns,
    )
    client.start()

    print(f"{'time s':>8} {'rps_obsv':>10} {'dispersion':>12} {'poll ms':>9} "
          f"{'saturated?':>11}")

    flagged_at = None

    def on_window(snap):
        nonlocal flagged_at
        if snap.send.count < 8:
            return
        dispersion = snap.send_delta_cov2
        saturated = detector.observe(dispersion)
        if saturated and flagged_at is None:
            flagged_at = env.now
        print(f"{env.now / 1e9:8.2f} {snap.rps_obsv:10.0f} "
              f"{dispersion:12.3f} {snap.poll_mean_duration_ns / 1e6:9.2f} "
              f"{'** YES **' if saturated else 'no':>11}")

    monitor.bus.subscribe(WINDOW_MS * MSEC, on_window)
    report = env.run(until=client.done)

    print(f"\nclient-side ground truth: p99 = {report.p99_ns / 1e6:.1f} ms "
          f"(QoS threshold {config.qos_latency_ns / 1e6:.0f} ms, "
          f"violated: {report.qos_violated})")
    if flagged_at is None:
        raise SystemExit("detector never fired — unexpected for this ramp")
    print(f"detector first flagged saturation at t = {flagged_at / 1e9:.2f} s "
          f"(ramp enters overload in the final phases)")


if __name__ == "__main__":
    main()
