"""BENCH-VM-DISPATCH — the two VM tiers head to head.

Fires the delta-collector program (the hot probe behind every EXP-OVH
configuration) through ``fire_enter`` on both tiers — the reference
interpreter on the packed record, and the compiled program inline in the
tracepoint's fused dispatcher — over the same firing sequence, asserting
the identical charged cost per firing, identical instruction and
invocation counts and identical final map state, then reports the
dispatch speedup.  The compiled tier must win by >= 3x; any divergence is
a hard failure, because the cost model the tiers produce is the
simulated probe overhead the paper's experiments charge to syscalls.

It also attaches a monitor in every collection configuration — vm mode
(delta plus duration enter and exit), vm mode with the export histogram,
and stream mode's perf output — beside the native send-timestamp probe
``execute_cell`` attaches, and fails when the compiled tier hands any of
those programs to the reference VM
(``translation_cache_stats()["declined"]``) or when a compiled program
runs through a call slot of its tracepoint's dispatcher instead of
inline: either would keep every result correct while silently losing
the compiled tier's speed.

Runs two ways:

* under pytest-benchmark with the rest of the suite
  (``pytest benchmarks/bench_vm_dispatch.py --benchmark-only``);
* standalone for CI smoke (``python benchmarks/bench_vm_dispatch.py
  --smoke``), which needs neither pytest-benchmark nor hypothesis and
  fails only on divergence or a declined or called monitor program —
  tiny-parameter wall clocks on shared runners are too noisy to gate on
  a speedup ratio.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.executor.pool import _SendTimestampProbe
from repro.core import CollectorConfig, ExportConfig, RequestMetricsMonitor
from repro.core.collectors import _DELTA_VALUE_SIZE, build_delta_program
from repro.ebpf import BPF, ArrayMap, CompiledVm, TranslationCache, Vm, translation_cache_stats
from repro.kernel import Kernel, MachineSpec, Sys
from repro.sim import Environment, SeedSequence

#: Fresh VM per tier (a private cache: runs never share translations).
TIER_FACTORIES = {
    "reference": lambda: Vm(),
    "compiled": lambda: CompiledVm(cache=TranslationCache()),
}

TGID = 7
PID_TGID = (TGID << 32) | TGID


#: Every collection configuration whose programs the monitor attaches.
MONITOR_CONFIGS = {
    "vm (delta + duration)": CollectorConfig(mode="vm"),
    "vm + export histogram": CollectorConfig(mode="vm", export=ExportConfig()),
    "stream (perf output)": CollectorConfig(mode="stream"),
}


def _kernel() -> Kernel:
    return Kernel(
        Environment(),
        MachineSpec(name="bench", cores=2, ctx_switch_ns=0, syscall_overhead_ns=0),
        SeedSequence(1),
        interference=False,
    )


def monitor_dispatch() -> dict:
    """Attach a monitor per :data:`MONITOR_CONFIGS` entry on the compiled
    tier, with the native send-timestamp probe beside it as
    ``execute_cell`` attaches it; returns ``{config: (programs handed to
    the reference VM, programs its dispatchers call instead of running
    inline)}``."""
    outcome = {}
    for label, config in MONITOR_CONFIGS.items():
        kernel = _kernel()
        before = translation_cache_stats()["declined"]
        monitor = RequestMetricsMonitor(kernel, TGID, config=config.replace(vm_tier="compiled"))
        monitor.attach()
        _SendTimestampProbe(kernel, TGID, (Sys.SENDTO,)).attach()
        declined = translation_cache_stats()["declined"] - before
        called = 0
        for tracepoint in (kernel.tracepoints.sys_enter, kernel.tracepoints.sys_exit):
            slots = tracepoint.dispatcher().slots
            # eBPF probes are the ones that fuse their tracepoint's
            # dispatcher; native collectors and the send probe are calls.
            called += sum(kind != "inline" for probe, kind in zip(tracepoint.probes, slots)
                          if hasattr(probe, "fuse"))
        outcome[label] = (declined, called)
        monitor.detach()
    return outcome


def _firings(count: int):
    """``fire_enter`` arguments: 3/4 hit the filter, 1/4 miss."""
    firings = []
    t = 1_000
    for i in range(count):
        nr = (0, 1, 44, 232)[i % 4]  # 232 fails the syscall filter
        firings.append((PID_TGID, nr, (), t))
        t += 1_000 + (i * 37) % 5_000
    return firings


def _run_tier(vm, count: int):
    """Attach a fresh delta program with ``vm`` and fire it ``count``
    times; returns (wall, per-firing cost, final map state, counters)."""
    kernel = _kernel()
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    bpf = BPF(kernel, maps={"state": state}, charge_cost=True, vm=vm)
    program = bpf.load(build_delta_program("state", TGID, [0, 1, 44]))
    bpf.attach_tracepoint("raw_syscalls:sys_enter", program.name)
    kernel.tracepoints.sys_enter.dispatcher()  # built outside the timed loop
    firings = _firings(count)

    fire = kernel.tracepoints.fire_enter
    start = time.perf_counter()
    results = [fire(pid_tgid, nr, args, t) for pid_tgid, nr, args, t in firings]
    wall = time.perf_counter() - start
    counters = (bpf.invocations[program.name], bpf.insns_executed[program.name])
    return wall, results, (bytes(state.lookup(state.key_of(0))), counters)


def run_comparison(count: int, reps: int = 3) -> dict:
    """Time both tiers (min of ``reps`` to shed scheduler noise) and
    cross-check each firing and the final map state against reference."""
    walls, results, states = {}, {}, {}
    for tier, factory in TIER_FACTORIES.items():
        best = None
        for _ in range(reps):
            wall, tier_results, tier_state = _run_tier(factory(), count)
            best = wall if best is None else min(best, wall)
        walls[tier] = best
        results[tier] = tier_results
        states[tier] = tier_state

    diverged = None
    for i, (a, b) in enumerate(zip(results["reference"], results["compiled"])):
        if a != b:
            diverged = f"firing {i}: reference {a} != compiled {b}"
            break
    if diverged is None and states["reference"] != states["compiled"]:
        diverged = (f"map state and counters: reference {states['reference']!r} "
                    f"!= compiled {states['compiled']!r}")

    ref_wall = walls["reference"]
    return {
        "executions": count,
        "reference_us_per_exec": ref_wall / count * 1e6,
        "compiled_us_per_exec": walls["compiled"] / count * 1e6,
        "compiled_speedup": (ref_wall / walls["compiled"]
                             if walls["compiled"] else float("inf")),
        "diverged": diverged,
    }


def test_compiled_dispatch_speedup(benchmark):
    from conftest import emit, scaled

    from repro.analysis import save_record

    data = benchmark.pedantic(
        lambda: run_comparison(scaled(4000, minimum=1000)), rounds=1, iterations=1)
    save_record({"ablation": "vm_dispatch", **data}, "bench_vm_dispatch")

    emit("BENCH-VM-DISPATCH — the two VM tiers head to head")
    emit(f"  reference: {data['reference_us_per_exec']:.1f} us/exec")
    emit(f"  compiled:  {data['compiled_us_per_exec']:.1f} us/exec")
    emit(f"  speedup:   compiled {data['compiled_speedup']:.2f}x over "
         f"{data['executions']} firings")

    assert data["diverged"] is None, data["diverged"]
    assert data["compiled_speedup"] >= 3.0, \
        f"compiled tier only {data['compiled_speedup']:.2f}x"
    outcome = monitor_dispatch()
    assert not any(declined or called for declined, called in outcome.values()), \
        f"monitor programs declined or called instead of inline: {outcome}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run; fail on divergence only, not speedup")
    parser.add_argument("--executions", type=int, default=None,
                        help="firings per tier (default: 400 smoke / 4000 full)")
    args = parser.parse_args(argv)
    count = args.executions or (400 if args.smoke else 4000)

    data = run_comparison(count)
    print(f"reference: {data['reference_us_per_exec']:.1f} us/exec")
    print(f"compiled:  {data['compiled_us_per_exec']:.1f} us/exec")
    print(f"speedup:   compiled {data['compiled_speedup']:.2f}x over "
          f"{count} firings")

    if data["diverged"] is not None:
        print(f"DIVERGENCE: {data['diverged']}", file=sys.stderr)
        return 1
    outcome = monitor_dispatch()
    for label, (declined, called) in outcome.items():
        print(f"declined:  {declined} program(s) in {label}")
        print(f"called:    {called} program(s) in {label}")
    if any(declined for declined, _called in outcome.values()):
        print("a monitor program ran on the reference VM instead of the "
              "compiled tier", file=sys.stderr)
        return 1
    if any(called for _declined, called in outcome.values()):
        print("a compiled monitor program ran through a call slot of its "
              "tracepoint's dispatcher instead of inline", file=sys.stderr)
        return 1
    if not args.smoke and data["compiled_speedup"] < 3.0:
        print(f"compiled speedup {data['compiled_speedup']:.2f}x below the "
              "3x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
