"""The export pipeline's central contract: exposition text round-trips
through a conformant parser with every counter and histogram bucket
bit-identical to the source DeltaStats — across both VM tiers, both
aggregation modes and perf streaming, including degraded (lost-record)
windows."""

import pytest

from repro.core import (
    NBUCKETS,
    CollectorConfig,
    ExportConfig,
    MetricsSnapshot,
    RequestMetricsMonitor,
    bucket_upper_bound,
)
from repro.export.parser import parse_text
from repro.kernel import Kernel, MachineSpec, Sys
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence

CONFIGS = [
    ("native", None),
    ("vm", "reference"),
    ("vm", "compiled"),
    ("stream", None),
]


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    return Kernel(Environment(), spec, SeedSequence(1), interference=False)


def _echo_server(kernel, sends=20, period_ms=2):
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()

    def worker(task):
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        for _ in range(sends):
            yield from task.sys_epoll_wait(ep)
            msg = yield from task.sys_read(server)
            yield from task.sys_sendmsg(server, Message(size=msg.size))

    proc.spawn_thread(worker)

    def driver():
        for _ in range(sends):
            yield env.timeout(period_ms * MSEC)
            client.send(Message(size=64))

    env.process(driver())
    return proc


def _run_export(mode, tier, capacity=65536, sends=20, period_ms=2,
                window_ms=5):
    kernel = _kernel()
    proc = _echo_server(kernel, sends=sends, period_ms=period_ms)
    config = CollectorConfig(
        mode=mode, vm_tier=tier, capacity=capacity,
        export=ExportConfig(window_ns=window_ms * MSEC),
    )
    monitor = RequestMetricsMonitor(kernel, proc.pid, config=config).attach()
    kernel.env.run(until=(sends * period_ms + 3) * MSEC)
    # Close the partial tail window the way execute_cell does.
    monitor.bus.finish()
    return monitor


def _value(families, base, suffix="", **labels):
    """The unique sample of ``base+suffix`` matching the given labels."""
    matches = [
        s for s in families[base].samples
        if s.name == base + suffix
        and all(s.labels.get(k) == v for k, v in labels.items())
    ]
    assert len(matches) == 1, (base, suffix, labels, matches)
    return matches[0].value


def _check_against_source(monitor, families, text):
    """Every exported counter/histogram equals the merged source windows."""
    merged = MetricsSnapshot.merge_all(monitor.exporter.windows)
    for family_name, stats, hist, lost in (
        ("send", merged.send, merged.send_hist, merged.send_lost),
        ("recv", merged.recv, merged.recv_hist, merged.recv_lost),
    ):
        label = {"family": family_name}
        assert _value(families, "repro_observed_syscalls", "_total",
                      **label) == stats.events
        assert _value(families, "repro_deltas", "_total", **label) == stats.count
        assert _value(families, "repro_delta_sum_ns", "_total",
                      **label) == stats.sum
        assert _value(families, "repro_delta_sumsq_ns2", "_total",
                      **label) == stats.sumsq
        assert _value(families, "repro_lost_records", "_total", **label) == lost
        # Exact decimal text (no float detour), past what parsing can prove.
        assert (f'repro_delta_sum_ns_total{{family="{family_name}"}} '
                f"{stats.sum}\n") in text
        assert (f'repro_delta_sumsq_ns2_total{{family="{family_name}"}} '
                f"{stats.sumsq}\n") in text
        # The in-probe log2 histogram, bucket by bucket.
        cumulative = hist.cumulative()
        for bucket in range(NBUCKETS):
            assert _value(families, "repro_delta_ns", "_bucket", **label,
                          le=str(bucket_upper_bound(bucket))
                          ) == cumulative[bucket]
        assert _value(families, "repro_delta_ns", "_bucket", **label,
                      le="+Inf") == hist.total
        assert _value(families, "repro_delta_ns", "_sum", **label) == stats.sum
        assert _value(families, "repro_delta_ns", "_count",
                      **label) == hist.total
        # The invariant tying the two representations together.
        assert hist.total == stats.count
    assert _value(families, "repro_poll_duration_ns", "_count"
                  ) == merged.poll.count
    assert _value(families, "repro_poll_duration_ns", "_sum"
                  ) == merged.poll.sum
    assert _value(families, "repro_windows", "_total"
                  ) == len(monitor.exporter.windows)


@pytest.mark.parametrize("mode,tier", CONFIGS,
                         ids=[f"{m}-{t or 'default'}" for m, t in CONFIGS])
def test_roundtrip_matches_source_stats(mode, tier):
    monitor = _run_export(mode, tier)
    assert len(monitor.exporter.windows) >= 5
    for openmetrics in (False, True):
        text = monitor.exporter.render(openmetrics=openmetrics)
        _check_against_source(monitor, parse_text(text), text)


def test_bit_identical_across_all_configurations():
    """Five collection pipelines, one workload, byte-identical expositions
    (the tier/mode-equivalence invariant extended to the export stage)."""
    texts = []
    for mode, tier in CONFIGS:
        monitor = _run_export(mode, tier)
        texts.append((monitor.exporter.render(),
                      monitor.exporter.render(openmetrics=True)))
    assert all(t == texts[0] for t in texts[1:])


def test_export_windows_merge_to_unwindowed_snapshot():
    """Export on vs off must not change what was measured: the merged
    windows reproduce the plain monitor's whole-run snapshot exactly."""
    kernel = _kernel()
    proc = _echo_server(kernel)
    plain = RequestMetricsMonitor(kernel, proc.pid, config="vm").attach()
    kernel.env.run(until=43 * MSEC)
    reference = plain.snapshot()

    monitor = _run_export("vm", None)
    merged = MetricsSnapshot.merge_all(monitor.exporter.windows)
    assert merged.send == reference.send
    assert merged.recv == reference.recv
    assert merged.poll == reference.poll


class TestDegradedWindows:
    def _run_lossy(self):
        # 1 ms sends into 4-record rings with 10 ms windows: each window
        # overflows before the window-close drain can relieve it.
        return _run_export("stream", None, capacity=4, sends=30,
                           period_ms=1, window_ms=10)

    def test_lost_records_reach_the_export(self):
        monitor = self._run_lossy()
        merged = MetricsSnapshot.merge_all(monitor.exporter.windows)
        assert merged.lost_records > 0
        text = monitor.exporter.render()
        families = parse_text(text)
        _check_against_source(monitor, families, text)
        assert _value(families, "repro_lost_records", "_total",
                      family="send") == merged.send_lost
        assert _value(families, "repro_confidence", family="send"
                      ) == pytest.approx(merged.confidence)
        assert _value(families, "repro_confidence", family="send") < 1.0

    def test_exemplar_carries_confidence(self):
        monitor = self._run_lossy()
        families = parse_text(monitor.exporter.render(openmetrics=True))
        last = monitor.exporter.last_window
        for base, suffix, labels in (
            ("repro_deltas", "_total", {"family": "send"}),
            ("repro_delta_ns", "_bucket", {"family": "send", "le": "+Inf"}),
        ):
            matches = [
                s for s in families[base].samples
                if s.name == base + suffix
                and all(s.labels.get(k) == v for k, v in labels.items())
            ]
            assert len(matches) == 1
            exemplar = matches[0]
            assert exemplar.exemplar_labels == {
                "confidence": f"{last.confidence:.6f}",
                "lost_records": str(last.lost_records),
            }
            assert exemplar.exemplar_value == last.send.count

    def test_classic_dialect_has_no_exemplars(self):
        monitor = self._run_lossy()
        assert " # " not in monitor.exporter.render()


def test_prometheus_client_cross_check():
    """When the real client library is importable, its parser must agree
    with the bundled one (it is not a repo dependency, so skip cleanly)."""
    prometheus_parser = pytest.importorskip("prometheus_client.parser")
    monitor = _run_export("vm", None)
    text = monitor.exporter.render()
    theirs = {
        family.name: family
        for family in prometheus_parser.text_string_to_metric_families(text)
    }
    ours = parse_text(text)
    merged = MetricsSnapshot.merge_all(monitor.exporter.windows)
    their_deltas = {
        sample.labels["family"]: sample.value
        for sample in theirs["repro_deltas"].samples
        if sample.name == "repro_deltas_total"
    }
    assert their_deltas["send"] == merged.send.count
    assert set(theirs) == set(ours)
