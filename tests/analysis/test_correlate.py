"""Unit and integration tests for the cross-layer blind-spot correlator."""

import pytest

from repro.analysis.correlate import (
    AGREE_DEGRADED,
    AGREE_HEALTHY,
    APP_SILENT,
    KERNEL_SILENT,
    TAXONOMY,
    CorrelationReport,
    correlate_windows,
    correlation_of,
)
from repro.analysis.executor import ExperimentSpec, execute_cell
from repro.analysis.executor.spec import LevelResult
from repro.core.collectors import DurationStats
from repro.core.config import CorrelateConfig
from repro.core.deltas import DeltaStats
from repro.core.monitor import MetricsSnapshot
from repro.sim.timebase import MSEC

WINDOW = 50 * MSEC
QOS = 10 * MSEC
CFG = CorrelateConfig(window_ns=WINDOW)


def _send_stats(start_ns, *, knee=False, quiet=False) -> DeltaStats:
    stats = DeltaStats()
    if quiet:
        return stats
    if knee:
        # Nine tiny gaps then one huge one: cov2 ~ 8.6, far past the run's
        # healthy baseline of ~0 (uniform gaps).
        for k in range(10):
            stats.add_timestamp(start_ns + k * 100_000)
        stats.add_timestamp(start_ns + WINDOW - MSEC)
    else:
        for k in range(25):
            stats.add_timestamp(start_ns + k * 2 * MSEC)
    return stats


def _window(index, *, knee=False, quiet=False, send_lost=0, recv_lost=0,
            poll_mean_ns=10 * MSEC) -> MetricsSnapshot:
    start = index * WINDOW
    return MetricsSnapshot(
        window_start_ns=start,
        window_end_ns=start + WINDOW,
        send=_send_stats(start, knee=knee, quiet=quiet),
        recv=_send_stats(start, quiet=quiet),
        poll=DurationStats(count=4, sum=4 * poll_mean_ns,
                           sumsq=4 * poll_mean_ns * poll_mean_ns),
        send_lost=send_lost,
        recv_lost=recv_lost,
    )


def _healthy_outcomes(index, count=10, latency_ns=MSEC):
    """Offers answered within the same window, in-flight balanced."""
    start = index * WINDOW
    events = []
    for k in range(count):
        t = start + k * 4 * MSEC
        events.append((t, "offer", k))
        events.append((t + latency_ns, "complete", latency_ns))
    return sorted(events)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = CorrelateConfig()
        assert CorrelateConfig.from_dict(cfg.to_dict()) == cfg

    def test_replace(self):
        cfg = CorrelateConfig().replace(window_ns=WINDOW // 2)
        assert cfg.window_ns == WINDOW // 2

    @pytest.mark.parametrize("kwargs", [
        {"window_ns": 0},
        {"confidence_floor": 0.5},
        {"knee_multiplier": 4.0},
        {"cov2_floor": 2.0},
        {"slack_ratio": 3.0},
        {"min_events": 4},
        {"starve_inflight": 2},
        {"qos_multiplier": 2.0},
        {"window_ns": -1},
    ])
    def test_validation(self, kwargs):
        """A window below 1 ns is rejected; the thresholds are module
        constants, so naming one is an unexpected keyword."""
        error = ValueError if set(kwargs) == {"window_ns"} else TypeError
        with pytest.raises(error):
            CorrelateConfig(**kwargs)


class TestSpecIntegration:
    def test_mapping_coerces_to_config(self):
        spec = ExperimentSpec(workload="data-caching", offered_rps=1000,
                              requests=100, correlate={"window_ns": WINDOW})
        assert isinstance(spec.correlate, CorrelateConfig)
        assert spec.correlate.window_ns == WINDOW

    def test_round_trips_through_dict(self):
        spec = ExperimentSpec(workload="data-caching", offered_rps=1000,
                              requests=100, correlate=CFG)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt.correlate == CFG
        assert rebuilt == spec

    def test_correlate_participates_in_cache_key(self):
        base = ExperimentSpec(workload="data-caching", offered_rps=1000,
                              requests=100)
        assert base.cache_key() != base.replace(correlate=CFG).cache_key()


class TestClassification:
    def test_all_healthy(self):
        snaps = [_window(i) for i in range(6)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(6)), []))
        report = correlate_windows(snaps, outcomes, CFG, QOS, workload="x")
        assert report.clean
        assert report.counts[AGREE_HEALTHY] == 6
        assert report.labels == (AGREE_HEALTHY,)
        assert not report.discrepancies

    def test_recv_only_drop_is_app_silent(self):
        # Ties the confidence-accounting fix to the correlator: a recv-only
        # outage must degrade the window (send-only confidence says 1.0).
        snaps = [_window(i, recv_lost=10 if i == 3 else 0) for i in range(6)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(6)), []))
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        assert report.windows[3].label == APP_SILENT
        assert report.windows[3].kernel_signals == ("confidence",)
        assert report.windows[3].confidence < 1.0

    def test_isolated_knee_is_suppressed(self):
        # A single-window dispersion spike with a silent app (a log-flush
        # burst) must not claim a discrepancy: persistence required.
        snaps = [_window(i, knee=(i == 3)) for i in range(6)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(6)), []))
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        assert report.windows[3].label == AGREE_HEALTHY
        assert report.windows[3].kernel_signals == ()
        assert report.clean

    def test_persistent_knee_is_app_silent(self):
        snaps = [_window(i, knee=i in (2, 3)) for i in range(6)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(6)), []))
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        for index in (2, 3):
            assert report.windows[index].label == APP_SILENT
            assert "dispersion-knee" in report.windows[index].kernel_signals
        assert report.counts[APP_SILENT] == 2

    def test_corroborated_knee_needs_no_persistence(self):
        # Same isolated knee, but the app corroborates (a QoS breach lands
        # in the window): AGREE_DEGRADED without a persistence requirement.
        snaps = [_window(i, knee=(i == 2)) for i in range(6)]
        outcomes = sum((_healthy_outcomes(i) for i in range(6)), [])
        offer_t = 2 * WINDOW - 20 * MSEC
        outcomes += [(offer_t, "offer", 99),
                     (offer_t + 60 * MSEC, "complete", 60 * MSEC)]
        report = correlate_windows(snaps, sorted(outcomes), CFG, QOS)
        assert report.windows[2].label == AGREE_DEGRADED
        assert "qos" in report.windows[2].app_signals
        assert "dispersion-knee" in report.windows[2].kernel_signals

    def test_qos_breach_alone_is_kernel_silent(self):
        snaps = [_window(i) for i in range(6)]
        outcomes = sum((_healthy_outcomes(i) for i in range(6)), [])
        offer_t = 3 * WINDOW + MSEC
        outcomes += [(offer_t, "offer", 99),
                     (offer_t + 20 * MSEC, "complete", 20 * MSEC)]
        report = correlate_windows(snaps, sorted(outcomes), CFG, QOS)
        assert report.windows[3].label == KERNEL_SILENT
        assert report.windows[3].app_signals == ("qos",)

    def test_starved_window_is_kernel_silent(self):
        snaps = [_window(i, quiet=(i == 3)) for i in range(6)]
        outcomes = sum(
            (_healthy_outcomes(i) for i in range(6) if i != 3), []
        )
        start = 3 * WINDOW
        outcomes += [(start + k * MSEC, "offer", 100 + k) for k in range(10)]
        report = correlate_windows(snaps, sorted(outcomes), CFG, QOS)
        assert report.windows[3].label == KERNEL_SILENT
        assert report.windows[3].app_signals == ("starved",)
        assert report.windows[3].inflight_end == 10

    def test_no_starvation_before_first_completion(self):
        # Offers but no completion anywhere: that's warmup/setup, not a
        # starved server mid-run.
        snaps = [_window(i) for i in range(6)]
        outcomes = [(i * WINDOW + k * MSEC, "offer", i * 100 + k)
                    for i in range(6) for k in range(10)]
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        assert report.clean

    def test_retry_and_abandon_are_app_signals(self):
        snaps = [_window(i) for i in range(6)]
        outcomes = sum((_healthy_outcomes(i) for i in range(6)), [])
        outcomes += [(2 * WINDOW + MSEC, "retry", 7),
                     (4 * WINDOW + MSEC, "abandon", 8)]
        report = correlate_windows(snaps, sorted(outcomes), CFG, QOS)
        assert "retry" in report.windows[2].app_signals
        assert "abandon" in report.windows[4].app_signals
        assert report.windows[2].label == KERNEL_SILENT
        assert report.windows[4].label == KERNEL_SILENT

    def test_slack_collapse_persistent(self):
        snaps = [
            _window(i, poll_mean_ns=MSEC if i in (2, 3) else 10 * MSEC)
            for i in range(6)
        ]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(6)), []))
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        for index in (2, 3):
            assert "slack-collapse" in report.windows[index].kernel_signals
            assert report.windows[index].label == APP_SILENT

    def test_event_at_run_end_clamps_into_last_window(self):
        snaps = [_window(i) for i in range(3)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(3)), []))
        outcomes += [(3 * WINDOW, "complete", MSEC)]
        report = correlate_windows(snaps, outcomes, CFG, QOS)
        assert report.windows[2].completions == 11

    def test_empty_inputs(self):
        report = correlate_windows([], [], CFG, QOS)
        assert report.clean
        assert report.windows == []
        assert set(report.counts) == set(TAXONOMY)


class TestReport:
    def _report(self):
        snaps = [_window(i, recv_lost=10 if i == 2 else 0) for i in range(4)]
        outcomes = sorted(sum((_healthy_outcomes(i) for i in range(4)), []))
        return correlate_windows(snaps, outcomes, CFG, QOS, workload="w")

    def test_round_trips_through_dict(self):
        report = self._report()
        rebuilt = CorrelationReport.from_dict(report.to_dict())
        assert rebuilt.workload == report.workload
        assert rebuilt.counts == report.counts
        assert rebuilt.windows == report.windows
        assert rebuilt.baseline_cov2 == report.baseline_cov2

    def test_summary_mentions_labels_and_discrepancies(self):
        text = self._report().summary()
        for label in TAXONOMY:
            assert label in text
        assert "confidence" in text

    def test_correlation_of_reads_level_result(self):
        report = self._report()

        def result(**kwargs):
            return LevelResult(
                workload="w", offered_rps=1.0, achieved_rps=1.0, p99_ns=0.0,
                p50_ns=0.0, mean_latency_ns=0.0, completed=1,
                qos_violated=False, rps_obsv=1.0, rps_obsv_recv=1.0,
                send_delta_variance=0.0, send_delta_cov2=0.0,
                recv_delta_variance=0.0, poll_mean_duration_ns=0.0,
                poll_count=0, **kwargs,
            )

        rebuilt = correlation_of(
            result(extra={"correlation": report.to_dict()})
        )
        assert rebuilt is not None
        assert rebuilt.counts == report.counts
        assert correlation_of(result()) is None


class TestRecorderIntegration:
    def test_headline_metrics_bit_identical_with_correlation(self):
        base = ExperimentSpec(workload="data-caching", offered_rps=2000,
                              requests=300)
        plain = execute_cell(base)
        correlated = execute_cell(base.replace(correlate=CFG))
        for field in ("rps_obsv", "send_delta_variance", "send_delta_cov2",
                      "poll_mean_duration_ns", "poll_count", "confidence",
                      "rps_obsv_corrected", "recv_rate_corrected",
                      "achieved_rps", "p99_ns", "lost_records"):
            assert getattr(plain, field) == getattr(correlated, field), field
        assert plain.extra is None
        assert correlation_of(correlated) is not None

    def test_windows_are_contiguous_and_cover_the_run(self):
        spec = ExperimentSpec(workload="data-caching", offered_rps=2000,
                              requests=300, correlate=CFG)
        result = execute_cell(spec)
        report = correlation_of(result)
        windows = report.windows
        assert windows[0].window_start_ns == 0
        assert windows[-1].window_end_ns == result.sim_duration_ns
        for left, right in zip(windows, windows[1:]):
            assert left.window_end_ns == right.window_start_ns

    def test_result_round_trips_like_the_process_pool(self):
        spec = ExperimentSpec(workload="data-caching", offered_rps=2000,
                              requests=300, correlate=CFG)
        result = execute_cell(spec)
        rebuilt = LevelResult(**result.to_dict())
        assert correlation_of(rebuilt).counts == correlation_of(result).counts
