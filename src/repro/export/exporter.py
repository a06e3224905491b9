"""The streaming Prometheus export stage.

:class:`PrometheusExporter` is the consumer end of the unified collector
pipeline: the monitor's window bus hands it a :class:`MetricsSnapshot`
window every ``ExportConfig.window_ns`` of simulated time; a *scrape*
renders the accumulated state as Prometheus exposition text (classic
0.0.4 or OpenMetrics).  The design follows ebpf_exporter's
split: the probes aggregate in-kernel (counters, sums, log2 histogram
buckets), userspace only merges windows and formats text — so the
exporter's marginal cost is windowing + rendering, which is exactly what
``bench_export_overhead.py`` characterizes.

Degraded collection is first-class: every window's ``lost_records`` feed a
counter, and (in the OpenMetrics dialect) the live delta counter and the
``+Inf`` histogram bucket carry an exemplar whose labels encode the last
window's confidence — a scraper can tell *how much* to trust a sample, not
just its value.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.config import ExportConfig
from ..core.monitor import MetricsSnapshot
from .metrics import (
    Exemplar,
    MetricFamily,
    render_exposition,
)
from ..core.histograms import NBUCKETS, bucket_upper_bound

__all__ = ["PrometheusExporter"]

#: Nanoseconds per second (timestamp rendering).
_NS_PER_S = 1_000_000_000

#: Metric-name prefix (``repro_deltas_total``, ...).
NAMESPACE = "repro"


class PrometheusExporter:
    """Accumulates observation windows and renders Prometheus text.

    The exported counters are *cumulative over the windows observed so
    far* (Prometheus counter semantics), computed by merging the window
    snapshots — so every counter equals the corresponding field of the
    merged :class:`~repro.core.monitor.MetricsSnapshot` exactly, in the
    collectors' own integer arithmetic.  Per-window views (rates,
    confidence) are exported as gauges of the most recent window.
    """

    def __init__(self, config: Optional[ExportConfig] = None) -> None:
        self.config = config if config is not None else ExportConfig()
        #: Every window observed, in arrival order.
        self.windows: List[MetricsSnapshot] = []
        #: Number of scrapes rendered.
        self.render_count = 0
        #: Total exposition bytes rendered (the overhead study's metric).
        self.bytes_rendered = 0

    # -- ingestion -------------------------------------------------------
    def observe_window(self, snapshot: MetricsSnapshot) -> None:
        """Ingest one closed observation window."""
        self.windows.append(snapshot)

    def aggregate(self) -> Optional[MetricsSnapshot]:
        """All observed windows merged into one snapshot (None when empty)."""
        if not self.windows:
            return None
        return MetricsSnapshot.merge_all(self.windows)

    @property
    def last_window(self) -> Optional[MetricsSnapshot]:
        return self.windows[-1] if self.windows else None

    # -- rendering -------------------------------------------------------
    def _exemplar(self) -> Optional[Exemplar]:
        """Confidence exemplar from the most recent window."""
        last = self.last_window
        if last is None:
            return None
        return Exemplar(
            labels=(
                ("confidence", f"{last.confidence:.6f}"),
                ("lost_records", str(last.lost_records)),
            ),
            value=last.send.count,
            timestamp=last.window_end_ns / _NS_PER_S,
        )

    def families(self) -> List[MetricFamily]:
        """Build the family model for the current state."""
        def ns(suffix: str) -> str:
            return f"{NAMESPACE}_{suffix}"

        agg = self.aggregate()
        last = self.last_window
        exemplar = self._exemplar()
        families: List[MetricFamily] = []

        windows = MetricFamily(
            ns("windows"), "counter", "Observation windows exported.")
        windows.add(len(self.windows), ())
        families.append(windows)

        scrapes = MetricFamily(
            ns("scrapes"), "counter", "Scrapes rendered by this exporter.")
        scrapes.add(self.render_count, ())
        families.append(scrapes)

        observed = MetricFamily(
            ns("observed_syscalls"), "counter",
            "Syscall events observed by the collection path.")
        deltas = MetricFamily(
            ns("deltas"), "counter",
            "Inter-syscall deltas accumulated (Eq. 1/2 population).")
        delta_sum = MetricFamily(
            ns("delta_sum_ns"), "counter",
            "Sum of inter-syscall deltas, integer nanoseconds.")
        delta_sumsq = MetricFamily(
            ns("delta_sumsq_ns2"), "counter",
            "Sum of squared inter-syscall deltas, integer ns^2.")
        lost = MetricFamily(
            ns("lost_records"), "counter",
            "Collection-path records dropped (degraded windows).")
        for family_name, stats, lost_count in (
            ("send", agg.send if agg else None,
             agg.send_lost if agg else 0),
            ("recv", agg.recv if agg else None,
             agg.recv_lost if agg else 0),
        ):
            labels = (("family", family_name),)
            observed.add(stats.events if stats else 0, labels)
            deltas.add(
                stats.count if stats else 0, labels,
                exemplar=exemplar if family_name == "send" else None,
            )
            delta_sum.add(stats.sum if stats else 0, labels)
            delta_sumsq.add(stats.sumsq if stats else 0, labels)
            lost.add(lost_count, labels)
        families.extend([observed, deltas, delta_sum, delta_sumsq, lost])

        hist = MetricFamily(
            ns("delta_ns"), "histogram",
            "Inter-syscall delta distribution, log2 buckets (in-probe).")
        for family_name, stats, histogram in (
            ("send", agg.send if agg else None, agg.send_hist if agg else None),
            ("recv", agg.recv if agg else None, agg.recv_hist if agg else None),
        ):
            if histogram is None:
                continue
            labels = (("family", family_name),)
            cumulative = histogram.cumulative()
            for bucket in range(NBUCKETS):
                hist.add(
                    cumulative[bucket],
                    labels + (("le", str(bucket_upper_bound(bucket))),),
                    suffix="_bucket",
                )
            hist.add(
                histogram.total, labels + (("le", "+Inf"),),
                suffix="_bucket",
                exemplar=exemplar if family_name == "send" else None,
            )
            hist.add(stats.sum if stats else 0, labels, suffix="_sum")
            hist.add(histogram.total, labels, suffix="_count")
        if hist.samples:
            families.append(hist)

        poll = MetricFamily(
            ns("poll_duration_ns"), "summary",
            "Poll-family syscall durations, integer nanoseconds.")
        poll.add(agg.poll.count if agg else 0, (), suffix="_count")
        poll.add(agg.poll.sum if agg else 0, (), suffix="_sum")
        families.append(poll)

        rps = MetricFamily(
            ns("rps_obsv"), "gauge",
            "Eq. 1 observed request rate over all exported windows.")
        corrected = MetricFamily(
            ns("rps_obsv_corrected"), "gauge",
            "Eq. 1 rate re-credited for known lost records.")
        variance = MetricFamily(
            ns("delta_variance_ns2"), "gauge",
            "Eq. 2 integer delta variance over all exported windows.")
        confidence = MetricFamily(
            ns("confidence"), "gauge",
            "Fraction of events that reached the statistics (1.0 = clean).")
        last_rps = MetricFamily(
            ns("last_window_rps"), "gauge",
            "Eq. 1 rate of the most recent window alone.")
        for family_name, rate, var, conf, last_rate in (
            ("send",
             agg.rps_obsv if agg else 0.0,
             agg.send_delta_variance if agg else 0,
             agg.confidence if agg else 1.0,
             last.rps_obsv if last else 0.0),
            ("recv",
             agg.rps_obsv_recv if agg else 0.0,
             agg.recv_delta_variance if agg else 0,
             agg.recv_confidence if agg else 1.0,
             last.rps_obsv_recv if last else 0.0),
        ):
            labels = (("family", family_name),)
            rps.add(rate, labels)
            variance.add(var, labels)
            confidence.add(conf, labels)
            last_rps.add(last_rate, labels)
        corrected.add(
            agg.rps_obsv_corrected if agg else 0.0,
            (("family", "send"),))
        families.extend([rps, corrected, variance, confidence, last_rps])
        return families

    def render(self, openmetrics: bool = False) -> str:
        """Render one scrape body (counts toward the exporter's own cost)."""
        text = render_exposition(self.families(), openmetrics=openmetrics)
        self.render_count += 1
        self.bytes_rendered += len(text)
        return text

    def scrape(self, openmetrics: bool = False) -> str:
        """Alias of :meth:`render` — the name HTTP handlers use."""
        return self.render(openmetrics=openmetrics)
