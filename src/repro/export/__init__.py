"""``repro.export`` — the streaming Prometheus export pipeline.

The consumer stage of the unified collector API (ROADMAP item 3,
ebpf_exporter-style): collectors aggregate in-kernel, the monitor
subscribes its exporter to its window bus
(:class:`~repro.core.WindowBus`) at the export cadence, and this package
turns the windows into Prometheus exposition text — counters and in-probe
log2 histograms that match the source
:class:`~repro.core.deltas.DeltaStats` bit-for-bit, with OpenMetrics
exemplars carrying lost-record confidence.  The bus is shared, so export
runs alongside the correlator and the controller in one cell.

Turn it on by attaching an :class:`~repro.core.config.ExportConfig` to the
:class:`~repro.core.config.CollectorConfig` handed to the monitor (or to
``ExperimentSpec.export``), then read ``monitor.exporter``::

    config = CollectorConfig(mode="vm", export=ExportConfig(window_ns=50 * MSEC))
    monitor = RequestMetricsMonitor(kernel, tgid, config=config).attach()
    env.run(until=...)
    monitor.bus.finish()  # observe the partial tail window
    text = monitor.exporter.render()
"""

from ..core.config import ExportConfig
from .exporter import PrometheusExporter
from .metrics import MetricFamily, render_exposition
from .server import MetricsServer

__all__ = [
    "ExportConfig",
    "MetricFamily",
    "MetricsServer",
    "ParseError",
    "PrometheusExporter",
    "parse_text",
    "render_exposition",
]


def __getattr__(name):
    # Lazy so `python -m repro.export.parser` (the CI validation filter)
    # does not re-import its own module through the package and trip
    # runpy's found-in-sys.modules warning.
    if name in ("ParseError", "parse_text"):
        from . import parser

        return getattr(parser, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
