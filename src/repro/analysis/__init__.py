"""Experiment harness: typed specs, parallel executor, persistence, renderers."""

from .correlate import (
    AGREE_DEGRADED,
    AGREE_HEALTHY,
    APP_SILENT,
    KERNEL_SILENT,
    TAXONOMY,
    CorrelationReport,
    WindowVerdict,
    correlate_windows,
    correlation_of,
)
from .executor import (
    CellProgress,
    ExecutorStats,
    ExperimentSpec,
    ProgressCallback,
    ResultCache,
    default_cache_dir,
    execute_cell,
    run_cells,
)
from .experiment import (
    DEFAULT_SEED,
    LevelResult,
    SweepResult,
    default_levels,
    run_level,
    sweep,
)
from .figures import figure_header, series_table, sparkline
from .report import load_results, render_report
from .results import load_sweep, results_dir, save_record, save_sweep
from .tables import render_table1, render_table2
from .timeline import phase_summary, render_stream, render_timeline

__all__ = [
    # cross-layer correlation
    "AGREE_DEGRADED",
    "AGREE_HEALTHY",
    "APP_SILENT",
    "KERNEL_SILENT",
    "TAXONOMY",
    "CorrelationReport",
    "WindowVerdict",
    "correlate_windows",
    "correlation_of",
    # specs + executor
    "ExperimentSpec",
    "ResultCache",
    "default_cache_dir",
    "execute_cell",
    "run_cells",
    "CellProgress",
    "ExecutorStats",
    "ProgressCallback",
    # sweep harness
    "run_level",
    "sweep",
    "default_levels",
    "LevelResult",
    "SweepResult",
    "DEFAULT_SEED",
    # persistence
    "save_sweep",
    "load_sweep",
    "save_record",
    "results_dir",
    # renderers
    "sparkline",
    "series_table",
    "figure_header",
    "render_table1",
    "render_table2",
    "phase_summary",
    "render_stream",
    "render_timeline",
    "load_results",
    "render_report",
]
