"""ebpf-observer: in-kernel observability of request-level metrics.

Reproduction of *"Characterizing In-Kernel Observability of Latency-Sensitive
Request-Level Metrics with eBPF"* (ISPASS 2024) as a pure-Python simulation
stack:

* :mod:`repro.sim` — discrete-event engine (integer-ns clock);
* :mod:`repro.kernel` — simulated Linux-like kernel with a real syscall
  enter/exit tracepoint path;
* :mod:`repro.net` — tc-netem-style network substrate;
* :mod:`repro.ebpf` — eBPF substrate: bytecode, verifier, VM, maps, bcc-like
  frontend;
* :mod:`repro.workloads` — the paper's nine latency-sensitive workloads;
* :mod:`repro.loadgen` — open-loop clients and latency accounting;
* :mod:`repro.core` — the paper's contribution: syscall-statistics
  observability of RPS, saturation and saturation slack;
* :mod:`repro.faults` — scripted fault injection (degraded collection
  path, server stalls/crashes, connection resets) for the robustness
  experiments;
* :mod:`repro.analysis` — experiment harness regenerating every table and
  figure;
* :mod:`repro.export` — streaming Prometheus export stage consuming the
  collector pipeline (text/OpenMetrics exposition, ``/metrics`` server).
"""

__version__ = "1.16.0"

from .analysis import (
    ExperimentSpec,
    LevelResult,
    ResultCache,
    SweepResult,
    default_levels,
    run_cells,
    run_level,
    sweep,
)
from .core import (
    CollectorConfig,
    ExportConfig,
    MetricsSnapshot,
    RequestMetricsMonitor,
)
from .faults import (
    ConnectionReset,
    ConsumerSchedule,
    WorkerCrash,
    WorkerStall,
    run_faulted_cell,
)
from .kernel import AMD_EPYC_7302, INTEL_XEON_E5_2620, Kernel, MachineSpec
from .loadgen import OpenLoopClient
from .net import NetemConfig
from .sim import Environment, SeedSequence
from .workloads import WORKLOADS, get_workload, workload_keys

__all__ = [
    "__version__",
    "Kernel",
    "MachineSpec",
    "AMD_EPYC_7302",
    "INTEL_XEON_E5_2620",
    "Environment",
    "SeedSequence",
    "NetemConfig",
    "OpenLoopClient",
    "RequestMetricsMonitor",
    "MetricsSnapshot",
    "CollectorConfig",
    "ExportConfig",
    "WORKLOADS",
    "get_workload",
    "workload_keys",
    "run_level",
    "sweep",
    "default_levels",
    "ExperimentSpec",
    "LevelResult",
    "SweepResult",
    "ResultCache",
    "run_cells",
    "ConnectionReset",
    "ConsumerSchedule",
    "WorkerCrash",
    "WorkerStall",
    "run_faulted_cell",
]
