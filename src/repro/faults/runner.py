"""Run one experiment cell with faults armed.

:func:`run_faulted_cell` is the fault-injection counterpart of
:func:`repro.analysis.executor.execute_cell`: same spec-driven cell, plus a
fault schedule and/or a degraded stream consumer wired in through the
cell's ``setup`` hook before the clock starts.  Faulted cells are *not*
cached — their outcome depends on the fault arguments, which are not part
of the spec's cache key.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.executor.pool import CellHandles, execute_cell
from ..analysis.executor.spec import ExperimentSpec, LevelResult
from .collection import ConsumerSchedule, SlowConsumer
from .orchestrator import FaultOrchestrator, FaultReport

__all__ = ["run_faulted_cell"]


def run_faulted_cell(
    spec: ExperimentSpec,
    faults: Sequence = (),
    consumer: Optional[ConsumerSchedule] = None,
    retry_timeout_ns: Optional[int] = None,
) -> Tuple[LevelResult, FaultReport]:
    """Execute ``spec`` with the given fault schedule; returns the level
    result plus the orchestrator's :class:`FaultReport`.

    ``consumer`` (stream mode only) replaces the implicit
    drain-everything-at-snapshot consumer with a scheduled one, so a small
    ``spec.stream_capacity`` plus consumer pauses produces real
    ``lost_records``.  ``retry_timeout_ns`` should be set whenever the
    schedule contains faults that can swallow requests outright
    (``WorkerCrash`` without restart, ``ConnectionReset``), otherwise the
    cell never finishes.

    The cell runs the workload-sim tier its spec names, like a clean cell.
    """
    state = {}

    def setup(handles: CellHandles) -> None:
        if faults:
            state["orchestrator"] = FaultOrchestrator(
                handles.env, handles.kernel, handles.app, faults
            ).start()
        if consumer is not None:
            state["consumer"] = SlowConsumer(
                handles.env,
                (handles.monitor.send_collector, handles.monitor.recv_collector),
                consumer,
            ).start()

    result = execute_cell(spec, setup=setup, retry_timeout_ns=retry_timeout_ns)
    orchestrator = state.get("orchestrator")
    report = orchestrator.report if orchestrator is not None else FaultReport()
    return result, report
