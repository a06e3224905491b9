"""Cell execution and the parallel experiment executor.

:func:`execute_cell` runs one :class:`ExperimentSpec` to completion — boot
a kernel, start the app, attach the observability monitor, drive an
open-loop burst of requests, collect every signal.  :func:`run_cells` fans
a batch of cells out across a process pool, consulting a
:class:`ResultCache` first and reporting progress through a telemetry
callback.

Determinism: each cell derives its own :class:`SeedSequence` from its spec
(see :meth:`ExperimentSpec.seed_sequence`), so results are a pure function
of the spec — ``jobs=4`` is bit-identical to ``jobs=1``, a cache hit is
bit-identical to a fresh computation, and a shard's output is positionally
bit-identical to the corresponding slice of the unsharded batch.

Fleet-scale path (DESIGN.md §11): submission is bounded-inflight (at most
``2 * jobs`` pickled specs outstanding, backfilled as futures drain —
never the whole batch up front), completed results can stream to a
:class:`~repro.analysis.executor.spill.ResultSpill` instead of
accumulating in RAM, and a ``shard="i/N"`` knob deterministically
partitions the batch across independent invocations.
"""

from __future__ import annotations

import time
import tracemalloc
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...core.monitor import MetricsSnapshot, RequestMetricsMonitor
from ...core.windows import window_estimates
from ...kernel.kernel import Kernel
from ...loadgen.client import ClientReport, OpenLoopClient
from ...net.netem import NetemConfig
from ...sim.engine import Environment
from .cache import ResultCache
from .spec import ExperimentSpec, LevelResult
from .spill import ResultSpill

__all__ = [
    "CellHandles",
    "CellProgress",
    "ExecutorStats",
    "ProgressCallback",
    "execute_cell",
    "parse_shard",
    "run_cells",
]

#: Per-window Eq. 1 estimates every cell computes (``LevelResult.window_rps``,
#: Fig. 2's green dots).
ESTIMATE_WINDOWS = 10


class _SendTimestampProbe:
    """Minimal native probe recording send-family sys_enter timestamps
    (for the per-window estimates of Fig. 2's residual analysis).

    The window bus cannot replace it: ``window_rps`` splits the sends,
    trimmed at ``client.last_offered_ns``, into equal-*count* windows,
    and that trim point is only known after the run.  The vm/native
    collectors keep no per-event timestamps, so fixed-time bus windows
    cannot produce those estimates.
    """

    def __init__(self, kernel: Kernel, tgid: int, syscall_nrs) -> None:
        self.kernel = kernel
        self.tgid = tgid
        self.nrs = frozenset(syscall_nrs)
        self.timestamps: List[int] = []

    def __call__(self, pid_tgid: int, nr: int, args, ktime_ns: int) -> int:
        if pid_tgid >> 32 == self.tgid and nr in self.nrs:
            self.timestamps.append(ktime_ns)
        return 0

    def attach(self) -> "_SendTimestampProbe":
        self.kernel.tracepoints.sys_enter.attach(self)
        return self


@dataclass
class CellHandles:
    """Live simulation objects of one running cell, handed to ``setup``
    hooks (fault orchestration, extra probes) before the clock starts."""

    env: "Environment"
    kernel: Kernel
    app: object
    monitor: RequestMetricsMonitor
    client: OpenLoopClient


def execute_cell(
    spec: ExperimentSpec,
    *,
    setup: Optional[Callable[[CellHandles], None]] = None,
    retry_timeout_ns: Optional[int] = None,
) -> LevelResult:
    """Run one experiment cell to completion and collect all signals.

    ``setup``, if given, is called with the cell's live objects after the
    client is constructed but before the simulation runs — the hook point
    for fault injectors.  ``retry_timeout_ns`` arms the client's
    retransmission watchdog (needed when faults can swallow requests
    outright, e.g. connection resets).  Cells run with either knob are
    *not* pure functions of the spec, so callers must bypass the result
    cache — :func:`repro.faults.run_faulted_cell` does exactly that.
    """
    definition = spec.definition
    config = definition.config
    machine = spec.machine.with_cores(config.cores)
    if config.interference_scale != 1.0:
        from dataclasses import replace as _replace

        machine = _replace(
            machine,
            interference=_replace(
                machine.interference,
                stall_mean_ns=max(1, int(machine.interference.stall_mean_ns
                                         * config.interference_scale)),
            ),
        )
    env = Environment()
    seeds = spec.seed_sequence()
    kernel = Kernel(env, machine, seeds)

    app = definition.build(
        kernel,
        spec.client_to_server,
        spec.server_to_client,
        sim_tier=spec.resolved_sim_tier,
    )
    monitor = RequestMetricsMonitor(
        kernel, app.tgid, spec=config.syscalls, config=spec.collector_config(),
    ).attach()
    send_probe = _SendTimestampProbe(kernel, app.tgid, (config.syscalls.send_nr,)).attach()

    client = OpenLoopClient(
        env,
        app.client_sockets,
        seeds.stream("client:arrivals"),
        rate_rps=spec.offered_rps,
        total_requests=spec.requests,
        request_size=config.request_size,
        qos_latency_ns=config.qos_latency_ns,
        # Fixed-rate arrivals, as TailBench paces them (DESIGN.md §2); the
        # client's own default is Poisson.
        arrival="uniform",
        phases=spec.phases,
        retry_timeout_ns=retry_timeout_ns,
    )
    # Export subscribed to the window bus at attach(); the correlator and
    # the controller subscribe just before the client starts.
    correlated: List[MetricsSnapshot] = []
    if spec.correlate is not None:

        def keep_tail(tail: MetricsSnapshot) -> None:
            if tail.duration_ns > 0:  # keep the windows gap-free
                correlated.append(tail)

        monitor.bus.subscribe(spec.correlate.window_ns, correlated.append,
                              on_tail=keep_tail)
        outcome_log = client.enable_outcome_log()
    controller = None
    if spec.control is not None:
        from ...control import QoSController

        controller = QoSController(app, monitor, spec.control)
    if setup is not None:
        setup(CellHandles(env=env, kernel=kernel, app=app,
                          monitor=monitor, client=client))
    client.start()
    report: ClientReport = env.run(until=client.done)
    # Every window the bus closed, merged: bit-identical to an unwindowed
    # snapshot in vm/native modes (carried-anchor windows telescope).
    snapshot = monitor.bus.finish()
    extra = {}
    if spec.correlate is not None:
        # Imported lazily: cells without correlation never pay for it.
        from ..correlate import correlate_windows

        extra["correlation"] = correlate_windows(
            correlated,
            outcome_log,
            spec.correlate,
            config.qos_latency_ns,
            workload=definition.key,
        ).to_dict()
    if controller is not None:
        extra["control"] = controller.summary(report, config.qos_latency_ns)
    export_payload: Optional[dict] = None
    if monitor.exporter is not None:
        exporter = monitor.exporter
        export_payload = {
            "windows": len(exporter.windows),
            "window_ns": spec.export.window_ns,
            "window_rps": [w.rps_obsv for w in exporter.windows],
            "window_lost": [w.lost_records for w in exporter.windows],
            "window_confidence": [w.confidence for w in exporter.windows],
            "scrapes": exporter.render_count,
            "bytes_rendered": exporter.bytes_rendered,
            "text": exporter.render(),
            "openmetrics": exporter.render(openmetrics=True),
        }

    # Steady-state trim for the per-window estimates too: sends after the
    # final offered arrival belong to the drain, not the measured load.
    send_times = send_probe.timestamps
    if client.last_offered_ns is not None:
        send_times = [t for t in send_times if t <= client.last_offered_ns]

    c2s = spec.client_to_server or NetemConfig.ideal()
    return LevelResult(
        workload=definition.key,
        offered_rps=spec.offered_rps,
        achieved_rps=report.achieved_rps,
        p99_ns=report.p99_ns,
        p50_ns=report.latency.p50_ns(),
        mean_latency_ns=report.latency.mean_ns(),
        completed=report.completed,
        qos_violated=report.qos_violated,
        abandoned=report.abandoned,
        rejected=report.rejected,
        late_completions=sum(
            1 for s in report.latency.samples() if s > config.qos_latency_ns
        ),
        rps_obsv=snapshot.rps_obsv,
        rps_obsv_recv=snapshot.rps_obsv_recv,
        send_delta_variance=float(snapshot.send_delta_variance),
        send_delta_cov2=snapshot.send_delta_cov2,
        recv_delta_variance=float(snapshot.recv_delta_variance),
        poll_mean_duration_ns=float(snapshot.poll_mean_duration_ns),
        poll_count=snapshot.poll.count,
        window_rps=window_estimates(send_times, ESTIMATE_WINDOWS),
        lost_records=snapshot.lost_records,
        confidence=snapshot.overall_confidence,
        rps_obsv_corrected=snapshot.rps_obsv_corrected,
        recv_rate_corrected=snapshot.recv_rate_corrected,
        machine=machine.name,
        netem_label=c2s.label(),
        utilization=kernel.cpu.utilization(),
        sim_duration_ns=env.now,
        export=export_payload,
        extra=extra or None,
    )


# Translation-cache counters aggregated across workers.  Workers report
# per-cell *deltas* (snapshot before/after each cell), so sums stay exact
# even though pool workers are persistent across cells.  ``declined``
# counts the programs a cell handed to the reference VM, ``verified`` the
# verifier walks its loads ran, and ``fused_builds``/``fused_hits`` the
# tracepoint dispatchers it compiled or reused (not translations).
_TRANSLATION_KEYS = ("hits", "misses", "translations", "translate_ns", "declined", "verified",
                     "fused_builds", "fused_hits")


def _translation_counters() -> Dict[str, int]:
    from ...ebpf.translation import translation_cache_stats

    stats = translation_cache_stats()
    return {key: stats[key] for key in _TRANSLATION_KEYS}


def _counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def _merge_counters(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value


def _pool_worker_init() -> None:
    """Pool initializer.  A forked worker inherits a running
    ``tracemalloc`` from its parent (a harness measuring the parent's
    heap); it is stopped here, since it would slow every cell
    several-fold and trace nobody's heap."""
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def _cell_worker(payload: dict) -> dict:
    """Process-pool entry point: dicts in, dicts out (spawn-safe, picklable).

    Alongside the result, reports the translation-cache counter delta the
    cell caused in this worker, so the parent can aggregate fleet-wide
    cache effectiveness without assuming one worker per cell.
    """
    before = _translation_counters()
    result = execute_cell(ExperimentSpec.from_dict(payload)).to_dict()
    return {
        "result": result,
        "translation": _counter_delta(before, _translation_counters()),
    }


def parse_shard(shard: Union[None, str, Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """Parse a ``"i/N"`` shard designator into a 1-based ``(i, N)`` pair.

    Shard ``i`` of ``N`` owns the batch positions ``p`` with
    ``p % N == i - 1`` — a pure function of position, so the same batch
    sharded any way always partitions identically and the per-shard
    outputs union to the unsharded result bit-identically.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        try:
            index_s, _, count_s = shard.partition("/")
            parsed = (int(index_s), int(count_s))
        except ValueError:
            raise ValueError(
                f"shard must look like 'i/N' (e.g. '1/4'), got {shard!r}"
            ) from None
    else:
        parsed = (int(shard[0]), int(shard[1]))
    index, count = parsed
    if count < 1 or not (1 <= index <= count):
        raise ValueError(f"shard index must satisfy 1 <= i <= N, got {index}/{count}")
    return index, count


@dataclass(frozen=True)
class CellProgress:
    """One telemetry event: a cell finished (from cache or computed)."""

    #: Position of the cell in the submitted batch.
    index: int
    #: Batch size.
    total: int
    #: The cell's spec.
    spec: ExperimentSpec
    #: ``"cache"`` or ``"computed"``.
    source: str
    #: Cells finished so far (cache hits + computed).
    done: int
    #: Cache hits so far.
    cache_hits: int
    #: Cells computed so far.
    computed: int
    #: Wall-clock seconds since the batch started.
    elapsed_s: float


@dataclass
class ExecutorStats:
    """End-of-batch telemetry: cells done, cache hits, wall-clock.

    ``translation`` aggregates the translation-cache counter deltas this
    batch caused (parent plus the per-cell deltas every worker reported),
    ``declined`` included, ``result_cache`` the :class:`ResultCache`
    hit/miss/put deltas — together they make the amortization claims of
    the fleet-scale sweep path measurable from any run's own ``--json``
    output.
    """

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_s: float = 0.0
    #: Cells that failed in a worker but were recovered by the one
    #: in-process retry (counted in ``computed`` as well).
    retried: int = 0
    #: Cells with no result: the worker failed *and* the in-process retry
    #: failed.  Their batch positions stay ``None`` in the results list.
    failed: int = 0
    #: ``{"index", "label", "error"}`` per unrecoverable cell.
    errors: List[dict] = field(default_factory=list)
    #: The ``"i/N"`` designator when the batch ran sharded.
    shard: Optional[str] = None
    #: Results streamed to a :class:`ResultSpill` instead of held in RAM.
    spilled: int = 0
    #: Translation-cache counter deltas for the whole batch.
    translation: Optional[Dict[str, int]] = None
    #: ResultCache hit/miss/put deltas for the batch.
    result_cache: Optional[Dict[str, int]] = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def summary(self) -> str:
        text = (
            f"{self.total} cells: {self.cache_hits} cached, "
            f"{self.computed} computed in {self.wall_s:.2f}s"
        )
        if self.failed:
            text += f" ({self.failed} failed)"
        return text


ProgressCallback = Callable[[CellProgress], None]


def run_cells(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    shard: Union[None, str, Tuple[int, int]] = None,
    spill: Union[None, bool, str, Path, ResultSpill] = None,
) -> Tuple[Union[List[Optional[LevelResult]], ResultSpill], ExecutorStats]:
    """Run a batch of cells, in spec order, across up to ``jobs`` workers.

    Cache hits are served first (and never occupy a worker); only missing
    cells are computed.  Freshly computed results are written back to the
    cache from the parent process, so concurrent workers never race on the
    cache directory.  The returned results list is ordered like ``specs``
    regardless of completion order.

    ``shard="i/N"`` runs only the batch positions owned by shard ``i`` of
    ``N`` (see :func:`parse_shard`); positions owned by other shards stay
    ``None``, so N shard invocations union positionally into exactly the
    unsharded output.

    ``spill`` streams completed results to a
    :class:`~repro.analysis.executor.spill.ResultSpill` (``True`` for a
    fresh one under ``results/``, a path, or an instance) instead of
    holding them in RAM; the spill object is returned in place of the
    results list — call ``materialize()`` on it for small batches.

    At most ``2 * jobs`` submitted cells are outstanding at once — specs
    are pickled as workers free up, never all up front.  A cell whose
    worker fails is retried once in the parent; cells that still fail are
    reported in ``ExecutorStats.failed`` / ``.errors`` with their
    positions left ``None``, instead of aborting the rest of the batch.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    shard_parsed = parse_shard(shard)
    owned = list(range(len(specs)))
    if shard_parsed is not None:
        shard_index, shard_count = shard_parsed
        owned = [p for p in owned if p % shard_count == shard_index - 1]

    if spill is None or spill is False:
        spill_sink: Optional[ResultSpill] = None
    elif isinstance(spill, ResultSpill):
        spill_sink = spill
        if spill_sink.total is None:
            spill_sink.total = len(specs)
    elif spill is True:
        spill_sink = ResultSpill(total=len(specs))
    else:
        spill_sink = ResultSpill(spill, total=len(specs))

    start = time.perf_counter()
    stats = ExecutorStats(total=len(owned))
    if shard_parsed is not None:
        stats.shard = f"{shard_parsed[0]}/{shard_parsed[1]}"
    results: List[Optional[LevelResult]] = (
        [] if spill_sink is not None else [None] * len(specs)
    )
    cache_before = cache.stats() if cache is not None else None
    translation: Dict[str, int] = {}
    parent_before = _translation_counters()

    def emit(index: int, source: str) -> None:
        if progress is not None:
            progress(CellProgress(
                index=index,
                total=len(owned),
                spec=specs[index],
                source=source,
                done=stats.cache_hits + stats.computed,
                cache_hits=stats.cache_hits,
                computed=stats.computed,
                elapsed_s=time.perf_counter() - start,
            ))

    def deliver(index: int, result: LevelResult) -> None:
        if spill_sink is not None:
            spill_sink.add(index, result)
            stats.spilled += 1
        else:
            results[index] = result

    def finish(index: int, result: LevelResult) -> None:
        stats.computed += 1
        if cache is not None:
            cache.put(specs[index], result)
        deliver(index, result)
        emit(index, "computed")

    def fail(index: int, error: BaseException) -> None:
        stats.failed += 1
        stats.errors.append({
            "index": index,
            "label": specs[index].label(),
            "error": f"{type(error).__name__}: {error}",
        })

    def retry_in_process(index: int, error: BaseException) -> None:
        # One in-process retry: cells are pure functions of their spec, so
        # this recovers environmental worker deaths (OOM kill, broken
        # pool) bit-identically; deterministic cell bugs fail again here
        # and are recorded instead of sinking the rest of the batch.
        try:
            result = execute_cell(specs[index])
        except Exception as retry_error:  # noqa: BLE001 - reported, not hidden
            fail(index, retry_error)
        else:
            stats.retried += 1
            finish(index, result)

    try:
        pending: List[int] = []
        for index in owned:
            hit = cache.get(specs[index]) if cache is not None else None
            if hit is not None:
                stats.cache_hits += 1
                deliver(index, hit)
                emit(index, "cache")
            else:
                pending.append(index)

        workers = min(jobs, len(pending))
        if workers <= 1:
            for index in pending:
                try:
                    result = execute_cell(specs[index])
                except Exception as error:  # noqa: BLE001 - reported, not hidden
                    fail(index, error)
                else:
                    finish(index, result)
        else:
            inflight_cap = 2 * workers
            backlog = iter(pending)
            inflight: Dict[object, int] = {}
            pool_broken = False

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_worker_init,
            ) as pool:

                def submit_next() -> bool:
                    nonlocal pool_broken
                    if pool_broken:
                        return False
                    for index in backlog:
                        try:
                            future = pool.submit(
                                _cell_worker, specs[index].to_dict()
                            )
                        except Exception as error:  # pool broken mid-batch
                            pool_broken = True
                            retry_in_process(index, error)
                            return False
                        inflight[future] = index
                        return True
                    return False

                while len(inflight) < inflight_cap and submit_next():
                    pass
                while inflight:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = inflight.pop(future)
                        try:
                            payload = future.result()
                        except Exception as error:  # noqa: BLE001
                            retry_in_process(index, error)
                        else:
                            _merge_counters(
                                translation, payload["translation"]
                            )
                            finish(index, LevelResult(**payload["result"]))
                        submit_next()
                # Cells never submitted because the pool broke run here.
                for index in backlog:
                    try:
                        result = execute_cell(specs[index])
                    except Exception as error:  # noqa: BLE001
                        fail(index, error)
                    else:
                        finish(index, result)
    finally:
        _merge_counters(
            translation, _counter_delta(parent_before, _translation_counters())
        )

    stats.translation = translation
    if cache is not None and cache_before is not None:
        stats.result_cache = _counter_delta(cache_before, cache.stats())
    stats.wall_s = time.perf_counter() - start
    return (spill_sink if spill_sink is not None else results), stats
