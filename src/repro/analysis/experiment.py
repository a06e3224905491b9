"""The load-sweep experiment runner.

One cell = one (workload, offered-RPS, netem, machine) experiment; the
canonical description of a cell is an :class:`ExperimentSpec` and the
machinery that runs batches of them lives in :mod:`repro.analysis.executor`.
This module keeps the high-level entry points on top of it:

* :func:`run_level` — run one cell from its typed spec;
* :func:`sweep` — a full load sweep, optionally parallel (``jobs=N``) and
  cached (``cache=...``), returning a :class:`SweepResult`.

The legacy ``run_level(definition, rate, ...)`` keyword form completed its
deprecation cycle and was removed; every old keyword has a same-named
:class:`ExperimentSpec` field.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..workloads.registry import WorkloadDefinition, get_workload
from .executor import (
    DEFAULT_SEED,
    ExperimentSpec,
    LevelResult,
    ProgressCallback,
    ResultCache,
    SweepResult,
    execute_cell,
    run_cells,
)

__all__ = [
    "ExperimentSpec",
    "LevelResult",
    "SweepResult",
    "run_level",
    "sweep",
    "default_levels",
    "DEFAULT_SEED",
]


def run_level(spec: ExperimentSpec) -> LevelResult:
    """Run one load level to completion and collect all signals."""
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "run_level takes a single ExperimentSpec; the legacy "
            "run_level(definition, rate, ...) form has been removed — build "
            "an ExperimentSpec(workload=..., offered_rps=..., ...) instead "
            "(every old keyword has a same-named spec field)"
        )
    return execute_cell(spec)


def default_levels(definition: WorkloadDefinition, count: int = 10,
                   low_frac: float = 0.3, high_frac: float = 1.1) -> List[float]:
    """Evenly spaced offered-RPS levels up to past the paper's failure RPS."""
    if count < 2:
        raise ValueError("need at least two levels")
    fail = definition.paper_fail_rps
    if fail <= 0:
        raise ValueError(f"workload {definition.key} has no calibrated failure RPS")
    step = (high_frac - low_frac) / (count - 1)
    return [fail * (low_frac + i * step) for i in range(count)]


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(Path(cache))


def sweep(
    definition: Union[WorkloadDefinition, str],
    levels: Optional[Sequence[float]] = None,
    requests: int = 3000,
    *,
    jobs: int = 1,
    cache: Union[None, bool, str, Path, ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    shard: Optional[str] = None,
    **level_kwargs,
) -> SweepResult:
    """Run a full load sweep (Figs. 2/3/4 trajectories).

    ``jobs`` fans the levels out across a process pool (results stay
    bit-identical to ``jobs=1``).  ``cache`` enables the on-disk result
    cache: ``True`` for the default ``results/.cache/`` directory, a path,
    or a :class:`ResultCache`.  ``progress`` receives one
    :class:`~repro.analysis.executor.CellProgress` event per finished cell.
    ``shard="i/N"`` computes only shard ``i``'s levels (the others stay
    ``None`` in ``SweepResult.levels``; N shard runs union positionally
    into the unsharded sweep).  Remaining keywords (``seed``,
    ``monitor_mode``, netem configs, ...) are :class:`ExperimentSpec`
    fields applied to every level.
    """
    if isinstance(definition, str):
        definition = get_workload(definition)
    levels = list(levels) if levels is not None else default_levels(definition)
    specs = [
        ExperimentSpec(
            workload=definition.key,
            offered_rps=rate,
            requests=requests,
            **level_kwargs,
        )
        for rate in levels
    ]
    results, stats = run_cells(
        specs, jobs=jobs, cache=_resolve_cache(cache), progress=progress,
        shard=shard,
    )
    return SweepResult(
        workload=definition.key, levels=results, telemetry=stats.to_dict()
    )
