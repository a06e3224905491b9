"""Incremental on-disk spill of completed experiment results.

A thousand-cell sweep does not need its thousand :class:`LevelResult`\\ s
resident in parent RAM: each finished cell is appended to a JSONL file
under ``results/`` the moment it completes, and only its byte offset plus
a small scalar summary stay in memory.  That keeps the executor's memory
footprint flat in batch size (the CI-gated RSS ceiling in
``BENCH_sweep.json``) while still letting small batches rebuild the full
in-memory result list with :meth:`ResultSpill.materialize`.

File format (see DESIGN.md §11): one JSON object per line,
``{"index": <position in the submitted batch>, "result": <LevelResult
dict>}``, written in **completion** order.  Record order therefore varies
with scheduling, but the index makes reassembly positional:
``materialize()`` orders by index and leaves ``None`` holes for cells
that never completed (failed, or owned by another shard), which is
exactly what makes shard outputs union bit-identically.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .spec import LevelResult

__all__ = ["ResultSpill"]

#: Scalar fields kept in RAM per spilled result (progress lines, sanity
#: checks) — everything else lives only on disk until materialized.
SUMMARY_FIELDS = (
    "workload",
    "offered_rps",
    "achieved_rps",
    "p99_ns",
    "qos_violated",
    "confidence",
)

_spill_seq = itertools.count()


def _default_path() -> Path:
    directory = Path(__file__).resolve().parents[4] / "results"
    return directory / f"spill-{os.getpid()}-{next(_spill_seq)}.jsonl"


class ResultSpill:
    """Append-only JSONL sink for :class:`LevelResult`\\ s, indexed in RAM.

    Pass an instance to :func:`~repro.analysis.executor.pool.run_cells`
    via ``spill=`` (or let it build one with ``spill=True``); the
    executor streams every completed cell here instead of accumulating
    the results list.
    """

    def __init__(
        self,
        path: Union[None, str, Path] = None,
        *,
        total: Optional[int] = None,
    ) -> None:
        self.path = Path(path) if path is not None else _default_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Batch size (set by the executor); bounds :meth:`materialize`.
        self.total = total
        self._offsets: Dict[int, int] = {}
        self.summaries: Dict[int, dict] = {}
        self._fh = open(self.path, "wb")
        self._pos = 0

    # -- writing ---------------------------------------------------------
    def add(self, index: int, result: LevelResult) -> None:
        """Append one completed cell (flushed immediately: a crash later
        in the batch loses nothing already spilled)."""
        if self._fh is None:
            raise ValueError(f"spill {self.path} is closed")
        line = json.dumps(
            {"index": index, "result": result.to_dict()},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8") + b"\n"
        self._fh.write(line)
        self._fh.flush()
        self._offsets[index] = self._pos
        self._pos += len(line)
        payload = result.to_dict()
        self.summaries[index] = {k: payload[k] for k in SUMMARY_FIELDS}

    # -- reading ---------------------------------------------------------
    def get(self, index: int) -> Optional[LevelResult]:
        """One spilled result by batch position (``None`` if absent)."""
        offset = self._offsets.get(index)
        if offset is None:
            return None
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            record = json.loads(fh.readline())
        return LevelResult(**record["result"])

    def iter_results(self) -> Iterator[Tuple[int, LevelResult]]:
        """Stream ``(index, result)`` pairs in completion order — constant
        memory, the read path for batches too large to materialize."""
        with open(self.path, "rb") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                yield record["index"], LevelResult(**record["result"])

    def materialize(self) -> List[Optional[LevelResult]]:
        """The full results list, ordered by batch position, with ``None``
        holes for cells that never completed (failed or out-of-shard).

        Convenience for small batches; for large ones iterate
        :meth:`iter_results` instead.
        """
        size = self.total
        if size is None:
            size = (max(self._offsets) + 1) if self._offsets else 0
        results: List[Optional[LevelResult]] = [None] * size
        for index, result in self.iter_results():
            if index < size:
                results[index] = result
        return results

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def unlink(self) -> None:
        """Close and delete the spill file."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ResultSpill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._offsets)

    def __repr__(self) -> str:
        return (
            f"<ResultSpill path={str(self.path)!r} spilled={len(self._offsets)}"
            f" total={self.total}>"
        )
