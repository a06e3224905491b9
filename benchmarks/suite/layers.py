"""Charge cProfile self time to the program's layers by module path.

Each profiled function belongs to the layer of its module:
``repro.sim`` -> ``sim``, ``repro.kernel`` -> ``kernel``, ``repro.ebpf``
and generated ``<ebpf-compiled>`` code -> ``ebpf``, ``repro.core`` ->
``core``, ``repro.workloads`` -> ``workloads``, ``repro.net`` -> ``net``,
``repro.loadgen`` -> ``loadgen``, ``repro.analysis.executor`` ->
``executor``, ``repro.export`` -> ``export``.  Any other ``repro`` module
is ``other``.  C builtins, the standard library and the benchmark's own
code belong to no layer: their self time is charged to their callers'
layers using pstats' per-caller ``tottime``, walking up through callers
that have no layer either.  Time that cannot be traced to a layered
caller is ``other``.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

LAYERS = ("sim", "kernel", "ebpf", "core", "workloads", "net", "loadgen", "executor", "export")
#: Report order: the nine layers, then the remainder.
ALL_LAYERS = LAYERS + ("other",)

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` for no layer."""
    if filename == "<ebpf-compiled>":
        return "ebpf"
    _, sep, tail = filename.rpartition("/repro/")
    if not sep:
        return None
    if tail.startswith("analysis/executor/"):
        return "executor"
    top = tail.split("/", 1)[0]
    return top if top in LAYERS else "other"


def profile_stats(profile) -> dict:
    """The pstats table of a (disabled) :class:`cProfile.Profile`."""
    return pstats.Stats(profile).stats


def self_time_by_layer(stats: dict) -> Dict[str, float]:
    """Seconds of self time per layer (keys: :data:`ALL_LAYERS`) in a
    pstats table."""
    memo: Dict[Func, Dict[str, float]] = {}

    def caller_share(func: Func, stack: frozenset) -> Dict[str, float]:
        # Which layers a call of ``func`` is made on behalf of, weighted by
        # the inclusive time each caller spent in it.
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = {
            caller: entry[3]
            for caller, entry in stats[func][4].items()
            if caller not in stack and caller != func and caller in stats
        }
        total = sum(callers.values())
        if total <= 0:
            share = {"other": 1.0}
        else:
            share = defaultdict(float)
            inner = stack | {func}
            for caller, weight in callers.items():
                for name, part in caller_share(caller, inner).items():
                    share[name] += part * weight / total
        memo[func] = dict(share)
        return memo[func]

    out = dict.fromkeys(ALL_LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            out[layer] += tottime
            continue
        charged = 0.0
        for caller, entry in callers.items():
            if caller == func or caller not in stats:
                continue
            for name, part in caller_share(caller, frozenset((func,))).items():
                out[name] += part * entry[2]
            charged += entry[2]
        out["other"] += max(0.0, tottime - charged)
    return out


def fractions(seconds: Dict[str, float]) -> Dict[str, float]:
    total = sum(seconds.values())
    return {name: (value / total if total > 0 else 0.0) for name, value in seconds.items()}


def call_count(stats: dict, path_suffix: str, name: str) -> int:
    """Calls of the function ``name`` defined in a file ending ``path_suffix``."""
    return sum(
        entry[1]
        for func, entry in stats.items()
        if func[2] == name and func[0].endswith(path_suffix)
    )
