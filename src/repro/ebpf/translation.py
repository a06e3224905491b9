"""The process-wide cache of compiled-tier translations.

:class:`~repro.ebpf.compiled.CompiledVm` translates each program once per
process and ctx size, however many cells load it: entries are keyed on
:func:`~repro.ebpf.compiled.key_material` — the instruction wire
encoding, the ctx size and each map-load site's map shape — and hold
only the map-free template (source and code object), or the
``_UNSUPPORTED`` verdict for a program the compiled tier hands to the
reference VM.  Every lookup binds the template to the caller's live maps
with :meth:`~repro.ebpf.compiled.CompiledProgram.bind`, so the cache
never keeps a cell's maps alive.

The cache lives in memory only.  A pool worker forked from a parent
inherits the parent's templates; a worker started any other way
translates each program once, on its first attach.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional, Sequence

from .compiled import CompiledProgram, compile_insns, key_material
from .context import SYS_ENTER_CTX_SIZE
from .insn import Insn

__all__ = [
    "TranslationCache",
    "translation_cache_stats",
    "clear_translation_cache",
]

#: Cached marker for programs the compiled tier declines, so the
#: verifier walk behind that verdict runs only once per key.
_UNSUPPORTED = object()


class TranslationCache:
    """Cache of compiled-tier templates, keyed on translation key material.

    At most ``max_entries`` templates are kept; the oldest is evicted
    first.  Callers that execute one program many times hold on to the
    bound result of :meth:`get_compiled` (as
    :class:`~repro.ebpf.compiled.CompiledVm` does per attach site).

    ``declined`` counts the lookups answered with ``None``: every program
    the compiled tier handed to the reference VM, hit or miss.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: key material → template (or the ``_UNSUPPORTED`` marker).
        self._by_key: "OrderedDict[bytes, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Translations actually performed (one per miss).
        self.translations = 0
        #: Wall time spent inside ``compile_insns`` (the amortization metric).
        self.translate_ns = 0
        #: Lookups answered ``None``: programs handed to the reference VM.
        self.declined = 0

    def _translate(self, insns: Sequence[Insn], ctx_size: int):
        """A miss: translate ``insns``, or the ``_UNSUPPORTED`` verdict."""
        self.misses += 1
        start = time.perf_counter_ns()
        entry = compile_insns(insns, ctx_size) or _UNSUPPORTED
        self.translate_ns += time.perf_counter_ns() - start
        self.translations += 1
        return entry

    def get_compiled(self, insns: Sequence[Insn],
                     ctx_size: int = SYS_ENTER_CTX_SIZE) -> Optional[CompiledProgram]:
        """The translation of ``insns`` for ``ctx_size``-byte contexts,
        bound to the maps ``insns`` references, or ``None`` when the
        program runs on the reference VM (that verdict is cached too)."""
        key = key_material(insns, ctx_size)
        template = self._by_key.get(key)
        if template is not None:
            self.hits += 1
            if template is _UNSUPPORTED:
                self.declined += 1
                return None
            return template.bind(insns)
        program = self._translate(insns, ctx_size)
        if program is _UNSUPPORTED:
            self._remember(key, program)
            self.declined += 1
            return None
        # Keep the template only: the bound function's globals hold the
        # caller's maps.
        self._remember(key, CompiledProgram(None, program.source, program.n, program.code))
        return program

    def _remember(self, key: bytes, entry) -> None:
        self._by_key[key] = entry
        while len(self._by_key) > self.max_entries:
            self._by_key.popitem(last=False)

    def clear(self) -> None:
        self._by_key.clear()
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.translate_ns = 0
        self.declined = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._by_key),
            "hits": self.hits,
            "misses": self.misses,
            "translations": self.translations,
            "translate_ns": self.translate_ns,
            "declined": self.declined,
        }

    def __len__(self) -> int:
        return len(self._by_key)


_GLOBAL_CACHE = TranslationCache()


def translation_cache_stats() -> dict:
    """Hit/miss/entry counters of the process-wide translation cache."""
    return _GLOBAL_CACHE.stats()


def clear_translation_cache() -> None:
    _GLOBAL_CACHE.clear()
