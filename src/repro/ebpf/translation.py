"""The process-wide cache of verifier verdicts and compiled-tier translations.

:class:`~repro.ebpf.compiled.CompiledVm` translates each program once per
process and ctx size, however many cells load it: entries are keyed on
:func:`~repro.ebpf.compiled.key_material` — the instruction wire
encoding, the ctx size and each map-load site's map shape — and hold
only the map-free template (source and code object), or the
``_UNSUPPORTED`` verdict for a program the compiled tier hands to the
reference VM.  A caller binds the template to its own live maps, as
:meth:`~repro.ebpf.compiled.CompiledProgram.bind` or as a slot of a
fused tracepoint dispatcher, so the cache never keeps a cell's maps
alive.

Fused dispatchers are kept here too (:meth:`TranslationCache.fused`):
one compiled function per attach-set shape — each slot's kind, and an
inlined program's key material, ``charge_cost`` and instruction cost —
which a warm cell binds to its probes with one ``exec``.  Their builds
and hits are counted apart from ``translations``, which stays one per
distinct program.

The verifier's verdict is kept beside the templates under the same key
(:meth:`TranslationCache.verify`, which ``BPF.load`` calls): the walk
reads nothing the key does not encode, so each distinct program is
walked once per process, and a warm load costs a key, a dict hit and a
bind.

The cache lives in memory only.  A pool worker forked from a parent
inherits the parent's templates and verdicts; a worker started any other
way verifies and translates each program once, on its first load.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Optional, Sequence

from . import verifier
from .compiled import CompiledProgram, key_material, translate
from .context import SYS_ENTER_CTX_SIZE, ProgType
from .errors import VerifierError
from .insn import Insn

__all__ = [
    "TranslationCache",
    "translation_cache_stats",
    "clear_translation_cache",
]

#: Cached marker for programs the compiled tier declines, so the
#: verifier walk behind that verdict runs only once per key.
_UNSUPPORTED = object()

#: ``_verdicts`` lookup default: no walk of this key is stored.
_UNWALKED = object()


class TranslationCache:
    """Cache of verifier verdicts and compiled-tier templates, keyed on
    translation key material.

    At most ``max_entries`` templates, as many verdicts and as many
    fused dispatchers are kept; the oldest of each is evicted first.
    Callers that execute one program many times hold on to the bound
    result of :meth:`get_compiled` (as
    :class:`~repro.ebpf.compiled.CompiledVm` does per attach site) or to
    the fused dispatcher they bound.

    ``declined`` counts the lookups answered with ``None``: every program
    the compiled tier handed to the reference VM, hit or miss.  These
    four counters cover template lookups only; ``verified`` counts the
    verifier walks :meth:`verify` ran, and ``fused_builds`` and
    ``fused_hits`` the fused-dispatcher lookups.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: key material → template (or the ``_UNSUPPORTED`` marker).
        self._by_key: "OrderedDict[bytes, object]" = OrderedDict()
        #: key material → verdict: ``None`` (pass) or a rejection's
        #: ``(message, insn_index)``.
        self._verdicts: "OrderedDict[bytes, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Translations actually performed (one per miss).
        self.translations = 0
        #: Wall time spent inside ``compile_insns`` (the amortization metric).
        self.translate_ns = 0
        #: Lookups answered ``None``: programs handed to the reference VM.
        self.declined = 0
        #: Verifier walks :meth:`verify` ran, whether it stored the verdict.
        self.verified = 0
        #: fused-dispatcher key → compiled dispatcher template.
        self._fused: "OrderedDict[tuple, object]" = OrderedDict()
        #: Fused-dispatcher templates built (misses) and reused (hits).
        self.fused_builds = 0
        self.fused_hits = 0

    def verify(self, insns: Sequence[Insn], prog_type: ProgType) -> bytes:
        """Verify ``insns`` as ``prog_type`` and return their
        :func:`~repro.ebpf.compiled.key_material`, which the attach
        passes on to :meth:`get_compiled`.

        The first load of a key runs the verifier's walk and stores its
        verdict; later loads reuse it, a stored rejection being raised as
        a fresh :class:`~repro.ebpf.errors.VerifierError` with the same
        message and ``insn_index``.  The walk reads only the wire
        encoding, the ctx size and each map-load site's class,
        ``key_size`` and ``value_size`` — exactly what the key encodes —
        so a stored verdict is the walk's.  A program with a map-load
        site that holds no map is walked on every load and never stored:
        the rejection names the reference, which the key does not carry.
        """
        key = key_material(insns, prog_type.ctx_size)
        verdict = self._verdicts.get(key, _UNWALKED)
        if verdict is _UNWALKED:
            self.verified += 1
            try:
                verifier.verify(insns, prog_type)
            except VerifierError as error:
                if all(isinstance(insn.map_ref, verifier.MAP_CLASSES)
                       for insn in insns if insn.is_map_load):
                    self._remember(self._verdicts, key, (str(error), error.insn_index))
                raise
            # A pass proved that every map-load site holds a map.
            self._remember(self._verdicts, key, None)
        elif verdict is not None:
            message, insn_index = verdict
            error = VerifierError(message)
            error.insn_index = insn_index
            raise error
        return key

    def template(self, insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE,
                 key: Optional[bytes] = None) -> Optional[CompiledProgram]:
        """The map-free template of ``insns`` for ``ctx_size``-byte
        contexts, translated on a miss, or ``None`` when the program runs
        on the reference VM (that verdict is cached too).  ``key``, when
        given, is their ``key_material`` for ``ctx_size``, as
        :meth:`verify` returned it at load."""
        if key is None:
            key = key_material(insns, ctx_size)
        template = self._by_key.get(key)
        if template is not None:
            self.hits += 1
        else:
            self.misses += 1
            start = time.perf_counter_ns()
            template = translate(insns, ctx_size) or _UNSUPPORTED
            self.translate_ns += time.perf_counter_ns() - start
            self.translations += 1
            self._remember(self._by_key, key, template)
        if template is _UNSUPPORTED:
            self.declined += 1
            return None
        return template

    def get_compiled(self, insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE,
                     key: Optional[bytes] = None) -> Optional[CompiledProgram]:
        """:meth:`template`, bound to the maps ``insns`` references."""
        template = self.template(insns, ctx_size, key)
        return None if template is None else template.bind(insns)

    def fused(self, key: tuple, build: Callable[[], object]):
        """The fused-dispatcher template stored under ``key``, made by
        ``build()`` on a miss.  ``key`` names each slot's kind, and an
        inlined program's ``key_material``, ``charge_cost`` and
        ``insn_cost_ns``, so every attach set of the same shape shares
        one compiled dispatcher whatever its programs' names and maps."""
        entry = self._fused.get(key)
        if entry is None:
            self.fused_builds += 1
            entry = build()
            self._remember(self._fused, key, entry)
        else:
            self.fused_hits += 1
        return entry

    def _remember(self, entries: OrderedDict, key: bytes, entry) -> None:
        entries[key] = entry
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._by_key.clear()
        self._verdicts.clear()
        self._fused.clear()
        self.fused_builds = 0
        self.fused_hits = 0
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.translate_ns = 0
        self.declined = 0
        self.verified = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._by_key),
            "hits": self.hits,
            "misses": self.misses,
            "translations": self.translations,
            "translate_ns": self.translate_ns,
            "declined": self.declined,
            "verified": self.verified,
            "fused_builds": self.fused_builds,
            "fused_hits": self.fused_hits,
        }

    def __len__(self) -> int:
        return len(self._by_key)


_GLOBAL_CACHE = TranslationCache()


def translation_cache_stats() -> dict:
    """Hit/miss/entry counters of the process-wide translation cache, the
    number of verifier walks ``BPF.load`` ran through it, and its fused
    dispatcher builds and hits."""
    return _GLOBAL_CACHE.stats()


def clear_translation_cache() -> None:
    """Forget every template, verdict and fused dispatcher, and zero the
    counters."""
    _GLOBAL_CACHE.clear()
