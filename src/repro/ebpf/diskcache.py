"""Cross-process on-disk cache of compiled eBPF translations.

The in-process :class:`~repro.ebpf.translation.TranslationCache` amortizes
translation *within* a process, but every pool worker of a sweep used to
start cold and retranslate every program it attaches.  This module
persists compiled-tier translations under ``results/.codecache/`` so a
forked or spawned worker's first attach is a disk read, not a
codegen + ``compile()`` pass — the piece that makes thousand-cell sweep
batches pay translation cost approximately once per *fleet*, not once
per process.

Key contract (see DESIGN.md §11).  Entries are content-addressed on the
key the in-memory cache uses — :func:`~repro.ebpf.compiled.key_material`:
the instruction **wire encoding**, the ctx size and each map-load site's
map class and key/value sizes — and so are *map-identity-free*, which an
entry shared between processes must be anyway.  The generated source
never embeds a map (helper calls name a load site's map as ``M<pc>``,
which lives in the exec namespace), so the disk entry stores only the
source and its compiled code object; on load,
:meth:`~repro.ebpf.compiled.CompiledProgram.bind` — the same bind path
an in-memory hit takes — binds every ``M<pc>`` to the caller's live maps.
The key is additionally salted with the interpreter's bytecode magic
number, the package version, and :data:`~repro.ebpf.compiled.CODEGEN_TAG`,
so a Python upgrade, a release, or a generator change each invalidate
the cache wholesale rather than ever executing a stale translation.

Negative verdicts are cached too: a program the compiled tier declines
is stored as an ``unsupported`` entry, so workers skip the verifier walk
behind that verdict as well.

Writes are atomic (unique temp file + ``os.replace``), reads treat any
corrupt, truncated, or foreign file as a miss — a cache directory can
always be deleted or shipped between machines safely.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
from pathlib import Path
from typing import Optional, Sequence, Union

from .compiled import CompiledProgram, key_material
from .context import SYS_ENTER_CTX_SIZE
from .insn import Insn
from .translation import _GLOBAL_CACHE, _UNSUPPORTED

__all__ = [
    "CODEC_VERSION",
    "DiskCodeCache",
    "default_codecache_dir",
    "disable_disk_cache",
    "disk_cache_stats",
    "enable_disk_cache",
    "resolve_codecache_dir",
]

#: Entry container format version (bump on any payload shape change).
CODEC_VERSION = 1

#: Truthy-but-off spellings accepted in ``REPRO_CODE_CACHE``.
_OFF_VALUES = frozenset(("0", "off", "no", "false", "disabled"))


def default_codecache_dir() -> Path:
    """``results/.codecache`` under the repository root."""
    return Path(__file__).resolve().parents[3] / "results" / ".codecache"


def resolve_codecache_dir(setting: Union[None, bool, str, Path]) -> Optional[Path]:
    """Resolve a code-cache knob to a directory (or ``None`` = disabled).

    ``False`` disables; a path selects that directory; ``None``/``True``
    defer to the ``REPRO_CODE_CACHE`` environment variable (``0``/``off``
    disables, a path overrides the location) and fall back to
    :func:`default_codecache_dir`.
    """
    if setting is False:
        return None
    if setting not in (None, True):
        return Path(setting)
    env = os.environ.get("REPRO_CODE_CACHE", "").strip()
    if env.lower() in _OFF_VALUES and env:
        return None
    if env:
        return Path(env)
    return default_codecache_dir()


def _version_salt() -> bytes:
    from .. import __version__
    from .compiled import CODEGEN_TAG

    return b"|".join((
        importlib.util.MAGIC_NUMBER,
        str(CODEC_VERSION).encode(),
        __version__.encode(),
        CODEGEN_TAG.encode(),
    ))


class DiskCodeCache:
    """Persistent translation key material → compiled translation.

    Duck-typed backend for :class:`~repro.ebpf.translation.TranslationCache`:
    ``load`` returns a ready-to-execute entry (or ``None`` on a miss),
    ``store`` persists a freshly translated one.
    """

    def __init__(self, directory: Union[None, str, Path] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_codecache_dir()
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._salt = _version_salt()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    # -- keying ----------------------------------------------------------
    def key_for(self, insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE) -> str:
        digest = hashlib.sha256(self._salt + b"|" + key_material(insns, ctx_size))
        return digest.hexdigest()[:40]

    def path_for(self, insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE) -> Path:
        return self.directory / f"{self.key_for(insns, ctx_size)}.cbc"

    # -- load / store ----------------------------------------------------
    def load(self, insns: Sequence[Insn], ctx_size: int = SYS_ENTER_CTX_SIZE):
        """A rebound translation for ``insns`` at ``ctx_size``, or ``None``
        on a miss."""
        try:
            blob = self.path_for(insns, ctx_size).read_bytes()
        except OSError:
            self.misses += 1
            return None
        entry = self._decode(blob, insns)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, insns: Sequence[Insn], ctx_size: int, entry) -> bool:
        """Persist ``entry``; returns True when it hit the disk."""
        path = self.path_for(insns, ctx_size)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            # Unique temp name + atomic replace: concurrent workers racing
            # on the same key are last-writer-wins with no torn entry ever
            # visible to a reader.
            tmp.write_bytes(self._encode(entry))
            os.replace(tmp, path)
        except OSError:
            self.errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.writes += 1
        return True

    # -- codecs ----------------------------------------------------------
    @staticmethod
    def _encode(entry) -> bytes:
        if entry is _UNSUPPORTED:
            return marshal.dumps((CODEC_VERSION, "unsupported"))
        return marshal.dumps(
            (CODEC_VERSION, "ok", entry.source, entry.code, entry.n)
        )

    def _decode(self, blob: bytes, insns: Sequence[Insn]):
        try:
            payload = marshal.loads(blob)
        except (ValueError, EOFError, TypeError):
            self.errors += 1
            return None
        if not isinstance(payload, tuple) or not payload:
            self.errors += 1
            return None
        if payload[0] != CODEC_VERSION:
            self.errors += 1
            return None
        kind = payload[1] if len(payload) > 1 else None
        if kind == "unsupported":
            return _UNSUPPORTED
        if kind != "ok" or len(payload) != 5:
            self.errors += 1
            return None
        _version, _kind, source, code, n = payload
        if n != len(insns):
            self.errors += 1
            return None
        try:
            return CompiledProgram(None, source, n, code).bind(insns)
        except Exception:
            self.errors += 1
            return None

    # -- maintenance -----------------------------------------------------
    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.cbc"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed

    def stats(self) -> dict:
        return {
            "entries": sum(1 for _ in self.directory.glob("*.cbc")),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.cbc"))

    def __repr__(self) -> str:
        return f"<DiskCodeCache dir={str(self.directory)!r} entries={len(self)}>"


# ----------------------------------------------------------------------
# process-wide wiring
# ----------------------------------------------------------------------

def enable_disk_cache(
    directory: Union[None, str, Path] = None,
) -> DiskCodeCache:
    """Attach a :class:`DiskCodeCache` to the process-wide translation
    cache (every ``BPF`` attach site consults it from then on).  Re-enabling
    with the same directory keeps the existing backend and its counters."""
    resolved = Path(directory) if directory is not None else default_codecache_dir()
    current = _GLOBAL_CACHE.disk
    if isinstance(current, DiskCodeCache) and current.directory == resolved:
        return current
    cache = DiskCodeCache(resolved)
    _GLOBAL_CACHE.disk = cache
    return cache


def disable_disk_cache():
    """Detach (and return) the process-wide disk backend, if any."""
    current = _GLOBAL_CACHE.disk
    _GLOBAL_CACHE.disk = None
    return current


def disk_cache_stats() -> Optional[dict]:
    """Counters of the process-wide disk backend (``None`` when detached)."""
    return None if _GLOBAL_CACHE.disk is None else _GLOBAL_CACHE.disk.stats()
