"""Tracepoint context structs as seen by BPF programs.

``raw_syscalls:sys_enter`` / ``sys_exit`` programs receive a pointer to the
tracepoint's record.  The layouts below follow the real format files
(``/sys/kernel/debug/tracing/events/raw_syscalls/*/format``): an 8-byte
common header, then ``long id`` and the payload.  Listing 1 reads
``args->id`` — that is the field at :data:`SYS_ENTER_ID_OFF`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "ProgType",
    "SYS_ENTER_ID_OFF",
    "SYS_ENTER_ARGS_OFF",
    "SYS_EXIT_ID_OFF",
    "SYS_EXIT_RET_OFF",
    "SYS_ENTER_CTX_SIZE",
    "SYS_EXIT_CTX_SIZE",
    "field_load",
    "pack_sys_enter",
    "pack_sys_exit",
]

#: Offset of ``long id`` in both tracepoint records.
SYS_ENTER_ID_OFF = 8
SYS_EXIT_ID_OFF = 8
#: Offset of ``unsigned long args[6]`` in sys_enter.
SYS_ENTER_ARGS_OFF = 16
#: Offset of ``long ret`` in sys_exit.
SYS_EXIT_RET_OFF = 16

SYS_ENTER_CTX_SIZE = 16 + 6 * 8  # header + id + args[6]
SYS_EXIT_CTX_SIZE = 16 + 8  # header + id + ret


@dataclass(frozen=True)
class ProgType:
    """Program type: names the attach point and fixes the ctx layout."""

    name: str
    ctx_size: int

    @classmethod
    def tracepoint_sys_enter(cls) -> "ProgType":
        return cls("tracepoint/raw_syscalls/sys_enter", SYS_ENTER_CTX_SIZE)

    @classmethod
    def tracepoint_sys_exit(cls) -> "ProgType":
        return cls("tracepoint/raw_syscalls/sys_exit", SYS_EXIT_CTX_SIZE)


#: The whole record in one precompiled struct each: the common header
#: (``common_type`` u16, ``common_flags`` u8, ``common_preempt_count`` u8,
#: ``common_pid`` s32), ``long id``, then ``args[6]`` or ``long ret``; the
#: 64-bit fields are packed as the two's complement of the firing's value.
_SYS_ENTER = struct.Struct("<HBBiQ6Q")
_SYS_EXIT = struct.Struct("<HBBiQQ")
_NO_ARGS = (0,) * 6
_U64 = (1 << 64) - 1


def pack_sys_enter(pid_tgid: int, nr: int, args: Sequence[int]) -> bytes:
    """The sys_enter record of one firing: ``common_pid`` is the tid's low
    31 bits, ``id`` the syscall number, and ``args[6]`` the first six
    arguments (zero past ``len(args)``); every 64-bit field holds its
    value's two's complement, as :func:`field_load` reads it."""
    if len(args) != 6:
        args = (tuple(args) + _NO_ARGS)[:6]
    pid = pid_tgid & 0x7FFFFFFF
    try:
        return _SYS_ENTER.pack(0, 0, 0, pid, nr & _U64, *args)
    except struct.error:
        # An argument outside [0, 2**64): store its two's complement.
        return _SYS_ENTER.pack(0, 0, 0, pid, nr & _U64, *[a & _U64 for a in args])


def pack_sys_exit(pid_tgid: int, nr: int, ret: int) -> bytes:
    """The sys_exit record of one firing, wrapped like
    :func:`pack_sys_enter`."""
    return _SYS_EXIT.pack(0, 0, 0, pid_tgid & 0x7FFFFFFF, nr & _U64, ret & _U64)


#: Each record's fields as ``(offset, size, value, fits)``: ``value`` is
#: the field's Python expression in a firing's arguments ``pid_tgid``,
#: ``nr`` and ``arg`` (the args tuple on sys_enter, ``ret`` on sys_exit),
#: whose two's complement the record stores, and ``fits`` says it is
#: already an unsigned value of the field's width.  The four header bytes
#: before ``common_pid`` are always zero.
_COMMON_FIELDS = (
    (0, 4, "0", True),
    (4, 4, "pid_tgid & 2147483647", True),
    (8, 8, "nr", False),
)
_RECORD_FIELDS = {
    SYS_ENTER_CTX_SIZE: _COMMON_FIELDS + tuple(
        (SYS_ENTER_ARGS_OFF + 8 * k, 8, f"(arg[{k}] if len(arg) > {k} else 0)", False)
        for k in range(6)
    ),
    SYS_EXIT_CTX_SIZE: _COMMON_FIELDS + ((SYS_EXIT_RET_OFF, 8, "arg", False),),
}


def field_load(ctx_size: int, offset: int, size: int) -> Optional[str]:
    """The value a ``size``-byte little-endian load at ``offset`` of the
    ``ctx_size``-byte record reads, as an expression in the firing's
    arguments (see :data:`_RECORD_FIELDS`); ``None`` when the load
    straddles two fields or ``ctx_size`` is neither record's size, and
    must read the packed record instead."""
    for start, width, value, fits in _RECORD_FIELDS.get(ctx_size, ()):
        if start <= offset and offset + size <= start + width:
            if value == "0":
                return "0"
            shift = 8 * (offset - start)
            if fits and not shift and size == width:
                return f"({value})"
            if shift:
                value = f"({value}) >> {shift}"
            return f"(({value}) & {(1 << 8 * size) - 1})"
    return None
