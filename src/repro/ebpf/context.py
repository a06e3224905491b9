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

from ..kernel.tracepoints import SysEnterCtx, SysExitCtx

__all__ = [
    "ProgType",
    "SYS_ENTER_ID_OFF",
    "SYS_ENTER_ARGS_OFF",
    "SYS_EXIT_ID_OFF",
    "SYS_EXIT_RET_OFF",
    "SYS_ENTER_CTX_SIZE",
    "SYS_EXIT_CTX_SIZE",
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
#: ``common_pid`` s32), ``long id``, then ``args[6]`` or ``long ret``.
_SYS_ENTER = struct.Struct("<HBBiq6Q")
_SYS_EXIT = struct.Struct("<HBBiqq")
_NO_ARGS = (0,) * 6
_U64 = (1 << 64) - 1


def pack_sys_enter(ctx: SysEnterCtx) -> bytes:
    """Serialize a sys_enter context into its tracepoint record bytes.

    The record is memoized on the context object: one tracepoint firing
    is packed once even when several attached programs — the monitor
    runs three collectors — read it.
    """
    record = ctx._record
    if record is None:
        args = ctx.args
        if len(args) != 6:
            args = (tuple(args) + _NO_ARGS)[:6]
        pid = ctx.pid_tgid & 0x7FFFFFFF
        try:
            record = _SYS_ENTER.pack(0, 0, 0, pid, ctx.syscall_nr, *args)
        except struct.error:
            # An argument outside [0, 2**64): store its two's complement.
            record = _SYS_ENTER.pack(0, 0, 0, pid, ctx.syscall_nr, *[a & _U64 for a in args])
        ctx._record = record
    return record


def pack_sys_exit(ctx: SysExitCtx) -> bytes:
    """Serialize a sys_exit context into its tracepoint record bytes,
    memoized on the context like :func:`pack_sys_enter`."""
    record = ctx._record
    if record is None:
        record = ctx._record = _SYS_EXIT.pack(
            0, 0, 0, ctx.pid_tgid & 0x7FFFFFFF, ctx.syscall_nr, ctx.ret
        )
    return record
