"""Instruction representation with real 8-byte wire encoding.

Instructions round-trip through the genuine kernel encoding
(``struct bpf_insn``): 1 byte opcode, packed dst/src register nibbles,
16-bit signed offset, 32-bit signed immediate.  LD_IMM64 occupies two
slots; the second slot carries the upper 32 immediate bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import AssemblerError
from .opcodes import BPF_PSEUDO_MAP_FD, InsnClass, MemMode, MemSize, Src

__all__ = ["Insn", "encode", "decode", "LD_IMM64_OPCODE"]

_STRUCT = struct.Struct("<BBhi")

#: Opcode of the two-slot 64-bit immediate load: LD | IMM | DW.
LD_IMM64_OPCODE = InsnClass.LD | MemMode.IMM | MemSize.DW  # 0x18


@dataclass(frozen=True)
class Insn:
    """One eBPF instruction (one slot; LD_IMM64 is two Insn slots)."""

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0
    #: Python-side annotation: the map object referenced by an LD_IMM64 map
    #: load (resolved by the loader; not part of the wire encoding).
    map_ref: Optional[object] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise AssemblerError(f"opcode out of range: {self.opcode:#x}")
        if not 0 <= self.dst <= 10 or not 0 <= self.src <= 10:
            # src may also carry pseudo values like BPF_PSEUDO_MAP_FD (1),
            # which is within register range anyway.
            raise AssemblerError(f"register out of range: dst={self.dst} src={self.src}")
        if not -(1 << 15) <= self.off < (1 << 15):
            raise AssemblerError(f"offset out of range: {self.off}")
        if not -(1 << 31) <= self.imm < (1 << 31):
            raise AssemblerError(f"imm out of range: {self.imm}")

    # -- classification helpers -------------------------------------------
    @property
    def insn_class(self) -> InsnClass:
        return InsnClass(self.opcode & 0x07)

    @property
    def is_jump(self) -> bool:
        return self.insn_class in (InsnClass.JMP, InsnClass.JMP32)

    @property
    def uses_reg_source(self) -> bool:
        return bool(self.opcode & Src.X)

    @property
    def mem_size(self) -> MemSize:
        return MemSize(self.opcode & 0x18)

    @property
    def is_ld_imm64(self) -> bool:
        return self.opcode == LD_IMM64_OPCODE

    @property
    def is_map_load(self) -> bool:
        return self.is_ld_imm64 and self.src == BPF_PSEUDO_MAP_FD

    def __repr__(self) -> str:
        return (
            f"Insn(op={self.opcode:#04x}, dst=r{self.dst}, src=r{self.src}, "
            f"off={self.off}, imm={self.imm})"
        )


def encode(insns: Sequence[Insn]) -> bytes:
    """Encode a program to its real little-endian wire format."""
    return b"".join(
        _STRUCT.pack(i.opcode, (i.src << 4) | i.dst, i.off, i.imm) for i in insns
    )


def decode(blob: bytes) -> List[Insn]:
    """Decode wire format back into instruction slots.

    Map references (a loader-side concept) cannot be recovered and are left
    unset.
    """
    if len(blob) % _STRUCT.size:
        raise AssemblerError(f"truncated program: {len(blob)} bytes")
    insns = []
    for chunk_start in range(0, len(blob), _STRUCT.size):
        opcode, regs, off, imm = _STRUCT.unpack_from(blob, chunk_start)
        insns.append(Insn(opcode=opcode, dst=regs & 0x0F, src=regs >> 4, off=off, imm=imm))
    return insns
