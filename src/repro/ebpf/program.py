"""Program objects: instructions + type + load-time map resolution."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional

from .context import ProgType
from .errors import BpfError
from .insn import Insn, encode
from .opcodes import AluOp, InsnClass, JmpOp
from .verifier import verify

__all__ = ["Program"]


@dataclass
class Program:
    """An eBPF program ready for verification and attachment."""

    name: str
    insns: List[Insn]
    prog_type: ProgType
    license: str = "GPL"

    def resolve_maps(self, maps: Mapping[str, object]) -> "Program":
        """Replace by-name map references with live map objects."""
        resolved = []
        for insn in self.insns:
            if isinstance(insn.map_ref, str):
                try:
                    target = maps[insn.map_ref]
                except KeyError:
                    raise BpfError(
                        f"program {self.name!r} references unknown map {insn.map_ref!r}"
                    ) from None
                insn = replace(insn, map_ref=target)
            resolved.append(insn)
        return Program(self.name, resolved, self.prog_type, self.license)

    def verify(self) -> "Program":
        """Run the verifier (raises VerifierError on rejection)."""
        verify(self.insns, self.prog_type)
        return self

    def bytecode(self) -> bytes:
        """Real wire encoding of the instruction stream."""
        return encode(self.insns)

    def disasm(self) -> str:
        """Compact human-readable listing (diagnostics/docs)."""
        lines = []
        skip_next = False
        for index, insn in enumerate(self.insns):
            if skip_next:
                skip_next = False
                continue
            text = _disasm_one(insn, index)
            if insn.is_ld_imm64:
                skip_next = True
                if insn.is_map_load:
                    ref = insn.map_ref
                    name = getattr(ref, "name", ref)
                    text = f"r{insn.dst} = map[{name!r}]"
                else:
                    high = self.insns[index + 1].imm & 0xFFFFFFFF
                    value = (high << 32) | (insn.imm & 0xFFFFFFFF)
                    text = f"r{insn.dst} = {value:#x} ll"
            lines.append(f"{index:4d}: {text}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.insns)


_ALU_SYMBOL = {
    AluOp.ADD: "+=", AluOp.SUB: "-=", AluOp.MUL: "*=", AluOp.DIV: "/=",
    AluOp.OR: "|=", AluOp.AND: "&=", AluOp.LSH: "<<=", AluOp.RSH: ">>=",
    AluOp.MOD: "%=", AluOp.XOR: "^=", AluOp.MOV: "=", AluOp.ARSH: "s>>=",
}

_JMP_SYMBOL = {
    JmpOp.JEQ: "==", JmpOp.JNE: "!=", JmpOp.JGT: ">", JmpOp.JGE: ">=",
    JmpOp.JLT: "<", JmpOp.JLE: "<=", JmpOp.JSET: "&", JmpOp.JSGT: "s>",
    JmpOp.JSGE: "s>=", JmpOp.JSLT: "s<", JmpOp.JSLE: "s<=",
}

_SIZE_SUFFIX = {0x00: "u32", 0x08: "u16", 0x10: "u8", 0x18: "u64"}


def _disasm_one(insn: Insn, index: int) -> str:
    klass = insn.opcode & 0x07
    if klass in (InsnClass.ALU, InsnClass.ALU64):
        op = AluOp(insn.opcode & 0xF0)
        width = "" if klass == InsnClass.ALU64 else " (w)"
        if op == AluOp.NEG:
            return f"r{insn.dst} = -r{insn.dst}{width}"
        operand = f"r{insn.src}" if insn.uses_reg_source else str(insn.imm)
        return f"r{insn.dst} {_ALU_SYMBOL[op]} {operand}{width}"
    if klass == InsnClass.LDX:
        suffix = _SIZE_SUFFIX[insn.opcode & 0x18]
        return f"r{insn.dst} = *({suffix} *)(r{insn.src} {insn.off:+d})"
    if klass == InsnClass.STX:
        suffix = _SIZE_SUFFIX[insn.opcode & 0x18]
        return f"*({suffix} *)(r{insn.dst} {insn.off:+d}) = r{insn.src}"
    if klass == InsnClass.ST:
        suffix = _SIZE_SUFFIX[insn.opcode & 0x18]
        return f"*({suffix} *)(r{insn.dst} {insn.off:+d}) = {insn.imm}"
    if klass in (InsnClass.JMP, InsnClass.JMP32):
        op = insn.opcode & 0xF0
        if op == JmpOp.CALL:
            return f"call #{insn.imm}"
        if op == JmpOp.EXIT:
            return "exit"
        if op == JmpOp.JA:
            return f"goto {index + 1 + insn.off}"
        operand = f"r{insn.src}" if insn.uses_reg_source else str(insn.imm)
        symbol = _JMP_SYMBOL[JmpOp(op)]
        return f"if r{insn.dst} {symbol} {operand} goto {index + 1 + insn.off}"
    return repr(insn)
