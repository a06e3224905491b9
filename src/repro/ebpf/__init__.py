"""eBPF substrate: bytecode, assembler, verifier, VM, maps, bcc frontend."""

from .asm import Asm
from .bcc import BPF
from .bpfc import CompileError, compile_source, load_c
from .compiled import (
    DEFAULT_VM_TIER,
    VM_TIERS,
    CompiledProgram,
    CompiledVm,
    compile_insns,
    decline_reason,
    make_vm,
)
from .context import (
    SYS_ENTER_ARGS_OFF,
    SYS_ENTER_CTX_SIZE,
    SYS_ENTER_ID_OFF,
    SYS_EXIT_CTX_SIZE,
    SYS_EXIT_ID_OFF,
    SYS_EXIT_RET_OFF,
    ProgType,
    pack_sys_enter,
    pack_sys_exit,
)
from .errors import AssemblerError, BpfError, MapError, VerifierError, VmFault
from .helpers import HELPER_SIGS, Helper, HelperRuntime
from .insn import Insn, decode, encode
from .maps import ArrayMap, BpfMap, HashMap, PerfEventArray, RingBuf
from .opcodes import AluOp, InsnClass, JmpOp, MemMode, MemSize, Reg, Src
from .program import Program
from .tools import Syscount, SyscallLatencyHist, render_histogram
from .translation import (
    TranslationCache,
    clear_translation_cache,
    translation_cache_stats,
)
from .verifier import verify
from .vm import DEFAULT_INSN_COST_NS, STACK_SIZE, Vm, VmResult

__all__ = [
    "Asm",
    "BPF",
    "Program",
    "ProgType",
    "Vm",
    "VmResult",
    "CompiledVm",
    "CompiledProgram",
    "compile_insns",
    "decline_reason",
    "make_vm",
    "VM_TIERS",
    "DEFAULT_VM_TIER",
    "TranslationCache",
    "translation_cache_stats",
    "clear_translation_cache",
    "verify",
    "Insn",
    "encode",
    "decode",
    "Reg",
    "AluOp",
    "JmpOp",
    "InsnClass",
    "MemMode",
    "MemSize",
    "Src",
    "Helper",
    "HelperRuntime",
    "HELPER_SIGS",
    "BpfMap",
    "HashMap",
    "ArrayMap",
    "RingBuf",
    "PerfEventArray",
    "BpfError",
    "VerifierError",
    "VmFault",
    "MapError",
    "AssemblerError",
    "STACK_SIZE",
    "DEFAULT_INSN_COST_NS",
    "SYS_ENTER_ID_OFF",
    "SYS_ENTER_ARGS_OFF",
    "SYS_EXIT_ID_OFF",
    "SYS_EXIT_RET_OFF",
    "SYS_ENTER_CTX_SIZE",
    "SYS_EXIT_CTX_SIZE",
    "pack_sys_enter",
    "pack_sys_exit",
    "Syscount",
    "SyscallLatencyHist",
    "render_histogram",
    "compile_source",
    "load_c",
    "CompileError",
]
