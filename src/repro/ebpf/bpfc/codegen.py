"""Code generation: BPF-C AST → verified eBPF programs.

Strategy (chosen for verifier-friendliness over cleverness):

* the tracepoint context pointer is parked in ``r9`` for the whole program;
* scalar locals and expression temporaries live in 8-byte **stack slots**
  (helper calls clobber r0-r5, so nothing scalar is ever live in a scratch
  register across a call);
* pointer locals (map-lookup results) cannot be spilled — the verifier
  forbids pointer stores — so they are pinned to callee-saved ``r6``/``r7``,
  with ``r8`` reserved as the generator's own pointer scratch;
* every expression evaluates into ``r0``; binaries stage the left operand
  through a temp slot.

The result of compilation is real, verifiable bytecode: the test suite
compiles the paper's Listing 1 verbatim and runs it through the verifier
and the VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..asm import Asm
from ..context import ProgType
from ..maps import ArrayMap, BpfMap, HashMap, PerfEventArray
from ..helpers import Helper
from ..opcodes import MemSize, Reg
from ..program import Program
from .lexer import CompileError
from .parser import (
    Assign, Binary, BlockStmt, Call, CtxField, ExprStmt, If, MapDecl,
    MethodCall, Name, Num, ProbeDecl, Return, TranslationUnit, Unary, VarDecl,
)

__all__ = ["CompiledUnit", "compile_unit"]

_TYPE_SIZES = {"u32": 4, "s32": 4, "int": 4, "u64": 8, "s64": 8, "long": 8}

_BUILTINS = {
    "bpf_get_current_pid_tgid": Helper.GET_CURRENT_PID_TGID,
    "bpf_ktime_get_ns": Helper.KTIME_GET_NS,
    "bpf_get_prandom_u32": Helper.GET_PRANDOM_U32,
    "bpf_get_smp_processor_id": Helper.GET_SMP_PROCESSOR_ID,
}

_CTX_OFFSETS = {
    "sys_enter": {"id": 8, **{f"args{i}": 16 + 8 * i for i in range(6)}},
    "sys_exit": {"id": 8, "ret": 16},
}

_POINTER_REGS = (Reg.R6, Reg.R7)
_SCRATCH_PTR = Reg.R8

_SIGNED_MIN = -(1 << 31)
_SIGNED_MAX = (1 << 31) - 1


@dataclass
class CompiledUnit:
    """Everything a loader needs: live maps + one program per probe."""

    maps: Dict[str, BpfMap]
    programs: List[Program]
    #: tracepoint name ("raw_syscalls:sys_enter") per program name.
    attach_points: Dict[str, str]


def compile_unit(unit: TranslationUnit,
                 constants: Optional[Dict[str, int]] = None) -> CompiledUnit:
    """Compile a parsed translation unit."""
    constants = dict(constants or {})
    maps: Dict[str, BpfMap] = {}
    for decl in unit.maps:
        if decl.name in maps:
            raise CompileError(f"duplicate map {decl.name!r}", decl.line)
        key_size = _TYPE_SIZES[decl.key_type]
        value_size = _TYPE_SIZES[decl.value_type]
        if decl.kind == "hash":
            maps[decl.name] = HashMap(key_size, value_size, max_entries=decl.size,
                                      name=decl.name)
        elif decl.kind == "array":
            maps[decl.name] = ArrayMap(value_size, max_entries=decl.size,
                                       name=decl.name)
        else:  # perf
            maps[decl.name] = PerfEventArray(capacity=decl.size, name=decl.name)

    programs: List[Program] = []
    attach_points: Dict[str, str] = {}
    for probe in unit.probes:
        generator = _ProbeCodegen(probe, maps, constants)
        program = generator.generate()
        programs.append(program)
        attach_points[program.name] = f"{probe.category}:{probe.event}"
    return CompiledUnit(maps=maps, programs=programs, attach_points=attach_points)


def _falls_through(block) -> bool:
    """Can control reach past this statement sequence?"""
    for stmt in block:
        if isinstance(stmt, Return):
            return False
        if isinstance(stmt, If) and stmt.orelse:
            if not _falls_through(stmt.then) and not _falls_through(stmt.orelse):
                return False
        if isinstance(stmt, BlockStmt) and not _falls_through(stmt.body):
            return False
    return True


class _ProbeCodegen:
    def __init__(self, probe: ProbeDecl, maps: Dict[str, BpfMap],
                 constants: Dict[str, int]) -> None:
        if probe.category != "raw_syscalls" or probe.event not in _CTX_OFFSETS:
            raise CompileError(
                f"unsupported probe {probe.category}:{probe.event} "
                "(raw_syscalls sys_enter/sys_exit only)", probe.line,
            )
        self.probe = probe
        self.maps = maps
        self.constants = constants
        self.asm = Asm()
        self.ctx_offsets = _CTX_OFFSETS[probe.event]
        self._scalar_slots: Dict[str, int] = {}
        self._pointer_regs: Dict[str, int] = {}
        self._next_slot = 0
        self._temp_depth = 0
        self._max_slots = 56  # 448 bytes of the 512-byte frame
        self._labels = 0

    # -- frame helpers ------------------------------------------------------
    def _fresh_label(self, tag: str) -> str:
        self._labels += 1
        return f"__{tag}_{self._labels}"

    def _alloc_slot(self, line: int) -> int:
        self._next_slot += 1
        if self._next_slot > self._max_slots:
            raise CompileError("out of stack slots (expression too deep?)", line)
        return -8 * self._next_slot

    def _temp_slot(self, line: int) -> int:
        """A temp slot beyond all named locals (stack discipline)."""
        self._temp_depth += 1
        slot_index = len(self._scalar_slots) + self._temp_depth
        if slot_index > self._max_slots:
            raise CompileError("expression too deep", line)
        return -8 * slot_index

    def _release_temp(self) -> None:
        self._temp_depth -= 1

    # -- top level ---------------------------------------------------------
    def generate(self) -> Program:
        asm = self.asm
        asm.mov_reg(Reg.R9, Reg.R1)  # ctx for the whole program
        self._gen_block(self.probe.body)
        # Implicit `return 0` only when the body can fall through; the
        # verifier (like the kernel's) rejects dead code.
        if _falls_through(self.probe.body):
            asm.mov_imm(Reg.R0, 0)
        asm.label("__exit")
        asm.exit_()
        prog_type = (ProgType.tracepoint_sys_enter()
                     if self.probe.event == "sys_enter"
                     else ProgType.tracepoint_sys_exit())
        name = f"{self.probe.category}__{self.probe.event}"
        return Program(name, asm.build(), prog_type)

    def _gen_block(self, block) -> None:
        """Generate a lexical scope: declarations die at the block's end.

        Stack slots are not recycled (monotonic allocation keeps slot
        lifetimes trivially disjoint), but names and pointer *registers* are
        released, so sibling branches can each use the register budget.
        """
        scalar_names = set(self._scalar_slots)
        pointer_names = set(self._pointer_regs)
        live = True
        for stmt in block:
            if not live:
                line = getattr(stmt, "line", 0)
                raise CompileError("unreachable code after return", line)
            self._gen_statement(stmt)
            live = _falls_through((stmt,))
        for name in [n for n in self._scalar_slots if n not in scalar_names]:
            del self._scalar_slots[name]
        for name in [n for n in self._pointer_regs if n not in pointer_names]:
            del self._pointer_regs[name]

    # -- statements -----------------------------------------------------------
    def _gen_statement(self, stmt) -> None:
        if isinstance(stmt, VarDecl):
            self._gen_var_decl(stmt)
        elif isinstance(stmt, Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, Return):
            self._eval(stmt.value, stmt.line)
            self.asm.ja("__exit")
        elif isinstance(stmt, If):
            self._gen_if(stmt)
        elif isinstance(stmt, BlockStmt):
            self._gen_block(stmt.body)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, stmt.line)
        else:  # pragma: no cover
            raise CompileError(f"unsupported statement {stmt!r}", 0)

    def _gen_var_decl(self, stmt: VarDecl) -> None:
        if stmt.name in self._scalar_slots or stmt.name in self._pointer_regs:
            raise CompileError(f"redeclaration of {stmt.name!r}", stmt.line)
        if stmt.name in self.maps or stmt.name in self.constants:
            raise CompileError(f"{stmt.name!r} shadows a map/constant", stmt.line)
        if stmt.ctype.endswith("*"):
            if not isinstance(stmt.init, MethodCall) or stmt.init.method != "lookup":
                raise CompileError(
                    "pointer variables must be initialized from map.lookup()",
                    stmt.line,
                )
            if len(self._pointer_regs) >= len(_POINTER_REGS):
                raise CompileError("too many live pointer variables (max 2)",
                                   stmt.line)
            self._eval(stmt.init, stmt.line)  # pointer (or NULL) in r0
            register = _POINTER_REGS[len(self._pointer_regs)]
            self._pointer_regs[stmt.name] = register
            self.asm.mov_reg(register, Reg.R0)
            return
        slot = self._alloc_slot(stmt.line)
        self._scalar_slots[stmt.name] = slot
        if stmt.init is None:
            self.asm.st_imm(MemSize.DW, Reg.R10, slot, 0)
        else:
            self._eval(stmt.init, stmt.line)
            self.asm.stx(MemSize.DW, Reg.R10, slot, Reg.R0)

    def _gen_assign(self, stmt: Assign) -> None:
        asm = self.asm
        value_expr = stmt.value
        if stmt.op != "=":
            # x op= v  ->  x = x op v (same for *p).
            value_expr = Binary(op=stmt.op[:-1], lhs=stmt.target, rhs=stmt.value)
        if isinstance(stmt.target, Name):
            name = stmt.target.ident
            if name in self._pointer_regs:
                raise CompileError("cannot reassign pointer variables", stmt.line)
            slot = self._scalar_slots.get(name)
            if slot is None:
                raise CompileError(f"assignment to undeclared {name!r}", stmt.line)
            self._eval(value_expr, stmt.line)
            asm.stx(MemSize.DW, Reg.R10, slot, Reg.R0)
            return
        # *p = value
        pointer = stmt.target.operand.ident
        register = self._pointer_regs.get(pointer)
        if register is None:
            raise CompileError(f"{pointer!r} is not a pointer variable", stmt.line)
        self._eval(value_expr, stmt.line)
        asm.stx(MemSize.DW, register, 0, Reg.R0)

    def _gen_if(self, stmt: If) -> None:
        asm = self.asm
        else_label = self._fresh_label("else")
        end_label = self._fresh_label("endif")
        self._eval_condition(stmt.cond, stmt.line, false_label=else_label)
        self._gen_block(stmt.then)
        if stmt.orelse:
            asm.ja(end_label)
        asm.label(else_label)
        if stmt.orelse:
            self._gen_block(stmt.orelse)
            asm.label(end_label)

    def _eval_condition(self, cond, line: int, false_label: str) -> None:
        """Evaluate cond; jump to false_label when it is false (0)."""
        # Pointer null-checks get dedicated handling (no scalar conversion).
        pointer = self._as_pointer_operand(cond)
        if pointer is not None:
            register, negated = pointer
            if negated:  # if (!p): false-branch when p != 0
                self.asm.jne_imm(register, 0, false_label)
            else:  # if (p): false-branch when p == 0
                self.asm.jeq_imm(register, 0, false_label)
            return
        self._eval(cond, line)
        self.asm.jeq_imm(Reg.R0, 0, false_label)

    def _as_pointer_operand(self, expr) -> Optional[Tuple[int, bool]]:
        if isinstance(expr, Name) and expr.ident in self._pointer_regs:
            return self._pointer_regs[expr.ident], False
        if (isinstance(expr, Unary) and expr.op == "!"
                and isinstance(expr.operand, Name)
                and expr.operand.ident in self._pointer_regs):
            return self._pointer_regs[expr.operand.ident], True
        if (isinstance(expr, Binary) and expr.op in ("==", "!=")
                and isinstance(expr.lhs, Name)
                and expr.lhs.ident in self._pointer_regs
                and isinstance(expr.rhs, Num) and expr.rhs.value == 0):
            register = self._pointer_regs[expr.lhs.ident]
            return register, expr.op == "=="
        return None

    # -- expressions ---------------------------------------------------------
    def _eval(self, expr, line: int) -> None:
        """Evaluate a (scalar or lookup) expression into r0."""
        asm = self.asm
        if isinstance(expr, Num):
            if _SIGNED_MIN <= expr.value <= _SIGNED_MAX:
                asm.mov_imm(Reg.R0, expr.value)
            else:
                asm.ld_imm64(Reg.R0, expr.value)
        elif isinstance(expr, Name):
            self._eval_name(expr, line)
        elif isinstance(expr, CtxField):
            offset = self.ctx_offsets.get(expr.field)
            if offset is None:
                raise CompileError(
                    f"ctx field {expr.field!r} not available in "
                    f"{self.probe.event}", line,
                )
            asm.ldx(MemSize.DW, Reg.R0, Reg.R9, offset)
        elif isinstance(expr, Unary):
            self._eval_unary(expr, line)
        elif isinstance(expr, Binary):
            self._eval_binary(expr, line)
        elif isinstance(expr, Call):
            helper = _BUILTINS.get(expr.func)
            if helper is None:
                raise CompileError(f"unknown function {expr.func!r}", line)
            if expr.args:
                raise CompileError(f"{expr.func} takes no arguments", line)
            asm.call(helper)
        elif isinstance(expr, MethodCall):
            self._eval_method(expr, line)
        else:  # pragma: no cover
            raise CompileError(f"unsupported expression {expr!r}", line)

    def _eval_name(self, expr: Name, line: int) -> None:
        slot = self._scalar_slots.get(expr.ident)
        if slot is not None:
            self.asm.ldx(MemSize.DW, Reg.R0, Reg.R10, slot)
            return
        if expr.ident in self._pointer_regs:
            raise CompileError(
                f"pointer {expr.ident!r} used as a scalar (deref it?)", line
            )
        if expr.ident in self.constants:
            value = self.constants[expr.ident]
            if _SIGNED_MIN <= value <= _SIGNED_MAX:
                self.asm.mov_imm(Reg.R0, value)
            else:
                self.asm.ld_imm64(Reg.R0, value)
            return
        raise CompileError(f"undeclared identifier {expr.ident!r}", line)

    def _eval_unary(self, expr: Unary, line: int) -> None:
        asm = self.asm
        if expr.op == "&":
            raise CompileError("'&' is only valid in map call arguments", line)
        if expr.op == "*":
            if not (isinstance(expr.operand, Name)
                    and expr.operand.ident in self._pointer_regs):
                raise CompileError("'*' requires a pointer variable", line)
            register = self._pointer_regs[expr.operand.ident]
            asm.ldx(MemSize.DW, Reg.R0, register, 0)
            return
        self._eval(expr.operand, line)
        if expr.op == "-":
            asm.neg(Reg.R0)
        elif expr.op == "~":
            asm.mov_imm(Reg.R1, -1)
            asm.xor_reg(Reg.R0, Reg.R1)
        elif expr.op == "!":
            done = self._fresh_label("bang")
            asm.mov_reg(Reg.R1, Reg.R0)
            asm.mov_imm(Reg.R0, 1)
            asm.jeq_imm(Reg.R1, 0, done)
            asm.mov_imm(Reg.R0, 0)
            asm.label(done)
        else:  # pragma: no cover
            raise CompileError(f"unsupported unary {expr.op!r}", line)

    _ARITH = {"+": "add_reg", "-": "sub_reg", "*": "mul_reg", "/": "div_reg",
              "%": "mod_reg", "^": "xor_reg", "&": "and_reg", "|": "or_reg",
              "<<": "lsh_reg", ">>": "rsh_reg"}
    _COMPARE = {"==": "jeq_reg", "!=": "jne_reg", "<": "jlt_reg", ">=": "jge_reg"}

    def _eval_binary(self, expr: Binary, line: int) -> None:
        asm = self.asm
        op = expr.op
        if op in ("&&", "||"):
            self._eval_logical(expr, line)
            return
        # Normalize >, <= onto <, >= by swapping operands.
        lhs, rhs = expr.lhs, expr.rhs
        if op == ">":
            op, lhs, rhs = "<", rhs, lhs
        elif op == "<=":
            op, lhs, rhs = ">=", rhs, lhs

        self._eval(lhs, line)
        slot = self._temp_slot(line)
        asm.stx(MemSize.DW, Reg.R10, slot, Reg.R0)
        self._eval(rhs, line)
        asm.mov_reg(Reg.R1, Reg.R0)
        asm.ldx(MemSize.DW, Reg.R0, Reg.R10, slot)
        self._release_temp()

        if op in self._ARITH:
            getattr(asm, self._ARITH[op])(Reg.R0, Reg.R1)
        elif op in self._COMPARE:
            true_label = self._fresh_label("cmp")
            done = self._fresh_label("cmpend")
            getattr(asm, self._COMPARE[op])(Reg.R0, Reg.R1, true_label)
            asm.mov_imm(Reg.R0, 0)
            asm.ja(done)
            asm.label(true_label)
            asm.mov_imm(Reg.R0, 1)
            asm.label(done)
        else:  # pragma: no cover
            raise CompileError(f"unsupported operator {op!r}", line)

    def _eval_logical(self, expr: Binary, line: int) -> None:
        """Short-circuit && / || producing 0/1 in r0."""
        asm = self.asm
        short = self._fresh_label("sc")
        done = self._fresh_label("scend")
        self._eval(expr.lhs, line)
        if expr.op == "&&":
            asm.jeq_imm(Reg.R0, 0, short)  # lhs false -> 0
        else:
            asm.jne_imm(Reg.R0, 0, short)  # lhs true -> 1
        self._eval(expr.rhs, line)
        # Normalize rhs to 0/1.
        truthy = self._fresh_label("truthy")
        asm.jne_imm(Reg.R0, 0, truthy)
        asm.mov_imm(Reg.R0, 0)
        asm.ja(done)
        asm.label(truthy)
        asm.mov_imm(Reg.R0, 1)
        asm.ja(done)
        asm.label(short)
        asm.mov_imm(Reg.R0, 0 if expr.op == "&&" else 1)
        asm.label(done)

    # -- map calls ---------------------------------------------------------
    def _addr_of_local(self, arg, line: int) -> int:
        if not (isinstance(arg, Unary) and arg.op == "&"
                and isinstance(arg.operand, Name)):
            raise CompileError("map call arguments must be &local", line)
        slot = self._scalar_slots.get(arg.operand.ident)
        if slot is None:
            raise CompileError(
                f"&{arg.operand.ident}: not a declared scalar local", line
            )
        return slot

    def _eval_method(self, expr: MethodCall, line: int) -> None:
        asm = self.asm
        bpf_map = self.maps.get(expr.map_name)
        if bpf_map is None:
            raise CompileError(f"unknown map {expr.map_name!r}", line)
        if expr.method == "lookup":
            if len(expr.args) != 1:
                raise CompileError("lookup takes exactly (&key)", line)
            key_slot = self._addr_of_local(expr.args[0], line)
            asm.ld_map_fd(Reg.R1, expr.map_name)
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, key_slot)
            asm.call(Helper.MAP_LOOKUP_ELEM)
        elif expr.method == "update":
            if len(expr.args) != 2:
                raise CompileError("update takes exactly (&key, &value)", line)
            key_slot = self._addr_of_local(expr.args[0], line)
            value_slot = self._addr_of_local(expr.args[1], line)
            asm.ld_map_fd(Reg.R1, expr.map_name)
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, key_slot)
            asm.mov_reg(Reg.R3, Reg.R10)
            asm.add_imm(Reg.R3, value_slot)
            asm.mov_imm(Reg.R4, 0)
            asm.call(Helper.MAP_UPDATE_ELEM)
        elif expr.method == "delete":
            if len(expr.args) != 1:
                raise CompileError("delete takes exactly (&key)", line)
            key_slot = self._addr_of_local(expr.args[0], line)
            asm.ld_map_fd(Reg.R1, expr.map_name)
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, key_slot)
            asm.call(Helper.MAP_DELETE_ELEM)
        elif expr.method == "increment":
            self._eval_increment(expr, bpf_map, line)
        elif expr.method == "perf_submit":
            self._eval_perf_submit(expr, bpf_map, line)
        else:  # pragma: no cover
            raise CompileError(f"unknown map method {expr.method!r}", line)

    def _eval_perf_submit(self, expr: MethodCall, bpf_map, line: int) -> None:
        """BCC's events.perf_submit(args, &data, size)."""
        asm = self.asm
        if not isinstance(bpf_map, PerfEventArray):
            raise CompileError(
                f"{expr.map_name!r} is not a BPF_PERF_OUTPUT", line
            )
        if len(expr.args) != 3:
            raise CompileError(
                "perf_submit takes exactly (args, &data, size)", line
            )
        ctx_arg, data_arg, size_arg = expr.args
        if not (isinstance(ctx_arg, Name) and ctx_arg.ident in ("args", "ctx")):
            raise CompileError("perf_submit's first argument must be args", line)
        data_slot = self._addr_of_local(data_arg, line)
        if not isinstance(size_arg, Num) or not 1 <= size_arg.value <= 8:
            raise CompileError(
                "perf_submit size must be a literal 1..8 (one local slot)", line
            )
        asm.mov_reg(Reg.R1, Reg.R9)  # ctx
        asm.ld_map_fd(Reg.R2, expr.map_name)
        asm.mov_imm(Reg.R3, 0)
        asm.mov_reg(Reg.R4, Reg.R10)
        asm.add_imm(Reg.R4, data_slot)
        asm.mov_imm(Reg.R5, size_arg.value)
        asm.call(Helper.PERF_EVENT_OUTPUT)

    def _eval_increment(self, expr: MethodCall, bpf_map: BpfMap, line: int) -> None:
        """BCC's map.increment(key): lookup-or-init then (*value)++."""
        asm = self.asm
        if len(expr.args) != 1:
            raise CompileError("increment takes exactly (key)", line)
        key_slot = self._temp_slot(line)
        value_slot = self._temp_slot(line)
        self._eval(expr.args[0], line)
        asm.stx(MemSize.DW, Reg.R10, key_slot, Reg.R0)

        found = self._fresh_label("incfound")
        done = self._fresh_label("incdone")
        asm.ld_map_fd(Reg.R1, expr.map_name)
        asm.mov_reg(Reg.R2, Reg.R10)
        asm.add_imm(Reg.R2, key_slot)
        asm.call(Helper.MAP_LOOKUP_ELEM)
        asm.jne_imm(Reg.R0, 0, found)
        # Missing entry: seed it with 1.
        asm.st_imm(MemSize.DW, Reg.R10, value_slot, 1)
        asm.ld_map_fd(Reg.R1, expr.map_name)
        asm.mov_reg(Reg.R2, Reg.R10)
        asm.add_imm(Reg.R2, key_slot)
        asm.mov_reg(Reg.R3, Reg.R10)
        asm.add_imm(Reg.R3, value_slot)
        asm.mov_imm(Reg.R4, 0)
        asm.call(Helper.MAP_UPDATE_ELEM)
        asm.ja(done)
        asm.label(found)
        asm.mov_reg(_SCRATCH_PTR, Reg.R0)
        width = MemSize.DW if bpf_map.value_size == 8 else MemSize.W
        asm.ldx(width, Reg.R1, _SCRATCH_PTR, 0)
        asm.add_imm(Reg.R1, 1)
        asm.stx(width, _SCRATCH_PTR, 0, Reg.R1)
        asm.label(done)
        asm.mov_imm(Reg.R0, 0)
        self._release_temp()
        self._release_temp()
