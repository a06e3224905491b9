"""Verifier accept/reject tests."""

import pytest

from repro.ebpf import (
    Asm,
    HashMap,
    Helper,
    Insn,
    MemSize,
    PerfEventArray,
    ProgType,
    Reg,
    VerifierError,
    verify,
)
from repro.ebpf.opcodes import InsnClass, JmpOp
from repro.ebpf.verifier import MAX_INSNS

SYS_ENTER = ProgType.tracepoint_sys_enter()


def check(build, prog_type=SYS_ENTER):
    asm = Asm()
    build(asm)
    verify(asm.build(), prog_type)


def rejected(build, match, prog_type=SYS_ENTER):
    with pytest.raises(VerifierError, match=match):
        check(build, prog_type)


class TestStructure:
    def test_empty_program_rejected(self):
        with pytest.raises(VerifierError, match="empty"):
            verify([], SYS_ENTER)

    def test_oversized_program_rejected(self):
        insns = [Insn(opcode=InsnClass.ALU64 | 0xB0, dst=0, imm=0)] * (MAX_INSNS + 1)
        with pytest.raises(VerifierError, match="too large"):
            verify(insns, SYS_ENTER)

    def test_back_edge_rejected(self):
        insns = [
            Insn(opcode=InsnClass.ALU64 | 0xB0, dst=0, imm=0),
            Insn(opcode=InsnClass.JMP | JmpOp.JA, off=-2),
        ]
        with pytest.raises(VerifierError, match="back-edge"):
            verify(insns, SYS_ENTER)

    def test_jump_out_of_range_rejected(self):
        insns = [
            Insn(opcode=InsnClass.JMP | JmpOp.JA, off=5),
            Insn(opcode=InsnClass.JMP | JmpOp.EXIT),
        ]
        with pytest.raises(VerifierError, match="out of range"):
            verify(insns, SYS_ENTER)

    def test_fall_off_end_rejected(self):
        rejected(lambda a: a.mov_imm(Reg.R0, 0), "falls off the end")

    def test_minimal_valid_program(self):
        check(lambda a: a.mov_imm(Reg.R0, 0).exit_())


class TestRegisters:
    def test_uninit_read_rejected(self):
        rejected(lambda a: a.mov_reg(Reg.R0, Reg.R5).exit_(), "!read_ok")

    def test_uninit_alu_rejected(self):
        def build(a):
            a.mov_imm(Reg.R0, 1)
            a.add_reg(Reg.R0, Reg.R7)
            a.exit_()

        rejected(build, "!read_ok")

    def test_exit_without_r0_rejected(self):
        rejected(lambda a: a.exit_(), "R0 !read_ok")

    def test_exit_with_pointer_r0_rejected(self):
        def build(a):
            a.mov_reg(Reg.R0, Reg.R10)
            a.exit_()

        rejected(build, "at exit")

    def test_write_to_r10_rejected(self):
        rejected(lambda a: a.mov_imm(Reg.R10, 0).exit_(), "read-only")

    def test_r1_starts_as_ctx(self):
        def build(a):
            a.ldx(MemSize.DW, Reg.R0, Reg.R1, 8)  # load args->id
            a.exit_()

        check(build)


class TestStack:
    def test_store_then_load_ok(self):
        def build(a):
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.DW, Reg.R10, -8, Reg.R1)
            a.ldx(MemSize.DW, Reg.R0, Reg.R10, -8)
            a.exit_()

        check(build)

    def test_uninitialized_stack_read_rejected(self):
        def build(a):
            a.ldx(MemSize.DW, Reg.R0, Reg.R10, -8)
            a.exit_()

        rejected(build, "uninitialized stack")

    def test_partial_initialization_rejected(self):
        def build(a):
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.W, Reg.R10, -8, Reg.R1)  # only 4 of 8 bytes
            a.ldx(MemSize.DW, Reg.R0, Reg.R10, -8)
            a.exit_()

        rejected(build, "uninitialized stack")

    def test_stack_out_of_bounds_rejected(self):
        def build(a):
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.DW, Reg.R10, -520, Reg.R1)
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "invalid stack")

    def test_positive_stack_offset_rejected(self):
        def build(a):
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.DW, Reg.R10, 8, Reg.R1)
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "invalid stack")


class TestCtx:
    def test_ctx_read_in_bounds_ok(self):
        check(lambda a: a.ldx(MemSize.DW, Reg.R0, Reg.R1, 16).exit_())

    def test_ctx_read_out_of_bounds_rejected(self):
        rejected(
            lambda a: a.ldx(MemSize.DW, Reg.R0, Reg.R1, 960).exit_(),
            "invalid ctx read",
        )

    def test_sys_exit_ctx_is_smaller(self):
        # offset 16 (ret) is fine, offset 24 is past sys_exit's record.
        check(lambda a: a.ldx(MemSize.DW, Reg.R0, Reg.R1, 16).exit_(),
              prog_type=ProgType.tracepoint_sys_exit())
        rejected(
            lambda a: a.ldx(MemSize.DW, Reg.R0, Reg.R1, 24).exit_(),
            "invalid ctx read",
            prog_type=ProgType.tracepoint_sys_exit(),
        )

    def test_ctx_write_rejected(self):
        def build(a):
            a.mov_imm(Reg.R2, 0)
            a.stx(MemSize.DW, Reg.R1, 0, Reg.R2)
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "read-only")


class TestMaps:
    def _lookup_prog(self, asm, bpf_map, *, null_check=True, deref=True):
        asm.mov_imm(Reg.R1, 1)
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R1)
        asm.ld_map_fd(Reg.R1, bpf_map)
        asm.mov_reg(Reg.R2, Reg.R10)
        asm.add_imm(Reg.R2, -8)
        asm.call(Helper.MAP_LOOKUP_ELEM)
        if null_check:
            asm.jne_imm(Reg.R0, 0, "found")
            asm.mov_imm(Reg.R0, 0)
            asm.exit_()
            asm.label("found")
        if deref:
            asm.ldx(MemSize.DW, Reg.R0, Reg.R0, 0)
        else:
            asm.mov_imm(Reg.R0, 0)
        asm.exit_()

    def test_lookup_with_null_check_ok(self):
        m = HashMap(8, 8)
        check(lambda a: self._lookup_prog(a, m))

    def test_lookup_without_null_check_rejected(self):
        m = HashMap(8, 8)
        rejected(
            lambda a: self._lookup_prog(a, m, null_check=False),
            "map_value_or_null",
        )

    def test_map_value_out_of_bounds_rejected(self):
        m = HashMap(8, 8)

        def build(a):
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.DW, Reg.R10, -8, Reg.R1)
            a.ld_map_fd(Reg.R1, m)
            a.mov_reg(Reg.R2, Reg.R10)
            a.add_imm(Reg.R2, -8)
            a.call(Helper.MAP_LOOKUP_ELEM)
            a.jne_imm(Reg.R0, 0, "found")
            a.mov_imm(Reg.R0, 0)
            a.exit_()
            a.label("found")
            a.ldx(MemSize.DW, Reg.R0, Reg.R0, 8)  # value_size is 8 -> OOB
            a.exit_()

        rejected(build, "map value read out of bounds")

    def test_uninitialized_key_rejected(self):
        m = HashMap(8, 8)

        def build(a):
            a.ld_map_fd(Reg.R1, m)
            a.mov_reg(Reg.R2, Reg.R10)
            a.add_imm(Reg.R2, -8)  # key bytes never written
            a.call(Helper.MAP_LOOKUP_ELEM)
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "uninitialized stack")

    def test_non_map_r1_rejected(self):
        def build(a):
            a.mov_imm(Reg.R1, 0)
            a.mov_reg(Reg.R2, Reg.R10)
            a.add_imm(Reg.R2, -8)
            a.call(Helper.MAP_LOOKUP_ELEM)
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "must be a map")

    def test_unresolved_map_name_rejected(self):
        def build(a):
            a.ld_map_fd(Reg.R1, "unbound")
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "unresolved map")

    def test_keyless_map_as_lookup_operand_rejected(self):
        """A perf event array has no keys: the lookup is rejected at load,
        not left to fail when the program runs."""
        events = PerfEventArray(name="events")
        rejected(lambda a: self._lookup_prog(a, events), "cannot pass map PerfEventArray")


class TestHelpersAndCalls:
    def test_unknown_helper_rejected(self):
        def build(a):
            a.call(999)
            a.exit_()

        rejected(build, "invalid func id")

    def test_helper_clobbers_scratch_registers(self):
        def build(a):
            a.mov_imm(Reg.R3, 7)
            a.call(Helper.KTIME_GET_NS)
            a.add_reg(Reg.R0, Reg.R3)  # r3 was clobbered
            a.exit_()

        rejected(build, "!read_ok")

    def test_callee_saved_registers_survive(self):
        def build(a):
            a.mov_imm(Reg.R6, 7)
            a.call(Helper.KTIME_GET_NS)
            a.add_reg(Reg.R0, Reg.R6)
            a.exit_()

        check(build)

    def test_unknown_size_arg_rejected(self):
        def build(a):
            a.call(Helper.KTIME_GET_NS)  # r0 <- unknown scalar
            a.mov_imm(Reg.R1, 1)
            a.stx(MemSize.DW, Reg.R10, -8, Reg.R1)
            a.mov_reg(Reg.R1, Reg.R10)
            a.add_imm(Reg.R1, -8)
            a.mov_reg(Reg.R2, Reg.R0)  # size not a known constant
            a.call(Helper.TRACE_PRINTK)
            a.exit_()

        rejected(build, "known-constant size")


class TestPointerRules:
    def test_pointer_arithmetic_with_unknown_scalar_rejected(self):
        def build(a):
            a.call(Helper.KTIME_GET_NS)
            a.mov_reg(Reg.R1, Reg.R10)
            a.add_reg(Reg.R1, Reg.R0)  # unbounded offset
            a.ldx(MemSize.DW, Reg.R0, Reg.R1, -8)
            a.exit_()

        rejected(build, "unbounded scalar")

    def test_pointer_ordering_comparison_rejected(self):
        def build(a):
            a.mov_reg(Reg.R1, Reg.R10)
            a.jgt_imm(Reg.R1, 0, "x")
            a.label("x")
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        rejected(build, "==/!=")

    def test_listing1_shape_verifies(self):
        """The paper's Listing 1 (epoll_wait duration) must verify."""
        start = HashMap(8, 8, name="start")

        def build(a):
            # if (args->id != 232) return 0
            a.ldx(MemSize.DW, Reg.R6, Reg.R1, 8)
            a.jne_imm(Reg.R6, 232, "out")
            # pid_tgid = bpf_get_current_pid_tgid()
            a.call(Helper.GET_CURRENT_PID_TGID)
            a.stx(MemSize.DW, Reg.R10, -8, Reg.R0)
            # t = bpf_ktime_get_ns(); start[pid_tgid] = t
            a.call(Helper.KTIME_GET_NS)
            a.stx(MemSize.DW, Reg.R10, -16, Reg.R0)
            a.ld_map_fd(Reg.R1, start)
            a.mov_reg(Reg.R2, Reg.R10)
            a.add_imm(Reg.R2, -8)
            a.mov_reg(Reg.R3, Reg.R10)
            a.add_imm(Reg.R3, -16)
            a.mov_imm(Reg.R4, 0)
            a.call(Helper.MAP_UPDATE_ELEM)
            a.label("out")
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        check(build)


class TestUnreachableCode:
    def test_dead_code_after_ja_rejected(self):
        def build(a):
            a.mov_imm(Reg.R0, 0)
            a.ja("end")
            a.mov_imm(Reg.R1, 1)  # dead
            a.label("end")
            a.exit_()

        rejected(build, "unreachable insn")

    def test_dead_tail_rejected(self):
        def build(a):
            a.mov_imm(Reg.R0, 0)
            a.exit_()
            a.mov_imm(Reg.R0, 1)  # dead
            a.exit_()

        rejected(build, "unreachable insn")

    def test_both_branch_targets_reachable(self):
        def build(a):
            a.ldx(MemSize.DW, Reg.R1, Reg.R1, 8)
            a.jeq_imm(Reg.R1, 0, "zero")
            a.mov_imm(Reg.R0, 1)
            a.exit_()
            a.label("zero")
            a.mov_imm(Reg.R0, 0)
            a.exit_()

        check(build)

    def test_ld_imm64_second_slot_not_flagged(self):
        def build(a):
            a.ld_imm64(Reg.R0, 0x1122334455667788)
            a.exit_()

        check(build)
