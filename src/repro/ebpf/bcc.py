"""A bcc-like frontend: load maps + programs, attach to tracepoints.

Mirrors the pieces of BCC's Python API the paper's methodology needs::

    b = BPF(kernel, maps={"start": HashMap(8, 8)}, programs=[enter, exit_])
    b.attach_tracepoint("raw_syscalls:sys_enter", "on_enter")
    ...
    b["start"].items_int()
    b.detach_all()

Attachment converts the simulated tracepoint context into the real record
byte layout, builds a per-invocation helper runtime (clock = the kernel's
``ktime``, current task = the syscall-ing thread), and interprets the
program in the VM.  With ``charge_cost=True`` the interpreter's cost model
is charged to the traced syscall — the mechanism behind the overhead study.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..kernel.kernel import Kernel
from ..kernel.tracepoints import SysEnterCtx, SysExitCtx, Tracepoint
from .compiled import DEFAULT_VM_TIER, make_vm
from .context import ProgType, pack_sys_enter, pack_sys_exit
from .errors import BpfError
from .helpers import HelperRuntime
from .maps import BpfMap, PerfEventArray, RingBuf
from .program import Program
from .translation import _GLOBAL_CACHE
from .vm import Vm

__all__ = ["BPF"]

MapLike = Union[BpfMap, RingBuf, PerfEventArray]


class BPF:
    """Loads programs against a kernel and manages attachments.

    Programs run on the compiled VM tier by default, falling back per
    program to the reference interpreter where its code generator bails.
    Pass ``vm_tier`` (``"reference"``/``"compiled"``) to pin a tier, or
    ``vm`` for a pre-built interpreter instance; both tiers are
    bit-for-bit identical.  The simulated kernel runs probes one at a
    time, so ``bpf_get_smp_processor_id`` returns 0 and every
    ``perf_event_output`` record lands in its map's one ring.

    ``config`` accepts anything with ``charge_cost``/``vm_tier``
    attributes — in practice a :class:`repro.core.config.CollectorConfig`
    (duck-typed to keep this layer free of core imports) — and supplies
    defaults for those two knobs; explicit keyword arguments win.
    """

    def __init__(
        self,
        kernel: Kernel,
        maps: Optional[Mapping[str, MapLike]] = None,
        programs: Sequence[Program] = (),
        charge_cost: Optional[bool] = None,
        vm: Optional[Vm] = None,
        vm_tier: Optional[str] = None,
        config: Optional[object] = None,
    ) -> None:
        if config is not None:
            if charge_cost is None:
                charge_cost = getattr(config, "charge_cost", None)
            if vm_tier is None and vm is None:
                vm_tier = getattr(config, "vm_tier", None)
        if vm is not None and vm_tier is not None:
            raise BpfError("pass either vm or vm_tier, not both")
        self.kernel = kernel
        self.maps: Dict[str, MapLike] = dict(maps or {})
        for name, bpf_map in self.maps.items():
            if getattr(bpf_map, "name", None) in (None, "", bpf_map.map_type):
                bpf_map.name = name
        self.charge_cost = bool(charge_cost)
        #: Tier name the interpreter was built from (None for a custom vm).
        self.vm_tier = (vm_tier if vm_tier is not None
                        else None if vm is not None else DEFAULT_VM_TIER)
        self.vm = vm if vm is not None else make_vm(self.vm_tier)
        self._programs: Dict[str, Program] = {}
        #: Per loaded program, the translation key its load verified.
        self._keys: Dict[str, bytes] = {}
        self._attached: List[tuple] = []
        #: Diagnostics: per-program invocation and instruction counts.
        self.invocations: Dict[str, int] = {}
        self.insns_executed: Dict[str, int] = {}
        for program in programs:
            self.load(program)

    # -- loading ---------------------------------------------------------
    def load(self, program: Program) -> Program:
        """Resolve map names, verify, and register a program.

        The verdict comes from the process-wide translation cache, which
        walks each distinct program once per process
        (:meth:`~repro.ebpf.translation.TranslationCache.verify`); the
        key it returns is kept for the attach's translation lookup.
        """
        if program.name in self._programs:
            raise BpfError(f"duplicate program name {program.name!r}")
        resolved = program.resolve_maps(self.maps)
        self._keys[resolved.name] = _GLOBAL_CACHE.verify(resolved.insns, resolved.prog_type)
        self._programs[resolved.name] = resolved
        self.invocations[resolved.name] = 0
        self.insns_executed[resolved.name] = 0
        return resolved

    def __getitem__(self, map_name: str) -> MapLike:
        return self.maps[map_name]

    @property
    def programs(self) -> Dict[str, Program]:
        return dict(self._programs)

    # -- attachment --------------------------------------------------------
    def attach_tracepoint(self, tp_name: str, prog_name: str) -> None:
        """Attach a loaded program to ``raw_syscalls:sys_enter``/``sys_exit``."""
        try:
            program = self._programs[prog_name]
        except KeyError:
            raise BpfError(f"no loaded program named {prog_name!r}") from None
        tracepoint = self.kernel.tracepoints.get(tp_name)
        expected = {
            "raw_syscalls:sys_enter": ProgType.tracepoint_sys_enter().name,
            "raw_syscalls:sys_exit": ProgType.tracepoint_sys_exit().name,
        }[tp_name]
        if program.prog_type.name != expected:
            raise BpfError(
                f"program {prog_name!r} has type {program.prog_type.name!r}, "
                f"but {tp_name} requires {expected!r}"
            )
        probe = self._make_probe(program)
        tracepoint.attach(probe)
        self._attached.append((tracepoint, probe))

    def detach_all(self) -> None:
        for tracepoint, probe in self._attached:
            tracepoint.detach(probe)
        self._attached.clear()

    def __enter__(self) -> "BPF":
        return self

    def __exit__(self, *exc) -> None:
        self.detach_all()

    # -- execution -----------------------------------------------------------
    def _make_probe(self, program: Program):
        pack = (
            pack_sys_enter
            if program.prog_type.name == ProgType.tracepoint_sys_enter().name
            else pack_sys_exit
        )
        prandom_stream = self.kernel.seeds.stream(f"bpf:{program.name}:prandom")
        # Bind the per-firing hot state into locals: the probe runs once
        # per traced syscall, millions of times per experiment.  The
        # program's translation for its record size is resolved once here
        # (``prepare``), and one HelperRuntime is reused across firings —
        # only its per-firing fields change, so allocation stays off the
        # hot path.
        run = self.vm.prepare(program.insns, program.prog_type.ctx_size,
                              self._keys[program.name])
        name = program.name
        charge_cost = self.charge_cost
        invocations = self.invocations
        insns_executed = self.insns_executed
        prandom = lambda: prandom_stream.randint(0, (1 << 32) - 1)  # noqa: E731
        runtime = HelperRuntime(prandom=prandom)

        raw = getattr(run, "raw", None)
        if raw is not None:
            # Compiled-tier fast path: call the translated function
            # directly and consume the bare (r0, steps, cost) tuple —
            # no per-firing VmResult allocation.  The record is bytes of
            # the program type's ctx size, which is all the raw function
            # accepts; the first probe of a firing packs it and the rest
            # read the memo ``pack`` left on the context.
            fn, insn_cost_ns = raw

            def probe(ctx) -> int:
                runtime.ktime_ns = ctx.ktime_ns
                runtime.pid_tgid = ctx.pid_tgid
                _r0, steps, cost = fn(ctx._record or pack(ctx), runtime, insn_cost_ns)
                invocations[name] += 1
                insns_executed[name] += steps
                return cost if charge_cost else 0
            return probe

        def probe(ctx) -> int:
            runtime.ktime_ns = ctx.ktime_ns
            runtime.pid_tgid = ctx.pid_tgid
            result = run(pack(ctx), runtime)
            invocations[name] += 1
            insns_executed[name] += result.steps
            return result.cost_ns if charge_cost else 0

        return probe

    # -- userspace data access ----------------------------------------------
    def perf_events(self, map_name: str) -> List[bytes]:
        perf = self.maps[map_name]
        if not isinstance(perf, PerfEventArray):
            raise BpfError(f"{map_name!r} is not a perf event array")
        return perf.poll()

    def __repr__(self) -> str:
        return (
            f"<BPF programs={sorted(self._programs)} maps={sorted(self.maps)} "
            f"attached={len(self._attached)}>"
        )
