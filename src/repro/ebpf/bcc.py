"""A bcc-like frontend: load maps + programs, attach to tracepoints.

Mirrors the pieces of BCC's Python API the paper's methodology needs::

    b = BPF(kernel, maps={"start": HashMap(8, 8)}, programs=[enter, exit_])
    b.attach_tracepoint("raw_syscalls:sys_enter", "on_enter")
    ...
    b["start"].items_int()
    b.detach_all()

Each attached program is one probe on its tracepoint, and the tracepoint
runs its whole attach set through one dispatcher generated for it
(:func:`_fuse`, on the first firing after an attach or detach).  The
dispatcher takes the firing's arguments ``(pid_tgid, nr, arg, ktime_ns)``.
A compiled-tier program runs inline in it: its ctx loads read the
firing's fields, and ``ktime``/``get_current_pid_tgid`` read
``ktime_ns``/``pid_tgid``.  A program on the reference interpreter reads
the tracepoint's record, packed at most once per firing, through its
probe's helper runtime, and a plain Python probe is called directly.
With ``charge_cost=True`` the VM's cost model is charged to the traced
syscall — the mechanism behind the overhead study.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..kernel.kernel import Kernel
from .compiled import DEFAULT_VM_TIER, fused_source, make_vm, rebind_namespace
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
        probe = _Probe(self, program, enter=tp_name == "raw_syscalls:sys_enter")
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


class _Probe:
    """One program attached to one tracepoint.

    The tracepoint runs its attach set through the dispatcher :meth:`fuse`
    builds.  A compiled-tier program (``template`` set) runs inline there
    on the firing's arguments; any other program runs through
    :meth:`run_record` on the record the dispatcher packs.  Either way
    the program keeps its own prandom stream and helper runtime, and
    counts into its ``BPF``'s ``invocations`` and ``insns_executed``.
    """

    __slots__ = ("name", "insns", "enter", "key", "template", "run", "runtime",
                 "charge_cost", "insn_cost_ns", "invocations", "insns_executed")

    def __init__(self, bpf: BPF, program: Program, enter: bool) -> None:
        vm = bpf.vm
        ctx_size = program.prog_type.ctx_size
        self.name = program.name
        self.insns = program.insns
        self.enter = enter
        self.key = bpf._keys[program.name]
        self.template = vm.template(program.insns, ctx_size, self.key)
        self.run = (vm.prepare(program.insns, ctx_size, self.key)
                    if self.template is None else None)
        prandom_stream = bpf.kernel.seeds.stream(f"bpf:{program.name}:prandom")
        self.runtime = HelperRuntime(
            prandom=lambda: prandom_stream.randint(0, (1 << 32) - 1))
        self.charge_cost = bpf.charge_cost
        self.insn_cost_ns = vm.insn_cost_ns
        self.invocations = bpf.invocations
        self.insns_executed = bpf.insns_executed

    def fuse(self, probes: Sequence) -> Callable:
        """The tracepoint's dispatcher for its attach set ``probes``."""
        return _fuse(probes)

    def run_record(self, record: bytes, pid_tgid: int, ktime_ns: int) -> int:
        """Run the program on the firing's packed record; returns the
        cost it charges."""
        runtime = self.runtime
        runtime.ktime_ns = ktime_ns
        runtime.pid_tgid = pid_tgid
        result = self.run(record, runtime)
        self.invocations[self.name] += 1
        self.insns_executed[self.name] += result.steps
        return result.cost_ns if self.charge_cost else 0


def _fuse(probes: Sequence) -> Callable:
    """One tracepoint's dispatcher ``(pid_tgid, nr, arg, ktime_ns) ->
    cost`` for ``probes`` in attach order: each compiled-tier program
    inline, every other probe a direct call (see
    :func:`~repro.ebpf.compiled.fused_source`).

    The compiled dispatcher is shared process-wide by every attach set of
    the same shape (:meth:`~repro.ebpf.translation.TranslationCache.fused`);
    this binds it to ``probes`` with one ``exec``.  The returned function's
    ``slots`` names each probe's slot kind: ``"inline"``, ``"record"`` or
    ``"call"``.
    """
    enter = next(probe.enter for probe in probes if isinstance(probe, _Probe))
    slots = []
    for probe in probes:
        if not isinstance(probe, _Probe):
            slots.append(("call",))
        elif probe.template is None:
            slots.append(("record",))
        else:
            slots.append(("inline", probe.key, probe.charge_cost, probe.insn_cost_ns))
    key = (enter, tuple(slots))

    def build():
        name = f"_fire_{'enter' if enter else 'exit'}_" \
            + hashlib.sha256(repr(key).encode()).hexdigest()[:12]
        source = fused_source(name, [
            ("inline", probe.template.inline, *slot[2:]) if slot[0] == "inline" else slot
            for probe, slot in zip(probes, slots)
        ])
        return compile(source, "<ebpf-compiled>", "exec")

    code = _GLOBAL_CACHE.fused(key, build)
    namespace = {"_pack": pack_sys_enter if enter else pack_sys_exit}
    for index, (probe, slot) in enumerate(zip(probes, slots)):
        suffix = f"_{index}"
        if slot[0] == "call":
            namespace[f"P{suffix}"] = probe
        elif slot[0] == "record":
            namespace[f"P{suffix}"] = probe.run_record
        else:
            namespace.update(rebind_namespace(probe.insns, suffix))
            namespace[f"runtime{suffix}"] = probe.runtime
            namespace[f"I{suffix}"] = probe.invocations
            namespace[f"X{suffix}"] = probe.insns_executed
            namespace[f"N{suffix}"] = probe.name
    exec(code, namespace)  # noqa: S102 - our own codegen output
    dispatch = namespace["_dispatch"]
    dispatch.slots = tuple(slot[0] for slot in slots)
    return dispatch
