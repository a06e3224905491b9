"""bpfc — a miniature BCC: restricted-C → verified eBPF.

The paper presents its collector as C source (Listing 1) compiled through
BCC.  This package closes that last fidelity gap: it compiles a restricted
C dialect — the subset BCC-style tracepoint programs actually use — down to
this substrate's eBPF bytecode, which then passes the verifier and runs in
the VM like any hand-assembled program.

Supported surface (see ``docs/ebpf-substrate.md``):

* ``BPF_HASH(name[, ktype[, vtype[, size]]]);`` / ``BPF_ARRAY(name, vtype, size);``
* ``TRACEPOINT_PROBE(raw_syscalls, sys_enter|sys_exit) { ... }``
* ``u32/u64/int/long`` scalars, ``u64 *`` map-value pointers
* expressions: integer arithmetic/bitwise/shifts, comparisons, ``&&``/``||``
  (short-circuit), ``!``/``-``/``~``, ``*ptr``, ``args->id``, ``args->ret``,
  ``args->args[i]``
* statements: declarations, assignment (incl. ``+=`` family, ``++``/``--``),
  ``if``/``else``, ``return`` (loops are *not* supported — the verifier
  would reject them anyway)
* builtins: ``bpf_get_current_pid_tgid()``, ``bpf_ktime_get_ns()``,
  ``bpf_get_prandom_u32()``, ``bpf_get_smp_processor_id()``
* map methods: ``.lookup(&key)``, ``.update(&key, &val)``,
  ``.delete(&key)``, ``.increment(key)``

Usage::

    from repro.ebpf.bpfc import load_c

    bpf = load_c(kernel, LISTING_1_SOURCE, constants={"PID_TGID": task.pid_tgid})
    # programs are compiled, verified, and attached to their tracepoints

Free identifiers can be bound through ``constants`` — the stand-in for
BCC's preprocessor-macro substitution (the paper's ``PID_TGID``).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..bcc import BPF
from .codegen import CompiledUnit, compile_unit
from .lexer import CompileError
from .parser import parse

__all__ = ["compile_source", "load_c", "CompileError", "CompiledUnit"]


def compile_source(source: str,
                   constants: Optional[Dict[str, int]] = None) -> CompiledUnit:
    """Compile BPF-C source to maps + verified-ready programs."""
    return compile_unit(parse(source), constants)


def load_c(kernel, source: str, constants: Optional[Dict[str, int]] = None,
           charge_cost: bool = False) -> BPF:
    """Compile, load (verify) and attach all probes in ``source``.

    Returns the :class:`~repro.ebpf.bcc.BPF` object; maps are reachable via
    ``bpf["map_name"]`` exactly as with hand-built programs.
    """
    unit = compile_source(source, constants)
    bpf = BPF(kernel, maps=unit.maps, programs=unit.programs,
              charge_cost=charge_cost)
    for program_name, tracepoint in unit.attach_points.items():
        bpf.attach_tracepoint(tracepoint, program_name)
    return bpf
