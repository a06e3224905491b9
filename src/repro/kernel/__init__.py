"""Simulated Linux-like kernel: scheduler, syscalls, sockets, tracepoints."""

from .cpu import CPU
from .dvfs import DEFAULT_PSTATES, DvfsDriver, PState
from .interference import InterferenceModel, NullInterference
from .kernel import Kernel
from .machine import AMD_EPYC_7302, INTEL_XEON_E5_2620, MACHINES, MachineSpec
from .objects import FdTable, FileDescriptor
from .polling import EpollInstance, wait_for_readable
from .sockets import ListenSocket, SocketEndpoint, connect_pair
from .syscalls import (
    POLL_FAMILY,
    RECV_FAMILY,
    SEND_FAMILY,
    SETUP_SYSCALLS,
    SYSCALL_NAMES,
    Sys,
    SyscallFamily,
    SyscallSpec,
    family_of,
    nr_of,
)
from .threads import KernelTask, KProcess
from .tracelog import SyscallRecord, TraceRecorder
from .tracepoints import Tracepoint, TracepointBus

__all__ = [
    "Kernel",
    "CPU",
    "DvfsDriver",
    "PState",
    "DEFAULT_PSTATES",
    "MachineSpec",
    "MACHINES",
    "AMD_EPYC_7302",
    "INTEL_XEON_E5_2620",
    "InterferenceModel",
    "NullInterference",
    "FileDescriptor",
    "FdTable",
    "EpollInstance",
    "wait_for_readable",
    "SocketEndpoint",
    "ListenSocket",
    "connect_pair",
    "KProcess",
    "KernelTask",
    "Sys",
    "SyscallFamily",
    "SyscallSpec",
    "SYSCALL_NAMES",
    "nr_of",
    "family_of",
    "RECV_FAMILY",
    "SEND_FAMILY",
    "POLL_FAMILY",
    "SETUP_SYSCALLS",
    "Tracepoint",
    "TracepointBus",
    "SyscallRecord",
    "TraceRecorder",
]
