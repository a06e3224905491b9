"""Discrete-event simulation core (integer-nanosecond clock).

This package is self-contained and application-agnostic: the kernel, network
and workload layers are all built on these primitives.
"""

from .engine import EmptySchedule, Environment
from .events import AnyOf, Event, Interrupt, Timeout
from .process import SELF_DRIVE, Process
from .resources import Request, Resource, Store
from .rng import SeedSequence, Stream, splitmix64
from .timebase import MSEC, NSEC, SEC, USEC, fmt_ns, ns, per_second, seconds

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AnyOf",
    "Interrupt",
    "Process",
    "SELF_DRIVE",
    "Resource",
    "Request",
    "Store",
    "SeedSequence",
    "Stream",
    "splitmix64",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "ns",
    "seconds",
    "per_second",
    "fmt_ns",
]
