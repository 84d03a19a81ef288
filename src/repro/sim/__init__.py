"""Deterministic discrete-event simulation kernel.

The substrate the entire XFaaS reproduction runs on: a single-threaded
event loop (:class:`Simulator`), generator processes (:func:`spawn`),
shared resources (:class:`Resource`, :class:`Store`), one-shot
:class:`Signal` events, and named reproducible RNG streams.
"""

from .events import EventCancelled, EventQueue, ScheduledEvent, Signal
from .kernel import PeriodicTask, SimulationError, Simulator
from .process import Process, ProcessKilled, spawn
from .resources import Resource, Store
from .rng import RngRegistry, RngStream, derive_seed
from .simsan import (
    RegionMapProxy,
    SanitizeError,
    SanitizedRngRegistry,
    SanitizedRngStream,
    Sanitizer,
)

__all__ = [
    "EventCancelled",
    "EventQueue",
    "PeriodicTask",
    "Process",
    "ProcessKilled",
    "RegionMapProxy",
    "Resource",
    "RngRegistry",
    "RngStream",
    "SanitizeError",
    "SanitizedRngRegistry",
    "SanitizedRngStream",
    "Sanitizer",
    "ScheduledEvent",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "derive_seed",
    "spawn",
]
