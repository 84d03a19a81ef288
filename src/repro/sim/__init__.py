"""Deterministic discrete-event simulation kernel.

The substrate the entire XFaaS reproduction runs on: a single-threaded
event loop (:class:`Simulator`) that runs scheduled and periodic
callbacks, and named reproducible RNG streams.
"""

from .events import EventQueue, ScheduledEvent
from .kernel import PeriodicTask, SimulationError, Simulator
from .rng import RngRegistry, RngStream, derive_seed
from .simsan import (
    RegionMapProxy,
    SanitizeError,
    SanitizedRngRegistry,
    SanitizedRngStream,
    Sanitizer,
)

__all__ = [
    "EventQueue",
    "PeriodicTask",
    "RegionMapProxy",
    "RngRegistry",
    "RngStream",
    "SanitizeError",
    "SanitizedRngRegistry",
    "SanitizedRngStream",
    "Sanitizer",
    "ScheduledEvent",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
