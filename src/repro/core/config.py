"""Configuration management system (the paper's Configerator, §4.1/§4.3).

Central controllers publish key→value configurations (traffic matrix,
utilization multiplier S, locality assignments, routing policies).
Critical-path components *cache* the last value they saw, so they keep
operating on stale configuration when controllers are down — the
fault-tolerance property §4.1 calls out ("can withstand central
controller downtime for tens of minutes").

Propagation is modelled with a delay: a published value becomes visible
to consumers ``propagation_delay_s`` later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..sim.kernel import Simulator


@dataclass
class _Entry:
    value: Any
    version: int
    visible_at: float


class ConfigStore:
    """Versioned config store with propagation delay and subscriptions."""

    def __init__(self, sim: Simulator, propagation_delay_s: float = 5.0) -> None:
        if propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be >= 0")
        self.sim = sim
        self.propagation_delay_s = propagation_delay_s
        self._entries: Dict[str, List[_Entry]] = {}
        self._subscribers: Dict[str, List[Callable[[str, Any], None]]] = {}
        self.publish_count = 0

    def publish(self, key: str, value: Any) -> int:
        """Publish a new value; returns its version number."""
        history = self._entries.setdefault(key, [])
        version = len(history) + 1
        visible_at = self.sim.now + self.propagation_delay_s
        history.append(_Entry(value=value, version=version,
                              visible_at=visible_at))
        self.publish_count += 1
        self.sim.call_at(visible_at, lambda: self._notify(key, value))
        return version

    def get(self, key: str, default: Any = None) -> Any:
        """Latest value *visible* at the current time (or ``default``)."""
        entry = self._visible_entry(key)
        return entry.value if entry is not None else default

    def version(self, key: str) -> int:
        """Version of the currently visible value (0 when none)."""
        entry = self._visible_entry(key)
        return entry.version if entry is not None else 0

    def subscribe(self, key: str, callback: Callable[[str, Any], None]) -> None:
        """Call ``callback(key, value)`` whenever a new value becomes visible."""
        self._subscribers.setdefault(key, []).append(callback)

    def _visible_entry(self, key: str) -> Optional[_Entry]:
        now = self.sim.now
        best = None
        for entry in self._entries.get(key, ()):
            if entry.visible_at <= now:
                best = entry
        return best

    def _notify(self, key: str, value: Any) -> None:
        for callback in self._subscribers.get(key, ()):
            callback(key, value)


class CachedConfig:
    """A consumer-side cache of one config key.

    Reads never block and never fail: the consumer sees the last value
    it successfully refreshed, even if the store (controller side) has
    since stopped publishing.  ``refresh_interval_s`` models consumers
    polling Configerator.
    """

    def __init__(self, sim: Simulator, store: ConfigStore, key: str,
                 default: Any, refresh_interval_s: float = 10.0) -> None:
        self.sim = sim
        self.store = store
        self.key = key
        self._value = store.get(key, default)
        self._version = store.version(key)
        self.refresh_interval_s = refresh_interval_s
        self._task = sim.every(
            refresh_interval_s, self._refresh,
            jitter=refresh_interval_s * 0.05)
        self.refresh_count = 0

    @property
    def value(self) -> Any:
        return self._value

    @property
    def version(self) -> int:
        return self._version

    def _refresh(self) -> None:
        self.refresh_count += 1
        version = self.store.version(self.key)
        if version > self._version:
            self._value = self.store.get(self.key)
            self._version = version

    def stop(self) -> None:
        self._task.cancel()
