"""Distributed key-value store for oversized call arguments (§4.2).

"If a function's arguments are too large, the submitter stores the
arguments separately in a distributed key-value store."  The model: a
sharded store with per-shard capacity and size accounting; submitters
PUT spilled arguments before the batched DurableQ write, and workers GET
them at execution time.  Entries are deleted when their call finalizes,
so store occupancy tracks in-flight spilled calls.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict

from ..sim.kernel import Simulator


@dataclass(frozen=True)
class KVStoreParams:
    """Shard count and per-shard capacity."""

    shards: int = 8
    #: Per-shard capacity; PUTs beyond it are rejected (caller retries
    #: or fails the submission).
    shard_capacity_mb: float = 4096.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_capacity_mb <= 0:
            raise ValueError("shard_capacity_mb must be positive")


class DistributedKVStore:
    """Sharded argument store with size accounting."""

    def __init__(self, sim: Simulator,
                 params: KVStoreParams = KVStoreParams()) -> None:
        self.sim = sim
        self.params = params
        self._entries: Dict[str, tuple] = {}  # key → (shard, size_mb)
        self._shard_used_mb = [0.0] * params.shards
        self.put_count = 0
        self.get_count = 0
        self.delete_count = 0
        self.reject_count = 0

    def _shard_of(self, key: str) -> int:
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), which would make shard fill nondeterministic.
        return zlib.crc32(key.encode()) % self.params.shards

    def put(self, key: str, size_kb: float) -> bool:
        """Store an entry; False when the target shard is full."""
        if key in self._entries:
            raise KeyError(f"key {key!r} already stored")
        size_mb = size_kb / 1024.0
        shard = self._shard_of(key)
        if self._shard_used_mb[shard] + size_mb > \
                self.params.shard_capacity_mb:
            self.reject_count += 1
            return False
        self._entries[key] = (shard, size_mb)
        self._shard_used_mb[shard] += size_mb
        self.put_count += 1
        return True

    def contains(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> float:
        """Fetch an entry's size (the worker reads the args)."""
        if key not in self._entries:
            raise KeyError(f"key {key!r} not in store")
        self.get_count += 1
        return self._entries[key][1]

    def delete(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            shard, size_mb = entry
            self._shard_used_mb[shard] -= size_mb
            self.delete_count += 1

    @property
    def used_mb(self) -> float:
        return sum(self._shard_used_mb)

    @property
    def entry_count(self) -> int:
        return len(self._entries)
