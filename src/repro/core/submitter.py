"""Submitter: the write path into XFaaS (§4.2).

Submitters improve efficiency by *batching* calls into single DurableQ
writes, spill oversized arguments into a distributed key-value store,
and enforce rate-limiting policies by consulting the Central Rate
Limiter.  Each region runs **two submitter pools** — one for normal
clients and one for very spiky clients — so a Figure 4-style client
cannot degrade everyone else's submission latency.  Clients that turn
spiky while on the normal pool are throttled by default and flagged for
operators (moving them is an explicit SLO change, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..sim.kernel import Simulator
from .call import CallState, FunctionCall
from .kvstore import DistributedKVStore
from .queuelb import QueueLB
from .ratelimiter import ClientRateLimiter

#: One KV-store round trip, paid by a batch holding spilled arguments.
KV_STORE_WRITE_LATENCY_S = 0.010
#: Smoothing factor of the per-client submission-rate EMA.
SPIKY_EMA_ALPHA = 0.2


@dataclass(frozen=True)
class SubmitterParams:
    """Batching, argument-spill, and spiky-client detection tunables."""

    batch_flush_interval_s: float = 0.100
    batch_max_size: int = 100
    #: Arguments above this size go to the KV store, not the DurableQ.
    args_spill_threshold_kb: float = 64.0
    #: Sustained submissions/s above which a normal-pool client is
    #: classified spiky (EMA-based).
    spiky_rate_threshold: float = 200.0

    def __post_init__(self) -> None:
        if self.batch_flush_interval_s <= 0:
            raise ValueError("batch_flush_interval_s must be positive")
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")


@dataclass
class _ClientStats:
    """Lazy per-client submission-rate EMA (rolled at submit time)."""

    ema_rate: float = 0.0
    window_count: int = 0
    window_start: float = 0.0

    def observe(self, now: float) -> None:
        """Count one submission, folding completed 1 s windows into the EMA."""
        elapsed = now - self.window_start
        if elapsed >= 1.0:
            alpha = SPIKY_EMA_ALPHA
            rate = self.window_count / elapsed
            self.ema_rate = (1 - alpha) * self.ema_rate + alpha * rate
            # Long idle gaps decay the EMA like explicit zero windows.
            idle_windows = min(int(elapsed) - 1, 60)
            if idle_windows > 0:
                self.ema_rate *= (1 - alpha) ** idle_windows
            self.window_start = now
            self.window_count = 0
        self.window_count += 1


class Submitter:
    """One submitter pool (normal or spiky) in one region."""

    def __init__(self, sim: Simulator, region: str, queuelb: QueueLB,
                 client_limiter: ClientRateLimiter,
                 params: SubmitterParams = SubmitterParams(),
                 pool: str = "normal",
                 on_throttle: Optional[Callable[[FunctionCall], None]] = None,
                 throttle_spiky_clients: bool = True,
                 kvstore: Optional[DistributedKVStore] = None) -> None:
        self.sim = sim
        self.region = region
        self.queuelb = queuelb
        self.client_limiter = client_limiter
        self.params = params
        self.pool = pool
        self.on_throttle = on_throttle
        self.throttle_spiky_clients = throttle_spiky_clients
        self.kvstore = kvstore
        self._batch: List[FunctionCall] = []
        self._flush_scheduled = False
        self._flush_handle = None
        self._clients: Dict[str, _ClientStats] = {}
        self.accepted_count = 0
        self.throttled_count = 0
        self.spill_count = 0
        self.flush_count = 0
        self.spiky_alerts: Set[str] = set()

    # ------------------------------------------------------------------
    def submit(self, call: FunctionCall) -> bool:
        """Accept or throttle one call; accepted calls batch to QueueLB."""
        now = self.sim._now
        client = call.spec.team
        stats = self._clients.setdefault(
            client, _ClientStats(window_start=now))
        stats.observe(now)

        if not self.client_limiter.try_acquire(client, now):
            return self._throttle(call)
        if (self.throttle_spiky_clients and self.pool == "normal"
                and stats.ema_rate > self.params.spiky_rate_threshold):
            # Spiky client on the normal pool: throttle by default and
            # alert operators to negotiate a move to the spiky pool.
            self.spiky_alerts.add(client)
            return self._throttle(call)

        if call.args_size_kb > self.params.args_spill_threshold_kb:
            # §4.2: oversized arguments go to the distributed KV store;
            # a full store rejects the submission outright.
            if self.kvstore is not None and not self.kvstore.put(
                    f"args/{call.call_id}", call.args_size_kb):
                return self._throttle(call)
            call.args_spilled = True
            self.spill_count += 1
        self._batch.append(call)
        self.accepted_count += 1
        if len(self._batch) >= self.params.batch_max_size:
            self._flush()
        elif not self._flush_scheduled:
            # Event-driven flush: armed only while a batch is pending.
            self._flush_scheduled = True
            self._flush_handle = self.sim.call_after(
                self.params.batch_flush_interval_s, self._flush)
        return True

    def _throttle(self, call: FunctionCall) -> bool:
        call.state = CallState.THROTTLED
        self.throttled_count += 1
        if self.on_throttle is not None:
            self.on_throttle(call)
        return False

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        # A full-batch flush disarms a pending timer instead of letting
        # it fire into the next batch early (and waste a queue event).
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._flush_scheduled = False
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        self.flush_count += 1
        # One batched write; spilled args add a KV round trip first.
        delay = KV_STORE_WRITE_LATENCY_S if any(
            c.args_spilled for c in batch) else 0.0

        def write() -> None:
            for call in batch:
                self.queuelb.route(call)
        if delay > 0:
            self.sim.call_after(delay, write)
        else:
            write()

    def stop(self) -> None:
        self._flush()


class SubmitterFrontend:
    """Per-region entry point routing clients to the right pool (§4.2)."""

    def __init__(self, normal: Submitter, spiky: Submitter) -> None:
        if normal.region != spiky.region:
            raise ValueError("pools must live in the same region")
        self.normal = normal
        self.spiky = spiky
        self._spiky_clients: Set[str] = set()

    @property
    def region(self) -> str:
        return self.normal.region

    def register_spiky_client(self, client: str) -> None:
        """Operator action after negotiating the SLO change (§4.2)."""
        self._spiky_clients.add(client)

    def submit(self, call: FunctionCall) -> bool:
        pool = (self.spiky if call.spec.team in self._spiky_clients
                else self.normal)
        return pool.submit(call)

    @property
    def spiky_alerts(self) -> Set[str]:
        return self.normal.spiky_alerts
