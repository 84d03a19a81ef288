"""TAO and the WTCache/KVStore stack used in the §5.5 incidents.

The paper's first incident: a new WTCache release had a bug in its
persistent KVStore path; KVStore throttled WTCache, WTCache dropped
reads/writes, and XFaaS functions calling WTCache received back-pressure
— which the AIMD controller turned into reduced function RPS, protecting
TAO from the retry storm.

This module builds that topology:

    functions → WTCache → KVStore
                  ↘ TAO (the social-graph database)
"""

from __future__ import annotations

from typing import Tuple

from ..sim.kernel import Simulator
from .service import DownstreamService, ServiceParams, ServiceRegistry


def build_tao_stack(sim: Simulator, registry: ServiceRegistry,
                    tao_capacity_rps: float = 5000.0,
                    wtcache_capacity_rps: float = 2000.0,
                    kvstore_capacity_rps: float = 1500.0,
                    ) -> Tuple[DownstreamService, DownstreamService,
                               DownstreamService]:
    """Create TAO, WTCache, KVStore with the §5.5 dependency shape."""
    tao = DownstreamService(
        sim, "tao", ServiceParams(capacity_rps=tao_capacity_rps))
    kvstore = DownstreamService(
        sim, "kvstore", ServiceParams(capacity_rps=kvstore_capacity_rps))
    wtcache = DownstreamService(
        sim, "wtcache", ServiceParams(capacity_rps=wtcache_capacity_rps),
        depends_on=(kvstore, tao), amplification=0.5,
        dependency_coupling=0.9)
    registry.register(tao)
    registry.register(kvstore)
    registry.register(wtcache)
    return tao, wtcache, kvstore
