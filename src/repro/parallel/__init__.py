"""Sharded parallel execution of fleet campaigns.

Partitions a fleet campaign into independent shards, fans the shards
out across worker processes, and merges the per-shard reports, metrics
and observability snapshots deterministically.  One campaign forks a
process per shard; a sweep (:func:`run_campaigns`) shares one
persistent :class:`WorkerPool` whose workers warm-start deployed worlds
from cached images.  See ``docs/parallelism.md`` for the shard model
and its guarantees, and ``docs/performance.md`` for the measurements
behind the executor rule.
"""

from repro.parallel.engine import (
    CAMPAIGNS,
    ShardedCampaignResult,
    ShardResult,
    ShardSpec,
    build_shard_specs,
    run_campaign,
    run_campaigns,
    run_shard,
)
from repro.parallel.pool import PoolError, WorkerPool, WorkerTaskError
from repro.parallel.protocol import (
    DEPLOYED_CAMPAIGNS,
    WorldImageCache,
    world_key,
)
from repro.parallel.shards import derive_shard_seed, partition

__all__ = [
    "CAMPAIGNS",
    "DEPLOYED_CAMPAIGNS",
    "PoolError",
    "ShardSpec",
    "ShardResult",
    "ShardedCampaignResult",
    "WorkerPool",
    "WorkerTaskError",
    "WorldImageCache",
    "build_shard_specs",
    "derive_shard_seed",
    "partition",
    "run_campaign",
    "run_campaigns",
    "run_shard",
    "world_key",
]
