"""``repro.cluster`` — multi-replica serving for one CovidKG system.

Three layers turn the single-process stack (gateway → QueryService →
sharded docstore) into a horizontally scaled cluster:

* a **shared cross-process result cache**
  (:class:`~repro.cluster.cacheserver.SharedCacheServer` +
  :class:`~repro.cluster.cacheclient.SharedCacheClient`) — a small
  stdlib socket server speaking the length-prefixed binary protocol in
  :mod:`repro.cluster.protocol`, keyed by the serving tier's normalized
  request keys and invalidated by the docstore/KG version counters.
  Every replica keeps its in-process :class:`~repro.serve.cache.
  ResultCache` as an L1 in front, so a warm hit never crosses a process
  boundary twice.  The server doubles as the cluster **coordinator**:
  replicas register themselves and the router discovers them;
* a **cluster runner** (:class:`~repro.cluster.runner.ClusterRunner`,
  ``repro-covidkg cluster --replicas N``) that builds the system once,
  saves it, and boots N gateway replicas over those common shards;
* a **router** (:class:`~repro.cluster.router.Router`) doing
  consistent-hash request routing (:class:`~repro.cluster.ring.
  HashRing`) so the same normalized request lands on the same replica's
  warm L1, per-replica health probing via ``/v1/healthz`` (version
  counters, WAL replay status), and failover that ejects a replica
  which stops draining and re-spreads its hash range.

Submodules are imported lazily so that ``repro.serve`` can reach the
cache client without dragging the router (and through it the gateway)
into every import of the serving tier.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "HashRing",
    "Router",
    "RouterConfig",
    "ReplicaSpec",
    "SharedCacheClient",
    "SharedCacheServer",
    "ClusterRunner",
    "ClusterConfig",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.cacheclient": ("SharedCacheClient",),
    "repro.cluster.cacheserver": ("SharedCacheServer",),
    "repro.cluster.ring": ("HashRing",),
    "repro.cluster.router": ("ReplicaSpec", "Router", "RouterConfig"),
    "repro.cluster.runner": ("ClusterConfig", "ClusterRunner"),
})
