"""Fleet-scale streaming diagnosis serving (§3.2 at production scale).

The paper deploys one online monitor per ``(workload, node)`` operation
context; a real big-data platform runs thousands of such contexts, and
"heavy traffic from millions of users" means one long-lived process must
multiplex them all.  This package is that process's core:

- :class:`FleetMonitor` — sharded registry of per-context
  :class:`~repro.core.online.OnlineMonitor` lanes (lazy construction,
  warm start from the attached model store, LRU eviction), a thread-pool
  ingest path, and the incident sink.  Every lane's drift check is the
  monitor's own streaming check (O(p + d + q) per tick for every ARIMA
  order, :class:`~repro.stats.arima.OneStepPredictor`);
- :mod:`repro.serve.http` — the stdlib-only HTTP/JSON transport behind
  ``invarnetx serve``, RED-instrumented with ``/metrics`` and
  ``/debug/prof``;
- :mod:`repro.serve.top` — the ``invarnetx top`` terminal dashboard
  over either side of that HTTP boundary;
- :mod:`repro.serve.incidents` — fleet-wide correlation of committed
  incident bundles into classified platform incidents (``invarnetx
  incidents list|show``).
"""

from repro.serve.fleet import (
    FleetEvent,
    FleetMonitor,
    IngestResult,
    RetainedIncident,
    Tick,
    shard_index,
)
from repro.serve.http import build_server
from repro.serve.incidents import (
    DEFAULT_HORIZON,
    IncidentRecord,
    PlatformIncident,
    correlate,
    records_from_fleet,
    scan_bundles,
    summarize,
)
from repro.serve.top import (
    FleetSnapshot,
    HttpSource,
    RegistrySource,
    TopApp,
    parse_prometheus,
)

__all__ = [
    "FleetMonitor",
    "FleetEvent",
    "IngestResult",
    "RetainedIncident",
    "Tick",
    "shard_index",
    "build_server",
    "FleetSnapshot",
    "HttpSource",
    "RegistrySource",
    "TopApp",
    "parse_prometheus",
    "DEFAULT_HORIZON",
    "IncidentRecord",
    "PlatformIncident",
    "scan_bundles",
    "records_from_fleet",
    "correlate",
    "summarize",
]
