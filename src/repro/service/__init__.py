"""The campaign service: fault-injection campaigns as jobs on one host.

Statistical fault-injection campaigns (the paper's Section 3 methodology)
are embarrassingly parallel *because* of a deliberate property of this
reproduction: every trial's randomness derives from
``(seed, workload, point, index)`` alone. This package exploits that to
turn campaigns into a service — jobs sharded into ``(workload,
seed-slice)`` work units, leased to an in-process worker pool with
heartbeats so a dead worker's units are requeued, a SQLite result store
ingesting trial records idempotently, and an HTTP JSON API with SSE
progress streaming. A finished job's journal is **bit-identical** to a
serial ``run_campaign`` of the same spec (see
:mod:`repro.service.shard` for the invariant and DESIGN.md for why it
holds).

Layers:

- :mod:`repro.service.spec` — job specs and config reconstruction.
- :mod:`repro.service.shard` — work units and the stride-sharding model.
- :mod:`repro.service.store` — the SQLite job/unit/trial store.
- :mod:`repro.service.scheduler` — lifecycle, leases, finalization.
- :mod:`repro.service.worker` — unit execution and the local process
  pool that drains the queue.
- :mod:`repro.service.api` — the asyncio HTTP front end.
- :mod:`repro.service.client` — the urllib client the CLI uses.

CLI: ``repro serve`` runs scheduler + API + local pool; ``repro submit``
submits and optionally waits; ``repro jobs`` lists, inspects, cancels
and triages dead-lettered units.
"""

from repro.service.api import CampaignService
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.scheduler import CampaignScheduler
from repro.service.shard import WorkUnit, shard_job
from repro.service.spec import JobSpec, ServiceError, build_config
from repro.service.store import ResultStore
from repro.service.worker import LocalWorkerPool, execute_unit

__all__ = [
    "CampaignScheduler",
    "CampaignService",
    "JobSpec",
    "LocalWorkerPool",
    "ResultStore",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "WorkUnit",
    "build_config",
    "execute_unit",
    "shard_job",
]
