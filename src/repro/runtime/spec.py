"""One declarative build path for every deployment shape and backend.

A :class:`DeploymentSpec` names everything that used to be encoded in *which
class you instantiated*: the deployment configuration, whether the keyspace
is sharded, which fault schedule (if any) drives crashes and restarts, and
which execution backend (``sim`` / ``live`` / ``live-tcp``) supplies the
kernel and transport.  ``spec.build()`` then constructs the right deployment
— plain, sharded, or fault-scheduled — on the right kernel/transport pair,
so experiments, the CLI and the perf scenarios all share a single
construction seam instead of picking a stack by class name::

    DeploymentSpec(config).build()                          # simulated
    DeploymentSpec(config, backend="live").build()          # asyncio queues
    DeploymentSpec(config, backend="live-tcp",
                   num_shards=4).build()                    # sharded on TCP
    DeploymentSpec(config, fault_schedule=schedule,
                   backend="live").build()                  # live recovery
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..backends import Backend, resolve_backend
from ..common.config import DeploymentConfig
from ..common.errors import ConfigurationError
from ..crypto.digest import digest
from ..obsv.health import ObservabilityConfig
from ..recovery.schedule import FaultEvent, FaultSchedule
from ..workload.openloop import OpenLoopConfig
from .deployment import Deployment

if TYPE_CHECKING:
    from ..sharding.deployment import ShardedDeployment

#: hex characters of a cell hash (64 bits of the SHA-256 digest): short
#: enough for file names and table columns, long enough that two distinct
#: cells colliding inside one matrix is effectively impossible (and the
#: matrix expander refuses duplicate hashes outright).
CELL_HASH_HEX = 16


def _describe_fault_event(event: FaultEvent) -> dict:
    """Plain-data form of one fault event for canonical hashing.

    Fields at their defaults are omitted so a hash recorded before a new
    (defaulted) ``FaultEvent`` field existed stays valid after it is added.
    """
    description: dict = {"kind": event.kind.value, "at_us": event.at_us}
    if event.replica is not None:
        description["replica"] = event.replica
    if event.replicas:
        description["replicas"] = tuple(sorted(event.replicas))
    if event.name:
        description["name"] = event.name
    if not event.recover:
        description["recover"] = False
    if event.wipe_store:
        description["wipe_store"] = True
    return description


def _describe_schedule(schedule: FaultSchedule) -> tuple[dict, ...]:
    return tuple(_describe_fault_event(event) for event in schedule.events)


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to build one deployment, on any backend."""

    #: the per-group deployment configuration (protocol, f, workload, ...).
    config: DeploymentConfig
    #: execution backend: ``sim`` (default), ``live``, ``live-tcp``, or a
    #: :class:`~repro.backends.Backend` instance.
    backend: Union[str, Backend] = "sim"
    #: when set, build a sharded deployment with this many consensus groups
    #: (``config`` becomes the per-group base configuration).
    num_shards: Optional[int] = None
    #: cross-shard client count for sharded builds (defaults to
    #: ``config.workload.num_clients``); ignored for plain builds.
    num_clients: Optional[int] = None
    #: seed mixed into the shard router's key hash (sharded builds only).
    router_seed: int = 0
    #: timed crash/restart/partition events for a plain deployment.
    fault_schedule: Optional[FaultSchedule] = None
    #: per-group fault schedules for a sharded deployment (shard -> schedule).
    fault_schedules: dict[int, FaultSchedule] = field(default_factory=dict)
    #: what the deployment observes about itself (tracing, health sampling,
    #: stall threshold); ``None`` keeps everything off — the zero-overhead
    #: default whose simulated digests match pre-observability builds.
    observe: Optional[ObservabilityConfig] = None
    #: when set, the deployment is driven by the open-loop arrival engine
    #: instead of the clients' closed loops: ``config.workload.num_clients``
    #: (or the sharded ``num_clients``) must equal ``open_loop.max_in_flight``
    #: — the clients become the engine's request lanes.
    open_loop: Optional[OpenLoopConfig] = None

    @property
    def sharded(self) -> bool:
        """Whether :meth:`build` constructs a multi-group deployment."""
        return self.num_shards is not None

    def validate(self) -> None:
        """Reject combinations no build path accepts."""
        if self.open_loop is not None:
            self.open_loop.validate()
            lanes = (self.num_clients if self.sharded and self.num_clients is not None
                     else self.config.workload.num_clients)
            if lanes != self.open_loop.max_in_flight:
                raise ConfigurationError(
                    f"open-loop spec wants max_in_flight="
                    f"{self.open_loop.max_in_flight} lanes but builds "
                    f"{lanes} clients; set workload.num_clients (or the "
                    "sharded num_clients) to max_in_flight")
        if self.sharded and self.fault_schedule is not None:
            raise ConfigurationError(
                "a sharded deployment takes per-group fault_schedules "
                "(shard -> FaultSchedule), not a single fault_schedule")
        if not self.sharded and self.fault_schedules:
            raise ConfigurationError(
                "fault_schedules address shards; a plain deployment takes "
                "a single fault_schedule")

    def describe(self) -> dict:
        """Canonical plain-data description of everything the spec resolves.

        This is the hashing surface of the experiment-matrix engine: two
        specs describe identically exactly when they would build and run the
        same deployment.  Three rules keep the resulting hashes stable and
        meaningful:

        * **Backends hash by name.**  A ``Backend`` instance and the string
          that resolves to it describe identically.
        * **Fields at their neutral default are omitted** (no shards, no
          fault schedule, no open loop), so a hash recorded before a
          defaulted field existed stays valid after it is added — and
          passing a default explicitly never changes a hash.
        * **Observability is excluded.**  Tracing and health sampling observe
          a run without changing its results (the ``obsv_overhead`` scenario
          pins this), so toggling them must not invalidate resumable cell
          results.
        """
        backend = resolve_backend(self.backend)
        description: dict = {"config": self.config, "backend": backend.name}
        if self.num_shards is not None:
            description["num_shards"] = self.num_shards
            description["router_seed"] = self.router_seed
            if self.num_clients is not None:
                description["num_clients"] = self.num_clients
        if self.fault_schedule is not None:
            description["fault_schedule"] = _describe_schedule(self.fault_schedule)
        if self.fault_schedules:
            description["fault_schedules"] = {
                shard: _describe_schedule(schedule)
                for shard, schedule in self.fault_schedules.items()}
        if self.open_loop is not None:
            description["open_loop"] = self.open_loop
        return description

    def cell_hash(self) -> str:
        """Stable content hash of the fully-resolved spec.

        The hex prefix (:data:`CELL_HASH_HEX` characters) of the SHA-256
        digest of :meth:`describe`'s canonical encoding
        (:func:`repro.crypto.digest.digest`, the same encoding the wire
        format and the determinism digests use).  A
        :class:`~repro.matrix.cell.Cell` hashes as its spec does, so a cell,
        its result file ``results/<hash>.json`` and a hand-built spec all
        name the same identity.
        """
        return digest(self.describe()).hex()[:CELL_HASH_HEX]

    def build(self) -> Union[Deployment, "ShardedDeployment"]:
        """Construct the deployment this spec describes."""
        self.validate()
        backend = resolve_backend(self.backend)
        if not self.sharded:
            return Deployment(self.config,
                              fault_schedule=self.fault_schedule,
                              backend=backend,
                              observe=self.observe)
        # Imported lazily: repro.sharding builds on repro.runtime.
        from ..sharding.config import ShardedConfig
        from ..sharding.deployment import ShardedDeployment

        sharded_config = ShardedConfig(
            base=self.config, num_shards=self.num_shards,
            num_clients=self.num_clients, router_seed=self.router_seed)
        return ShardedDeployment(sharded_config,
                                 fault_schedules=self.fault_schedules or None,
                                 backend=backend,
                                 observe=self.observe)


def build_from_spec(spec: DeploymentSpec) -> Union[Deployment, "ShardedDeployment"]:
    """Function form of :meth:`DeploymentSpec.build`."""
    return spec.build()
