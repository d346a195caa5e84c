"""Backend registry and the DeploymentSpec single build path.

The deployment layer is backend-parameterized: one spec must construct any
deployment shape (plain, sharded, fault-scheduled) on any kernel/transport
pair.  These tests pin the registry semantics, the spec's validation and the
classes each (backend, shape) combination actually builds.
"""

from __future__ import annotations

import pytest

from repro.backends import (
    BACKENDS,
    Backend,
    LiveBackend,
    LiveTcpBackend,
    SimBackend,
    resolve_backend,
)
from repro.common.errors import ConfigurationError
from repro.net.tcp import TcpTransport
from repro.net.network import Network
from repro.realtime import LiveNetwork
from repro.realtime.kernel import AsyncioKernel
from repro.recovery import FaultSchedule, crash_at, restart_at
from repro.runtime.deployment import Deployment
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec
from repro.sharding.deployment import ShardedDeployment
from repro.sim.kernel import Simulator

_SCALE = ExperimentScale(
    name="spec-test", f=1, num_clients=4, batch_size=4,
    warmup_batches=1, measured_batches=2, worker_threads=4,
    max_sim_seconds=10.0)


def _config(protocol: str = "minbft"):
    return build_config(protocol, _SCALE)


class TestBackendRegistry:
    def test_three_backends_are_registered(self):
        assert set(BACKENDS) == {"sim", "live", "live-tcp"}

    def test_resolve_by_name_and_alias(self):
        assert isinstance(resolve_backend("sim"), SimBackend)
        assert isinstance(resolve_backend("live"), LiveBackend)
        assert isinstance(resolve_backend("asyncio"), LiveBackend)
        assert isinstance(resolve_backend("live-tcp"), LiveTcpBackend)
        assert isinstance(resolve_backend("tcp"), LiveTcpBackend)

    def test_resolve_none_is_the_simulator(self):
        assert resolve_backend(None) is BACKENDS["sim"]

    def test_resolve_passes_instances_through(self):
        backend = BACKENDS["live"]
        assert resolve_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("quantum")

    def test_realtime_flags(self):
        assert not BACKENDS["sim"].realtime
        assert BACKENDS["live"].realtime
        assert BACKENDS["live-tcp"].realtime

    def test_kernel_factories(self):
        assert isinstance(BACKENDS["sim"].build_kernel(), Simulator)
        for name in ("live", "live-tcp"):
            kernel = BACKENDS[name].build_kernel()
            try:
                assert isinstance(kernel, AsyncioKernel)
            finally:
                kernel.close()


class TestDeploymentBackendParameter:
    def test_default_backend_is_the_simulator(self):
        deployment = Deployment(_config())
        assert deployment.backend.name == "sim"
        assert isinstance(deployment.sim, Simulator)
        assert type(deployment.network) is Network

    def test_live_backend_builds_queue_transport(self):
        with Deployment(_config(), backend="live") as deployment:
            assert isinstance(deployment.sim, AsyncioKernel)
            assert isinstance(deployment.network, LiveNetwork)

    def test_tcp_backend_builds_tcp_transport(self):
        with Deployment(_config(), backend="live-tcp") as deployment:
            assert isinstance(deployment.sim, AsyncioKernel)
            assert isinstance(deployment.network, TcpTransport)

    def test_close_is_a_no_op_on_the_simulator(self):
        deployment = Deployment(_config())
        deployment.run_until_target(target_requests=4)
        deployment.close()  # must not raise


class TestDeploymentSpec:
    def test_plain_sim_build(self):
        deployment = DeploymentSpec(_config()).build()
        assert type(deployment) is Deployment
        assert deployment.backend.name == "sim"

    def test_sharded_build(self):
        deployment = DeploymentSpec(_config(), num_shards=3).build()
        assert isinstance(deployment, ShardedDeployment)
        assert deployment.num_shards == 3
        assert deployment.backend.name == "sim"

    def test_sharded_build_forwards_client_and_router_knobs(self):
        deployment = DeploymentSpec(_config(), num_shards=2, num_clients=3,
                                    router_seed=7).build()
        assert len(deployment.clients) == 3
        assert deployment.config.router_seed == 7

    def test_fault_schedule_reaches_the_deployment(self):
        schedule = FaultSchedule((crash_at(2, 1000.0), restart_at(2, 5000.0)))
        deployment = DeploymentSpec(_config(), fault_schedule=schedule).build()
        assert deployment.fault_schedule is schedule

    def test_per_group_fault_schedules_reach_the_groups(self):
        schedule = FaultSchedule((crash_at(2, 1000.0), restart_at(2, 5000.0)))
        deployment = DeploymentSpec(_config(), num_shards=2,
                                    fault_schedules={1: schedule}).build()
        assert deployment.groups[0].fault_schedule is None
        assert deployment.groups[1].fault_schedule is schedule

    def test_plain_spec_rejects_per_group_schedules(self):
        schedule = FaultSchedule((crash_at(2, 1000.0),))
        with pytest.raises(ConfigurationError, match="address shards"):
            DeploymentSpec(_config(), fault_schedules={0: schedule}).build()

    def test_sharded_spec_rejects_single_schedule(self):
        schedule = FaultSchedule((crash_at(2, 1000.0),))
        with pytest.raises(ConfigurationError, match="per-group"):
            DeploymentSpec(_config(), num_shards=2,
                           fault_schedule=schedule).build()

    def test_spec_builds_equivalent_simulated_results(self):
        # The spec path and the direct constructor are the same build path:
        # identical configuration must produce identical simulated rows.
        direct = Deployment(_config()).run_until_target(target_requests=8)
        via_spec = DeploymentSpec(_config()).build().run_until_target(
            target_requests=8)
        assert direct.as_row() == via_spec.as_row()

    @pytest.mark.parametrize("backend", ["live", "live-tcp"])
    def test_spec_builds_live_deployments(self, backend):
        deployment = DeploymentSpec(_config(), backend=backend).build()
        try:
            result = deployment.run_until_target(target_requests=6)
            assert result.metrics.completed_requests > 0
            assert result.consensus_safe
        finally:
            deployment.close()


class TestCustomBackendObject:
    def test_a_backend_instance_is_usable_directly(self):
        class CountingSim(SimBackend):
            name = "counting-sim"
            built = 0

            def build_kernel(self):
                type(self).built += 1
                return super().build_kernel()

        backend = CountingSim()
        assert isinstance(backend, Backend)
        deployment = Deployment(_config(), backend=backend)
        assert deployment.backend is backend
        assert CountingSim.built == 1
