"""End-to-end integration of the TCP transport and live sharded scenarios.

The TCP backend runs the unchanged protocol stack with every message crossing
a real localhost socket as a versioned binary frame (the canonical wire
codec in :mod:`repro.net.wire`); the live sharded
deployments run multiple consensus groups on one event loop (queue or TCP
transport) driven by cross-shard clients.  Every reply a client accepts is
HMAC-verified, so these tests certify authenticity end to end, not just
liveness.

Real time is involved; the ``timeout`` marks turn event-loop hangs into
prompt failures.
"""

from __future__ import annotations

import pytest

from repro.net.tcp import TcpTransport
from repro.realtime import ReplyVerifier
from repro.runtime.deployment import Deployment
from repro.runtime.experiments import ExperimentScale, build_config
from repro.runtime.spec import DeploymentSpec
from repro.sharding.config import ShardedConfig
from repro.sharding.deployment import ShardedDeployment

_SCALE = ExperimentScale(
    name="tcp-test", f=1, num_clients=6, batch_size=4,
    warmup_batches=1, measured_batches=4, worker_threads=4,
    max_sim_seconds=30.0)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("protocol", ["pbft", "flexi-bft"])
def test_tcp_backend_end_to_end(protocol):
    config = build_config(protocol, _SCALE)
    deployment = DeploymentSpec(config, backend="live-tcp").build()
    try:
        verifier = ReplyVerifier(deployment)
        target = 16
        result = deployment.run_until_target(target_requests=target)
        assert deployment.metrics.completed_count == target
        assert result.consensus_safe and result.rsm_safe
        quorum = deployment.spec.reply_policy.fast_quorum(deployment.n,
                                                          deployment.f)
        assert verifier.verified >= target * quorum
        # Frames really crossed sockets: the transport bound a port and
        # delivered what was sent (minus whatever teardown dropped).
        assert isinstance(deployment.network, TcpTransport)
        assert deployment.network.port is not None
        assert deployment.network.stats.messages_delivered > 0
    finally:
        deployment.close()


@pytest.mark.timeout(60)
def test_tcp_rows_match_live_queue_rows_schema():
    config = build_config("minbft", _SCALE)
    with Deployment(config, backend="live-tcp") as deployment:
        tcp_result = deployment.run_until_target(target_requests=8)
    with Deployment(config, backend="live") as deployment:
        queue_result = deployment.run_until_target(target_requests=8)
    assert set(tcp_result.as_row()) == set(queue_result.as_row())


@pytest.mark.timeout(90)
@pytest.mark.parametrize("backend", ["live", "live-tcp"])
def test_live_sharded_deployment_end_to_end(backend):
    config = build_config("flexi-bft", _SCALE, num_clients=8)
    with ShardedDeployment(ShardedConfig(base=config, num_shards=2),
                           backend=backend) as deployment:
        verifier = ReplyVerifier(deployment)
        target = 16
        result = deployment.run_until_target(target_requests=target)
        assert deployment.metrics.completed_count >= target
        assert result.consensus_safe and result.rsm_safe
        # Both groups served traffic.
        assert all(count > 0 for count in result.per_shard_completed.values())
        assert verifier.verified > 0
        # Groups are transport-isolated: two distinct transport instances
        # (on TCP, two distinct server ports).
        networks = [group.network for group in deployment.groups]
        assert networks[0] is not networks[1]
        if backend == "live-tcp":
            ports = {network.port for network in networks}
            assert None not in ports and len(ports) == 2


@pytest.mark.timeout(90)
def test_live_recovery_scenario_restarts_a_real_replica():
    from repro.perf.scenarios import scenario_live_recovery

    rows = scenario_live_recovery(None)  # fixed sizing ignores the scale
    assert len(rows) == 2
    for row in rows:
        assert row["recovered"], f"{row['protocol']} never completed recovery"
        assert row["consensus_safe"]
        assert row["completed_requests"] > 0
        # State transfer really moved batches from peers to the restarted
        # incarnation over the live transport.
        assert row["transfer_batches"] > 0


@pytest.mark.timeout(60)
def test_forged_reply_fails_a_live_run():
    """The verifier turns a forged reply into a loud run failure."""
    from repro.common.errors import InvalidSignature
    from repro.common.types import RequestId
    from repro.crypto.keystore import KeyStore
    from repro.execution.state_machine import OperationResult
    from repro.protocols.messages import Response, with_signature

    config = build_config("pbft", _SCALE)
    deployment = DeploymentSpec(config, backend="live").build()
    try:
        ReplyVerifier(deployment)
        # The forger claims a replica identity but holds different key
        # material (a different keystore seed), like a byzantine network.
        forger = KeyStore(seed=1234).register(deployment.replica_names[0])
        client = deployment.clients[0]

        def inject_forged():
            forged = Response(
                request_id=RequestId(client=client.name, number=1),
                seq=1, view=0, replica=0,
                result=OperationResult(ok=True),
                result_digest=b"\x00" * 32)
            forged = with_signature(forged, forger.sign(forged.signed_part()))
            deployment.network.send(deployment.replica_names[0],
                                    client.name, forged)

        deployment.sim.schedule(20_000.0, inject_forged)
        with pytest.raises(InvalidSignature):
            deployment.run_until_target(target_requests=200)
    finally:
        deployment.close()
