"""Reply authentication for deployments on any backend.

A live run is ``Deployment(config, backend="live")`` (or ``"live-tcp"``, or
the sharded builder on either): the same build path and run/collect API as
the simulator, with the same :class:`~repro.runtime.deployment.RunResult`
row schema.  What changes semantically on a live backend:

* ``now`` is wall-clock, so throughput/latency rows report *real* numbers —
  including the real cost of HMAC-SHA256 signing and MAC generation, which
  the simulator only models.
* Modeled CPU/device costs (worker service times, trusted-device latencies,
  fsync latencies) are paid as real event-loop delays, so the paper's cost
  structure shapes live runs the same way it shapes simulated ones.
* Runs are not deterministic: the OS scheduler is part of the system now.

:class:`ReplyVerifier` closes the loop on authenticity: wrap a deployment
with it and every ``Response`` a client accepts is HMAC-verified against the
replicas' keys before the client sees it — a forged or corrupted reply fails
the run instead of completing a request.
"""

from __future__ import annotations

from typing import Union

from ..common.errors import InvalidSignature
from ..protocols.messages import Response, signed_part_bytes
from ..runtime.deployment import Deployment
from ..sharding.deployment import ShardedDeployment


class ReplyVerifier:
    """HMAC-verify every ``Response`` the deployment's clients accept.

    Wraps each client's (or, on a sharded deployment, each lane's) network
    entry point: a reply must carry a genuine replica signature that
    verifies against the deployment key store, or the run fails with
    :class:`~repro.common.errors.InvalidSignature` — surfaced through the
    kernel exactly like any other callback error.  ``verified`` counts the
    replies that passed.
    """

    def __init__(self, deployment: Union[Deployment, ShardedDeployment]) -> None:
        self.keystore = deployment.keystore
        self.verified = 0
        if isinstance(deployment, ShardedDeployment):
            self.replica_names = {name for group in deployment.groups
                                  for name in group.replica_names}
            clients = [lane for client in deployment.clients
                       for lane in client.lanes]
        else:
            self.replica_names = set(deployment.replica_names)
            clients = list(deployment.clients)
        for client in clients:
            client.receive = self._wrap(client.receive)

    def _wrap(self, receive):
        def verified_receive(envelope):
            payload = envelope.payload
            if isinstance(payload, Response):
                if payload.signature is None:
                    raise InvalidSignature("client received an unsigned reply")
                if payload.signature.signer not in self.replica_names:
                    raise InvalidSignature(
                        f"reply signed by non-replica "
                        f"{payload.signature.signer!r}")
                # Raises InvalidSignature on a forged or corrupted reply.
                self.keystore.verify_encoded(signed_part_bytes(payload),
                                             payload.signature)
                self.verified += 1
            receive(envelope)
        return verified_receive

