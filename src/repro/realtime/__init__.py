"""Live execution backend: the BFT protocol stack on a real asyncio loop.

The discrete-event simulator answers "what would this protocol do"; this
package answers "what does it do on real hardware".  The same replica and
client classes run unchanged — they only ever see the
:class:`~repro.kernel.Kernel` and :class:`~repro.net.network.Transport`
interfaces — but here the kernel is a real asyncio event loop
(:class:`AsyncioKernel`), messages travel through asyncio queues with the
configured injected latency (:class:`LiveNetwork`), and every HMAC-SHA256
signature and MAC is computed and paid for in wall-clock time.

There is no separate live deployment class: ``Deployment(config,
backend="live")`` (or ``"live-tcp"``) builds the same deployment on this
kernel, with the same build/run/collect API and the same
:class:`~repro.runtime.deployment.RunResult` row schema, so every analysis
and figure path works on live runs too.  :class:`ReplyVerifier`
HMAC-checks every reply a live client accepts.
"""

from .kernel import AsyncioKernel, LiveEvent
from .deployment import ReplyVerifier
from .network import LiveNetwork

__all__ = [
    "AsyncioKernel",
    "LiveEvent",
    "LiveNetwork",
    "ReplyVerifier",
]
