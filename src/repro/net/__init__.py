"""Network transport: the protocol stack over real TCP sockets.

Every wire below this layer is an in-process
:class:`~repro.protocols.transport.DuplexLink`; this package carries the
same canonical :class:`~repro.protocols.messages.Message` encodings over
an actual asyncio TCP transport, which is the deployment shape the paper
argues for — helper data crossing a network, constant-size per
identification, instead of the O(N) database download of the normal
approach:

* :mod:`repro.net.framing` — the frame format: a 4-byte big-endian
  length prefix in front of one canonical message encoding (whose first
  2 bytes are the type tag the registry dispatches on), with a
  max-frame cap enforced on both read and write.  Async and blocking
  helpers share the exact same layout;
* :mod:`repro.net.server` — :class:`NetworkServer`, an asyncio TCP
  acceptor fronting any ``ServerEndpoint`` (the plain
  :class:`~repro.protocols.server.AuthenticationServer` or the
  concurrent :class:`~repro.service.frontend.ServiceFrontend`).
  Blocking handlers run on a bounded executor, malformed frames answer
  with typed :class:`~repro.protocols.messages.ErrorReply` frames
  instead of killing the accept loop, and per-connection traffic is
  accounted in :class:`~repro.protocols.transport.ChannelStats`;
* :mod:`repro.net.client` — the blocking :class:`NetworkClient` (one
  connection, up to ``window`` requests in flight) plus
  :class:`RemoteEndpoint`, a ``ServerEndpoint`` adapter that lets every
  existing runner, simulator, and bench drive a remote server through
  one socket exactly as it drives an in-process one.  Server-side
  backpressure (``ErrorReply(code="overload")``) surfaces client-side
  as :class:`~repro.exceptions.ServiceOverloadError`, making the
  service layer's admission control end-to-end.

The canonical benchmark (``bench/`` at the repository root) measures
this stack serving over TCP; ``tests/net`` holds its failover, chaos and
overload checks.

Import discipline: **nothing below imports net** — protocols, engine,
and service stay complete without a socket in sight.  Net imports
protocols (messages, transport stats, the endpoint duck type) and is
imported only by the CLI, the benchmark, and tests.
"""

from repro.net.client import NetworkClient, RemoteEndpoint
from repro.net.framing import DEFAULT_MAX_FRAME, frame_buffers, frame_message
from repro.net.server import NetworkServer

__all__ = [
    "DEFAULT_MAX_FRAME",
    "NetworkClient",
    "NetworkServer",
    "RemoteEndpoint",
    "frame_buffers",
    "frame_message",
]
