"""The connection-server tier of the paper's Figure 1 architecture.

"Clients join the virtual world through a connection server that connects
them to a single shard."  This package is that tier, one front door for
the whole fleet:

* :class:`~repro.frontend.gateway.FrontDoor` /
  :class:`~repro.frontend.gateway.GatewayServer` -- least-loaded
  placement, bounded per-shard command queues feeding the shared-memory
  command rings, and an asyncio TCP gateway speaking the length-prefixed
  frames of :mod:`repro.frontend.protocol`;
* :class:`~repro.frontend.client.GatewayClient` /
  :class:`~repro.frontend.client.LoadGenerator` -- latency-measuring TCP
  clients for the front-door benchmark.

Session bookkeeping and admission control live in
:class:`~repro.frontend.sessions.SessionRegistry`, which the front door
owns.
"""

from repro.frontend.client import ClientError, GatewayClient, LoadGenerator
from repro.frontend.gateway import (
    FrontDoor,
    GatewayError,
    GatewayServer,
    ShardPlacement,
)
from repro.frontend.sessions import (
    ClientSession,
    CommandOverflowError,
    SessionError,
    SessionRegistry,
)

__all__ = [
    "ClientError",
    "ClientSession",
    "CommandOverflowError",
    "FrontDoor",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "LoadGenerator",
    "SessionError",
    "SessionRegistry",
    "ShardPlacement",
]
