"""Async network transport + shared-nothing multi-worker control plane.

The network layer over :mod:`repro.service`: an asyncio TCP server
speaking length-framed JSON envelopes (the same protocol-1.0 envelopes
the stdin driver speaks), with pipelined per-connection request streams,
per-tenant backpressure, graceful SIGTERM drain, and an optional
multi-process worker tier routed by the ``ShardedPerformanceDatabase``'s
own ``stable_name_key`` tenant hash — shared-nothing workers, each
journaling its own shards crash-safely.

Run ``python -m repro.netserver`` to serve; drive it with
:class:`AsyncServiceClient` (asyncio) or :class:`NetworkServiceClient`
(``ServiceClient`` over a socket).  Both share the in-process client's
sans-IO core and its one ``SessionHandle``.
"""

from repro.netserver.client import AsyncServiceClient, NetworkServiceClient
from repro.netserver.framing import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MAX_RESPONSE_BYTES,
    FrameBuffer,
    FrameTooLarge,
    encode_frame,
    frame_text,
    read_frame,
)
from repro.netserver.router import RouterServer, WorkerFleet, worker_for_tenant
from repro.netserver.server import NetworkServer, ServerLimits, tenant_of_envelope

__all__ = [
    "AsyncServiceClient",
    "NetworkServiceClient",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "MAX_RESPONSE_BYTES",
    "FrameBuffer",
    "FrameTooLarge",
    "encode_frame",
    "frame_text",
    "read_frame",
    "RouterServer",
    "WorkerFleet",
    "worker_for_tenant",
    "NetworkServer",
    "ServerLimits",
    "tenant_of_envelope",
]
