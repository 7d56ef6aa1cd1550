"""Simulation-as-a-service: sessions over newline-delimited JSON on TCP.

The serving layer over the deterministic engine stack: many concurrent
simulation sessions multiplexed on one asyncio loop, each advancing in
bounded quanta, observable over versioned NDJSON frames, and resumable
from the text of a ``snapshot`` reply on any server without a client
being able to tell. See :mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.session` for the determinism argument, and
:mod:`repro.serve.server` for the session table and dispatch.
"""

from .client import ServeClient, ServeError
from .loadtest import LoadTestSpec, run_loadtest
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import SimServer
from .session import (
    BACKPRESSURE_MODES,
    OutboundChannel,
    Session,
    SessionConfig,
    SessionError,
    Subscriber,
    TraceStreamBuffer,
)

__all__ = [
    "BACKPRESSURE_MODES",
    "LoadTestSpec",
    "OutboundChannel",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "Session",
    "SessionConfig",
    "SessionError",
    "SimServer",
    "Subscriber",
    "TraceStreamBuffer",
    "run_loadtest",
]
