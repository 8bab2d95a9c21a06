"""Crash/disconnect recovery for the GC serving path.

MAXelerator's sequential GC makes one dot product a long-lived stateful
stream: accumulator labels carry across M garbled rounds, so a dropped
connection at round k used to throw away all k rounds of garbling.
This package closes that loop:

* :mod:`repro.recover.store` — session checkpoint stores (in-memory +
  JSONL-on-disk) with TTL eviction;
* :mod:`repro.recover.checkpoint` — the per-round resumable snapshot a
  gateway writes at round boundaries (round index, remaining streaming
  material, output map) and the evaluator-side progress recorder
  (completed rounds + carried accumulator labels);
* :mod:`repro.recover.endpoint` — resumable endpoints: the client side
  reconnects with capped exponential backoff and replays unacked
  frames; the server side parks on a broken wire and waits for the
  gateway to rebind a fresh socket to the live session.
"""

from repro.recover.checkpoint import (
    CheckpointStreamer,
    EvaluatorProgress,
    RoundMaterial,
    SessionCheckpoint,
    checkpoint_from_stream,
    serve_from_checkpoint,
)
from repro.recover.endpoint import (
    BackoffPolicy,
    RebindableEndpoint,
    ResumableClientEndpoint,
)
from repro.recover.store import (
    DEFAULT_LEASE_TTL_S,
    InMemorySessionStore,
    JsonlSessionStore,
    LeaseRecord,
    SessionStore,
    decode_record_line,
    encode_record_v2,
)

__all__ = [
    "BackoffPolicy",
    "CheckpointStreamer",
    "DEFAULT_LEASE_TTL_S",
    "EvaluatorProgress",
    "InMemorySessionStore",
    "JsonlSessionStore",
    "LeaseRecord",
    "RebindableEndpoint",
    "ResumableClientEndpoint",
    "RoundMaterial",
    "SessionCheckpoint",
    "SessionStore",
    "checkpoint_from_stream",
    "decode_record_line",
    "encode_record_v2",
    "serve_from_checkpoint",
]
