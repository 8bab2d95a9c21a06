"""Span tracing from outside the program: wrappers around public functions.

The benchmark measures the repository as it is, so tracing never edits
``src/``.  Instead the gateway launcher and the load generator each
install wrappers around the public functions that mark a layer boundary
(``CloudServer.serve_row``, ``MAXelerator.garble``, ``EndpointBase.send``,
``FrameReader.read_frame``, ...).  Each call becomes one span: name,
start, end, parent span and query id.  A span's *self time* is its
duration minus the time its child spans cover, so nested calls
(serve -> OT -> recv) are attributed once.  Hot, tiny calls (scalar AES
blocks, NTT transforms) are counted instead of timed.

Spans are kept in memory and written out as JSON lines at the end of a
run; :func:`summarize` folds them into per-layer totals.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time

_clock = time.perf_counter


class WireTally:
    """Bytes each way on one connection, and the flights sent from this
    side of it (client->server flights when the client owns the tally)."""

    __slots__ = ("sent", "received", "flights", "sending")

    def __init__(self):
        self.sent = 0
        self.received = 0
        self.flights = 0
        self.sending = False

    def snapshot(self) -> tuple[int, int, int]:
        return self.sent, self.received, self.flights


class CountingSocket:
    """A connected socket that tallies what crosses it.

    Counts are taken at the socket, so they include the frame headers,
    tags and integrity trailers.  A *flight* is a run of sends not
    interrupted by a receive: one message burst from this side.
    """

    def __init__(self, sock, tally: WireTally | None = None):
        self._sock = sock
        self.tally = tally if tally is not None else WireTally()

    def sendmsg(self, buffers, *args):
        sent = self._sock.sendmsg(buffers, *args)
        self._sent(sent)
        return sent

    def sendall(self, data, *args):
        self._sock.sendall(data, *args)
        self._sent(len(data))

    def _sent(self, n: int) -> None:
        tally = self.tally
        tally.sent += n
        if not tally.sending:
            tally.sending = True
            tally.flights += 1

    def recv(self, n, *args):
        data = self._sock.recv(n, *args)
        tally = self.tally
        tally.received += len(data)
        tally.sending = False
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self, process: str):
        self.process = process
        #: (span_id, parent_id, query_id, name, t0, t1, self_s)
        self.spans: list[tuple] = []
        #: endpoint id -> time its request was submitted (queue wait)
        self.submitted: dict[int, float] = {}
        self.queue_waits: list[float] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._counters: list[collections.Counter] = []

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _counter(self) -> collections.Counter:
        # one counter per thread: increments never race, reads sum them
        counter = getattr(self._tls, "counter", None)
        if counter is None:
            counter = self._tls.counter = collections.Counter()
            self._counters.append(counter)
        return counter

    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for counter in list(self._counters):
            total.update(dict(counter))
        return total

    def reset(self) -> None:
        """Start of the timed window: zero the counts.  Spans are kept
        (a call in flight must keep its children); callers pick the
        window's spans by start time or query id."""
        self.queue_waits = []
        for counter in list(self._counters):
            counter.clear()

    # -- spans -------------------------------------------------------------
    def _enter(self, query_id):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if parent is not None:
            query_id = parent[2]
        elif query_id is None:
            query_id = f"{self.process}-{sid}"
        # [span id, parent id, query id, time covered by children]
        frame = [sid, parent[0] if parent else None, query_id, 0.0]
        stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name: str, t0: float) -> None:
        t1 = _clock()
        self._stack().pop()
        duration = t1 - t0
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (frame[0], frame[1], frame[2], name, t0, t1, duration - frame[3])
        )

    def root(self, name: str, query_id):
        """Context manager for a root span the caller owns (one query)."""
        return _Root(self, name, query_id)

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``before(args, t0)`` runs first, inside the span's timing, for
        wrappers that also take a measurement (queue wait).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter(None)
            t0 = _clock()
            if before is not None:
                before(args, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, parent, name, t0)

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, key: str, size=None) -> None:
        """Replace ``owner.attr`` with a version that counts its calls
        (and, with ``size(args)``, the work items they carry)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter = tracer._counter()
            counter[key] += 1
            if size is not None:
                counter[key + ".items"] += size(args)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)


    # -- output --------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, qid, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({
                    "process": self.process, "span": sid, "parent": parent,
                    "query": qid, "name": name, "t0": t0, "t1": t1,
                    "self_s": self_s,
                }) + "\n")


def read(path) -> list[tuple]:
    """Spans written by :meth:`Tracer.write`, as the tracer holds them."""
    with open(path, encoding="utf-8") as fh:
        return [
            (s["span"], s["parent"], s["query"], s["name"], s["t0"], s["t1"],
             s["self_s"])
            for s in map(json.loads, fh)
        ]


class _Root:
    __slots__ = ("tracer", "name", "query_id", "frame", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, query_id):
        self.tracer = tracer
        self.name = name
        self.query_id = query_id

    def __enter__(self):
        self.frame, self.parent = self.tracer._enter(self.query_id)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit(self.frame, self.parent, self.name, self.t0)


def summarize(spans, queries=None) -> dict:
    """Per-name totals: ``{name: {"self_s", "wall_s", "calls"}}``.

    ``queries`` restricts the sum to spans of those query ids.
    """
    out: dict[str, dict] = {}
    for _sid, _parent, qid, name, t0, t1, self_s in spans:
        if queries is not None and qid not in queries:
            continue
        entry = out.setdefault(name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["wall_s"] += t1 - t0
        entry["calls"] += 1
    return out


# ---------------------------------------------------------------------------
# Layer boundaries: the same wrappers in both processes, so a layer's name
# means the same code wherever it runs.
# ---------------------------------------------------------------------------

def _install_common(tracer: Tracer) -> None:
    from repro.crypto.aes import AES128
    from repro.crypto.ot import (
        BaseOTReceiver,
        BaseOTSender,
        OTExtensionReceiver,
        OTExtensionSender,
    )
    from repro.gc import channel
    from repro.gc.channel import EndpointBase
    from repro.he.ntt import NegacyclicNTT
    from repro.net import endpoint
    from repro.net.frames import FrameReader

    tracer.count(AES128, "encrypt_block", "aes.scalar")
    tracer.count(AES128, "encrypt_words", "aes.batch",
                 size=lambda args: int(args[1].shape[0]))
    tracer.count(NegacyclicNTT, "forward", "ntt")
    tracer.count(NegacyclicNTT, "inverse", "ntt")
    tracer.count(endpoint, "encode_frame_parts", "frames")
    for cls in (BaseOTSender, OTExtensionSender):
        tracer.wrap(cls, "send", "crypto.ot_send")
    for cls in (BaseOTReceiver, OTExtensionReceiver):
        tracer.wrap(cls, "receive", "crypto.ot_receive")
    tracer.wrap(EndpointBase, "send", "gc.channel_send")
    tracer.wrap(EndpointBase, "recv", "gc.channel_recv_wait")
    tracer.wrap(EndpointBase, "recv_any", "gc.channel_recv_wait")
    # frame codec + integrity trailer; the socket reads inside
    # read_frame are their own spans (see _wrap_socket_io)
    tracer.wrap(endpoint, "encode_frame_parts", "net.frames")
    tracer.wrap(FrameReader, "read_frame", "net.frames")
    tracer.wrap(channel, "message_checksum", "net.frames")


def _wrap_socket_io(tracer: Tracer) -> None:
    """Socket I/O is waiting, not codec work: time it under the channel."""
    tracer.wrap(CountingSocket, "recv", "gc.channel_recv_wait")
    tracer.wrap(CountingSocket, "sendmsg", "gc.channel_send")
    tracer.wrap(CountingSocket, "sendall", "gc.channel_send")


def install_client(tracer: Tracer) -> None:
    """Wrap the evaluator-side layers in the load generator."""
    from repro.gc.sequential_gc import SequentialEvaluator
    from repro.he.mac import HEMacClient
    from repro.net import client

    _install_common(tracer)
    _wrap_socket_io(tracer)
    tracer.wrap(SequentialEvaluator, "run", "gc.evaluate")
    tracer.wrap(HEMacClient, "encrypt_query", "he.encrypt")
    tracer.wrap(HEMacClient, "decrypt_row_result", "he.decrypt")
    tracer.wrap(client, "client_session_handshake", "net.handshake")


def install_gateway(tracer: Tracer) -> None:
    """Wrap the garbler-side layers in the gateway process."""
    from repro.accel.maxelerator import MAXelerator
    from repro.he.mac import HEMacServer
    from repro.host import CloudServer
    from repro.net import gateway
    from repro.net.gateway import GCGateway
    from repro.recover.store import JsonlSessionStore, SessionStore
    from repro.serve.server import ServingServer

    _install_common(tracer)
    _wrap_socket_io(tracer)

    submit = ServingServer.submit_remote

    @functools.wraps(submit)
    def submit_remote(self, *args, **kwargs):
        request = submit(self, *args, **kwargs)
        tracer.submitted[id(request.endpoint)] = _clock()
        return request

    ServingServer.submit_remote = submit_remote

    def queue_wait(args, t0):
        submitted = tracer.submitted.pop(id(args[1]), None)
        if submitted is not None:
            tracer.queue_waits.append(t0 - submitted)

    tracer.wrap(CloudServer, "serve_row", "host.serve", before=queue_wait)
    tracer.wrap(CloudServer, "serve_row_he", "host.serve", before=queue_wait)
    tracer.wrap(MAXelerator, "garble", "accel.garble")
    tracer.wrap(MAXelerator, "garble_vectorized", "accel.garble")
    tracer.wrap(HEMacServer, "answer_query", "he.answer")
    tracer.wrap(gateway, "server_handshake", "net.handshake")
    for cls in (SessionStore, JsonlSessionStore):
        for attr in ("put", "cas_advance", "acquire_lease", "release_lease",
                     "delete", "get", "committed_round"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "recover.store")

    adopt = GCGateway.adopt

    @functools.wraps(adopt)
    def adopt_wrapped(self, sock):
        return adopt(self, CountingSocket(sock))

    GCGateway.adopt = adopt_wrapped
