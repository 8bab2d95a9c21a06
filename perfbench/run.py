"""End-to-end benchmark: a real ``GCGateway`` process driven over loopback TCP.

Usage::

    python3 perfbench/run.py --workload gc-online --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout of it).  The gateway runs
in its own process (``perfbench/gateway.py``); this process is the load
generator, with at most two client threads, each owning one
``RemoteAnalyticsClient`` connection.  Every answer is checked bit-exactly
against the quantised plaintext dot product.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics, from a second gateway whose
layer boundaries are wrapped by ``perfbench/spans.py`` (in both
processes).  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it print the same metrics as a table, plus each workload's
mechanism readout.  Timing metrics are scaled by the machine's speed
during the run, as ``perfbench/probe.py`` measures it; the raw values
are printed too.

No ``garble_mode``, ``ot_mode`` or ``REPRO_*`` setting is passed to the
program (``REPRO_*`` variables are removed from the environment), so a
change of the program's defaults shows up here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    rows: int
    cols: int
    backend: str
    #: client connections, one thread each
    connections: int
    #: open-loop mean arrival rate (one connection); ``None`` runs each
    #: connection as a closed loop
    rate_qps: float | None = None
    #: ``None`` keeps ``CloudServer``'s default pre-garbled pool
    pool_size: int | None = None
    #: a fsync'd ``JsonlSessionStore`` instead of the in-memory default
    durable_store: bool = False


WORKLOADS = {
    # The paper's online path only: OT, table stream, frame codec,
    # socket, client evaluation.  The rate sits well below the gateway's
    # capacity, so background refill keeps the pool full and garbling
    # stays off the critical path.  Gaps between arrivals are jittered,
    # so that no run locks onto one phase of the refiller.
    "gc-online": Workload(4, 4, "gc", connections=1, rate_qps=4.0),
    # Every query garbles on demand (no pool) and commits its rounds to
    # a fsync'd log, with two connections competing for the gateway:
    # garbling, AES, queue wait and store fsync are on the critical path.
    "gc-saturated": Workload(4, 4, "gc", connections=2, pool_size=0,
                             durable_store=True),
    # The BFV path at ring degree 512: a GC change should read as no
    # change here.
    "he-serial": Workload(16, 16, "he", connections=1),
}

#: cold starts per run; setup_s is their median
SETUP_STARTS = 7
#: open-loop gaps are uniform in (1 -/+ this share) of the mean gap
ARRIVAL_JITTER = 0.2
#: discarded load before the timed window
WARMUP_S = 2.0
#: per-message receive timeout on the client; a query that hits it
#: fails, and every failed query is charged it as its latency
RECV_TIMEOUT_S = 30.0
#: distinct (row, x) queries cycled through per run
QUERY_POOL = 256
#: queries per group for the tail percentile: p90 leaves 10 beyond it
TAIL_GROUP = 100

_clock = time.perf_counter


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer: those are counted)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(wl: Workload, seed: int):
    """Model and queries on the Q8.4 grid, with their exact answers.

    Values lie in [-2, 2), so no dot product comes near the accumulator
    width and the plaintext oracle needs no wrap-around.
    """
    import numpy as np

    from repro.fixedpoint import Q8_4

    rng = np.random.default_rng(seed)
    raw_model = rng.integers(-32, 32, size=(wl.rows, wl.cols))
    queries = []
    for _ in range(QUERY_POOL):
        row = int(rng.integers(wl.rows))
        raw_x = rng.integers(-32, 32, size=wl.cols)
        want = Q8_4.decode_product(int(raw_model[row] @ raw_x))
        queries.append((row, (raw_x / Q8_4.scale).tolist(), want))
    return (raw_model / Q8_4.scale).tolist(), queries


# ---------------------------------------------------------------------------
# the gateway process
# ---------------------------------------------------------------------------

class GatewayProcess:
    """``perfbench/gateway.py`` in a subprocess, driven over its stdin."""

    def __init__(self, spec: dict, log_path: Path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gateway.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=str(ROOT),
        )
        self._buf = b""
        try:
            self.port = int(self._read(timeout=120.0)["port"])
        except BaseException:
            self.close()
            raise

    def ask(self, command: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        answer = self._read(timeout)
        if "error" in answer:
            raise BenchError(f"gateway: {answer['error']}")
        return answer

    def _read(self, timeout: float) -> dict:
        deadline = _clock() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - _clock()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("gateway process did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(
                    f"gateway process exited (code {self.proc.poll()}); "
                    f"see {self._log.name}"
                )
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------

class Connection:
    """One ``RemoteAnalyticsClient`` over a tallied loopback socket."""

    def __init__(self, port: int, wl: Workload, seed: int, name: str):
        from repro.net import RemoteAnalyticsClient, SocketEndpoint

        self.tally = spans.WireTally()

        def dial():
            sock = socket.create_connection(("127.0.0.1", port))
            return SocketEndpoint(
                name, spans.CountingSocket(sock, self.tally),
                recv_timeout_s=RECV_TIMEOUT_S,
            )

        self._open = lambda: RemoteAnalyticsClient(
            dial=dial, name=name, recv_timeout_s=RECV_TIMEOUT_S,
            backend=wl.backend, he_seed=seed,
        )
        self.client = self._open()
        self.errors: list[str] = []

    def query(self, index: int, queries, tracer=None) -> dict:
        row, x, want = queries[index % len(queries)]
        sent0, recv0, flights0 = self.tally.snapshot()
        start = _clock()
        try:
            if tracer is None:
                got = self.client.query_row(row, x)
            else:
                with tracer.root("bench.query", index):
                    got = self.client.query_row(row, x)
            ok = got == want
            if not ok:
                self.errors.append(f"query {index}: got {got!r}, want {want!r}")
        except Exception as exc:  # noqa: BLE001 — every failure is counted
            ok = False
            self.errors.append(f"query {index}: {type(exc).__name__}: {exc}")
            self._reopen()
        end = _clock()
        sent1, recv1, flights1 = self.tally.snapshot()
        return {
            "index": index, "start": start, "end": end, "ok": ok,
            "bytes": (sent1 - sent0) + (recv1 - recv0),
            "flights": flights1 - flights0,
        }

    def _reopen(self) -> None:
        try:
            self.client.close()
        except Exception:  # noqa: BLE001 — the old session is already broken
            pass
        try:
            self.client = self._open()
        except Exception as exc:  # noqa: BLE001
            raise BenchError(f"cannot reconnect to the gateway: {exc}") from exc

    def close(self) -> None:
        self.client.close()


# ---------------------------------------------------------------------------
# one gateway lifetime: cold start, warm-up, timed window
# ---------------------------------------------------------------------------

class Session:
    """A gateway process plus the workload's client connections."""

    def __init__(self, name: str, wl: Workload, seed: int, model, queries,
                 cores, trace_out: Path | None = None, tracer=None):
        self.wl = wl
        self.seed = seed
        self.queries = queries
        self.tracer = tracer
        self.store_dir = (
            tempfile.mkdtemp(prefix="store-", dir=OUT) if wl.durable_store else None
        )
        spec = {
            "model": model, "seed": seed, "pool_size": wl.pool_size,
            "store_dir": self.store_dir,
            "core": cores[0] if cores else None,
            "trace": trace_out is not None,
            "trace_out": str(trace_out) if trace_out else None,
        }
        self.connections: list[Connection] = []
        #: every failed query of this gateway's lifetime, warm-up included
        self.errors: list[str] = []
        self.gateway = None
        self.spawned_at = _clock()
        try:
            self.gateway = GatewayProcess(spec, OUT / f"gateway-{name}.log")
            first = Connection(self.gateway.port, wl, seed, "bench-0")
            self.connections.append(first)
            first.query(0, queries, tracer)
            self.ready_at = _clock()
            #: spawn -> first answered query
            self.setup_s = self.ready_at - self.spawned_at
            for i in range(1, wl.connections):
                self.connections.append(
                    Connection(self.gateway.port, wl, seed, f"bench-{i}")
                )
        except BaseException:
            self.close()
            raise

    def measure(self, seconds: float, on_window_start=None) -> dict:
        """Warm up, then drive the timed window; returns raw samples."""
        t_begin = _clock()
        w0 = t_begin + WARMUP_S
        w1 = w0 + seconds
        records: list[dict] = []
        lock = threading.Lock()
        failure: list[BaseException] = []
        next_index = itertools.count(1)

        def closed_loop(conn: Connection) -> None:
            while _clock() < w1:
                with lock:
                    index = next(next_index)
                rec = conn.query(index, self.queries, self.tracer)
                rec["due"] = rec["start"]
                with lock:
                    records.append(rec)

        def open_loop(conn: Connection) -> None:
            gaps = random.Random(self.seed)
            mean_gap = 1.0 / self.wl.rate_qps
            due = t_begin
            for i in itertools.count():
                if due >= w1:
                    return
                delay = due - _clock()
                if delay > 0:
                    time.sleep(delay)
                rec = conn.query(i + 1, self.queries, self.tracer)
                rec["due"] = due
                records.append(rec)
                due += mean_gap * gaps.uniform(1 - ARRIVAL_JITTER, 1 + ARRIVAL_JITTER)

        def guard(fn, conn):
            try:
                fn(conn)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                failure.append(exc)

        loop = open_loop if self.wl.rate_qps else closed_loop
        threads = [
            threading.Thread(target=guard, args=(loop, c), daemon=True)
            for c in self.connections
        ]
        for t in threads:
            t.start()
        _sleep_until(w0)
        gw0 = self.gateway.ask("stats")
        cpu0 = _own_cpu_s()
        if on_window_start is not None:
            on_window_start()
        _sleep_until(w1)
        gw1 = self.gateway.ask("stats")
        cpu1 = _own_cpu_s()
        for t in threads:
            t.join(timeout=2 * RECV_TIMEOUT_S + 30.0)
            if t.is_alive():
                raise BenchError("a client thread did not finish")
        if failure:
            raise failure[0]
        window = [r for r in records if w0 <= r["due"] < w1]
        if not window:
            raise BenchError("no query was attempted in the timed window")
        return {
            "window": window, "w0": w0, "w1": w1, "gw0": gw0, "gw1": gw1,
            "client_cpu_s": cpu1 - cpu0,
        }

    def close(self) -> None:
        for conn in self.connections:
            self.errors += conn.errors
            try:
                conn.close()
            except Exception:  # noqa: BLE001 — tearing down regardless
                pass
        self.connections = []
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


def _sleep_until(t: float) -> None:
    delay = t - _clock()
    if delay > 0:
        time.sleep(delay)


def _own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies_s(records) -> list[float]:
    return [
        (r["end"] - r["due"]) if r["ok"] else RECV_TIMEOUT_S
        for r in records
    ]


def tail_p90(records) -> float:
    """p90 per group of ``TAIL_GROUP`` consecutive queries, median over
    the groups: a slow spell of the machine moves one group's tail,
    not the reported one."""
    ordered = sorted(records, key=lambda r: r["due"])
    groups = max(1, len(ordered) // TAIL_GROUP)
    size = len(ordered) / groups
    return statistics.median(
        percentile(latencies_s(ordered[round(i * size):round((i + 1) * size)]), 0.90)
        for i in range(groups)
    )


def end_to_end(sample: dict, setup_samples: list[float]) -> dict:
    """The end-to-end metrics as measured, before speed scaling."""
    window = sample["window"]
    n = len(window)
    served = sample["gw1"]["requests_served"] - sample["gw0"]["requests_served"]
    ok = sum(1 for r in window if r["ok"])
    # the window runs until the last query attempted in it is answered
    span = max(r["end"] for r in window) - sample["w0"]
    return {
        "setup_s": statistics.median(setup_samples),
        "query_p50_ms": 1e3 * percentile(latencies_s(window), 0.50),
        "query_p90_ms": 1e3 * tail_p90(window),
        "goodput_qps": ok / span,
        "wire_bytes_per_query": sum(r["bytes"] for r in window) / n,
        "round_trips_per_query": sum(r["flights"] for r in window) / n,
        "server_cpu_ms_per_query":
            1e3 * (sample["gw1"]["cpu_s"] - sample["gw0"]["cpu_s"]) / max(1, served),
        "client_cpu_ms_per_query": 1e3 * sample["client_cpu_s"] / max(1, served),
        "gateway_peak_rss_mb": sample["gw1"]["peak_rss_kb"] / 1024.0,
    }


def scale_to_reference(raw: dict, window_f: dict, wl: Workload) -> dict:
    """The window's timings as on the reference machine, from each
    core's speed factor over the window (``setup_s`` is scaled per cold
    start, in ``run_untraced``).

    CPU per query scales with the speed of its own process's core;
    latencies and closed-loop goodput with the geometric mean of both
    cores, since a query runs on both.  An open loop's goodput is its
    schedule, not a speed, and counts are not scaled.
    """
    both = math.sqrt(window_f["gateway"] * window_f["client"])
    scaled = dict(raw)
    for key in ("query_p50_ms", "query_p90_ms"):
        scaled[key] = raw[key] * both
    if wl.rate_qps is None:
        scaled["goodput_qps"] = raw["goodput_qps"] / both
    scaled["server_cpu_ms_per_query"] = (
        raw["server_cpu_ms_per_query"] * window_f["gateway"]
    )
    scaled["client_cpu_ms_per_query"] = (
        raw["client_cpu_ms_per_query"] * window_f["client"]
    )
    return scaled


class SpeedProbes:
    """``perfbench/probe.py`` on the gateway's and the load generator's
    cores (on the one core when there are not two), for a whole run."""

    def __init__(self, cores):
        pins = (
            {"gateway": cores[0], "client": cores[1]} if cores
            else {"gateway": min(os.sched_getaffinity(0))}
        )
        self.procs = {}
        try:
            for side, core in pins.items():
                self.procs[side] = subprocess.Popen(
                    [sys.executable, str(HERE / "probe.py"), str(core)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
                )
            for proc in self.procs.values():
                if proc.stdout.readline().strip() != b"ready":
                    raise BenchError("a speed probe did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> dict:
        """Stops the probes; returns each side's ``(start, cpu_s)`` slices."""
        slices = {}
        try:
            for side, proc in self.procs.items():
                if proc.poll() is None:
                    proc.stdin.write(b"stop\n")
                    proc.stdin.close()
                    slices[side] = json.loads(proc.stdout.read())
                    proc.wait(timeout=30.0)
        finally:
            for proc in self.procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if len(slices) < len(self.procs):
            raise BenchError("a speed probe exited before the end of the run")
        slices.setdefault("client", slices["gateway"])
        return slices


def mechanism(sample: dict, wl: Workload) -> dict:
    """What each workload exists to exercise, read from the server's
    own counters: a run that stopped exercising it shows here."""
    g0, g1 = sample["gw0"], sample["gw1"]
    served = max(1, g1["requests_served"] - g0["requests_served"])
    lag = [r["start"] - r["due"] for r in sample["window"]]
    return {
        "pool_misses": g1["pool_misses"] - g0["pool_misses"],
        "garbles_per_query": (g1["runs_garbled"] - g0["runs_garbled"]) / served,
        "store_records_per_query":
            (g1["store_records"] - g0["store_records"]) / served,
        "send_lag_p90_ms": 1e3 * percentile(lag, 0.90) if wl.rate_qps else 0.0,
        "window_queries": len(sample["window"]),
    }


def per_layer(sample: dict, wl: Workload, client_spans, gateway_spans,
              gateway_trace: dict, client_counts, handshakes_s,
              reference_p50_s: float) -> dict:
    """Per-layer metrics of a traced window, per query in the window.

    Client-side layers are summed over the window's queries only, so
    their self times plus ``bench.unattributed_ms_per_query`` add up to
    ``bench.query_wall_ms_per_query`` exactly.
    """
    window = sample["window"]
    n = len(window)
    ids = {r["index"] for r in window}
    client = spans.summarize(client_spans, queries=ids)
    # the gateway's serve path: spans under a host.serve root, per serve.
    # Root spans elsewhere are the session thread (waiting for the next
    # query, admission) or the background refiller.
    serves = serve_query_ids(gateway_spans)
    n_serves = max(1, len(serves))
    gateway = spans.summarize(gateway_spans, queries=serves)
    gateway_all = spans.summarize(gateway_spans)
    # garbling counts only while it is on a query's critical path (inside
    # a serve); the background refiller's garbling counts only where it
    # overlaps a serve, since it then competes with the serve for the core
    garble = gateway.get("accel.garble", {"wall_s": 0.0, "calls": 0})
    refills = [s for s in gateway_spans if s[3] == "accel.garble" and s[1] is None]
    overlap_s = sum(
        max(0.0, min(serve[5], g[5]) - max(serve[4], g[4]))
        for serve in gateway_spans
        if serve[3] == "host.serve" and serve[1] is None
        for g in refills
    )
    counts = dict(client_counts)
    for key, value in gateway_trace["counts"].items():
        counts[key] = counts.get(key, 0) + value
    g0, g1 = sample["gw0"], sample["gw1"]

    def c_self(name):
        return 1e3 * client.get(name, {}).get("self_s", 0.0) / n

    def g_self(name):
        return 1e3 * gateway.get(name, {}).get("self_s", 0.0) / n_serves

    batch_calls = counts.get("aes.batch", 0)
    lag = [r["start"] - r["due"] for r in window]
    waits = gateway_trace["queue_waits_s"]
    return {
        "host.pool_misses_per_query": (g1["pool_misses"] - g0["pool_misses"]) / n,
        "host.serve_ms_per_query":
            1e3 * gateway.get("host.serve", {}).get("wall_s", 0.0) / n_serves,
        "accel.garble_ms_per_query": 1e3 * garble["wall_s"] / n_serves,
        "accel.garbles_per_query": garble["calls"] / n_serves,
        "accel.offpath_garble_overlap_ms_per_query": 1e3 * overlap_s / n_serves,
        "crypto.aes_scalar_blocks_per_query": counts.get("aes.scalar", 0) / n,
        "crypto.aes_batch_calls_per_query": batch_calls / n,
        "crypto.aes_blocks_per_batch_call":
            counts.get("aes.batch.items", 0) / batch_calls if batch_calls else 0.0,
        "crypto.ot_send_ms_per_query": g_self("crypto.ot_send"),
        "crypto.ot_receive_ms_per_query": c_self("crypto.ot_receive"),
        "gc.evaluate_ms_per_query": c_self("gc.evaluate"),
        "gc.channel_frames_per_query": counts.get("frames", 0) / n,
        "gc.channel_send_ms_per_query": c_self("gc.channel_send"),
        "gc.channel_recv_wait_ms_per_query": c_self("gc.channel_recv_wait"),
        "net.frames_codec_ms_per_query": c_self("net.frames"),
        "serve.queue_wait_ms_p50": 1e3 * statistics.median(waits) if waits else 0.0,
        "recover.store_ms_per_query":
            1e3 * gateway_all.get("recover.store", {}).get("self_s", 0.0) / n,
        "recover.store_appends_per_query":
            (g1["store_records"] - g0["store_records"]) / n,
        "he.encrypt_ms_per_query": c_self("he.encrypt"),
        "he.answer_ms_per_query": g_self("he.answer"),
        "he.decrypt_ms_per_query": c_self("he.decrypt"),
        "he.ntt_calls_per_query": counts.get("ntt", 0) / n,
        "net.handshake_ms": 1e3 * statistics.median(handshakes_s),
        "bench.query_wall_ms_per_query":
            1e3 * client.get("bench.query", {}).get("wall_s", 0.0) / n,
        "bench.unattributed_ms_per_query": c_self("bench.query"),
        "bench.send_lag_p90_ms": 1e3 * percentile(lag, 0.90) if wl.rate_qps else 0.0,
        "bench.trace_overhead_ratio":
            percentile(latencies_s(window), 0.50) / reference_p50_s,
    }


def serve_query_ids(gateway_spans) -> set:
    """Query ids of the serves among ``gateway_spans`` (spans that
    started in the window, so each serve's whole tree is there)."""
    return {s[2] for s in gateway_spans if s[3] == "host.serve" and s[1] is None}


def budget_lines(title: str, layers: dict, n: int) -> list[str]:
    lines = [f"{title} (self time per query, ms):"]
    total = 0.0
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        ms = 1e3 * entry["self_s"] / n
        total += ms
        lines.append(f"  {name:<28} {ms:10.3f}")
    lines.append(f"  {'sum':<28} {total:10.3f}")
    return lines


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------

def run_untraced(name, wl, seed, seconds, model, queries, cores, errors):
    # a speed probe runs on each core from the first cold start to the
    # end of the window
    probes = SpeedProbes(cores)
    starts = []
    try:
        for i in range(SETUP_STARTS):
            session = Session(name, wl, seed, model, queries, cores)
            starts.append((session.setup_s, session.spawned_at, session.ready_at))
            if i == SETUP_STARTS - 1:
                break
            session.close()
            errors += session.errors
        try:
            sample = session.measure(seconds)
        finally:
            session.close()
            errors += session.errors
    finally:
        slices = probes.stop()

    def factors(t0, t1):
        return {side: probe.speed_factor(s, t0, t1) for side, s in slices.items()}

    setups = [setup * math.sqrt(math.prod(factors(t0, t1).values()))
              for setup, t0, t1 in starts]
    window_f = factors(sample["w0"], sample["w1"])
    raw = end_to_end(sample, [setup for setup, _, _ in starts])
    metrics = scale_to_reference(raw, window_f, wl)
    metrics["setup_s"] = statistics.median(setups)
    report = [
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups),
        "window speed factors: "
        + ", ".join(f"{k} {v:.4f}" for k, v in window_f.items()),
        "unscaled: " + json.dumps({k: round(v, 4) for k, v in raw.items()}),
    ]
    return sample, metrics, report


def run_traced(name, wl, seed, seconds, model, queries, cores, errors):
    # untraced reference for the overhead ratio: a shorter window on a
    # gateway without wrappers
    session = Session(name, wl, seed, model, queries, cores)
    try:
        reference = session.measure(max(1.0, seconds / 3))
    finally:
        session.close()
        errors += session.errors
    reference_p50 = percentile(latencies_s(reference["window"]), 0.50)

    tracer = spans.Tracer("client")
    spans.install_client(tracer)
    trace_out = OUT / f"trace-{name}-{seed}-gateway.jsonl"
    session = Session(name, wl, seed, model, queries, cores,
                      trace_out=trace_out, tracer=tracer)
    try:
        handshakes = [s[5] - s[4] for s in tracer.spans if s[3] == "net.handshake"]

        def window_start():
            tracer.reset()
            session.gateway.ask("reset")

        sample = session.measure(seconds, on_window_start=window_start)
        gateway_trace = session.gateway.ask("trace")
    finally:
        session.close()
        errors += session.errors
    client_spans = list(tracer.spans)
    tracer.write(OUT / f"trace-{name}-{seed}-client.jsonl")
    gateway_spans = [s for s in spans.read(trace_out) if s[4] >= sample["w0"]]
    metrics = per_layer(sample, wl, client_spans, gateway_spans, gateway_trace,
                        tracer.counts(), handshakes, reference_p50)
    n = len(sample["window"])
    ids = {r["index"] for r in sample["window"]}
    report = budget_lines("client budget", spans.summarize(client_spans, ids), n)
    report.append(
        f"  query wall time per query      {metrics['bench.query_wall_ms_per_query']:10.3f}"
    )
    serves = serve_query_ids(gateway_spans)
    report += budget_lines(
        "gateway serve budget", spans.summarize(gateway_spans, serves),
        max(1, len(serves)),
    )
    report.append(
        f"  serve wall time per query      {metrics['host.serve_ms_per_query']:10.3f}"
    )
    return sample, metrics, report


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the gateway inherits this environment: it runs on the defaults
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    cores = sorted(os.sched_getaffinity(0))
    if len(cores) >= 2:
        # gateway and load generator on separate cores
        cores = cores[:2]
        os.sched_setaffinity(0, {cores[1]})
    else:
        cores = []

    wl = WORKLOADS[args.workload]
    model, queries = make_inputs(wl, args.seed)
    run = run_traced if args.trace else run_untraced
    errors: list[str] = []
    sample, metrics, report = run(
        args.workload, wl, args.seed, args.seconds, model, queries, cores, errors
    )
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )

    window = sample["window"]
    failed = sum(1 for r in window if not r["ok"])
    for line in report:
        print(line)
    print("mechanism: " + json.dumps(mechanism(sample, wl), sort_keys=True))
    for err in errors[:10]:
        print(f"failure: {err}")
    for key, value in metrics.items():
        print(f"{key:<44} {value:14.4f} {units[key]}")
    print(json.dumps({
        # a wrong answer anywhere in the run, warm-up included, fails it
        "correct": failed == 0 and not errors,
        "attempted": len(window),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
