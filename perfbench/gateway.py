"""The benchmark's gateway process: one real ``GCGateway`` on loopback.

Started by ``run.py`` as ``python3 perfbench/gateway.py '<spec json>'``.
It builds the serving stack through the public API only —
``CloudServer``, ``ServingConfig``, ``GCGateway`` — with every knob the
spec does not name left at its default, prints ``{"port": N}`` once it
listens, then answers commands read one per line from stdin, each with
one JSON line on stdout:

``stats``  CPU seconds and peak RSS of this process, the server's
           serving counters and the session log's record count.
``reset``  start of the timed window: zero the call counts.
``trace``  writes the spans recorded so far to the spec's ``trace_out``
           and answers with the call counts and queue waits since ``reset``.
``quit``   stop the gateway and exit (end of stdin does the same).

Spec keys: ``model`` (matrix on the Q8.4 grid), ``seed``, ``pool_size``
(null keeps the default), ``store_dir`` (null keeps the default
in-memory session store; a directory holds a fsync'd JSONL store),
``core`` (CPU to pin to, or null) and ``trace`` / ``trace_out``.
"""

from __future__ import annotations

import json
import os
import sys

SPEC = json.loads(sys.argv[1])
if SPEC.get("core") is not None:
    # pin before the imports so the whole process lives on its core
    os.sched_setaffinity(0, {SPEC["core"]})

import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.fixedpoint import Q8_4  # noqa: E402
from repro.host import CloudServer  # noqa: E402
from repro.net import GCGateway  # noqa: E402
from repro.recover.store import JsonlSessionStore  # noqa: E402
from repro.serve import ServingConfig  # noqa: E402

import spans  # noqa: E402


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_kb() -> int:
    """Peak resident set less the file-backed pages now resident.

    Mapped files (shared libraries, NumPy's extension modules) are
    about 35 MB of the gateway's resident set, and how much of them is
    resident follows the machine's page cache rather than the program.
    File-backed pages are rarely dropped once mapped, so the current
    count stands for their share of the peak.
    """
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value
    return int(fields["VmHWM"].split()[0]) - int(fields["RssFile"].split()[0])


def count_records(path) -> int:
    """Complete (newline-terminated) records in the session log."""
    if path is None or not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def main() -> None:
    tracer = None
    if SPEC.get("trace"):
        tracer = spans.Tracer("gateway")
        spans.install_gateway(tracer)
    server_kwargs = {"fmt": Q8_4, "seed": SPEC["seed"]}
    if SPEC.get("pool_size") is not None:
        server_kwargs["pool_size"] = SPEC["pool_size"]
    server = CloudServer(SPEC["model"], **server_kwargs)
    store = store_path = None
    if SPEC.get("store_dir"):
        store_path = os.path.join(SPEC["store_dir"], "sessions.jsonl")
        store = JsonlSessionStore(store_path)
    gateway = GCGateway(server, config=ServingConfig(), store=store)
    gateway.start()
    reply({"port": gateway.address[1]})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                usage = resource.getrusage(resource.RUSAGE_SELF)
                stats = server.stats
                reply({
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "peak_rss_kb": peak_rss_kb(),
                    "requests_served": stats.requests_served,
                    "runs_garbled": stats.runs_garbled,
                    "pool_misses": stats.pool_misses,
                    "store_records": count_records(store_path),
                })
            elif command == "reset" and tracer is not None:
                tracer.reset()
                reply({"ok": True})
            elif command == "trace" and tracer is not None:
                tracer.write(SPEC["trace_out"])
                reply({
                    "counts": dict(tracer.counts()),
                    "queue_waits_s": list(tracer.queue_waits),
                })
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        gateway.stop()
        if store is not None:
            store.close()


if __name__ == "__main__":
    main()
