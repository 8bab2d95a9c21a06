"""Garbling benchmark: the committed perf-trajectory artifact.

Measures the two garblers of the same MAC circuit — ``sequential``, the
paper's gate-at-a-time FSM model (:meth:`MAXelerator.garble`), and
``vectorized``, the run plan that serves every query
(:meth:`MAXelerator.garble_vectorized`: one AES call per stage across
gates, rounds and sessions) — and writes the results to
``BENCH_garble.json`` at the repository root.  Both serve through the
same :class:`CloudServer`: the FSM's runs are pooled into it just
before each query, so its serve latency includes the FSM garbling the
way the run plan's includes an on-demand garbling.  The artifact is
committed so the perf trajectory is visible across PRs; its *shape* is
enforced by ``tests/perf/test_bench_artifacts.py`` and kept fresh by
the CI ``bench-smoke`` job (``--check`` validates the committed file
structurally against a tiny in-memory run — timings are machine-local
and deliberately not compared).

Usage:
    python benchmarks/bench_vector_garble.py            # full run, write artifact
    python benchmarks/bench_vector_garble.py --smoke    # tiny sizes, write artifact
    python benchmarks/bench_vector_garble.py --check    # validate committed artifact
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.fixedpoint import Q8_4  # noqa: E402
from repro.gc.stage_plan import stage_plan_for  # noqa: E402
from repro.host import AnalyticsClient, CloudServer  # noqa: E402
from repro.perf.provenance import git_rev  # noqa: E402
from repro.telemetry import MetricsRegistry  # noqa: E402

SCHEMA_VERSION = 1
ARTIFACT_NAME = "BENCH_garble.json"
DEFAULT_PATH = REPO_ROOT / ARTIFACT_NAME

#: ``sequential`` = the FSM paper model, ``vectorized`` = the run plan
MODES = ("sequential", "vectorized")

#: metric keys every mode entry must carry (unit in the name)
METRIC_KEYS = (
    "tables_per_s",
    "macs_per_s",
    "p99_serve_latency_ms",
    "aes_invocations_per_gate",
)
DERIVED_KEYS = (
    "speedup_tables_per_s",
    "mean_and_gates_per_stage",
    "effective_batch_per_aes_call",
)
CONFIG_KEYS = (
    "bitwidth",
    "rounds",
    "runs",
    "serve_queries",
    "smoke",
)


def _make_server(seed: int, rounds: int) -> CloudServer:
    # pool_size=0 + no auto refill puts garbling in the serve path, so
    # the p99 latency below includes the garble cost of each mode
    model = np.round(
        np.linspace(-1.5, 1.5, rounds).reshape(1, rounds) * 16.0
    ) / 16.0
    return CloudServer(model, Q8_4, pool_size=0, seed=seed, auto_refill=False)


def bench_mode(mode: str, args) -> dict:
    """Throughput + latency for one garbler."""
    assert mode in MODES
    server = _make_server(args.seed, args.rounds)
    accelerator = server.accelerator
    telemetry = MetricsRegistry()

    # --- garbling throughput ------------------------------------------
    t0 = time.perf_counter()
    if mode == "vectorized":
        runs = accelerator.garble_vectorized(
            args.rounds, args.runs, telemetry=telemetry
        )
    else:
        runs = [accelerator.garble(args.rounds) for _ in range(args.runs)]
    elapsed = time.perf_counter() - t0
    total_tables = sum(r.total_tables for r in runs)
    total_and_gates = total_tables  # one table per AND gate (half gates)
    if mode == "vectorized":
        aes_invocations = telemetry.counter("gc.aes_batch_calls").value
    else:
        # the FSM engine issues 4 scalar fixed-key AES calls per table
        aes_invocations = 4 * total_tables

    # --- end-to-end serve latency -------------------------------------
    client = AnalyticsClient(server)
    x = [round(v * 16) / 16 for v in np.linspace(-1.0, 1.0, args.rounds)]
    latencies_ms = []
    for _ in range(args.serve_queries):
        t0 = time.perf_counter()
        if mode == "sequential":
            # the FSM's run, served from the pool
            server._pool.append(accelerator.garble(args.rounds))
        client.query_row(0, x)
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
    latencies_ms.sort()
    p99 = (
        latencies_ms[min(len(latencies_ms) - 1, int(0.99 * len(latencies_ms)))]
        if latencies_ms
        else 0.0
    )

    return {
        "tables_per_s": total_tables / elapsed,
        "macs_per_s": (args.runs * args.rounds) / elapsed,
        "p99_serve_latency_ms": p99,
        "aes_invocations_per_gate": aes_invocations / max(1, total_and_gates),
        "_elapsed_s": elapsed,
        "_total_tables": total_tables,
        "_serve_latencies_ms": latencies_ms,
    }


def run_bench(args) -> dict:
    results = {}
    for mode in MODES:
        results[mode] = bench_mode(mode, args)

    server = _make_server(args.seed, args.rounds)
    plan = stage_plan_for(server.accelerator.circuit.netlist)
    and_counts = plan.and_counts
    mean_per_stage = statistics.mean(and_counts) if and_counts else 0.0
    vec = results["vectorized"]
    seq = results["sequential"]
    # gates hashed per vectorised AES invocation (4 hashes per gate)
    vec_total_gates = vec["_total_tables"]
    vec_invocations = vec["aes_invocations_per_gate"] * max(1, vec_total_gates)
    effective_batch = vec_total_gates / max(1.0, vec_invocations)

    metrics = {
        mode: {k: results[mode][k] for k in METRIC_KEYS} for mode in MODES
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": ARTIFACT_NAME,
        "generated_by": "benchmarks/bench_vector_garble.py",
        "git_rev": git_rev(REPO_ROOT),
        "seed": args.seed,
        "config": {
            "bitwidth": Q8_4.total_bits,
            "rounds": args.rounds,
            "runs": args.runs,
            "serve_queries": args.serve_queries,
            "smoke": bool(args.smoke),
        },
        "metrics": metrics,
        "derived": {
            "speedup_tables_per_s": vec["tables_per_s"] / max(1e-12, seq["tables_per_s"]),
            "mean_and_gates_per_stage": mean_per_stage,
            "effective_batch_per_aes_call": effective_batch,
        },
    }


# ----------------------------------------------------------------------
# structural validation (shared with tests/perf/test_bench_artifacts.py)
# ----------------------------------------------------------------------
def structural_errors(doc: dict) -> list[str]:
    """Why ``doc`` is not a valid BENCH_garble artifact (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["artifact root must be a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    if doc.get("artifact") != ARTIFACT_NAME:
        errors.append(f"artifact must be {ARTIFACT_NAME!r}")
    for key in ("generated_by", "git_rev"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errors.append(f"{key} must be a non-empty string")
    if not isinstance(doc.get("seed"), int):
        errors.append("seed must be an integer")
    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append("config must be an object")
    else:
        for key in CONFIG_KEYS:
            if key not in config:
                errors.append(f"config is missing {key!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics must be an object")
    else:
        for mode in MODES:
            entry = metrics.get(mode)
            if not isinstance(entry, dict):
                errors.append(f"metrics.{mode} must be an object")
                continue
            for key in METRIC_KEYS:
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"metrics.{mode}.{key} must be a non-negative number"
                    )
    derived = doc.get("derived")
    if not isinstance(derived, dict):
        errors.append("derived must be an object")
    else:
        for key in DERIVED_KEYS:
            value = derived.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"derived.{key} must be a non-negative number")
    return errors


def check_artifact(path: Path, fresh: dict) -> list[str]:
    """Staleness/malformation report for the committed artifact.

    Timings are machine-local, so staleness is *structural*: the
    committed file must parse, pass :func:`structural_errors`, and
    carry exactly the schema/metric/config/derived keys a fresh run
    produces.  A PR that changes the bench's shape without regenerating
    the artifact fails here.
    """
    if not path.exists():
        return [f"{path} does not exist — run the bench to generate it"]
    try:
        committed = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{path} is not valid JSON: {exc}"]
    errors = [f"committed: {e}" for e in structural_errors(committed)]
    errors += [f"fresh run: {e}" for e in structural_errors(fresh)]
    if errors:
        return errors
    if set(committed["metrics"].keys()) != set(fresh["metrics"].keys()):
        errors.append(
            "committed artifact's garble modes differ from the bench's "
            f"({sorted(committed['metrics'])} vs {sorted(fresh['metrics'])}) — stale"
        )
    for mode in fresh["metrics"]:
        if mode in committed["metrics"] and set(
            committed["metrics"][mode]
        ) != set(fresh["metrics"][mode]):
            errors.append(f"metrics.{mode} keys differ from the bench's — stale")
    for section in ("config", "derived"):
        if set(committed[section].keys()) != set(fresh[section].keys()):
            errors.append(f"{section} keys differ from the bench's — stale")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--rounds", type=int, default=None,
                        help="MAC rounds per run (model columns)")
    parser.add_argument("--runs", type=int, default=None,
                        help="independent garbling runs (the session axis)")
    parser.add_argument("--serve-queries", type=int, default=None,
                        help="end-to-end queries for the p99 latency sample")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (defaults: rounds=2 runs=2 queries=3)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed artifact instead of writing it")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    if args.check and not args.smoke:
        args.smoke = True  # checking only needs the bench's *shape*
    defaults = (2, 2, 3) if args.smoke else (4, 8, 12)
    args.rounds = args.rounds if args.rounds is not None else defaults[0]
    args.runs = args.runs if args.runs is not None else defaults[1]
    args.serve_queries = (
        args.serve_queries if args.serve_queries is not None else defaults[2]
    )

    doc = run_bench(args)
    if args.check:
        errors = check_artifact(args.out, doc)
        if errors:
            print(f"FAIL: {args.out.name} is stale or malformed:")
            for e in errors:
                print(f"  - {e}")
            return 1
        committed = json.loads(args.out.read_text())
        print(
            f"OK: {args.out.name} (schema v{committed['schema_version']}, "
            f"rev {committed['git_rev']}) matches the bench's shape"
        )
        return 0

    errors = structural_errors(doc)
    if errors:
        print("FAIL: generated artifact is malformed (bench bug):")
        for e in errors:
            print(f"  - {e}")
        return 1
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    seq, vec = doc["metrics"]["sequential"], doc["metrics"]["vectorized"]
    print(f"wrote {args.out}")
    print(
        f"  sequential: {seq['tables_per_s']:>12.0f} tables/s  "
        f"{seq['macs_per_s']:>8.1f} MACs/s  p99 {seq['p99_serve_latency_ms']:.1f} ms  "
        f"{seq['aes_invocations_per_gate']:.3f} AES calls/gate"
    )
    print(
        f"  vectorized: {vec['tables_per_s']:>12.0f} tables/s  "
        f"{vec['macs_per_s']:>8.1f} MACs/s  p99 {vec['p99_serve_latency_ms']:.1f} ms  "
        f"{vec['aes_invocations_per_gate']:.3f} AES calls/gate"
    )
    d = doc["derived"]
    print(
        f"  speedup {d['speedup_tables_per_s']:.1f}x, "
        f"{d['mean_and_gates_per_stage']:.1f} AND/stage, "
        f"effective batch {d['effective_batch_per_aes_call']:.1f} gates/AES call"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
