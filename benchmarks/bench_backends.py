"""GC-vs-HE backend benchmark: the committed comparison artifact.

Runs the same fixed-point MAC workloads through both private-MAC
backends behind :func:`repro.privatemac.open_session` — the garbled
MAXelerator datapath (``gc``) and the BFV-style encrypted MAC
(``he``) — and writes the measured costs to ``BENCH_backends.json`` at
the repository root.  The numbers answer the paper's related-work
question in code: *for a given workload, which protocol is cheaper,
and on which axis?*  GC pays bytes and round trips per MAC round; HE
pays one ciphertext each way regardless of the matrix height.

Both backends must decode identical results (asserted against the
quantised plaintext oracle on every query — a benchmark that measures
a wrong answer is worse than no benchmark).

The artifact's *shape* is enforced by
``tests/perf/test_bench_artifacts.py`` and kept fresh by the CI
``bench-smoke`` job (``--check`` validates the committed file
structurally against a tiny in-memory run — timings are machine-local
and deliberately not compared).

Usage:
    python benchmarks/bench_backends.py            # full run, write artifact
    python benchmarks/bench_backends.py --smoke    # tiny sizes, write artifact
    python benchmarks/bench_backends.py --check    # validate committed artifact
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
from repro.perf.provenance import git_rev  # noqa: E402
from repro.privatemac import BACKENDS, open_session  # noqa: E402

SCHEMA_VERSION = 1
ARTIFACT_NAME = "BENCH_backends.json"
DEFAULT_PATH = REPO_ROOT / ARTIFACT_NAME

#: metric keys every workload x backend entry must carry
METRIC_KEYS = (
    "bytes_per_query",
    "round_trips_per_query",
    "mean_latency_ms",
    "macs_per_s",
)
DERIVED_KEYS = (
    "mean_bytes_ratio_gc_over_he",
    "mean_latency_ratio_gc_over_he",
    "he_round_trips_per_query",
)
CONFIG_KEYS = (
    "bitwidth",
    "queries",
    "workloads",
    "smoke",
)

#: named workload shapes (rows x cols), sized like the paper's serving
#: examples: a ridge-regression coefficient bundle, a small
#: recommender scoring block, a portfolio exposure vector
WORKLOADS = {
    "ridge": (3, 4),
    "recommender": (4, 6),
    "portfolio": (2, 8),
}
SMOKE_WORKLOADS = {"ridge": (2, 2)}


def _grid(rng, shape):
    """Random values snapped to the Q8.4 grid (bit-exact vs plaintext)."""
    return np.round(rng.uniform(-1.5, 1.5, size=shape) * 16.0) / 16.0


def bench_backend(backend: str, rows: int, cols: int, args) -> dict:
    """Measured cost of ``queries`` matvec queries on one backend."""
    assert backend in BACKENDS
    rng = np.random.default_rng(args.seed)
    matrix = _grid(rng, (rows, cols))
    latencies_ms = []
    with open_session(matrix, Q8_4, backend, seed=args.seed) as sess:
        for _ in range(args.queries):
            x = _grid(rng, cols)
            t0 = time.perf_counter()
            result = sess.query_matvec(x)
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            oracle = [sess.expected_row(r, x) for r in range(rows)]
            if list(result) != oracle:
                raise AssertionError(
                    f"{backend} backend diverged from the plaintext oracle "
                    f"on {rows}x{cols}: {list(result)} != {oracle}"
                )
        acct = sess.accounting
    total_s = sum(latencies_ms) / 1e3
    return {
        "bytes_per_query": acct.bytes_total / args.queries,
        "round_trips_per_query": acct.round_trips / args.queries,
        "mean_latency_ms": statistics.mean(latencies_ms),
        "macs_per_s": acct.macs / max(1e-12, total_s),
    }


def run_bench(args) -> dict:
    workloads = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    metrics = {
        name: {
            backend: bench_backend(backend, rows, cols, args)
            for backend in BACKENDS
        }
        for name, (rows, cols) in workloads.items()
    }
    bytes_ratios = [
        m["gc"]["bytes_per_query"] / max(1e-12, m["he"]["bytes_per_query"])
        for m in metrics.values()
    ]
    latency_ratios = [
        m["gc"]["mean_latency_ms"] / max(1e-12, m["he"]["mean_latency_ms"])
        for m in metrics.values()
    ]
    he_round_trips = [m["he"]["round_trips_per_query"] for m in metrics.values()]
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": ARTIFACT_NAME,
        "generated_by": "benchmarks/bench_backends.py",
        "git_rev": git_rev(REPO_ROOT),
        "seed": args.seed,
        "config": {
            "bitwidth": Q8_4.total_bits,
            "queries": args.queries,
            "workloads": {name: list(shape) for name, shape in workloads.items()},
            "smoke": bool(args.smoke),
        },
        "metrics": metrics,
        "derived": {
            "mean_bytes_ratio_gc_over_he": statistics.mean(bytes_ratios),
            "mean_latency_ratio_gc_over_he": statistics.mean(latency_ratios),
            "he_round_trips_per_query": statistics.mean(he_round_trips),
        },
    }


# ----------------------------------------------------------------------
# structural validation (shared with tests/perf/test_bench_artifacts.py)
# ----------------------------------------------------------------------
def structural_errors(doc: dict) -> list[str]:
    """Why ``doc`` is not a valid BENCH_backends artifact (empty = valid)."""
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
    if not isinstance(metrics, dict) or not metrics:
        errors.append("metrics must be a non-empty object")
    else:
        for workload, entry in metrics.items():
            if not isinstance(entry, dict):
                errors.append(f"metrics.{workload} must be an object")
                continue
            for backend in BACKENDS:
                be = entry.get(backend)
                if not isinstance(be, dict):
                    errors.append(f"metrics.{workload}.{backend} must be an object")
                    continue
                for key in METRIC_KEYS:
                    value = be.get(key)
                    if not isinstance(value, (int, float)) or value < 0:
                        errors.append(
                            f"metrics.{workload}.{backend}.{key} must be a "
                            "non-negative number"
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

    Structural only — timings are machine-local.  The committed file
    must parse, pass :func:`structural_errors`, and carry the same
    per-backend metric keys a fresh run produces.  The committed
    workload *set* may be the full one while CI checks against a smoke
    run, so only backend/metric/config/derived keys are compared.
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
    fresh_entry = next(iter(fresh["metrics"].values()))
    for workload, entry in committed["metrics"].items():
        if set(entry.keys()) != set(fresh_entry.keys()):
            errors.append(
                f"metrics.{workload} backends differ from the bench's "
                f"({sorted(entry)} vs {sorted(fresh_entry)}) — stale"
            )
            continue
        for backend in fresh_entry:
            if set(entry[backend]) != set(fresh_entry[backend]):
                errors.append(
                    f"metrics.{workload}.{backend} keys differ from the "
                    "bench's — stale"
                )
    for section in ("config", "derived"):
        if set(committed[section].keys()) != set(fresh[section].keys()):
            errors.append(f"{section} keys differ from the bench's — stale")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--queries", type=int, default=None,
                        help="matvec queries per workload per backend")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (one 2x2 workload, 1 query)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed artifact instead of writing it")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    if args.check and not args.smoke:
        args.smoke = True  # checking only needs the bench's *shape*
    args.queries = args.queries if args.queries is not None else (1 if args.smoke else 3)

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
    print(f"wrote {args.out}")
    for workload, entry in doc["metrics"].items():
        for backend in BACKENDS:
            m = entry[backend]
            print(
                f"  {workload:>12s}/{backend}: "
                f"{m['bytes_per_query']:>10.0f} B/query  "
                f"{m['round_trips_per_query']:>5.1f} round trips  "
                f"{m['mean_latency_ms']:>8.1f} ms  "
                f"{m['macs_per_s']:>8.1f} MACs/s"
            )
    d = doc["derived"]
    print(
        f"  GC moves {d['mean_bytes_ratio_gc_over_he']:.1f}x the bytes of HE; "
        f"GC latency {d['mean_latency_ratio_gc_over_he']:.1f}x HE's; "
        f"HE at {d['he_round_trips_per_query']:.1f} round trip(s)/query"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
