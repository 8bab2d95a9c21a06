"""Multi-tenant ring benchmark: the committed fairness/utilization artifact.

Drives the deterministic :class:`repro.accel.ring.CoreRing` at
saturation in two tenant mixes — ``saturated`` (8 equal tenants on 4
cores, the acceptance configuration) and ``mixed`` (2:1 weight skew
with uneven in-flight budgets) — and measures the cross-tenant garble
station's AES co-batching on the real vector garbler.  Results land in
``BENCH_ring.json`` at the repository root; the artifact is committed
so the fairness trajectory is visible across PRs, its shape is enforced
by ``tests/perf/test_bench_artifacts.py``, and the CI ``bench-smoke``
job keeps it structurally fresh (``--check``).

The simulated-ring numbers are cycle-deterministic (same seed-free
state machine every run); only the co-batch wall-clock side varies by
machine, and the committed acceptance thresholds (utilization >= 0.90,
Jain >= 0.9 at saturation) deliberately bind the deterministic half.

Usage:
    python benchmarks/bench_ring.py            # full run, write artifact
    python benchmarks/bench_ring.py --smoke    # tiny sizes, write artifact
    python benchmarks/bench_ring.py --check    # validate committed artifact
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.accel.ring import CoreRing, RingConfig, TenantSpec  # noqa: E402
from repro.fixedpoint import Q8_4  # noqa: E402
from repro.host import CloudServer  # noqa: E402
from repro.perf.provenance import git_rev  # noqa: E402
from repro.serve import GarbleStation  # noqa: E402
from repro.telemetry import MetricsRegistry  # noqa: E402

SCHEMA_VERSION = 1
ARTIFACT_NAME = "BENCH_ring.json"
DEFAULT_PATH = REPO_ROOT / ARTIFACT_NAME

SCENARIOS = ("saturated", "mixed")

#: metric keys every scenario entry must carry
METRIC_KEYS = (
    "utilization",
    "jain",
    "jain_weighted",
    "completed",
    "shed",
    "credit_stalls",
    "p99_latency_cycles_max",
)
#: per-scenario dict of tenant -> p99 latency in ring cycles
PER_TENANT_KEY = "per_tenant_p99_latency_cycles"
DERIVED_KEYS = (
    "cobatch_runs_per_batch",
    "cobatch_aes_savings",
)
CONFIG_KEYS = (
    "n_tenants",
    "n_cores",
    "service_cycles",
    "credit_cap",
    "refill_period",
    "cycles",
    "cobatch_runs",
    "smoke",
)


def _tenant_mix(scenario: str, n_tenants: int) -> list[TenantSpec]:
    if scenario == "saturated":
        return [
            TenantSpec(f"t{i}", weight=1.0, max_inflight=2, queue_depth=8)
            for i in range(n_tenants)
        ]
    # mixed: the first half carries double weight and a bigger in-flight
    # budget — the weighted Jain index must still read fair
    half = n_tenants // 2
    return [
        TenantSpec(
            f"t{i}",
            weight=2.0 if i < half else 1.0,
            max_inflight=3 if i < half else 2,
            queue_depth=8,
        )
        for i in range(n_tenants)
    ]


def bench_scenario(scenario: str, args) -> dict:
    """Run one tenant mix at saturation for ``args.cycles`` cycles."""
    ring = CoreRing(
        _tenant_mix(scenario, args.n_tenants),
        RingConfig(
            n_cores=args.n_cores,
            service_cycles=args.service_cycles,
            credit_cap=args.credit_cap,
            refill_period=args.refill_period,
        ),
    )

    def saturate():
        for spec in ring.specs:
            while ring.backlog(spec.tenant) < spec.queue_depth:
                if not ring.submit(spec.tenant):
                    break

    saturate()
    for _ in range(args.cycles):
        ring.step()
        saturate()
    ring.check_invariants()
    snap = ring.snapshot()
    per_tenant = {
        t: entry["p99_latency_cycles"] for t, entry in snap["tenants"].items()
    }
    return {
        "utilization": snap["utilization"],
        "jain": snap["jain"],
        "jain_weighted": snap["jain_weighted"],
        "completed": snap["completed"],
        "shed": snap["shed"],
        "credit_stalls": snap["credit_stalls"],
        "p99_latency_cycles_max": max(per_tenant.values()) if per_tenant else 0.0,
        PER_TENANT_KEY: per_tenant,
    }


def bench_cobatch(args) -> dict:
    """AES savings when N tenants co-ride one garble station batch."""
    rounds = 2
    model = np.round(
        np.linspace(-1.5, 1.5, rounds).reshape(1, rounds) * 16.0
    ) / 16.0
    accel = CloudServer(
        model, Q8_4, pool_size=0, seed=2018, auto_refill=False
    ).accelerator

    solo = MetricsRegistry()
    accel.garble_vectorized(rounds, 1, telemetry=solo)
    solo_calls = solo.counter("gc.aes_batch_calls").value

    tm = MetricsRegistry()
    station = GarbleStation(window_s=30.0, max_batch=args.cobatch_runs,
                            telemetry=tm)
    threads = [
        threading.Thread(target=station.take, args=(accel, rounds, "bench-fp"))
        for _ in range(args.cobatch_runs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    batches = tm.counter("station.batches").value
    batched_runs = tm.counter("station.batched_runs").value
    batch_calls = tm.counter("gc.aes_batch_calls").value
    naive_calls = solo_calls * max(1, batched_runs)
    return {
        "cobatch_runs_per_batch": batched_runs / max(1, batches),
        "cobatch_aes_savings": (
            (naive_calls - batch_calls) / naive_calls if naive_calls else 0.0
        ),
    }


def run_bench(args) -> dict:
    metrics = {scenario: bench_scenario(scenario, args) for scenario in SCENARIOS}
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": ARTIFACT_NAME,
        "generated_by": "benchmarks/bench_ring.py",
        "git_rev": git_rev(REPO_ROOT),
        "seed": args.seed,
        "config": {
            "n_tenants": args.n_tenants,
            "n_cores": args.n_cores,
            "service_cycles": args.service_cycles,
            "credit_cap": args.credit_cap,
            "refill_period": args.refill_period,
            "cycles": args.cycles,
            "cobatch_runs": args.cobatch_runs,
            "smoke": bool(args.smoke),
        },
        "metrics": metrics,
        "derived": bench_cobatch(args),
    }


# ----------------------------------------------------------------------
# structural validation (shared with tests/perf/test_bench_artifacts.py)
# ----------------------------------------------------------------------
def structural_errors(doc: dict) -> list[str]:
    """Why ``doc`` is not a valid BENCH_ring artifact (empty = valid)."""
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
        for scenario in SCENARIOS:
            entry = metrics.get(scenario)
            if not isinstance(entry, dict):
                errors.append(f"metrics.{scenario} must be an object")
                continue
            for key in METRIC_KEYS:
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"metrics.{scenario}.{key} must be a non-negative number"
                    )
            per_tenant = entry.get(PER_TENANT_KEY)
            if not isinstance(per_tenant, dict) or not per_tenant:
                errors.append(
                    f"metrics.{scenario}.{PER_TENANT_KEY} must be a "
                    "non-empty object"
                )
            elif not all(
                isinstance(v, (int, float)) and v >= 0
                for v in per_tenant.values()
            ):
                errors.append(
                    f"metrics.{scenario}.{PER_TENANT_KEY} values must be "
                    "non-negative numbers"
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

    Simulated-ring metrics are deterministic but machine-independent
    freshness is still judged *structurally* (same sections, same keys,
    same scenarios) so a smoke run can validate the committed full run.
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
            "committed artifact's scenarios differ from the bench's "
            f"({sorted(committed['metrics'])} vs {sorted(fresh['metrics'])}) — stale"
        )
    for scenario in fresh["metrics"]:
        if scenario in committed["metrics"] and set(
            committed["metrics"][scenario]
        ) != set(fresh["metrics"][scenario]):
            errors.append(
                f"metrics.{scenario} keys differ from the bench's — stale"
            )
    for section in ("config", "derived"):
        if set(committed[section].keys()) != set(fresh[section].keys()):
            errors.append(f"{section} keys differ from the bench's — stale")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--cycles", type=int, default=None,
                        help="saturated simulation length in ring cycles")
    parser.add_argument("--cobatch-runs", type=int, default=None,
                        help="tenants co-riding one garble station batch")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (defaults: cycles=800 cobatch=2)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed artifact instead of writing it")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    if args.check and not args.smoke:
        args.smoke = True  # checking only needs the bench's *shape*
    args.cycles = args.cycles if args.cycles is not None else (
        800 if args.smoke else 20_000
    )
    args.cobatch_runs = args.cobatch_runs if args.cobatch_runs is not None else (
        2 if args.smoke else 4
    )
    # the acceptance configuration: 8 tenants on 4 cores
    args.n_tenants = 8
    args.n_cores = 4
    args.service_cycles = 16
    args.credit_cap = 4
    args.refill_period = 2

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
    for scenario in SCENARIOS:
        m = doc["metrics"][scenario]
        print(
            f"  {scenario:>9}: util {m['utilization']:.4f}  "
            f"jain {m['jain']:.4f}  jain_w {m['jain_weighted']:.4f}  "
            f"{m['completed']} completed  "
            f"p99max {m['p99_latency_cycles_max']:.0f} cyc  "
            f"{m['credit_stalls']} credit stalls"
        )
    d = doc["derived"]
    print(
        f"  cobatch: {d['cobatch_runs_per_batch']:.1f} runs/batch, "
        f"AES savings {d['cobatch_aes_savings']:.1%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
