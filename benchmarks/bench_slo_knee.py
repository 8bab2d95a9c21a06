"""SLO knee benchmark: where adaptive serving stops absorbing load.

Ramps offered query rate against the real
:class:`repro.serve.control.SLOController` driving a deterministic
queueing model of the serving layer (bounded queue, scalable worker
pool, fixed per-query service time), one controller tick per simulated
interval.  At each rate level the loop settles, then the level is
judged *sustainable* iff the controller converged back to zero shed
with p99 at or under the SLO target.  The **knee** — the headline
number — is the highest sustainable rate: below it the controller
absorbs the load by scaling workers and shrinking batches; above it,
admission shedding is the only stable response.

The simulated half is bit-deterministic (the controller is a pure
function of its sample trace and the shed stream is seeded), so the
committed knee is machine-independent and reviewable across PRs.  The
``derived`` section adds a machine-dependent calibration — real p50/p99
service latency through a live :class:`ServingServer` — reported for
context, never bound by thresholds.

Results land in ``BENCH_slo.json`` at the repository root; the shape is
enforced by ``tests/perf/test_bench_artifacts.py`` and kept fresh by
the CI ``bench-smoke`` job (``--check``).

Usage:
    python benchmarks/bench_slo_knee.py            # full run, write artifact
    python benchmarks/bench_slo_knee.py --smoke    # coarse ramp for CI
    python benchmarks/bench_slo_knee.py --check    # validate committed artifact
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.fixedpoint import Q8_4  # noqa: E402
from repro.host import CloudServer  # noqa: E402
from repro.perf.provenance import git_rev  # noqa: E402
from repro.serve import (  # noqa: E402
    LoadSample,
    ServingConfig,
    ServingServer,
    SLOConfig,
    SLOController,
)
from repro.telemetry import MetricsRegistry, percentile_of  # noqa: E402

SCHEMA_VERSION = 1
ARTIFACT_NAME = "BENCH_slo.json"
DEFAULT_PATH = REPO_ROOT / ARTIFACT_NAME

#: per-rate-level metric keys (one ramp entry each)
LEVEL_KEYS = (
    "rate_qps",
    "p99_ms",
    "shed_probability",
    "workers",
    "batch_max",
    "served",
    "shed",
    "sustainable",
)
#: the headline knee entry's keys
KNEE_KEYS = (
    "knee_qps",
    "p99_ms_at_knee",
    "workers_at_knee",
    "first_shed_qps",
)
DERIVED_KEYS = (
    "measured_service_p50_ms",
    "measured_service_p99_ms",
    "capacity_model_qps",
)
CONFIG_KEYS = (
    "p99_target_ms",
    "min_workers",
    "max_workers",
    "queue_depth",
    "service_time_ms",
    "tick_s",
    "ticks_per_level",
    "rate_start_qps",
    "rate_step_qps",
    "rate_stop_qps",
    "calibration_queries",
    "smoke",
)


# ----------------------------------------------------------------------
# the deterministic ramp
# ----------------------------------------------------------------------
class ServeModel:
    """A deterministic bounded-queue model of the serving layer.

    Per tick: admit arrivals through the controller's seeded shed
    stream, queue what fits, serve ``workers / service_time`` queries,
    and report the M/D/c-style latency estimate (queue wait + service)
    the controller would have observed.  Fractional arrivals and
    service capacity accumulate across ticks so rates need not divide
    the tick evenly.
    """

    def __init__(self, controller: SLOController, args):
        self.controller = controller
        self.queue_depth = args.queue_depth
        self.service_s = args.service_time_ms / 1000.0
        self.tick_s = args.tick_s
        self.queue_len = 0
        self.last_p99_ms = 0.0
        self._arrival_acc = 0.0
        self._service_acc = 0.0

    def run_tick(self, rate_qps: float) -> tuple[int, int]:
        """One simulated control interval; returns (served, shed)."""
        op = self.controller.operating_point
        self._arrival_acc += rate_qps * self.tick_s
        arrivals = int(self._arrival_acc)
        self._arrival_acc -= arrivals

        shed = admitted = 0
        for _ in range(arrivals):
            if self.controller.should_shed():
                shed += 1
            elif self.queue_len < self.queue_depth:
                self.queue_len += 1
                admitted += 1
            else:
                shed += 1  # queue overflow sheds like admission does

        # the controller observes the interval's peak depth (what the
        # queue telemetry shows mid-interval), not the post-drain floor
        peak_depth = self.queue_len

        self._service_acc += op.workers * self.tick_s / self.service_s
        service_slots = int(self._service_acc)
        self._service_acc -= service_slots
        served = min(self.queue_len, service_slots)
        self.queue_len -= served

        # the last-admitted query's time in system: the backlog ahead
        # of it at the pool's drain rate, plus one service time
        if served:
            wait_s = peak_depth * self.service_s / op.workers
            p99_ms = (wait_s + self.service_s) * 1000.0
            p50_ms = (wait_s / 2.0 + self.service_s) * 1000.0
        else:
            p99_ms = p50_ms = 0.0  # no completions: latency unknown
        self.last_p99_ms = p99_ms
        self.controller.tick(LoadSample(
            queue_depth=peak_depth,
            queue_capacity=self.queue_depth,
            inflight=min(op.workers, peak_depth),
            workers=op.workers,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
        ))
        return served, shed


def bench_ramp(args) -> dict:
    """Ramp the offered rate; one warm controller across all levels."""
    controller = SLOController(
        SLOConfig(
            p99_target_ms=args.p99_target_ms,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            cooldown_ticks=2,
        ),
        workers=args.min_workers,
        seed=args.seed,
    )
    model = ServeModel(controller, args)
    levels = []
    knee = {
        "knee_qps": 0.0,
        "p99_ms_at_knee": 0.0,
        "workers_at_knee": 0,
        "first_shed_qps": 0.0,
    }
    rate = args.rate_start_qps
    while rate <= args.rate_stop_qps:
        served = shed = 0
        for _ in range(args.ticks_per_level):
            s, d = model.run_tick(rate)
            served += s
            shed += d
        # judge the settled state: a sustainable level ends the window
        # with zero shed and its steady latency inside the SLO
        op = controller.operating_point
        last_p99 = model.last_p99_ms
        sustainable = (
            op.shed_probability == 0.0
            and shed == 0
            and last_p99 <= args.p99_target_ms
        )
        levels.append({
            "rate_qps": rate,
            "p99_ms": round(last_p99, 4),
            "shed_probability": op.shed_probability,
            "workers": op.workers,
            "batch_max": op.batch_max,
            "served": served,
            "shed": shed,
            "sustainable": sustainable,
        })
        if sustainable:
            knee["knee_qps"] = float(rate)
            knee["p99_ms_at_knee"] = round(last_p99, 4)
            knee["workers_at_knee"] = op.workers
        elif shed and not knee["first_shed_qps"]:
            knee["first_shed_qps"] = float(rate)
        rate += args.rate_step_qps
    return {"ramp": levels, "knee": knee}


# ----------------------------------------------------------------------
# the machine-dependent calibration
# ----------------------------------------------------------------------
def bench_calibration(args) -> dict:
    """Real per-query service latency through a live ServingServer —
    context for reading the simulated knee on this machine."""
    model = np.array([[0.5, -0.25, 1.0, 0.75], [1.0, 0.75, -0.5, 0.25]])
    server = CloudServer(
        model, Q8_4, pool_size=0, seed=args.seed, auto_refill=False,
        telemetry=MetricsRegistry(),
    )
    config = ServingConfig(workers=1, queue_depth=4, refill=False)
    latencies = []
    with ServingServer(server, config) as serving:
        x = [0.5, -0.25, 0.75, 0.125]
        serving.query(0, x, timeout=60.0)  # warm the garbling path
        for i in range(args.calibration_queries):
            t0 = time.perf_counter()
            serving.query(i % model.shape[0], x, timeout=60.0)
            latencies.append((time.perf_counter() - t0) * 1000.0)
    p50 = percentile_of(latencies, 50.0)
    p99 = percentile_of(latencies, 99.0)
    return {
        "measured_service_p50_ms": round(p50, 4),
        "measured_service_p99_ms": round(p99, 4),
        # what the model's service-time assumption implies at max scale
        "capacity_model_qps": round(
            args.max_workers * 1000.0 / args.service_time_ms, 4
        ),
    }


def run_bench(args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": ARTIFACT_NAME,
        "generated_by": "benchmarks/bench_slo_knee.py",
        "git_rev": git_rev(REPO_ROOT),
        "seed": args.seed,
        "config": {
            "p99_target_ms": args.p99_target_ms,
            "min_workers": args.min_workers,
            "max_workers": args.max_workers,
            "queue_depth": args.queue_depth,
            "service_time_ms": args.service_time_ms,
            "tick_s": args.tick_s,
            "ticks_per_level": args.ticks_per_level,
            "rate_start_qps": args.rate_start_qps,
            "rate_step_qps": args.rate_step_qps,
            "rate_stop_qps": args.rate_stop_qps,
            "calibration_queries": args.calibration_queries,
            "smoke": bool(args.smoke),
        },
        "metrics": bench_ramp(args),
        "derived": bench_calibration(args),
    }


# ----------------------------------------------------------------------
# structural validation (shared with tests/perf/test_bench_artifacts.py)
# ----------------------------------------------------------------------
def structural_errors(doc: dict) -> list[str]:
    """Why ``doc`` is not a valid BENCH_slo artifact (empty = valid)."""
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
        ramp = metrics.get("ramp")
        if not isinstance(ramp, list) or not ramp:
            errors.append("metrics.ramp must be a non-empty list")
        else:
            for i, entry in enumerate(ramp):
                if not isinstance(entry, dict) or set(entry) != set(LEVEL_KEYS):
                    errors.append(
                        f"metrics.ramp[{i}] must carry exactly {LEVEL_KEYS}"
                    )
                    continue
                for key in LEVEL_KEYS:
                    value = entry[key]
                    if key == "sustainable":
                        if not isinstance(value, bool):
                            errors.append(
                                f"metrics.ramp[{i}].sustainable must be a bool"
                            )
                    elif not isinstance(value, (int, float)) or value < 0:
                        errors.append(
                            f"metrics.ramp[{i}].{key} must be a "
                            "non-negative number"
                        )
        knee = metrics.get("knee")
        if not isinstance(knee, dict) or set(knee) != set(KNEE_KEYS):
            errors.append(f"metrics.knee must carry exactly {KNEE_KEYS}")
        else:
            for key in KNEE_KEYS:
                value = knee[key]
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"metrics.knee.{key} must be a non-negative number")
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

    The ramp's *length* is resolution-dependent (a smoke check ramps
    coarser than the committed full run), so freshness is judged
    structurally: same sections, same keys per entry, same knee shape.
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
    for section in ("config", "derived"):
        if set(committed[section].keys()) != set(fresh[section].keys()):
            errors.append(f"{section} keys differ from the bench's — stale")
    if set(committed["metrics"].keys()) != set(fresh["metrics"].keys()):
        errors.append("metrics sections differ from the bench's — stale")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--ticks-per-level", type=int, default=None,
                        help="controller ticks to settle at each rate level")
    parser.add_argument("--smoke", action="store_true",
                        help="coarse ramp for CI (step 100 qps, 24 ticks/level)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed artifact instead of writing it")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    if args.check and not args.smoke:
        args.smoke = True  # checking only needs the bench's *shape*
    # the controller envelope under test: scale 1..8 workers toward a
    # 50 ms p99 with a 20 ms deterministic service time -> the model
    # caps out at 400 qps of raw capacity
    args.p99_target_ms = 50.0
    args.min_workers = 1
    args.max_workers = 8
    args.queue_depth = 32
    args.service_time_ms = 20.0
    # control interval matched to the service time: arrivals land in
    # service-sized bursts, so queue-wait estimates stay realistic
    # rather than scaling with an arbitrary tick length
    args.tick_s = 0.02
    args.ticks_per_level = args.ticks_per_level if args.ticks_per_level is not None else (
        24 if args.smoke else 80
    )
    args.rate_start_qps = 25.0
    args.rate_step_qps = 100.0 if args.smoke else 25.0
    args.rate_stop_qps = 600.0
    args.calibration_queries = 3 if args.smoke else 20

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
    for entry in doc["metrics"]["ramp"]:
        marker = "ok " if entry["sustainable"] else "HOT"
        print(
            f"  [{marker}] {entry['rate_qps']:6.0f} qps: "
            f"p99 {entry['p99_ms']:7.2f} ms  "
            f"workers {entry['workers']}  batch {entry['batch_max']}  "
            f"shed p={entry['shed_probability']:.3f} ({entry['shed']} shed)"
        )
    knee = doc["metrics"]["knee"]
    derived = doc["derived"]
    print(
        f"  knee: {knee['knee_qps']:.0f} qps at p99 "
        f"{knee['p99_ms_at_knee']:.2f} ms on {knee['workers_at_knee']} workers "
        f"(first shed at {knee['first_shed_qps']:.0f} qps)"
    )
    print(
        f"  calibration: real serve p50 {derived['measured_service_p50_ms']:.1f} ms, "
        f"p99 {derived['measured_service_p99_ms']:.1f} ms on this machine"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
