"""Process-fleet benchmark: the committed serving-resilience artifact.

Drives a real :class:`repro.fleet.ProcessFleet` — N gateway subprocesses
sharing one crash-consistent JSONL store — through three scenarios:

* ``steady``       — clean sessions, the sessions/sec baseline;
* ``resume``       — the client's TCP transport is cut once the client
  holds round 1, and the session resumes over the failover dialer (p99
  resume latency);
* ``handoff_kill`` — the serving member takes a real ``SIGKILL`` at the
  same trigger (and the client's wire drops), a peer steals the leaked
  lease and adopts the checkpoint from the shared file (handoff cost
  under kill).

The trigger holds the client's reads at the frame count that ends
round 1, read from the session's checkpoint in the shared store (which
lands before the stream's first frame), so the fault hits the same
point of the stream however far the member streamed ahead.

Results land in ``BENCH_fleet.json`` at the repository root; the
artifact is committed so the resilience trajectory is visible across
PRs, its shape is enforced by ``tests/perf/test_bench_artifacts.py``,
and the CI ``bench-smoke`` job keeps it structurally fresh
(``--check``).  Wall-clock numbers vary by machine; the committed
acceptance thresholds deliberately bind the machine-independent half
(every faulted session recovers, every result bit-exact, N = 4
processes).

Usage:
    python benchmarks/bench_fleet.py            # full run, write artifact
    python benchmarks/bench_fleet.py --smoke    # tiny fleet, write artifact
    python benchmarks/bench_fleet.py --check    # validate committed artifact
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.fleet import ProcessFleet  # noqa: E402
from repro.net import RemoteAnalyticsClient  # noqa: E402
from repro.perf.provenance import git_rev  # noqa: E402
from repro.recover import BackoffPolicy  # noqa: E402
from repro.serve import ServingConfig  # noqa: E402
from repro.testkit.oracle import FrameGate, round_end  # noqa: E402

SCHEMA_VERSION = 1
ARTIFACT_NAME = "BENCH_fleet.json"
DEFAULT_PATH = REPO_ROOT / ARTIFACT_NAME

SCENARIOS = ("steady", "resume", "handoff_kill")

#: metric keys every scenario entry must carry; the fault-to-result pair
#: reads 0.0 in ``steady`` (no fault fires there)
METRIC_KEYS = (
    "sessions",
    "sessions_per_s",
    "p50_session_s",
    "p99_session_s",
    "fault_to_result_p50_s",
    "fault_to_result_p99_s",
    "recovered_fraction",
    "bit_exact_fraction",
)
#: the headline numbers, lifted out of the scenario entries
DERIVED_KEYS = (
    "steady_sessions_per_s",
    "resume_latency_p99_s",
    "handoff_cost_p50_s",
    "handoff_cost_p99_s",
)
CONFIG_KEYS = (
    "members",
    "rows",
    "rounds",
    "sessions_per_scenario",
    "lease_ttl_s",
    "smoke",
)

RECV_TIMEOUT_S = 20.0
FAULT_DEADLINE_S = 60.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


def fleet_config(args) -> ServingConfig:
    return ServingConfig(
        workers=1,
        queue_depth=4,
        refill=False,
        recv_timeout_s=RECV_TIMEOUT_S,
        drain_timeout_s=10.0,
        lease_ttl_s=args.lease_ttl_s,
        resume_batch_window_s=0.01,
        retry_after_s=0.02,
    )


def make_client(fleet: ProcessFleet, start_at: int, seed: int):
    return RemoteAnalyticsClient(
        dial=fleet.dialer(name="bench-fleet", recv_timeout_s=RECV_TIMEOUT_S,
                          start_at=start_at),
        backoff=BackoffPolicy(base_s=0.02, cap_s=0.2, max_attempts=12,
                              seed=seed),
    )


def query_inputs(args, index: int):
    """A deterministic (row, x) per session, snapped to the Q8.4 grid so
    the plaintext reference compares bit-exact."""
    rng = np.random.default_rng(args.seed * 1000 + index)
    x = np.round(rng.uniform(-1.0, 1.0, size=args.rounds) * 16.0) / 16.0
    return index % args.rows, x


def timed_session(fleet, audit, args, index: int, fire=None):
    """One client session; ``fire(victim, client)`` (if given) runs once
    the client holds round 1.  Returns a sample dict: wall seconds,
    fault-to-result seconds, fired, bit_exact."""
    victim = index % fleet.n_members
    row, x = query_inputs(args, index)
    client = make_client(fleet, start_at=victim, seed=args.seed + index)
    sample = {"wall_s": 0.0, "fault_s": 0.0, "fired": False,
              "bit_exact": False, "victim": victim}
    result: dict = {}
    try:
        sid = client.session_id
        if fire is not None:
            # held after net.ack and seq.rounds: the checkpoint is stored
            gate = FrameGate(client.endpoint, client.endpoint.recv_seq + 2)
        t0 = time.perf_counter()

        def query():
            try:
                result["got"] = client.query_row(row, x)
            except BaseException as exc:  # classified below, not swallowed
                result["err"] = exc

        worker = threading.Thread(target=query)
        worker.start()
        t_fault = None
        if fire is not None:
            deadline = time.monotonic() + FAULT_DEADLINE_S
            try:
                if gate.wait(worker, deadline):
                    end = round_end(audit, sid, 1, deadline)
                    if end is not None and gate.hold(end, worker, deadline):
                        t_fault = time.perf_counter()
                        fire(victim, client)
                        sample["fired"] = True
            finally:
                gate.release()
        worker.join(timeout=FAULT_DEADLINE_S)
        if worker.is_alive():
            raise RuntimeError(
                f"session {index} hung after the fault — bench aborted"
            )
        t1 = time.perf_counter()
        if "err" in result:
            raise result["err"]
        sample["wall_s"] = t1 - t0
        sample["fault_s"] = (t1 - t_fault) if t_fault is not None else 0.0
        sample["bit_exact"] = result["got"] == fleet.expected(row, x)
    finally:
        client.close()
    return sample


def summarize(samples: list[dict], faulted: bool) -> dict:
    walls = [s["wall_s"] for s in samples]
    faults = [s["fault_s"] for s in samples if s["fired"]]
    fired = [s for s in samples if s["fired"]]
    recovered = [s for s in fired if s["bit_exact"]]
    return {
        "sessions": len(samples),
        "sessions_per_s": len(samples) / sum(walls) if walls else 0.0,
        "p50_session_s": percentile(walls, 0.50),
        "p99_session_s": percentile(walls, 0.99),
        "fault_to_result_p50_s": percentile(faults, 0.50),
        "fault_to_result_p99_s": percentile(faults, 0.99),
        "recovered_fraction": (
            (len(recovered) / len(fired)) if faulted
            else (sum(s["bit_exact"] for s in samples) / max(1, len(samples)))
        ) if (fired or not faulted) else 0.0,
        "bit_exact_fraction": (
            sum(s["bit_exact"] for s in samples) / max(1, len(samples))
        ),
    }


def bench_scenario(scenario: str, fleet: ProcessFleet, args) -> dict:
    audit = fleet.open_store()
    samples = []
    try:
        for i in range(args.sessions_per_scenario):
            if scenario == "steady":
                samples.append(timed_session(fleet, audit, args, i))
            elif scenario == "resume":
                samples.append(timed_session(
                    fleet, audit, args, i, fire=_cut_transport,
                ))
            else:  # handoff_kill
                sample = timed_session(
                    fleet, audit, args, i,
                    fire=lambda victim, client: _kill_member(fleet, victim, client),
                )
                samples.append(sample)
                # respawn outside the timed window: the handoff cost is
                # the client's, not the supervisor's
                if sample["fired"] and not fleet.alive(sample["victim"]):
                    fleet.respawn(sample["victim"])
    finally:
        audit.close()
    return summarize(samples, faulted=scenario != "steady")


def _kill_member(fleet, victim, client) -> None:
    """The handoff fault: SIGKILL the serving member; the client's wire
    drops with it, frames the member streamed past the trigger too."""
    fleet.kill(victim)
    _cut_transport(victim, client)


def _cut_transport(_victim, client) -> None:
    """The resume fault: sever the client's live TCP transport; the
    failover dialer reconnects and the member resumes from its own
    checkpoint — no lease steal, no handoff."""
    try:
        client.endpoint.transport.close()
    except OSError:
        pass


def run_bench(args) -> dict:
    fleet = ProcessFleet(
        n_members=args.members,
        seed=args.seed,
        rows=args.rows,
        rounds=args.rounds,
        pool_size=0,
        auto_refill=False,
        config=fleet_config(args),
    )
    with fleet:
        metrics = {
            scenario: bench_scenario(scenario, fleet, args)
            for scenario in SCENARIOS
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": ARTIFACT_NAME,
        "generated_by": "benchmarks/bench_fleet.py",
        "git_rev": git_rev(REPO_ROOT),
        "seed": args.seed,
        "config": {
            "members": args.members,
            "rows": args.rows,
            "rounds": args.rounds,
            "sessions_per_scenario": args.sessions_per_scenario,
            "lease_ttl_s": args.lease_ttl_s,
            "smoke": bool(args.smoke),
        },
        "metrics": metrics,
        "derived": {
            "steady_sessions_per_s": metrics["steady"]["sessions_per_s"],
            "resume_latency_p99_s": metrics["resume"]["fault_to_result_p99_s"],
            "handoff_cost_p50_s": (
                metrics["handoff_kill"]["fault_to_result_p50_s"]
            ),
            "handoff_cost_p99_s": (
                metrics["handoff_kill"]["fault_to_result_p99_s"]
            ),
        },
    }


# ----------------------------------------------------------------------
# structural validation (shared with tests/perf/test_bench_artifacts.py)
# ----------------------------------------------------------------------
def structural_errors(doc: dict) -> list[str]:
    """Why ``doc`` is not a valid BENCH_fleet artifact (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["artifact root must be a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
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
                        f"metrics.{scenario}.{key} must be a "
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

    Wall-clock metrics are machine-dependent, so freshness is judged
    *structurally* (same sections, same keys, same scenarios): a smoke
    run on any machine can validate the committed full run's shape.
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
            f"({sorted(committed['metrics'])} vs "
            f"{sorted(fresh['metrics'])}) — stale"
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
    parser.add_argument("--members", type=int, default=None,
                        help="fleet size (default: 4 full, 2 smoke)")
    parser.add_argument("--sessions", type=int, default=None,
                        help="sessions per scenario (default: 8 full, 2 smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="MAC rounds per session (default: 6 full, 4 smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleet for CI (2 members, 2 sessions)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed artifact instead of "
                             "writing it")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    if args.check and not args.smoke:
        args.smoke = True  # checking only needs the bench's *shape*
    # the acceptance configuration: N = 4 real processes
    args.members = args.members if args.members is not None else (
        2 if args.smoke else 4
    )
    args.sessions_per_scenario = args.sessions if args.sessions is not None \
        else (2 if args.smoke else 8)
    args.rounds = args.rounds if args.rounds is not None else (
        4 if args.smoke else 6
    )
    args.rows = 2
    args.lease_ttl_s = 0.3

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
            f"  {scenario:>12}: {m['sessions']} sessions  "
            f"{m['sessions_per_s']:.2f}/s  "
            f"p50 {m['p50_session_s'] * 1000:.0f}ms  "
            f"p99 {m['p99_session_s'] * 1000:.0f}ms  "
            f"recovered {m['recovered_fraction']:.0%}  "
            f"bit-exact {m['bit_exact_fraction']:.0%}"
        )
    d = doc["derived"]
    print(
        f"  resume p99 {d['resume_latency_p99_s'] * 1000:.0f}ms, "
        f"handoff p50 {d['handoff_cost_p50_s'] * 1000:.0f}ms / "
        f"p99 {d['handoff_cost_p99_s'] * 1000:.0f}ms under SIGKILL"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
