"""The committed bench artifacts: shape and acceptance.

Each benchmark commits its output at the repository root so the perf
trajectory is reviewable in diffs.  These tests pin the artifacts'
contracts: they must exist, parse, carry the full
schema/metadata/metrics/derived shape (validated by each bench's own
``structural_errors``, so the bench and the tests cannot drift apart),
and record their acceptance numbers — for ``BENCH_garble.json``,
vectorized >= 3x sequential tables/s at an effective AES batch >= 64
AND gates; for ``BENCH_backends.json``, HE completing every workload
in one round trip at fewer bytes than GC.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ARTIFACT = REPO_ROOT / "BENCH_garble.json"
BACKENDS_ARTIFACT = REPO_ROOT / "BENCH_backends.json"
FLEET_ARTIFACT = REPO_ROOT / "BENCH_fleet.json"
SLO_ARTIFACT = REPO_ROOT / "BENCH_slo.json"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    return _load_bench_module("bench_vector_garble")


@pytest.fixture(scope="module")
def doc():
    assert ARTIFACT.exists(), (
        "BENCH_garble.json is missing — regenerate it with "
        "`python benchmarks/bench_vector_garble.py`"
    )
    return json.loads(ARTIFACT.read_text())


class TestArtifactShape:
    def test_structurally_valid(self, bench, doc):
        assert bench.structural_errors(doc) == []

    def test_schema_and_provenance(self, bench, doc):
        assert doc["schema_version"] == bench.SCHEMA_VERSION
        assert doc["artifact"] == "BENCH_garble.json"
        assert doc["generated_by"] == "benchmarks/bench_vector_garble.py"
        # git_rev is a short hex rev (or the explicit "unknown" fallback)
        rev = doc["git_rev"]
        assert rev == "unknown" or (
            4 <= len(rev) <= 40 and all(c in "0123456789abcdef" for c in rev)
        )
        assert isinstance(doc["seed"], int)

    def test_config_records_the_run_parameters(self, bench, doc):
        config = doc["config"]
        assert set(bench.CONFIG_KEYS) <= set(config)
        assert config["bitwidth"] >= 2
        assert config["rounds"] >= 1
        assert config["runs"] >= 1
        assert isinstance(config["smoke"], bool)

    def test_metrics_cover_both_modes_with_units_in_keys(self, bench, doc):
        assert set(doc["metrics"]) == {"sequential", "vectorized"}
        for mode, entry in doc["metrics"].items():
            assert set(entry) == set(bench.METRIC_KEYS), mode
            for key, value in entry.items():
                assert isinstance(value, (int, float)) and value >= 0, (mode, key)

    def test_sequential_mode_is_the_four_calls_per_gate_reference(self, doc):
        assert doc["metrics"]["sequential"]["aes_invocations_per_gate"] == 4.0

    def test_check_mode_accepts_the_committed_artifact(self, bench, doc):
        """The CI bench-smoke gate: a fresh run's shape must match the
        committed artifact's (stale artifacts fail here first)."""
        errors = bench.check_artifact(ARTIFACT, doc)
        assert errors == []


class TestAcceptanceNumbers:
    def test_committed_run_is_not_a_smoke_run(self, doc):
        assert doc["config"]["smoke"] is False, (
            "the committed artifact must come from a full run, not --smoke"
        )

    def test_vectorized_speedup_at_least_3x(self, doc):
        assert doc["derived"]["speedup_tables_per_s"] >= 3.0

    def test_effective_batch_at_least_64_gates_per_aes_call(self, doc):
        assert doc["derived"]["effective_batch_per_aes_call"] >= 64.0

    def test_vectorized_amortizes_aes_below_one_call_per_gate(self, doc):
        assert doc["metrics"]["vectorized"]["aes_invocations_per_gate"] < 1.0


# ----------------------------------------------------------------------
# BENCH_backends.json — the GC-vs-HE comparison artifact
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def backends_bench():
    return _load_bench_module("bench_backends")


@pytest.fixture(scope="module")
def backends_doc():
    assert BACKENDS_ARTIFACT.exists(), (
        "BENCH_backends.json is missing — regenerate it with "
        "`python benchmarks/bench_backends.py`"
    )
    return json.loads(BACKENDS_ARTIFACT.read_text())


class TestBackendsArtifactShape:
    def test_structurally_valid(self, backends_bench, backends_doc):
        assert backends_bench.structural_errors(backends_doc) == []

    def test_schema_and_provenance(self, backends_bench, backends_doc):
        assert backends_doc["schema_version"] == backends_bench.SCHEMA_VERSION
        assert backends_doc["artifact"] == "BENCH_backends.json"
        assert backends_doc["generated_by"] == "benchmarks/bench_backends.py"
        rev = backends_doc["git_rev"]
        assert rev == "unknown" or (
            4 <= len(rev) <= 40 and all(c in "0123456789abcdef" for c in rev)
        )
        assert isinstance(backends_doc["seed"], int)

    def test_every_workload_covers_both_backends(self, backends_bench,
                                                 backends_doc):
        assert backends_doc["metrics"], "metrics must name at least one workload"
        for workload, entry in backends_doc["metrics"].items():
            assert set(entry) == {"gc", "he"}, workload
            for backend, m in entry.items():
                assert set(m) == set(backends_bench.METRIC_KEYS), (workload, backend)

    def test_config_names_the_workload_shapes(self, backends_doc):
        workloads = backends_doc["config"]["workloads"]
        assert set(workloads) == set(backends_doc["metrics"])
        for shape in workloads.values():
            rows, cols = shape
            assert rows >= 1 and cols >= 1

    def test_check_mode_accepts_the_committed_artifact(self, backends_bench,
                                                       backends_doc):
        errors = backends_bench.check_artifact(BACKENDS_ARTIFACT, backends_doc)
        assert errors == []


class TestBackendsAcceptanceNumbers:
    def test_committed_run_is_not_a_smoke_run(self, backends_doc):
        assert backends_doc["config"]["smoke"] is False, (
            "the committed artifact must come from a full run, not --smoke"
        )

    def test_he_is_single_round_trip(self, backends_doc):
        assert backends_doc["derived"]["he_round_trips_per_query"] == 1.0
        for workload, entry in backends_doc["metrics"].items():
            assert entry["he"]["round_trips_per_query"] == 1.0, workload
            assert entry["gc"]["round_trips_per_query"] > 1.0, workload

    def test_he_moves_fewer_bytes_on_every_workload(self, backends_doc):
        for workload, entry in backends_doc["metrics"].items():
            assert (
                entry["he"]["bytes_per_query"] < entry["gc"]["bytes_per_query"]
            ), workload
        assert backends_doc["derived"]["mean_bytes_ratio_gc_over_he"] > 1.0


# ----------------------------------------------------------------------
# BENCH_fleet.json — the process-fleet resilience artifact
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_bench():
    return _load_bench_module("bench_fleet")


@pytest.fixture(scope="module")
def fleet_doc():
    assert FLEET_ARTIFACT.exists(), (
        "BENCH_fleet.json is missing — regenerate it with "
        "`python benchmarks/bench_fleet.py`"
    )
    return json.loads(FLEET_ARTIFACT.read_text())


class TestFleetArtifactShape:
    def test_structurally_valid(self, fleet_bench, fleet_doc):
        assert fleet_bench.structural_errors(fleet_doc) == []

    def test_schema_and_provenance(self, fleet_bench, fleet_doc):
        assert fleet_doc["schema_version"] == fleet_bench.SCHEMA_VERSION
        assert fleet_doc["artifact"] == "BENCH_fleet.json"
        assert fleet_doc["generated_by"] == "benchmarks/bench_fleet.py"
        rev = fleet_doc["git_rev"]
        assert rev == "unknown" or (
            4 <= len(rev) <= 40 and all(c in "0123456789abcdef" for c in rev)
        )
        assert isinstance(fleet_doc["seed"], int)

    def test_metrics_cover_all_three_scenarios(self, fleet_bench, fleet_doc):
        assert set(fleet_doc["metrics"]) == set(fleet_bench.SCENARIOS)
        for scenario, entry in fleet_doc["metrics"].items():
            assert set(fleet_bench.METRIC_KEYS) <= set(entry), scenario
            assert entry["sessions"] == (
                fleet_doc["config"]["sessions_per_scenario"]
            ), scenario

    def test_check_mode_accepts_the_committed_artifact(self, fleet_bench,
                                                       fleet_doc):
        errors = fleet_bench.check_artifact(FLEET_ARTIFACT, fleet_doc)
        assert errors == []


class TestFleetAcceptanceNumbers:
    """The PR 9 acceptance gate: N = 4 real processes, every faulted
    session recovering to the bit-identical result.  Wall-clock numbers
    are machine-dependent, so the thresholds bind the machine-independent
    half (fractions, process count, positivity)."""

    def test_committed_run_is_not_a_smoke_run(self, fleet_doc):
        assert fleet_doc["config"]["smoke"] is False, (
            "the committed artifact must come from a full run, not --smoke"
        )

    def test_acceptance_configuration_is_four_processes(self, fleet_doc):
        assert fleet_doc["config"]["members"] == 4
        assert fleet_doc["config"]["rounds"] >= 2

    def test_every_scenario_is_bit_exact_and_recovered(self, fleet_doc):
        for scenario, entry in fleet_doc["metrics"].items():
            assert entry["bit_exact_fraction"] == 1.0, scenario
            assert entry["recovered_fraction"] == 1.0, scenario

    def test_throughput_and_fault_costs_are_positive(self, fleet_doc):
        derived = fleet_doc["derived"]
        assert derived["steady_sessions_per_s"] > 0.0
        assert derived["resume_latency_p99_s"] > 0.0
        assert derived["handoff_cost_p50_s"] > 0.0
        assert derived["handoff_cost_p99_s"] >= derived["handoff_cost_p50_s"]

    def test_steady_sessions_pay_no_fault_cost(self, fleet_doc):
        steady = fleet_doc["metrics"]["steady"]
        assert steady["fault_to_result_p50_s"] == 0.0
        assert steady["fault_to_result_p99_s"] == 0.0

    def test_handoff_costs_at_least_the_lease_ttl(self, fleet_doc):
        """A SIGKILL handoff cannot beat the lease clock: the adopter
        must wait out the leaked lease before stealing it."""
        assert fleet_doc["derived"]["handoff_cost_p50_s"] >= (
            fleet_doc["config"]["lease_ttl_s"]
        )


# ----------------------------------------------------------------------
# BENCH_slo.json — the SLO-knee artifact of the adaptive control loop
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def slo_bench():
    return _load_bench_module("bench_slo_knee")


@pytest.fixture(scope="module")
def slo_doc():
    assert SLO_ARTIFACT.exists(), (
        "BENCH_slo.json is missing — regenerate it with "
        "`python benchmarks/bench_slo_knee.py`"
    )
    return json.loads(SLO_ARTIFACT.read_text())


class TestSloArtifactShape:
    def test_structurally_valid(self, slo_bench, slo_doc):
        assert slo_bench.structural_errors(slo_doc) == []

    def test_schema_and_provenance(self, slo_bench, slo_doc):
        assert slo_doc["schema_version"] == slo_bench.SCHEMA_VERSION
        assert slo_doc["artifact"] == "BENCH_slo.json"
        assert slo_doc["generated_by"] == "benchmarks/bench_slo_knee.py"
        rev = slo_doc["git_rev"]
        assert rev == "unknown" or (
            4 <= len(rev) <= 40 and all(c in "0123456789abcdef" for c in rev)
        )
        assert isinstance(slo_doc["seed"], int)

    def test_ramp_covers_the_configured_rate_range(self, slo_bench, slo_doc):
        ramp = slo_doc["metrics"]["ramp"]
        config = slo_doc["config"]
        assert ramp[0]["rate_qps"] == config["rate_start_qps"]
        assert ramp[-1]["rate_qps"] <= config["rate_stop_qps"]
        rates = [entry["rate_qps"] for entry in ramp]
        assert rates == sorted(rates)
        for entry in ramp:
            assert set(entry) == set(slo_bench.LEVEL_KEYS)

    def test_check_mode_accepts_the_committed_artifact(self, slo_bench,
                                                       slo_doc):
        errors = slo_bench.check_artifact(SLO_ARTIFACT, slo_doc)
        assert errors == []


class TestSloAcceptanceNumbers:
    """The PR 10 acceptance gate: the controller absorbs load up to a
    measured knee and sheds beyond it.  The ramp is bit-deterministic
    (the controller is a pure function of its sample trace), so the
    thresholds bind the simulated half; the real-latency calibration in
    ``derived`` is machine-dependent context and only needs positivity."""

    def test_committed_run_is_not_a_smoke_run(self, slo_doc):
        assert slo_doc["config"]["smoke"] is False, (
            "the committed artifact must come from a full run, not --smoke"
        )

    def test_knee_exists_inside_the_ramp(self, slo_doc):
        knee = slo_doc["metrics"]["knee"]
        config = slo_doc["config"]
        assert config["rate_start_qps"] <= knee["knee_qps"] < config["rate_stop_qps"]
        assert knee["p99_ms_at_knee"] <= config["p99_target_ms"]

    def test_knee_reaches_the_model_capacity(self, slo_doc):
        """The controller must not leave throughput on the table: the
        knee has to land within one ramp step of the worker pool's raw
        capacity (max_workers / service_time)."""
        config = slo_doc["config"]
        capacity = config["max_workers"] * 1000.0 / config["service_time_ms"]
        assert slo_doc["metrics"]["knee"]["knee_qps"] >= (
            capacity - config["rate_step_qps"]
        )

    def test_every_below_knee_level_is_shed_free(self, slo_doc):
        knee_qps = slo_doc["metrics"]["knee"]["knee_qps"]
        for entry in slo_doc["metrics"]["ramp"]:
            if entry["rate_qps"] <= knee_qps:
                assert entry["sustainable"], entry
                assert entry["shed"] == 0, entry
                assert entry["shed_probability"] == 0.0, entry

    def test_past_knee_levels_engage_shedding(self, slo_doc):
        knee = slo_doc["metrics"]["knee"]
        assert knee["first_shed_qps"] > knee["knee_qps"]
        hot = [
            entry for entry in slo_doc["metrics"]["ramp"]
            if entry["rate_qps"] >= knee["first_shed_qps"]
        ]
        assert hot, "the ramp never crossed the knee"
        for entry in hot:
            assert not entry["sustainable"], entry
            assert entry["shed_probability"] > 0.0, entry

    def test_workers_scale_with_the_ramp(self, slo_doc):
        """The knee must come from adaptation, not a static pool: the
        ramp has to show intermediate worker counts between min and max."""
        config = slo_doc["config"]
        workers_seen = {entry["workers"] for entry in slo_doc["metrics"]["ramp"]}
        assert min(workers_seen) <= config["min_workers"] + 1
        assert max(workers_seen) == config["max_workers"]
        assert len(workers_seen) >= 3

    def test_calibration_is_positive(self, slo_doc):
        derived = slo_doc["derived"]
        assert derived["measured_service_p50_ms"] > 0.0
        assert derived["measured_service_p99_ms"] >= (
            derived["measured_service_p50_ms"]
        )
        assert derived["capacity_model_qps"] > 0.0
