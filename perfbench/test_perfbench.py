"""Tests of the benchmark itself: the gate catches corrupted results and
span arithmetic is right. Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fcmm  # noqa: E402
import fcmm.cli  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

CFG = fcmm.SolverConfig(c=3)


@pytest.fixture(scope="module")
def blobs():
    spec = fcmm.SyntheticSpec(blob_count=3, points_per_blob=20, dim=2,
                              blob_stddev=0.5, blob_center_scale=5.0, seed=3)
    data = fcmm.standardize(fcmm.make_blobs(spec))
    F0 = fcmm.init_random(data.n, 3, 3)
    return data, {kind: getattr(fcmm, name)(data, F0, CFG)
                  for kind, name in harness.SOLVE.items()}


def test_clean_results_pass(blobs):
    data, results = blobs
    for result in results.values():
        assert checks.check_solve(data, result, CFG.r) == []
    assert checks.check_same_path(results["mm"], results["classic"]) == []
    best = min(r.objective_final for r in results.values())
    assert checks.check_near_best(results["irw"], best) == []


def test_perturbed_membership_row_fails(blobs):
    data, results = blobs
    values = results["mm"].F_final.values.copy()
    values[7, 0] += 1e-6
    bad = dataclasses.replace(results["mm"], F_final=fcmm.MembershipMatrix.from_values(values))
    problems = checks.check_solve(data, bad, CFG.r)
    assert any("simplex" in p for p in problems)
    assert checks.check_same_path(bad, results["classic"])


def test_swapped_final_objective_fails(blobs):
    data, results = blobs
    other = fcmm.solve_fcm_mm(data, fcmm.init_random(data.n, 3, 11), CFG)
    assert other.objective_final != results["mm"].objective_final
    bad = dataclasses.replace(results["mm"], objective_final=other.objective_final)
    problems = checks.check_solve(data, bad, CFG.r)
    assert any("difference-form" in p for p in problems)


def test_rising_trace_fails(blobs):
    data, results = blobs
    records = list(results["mm"].trace.records)
    records[2] = dataclasses.replace(records[2], objective=records[1].objective * 1.01)
    bad = dataclasses.replace(results["mm"], trace=fcmm.SolverTrace(tuple(records)))
    assert any("rises at iteration 2" in p for p in checks.check_solve(data, bad, CFG.r))


def test_irw_above_best_fails(blobs):
    _, results = blobs
    best = results["mm"].objective_final * (1 - 1e-5)
    assert checks.check_near_best(results["irw"], best)


def test_compare_outputs_checked(tmp_path):
    manifest = fcmm.cli.iris_manifest(HERE.parent / "data" / "iris.csv", tmp_path,
                                      ("classic", "irw", "mm"), seed=1)
    status, report = fcmm.cli.cmd_compare(manifest)
    assert status == 0
    data = fcmm.cli.load_manifest_dataset(manifest)
    F0 = fcmm.init_random(data.n, 3, 1)
    results = {kind: getattr(fcmm, name)(data, F0, manifest.cfg)
               for kind, name in harness.SOLVE.items()}
    assert checks.check_compare_outputs(str(tmp_path), report, results) == []

    trace = tmp_path / "mm_trace.csv"
    trace.write_text(trace.read_text().replace("elapsed_ns", "elapsed", 1))
    assert any("header" in p for p in checks.check_compare_outputs(str(tmp_path), report,
                                                                   results))
    (tmp_path / "summary.json").write_text("{not json")
    assert any("summary.json" in p for p in checks.check_compare_outputs(str(tmp_path),
                                                                          report, results))


@pytest.fixture(scope="module")
def battery():
    inputs = harness.setup_oracle(".", 0)["batteries"][0]
    outputs = [part() for part in harness._oracle_parts(inputs)]
    return inputs, (outputs[:-1], *outputs[-1])


def test_clean_oracle_battery_passes(battery):
    run = harness.Run()
    harness.round_oracle(run, {"batteries": [battery[0]]})
    assert run.attempted == 1 and run.failed == 0, run.problems


def test_corrupted_gram_oracle_fails(battery):
    inputs, (gram, *_) = battery
    data, G = inputs["gram"][0]
    quad, vector = gram[0][0]
    g = G.values[:, 0]
    assert checks.check_gram(data, g, quad, vector) == []
    assert any("quad" in p for p in checks.check_gram(data, g, quad * (1 + 1e-8), vector))
    vector = vector.copy()
    vector[3] += 1e-6
    assert any("vector" in p for p in checks.check_gram(data, g, quad, vector))


def test_corrupted_gradient_and_report_fail(battery):
    inputs, (_, gradient, surrogate, chain) = battery
    data, g_t = inputs["gradient"][0]
    assert checks.check_gradient(data, g_t, gradient[0]) == []
    assert checks.check_gradient(data, g_t, gradient[0] + 1e-4)
    assert checks.check_report(chain, harness.ORACLE_CHAIN_STEPS) == []
    assert checks.check_report(dataclasses.replace(surrogate, passed=False),
                               harness.ORACLE_TRIALS + 1)
    assert checks.check_report(chain, harness.ORACLE_CHAIN_STEPS - 1)


def test_self_time_on_nested_calls():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: next(ticks) * 10)
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        next(ticks)  # the outer span's own work between its children
        inner()

    tracer.wrap("outer", body)()
    # outer 0..60 ns; inner 10..20 and 40..50; outer's own time 60 - 20.
    assert tracer.self_ns() == [40, 10, 10]
    assert tracer.summary() == {"outer": (1, 40), "inner": (2, 20)}


def test_times_scaled_to_reference_speed():
    class HalfSpeed:
        nominal_s = 1.0
        elasticity = 1.0

        def measure(self):
            return 2.0

    run = harness.Run(HalfSpeed())
    _, ms = run.timed(lambda: None)
    run.sample("op_ms", 10.0)
    assert run.scale == 0.5
    assert run.samples["op_ms"] == [10.0] and run.scaled["op_ms"] == [5.0]
    assert ms >= 0 and run.busy_ns >= 0


def test_traced_round_matches_untraced_and_restores(blobs):
    data, results = blobs
    originals = (fcmm.solvers.aggregates, fcmm.solvers.SOLVERS["mm"],
                 fcmm.membership.MembershipMatrix.__dict__["from_values"])
    tracer = spans.Tracer()
    F0 = fcmm.init_random(data.n, 3, 3)
    with spans.traced(tracer):
        traced = fcmm.solvers.SOLVERS["mm"](data, F0, CFG)
    assert traced.objective_final.hex() == results["mm"].objective_final.hex()
    summary = tracer.summary()
    iters = len(traced.trace) - 1
    assert summary["solvers.solve_fcm_mm"][0] == 1
    assert summary["solvers.update_membership_mm"][0] == iters
    assert summary["objective.phi"][0] == iters + 1
    assert tracer.work["objective.aggregates"] == 2.0 * data.n * data.d * 3 * (2 * iters + 2)
    assert (fcmm.solvers.aggregates, fcmm.solvers.SOLVERS["mm"],
            fcmm.membership.MembershipMatrix.__dict__["from_values"]) == originals


def test_round_that_drifts_is_a_failure(monkeypatch):
    outputs = iter([["a"], ["b"]])

    def drifting_round(run, state):
        run.counts["x"] += 1
        fingerprint = next(outputs)
        if fingerprint == ["b"]:
            time.sleep(0.05)  # long enough that no third round starts
        return fingerprint

    monkeypatch.setitem(harness.WORKLOADS, "fake",
                        (lambda root, seed: None, drifting_round, 1))
    monkeypatch.setattr(harness.reference, "for_workload", lambda name: None)
    run, fingerprint, rounds = harness.measure("fake", ".", 0, seconds=0.02)
    assert rounds == 2 and run.failed == 1 and fingerprint == ["a"]
    assert run.counts == Counter({"x": 1})
