"""Tests of the benchmark's own computations.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
from spans import KKT_SPAN, SolveProbe, Tracer, clock, self_times

from povmcal import detectors, quorum, recon_ml, sampler, states

BENCH_DIR = Path(__file__).resolve().parent


def _diagonal_problem():
    state = states.twin_beam(0.6, 20)
    povm = detectors.noisy_photocounter(0.8, 1.0, 20, 30)
    hq = quorum.homodyne_quorum(8, 0.9, unbias_cutoff=12)
    data = sampler.sample_homodyne_twinbeam(state, povm, hq, 5_000, seed=3)
    return recon_ml.build_problem_diagonal(data, state, hq, fock_cutoff=14)


def _finite_problem():
    state = states.maximally_entangled(2)
    povm = detectors.random_povm(2, 3, seed=7)
    data = sampler.sample_finite(state, povm, quorum.pauli_quorum(), 20_000, seed=5)
    return recon_ml.build_problem_finite(data, state, quorum.pauli_quorum())


@pytest.mark.parametrize("build", [_diagonal_problem, _finite_problem])
def test_kkt_gap_vanishes_at_optimum_and_not_at_start(build):
    problem = build()
    uniform = problem.to_povm(problem.initial())
    assert checks.kkt_gap(problem, uniform) > 0.1
    tight = recon_ml.maximize(problem, max_iters=200_000, min_ll_increase=1e-13)
    assert abs(checks.kkt_gap(problem, tight.povm_hat)) < 1e-4


def test_diagonal_gap_is_the_stationarity_ratio():
    # two outcomes, one level: the gap is max(grad) / (theta . grad) - 1
    responses = np.array([[1.0], [1.0], [1.0]])
    outcome_index = np.array([0, 0, 1])
    theta = np.array([[0.5], [0.5]])
    # grad = counts / theta = [4, 2]; lambda = 0.5*4 + 0.5*2 = 3
    assert checks.kkt_gap_diagonal(responses, outcome_index, theta) == pytest.approx(4 / 3 - 1)
    assert checks.kkt_gap_diagonal(responses, outcome_index, np.array([[2 / 3], [1 / 3]])) == (
        pytest.approx(0.0, abs=1e-15)
    )


def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    np.testing.assert_allclose(self_times(parent, start, end), [4.0, 2.0, 3.0, 1.0])


def test_tracer_records_nested_spans_and_restores_functions():
    original = states.build_map_R
    with Tracer() as tracer:
        assert states.build_map_R is not original
        states.build_map_R(states.maximally_entangled(2))
    assert states.build_map_R is original
    table = tracer.table()
    outer = table["states.build_map_R"]
    assert outer["calls"] == 1 and table["states.maximally_entangled"]["calls"] == 1
    name_id, parent, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    root = [i for i in range(len(parent)) if tracer.names[name_id[i]] == "states.build_map_R"][0]
    children = parent == root
    assert own[root] == pytest.approx(end[root] - start[root] - (end - start)[children].sum())
    assert outer["self_s"] == pytest.approx(own[root])


def test_layer_totals_leave_out_nested_certificate_spans():
    tracer = Tracer()

    def certify():
        t0 = clock()
        while clock() - t0 < 0.02:
            pass
        tracer.record(KKT_SPAN, t0, clock())

    def inner():
        certify()

    outer = tracer._wrap(lambda: tracer._wrap(inner, "stats.inner")(), "stats.bootstrap")
    outer()
    name_id, parent, start, end = tracer.arrays()
    raw = dict(zip((tracer.names[i] for i in name_id), end - start))
    table = tracer.table()
    for name in ("stats.bootstrap", "stats.inner"):
        assert table[name]["total_s"] == pytest.approx(raw[name] - raw[KKT_SPAN])
    assert table[KKT_SPAN]["total_s"] == pytest.approx(raw[KKT_SPAN])


def test_probe_certifies_solves_and_keeps_certificate_time_out_of_spans():
    problem = _finite_problem()
    with Tracer() as tracer, SolveProbe(tracer) as probe:
        recon_ml.maximize(problem)
    (solve,) = probe.solves
    assert solve["converged"] and solve["monotone"] and not solve["warm"]
    assert 0.0 <= solve["kkt_gap"] < checks.KKT_BOUND
    table = tracer.table()
    assert table["bench.kkt"]["total_s"] == pytest.approx(probe.excluded_s)
    assert recon_ml.maximize.__name__ == "maximize"


def test_counter_truth_is_a_channel_and_matches_the_detector_model():
    full = checks.counter_response(0.8, 1.0, 6, 60, 30)
    np.testing.assert_allclose(full.sum(axis=0), 1.0, atol=1e-8)
    lossy = checks.counter_response(0.8, 0.0, 6, 6, 0)
    binomial = detectors.binomial_loss_matrix(0.8, 7)
    np.testing.assert_allclose(lossy, binomial, atol=1e-14)
    model = detectors.photocounter_response(0.8, 1.0, 54, 30)[:7, :7]
    np.testing.assert_allclose(checks.counter_response(0.8, 1.0, 6, 6, 30), model, atol=1e-9)


def test_redrawn_povm_is_the_configured_detector():
    drawn = checks.draw_random_povm(3, 4, 11)
    configured = np.stack(detectors.random_povm(3, 4, 11).elements)
    np.testing.assert_allclose(drawn, configured, atol=1e-12)


def test_z_limit():
    from scipy import stats as sps

    assert checks.z_limit(None) == 3.0
    assert checks.z_limit(3) == pytest.approx(19.21, abs=0.01)
    for reps, limit in checks.T_LIMITS.items():
        assert limit == pytest.approx(sps.t.ppf(0.5 + checks.COVERAGE / 2.0, reps - 1), rel=1e-12)


def test_failed_report_check_is_a_problem():
    report = {"checks": {"faithful": True, "bootstrap_failures_ok": False, "ml_monotone": True}}
    assert harness.report_problems(report) == ["report check bootstrap_failures_ok failed"]
    assert harness.report_problems({"checks": {"faithful": True}}) == []


def test_chunked_diagonal_gap_matches_one_pass():
    rng = np.random.default_rng(0)
    n_records = 3 * checks.KKT_CHUNK + 17
    responses = rng.random((n_records, 5))
    outcome_index = rng.integers(0, 4, size=n_records)
    theta = rng.random((4, 5))
    denom = np.einsum("im,im->i", responses, theta[outcome_index])
    grad = np.zeros_like(theta)
    np.add.at(grad, outcome_index, responses / denom[:, None])
    lam = (theta * grad).sum(axis=0)
    expected = (grad / lam).max() - 1.0
    assert checks.kkt_gap_diagonal(responses, outcome_index, theta) == pytest.approx(expected)


@pytest.mark.parametrize("workload", ["fig2-averaging", "fig4-ml", "qutrit-noisy-both"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=BENCH_DIR.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2-averaging", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
