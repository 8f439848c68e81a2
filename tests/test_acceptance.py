"""Acceptance criteria for the calibration toolkit, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with the measured numbers.  Tolerances are fixed here, not tuned.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from povmcal.cli import ScenarioConfig, run
from povmcal.detectors import random_povm
from povmcal.errors import ScenarioAbort
from povmcal.quorum import compute_dual_set, homodyne_quorum, pauli_quorum
from povmcal.recon_avg import estimate_conditioned_finite, estimate_conditioned_homodyne, recover_povm
from povmcal.recon_ml import build_problem_diagonal, maximize
from povmcal.sampler import sample_finite, sample_homodyne_twinbeam
from povmcal.scenarios import scenario_config
from povmcal.states import build_diagonal_map_R, build_map_R, maximally_entangled, twin_beam
from povmcal.stats import bootstrap

from oracles import beam_splitter_counter_oracle, compare_mse

pytestmark = pytest.mark.acceptance


def _report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_exact_probability_oracles(tmp_path):
    """Exact-probability round trip on d=2 and d=3, error < 1e-8, < 1 s each."""
    worst = 0.0
    slowest = 0.0
    for name in ("qubit-oracle", "qutrit-oracle"):
        t0 = time.perf_counter()
        report = run(ScenarioConfig.from_dict(scenario_config(name)), tmp_path / name)
        elapsed = time.perf_counter() - t0
        err = report.reconstructions["averaging"]["coverage"]["max_abs_error"]
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    _report(
        "1 (exact-probability oracle)",
        worst < 1e-8 and slowest < 1.0,
        f"max entrywise error {worst:.3e} (tol 1e-8), slowest run {slowest:.2f}s (tol 1s)",
    )


def test_criterion_2_finite_sampled_coverage():
    """d=2, 1e5 records x 20 seeds: >=95% of entries within 5x bootstrap stderr."""
    t0 = time.perf_counter()
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=7)
    quorum = pauli_quorum()
    duals = compute_dual_set(quorum)
    map_r = build_map_R(state)

    hits = total = 0
    for seed in range(20):
        data = sample_finite(state, povm, quorum, 100_000, seed=1000 + seed)
        point = recover_povm(estimate_conditioned_finite(data, quorum, duals), map_r)
        outcomes = point.outcomes

        def entries(rng):
            ds = data.subset(rng.integers(0, len(data), len(data)))
            est = recover_povm(estimate_conditioned_finite(ds, quorum, duals), map_r)
            by_outcome = dict(zip(est.outcomes, est.values))
            stack = np.stack(
                [by_outcome.get(n, np.full((2, 2), np.nan)) for n in outcomes]
            )
            return np.concatenate([np.real(stack).ravel(), np.imag(stack).ravel()])

        boot = bootstrap(entries, n_reps=25, seed=1000 + seed)
        half = boot.stdev.size // 2
        stderr = np.sqrt(boot.stdev[:half] ** 2 + boot.stdev[half:] ** 2).reshape(
            point.values.shape
        )
        for idx, n in enumerate(outcomes):
            err = np.abs(point.values[idx] - povm[n])
            hits += int((err <= 5 * stderr[idx]).sum())
            total += err.size
    elapsed = time.perf_counter() - t0
    fraction = hits / total
    _report(
        "2 (finite sampled, 20 seeds)",
        fraction >= 0.95 and elapsed < 60.0,
        f"{hits}/{total} entries within 5x bootstrap stderr ({fraction:.1%}), {elapsed:.1f}s (tol 60s)",
    )


def test_criterion_3_averaging_at_desk_scale(tmp_path):
    """fig2 with N=2e5: >=90% of <n|P_k|n> for n,k <= 6 within 3x stderr of the
    brute-force two-mode ground truth; < 10 min."""
    t0 = time.perf_counter()
    cfg = scenario_config("fig2")
    assert cfg["n_records"] == 200_000 and cfg["state"]["fock_cutoff"] >= 54
    report = run(ScenarioConfig.from_dict(cfg), tmp_path)
    oracle = beam_splitter_counter_oracle(
        cfg["detector"]["eta_p"],
        cfg["detector"]["nu"],
        cfg["state"]["fock_cutoff"],
        cfg["detector"]["env_cutoff"],
    )
    zs = []
    for entry in report.reconstructions["averaging"]["entries"]:
        k, m = entry["n"], entry["m"]
        if k > 6 or m > 6:
            continue
        truth = oracle[k, m]
        stderr = entry["stderr"]
        zs.append(abs(entry["value"] - truth) / stderr if stderr > 0 else np.inf)
    elapsed = time.perf_counter() - t0
    zs = np.asarray(zs)
    fraction = float((zs <= 3.0).mean())
    _report(
        "3 (averaging at desk scale)",
        len(zs) == 49 and fraction >= 0.90 and elapsed < 600.0,
        f"{(zs <= 3.0).sum()}/{len(zs)} diagonal entries within 3x stderr "
        f"({fraction:.1%}), max z {zs.max():.2f}, {elapsed:.0f}s (tol 600s)",
    )


@pytest.mark.slow
def test_criterion_4_ml_at_paper_scale(tmp_path):
    """fig4 with N=5e4 and 50 bootstrap repetitions: monotone likelihood,
    constraints, >=90% of displayed entries within 3x bootstrap stderr; < 30 min."""
    t0 = time.perf_counter()
    cfg = scenario_config("fig4")
    assert cfg["n_records"] == 50_000 and cfg["bootstrap_reps"] == 50
    report = run(ScenarioConfig.from_dict(cfg), tmp_path)
    elapsed = time.perf_counter() - t0
    ml = report.reconstructions["ml"]
    zs = np.asarray([e["z"] for e in ml["entries"] if "z" in e])
    fraction = float((zs <= 3.0).mean())
    ok = (
        report.checks["ml_monotone"]
        and report.checks["ml_constraints"]
        and fraction >= 0.90
        and elapsed < 1800.0
    )
    _report(
        "4 (maximum likelihood at paper scale)",
        ok,
        f"monotone={report.checks['ml_monotone']}, constraints={report.checks['ml_constraints']}, "
        f"{(zs <= 3.0).sum()}/{len(zs)} displayed entries within 3x bootstrap stderr "
        f"({fraction:.1%}), {elapsed:.0f}s (tol 1800s)",
    )


def _fig_scenario_squared_errors(
    n_avg: int, n_ml: int, seeds
) -> tuple[dict, dict, dict, list, list]:
    """Pooled display-entry estimates for both estimators at given record
    counts, plus the ``converged`` flag of each ML solve."""
    state = twin_beam(0.88, 54)
    from povmcal.detectors import noisy_photocounter

    povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
    hq = homodyne_quorum(12, 0.9, unbias_cutoff=20)
    map_r = build_diagonal_map_R(state, cutoff=12)
    truth = povm.diagonal()

    ml_values: dict = {}
    avg_values: dict = {}
    ml_converged: list = []
    for seed in seeds:
        big = sample_homodyne_twinbeam(state, povm, hq, n_avg, seed=2000 + seed)
        estimates, _ = estimate_conditioned_homodyne(big, hq)
        recovered = recover_povm(estimates, map_r)
        for idx, k in enumerate(recovered.outcomes):
            if k <= 6:
                for m in range(7):
                    avg_values[(seed, k, m)] = recovered.values[idx, m]

        small = sample_homodyne_twinbeam(state, povm, hq, n_ml, seed=3000 + seed)
        problem = build_problem_diagonal(small, state, hq, fock_cutoff=36)
        result = maximize(problem)
        ml_converged.append(result.converged)
        theta = result.povm_hat.diagonal()
        for idx, k in enumerate(problem.outcomes[:-1]):
            if k <= 6:
                for m in range(7):
                    ml_values[(seed, k, m)] = theta[idx, m]

    pooled_keys = [(seed, k, m) for seed in seeds for k in range(7) for m in range(7)]
    pooled_truth = {(seed, k, m): truth[k, m] for (seed, k, m) in pooled_keys}
    return ml_values, avg_values, pooled_truth, pooled_keys, ml_converged


@pytest.mark.slow
def test_criterion_5_ml_statistical_efficiency():
    """Median squared error of ML at 5e4 records <= averaging at 7.5e4 (a 1.5x
    record-count handicap), display entries n,k <= 6, pooled over 10 seeds,
    every ML solve converged (direction only; magnitude reported).

    The handicap is derived from the information bound of the record model
    p(n, x) = sum_m theta[n, m] w_m q_m(x), theta[n, m] = <m|P_n|m>:

    * Averaging estimates theta[k, m] as the record mean of
      1[n_i = k] K_m(x_i) / w_m, so its per-record variance is exactly
      sum_j w_j theta[k, j] int K_m^2 q_j dx / w_m^2 - mean^2, with j over
      all pair numbers of the state.  Its mean is theta[k, m] to 4e-9.
    * The Cramer-Rao bound is the inverse Fisher information of that model
      with completeness sum_n theta[n] = 1 eliminated.  The Fisher matrix is
      block diagonal over outcomes, F_n = int w q (w q)^T / p(n, x) dx.  It
      gives the same bound at cutoffs 20 and 36.
    * On the 49 display entries averaging's variance is 1.02-1.84x the
      bound.  For the pooled median squared error at equal record counts the
      bound allows any unbiased estimator a gain of at most 1.19x.
    * ML gains more only through the POVM constraints: positivity shrinks
      noise-dominated entries such as <6|P_0|6> (truth 1.1e-3, bound sd 0.2
      at 5e4 records).  A Gaussian at the bound clipped at zero predicts a
      1.70x gain at equal record counts.

    So the averaging record count is 1.5x the ML one, below that
    prediction.  A 10x handicap would demand a gain far beyond both figures.
    On these seeds ML@5e4 gives 1.17e-4, averaging@5e4 3.38e-4 and
    averaging@7.5e4 2.76e-4.
    """
    t0 = time.perf_counter()
    seeds = range(10)
    ml_values, avg_values, pooled_truth, pooled_keys, converged = _fig_scenario_squared_errors(
        75_000, 50_000, seeds
    )
    comparison = compare_mse(ml_values, avg_values, pooled_truth, pooled_keys)
    elapsed = time.perf_counter() - t0
    ratio = comparison.median_b / max(comparison.median_a, 1e-300)
    _report(
        "5 (statistical-efficiency direction)",
        all(converged) and comparison.median_a <= comparison.median_b,
        f"ML@5e4 median sq err {comparison.median_a:.3e} <= averaging@7.5e4 "
        f"{comparison.median_b:.3e} (ratio {ratio:.1f}x, {len(comparison.entries)} entries, "
        f"{sum(converged)}/{len(converged)} ML solves converged, {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_5_companion_same_record_count():
    """Companion measurement: at equal record counts (5e4 each) the converged
    ML median squared error does beat the averaging strategy on the display
    entries."""
    seeds = range(4)
    ml_values, avg_values, pooled_truth, pooled_keys, converged = _fig_scenario_squared_errors(
        50_000, 50_000, seeds
    )
    comparison = compare_mse(ml_values, avg_values, pooled_truth, pooled_keys)
    ratio = comparison.median_b / max(comparison.median_a, 1e-300)
    _report(
        "5-companion (equal-N efficiency direction)",
        all(converged) and comparison.median_a <= comparison.median_b,
        f"ML@5e4 median sq err {comparison.median_a:.3e} <= averaging@5e4 "
        f"{comparison.median_b:.3e} (ratio {ratio:.1f}x, "
        f"{sum(converged)}/{len(converged)} ML solves converged)",
    )


def test_criterion_6_property_suites_standalone():
    """All property suites selected by `-m properties` pass on their own in < 5 min."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "properties", "-q", "--no-header"],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    _report(
        "6 (property suites standalone)",
        proc.returncode == 0 and elapsed < 300.0,
        f"`pytest -m properties` -> {tail!r} in {elapsed:.0f}s (tol 300s)",
    )


def test_criterion_7_faithfulness_gate(tmp_path):
    """Non-faithful inputs abort with a condition-number diagnostic."""
    cfg = scenario_config("fig2")
    cfg["state"]["xi"] = 0.0
    cfg["state"]["fock_cutoff"] = 12
    aborted_twin = False
    try:
        run(ScenarioConfig.from_dict(cfg), tmp_path / "twin0")
    except ScenarioAbort as exc:
        aborted_twin = "condition number" in str(exc)

    cfg2 = scenario_config("qubit-oracle")
    cfg2["state"] = {"kind": "product_mixed", "dim_system": 2, "dim_tomo": 2}
    aborted_product = False
    try:
        run(ScenarioConfig.from_dict(cfg2), tmp_path / "product")
    except ScenarioAbort as exc:
        aborted_product = "condition number" in str(exc)
    _report(
        "7 (faithfulness gate)",
        aborted_twin and aborted_product,
        f"twin_beam(0) aborted={aborted_twin}, product state aborted={aborted_product}",
    )
