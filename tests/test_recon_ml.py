import numpy as np
import pytest

from povmcal.detectors import Povm, noisy_photocounter, random_povm
from povmcal.errors import CutoffError, PovmInvariantError
from povmcal.quorum import homodyne_quorum, pauli_quorum, smeared_fock_pdf_table
from povmcal.recon_ml import (
    COMPLETENESS_TOL,
    MONOTONE_SLACK,
    POSITIVITY_TOL,
    FiniteMlProblem,
    build_problem_diagonal,
    build_problem_finite,
    _outcome_rows,
    log_likelihood,
    maximize,
)
from povmcal.sampler import Dataset, joint_probability_tables, sample_finite, sample_homodyne_twinbeam
from povmcal.states import maximally_entangled, twin_beam
from povmcal.stats import bootstrap

HQ = homodyne_quorum(6, 0.9, grid=(-6.0, 6.0, 1.0 / 256.0))


def make_finite_problem(n_records=50_000, seed=0, povm_seed=1):
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=povm_seed)
    quorum = pauli_quorum()
    data = sample_finite(state, povm, quorum, n_records, seed=seed)
    return build_problem_finite(data, state, quorum), povm, data, state, quorum


def expected_count_problem(povm_seed=1, n_records=10_000):
    """Finite problem with exact expected counts (infinite-data analogue)."""
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=povm_seed)
    quorum = pauli_quorum()
    tables = joint_probability_tables(state, povm, quorum)  # (K, n, m)
    counts = n_records * tables.transpose(1, 0, 2) / quorum.n_settings
    dummy = sample_finite(state, povm, quorum, 10, seed=0)
    problem = build_problem_finite(dummy, state, quorum)
    return (
        FiniteMlProblem(problem.effects, counts, (0, 1, 2), 2),
        povm,
    )


class TestLogLikelihood:
    def test_trivial_povm_factors_out(self):
        problem, povm, data, state, quorum = make_finite_problem(n_records=2000)
        identity_problem = FiniteMlProblem(
            problem.effects,
            problem.counts.sum(axis=0, keepdims=True),
            (0,),
            2,
        )
        ll = log_likelihood(Povm((np.eye(2, dtype=complex),)), identity_problem)
        # direct: sum over records of log p_tomo(k_i, m_i)
        tomo_probs = np.real(np.einsum("kmii->km", problem.effects))
        direct = float(
            (problem.counts.sum(axis=0) * np.log(tomo_probs)).sum()
        )
        np.testing.assert_allclose(ll, direct, rtol=1e-12)

    def test_single_record_diagonal_formula(self):
        state = twin_beam(0.6, 8)
        x_value = 0.37
        data = Dataset(
            np.array([2]), np.array([0.5]), np.array([x_value]), 0, "", "homodyne"
        )
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=6, weight_tail_tol=1.0)
        theta = problem.initial()
        weights = state.diagonal_weights()[:7]
        q = smeared_fock_pdf_table(6, 0.9, np.array([x_value]))[:, 0]
        expected = np.log((weights * q * theta[0]).sum())
        np.testing.assert_allclose(problem.log_likelihood(theta), expected, rtol=1e-12)

    def test_truth_beats_perturbations_on_expected_counts(self):
        problem, povm = expected_count_problem()
        ll_truth = log_likelihood(povm, problem)
        rng = np.random.default_rng(5)
        worse = 0
        lls = []
        for trial in range(20):
            other = random_povm(2, 3, seed=100 + trial)
            eps = 0.2
            mixed = Povm(
                tuple(
                    (1 - eps) * p + eps * q for p, q in zip(povm.elements, other.elements)
                )
            )
            lls.append(log_likelihood(mixed, problem))
            if lls[-1] <= ll_truth:
                worse += 1
        assert ll_truth >= np.mean(lls)
        assert worse >= 18


class TestMaximizeFinite:
    def test_truth_is_fixed_point_on_expected_counts(self):
        problem, povm = expected_count_problem()
        result = maximize(problem, init=povm, max_iters=50)
        assert result.converged
        assert result.iterations <= 1
        ll0 = log_likelihood(povm, problem)
        assert result.final_log_likelihood - ll0 <= 1e-9
        for p_hat, p in zip(result.povm_hat.elements, povm.elements):
            np.testing.assert_allclose(p_hat, p, atol=1e-8)

    def test_monotone_trace_and_constraints(self):
        problem, povm, *_ = make_finite_problem(n_records=30_000, seed=2)
        result = maximize(problem, min_ll_increase=1e-9)
        assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)
        assert result.completeness_deviation <= COMPLETENESS_TOL
        assert result.min_eigenvalue >= POSITIVITY_TOL

    def test_constraints_hold_at_every_iterate(self):
        problem, *_ = make_finite_problem(n_records=5_000, seed=3)
        state = problem.initial()
        for _ in range(25):
            state = problem.em_update(state)
            completeness, min_eig = problem.constraint_violation(state)
            assert completeness <= COMPLETENESS_TOL
            assert min_eig >= POSITIVITY_TOL

    def test_invalid_init_rejected(self):
        problem, *_ = make_finite_problem(n_records=1_000)
        bad = Povm((np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        with pytest.raises(PovmInvariantError):
            maximize(problem, init=bad)

    def test_qubit_recovery_within_bootstrap_bars(self):
        problem, povm, data, state, quorum = make_finite_problem(
            n_records=100_000, seed=4, povm_seed=6
        )
        result = maximize(problem)
        point = {
            n: np.asarray(p)
            for n, p in zip(problem.outcomes, result.povm_hat.elements)
        }

        def rerun(ds):
            prob = build_problem_finite(ds, state, quorum)
            res = maximize(prob, init=result.povm_hat if prob.outcomes == problem.outcomes else None)
            by_outcome = dict(zip(prob.outcomes, res.povm_hat.elements))
            rows = [
                np.asarray(by_outcome.get(n, np.full((2, 2), np.nan)))
                for n in problem.outcomes
            ]
            stacked = np.stack(rows)
            return np.concatenate([np.real(stacked).ravel(), np.imag(stacked).ravel()])

        report = bootstrap(data, rerun, n_reps=20, seed=4)
        half = report.stdev.size // 2
        stderr = np.sqrt(report.stdev[:half] ** 2 + report.stdev[half:] ** 2).reshape(
            (len(problem.outcomes), 2, 2)
        )
        for idx, n in enumerate(problem.outcomes[:-1]):  # last row is the catch-all
            err = np.abs(point[n] - povm[n])
            assert np.all(err <= 5 * stderr[idx] + 1e-12), (n, err, stderr[idx])


class TestMaximizeDiagonal:
    def test_fig_style_scenario_recovers_diagonals(self):
        state = twin_beam(0.88, 54)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
        data = sample_homodyne_twinbeam(state, povm, HQ, 20_000, seed=5)
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=36)
        result = maximize(problem, min_ll_increase=1e-7, max_iters=4000)
        assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)
        assert result.completeness_deviation <= COMPLETENESS_TOL
        assert result.min_eigenvalue >= POSITIVITY_TOL
        theta = result.povm_hat.diagonal()
        truth = povm.diagonal()
        # coarse accuracy check at this sample size; the acceptance suite
        # runs the full-scale version with bootstrap error bars
        for idx, n in enumerate(problem.outcomes[:-1]):
            if n > 4:
                continue
            err = np.abs(theta[idx, :5] - truth[n, :5])
            assert err.max() < 0.12, (n, err.max())

    def test_column_sums_stay_one_under_updates(self):
        state = twin_beam(0.7, 20)
        povm = noisy_photocounter(0.9, 0.5, fock_cutoff=20, env_cutoff=30)
        data = sample_homodyne_twinbeam(state, povm, HQ, 5_000, seed=6)
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=12, weight_tail_tol=1.0)
        theta = problem.initial()
        for _ in range(30):
            theta = problem.em_update(theta)
            completeness, min_entry = problem.constraint_violation(theta)
            assert completeness <= 1e-12
            assert min_entry >= 0.0

    def test_cutoff_guard(self):
        state = twin_beam(0.88, 54)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=54, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ, 100, seed=7)
        with pytest.raises(CutoffError):
            build_problem_diagonal(data, state, HQ, fock_cutoff=14)

    def test_vacuum_state_response_concentrates_at_zero(self):
        state = twin_beam(0.0, 6)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=6, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ, 500, seed=8)
        problem = build_problem_diagonal(data, state, HQ)
        assert np.all(problem.responses[:, 1:] == 0.0)
        assert np.all(problem.responses[:, 0] > 0.0)

    @pytest.mark.properties
    def test_response_rows_finite_nonnegative_property_scan(self):
        state = twin_beam(0.8, 30)
        rng = np.random.default_rng(9)
        xs = rng.normal(scale=3.0, size=1_000_000)
        data = Dataset(
            np.zeros(xs.size, dtype=np.int64),
            rng.random(xs.size) * np.pi,
            xs,
            0,
            "",
            "homodyne",
        )
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=10, weight_tail_tol=1.0)
        assert np.isfinite(problem.responses).all()
        assert problem.responses.min() >= 0.0

    def test_acceleration_reaches_same_optimum(self):
        # the diagonal problem is concave: both schedules must meet at the top
        state = twin_beam(0.8, 30)
        povm = noisy_photocounter(0.9, 0.3, fock_cutoff=30, env_cutoff=28)
        data = sample_homodyne_twinbeam(state, povm, HQ, 8_000, seed=12)
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=20)
        fast = maximize(problem, min_ll_increase=1e-10, max_iters=20000, gap_tol=1e-4)
        slow = maximize(
            problem, min_ll_increase=1e-10, max_iters=20000, accelerate=False, gap_tol=1e-4
        )
        assert fast.converged
        assert fast.final_log_likelihood >= slow.final_log_likelihood - 1e-6
        assert np.all(np.diff(fast.ll_trace) >= -MONOTONE_SLACK)

    def test_small_cutoff_bias_exceeds_error_bars(self):
        # deliberately truncated model: reconstruction error blows past the
        # statistical spread (the known bias of the likelihood route)
        state = twin_beam(0.7, 30)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=30, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ, 30_000, seed=10)
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=2, weight_tail_tol=1.0)
        result = maximize(problem, min_ll_increase=1e-7, max_iters=2000)
        theta = result.povm_hat.diagonal()
        truth = povm.diagonal()

        def rerun(ds):
            prob = build_problem_diagonal(ds, state, HQ, fock_cutoff=2, weight_tail_tol=1.0)
            start = result.povm_hat if prob.outcomes == problem.outcomes else None
            res = maximize(prob, init=start, min_ll_increase=1e-7, max_iters=2000)
            values = res.povm_hat.diagonal()
            by_outcome = dict(zip(prob.outcomes, values))
            rows = [by_outcome.get(n, np.full(3, np.nan)) for n in problem.outcomes]
            return np.stack(rows).ravel()

        report = bootstrap(data, rerun, n_reps=8, seed=10)
        stderr = report.stdev.reshape(theta.shape)
        ratios = []
        for idx, n in enumerate(problem.outcomes[:-1]):
            if n > 2:
                continue
            err = np.abs(theta[idx] - truth[n, :3])
            with np.errstate(divide="ignore"):
                ratios.append(np.nanmax(err / np.maximum(stderr[idx], 1e-12)))
        assert max(ratios) > 5.0


def small_diagonal_problem():
    state = twin_beam(0.6, 20)
    povm = noisy_photocounter(0.8, 1.0, fock_cutoff=20, env_cutoff=30)
    data = sample_homodyne_twinbeam(state, povm, HQ, 5_000, seed=3)
    return build_problem_diagonal(data, state, HQ, fock_cutoff=14)


def small_finite_problem():
    return make_finite_problem(n_records=5_000, seed=3)[0]


@pytest.mark.parametrize("build", [small_diagonal_problem, small_finite_problem])
class TestCertificate:
    def test_gap_bounds_distance_to_optimum(self, build):
        problem = build()
        # run past the certificate until the likelihood stops moving
        tight = maximize(problem, gap_tol=0.0, min_ll_increase=1e-12, max_iters=20000)
        for max_iters in (0, 1, 5, 20, 20000):
            stopped = maximize(problem, max_iters=max_iters)
            assert stopped.ll_gap >= 0.0
            assert tight.final_log_likelihood - stopped.final_log_likelihood <= stopped.ll_gap
        assert stopped.converged and stopped.ll_gap <= 0.1
        point = problem.from_povm(stopped.povm_hat)
        assert problem.ll_gap(point, problem.gradient(point)) == stopped.ll_gap

    def test_iteration_cap_leaves_solve_uncertified(self, build):
        result = maximize(build(), max_iters=2)
        assert result.iterations == 2
        assert result.ll_gap > 0.1 and not result.converged

    def test_give_up_rule_leaves_solve_uncertified(self, build):
        result = maximize(build(), min_ll_increase=1e12)
        assert result.iterations == 1
        assert result.ll_gap > 0.1 and not result.converged


def test_outcome_rows_match_label_lookup_with_gaps():
    labels = np.array([7, 0, 3, 7, 12, 0, 3, 3, 12])
    outcomes, rows = _outcome_rows(labels)
    assert outcomes == (0, 3, 7, 12, 13)
    index_of = {n: r for r, n in enumerate(outcomes)}
    np.testing.assert_array_equal(rows, [index_of[int(n)] for n in labels])
