import dataclasses

import numpy as np
import pytest

from povmcal.cli import build_detector, build_noise, build_quorum, build_state
from povmcal.detectors import Povm, noisy_photocounter, random_povm
from povmcal.errors import CutoffError, PovmInvariantError
from povmcal.quorum import homodyne_quorum, pauli_quorum, smeared_fock_pdf_table
from povmcal import recon_ml
from povmcal.recon_ml import (
    COMPLETENESS_TOL,
    MONOTONE_SLACK,
    POSITIVITY_TOL,
    PIN_EIGENVALUE,
    FiniteMlProblem,
    build_problem_diagonal,
    build_problem_finite,
    _barrier_newton,
    _em_start,
    _face_block,
    _hermitian_basis,
    _inv_equilibrated,
    _pinv_symmetric,
    _newton_point,
    _outcome_rows,
    maximize,
)
from povmcal.sampler import Dataset, joint_probability_tables, sample_finite, sample_homodyne_twinbeam
from povmcal.scenarios import scenario_config
from povmcal.states import apply_noise_tomo_side, maximally_entangled, twin_beam
from povmcal.stats import bootstrap

from oracles import (
    exact_count_problem,
    former_diagonal_rows,
    former_newton_direction,
    projective_povm,
    row_hessian,
    subset,
)

HQ = homodyne_quorum(6, 0.9, grid=(-6.0, 6.0, 1.0 / 256.0))


def make_finite_problem(n_records=50_000, seed=0, povm_seed=1):
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=povm_seed)
    quorum = pauli_quorum()
    data = sample_finite(state, povm, quorum, n_records, seed=seed)
    return build_problem_finite(data, state, quorum), povm, data, state, quorum


def expected_count_problem(povm_seed=1, n_records=10_000):
    """Finite problem with exact expected counts (infinite-data analogue),
    on the effects that ``build_problem_finite`` computes."""
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=povm_seed)
    quorum = pauli_quorum()
    counts = n_records * joint_probability_tables(state, povm, quorum) / quorum.n_settings
    dummy = sample_finite(state, povm, quorum, 10, seed=0)
    problem = build_problem_finite(dummy, state, quorum)
    return (
        FiniteMlProblem(problem.effects, counts, (0, 1, 2), 2),
        povm,
    )


def oracle_pair(name):
    """State, detector and quorum of the builtin scenario ``name``."""
    cfg = scenario_config(name)
    state = build_state(cfg["state"])
    povm = build_detector(cfg["detector"], state)
    return state, povm, build_quorum(cfg["quorum"], state.dim_tomo)


class TestLogLikelihood:
    def test_trivial_povm_factors_out(self):
        problem, povm, data, state, quorum = make_finite_problem(n_records=2000)
        identity_problem = FiniteMlProblem(
            problem.effects,
            problem.counts.sum(axis=0, keepdims=True),
            (0,),
            2,
        )
        ll = identity_problem.evaluate(
            identity_problem.from_povm(Povm((np.eye(2, dtype=complex),)))
        )[0]
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
        np.testing.assert_allclose(problem.evaluate(theta)[0], expected, rtol=1e-12)

    def test_truth_beats_perturbations_on_expected_counts(self):
        problem, povm = expected_count_problem()
        ll_truth = problem.evaluate(problem.from_povm(povm))[0]
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
            lls.append(problem.evaluate(problem.from_povm(mixed))[0])
            if lls[-1] <= ll_truth:
                worse += 1
        assert ll_truth >= np.mean(lls)
        assert worse >= 18


class TestMaximizeFinite:
    @pytest.mark.parametrize("n_records", [1e5, 1e7])
    @pytest.mark.parametrize("name", ["qubit-oracle", "qutrit-oracle"])
    def test_exact_counts_certify_at_the_truth(self, name, n_records):
        """On the expected counts N p(n, k, m) the true POVM, with a zero
        catch-all element, is the global maximizer (Gibbs' inequality), so a
        converged solve must be certified there: within 1e-8 of the truth,
        and short of its likelihood by no more than the certified gap."""
        state, povm, quorum = oracle_pair(name)
        problem = exact_count_problem(state, povm, quorum, n_records)
        truth = np.concatenate([np.stack(povm.elements), np.zeros((1,) + povm[0].shape)])
        result = maximize(problem)
        assert result.converged
        assert np.abs(problem.from_povm(result.povm_hat) - truth).max() <= 1e-8
        ll_truth = problem.evaluate(truth)[0]
        assert ll_truth - result.final_log_likelihood <= result.ll_gap

    @pytest.mark.parametrize("name", ["qubit-oracle", "qutrit-oracle"])
    def test_effects_match_partial_traces(self, name):
        """The effects T_km of ``build_problem_finite`` are the partial traces
        of explicit tensor products that the exact-count oracle builds."""
        state, povm, quorum = oracle_pair(name)
        data = sample_finite(state, povm, quorum, 10, seed=0)
        effects = build_problem_finite(data, state, quorum).effects
        oracle = exact_count_problem(state, povm, quorum, 1).effects
        np.testing.assert_allclose(effects, oracle, rtol=0, atol=1e-15)

    def test_truth_is_fixed_point_on_expected_counts(self):
        problem, povm = expected_count_problem()
        result = maximize(problem, init=povm, max_iters=50)
        assert result.converged
        assert result.iterations <= 1
        ll0 = problem.evaluate(problem.from_povm(povm))[0]
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

    def test_acceleration_reaches_same_optimum(self, monkeypatch):
        # the finite problem is concave: both schedules must meet at the top
        problem, *_ = make_finite_problem(n_records=20_000, seed=12)
        fast = maximize(problem, min_ll_increase=1e-10, max_iters=20000, gap_tol=1e-4)
        # without the Newton candidate every step is the plain EM update
        monkeypatch.setattr(recon_ml, "_newton_point", lambda *args: None)
        slow = maximize(problem, min_ll_increase=1e-10, max_iters=20000, gap_tol=1e-4)
        assert fast.converged
        assert fast.iterations < slow.iterations
        assert fast.final_log_likelihood >= slow.final_log_likelihood - 1e-6
        assert np.all(np.diff(fast.ll_trace) >= -MONOTONE_SLACK)

    def test_qubit_recovery_within_bootstrap_bars(self):
        problem, povm, data, state, quorum = make_finite_problem(
            n_records=100_000, seed=4, povm_seed=6
        )
        result = maximize(problem)
        point = {
            n: np.asarray(p)
            for n, p in zip(problem.outcomes, result.povm_hat.elements)
        }

        def rerun(rng):
            return np.stack(maximize(problem.draw(rng)).povm_hat.elements)

        stderr = bootstrap(rerun, n_reps=20, seed=4).stdev
        assert stderr.shape == (len(problem.outcomes), 2, 2)
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
        assert not problem.live[-1]
        for k in range(1, 13):
            result = maximize(problem, max_iters=k, gap_tol=0.0)
            assert result.iterations == k
            theta = result.povm_hat.diagonal()
            completeness, min_entry = problem.constraint_violation(theta)
            assert completeness <= 1e-12
            assert theta[problem.live].min() > 0.0
            assert np.all(theta[~problem.live] == 0.0)

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

        def rerun(rng):
            res = maximize(problem.draw(rng), min_ll_increase=1e-7, max_iters=2000)
            return res.povm_hat.diagonal().ravel()

        report = bootstrap(rerun, n_reps=8, seed=10)
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


def count_pseudo_inverse_fallbacks(monkeypatch) -> list:
    """Record the shape of every stack that :func:`_inv_equilibrated` hands
    to the pseudo-inverse because Cholesky rejected it."""
    fallbacks = []

    def counted(matrix):
        fallbacks.append(matrix.shape)
        return _pinv_symmetric(matrix)

    monkeypatch.setattr(recon_ml, "_pinv_symmetric", counted)
    return fallbacks


def test_tight_diagonal_solve_reaches_the_pseudo_inverse_fallback(monkeypatch):
    # the gap_tol=0 solve of TestCertificate runs until rounding leaves blocks
    # that Cholesky rejects; their pseudo-inverse still yields ascent steps
    fallbacks = count_pseudo_inverse_fallbacks(monkeypatch)
    tight = maximize(small_diagonal_problem(), gap_tol=0.0, min_ll_increase=1e-12, max_iters=20000)
    assert fallbacks
    assert np.all(np.diff(tight.ll_trace) >= -MONOTONE_SLACK)
    assert tight.ll_gap <= 1e-6


def test_outcome_rows_match_label_lookup_with_gaps():
    labels = np.array([7, 0, 3, 7, 12, 0, 3, 3, 12])
    outcomes, rows = _outcome_rows(labels)
    assert outcomes == (0, 3, 7, 12, 13)
    index_of = {n: r for r, n in enumerate(outcomes)}
    np.testing.assert_array_equal(rows, [index_of[int(n)] for n in labels])


@pytest.mark.parametrize("eta_h", [0.9, 1.0])
def test_diagonal_rows_match_former_temporaries(eta_h):
    hq = homodyne_quorum(6, eta_h, grid=(-6.0, 6.0, 1.0 / 256.0))
    state = twin_beam(0.88, 54)
    povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
    sampled = sample_homodyne_twinbeam(state, povm, hq, 20_000, seed=4)
    # unsorted labels with gaps, one outcome seen once, and records whose
    # response underflows to zero everywhere
    labels = np.array([9, 2, 40, 5])[np.minimum(sampled.outcome_n, 3)]
    labels[777] = 17
    x = sampled.result.copy()
    x[::1009] = 60.0
    data = Dataset(labels, sampled.setting_k, x, 4, "", "homodyne")

    problem = build_problem_diagonal(data, state, hq, fock_cutoff=36)
    outcomes, rows, row_outcome, record = former_diagonal_rows(
        data, state.diagonal_weights()[:37], eta_h
    )
    assert problem.outcomes == outcomes == (2, 5, 9, 17, 40, 41)
    assert record.size == len(data) - 20
    assert problem.rows.flags.c_contiguous
    np.testing.assert_array_equal(problem.rows, rows)
    np.testing.assert_array_equal(problem.row_outcome, row_outcome)
    np.testing.assert_array_equal(problem.record, record)
    np.testing.assert_array_equal(problem.row_bin, np.round(64.0 * data.result[record]))


def _resample_counts(data, seed):
    indices = np.random.default_rng(seed).integers(0, len(data), len(data))
    return indices, np.bincount(indices, minlength=len(data))


def _rows_by_outcome(problem):
    """(outcome label, response row) of every record, ordered by outcome, then
    by the vacuum response (q_0 is even in x, so only +-x pairs tie)."""
    labels = np.asarray(problem.outcomes)[problem.outcome_index]
    pairs = np.column_stack([labels, problem.responses])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class TestResample:
    def diagonal(self):
        state = twin_beam(0.6, 20)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=20, env_cutoff=30)
        data = sample_homodyne_twinbeam(state, povm, HQ, 5_000, seed=3)
        return build_problem_diagonal(data, state, HQ, fock_cutoff=14), data, state

    def test_diagonal_matches_rebuilt_subset(self):
        problem, data, state = self.diagonal()
        indices, counts = _resample_counts(data, 21)
        resampled = problem.resample(indices)
        rebuilt = build_problem_diagonal(subset(data, indices), state, HQ, fock_cutoff=14)
        assert resampled.outcomes == rebuilt.outcomes == problem.outcomes
        assert len(resampled.rows) == np.count_nonzero(counts)
        rng = np.random.default_rng(22)
        for theta in (resampled.initial(), rng.random((problem.n_outcomes, problem.dim))):
            theta = theta / theta.sum(axis=0)
            ll, grad = resampled.evaluate(theta)
            ll_ref, grad_ref = rebuilt.evaluate(theta)
            np.testing.assert_allclose(ll, ll_ref, rtol=1e-9)
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-9)
            np.testing.assert_allclose(
                resampled.hessian(theta, resampled.bins()),
                rebuilt.hessian(theta, rebuilt.bins()),
                rtol=1e-9,
            )

    def test_diagonal_records_are_the_subsets_as_multisets(self):
        problem, data, state = self.diagonal()
        indices, counts = _resample_counts(data, 23)
        resampled = problem.resample(indices)
        rebuilt = build_problem_diagonal(subset(data, indices), state, HQ, fock_cutoff=14)
        assert resampled.responses.shape == rebuilt.responses.shape == (len(data), problem.dim)
        # the response table is one matrix product, so rows computed in another
        # batch may differ in the last bit
        np.testing.assert_allclose(
            _rows_by_outcome(resampled), _rows_by_outcome(rebuilt), rtol=1e-12, atol=0.0
        )
        # unit draw counts give back the point problem's own rows
        whole = problem.resample(np.arange(len(data)))
        assert whole.responses is whole.rows
        np.testing.assert_array_equal(whole.rows, problem.rows)
        np.testing.assert_array_equal(whole.outcome_index, problem.outcome_index)

    def test_unit_weight_sweep_is_bit_identical_to_plain_sweep(self):
        problem, *_ = self.diagonal()
        theta = np.random.default_rng(24).random((problem.n_outcomes, problem.dim))
        theta /= theta.sum(axis=0)
        ll, grad = problem.evaluate(theta)
        expected_ll, expected_grad = 0.0, np.zeros_like(theta)
        for r in range(problem.n_outcomes):
            block = problem.rows[problem.row_outcome == r]
            if block.shape[0]:
                denom = np.maximum(block @ theta[r], 1e-300)
                expected_ll += float(np.log(denom).sum())
                expected_grad[r] = block.T @ (1.0 / denom)
        assert ll == expected_ll
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(problem.gradient(theta), grad)

    def test_finite_draw_has_the_multinomial_law(self):
        # drawing N records with replacement fills the cells multinomially
        # with probabilities p = counts / N: mean N p, covariance
        # N (diag p - p p^T), each held to 4 standard errors of 4000 draws
        problem, *_ = make_finite_problem(n_records=60, seed=11)
        n = problem.counts.sum()
        p = problem.counts.ravel() / n
        rng = np.random.default_rng(27)
        draws = np.stack([problem.draw(rng).counts.ravel() for _ in range(4000)])
        assert draws.dtype == problem.counts.dtype
        assert np.all(draws.sum(axis=1) == n)
        assert np.all(draws[:, p == 0.0] == 0.0)
        mean = draws.mean(axis=0)
        assert np.all(np.abs(mean - n * p) <= 4.0 * draws.std(axis=0) / np.sqrt(len(draws)))
        centred = draws - mean
        products = centred[:, :, None] * centred[:, None, :]
        covariance = products.mean(axis=0)
        stderr = products.std(axis=0) / np.sqrt(len(draws))
        expected = n * (np.diag(p) - np.outer(p, p))
        assert np.all(np.abs(covariance - expected) <= 4.0 * stderr + 1e-9)

    def test_diagonal_draw_resamples_the_drawn_indices(self):
        problem, data, _ = self.diagonal()
        drawn = problem.draw(np.random.default_rng(28))
        resampled = problem.resample(np.random.default_rng(28).integers(0, len(data), len(data)))
        assert drawn.n_records == resampled.n_records == len(data)
        for name in ("rows", "row_outcome", "multiplicity", "record"):
            np.testing.assert_array_equal(getattr(drawn, name), getattr(resampled, name))

    @pytest.mark.parametrize("draw", ["whole", "lower_half"])
    def test_indices_give_exactly_the_draw_counts(self, draw):
        # reference: the count form, dataset record i weighted by its draw count
        problem, data, _ = self.diagonal()
        # drawing from the lower half only leaves the last records undrawn
        high = len(data) if draw == "whole" else len(data) // 2
        indices = np.random.default_rng(26).integers(0, high, len(data))
        counts = np.bincount(indices, minlength=len(data))
        resampled = problem.resample(indices)
        multiplicity = counts.astype(float)[problem.record]
        drawn = np.flatnonzero(multiplicity)
        assert resampled.multiplicity.dtype == problem.multiplicity.dtype
        np.testing.assert_array_equal(resampled.multiplicity, multiplicity[drawn])
        np.testing.assert_array_equal(resampled.record, problem.record[drawn])
        np.testing.assert_array_equal(resampled.row_outcome, problem.row_outcome[drawn])
        np.testing.assert_array_equal(resampled.rows, problem.rows[drawn])

    @pytest.mark.parametrize("kind", ["diagonal", "finite"])
    def test_missing_outcome_solves_to_zero(self, kind):
        if kind == "diagonal":
            problem, data, _ = self.diagonal()
        else:
            problem, _, data, *_ = make_finite_problem(n_records=5_000, seed=8)
        labels = np.asarray(problem.outcomes[:-1])
        dropped = labels[1]
        row = problem.outcomes.index(int(dropped))
        # every record drawn twice, except those of one outcome
        if kind == "diagonal":
            counts = np.where(data.outcome_n == dropped, 0, 2)
            resampled = problem.resample(np.repeat(np.arange(len(data)), counts))
        else:
            counts = 2.0 * problem.counts
            counts[row] = 0.0
            resampled = dataclasses.replace(problem, counts=counts)
        result = maximize(resampled)
        values = np.stack([np.asarray(p) for p in result.povm_hat.elements])
        assert result.converged
        assert np.all(np.isfinite(values))
        assert np.all(values[row] == 0.0)


class TestAcceleratedStep:
    def test_finite_projection_matches_per_outcome_eigh(self):
        problem = small_finite_problem()
        shape = (problem.n_outcomes, 2, 2)
        rng = np.random.default_rng(26)
        for _ in range(200):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            shifted = x + (np.eye(2) - x.sum(axis=0)) / problem.n_outcomes
            expected = []
            for p in shifted:
                w, u = np.linalg.eigh((p + p.conj().T) / 2.0)
                expected.append((u * np.clip(w, 0.0, None)) @ u.conj().T)
            np.testing.assert_array_equal(problem.project(x), np.stack(expected))


class TestNewtonCandidate:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_face_block_matches_the_four_operand_contraction(self, dim):
        rng = np.random.default_rng(dim)
        basis = _hermitian_basis(dim)
        shape = (200, dim, dim)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        _, u = np.linalg.eigh(g + g.conj().transpose(0, 2, 1))
        # projectors onto random subsets of eigen-directions, empty and full included
        pinned = rng.random((shape[0], dim)) < 0.5
        pinned[0], pinned[1] = False, True
        face = (u * pinned[:, None, :]) @ u.conj().transpose(0, 2, 1)
        expected = np.real(np.einsum("aij,njk,bkl,nli->nab", basis, face, basis, face))
        assert np.abs(_face_block(basis, face) - expected).max() <= 1e-15

    def test_one_step_from_a_near_optimal_interior_point_cuts_the_gap(self):
        problem, *_ = make_finite_problem(n_records=50_000, seed=0)
        # plain EM updates until the certified gap is at most 1
        point = problem.initial()
        ll, grad = problem.evaluate(point)
        while problem.ll_gap(point, grad) > 1.0:
            point = problem.em_update(point, grad)
            ll, grad = problem.evaluate(point)
        # every outcome with records sits inside the cone
        assert np.linalg.eigvalsh(point[:-1]).min() > 1e-3
        gap = problem.ll_gap(point, grad)
        assert 0.1 < gap <= 1.0
        stepped, ll_stepped, grad_stepped = _newton_point(problem, point, ll, grad)
        assert ll_stepped > ll
        assert problem.ll_gap(stepped, grad_stepped) <= gap / 100.0

    def test_pinned_direction_gets_no_step(self):
        # projective truth: the ML element P_0 = v v^dag is rank one; moving
        # weight eps of v v^dag to P_1 leaves the optimum but not P_0's face
        state, quorum = maximally_entangled(2), pauli_quorum()
        data = sample_finite(state, projective_povm(np.eye(2)), quorum, 5_000, seed=1)
        problem = build_problem_finite(data, state, quorum)
        point = problem.from_povm(maximize(problem).povm_hat)
        w, vectors = np.linalg.eigh(point[0])
        u, v = vectors[:, 0], vectors[:, 1]
        assert abs(w[0]) < 1e-12 and abs(w[1] - 1.0) < 1e-3
        eps = 0.05
        point[0] -= eps * np.outer(v, v.conj())
        point[1] += eps * np.outer(v, v.conj())
        _, grad = problem.evaluate(point)
        direction = problem.newton_direction(point, grad)
        lagrange = np.einsum("nij,njk->ik", grad, point)
        lagrange = (lagrange + lagrange.conj().T) / 2.0
        assert np.real(u.conj() @ point[0] @ u) <= PIN_EIGENVALUE
        assert np.real(u.conj() @ (grad[0] - lagrange) @ u) <= 0.0
        # the step restores the weight along v but leaves u alone
        assert np.real(v.conj() @ direction[0] @ v) > eps / 2.0
        assert np.abs(u.conj() @ direction[0] @ u) <= 1e-12 * np.abs(direction).max()
        # the outcome nobody recorded gets no step at all
        assert problem.counts[-1].sum() == 0.0
        assert np.all(direction[-1] == 0.0)

    def test_newton_direction_matches_einsum_and_pinv_form(self):
        # near an optimum the step is a small difference of O(1) terms, so
        # the forms are compared where it is not: at the uniform start and
        # early iterates, and at a boundary point with pinned directions and
        # an outcome without records
        points = []
        problem, *_ = make_finite_problem(n_records=50_000, seed=0)
        near = problem.initial()
        for _ in range(10):
            near = problem.em_update(near)
        points += [(problem, problem.initial()), (problem, near)]
        state, quorum = maximally_entangled(2), pauli_quorum()
        data = sample_finite(state, projective_povm(np.eye(2)), quorum, 5_000, seed=1)
        projective = build_problem_finite(data, state, quorum)
        point = projective.from_povm(maximize(projective).povm_hat)
        v = np.linalg.eigh(point[0])[1][:, 1]
        point[0] -= 0.05 * np.outer(v, v.conj())
        point[1] += 0.05 * np.outer(v, v.conj())
        points.append((projective, point))
        qutrit = maximally_entangled(3)
        bases = build_quorum({"kind": "random_bases", "n_settings": 4, "seed": 5}, 3)
        data = sample_finite(qutrit, random_povm(3, 4, seed=11), bases, 20_000, seed=2)
        problem = build_problem_finite(data, qutrit, bases)
        near = maximize(problem, max_iters=1).povm_hat
        points += [(problem, problem.initial()), (problem, problem.from_povm(near))]
        for problem, point in points:
            _, grad = problem.evaluate(point)
            direction = problem.newton_direction(point, grad)
            expected = former_newton_direction(problem, point, grad)
            assert np.abs(direction - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_qutrit_grid_slice_certifies_with_monotone_traces(self):
        # qutrit-oracle physics; detector seed 3, data seed 2, no noise,
        # repetition 0 is a boundary optimum that a frozen support stalls on
        cfg = scenario_config("qutrit-oracle")
        state = build_state(cfg["state"])
        quorum = build_quorum(dict(cfg["quorum"], seed=2), state.dim_tomo)
        solved = 0
        for detector_seed in (3, 11):
            povm = build_detector(dict(cfg["detector"], seed=detector_seed), state)
            for noise in (None, {"kind": "depolarizing", "p": 0.1}):
                noise_map = build_noise(noise, state.dim_tomo)
                sampled = apply_noise_tomo_side(state, noise_map) if noise_map else state
                for data_seed in (1, 2, 3):
                    data = sample_finite(sampled, povm, quorum, 20_000, seed=data_seed)
                    problem = build_problem_finite(data, sampled, quorum)
                    problems = [problem]
                    for rep in range(3):
                        problems.append(problem.draw(np.random.default_rng([data_seed, 2, rep])))
                    for p in problems:
                        result = maximize(p)
                        assert result.converged, (detector_seed, noise, data_seed, result.ll_gap)
                        assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)
                        solved += 1
        assert solved == 48

    def test_failed_newton_candidate_falls_back_to_the_em_proposal(self, monkeypatch):
        # qutrit-oracle physics; detector seed 11, data seed 4, no noise: a
        # cold repetition on which the Newton candidate sometimes loses
        cfg = scenario_config("qutrit-oracle")
        state = build_state(cfg["state"])
        quorum = build_quorum(dict(cfg["quorum"], seed=2), state.dim_tomo)
        povm = build_detector(dict(cfg["detector"], seed=11), state)
        data = sample_finite(state, povm, quorum, 10_000, seed=4)
        problem = build_problem_finite(data, state, quorum).draw(np.random.default_rng([4, 2, 1]))
        newton_point = recon_ml._newton_point
        failures = 0

        def counted(*args):
            nonlocal failures
            candidate = newton_point(*args)
            failures += candidate is None
            return candidate

        monkeypatch.setattr(recon_ml, "_newton_point", counted)
        result = maximize(problem)
        assert failures >= 1
        assert result.converged
        assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)
        assert result.completeness_deviation <= COMPLETENESS_TOL
        assert result.min_eigenvalue >= POSITIVITY_TOL


def fig4_problem(seed):
    """The builtin fig4 scenario's diagonal ML problem at data seed ``seed``."""
    cfg = dict(scenario_config("fig4"), seed=seed)
    state = build_state(cfg["state"])
    povm = build_detector(cfg["detector"], state)
    hq = build_quorum(cfg["quorum"], state.dim_tomo)
    data = sample_homodyne_twinbeam(state, povm, hq, cfg["n_records"], seed, cfg["name"])
    return build_problem_diagonal(data, state, hq, cfg["ml"]["fock_cutoff"])


def test_fig4_seed_1_point_estimate_certifies_quickly():
    # data seed 1 of the fig4 scenario needed 1581 iterations when the second
    # fixed-point step was always evaluated and the jump stalled at the
    # positivity boundary, and about 200 under the extrapolated EM ascent
    result = maximize(fig4_problem(1))
    assert result.converged
    assert result.iterations <= 40


def test_fig4_seed_3_repetition_0_certifies():
    # the EM ascent ended this repetition uncertified at gap 0.65: the slack
    # sat on <9|P_0|9> ~ 8e-10, which multiplicative updates cannot revive
    problem = fig4_problem(3).draw(np.random.default_rng([3, 2, 0]))
    result = maximize(problem)
    assert result.converged
    assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)


class TestInteriorPoint:
    @staticmethod
    def problem_with_empty_outcome():
        """A small diagonal problem in which outcome 1 and the catch-all
        have no rows."""
        state = twin_beam(0.6, 20)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=20, env_cutoff=30)
        data = sample_homodyne_twinbeam(state, povm, HQ, 5_000, seed=3)
        problem = build_problem_diagonal(data, state, HQ, fock_cutoff=10)
        kept = np.flatnonzero(data.outcome_n != problem.outcomes[1])
        resampled = problem.resample(kept)
        assert resampled.live.tolist() == [True, False] + [True] * (problem.n_outcomes - 3) + [
            False
        ]
        return resampled

    def test_block_step_matches_dense_kkt_solve(self):
        """The (M_n, S) step solves the full Newton system of the barrier
        problem: blocks H_n + Z_n/Theta_n, completeness rows, and Delta
        theta_n = 0 for the outcomes without rows, where H_n sums
        N_b rbar_b rbar_b^T / (rbar_b . theta[n])^2 over the record counts
        N_b and mean rows rbar_b of outcome n's quadrature bins."""
        problem = self.problem_with_empty_outcome()
        live, dim = problem.live, problem.dim
        rng = np.random.default_rng(31)
        theta = problem.initial() * rng.uniform(0.5, 1.5, problem.initial().shape)
        theta /= theta.sum(axis=0)
        z = rng.uniform(0.1, 10.0, theta[live].shape)
        b = rng.normal(size=theta[live].shape) * 100.0
        dnu, dx = _barrier_newton(problem, theta, z, problem.bins())(b)

        size = problem.n_outcomes * dim
        kkt = np.zeros((size + dim, size + dim))
        rhs = np.zeros(size + dim)
        counts, sums = {}, {}
        for i in range(len(problem.rows)):
            key = (problem.row_outcome[i], problem.row_bin[i])
            counts[key] = counts.get(key, 0.0) + problem.multiplicity[i]
            sums[key] = sums.get(key, 0.0) + problem.multiplicity[i] * problem.rows[i]
        for n, row in enumerate(np.flatnonzero(live)):
            span = slice(row * dim, (row + 1) * dim)
            kkt[span, span] = np.diag(z[n] / theta[row])
            kkt[span, size:] = np.eye(dim)
            rhs[span] = b[n]
        for (row, bin_), count in counts.items():
            mean = sums[row, bin_] / count
            span = slice(row * dim, (row + 1) * dim)
            kkt[span, span] += count * np.outer(mean, mean) / (mean @ theta[row]) ** 2
        for row in np.flatnonzero(~live):
            span = slice(row * dim, (row + 1) * dim)
            kkt[span, span] = np.eye(dim)
        kkt[size:, :size] = np.tile(np.eye(dim), problem.n_outcomes)
        solution = np.linalg.solve(kkt, rhs)
        step = solution[:size].reshape(problem.n_outcomes, dim)

        assert np.all(step[~live] == 0.0)
        assert np.abs(dx - step[live]).max() <= 1e-10 * np.abs(step).max()
        assert np.abs(dnu - solution[size:]).max() <= 1e-10 * np.abs(solution[size:]).max()

    def test_outcomes_without_rows_solve_to_exactly_zero(self):
        problem = self.problem_with_empty_outcome()
        result = maximize(problem)
        theta = result.povm_hat.diagonal()
        assert result.converged
        assert np.all(theta[~problem.live] == 0.0)
        assert theta[problem.live].min() > 0.0

    def test_diagonal_solves_take_no_em_step(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a diagonal solve reached the EM ascent")

        monkeypatch.setattr(recon_ml, "_em_step", unreachable)
        assert maximize(small_diagonal_problem()).converged

    def test_init_is_the_start_point(self):
        problem = small_diagonal_problem()
        start = problem.from_povm(maximize(problem, max_iters=3).povm_hat)
        stopped = maximize(problem, init=problem.to_povm(start), max_iters=0)
        np.testing.assert_array_equal(stopped.povm_hat.diagonal(), start)
        warm = maximize(problem, init=problem.to_povm(start))
        assert warm.converged
        assert warm.ll_trace[0] == stopped.final_log_likelihood

    @pytest.mark.parametrize("build", [problem_with_empty_outcome, small_diagonal_problem])
    def test_cold_start_is_interior_and_complete(self, build):
        problem = build()
        start = _em_start(problem)
        assert start[problem.live].min() > 0.0
        assert np.all(start[~problem.live] == 0.0)
        assert np.abs(start.sum(axis=0) - 1.0).max() <= 1e-15
        assert not np.array_equal(start, problem.initial())
        stopped = maximize(problem, max_iters=0)
        np.testing.assert_array_equal(stopped.povm_hat.diagonal(), start)

    def test_cold_start_keeps_a_column_with_a_zero_live_entry_uniform(self):
        problem = small_diagonal_problem()
        rows = problem.rows.copy()
        rows[problem.row_outcome == 2, 3] = 0.0
        zeroed = dataclasses.replace(problem, rows=rows)
        start = _em_start(zeroed)
        np.testing.assert_array_equal(start[:, 3], zeroed.initial()[:, 3])
        assert not np.array_equal(start[:, 2], zeroed.initial()[:, 2])
        assert maximize(zeroed).converged

    @pytest.mark.parametrize("where", ["zero_on_live", "weight_on_catch_all"])
    def test_init_off_the_interior_is_rejected(self, where):
        problem = small_diagonal_problem()
        theta = problem.initial()
        if where == "zero_on_live":
            theta[0, 3], theta[1, 3] = 0.0, theta[1, 3] + theta[0, 3]
        else:
            theta[:, 3] = 1.0 / problem.n_outcomes
        with pytest.raises(PovmInvariantError):
            maximize(problem, init=problem.to_povm(theta))


@pytest.mark.parametrize("seed", [2024, 1, 3, 5, 7, 11])
def test_fig4_solves_certify_in_few_iterations(seed, monkeypatch):
    """The point estimate and three bootstrap repetitions of fig4 data, with
    every block stack inverted by Cholesky."""
    fallbacks = count_pseudo_inverse_fallbacks(monkeypatch)
    problem = fig4_problem(seed)
    draws = [problem.draw(np.random.default_rng([seed, 2, rep])) for rep in range(3)]
    for p in [problem] + draws:
        result = maximize(p)
        assert result.converged and result.iterations <= 25, (seed, result.iterations)
        assert not fallbacks, (seed, fallbacks)
        assert np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)
        assert result.completeness_deviation <= COMPLETENESS_TOL
        assert result.min_eigenvalue >= POSITIVITY_TOL


def test_cholesky_inverse_matches_the_pseudo_inverse_on_fig4_blocks(monkeypatch):
    """At the start point and mid-solve of a fig4 solve, the Cholesky inverse
    of the Jacobi-scaled barrier blocks H_n + Z_n/Theta_n, and of their S,
    equals the pseudo-inverse of the same scaled stack."""
    points = []

    def recorded(problem, theta, z, bins):
        points.append((theta, z))
        return _barrier_newton(problem, theta, z, bins)

    monkeypatch.setattr(recon_ml, "_barrier_newton", recorded)
    problem = fig4_problem(2024)
    assert maximize(problem).converged
    for theta, z in (points[0], points[len(points) // 2]):
        blocks = problem.hessian(theta, problem.bins())[problem.live]
        np.einsum("nii->ni", blocks)[...] += z / theta[problem.live]
        inverse = _inv_equilibrated(blocks)
        for stack in (blocks, inverse.sum(axis=0)):
            scale = 1.0 / np.sqrt(np.einsum("...ii->...i", stack))
            outer = scale[..., :, None] * scale[..., None, :]
            reference = _pinv_symmetric(stack * outer) * outer
            error = np.abs(_inv_equilibrated(stack) - reference).max(axis=(-2, -1))
            assert np.all(error <= 1e-12 * np.abs(reference).max(axis=(-2, -1)))


def test_bin_mean_hessian_is_close_to_the_row_hessian_on_fig4_blocks(monkeypatch):
    """At the start point and mid-solve of a fig4 solve, the Newton blocks
    from quadrature-bin mean rows lie within 2e-3 of the row Hessian in the
    Jacobi-scaled metric max |D (H_bins - H_rows) D|, D = diag(H_rows)^-1/2
    per block.  Bin centres in place of the means miss by about 0.1."""
    points = []

    def recorded(problem, theta, z, bins):
        points.append(theta)
        return _barrier_newton(problem, theta, z, bins)

    monkeypatch.setattr(recon_ml, "_barrier_newton", recorded)
    problem = fig4_problem(2024)
    assert maximize(problem).converged
    for theta in (points[0], points[len(points) // 2]):
        exact = row_hessian(problem, theta)[problem.live]
        binned = problem.hessian(theta, problem.bins())[problem.live]
        scale = 1.0 / np.sqrt(np.einsum("nii->ni", exact))
        error = np.abs((binned - exact) * scale[:, :, None] * scale[:, None, :]).max()
        assert error <= 2e-3, error
