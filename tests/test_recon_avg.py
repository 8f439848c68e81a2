import numpy as np
import pytest

from povmcal.detectors import Povm, noisy_photocounter, random_povm
from povmcal.qmath import partial_trace_first, tensor_product
from povmcal.quorum import (
    compute_dual_set,
    depolarizing_superoperator,
    homodyne_quorum,
    noise_map_from_superoperator,
    pauli_quorum,
    random_basis_quorum,
)
from povmcal.recon_avg import (
    estimate_conditioned_finite,
    estimate_conditioned_finite_exact,
    estimate_conditioned_homodyne,
    project_to_povm,
    recover_povm,
)
from povmcal.sampler import sample_finite, sample_homodyne_twinbeam
from povmcal.states import (
    apply_noise_tomo_side,
    build_diagonal_map_R,
    build_map_R,
    maximally_entangled,
    twin_beam,
)

from test_sampler import fock_pair_state

HQ = homodyne_quorum(6, 0.9, grid=(-6.0, 6.0, 1.0 / 256.0))


def conditioned_oracle(state, povm, n):
    """rho_n = Tr_1[(P_n (x) 1) R] / p(n), computed directly."""
    d = state.dim_tomo
    raw = partial_trace_first(
        tensor_product(povm[n], np.eye(d)) @ state.rho, state.dim_system
    )
    p_n = float(np.real(np.trace(raw)))
    return raw / p_n, p_n


class TestConditionedFiniteExact:
    def test_matches_direct_formula(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=1)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        estimates = estimate_conditioned_finite_exact(state, povm, quorum, duals)
        assert [e.outcome_n for e in estimates] == [0, 1, 2]
        for est in estimates:
            rho_n, p_n = conditioned_oracle(state, povm, est.outcome_n)
            np.testing.assert_allclose(est.rho_hat, rho_n, atol=1e-10)
            np.testing.assert_allclose(est.p_hat_n, p_n, atol=1e-12)

    def test_trivial_povm_reduces_to_tomo_state(self):
        state = maximally_entangled(2)
        povm = Povm((np.eye(2, dtype=complex),))
        duals = compute_dual_set(pauli_quorum())
        (est,) = estimate_conditioned_finite_exact(state, povm, pauli_quorum(), duals)
        np.testing.assert_allclose(est.rho_hat, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(est.p_hat_n, 1.0, atol=1e-12)


class TestConditionedFiniteSampled:
    def test_entries_within_5_stderr(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=1)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        hits = total = 0
        for seed in range(20):
            data = sample_finite(state, povm, quorum, 100_000, seed=seed)
            for est in estimate_conditioned_finite(data, quorum, duals):
                rho_n, _ = conditioned_oracle(state, povm, est.outcome_n)
                err = np.abs(est.rho_hat - rho_n)
                hits += int((err < 5 * est.stderr).sum())
                total += err.size
        assert hits / total >= 0.95

    def test_frequencies_sum_to_one(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=1)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        data = sample_finite(state, povm, quorum, 10_000, seed=0)
        estimates = estimate_conditioned_finite(data, quorum, duals)
        assert sum(e.p_hat_n for e in estimates) == 1.0

    @pytest.mark.properties
    def test_stderr_scales_inverse_sqrt_n(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=1)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        medians = []
        for n_records in (20_000, 80_000):
            pooled = []
            for seed in range(5):
                data = sample_finite(state, povm, quorum, n_records, seed=seed)
                for est in estimate_conditioned_finite(data, quorum, duals):
                    pooled.extend(est.stderr.ravel())
            medians.append(np.median(pooled))
        ratio = medians[0] / medians[1]
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2  # 4x data -> ~2x smaller, within 20%


class TestConditionedHomodyne:
    def test_pure_fock_arm(self):
        j = 3
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=6, env_cutoff=1)
        data = sample_homodyne_twinbeam(fock_pair_state(j, 7), povm, HQ, 60_000, seed=0)
        estimates, clipped = estimate_conditioned_homodyne(data, HQ)
        assert clipped < 1e-3
        (est,) = [e for e in estimates if e.outcome_n == j]
        target = np.eye(7)[j]
        assert np.all(np.abs(est.rho_hat - target) < 5 * est.stderr)

    def test_twin_beam_ideal_counter_diagonal(self):
        state = twin_beam(0.88, 54)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=54, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ, 200_000, seed=1)
        estimates, _ = estimate_conditioned_homodyne(data, HQ)
        for est in estimates:
            if est.outcome_n > 6 or est.count < 2000:
                continue
            target = np.eye(7)[est.outcome_n]
            assert np.all(np.abs(est.rho_hat - target) < 5 * est.stderr), est.outcome_n

    def test_smeared_vacuum_recovers_unity(self):
        state = twin_beam(0.0, 6)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=6, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ, 100_000, seed=2)
        estimates, _ = estimate_conditioned_homodyne(data, HQ)
        est = estimates[0]
        assert abs(est.rho_hat[0] - 1.0) < 5 * est.stderr[0]
        for m in range(1, 7):
            assert abs(est.rho_hat[m]) < 5 * est.stderr[m]


class TestRecoverPovm:
    def test_exact_round_trip_qubit(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=1)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        map_r = build_map_R(state)
        estimates = estimate_conditioned_finite_exact(state, povm, quorum, duals)
        recovered = recover_povm(estimates, map_r)
        for idx, n in enumerate(recovered.outcomes):
            np.testing.assert_allclose(recovered.values[idx], povm[n], atol=1e-8)
        assert recovered.completeness_deviation < 1e-8

    def test_exact_round_trip_qutrit(self):
        state = maximally_entangled(3)
        povm = random_povm(3, 4, seed=2)
        quorum = random_basis_quorum(3, 4, seed=3)
        duals = compute_dual_set(quorum)
        map_r = build_map_R(state)
        estimates = estimate_conditioned_finite_exact(state, povm, quorum, duals)
        recovered = recover_povm(estimates, map_r)
        for idx, n in enumerate(recovered.outcomes):
            np.testing.assert_allclose(recovered.values[idx], povm[n], atol=1e-8)

    def test_noise_corrected_pipeline_exact(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=4)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        noise = noise_map_from_superoperator(depolarizing_superoperator(0.3, 2))
        noisy_state = apply_noise_tomo_side(state, noise)
        map_r = build_map_R(state)  # map of the *noiseless* state
        estimates = estimate_conditioned_finite_exact(
            noisy_state, povm, quorum, duals, noise
        )
        recovered = recover_povm(estimates, map_r)
        for idx, n in enumerate(recovered.outcomes):
            np.testing.assert_allclose(recovered.values[idx], povm[n], atol=1e-8)

    def test_noise_corrected_pipeline_sampled(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=4)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        noise = noise_map_from_superoperator(depolarizing_superoperator(0.3, 2))
        noisy_state = apply_noise_tomo_side(state, noise)
        map_r = build_map_R(state)
        data = sample_finite(noisy_state, povm, quorum, 200_000, seed=5)
        estimates = estimate_conditioned_finite(data, quorum, duals, noise)
        recovered = recover_povm(estimates, map_r)
        for idx, n in enumerate(recovered.outcomes):
            err = np.abs(recovered.values[idx] - povm[n])
            assert np.all(err < 6 * recovered.stderr[idx] + 1e-12)

    @staticmethod
    def _twin_beam_counter():
        state = twin_beam(0.88, 54)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
        hq = homodyne_quorum(6, 0.9, grid=(-6.0, 6.0, 1.0 / 256.0), unbias_cutoff=14)
        data = sample_homodyne_twinbeam(state, povm, hq, 50_000, seed=6)
        estimates, _ = estimate_conditioned_homodyne(data, hq)
        recovered = recover_povm(estimates, build_diagonal_map_R(state, cutoff=6))
        return state, hq, data, estimates, recovered

    def test_twin_beam_diagonal_inverse_weights(self):
        state, _, _, estimates, recovered = self._twin_beam_counter()
        weights = state.diagonal_weights()[:7]
        for idx, n in enumerate(recovered.outcomes):
            est = next(e for e in estimates if e.outcome_n == n)
            np.testing.assert_allclose(
                recovered.values[idx], est.p_hat_n * est.rho_hat[:7] / weights, rtol=1e-10
            )
            # p_hat_n * stderr(rho_n) plus the fluctuation of p_hat_n itself
            expected = np.sqrt(
                (est.p_hat_n * est.stderr[:7] / weights) ** 2
                + (1.0 - est.p_hat_n) * recovered.values[idx] ** 2 / est.count
            )
            np.testing.assert_allclose(recovered.stderr[idx], expected, rtol=1e-10)

    def test_diagonal_stderr_is_the_per_record_spread(self):
        # P_n = (1/N) sum_i 1[n_i = n] M^-1 K(x_i) is a mean over all N
        # records, so its stderr is the spread of that per-record term
        state, hq, data, _, recovered = self._twin_beam_counter()
        kernels, _ = hq.kernel_table.evaluate(data.result)
        per_record = kernels[:7] / state.diagonal_weights()[:7, None]
        for idx, n in enumerate(recovered.outcomes):
            if data.counts_by_n[n] < 1000:
                continue
            term = np.where(data.outcome_n == n, per_record, 0.0)
            spread = term.std(axis=1, ddof=1) / np.sqrt(len(data))
            np.testing.assert_allclose(recovered.stderr[idx], spread, rtol=1e-3)

    def test_trivial_povm_completeness(self):
        state = maximally_entangled(2)
        povm = Povm((np.eye(2, dtype=complex),))
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        map_r = build_map_R(state)
        data = sample_finite(state, povm, quorum, 50_000, seed=7)
        estimates = estimate_conditioned_finite(data, quorum, duals)
        recovered = recover_povm(estimates, map_r)
        err = np.abs(recovered.values[0] - np.eye(2))
        assert np.all(err < 5 * recovered.stderr[0] + 1e-12)

    @pytest.mark.properties
    def test_completeness_drift_within_errors(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=8)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        map_r = build_map_R(state)
        data = sample_finite(state, povm, quorum, 100_000, seed=9)
        estimates = estimate_conditioned_finite(data, quorum, duals)
        recovered = recover_povm(estimates, map_r)
        total = recovered.values.sum(axis=0)
        combined = np.sqrt((recovered.stderr**2).sum(axis=0))
        assert np.all(np.abs(total - np.eye(2)) < 5 * combined)


def test_project_to_povm_restores_invariants():
    state = maximally_entangled(2)
    povm = random_povm(2, 3, seed=10)
    quorum = pauli_quorum()
    duals = compute_dual_set(quorum)
    map_r = build_map_R(state)
    data = sample_finite(state, povm, quorum, 2_000, seed=11)
    estimates = estimate_conditioned_finite(data, quorum, duals)
    recovered = recover_povm(estimates, map_r)
    projected = project_to_povm(recovered)
    projected.validate(herm_tol=1e-10, eig_tol=-1e-9, completeness_tol=1e-8)


def test_project_to_povm_diagonal():
    values = np.array([[0.7, -0.05, 1.1], [0.4, 1.0, 0.05]])
    from povmcal.recon_avg import PovmEstimate

    estimate = PovmEstimate(
        (0, 1), values, np.zeros_like(values), np.array([0.5, 0.5]), "diagonal", 0.1, -0.05
    )
    povm = project_to_povm(estimate)
    diag = povm.diagonal()
    assert diag.min() >= 0.0
    np.testing.assert_allclose(diag.sum(axis=0), 1.0, atol=1e-12)
