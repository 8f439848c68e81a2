import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcal.detectors import (
    noisy_photocounter,
    photocounter_response,
    projective_povm,
    random_povm,
)
from povmcal.errors import PovmInvariantError, TailMassError

from oracles import beam_splitter_counter_oracle, random_density, thermal_state


class TestProjectivePovm:
    def test_computational_basis(self):
        povm = projective_povm(np.eye(2))
        np.testing.assert_array_equal(povm[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(povm[1], np.diag([0.0, 1.0]))

    def test_hadamard_basis(self):
        s = 1 / np.sqrt(2)
        povm = projective_povm([[s, s], [s, -s]])
        np.testing.assert_allclose(povm[0], 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)
        np.testing.assert_allclose(povm[1], 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(PovmInvariantError):
            projective_povm([[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.properties
    def test_invariants_hold_for_random_basis(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(g)
        projective_povm(q.T).validate()


class TestNoisyPhotocounter:
    def test_ideal_counter(self):
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=5, env_cutoff=1)
        assert len(povm) == 7
        for k in range(6):
            expected = np.zeros(6)
            expected[k] = 1.0
            np.testing.assert_array_equal(np.real(np.diagonal(povm[k])), expected)
        povm.validate()

    def test_pure_loss_is_binomial(self):
        eta = 0.73
        povm = noisy_photocounter(eta, 0.0, fock_cutoff=6, env_cutoff=1)
        diag = povm.diagonal()
        from math import comb

        for n in range(7):
            for k in range(7):
                expected = comb(n, k) * eta**k * (1 - eta) ** (n - k) if k <= n else 0.0
                np.testing.assert_allclose(diag[k, n], expected, atol=1e-12)

    def test_matches_beam_splitter_oracle(self):
        eta_p, nu = 0.8, 1.0
        fock_cutoff, env_cutoff = 12, 30
        production = photocounter_response(eta_p, nu, fock_cutoff, env_cutoff)
        oracle = beam_splitter_counter_oracle(eta_p, nu, fock_cutoff, env_cutoff)
        # compare below the absorbing last row (both lose ~thermal-tail mass there)
        np.testing.assert_allclose(production[:-1], oracle[:-1], atol=1e-8)

    def test_matches_oracle_other_parameters(self):
        production = photocounter_response(0.55, 0.4, 8, 28)
        oracle = beam_splitter_counter_oracle(0.55, 0.4, 8, 28)
        np.testing.assert_allclose(production[:-1], oracle[:-1], atol=1e-8)

    @pytest.mark.properties
    def test_mean_count_identity(self):
        eta_p, nu = 0.8, 1.0
        response = photocounter_response(eta_p, nu, fock_cutoff=10, env_cutoff=30)
        ks = np.arange(response.shape[0])
        for n in range(11):
            mean = float((ks * response[:, n]).sum())
            np.testing.assert_allclose(mean, eta_p * n + (1 - eta_p) * nu, atol=1e-6)

    def test_povm_invariants_and_diagonality(self):
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=10, env_cutoff=30)
        povm.validate()
        for element in povm:
            off = element - np.diag(np.diagonal(element))
            assert np.abs(off).max() == 0.0

    def test_tail_mass_guard(self):
        with pytest.raises(TailMassError):
            noisy_photocounter(0.8, 1.0, fock_cutoff=5, env_cutoff=10)


class TestRandomPovm:
    def test_single_outcome_is_identity(self):
        povm = random_povm(3, 1, seed=0)
        np.testing.assert_allclose(povm[0], np.eye(3), atol=1e-12)

    @pytest.mark.properties
    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=4),
        n_outcomes=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_invariants(self, dim, n_outcomes, seed):
        random_povm(dim, n_outcomes, seed).validate()

    def test_deterministic_per_seed(self):
        a = random_povm(2, 3, seed=42)
        b = random_povm(2, 3, seed=42)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
        c = random_povm(2, 3, seed=43)
        assert any(np.abs(pa - pc).max() > 1e-3 for pa, pc in zip(a, c))


def born_probabilities(povm, rho):
    """Outcome probabilities p(n) = Tr[rho P_n]."""
    return np.real(np.einsum("ij,nji->n", rho, np.stack(povm.elements)))


class TestBornProbabilities:
    def test_uniform_on_maximally_mixed(self):
        povm = projective_povm(np.eye(4))
        p = born_probabilities(povm, np.eye(4) / 4)
        np.testing.assert_allclose(p, np.full(4, 0.25), atol=1e-14)

    def test_vacuum_on_ideal_counter(self):
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=4, env_cutoff=1)
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        p = born_probabilities(povm, rho)
        np.testing.assert_allclose(p[0], 1.0, atol=1e-14)

    def test_thermal_state_geometric_counts(self):
        cutoff = 40
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=cutoff, env_cutoff=1)
        rho = thermal_state(1.0, cutoff).astype(complex)
        rho /= np.trace(rho)
        p = born_probabilities(povm, rho)
        ks = np.arange(10)
        np.testing.assert_allclose(p[:10], 2.0 ** -(ks + 1), atol=1e-6)

    @pytest.mark.properties
    def test_sums_to_one_for_random_inputs(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            povm = random_povm(3, 4, seed=seed)
            rho = random_density(rng, 3)
            p = born_probabilities(povm, rho)
            assert p.min() > -1e-12
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-10)
