import numpy as np
import pytest

from povmcal.errors import UnnormalizableStateError
from povmcal.qmath import partial_trace_first
from povmcal.states import (
    apply_noise_tomo_side,
    build_diagonal_map_R,
    build_map_R,
    maximally_entangled,
    product_mixed,
    twin_beam,
)

from oracles import map_matrix_loop, random_hermitian


class TestMaximallyEntangled:
    def test_d2_matrix(self):
        rho = maximally_entangled(2).rho
        expected = np.zeros((4, 4), dtype=complex)
        for a in (0, 3):
            for b in (0, 3):
                expected[a, b] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reduction_is_maximally_mixed(self, d):
        rho = maximally_entangled(d).rho
        np.testing.assert_allclose(partial_trace_first(rho, d), np.eye(d) / d, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 4])
    def test_purity(self, d):
        rho = maximally_entangled(d).rho
        np.testing.assert_allclose(np.trace(rho @ rho), 1.0, rtol=1e-12)

    def test_validates(self):
        maximally_entangled(3).validate()


class TestTwinBeam:
    def test_vacuum_limit(self):
        state = twin_beam(0.0, 5)
        rho = state.rho
        expected = np.zeros_like(rho)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)
        assert state.truncation_deficit == 0.0

    def test_unnormalizable(self):
        with pytest.raises(UnnormalizableStateError):
            twin_beam(1.0, 10)

    def test_weights_match_geometric_law(self):
        xi = 0.88
        state = twin_beam(xi, 54)
        weights = state.diagonal_weights()
        m = np.arange(55)
        untruncated = (1 - xi**2) * xi ** (2 * m)
        # renormalization factor is 1/(1 - deficit)
        np.testing.assert_allclose(weights, untruncated / (1 - xi ** (2 * 55)), rtol=1e-12)

    def test_mean_photon_number(self):
        xi = 0.88
        state = twin_beam(xi, 200)  # deep cutoff: negligible truncation
        weights = state.diagonal_weights()
        mean = float((np.arange(201) * weights).sum())
        np.testing.assert_allclose(mean, xi**2 / (1 - xi**2), rtol=1e-9)
        np.testing.assert_allclose(mean, 3.4326, rtol=1e-3)

    @pytest.mark.properties
    def test_truncation_deficit_geometric_tail(self):
        for xi, cutoff in [(0.5, 10), (0.88, 54), (0.3, 4)]:
            state = twin_beam(xi, cutoff)
            np.testing.assert_allclose(
                state.truncation_deficit, xi ** (2 * (cutoff + 1)), atol=1e-12
            )

    def test_validates_small_cutoff(self):
        twin_beam(0.6, 8).validate()


class TestMapR:
    def test_matrix_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            state = maximally_entangled(d)
            map_r = build_map_R(state)
            np.testing.assert_allclose(
                map_r.matrix, map_matrix_loop(state.rho, d, d), atol=1e-13
            )

    def test_maximally_entangled_is_transpose_over_d(self):
        d = 3
        state = maximally_entangled(d)
        map_r = build_map_R(state)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.testing.assert_allclose(map_r.apply(x), x.T / d, atol=1e-13)
        np.testing.assert_allclose(map_r.condition_number, 1.0, rtol=1e-10)

    def test_invert_identity(self):
        state = maximally_entangled(2)
        map_r = build_map_R(state)
        np.testing.assert_allclose(
            map_r.invert(np.eye(2) / 2), np.eye(2), atol=1e-12
        )

    def test_round_trip_random_operator(self):
        rng = np.random.default_rng(12)
        for d in (2, 4):
            state = maximally_entangled(d)
            map_r = build_map_R(state)
            x = random_hermitian(rng, d)
            np.testing.assert_allclose(
                map_r.invert(map_r.apply(x)), x, atol=1e-8 * np.abs(x).max()
            )

    def test_generic_state_round_trip(self):
        # faithful generic state: mixture keeping the map full rank
        rng = np.random.default_rng(13)
        d = 2
        base = maximally_entangled(d).rho
        perturb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        perturb = perturb @ perturb.conj().T
        rho = 0.7 * base + 0.3 * perturb / np.trace(perturb)
        from povmcal.states import BipartiteState

        state = BipartiteState(d, d, rho=rho)
        map_r = build_map_R(state)
        assert np.isfinite(map_r.condition_number)
        x = random_hermitian(rng, d)
        np.testing.assert_allclose(map_r.invert(map_r.apply(x)), x, atol=1e-8)

    def test_product_state_not_faithful(self):
        map_r = build_map_R(product_mixed(2, 2))
        assert map_r.condition_number == np.inf

    def test_twin_beam_zero_not_faithful(self):
        map_r = build_diagonal_map_R(twin_beam(0.0, 6))
        assert map_r.condition_number == np.inf


class TestDiagonalMapR:
    def test_twin_beam_diagonal_action(self):
        xi, cutoff = 0.88, 30
        state = twin_beam(xi, cutoff)
        map_r = build_diagonal_map_R(state)
        weights = state.diagonal_weights()
        rng = np.random.default_rng(14)
        x = rng.normal(size=cutoff + 1)
        np.testing.assert_allclose(map_r.apply(x), weights * x, rtol=1e-12)
        np.testing.assert_allclose(map_r.invert(weights * x), x, rtol=1e-9)

    def test_diagonal_action_matches_direct_partial_trace(self):
        xi, cutoff = 0.6, 5
        state = twin_beam(xi, cutoff)
        map_r = build_diagonal_map_R(state)
        d = cutoff + 1
        for m in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[m, m] = 1.0
            image = partial_trace_first(np.kron(basis, np.eye(d)) @ state.rho, d)
            np.testing.assert_allclose(
                map_r.apply(np.eye(d)[m]), np.real(np.diagonal(image)), atol=1e-13
            )

    @pytest.mark.properties
    def test_condition_number_is_weight_ratio(self):
        xi, cutoff = 0.7, 12
        map_r = build_diagonal_map_R(twin_beam(xi, cutoff))
        np.testing.assert_allclose(map_r.condition_number, xi ** (-2 * cutoff), rtol=1e-9)

    def test_cutoff_restriction(self):
        state = twin_beam(0.88, 54)
        map_r = build_diagonal_map_R(state, cutoff=12)
        assert map_r.matrix.shape == (13, 13)
        np.testing.assert_allclose(map_r.condition_number, 0.88 ** (-24), rtol=1e-9)

    def test_generic_diagonal_map_from_dense_rho(self):
        from povmcal.states import BipartiteState

        state = twin_beam(0.5, 4)
        generic = BipartiteState(5, 5, rho=state.rho.copy())
        by_schmidt = build_diagonal_map_R(state)
        by_rho = build_diagonal_map_R(generic)
        np.testing.assert_allclose(by_schmidt.matrix, by_rho.matrix, atol=1e-13)


class TestNoiseOnTomoSide:
    def test_depolarizing_commutes_with_sampling_statistics(self):
        from povmcal.quorum import depolarizing_superoperator, noise_map_from_superoperator

        state = maximally_entangled(2)
        noise = noise_map_from_superoperator(depolarizing_superoperator(0.3, 2))
        noisy = apply_noise_tomo_side(state, noise)
        # trace preserved, still a valid state
        np.testing.assert_allclose(np.trace(noisy.rho), 1.0, rtol=1e-12)
        noisy.validate()
        # tomographer-side reduction gets depolarized: stays I/2 here
        np.testing.assert_allclose(
            partial_trace_first(noisy.rho, 2), np.eye(2) / 2, atol=1e-12
        )
