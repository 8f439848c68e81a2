import numpy as np
import pytest

from povmcal.detectors import noisy_photocounter, projective_povm, random_povm
from povmcal.errors import UnsupportedStructureError
from povmcal.quorum import homodyne_quorum, pauli_quorum, smeared_fock_pdf_table
from povmcal.sampler import (
    Dataset,
    export_csv,
    export_sidecar,
    import_csv,
    joint_probability_tables,
    sample_finite,
    sample_homodyne_twinbeam,
)
from povmcal.states import BipartiteState, maximally_entangled, twin_beam

HQ_SMALL = homodyne_quorum(6, 0.9, grid=(-6.0, 6.0, 1.0 / 256.0))


def fock_pair_state(m: int, dim: int) -> BipartiteState:
    """|m, m> as a Schmidt-form state, to pin the sampler's pair number."""
    c = np.zeros(dim)
    c[m] = 1.0
    return BipartiteState(dim, dim, schmidt=c)


class TestSampleFinite:
    def test_trivial_povm_gives_constant_outcome(self):
        state = maximally_entangled(2)
        povm = projective_povm(np.eye(2))
        identity_povm = povm.__class__((np.eye(2, dtype=complex),))
        data = sample_finite(state, identity_povm, pauli_quorum(), 2000, seed=0)
        assert set(np.unique(data.outcome_n)) == {0}
        # tomographer marginal: maximally mixed, so each m equally likely
        for k in range(3):
            sel = data.setting_k == k
            freq = np.bincount(data.result[sel], minlength=2) / sel.sum()
            np.testing.assert_allclose(freq, [0.5, 0.5], atol=5 * 0.5 / np.sqrt(sel.sum()))

    def test_sigma_z_outcomes_perfectly_correlated(self):
        state = maximally_entangled(2)
        povm = projective_povm(np.eye(2))
        data = sample_finite(state, povm, pauli_quorum(), 5000, seed=1)
        z_records = data.setting_k == 2
        assert z_records.sum() > 1000
        np.testing.assert_array_equal(
            data.outcome_n[z_records], data.result[z_records]
        )

    def test_empirical_matches_exact_table_5sigma(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=9)
        quorum = pauli_quorum()
        tables = joint_probability_tables(state, povm, quorum)
        n_records = 1_000_000
        data = sample_finite(state, povm, quorum, n_records, seed=2)
        counts = np.zeros_like(tables)
        np.add.at(counts, (data.setting_k, data.outcome_n, data.result), 1.0)
        per_setting = counts.sum(axis=(1, 2))
        for k in range(3):
            empirical = counts[k] / per_setting[k]
            expected = tables[k]
            sigma = np.sqrt(expected * (1 - expected) / per_setting[k])
            check = expected * per_setting[k] >= 50
            assert np.all(np.abs(empirical - expected)[check] <= 5 * sigma[check])

    def test_counts_by_n_matches_marginal(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=9)
        quorum = pauli_quorum()
        tables = joint_probability_tables(state, povm, quorum)
        p_n = tables.sum(axis=(0, 2)) / 3
        n_records = 200_000
        data = sample_finite(state, povm, quorum, n_records, seed=3)
        freq = data.counts_by_n / n_records
        sigma = np.sqrt(p_n * (1 - p_n) / n_records)
        assert np.all(np.abs(freq - p_n) <= 5 * sigma)

    @pytest.mark.properties
    def test_determinism(self):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=4)
        quorum = pauli_quorum()
        a = sample_finite(state, povm, quorum, 70_000, seed=5)
        b = sample_finite(state, povm, quorum, 70_000, seed=5)
        np.testing.assert_array_equal(a.outcome_n, b.outcome_n)
        np.testing.assert_array_equal(a.setting_k, b.setting_k)
        np.testing.assert_array_equal(a.result, b.result)
        c = sample_finite(state, povm, quorum, 70_000, seed=6)
        assert np.any(a.outcome_n != c.outcome_n)

    def test_block_boundaries_are_seamless(self):
        # sampling more records must not change the leading draws
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=4)
        quorum = pauli_quorum()
        small = sample_finite(state, povm, quorum, 1000, seed=7)
        large = sample_finite(state, povm, quorum, 100_000, seed=7)
        np.testing.assert_array_equal(small.outcome_n, large.outcome_n[:1000])


class TestSampleHomodyne:
    def test_requires_diagonal_povm(self):
        state = twin_beam(0.5, 3)
        povm = random_povm(4, 2, seed=0)
        with pytest.raises(UnsupportedStructureError):
            sample_homodyne_twinbeam(state, povm, HQ_SMALL, 100, seed=0)

    def test_vacuum_with_ideal_counter(self):
        state = twin_beam(0.0, 6)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=6, env_cutoff=1)
        data = sample_homodyne_twinbeam(state, povm, HQ_SMALL, 50_000, seed=1)
        assert set(np.unique(data.outcome_n)) == {0}
        target_var = 1.0 / (4 * 0.9)
        sample_var = float(np.var(data.result))
        # variance of the variance ~ 2 var^2 / N
        tol = 5 * np.sqrt(2.0 / 50_000) * target_var
        assert abs(sample_var - target_var) < tol
        assert np.all(data.setting_k >= 0.0) and np.all(data.setting_k < np.pi)

    def test_pair_distribution_geometric(self):
        xi = 0.88
        state = twin_beam(xi, 54)
        povm = noisy_photocounter(1.0, 0.0, fock_cutoff=54, env_cutoff=1)
        n_records = 1_000_000
        data = sample_homodyne_twinbeam(state, povm, HQ_SMALL, n_records, seed=2)
        weights = state.diagonal_weights()
        freq = np.bincount(data.outcome_n, minlength=55) / n_records
        sigma = np.sqrt(weights * (1 - weights) / n_records)
        check = weights * n_records >= 50
        assert np.all(np.abs(freq[:55] - weights)[check] <= 5 * sigma[check])

    def test_outcome_distribution_with_noisy_counter(self):
        xi = 0.88
        state = twin_beam(xi, 54)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
        n_records = 1_000_000
        data = sample_homodyne_twinbeam(state, povm, HQ_SMALL, n_records, seed=3)
        weights = state.diagonal_weights()
        expected = povm.diagonal() @ weights  # p(n) = sum_m w_m <m|P_n|m>
        freq = np.bincount(data.outcome_n, minlength=len(expected)) / n_records
        sigma = np.sqrt(expected * (1 - expected) / n_records)
        check = expected * n_records >= 50
        assert np.all(np.abs(freq[: len(expected)] - expected)[check] <= 5 * sigma[check])

    @pytest.mark.properties
    def test_joint_law_chi2_per_pair_number(self):
        """Histogram test of p(n, x | pair m) = <m|P_n|m> q_m(x) at 3 sigma."""
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=6, env_cutoff=26)
        diag = povm.diagonal()
        n_records = 100_000
        for m in range(5):
            state = fock_pair_state(m, 7)
            data = sample_homodyne_twinbeam(state, povm, HQ_SMALL, n_records, seed=10 + m)
            # x bins with equal mass under q_m
            fine = np.linspace(-6, 6, 12_001)
            pdf = smeared_fock_pdf_table(m, 0.9, fine)[m]
            cdf = np.cumsum(pdf)
            cdf /= cdf[-1]
            quantiles = np.interp(np.linspace(0.1, 0.9, 9), cdf, fine)
            edges = np.concatenate([[-np.inf], quantiles, [np.inf]])
            bin_mass = np.diff(np.interp(edges, fine, cdf, left=0.0, right=1.0))
            n_mass = diag[:, m]
            big_n = np.flatnonzero(n_mass >= 0.01)
            # joint cells over (big n) x (x bins), conditioned on n in big set
            sel = np.isin(data.outcome_n, big_n)
            kept = int(sel.sum())
            x_bin = np.searchsorted(quantiles, data.result[sel])
            n_idx = np.searchsorted(big_n, data.outcome_n[sel])
            observed = np.zeros((big_n.size, 10))
            np.add.at(observed, (n_idx, x_bin), 1.0)
            expected = np.outer(n_mass[big_n] / n_mass[big_n].sum(), bin_mass)
            stat = float(((observed - kept * expected) ** 2 / (kept * expected)).sum())
            dof = observed.size - 1
            assert stat < dof + 3 * np.sqrt(2 * dof), (m, stat, dof)

    @pytest.mark.properties
    def test_determinism(self):
        state = twin_beam(0.7, 20)
        povm = noisy_photocounter(0.8, 1.0, fock_cutoff=20, env_cutoff=30)
        a = sample_homodyne_twinbeam(state, povm, HQ_SMALL, 80_000, seed=11)
        b = sample_homodyne_twinbeam(state, povm, HQ_SMALL, 80_000, seed=11)
        np.testing.assert_array_equal(a.result, b.result)
        np.testing.assert_array_equal(a.outcome_n, b.outcome_n)
        np.testing.assert_array_equal(a.setting_k, b.setting_k)


class TestDatasetIO:
    def test_finite_round_trip_and_stability(self, tmp_path):
        state = maximally_entangled(2)
        povm = random_povm(2, 3, seed=4)
        data = sample_finite(state, povm, pauli_quorum(), 5000, seed=12, scenario_id="io")
        path = tmp_path / "data.csv"
        sidecar = tmp_path / "data.json"
        export_csv(data, path)
        export_sidecar(data, sidecar, {"note": "test"})
        first_bytes = path.read_bytes()
        export_csv(data, path)
        assert path.read_bytes() == first_bytes

        loaded = import_csv(path, sidecar)
        np.testing.assert_array_equal(loaded.outcome_n, data.outcome_n)
        np.testing.assert_array_equal(loaded.setting_k, data.setting_k)
        np.testing.assert_array_equal(loaded.result, data.result)
        assert loaded.seed == 12 and loaded.scenario_id == "io"

    def test_homodyne_round_trip_exact_floats(self, tmp_path):
        state = twin_beam(0.6, 10)
        povm = noisy_photocounter(0.9, 0.1, fock_cutoff=10, env_cutoff=26)
        data = sample_homodyne_twinbeam(state, povm, HQ_SMALL, 3000, seed=13)
        path = tmp_path / "data.csv"
        export_csv(data, path)
        loaded = import_csv(path)
        assert loaded.kind == "homodyne"
        np.testing.assert_array_equal(loaded.result, data.result)
        np.testing.assert_array_equal(loaded.setting_k, data.setting_k)

    def test_record_view(self):
        data = Dataset(
            np.array([1, 0]), np.array([2, 1]), np.array([0, 1]), 0, "x", "finite"
        )
        assert len(data) == 2
        np.testing.assert_array_equal(data.counts_by_n, [1, 1])
