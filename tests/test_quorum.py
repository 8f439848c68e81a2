import csv

import numpy as np
import pytest

from povmcal.cli import write_kernels_csv
from povmcal.errors import KernelConstructionError, NonInvertibleNoiseError, NotAQuorumError
from povmcal.qmath import fock_quadrature_table
from povmcal.quorum import (
    build_diagonal_kernels,
    compute_dual_set,
    depolarizing_superoperator,
    KernelTable,
    finite_quorum,
    homodyne_quorum,
    noise_corrected_duals,
    noise_map_from_superoperator,
    pauli_quorum,
    random_basis_quorum,
    smeared_fock_pdf_table,
    smeared_sigma2,
)

from oracles import (
    former_kernel_evaluate,
    former_two_buffer_kernel_evaluate,
    former_smeared_fock_pdf_table,
    noise_apply,
    quadrature_integral,
    random_hermitian,
)


def csv_writer_bytes(table, path):
    """The kernel table as ``csv.writer`` writes it, cell by cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"K_{m}" for m in range(table.n_kernels)])
        for i, x in enumerate(table.grid):
            writer.writerow([f"{x:.17g}"] + [f"{v:.17g}" for v in table.values[:, i]])
    return path.read_bytes()


def reconstruct_via_duals(x, quorum, duals):
    projectors = quorum.projectors()
    out = np.zeros_like(x)
    for k in range(projectors.shape[0]):
        for m in range(projectors.shape[1]):
            coeff = np.trace(x @ duals[k, m].conj().T)
            out = out + coeff * projectors[k, m]
    return out


class TestFiniteQuorum:
    def test_pauli_setting_count_and_z_basis(self):
        quorum = pauli_quorum()
        assert quorum.n_settings == 3
        np.testing.assert_array_equal(quorum.vectors[2], np.eye(2))

    def test_pauli_spans_operator_space(self):
        quorum = pauli_quorum()
        assert quorum.span_check
        stacked = quorum.projectors().reshape(-1, 4)
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == 4

    def test_single_basis_does_not_span(self):
        quorum = finite_quorum([np.eye(2)])
        assert not quorum.span_check

    def test_rejects_non_orthonormal_setting(self):
        with pytest.raises(NotAQuorumError):
            finite_quorum([np.array([[1.0, 0.0], [1.0, 0.0]])])

    def test_random_bases_span(self):
        quorum = random_basis_quorum(3, 4, seed=1)
        assert quorum.span_check


class TestDualSet:
    def test_pauli_reconstruction_identity(self):
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(
            reconstruct_via_duals(sigma_x, quorum, duals), sigma_x, atol=1e-10
        )

    def test_orthonormal_operator_frame_is_self_dual(self):
        # z-basis projectors + Hadamard + circular bases give an overcomplete
        # frame; for a genuinely orthonormal frame duals equal the frame.
        # Here: check the defining property via the frame operator instead.
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        frame = quorum.projectors().reshape(-1, 4)
        frame_op = frame.T @ frame.conj()
        # duals = S^-1(frame): applying S to duals returns the projectors
        for alpha in range(6):
            k, m = divmod(alpha, 2)
            recomposed = (frame_op @ duals[k, m].reshape(-1)).reshape(2, 2)
            np.testing.assert_allclose(recomposed, frame[alpha].reshape(2, 2), atol=1e-10)

    @pytest.mark.properties
    def test_round_trip_random_operators(self):
        rng = np.random.default_rng(3)
        for dim, n_settings, seed in [(2, 3, 0), (3, 4, 1), (3, 5, 2)]:
            quorum = random_basis_quorum(dim, n_settings, seed)
            duals = compute_dual_set(quorum)
            x = random_hermitian(rng, dim)
            np.testing.assert_allclose(
                reconstruct_via_duals(x, quorum, duals), x, atol=1e-8
            )

    def test_non_spanning_quorum_rejected(self):
        with pytest.raises(NotAQuorumError):
            compute_dual_set(finite_quorum([np.eye(2)]))


def apply_inverse(noise, x):
    """N^(-1)(X) through the stored inverse superoperator."""
    return (noise.inverse_superoperator @ x.reshape(-1)).reshape(x.shape)


class TestNoiseMap:
    def test_identity_self_inverse(self):
        noise = noise_map_from_superoperator(np.eye(4))
        np.testing.assert_array_equal(noise.superoperator, noise.inverse_superoperator)
        np.testing.assert_allclose(noise.condition_number, 1.0)

    def test_depolarizing_inverse_scales_traceless_part(self):
        p = 0.4
        noise = noise_map_from_superoperator(depolarizing_superoperator(p, 2))
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(
            apply_inverse(noise, sigma_z), sigma_z / (1 - p), atol=1e-12
        )
        rho = np.diag([0.9, 0.1]).astype(complex)
        np.testing.assert_allclose(
            apply_inverse(noise, noise_apply(noise, rho)), rho, atol=1e-12
        )

    def test_completely_depolarizing_rejected(self):
        with pytest.raises(NonInvertibleNoiseError):
            noise_map_from_superoperator(depolarizing_superoperator(1.0, 2))

    @pytest.mark.properties
    def test_noise_inverted_expansion_identity(self):
        # sum_alpha Tr[N^-1(X) C_alpha^dag] N(F_alpha) = X
        rng = np.random.default_rng(4)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        noise = noise_map_from_superoperator(depolarizing_superoperator(0.3, 2))
        x = random_hermitian(rng, 2)
        x_inv = apply_inverse(noise, x)
        projectors = quorum.projectors()
        out = np.zeros((2, 2), dtype=complex)
        for k in range(3):
            for m in range(2):
                coeff = np.trace(x_inv @ duals[k, m].conj().T)
                out = out + coeff * noise_apply(noise, projectors[k, m])
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_corrected_duals_restore_average(self):
        # E over noisy statistics of corrected duals = noiseless operator
        rng = np.random.default_rng(5)
        quorum = pauli_quorum()
        duals = compute_dual_set(quorum)
        noise = noise_map_from_superoperator(depolarizing_superoperator(0.3, 2))
        corrected = noise_corrected_duals(duals, noise)
        rho = random_hermitian(rng, 2)
        rho = rho @ rho.T.conj() + 0.1 * np.eye(2)
        rho = rho / np.trace(rho)
        noisy_rho = noise_apply(noise, rho)
        projectors = quorum.projectors()
        out = np.zeros((2, 2), dtype=complex)
        for k in range(3):
            for m in range(2):
                prob = np.real(np.trace(noisy_rho @ projectors[k, m]))
                out = out + prob * corrected[k, m]
        np.testing.assert_allclose(out, rho, atol=1e-10)


class TestSmearedPdf:
    def test_ideal_vacuum_is_gaussian_variance_quarter(self):
        xs = np.linspace(-5, 5, 2001)
        q0 = smeared_fock_pdf_table(0, 1.0, xs)[0]
        expected = np.sqrt(2 / np.pi) * np.exp(-2 * xs**2)
        np.testing.assert_allclose(q0, expected, atol=1e-12)

    def test_smeared_vacuum_variance(self):
        xs = np.linspace(-6, 6, 4001)
        q0 = smeared_fock_pdf_table(0, 0.9, xs)[0]
        var = quadrature_integral(xs**2 * q0, xs)
        np.testing.assert_allclose(var, 1.0 / (4 * 0.9), rtol=1e-8)

    @pytest.mark.properties
    def test_normalization(self):
        xs = np.linspace(-9, 9, 6001)
        table = smeared_fock_pdf_table(10, 0.85, xs)
        for m in range(11):
            np.testing.assert_allclose(quadrature_integral(table[m], xs), 1.0, atol=1e-8)

    @pytest.mark.properties
    def test_variance_additivity(self):
        eta = 0.8
        xs = np.linspace(-10, 10, 8001)
        table = smeared_fock_pdf_table(8, eta, xs)
        for m in range(9):
            var = quadrature_integral(xs**2 * table[m], xs)
            np.testing.assert_allclose(
                var, (2 * m + 1) / 4 + smeared_sigma2(eta), atol=1e-6
            )

    def test_matches_gaussian_convolution_oracle(self):
        # direct numerical convolution of psi_m^2 with the smearing Gaussian
        eta = 0.9
        sigma2 = smeared_sigma2(eta)
        xs = np.linspace(-8, 8, 4001)
        dx = xs[1] - xs[0]
        for m in (0, 1, 3, 6):
            psi2 = fock_quadrature_table(m, xs)[m] ** 2
            gauss = np.exp(-(xs**2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
            conv = np.convolve(psi2, gauss, mode="same") * dx
            production = smeared_fock_pdf_table(m, eta, xs)[m]
            np.testing.assert_allclose(production, conv, atol=5e-6)


class TestDiagonalKernels:
    def test_refuses_low_efficiency(self):
        with pytest.raises(KernelConstructionError):
            build_diagonal_kernels(4, 0.5)
        with pytest.raises(KernelConstructionError):
            build_diagonal_kernels(4, 0.4)

    @pytest.mark.properties
    def test_unbiasedness_residual(self):
        for cutoff, eta in [(6, 1.0), (8, 0.9), (12, 0.8)]:
            table = build_diagonal_kernels(cutoff, eta)
            assert table.residual < 1e-4

    def test_unbiasedness_independent_quadrature(self):
        # check against a *finer* grid than the construction used
        cutoff, eta = 6, 0.9
        table = build_diagonal_kernels(cutoff, eta)
        xs = np.linspace(-8, 8, 3 * 8192 + 1)
        q = smeared_fock_pdf_table(cutoff, eta, xs)
        kernel_values, _ = table.evaluate(xs)
        for m in range(cutoff + 1):
            for j in range(cutoff + 1):
                integral = quadrature_integral(kernel_values[m] * q[j], xs)
                assert abs(integral - (1.0 if m == j else 0.0)) < 2e-4

    def test_extended_unbias_cutoff(self):
        table = build_diagonal_kernels(6, 0.9, unbias_cutoff=12)
        xs = np.linspace(-8, 8, 8193)
        q = smeared_fock_pdf_table(12, 0.9, xs)
        kernel_values, _ = table.evaluate(xs)
        # kernels stay unbiased even against states above the kernel cutoff
        for j in range(7, 13):
            integral = quadrature_integral(kernel_values[3] * q[j], xs)
            assert abs(integral) < 2e-4

    def test_grid_too_coarse_fails(self):
        with pytest.raises(KernelConstructionError):
            build_diagonal_kernels(10, 0.9, grid=(-2.0, 2.0, 0.5))

    def test_evaluate_outside_grid_is_zero(self):
        table = build_diagonal_kernels(3, 0.9)
        values, inside = table.evaluate(np.array([-9.0, 0.0, 9.0]))
        assert not inside[0] and inside[1] and not inside[2]
        np.testing.assert_array_equal(values[:, 0], 0.0)
        np.testing.assert_array_equal(values[:, 2], 0.0)

    @pytest.mark.parametrize("former", [former_kernel_evaluate, former_two_buffer_kernel_evaluate])
    @pytest.mark.parametrize("eta_h", [0.9, 1.0])
    def test_evaluate_matches_former_temporaries(self, eta_h, former):
        table = build_diagonal_kernels(6, eta_h, grid=(-6.0, 6.0, 1.0 / 256.0))
        xs = np.random.default_rng(3).normal(0.0, 2.5, 5000)
        xs[:4] = [table.x_min, table.x_max, -6.5, 9.0]
        values, inside = table.evaluate(xs)
        former_values, former_inside = former(table, xs)
        assert not inside[2:4].any()
        np.testing.assert_array_equal(values, former_values)
        np.testing.assert_array_equal(inside, former_inside)

    @pytest.mark.parametrize("eta_h", [0.75, 1.0])
    def test_smeared_table_matches_former_temporaries(self, eta_h):
        xs = np.random.default_rng(4).normal(0.0, 2.0, 3000)
        np.testing.assert_array_equal(
            smeared_fock_pdf_table(20, eta_h, xs), former_smeared_fock_pdf_table(20, eta_h, xs)
        )

    def test_csv_export_round_trip_shape(self, tmp_path):
        table = build_diagonal_kernels(3, 0.9, grid=(-4.0, 4.0, 1.0 / 64.0))
        path = tmp_path / "kernels.csv"
        write_kernels_csv(table, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,K_0,K_1,K_2,K_3"
        assert len(rows) == 1 + table.values.shape[1]

    def test_csv_export_matches_csv_writer_bytes(self, tmp_path):
        values = np.array(
            [[-1.5, 0.0, 5e-324, 1.0 / 3.0], [-0.0, -2.2250738585072014e-308, 1e300, -7.0]]
        )
        table = KernelTable(-0.5, 0.25, values, 1, 0.0)
        path = tmp_path / "kernels.csv"
        write_kernels_csv(table, path)
        assert path.read_bytes() == csv_writer_bytes(table, tmp_path / "reference.csv")
        assert b"\r\n" in path.read_bytes()

    def test_csv_export_of_several_chunks_matches_csv_writer_bytes(self, tmp_path):
        values = np.random.default_rng(5).normal(0.0, 1e3, (2, 2049))
        table = KernelTable(-0.5, 0.25, values, 1, 0.0)
        path = tmp_path / "kernels.csv"
        write_kernels_csv(table, path)
        assert path.read_bytes() == csv_writer_bytes(table, tmp_path / "reference.csv")


def test_homodyne_quorum_fields():
    hq = homodyne_quorum(5, 0.9, grid=(-6.0, 6.0, 1.0 / 128.0))
    assert hq.eta_h == 0.9
    assert hq.fock_cutoff == 5
    np.testing.assert_allclose(hq.smear_sigma2, (1 - 0.9) / (4 * 0.9))
    assert hq.kernel_table.n_kernels == 6
