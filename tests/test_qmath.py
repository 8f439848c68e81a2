import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcal.errors import DimensionMismatchError
from povmcal.qmath import fock_quadrature_table, min_eigenvalue

from oracles import (
    kron_loop,
    partial_trace_first,
    positivity_report,
    ptrace_first_loop,
    quadrature_integral,
    random_hermitian,
    tensor_product,
)


class TestTensorProduct:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(
            tensor_product(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_projector_product(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_array_equal(tensor_product(a, b), np.diag([0, 1, 0, 0]))

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            np.testing.assert_allclose(tensor_product(a, b), kron_loop(a, b), atol=1e-14)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b), rtol=1e-12
        )

    @pytest.mark.properties
    def test_associativity_on_integer_entries(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        np.testing.assert_array_equal(left, right)


class TestPartialTrace:
    def test_identity(self):
        np.testing.assert_allclose(partial_trace_first(np.eye(4), 2), 2 * np.eye(2))

    def test_non_divisible_dimension_raises(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_first(np.eye(6), 4)

    def test_product_rule(self):
        rng = np.random.default_rng(3)
        for da, db in [(2, 2), (3, 2), (2, 4)]:
            a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
            np.testing.assert_allclose(
                partial_trace_first(tensor_product(a, b), da),
                np.trace(a) * b,
                rtol=1e-12,
                atol=1e-12,
            )

    def test_maximally_entangled_reduction(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace_first(rho, 2), np.eye(2) / 2, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        np.testing.assert_allclose(
            partial_trace_first(x, 3), ptrace_first_loop(x, 3), atol=1e-14
        )

    @pytest.mark.properties
    @settings(max_examples=25, deadline=None)
    @given(
        da=st.integers(min_value=1, max_value=4),
        db=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_trace_preservation(self, da, db, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
        np.testing.assert_allclose(
            np.trace(partial_trace_first(x, da)), np.trace(x), rtol=1e-12, atol=1e-12
        )


class TestPositivityReport:
    def test_projector(self):
        report = positivity_report(np.diag([1.0, 0.0]))
        assert report.max_antihermitian_deviation == 0.0
        assert abs(report.min_eigenvalue) < 1e-15

    def test_indefinite_diagonal(self):
        report = positivity_report(np.diag([1.0, -0.5]))
        assert report.max_antihermitian_deviation == 0.0
        np.testing.assert_allclose(report.min_eigenvalue, -0.5)

    def test_pauli_y(self):
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        report = positivity_report(sigma_y)
        assert report.max_antihermitian_deviation < 1e-15
        np.testing.assert_allclose(report.min_eigenvalue, -1.0, rtol=1e-12)

    def test_detects_antihermitian_part(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        report = positivity_report(x)
        np.testing.assert_allclose(report.max_antihermitian_deviation, 1.0)

    def test_stacked_min_eigenvalue_is_the_loop_minimum(self):
        rng = np.random.default_rng(11)
        for shape in ((5, 3, 3), (4, 2, 2), (2, 55, 55)):
            stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            loop = min(positivity_report(x).min_eigenvalue for x in stack)
            assert min_eigenvalue(stack) == loop
        real = rng.normal(size=(3, 4, 4))
        assert min_eigenvalue(real) == min(positivity_report(x).min_eigenvalue for x in real)


class TestQuadratureWavefunctions:
    def test_vacuum_peak_value(self):
        np.testing.assert_allclose(
            fock_quadrature_table(0, [0.0])[0, 0], (2.0 / np.pi) ** 0.25, rtol=1e-14
        )

    @pytest.mark.properties
    def test_orthonormality(self):
        xs = np.linspace(-10, 10, 8001)
        table = fock_quadrature_table(10, xs)
        for m in range(11):
            for n in range(m, 11):
                overlap = quadrature_integral(table[m] * table[n], xs)
                expected = 1.0 if m == n else 0.0
                assert abs(overlap - expected) < 1e-10, (m, n, overlap)

    @pytest.mark.properties
    def test_variance_identity(self):
        xs = np.linspace(-12, 12, 12001)
        table = fock_quadrature_table(10, xs)
        for m in range(11):
            second_moment = quadrature_integral(xs**2 * table[m] ** 2, xs)
            np.testing.assert_allclose(second_moment, (2 * m + 1) / 4.0, atol=1e-10)

    def test_stable_at_high_order(self):
        xs = np.linspace(-14, 14, 20001)
        table = fock_quadrature_table(60, xs)
        norm = quadrature_integral(table[60] ** 2, xs)
        np.testing.assert_allclose(norm, 1.0, atol=1e-8)

    def test_hermitian_part_eigenvalues_match_oracle(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        report = positivity_report(h)
        np.testing.assert_allclose(
            report.min_eigenvalue, np.linalg.eigvalsh(h)[0], rtol=1e-12
        )
