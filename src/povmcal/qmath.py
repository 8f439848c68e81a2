"""Complex linear algebra and Fock-space utilities shared by all modules.

Operators are plain complex numpy arrays of shape (d, d).  This module pins
the conventions everything else relies on:

* vectorization is row-major (``vec(X) = X.reshape(-1)``),
* tensor products follow the Kronecker convention
  ``(A (x) B)[i*db+p, j*db+q] = A[i,j] * B[p,q]``,
* quadrature wavefunctions are normalized so the vacuum variance is 1/4,
  matching the quadrature operator with the 1/2 prefactor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ParameterRangeError

# relative eigenvalue below which hermitian_inverse_sqrt drops a direction
EIGENVALUE_FLOOR = 1e-14

ComplexOperator = np.ndarray
"""A dense square complex matrix; the universal carrier for states,
POVM elements and quorum projectors."""


def as_operator(x) -> ComplexOperator:
    """Coerce ``x`` to a square complex matrix, validating its shape."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: ComplexOperator) -> ComplexOperator:
    return np.conj(a.T)


def vec(a: ComplexOperator) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1)


def min_eigenvalue(stack) -> float:
    """Smallest eigenvalue of the Hermitian parts (X + X^dag)/2 over a
    stack of operators of shape (..., d, d).

    LAPACK still runs once per matrix, so the value is bit-identical to the
    smallest eigenvalue found one element at a time.
    """
    x = np.asarray(stack, dtype=complex)
    hermitian_part = (x + np.conj(np.swapaxes(x, -1, -2))) / 2.0
    return float(np.linalg.eigvalsh(hermitian_part)[..., 0].min())


def fock_quadrature_table(max_m: int, xs) -> np.ndarray:
    """Quadrature wavefunctions psi_m(x) for m = 0..max_m, shape (max_m+1, len(xs)).

    Convention: vacuum variance 1/4, i.e. psi_0(x) = (2/pi)^(1/4) exp(-x^2).
    Levels are generated by the normalized three-term recurrence

        psi_{m+1}(x) = (2 x psi_m(x) - sqrt(m) psi_{m-1}(x)) / sqrt(m+1),

    which avoids factorials and stays stable well past m = 60.
    """
    if max_m < 0:
        raise ParameterRangeError("max_m must be nonnegative")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    table = np.zeros((max_m + 1, xs.size))
    table[0] = (2.0 / np.pi) ** 0.25 * np.exp(-xs * xs)
    if max_m >= 1:
        table[1] = 2.0 * xs * table[0]
    for m in range(1, max_m):
        table[m + 1] = (2.0 * xs * table[m] - np.sqrt(m) * table[m - 1]) / np.sqrt(m + 1)
    return table


def hermitian_inverse_sqrt(a: ComplexOperator) -> ComplexOperator:
    """Inverse square root of a positive Hermitian matrix.

    Eigenvalues below ``EIGENVALUE_FLOOR * max_eigenvalue`` are treated as zero
    (their inverse-sqrt contribution is dropped), which keeps the result
    finite for numerically rank-deficient inputs.
    """
    a = as_operator(a)
    w, u = np.linalg.eigh((a + dagger(a)) / 2.0)
    cut = EIGENVALUE_FLOOR * max(float(w[-1]), 0.0)
    keep = w > cut
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[keep] = 1.0 / np.sqrt(w[keep])
    return (u * inv_sqrt) @ dagger(u)
