"""Tomographer observables: finite quorums with dual sets, noise maps, and
the homodyne quadrature quorum with efficiency smearing and diagonal kernels.

A quorum is a family of observables whose eigenprojectors span the operator
space.  Estimation expands over the projector family {|b^(k)_m><b^(k)_m|}
(one term per setting-outcome pair), which turns the dual-set equation into
a standard operator-frame problem and matches what the sampler records.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from .detectors import binomial_loss_matrix
from .errors import (
    DimensionMismatchError,
    KernelConstructionError,
    NonInvertibleNoiseError,
    NotAQuorumError,
    ParameterRangeError,
)

# largest condition number of an invertible noise map
MAX_NOISE_CONDITION = 1e10
# kernel ridge relative to the Gram norm, and the largest unbiasedness
# residual a kernel table may keep
KERNEL_RIDGE = 1e-10
KERNEL_RESIDUAL_TOL = 1e-4
KERNEL_GRID = (-8.0, 8.0, 1.0 / 512.0)  # default (x_min, x_max, step)


@dataclass(frozen=True)
class FiniteQuorum:
    """Orthonormal eigenvectors of each setting: ``vectors[k, m]`` is
    outcome m of setting k, shape (n_settings, d, d)."""

    vectors: np.ndarray
    span_check: bool

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    @property
    def n_settings(self) -> int:
        return self.vectors.shape[0]

    def projectors(self) -> np.ndarray:
        """All projectors, shape (n_settings, d, d, d) indexed [k, m, :, :]."""
        return np.einsum("kmi,kmj->kmij", self.vectors, self.vectors.conj())


def finite_quorum(settings_vectors) -> FiniteQuorum:
    """Build a quorum from per-setting eigenvector arrays, checking orthonormality."""
    settings = []
    for idx, vectors in enumerate(settings_vectors):
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatchError("each setting needs a square array of row vectors")
        gram = v @ v.conj().T
        deviation = float(np.abs(gram - np.eye(v.shape[0])).max())
        if deviation > 1e-10:
            raise NotAQuorumError(
                f"setting {idx} eigenvectors not orthonormal: deviation {deviation:.3e}"
            )
        settings.append(v)
    if not settings:
        raise NotAQuorumError("a quorum needs at least one setting")
    quorum = FiniteQuorum(np.stack(settings), span_check=False)
    d = quorum.dim
    rank = np.linalg.matrix_rank(quorum.projectors().reshape(-1, d * d), tol=1e-10)
    return replace(quorum, span_check=bool(rank == d * d))


def pauli_quorum() -> FiniteQuorum:
    """Qubit quorum from the three Pauli eigenbases."""
    s = 1.0 / np.sqrt(2.0)
    x_basis = np.array([[s, s], [s, -s]], dtype=complex)
    y_basis = np.array([[s, 1j * s], [s, -1j * s]], dtype=complex)
    z_basis = np.eye(2, dtype=complex)
    return finite_quorum([x_basis, y_basis, z_basis])


def random_basis_quorum(dim: int, n_settings: int, seed: int) -> FiniteQuorum:
    """Haar-random orthonormal bases; spans the operator space for enough settings."""
    rng = np.random.default_rng(seed)
    settings = []
    for _ in range(n_settings):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        settings.append(q.T)
    return finite_quorum(settings)


def compute_dual_set(quorum: FiniteQuorum) -> np.ndarray:
    """Canonical dual frame of the quorum projector family, shape
    (n_settings, d, d, d).

    duals[k, m] satisfies sum_{k,m} Tr[X duals[k,m]^dag] projector[k,m] = X
    for every operator X (and the transposed identity with the roles of
    frame and dual swapped).
    """
    if not quorum.span_check:
        raise NotAQuorumError("projector family does not span the operator space")
    d = quorum.dim
    frame = quorum.projectors().reshape(-1, d * d)  # rows vec(F_alpha)
    b = frame.T  # columns vec(F_alpha)
    frame_operator = b @ b.conj().T  # (d^2, d^2), positive definite on the span
    duals_cols = np.linalg.pinv(frame_operator, hermitian=True) @ b
    return duals_cols.T.reshape(quorum.n_settings, d, d, d)


@dataclass(frozen=True)
class NoiseMap:
    """Invertible linear map on operators, stored as a (d^2, d^2) superoperator.

    The convention is Schrodinger-like: ``superoperator`` acts on vec of
    a state.  Acting on observables instead corresponds to the
    Hilbert-Schmidt adjoint, i.e. the conjugate transpose of
    ``superoperator``.
    """

    superoperator: np.ndarray
    inverse_superoperator: np.ndarray
    condition_number: float


def noise_map_from_superoperator(matrix) -> NoiseMap:
    m = np.asarray(matrix, dtype=complex)
    d2 = m.shape[0]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or int(round(np.sqrt(d2))) ** 2 != d2:
        raise DimensionMismatchError("superoperator must be square with d^2 rows")
    s = np.linalg.svd(m, compute_uv=False)
    condition = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
    if not np.isfinite(condition) or condition > MAX_NOISE_CONDITION:
        raise NonInvertibleNoiseError(
            f"noise map condition number {condition:.3e} exceeds bound "
            f"{MAX_NOISE_CONDITION:.1e}"
        )
    return NoiseMap(m, np.linalg.inv(m), condition)


def depolarizing_superoperator(p: float, dim: int = 2) -> np.ndarray:
    """Superoperator of X -> (1-p) X + p Tr[X] I/d, for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"depolarizing p must lie in [0, 1], got {p}")
    eye_vec = qmath.vec(np.eye(dim))
    return (1.0 - p) * np.eye(dim * dim) + (p / dim) * np.outer(eye_vec, eye_vec)


def noise_corrected_duals(duals: np.ndarray, noise: NoiseMap) -> np.ndarray:
    """Duals that undo tomographer noise: C -> N^(-1)(C).

    Averaging these against data whose statistics carry the noisy
    projectors reproduces the noiseless operator average.
    """
    shape = duals.shape
    flat = duals.reshape(-1, shape[-2] * shape[-1])
    corrected = flat @ noise.inverse_superoperator.T
    return corrected.reshape(shape)


# --- homodyne quadrature quorum -------------------------------------------


def smeared_sigma2(eta_h: float) -> float:
    """Added quadrature variance (1-eta)/(4 eta) of an efficiency-eta homodyne."""
    return (1.0 - eta_h) / (4.0 * eta_h)


def smeared_fock_pdf_table(max_m: int, eta_h: float, xs) -> np.ndarray:
    """q_m(x) for m = 0..max_m: ideal Fock quadrature density convolved with
    the efficiency-smearing Gaussian, shape (max_m+1, len(xs)).

    Computed through the equivalent loss-channel form
        q_m(x) = sqrt(eta) sum_j Binom(j; m, eta) psi_j(sqrt(eta) x)^2,
    which matches the Gaussian-convolution definition identically and
    avoids numerical convolution.
    """
    if not 0.0 < eta_h <= 1.0:
        raise ParameterRangeError("eta_h must lie in (0, 1]")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    psi2 = qmath.fock_quadrature_table(max_m, np.sqrt(eta_h) * xs)
    np.square(psi2, out=psi2)
    if eta_h == 1.0:
        return psi2
    mix = binomial_loss_matrix(eta_h, max_m + 1)  # mix[j, m] = Binom(j; m, eta)
    q = mix.T @ psi2
    q *= np.sqrt(eta_h)
    return q


@dataclass(frozen=True)
class KernelTable:
    """Sampled estimation kernels K_m on a uniform grid.

    Evaluation is linear interpolation; points outside the grid evaluate
    to 0 (callers count them as clipped).
    """

    x_min: float
    step: float
    values: np.ndarray  # (n_kernels, n_points)
    unbias_cutoff: int
    residual: float

    @property
    def n_kernels(self) -> int:
        return self.values.shape[0]

    @property
    def x_max(self) -> float:
        return self.x_min + self.step * (self.values.shape[1] - 1)

    @property
    def grid(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.values.shape[1])

    def evaluate(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Kernel values at xs, shape (n_kernels, len(xs)), plus an in-grid mask."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        inside = (xs >= self.x_min) & (xs <= self.x_max)
        pos = np.clip((xs - self.x_min) / self.step, 0.0, self.values.shape[1] - 1.0)
        left = np.minimum(pos.astype(np.int64), self.values.shape[1] - 2)
        frac = pos - left
        # one (n_kernels, len(xs)) buffer, the right-hand term added row by row
        vals = self.values[:, left]
        vals *= 1.0 - frac
        right = left + 1
        for row, kernel in zip(vals, self.values):
            row += kernel[right] * frac
        vals *= inside
        return vals, inside


def build_diagonal_kernels(
    fock_cutoff: int,
    eta_h: float,
    grid: tuple[float, float, float] = KERNEL_GRID,
    unbias_cutoff: int | None = None,
) -> KernelTable:
    """Kernels K_m (m <= fock_cutoff) unbiased against the smeared densities.

    The defining property is the linear system  integral K_m q_j dx = delta_mj
    for j <= unbias_cutoff (default: fock_cutoff).  It is solved in
    least-norm form on the discretized grid with a ridge of
    ``KERNEL_RIDGE`` times the Gram norm; the achieved residual is verified
    rather than trusted, and construction fails if it reaches
    ``KERNEL_RESIDUAL_TOL``.  Raising ``unbias_cutoff`` above
    ``fock_cutoff`` additionally zeroes the response of the kernels to
    higher number states, cutting leakage bias when the input state has
    weight beyond the reconstruction cutoff.

    Noise inversion is only possible for eta_h > 1/2; the constructor
    enforces this bound.
    """
    if eta_h <= 0.5 or eta_h > 1.0:
        raise KernelConstructionError(
            f"homodyne noise is invertible only for eta_h in (1/2, 1], got {eta_h}"
        )
    if unbias_cutoff is None:
        unbias_cutoff = fock_cutoff
    if unbias_cutoff < fock_cutoff:
        raise ParameterRangeError("unbias_cutoff must be at least fock_cutoff")
    three = len(grid) == 3 and all(isinstance(v, numbers.Real) for v in grid)
    if not (three and grid[0] < grid[1] and grid[2] > 0):
        raise KernelConstructionError(f"grid must be [x_min < x_max, step > 0], not {grid!r}")
    x_min, x_max, step = grid
    n_points = int(round((x_max - x_min) / step)) + 1
    xs = x_min + step * np.arange(n_points)
    weights = np.full(n_points, step)
    weights[0] = weights[-1] = step / 2.0  # trapezoid rule

    q = smeared_fock_pdf_table(unbias_cutoff, eta_h, xs)  # (J+1, G)
    a = q * weights  # rows integrate against the grid
    gram = a @ a.T
    ridge = KERNEL_RIDGE * float(np.linalg.norm(gram, 2))
    target = np.eye(unbias_cutoff + 1)[:, : fock_cutoff + 1]
    kernels = (a.T @ np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), target)).T

    residual = float(np.abs(a @ kernels.T - target).max())
    if residual >= KERNEL_RESIDUAL_TOL:
        raise KernelConstructionError(
            f"kernel unbiasedness residual {residual:.3e} exceeds {KERNEL_RESIDUAL_TOL:.1e}; "
            "widen or refine the grid"
        )
    return KernelTable(float(x_min), float(step), kernels, int(unbias_cutoff), residual)


@dataclass(frozen=True)
class HomodyneQuorum:
    """Quadrature quorum at detection efficiency eta_h with diagonal kernels.

    The homodyne phase is drawn uniformly in [0, pi) by the sampler but is
    not used by the diagonal estimator (it must only be uniformly
    distributed for the diagonal reconstruction to be unbiased).
    """

    eta_h: float
    fock_cutoff: int
    smear_sigma2: float
    kernel_table: KernelTable


def homodyne_quorum(
    fock_cutoff: int,
    eta_h: float,
    grid: tuple[float, float, float] = KERNEL_GRID,
    unbias_cutoff: int | None = None,
) -> HomodyneQuorum:
    table = build_diagonal_kernels(fock_cutoff, eta_h, grid, unbias_cutoff)
    return HomodyneQuorum(float(eta_h), int(fock_cutoff), smeared_sigma2(eta_h), table)

