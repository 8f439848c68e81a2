"""Bipartite input states and the calibration map they induce.

A bipartite state R on system (x) tomographer defines the linear map

    M_R(X) = Tr_1[(X (x) 1) R]

sending a system operator X to the tomographer-side operator whose
statistics the joint measurement exposes.  Calibration inverts this map,
so its conditioning is the central figure of merit: R is *faithful*
exactly when the map is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimensionMismatchError, UnnormalizableStateError, UnsupportedStructureError
from .qmath import ComplexOperator


class BipartiteState:
    """Joint state of the measured system and the tomographer probe.

    States of the form ``sum_m c_m |m>|m>`` (maximally entangled, twin
    beam) are stored by their Schmidt vector and the dense density matrix
    is materialized lazily; at photon-number cutoffs near 54 the dense
    matrix is ~150 MB and is never needed by the diagonal pipeline.

    ``truncation_deficit`` records the probability mass removed by a
    Fock-space cutoff before renormalization (0 for exact states).
    """

    def __init__(
        self,
        dim_system: int,
        dim_tomo: int,
        *,
        rho: ComplexOperator | None = None,
        schmidt: np.ndarray | None = None,
        truncation_deficit: float = 0.0,
    ):
        if (rho is None) == (schmidt is None):
            raise ValueError("provide exactly one of rho= or schmidt=")
        if dim_system < 1 or dim_tomo < 1:
            raise DimensionMismatchError("dimensions must be positive")
        self.dim_system = int(dim_system)
        self.dim_tomo = int(dim_tomo)
        self.truncation_deficit = float(truncation_deficit)
        self._schmidt = None if schmidt is None else np.asarray(schmidt, dtype=float)
        if self._schmidt is not None:
            if self._schmidt.size != min(dim_system, dim_tomo) or dim_system != dim_tomo:
                raise DimensionMismatchError(
                    "schmidt form requires equal local dimensions matching the vector length"
                )
        self._rho = None
        if rho is not None:
            r = qmath.as_operator(rho)
            if r.shape[0] != dim_system * dim_tomo:
                raise DimensionMismatchError(
                    f"rho has dimension {r.shape[0]}, expected {dim_system * dim_tomo}"
                )
            self._rho = r

    @property
    def schmidt(self) -> np.ndarray | None:
        """Schmidt coefficients c_m when the state is sum_m c_m |m>|m>, else None."""
        return self._schmidt

    @property
    def rho(self) -> ComplexOperator:
        """Dense density matrix (built on first access for Schmidt-form states)."""
        if self._rho is None:
            d = self.dim_system
            psi = np.zeros(d * d, dtype=complex)
            psi[np.arange(d) * d + np.arange(d)] = self._schmidt
            self._rho = np.outer(psi, psi.conj())
        return self._rho

    def diagonal_weights(self) -> np.ndarray:
        """Pair-number weights |c_m|^2 for Schmidt-form states."""
        if self._schmidt is None:
            raise UnsupportedStructureError("state is not in Schmidt form")
        return self._schmidt**2

    def validate(self, herm_tol: float = 1e-12, eig_tol: float = -1e-10, trace_tol: float = 1e-12):
        """Check Hermiticity, positivity and unit trace of the dense matrix."""
        report = qmath.positivity_report(self.rho)
        if report.max_antihermitian_deviation > herm_tol:
            raise ValueError(
                f"rho is not Hermitian: deviation {report.max_antihermitian_deviation:.3e}"
            )
        if report.min_eigenvalue < eig_tol:
            raise ValueError(f"rho has negative eigenvalue {report.min_eigenvalue:.3e}")
        trace = float(np.real(np.trace(self.rho)))
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"rho has trace {trace!r}, expected 1")


def maximally_entangled(d: int) -> BipartiteState:
    """|Psi> = sum_i |i>|i> / sqrt(d) as a density operator on d*d dimensions."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return BipartiteState(d, d, schmidt=np.full(d, 1.0 / np.sqrt(d)))


def twin_beam(xi: float, fock_cutoff: int) -> BipartiteState:
    """Photon-number-correlated two-mode state with amplitudes ~ xi^m.

    Truncated at ``fock_cutoff`` pairs and renormalized; the removed tail
    mass xi^(2*(cutoff+1)) is recorded as ``truncation_deficit``.  Callers
    should pick the cutoff so the deficit is below ~1e-6 (xi = 0.88 needs
    cutoff >= 54).
    """
    if not 0.0 <= xi < 1.0:
        raise UnnormalizableStateError(f"twin beam requires 0 <= xi < 1, got {xi}")
    if fock_cutoff < 1:
        raise ValueError("fock_cutoff must be positive")
    m = np.arange(fock_cutoff + 1)
    amplitudes = xi**m
    deficit = xi ** (2 * (fock_cutoff + 1))
    amplitudes /= np.sqrt(np.sum(amplitudes**2))
    return BipartiteState(
        fock_cutoff + 1,
        fock_cutoff + 1,
        schmidt=amplitudes,
        truncation_deficit=float(deficit),
    )


def product_mixed(dim_system: int, dim_tomo: int) -> BipartiteState:
    """Maximally mixed product state; carries no correlations at all."""
    d = dim_system * dim_tomo
    return BipartiteState(dim_system, dim_tomo, rho=np.eye(d, dtype=complex) / d)


def apply_noise_tomo_side(state: BipartiteState, noise) -> BipartiteState:
    """Apply a (Schrodinger-picture) noise map to the tomographer side.

    Sampling from the returned state with ideal quorum projectors is
    statistically identical to sampling from the original state with
    noise-degraded projectors, since
    Tr[(P (x) N^adj(B)) R] = Tr[(P (x) B) (1 (x) N)(R)].
    """
    ds, dt = state.dim_system, state.dim_tomo
    rho4 = state.rho.reshape(ds, dt, ds, dt)
    super4 = noise.superoperator.reshape(dt, dt, dt, dt)
    noisy = np.einsum("PQpq,apbq->aPbQ", super4, rho4).reshape(ds * dt, ds * dt)
    return BipartiteState(ds, dt, rho=noisy, truncation_deficit=state.truncation_deficit)


@dataclass(frozen=True)
class MapROperator:
    """Matrix form of M_R (and its pseudo-inverse) on a chosen subspace.

    ``subspace="full"``: ``matrix`` is (dt^2, ds^2) and acts on vec(X).
    ``subspace="diagonal"``: ``matrix`` is (dt, ds) and acts on diag(X);
    used in the continuous-variable scenario where the reconstruction is
    restricted to the photon-number diagonal.

    ``condition_number`` is the ratio of largest to smallest singular
    value, reported as ``inf`` when any singular value falls below
    ``svd_tolerance * s_max`` (the map is rank-deficient at this
    tolerance, i.e. the state is not faithful on this subspace).
    Inversion never throws: information loss shows up as exploding
    statistical errors downstream, and callers gate on the condition
    number instead.
    """

    matrix: np.ndarray
    pseudo_inverse: np.ndarray
    condition_number: float
    svd_tolerance: float
    subspace: str = "full"

    @property
    def dim_system(self) -> int:
        n = self.matrix.shape[1]
        return int(round(np.sqrt(n))) if self.subspace == "full" else n

    @property
    def dim_tomo(self) -> int:
        n = self.matrix.shape[0]
        return int(round(np.sqrt(n))) if self.subspace == "full" else n

    def apply(self, x: ComplexOperator | np.ndarray) -> np.ndarray:
        """Forward action; takes/returns matrices ("full") or diagonal vectors."""
        if self.subspace == "full":
            y = self.matrix @ qmath.vec(x)
            return qmath.unvec(y, self.dim_tomo)
        return self.matrix @ np.asarray(x)

    def invert(self, y: ComplexOperator | np.ndarray) -> np.ndarray:
        if self.subspace == "full":
            x = self.pseudo_inverse @ qmath.vec(y)
            return qmath.unvec(x, self.dim_system)
        return self.pseudo_inverse @ np.asarray(y)


def _pinv_with_condition(matrix: np.ndarray, svd_tolerance: float):
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(matrix.conj().T), float("inf")
    keep = s > svd_tolerance * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv_s) @ u.conj().T
    full_rank = bool(keep.all()) and s.size == min(matrix.shape)
    condition = float(s[0] / s[-1]) if full_rank else float("inf")
    return pinv, condition


def build_map_R(state: BipartiteState, svd_tolerance: float = 1e-10) -> MapROperator:
    """Vectorized matrix of X |-> Tr_1[(X (x) 1) R] with SVD pseudo-inverse.

    With rho reshaped to rho4[a, p, b, q] (a, b system; p, q tomographer),
    M_R(X)[p, q] = sum_{a,c} X[a, c] rho4[c, p, a, q], so the matrix is a
    pure axis permutation of rho.
    """
    ds, dt = state.dim_system, state.dim_tomo
    rho4 = state.rho.reshape(ds, dt, ds, dt)
    matrix = np.transpose(rho4, (1, 3, 2, 0)).reshape(dt * dt, ds * ds)
    pinv, condition = _pinv_with_condition(matrix, svd_tolerance)
    return MapROperator(matrix, pinv, condition, svd_tolerance, subspace="full")


def build_diagonal_map_R(
    state: BipartiteState, cutoff: int | None = None, svd_tolerance: float = 1e-10
) -> MapROperator:
    """Restriction of M_R to photon-number-diagonal operators.

    For diagonal X the map reads diag(M_R(X))[p] = sum_a rho4[a,p,a,p] X[a,a];
    for a Schmidt-form state this is just multiplication by the pair
    weights |c_m|^2.  ``cutoff`` truncates both sides to indices <= cutoff
    (the subspace the reconstruction actually uses).
    """
    if state.schmidt is not None:
        weights = state.diagonal_weights()
        matrix = np.diag(weights.astype(complex))
    else:
        ds, dt = state.dim_system, state.dim_tomo
        rho4 = state.rho.reshape(ds, dt, ds, dt)
        matrix = np.einsum("apap->pa", rho4)
    if cutoff is not None:
        if cutoff + 1 > min(matrix.shape):
            raise DimensionMismatchError(
                f"diagonal cutoff {cutoff} exceeds state dimension {min(matrix.shape)}"
            )
        matrix = matrix[: cutoff + 1, : cutoff + 1]
    pinv, condition = _pinv_with_condition(matrix, svd_tolerance)
    return MapROperator(matrix, pinv, condition, svd_tolerance, subspace="diagonal")

