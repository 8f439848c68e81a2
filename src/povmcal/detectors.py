"""Ground-truth detector POVMs used to generate data and validate reconstructions.

The workhorse is a photon counter with quantum efficiency ``eta_p`` and
dark counts of mean ``nu``, modeled as a beam splitter of transmissivity
``eta_p`` mixing the signal with a thermal mode of ``nu`` average photons
in front of an ideal counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import qmath
from .errors import DimensionMismatchError, PovmInvariantError, TailMassError
from .qmath import ComplexOperator


@dataclass(frozen=True)
class Povm:
    """Ordered positive operators summing to the identity.

    ``elements[n]`` is the effect for outcome label n.  Invariants
    (Hermitian to 1e-12, eigenvalues >= -1e-10, completeness to 1e-10
    entrywise) are checked by :meth:`validate`, not silently enforced.
    """

    elements: tuple[ComplexOperator, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        dims = {e.shape for e in self.elements}
        if len(dims) != 1:
            raise DimensionMismatchError(f"inconsistent element shapes: {dims}")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, n: int) -> ComplexOperator:
        return self.elements[n]

    def __iter__(self):
        return iter(self.elements)

    def completeness_deviation(self) -> float:
        total = sum(self.elements)
        return float(np.abs(total - np.eye(self.dim)).max())

    def min_eigenvalue(self) -> float:
        return qmath.min_eigenvalue(self.elements)

    def max_antihermitian_deviation(self) -> float:
        return max(qmath.positivity_report(e).max_antihermitian_deviation for e in self.elements)

    def validate(
        self,
        herm_tol: float = 1e-12,
        eig_tol: float = -1e-10,
        completeness_tol: float = 1e-10,
    ) -> None:
        dev = self.max_antihermitian_deviation()
        if dev > herm_tol:
            raise PovmInvariantError(f"element not Hermitian: deviation {dev:.3e}")
        lo = self.min_eigenvalue()
        if lo < eig_tol:
            raise PovmInvariantError(f"element has eigenvalue {lo:.3e} below {eig_tol:.1e}")
        comp = self.completeness_deviation()
        if comp > completeness_tol:
            raise PovmInvariantError(f"completeness deviation {comp:.3e} exceeds tolerance")

    def is_diagonal(self, atol: float = 1e-14) -> bool:
        return all(
            np.abs(e - np.diag(np.diagonal(e))).max() <= atol for e in self.elements
        )

    def diagonal(self) -> np.ndarray:
        """Real matrix D[n, m] = <m|P_n|m>."""
        return np.stack([np.real(np.diagonal(e)) for e in self.elements])


def projective_povm(basis) -> Povm:
    """Rank-one projectors onto an orthonormal basis (rows of ``basis``)."""
    vectors = np.asarray(basis, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
        raise DimensionMismatchError("basis must be a square array of row vectors")
    gram = vectors @ vectors.conj().T
    deviation = float(np.abs(gram - np.eye(vectors.shape[0])).max())
    if deviation >= 1e-10:
        raise PovmInvariantError(f"basis is not orthonormal: Gram deviation {deviation:.3e}")
    return Povm(tuple(np.outer(v, v.conj()) for v in vectors))


def thermal_tail_mass(nu: float, cutoff: int) -> float:
    """Probability mass of a thermal distribution above ``cutoff``."""
    if nu == 0.0:
        return 0.0
    return float((nu / (1.0 + nu)) ** (cutoff + 1))


def binomial_loss_matrix(eta: float, dim_in: int, dim_out: int | None = None) -> np.ndarray:
    """Transition matrix L[j, n] = C(n,j) eta^j (1-eta)^(n-j) of a pure-loss channel."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    dim_out = dim_in if dim_out is None else dim_out
    if eta == 1.0:
        return np.eye(dim_out, dim_in)
    if eta == 0.0:
        out = np.zeros((dim_out, dim_in))
        out[0, :] = 1.0
        return out
    n = np.arange(dim_in)[None, :]
    j = np.arange(dim_out)[:, None]
    log_p = (
        gammaln(n + 1)
        - gammaln(j + 1)
        - gammaln(n - j + 1)
        + j * np.log(eta)
        + (n - j) * np.log1p(-eta)
    )
    return np.where(j <= n, np.exp(log_p), 0.0)


def amplifier_matrix(gain: float, dim_in: int, dim_out: int | None = None) -> np.ndarray:
    """Transition matrix of a quantum-limited amplifier of gain G >= 1.

    A[k, j] = C(k, j) (1/G)^(j+1) (1 - 1/G)^(k-j) for k >= j.  Columns sum
    to 1 only in the infinite-dimensional limit; the truncation remainder
    is handled by the caller.
    """
    if gain < 1.0:
        raise ValueError("gain must be >= 1")
    dim_out = dim_in if dim_out is None else dim_out
    if gain == 1.0:
        return np.eye(dim_out, dim_in)
    k = np.arange(dim_out)[:, None]
    j = np.arange(dim_in)[None, :]
    log_p = (
        gammaln(k + 1)
        - gammaln(j + 1)
        - gammaln(k - j + 1)
        + (j + 1) * np.log(1.0 / gain)
        + (k - j) * np.log1p(-1.0 / gain)
    )
    return np.where(k >= j, np.exp(log_p), 0.0)


def photocounter_response(
    eta_p: float, nu: float, fock_cutoff: int, env_cutoff: int
) -> np.ndarray:
    """Outcome probabilities M[k, n] = P(count k | Fock input n) of the noisy counter.

    Uses the exact decomposition of the beam-splitter-with-thermal-ancilla
    channel into a pure-loss channel of transmissivity eta_p / G followed
    by a quantum-limited amplifier of gain G = 1 + (1 - eta_p) nu; the
    resulting counting statistics match the brute-force two-mode model.
    Outcomes run over k = 0..fock_cutoff+env_cutoff; the last row absorbs
    the (tiny) amplifier tail so each column sums to exactly 1.
    """
    if not 0.0 < eta_p <= 1.0:
        raise ValueError("eta_p must lie in (0, 1]")
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    tail = thermal_tail_mass(nu, env_cutoff)
    if tail >= 1e-8:
        raise TailMassError(
            f"thermal tail mass {tail:.3e} at env_cutoff={env_cutoff} exceeds 1e-8"
        )
    dim_in = fock_cutoff + 1
    dim_out = fock_cutoff + env_cutoff + 1
    gain = 1.0 + (1.0 - eta_p) * nu
    loss = binomial_loss_matrix(eta_p / gain, dim_in)
    amp = amplifier_matrix(gain, dim_in, dim_out)
    response = amp @ loss
    response[-1, :] += 1.0 - response.sum(axis=0)
    return response


def noisy_photocounter(
    eta_p: float, nu: float, fock_cutoff: int, env_cutoff: int
) -> Povm:
    """POVM of the lossy, dark-count-afflicted photon counter (diagonal in Fock basis)."""
    response = photocounter_response(eta_p, nu, fock_cutoff, env_cutoff)
    return Povm(tuple(np.diag(row.astype(complex)) for row in response))


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Reproducible random POVM: Wishart-like effects normalized by S^(-1/2) . S^(-1/2)."""
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be at least 1")
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    correction = qmath.hermitian_inverse_sqrt(total)
    elements = []
    for a in raw:
        p = correction @ a @ correction
        elements.append((p + p.conj().T) / 2.0)
    return Povm(tuple(elements))
