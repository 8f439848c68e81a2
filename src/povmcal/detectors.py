"""Ground-truth detector POVMs used to generate data and validate reconstructions.

The workhorse is a photon counter with quantum efficiency ``eta_p`` and
dark counts of mean ``nu``, modeled as a beam splitter of transmissivity
``eta_p`` mixing the signal with a thermal mode of ``nu`` average photons
in front of an ideal counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimensionMismatchError, ParameterRangeError, PovmInvariantError, TailMassError
from .qmath import ComplexOperator

# largest off-diagonal magnitude an element of a number-diagonal POVM may have
DIAGONAL_ATOL = 1e-14


@dataclass(frozen=True)
class Povm:
    """Ordered positive operators summing to the identity.

    ``elements[n]`` is the effect for outcome label n.  Positivity and
    completeness are not checked on construction.
    """

    elements: tuple[ComplexOperator, ...]

    def __post_init__(self):
        if not self.elements:
            raise PovmInvariantError("a POVM needs at least one element")
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

    def is_diagonal(self) -> bool:
        return all(
            np.abs(e - np.diag(np.diagonal(e))).max() <= DIAGONAL_ATOL for e in self.elements
        )

    def diagonal(self) -> np.ndarray:
        """Real matrix D[n, m] = <m|P_n|m>."""
        return np.stack([np.real(np.diagonal(e)) for e in self.elements])


def thermal_tail_mass(nu: float, cutoff: int) -> float:
    """Probability mass of a thermal distribution above ``cutoff``."""
    if nu == 0.0:
        return 0.0
    return float((nu / (1.0 + nu)) ** (cutoff + 1))


def _binomial_table(p: float, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """C(top, bottom) p^bottom (1-p)^(top-bottom) from exact integer binomials.

    ``math.comb`` is 0 where bottom > top, and ``0.0**0 == 1.0`` keeps the
    p = 0 and p = 1 tables exact.
    """
    comb = np.frompyfunc(math.comb, 2, 1)(top, bottom).astype(float)
    return comb * p**bottom * (1.0 - p) ** np.maximum(top - bottom, 0)


def binomial_loss_matrix(eta: float, dim_in: int, dim_out: int | None = None) -> np.ndarray:
    """Transition matrix L[j, n] = C(n,j) eta^j (1-eta)^(n-j) of a pure-loss channel."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterRangeError("eta must lie in [0, 1]")
    dim_out = dim_in if dim_out is None else dim_out
    return _binomial_table(eta, np.arange(dim_in)[None, :], np.arange(dim_out)[:, None])


def amplifier_matrix(gain: float, dim_in: int, dim_out: int | None = None) -> np.ndarray:
    """Transition matrix of a quantum-limited amplifier of gain G >= 1.

    A[k, j] = C(k, j) (1/G)^(j+1) (1 - 1/G)^(k-j) for k >= j.  Columns sum
    to 1 only in the infinite-dimensional limit; the truncation remainder
    is handled by the caller.
    """
    if gain < 1.0:
        raise ParameterRangeError("gain must be >= 1")
    dim_out = dim_in if dim_out is None else dim_out
    p = 1.0 / gain
    return p * _binomial_table(p, np.arange(dim_out)[:, None], np.arange(dim_in)[None, :])


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
        raise ParameterRangeError("eta_p must lie in (0, 1]")
    if nu < 0.0:
        raise ParameterRangeError("nu must be nonnegative")
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
        raise ParameterRangeError("n_outcomes must be at least 1")
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
