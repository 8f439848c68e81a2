"""Independent truths and certificates the benchmark checks calibrations against.

Nothing here calls the code paths it checks: the photocounter truth is an
exact rational-arithmetic beam-splitter computation, the random POVM is
redrawn from its seed, and the optimality gaps are computed from the
problem's raw arrays rather than through the problem's own sweep.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np

# two-sided coverage of a 3-sigma Gaussian band
COVERAGE = 0.9973
# Student-t quantile of that coverage per bootstrap repetition count, for the
# counts the workloads and their smoke sizes use; tabulated so that the
# measured process never imports scipy.stats (test_bench checks the values)
T_LIMITS = {3: 19.206015887811365, 5: 6.62007155118844, 30: 3.28039677468324}
# share of compared entries that must lie within the z limit
MIN_FRACTION = 0.90
# accepted for any ML solve, point estimate or bootstrap repetition
KKT_BOUND = 1e-2
COMPLETENESS_TOL = 1e-6
MONOTONE_SLACK = 1e-12
POSITIVITY_TOL = -1e-8
# exact-probability reconstruction error
EXACT_TOL = 1e-8
# records per chunk of the diagonal certificate
KKT_CHUNK = 4096


def counter_response(eta_p: float, nu: float, n_max: int, k_max: int, env_cutoff: int):
    """P(count k | Fock input n) of a beam splitter mixing the signal with a thermal mode.

    The detected output mode is a = sqrt(eta) a_s + sqrt(1 - eta) a_e.
    Expanding (a_s^dag)^n (a_e^dag)^j |0> binomially gives the amplitude of
    k photons in the detected mode from n signal and j thermal photons:

        A^2 = k! (n+j-k)! / (n! j!) * eta^(j-k) (1-eta)^(n+k) * S^2,
        S   = sum_a (-1)^(k-a) C(n, a) C(j, k-a) (eta / (1-eta))^a,

    summed over j with thermal weights nu^j / (1+nu)^(j+1), j <= env_cutoff.
    All arithmetic is exact on rationals; only the result is rounded.
    Returns M[k, n] for k <= k_max, n <= n_max.
    """
    eta = Fraction(eta_p).limit_denominator(10**6)
    mean = Fraction(nu).limit_denominator(10**6)
    ratio = eta / (1 - eta)
    out = [[Fraction(0)] * (n_max + 1) for _ in range(k_max + 1)]
    for j in range(env_cutoff + 1):
        thermal = mean**j / (1 + mean) ** (j + 1)
        for n in range(n_max + 1):
            total = n + j
            for k in range(min(k_max, total) + 1):
                s = sum(
                    (-1) ** (k - a) * comb(n, a) * comb(j, k - a) * ratio**a
                    for a in range(max(0, k - j), min(n, k) + 1)
                )
                weight = Fraction(factorial(k) * factorial(total - k), factorial(n) * factorial(j))
                out[k][n] += thermal * weight * eta ** (j - k) * (1 - eta) ** (n + k) * s * s
    return np.array([[float(x) for x in row] for row in out])


def draw_random_povm(dim: int, n_outcomes: int, seed: int) -> np.ndarray:
    """The Wishart POVM a ``{"kind": "random"}`` detector config asks for.

    Complex Gaussian G_n G_n^dag, normalized by S^(-1/2) . S^(-1/2) with
    S their sum; S^(-1/2) comes from an eigendecomposition here.
    """
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    w, u = np.linalg.eigh(sum(raw))
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    elements = np.stack([inv_sqrt @ a @ inv_sqrt for a in raw])
    return (elements + np.conj(np.transpose(elements, (0, 2, 1)))) / 2.0


def z_limit(n_reps: int | None) -> float:
    """Multiple of the stderr that holds a correct estimate with 3-sigma coverage.

    Analytic stderrs (``n_reps`` None) use 3; a bootstrap stderr from
    ``n_reps`` repetitions has n_reps - 1 degrees of freedom, so the
    Student-t quantile of the same coverage is used, from ``T_LIMITS``.
    """
    if n_reps is None:
        return 3.0
    return T_LIMITS[n_reps]


def kkt_gap_diagonal(responses, outcome_index, theta) -> float:
    """max_{n,m} grad[n,m] / lambda_m - 1 with lambda_m = sum_n theta[n,m] grad[n,m].

    grad[n, m] = sum over records i with outcome n of r[i, m] / (r[i] . theta[n]),
    the derivative of the log-likelihood; 0 at a KKT point of the
    completeness-constrained problem, positive elsewhere.  Records are taken
    in chunks so that no array the size of ``responses`` is allocated.
    """
    grad = np.zeros_like(theta)
    for lo in range(0, len(outcome_index), KKT_CHUNK):
        rows = responses[lo : lo + KKT_CHUNK]
        index = outcome_index[lo : lo + KKT_CHUNK]
        denom = np.einsum("im,im->i", rows, theta[index])
        np.add.at(grad, index, rows / np.maximum(denom, 1e-300)[:, None])
    lam = (theta * grad).sum(axis=0)
    live = lam > 0.0
    return float((grad[:, live] / lam[live]).max() - 1.0)


def kkt_gap_finite(effects, counts, elements) -> float:
    """lambda_max(Lambda^(-1/2) R_n Lambda^(-1/2)) - 1, maximized over outcomes n.

    R_n = sum_{k,m} counts[n,k,m] / p[n,k,m] T_km is the likelihood
    gradient and Lambda the Hermitian part of sum_n R_n P_n, the Lagrange
    operator of completeness (Fiurasek, PRA 64, 024102, 2001).
    """
    n_out = elements.shape[0]
    grads = []
    for n in range(n_out):
        probs = np.real(np.einsum("ij,kmji->km", elements[n], effects))
        ratio = np.divide(counts[n], probs, out=np.zeros_like(probs), where=counts[n] > 0)
        grads.append(np.einsum("km,kmij->ij", ratio, effects))
    lagrange = sum(r @ p for r, p in zip(grads, elements))
    lagrange = (lagrange + lagrange.conj().T) / 2.0
    w, u = np.linalg.eigh(lagrange)
    if w.min() <= 0.0:
        return float("inf")
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    return float(max(np.linalg.eigvalsh(inv_sqrt @ r @ inv_sqrt).max() for r in grads) - 1.0)


def kkt_gap(problem, povm) -> float:
    """Optimality gap of ``povm`` on a diagonal or finite ML problem."""
    if hasattr(problem, "responses"):
        return kkt_gap_diagonal(problem.responses, problem.outcome_index, povm.diagonal())
    elements = np.stack([np.asarray(p, dtype=complex) for p in povm.elements])
    return kkt_gap_finite(problem.effects, problem.counts, elements)
