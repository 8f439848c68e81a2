"""Constrained maximum-likelihood POVM reconstruction.

The likelihood of a candidate POVM given the joint records is

    L({P_n}) = sum_i log Tr[(P_{n_i} (x) |b_i><b_i|) R],

maximized under P_n >= 0 and sum_n P_n = I.  The maximizer is an EM-style
multiplicative fixed point with a Lagrange operator enforcing completeness;
in the number-diagonal case it reduces to per-entry multiplicative updates
with column renormalization and the problem is strictly concave, so the
optimum does not depend on the starting point.  A damped step and a
projected-gradient fallback guard against the (rare) non-increasing
proposal, keeping the recorded likelihood trace monotone.

The ascent stops on a certificate rather than on a stalled likelihood.
With R_n the gradient and Lambda the Hermitian part of sum_n R_n P_n
(so Tr Lambda = N, the record count), the operator
Y = Lambda + sum_n (R_n - Lambda)_+ dominates every R_n.  Concavity and
weak duality then give, for the constrained maximum P*,

    LL(P*) - LL(P) <= sum_n Tr[R_n (P*_n - P_n)] <= Tr Y - N
                    = sum_n Tr[(R_n - Lambda)_+] =: ll_gap,

a bound in nats that the solver evaluates from the gradient it already has.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qmath
from .detectors import Povm
from .errors import (
    CutoffError,
    NumericalValidityError,
    PovmInvariantError,
    UnsupportedStructureError,
)
from .quorum import FiniteQuorum, HomodyneQuorum, smeared_fock_pdf_table
from .sampler import Dataset
from .states import BipartiteState

LOG_FLOOR = 1e-300

COMPLETENESS_TOL = 1e-6
# certified log-likelihood gap (nats) at which the ascent stops; the bound
# has a float64 floor near 1e-2 on paper-scale problems
LL_GAP_TOL = 0.1
POSITIVITY_TOL = -1e-8
MONOTONE_SLACK = 1e-12


@dataclass
class DiagonalMlProblem:
    """Likelihood data for the number-diagonal scenario.

    ``responses[i, m] = w_m q_m(x_i)`` so that a record with outcome n has
    probability responses[i] . theta[n], with theta[n, m] = <m|P_n|m>.
    Records are grouped by outcome for vectorized EM sweeps.
    """

    weights: np.ndarray  # (M+1,)
    responses: np.ndarray  # (N, M+1) nonnegative
    outcome_index: np.ndarray  # (N,) row of theta per record
    outcomes: tuple[int, ...]  # outcome labels, catch-all last
    dim: int  # M+1

    def __post_init__(self):
        # per-outcome contiguous response blocks: the EM sweep reduces to
        # two BLAS-2 products per outcome with no per-iteration copies
        self._blocks = [
            np.ascontiguousarray(self.responses[self.outcome_index == r])
            for r in range(len(self.outcomes))
        ]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def initial(self) -> np.ndarray:
        return np.full((self.n_outcomes, self.dim), 1.0 / self.n_outcomes)

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-likelihood and its gradient d L / d theta[n, m] in one sweep."""
        ll = 0.0
        grad = np.zeros_like(theta)
        for r, block in enumerate(self._blocks):
            if block.shape[0] == 0:
                continue
            denom = np.maximum(block @ theta[r], LOG_FLOOR)
            ll += float(np.log(denom).sum())
            grad[r] = block.T @ (1.0 / denom)
        return ll, grad

    def log_likelihood(self, theta: np.ndarray) -> float:
        return self.evaluate(theta)[0]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.evaluate(theta)[1]

    def ll_gap(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """Certified bound on LL(optimum) - LL(theta): sum_{n,m} (grad[n,m] - lambda_m)_+."""
        lagrange = (theta * grad).sum(axis=0)
        return float(np.clip(grad - lagrange, 0.0, None).sum())

    def em_update(self, theta: np.ndarray, gradient: np.ndarray | None = None) -> np.ndarray:
        numerator = theta * (self.gradient(theta) if gradient is None else gradient)
        column = numerator.sum(axis=0)
        live = column > 0.0
        updated = theta.copy()
        updated[:, live] = numerator[:, live] / column[live]
        # multiplicative decay drives dead entries through the subnormal
        # range, which slows the BLAS sweeps; flush them to exact zero
        # (a column maximum is always >= 1/n_outcomes, so no column dies)
        updated[updated < 1e-250] = 0.0
        return updated

    def project(self, theta: np.ndarray) -> np.ndarray:
        """Completeness-affine shift, then clipping with column renormalization."""
        shifted = theta + (1.0 - theta.sum(axis=0)) / self.n_outcomes
        clipped = np.clip(shifted, 0.0, None)
        column = clipped.sum(axis=0)
        column[column == 0.0] = 1.0
        return clipped / column

    def constraint_violation(self, theta: np.ndarray) -> tuple[float, float]:
        completeness = float(np.abs(theta.sum(axis=0) - 1.0).max())
        return completeness, float(theta.min())

    def to_povm(self, theta: np.ndarray) -> Povm:
        return Povm(tuple(np.diag(row.astype(complex)) for row in theta))

    def from_povm(self, povm: Povm) -> np.ndarray:
        if len(povm) != self.n_outcomes or povm.dim != self.dim:
            raise PovmInvariantError("POVM shape does not match the problem")
        return povm.diagonal()


@dataclass
class FiniteMlProblem:
    """Likelihood data for a finite-dimensional scenario.

    Records are compressed into the count tensor counts[n, k, m]; each
    (k, m) pair carries the effective system-side operator
    T_km = Tr_2[(1 (x) |b^k_m><b^k_m|) R], so a record's probability is
    Tr[P_n T_km].
    """

    effects: np.ndarray  # (K, d_t, ds, ds)
    counts: np.ndarray  # (n_out, K, d_t)
    outcomes: tuple[int, ...]
    dim: int  # ds

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def initial(self) -> np.ndarray:
        eye = np.eye(self.dim, dtype=complex) / self.n_outcomes
        return np.stack([eye] * self.n_outcomes)

    def _probs(self, elements: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("nij,kmji->nkm", elements, self.effects))

    def evaluate(self, elements: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-likelihood and the update operators R_n = sum (counts/probs) T
        (which double as the likelihood gradient) in one sweep."""
        probs = np.maximum(self._probs(elements), LOG_FLOOR)
        ll = float((self.counts * np.log(probs)).sum())
        ratio = self.counts / probs
        grad = np.einsum("nkm,kmij->nij", ratio, self.effects)
        return ll, grad

    def log_likelihood(self, elements: np.ndarray) -> float:
        return self.evaluate(elements)[0]

    def gradient(self, elements: np.ndarray) -> np.ndarray:
        return self.evaluate(elements)[1]

    def ll_gap(self, elements: np.ndarray, grad: np.ndarray) -> float:
        """Certified bound on LL(optimum) - LL(elements): sum_n Tr[(R_n - Lambda)_+]."""
        lagrange = np.einsum("nij,njk->ik", grad, elements)
        lagrange = (lagrange + lagrange.conj().T) / 2.0
        return float(np.clip(np.linalg.eigvalsh(grad - lagrange), 0.0, None).sum())

    def em_update(self, elements: np.ndarray, gradient: np.ndarray | None = None) -> np.ndarray:
        r_ops = self.gradient(elements) if gradient is None else gradient
        g_ops = np.einsum("nij,njk,nkl->nil", r_ops, elements, r_ops)
        lagrange = g_ops.sum(axis=0)
        correction = qmath.hermitian_inverse_sqrt(lagrange)
        updated = np.einsum("ij,njk,kl->nil", correction, g_ops, correction)
        return (updated + np.conj(np.transpose(updated, (0, 2, 1)))) / 2.0

    def project(self, elements: np.ndarray) -> np.ndarray:
        shift = (np.eye(self.dim) - elements.sum(axis=0)) / self.n_outcomes
        projected = []
        for p in elements + shift:
            h = (p + p.conj().T) / 2.0
            w, u = np.linalg.eigh(h)
            projected.append((u * np.clip(w, 0.0, None)) @ u.conj().T)
        return np.stack(projected)

    def constraint_violation(self, elements: np.ndarray) -> tuple[float, float]:
        total = elements.sum(axis=0)
        completeness = float(np.abs(total - np.eye(self.dim)).max())
        min_eig = min(qmath.positivity_report(p).min_eigenvalue for p in elements)
        return completeness, min_eig

    def to_povm(self, elements: np.ndarray) -> Povm:
        return Povm(tuple(np.array(p) for p in elements))

    def from_povm(self, povm: Povm) -> np.ndarray:
        if len(povm) != self.n_outcomes or povm.dim != self.dim:
            raise PovmInvariantError("POVM shape does not match the problem")
        return np.stack([np.asarray(p, dtype=complex) for p in povm.elements])


def _outcome_rows(outcome_n: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Observed outcome labels plus one catch-all label above them, and the
    row of each record's outcome among those labels."""
    observed = np.unique(outcome_n)
    outcomes = tuple(int(n) for n in observed) + (int(observed.max()) + 1,)
    return outcomes, np.searchsorted(observed, outcome_n)


def build_problem_diagonal(
    data: Dataset,
    state: BipartiteState,
    hq: HomodyneQuorum,
    fock_cutoff: int | None = None,
    weight_tail_tol: float = 1e-4,
) -> DiagonalMlProblem:
    """Precompute response rows w_m q_m(x_i) for the diagonal likelihood.

    ``fock_cutoff`` bounds the reconstruction space; the pair-weight tail
    above it must stay below ``weight_tail_tol`` or the likelihood model
    would miss real records (the cutoff bias the method is known for).
    The outcome set is the observed outcomes plus one catch-all row that
    absorbs the completeness remainder.
    """
    if data.kind != "homodyne":
        raise UnsupportedStructureError("diagonal problem requires homodyne data")
    full_weights = state.diagonal_weights()
    if fock_cutoff is None:
        fock_cutoff = full_weights.size - 1
    tail = float(full_weights[fock_cutoff + 1 :].sum())
    if tail > weight_tail_tol:
        raise CutoffError(
            f"pair-weight tail {tail:.3e} above cutoff {fock_cutoff} exceeds "
            f"{weight_tail_tol:.1e}"
        )
    weights = full_weights[: fock_cutoff + 1]
    q = smeared_fock_pdf_table(fock_cutoff, hq.eta_h, data.result)  # (M+1, N)
    responses = (q * weights[:, None]).T.copy()
    if not np.isfinite(responses).all() or responses.min() < 0.0:
        raise NumericalValidityError("response rows must be finite and nonnegative")
    # records whose response underflowed to zero everywhere carry no
    # information about theta; keeping them would destabilize the updates
    live = responses.sum(axis=1) > 0.0
    responses = responses[live]

    outcomes, rows = _outcome_rows(data.outcome_n)
    return DiagonalMlProblem(weights, responses, rows[live], outcomes, fock_cutoff + 1)


def build_problem_finite(
    data: Dataset, state: BipartiteState, quorum: FiniteQuorum
) -> FiniteMlProblem:
    """Compress records into counts and per-(setting, outcome) effective operators.

    Tomographer noise, when present, is accounted for by passing the
    noise-degraded state (the same one the data was generated from).
    """
    if data.kind != "finite":
        raise UnsupportedStructureError("finite problem requires finite-quorum data")
    ds, dt = state.dim_system, state.dim_tomo
    rho4 = state.rho.reshape(ds, dt, ds, dt)
    effects = np.empty((quorum.n_settings, dt, ds, ds), dtype=complex)
    for k, setting in enumerate(quorum.settings):
        # T_km[a, b] = <m| Tr_1-dual |...>: contraction over tomographer indices
        effects[k] = np.einsum("mp,apbq,mq->mab", setting.vectors.conj(), rho4, setting.vectors)

    outcomes, rows = _outcome_rows(data.outcome_n)
    counts = np.zeros((len(outcomes), quorum.n_settings, dt))
    np.add.at(counts, (rows, data.setting_k, data.result), 1.0)
    return FiniteMlProblem(effects, counts, outcomes, ds)


@dataclass(frozen=True)
class MlResult:
    povm_hat: Povm
    final_log_likelihood: float
    iterations: int
    converged: bool  # ll_gap <= the solve's gap_tol
    ll_gap: float  # certified bound on LL(optimum) - final_log_likelihood, nats
    ll_trace: np.ndarray
    completeness_deviation: float
    min_eigenvalue: float

    def export_json(self, path) -> None:
        payload = {
            "final_log_likelihood": self.final_log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "ll_gap": self.ll_gap,
            "ll_trace": self.ll_trace.tolist(),
            "completeness_deviation": self.completeness_deviation,
            "min_eigenvalue": self.min_eigenvalue,
            "povm": [
                {"real": np.real(p).tolist(), "imag": np.imag(p).tolist()}
                for p in self.povm_hat.elements
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def log_likelihood(povm: Povm, problem) -> float:
    """Joint log-likelihood of a POVM (records with vanishing probability
    contribute log(1e-300) instead of -inf)."""
    return problem.log_likelihood(problem.from_povm(povm))


def maximize(
    problem,
    init: Povm | None = None,
    max_iters: int = 20000,
    min_ll_increase: float = 1e-8,
    accelerate: bool = True,
    gap_tol: float = LL_GAP_TOL,
) -> MlResult:
    """Likelihood ascent until the certified gap ``ll_gap`` is at most ``gap_tol``.

    Every accepted iterate satisfies completeness to 1e-6 and positivity
    to -1e-8, and the recorded trace is nondecreasing (1e-12 slack).  If
    the multiplicative proposal fails to improve, damped steps toward it
    are tried, then a projected-gradient line search.  The ascent gives up
    uncertified when that rescue fails, when an iteration gains less than
    ``min_ll_increase`` or after ``max_iters`` iterations; ``converged``
    is true only when the certificate holds.

    With ``accelerate`` each iteration also tries a squared-extrapolation
    jump along the last two fixed-point steps (stabilized by one more
    multiplicative update, so constraints still hold exactly); the jump is
    taken only when it beats the plain update, which preserves likelihood
    monotonicity while cutting the long geometric tail of the fixed-point
    convergence by an order of magnitude.
    """
    if init is not None:
        current = problem.from_povm(init)
        completeness, min_eig = problem.constraint_violation(current)
        if completeness > COMPLETENESS_TOL or min_eig < POSITIVITY_TOL:
            raise PovmInvariantError(
                f"initial POVM violates constraints (completeness {completeness:.2e}, "
                f"min eigenvalue {min_eig:.2e})"
            )
    else:
        current = problem.initial()

    ll_current, grad_current = problem.evaluate(current)
    trace = [ll_current]
    gap = problem.ll_gap(current, grad_current)
    iterations = 0
    while gap > gap_tol and iterations < max_iters:
        proposal = problem.em_update(current, grad_current)
        ll_new, grad_new = problem.evaluate(proposal)
        if ll_new < trace[-1] - MONOTONE_SLACK:
            proposal, ll_new = _rescue_step(problem, current, proposal, trace[-1])
            if proposal is None:
                break
            grad_new = problem.gradient(proposal)
        elif accelerate:
            step1, ll1, grad1 = proposal, ll_new, grad_new
            step2 = problem.em_update(step1, grad1)
            ll2, grad2 = problem.evaluate(step2)
            if ll2 >= ll1 - MONOTONE_SLACK:
                proposal, ll_new, grad_new = step2, ll2, grad2
            jumped = _extrapolated_step(problem, current, step1, step2)
            if jumped is not None:
                ll_jump, grad_jump = problem.evaluate(jumped)
                if ll_jump > ll_new:
                    proposal, ll_new, grad_new = jumped, ll_jump, grad_jump
        iterations += 1
        current, grad_current = proposal, grad_new
        increase = ll_new - trace[-1]
        trace.append(ll_new)
        gap = problem.ll_gap(current, grad_current)
        if increase < min_ll_increase:
            break

    completeness, min_eig = problem.constraint_violation(current)
    return MlResult(
        povm_hat=problem.to_povm(current),
        final_log_likelihood=trace[-1],
        iterations=iterations,
        converged=gap <= gap_tol,
        ll_gap=gap,
        ll_trace=np.asarray(trace),
        completeness_deviation=completeness,
        min_eigenvalue=min_eig,
    )


def _extrapolated_step(problem, point0, point1, point2):
    """Squared-extrapolation proposal from two consecutive fixed-point steps.

    Extrapolates along the step direction with the classical steplength
    -|r|/|v|, re-feasibilizes, and applies one more multiplicative update
    so the returned point is always an exact constraint-satisfying update
    output.  Returns None when the steps give no usable curvature.
    """
    r = point1 - point0
    v = (point2 - point1) - r
    v_norm_sq = float(np.real(np.vdot(v, v)))
    if v_norm_sq <= 0.0:
        return None
    alpha = -np.sqrt(float(np.real(np.vdot(r, r))) / v_norm_sq)
    if alpha > -1.0:
        alpha = -1.0
    jumped = point0 - 2.0 * alpha * r + alpha**2 * v
    feasible = problem.project(jumped)
    return problem.em_update(feasible)


def _rescue_step(problem, current, proposal, ll_current):
    """Recover an improving step when the raw fixed-point proposal fails.

    Damped interpolation stays exactly inside the constraint set (it is a
    convex combination); projected gradient is the last resort.
    """
    for _ in range(12):
        proposal = 0.5 * (current + proposal)
        ll = problem.log_likelihood(proposal)
        if ll > ll_current:
            return proposal, ll
    gradient = problem.gradient(current)
    scale = float(np.max(np.abs(gradient)))
    step = 1.0 / scale if scale > 0 else 0.0
    for _ in range(20):
        candidate = problem.project(current + step * gradient)
        ll = problem.log_likelihood(candidate)
        if ll > ll_current:
            completeness, min_eig = problem.constraint_violation(candidate)
            if completeness <= COMPLETENESS_TOL and min_eig >= POSITIVITY_TOL:
                return candidate, ll
        step *= 0.5
    return None, None
