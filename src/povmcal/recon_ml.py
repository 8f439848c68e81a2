"""Constrained maximum-likelihood POVM reconstruction.

The likelihood of a candidate POVM given the joint records is

    L({P_n}) = sum_i log Tr[(P_{n_i} (x) |b_i><b_i|) R],

maximized under P_n >= 0 and sum_n P_n = I.  The maximizer is an EM-style
multiplicative fixed point with a Lagrange operator enforcing completeness;
in the number-diagonal case it reduces to per-entry multiplicative updates
with column renormalization and the problem is strictly concave, so the
optimum does not depend on the starting point.  A proposal that loses
likelihood ends the ascent uncertified, so the recorded likelihood trace
stays monotone.

The ascent stops on a certificate rather than on a stalled likelihood.
With R_n the gradient and Lambda the Hermitian part of sum_n R_n P_n
(so Tr Lambda = N, the record count), the operator
Y = Lambda + sum_n (R_n - Lambda)_+ dominates every R_n.  Concavity and
weak duality then give, for the constrained maximum P*,

    LL(P*) - LL(P) <= sum_n Tr[R_n (P*_n - P_n)] <= Tr Y - N
                    = sum_n Tr[(R_n - Lambda)_+] =: ll_gap,

a bound in nats that the solver evaluates from the gradient it already has.

Multiplicative updates move slowly along near-zero eigen-directions, so in
the finite case most EM iterations would only tighten the certificate.
There each iteration first tries a projected Newton step (Bertsekas, SIAM
J. Control Optim. 20, 221, 1982) in the real Hermitian coordinates of the
elements.  Probabilities are linear in them, so the Hessian is exact and
block-diagonal; eigen-directions pinned at zero by positivity are held out
of the step, and completeness enters through one Lagrange solve.  The step
leaves the fixed point, the certificate and the stopping rule unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .sampler import Dataset, group_by_label
from .states import BipartiteState

LOG_FLOOR = 1e-300

COMPLETENESS_TOL = 1e-6
# certified log-likelihood gap (nats) at which the ascent stops; the bound
# has a float64 floor near 1e-2 on paper-scale problems
LL_GAP_TOL = 0.1
POSITIVITY_TOL = -1e-8
MONOTONE_SLACK = 1e-12
# an eigenvalue at most this, with nonpositive slack, pins its direction
# out of the Newton step; the step lengths the Newton candidate tries
PIN_EIGENVALUE = 1e-6
NEWTON_STEPS = (1.0, 0.5, 0.25, 0.125)


@dataclass
class DiagonalMlProblem:
    """Likelihood data for the number-diagonal scenario.

    Each row of ``rows`` is ``w_m q_m(x)`` for one record, so that a record
    with outcome n has probability row . theta[n], with
    theta[n, m] = <m|P_n|m>.  Rows are sorted stably by outcome, so each
    outcome's block is a contiguous view, and row i stands for
    ``multiplicity[i]`` copies of dataset record ``record[i]``: once each
    for a dataset, its draw count for a bootstrap resample.  ``n_records``
    is the dataset's length, underflowed records included.
    """

    rows: np.ndarray  # (R, M+1) nonnegative, grouped by outcome
    row_outcome: np.ndarray  # (R,) nondecreasing row of theta per row
    outcomes: tuple[int, ...]  # outcome labels, catch-all last
    dim: int  # M+1
    multiplicity: np.ndarray  # (R,) records each row stands for
    record: np.ndarray  # (R,) dataset index of each row's record
    n_records: int  # N, the records a bootstrap repetition draws

    def __post_init__(self):
        # per-outcome contiguous (rows, multiplicity) views: the sweep reduces
        # to two BLAS-2 products per outcome with no per-iteration copies
        bounds = np.searchsorted(self.row_outcome, np.arange(len(self.outcomes) + 1))
        self._blocks = [
            (self.rows[lo:hi], self.multiplicity[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    @property
    def responses(self) -> np.ndarray:
        """(N, M+1) response row of every record, grouped by outcome."""
        if (self.multiplicity == 1.0).all():
            return self.rows
        return np.repeat(self.rows, self.multiplicity.astype(np.intp), axis=0)

    @property
    def outcome_index(self) -> np.ndarray:
        """(N,) row of theta of every record, in the order of ``responses``."""
        return np.repeat(self.row_outcome, self.multiplicity.astype(np.intp))

    def resample(self, indices: np.ndarray) -> "DiagonalMlProblem":
        """Problem of the bootstrap resample that draws the dataset records
        ``indices``: rows never drawn are dropped, the rest carry their draw
        counts, and the outcome set stays."""
        draws = np.bincount(indices, minlength=int(self.record.max()) + 1)
        multiplicity = draws[self.record].astype(float)
        drawn = np.flatnonzero(multiplicity)
        return DiagonalMlProblem(
            self.rows[drawn],
            self.row_outcome[drawn],
            self.outcomes,
            self.dim,
            multiplicity[drawn],
            self.record[drawn],
            self.n_records,
        )

    def draw(self, rng: np.random.Generator) -> "DiagonalMlProblem":
        """Problem of one bootstrap repetition: the resample of N record
        indices drawn uniformly with replacement from ``rng``."""
        return self.resample(rng.integers(0, self.n_records, self.n_records))

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def initial(self) -> np.ndarray:
        return np.full((self.n_outcomes, self.dim), 1.0 / self.n_outcomes)

    def _sweep(self, theta: np.ndarray, with_ll: bool) -> tuple[float, np.ndarray]:
        ll = 0.0
        grad = np.zeros_like(theta)
        for r, (block, w) in enumerate(self._blocks):
            if block.shape[0] == 0:
                continue
            denom = np.maximum(block @ theta[r], LOG_FLOOR)
            if with_ll:
                ll += float((w * np.log(denom)).sum())
            grad[r] = block.T @ (w / denom)
        return ll, grad

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-likelihood and its gradient d L / d theta[n, m] in one sweep."""
        return self._sweep(theta, with_ll=True)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """The gradient of :meth:`evaluate` without its logarithm pass."""
        return self._sweep(theta, with_ll=False)[1]

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
    Tr[P_n T_km].  The likelihood sees the records only through the
    counts, so a bootstrap repetition needs nothing else either.
    """

    effects: np.ndarray  # (K, d_t, ds, ds)
    counts: np.ndarray  # (n_out, K, d_t)
    outcomes: tuple[int, ...]
    dim: int  # ds

    def __post_init__(self):
        # probabilities are linear in the real coordinates x_a = Tr[E_a P_n]
        # over an orthonormal Hermitian basis E_a: probs[n] = x_n @ design
        self._basis = _hermitian_basis(self.dim)
        self._design = np.real(np.einsum("aij,kmji->akm", self._basis, self.effects))

    def draw(self, rng: np.random.Generator) -> "FiniteMlProblem":
        """Problem of one bootstrap repetition, with the outcome set kept.

        Drawing N records with replacement puts them into the cells of the
        count tensor as one multinomial draw with probabilities counts / N,
        so the repetition's counts are drawn as that from ``rng``.
        """
        n = self.counts.sum()
        counts = rng.multinomial(int(n), self.counts.ravel() / n)
        return replace(self, counts=counts.reshape(self.counts.shape).astype(float))

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

    def gradient(self, elements: np.ndarray) -> np.ndarray:
        return self.evaluate(elements)[1]

    def ll_gap(self, elements: np.ndarray, grad: np.ndarray) -> float:
        """Certified bound on LL(optimum) - LL(elements): sum_n Tr[(R_n - Lambda)_+]."""
        lagrange = _lagrange(elements, grad)
        return float(np.clip(np.linalg.eigvalsh(grad - lagrange), 0.0, None).sum())

    def em_update(self, elements: np.ndarray, gradient: np.ndarray | None = None) -> np.ndarray:
        r_ops = self.gradient(elements) if gradient is None else gradient
        g_ops = np.einsum("nij,njk,nkl->nil", r_ops, elements, r_ops)
        lagrange = g_ops.sum(axis=0)
        correction = qmath.hermitian_inverse_sqrt(lagrange)
        updated = np.einsum("ij,njk,kl->nil", correction, g_ops, correction)
        return (updated + _dagger(updated)) / 2.0

    def project(self, elements: np.ndarray) -> np.ndarray:
        shifted = elements + (np.eye(self.dim) - elements.sum(axis=0)) / self.n_outcomes
        w, u = np.linalg.eigh((shifted + _dagger(shifted)) / 2.0)
        return (u * np.clip(w, 0.0, None)[:, None, :]) @ _dagger(u)

    def constraint_violation(self, elements: np.ndarray) -> tuple[float, float]:
        total = elements.sum(axis=0)
        completeness = float(np.abs(total - np.eye(self.dim)).max())
        return completeness, qmath.min_eigenvalue(elements)

    def newton_direction(self, elements: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Projected Newton step on the active face of the constraint set.

        Probabilities are linear in the coordinates, p_n = A^T x_n with
        A = ``_design``, so the negative Hessian is block-diagonal,
        H_n = A diag(c_n/p_n^2) A^T, with zero-count cells left out; the
        gradient is g_n = Tr[E_a R_n].  An eigen-direction u of P_n is
        pinned when its eigenvalue is at most ``PIN_EIGENVALUE`` and its
        slack u^dag (R_n - Lambda) u is at most 0; the step varies every
        direction but the pinned-pinned block, so the support may rotate.
        With M_n the pseudo-inverse of H_n restricted that way and
        S = sum_n M_n, the step is M_n (g_n - nu) with nu = S^+ sum_n M_n g_n,
        which keeps sum_n P_n fixed.  An outcome with no records gets no step.
        """
        probs = self._probs(elements)
        curvature = np.divide(
            self.counts, probs**2, out=np.zeros_like(probs), where=self.counts > 0
        )
        design = self._design.reshape(len(self._basis), -1)
        hessian = (design * curvature.reshape(len(probs), 1, -1)) @ design.T
        w, u = np.linalg.eigh(elements)
        excess = grad - _lagrange(elements, grad)
        slack = np.real(np.einsum("nia,nij,nja->na", u.conj(), excess, u))
        pinned = (w <= PIN_EIGENVALUE) & (slack <= 0.0)
        face = (u * pinned[:, None, :]) @ _dagger(u)
        free = np.eye(self.dim**2) - _face_block(self._basis, face)
        inverse = _pinv_symmetric(free @ hessian @ free)
        g = np.real(np.einsum("aij,nji->na", self._basis, grad))
        pulled = np.einsum("nab,nb->na", inverse, g)
        nu = _pinv_symmetric(inverse.sum(axis=0)) @ pulled.sum(axis=0)
        step = pulled - inverse @ nu
        return np.einsum("na,aij->nij", step, self._basis)

    def to_povm(self, elements: np.ndarray) -> Povm:
        return Povm(tuple(np.array(p) for p in elements))

    def from_povm(self, povm: Povm) -> np.ndarray:
        if len(povm) != self.n_outcomes or povm.dim != self.dim:
            raise PovmInvariantError("POVM shape does not match the problem")
        return np.stack([np.asarray(p, dtype=complex) for p in povm.elements])


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _lagrange(elements: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Lambda, the Hermitian part of sum_n R_n P_n."""
    lagrange = np.einsum("nij,njk->ik", grad, elements)
    return (lagrange + lagrange.conj().T) / 2.0


def _pinv_symmetric(matrix: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a real symmetric matrix, or of a stack of them,
    from one ``eigh``: eigenvalues with |w| <= 1e-15 max |w| count as zero,
    the default cutoff of ``np.linalg.pinv``."""
    w, u = np.linalg.eigh(matrix)
    magnitude = np.abs(w)
    kept = magnitude > 1e-15 * magnitude.max(axis=-1, keepdims=True)
    inverse = np.divide(1.0, w, out=np.zeros_like(w), where=kept)
    return (u * inverse[..., None, :]) @ np.swapaxes(u, -1, -2)


def _face_block(basis: np.ndarray, face: np.ndarray) -> np.ndarray:
    """(n, a, b) matrices Tr[E_a Q_n E_b Q_n] of X -> Q_n X Q_n in the
    coordinates of the Hermitian ``basis`` E_a, for a stack of projectors Q_n.

    The trace is vec(E_a) . K_n . vec(E_b) with K_n[(i, j), (k, l)] =
    Q_n[j, k] Q_n[l, i], so the block is two matrix products.
    """
    flat = basis.reshape(len(basis), -1)
    size = flat.shape[1]
    kron = np.einsum("njk,nli->nijkl", face, face).reshape(len(face), size, size)
    return np.real(flat @ kron @ flat.T)


def _hermitian_basis(dim: int) -> np.ndarray:
    """(dim^2, dim, dim) basis of the Hermitian matrices, orthonormal under
    Tr[A B]: |i><i|, then (|i><j| + |j><i|)/sqrt(2) and
    i(|i><j| - |j><i|)/sqrt(2) for i < j."""
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            if i == j:
                basis.append(unit)
            else:
                basis.append((unit + unit.T) / np.sqrt(2.0))
                basis.append(1j * (unit - unit.T) / np.sqrt(2.0))
    return np.stack(basis)


def _outcome_rows(
    outcome_n: np.ndarray,
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Observed outcome labels plus one catch-all label above them, the row
    of each record's outcome among those labels, and the records sorted
    stably by row."""
    observed, order, bounds = group_by_label(outcome_n)
    outcomes = tuple(int(n) for n in observed) + (int(observed[-1]) + 1,)
    rows = np.empty(outcome_n.size, dtype=np.intp)
    rows[order] = np.repeat(np.arange(observed.size), np.diff(bounds))
    return outcomes, rows, order


def build_problem_diagonal(
    data: Dataset,
    state: BipartiteState,
    hq: HomodyneQuorum,
    fock_cutoff: int | None = None,
    weight_tail_tol: float = 1e-4,
) -> DiagonalMlProblem:
    """Precompute response rows w_m q_m(x_i) for the diagonal likelihood.

    ``fock_cutoff`` bounds the reconstruction space and may not exceed the
    state's own cutoff; the pair-weight tail above it must stay below
    ``weight_tail_tol`` or the likelihood model would miss real records
    (the cutoff bias the method is known for).
    The outcome set is the observed outcomes plus one catch-all row that
    absorbs the completeness remainder.
    """
    if data.kind != "homodyne":
        raise UnsupportedStructureError("diagonal problem requires homodyne data")
    full_weights = state.diagonal_weights()
    if fock_cutoff is None:
        fock_cutoff = full_weights.size - 1
    if fock_cutoff >= full_weights.size:
        raise CutoffError(
            f"ML cutoff {fock_cutoff} exceeds the state's Fock cutoff {full_weights.size - 1}"
        )
    tail = float(full_weights[fock_cutoff + 1 :].sum())
    if tail > weight_tail_tol:
        raise CutoffError(
            f"pair-weight tail {tail:.3e} above cutoff {fock_cutoff} exceeds "
            f"{weight_tail_tol:.1e}"
        )
    weights = full_weights[: fock_cutoff + 1]
    # one column per record, scaled in place to w_m q_m(x)
    responses = smeared_fock_pdf_table(fock_cutoff, hq.eta_h, data.result)
    responses *= weights[:, None]
    if not np.isfinite(responses).all() or responses.min() < 0.0:
        raise NumericalValidityError("response rows must be finite and nonnegative")

    outcomes, rows, order = _outcome_rows(data.outcome_n)
    # records whose response underflowed to zero everywhere carry no
    # information about theta; keeping them would destabilize the updates
    record = order[(responses.sum(axis=0) > 0.0)[order]]
    return DiagonalMlProblem(
        responses.T[record],
        rows[record],
        outcomes,
        fock_cutoff + 1,
        np.ones(record.size),
        record,
        len(data),
    )


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
    for k, v in enumerate(quorum.vectors):
        # T_km[a, b] = <m| Tr_1-dual |...>: contraction over tomographer indices
        effects[k] = np.einsum("mp,apbq,mq->mab", v.conj(), rho4, v)

    outcomes, rows, _ = _outcome_rows(data.outcome_n)
    counts = data.cell_counts((len(outcomes), quorum.n_settings, dt), rows)
    return FiniteMlProblem(effects, counts.astype(float), outcomes, ds)


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
    to -1e-8, and the recorded trace is nondecreasing (1e-12 slack).  The
    ascent gives up uncertified when the multiplicative proposal loses more
    than that slack, when an iteration gains less than ``min_ll_increase``
    or after ``max_iters`` iterations; ``converged`` is true only when the
    certificate holds.

    With ``accelerate`` each iteration also tries faster candidates, each
    stabilized by one more multiplicative update so constraints still hold
    exactly, and takes one only when it beats the plain update, which
    preserves likelihood monotonicity.  On a finite problem a projected
    Newton step on the active face comes first (:func:`_newton_point`),
    and certifies in a handful of iterations.  Then, or on a diagonal
    problem, a squared-extrapolation jump along the last two fixed-point
    steps cuts the long geometric tail of the fixed-point convergence by an
    order of magnitude.  See :func:`_accelerated_step`.
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
            break
        if accelerate:
            accelerated = _accelerated_step(problem, current, proposal, ll_new, grad_new)
            if accelerated is not None:
                proposal, ll_new, grad_new = accelerated
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


def _accelerated_step(problem, point0, point1, ll1, grad1):
    """A step that beats the fixed-point step ``point1`` from ``point0``.

    The candidates are tried in order, and the first that beats ``point1``
    is taken.  First, for a problem with a ``newton_direction`` (the finite
    one), the Newton candidate of :func:`_newton_point`.  Then the
    squared-extrapolation jump: with r the first step, v the change between
    the two fixed-point steps and the classical steplength
    alpha = min(-|r|/|v|, -1), the jump point0 - 2 alpha r + alpha^2 v is
    re-feasibilized and stabilized by one more multiplicative update, so
    its output satisfies the constraints exactly.  Then, if the raw jump
    left the constraint set, the same path at the longest steplength that
    keeps the raw point feasible.  Last the second fixed-point step, which
    only needs not to lose.  Returns (point, ll, grad), or None to keep
    ``point1``.
    """
    if hasattr(problem, "newton_direction"):
        newton = _newton_point(problem, point1, ll1, grad1)
        if newton is not None:
            return newton
    point2 = problem.em_update(point1, grad1)
    r = point1 - point0
    v = (point2 - point1) - r
    v_norm_sq = float(np.real(np.vdot(v, v)))
    if v_norm_sq > 0.0:
        alpha = min(-np.sqrt(float(np.real(np.vdot(r, r))) / v_norm_sq), -1.0)
        raw = point0 - 2.0 * alpha * r + alpha**2 * v
        jumped = problem.em_update(problem.project(raw))
        ll_jump, grad_jump = problem.evaluate(jumped)
        if ll_jump > ll1:
            return jumped, ll_jump, grad_jump
        if problem.constraint_violation(raw)[1] < 0.0:
            edge = _feasible_steplength(problem, point0, r, v, alpha)
            jumped = problem.em_update(point0 - 2.0 * edge * r + edge**2 * v)
            ll_jump, grad_jump = problem.evaluate(jumped)
            if ll_jump > ll1:
                return jumped, ll_jump, grad_jump
    ll2, grad2 = problem.evaluate(point2)
    if ll2 >= ll1 - MONOTONE_SLACK:
        return point2, ll2, grad2
    return None


def _newton_point(problem, point1, ll1, grad1):
    """Newton candidate from the fixed-point step ``point1``.

    Tries em_update(project(point1 + t delta)) for t in ``NEWTON_STEPS``,
    delta the problem's Newton direction, and returns the first that beats
    ``point1`` as (point, ll, grad), or None.  Like the extrapolated jump,
    each candidate is stabilized by a multiplicative update, so it meets
    the constraints exactly.
    """
    direction = problem.newton_direction(point1, grad1)
    for t in NEWTON_STEPS:
        candidate = problem.em_update(problem.project(point1 + t * direction))
        ll, grad = problem.evaluate(candidate)
        if ll > ll1:
            return candidate, ll, grad
    return None


def _feasible_steplength(problem, point0, r, v, alpha):
    """Longest steplength in [alpha, -1] found by bisection at which the
    extrapolation path point0 - 2 a r + a^2 v stays positive.

    At a = -1 the path is the second fixed-point step, which is feasible;
    completeness holds all along the path, so only positivity is tested,
    and no likelihood is evaluated.  30 halvings resolve the steplength to
    |alpha| / 2^30.
    """
    inside, outside = -1.0, alpha
    for _ in range(30):
        middle = 0.5 * (inside + outside)
        point = point0 - 2.0 * middle * r + middle**2 * v
        if problem.constraint_violation(point)[1] >= 0.0:
            inside = middle
        else:
            outside = middle
    return inside

