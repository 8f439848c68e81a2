"""Constrained maximum-likelihood POVM reconstruction.

The likelihood of a candidate POVM given the joint records is

    L({P_n}) = sum_i log Tr[(P_{n_i} (x) |b_i><b_i|) R],

maximized under P_n >= 0 and sum_n P_n = I.  The problem is concave, and in
the number-diagonal case strictly so on the outcomes with records, so the
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

The number-diagonal problem, sum_i w_i log(r_i . theta[n_i]) with every
column of theta in a simplex, is a mixture-proportions problem, for which
interior-point Newton methods beat EM by orders of magnitude (Koenker &
Mizera, JASA 109, 674, 2014; Kim et al., JCGS 29, 261, 2020).  It is solved
by a primal-dual interior-point method with Mehrotra's predictor-corrector
(:func:`_interior_point`).  Its Newton matrix is the Hessian of the
likelihood binned by (outcome, quadrature bin), each bin's records replaced
by their mean row, which costs one product over the bins instead of the
records; every likelihood, gradient and certificate is of the records
themselves, so the binning moves only the path to the optimum, not the
optimum.  The Newton blocks are positive definite and inverted by
Cholesky; each iterate is strictly positive on the outcomes with records
and complete.  A cold solve starts from two multiplicative (EM) updates of
the uniform POVM (:func:`_em_start`); each costs one gradient sweep, a
fraction of an interior-point iteration, and on fig4 data the two save
about two iterations.

The finite problem takes multiplicative (EM) fixed-point steps, with a
Lagrange operator enforcing completeness.  Multiplicative updates move
slowly along near-zero eigen-directions, so each iteration then tries a
projected Newton step (Bertsekas, SIAM J. Control Optim. 20, 221, 1982)
from the EM proposal, in the real Hermitian coordinates of the elements,
and keeps the proposal when no Newton candidate beats it.  Probabilities
are linear in the coordinates, so the Hessian is exact and
block-diagonal; eigen-directions pinned at zero by positivity are held
out of the step, and completeness enters through one Lagrange solve
(:func:`_lagrange_newton`), the one the interior-point step uses too.  The
step leaves the fixed point, the certificate and the stopping rule
unchanged.
"""

from __future__ import annotations

import functools
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
# width of the quadrature bins whose mean rows make the diagonal Newton matrix
HESSIAN_BIN = 1.0 / 64.0
# interior point: the multiplicative updates of a cold start; the start's
# column sums of theta z, in units of the column's multiplier; the fraction
# of the way to the boundary a step may go; the halvings of a primal step
# that loses likelihood before the solve gives up
EM_START_UPDATES = 2
BARRIER_START = 3.0
STEP_TO_BOUNDARY = 0.99
STEP_HALVINGS = 30


@dataclass
class DiagonalMlProblem:
    """Likelihood data for the number-diagonal scenario.

    Each row of ``rows`` is ``w_m q_m(x)`` for one record, so that a record
    with outcome n has probability row . theta[n], with
    theta[n, m] = <m|P_n|m>.  Rows are sorted by outcome, then by
    quadrature bin ``row_bin`` = round(x / ``HESSIAN_BIN``), then by record,
    so each outcome's block and each of its bins is a contiguous view, and
    row i stands for ``multiplicity[i]`` copies of dataset record
    ``record[i]``: once each for a dataset, its draw count for a bootstrap
    resample.  ``n_records`` is the dataset's length, underflowed records
    included.

    Each (outcome, bin) pair has a record count N_b and a count-weighted
    mean row (:meth:`bins`); the Newton matrix is built from those, every
    likelihood value and gradient from the rows themselves.
    """

    rows: np.ndarray  # (R, M+1) nonnegative, grouped by outcome, then bin
    row_outcome: np.ndarray  # (R,) nondecreasing row of theta per row
    row_bin: np.ndarray  # (R,) quadrature bin per row, nondecreasing per outcome
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
        # outcomes with records; the rest, the catch-all among them, solve to 0
        self.live = np.diff(bounds) > 0

    def bins(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per outcome, the count-weighted mean rows of its quadrature bins
        and the square roots of their record counts, the data of
        :meth:`hessian`.

        Reduced one column at a time, so no weighted copy of the rows is
        made.  An interior-point solve reduces them once and frees them when
        it returns: kept on the problem, they sat beside every bootstrap
        resample and raised fig4-ml's peak RSS in the benchmark from about
        92 MB to 95 MB, or 107 MB in about two runs in five (2 vCPUs).
        """
        edge = np.ones(self.row_outcome.size, dtype=bool)
        edge[1:] = self.row_outcome[1:] != self.row_outcome[:-1]
        edge[1:] |= self.row_bin[1:] != self.row_bin[:-1]
        starts = np.flatnonzero(edge)
        counts = np.add.reduceat(self.multiplicity, starts)
        means = np.empty((starts.size, self.dim))
        for m in range(self.dim):
            means[:, m] = np.add.reduceat(self.rows[:, m] * self.multiplicity, starts)
        means /= counts[:, None]
        bounds = np.searchsorted(self.row_outcome[starts], np.arange(self.n_outcomes + 1))
        return [
            (means[lo:hi], np.sqrt(counts[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])
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
            self.row_bin[drawn],
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
        """The uniform POVM on the outcomes with records, 0 on the rest."""
        theta = np.zeros((self.n_outcomes, self.dim))
        theta[self.live] = 1.0 / np.count_nonzero(self.live)
        return theta

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

    def hessian(self, theta: np.ndarray, bins: list) -> np.ndarray:
        """(n, M+1, M+1) blocks H_n = sum_b N_b rbar_b rbar_b^T / (rbar_b . theta[n])^2
        of the negative Hessian of the binned likelihood, over outcome n's
        quadrature bins b with record counts N_b and mean rows rbar_b, given
        as ``bins`` = :meth:`bins`, each block one product s^T s with
        s = rbar sqrt(N) / d.

        A bin's records differ from its mean row by O(``HESSIAN_BIN``), and
        those first-order terms cancel in the sum, so on fig4 data the blocks
        differ from the row Hessian sum_i w_i r_i r_i^T / (r_i . theta[n])^2
        by about 6e-4 in the Jacobi-scaled metric.  It is only the Newton
        matrix: every likelihood, gradient and certificate is of the rows."""
        hessian = np.zeros((self.n_outcomes, self.dim, self.dim))
        for r, (means, root_count) in enumerate(bins):
            denom = np.maximum(means @ theta[r], LOG_FLOOR)
            scaled = means * (root_count / denom)[:, None]
            hessian[r] = scaled.T @ scaled
        return hessian

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
        g = np.real(np.einsum("aij,nji->na", self._basis, grad))
        _, step = _lagrange_newton(free @ hessian @ free)(g)
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


def _inv_equilibrated(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix, or of a stack of them, by
    Cholesky after scaling to unit diagonal (Jacobi scaling).

    With D the scaling and D A D = L L^T, the inverse is D L^-T L^-1 D; the
    scaling keeps curvatures that span many decades from ruining the
    factorization.  A stack that Cholesky rejects as not numerically
    positive definite takes :func:`_pinv_symmetric` of the scaled stack
    instead, whose relative cutoff drops the directions rounding has made
    singular.
    """
    scale = 1.0 / np.sqrt(np.einsum("...ii->...i", matrix))
    outer = scale[..., :, None] * scale[..., None, :]
    scaled = matrix * outer
    try:
        lower_inverse = np.linalg.inv(np.linalg.cholesky(scaled))
    except np.linalg.LinAlgError:
        return _pinv_symmetric(scaled) * outer
    return (np.swapaxes(lower_inverse, -1, -2) @ lower_inverse) * outer


def _lagrange_newton(hessian: np.ndarray, invert=_pinv_symmetric):
    """Solver of the Newton system of the blocks ``hessian[n]`` under
    completeness, whose steps sum to zero over the outcomes.

    With M_n = H_n^+ and S = sum_n M_n, both inverted by ``invert`` (the
    pseudo-inverse, or the Cholesky inverse of positive definite blocks),
    the step for the right-hand sides b_n is M_n (b_n - nu), where
    nu = S^+ sum_n M_n b_n is the change of the completeness multiplier.
    Returns ``solve(b) -> (nu, step)``; one factorization serves every b.
    """
    inverse = invert(hessian)
    s_inverse = invert(inverse.sum(axis=0))

    def solve(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pulled = np.einsum("nab,nb->na", inverse, b)
        nu = s_inverse @ pulled.sum(axis=0)
        return nu, pulled - inverse @ nu

    return solve


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


def _outcome_rows(outcome_n: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Observed outcome labels plus one catch-all label above them, and the
    row of each record's outcome among those labels."""
    observed, order, bounds = group_by_label(outcome_n)
    outcomes = tuple(int(n) for n in observed) + (int(observed[-1]) + 1,)
    rows = np.empty(outcome_n.size, dtype=np.intp)
    rows[order] = np.repeat(np.arange(observed.size), np.diff(bounds))
    return outcomes, rows


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

    outcomes, rows = _outcome_rows(data.outcome_n)
    # records by outcome, then quadrature bin, then index
    bins = np.rint(data.result / HESSIAN_BIN).astype(np.intp)
    order = np.lexsort((bins, rows))
    # records whose response underflowed to zero everywhere carry no
    # information about theta; keeping them would destabilize the updates
    record = order[(responses.sum(axis=0) > 0.0)[order]]
    return DiagonalMlProblem(
        responses.T[record],
        rows[record],
        bins[record],
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

    outcomes, rows = _outcome_rows(data.outcome_n)
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
    gap_tol: float = LL_GAP_TOL,
) -> MlResult:
    """Likelihood ascent until the certified gap ``ll_gap`` is at most ``gap_tol``.

    Every accepted iterate satisfies completeness to 1e-6 and positivity
    to -1e-8, and the recorded trace is nondecreasing (1e-12 slack).  The
    ascent gives up uncertified when its step loses more than that slack,
    when an iteration gains less than ``min_ll_increase`` or after
    ``max_iters`` iterations; ``converged`` is true only when the
    certificate holds.

    A number-diagonal problem is solved by a primal-dual interior-point
    Newton method (:func:`_interior_point`) on the Newton matrix of
    quadrature-bin mean rows (:meth:`DiagonalMlProblem.hessian`), whose
    accepted steps do not lose exact likelihood; on fig4 data it certifies
    in 10-12 iterations, as many as on the row Hessian.  It
    starts at ``init``, which must be positive on the outcomes with records
    and 0 on the rest, or else at two multiplicative (EM) updates of the
    uniform POVM on the outcomes with records (:func:`_em_start`).  The
    outcomes without records stay at exactly 0.

    A finite problem takes one step per iteration (:func:`_em_step`): the
    multiplicative (EM) proposal, then a projected Newton candidate on the
    active face built from it (:func:`_newton_point`), taken only when it
    beats the proposal, so the trace stays monotone.  Both meet the
    constraints exactly, and the Newton candidate certifies in a handful of
    iterations.
    """
    diagonal = isinstance(problem, DiagonalMlProblem)
    if init is not None:
        current = problem.from_povm(init)
        completeness, min_eig = problem.constraint_violation(current)
        if completeness > COMPLETENESS_TOL or min_eig < POSITIVITY_TOL:
            raise PovmInvariantError(
                f"initial POVM violates constraints (completeness {completeness:.2e}, "
                f"min eigenvalue {min_eig:.2e})"
            )
        if diagonal and not (
            (current[problem.live] > 0.0).all() and (current[~problem.live] == 0.0).all()
        ):
            raise PovmInvariantError(
                "an interior-point start must be positive on the outcomes with "
                "records and 0 on the rest"
            )
    elif diagonal:
        current = _em_start(problem)
    else:
        current = problem.initial()

    ll_current, grad_current = problem.evaluate(current)
    trace = [ll_current]
    gap = problem.ll_gap(current, grad_current)
    if diagonal:
        step = _interior_point(problem, current, grad_current)
    else:
        step = functools.partial(_em_step, problem)
    iterations = 0
    while gap > gap_tol and iterations < max_iters:
        accepted = step(current, trace[-1], grad_current)
        if accepted is None:
            break
        current, ll_new, grad_current = accepted
        iterations += 1
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


def _em_start(problem: DiagonalMlProblem) -> np.ndarray:
    """Cold start of an interior-point solve: ``EM_START_UPDATES``
    multiplicative (EM) updates theta <- theta grad / sum_n theta grad of
    the uniform POVM on the outcomes with records, one gradient sweep each.

    A column whose update would put an outcome with records at 0, or whose
    total overflows, keeps its values, so the start stays complete and
    strictly positive on those outcomes, and 0 on the rest.
    """
    theta = problem.initial()
    for _ in range(EM_START_UPDATES):
        product = theta * problem.gradient(theta)
        total = product.sum(axis=0)
        kept = (product[problem.live] > 0.0).all(axis=0) & np.isfinite(total)
        theta[:, kept] = product[:, kept] / total[kept]
    return theta


def _interior_point(problem: DiagonalMlProblem, theta: np.ndarray, grad: np.ndarray):
    """Step function of a primal-dual interior-point solve of a diagonal problem.

    The problem is max sum_i w_i log(r_i . theta[n_i]) subject to
    sum_n theta[n, m] = 1 and theta >= 0, over the outcomes with records.
    With z the multipliers of positivity and nu those of completeness,
    Newton's method on the perturbed KKT conditions grad - nu + z = 0,
    theta z = t has one block H_n + Z_n / Theta_n per outcome, so the step
    is M_n (b_n - dnu) of
    :func:`_lagrange_newton`, with b_n = grad_n - nu + (t_n - c_n) / theta_n.
    These blocks, and S, are positive definite, so M_n and S^-1 are their
    Cholesky inverses (:func:`_inv_equilibrated`).  H_n is
    ``problem.hessian`` over the bins that ``problem.bins`` reduces once per
    solve, the Hessian of the likelihood binned by quadrature bin, so the
    step is an inexact Newton step of the exact problem; the
    residual b_n is of the exact gradient, and so is the likelihood check
    on each primal candidate.

    The barrier is weighted per column by the start's multipliers c_m = nu_m,
    which count the records that level m explains: the targets are
    t = sigma mu c_m with mu = mean(theta z / c), so every column, however
    few records inform it, reaches the same relative stationarity.  A
    uniform barrier leaves the weakest columns far from it when the gap
    certifies.  Mehrotra's predictor (t = 0, c = 0) sets
    sigma = (mu_affine / mu)^3 and the corrector's c = dtheta dz of the
    predictor, on one factorization.  Each step goes at most
    ``STEP_TO_BOUNDARY`` of the way to the boundary, and each primal
    candidate is renormalized column by column, which clears the rounding
    drift of completeness that ill-conditioned blocks leave.  The corrector
    need not ascend the likelihood; where its primal step loses likelihood, the
    predictor's, which always ascends, is taken instead, halved until the
    likelihood does not drop, at most ``STEP_HALVINGS`` times, after which
    the solve gives up.  The start has nu_m = sum_n theta[n, m] grad[n, m]
    and sum_n theta[n, m] z[n, m] = ``BARRIER_START`` c_m, spread evenly
    over the outcomes with records.

    Returns ``step(theta, ll, grad) -> (theta, ll, grad)`` or None.
    """
    live = problem.live
    bins = problem.bins()
    x = theta[live]
    nu = (x * grad[live]).sum(axis=0)
    # a column no record responds to gets the mean weight
    weight = np.where(nu > 0.0, nu, nu.sum() / nu.size)
    z = BARRIER_START / len(x) * weight / x

    def step(theta, ll, grad):
        nonlocal z, nu
        x, g = theta[live], grad[live]
        solve = _barrier_newton(problem, theta, z, bins)
        mu = (x * z / weight).mean()
        _, dx_affine = solve(g - nu)
        dz_affine = -z - z / x * dx_affine
        x_reach = x + _to_boundary(x, dx_affine, 1.0) * dx_affine
        z_reach = z + _to_boundary(z, dz_affine, 1.0) * dz_affine
        sigma = ((x_reach * z_reach / weight).mean() / mu) ** 3
        centering = (sigma * mu * weight - dx_affine * dz_affine) / x
        dnu, dx = solve(g - nu + centering)
        dz = centering - z - z / x * dx
        dual = _to_boundary(z, dz, STEP_TO_BOUNDARY)
        z, nu = z + dual * dz, nu + dual * dnu
        for direction, tries in ((dx, 1), (dx_affine, STEP_HALVINGS + 1)):
            primal = _to_boundary(x, direction, STEP_TO_BOUNDARY)
            for _ in range(tries):
                candidate = np.zeros_like(theta)
                candidate[live] = x + primal * direction
                candidate /= candidate.sum(axis=0)
                ll_new, grad_new = problem.evaluate(candidate)
                if ll_new >= ll - MONOTONE_SLACK:
                    return candidate, ll_new, grad_new
                primal /= 2.0
        return None

    return step


def _barrier_newton(problem: DiagonalMlProblem, theta: np.ndarray, z: np.ndarray, bins: list):
    """:func:`_lagrange_newton` of the blocks H_n + Z_n / Theta_n of the
    outcomes with records, at ``theta`` and positivity multipliers ``z``,
    with H_n from the problem's ``bins``."""
    x = theta[problem.live]
    hessian = problem.hessian(theta, bins)[problem.live]
    diagonal = np.einsum("nii->ni", hessian)
    diagonal += z / x
    return _lagrange_newton(hessian, _inv_equilibrated)


def _to_boundary(v: np.ndarray, dv: np.ndarray, fraction: float) -> float:
    """``fraction`` of the longest step in (0, 1] along ``dv`` that keeps
    ``v`` nonnegative, or 1."""
    shrinking = dv < 0.0
    if not shrinking.any():
        return 1.0
    return min(1.0, fraction * float((-v[shrinking] / dv[shrinking]).min()))


def _em_step(problem, current, ll, grad):
    """One finite ascent step from ``current`` as (point, ll, grad), or None
    when the multiplicative update loses likelihood.

    The step takes the multiplicative (EM) proposal, then the Newton
    candidate that :func:`_newton_point` builds from it when that beats the
    proposal, else the proposal itself.
    """
    proposal = problem.em_update(current, grad)
    ll_new, grad_new = problem.evaluate(proposal)
    if ll_new < ll - MONOTONE_SLACK:
        return None
    newton = _newton_point(problem, proposal, ll_new, grad_new)
    if newton is not None:
        return newton
    return proposal, ll_new, grad_new


def _newton_point(problem, proposal, ll_proposal, grad_proposal):
    """Newton candidate from the EM proposal ``proposal``.

    Tries em_update(project(proposal + t delta)) for t in ``NEWTON_STEPS``,
    delta the problem's Newton direction, and returns the first that beats
    ``proposal`` as (point, ll, grad), or None.  The multiplicative update
    that ends each candidate puts it back on the constraint set exactly.
    """
    direction = problem.newton_direction(proposal, grad_proposal)
    for t in NEWTON_STEPS:
        candidate = problem.em_update(problem.project(proposal + t * direction))
        ll, grad = problem.evaluate(candidate)
        if ll > ll_proposal:
            return candidate, ll, grad
    return None
