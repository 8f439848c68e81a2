"""Independent brute-force oracles for the test suite.

Everything here is deliberately slow and explicit (index loops, matrix
exponentials, numerical quadrature) so that it exercises none of the
production code paths it is used to check.

The middle section holds reference operations that a calibration never
runs: tensor products and partial traces, invariant checks of POVMs and
states, forward maps, the finite ML problem of expected counts, subsets
of a dataset, and the comparison of two estimators' errors.

The next section keeps former implementations of code that was rewritten
to use less memory: one boolean mask per label instead of grouped records,
and full-size temporaries instead of in-place updates.  The rewrites do the
same floating-point operations in the same order, so tests require them to
match these bit for bit.  The exceptions are the finite Newton direction,
whose Hessian and pseudo-inverses now come from other BLAS and LAPACK
calls, which tests hold to 1e-12 relative, and the diagonal row Hessian,
replaced in the interior-point solve by one over quadrature-bin mean rows
and held by tests to 2e-3 in the Jacobi-scaled metric.

The next section keeps the file writers that the library modules had
before the runner took over every write; tests require the runner's files
to match their bytes.

The last section keeps the runner's former report path: entry rows built
once per file (display window or not), a column table per file and a
bootstrap that coerced each repetition to a real vector, so that complex
estimates were flattened into real and imaginary parts whose spreads were
added back in quadrature.  Tests require the report entries and CSV files
to match its bytes, and complex bootstrap stderrs to match it within a few
ulp (the quadrature sum no longer squares a square root).  It also keeps
the ML solve that the runner's bootstrap repetitions made before finite
ones started at the point estimate: every solve cold from the uniform POVM.
"""

import csv
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from povmcal import qmath, recon_ml, sampler
from povmcal.detectors import Povm, binomial_loss_matrix
from povmcal.errors import DimensionMismatchError, PovmInvariantError


def kron_loop(a, b):
    """Entrywise Kronecker product."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for p in range(db):
                for q in range(db):
                    out[i * db + p, j * db + q] = a[i, j] * b[p, q]
    return out


def ptrace_first_loop(x, d1):
    """Partial trace over the first factor by explicit index summation."""
    d2 = x.shape[0] // d1
    out = np.zeros((d2, d2), dtype=complex)
    for p in range(d2):
        for q in range(d2):
            for i in range(d1):
                out[p, q] += x[i * d2 + p, i * d2 + q]
    return out


def map_matrix_loop(rho, ds, dt):
    """Vectorized matrix of X -> Tr_1[(X (x) 1) rho], column by column."""
    eye = np.eye(dt, dtype=complex)
    cols = []
    for i in range(ds):
        for j in range(ds):
            basis = np.zeros((ds, ds), dtype=complex)
            basis[i, j] = 1.0
            image = ptrace_first_loop(kron_loop(basis, eye) @ rho, ds)
            cols.append(image.reshape(-1))
    return np.stack(cols, axis=1)


def thermal_state(nu, cutoff):
    """Truncated thermal density matrix (not renormalized)."""
    j = np.arange(cutoff + 1, dtype=float)
    if nu == 0.0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
    else:
        w = nu**j / (1.0 + nu) ** (j + 1)
    return np.diag(w)


def beam_splitter_counter_oracle(eta_p, nu, fock_cutoff, env_cutoff):
    """P(count k | Fock input n) from the explicit two-mode beam splitter.

    Works sector by sector in total photon number T (the beam splitter
    conserves it): within the sector basis |j, T-j> (j photons in the
    detected mode) the generator of the rotation is tridiagonal and the
    amplitudes come from a matrix exponential.  The thermal environment is
    truncated at env_cutoff and mixed in classically.

    Returns M[k, n] for k = 0..fock_cutoff+env_cutoff, n = 0..fock_cutoff.
    """
    theta = np.arccos(np.sqrt(eta_p))
    total_max = fock_cutoff + env_cutoff
    j_env = np.arange(env_cutoff + 1, dtype=float)
    if nu == 0.0:
        thermal = np.zeros(env_cutoff + 1)
        thermal[0] = 1.0
    else:
        thermal = nu**j_env / (1.0 + nu) ** (j_env + 1)

    # rotation amplitudes per total-photon sector
    sector_u = {}
    for total in range(total_max + 1):
        gen = np.zeros((total + 1, total + 1))
        for j in range(total):
            val = np.sqrt((j + 1) * (total - j))
            gen[j + 1, j] = val
            gen[j, j + 1] = -val
        sector_u[total] = expm(theta * gen)

    out = np.zeros((total_max + 1, fock_cutoff + 1))
    for n in range(fock_cutoff + 1):
        for j_e in range(env_cutoff + 1):
            total = n + j_e
            amps = sector_u[total][:, n]  # start with n photons in the signal mode
            out[: total + 1, n] += thermal[j_e] * amps**2
    return out


def quadrature_integral(f_values, xs):
    return float(np.trapezoid(f_values, xs))


def chi2_statistic(observed_counts, expected_probs, n_total):
    """Pearson chi^2 against expected cell probabilities."""
    expected = np.asarray(expected_probs, dtype=float) * n_total
    observed = np.asarray(observed_counts, dtype=float)
    mask = expected > 0
    return float(((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum()), int(
        mask.sum()
    )


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# --- reference operations -----------------------------------------------------


def tensor_product(a, b):
    """Kronecker product with the first factor on the coarse index."""
    return np.kron(qmath.as_operator(a), qmath.as_operator(b))


def partial_trace_first(x, dim_first):
    """Trace out the first tensor factor of dimension ``dim_first``:
    ``result[p, q] = sum_i x[(i,p), (i,q)]``."""
    x = qmath.as_operator(x)
    d = x.shape[0]
    if dim_first <= 0 or d % dim_first != 0:
        raise DimensionMismatchError(
            f"dimension {d} is not divisible by first-factor dimension {dim_first}"
        )
    d2 = d // dim_first
    return np.einsum("ipiq->pq", x.reshape(dim_first, d2, dim_first, d2))


@dataclass(frozen=True)
class HermitianCheckReport:
    """``max |X[i,j] - conj(X[j,i])|`` and the smallest eigenvalue of the
    Hermitian part ``(X + X^dag)/2`` of one operator."""

    max_antihermitian_deviation: float
    min_eigenvalue: float


def positivity_report(x):
    x = qmath.as_operator(x)
    deviation = float(np.abs(x - qmath.dagger(x)).max())
    eigenvalues = np.linalg.eigvalsh((x + qmath.dagger(x)) / 2.0)
    return HermitianCheckReport(deviation, float(eigenvalues[0]))


def validate_povm(povm):
    """Raise PovmInvariantError unless every element is Hermitian to 1e-12
    and has eigenvalues >= -1e-10, and the elements sum to the identity to
    1e-10 entrywise."""
    dev = max(positivity_report(e).max_antihermitian_deviation for e in povm.elements)
    if dev > 1e-12:
        raise PovmInvariantError(f"element not Hermitian: deviation {dev:.3e}")
    lo = qmath.min_eigenvalue(povm.elements)
    if lo < -1e-10:
        raise PovmInvariantError(f"element has eigenvalue {lo:.3e} below -1e-10")
    comp = float(np.abs(sum(povm.elements) - np.eye(povm.dim)).max())
    if comp > 1e-10:
        raise PovmInvariantError(f"completeness deviation {comp:.3e} exceeds tolerance")


def validate_state(state):
    """Raise ValueError unless the dense matrix of ``state`` is Hermitian to
    1e-12, has eigenvalues >= -1e-10 and has trace 1 to 1e-12."""
    report = positivity_report(state.rho)
    if report.max_antihermitian_deviation > 1e-12:
        raise ValueError(
            f"rho is not Hermitian: deviation {report.max_antihermitian_deviation:.3e}"
        )
    if report.min_eigenvalue < -1e-10:
        raise ValueError(f"rho has negative eigenvalue {report.min_eigenvalue:.3e}")
    trace = float(np.real(np.trace(state.rho)))
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"rho has trace {trace!r}, expected 1")


def projective_povm(basis):
    """Rank-one projectors onto an orthonormal basis (rows of ``basis``)."""
    vectors = np.asarray(basis, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
        raise DimensionMismatchError("basis must be a square array of row vectors")
    gram = vectors @ vectors.conj().T
    deviation = float(np.abs(gram - np.eye(vectors.shape[0])).max())
    if deviation >= 1e-10:
        raise PovmInvariantError(f"basis is not orthonormal: Gram deviation {deviation:.3e}")
    return Povm(tuple(np.outer(v, v.conj()) for v in vectors))


def map_r_apply(map_r, x):
    """Forward action of an input map; takes and returns matrices on the
    full subspace and vectors of diagonal entries on the diagonal one."""
    if map_r.subspace == "full":
        dim_tomo = int(round(np.sqrt(map_r.matrix.shape[0])))
        return (map_r.matrix @ qmath.vec(x)).reshape(dim_tomo, dim_tomo)
    return map_r.matrix @ np.asarray(x)


def noise_apply(noise, x):
    """A noise map acting on the operator ``x`` (a state)."""
    dim = int(round(np.sqrt(noise.superoperator.shape[0])))
    return (noise.superoperator @ qmath.vec(x)).reshape(dim, dim)


def exact_count_problem(state, povm, quorum, n_records):
    """The finite ML problem of ``n_records`` records whose cell counts are
    their expected values N p(n, k, m), with the setting k uniform.  By
    Gibbs' inequality the true POVM maximizes its likelihood.

    Each effect T_km = Tr_2[(1 (x) |b^k_m><b^k_m|) R] is a partial trace of
    an explicit tensor product.
    """
    ds, dt = state.dim_system, state.dim_tomo
    effects = np.empty((quorum.n_settings, dt, ds, ds), dtype=complex)
    for k, basis in enumerate(quorum.vectors):
        for m, v in enumerate(basis):
            x = tensor_product(np.eye(ds), np.outer(v, v.conj())) @ state.rho
            effects[k, m] = np.einsum("apbp->ab", x.reshape(ds, dt, ds, dt))
    tables = sampler.joint_probability_tables(state, povm, quorum)  # (n, k, m)
    counts = n_records * tables / quorum.n_settings
    return recon_ml.FiniteMlProblem(effects, counts, tuple(range(len(povm))), ds)


def subset(data, indices):
    """The dataset of the records ``indices`` of ``data``, in that order."""
    return replace(
        data,
        outcome_n=data.outcome_n[indices],
        setting_k=data.setting_k[indices],
        result=data.result[indices],
    )


@dataclass(frozen=True)
class MseComparison:
    """Squared errors of two reconstructions against the same truth."""

    entries: tuple
    squared_errors_a: np.ndarray
    squared_errors_b: np.ndarray
    median_a: float
    median_b: float
    missing: tuple = field(default_factory=tuple)


def compare_mse(recon_a, recon_b, truth, entry_set):
    """Per-entry squared errors and their medians for two estimators.

    Entries absent from either reconstruction (or from the truth) are
    listed in ``missing`` and excluded from the medians.
    """
    kept, sq_a, sq_b, missing = [], [], [], []
    for key in entry_set:
        if key in recon_a and key in recon_b and key in truth:
            kept.append(key)
            sq_a.append(abs(recon_a[key] - truth[key]) ** 2)
            sq_b.append(abs(recon_b[key] - truth[key]) ** 2)
        else:
            missing.append(key)
    if not kept:
        raise ValueError("no common entries to compare")
    a = np.asarray(sq_a, dtype=float)
    b = np.asarray(sq_b, dtype=float)
    return MseComparison(
        entries=tuple(kept),
        squared_errors_a=a,
        squared_errors_b=b,
        median_a=float(np.median(a)),
        median_b=float(np.median(b)),
        missing=tuple(missing),
    )


# --- former implementations ---------------------------------------------------


def former_sample_finite(state, povm, quorum, n_records, seed):
    """(outcome_n, setting_k, result) of ``sampler.sample_finite``, one mask per setting."""
    tables = sampler.joint_probability_tables(state, povm, quorum).transpose(1, 0, 2)
    n_settings, n_out, d = tables.shape
    cumulative = tables.reshape(n_settings, n_out * d).cumsum(axis=1)
    cumulative[:, -1] = 1.0
    ns, ks, ms = [], [], []
    for rng, size in sampler._block_rngs(seed, sampler._STREAM_FINITE, n_records):
        k = rng.integers(0, n_settings, sampler.BLOCK_SIZE)[:size]
        u = rng.random(sampler.BLOCK_SIZE)[:size]
        flat = np.empty(size, dtype=np.int64)
        for kk in range(n_settings):
            sel = k == kk
            if sel.any():
                flat[sel] = np.searchsorted(cumulative[kk], u[sel], side="right")
        ks.append(k)
        ns.append(flat // d)
        ms.append(flat % d)
    return np.concatenate(ns), np.concatenate(ks), np.concatenate(ms)


def former_quadrature_cdf_tables(max_m, x_lim, step):
    n_points = int(round(2 * x_lim / step)) + 1
    xs = -x_lim + step * np.arange(n_points)
    pdf = qmath.fock_quadrature_table(max_m, xs) ** 2
    cdf = np.cumsum(pdf, axis=1) * step
    cdf -= cdf[:, :1]
    cdf /= cdf[:, -1:]
    cdf += np.linspace(0.0, 1e-12, n_points)
    cdf /= cdf[:, -1:]
    return xs, cdf


def former_sample_homodyne_twinbeam(state, povm, hq, n_records, seed):
    """(outcome_n, phase, x) of ``sampler.sample_homodyne_twinbeam``, one mask per pair number."""
    weights = state.diagonal_weights()
    max_m = weights.size - 1
    cum_w = np.cumsum(weights)
    cum_w[-1] = 1.0
    outcome_cum = np.cumsum(povm.diagonal().T, axis=1)
    outcome_cum[:, -1] = 1.0
    x_lim = np.sqrt(2.0 * max_m + 1.0) / 2.0 + 5.0
    xs_grid, cdf = former_quadrature_cdf_tables(max_m, x_lim, 1.0 / 512.0)
    sigma = np.sqrt(hq.smear_sigma2)
    ns, phases, results = [], [], []
    for rng, size in sampler._block_rngs(seed, sampler._STREAM_HOMODYNE, n_records):
        u_pair = rng.random(sampler.BLOCK_SIZE)[:size]
        u_out = rng.random(sampler.BLOCK_SIZE)[:size]
        phase = rng.random(sampler.BLOCK_SIZE)[:size] * np.pi
        u_x = rng.random(sampler.BLOCK_SIZE)[:size]
        noise = rng.standard_normal(sampler.BLOCK_SIZE)[:size]
        m = np.searchsorted(cum_w, u_pair, side="right")
        n = np.empty(size, dtype=np.int64)
        x = np.empty(size, dtype=np.float64)
        for mm in np.unique(m):
            sel = m == mm
            n[sel] = np.searchsorted(outcome_cum[mm], u_out[sel], side="right")
            x[sel] = np.interp(u_x[sel], cdf[mm], xs_grid)
        if sigma > 0.0:
            x += sigma * noise
        ns.append(n)
        phases.append(phase)
        results.append(x)
    return np.concatenate(ns), np.concatenate(phases), np.concatenate(results)


def former_kernel_evaluate(table, xs):
    """``KernelTable.evaluate`` with its four full-size temporaries."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    inside = (xs >= table.x_min) & (xs <= table.x_max)
    pos = np.clip((xs - table.x_min) / table.step, 0.0, table.values.shape[1] - 1.0)
    left = np.minimum(pos.astype(np.int64), table.values.shape[1] - 2)
    frac = pos - left
    vals = table.values[:, left] * (1.0 - frac) + table.values[:, left + 1] * frac
    vals *= inside
    return vals, inside


def former_two_buffer_kernel_evaluate(table, xs):
    """``KernelTable.evaluate`` with a second full-size buffer for the right-hand term."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    inside = (xs >= table.x_min) & (xs <= table.x_max)
    pos = np.clip((xs - table.x_min) / table.step, 0.0, table.values.shape[1] - 1.0)
    left = np.minimum(pos.astype(np.int64), table.values.shape[1] - 2)
    frac = pos - left
    vals = table.values[:, left]
    vals *= 1.0 - frac
    right = table.values[:, left + 1]
    right *= frac
    vals += right
    vals *= inside
    return vals, inside


def former_newton_direction(problem, elements, grad):
    """``FiniteMlProblem.newton_direction`` with its three-operand einsum
    Hessian and two ``np.linalg.pinv`` calls."""
    probs = problem._probs(elements)
    curvature = np.divide(
        problem.counts, probs**2, out=np.zeros_like(probs), where=problem.counts > 0
    )
    design = problem._design
    hessian = np.einsum("akm,nkm,bkm->nab", design, curvature, design)
    w, u = np.linalg.eigh(elements)
    excess = grad - recon_ml._lagrange(elements, grad)
    slack = np.real(np.einsum("nia,nij,nja->na", u.conj(), excess, u))
    pinned = (w <= recon_ml.PIN_EIGENVALUE) & (slack <= 0.0)
    face = (u * pinned[:, None, :]) @ u.conj().transpose(0, 2, 1)
    free = np.eye(problem.dim**2) - recon_ml._face_block(problem._basis, face)
    inverse = np.linalg.pinv(free @ hessian @ free, hermitian=True)
    g = np.real(np.einsum("aij,nji->na", problem._basis, grad))
    pulled = np.einsum("nab,nb->na", inverse, g)
    nu = np.linalg.pinv(inverse.sum(axis=0), hermitian=True) @ pulled.sum(axis=0)
    step = pulled - inverse @ nu
    return np.einsum("na,aij->nij", step, problem._basis)


def former_estimate_conditioned_homodyne(data, hq):
    """[(outcome, p_hat, count, mean, stderr)] and the clipped fraction, one mask per outcome."""
    values, inside = former_kernel_evaluate(hq.kernel_table, data.result)
    clipped_fraction = float(1.0 - inside.mean()) if len(data) else 0.0
    total = len(data)
    estimates = []
    for n in np.unique(data.outcome_n):
        sel = data.outcome_n == n
        count = int(sel.sum())
        block = values[:, sel]
        mean = block.mean(axis=1)
        stderr = block.std(axis=1, ddof=1) / np.sqrt(count) if count > 1 else np.full(
            mean.shape, np.inf
        )
        estimates.append((int(n), count / total, count, mean, stderr))
    return estimates, clipped_fraction


def former_smeared_fock_pdf_table(max_m, eta_h, xs):
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    psi2 = qmath.fock_quadrature_table(max_m, np.sqrt(eta_h) * xs) ** 2
    if eta_h == 1.0:
        return psi2
    mix = binomial_loss_matrix(eta_h, max_m + 1)
    return np.sqrt(eta_h) * (mix.T @ psi2)


def former_diagonal_rows(data, weights, eta_h):
    """(outcomes, rows, row_outcome, record) of ``build_problem_diagonal``:
    responses kept as a full-size product, outcomes ranked by ``np.unique``,
    and records ordered by outcome, then by quadrature bin round(64 x), then
    by index."""
    fock_cutoff = weights.size - 1
    q = former_smeared_fock_pdf_table(fock_cutoff, eta_h, data.result)
    responses = (q * weights[:, None]).T
    record = np.flatnonzero(responses.sum(axis=1) > 0.0)
    observed = np.unique(data.outcome_n)
    outcomes = tuple(int(n) for n in observed)
    rows = np.searchsorted(observed, data.outcome_n)
    bins = np.round(data.result * 64.0)
    record = sorted(record, key=lambda i: (rows[i], bins[i], i))
    record = np.array(record, dtype=np.intp)
    return outcomes, np.ascontiguousarray(responses[record]), rows[record], record


def former_bins(problem):
    """``DiagonalMlProblem.bins`` as it reduced the row-major (R, M+1) table:
    one strided column ``rows[:, m]`` at a time, weighted by multiplicity."""
    rows = np.ascontiguousarray(problem.columns.T)
    edge = np.ones(problem.row_outcome.size, dtype=bool)
    edge[1:] = problem.row_outcome[1:] != problem.row_outcome[:-1]
    edge[1:] |= problem.row_bin[1:] != problem.row_bin[:-1]
    starts = np.flatnonzero(edge)
    counts = np.add.reduceat(problem.multiplicity, starts)
    means = np.empty((starts.size, problem.dim))
    for m in range(problem.dim):
        means[:, m] = np.add.reduceat(rows[:, m] * problem.multiplicity, starts)
    means /= counts[:, None]
    bounds = np.searchsorted(problem.row_outcome[starts], np.arange(problem.n_outcomes + 1))
    return [(means[lo:hi], np.sqrt(counts[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]


def row_hessian(problem, theta, chunk=4096):
    """(n, M+1, M+1) blocks sum_i w_i r_i r_i^T / (r_i . theta[n])^2 of the
    negative Hessian of a diagonal problem's exact likelihood, over its rows,
    summed over fixed row chunks as s^T s with s = r sqrt(w) / d: the Newton
    matrix the interior-point solve used before it took bin mean rows."""
    hessian = np.zeros((problem.n_outcomes, problem.dim, problem.dim))
    for r in range(problem.n_outcomes):
        mine = problem.row_outcome == r
        block, w = problem.columns[:, mine].T, problem.multiplicity[mine]
        for lo in range(0, block.shape[0], chunk):
            rows = block[lo : lo + chunk]
            denom = np.maximum(rows @ theta[r], 1e-300)
            scaled = rows * (np.sqrt(w[lo : lo + chunk]) / denom)[:, None]
            hessian[r] += scaled.T @ scaled
    return hessian


# --- former file writers ------------------------------------------------------


def former_export_csv(dataset, path):
    """``dataset.csv`` as ``sampler.export_csv`` wrote it, one f-string per record."""
    finite = dataset.kind == "finite"
    with open(path, "w", newline="") as fh:
        fh.write("n,k,result\n")
        for i in range(len(dataset)):
            if finite:
                fh.write(f"{dataset.outcome_n[i]},{dataset.setting_k[i]},{dataset.result[i]}\n")
            else:
                fh.write(
                    f"{dataset.outcome_n[i]},{dataset.setting_k[i]:.17g},"
                    f"{dataset.result[i]:.17g}\n"
                )


def former_export_sidecar(dataset, path, parameters=None):
    """``dataset.json`` as ``sampler.export_sidecar`` wrote it."""
    payload = {
        "seed": dataset.seed,
        "scenario_id": dataset.scenario_id,
        "kind": dataset.kind,
        "n_records": len(dataset),
        "counts_by_n": dataset.counts_by_n.tolist(),
        "parameters": parameters or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def former_export_json(result, path, diagonal=False):
    """``ml_result.json`` as ``recon_ml.MlResult.export_json`` wrote it, with
    a number-diagonal fit's POVM as its (n, M+1) diagonal under
    ``povm_diagonal`` in place of the full matrices under ``povm``."""
    payload = {
        "final_log_likelihood": result.final_log_likelihood,
        "iterations": result.iterations,
        "converged": result.converged,
        "ll_gap": result.ll_gap,
        "ll_trace": result.ll_trace.tolist(),
        "completeness_deviation": result.completeness_deviation,
        "min_eigenvalue": result.min_eigenvalue,
    }
    if diagonal:
        payload["povm_diagonal"] = result.povm_hat.diagonal().tolist()
    else:
        payload["povm"] = [
            {"real": np.real(p).tolist(), "imag": np.imag(p).tolist()}
            for p in result.povm_hat.elements
        ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- former report path -------------------------------------------------------

FORMER_EXACT_TOLERANCE = 1e-8
FORMER_PLOT_HEADERS = {
    "m": "n", "value": "estimate", "value_re": "estimate_re", "value_im": "estimate_im"
}


def former_layout(complex_values):
    """Index keys and value-part suffixes of the entry rows."""
    return (("i", "j"), ("_re", "_im")) if complex_values else (("m",), ("",))


def former_zscore(abs_error, stderr, exact):
    if exact:
        return abs_error / FORMER_EXACT_TOLERANCE
    if stderr is None or stderr <= 0.0:
        return 0.0 if abs_error == 0.0 else float("inf")
    return abs_error / stderr


def former_entries(fit, truth, display, exact):
    """``cli._entries``: entry rows of ``fit`` (outcomes, values, stderr),
    with ``display`` only outcomes and indices up to it."""
    keys, suffixes = former_layout(np.iscomplexobj(fit.values))
    value_keys = ["value" + s for s in suffixes]
    theory_keys = ["theory" + s for s in suffixes]
    shape = fit.values.shape[1:]
    if display is not None:
        shape = tuple(min(size, display + 1) for size in shape)
    window = tuple(slice(size) for size in shape)
    indices = list(itertools.product(*map(range, shape)))
    entries = []
    for n, values, stderr in zip(fit.outcomes, fit.values, fit.stderr):
        if display is not None and n > display:
            continue
        compared = n < len(truth)
        theories = truth[n][window].ravel().tolist() if compared else itertools.repeat(None)
        for index, value, sigma, theory in zip(
            indices, values[window].ravel().tolist(), stderr[window].ravel().tolist(), theories
        ):
            row = {"n": int(n), **dict(zip(keys, index)), "stderr": sigma}
            row.update(zip(value_keys, (value.real, value.imag)))
            if compared:
                row.update(zip(theory_keys, (theory.real, theory.imag)))
                row["z"] = former_zscore(abs(complex(value) - complex(theory)), sigma, exact)
            entries.append(row)
    return entries


def former_columns(complex_values):
    """Reconstruction-CSV header mapped to the entry key each column reads."""
    keys, suffixes = former_layout(complex_values)
    names = [
        "n", *keys, *("value" + s for s in suffixes), "stderr", *("theory" + s for s in suffixes)
    ]
    return {name: name for name in names}


def _former_fmt(value):
    if value is None:
        return ""
    return f"{value:.17g}"


def former_write_csv(path, columns, entries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for e in entries:
            writer.writerow([_former_fmt(e.get(key)) for key in columns.values()])


def former_emit_plot_data(reconstructions, output_dir):
    """``cli.emit_plot_data`` on a report's ``reconstructions``."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, recon in sorted(reconstructions.items()):
        entries = recon.get("entries", [])
        if not entries:
            note = out / f"{label}_empty.txt"
            note.write_text("no outcomes were reconstructed\n")
            written.append(note)
            continue
        columns = {
            FORMER_PLOT_HEADERS.get(key, key): key
            for key in former_columns("value_re" in entries[0])
            if key != "n"
        }
        by_outcome = {}
        for e in entries:
            by_outcome.setdefault(e["n"], []).append(e)
        for k, rows in sorted(by_outcome.items()):
            path = out / f"{label}_k{k}.csv"
            former_write_csv(path, columns, rows)
            written.append(path)
    return written


def former_flatten(values):
    """Real vector of an estimate: its entries, or their real then imaginary parts."""
    if np.iscomplexobj(values):
        return np.concatenate([np.real(values).ravel(), np.imag(values).ravel()])
    return values.ravel()


def former_bootstrap_stderr(stdev, shape):
    """Per-entry sigmas from the spread of :func:`former_flatten` vectors;
    the real and imaginary spreads of a complex entry add in quadrature."""
    size = int(np.prod(shape))
    if stdev.size == size:
        return stdev.reshape(shape)
    var = stdev**2
    return np.sqrt(var[:size] + var[size:]).reshape(shape)


def former_bootstrap_moments(estimator, n_reps, seed):
    """(mean, stdev) of ``stats.bootstrap`` when it took every repetition as
    a float vector; repetitions never fail here."""
    stacked = np.stack(
        [
            np.asarray(estimator(np.random.default_rng([seed, 2, rep])), dtype=float)
            for rep in range(n_reps)
        ]
    )
    valid = ~np.isnan(stacked)
    count = valid.sum(axis=0)
    filled = np.where(valid, stacked, 0.0)
    mean = np.divide(filled.sum(axis=0), count, out=np.full(count.shape, np.nan), where=count > 0)
    dev = np.where(valid, stacked - mean, 0.0)
    var = np.divide(
        (dev**2).sum(axis=0),
        np.maximum(count - 1, 1),
        out=np.full(count.shape, np.nan),
        where=count > 1,
    )
    return mean, np.sqrt(var)


def former_cold_maximize(maximize, **settings):
    """``maximize`` as the runner's bootstrap repetitions called it before
    finite ones were warm-started: from the uniform POVM whatever ``init``
    the caller passes, with ``settings`` (e.g. ``gap_tol``) on every solve."""

    def cold(problem, init=None, **kwargs):
        return maximize(problem, **{**kwargs, **settings})

    return cold
