"""Averaging reconstruction: estimate conditioned tomographer states from
quorum averages, then recover POVM elements through the inverse input map.

The estimators here are plain linear averages — unbiased, with analytic
per-entry standard errors — and their output is deliberately *not*
projected onto the POVM cone.  Constraint enforcement is the job of the
maximum-likelihood module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .detectors import Povm
from .errors import UnsupportedStructureError
from .quorum import FiniteQuorum, HomodyneQuorum, NoiseMap, noise_corrected_duals
from .sampler import Dataset, group_by_label, joint_probability_tables
from .states import BipartiteState, MapROperator


@dataclass(frozen=True)
class ConditionedEstimate:
    """Empirical estimate of the tomographer state conditioned on outcome n.

    ``rho_hat`` is a (d, d) complex matrix in the finite case or a real
    vector of number-diagonal entries in the homodyne case; ``stderr``
    matches its shape.
    """

    outcome_n: int
    p_hat_n: float
    count: int
    rho_hat: np.ndarray
    stderr: np.ndarray


def estimate_conditioned_finite(
    data: Dataset,
    quorum: FiniteQuorum,
    duals: np.ndarray,
    noise: NoiseMap | None = None,
) -> list[ConditionedEstimate]:
    """Per-outcome dual-frame averages over the records.

    Each record contributes K * C^(k)_m (duals rescaled by the uniform
    setting-selection probability 1/K); with a noise map the duals are
    replaced by their noise-inverted counterparts.  Outcomes with zero
    count produce no estimate.
    """
    if data.kind != "finite":
        raise UnsupportedStructureError("finite estimator requires finite-quorum data")
    effective = noise_corrected_duals(duals, noise) if noise is not None else duals
    n_settings, d = effective.shape[0], effective.shape[-1]
    scaled = n_settings * effective  # (K, d, d, d)

    counts = data.cell_counts((int(data.outcome_n.max()) + 1, n_settings, scaled.shape[1]))
    total = len(data)

    flat_ops = scaled.reshape(-1, d, d)
    flat_sq = np.abs(flat_ops) ** 2
    estimates = []
    for n in range(counts.shape[0]):
        c_n = counts[n].reshape(-1).astype(float)
        count = int(c_n.sum())
        if count == 0:
            continue
        freq = c_n / count
        mean = np.tensordot(freq, flat_ops, axes=1)
        second = np.tensordot(freq, flat_sq, axes=1)
        variance = np.maximum(second - np.abs(mean) ** 2, 0.0)
        stderr = np.sqrt(variance / count)
        estimates.append(
            ConditionedEstimate(n, count / total, count, mean, stderr)
        )
    return estimates


def estimate_conditioned_finite_exact(
    state: BipartiteState,
    povm: Povm,
    quorum: FiniteQuorum,
    duals: np.ndarray,
    noise: NoiseMap | None = None,
) -> list[ConditionedEstimate]:
    """Infinite-data limit: exact conditional distributions instead of frequencies."""
    tables = joint_probability_tables(state, povm, quorum)  # (K, n_out, d)
    effective = noise_corrected_duals(duals, noise) if noise is not None else duals
    n_settings = quorum.n_settings
    p_n = tables.sum(axis=(0, 2)) / n_settings
    estimates = []
    for n in range(tables.shape[1]):
        if p_n[n] <= 0.0:
            continue
        joint = tables[:, n, :] / n_settings  # p(k, m, n)
        rho = np.einsum("km,kmij->ij", joint / p_n[n], n_settings * effective)
        estimates.append(
            ConditionedEstimate(n, float(p_n[n]), 0, rho, np.zeros_like(rho, dtype=float))
        )
    return estimates


def estimate_conditioned_homodyne(
    data: Dataset, hq: HomodyneQuorum
) -> tuple[list[ConditionedEstimate], float]:
    """Kernel averages of the number-diagonal entries, grouped by outcome.

    Returns the estimates and the fraction of records whose quadrature
    fell outside the kernel grid (counted with kernel value 0); callers
    should warn when that fraction exceeds 1e-3.
    """
    if data.kind != "homodyne":
        raise UnsupportedStructureError("homodyne estimator requires homodyne data")
    total = len(data)
    n_inside = 0
    estimates = []
    # one outcome's (M+1, count) kernel block at a time, records in data order
    labels, order, bounds = group_by_label(data.outcome_n)
    for n, lo, hi in zip(labels, bounds[:-1], bounds[1:]):
        block, inside = hq.kernel_table.evaluate(data.result[order[lo:hi]])
        n_inside += int(inside.sum())
        count = int(hi - lo)
        mean = block.mean(axis=1)
        if count > 1:
            # the sample standard deviation in place, in the operation order
            # of ndarray.std(axis=1, ddof=1)
            block -= mean[:, None]
            np.square(block, out=block)
            stderr = np.sqrt(block.sum(axis=1) / (count - 1)) / np.sqrt(count)
        else:
            stderr = np.full(mean.shape, np.inf)
        estimates.append(
            ConditionedEstimate(int(n), count / total, count, mean, stderr)
        )
        del block  # before the next group's block is built
    clipped_fraction = 1.0 - n_inside / total if total else 0.0
    return estimates, clipped_fraction


@dataclass(frozen=True)
class PovmEstimate:
    """Raw linear POVM estimate with error bars and an invariant report.

    ``values`` is (n_outcomes, d, d) complex for the full reconstruction
    or (n_outcomes, M+1) real for the diagonal one.  The estimate is not
    forced to satisfy POVM constraints; ``completeness_deviation`` and
    ``min_eigenvalue`` report how far it is from the cone.
    """

    outcomes: tuple[int, ...]
    values: np.ndarray
    stderr: np.ndarray
    p_hat: np.ndarray
    completeness_deviation: float
    min_eigenvalue: float


def recover_povm(estimates: list[ConditionedEstimate], map_r: MapROperator) -> PovmEstimate:
    """P_n = p_n * M_R^(-1)(rho_n), with error bars pushed through the inverse.

    Error propagation treats entries as independent: the variance of
    M_R^(-1)(rho_n) is |pseudo_inverse|^2 applied to the input variances.
    For sampled estimates (``count`` > 0) P_n is the mean over all N records
    of 1[n_i = n] M_R^(-1) K(record_i), so p_n fluctuates too and

        var(P_n) = p_n^2 var(M_R^(-1)(rho_n)) + (1 - p_n) |P_n|^2 / count_n.
    """
    if not estimates:
        raise ValueError("no conditioned estimates to invert")
    diagonal = map_r.subspace == "diagonal"
    outcomes, values, errors, p_hat = [], [], [], []
    abs_pinv_sq = np.abs(map_r.pseudo_inverse) ** 2

    def push_variance(err_flat):
        # infinite input stderr (e.g. single-record outcomes) stays infinite
        # wherever the inverse couples to it, instead of turning into NaN
        finite = np.isfinite(err_flat)
        var = abs_pinv_sq @ np.where(finite, err_flat**2, 0.0)
        blown = abs_pinv_sq @ (~finite).astype(float)
        var[blown > 0.0] = np.inf
        return var

    for est in estimates:
        rho = est.rho_hat
        if diagonal:
            rho = np.asarray(rho)[: map_r.matrix.shape[0]]
            err = np.asarray(est.stderr, dtype=float)[: map_r.matrix.shape[0]]
            recovered = map_r.invert(rho)
            var = push_variance(err)
        else:
            recovered = map_r.invert(rho)
            var = push_variance(np.real(qmath.vec(est.stderr))).reshape(recovered.shape)
        value = est.p_hat_n * recovered
        err = est.p_hat_n * np.sqrt(np.maximum(np.real(var), 0.0))
        if est.count > 0:
            err = np.sqrt(err**2 + (1.0 - est.p_hat_n) * np.abs(value) ** 2 / est.count)
        outcomes.append(est.outcome_n)
        values.append(value)
        errors.append(err)
        p_hat.append(est.p_hat_n)

    values_arr = np.stack(values)
    if diagonal:
        values_arr = np.real(values_arr)
        total = values_arr.sum(axis=0)
        completeness = float(np.abs(total - 1.0).max())
        min_eig = float(values_arr.min())
    else:
        total = values_arr.sum(axis=0)
        completeness = float(np.abs(total - np.eye(total.shape[0])).max())
        min_eig = qmath.min_eigenvalue(values_arr)
    return PovmEstimate(
        tuple(outcomes),
        values_arr,
        np.stack(errors),
        np.asarray(p_hat),
        completeness,
        min_eig,
    )

