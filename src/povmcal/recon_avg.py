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
from .errors import UnsupportedStructureError
from .quorum import HomodyneQuorum, NoiseMap, noise_corrected_duals
from .sampler import Dataset, group_by_label
from .states import MapROperator


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
    cells: np.ndarray,
    duals: np.ndarray,
    noise: NoiseMap | None = None,
    *,
    exact: bool = False,
) -> list[ConditionedEstimate]:
    """Per-outcome dual-frame averages over a cell table ``cells[n, k, m]``.

    The table holds the record counts of (outcome, setting, result) cells,
    or, with ``exact``, the exact joint probabilities of the infinite-data
    limit; either way each outcome's row, normalized, weights the
    tomographer operators K * C^(k)_m (duals rescaled by the uniform
    setting-selection probability 1/K).  With a noise map the duals are
    replaced by their noise-inverted counterparts.  An exact estimate has
    count 0 and stderr 0.  Outcomes with an empty row produce no estimate.
    """
    effective = noise_corrected_duals(duals, noise) if noise is not None else duals
    n_settings, d = effective.shape[0], effective.shape[-1]
    flat_ops = (n_settings * effective).reshape(-1, d, d)
    flat_sq = np.abs(flat_ops) ** 2
    total = cells.sum()
    estimates = []
    for n, c_n in enumerate(cells.reshape(len(cells), -1)):
        weight = c_n.sum()
        if weight == 0:
            continue
        freq = c_n / weight
        mean = np.tensordot(freq, flat_ops, axes=1)
        if exact:
            count, stderr = 0, np.zeros(mean.shape)
        else:
            count = int(weight)
            second = np.tensordot(freq, flat_sq, axes=1)
            variance = np.maximum(second - np.abs(mean) ** 2, 0.0)
            stderr = np.sqrt(variance / count)
        estimates.append(ConditionedEstimate(n, float(weight / total), count, mean, stderr))
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
    pinv = map_r.pseudo_inverse
    abs_pinv_sq = np.abs(pinv) ** 2
    # an operator estimate maps to a (d, d) operator, a diagonal one to (d,)
    shape = (map_r.dim_system,) * np.ndim(estimates[0].rho_hat)

    def push_variance(err_flat):
        # infinite input stderr (e.g. single-record outcomes) stays infinite
        # wherever the inverse couples to it, instead of turning into NaN
        finite = np.isfinite(err_flat)
        var = abs_pinv_sq @ np.where(finite, err_flat**2, 0.0)
        blown = abs_pinv_sq @ (~finite).astype(float)
        var[blown > 0.0] = np.inf
        return var

    outcomes, values, errors, p_hat = [], [], [], []
    for est in estimates:
        # a diagonal estimate may carry more entries than the map's cutoff
        rho = np.ravel(est.rho_hat)[: pinv.shape[1]]
        err = np.ravel(est.stderr)[: pinv.shape[1]]
        value = est.p_hat_n * (pinv @ rho).reshape(shape)
        err = est.p_hat_n * np.sqrt(np.maximum(push_variance(err), 0.0)).reshape(shape)
        if est.count > 0:
            err = np.sqrt(err**2 + (1.0 - est.p_hat_n) * np.abs(value) ** 2 / est.count)
        outcomes.append(est.outcome_n)
        values.append(value)
        errors.append(err)
        p_hat.append(est.p_hat_n)

    values_arr = np.stack(values)
    if map_r.subspace == "diagonal":
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

