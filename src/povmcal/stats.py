"""Bootstrap error bars and estimator-comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BootstrapError, PovmcalError
from .sampler import Dataset

_STREAM_BOOTSTRAP = 2


@dataclass(frozen=True)
class BootstrapReport:
    """Per-entry mean and standard deviation over resampled re-estimations."""

    n_repetitions: int
    seed: int
    mean: np.ndarray
    stdev: np.ndarray
    n_failures: int = 0


def bootstrap(
    data: Dataset,
    estimator: Callable[[np.ndarray], np.ndarray],
    n_reps: int,
    seed: int,
    max_failure_fraction: float = 0.2,
) -> BootstrapReport:
    """Resample whole records with replacement and re-run the estimator.

    Records are resampled jointly (n, k, result), preserving their
    correlations: each repetition hands ``estimator`` the drawn record
    indices, which it applies with ``data.subset(indices)`` or as draw
    counts ``np.bincount(indices, minlength=len(data))``.  Each repetition
    draws from its own deterministic substream, so the report depends only
    on (data, seed).  Repetitions that fail with a toolkit error or a
    linear-algebra error are skipped; more than ``max_failure_fraction`` of
    them failing aborts the report.  Any other exception is a bug and
    propagates.
    """
    if n_reps < 2:
        raise ValueError("bootstrap needs at least 2 repetitions")
    n = len(data)
    results = []
    failures = 0
    for rep in range(n_reps):
        rng = np.random.default_rng([seed, _STREAM_BOOTSTRAP, rep])
        indices = rng.integers(0, n, n)
        try:
            results.append(np.asarray(estimator(indices), dtype=float))
        except (PovmcalError, np.linalg.LinAlgError):
            failures += 1
    if failures > max_failure_fraction * n_reps:
        raise BootstrapError(
            f"{failures}/{n_reps} bootstrap repetitions failed"
        )
    stacked = np.stack(results)
    # entries may be NaN where an estimator has no value for an outcome a
    # resample missed; reduce over the valid repetitions only
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
    return BootstrapReport(
        n_repetitions=n_reps,
        seed=int(seed),
        mean=mean,
        stdev=np.sqrt(var),
        n_failures=failures,
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


def compare_mse(
    recon_a: Mapping,
    recon_b: Mapping,
    truth: Mapping,
    entry_set: Sequence,
) -> MseComparison:
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
