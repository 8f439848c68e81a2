"""Bootstrap error bars."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BootstrapError, PovmcalError

_STREAM_BOOTSTRAP = 2
# largest share of repetitions that may fail before the report is refused
MAX_FAILURE_FRACTION = 0.2


@dataclass(frozen=True)
class BootstrapReport:
    """Per-entry mean and standard deviation over resampled re-estimations."""

    n_repetitions: int
    seed: int
    mean: np.ndarray
    stdev: np.ndarray
    n_failures: int = 0


def bootstrap(
    estimator: Callable[[np.random.Generator], np.ndarray],
    n_reps: int,
    seed: int,
) -> BootstrapReport:
    """Re-run the estimator on ``n_reps`` bootstrap repetitions.

    Repetition ``rep`` hands ``estimator`` its own generator,
    ``np.random.default_rng([seed, _STREAM_BOOTSTRAP, rep])``, and the
    estimator draws its resample from it: an ML problem's ``draw(rng)``
    draws a finite count tensor as one multinomial, and the diagonal
    problem's dataset record indices, which resample whole records
    (n, k, result) jointly.  The report therefore depends only on the
    estimator and ``seed``.  Repetitions that fail with a toolkit error or
    a linear-algebra error are skipped; more than ``MAX_FAILURE_FRACTION``
    of them failing aborts the report.  Any other exception is a bug and
    propagates.
    """
    if n_reps < 2:
        raise ValueError("bootstrap needs at least 2 repetitions")
    results = []
    failures = 0
    for rep in range(n_reps):
        rng = np.random.default_rng([seed, _STREAM_BOOTSTRAP, rep])
        try:
            results.append(np.asarray(estimator(rng), dtype=float))
        except (PovmcalError, np.linalg.LinAlgError):
            failures += 1
    if failures > MAX_FAILURE_FRACTION * n_reps:
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
