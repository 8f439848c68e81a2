"""Memory budgets of the per-record homodyne stages on fig2-size data.

The kernel averages hold one outcome's (M+1, count) kernel block at a time
and the diagonal ML build one (M+1, N) response table besides its rows, so
their traced peaks scale with those blocks; the allowance covers a few
record-length vectors (grouping permutation, row labels, masks).
"""

import tracemalloc

import numpy as np
import pytest

from povmcal.detectors import noisy_photocounter
from povmcal.quorum import homodyne_quorum
from povmcal.recon_avg import estimate_conditioned_homodyne
from povmcal.recon_ml import build_problem_diagonal
from povmcal.sampler import sample_homodyne_twinbeam
from povmcal.states import twin_beam

N_RECORDS = 200_000
ML_CUTOFF = 36


@pytest.fixture(scope="module")
def fig2_physics():
    state = twin_beam(0.88, 54)
    povm = noisy_photocounter(0.8, 1.0, fock_cutoff=54, env_cutoff=30)
    hq = homodyne_quorum(12, 0.9, grid=(-8.0, 8.0, 1.0 / 512.0), unbias_cutoff=20)
    data = sample_homodyne_twinbeam(state, povm, hq, N_RECORDS, seed=2024)
    return state, hq, data


def traced_peak(fn, *args) -> int:
    """Bytes allocated by ``fn(*args)`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_kernel_averages_hold_one_outcome_block(fig2_physics):
    _, hq, data = fig2_physics
    largest = int(data.counts_by_n.max())
    assert largest < N_RECORDS // 2
    block = hq.kernel_table.n_kernels * largest * 8
    budget = 3 * block + 4 * N_RECORDS * 8
    peak = traced_peak(estimate_conditioned_homodyne, data, hq)
    assert peak <= budget, f"peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"


def test_diagonal_build_holds_two_response_tables(fig2_physics):
    state, hq, data = fig2_physics
    table = (ML_CUTOFF + 1) * N_RECORDS * 8
    budget = 2 * table + 8 * N_RECORDS * 8
    peak = traced_peak(build_problem_diagonal, data, state, hq, ML_CUTOFF)
    assert peak <= budget, f"peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"
