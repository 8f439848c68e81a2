"""Joint measurement record generation, deterministic per seed.

Records are stored columnar (arrays of n, k, result) for speed.  Randomness
is drawn in fixed-size blocks, each from an independent stream derived from
the master seed, so parallel workers would produce bit-identical datasets
regardless of scheduling; block outputs are concatenated in block order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from .detectors import Povm
from .errors import (
    DimensionMismatchError,
    NumericalValidityError,
    UnsupportedStructureError,
)
from .quorum import FiniteQuorum, HomodyneQuorum
from .states import BipartiteState

BLOCK_SIZE = 1 << 16

# stream tags keep the independent substreams of one master seed apart
_STREAM_FINITE = 0
_STREAM_HOMODYNE = 1


@dataclass(frozen=True)
class Dataset:
    """One simulated calibration run: outcome at the unknown detector,
    quorum setting (index or phase), and tomographer result (index or x)."""

    outcome_n: np.ndarray
    setting_k: np.ndarray
    result: np.ndarray
    seed: int
    scenario_id: str
    kind: str  # "finite" | "homodyne"

    def __post_init__(self):
        if not (len(self.outcome_n) == len(self.setting_k) == len(self.result)):
            raise DimensionMismatchError("record columns have inconsistent lengths")

    def __len__(self) -> int:
        return len(self.outcome_n)

    @property
    def counts_by_n(self) -> np.ndarray:
        return np.bincount(self.outcome_n)

    def subset(self, indices) -> "Dataset":
        return replace(
            self,
            outcome_n=self.outcome_n[indices],
            setting_k=self.setting_k[indices],
            result=self.result[indices],
        )


def _block_rngs(seed: int, stream: int, n_records: int):
    """Independent per-block generators; block boundaries are fixed, not
    worker-dependent, so assembly order is canonical.  Blocks always draw
    full-size random batches (callers slice), which also makes the record
    stream prefix-stable when n_records changes."""
    n_blocks = (n_records + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_records - b * BLOCK_SIZE)
        yield np.random.default_rng([seed, stream, b]), size


def joint_probability_tables(
    state: BipartiteState, povm: Povm, quorum: FiniteQuorum
) -> np.ndarray:
    """Exact p(n, m | k) = Tr[(P_n (x) |b^k_m><b^k_m|) R], shape (K, n_out, d).

    Evaluated as <b^k_m| Tr_1[(P_n (x) 1) R] |b^k_m>.
    """
    if povm.dim != state.dim_system or quorum.dim != state.dim_tomo:
        raise DimensionMismatchError("state, POVM and quorum dimensions are inconsistent")
    ds, dt = state.dim_system, state.dim_tomo
    rho4 = state.rho.reshape(ds, dt, ds, dt)
    conditioned = np.stack(
        [np.einsum("ac,cpaq->pq", p, rho4) for p in povm.elements]
    )  # A_n = Tr_1[(P_n (x) 1) R]
    tables = np.empty((quorum.n_settings, len(povm), dt))
    for k, setting in enumerate(quorum.settings):
        v = setting.vectors
        tables[k] = np.real(np.einsum("mp,npq,mq->nm", v.conj(), conditioned, v))
    if tables.min() < -1e-10:
        raise NumericalValidityError(
            f"joint probability {tables.min():.3e} below validity floor -1e-10"
        )
    np.clip(tables, 0.0, None, out=tables)
    sums = tables.sum(axis=(1, 2))
    if np.abs(sums - 1.0).max() > 1e-8:
        raise NumericalValidityError("joint probabilities do not sum to 1 per setting")
    return tables / sums[:, None, None]


def sample_finite(
    state: BipartiteState,
    povm: Povm,
    quorum: FiniteQuorum,
    n_records: int,
    seed: int,
    scenario_id: str = "",
) -> Dataset:
    """Draw records from the exact joint tables: k uniform, then (n, m) ~ p(n,m|k)."""
    tables = joint_probability_tables(state, povm, quorum)
    n_settings, n_out, d = tables.shape
    cumulative = tables.reshape(n_settings, n_out * d).cumsum(axis=1)
    cumulative[:, -1] = 1.0

    ns = np.empty(n_records, dtype=np.int64)
    ks = np.empty(n_records, dtype=np.int64)
    ms = np.empty(n_records, dtype=np.int64)
    offset = 0
    for rng, size in _block_rngs(seed, _STREAM_FINITE, n_records):
        k = rng.integers(0, n_settings, BLOCK_SIZE)[:size]
        u = rng.random(BLOCK_SIZE)[:size]
        flat = np.empty(size, dtype=np.int64)
        for kk in range(n_settings):
            sel = k == kk
            if sel.any():
                flat[sel] = np.searchsorted(cumulative[kk], u[sel], side="right")
        sl = slice(offset, offset + size)
        ks[sl] = k
        ns[sl] = flat // d
        ms[sl] = flat % d
        offset += size
    return Dataset(ns, ks, ms, int(seed), scenario_id, kind="finite")


def _quadrature_cdf_tables(max_m: int, x_lim: float, step: float):
    """Per-m CDF of psi_m(x)^2 on a uniform grid, for inverse-CDF draws."""
    n_points = int(round(2 * x_lim / step)) + 1
    xs = -x_lim + step * np.arange(n_points)
    pdf = qmath.fock_quadrature_table(max_m, xs) ** 2
    cdf = np.cumsum(pdf, axis=1) * step
    cdf -= cdf[:, :1]
    cdf /= cdf[:, -1:]
    # strictly increasing CDF keeps np.interp well-defined in flat tails
    cdf += np.linspace(0.0, 1e-12, n_points)
    cdf /= cdf[:, -1:]
    return xs, cdf


def sample_homodyne_twinbeam(
    state: BipartiteState,
    povm: Povm,
    hq: HomodyneQuorum,
    n_records: int,
    seed: int,
    scenario_id: str = "",
) -> Dataset:
    """Photon-pair factorized sampler for the continuous-variable scenario.

    Per record: pair number m ~ |c_m|^2, detector outcome n ~ <m|P_n|m>,
    phase ~ U[0, pi), and rescaled quadrature x ~ q_m (drawn as an ideal
    quadrature sample via inverse CDF plus Gaussian smearing noise).  For
    a Schmidt-form state and a number-diagonal POVM this factorization is
    distributionally identical to the joint Born rule.
    """
    if state.schmidt is None:
        raise UnsupportedStructureError("homodyne sampler requires a Schmidt-form state")
    if not povm.is_diagonal():
        raise UnsupportedStructureError("homodyne sampler requires a number-diagonal POVM")
    if povm.dim != state.dim_system:
        raise DimensionMismatchError("POVM dimension does not match the state")

    weights = state.diagonal_weights()
    max_m = weights.size - 1
    cum_w = np.cumsum(weights)
    cum_w[-1] = 1.0
    outcome_cum = np.cumsum(povm.diagonal().T, axis=1)  # row m: cumulative over n
    outcome_cum[:, -1] = 1.0

    x_lim = np.sqrt(2.0 * max_m + 1.0) / 2.0 + 5.0
    xs_grid, cdf = _quadrature_cdf_tables(max_m, x_lim, 1.0 / 512.0)
    sigma = np.sqrt(hq.smear_sigma2)

    ns = np.empty(n_records, dtype=np.int64)
    phases = np.empty(n_records, dtype=np.float64)
    results = np.empty(n_records, dtype=np.float64)
    offset = 0
    for rng, size in _block_rngs(seed, _STREAM_HOMODYNE, n_records):
        u_pair = rng.random(BLOCK_SIZE)[:size]
        u_out = rng.random(BLOCK_SIZE)[:size]
        phase = rng.random(BLOCK_SIZE)[:size] * np.pi
        u_x = rng.random(BLOCK_SIZE)[:size]
        noise = rng.standard_normal(BLOCK_SIZE)[:size]

        m = np.searchsorted(cum_w, u_pair, side="right")
        n = np.empty(size, dtype=np.int64)
        x = np.empty(size, dtype=np.float64)
        for mm in np.unique(m):
            sel = m == mm
            n[sel] = np.searchsorted(outcome_cum[mm], u_out[sel], side="right")
            x[sel] = np.interp(u_x[sel], cdf[mm], xs_grid)
        if sigma > 0.0:
            x += sigma * noise

        sl = slice(offset, offset + size)
        ns[sl] = n
        phases[sl] = phase
        results[sl] = x
        offset += size
    return Dataset(ns, phases, results, int(seed), scenario_id, kind="homodyne")


def export_csv(dataset: Dataset, path) -> None:
    """Write records as CSV (header n,k,result), bit-stable for a fixed seed."""
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


def export_sidecar(dataset: Dataset, path, parameters: dict | None = None) -> None:
    """JSON sidecar with seed, scenario parameters and outcome counts."""
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


def import_csv(path, sidecar_path=None) -> Dataset:
    """Load a dataset written by :func:`export_csv` (+ optional sidecar)."""
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
    seed, scenario_id = -1, ""
    kind = None
    if sidecar_path is not None:
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        seed = int(meta["seed"])
        scenario_id = str(meta["scenario_id"])
        kind = meta["kind"]
    k_col = np.atleast_1d(raw["k"])
    result_col = np.atleast_1d(raw["result"])
    if kind is None:
        finite = k_col.dtype.kind in "iu" and result_col.dtype.kind in "iu"
        kind = "finite" if finite else "homodyne"
    if kind == "finite":
        k_col = k_col.astype(np.int64)
        result_col = result_col.astype(np.int64)
    else:
        k_col = k_col.astype(np.float64)
        result_col = result_col.astype(np.float64)
    return Dataset(
        np.atleast_1d(raw["n"]).astype(np.int64),
        k_col,
        result_col,
        seed,
        scenario_id,
        kind,
    )
