"""Configuration-driven experiment runner.

A run executes the calibration procedure end to end: check that the
configured input state is faithful (invertible map) on the reconstruction
subspace, simulate the joint measurements, then reconstruct the detector
POVM by the averaging strategy, maximum likelihood, or both, with error
bars and a comparison against the known ground truth.

Only this module writes files.  All artifacts are deterministic functions
of the config (the timing log is the one exception and has its own file).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import detectors, quorum as quorum_mod, recon_avg, recon_ml, sampler, states, stats
from .errors import ConfigError, PovmcalError, ScenarioAbort
from .scenarios import list_scenarios, scenario_config

EXACT_TOLERANCE = 1e-8  # oracle tolerance used for z-scores in exact mode

# the types a value may take; no bool passes for an int or a float
INT, NUMBER, OPTIONAL_INT = (int,), (int, float), (int, type(None))
TYPES = {
    "name": (str,),
    "seed": INT,
    "n_records": INT,
    "exact_probabilities": (bool,),
    "strategy": (str,),
    "bootstrap_reps": INT,
    "save_dataset": (bool,),
    "max_condition_number": NUMBER,
    "svd_tolerance": NUMBER,
    "display_cutoff": OPTIONAL_INT,
    "state": (dict,),
    "detector": (dict,),
    "quorum": (dict,),
    "ml": (dict,),
    "noise": (dict, type(None)),
}
# the keys each kind of nested block takes besides "kind", with their types;
# only the keys in OPTIONAL_KEYS may be left out
BLOCK_KEYS = {
    "state": {
        "maximally_entangled": {"d": INT},
        "twin_beam": {"xi": NUMBER, "fock_cutoff": INT},
        "product_mixed": {"dim_system": INT, "dim_tomo": INT},
    },
    "detector": {
        "random": {"n_outcomes": INT, "seed": INT},
        "noisy_photocounter": {"eta_p": NUMBER, "nu": NUMBER, "env_cutoff": INT},
    },
    "quorum": {
        "pauli": {},
        "random_bases": {"n_settings": INT, "seed": INT},
        "homodyne": {
            "eta_h": NUMBER,
            "fock_cutoff": INT,
            "grid": (list, tuple),
            "unbias_cutoff": OPTIONAL_INT,
        },
    },
    "noise": {"depolarizing": {"p": NUMBER}},
}
OPTIONAL_KEYS = frozenset({"grid", "unbias_cutoff"})
# keys whose values may not be negative, in any block of any kind
NONNEGATIVE_KEYS = frozenset({"seed", "fock_cutoff", "env_cutoff"})
ML_KEYS = {"fock_cutoff": INT}  # what an ``ml`` block may set


@dataclass
class ScenarioConfig:
    """Validated run configuration; see scenarios.py for fully worked examples."""

    name: str
    seed: int
    n_records: int
    exact_probabilities: bool
    strategy: str
    bootstrap_reps: int
    save_dataset: bool
    max_condition_number: float
    svd_tolerance: float
    display_cutoff: int | None
    state: dict
    detector: dict
    quorum: dict
    ml: dict = field(default_factory=dict)
    noise: dict | None = None

    def __post_init__(self):
        _check_types("", vars(self), TYPES)
        for block in ("state", "detector", "quorum", "noise"):
            if getattr(self, block) is not None:
                _check_block(block, getattr(self, block))
        if self.strategy not in ("averaging", "ml", "both"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.display_cutoff is not None and self.display_cutoff < 0:
            raise ConfigError("display_cutoff must be nonnegative")
        if not self.max_condition_number >= 1.0:
            raise ConfigError("max_condition_number must be at least 1")
        if not self.svd_tolerance >= 0.0:
            raise ConfigError("svd_tolerance must be nonnegative")
        wants_ml = self.strategy in ("ml", "both")
        if wants_ml and self.exact_probabilities:
            raise ConfigError("maximum likelihood requires sampled data")
        if wants_ml and self.bootstrap_reps < 2:
            raise ConfigError("ml strategy needs bootstrap_reps >= 2 for error bars")
        if not wants_ml and self.bootstrap_reps != 0:
            raise ConfigError("averaging error bars are analytic; set bootstrap_reps to 0")
        if not self.exact_probabilities and self.n_records < 1:
            raise ConfigError("n_records must be positive in sampled mode")
        unknown_ml = set(self.ml) - set(ML_KEYS)
        if unknown_ml:
            raise ConfigError(f"unknown ml keys: {sorted(unknown_ml)}")
        _check_types("ml.", self.ml, ML_KEYS)
        _check_nonnegative("ml", self.ml)
        homodyne = self.quorum["kind"] == "homodyne"
        if homodyne and self.exact_probabilities:
            raise ConfigError("exact-probability mode needs a finite quorum")
        if homodyne and self.noise is not None:
            raise ConfigError("tomographer noise is supported with a finite quorum only")
        if not homodyne and self.display_cutoff is not None:
            raise ConfigError("display_cutoff applies to a homodyne quorum only")
        if not homodyne and "fock_cutoff" in self.ml:
            raise ConfigError("ml.fock_cutoff applies to a homodyne quorum only")

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        fields = dataclasses.fields(cls)
        unknown = set(payload) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [
            f.name
            for f in fields
            if f.name not in payload
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        return cls(**payload)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_types(prefix: str, values: dict, types: dict) -> None:
    """Reject a value of ``values`` whose type ``types`` does not list for its key."""
    for key, accepted in types.items():
        if key not in values:
            continue
        value = values[key]
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
            names = " or ".join(t.__name__ for t in accepted)
            raise ConfigError(f"{prefix}{key} must be {names}, not {value!r}")


def _check_block(block: str, params: dict) -> None:
    """Reject a nested block whose kind is unknown or whose keys do not fit it."""
    kinds = BLOCK_KEYS[block]
    kind = params.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{block} kind must be one of {sorted(kinds)}, not {kind!r}")
    types = kinds[kind]
    missing = sorted(set(types) - OPTIONAL_KEYS - set(params))
    if missing:
        raise ConfigError(f"{block} of kind {kind!r} is missing keys: {missing}")
    unknown = sorted(set(params) - set(types) - {"kind"})
    if unknown:
        raise ConfigError(f"unknown {block} keys for kind {kind!r}: {unknown}")
    _check_types(f"{block}.", params, types)
    _check_nonnegative(block, params)


def _check_nonnegative(block: str, params: dict) -> None:
    """Reject a negative value of a key in ``NONNEGATIVE_KEYS``."""
    for key in sorted(NONNEGATIVE_KEYS & set(params)):
        if params[key] < 0:
            raise ConfigError(f"{block}.{key} must be nonnegative, not {params[key]!r}")


@dataclass
class RunReport:
    """In-memory result of one run.  ``timing`` is excluded from the
    serialized report so that reruns are byte-identical."""

    config: dict
    faithfulness: dict
    dataset_summary: dict
    reconstructions: dict
    checks: dict
    timing: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "faithfulness": self.faithfulness,
            "dataset": self.dataset_summary,
            "reconstructions": self.reconstructions,
            "checks": self.checks,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


# --- builders ---------------------------------------------------------------


def build_state(params: dict) -> states.BipartiteState:
    kind = params["kind"]
    if kind == "maximally_entangled":
        return states.maximally_entangled(params["d"])
    if kind == "twin_beam":
        return states.twin_beam(params["xi"], params["fock_cutoff"])
    if kind == "product_mixed":
        return states.product_mixed(params["dim_system"], params["dim_tomo"])
    raise ConfigError(f"unknown state kind {kind!r}")


def build_detector(params: dict, state: states.BipartiteState) -> detectors.Povm:
    kind = params["kind"]
    if kind == "random":
        return detectors.random_povm(state.dim_system, params["n_outcomes"], params["seed"])
    if kind == "noisy_photocounter":
        return detectors.noisy_photocounter(
            params["eta_p"], params["nu"], state.dim_system - 1, params["env_cutoff"]
        )
    raise ConfigError(f"unknown detector kind {kind!r}")


def build_quorum(params: dict, dim_tomo: int):
    kind = params["kind"]
    if kind == "pauli":
        if dim_tomo != 2:
            raise ConfigError("pauli quorum needs a qubit tomographer")
        return quorum_mod.pauli_quorum()
    if kind == "random_bases":
        return quorum_mod.random_basis_quorum(dim_tomo, params["n_settings"], params["seed"])
    if kind == "homodyne":
        optional = {key: params[key] for key in OPTIONAL_KEYS if key in params}
        return quorum_mod.homodyne_quorum(params["fock_cutoff"], params["eta_h"], **optional)
    raise ConfigError(f"unknown quorum kind {kind!r}")


def build_noise(params: dict | None, dim: int) -> quorum_mod.NoiseMap | None:
    if params is None:
        return None
    if params["kind"] == "depolarizing":
        return quorum_mod.noise_map_from_superoperator(
            quorum_mod.depolarizing_superoperator(params["p"], dim)
        )
    raise ConfigError(f"unknown noise kind {params['kind']!r}")


# --- report assembly --------------------------------------------------------


@dataclass
class _Fit:
    """One estimator's POVM estimate: ``values`` is (n, M+1) real for the
    number-diagonal reconstruction or (n, d, d) complex for the full one,
    and ``stderr`` is real with the same shape; ML fits carry their ``ml_result.json`` payload."""

    outcomes: tuple[int, ...]
    values: np.ndarray
    stderr: np.ndarray
    checks: dict
    report: dict
    ml_result: dict | None = None


def _zscore(abs_error: float, stderr: float, exact: bool) -> float:
    if exact:
        return abs_error / EXACT_TOLERANCE
    if stderr <= 0.0:
        return 0.0 if abs_error == 0.0 else float("inf")
    return abs_error / stderr


def _rows(fit: _Fit, truth: np.ndarray, exact: bool) -> tuple[tuple[str, ...], list[dict]]:
    """The CSV columns and the entry rows, with their theory cells and z,
    of every outcome and index."""
    complex_values = np.iscomplexobj(fit.values)
    columns, n_parts = _COLUMNS[complex_values], 2 if complex_values else 1
    indices = list(itertools.product(*map(range, fit.values.shape[1:])))
    rows = []
    for n, values, stderr in zip(fit.outcomes, fit.values, fit.stderr):
        for index, value, sigma, theory in zip(
            indices, values.ravel().tolist(), stderr.ravel().tolist(), truth[n].ravel().tolist()
        ):
            # a real entry has one value part and so takes only the real part
            cells = (
                int(n), *index, *(value.real, value.imag)[:n_parts], sigma,
                *(theory.real, theory.imag)[:n_parts],
            )
            row = dict(zip(columns, cells))
            row["z"] = _zscore(abs(complex(value) - complex(theory)), sigma, exact)
            rows.append(row)
    return columns, rows


def _coverage(entries) -> dict:
    zs = [e["z"] for e in entries]
    if not zs:
        return {"n_compared": 0}
    zs = np.asarray(zs)
    return {
        "n_compared": int(zs.size),
        "max_z": float(zs.max()),
        "fraction_within_3": float(np.mean(zs <= 3.0)),
        "fraction_within_5": float(np.mean(zs <= 5.0)),
    }


# --- the run operation -------------------------------------------------------


def run(config: ScenarioConfig, output_dir: str | Path | None = None) -> RunReport:
    """Execute one scenario, then write its artifacts; a run that raises
    writes nothing.  Raises :class:`ConfigError` before any work when
    ``output_dir`` cannot be made a directory (it or an ancestor is a
    file), and aborts with :class:`ScenarioAbort` (condition-number
    diagnostic) when the input state is not faithful on the reconstruction
    subspace.
    """
    out = Path(output_dir or Path("runs") / config.name)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write the run to {out}: {existing} is not a directory")
    t0 = time.perf_counter()
    state = build_state(config.state)
    povm = build_detector(config.detector, state)
    quorum_obj = build_quorum(config.quorum, state.dim_tomo)
    homodyne = isinstance(quorum_obj, quorum_mod.HomodyneQuorum)

    if homodyne:
        map_r = states.build_diagonal_map_R(
            state, cutoff=quorum_obj.fock_cutoff, svd_tolerance=config.svd_tolerance
        )
    else:
        map_r = states.build_map_R(state, svd_tolerance=config.svd_tolerance)
    faithfulness = {
        "condition_number": map_r.condition_number,
        "svd_tolerance": map_r.svd_tolerance,
        "subspace": map_r.subspace,
        "bound": config.max_condition_number,
    }
    if not np.isfinite(map_r.condition_number) or (
        map_r.condition_number > config.max_condition_number
    ):
        raise ScenarioAbort(
            f"input state is not faithful on the {map_r.subspace} subspace: "
            f"condition number {map_r.condition_number:.6g} exceeds "
            f"{config.max_condition_number:.6g}; calibration cannot invert the map"
        )
    t_setup = time.perf_counter()

    noise = build_noise(config.noise, state.dim_tomo)
    sample_state = states.apply_noise_tomo_side(state, noise) if noise else state
    if config.exact_probabilities:
        data = None
        dataset_summary = {"exact_probabilities": True}
    else:
        sample = sampler.sample_homodyne_twinbeam if homodyne else sampler.sample_finite
        data = sample(sample_state, povm, quorum_obj, config.n_records, config.seed, config.name)
        dataset_summary = {
            "n_records": len(data),
            "seed": data.seed,
            "counts_by_n": data.counts_by_n.tolist(),
        }
    t_sample = time.perf_counter()

    reconstructions: dict = {}
    tables: dict[str, tuple] = {}  # each estimator's CSV columns and entry rows
    ml_result = None
    checks: dict = {"faithful": True}
    truth = povm.diagonal() if homodyne else np.stack(povm.elements)
    exact, display = config.exact_probabilities, config.display_cutoff
    for label in ("averaging", "ml"):
        if config.strategy not in (label, "both"):
            continue
        if label == "averaging":
            fit = _fit_averaging(config, data, sample_state, povm, quorum_obj, map_r, noise)
        else:
            fit = _fit_ml(config, data, sample_state, quorum_obj)
            ml_result = fit.ml_result
        checks.update(fit.checks)
        columns, rows = _rows(fit, truth, exact)
        tables[label] = columns, rows
        # only a homodyne config sets a display window, over n and m
        entries = [r for r in rows if display is None or max(r["n"], r["m"]) <= display]
        coverage = _coverage(entries)
        if exact:  # a finite quorum: every row is complex and compared
            max_err = max(
                abs(complex(r["value_re"], r["value_im"]) - complex(r["theory_re"], r["theory_im"]))
                for r in rows
            )
            checks["oracle_error_ok"] = bool(max_err < EXACT_TOLERANCE)
            coverage["max_abs_error"] = max_err
        reconstructions[label] = {
            "estimator": label,
            "outcomes": [int(n) for n in fit.outcomes],
            "unobserved_outcomes": sorted(set(range(len(povm))) - set(fit.outcomes)),
            **fit.report,
            "entries": entries,
            "coverage": coverage,
        }
    t_recon = time.perf_counter()

    report = RunReport(
        config=config.to_dict(),
        faithfulness=faithfulness,
        dataset_summary=dataset_summary,
        reconstructions=reconstructions,
        checks=checks,
        timing={
            "setup_s": t_setup - t0,
            "sampling_s": t_sample - t_setup,
            "reconstruction_s": t_recon - t_sample,
        },
    )
    json_files = {"report.json": report.to_json_dict(), "config.json": report.config}
    if ml_result is not None:
        json_files["ml_result.json"] = ml_result
    if config.save_dataset and data is not None:
        json_files["dataset.json"] = {
            **dataset_summary,
            "scenario_id": data.scenario_id,
            "kind": data.kind,
            "parameters": {"scenario": config.name},
        }
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in json_files.items():
        _write_json(out / name, payload)
    if "dataset.json" in json_files:
        write_dataset_csv(data, out / "dataset.csv")
    for label, (columns, rows) in tables.items():
        _write_csv(out / f"{label}_reconstruction.csv", columns, columns, rows)
    emit_plot_data(report, out / "plots")
    (out / "run.log").write_text("".join(f"{k}: {v:.3f}\n" for k, v in report.timing.items()))
    return report


def _fit_averaging(config, data, state, povm, quorum_obj, map_r, noise) -> _Fit:
    """Linear averaging through the inverted input map.

    Error bars are always the analytic stderr of :func:`recon_avg.recover_povm`:
    the estimate is a record mean, so that stderr is its exact spread and
    no bootstrap is run (``bootstrap_reps`` serves maximum likelihood only).
    """
    checks, report = {}, {}
    homodyne = isinstance(quorum_obj, quorum_mod.HomodyneQuorum)
    if homodyne:
        estimates, clipped_fraction = recon_avg.estimate_conditioned_homodyne(data, quorum_obj)
        checks["clipping_ok"] = bool(clipped_fraction <= 1e-3)
        report["clipped_fraction"] = clipped_fraction
    else:
        if config.exact_probabilities:  # the infinite-data limit of the counts
            cells = sampler.joint_probability_tables(state, povm, quorum_obj)
        else:
            cells = data.cell_counts((len(povm), quorum_obj.n_settings, quorum_obj.dim))
        duals = quorum_mod.compute_dual_set(quorum_obj)
        estimates = recon_avg.estimate_conditioned_finite(
            cells, duals, noise, exact=config.exact_probabilities
        )
    estimate = recon_avg.recover_povm(estimates, map_r)
    report.update(
        p_hat=estimate.p_hat.tolist(),
        completeness_deviation=estimate.completeness_deviation,
        min_eigenvalue=estimate.min_eigenvalue,
    )
    return _Fit(estimate.outcomes, estimate.values, estimate.stderr, checks, report)


def _fit_ml(config, data, state, quorum_obj) -> _Fit:
    """Constrained maximum likelihood with bootstrap error bars.

    Each repetition solves the point problem's ``draw``: the finite count
    tensor drawn as one multinomial, or the diagonal response table's
    records reweighted by their draw counts.  A finite repetition starts at the point
    estimate, since its Newton step can unpin entries held at 0; a diagonal
    one starts cold from two multiplicative (EM) updates of the uniform
    POVM (``recon_ml._em_start``), since its interior-point solve needs a
    start away from the boundary.  Every repetition keeps the point
    estimate's outcome set (an outcome a resample misses solves to 0).
    ``ml_certified`` holds only if the point estimate and every repetition
    stopped on the likelihood-gap certificate.
    """
    homodyne = isinstance(quorum_obj, quorum_mod.HomodyneQuorum)
    if homodyne:
        problem = recon_ml.build_problem_diagonal(
            data, state, quorum_obj, config.ml.get("fock_cutoff")
        )
    else:
        problem = recon_ml.build_problem_finite(data, state, quorum_obj)
    result = recon_ml.maximize(problem)
    # warm only the finite solve: the diagonal point estimate hugs the boundary
    init = None if homodyne else result.povm_hat
    rep_converged: list[bool] = []

    def rerun(rng):
        res = recon_ml.maximize(problem.draw(rng), init=init)
        rep_converged.append(res.converged)
        return problem.from_povm(res.povm_hat)

    boot = stats.bootstrap(rerun, config.bootstrap_reps, config.seed)
    values = problem.from_povm(result.povm_hat)

    monotone = bool(np.all(np.diff(result.ll_trace) >= -recon_ml.MONOTONE_SLACK))
    uncertified = rep_converged.count(False)
    checks = {
        "ml_monotone": monotone,
        "ml_constraints": bool(
            result.completeness_deviation <= recon_ml.COMPLETENESS_TOL
            and result.min_eigenvalue >= recon_ml.POSITIVITY_TOL
        ),
        "bootstrap_failures_ok": bool(boot.n_failures == 0),
        "ml_certified": bool(result.converged and uncertified == 0),
    }
    solve = {  # the solve's scalars, reported and repeated in ml_result.json
        "iterations": result.iterations,
        "converged": result.converged,
        "ll_gap": result.ll_gap,
        "final_log_likelihood": result.final_log_likelihood,
        "completeness_deviation": result.completeness_deviation,
        "min_eigenvalue": result.min_eigenvalue,
    }
    report = {
        **solve,
        "monotone": monotone,
        "bootstrap": {
            "n_repetitions": boot.n_repetitions,
            "n_failures": boot.n_failures,
            "uncertified_repetitions": uncertified,
        },
    }
    ml_result = {**solve, "ll_trace": result.ll_trace}
    if homodyne:  # only the diagonal of a number-diagonal POVM can be nonzero
        ml_result["povm_diagonal"] = values
    else:
        ml_result["povm"] = [
            {"real": np.real(p), "imag": np.imag(p)} for p in result.povm_hat.elements
        ]
    return _Fit(problem.outcomes, values, boot.stdev, checks, report, ml_result)


# --- artifact writers --------------------------------------------------------

# the CSV columns of the entry rows of a real (number-diagonal) and a complex
# (full-matrix) estimate, and the plot-file header of each renamed column
_COLUMNS = {
    False: ("n", "m", "value", "stderr", "theory"),
    True: ("n", "i", "j", "value_re", "value_im", "stderr", "theory_re", "theory_im"),
}
_PLOT_HEADERS = {"m": "n", "value": "estimate", "value_re": "estimate_re", "value_im": "estimate_im"}


def _write_json(path, payload) -> None:
    """Write ``payload``, arrays as nested lists, in the JSON layout of every file of a run."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def _write_csv(path, header, keys, rows) -> None:
    """One line per row of its ``keys`` cells, in %.17g, under ``header``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{row[key]:.17g}" for key in keys] for row in rows)


def write_dataset_csv(data: sampler.Dataset, path) -> None:
    """Records as CSV (header n,k,result, LF line ends); the phases and
    quadratures of homodyne records in %.17g, which round-trips a float64."""
    columns = np.column_stack([data.outcome_n, data.setting_k, data.result])
    fmt = "%d" if data.kind == "finite" else "%d,%.17g,%.17g"
    np.savetxt(path, columns, fmt=fmt, delimiter=",", header="n,k,result", comments="")


def write_kernels_csv(table: quorum_mod.KernelTable, path) -> None:
    """Kernel table as CSV with columns x, K_0 ... K_M, in the bytes
    csv.writer gives for these cells (CRLF line ends included)."""
    columns = np.column_stack([table.grid, table.values.T])
    header = ",".join(["x"] + [f"K_{m}" for m in range(table.n_kernels)])
    np.savetxt(
        path, columns, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments=""
    )


def emit_plot_data(report: RunReport, output_dir) -> list[Path]:
    """Per-outcome CSVs (columns n, estimate, stderr, theory) of the report's
    entries, the rows inside the display window, ready for plotting.

    Diagonal reconstructions produce one file per displayed detector
    outcome k, rows over the number index n.  Full-matrix reconstructions
    produce one file per outcome with rows (i, j).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for label, recon in sorted(report.reconstructions.items()):
        entries = recon.get("entries", [])
        if not entries:
            note = out / f"{label}_empty.txt"
            note.write_text("no outcomes were reconstructed\n")
            written.append(note)
            continue
        keys = _COLUMNS["value_re" in entries[0]][1:]
        header = [_PLOT_HEADERS.get(key, key) for key in keys]
        for k, rows in itertools.groupby(entries, key=lambda e: e["n"]):
            path = out / f"{label}_k{k}.csv"
            _write_csv(path, header, keys, rows)
            written.append(path)
    return written


# --- command line ------------------------------------------------------------


def _load_config(source: str, **overrides) -> ScenarioConfig:
    """Config from a JSON file holding one object, or else a builtin scenario
    name (a directory of that name does not hide it), with the ``overrides``
    that are not None set on top."""
    if Path(source).is_file():
        try:
            payload = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from exc
        except ValueError as exc:  # malformed JSON or bytes that are not text
            raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{source} must hold a JSON object, not {type(payload).__name__}")
    else:
        payload = scenario_config(source)
    payload.update((key, value) for key, value in overrides.items() if value is not None)
    return ScenarioConfig.from_dict(payload)


def main(argv=None) -> int:
    """Exit code 0 when every check passed, 1 when a check failed, 2 when
    the faithfulness gate aborted the run, 3 for a rejected config or
    another povmcal error."""
    parser = argparse.ArgumentParser(
        prog="povmcal",
        description="Detector POVM calibration: simulate joint records and reconstruct.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "path to a config JSON file, or a builtin scenario name"

    p_run = sub.add_parser("run", help="execute a scenario config (JSON file or builtin name)")
    p_run.add_argument("config", help=config_help)
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--n-records", type=int, default=None, help="override the record count")

    p_defaults = sub.add_parser("print-defaults", help="print a fully-populated config")
    p_defaults.add_argument("--scenario", default="fig2", choices=list_scenarios())

    sub.add_parser("list-scenarios", help="list builtin scenario names")

    p_kernels = sub.add_parser(
        "export-kernels", help="write the homodyne kernel table of a config as CSV"
    )
    p_kernels.add_argument("config", help=config_help)
    p_kernels.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in list_scenarios():
            print(name)
        return 0

    if args.command == "print-defaults":
        print(json.dumps(scenario_config(args.scenario), indent=2, sort_keys=True))
        return 0

    try:
        if args.command == "export-kernels":
            config = _load_config(args.config)
            if config.quorum["kind"] != "homodyne":
                raise ConfigError(f"kernels need a homodyne quorum, not {config.quorum['kind']!r}")
            out = Path(args.out)
            if out.is_dir() or not out.parent.is_dir():
                raise ConfigError(f"--out {out} must name a file in an existing directory")
            table = build_quorum(config.quorum, build_state(config.state).dim_tomo).kernel_table
            write_kernels_csv(table, args.out)
            print(f"wrote {args.out} (residual {table.residual:.3e})")
            return 0
        config = _load_config(args.config, seed=args.seed, n_records=args.n_records)
        report = run(config, output_dir=args.output_dir)
    except ScenarioAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except PovmcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, ok in sorted(report.checks.items()):
        print(f"{name}: {'ok' if ok else 'FAILED'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
