"""Configuration-driven experiment runner.

A run executes the calibration procedure end to end: check that the
configured input state is faithful (invertible map) on the reconstruction
subspace, simulate the joint measurements, then reconstruct the detector
POVM by the averaging strategy, maximum likelihood, or both, with error
bars and a comparison against the known ground truth.

All artifacts are deterministic functions of the config (the timing log
is the one exception and lives in its own file).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import detectors, quorum as quorum_mod, recon_avg, recon_ml, sampler, states, stats
from .errors import PovmcalError, ScenarioAbort
from .scenarios import list_scenarios, scenario_config

EXACT_TOLERANCE = 1e-8  # oracle tolerance used for z-scores in exact mode
ML_KEYS = frozenset({"fock_cutoff", "max_iters", "min_ll_increase"})  # what an ``ml`` block may set


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
    output_dir: str | None = None

    def __post_init__(self):
        if self.strategy not in ("averaging", "ml", "both"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        wants_ml = self.strategy in ("ml", "both")
        if wants_ml and self.exact_probabilities:
            raise ValueError("maximum likelihood requires sampled data")
        if wants_ml and self.bootstrap_reps < 2:
            raise ValueError("ml strategy needs bootstrap_reps >= 2 for error bars")
        if not self.exact_probabilities and self.n_records < 1:
            raise ValueError("n_records must be positive in sampled mode")
        unknown_ml = set(self.ml) - ML_KEYS
        if unknown_ml:
            raise ValueError(f"unknown ml keys: {sorted(unknown_ml)}")

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
    raise ValueError(f"unknown state kind {kind!r}")


def build_detector(params: dict, state: states.BipartiteState) -> detectors.Povm:
    kind = params["kind"]
    if kind == "random":
        return detectors.random_povm(state.dim_system, params["n_outcomes"], params["seed"])
    if kind == "noisy_photocounter":
        return detectors.noisy_photocounter(
            params["eta_p"], params["nu"], state.dim_system - 1, params["env_cutoff"]
        )
    raise ValueError(f"unknown detector kind {kind!r}")


def build_quorum(params: dict, dim_tomo: int):
    kind = params["kind"]
    if kind == "pauli":
        if dim_tomo != 2:
            raise ValueError("pauli quorum needs a qubit tomographer")
        return quorum_mod.pauli_quorum()
    if kind == "random_bases":
        return quorum_mod.random_basis_quorum(dim_tomo, params["n_settings"], params["seed"])
    if kind == "homodyne":
        return quorum_mod.homodyne_quorum(
            params["fock_cutoff"],
            params["eta_h"],
            tuple(params.get("grid", (-8.0, 8.0, 1.0 / 512.0))),
            params.get("unbias_cutoff"),
        )
    raise ValueError(f"unknown quorum kind {kind!r}")


def build_noise(params: dict | None, dim: int) -> quorum_mod.NoiseMap | None:
    if params is None:
        return None
    if params["kind"] == "depolarizing":
        return quorum_mod.noise_map_from_superoperator(
            quorum_mod.depolarizing_superoperator(params["p"], dim)
        )
    raise ValueError(f"unknown noise kind {params['kind']!r}")


# --- report assembly --------------------------------------------------------


def _zscore(abs_error: float, stderr: float | None, exact: bool) -> float:
    if exact:
        return abs_error / EXACT_TOLERANCE
    if stderr is None or stderr <= 0.0:
        return 0.0 if abs_error == 0.0 else float("inf")
    return abs_error / stderr


def _finite_entries(outcomes, values, stderr, truth, exact, catch_all=None):
    """Entry rows (n, i, j, value, stderr, theory, z) for full-matrix estimates."""
    entries = []
    for idx, n in enumerate(outcomes):
        is_catch_all = catch_all is not None and n == catch_all
        for i in range(values.shape[1]):
            for j in range(values.shape[2]):
                row = {
                    "n": int(n),
                    "i": i,
                    "j": j,
                    "value_re": float(np.real(values[idx, i, j])),
                    "value_im": float(np.imag(values[idx, i, j])),
                    "stderr": None if stderr is None else float(stderr[idx, i, j]),
                }
                if not is_catch_all and n < len(truth):
                    t = truth[n][i, j]
                    row["theory_re"] = float(np.real(t))
                    row["theory_im"] = float(np.imag(t))
                    diff = abs(complex(values[idx, i, j]) - complex(t))
                    row["z"] = _zscore(diff, row["stderr"], exact)
                entries.append(row)
    return entries


def _diagonal_entries(outcomes, values, stderr, truth_diag, display, catch_all=None):
    """Entry rows (n, m, value, stderr, theory, z) for diagonal estimates."""
    entries = []
    max_m = values.shape[1] - 1 if display is None else min(display, values.shape[1] - 1)
    for idx, n in enumerate(outcomes):
        if display is not None and n > display:
            continue
        is_catch_all = catch_all is not None and n == catch_all
        for m in range(max_m + 1):
            row = {
                "n": int(n),
                "m": m,
                "value": float(values[idx, m]),
                "stderr": None if stderr is None else float(stderr[idx, m]),
            }
            if not is_catch_all and n < truth_diag.shape[0]:
                t = float(truth_diag[n, m])
                row["theory"] = t
                row["z"] = _zscore(abs(row["value"] - t), row["stderr"], exact=False)
            entries.append(row)
    return entries


def _coverage(entries) -> dict:
    zs = [e["z"] for e in entries if "z" in e and e["z"] is not None]
    if not zs:
        return {"n_compared": 0}
    zs = np.asarray(zs)
    return {
        "n_compared": int(zs.size),
        "max_z": float(zs.max()),
        "fraction_within_3": float(np.mean(zs <= 3.0)),
        "fraction_within_5": float(np.mean(zs <= 5.0)),
    }


def _interleave_complex(matrix_stack: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(matrix_stack).ravel(), np.imag(matrix_stack).ravel()])


def _combined_stderr(report: stats.BootstrapReport, n_values: int) -> np.ndarray:
    """Recombine interleaved re/im bootstrap spreads into per-entry sigmas."""
    var = report.stdev**2
    return np.sqrt(var[:n_values] + var[n_values:])


# --- the run operation -------------------------------------------------------


def run(config: ScenarioConfig, output_dir: str | Path | None = None) -> RunReport:
    """Execute one scenario and write its artifacts.

    Aborts with :class:`ScenarioAbort` (condition-number diagnostic) when
    the input state is not faithful on the reconstruction subspace.
    """
    t0 = time.perf_counter()
    out = Path(output_dir or config.output_dir or Path("runs") / config.name)
    out.mkdir(parents=True, exist_ok=True)

    state = build_state(config.state)
    povm = build_detector(config.detector, state)
    quorum_obj = build_quorum(config.quorum, state.dim_tomo)
    homodyne = isinstance(quorum_obj, quorum_mod.HomodyneQuorum)

    if homodyne and config.exact_probabilities:
        raise ValueError("exact-probability mode needs a finite quorum")
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

    reconstructions: dict = {}
    checks: dict = {"faithful": True}
    truth_diag = povm.diagonal() if homodyne else None

    if homodyne:
        data = sampler.sample_homodyne_twinbeam(
            state, povm, quorum_obj, config.n_records, config.seed, config.name
        )
    elif not config.exact_probabilities:
        noise = build_noise(config.noise, state.dim_tomo)
        sample_state = states.apply_noise_tomo_side(state, noise) if noise else state
        data = sampler.sample_finite(
            sample_state, povm, quorum_obj, config.n_records, config.seed, config.name
        )
    else:
        noise = build_noise(config.noise, state.dim_tomo)
        sample_state = states.apply_noise_tomo_side(state, noise) if noise else state
        data = None
    t_sample = time.perf_counter()

    if data is not None:
        dataset_summary = {
            "n_records": len(data),
            "seed": data.seed,
            "counts_by_n": data.counts_by_n.tolist(),
        }
        if config.save_dataset:
            sampler.export_csv(data, out / "dataset.csv")
            sampler.export_sidecar(data, out / "dataset.json", {"scenario": config.name})
    else:
        dataset_summary = {"exact_probabilities": True}

    if config.strategy in ("averaging", "both"):
        if homodyne:
            reconstructions["averaging"] = _run_averaging_homodyne(
                config, data, quorum_obj, map_r, truth_diag, checks, out
            )
        else:
            reconstructions["averaging"] = _run_averaging_finite(
                config, data, sample_state, povm, quorum_obj, map_r, noise, checks, out
            )
    if config.strategy in ("ml", "both"):
        if homodyne:
            reconstructions["ml"] = _run_ml_homodyne(
                config, data, state, quorum_obj, truth_diag, checks, out
            )
        else:
            reconstructions["ml"] = _run_ml_finite(
                config, data, sample_state, povm, quorum_obj, checks, out
            )
    t_recon = time.perf_counter()

    if homodyne:
        quorum_mod.export_kernels_csv(quorum_obj.kernel_table, out / "kernels.csv")

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
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_plot_data(report, out / "plots")
    with open(out / "run.log", "w") as fh:
        for key, value in report.timing.items():
            fh.write(f"{key}: {value:.3f}\n")
    return report


def _run_averaging_finite(config, data, state, povm, quorum_obj, map_r, noise, checks, out):
    duals = quorum_mod.compute_dual_set(quorum_obj)
    if config.exact_probabilities:
        estimates = recon_avg.estimate_conditioned_finite_exact(
            state, povm, quorum_obj, duals, noise
        )
    else:
        estimates = recon_avg.estimate_conditioned_finite(data, quorum_obj, duals, noise)
    estimate = recon_avg.recover_povm(estimates, map_r)

    stderr = estimate.stderr
    if not config.exact_probabilities and config.bootstrap_reps >= 2:
        point_outcomes = estimate.outcomes

        def rerun(ds):
            ests = recon_avg.estimate_conditioned_finite(ds, quorum_obj, duals, noise)
            resampled = recon_avg.recover_povm(ests, map_r)
            by_outcome = dict(zip(resampled.outcomes, resampled.values))
            stack = [
                by_outcome.get(n, np.full_like(estimate.values[0], np.nan))
                for n in point_outcomes
            ]
            return _interleave_complex(np.stack(stack))

        boot = stats.bootstrap(data, rerun, config.bootstrap_reps, config.seed)
        stderr = _combined_stderr(boot, estimate.values.size).reshape(estimate.values.shape)

    entries = _finite_entries(
        estimate.outcomes,
        estimate.values,
        stderr,
        povm.elements,
        config.exact_probabilities,
    )
    coverage = _coverage(entries)
    unobserved = sorted(set(range(len(povm))) - set(estimate.outcomes))
    if config.exact_probabilities:
        max_err = max(
            abs(complex(e["value_re"], e["value_im"]) - complex(e["theory_re"], e["theory_im"]))
            for e in entries
            if "theory_re" in e
        )
        checks["oracle_error_ok"] = bool(max_err < EXACT_TOLERANCE)
        coverage["max_abs_error"] = max_err
    _write_finite_csv(entries, out / "averaging_reconstruction.csv")
    return {
        "estimator": "averaging",
        "outcomes": [int(n) for n in estimate.outcomes],
        "unobserved_outcomes": unobserved,
        "p_hat": estimate.p_hat.tolist(),
        "completeness_deviation": estimate.completeness_deviation,
        "min_eigenvalue": estimate.min_eigenvalue,
        "entries": entries,
        "coverage": coverage,
    }


def _run_averaging_homodyne(config, data, hq, map_r, truth_diag, checks, out):
    estimates, clipped_fraction = recon_avg.estimate_conditioned_homodyne(data, hq)
    estimate = recon_avg.recover_povm(estimates, map_r)
    checks["clipping_ok"] = bool(clipped_fraction <= 1e-3)

    entries = _diagonal_entries(
        estimate.outcomes, estimate.values, estimate.stderr, truth_diag, config.display_cutoff
    )
    _write_diagonal_csv(
        _diagonal_entries(estimate.outcomes, estimate.values, estimate.stderr, truth_diag, None),
        out / "averaging_reconstruction.csv",
    )
    unobserved = sorted(set(range(truth_diag.shape[0])) - set(estimate.outcomes))
    return {
        "estimator": "averaging",
        "outcomes": [int(n) for n in estimate.outcomes],
        "unobserved_outcomes": unobserved,
        "p_hat": estimate.p_hat.tolist(),
        "completeness_deviation": estimate.completeness_deviation,
        "min_eigenvalue": estimate.min_eigenvalue,
        "clipped_fraction": clipped_fraction,
        "entries": entries,
        "coverage": _coverage(entries),
    }


def _solve_ml(problem, ml_cfg):
    return recon_ml.maximize(
        problem,
        max_iters=ml_cfg.get("max_iters", 20000),
        min_ll_increase=ml_cfg.get("min_ll_increase", 1e-8),
    )


def _ml_summary(result, outcomes, boot, rep_converged, entries, checks) -> dict:
    """Report checks and the report block shared by both ML runners.

    ``ml_certified`` holds only if the point estimate and every bootstrap
    repetition stopped on the likelihood-gap certificate.
    """
    monotone = bool(np.all(np.diff(result.ll_trace) >= -recon_ml.MONOTONE_SLACK))
    uncertified = rep_converged.count(False)
    checks["ml_monotone"] = monotone
    checks["ml_constraints"] = bool(
        result.completeness_deviation <= recon_ml.COMPLETENESS_TOL
        and result.min_eigenvalue >= recon_ml.POSITIVITY_TOL
    )
    checks["bootstrap_failures_ok"] = bool(boot.n_failures == 0)
    checks["ml_certified"] = bool(result.converged and uncertified == 0)
    return {
        "estimator": "ml",
        "outcomes": [int(n) for n in outcomes],
        "catch_all_outcome": int(outcomes[-1]),
        "iterations": result.iterations,
        "converged": result.converged,
        "ll_gap": result.ll_gap,
        "final_log_likelihood": result.final_log_likelihood,
        "monotone": monotone,
        "completeness_deviation": result.completeness_deviation,
        "min_eigenvalue": result.min_eigenvalue,
        "bootstrap": {
            "n_repetitions": boot.n_repetitions,
            "n_failures": boot.n_failures,
            "uncertified_repetitions": uncertified,
        },
        "entries": entries,
        "coverage": _coverage(entries),
    }


def _run_ml_homodyne(config, data, state, hq, truth_diag, checks, out):
    ml_cfg = config.ml
    problem = recon_ml.build_problem_diagonal(data, state, hq, ml_cfg.get("fock_cutoff"))
    result = _solve_ml(problem, ml_cfg)
    theta = result.povm_hat.diagonal()
    point_outcomes = problem.outcomes
    rep_converged: list[bool] = []

    def rerun(ds):
        prob = recon_ml.build_problem_diagonal(ds, state, hq, ml_cfg.get("fock_cutoff"))
        res = _solve_ml(prob, ml_cfg)
        rep_converged.append(res.converged)
        values = res.povm_hat.diagonal()
        by_outcome = dict(zip(prob.outcomes, values))
        rows = [
            by_outcome.get(n, np.full(values.shape[1], np.nan)) for n in point_outcomes
        ]
        return np.stack(rows).ravel()

    boot = stats.bootstrap(data, rerun, config.bootstrap_reps, config.seed)
    stderr = boot.stdev.reshape(theta.shape)

    entries = _diagonal_entries(
        point_outcomes, theta, stderr, truth_diag, config.display_cutoff,
        catch_all=point_outcomes[-1],
    )
    _write_diagonal_csv(
        _diagonal_entries(
            point_outcomes, theta, stderr, truth_diag, None, catch_all=point_outcomes[-1]
        ),
        out / "ml_reconstruction.csv",
    )
    result.export_json(out / "ml_result.json")
    return _ml_summary(result, point_outcomes, boot, rep_converged, entries, checks)


def _run_ml_finite(config, data, state, povm, quorum_obj, checks, out):
    ml_cfg = config.ml
    problem = recon_ml.build_problem_finite(data, state, quorum_obj)
    result = _solve_ml(problem, ml_cfg)
    elements = np.stack([np.asarray(p) for p in result.povm_hat.elements])
    point_outcomes = problem.outcomes
    rep_converged: list[bool] = []

    def rerun(ds):
        prob = recon_ml.build_problem_finite(ds, state, quorum_obj)
        res = _solve_ml(prob, ml_cfg)
        rep_converged.append(res.converged)
        by_outcome = dict(zip(prob.outcomes, res.povm_hat.elements))
        rows = [
            np.asarray(by_outcome[n])
            if n in by_outcome
            else np.full(elements[0].shape, np.nan, dtype=complex)
            for n in point_outcomes
        ]
        return _interleave_complex(np.stack(rows))

    boot = stats.bootstrap(data, rerun, config.bootstrap_reps, config.seed)
    stderr = _combined_stderr(boot, elements.size).reshape(elements.shape)

    entries = _finite_entries(
        point_outcomes, elements, stderr, povm.elements, exact=False,
        catch_all=point_outcomes[-1],
    )
    _write_finite_csv(entries, out / "ml_reconstruction.csv")
    result.export_json(out / "ml_result.json")
    return _ml_summary(result, point_outcomes, boot, rep_converged, entries, checks)


# --- artifact writers --------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _write_finite_csv(entries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "i", "j", "value_re", "value_im", "stderr", "theory_re", "theory_im"])
        for e in entries:
            writer.writerow(
                [
                    e["n"], e["i"], e["j"],
                    _fmt(e["value_re"]), _fmt(e["value_im"]), _fmt(e["stderr"]),
                    _fmt(e.get("theory_re")), _fmt(e.get("theory_im")),
                ]
            )


def _write_diagonal_csv(entries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "value", "stderr", "theory"])
        for e in entries:
            writer.writerow(
                [e["n"], e["m"], _fmt(e["value"]), _fmt(e["stderr"]), _fmt(e.get("theory"))]
            )


def emit_plot_data(report: RunReport, output_dir) -> list[Path]:
    """Per-outcome CSVs (columns n, estimate, stderr, theory) ready for plotting.

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
        diagonal = "m" in entries[0]
        by_outcome: dict[int, list] = {}
        for e in entries:
            by_outcome.setdefault(e["n"], []).append(e)
        for k, rows in sorted(by_outcome.items()):
            path = out / f"{label}_k{k}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                if diagonal:
                    writer.writerow(["n", "estimate", "stderr", "theory"])
                    for e in rows:
                        writer.writerow(
                            [e["m"], _fmt(e["value"]), _fmt(e["stderr"]), _fmt(e.get("theory"))]
                        )
                else:
                    writer.writerow(["i", "j", "estimate_re", "estimate_im", "stderr",
                                     "theory_re", "theory_im"])
                    for e in rows:
                        writer.writerow(
                            [e["i"], e["j"], _fmt(e["value_re"]), _fmt(e["value_im"]),
                             _fmt(e["stderr"]), _fmt(e.get("theory_re")), _fmt(e.get("theory_im"))]
                        )
            written.append(path)
    return written


# --- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="povmcal",
        description="Detector POVM calibration: simulate joint records and reconstruct.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config (JSON file or builtin name)")
    p_run.add_argument("config", help="path to a config JSON file, or a builtin scenario name")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--n-records", type=int, default=None, help="override the record count")

    p_defaults = sub.add_parser("print-defaults", help="print a fully-populated config")
    p_defaults.add_argument("--scenario", default="fig2", choices=list_scenarios())

    sub.add_parser("list-scenarios", help="list builtin scenario names")

    p_kernels = sub.add_parser("export-kernels", help="write diagonal kernels as CSV")
    p_kernels.add_argument("--eta-h", type=float, required=True)
    p_kernels.add_argument("--fock-cutoff", type=int, required=True)
    p_kernels.add_argument("--unbias-cutoff", type=int, default=None)
    p_kernels.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in list_scenarios():
            print(name)
        return 0

    if args.command == "print-defaults":
        print(json.dumps(scenario_config(args.scenario), indent=2, sort_keys=True))
        return 0

    if args.command == "export-kernels":
        table = quorum_mod.build_diagonal_kernels(
            args.fock_cutoff, args.eta_h, unbias_cutoff=args.unbias_cutoff
        )
        quorum_mod.export_kernels_csv(table, args.out)
        print(f"wrote {args.out} (residual {table.residual:.3e})")
        return 0

    # run
    if Path(args.config).exists():
        with open(args.config) as fh:
            payload = json.load(fh)
    else:
        payload = scenario_config(args.config)
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.n_records is not None:
        payload["n_records"] = args.n_records
    config = ScenarioConfig.from_dict(payload)
    try:
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
