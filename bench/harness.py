"""Workloads, the calibration loop and the metrics of the povmcal benchmark.

A run repeats whole rounds of one workload's calibrations, one
``povmcal.cli.run`` after another in this process, for about the given
number of seconds.  Untraced runs time the calibrations and the set-up;
traced runs pair each untraced calibration with a traced one of the same
config and derive the per-layer metrics from the traced ones.  Every
calibration's outputs are checked against truths computed apart from the
package (see ``checks.py``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from spans import SolveProbe, Tracer, clock

from povmcal import cli
from povmcal.scenarios import scenario_config

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 5


# --- workloads ---------------------------------------------------------------


def fig2_round(seed: int, smoke: bool) -> list[dict]:
    """The builtin fig2 config over four data seeds drawn from ``seed``."""
    seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, size=2 if smoke else 4)
    configs = []
    for data_seed in seeds:
        cfg = scenario_config("fig2")
        cfg.update(name="fig2-averaging", seed=int(data_seed))
        if smoke:
            cfg["n_records"] = 20_000
        configs.append(cfg)
    return configs


def fig4_round(seed: int, smoke: bool) -> list[dict]:
    """The builtin fig4 config, its own data seed, 3 bootstrap repetitions.

    At xi = 0.88 the ML cutoff cannot go below 36, and fewer records only
    lengthen the solves, so the smoke size also weakens the twin beam.
    """
    cfg = scenario_config("fig4")
    cfg.update(name="fig4-ml", bootstrap_reps=3)
    if smoke:
        cfg["n_records"] = 10_000
        cfg["state"].update(xi=0.6, fock_cutoff=20)
        cfg["ml"]["fock_cutoff"] = 14
    return [cfg]


def qutrit_round(seed: int, smoke: bool) -> list[dict]:
    """qutrit-oracle's pair, POVM and bases, sampled, depolarized and fitted both ways."""
    cfg = scenario_config("qutrit-oracle")
    cfg.update(
        name="qutrit-noisy-both",
        n_records=10_000 if smoke else 100_000,
        exact_probabilities=False,
        strategy="both",
        bootstrap_reps=5 if smoke else 30,
        noise={"kind": "depolarizing", "p": 0.1},
    )
    return [cfg]


@functools.lru_cache(maxsize=None)
def _counter_truth(eta_p: float, nu: float, env_cutoff: int) -> np.ndarray:
    return checks.counter_response(eta_p, nu, 6, 6, env_cutoff)


def _coverage_problem(label: str, zs: list[float], expected: int, limit: float) -> list[str]:
    zs = np.asarray(zs, dtype=float)
    if zs.size != expected:
        return [f"{label}: {zs.size} entries compared, expected {expected}"]
    fraction = float((zs <= limit).mean())
    if fraction < checks.MIN_FRACTION:
        return [
            f"{label}: {fraction:.1%} of entries within {limit:.3g} stderr "
            f"(need {checks.MIN_FRACTION:.0%})"
        ]
    return []


def report_problems(report: dict) -> list[str]:
    """A problem for every check that the program's own report.json marks failed."""
    return [f"report check {name} failed" for name, ok in sorted(report["checks"].items()) if not ok]


def _z(diff: float, stderr: float | None) -> float:
    if stderr is None or stderr <= 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / stderr


def check_counter(cfg: dict, report: dict) -> list[str]:
    """<m|P_k|m> for k, m <= 6 against the beam-splitter truth (fig2, fig4)."""
    det = cfg["detector"]
    truth = _counter_truth(float(det["eta_p"]), float(det["nu"]), int(det["env_cutoff"]))
    problems = []
    for estimator, recon in report["reconstructions"].items():
        reps = None if estimator == "averaging" else cfg["bootstrap_reps"]
        zs = [
            _z(abs(e["value"] - truth[e["n"], e["m"]]), e["stderr"])
            for e in recon["entries"]
            if e["n"] <= 6 and e["m"] <= 6
        ]
        problems += _coverage_problem(estimator, zs, 49, checks.z_limit(reps))
    return problems


def _drawn_povm(cfg: dict) -> np.ndarray:
    det = cfg["detector"]
    return checks.draw_random_povm(cfg["state"]["d"], det["n_outcomes"], det["seed"])


def _value(entry: dict) -> complex:
    return complex(entry["value_re"], entry["value_im"])


def check_drawn(cfg: dict, report: dict) -> list[str]:
    """Every entry of every element against the POVM the config draws (qutrit)."""
    truth = _drawn_povm(cfg)
    problems = []
    for estimator, recon in report["reconstructions"].items():
        zs = [
            _z(abs(_value(e) - truth[e["n"], e["i"], e["j"]]), e["stderr"])
            for e in recon["entries"]
            if e["n"] < truth.shape[0]
        ]
        problems += _coverage_problem(
            estimator, zs, truth.size, checks.z_limit(cfg["bootstrap_reps"])
        )
    return problems


def check_exact_mode(cfg: dict, out_dir: Path) -> list[str]:
    """The same config in exact-probability mode must return the drawn POVM to 1e-8."""
    exact = dict(cfg, exact_probabilities=True, strategy="averaging", bootstrap_reps=0, n_records=0)
    cli.run(cli.ScenarioConfig.from_dict(exact), out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    truth = _drawn_povm(cfg)
    error = max(
        abs(_value(e) - truth[e["n"], e["i"], e["j"]])
        for e in report["reconstructions"]["averaging"]["entries"]
    )
    problems = [f"exact mode: {p}" for p in report_problems(report)]
    if not error < checks.EXACT_TOL:
        problems.append(f"exact mode: max error {error:.3e} (need < {checks.EXACT_TOL:.0e})")
    return problems


@dataclass(frozen=True)
class Workload:
    round: Callable[[int, bool], list[dict]]
    check: Callable[[dict, dict], list[str]]
    final_check: Callable[[dict, Path], list[str]] | None = None


WORKLOADS = {
    "fig2-averaging": Workload(fig2_round, check_counter),
    "fig4-ml": Workload(fig4_round, check_counter),
    "qutrit-noisy-both": Workload(qutrit_round, check_drawn, check_exact_mode),
}


# --- one calibration -----------------------------------------------------------


@dataclass
class Calibration:
    seconds: float  # wall time of cli.run minus the certificate work inside it
    records: int
    probe: SolveProbe


def calibrate(cfg: dict, out_dir: Path, tracer: Tracer | None = None) -> Calibration:
    config = cli.ScenarioConfig.from_dict(cfg)
    with tracer or contextlib.nullcontext(), SolveProbe(tracer) as probe:
        t0 = clock()
        cli.run(config, out_dir)
        wall = clock() - t0
    return Calibration(wall - probe.excluded_s, cfg["n_records"], probe)


def solve_problems(probe: SolveProbe) -> list[str]:
    """Certificate, constraint, monotonicity and convergence of each ML solve."""
    problems = []
    for i, s in enumerate(probe.solves):
        label = f"solve {i} ({'warm' if s['warm'] else 'cold'})"
        if not s["kkt_gap"] <= checks.KKT_BOUND:
            problems.append(f"{label}: KKT gap {s['kkt_gap']:.3e} > {checks.KKT_BOUND:.0e}")
        if not s["completeness"] <= checks.COMPLETENESS_TOL:
            problems.append(f"{label}: completeness deviation {s['completeness']:.3e}")
        if not s["min_eigenvalue"] >= checks.POSITIVITY_TOL:
            problems.append(f"{label}: min eigenvalue {s['min_eigenvalue']:.3e}")
        if not (s["monotone"] and s["converged"]):
            problems.append(f"{label}: monotone={s['monotone']} converged={s['converged']}")
    return problems


def setup_times(cfg: dict, n: int) -> list[float]:
    """Seconds of ``n`` fresh set-ups of ``cfg``, one child process after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


# --- per-layer metrics ---------------------------------------------------------


def layer_metrics(table: dict, cals: list[Calibration], overhead_s: float) -> dict:
    """Per-layer figures per traced calibration, from span totals and probes.

    Times are inclusive of nested calls into other layers, except
    ``cli.self_s``, the self time of all cli spans.  No time includes the
    benchmark's own certificate work (see ``Tracer.table``).
    """
    n_cal = len(cals)

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def calls(*names):
        return sum(table[n]["calls"] for n in names if n in table)

    solves = [s for c in cals for s in c.probe.solves]
    cold = [s["seconds"] for s in solves if not s["warm"]]
    warm = [s["seconds"] for s in solves if s["warm"]]
    reps = sum(c.probe.reps for c in cals)
    n_records = sum(c.records for c in cals)
    sample_s = total("sampler.sample_finite", "sampler.sample_homodyne_twinbeam")
    evaluate = ("recon_ml.DiagonalMlProblem.evaluate", "recon_ml.FiniteMlProblem.evaluate")
    evaluate_calls = calls(*evaluate)
    evaluate_s = total(*evaluate) / evaluate_calls if evaluate_calls else 0.0
    sweep = float(np.median([s["sweep_bytes"] for s in solves])) if solves else 0.0
    bootstrap_s = total("stats.bootstrap")
    cli_self_s = sum(v["self_s"] for k, v in table.items() if k.startswith("cli."))
    figures = {
        "quorum.kernels_s": (total("quorum.build_diagonal_kernels") / n_cal, "s"),
        "states.map_r_s": (total("states.build_map_R", "states.build_diagonal_map_R") / n_cal, "s"),
        "quorum.duals_s": (total(*_DUALS) / n_cal, "s"),
        "quorum.export_kernels_s": (total("quorum.export_kernels_csv") / n_cal, "s"),
        "sampler.sample_s": (sample_s / n_cal, "s"),
        "sampler.records_per_s": (n_records / sample_s if sample_s else 0.0, "1/s"),
        "sampler.subset_s": (total("sampler.Dataset.subset") / n_cal, "s"),
        "sampler.subset_calls": (calls("sampler.Dataset.subset") / n_cal, "count"),
        "recon_avg.estimate_s": (total(*_ESTIMATORS) / n_cal, "s"),
        "recon_avg.estimate_calls": (calls(*_ESTIMATORS) / n_cal, "count"),
        "recon_avg.recover_s": (total("recon_avg.recover_povm") / n_cal, "s"),
        "recon_ml.build_s": (total(*_BUILDERS) / n_cal, "s"),
        "recon_ml.build_calls": (calls(*_BUILDERS) / n_cal, "count"),
        "recon_ml.solve_s": (total("recon_ml.maximize") / n_cal, "s"),
        "recon_ml.solves": (len(solves) / n_cal, "count"),
        "recon_ml.cold_solve_s": (statistics.fmean(cold) if cold else 0.0, "s"),
        "recon_ml.warm_solve_s": (statistics.fmean(warm) if warm else 0.0, "s"),
        "recon_ml.transfer_init_s": (total("recon_ml.transfer_init") / n_cal, "s"),
        "recon_ml.iterations": (sum(s["iterations"] for s in solves) / n_cal, "count"),
        "recon_ml.evaluate_calls": (evaluate_calls / n_cal, "count"),
        "recon_ml.evaluate_ms": (1e3 * evaluate_s, "ms"),
        "recon_ml.evaluate_bytes": (sweep, "B"),
        "recon_ml.evaluate_gbps": (sweep / evaluate_s / 1e9 if evaluate_s else 0.0, "GB/s"),
        "recon_ml.kkt_gap": (max((s["kkt_gap"] for s in solves), default=0.0), "ratio"),
        "stats.bootstrap_s": (bootstrap_s / n_cal, "s"),
        "stats.reps": (reps / n_cal, "count"),
        "stats.rep_s": (bootstrap_s / reps if reps else 0.0, "s"),
        "stats.rep_failures": (sum(c.probe.rep_failures for c in cals) / n_cal, "count"),
        "cli.self_s": (cli_self_s / n_cal, "s"),
        "bench.trace_overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in figures.items()}


_ESTIMATORS = (
    "recon_avg.estimate_conditioned_finite",
    "recon_avg.estimate_conditioned_finite_exact",
    "recon_avg.estimate_conditioned_homodyne",
)
_BUILDERS = ("recon_ml.build_problem_diagonal", "recon_ml.build_problem_finite")
_DUALS = ("quorum.compute_dual_set", "quorum.noise_corrected_duals")


# --- a run ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run whole rounds of ``name`` for about ``seconds`` and return the result object.

    A new round starts only while the elapsed time plus one mean round
    stays within ``seconds``; the first round always runs.
    """
    workload = WORKLOADS[name]
    configs = workload.round(seed, smoke)
    out_root = RESULTS / "out" / name
    setup = [] if trace else setup_times(configs[0], 2 if smoke else SETUP_PROBES)

    tracer = Tracer() if trace else None
    timed: list[Calibration] = []
    traced: list[Calibration] = []
    first: dict[int, bytes] = {}
    problems: list[str] = []
    errors: list[str] = []
    attempted = 0
    rounds = 0
    start = clock()
    while True:
        for i, cfg in enumerate(configs):
            label = f"{cfg['name']} seed {cfg['seed']}"
            plan = [(timed, None, out_root / f"c{i}")]
            if trace:
                plan.append((traced, tracer, out_root / f"c{i}-traced"))
            for sink, trc, out_dir in plan:
                attempted += 1
                try:
                    cal = calibrate(cfg, out_dir, trc)
                except Exception as exc:  # a failed calibration is counted, not fatal
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                sink.append(cal)
                found = solve_problems(cal.probe)
                report = (out_dir / "report.json").read_bytes()
                if i not in first:
                    first[i] = report
                    parsed = json.loads(report)
                    found += report_problems(parsed) + workload.check(cfg, parsed)
                elif report != first[i]:
                    found.append("report.json differs between runs")
                problems += [f"{label}: {p}" for p in found]
        rounds += 1
        elapsed = clock() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    if workload.final_check is not None:
        problems += workload.final_check(configs[0], out_root / "exact")

    if trace:
        overhead = _median_seconds(traced) - _median_seconds(timed) if traced and timed else 0.0
        table = tracer.table()
        metrics = layer_metrics(table, traced, overhead) if traced else {}
    else:
        table = {}
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "calibration_s": {"value": _median_seconds(timed) if timed else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "rounds": rounds,
        "data_seeds": [cfg["seed"] for cfg in configs],
        "setup_s": setup,
        "calibration_s": [c.seconds for c in timed],
        "traced_calibration_s": [c.seconds for c in traced],
        "solves": [s for c in timed + traced for s in c.probe.solves],
        "problems": problems,
        "errors": errors,
        "spans": table,
        "result": result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, indent=1))
    return result


def _median_seconds(cals: list[Calibration]) -> float:
    return statistics.median(c.seconds for c in cals)
