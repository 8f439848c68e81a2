import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import povmcal
from povmcal import recon_ml, sampler
from povmcal.cli import (
    RunReport,
    ScenarioConfig,
    build_detector,
    build_quorum,
    build_state,
    emit_plot_data,
    main,
    run,
    write_kernels_csv,
)
from povmcal.errors import ScenarioAbort
from povmcal.scenarios import list_scenarios, scenario_config

from oracles import former_export_csv, former_export_json, former_export_sidecar


def small_sampled_config(**overrides):
    cfg = scenario_config("qubit-sampled")
    cfg["n_records"] = 4000
    cfg["bootstrap_reps"] = 8
    cfg.update(overrides)
    return ScenarioConfig.from_dict(cfg)


class TestScenarioConfig:
    def test_round_trip(self):
        cfg = ScenarioConfig.from_dict(scenario_config("fig2"))
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        payload = scenario_config("fig2")
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig.from_dict(payload)

    def test_missing_keys_named(self):
        payload = scenario_config("fig2")
        del payload["seed"], payload["quorum"]
        with pytest.raises(ValueError, match=r"missing config keys: \['seed', 'quorum'\]"):
            ScenarioConfig.from_dict(payload)

    def test_unknown_ml_key_rejected(self):
        payload = scenario_config("fig4")
        payload["ml"]["max_iter"] = 100
        with pytest.raises(ValueError, match="max_iter"):
            ScenarioConfig.from_dict(payload)

    def test_ml_needs_bootstrap(self):
        payload = scenario_config("fig4")
        payload["bootstrap_reps"] = 0
        with pytest.raises(ValueError, match="bootstrap"):
            ScenarioConfig.from_dict(payload)

    def test_averaging_rejects_bootstrap_reps(self):
        # averaging bars are analytic, so a repetition count would be ignored
        payload = scenario_config("qubit-sampled")
        payload.update(strategy="averaging", bootstrap_reps=30)
        with pytest.raises(ValueError, match="bootstrap_reps"):
            ScenarioConfig.from_dict(payload)
        payload["bootstrap_reps"] = 0
        assert ScenarioConfig.from_dict(payload).bootstrap_reps == 0

    def test_ml_needs_samples(self):
        payload = scenario_config("fig4")
        payload["exact_probabilities"] = True
        with pytest.raises(ValueError, match="sampled"):
            ScenarioConfig.from_dict(payload)

    def test_strategy_validation(self):
        payload = scenario_config("fig2")
        payload["strategy"] = "magic"
        with pytest.raises(ValueError, match="strategy"):
            ScenarioConfig.from_dict(payload)

    def test_exact_mode_rejects_homodyne_quorum_at_config(self):
        payload = scenario_config("fig2")
        payload["exact_probabilities"] = True
        with pytest.raises(ValueError, match="finite quorum"):
            ScenarioConfig.from_dict(payload)

    def test_noise_rejects_homodyne_quorum(self):
        payload = scenario_config("fig2")
        payload["noise"] = {"kind": "depolarizing", "p": 0.1}
        with pytest.raises(ValueError, match="noise"):
            ScenarioConfig.from_dict(payload)

    def test_display_cutoff_rejects_finite_quorum(self):
        payload = scenario_config("qubit-sampled")
        payload["display_cutoff"] = 1
        with pytest.raises(ValueError, match="display_cutoff"):
            ScenarioConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "scenario, block, key, value, message",
        [
            ("qubit-sampled", None, "seed", True, "seed must be int, not True"),
            ("qubit-sampled", None, "n_records", 1.5, "n_records must be int, not 1.5"),
            ("qubit-sampled", None, "bootstrap_reps", False, "bootstrap_reps must be int"),
            ("qubit-sampled", "state", "d", "2", "state.d must be int, not '2'"),
            ("qubit-sampled", "detector", "seed", 7.0, "detector.seed must be int, not 7.0"),
            ("fig4", "ml", "fock_cutoff", True, "ml.fock_cutoff must be int, not True"),
            ("fig2", "detector", "eta", 0.8, "unknown detector keys for kind 'noisy_photocounter'"),
            ("qubit-sampled", "ml", "fock_cutoff", 5, "ml.fock_cutoff applies to a homodyne"),
            ("qubit-sampled", "detector", "seed", -1, "detector.seed must be nonnegative, not -1"),
            ("qutrit-oracle", "quorum", "seed", -1, "quorum.seed must be nonnegative, not -1"),
            ("fig2", "quorum", "fock_cutoff", -1, "quorum.fock_cutoff must be nonnegative, not -1"),
            ("qubit-sampled", None, "svd_tolerance", -1e-10, "svd_tolerance must be nonnegative"),
        ],
    )
    def test_rejected_values(self, scenario, block, key, value, message):
        payload = scenario_config(scenario)
        (payload if block is None else payload[block])[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig.from_dict(payload)

    def test_exact_mode_needs_finite_quorum(self, tmp_path):
        payload = scenario_config("fig2")
        payload["exact_probabilities"] = True
        with pytest.raises(ValueError, match="finite quorum"):
            run(ScenarioConfig.from_dict(payload), tmp_path)


class TestRun:
    def test_qubit_oracle_exact(self, tmp_path):
        report = run(ScenarioConfig.from_dict(scenario_config("qubit-oracle")), tmp_path)
        assert report.passed
        assert report.checks["oracle_error_ok"]
        coverage = report.reconstructions["averaging"]["coverage"]
        assert coverage["max_abs_error"] < 1e-8
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "config.json").exists()

    def test_qutrit_oracle_exact(self, tmp_path):
        report = run(ScenarioConfig.from_dict(scenario_config("qutrit-oracle")), tmp_path)
        assert report.checks["oracle_error_ok"]

    def test_sampled_both_strategies(self, tmp_path):
        report = run(small_sampled_config(), tmp_path)
        assert report.passed
        assert set(report.reconstructions) == {"averaging", "ml"}
        for recon in report.reconstructions.values():
            for entry in recon["entries"]:
                if "theory_re" in entry:
                    assert "z" in entry
        assert (tmp_path / "averaging_reconstruction.csv").exists()
        assert (tmp_path / "ml_reconstruction.csv").exists()
        ml = report.reconstructions["ml"]
        assert report.checks["ml_certified"] and ml["converged"]
        assert 0.0 <= ml["ll_gap"] <= 0.1
        assert ml["bootstrap"]["uncertified_repetitions"] == 0
        result = json.loads((tmp_path / "ml_result.json").read_text())
        assert result["ll_gap"] == ml["ll_gap"]

    def test_abort_on_unfaithful_twin_beam(self, tmp_path):
        cfg = scenario_config("fig2")
        cfg["state"]["xi"] = 0.0
        cfg["state"]["fock_cutoff"] = 12
        with pytest.raises(ScenarioAbort, match="condition number"):
            run(ScenarioConfig.from_dict(cfg), tmp_path)

    def test_abort_on_product_state(self, tmp_path):
        cfg = scenario_config("qubit-oracle")
        cfg["state"] = {"kind": "product_mixed", "dim_system": 2, "dim_tomo": 2}
        with pytest.raises(ScenarioAbort, match="condition number"):
            run(ScenarioConfig.from_dict(cfg), tmp_path)

    def test_noisy_tomographer_with_correction(self, tmp_path):
        cfg = small_sampled_config(
            strategy="averaging",
            bootstrap_reps=0,
            n_records=50_000,
            noise={"kind": "depolarizing", "p": 0.3},
        )
        report = run(cfg, tmp_path)
        coverage = report.reconstructions["averaging"]["coverage"]
        # noise-corrected duals keep the estimate consistent with the truth
        assert coverage["fraction_within_5"] >= 0.9

    def test_save_dataset_flag(self, tmp_path):
        cfg = small_sampled_config(save_dataset=True, strategy="averaging", bootstrap_reps=0)
        report = run(cfg, tmp_path)
        assert (tmp_path / "dataset.csv").exists()
        meta = json.loads((tmp_path / "dataset.json").read_text())
        assert meta["n_records"] == 4000 and meta["seed"] == cfg.seed
        assert meta["scenario_id"] == "qubit-sampled" and meta["kind"] == "finite"
        assert meta["parameters"] == {"scenario": "qubit-sampled"}
        assert meta["counts_by_n"] == report.dataset_summary["counts_by_n"]

    @pytest.mark.parametrize("scenario", ["qubit-sampled", "fig4"])
    def test_files_match_former_writers(self, tmp_path, scenario):
        # the dataset and ML files keep the bytes of the writers that the
        # sampler and ML modules had
        cfg = scenario_config(scenario)
        cfg.update(n_records=5000, bootstrap_reps=2, save_dataset=True)
        if scenario == "fig4":
            cfg["state"].update(xi=0.6, fock_cutoff=20)
            cfg["ml"]["fock_cutoff"] = 14
        run(ScenarioConfig.from_dict(cfg), tmp_path / "run")

        state = build_state(cfg["state"])
        povm = build_detector(cfg["detector"], state)
        tomographer = build_quorum(cfg["quorum"], state.dim_tomo)
        args = (state, povm, tomographer, cfg["n_records"], cfg["seed"], cfg["name"])
        if scenario == "fig4":
            data = sampler.sample_homodyne_twinbeam(*args)
            problem = recon_ml.build_problem_diagonal(data, state, tomographer, 14)
        else:
            data = sampler.sample_finite(*args)
            problem = recon_ml.build_problem_finite(data, state, tomographer)
        former = tmp_path / "former"
        former.mkdir()
        former_export_csv(data, former / "dataset.csv")
        former_export_sidecar(data, former / "dataset.json", {"scenario": cfg["name"]})
        former_export_json(recon_ml.maximize(problem), former / "ml_result.json")
        for name in ("dataset.csv", "dataset.json", "ml_result.json"):
            assert (tmp_path / "run" / name).read_bytes() == (former / name).read_bytes(), name

    @pytest.mark.properties
    @pytest.mark.parametrize(
        "strategy, reps, files",
        [
            ("averaging", 0, ["averaging_reconstruction.csv"]),
            (
                "both",
                8,
                ["averaging_reconstruction.csv", "ml_reconstruction.csv", "ml_result.json"],
            ),
        ],
        ids=["averaging", "both"],
    )
    def test_byte_identical_reruns(self, tmp_path, strategy, reps, files):
        cfg = small_sampled_config(strategy=strategy, bootstrap_reps=reps)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ["report.json", "config.json", *files]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        a_plots = sorted(p.name for p in (tmp_path / "a" / "plots").iterdir())
        for name in a_plots:
            assert (tmp_path / "a" / "plots" / name).read_bytes() == (
                tmp_path / "b" / "plots" / name
            ).read_bytes()

    def test_homodyne_both_strategies(self, tmp_path):
        cfg = scenario_config("fig4")
        cfg.update(n_records=20_000, strategy="both", bootstrap_reps=2)
        cfg["state"].update(xi=0.6, fock_cutoff=20)
        cfg["ml"]["fock_cutoff"] = 14
        report = run(ScenarioConfig.from_dict(cfg), tmp_path)
        assert set(report.reconstructions) == {"averaging", "ml"}
        for check in ("clipping_ok", "ml_monotone", "ml_constraints", "ml_certified",
                      "bootstrap_failures_ok"):
            assert check in report.checks, check
        for label in ("averaging", "ml"):
            header = (tmp_path / f"{label}_reconstruction.csv").read_text().splitlines()[0]
            assert header == "n,m,value,stderr,theory"
            assert (tmp_path / "plots" / f"{label}_k0.csv").exists()
            assert (tmp_path / "plots" / f"{label}_k7.csv").exists()

    def test_fig2_small_has_eight_display_plot_files(self, tmp_path):
        cfg = scenario_config("fig2")
        cfg["n_records"] = 5000
        run(ScenarioConfig.from_dict(cfg), tmp_path)
        plots = sorted(p.name for p in (tmp_path / "plots").iterdir())
        assert [f"averaging_k{k}.csv" for k in range(8)] == plots
        header = (tmp_path / "plots" / "averaging_k0.csv").read_text().splitlines()[0]
        assert header == "n,estimate,stderr,theory"
        # the kernel table is an input of the run, written only by export-kernels
        assert not (tmp_path / "kernels.csv").exists()


def test_runtime_imports_no_scipy(tmp_path):
    # in a fresh interpreter: this process has SciPy loaded through the oracles
    script = f"""
import sys
from povmcal import cli
from povmcal.scenarios import scenario_config
fig2 = scenario_config("fig2")
fig2["n_records"] = 2000
cli.run(cli.ScenarioConfig.from_dict(fig2), {str(tmp_path / "fig2")!r})
qubit = scenario_config("qubit-sampled")
cli.run(cli.ScenarioConfig.from_dict(qubit), {str(tmp_path / "qubit")!r})
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    paths = [str(Path(povmcal.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "fig2" / "report.json").exists()
    assert (tmp_path / "qubit" / "report.json").exists()


class TestEmitPlotData:
    def test_empty_reconstruction_writes_note(self, tmp_path):
        report = RunReport(
            config={},
            faithfulness={},
            dataset_summary={},
            reconstructions={"averaging": {"entries": []}},
            checks={},
            timing={},
        )
        written = emit_plot_data(report, tmp_path)
        assert len(written) == 1
        assert written[0].name == "averaging_empty.txt"
        assert "no outcomes" in written[0].read_text()


class TestMainCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list_scenarios()

    def test_print_defaults_round_trip(self, capsys):
        assert main(["print-defaults", "--scenario", "fig4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cfg = ScenarioConfig.from_dict(payload)
        assert cfg.name == "fig4"
        assert cfg.bootstrap_reps == 50

    def test_export_kernels(self, tmp_path, capsys):
        cfg = scenario_config("fig2")
        cfg["quorum"].update(fock_cutoff=3, unbias_cutoff=None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "kernels.csv"
        assert main(["export-kernels", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "x,K_0,K_1,K_2,K_3"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_export_kernels_writes_the_configured_grid(self, tmp_path):
        cfg = scenario_config("fig4")
        cfg["quorum"].update(fock_cutoff=6, unbias_cutoff=None, grid=[-6.0, 6.0, 1.0 / 256.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["export-kernels", str(path), "--out", str(tmp_path / "cli.csv")]) == 0
        table = build_quorum(cfg["quorum"], build_state(cfg["state"]).dim_tomo).kernel_table
        assert table.values.shape == (7, 3073)
        write_kernels_csv(table, tmp_path / "direct.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_export_kernels_rejects_finite_quorum(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        assert main(["export-kernels", "qubit-sampled", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: kernels need a homodyne quorum")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "export-kernels"])
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("unknown key", "unknown config keys: ['bogus']"),
            ("missing key", "missing config keys: ['n_records']"),
            ("bad strategy", "unknown strategy 'magic'"),
            ("unknown builtin", "unknown scenario 'fig9'"),
            ("malformed JSON", "is not valid JSON"),
            ("output_dir", "unknown config keys: ['output_dir']"),
            ("ml.max_iters", "unknown ml keys: ['max_iters']"),
            ("state without d", "state of kind 'maximally_entangled' is missing keys: ['d']"),
            ("quorum without kind", "quorum kind must be one of"),
            ("string seed", "seed must be int, not '7'"),
            ("state.d 1", "d must be at least 2"),
            ("state.fock_cutoff 0", "fock_cutoff must be positive"),
            ("unbias_cutoff below fock_cutoff", "unbias_cutoff must be at least fock_cutoff"),
            ("two-number grid", "grid must be [x_min < x_max, step > 0], not [-8.0, 8.0]"),
            ("display_cutoff -1", "display_cutoff must be nonnegative"),
            ("max_condition_number -1", "max_condition_number must be at least 1"),
        ],
    )
    def test_rejected_config_exit_code(self, tmp_path, capsys, command, fault, message):
        cfg = scenario_config("fig2")
        if fault == "unknown key":
            cfg["bogus"] = 1
        elif fault == "missing key":
            del cfg["n_records"]
        elif fault == "bad strategy":
            cfg["strategy"] = "magic"
        elif fault == "output_dir":
            cfg["output_dir"] = str(tmp_path / "out")
        elif fault == "ml.max_iters":
            cfg["ml"]["max_iters"] = 20000
        elif fault == "state without d":
            cfg["state"] = {"kind": "maximally_entangled"}
        elif fault == "quorum without kind":
            del cfg["quorum"]["kind"]
        elif fault == "string seed":
            cfg["seed"] = "7"
        elif fault == "state.d 1":
            cfg["state"] = {"kind": "maximally_entangled", "d": 1}
        elif fault == "state.fock_cutoff 0":
            cfg["state"]["fock_cutoff"] = 0
        elif fault == "unbias_cutoff below fock_cutoff":
            cfg["quorum"]["unbias_cutoff"] = cfg["quorum"]["fock_cutoff"] - 1
        elif fault == "two-number grid":
            cfg["quorum"]["grid"] = [-8.0, 8.0]
        elif fault == "display_cutoff -1":
            cfg["display_cutoff"] = -1
        elif fault == "max_condition_number -1":
            cfg["max_condition_number"] = -1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg)[:-1] if fault == "malformed JSON" else json.dumps(cfg))
        source = "fig9" if fault == "unknown builtin" else str(path)
        out = str(tmp_path / "out")
        assert main([command, source, "--output-dir" if command == "run" else "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, block, key, value, message",
        [
            ("fig2", "detector", "eta_p", 1.5, "eta_p must lie in (0, 1]"),
            ("fig2", "detector", "nu", -1, "nu must be nonnegative"),
            ("qubit-sampled", "detector", "n_outcomes", 0, "n_outcomes must be at least 1"),
            ("qubit-sampled", "noise", "p", 2.0, "depolarizing p must lie in [0, 1]"),
            ("qutrit-oracle", "quorum", "n_settings", 0, "a quorum needs at least one setting"),
            ("qubit-sampled", "detector", "seed", -1, "detector.seed must be nonnegative"),
            ("qutrit-oracle", "quorum", "seed", -1, "quorum.seed must be nonnegative"),
            ("fig2", "quorum", "fock_cutoff", -1, "quorum.fock_cutoff must be nonnegative"),
            ("qubit-sampled", None, "svd_tolerance", -1e-10, "svd_tolerance must be nonnegative"),
        ],
    )
    def test_out_of_range_value_exit_code(
        self, tmp_path, capsys, scenario, block, key, value, message
    ):
        # values that a run builds (the detector, the noise and the bases)
        # and values the config rejects on load
        cfg = scenario_config(scenario)
        if block == "noise":
            cfg["noise"] = {"kind": "depolarizing"}
        (cfg if block is None else cfg[block])[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_ml_cutoff_above_state_cutoff_exit_code(self, tmp_path, capsys):
        cfg = scenario_config("fig4")
        cfg.update(n_records=2000, bootstrap_reps=2)
        cfg["state"].update(xi=0.6, fock_cutoff=20)
        cfg["ml"]["fock_cutoff"] = 24
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ML cutoff 24 exceeds the state's Fock cutoff 20")

    def test_run_builtin_with_overrides(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "qubit-oracle",
                "--output-dir",
                str(tmp_path),
                "--seed",
                "77",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["seed"] == 77

    def test_run_config_file(self, tmp_path):
        cfg = scenario_config("qubit-oracle")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0

    def test_abort_exit_code(self, tmp_path, capsys):
        cfg = scenario_config("fig2")
        cfg["state"]["xi"] = 0.0
        cfg["state"]["fock_cutoff"] = 12
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "condition number" in capsys.readouterr().err
