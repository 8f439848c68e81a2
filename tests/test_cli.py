import json

import pytest

from povmcal.cli import RunReport, ScenarioConfig, emit_plot_data, main, run
from povmcal.errors import ScenarioAbort
from povmcal.scenarios import list_scenarios, scenario_config


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
            n_records=50_000,
            noise={"kind": "depolarizing", "p": 0.3},
        )
        report = run(cfg, tmp_path)
        coverage = report.reconstructions["averaging"]["coverage"]
        # noise-corrected duals keep the estimate consistent with the truth
        assert coverage["fraction_within_5"] >= 0.9

    def test_save_dataset_flag(self, tmp_path):
        cfg = small_sampled_config(save_dataset=True, strategy="averaging")
        report = run(cfg, tmp_path)
        assert (tmp_path / "dataset.csv").exists()
        assert (tmp_path / "dataset.json").exists()
        meta = json.loads((tmp_path / "dataset.json").read_text())
        assert meta["n_records"] == 4000

    @pytest.mark.properties
    @pytest.mark.parametrize(
        "strategy, files",
        [
            ("averaging", ["averaging_reconstruction.csv"]),
            ("both", ["averaging_reconstruction.csv", "ml_reconstruction.csv", "ml_result.json"]),
        ],
        ids=["averaging", "both"],
    )
    def test_byte_identical_reruns(self, tmp_path, strategy, files):
        cfg = small_sampled_config(strategy=strategy)
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
        assert (tmp_path / "kernels.csv").exists()


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
        out = tmp_path / "kernels.csv"
        code = main(
            ["export-kernels", "--eta-h", "0.9", "--fock-cutoff", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,K_0,K_1,K_2,K_3"

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
