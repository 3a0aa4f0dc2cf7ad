import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import caslab
import numpy as np
from caslab.cli import main
from caslab.config import DEFAULT_CONFIG, dump_config, load_config
from caslab.core import ADVISORIES
from caslab.encounters import (
    default_structure,
    default_uncorrelated_model,
    read_model_file,
    toy_two_bin_model,
    write_model_file,
)
from caslab.evaluation import Equipage, cross_entropy_adapt
from caslab.tablefile import read_table


def small_grid_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "grid": {
            "h_cuts": [-1000.0, -100.0, 0.0, 100.0, 1000.0],
            "hdot_cuts": [-25.0, 0.0, 25.0],
            "tau_max": 4,
        },
        "evaluation": {"n": 40, "equipage": ["none", "none"], "compare_unequipped": False},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestOptimizeAndSlice:
    def test_pipeline_writes_table_and_slice(self, tmp_path):
        cfg = small_grid_config(tmp_path)
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        table_path = out / "table.acxt"
        assert table_path.exists()
        table = read_table(table_path)
        assert table.grid.tau_max == 4

        cfg2 = small_grid_config(
            tmp_path, paths={"table_file": str(table_path)},
        )
        out2 = tmp_path / "sliced"
        assert main(["slice", "--config", str(cfg2), "--out", str(out2)]) == 0
        with open(out2 / "slice.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["h"] + [f"tau_{t}" for t in range(5)]
        assert len(rows) == 1 + 5  # header + one row per h cut
        names = {a.value for a in ADVISORIES}
        for row in rows[1:]:
            assert all(cell in names for cell in row[1:])

    def test_zero_reward_slice_is_all_coc(self, tmp_path):
        # frozen golden: a zero reward field makes every argmax COC
        cfg = small_grid_config(
            tmp_path,
            rewards={
                "collision_cost": 0.0, "alert_cost": 0.0,
                "strengthen_cost": 0.0, "reversal_cost": 0.0,
            },
        )
        out = tmp_path / "run"
        main(["optimize", "--config", str(cfg), "--out", str(out)])
        cfg2 = small_grid_config(tmp_path, paths={"table_file": str(out / "table.acxt")})
        main(["slice", "--config", str(cfg2), "--out", str(out)])
        with open(out / "slice.csv") as f:
            rows = list(csv.reader(f))
        assert all(cell == "COC" for row in rows[1:] for cell in row[1:])

    def test_optimize_deterministic_bytes(self, tmp_path):
        cfg = small_grid_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", str(cfg), "--out", str(out1)])
        main(["optimize", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "table.acxt").read_bytes() == (out2 / "table.acxt").read_bytes()


class TestEvaluate:
    def test_deterministic_reports(self, tmp_path):
        cfg = small_grid_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["evaluate", "--config", str(cfg), "--seed", "9", "--out", str(out1)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--seed", "9", "--out", str(out2)]) == 0
        assert (out1 / "metrics.json").read_text() == (out2 / "metrics.json").read_text()

    def test_seed_required(self, tmp_path, capsys):
        cfg = small_grid_config(tmp_path)
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_SEED_REQUIRED:")

    def test_per_encounter_csv(self, tmp_path):
        cfg = small_grid_config(
            tmp_path,
            evaluation={
                "n": 20, "equipage": ["none", "none"],
                "compare_unequipped": False, "per_encounter_csv": True,
            },
        )
        out = tmp_path / "pe"
        assert main(["evaluate", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
        with open(out / "per_encounter.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 21
        assert rows[0][0] == "index"
        # the rows are the outcomes metrics.json was computed from
        p_nmac = json.loads((out / "metrics.json").read_text())["p_nmac"]
        assert sum(int(r[1]) for r in rows[1:]) / 20 == p_nmac

    def test_weighted_rate_above_one_is_reported(self, tmp_path):
        # TCAS alerts on every toy encounter and a non-conflict draw weighs
        # 0.95 / 0.5 = 1.9, so the unnormalized IS alert rate sum(w * alert) / n
        # exceeds 1 when most draws miss the conflict bin, as at this seed.
        write_model_file(toy_two_bin_model(0.05), tmp_path / "nominal.json")
        write_model_file(toy_two_bin_model(0.5), tmp_path / "proposal.json")
        cfg = small_grid_config(
            tmp_path,
            paths={"model_file": str(tmp_path / "nominal.json"),
                   "proposal_file": str(tmp_path / "proposal.json")},
            evaluation={"n": 10, "equipage": ["tcas", "none"], "per_encounter_csv": True},
        )
        out = tmp_path / "is"
        assert main(["evaluate", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        m = json.loads((out / "metrics.json").read_text())
        assert m["alert_rate"] > 1.0
        with open(out / "per_encounter.csv") as f:
            assert len(list(csv.reader(f))) == 11

    def test_zero_weights_leave_stderr_empty(self, tmp_path):
        # This CE proposal leaves the nominal's support on some draws: their
        # IS weight is 0 (log_weight -inf in per_encounter.csv), and the run
        # must not print anything beside its outputs.
        nominal = default_uncorrelated_model()
        proposal = cross_entropy_adapt(
            nominal, nominal, Equipage(own="tcas", intruder="none"), 2, 150, 0.3, seed=1
        )
        write_model_file(proposal, tmp_path / "proposal.json")
        cfg = small_grid_config(
            tmp_path,
            paths={"proposal_file": str(tmp_path / "proposal.json")},
            encounter={"mode": "uncorrelated"},
            evaluation={"n": 200, "equipage": ["none", "none"], "per_encounter_csv": True},
        )
        out = tmp_path / "is"
        env = dict(os.environ)
        src = str(Path(caslab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "caslab", "evaluate", "--config", str(cfg),
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        with open(out / "per_encounter.csv") as f:
            log_weights = [float(r["log_weight"]) for r in csv.DictReader(f)]
        assert len(log_weights) == 200
        assert "-inf" in {repr(w) for w in log_weights}


class TestErrors:
    def test_missing_table_path(self, tmp_path, capsys):
        cfg = small_grid_config(tmp_path)
        code = main(["slice", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_TABLE_NOT_FOUND:")
        assert "\n" not in err.strip()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["optimize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_CONFIG_NOT_FOUND:")

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "grids": {}}))
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_CONFIG_INVALID:")

    def test_table_equipage_without_table(self, tmp_path, capsys):
        cfg = small_grid_config(
            tmp_path,
            evaluation={"n": 5, "equipage": ["table", "none"], "compare_unequipped": False},
        )
        code = main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_TABLE_NOT_FOUND:")


class TestConfigRoundTrip:
    def test_effective_config_reloads_identically(self, tmp_path):
        cfg = small_grid_config(tmp_path)
        out = tmp_path / "run"
        main(["evaluate", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        effective = load_config(out / "effective_config.json")
        assert dump_config(effective) == (out / "effective_config.json").read_text()

    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "defaults.json"
        path.write_text(dump_config(DEFAULT_CONFIG))
        assert load_config(path) == DEFAULT_CONFIG


class TestFitAndSample:
    def test_fit_writes_loadable_model(self, tmp_path):
        initial_s, transition_s = default_structure()
        rng = np.random.default_rng(0)
        init_csv = tmp_path / "init.csv"
        with open(init_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(initial_s.nodes)
            for _ in range(200):
                writer.writerow(
                    [rng.integers(initial_s.n_bins(i)) for i in range(len(initial_s.nodes))]
                )
        trans_csv = tmp_path / "trans.csv"
        with open(trans_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(transition_s.nodes)
            for _ in range(200):
                writer.writerow(
                    [rng.integers(transition_s.n_bins(i)) for i in range(len(transition_s.nodes))]
                )
        cfg = small_grid_config(
            tmp_path,
            paths={
                "initial_samples_csv": str(init_csv),
                "transition_samples_csv": str(trans_csv),
            },
        )
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        model = read_model_file(out / "model.json")
        assert model.initial_net.is_fitted
        for t in model.initial_net.cpt:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_fit_missing_samples(self, tmp_path, capsys):
        cfg = small_grid_config(tmp_path)
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_SAMPLES_NOT_FOUND:")

    def test_sample_writes_traces(self, tmp_path):
        cfg = small_grid_config(tmp_path, sample={"count": 3})
        out = tmp_path / "samples"
        assert main(["sample", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        files = sorted(out.glob("encounter_*.csv"))
        assert len(files) == 3
        from caslab.core import read_trace_csv
        trace = read_trace_csv(files[0])
        assert len(trace) == 51  # 50 steps + terminal sample

    def test_simulate_writes_trace(self, tmp_path):
        cfg = small_grid_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()


class TestImportanceSampledEvaluate:
    def test_proposal_file_switches_to_is(self, tmp_path):
        from caslab.encounters import toy_two_bin_model, write_model_file

        nominal_path = tmp_path / "nominal.json"
        proposal_path = tmp_path / "proposal.json"
        write_model_file(toy_two_bin_model(p_conflict=0.05), nominal_path)
        write_model_file(toy_two_bin_model(p_conflict=0.5), proposal_path)
        cfg = small_grid_config(
            tmp_path,
            paths={"model_file": str(nominal_path), "proposal_file": str(proposal_path)},
            evaluation={"n": 400, "equipage": ["none", "none"], "compare_unequipped": False},
        )
        out = tmp_path / "is"
        assert main(["evaluate", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["effective_sample_size"] < 400.0
        assert abs(metrics["p_nmac"] - 0.05) <= 4 * metrics["p_nmac_se"]


class TestFullPipeline:
    def test_fit_sample_optimize_simulate_evaluate_slice(self, tmp_path):
        from caslab.encounters import default_structure

        initial_s, transition_s = default_structure()
        rng = np.random.default_rng(1)
        for name, struct in (("init.csv", initial_s), ("trans.csv", transition_s)):
            with open(tmp_path / name, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(struct.nodes)
                for _ in range(300):
                    writer.writerow(
                        [rng.integers(struct.n_bins(i)) for i in range(len(struct.nodes))]
                    )
        out = tmp_path / "run"
        cfg_fit = small_grid_config(
            tmp_path,
            paths={
                "initial_samples_csv": str(tmp_path / "init.csv"),
                "transition_samples_csv": str(tmp_path / "trans.csv"),
            },
        )
        assert main(["fit", "--config", str(cfg_fit), "--out", str(out)]) == 0
        assert main(["optimize", "--config", str(cfg_fit), "--out", str(out)]) == 0

        cfg_run = small_grid_config(
            tmp_path,
            paths={
                "model_file": str(out / "model.json"),
                "table_file": str(out / "table.acxt"),
            },
            evaluation={"n": 30, "equipage": ["table", "none"], "compare_unequipped": True},
        )
        assert main(["sample", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["slice", "--config", str(cfg_run), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n"] == 30
        assert (out / "slice.csv").exists()
        assert (out / "effective_config.json").exists()
