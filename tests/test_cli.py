import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import caslab
import numpy as np
import pytest
from caslab.config import (
    DEFAULT_CONFIG, NULLABLE_TYPES, ConfigError, check_config, dump_config, load_config,
)
from caslab.core import ADVISORIES, TRACE_CSV_HEADER, Advisory
from caslab.encounters import (
    EncounterModel,
    default_correlated_model,
    default_structure,
    default_uncorrelated_model,
    model_to_dict,
    read_model_file,
    toy_two_bin_model,
    write_model_file,
)
from caslab.cli import _metrics_json, _write_outcomes, main
from caslab.evaluation import OUTCOME, Equipage, cross_entropy_adapt, run_indexed_traces
from caslab.tablefile import FORMAT_VERSION, MAGIC, read_table, write_table
from conftest import ACXT_COST_BYTES, acxt_header_bytes, event_labels, full_values
from test_tablefile import MIRROR_BREAKS


def small_grid_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "grid": {
            "h_cuts": [-1000.0, -100.0, 0.0, 100.0, 1000.0],
            "hdot_cuts": [-25.0, 0.0, 25.0],
            "tau_max": 4,
        },
        "evaluation": {"n": 40, "equipage": ["none", "none"]},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_python(args, timeout=120):
    """Run this interpreter on args with caslab's source on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(caslab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


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

    def test_per_encounter_csv(self, small_table, tmp_path):
        # Each file is read as the benchmark's eval check reads it: a
        # csv.DictReader over a header on line 1, indicators parsed by int().
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        runs = {
            "none": ({"equipage": ["none", "none"]}, ["nmac"]),
            "table": ({"equipage": ["table", "none"]}, ["nmac", "baseline_nmac"]),
        }
        for name, (evaluation, indicators) in runs.items():
            cfg = small_grid_config(tmp_path, paths={"table_file": str(table)},
                                    evaluation={"n": 20, "per_encounter_csv": True, **evaluation})
            out = tmp_path / name
            assert main(["evaluate", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
            text = (out / "per_encounter.csv").read_text()
            assert text.startswith("index,nmac,alert,strengthen,reversal,crossing,severity,log_weight")
            with open(out / "per_encounter.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            assert len(rows) == 20
            assert [r["index"] for r in rows] == [str(i) for i in range(20)]
            assert ("baseline_nmac" in rows[0]) == (name == "table")
            for key in indicators:
                assert {r[key] for r in rows} <= {"0", "1"}, (name, key)
            # the rows are the outcomes metrics.json was computed from
            m = json.loads((out / "metrics.json").read_text())
            assert sum(int(r["nmac"]) for r in rows) / 20 == m["p_nmac"]
            if name == "table":
                assert sum(int(r["baseline_nmac"]) for r in rows) / 20 == m["baseline_p_nmac"]

    def test_zero_nmac_runs_report_bounds(self, tmp_path):
        # a toy model with no conflict: neither TCAS nor the unequipped
        # baseline sees an NMAC, so each reports its one-sided bound instead
        # of an SE, and the omitted risk ratio says why
        write_model_file(toy_two_bin_model(1e-6), tmp_path / "model.json")
        cfg = small_grid_config(
            tmp_path, paths={"model_file": str(tmp_path / "model.json")},
            evaluation={"n": 60, "equipage": ["tcas", "none"]},
        )
        out = tmp_path / "zero"
        assert main(["evaluate", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        m = json.loads((out / "metrics.json").read_text())
        bound = 1.0 - 0.05 ** (1.0 / 60)
        assert m["p_nmac"] == m["baseline_p_nmac"] == 0.0
        assert m["p_nmac_se"] is None and m["baseline_p_nmac_se"] is None
        assert m["p_nmac_upper95"] == m["baseline_p_nmac_upper95"] == bound
        assert "risk_ratio" not in m
        assert m["risk_ratio_omitted"] == "the unequipped baseline saw no NMAC"

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
        proc = run_python(
            ["-m", "caslab", "evaluate", "--config", str(cfg), "--seed", "1", "--out", str(out)],
            timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        with open(out / "per_encounter.csv") as f:
            log_weights = [float(r["log_weight"]) for r in csv.DictReader(f)]
        assert len(log_weights) == 200
        assert "-inf" in {repr(w) for w in log_weights}


def model_without(name):
    """A toy model file's text with variable name dropped from both networks."""
    doc = model_to_dict(toy_two_bin_model())
    for net in (doc["initial_net"], doc["transition_net"]):
        i = net["nodes"].index(name)
        for key in ("nodes", "parents", "bins"):
            del net[key][i]
        if i < net["given"]:
            net["given"] -= 1
        else:
            del net["cpt"][i - net["given"]]
    return json.dumps(doc)


def schema_1_text():
    """The toy model as a schema 1 file: a CPT for every transition node."""
    doc = model_to_dict(toy_two_bin_model())
    initial, transition = doc["initial_net"], doc["transition_net"]
    n = transition.pop("given")
    del initial["given"]
    transition["parents"][:n] = initial["parents"]
    transition["cpt"][:0] = initial["cpt"]
    return json.dumps({**doc, "schema_version": 1})


def structure_text(fitted_initial=False):
    """The default structure as a model file, with or without initial CPTs."""
    initial, transition = default_structure()
    if fitted_initial:
        initial = default_correlated_model().initial_net
    return json.dumps(model_to_dict(EncounterModel(
        initial_net=initial, transition_net=transition, mode="correlated", duration=50.0, dt=1.0,
    )))


# the command that reads each model path, and model files it must refuse
MODEL_READERS = {
    "model_file": ["sample", "--seed", "1"],
    "proposal_file": ["evaluate", "--seed", "1"],
    "structure_file": ["fit"],
}
def model_with(**fields):
    """A toy model file's text with fields replaced."""
    return json.dumps({**model_to_dict(toy_two_bin_model()), **fields})


MALFORMED_MODELS = {
    "not_json": "not json",
    "no_networks": '{"schema_version": 2}',
    "not_an_object": "[1, 2]",
    "missing_required_variable": model_without("tau0"),
    # float() once read each of these: inf as a zero-step run (E_RUN_FAILED
    # in evaluate and sample), true as a 1 s step, "30" as 30 s
    "dt_is_a_string": model_with(dt="inf"),
    "dt_is_a_bool": model_with(dt=True),
    "duration_is_a_string": model_with(duration="30"),
}


def paths_config(**paths):
    return json.dumps({"schema_version": 1, "paths": paths}).encode()


# Inputs that once exited E_RUN_FAILED with Python's exception text: the
# code and a fragment of the one line each exits with now, and a function
# of a directory d and a file f of the bytes ff fe (not UTF-8) that gives
# the command's arguments and the bytes of its --config file, if any.
LEAKED_INPUTS = {
    "config_is_a_directory": ("E_CONFIG_NOT_FOUND", "config file is not a file",
                              lambda d, f: (["optimize", "--config", d], None)),
    "config_is_an_array": ("E_CONFIG_INVALID", "must be a JSON object, got an array",
                           lambda d, f: (["optimize"], b"[1, 2]")),
    "config_is_a_string": ("E_CONFIG_INVALID", "must be a JSON object, got a string",
                           lambda d, f: (["optimize"], b'"x"')),
    "config_is_not_utf8": ("E_CONFIG_INVALID", "config is not UTF-8 text",
                           lambda d, f: (["optimize", "--config", f], None)),
    "table_is_a_directory": ("E_TABLE_NOT_FOUND", "table file is not a file",
                             lambda d, f: (["slice"], paths_config(table_file=d))),
    "samples_are_a_directory": ("E_SAMPLES_NOT_FOUND", "binned-sample CSV is not a file",
                                lambda d, f: (["fit"], paths_config(initial_samples_csv=d))),
    "samples_are_not_utf8": ("E_SAMPLES_INVALID", "not UTF-8 text",
                             lambda d, f: (["fit"], paths_config(initial_samples_csv=f))),
    "model_is_not_utf8": ("E_MODEL_INVALID", "/f: not UTF-8 text",
                          lambda d, f: (["sample", "--seed", "1"], paths_config(model_file=f))),
    "structure_is_not_utf8": ("E_MODEL_INVALID", "/f: not UTF-8 text",
                              lambda d, f: (["fit"], paths_config(structure_file=f))),
    "out_is_a_file": ("E_CONFIG_INVALID", "--out must name a directory",
                      lambda d, f: (["slice", "--out", f], None)),
    "out_below_a_file": ("E_CONFIG_INVALID", "--out must name a directory",
                         lambda d, f: (["slice", "--out", os.path.join(f, "sub")], None)),
}


class TestErrors:
    @pytest.mark.parametrize("case", sorted(LEAKED_INPUTS))
    def test_input_exits_with_one_error_line(self, case, tmp_path, capsys):
        code, fragment, make = LEAKED_INPUTS[case]
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_bytes(b"\xff\xfe")
        args, config = make(str(tmp_path / "d"), str(tmp_path / "f"))
        argv = ["--out", str(tmp_path / "out")] + args
        if config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.match(r"E_[A-Z_]+: ", err) and err.count("\n") == 1
        assert err.startswith(f"{code}: ") and fragment in err and "Traceback" not in err

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
            evaluation={"n": 5, "equipage": ["table", "none"]},
        )
        code = main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_TABLE_NOT_FOUND:")

    @pytest.mark.parametrize("contents", sorted(MALFORMED_MODELS))
    @pytest.mark.parametrize("key", sorted(MODEL_READERS))
    def test_malformed_model_file(self, key, contents, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(MALFORMED_MODELS[contents])
        cfg = small_grid_config(tmp_path, paths={key: str(path)})
        assert main(MODEL_READERS[key] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_MODEL_INVALID: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", sorted(MODEL_READERS))
    def test_schema_1_model_file_refused(self, key, tmp_path, capsys):
        # schema 1 stored CPTs for the transition net's t slice, which
        # nothing draws or scores
        path = tmp_path / "model.json"
        path.write_text(schema_1_text())
        cfg = small_grid_config(tmp_path, paths={key: str(path)})
        assert main(MODEL_READERS[key] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"E_MODEL_INVALID: {path}: unsupported model schema version: 1 (expected 2)\n"
        )

    @pytest.mark.parametrize("fitted_initial", [False, True], ids=["structure", "transition"])
    @pytest.mark.parametrize("key, command", [
        ("model_file", ["sample", "--seed", "1"]),
        ("model_file", ["simulate", "--seed", "1"]),
        ("model_file", ["evaluate", "--seed", "1"]),
        ("proposal_file", ["evaluate", "--seed", "1"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_unfitted_model_file_refused(self, key, command, fitted_initial, tmp_path, capsys):
        # these once exited E_RUN_FAILED: network has no fitted CPTs
        path = tmp_path / "model.json"
        path.write_text(structure_text(fitted_initial))
        cfg = small_grid_config(tmp_path, paths={key: str(path)})
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        kind = key.replace("_", " ")
        assert capsys.readouterr().err == (
            f"E_MODEL_INVALID: {path}: {kind} has networks without fitted CPTs\n"
        )

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, workers, tmp_path, capsys):
        # these once ran serially and exited 0
        cfg = small_grid_config(tmp_path)
        argv = ["evaluate", "--seed", "1", "--workers", workers, "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"E_CONFIG_INVALID: --workers must be an integer >= 1, got {workers}\n"
        )

    def test_unsupported_schema_version(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 2}))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "E_CONFIG_INVALID: unsupported config schema version: 2\n"

    @pytest.mark.parametrize("key", sorted(MODEL_READERS))
    def test_missing_model_file(self, key, tmp_path, capsys):
        path = tmp_path / "absent.json"
        cfg = small_grid_config(tmp_path, paths={key: str(path)})
        assert main(MODEL_READERS[key] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"E_MODEL_NOT_FOUND: {key.replace('_', ' ')} not found: {path}\n"

    @pytest.mark.parametrize("key", sorted(MODEL_READERS))
    def test_model_path_names_a_directory(self, key, tmp_path, capsys):
        cfg = small_grid_config(tmp_path, paths={key: str(tmp_path)})
        assert main(MODEL_READERS[key] + ["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"E_MODEL_NOT_FOUND: {key.replace('_', ' ')} is not a file: {tmp_path}\n"

    @pytest.mark.parametrize("change, fragment", [
        ("bins", "proposal must share the nominal model bins"),
        ("duration", "proposal must share the nominal mode and run geometry"),
    ])
    def test_proposal_must_share_bins_and_run_geometry(self, change, fragment, tmp_path, capsys):
        # the config's nominal is the bundled correlated model at 50 s
        proposal = default_correlated_model(duration=60.0)
        if change == "bins":
            proposal = default_correlated_model()
            edges = (np.array([1000.0, 6000.0, 15000.0, 30000.0]),)
            proposal = dataclasses.replace(proposal, **{
                name: dataclasses.replace(net, bins=edges + net.bins[1:])
                for name, net in (("initial_net", proposal.initial_net),
                                  ("transition_net", proposal.transition_net))
            })
        path = tmp_path / "proposal.json"
        write_model_file(proposal, path)
        cfg = small_grid_config(tmp_path, paths={"proposal_file": str(path)})
        assert main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"E_MODEL_INVALID: {path}: {fragment}\n"

    @pytest.mark.parametrize("command", [["evaluate", "--seed", "1"], ["sample", "--seed", "1"],
                                         ["simulate", "--seed", "1"], ["fit"]],
                             ids=lambda command: command[0])
    def test_misspelled_encounter_mode(self, command, tmp_path, capsys):
        # evaluate and sample once flew the uncorrelated model and exited 0;
        # fit, given valid sample CSVs, once exited E_RUN_FAILED on a run
        # geometry that sample refused
        cfg = tmp_path / "config.json"
        paths = {key: str(path) for key, path in sample_csvs(tmp_path).items()}
        for encounter, detail in [
            ({"mode": "correlatd"}, "encounter.mode must be correlated or uncorrelated, got 'correlatd'"),
            ({"duration": 0.5}, "encounter.duration must be a whole number of 1.0 s steps, got 0.5"),
            ({"dt": -1}, "encounter.dt must be > 0, got -1.0"),
            # an infinite step count once exited E_RUN_FAILED from round(inf)
            ({"duration": 1e308, "dt": 1e-10},
             "encounter.duration must be a whole number of 1e-10 s steps, got 1e+308"),
        ]:
            cfg.write_text(json.dumps({"schema_version": 1, "encounter": encounter, "paths": paths,
                                       "evaluation": {"n": 64, "equipage": ["none", "none"]}}))
            assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"E_CONFIG_INVALID: {detail}\n"

    @pytest.mark.parametrize("source", ["config_dt_0.5", "config_dt_2.0", "model_dt_0.5"])
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_table_side_needs_a_one_second_step(self, command, source, small_table, tmp_path, capsys):
        # these once exited E_RUN_FAILED from the closed loop's own check
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        paths, dt = {"table_file": str(table)}, float(source.rsplit("_", 1)[1])
        encounter = {}
        if source.startswith("model"):
            model = paths["model_file"] = str(tmp_path / "model.json")
            write_model_file(default_correlated_model(dt=dt), model)
            expected = f"E_MODEL_INVALID: {model}: dt is {dt}, but table logic assumes a 1 s step\n"
        else:
            encounter["dt"] = dt
            expected = f"E_CONFIG_INVALID: encounter.dt must be 1 with a table side, got {dt}\n"
        cfg = small_grid_config(tmp_path, paths=paths, encounter=encounter,
                                evaluation={"n": 4, "equipage": ["none", "table"]})
        assert main([command, "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("key", ["hdot0", "hdot1"])
    def test_slice_rate_off_the_table_names_its_key(self, key, small_table, tmp_path, capsys):
        # this once exited E_CONFIG_INVALID: value 1.0 is not a grid cut point
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        assert 1.0 not in small_table.grid.hdot0_cuts
        cfg = small_grid_config(tmp_path, paths={"table_file": str(table)}, slice={key: 1.0})
        assert main(["slice", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"E_CONFIG_INVALID: slice.{key} must be a cut of the table's rate axis, got 1.0\n"
        )

    def test_proposal_must_match_the_nominal(self, tmp_path, capsys):
        # a valid model file, but not the nominal's network: IS weights would be meaningless
        write_model_file(toy_two_bin_model(0.05), tmp_path / "nominal.json")
        path = tmp_path / "proposal.json"
        write_model_file(default_uncorrelated_model(), path)
        cfg = small_grid_config(
            tmp_path, paths={"model_file": str(tmp_path / "nominal.json"), "proposal_file": str(path)},
        )
        assert main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"E_MODEL_INVALID: {path}: proposal must share the nominal model structure\n"


INVALID_CONFIGS = {
    # a belief is seven fixed sigma points; the particle count it replaced is gone
    "belief_particles": (
        {"online": {"belief_particles": 20}, "evaluation": {"n": 5, "equipage": ["table", "none"]}},
        "unknown config key: online.belief_particles",
    ),
    "one_element_equipage": ({"evaluation": {"n": 5, "equipage": ["none"]}}, "evaluation.equipage"),
    "negative_sigma": (
        {"online": {"belief_sigma_h": -5}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "online.belief_sigma_h",
    ),
    # evaluate flies the unequipped baseline whenever a side is equipped and no proposal is set
    "compare_unequipped": (
        {"evaluation": {"n": 5, "equipage": ["tcas", "none"], "compare_unequipped": False}},
        "unknown config key: evaluation.compare_unequipped",
    ),
    "non_integer_n": ({"evaluation": {"n": 5.5, "equipage": ["none", "none"]}}, "evaluation.n"),
    "string_sigma": (
        {"online": {"belief_sigma_h": "abc"}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "online.belief_sigma_h",
    ),
    "non_integer_tau_max": ({"grid": {"tau_max": 2.7}}, "grid.tau_max"),
    "non_integer_seed": (
        {"evaluation": {"seed": 2.7, "n": 5, "equipage": ["none", "none"]}}, "evaluation.seed",
    ),
    "numeric_table_file": (
        {"paths": {"table_file": 5}, "evaluation": {"n": 5, "equipage": ["table", "none"]}},
        "paths.table_file",
    ),
    "string_response_probability": (
        {"evaluation": {"pilot_response_probability": "1", "n": 5, "equipage": ["none", "none"]}},
        "evaluation.pilot_response_probability",
    ),
    # json.load accepts NaN and Infinity; a model fed either would solve a table
    "nan_intruder_sigma": ({"intruder": {"sigma_accel": math.nan}}, "intruder.sigma_accel"),
    "infinite_intruder_sigma": ({"intruder": {"sigma_accel": math.inf}}, "intruder.sigma_accel"),
    "nan_pilot_acceleration": ({"pilot": {"acceleration": math.nan}}, "pilot.acceleration"),
    # an integer beyond float range once exited E_RUN_FAILED: int too large to convert to float
    "huge_integer_duration": ({"encounter": {"duration": 10**400}}, "encounter.duration must be finite"),
    "infinite_alert_cost": (
        {"rewards": {"alert_cost": -math.inf}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "rewards.alert_cost",
    ),
    # a collision costs exactly 1, the unit of every other cost
    "collision_cost": (
        {"rewards": {"collision_cost": -100.0}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "unknown config key: rewards.collision_cost",
    ),
    # an online cost is a constant below any table value
    "cost_magnitude": (
        {"online": {"cost_magnitude": -1.0}, "evaluation": {"n": 5, "equipage": ["table", "none"]}},
        "unknown config key: online.cost_magnitude",
    ),
    # one tau cut: every lookup divided 0 by 0
    "tau_max_0": ({"grid": {"tau_max": 0}}, "grid.tau_max must be an integer in [1, 4294967294]"),
    "infinite_belief_sigma": (
        {"online": {"belief_sigma_h": math.inf}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "online.belief_sigma_h",
    ),
    # a table stores h >= 0 and reads the rest through the vertical mirror
    "asymmetric_hdot_cuts": (
        {"grid": {"hdot_cuts": [-25.0, 0.0, 30.0]}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "grid.hdot_cuts",
    ),
    "h_cuts_without_zero": (
        {"grid": {"h_cuts": [-100.0, 100.0]}, "evaluation": {"n": 5, "equipage": ["none", "none"]}},
        "grid.h_cuts",
    ),
}


# One malformed value per config block, on a document otherwise valid for
# every command, and the one line each command must exit with.  Before the
# load check built every block, each was refused only by the commands that
# use its block, and accepted (and recorded) by the rest.
MALFORMED_VALUES = {
    "grid": ({"grid": {"hdot_cuts": [-25.0, 0.0, 30.0]}}, "grid.hdot_cuts must be symmetric about 0"),
    "rewards": ({"rewards": {"alert_cost": 5}}, "rewards.alert_cost must be finite and <= 0, got 5"),
    "pilot": ({"pilot": {"response_probability": 0}},
              "pilot.response_probability must be in (0, 1], got 0"),
    "evaluation_pilot": ({"evaluation": {"pilot_response_probability": 0}},
                         "evaluation.pilot_response_probability must be in (0, 1], got 0.0"),
    "intruder": ({"intruder": {"sigma_accel": -1}},
                 "intruder.sigma_accel must be finite and >= 0, got -1"),
    "tcas": ({"tcas": {"alim": -1}}, "tcas.alim must be > 0, got -1"),
    "online": ({"online": {"belief_sigma_h": -5}}, "online.belief_sigma_h must be >= 0, got -5"),
    "encounter": ({"encounter": {"duration": 0.5}},
                  "encounter.duration must be a whole number of 1.0 s steps, got 0.5"),
    # 50 / 1e12 lies within the whole-number tolerance of 0 steps; evaluate
    # and sample once exited E_RUN_FAILED with numpy's text
    "encounter_zero_steps": ({"encounter": {"dt": 1e12}},
                             "encounter.duration must hold at least one 1000000000000.0 s step, got 50.0"),
    "slice": ({"slice": {"a_prev": "XYZ"}},
              "slice.a_prev must name an advisory (COC, DNC, DND, DES1500, CL1500, DES2500, CL2500), "
              "got 'XYZ'"),
    "sample": ({"sample": {"count": -1}}, "sample.count must be an integer >= 0, got -1"),
    # an ACXT file stores at most 2**32 - 1 tau cuts; checking 10**10 once
    # exited E_RUN_FAILED on a 74.5 GiB tau axis, and 5 * 10**21 named no key
    "tau_max_1e10": ({"grid": {"tau_max": 10**10}},
                     "grid.tau_max must be an integer in [1, 4294967294], got 10000000000"),
    "tau_max_5e21": ({"grid": {"tau_max": 5 * 10**21}},
                     "grid.tau_max must be an integer in [1, 4294967294], got 5000000000000000000000"),
}
COMMANDS = ("fit", "sample", "optimize", "simulate", "evaluate", "slice")


def merged(base, doc):
    """base with each block of doc merged over its own."""
    out = copy.deepcopy(base)
    for block, values in doc.items():
        out.setdefault(block, {}).update(values)
    return out


class TestOneVerdict:
    @pytest.fixture(scope="class")
    def base(self, small_table, tmp_path_factory):
        """A document every command accepts: a table, sample CSVs, a seed."""
        tmp = tmp_path_factory.mktemp("verdict")
        write_table(small_table, tmp / "table.acxt")
        paths = {key: str(path) for key, path in sample_csvs(tmp).items()}
        return {"schema_version": 1, "paths": {"table_file": str(tmp / "table.acxt"), **paths},
                "grid": {"h_cuts": [-100.0, 0.0, 100.0], "hdot_cuts": [-25.0, 0.0, 25.0], "tau_max": 3},
                "sample": {"count": 1},
                "evaluation": {"n": 4, "seed": 1, "equipage": ["table", "tcas"]}}

    def test_base_document_is_valid_for_every_command(self, base, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(base))
        for command in COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
            assert (out / "effective_config.json").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
    def test_every_command_refuses_with_one_line(self, case, command, base, tmp_path, capsys):
        doc, detail = MALFORMED_VALUES[case]
        (tmp_path / "config.json").write_text(json.dumps(merged(base, doc)))
        out = tmp_path / "out"
        assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"E_CONFIG_INVALID: {detail}\n"
        assert not out.exists()  # no effective_config.json, no other output

    def test_seed_override_is_checked_as_the_document_is(self, base, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base))
        for command in COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == "E_CONFIG_INVALID: evaluation.seed must be an integer >= 0, got -1\n"
            assert not out.exists()


class TestConfigContract:
    def test_check_builds_no_tau_axis(self):
        # Every command checks the grid, and sample never reads it: the tau
        # axis of the largest tau_max would take 34 GB.
        cfg = merged(DEFAULT_CONFIG, {"grid": {"tau_max": 2**32 - 2}})
        tracemalloc.start()
        try:
            check_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_vanishing_response_probability_runs(self, tmp_path, capsys):
        # 1 - 1e-17 rounds to 1; the delay draw once divided by log(1) = 0.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "evaluation": {
            "pilot_response_probability": 1e-17, "n": 4, "equipage": ["tcas", "none"]}}))
        assert main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_invalid_value_names_its_key(self, case, small_table, tmp_path, capsys):
        doc, key = INVALID_CONFIGS[case]
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "paths": {"table_file": str(table)}, **doc}))
        code = main(["evaluate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG_INVALID:")
        assert err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize(
        "case", ["nan_intruder_sigma", "infinite_intruder_sigma", "nan_pilot_acceleration"],
    )
    def test_optimize_refuses_non_finite_model_number(self, case, tmp_path, capsys):
        # each of these once solved and wrote a table whose rows did not sum to 1
        doc, key = INVALID_CONFIGS[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, **doc}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG_INVALID:") and err.count("\n") == 1
        assert key in err
        assert not (out / "table.acxt").exists()

    @pytest.mark.parametrize("where", ["--seed", "config"])
    def test_negative_seed_names_its_key(self, where, tmp_path, capsys):
        evaluation = {"n": 5, "equipage": ["none", "none"]}
        if where == "config":
            evaluation["seed"] = -1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "evaluation": evaluation}))
        argv = ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out")]
        code = main(argv + (["--seed", "-1"] if where == "--seed" else []))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG_INVALID:") and err.count("\n") == 1
        assert "evaluation.seed" in err

    @pytest.mark.parametrize("where", ["--seed", "config"])
    def test_seed_beyond_64_bits_names_its_key(self, where, tmp_path, capsys):
        # A seed is one uint64 key of the counter-based generator.
        cfg = tmp_path / "config.json"
        for seed, code in ((2**64, 2), (2**64 - 1, 0)):
            evaluation = {"n": 5, "equipage": ["none", "none"]}
            if where == "config":
                evaluation["seed"] = seed
            cfg.write_text(json.dumps({"schema_version": 1, "evaluation": evaluation}))
            argv = ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert main(argv + (["--seed", str(seed)] if where == "--seed" else [])) == code
        err = capsys.readouterr().err
        assert err == "E_CONFIG_INVALID: evaluation.seed must be below 2**64, got 18446744073709551616\n"

    def test_index_beyond_64_bits_names_its_key(self, tmp_path, capsys):
        # An encounter index is a uint64 coordinate of the key, as a seed is.
        cfg = tmp_path / "config.json"
        for index, code in ((2**64, 2), (2**64 - 1, 0)):
            cfg.write_text(json.dumps({"schema_version": 1, "simulate": {"index": index},
                                       "evaluation": {"equipage": ["none", "none"]}}))
            argv = ["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")]
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err == "E_CONFIG_INVALID: simulate.index must be below 2**64, got 18446744073709551616\n"

    def test_every_null_default_declares_its_type(self):
        nulls = {f"{block}.{key}" for block, values in DEFAULT_CONFIG.items()
                 if isinstance(values, dict) for key, value in values.items() if value is None}
        assert nulls == set(NULLABLE_TYPES)

    def test_value_types_follow_the_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        accepted = {"tcas": {"alim": 350}, "evaluation": {"seed": 3, "pilot_response_probability": 1},
                    "paths": {"model_file": None, "table_file": "table.acxt"}}
        path.write_text(json.dumps({"schema_version": 1, **accepted}))
        cfg = load_config(path)
        assert cfg["tcas"]["alim"] == 350 and cfg["evaluation"]["seed"] == 3
        assert cfg["paths"]["table_file"] == "table.acxt" and cfg["paths"]["model_file"] is None
        for doc in ({"sample": {"count": True}}, {"evaluation": {"per_encounter_csv": 1}},
                    {"grid": {"h_cuts": 5.0}}, {"pilot": None}, {"slice": {"a_prev": 0}}):
            path.write_text(json.dumps({"schema_version": 1, **doc}))
            with pytest.raises(ConfigError, match=next(iter(doc))):
                load_config(path)


def _advisory_field(name):
    return struct.pack("<I", len(name)) + name


def _axis_block(axis):
    return struct.pack("<I", len(axis)) + b"".join(_advisory_field(a.value.encode()) for a in axis)


def _cut_offset(grid, axis, i):
    """Byte offset of cut point i on axis 0 (h) or 1 (hdot0) of an ACXT file."""
    offset = 16  # magic, version, dim_count, h cut count
    if axis == 1:
        offset += 8 * len(grid.h_cuts) + 4
    return offset + 8 * i


def _with_cut(raw, offset, value):
    return raw[:offset] + struct.pack("<d", value) + raw[offset + 8:]


def _oversized_header(raw, grid):
    """A valid header and cost block declaring 300 cuts per axis, then len(raw) zero bytes.

    Its values would need 4.7e8 floats; the file holds a few thousand.
    """
    cuts = np.arange(-150, 150) + 0.5
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, 4)
    for axis in (cuts, cuts, cuts, np.arange(grid.tau_max + 1.0)):
        header += struct.pack("<I", len(axis)) + axis.astype("<f8").tobytes()
    return header + _axis_block(ADVISORIES) + bytes(ACXT_COST_BYTES + len(raw))


def _on_axis(axis):
    """A file of the same grid, costs and values on another advisory axis.

    The cost matrix and the values keep axis's advisories, in its order, so
    the file is whole and consistent: only the axis itself is wrong.
    """
    def mutate(raw, grid):
        cost_at = acxt_header_bytes(grid)
        axis_at = cost_at - len(_axis_block(ADVISORIES))
        cost, values = _cost_and_values(raw, grid)
        keep = [ADVISORIES.index(a) for a in axis]
        return (raw[:axis_at] + _axis_block(axis) + cost[keep][:, keep].tobytes()
                + values[..., keep].tobytes())
    return mutate


def _cost_and_values(raw, grid):
    """The cost matrix and the value array of a version 3 file."""
    cost_at = acxt_header_bytes(grid)
    cost = np.frombuffer(raw, dtype="<f8", count=len(ADVISORIES) ** 2, offset=cost_at)
    values = np.frombuffer(raw, dtype="<f4", offset=cost_at + ACXT_COST_BYTES)
    return cost.reshape(len(ADVISORIES), -1), values.reshape(grid.table_shape)


def _version_2(raw, grid):
    """The same table as a version 2 file: no cost block, every (a_prev, action) value."""
    cost_at = acxt_header_bytes(grid)
    cost, values = _cost_and_values(raw, grid)
    header = raw[:4] + struct.pack("<I", 2) + raw[8:cost_at]
    return header + (values[..., None, :] + cost).astype("<f4").tobytes()


def _one_tau_cut(raw, grid):
    """The same table cut to its tau = 0 layer: a tau axis of one cut."""
    cost_at = acxt_header_bytes(grid)
    tau_at = cost_at - len(_axis_block(ADVISORIES)) - 4 - 8 * (grid.tau_max + 1)
    cost, values = _cost_and_values(raw, grid)
    return (raw[:tau_at] + struct.pack("<Id", 1, 0.0) + _axis_block(ADVISORIES) + cost.tobytes()
            + values[:, :, :, :1].tobytes())


def _with_cost(raw, grid, a_prev, action, value):
    """The file with cost[a_prev, action] replaced by value."""
    at = acxt_header_bytes(grid) + 8 * (a_prev * len(ADVISORIES) + action)
    return raw[:at] + struct.pack("<d", value) + raw[at + 8:]


CANONICAL_AXIS = "advisory axis must be [COC, DNC, DND, DES1500, CL1500, DES2500, CL2500]"
MALFORMED_TABLES = {
    "unknown_advisory": (
        lambda raw, grid: raw.replace(_advisory_field(b"DNC"), _advisory_field(b"XXX"), 1),
        CANONICAL_AXIS,
    ),
    "duplicate_advisory": (
        lambda raw, grid: raw.replace(_advisory_field(b"DNC"), _advisory_field(b"DND"), 1),
        CANONICAL_AXIS,
    ),
    "reduced_advisory_axis": (
        _on_axis((Advisory.COC, Advisory.CL1500, Advisory.DES1500)), CANONICAL_AXIS,
    ),
    "reordered_advisory_axis": (
        _on_axis((Advisory.COC, Advisory.DND, Advisory.DNC, *ADVISORIES[3:])), CANONICAL_AXIS,
    ),
    "non_finite_value": (
        lambda raw, grid: raw[:-4] + struct.pack("<f", float("nan")),
        "table values must be finite",
    ),
    "asymmetric_h_cuts": (
        lambda raw, grid: _with_cut(raw, _cut_offset(grid, 0, 0), -999.0),
        "symmetric",
    ),
    "non_increasing_cuts": (
        lambda raw, grid: _with_cut(raw, _cut_offset(grid, 1, 1), 30.0),
        "increasing",
    ),
    "header_declares_more_values_than_file": (_oversized_header, "truncated table file"),
    # a lookup on one tau cut divided 0 by 0
    "one_tau_cut": (_one_tau_cut, "invalid grid: tau_max must be an integer in [1, 4294967294], got 0"),
    "version_2_file": (_version_2, "unsupported table format version 2"),
    "truncated_cost_block": (
        lambda raw, grid: raw[:acxt_header_bytes(grid) + ACXT_COST_BYTES // 2],
        "truncated advisory cost matrix",
    ),
    "non_finite_cost": (
        lambda raw, grid: _with_cost(raw, grid, 0, 3, float("inf")),
        "advisory cost matrix must be finite",
    ),
    # the alert cost of DES1500 changed, but not that of CL1500, its mirror
    "cost_off_its_mirror": (
        lambda raw, grid: _with_cost(raw, grid, 0, 3, -0.5),
        "advisory cost matrix must be its own vertical mirror",
    ),
}


class TestTableContract:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
    def test_slice_rejects_malformed_table(self, case, small_table, tmp_path, capsys):
        mutate, fragment = MALFORMED_TABLES[case]
        path = tmp_path / "table.acxt"
        write_table(small_table, path)
        raw = path.read_bytes()
        bad = mutate(raw, small_table.grid)
        assert bad != raw
        path.write_bytes(bad)
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        code = main(["slice", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_TABLE_INVALID:")
        assert err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("case", sorted(MIRROR_BREAKS))
    def test_slice_rejects_broken_mirror(self, case, small_table, tmp_path, capsys):
        mutate, fragment = MIRROR_BREAKS[case]
        path = tmp_path / "table.acxt"
        write_table(small_table, path)
        path.write_bytes(mutate(path.read_bytes(), small_table.grid))
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        code = main(["slice", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_TABLE_INVALID:")
        assert err.count("\n") == 1
        assert fragment in err

    def test_garbled_axis_count_refused_before_reading(self, default_table, tmp_path, capsys):
        # The two bytes turn an axis count into ~4e9 cuts: 32 GB the
        # reader once asked the file for, and exited E_RUN_FAILED: MemoryError.
        path = tmp_path / "table.acxt"
        write_table(default_table, path)
        raw = bytearray(path.read_bytes())
        raw[12], raw[424] = 0xF2, 0xF6
        path.write_bytes(raw)
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        assert main(["slice", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "E_TABLE_INVALID: truncated table file\n"

    def test_fuzzed_tables_exit_with_one_table_error(self, small_table, tmp_path, capsys):
        # Seeded truncations and header bytes XORed with 1..127 (never a
        # sign bit, whose flip on a 0.0 cut reads as the same grid).  Each
        # copy must exit 2 with exactly one E_TABLE_* line.
        path = tmp_path / "table.acxt"
        write_table(small_table, path)
        raw = path.read_bytes()
        header = acxt_header_bytes(small_table.grid)
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        rng = np.random.default_rng(2026)
        failures = []
        for k in range(400):
            if k % 2:
                bad = raw[: int(rng.integers(0, len(raw)))]
            else:
                bad = bytearray(raw)
                bad[int(rng.integers(0, header))] ^= int(rng.integers(1, 128))
            path.write_bytes(bad)
            code = main(["slice", "--config", str(cfg), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code != 2 or not err.startswith("E_TABLE_") or err.count("\n") != 1:
                failures.append((k, code, err))
        assert failures == []

    def test_slice_refuses_version_1_file(self, small_table, tmp_path, capsys):
        # version 1 stored every h row; its h < 0 rows were the mirror of the rest
        path = tmp_path / "table.acxt"
        write_table(small_table, path)
        header = bytearray(path.read_bytes()[:acxt_header_bytes(small_table.grid)])
        header[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(header) + full_values(small_table).astype("<f4").tobytes())
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        code = main(["slice", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "E_TABLE_INVALID: unsupported table format version 1\n"

    def test_no_command_imports_scipy(self, small_table, tmp_path):
        # importing scipy costs every caslab process ~0.24 s; numpy suffices.
        # The process pool's modules load only for --workers > 1.
        path = tmp_path / "table.acxt"
        write_table(small_table, path)
        cfg = small_grid_config(tmp_path, paths={"table_file": str(path)})
        script = (
            "import runpy, sys\n"
            "import caslab\n"
            "heavy = ('scipy', 'concurrent.futures.process', 'multiprocessing')\n"
            "def check(when):\n"
            "    loaded = [m for m in heavy if m in sys.modules]\n"
            "    assert not loaded, f'{when} loaded {loaded}'\n"
            "check('import caslab')\n"
            "sys.argv = ['caslab', 'slice', '--config', sys.argv[1], '--out', sys.argv[2],\n"
            "            '--workers', '1']\n"
            "try:\n"
            "    runpy.run_module('caslab', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code\n"
            "check('caslab slice')\n"
        )
        proc = run_python(["-c", script, str(cfg), str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "slice.csv").exists()


# Values a fuzzed document puts where a valid one stood: another JSON type,
# a number out of range, or a list of the wrong length or contents.  No
# value is a large count or a tiny step, so a fuzzed run stays as cheap as
# the valid one.
FUZZ_VALUES = (
    "x", None, True, False, {}, {"a": 1}, 1.5, 7,
    -1, 0, -0.5, -1e308,
    [], [1.0], ["a", "b"], [[0.0, 1.0]], [1.0, -1.0], [-100.0, 0.0, 100.0, 100.0], [None, None],
)


def exits_by_contract(argv, capsys, codes=r"E_[A-Z_]+"):
    """main(argv)'s stderr, and None if it exits 0, or 2 with one E_* line there; else what it did.

    codes narrows the E_* codes accepted.  E_RUN_FAILED, which carries a
    raw exception's text, is never accepted for a malformed input.
    """
    code = main(argv)
    err = capsys.readouterr().err
    if code == 0 or (code == 2 and re.fullmatch(rf"(?!E_RUN_FAILED)({codes}): [^\n]*\n", err)
                     and "Traceback" not in err):
        return err, None
    return err, (code, err)


class TestFuzzedInputs:
    """Seeded malformed configs and model files: exit 0, or exit 2 with one E_* line.

    The commands reach one verdict on each config document.
    """

    def test_fuzzed_configs(self, tmp_path, capsys):
        grid = {"h_cuts": [-100.0, 0.0, 100.0], "hdot_cuts": [-25.0, 0.0, 25.0], "tau_max": 3}
        base = {"schema_version": 1, "grid": grid,
                "paths": {"table_file": str(tmp_path / "table.acxt")},
                "sample": {"count": 2}, "simulate": {"index": 1},
                "evaluation": {"n": 4, "seed": 1, "equipage": ["table", "none"],
                               "per_encounter_csv": True}}
        (tmp_path / "base.json").write_text(json.dumps(base))
        assert main(["optimize", "--config", str(tmp_path / "base.json"), "--out", str(tmp_path)]) == 0
        leaves = [(block, key) for block, values in DEFAULT_CONFIG.items()
                  if isinstance(values, dict) for key in values]
        rng = random.Random(27)
        cfg, failures, refused = tmp_path / "config.json", [], 0
        for k in range(60):
            doc = copy.deepcopy(base)
            for block, key in rng.sample(leaves, rng.choice((1, 2))):
                doc.setdefault(block, {})[key] = rng.choice(FUZZ_VALUES)
            cfg.write_text(json.dumps(doc))
            verdicts = {}
            for command in ("optimize", "slice", "evaluate", "sample", "simulate"):
                argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out" / command)]
                verdicts[command], outcome = exits_by_contract(argv, capsys)
                if outcome is not None:
                    failures.append((k, command, doc, outcome))
            # One verdict on the document: every command refuses it with the
            # same line, or none does.  slice alone checks its rates against
            # the table's cuts, which the others never read.
            table_cut = r"E_CONFIG_INVALID: slice\.hdot[01] must be a cut of the table's rate axis, .*\n"
            lines = {command: err for command, err in verdicts.items()
                     if err.startswith("E_CONFIG_INVALID: ") and not re.fullmatch(table_cut, err)}
            if lines and (len(lines) != 5 or len(set(lines.values())) != 1):
                failures.append((k, "verdicts", doc, lines))
            refused += len(lines) == 5
        assert failures == []
        assert refused >= 50  # 58 of the 60 at this seed: agreement is tested on refusals

    def test_fuzzed_model_files(self, tmp_path, capsys):
        valid = model_to_dict(toy_two_bin_model())
        (tmp_path / "valid.json").write_text(json.dumps(valid))
        rng = random.Random(27)
        path, failures = tmp_path / "model.json", []
        for k in range(200):
            doc = copy.deepcopy(valid)
            while doc == valid:
                # Walk down to one entry, a network's given count every
                # eighth time, and delete it or replace it.
                if k % 8 == 0:
                    parent, key = doc[rng.choice(("initial_net", "transition_net"))], "given"
                else:
                    parent = doc
                    while True:
                        keys = list(parent) if isinstance(parent, dict) else range(len(parent))
                        key = rng.choice(keys)
                        child = parent[key]
                        if not (isinstance(child, (dict, list)) and child and rng.random() < 0.75):
                            break
                        parent = child
                if rng.random() < 0.25:
                    del parent[key]
                else:
                    parent[key] = rng.choice(FUZZ_VALUES)
            path.write_text(json.dumps(doc))
            # The mutant as the nominal model, or as the proposal beside a valid one.
            paths = ({"model_file": str(path)} if k % 2 else
                     {"model_file": str(tmp_path / "valid.json"), "proposal_file": str(path)})
            cfg = small_grid_config(tmp_path, paths=paths, evaluation={
                "n": 4, "equipage": ["tcas", "none"], "per_encounter_csv": True})
            _, outcome = exits_by_contract(["evaluate", "--config", str(cfg), "--seed", "1",
                                            "--out", str(tmp_path / "out")], capsys, "E_MODEL_INVALID")
            if outcome is not None:
                failures.append((k, doc, outcome))
        assert failures == []


# sha256 of dump_config(DEFAULT_CONFIG), re-pinned when the tree lost
# encounter.use_default_model and rewards.nmac_vertical, again when it
# lost online.belief_particles, again when it lost
# rewards.collision_cost and online.cost_magnitude, and again when it lost
# evaluation.compare_unequipped.  A change here changes every default run.
PINNED_DEFAULT_CONFIG_DIGEST = "612070900042b6098486f8f849bed98b34e6d65fa3a3c42f5dabd108bd61a0e5"


class TestConfigRoundTrip:
    def test_default_config_pinned(self):
        digest = hashlib.sha256(dump_config(DEFAULT_CONFIG).encode()).hexdigest()
        assert digest == PINNED_DEFAULT_CONFIG_DIGEST

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


# sha256 of each output file of the runs in command_outputs, recorded before
# the closed-loop outcomes became arrays end to end; the table runs'
# (table/*, simulate/trace.csv) were recorded again when the table began to
# hold its advisory on a tie, every metrics.json again when plain runs
# began to report an upper bound on P(NMAC), and table/* again when a
# belief became seven sigma points, and every file again when counter-based
# uniforms replaced the per-encounter generators, and the two
# per_encounter.csv files of runs with a baseline again when they began to
# list the baseline's outcome columns after the equipped side's unchanged
# ones, and every run at the default p < 1 again when the pilot began to
# comply at a per-step draw; the p = 1 runs (table_p1, tcas_p1) held.
# slice/slice.csv was recorded while policy_slice still read the stored
# values directly, and held when it began to read them through
# interpolate_many.  A change here changes what evaluate, simulate, sample
# or slice write at a fixed seed.
PINNED_OUTPUT_DIGESTS = {
    "is/metrics.json": "42e920289cf470044fa4f8f0ee1abcbd97b480b9f431636dd2420e6e375e1089",
    "is/per_encounter.csv": "2c600f06718843626e72c23d9381a7bc76093428aa4812fed5bc5b502668c986",
    "sample/encounter_0000.csv": "13ea796226f6f796927b4b9254cec482e2d25229cd44c92c45eb1af6503aa7a3",
    "sample/encounter_0001.csv": "7d8efe757fdaa4e3b0c53e344a491960de690d4c0a1515b564caa8db0cc68487",
    "sample/encounter_0002.csv": "18d6ccc159d725d08277e3de8112e9c417fab11bec42986d8aeb0fbc30ae4f06",
    "simulate/trace.csv": "632ff1009efad54cc32ced89ffd1edb989f0496e921073f34ac3861957c1d0b5",
    "slice/slice.csv": "ec5d940dd922534cb9d72b454c37105aae2eadf9fb234986a2f3b27307cc637b",
    "table/metrics.json": "70a2b59584ad9abf1ac9d12022815c2ba5f25efee89eca10009c9e77acd094ed",
    "table/per_encounter.csv": "3e85400636f72bd4824b697bdbc186765aa89a2e07241debf04044b58752c529",
    "table_p1/metrics.json": "5ea2aec8ab02697f2d2e122b4a075194b8a5d755326b2b420a6a24c966004187",
    "table_p1/per_encounter.csv": "9851c87745c9578847ca4dc6336cb486c58f236dca13a270f63dd30e2adee5b0",
    "tcas_p1/metrics.json": "29e800e39e29876843aebec1a490e3ff08b4a1a3ad4b4c6c69d6addc40bf39ac",
    "tcas_p1/per_encounter.csv": "7a931d4a4c973a319fbc2bc5a9f8242114fa78e31840fce1791f556644bebda6",
    "tcas_workers/metrics.json": "29e800e39e29876843aebec1a490e3ff08b4a1a3ad4b4c6c69d6addc40bf39ac",
    "tcas_workers/per_encounter.csv": "e2597db45dbfcd865d843fe37b48ce5b8cdb634bacfe6c953411121757981aff",
}


@pytest.fixture(scope="module")
def command_outputs(tmp_path_factory):
    """Run each command once on the small grid; map output name -> sha256."""
    tmp = tmp_path_factory.mktemp("digests")
    table = tmp / "opt" / "table.acxt"
    write_model_file(toy_two_bin_model(0.05), tmp / "nominal.json")
    write_model_file(toy_two_bin_model(0.5), tmp / "proposal.json")
    runs = {
        # table vs unequipped in one chunk, so risk_ratio is present
        "table": (["evaluate", "--seed", "1"], {
            "paths": {"table_file": str(table)},
            "evaluation": {"n": 100, "equipage": ["table", "none"], "per_encounter_csv": True},
        }),
        "tcas_workers": (["evaluate", "--seed", "2", "--workers", "2"], {
            "encounter": {"mode": "uncorrelated"},
            "evaluation": {"n": 50, "equipage": ["tcas", "none"], "per_encounter_csv": True},
        }),
        # the same two pairs with a pilot who complies at the switch step
        "table_p1": (["evaluate", "--seed", "1"], {
            "paths": {"table_file": str(table)},
            "evaluation": {"n": 100, "equipage": ["table", "none"], "per_encounter_csv": True,
                           "pilot_response_probability": 1.0},
        }),
        "tcas_p1": (["evaluate", "--seed", "2"], {
            "encounter": {"mode": "uncorrelated"},
            "evaluation": {"n": 50, "equipage": ["tcas", "none"], "per_encounter_csv": True,
                           "pilot_response_probability": 1.0},
        }),
        "is": (["evaluate", "--seed", "3"], {
            "paths": {"model_file": str(tmp / "nominal.json"),
                      "proposal_file": str(tmp / "proposal.json")},
            "evaluation": {"n": 40, "equipage": ["tcas", "none"], "per_encounter_csv": True},
        }),
        "simulate": (["simulate", "--seed", "4"], {
            "paths": {"table_file": str(table)},
            "simulate": {"index": 3},
            "evaluation": {"equipage": ["table", "tcas"]},
        }),
        "sample": (["sample", "--seed", "5"], {"sample": {"count": 3}}),
        # off-zero rates and a held advisory, so the rows below h = 0 read
        # mirrored states with their own action columns
        "slice": (["slice"], {
            "paths": {"table_file": str(table)},
            "slice": {"hdot0": 25.0, "hdot1": -25.0, "a_prev": "DES1500"},
        }),
    }
    assert main(["optimize", "--config", str(small_grid_config(tmp)), "--out", str(tmp / "opt")]) == 0
    digests = {}
    for name, (argv, doc) in runs.items():
        cfg = small_grid_config(tmp, **doc)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp / name)]) == 0, name
        for path in sorted((tmp / name).glob("*.csv")) + [tmp / name / "metrics.json"]:
            if path.is_file():
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestOutputDigests:
    def test_every_output_is_pinned(self, command_outputs):
        assert sorted(command_outputs) == sorted(PINNED_OUTPUT_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUT_DIGESTS))
    def test_output_bytes_pinned(self, command_outputs, name):
        assert command_outputs[name] == PINNED_OUTPUT_DIGESTS[name]


# a row appended to a valid transition-sample CSV, and what the error names
MALFORMED_SAMPLE_ROWS = {
    "non_integer_cell": (["x", 0, 0, 0, 0, 0, 0], "line 3: invalid literal"),
    "short_row": ([0, 0, 0, 0, 0, 0], "line 3: 6 cells, expected 7"),
    "bin_out_of_range": ([0, 0, 0, 0, 0, 0, 99], "bin index out of range for node int_vrate_next"),
    "bin_beyond_int64": ([0, 0, 0, 0, 0, 0, 2**64], "too large"),
}
# a whole transition-sample CSV that is malformed, and what the error names
MALFORMED_SAMPLE_FILES = {
    "wrong_header": ("own_vrate,int_vrate\n0,0\n", "columns ['own_vrate', 'int_vrate'] != nodes"),
    "empty_file": ("", "columns [] != nodes"),
}


def sample_csvs(tmp_path):
    """A valid one-row sample CSV per network of the default structure."""
    paths = {}
    for key, net in zip(("initial_samples_csv", "transition_samples_csv"), default_structure()):
        paths[key] = tmp_path / f"{key}.csv"
        with open(paths[key], "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(net.nodes)
            writer.writerow([0] * len(net.nodes))
    return paths


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
        # every transition column was read, and only the next slice was fitted
        assert model.transition_net.given == 5
        assert [t.shape for t in model.transition_net.cpt] == [(5, 5), (5, 5)]

    @pytest.mark.parametrize("fault", sorted(MALFORMED_SAMPLE_ROWS))
    def test_fit_refuses_malformed_samples(self, fault, tmp_path, capsys):
        row, fragment = MALFORMED_SAMPLE_ROWS[fault]
        paths = sample_csvs(tmp_path)
        with open(paths["transition_samples_csv"], "a", newline="") as f:
            csv.writer(f).writerow(row)
        cfg = small_grid_config(tmp_path, paths={k: str(v) for k, v in paths.items()})
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_SAMPLES_INVALID: {paths['transition_samples_csv']}")
        assert err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("fault", sorted(MALFORMED_SAMPLE_FILES))
    def test_fit_refuses_malformed_sample_file(self, fault, tmp_path, capsys):
        contents, fragment = MALFORMED_SAMPLE_FILES[fault]
        paths = sample_csvs(tmp_path)
        paths["transition_samples_csv"].write_text(contents)
        cfg = small_grid_config(tmp_path, paths={k: str(v) for k, v in paths.items()})
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E_SAMPLES_INVALID: {paths['transition_samples_csv']}: ")
        assert err.count("\n") == 1
        assert fragment in err

    def test_fit_takes_mode_and_run_geometry_from_the_structure_file(self, tmp_path):
        # the config's encounter block says correlated, 50 s and 1 s
        path = tmp_path / "structure.json"
        write_model_file(default_uncorrelated_model(duration=30.0, dt=0.5), path)
        paths = {k: str(v) for k, v in sample_csvs(tmp_path).items()}
        cfg = small_grid_config(tmp_path, paths={"structure_file": str(path), **paths})
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        model = read_model_file(out / "model.json")
        assert (model.mode, model.duration, model.dt) == ("uncorrelated", 30.0, 0.5)

    def test_fit_takes_an_unfitted_structure_file(self, tmp_path):
        path = tmp_path / "structure.json"
        path.write_text(structure_text())
        paths = {k: str(v) for k, v in sample_csvs(tmp_path).items()}
        cfg = small_grid_config(tmp_path, paths={"structure_file": str(path), **paths})
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
        assert read_model_file(tmp_path / "fit" / "model.json").transition_net.is_fitted

    def test_fit_missing_samples(self, tmp_path, capsys):
        cfg = small_grid_config(tmp_path)
        code = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_SAMPLES_NOT_FOUND:")

    @pytest.mark.parametrize("mode", ["correlated", "uncorrelated"])
    def test_sample_writes_traces(self, mode, tmp_path):
        cfg = small_grid_config(tmp_path, sample={"count": 3}, encounter={"mode": mode})
        out = tmp_path / "samples"
        assert main(["sample", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        names = sorted(path.name for path in out.glob("encounter_*.csv"))
        assert names == ["encounter_0000.csv", "encounter_0001.csv", "encounter_0002.csv"]
        model = default_correlated_model() if mode == "correlated" else default_uncorrelated_model()
        trace = run_indexed_traces(model, Equipage(), 2, range(3))
        for b, name in enumerate(names):
            assert_trace_file(out / name, trace, b)

    def test_simulate_writes_trace(self, small_table, tmp_path):
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        cfg = small_grid_config(tmp_path, paths={"table_file": str(table)}, simulate={"index": 3},
                                evaluation={"equipage": ["table", "tcas"]})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
        # The default pilot begins to comply with p = 1/6 at each step, not at once.
        eq = Equipage(own="table", intruder="tcas", table=read_table(table))
        assert eq.pilot.response_probability < 1.0
        trace = run_indexed_traces(default_correlated_model(), eq, 8, [3])
        assert trace.outcome["alert"][0]
        assert_trace_file(out / "trace.csv", trace, 0)


def assert_trace_file(path, trace, b):
    """The trace CSV at path holds encounter b of the record trace, cell for cell."""
    with open(path, newline="") as f:
        assert f.readline() == f"# dt={trace.dt}\n"
        header, *rows = csv.reader(f)
    assert header == TRACE_CSV_HEADER
    n = trace.z.shape[2]
    assert n == 51  # 50 steps + terminal sample
    assert len(rows) == n
    for k, row in enumerate(rows):
        kinematics = [k * trace.dt]
        for i in (0, 1):
            kinematics += [trace.x[b, i, k], trace.y[b, i, k], trace.z[b, i, k],
                           trace.vel[b, i, 0], trace.vel[b, i, 1], trace.vz[b, i, k]]
        assert [float(cell) for cell in row[:13]] == kinematics, k
        assert row[13:15] == [ADVISORIES[a].value for a in trace.adv[b, k].tolist()], k
        assert frozenset(filter(None, row[15].split("|"))) == event_labels(int(trace.events[b, k])), k


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
            evaluation={"n": 400, "equipage": ["none", "none"]},
        )
        out = tmp_path / "is"
        assert main(["evaluate", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["effective_sample_size"] < 400.0
        assert abs(metrics["p_nmac"] - 0.05) <= 4 * metrics["p_nmac_se"]


def outcome_from_csv(path):
    """The OUTCOME records of an evaluate run, rebuilt from its per_encounter.csv alone."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["index"] for r in rows] == [str(i) for i in range(len(rows))]
    prefixes = ("", "baseline_") if "baseline_nmac" in rows[0] else ("",)
    outcome = np.zeros((len(prefixes), len(rows)), OUTCOME)
    for records, prefix in zip(outcome, prefixes):
        for name in OUTCOME.names:
            column = name if name == "log_weight" else prefix + name
            records[name] = [float(r[column]) for r in rows]
    return outcome


class TestOutcomeRecords:
    """metrics.json is a function of per_encounter.csv.

    Given the equipage and whether a proposal was sampled, both read from
    the run's effective config, the records rebuilt from the CSV give
    metrics.json byte for byte through the function evaluate writes it with.
    """

    @pytest.fixture(scope="class")
    def runs(self, small_table, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("records")
        write_table(small_table, tmp / "table.acxt")
        write_model_file(toy_two_bin_model(0.05), tmp / "nominal.json")
        write_model_file(toy_two_bin_model(0.5), tmp / "proposal.json")
        # 300 encounters: chunks of 256 and 44 serially, two of 150 in the pool
        table = {"paths": {"table_file": str(tmp / "table.acxt")},
                 "evaluation": {"n": 300, "equipage": ["table", "none"], "per_encounter_csv": True}}
        cases = {
            "table": (["--seed", "1"], table),
            "table_workers": (["--seed", "1", "--workers", "2"], table),
            "is": (["--seed", "3"], {
                "paths": {"model_file": str(tmp / "nominal.json"),
                          "proposal_file": str(tmp / "proposal.json")},
                "evaluation": {"n": 40, "equipage": ["tcas", "none"], "per_encounter_csv": True},
            }),
        }
        for name, (argv, doc) in cases.items():
            cfg = small_grid_config(tmp, **doc)
            assert main(["evaluate", *argv, "--config", str(cfg), "--out", str(tmp / name)]) == 0
        return tmp

    @pytest.mark.parametrize("name", ["table", "table_workers", "is"])
    def test_metrics_rebuilt_from_per_encounter_csv(self, runs, name, tmp_path):
        out = runs / name
        outcome = outcome_from_csv(out / "per_encounter.csv")
        cfg = json.loads((out / "effective_config.json").read_text())
        weighted = cfg["paths"]["proposal_file"] is not None
        metrics = (out / "metrics.json").read_text()
        assert _metrics_json(outcome, cfg["evaluation"]["equipage"], weighted) == metrics
        # The CSV holds each field exactly: the rebuilt records write it again.
        _write_outcomes(tmp_path / "again.csv", outcome)
        assert (tmp_path / "again.csv").read_bytes() == (out / "per_encounter.csv").read_bytes()
        m = json.loads(metrics)
        if name == "is":
            assert len(outcome) == 1 and outcome["log_weight"].any()
        else:
            assert len(outcome) == 2 and not outcome["log_weight"].any()
            assert {"risk_ratio", "risk_ratio_se", "baseline_p_nmac", "baseline_p_nmac_se",
                    "baseline_p_nmac_upper95"} <= set(m)

    def test_workers_write_the_serial_files(self, runs):
        for file in ("metrics.json", "per_encounter.csv"):
            serial, pool = (runs / name / file for name in ("table", "table_workers"))
            assert serial.read_bytes() == pool.read_bytes()


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
            evaluation={"n": 30, "equipage": ["table", "none"]},
        )
        assert main(["sample", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg_run), "--seed", "3", "--out", str(out)]) == 0
        assert main(["slice", "--config", str(cfg_run), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n"] == 30
        assert (out / "slice.csv").exists()
        assert (out / "effective_config.json").exists()
