"""The names and call shapes the benchmark under bench/ uses, called on small inputs.

bench/ drives caslab from outside the package and changes apart from it.
Each call here is written as bench/ writes it (through the `caslab`
package, keywords and positions included), so deleting or reshaping a
name it holds fails these tests before it fails a benchmark run.
"""

import json

import caslab
import caslab.cli
import caslab.config
import caslab.evaluation
import caslab.runtime
import numpy as np
from conftest import micro_grid


def write_config(path, doc):
    path.write_text(json.dumps({"schema_version": 1, **doc}))
    return str(path)


def test_config_and_model_loaders():
    cfg = caslab.config.load_config()
    assert all(isinstance(r, float) for r in cfg["grid"]["hdot_cuts"])
    caslab.config.grid_from_config(cfg)
    caslab.config.rewards_from_config(cfg)
    caslab.config.pilot_from_config(cfg)
    caslab.config.intruder_from_config(cfg)
    enc = cfg["encounter"]
    for factory in (caslab.default_correlated_model, caslab.default_uncorrelated_model):
        factory(duration=float(enc["duration"]), dt=float(enc["dt"]))


def test_solve_lookup_and_closed_loop(tmp_path):
    grid = micro_grid()
    table = caslab.backward_induction(
        grid, caslab.PilotModel(), caslab.IntruderModel(), caslab.RewardParams()
    )
    assert caslab.Grid().advisories == caslab.ADVISORIES
    rng = np.random.default_rng([7, 901])
    batch = 20
    h = rng.uniform(-1200.0, 1200.0, batch)
    r0, r1 = rng.uniform(-40.0, 40.0, batch), rng.uniform(-40.0, 40.0, batch)
    tau = rng.uniform(0.0, grid.tau_max, batch)
    ia = rng.integers(0, len(grid.advisories), batch)
    values = caslab.runtime.interpolate_many(table, h, r0, r1, tau, ia)
    assert values.shape == (batch, len(caslab.ADVISORIES))

    path = tmp_path / "table.acxt"
    caslab.write_table(table, path)
    copy = tmp_path / "copy.acxt"
    caslab.write_table(caslab.read_table(path), copy)
    assert copy.read_bytes() == path.read_bytes()

    model = caslab.default_correlated_model()
    pilot = caslab.PilotModel(response_probability=1.0)
    for i, (own, intruder) in enumerate(
        [("none", "none"), ("tcas", "none"), ("table", "none"), ("table", "table")]
    ):
        enc = caslab.build_encounter(model, np.random.default_rng([7, 903, i]))
        eq = caslab.Equipage(own=own, intruder=intruder, pilot=pilot, table=table)
        caslab.simulate_encounter(enc, eq, np.random.default_rng([7, 904, i]))


def test_cross_entropy_and_model_files(tmp_path):
    nominal = caslab.default_uncorrelated_model()
    eq = caslab.Equipage(own="tcas", intruder="none")
    proposal = caslab.evaluation.cross_entropy_adapt(nominal, nominal, eq, 1, 20, 0.3, 7)
    path = tmp_path / "proposal.json"
    caslab.write_model_file(proposal, path)
    model = caslab.read_model_file(path)
    assert all(np.all(np.isfinite(c)) for net in (model.initial_net, model.transition_net)
               for c in net.cpt)


def test_commands_with_the_config_keys_bench_writes(tmp_path):
    grid = {"h_cuts": [-1000.0, -100.0, 0.0, 100.0, 1000.0],
            "hdot_cuts": [-25.0, 0.0, 25.0], "tau_max": 4}
    table = str(tmp_path / "solve" / "table.acxt")
    solve = write_config(tmp_path / "solve.json", {
        "paths": {"table_file": table}, "grid": grid,
        "pilot": {"response_probability": 1.0},
        "rewards": {"alert_cost": -0.01, "strengthen_cost": -0.005, "reversal_cost": -0.02},
        "slice": {"hdot0": 0.0, "hdot1": 25.0, "a_prev": caslab.ADVISORIES[3].value},
    })
    evaluate = write_config(tmp_path / "evaluate.json", {
        "paths": {"table_file": table},
        "evaluation": {"n": 4, "equipage": ["table", "none"],
                       "pilot_response_probability": 1.0, "per_encounter_csv": True},
    })
    nominal = caslab.default_uncorrelated_model()
    proposal = tmp_path / "proposal.json"
    caslab.write_model_file(nominal, proposal)
    weighted = write_config(tmp_path / "weighted.json", {
        "paths": {"proposal_file": str(proposal)},
        "encounter": {"mode": "uncorrelated"},
        "evaluation": {"n": 4, "equipage": ["none", "none"]},
    })
    out = str(tmp_path / "solve")
    for argv in (
        ["optimize", "--config", solve, "--workers", "1", "--out", out],
        ["slice", "--config", solve, "--workers", "1", "--out", out],
        ["evaluate", "--config", evaluate, "--seed", "7", "--workers", "1",
         "--out", str(tmp_path / "eval")],
        ["evaluate", "--config", weighted, "--seed", "7", "--workers", "1",
         "--out", str(tmp_path / "weighted")],
    ):
        assert caslab.cli.main(argv) == 0, argv
    assert (tmp_path / "solve" / "slice.csv").exists()
    assert (tmp_path / "eval" / "per_encounter.csv").exists()

