"""Command-line front end wiring the pipeline.

Commands: fit, sample, optimize, simulate, evaluate, slice.  Every run
writes its effective config beside its outputs; failures exit 2 with a
single machine-parsable ``E_*: detail`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import config as configmod
from .bayesnet import fit_cpts
from .config import ConfigError
from .core import write_trace_csv
from .encounters import (
    CORRELATED,
    EncounterModel,
    default_correlated_model,
    default_structure,
    default_uncorrelated_model,
    read_model_file,
    write_model_file,
)
from .evaluation import (
    CHUNK_ENCOUNTERS,
    Equipage,
    _chunks,
    _report,
    _run_batch,
    risk_ratio,
    run_indexed_encounter,
    run_indexed_traces,
)
from .optimizer import backward_induction, policy_slice
from .tablefile import TableFormatError, read_table, write_table

E_CONFIG_NOT_FOUND = "E_CONFIG_NOT_FOUND"
E_CONFIG_INVALID = "E_CONFIG_INVALID"
E_MODEL_NOT_FOUND = "E_MODEL_NOT_FOUND"
E_TABLE_NOT_FOUND = "E_TABLE_NOT_FOUND"
E_TABLE_INVALID = "E_TABLE_INVALID"
E_SAMPLES_NOT_FOUND = "E_SAMPLES_NOT_FOUND"
E_SEED_REQUIRED = "E_SEED_REQUIRED"
E_RUN_FAILED = "E_RUN_FAILED"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caslab",
        description="Collision avoidance logic laboratory",
    )
    parser.add_argument("command", choices=["fit", "sample", "optimize", "simulate", "evaluate", "slice"])
    parser.add_argument("--config", default=None, help="run config JSON (defaults used when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="root seed for stochastic commands")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers for evaluate")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg["evaluation"]["seed"]
        if seed is not None:
            cfg["evaluation"]["seed"] = int(seed)
        handler = {
            "fit": _cmd_fit,
            "sample": _cmd_sample,
            "optimize": _cmd_optimize,
            "simulate": _cmd_simulate,
            "evaluate": _cmd_evaluate,
            "slice": _cmd_slice,
        }[args.command]
        handler(cfg, out_dir, seed, args.workers)
        configmod.write_effective_config(cfg, out_dir)
    except CliError as err:
        print(f"{err.code}: {err.message}", file=sys.stderr)
        return 2
    except Exception as err:  # contract: single-line machine-parsable failure
        detail = " ".join(str(err).split()) or type(err).__name__
        print(f"{E_RUN_FAILED}: {detail}", file=sys.stderr)
        return 2
    return 0


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return configmod.load_config(None)
    if not Path(path).exists():
        raise CliError(E_CONFIG_NOT_FOUND, f"config file not found: {path}")
    try:
        return configmod.load_config(path)
    except (ConfigError, json.JSONDecodeError) as err:
        raise CliError(E_CONFIG_INVALID, str(err))


def _require_seed(seed) -> int:
    if seed is None:
        raise CliError(E_SEED_REQUIRED, "stochastic commands require --seed (or evaluation.seed)")
    return int(seed)


def _load_model(cfg: dict) -> EncounterModel:
    path = cfg["paths"]["model_file"]
    if path is not None:
        if not Path(path).exists():
            raise CliError(E_MODEL_NOT_FOUND, f"model file not found: {path}")
        return read_model_file(path)
    enc = cfg["encounter"]
    if not enc["use_default_model"]:
        raise CliError(E_MODEL_NOT_FOUND, "no model_file configured and default model disabled")
    factory = default_correlated_model if enc["mode"] == CORRELATED else default_uncorrelated_model
    return factory(duration=float(enc["duration"]), dt=float(enc["dt"]))


def _load_table(cfg: dict):
    path = cfg["paths"]["table_file"]
    if path is None or not Path(path).exists():
        raise CliError(E_TABLE_NOT_FOUND, f"table file not found: {path}")
    try:
        return read_table(path)
    except TableFormatError as err:
        raise CliError(E_TABLE_INVALID, str(err))


def _equipage(cfg: dict) -> Equipage:
    own, intruder = cfg["evaluation"]["equipage"]
    table = _load_table(cfg) if "table" in (own, intruder) else None
    pilot = configmod.pilot_from_config(cfg)
    p_override = cfg["evaluation"]["pilot_response_probability"]
    if p_override is not None:
        pilot = replace(pilot, response_probability=float(p_override))
    online = cfg["online"]
    return Equipage(
        own=own,
        intruder=intruder,
        pilot=pilot,
        table=table,
        tcas=configmod.tcas_from_config(cfg, pilot),
        context=configmod.context_from_config(cfg),
        belief_sigma_h=float(online["belief_sigma_h"]),
        belief_sigma_rate=float(online["belief_sigma_rate"]),
        belief_particles=int(online["belief_particles"]),
    )


def _read_binned_csv(path: Optional[str], nodes) -> np.ndarray:
    if path is None or not Path(path).exists():
        raise CliError(E_SAMPLES_NOT_FOUND, f"binned-sample CSV not found: {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != list(nodes):
            raise CliError(E_CONFIG_INVALID, f"sample CSV columns {header} != nodes {list(nodes)}")
        rows = [[int(v) for v in row] for row in reader]
    return np.asarray(rows, dtype=int).reshape(len(rows), len(nodes))


def _cmd_fit(cfg: dict, out_dir: Path, seed, workers) -> None:
    structure_path = cfg["paths"]["structure_file"]
    enc = cfg["encounter"]
    if structure_path is not None:
        if not Path(structure_path).exists():
            raise CliError(E_MODEL_NOT_FOUND, f"structure file not found: {structure_path}")
        skeleton = read_model_file(structure_path)
        initial_s, transition_s = skeleton.initial_net, skeleton.transition_net
        mode, duration, dt = skeleton.mode, skeleton.duration, skeleton.dt
    else:
        initial_s, transition_s = default_structure()
        mode, duration, dt = enc["mode"], float(enc["duration"]), float(enc["dt"])
    initial_data = _read_binned_csv(cfg["paths"]["initial_samples_csv"], initial_s.nodes)
    transition_data = _read_binned_csv(
        cfg["paths"]["transition_samples_csv"], transition_s.nodes
    )
    model = EncounterModel(
        initial_net=fit_cpts(initial_s, initial_data),
        transition_net=fit_cpts(transition_s, transition_data),
        mode=mode,
        duration=duration,
        dt=dt,
    )
    write_model_file(model, out_dir / "model.json")


def _cmd_sample(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model = _load_model(cfg)
    eq = Equipage()
    for indices in _chunks(0, int(cfg["sample"]["count"]), CHUNK_ENCOUNTERS):
        for i, trace in zip(indices, run_indexed_traces(model, eq, seed, indices)):
            write_trace_csv(trace, out_dir / f"encounter_{i:04d}.csv")


def _cmd_optimize(cfg: dict, out_dir: Path, seed, workers) -> None:
    table = backward_induction(
        configmod.grid_from_config(cfg),
        configmod.pilot_from_config(cfg),
        configmod.intruder_from_config(cfg),
        configmod.rewards_from_config(cfg),
    )
    write_table(table, out_dir / "table.acxt")


def _cmd_simulate(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model = _load_model(cfg)
    eq = _equipage(cfg)
    index = int(cfg["simulate"]["index"])
    _, trace, _ = run_indexed_encounter(model, eq, seed, index)
    write_trace_csv(trace, out_dir / "trace.csv")


def _cmd_evaluate(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model = _load_model(cfg)
    eq = _equipage(cfg)
    n = int(cfg["evaluation"]["n"])
    proposal_path = cfg["paths"]["proposal_file"]
    proposal = None
    if proposal_path is not None:
        if not Path(proposal_path).exists():
            raise CliError(E_MODEL_NOT_FOUND, f"proposal file not found: {proposal_path}")
        proposal = read_model_file(proposal_path)
    equipages = [eq]
    compare = cfg["evaluation"]["compare_unequipped"] and proposal is None
    if compare:
        equipages.append(Equipage(pilot=eq.pilot))
    # Every encounter is built once; the equipped logic and the unequipped
    # baseline fly over the same built encounter.
    if proposal is None:
        outcomes = _run_batch(model, equipages, n, seed, workers, nominal=None)
    else:
        outcomes = _run_batch(proposal, equipages, n, seed, workers, nominal=model)
    report = _report(outcomes[0], weighted=proposal is not None)
    payload = {
        "schema_version": 1,
        "equipage": list(cfg["evaluation"]["equipage"]),
        "n": report.n,
        "p_nmac": report.p_nmac,
        "p_nmac_se": report.p_nmac_se,
        "alert_rate": report.alert_rate,
        "strengthen_rate": report.strengthen_rate,
        "reversal_rate": report.reversal_rate,
        "crossing_rate": report.crossing_rate,
        "effective_sample_size": report.effective_sample_size,
    }
    if compare:
        baseline = _report(outcomes[1], weighted=False)
        payload["baseline_p_nmac"] = baseline.p_nmac
        payload["baseline_p_nmac_se"] = baseline.p_nmac_se
        if baseline.p_nmac > 0:
            ratio = risk_ratio(report, baseline)
            payload["risk_ratio"] = ratio.value
            payload["risk_ratio_se"] = ratio.se
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if cfg["evaluation"]["per_encounter_csv"]:
        with open(out_dir / "per_encounter.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["index", "nmac", "alert", "strengthen", "reversal", "crossing",
                 "severity", "log_weight"]
            )
            for i, o in enumerate(outcomes[0]):
                writer.writerow(
                    [i, int(o.nmac), int(o.alert), int(o.strengthen), int(o.reversal),
                     int(o.crossing), repr(o.severity), repr(o.log_weight)]
                )


def _cmd_slice(cfg: dict, out_dir: Path, seed, workers) -> None:
    table = _load_table(cfg)
    fixed = configmod.slice_fixed_from_config(cfg)
    try:
        matrix = policy_slice(table, fixed)
    except ValueError as err:
        raise CliError(E_CONFIG_INVALID, str(err))
    grid = table.grid
    with open(out_dir / "slice.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["h"] + [f"tau_{t}" for t in range(grid.tau_max + 1)])
        for ih, h in enumerate(grid.h_cuts):
            writer.writerow([repr(float(h))] + [matrix[itau, ih].value for itau in range(grid.tau_max + 1)])


if __name__ == "__main__":
    sys.exit(main())
