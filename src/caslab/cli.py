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
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import config as configmod
from .bayesnet import DiscreteBayesNet, fit_cpts
from .config import ConfigError
from .core import write_trace_csv
from .encounters import EncounterModel, ModelFormatError, read_model_file, write_model_file
from .evaluation import (
    CHUNK_ENCOUNTERS,
    LOGIC_NONE,
    LOGIC_TABLE,
    Equipage,
    _check_shared_structure,
    _report,
    _run_batch,
    risk_ratio,
    run_indexed_traces,
)
from .optimizer import backward_induction
from .runtime import policy_slice
from .tablefile import TableFormatError, read_table, write_table

E_CONFIG_NOT_FOUND = "E_CONFIG_NOT_FOUND"
E_CONFIG_INVALID = "E_CONFIG_INVALID"
E_MODEL_NOT_FOUND = "E_MODEL_NOT_FOUND"
E_MODEL_INVALID = "E_MODEL_INVALID"
E_TABLE_NOT_FOUND = "E_TABLE_NOT_FOUND"
E_TABLE_INVALID = "E_TABLE_INVALID"
E_SAMPLES_NOT_FOUND = "E_SAMPLES_NOT_FOUND"
E_SAMPLES_INVALID = "E_SAMPLES_INVALID"
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
        if args.workers < 1:
            raise CliError(E_CONFIG_INVALID, f"--workers must be an integer >= 1, got {args.workers}")
        cfg = _load_config(args.config, args.seed)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise CliError(E_CONFIG_INVALID, f"--out must name a directory, got {args.out} ({err.strerror})")
        seed = cfg["evaluation"]["seed"]
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


def _require_file(path: Optional[str], code: str, kind: str) -> str:
    """path, if it names a regular file; otherwise CliError(code)."""
    if path is None or not Path(path).exists():
        raise CliError(code, f"{kind} not found: {path}")
    if not Path(path).is_file():
        raise CliError(code, f"{kind} is not a file: {path}")
    return path


def _load_config(path: Optional[str], seed: Optional[int]) -> dict:
    """The checked config; seed, if given, replaces evaluation.seed and is checked too."""
    if path is not None:
        _require_file(path, E_CONFIG_NOT_FOUND, "config file")
    try:
        cfg = configmod.load_config(path)
        if seed is not None:
            cfg["evaluation"]["seed"] = seed
            configmod.check_config(cfg)
    except (ConfigError, json.JSONDecodeError) as err:
        raise CliError(E_CONFIG_INVALID, str(err))
    return cfg


def _require_seed(seed) -> int:
    if seed is None:
        raise CliError(E_SEED_REQUIRED, "stochastic commands require --seed (or evaluation.seed)")
    return seed


def _load_model(cfg: dict) -> EncounterModel:
    path = cfg["paths"]["model_file"]
    if path is not None:
        return _read_model(path, "model file", fitted=True)
    return configmod.encounter_model_from_config(cfg)


def _read_model(path: str, kind: str, fitted: bool) -> EncounterModel:
    """The model file at path; fitted requires CPTs in both networks."""
    _require_file(path, E_MODEL_NOT_FOUND, kind)
    try:
        model = read_model_file(path)
    except ModelFormatError as err:
        raise CliError(E_MODEL_INVALID, str(err))
    if fitted and not (model.initial_net.is_fitted and model.transition_net.is_fitted):
        raise CliError(E_MODEL_INVALID, f"{path}: {kind} has networks without fitted CPTs")
    return model


def _load_proposal(cfg: dict, nominal: EncounterModel) -> Optional[EncounterModel]:
    """The configured IS proposal, checked against the nominal model, or None."""
    path = cfg["paths"]["proposal_file"]
    if path is None:
        return None
    proposal = _read_model(path, "proposal file", fitted=True)
    try:
        _check_shared_structure(nominal, proposal)
    except ValueError as err:
        raise CliError(E_MODEL_INVALID, f"{path}: {err}") from None
    return proposal


def _load_table(cfg: dict):
    path = _require_file(cfg["paths"]["table_file"], E_TABLE_NOT_FOUND, "table file")
    try:
        return read_table(path)
    except TableFormatError as err:
        raise CliError(E_TABLE_INVALID, str(err))


def _fit_binned_csv(path: Optional[str], structure: DiscreteBayesNet) -> DiscreteBayesNet:
    """Fit structure's CPTs to a CSV of bin indices, one column per node."""
    _require_file(path, E_SAMPLES_NOT_FOUND, "binned-sample CSV")
    nodes = list(structure.nodes)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            if header != nodes:
                raise CliError(E_SAMPLES_INVALID, f"{path}: columns {header} != nodes {nodes}")
            rows = []
            for row in reader:
                try:
                    if len(row) != len(nodes):
                        raise ValueError(f"{len(row)} cells, expected {len(nodes)}")
                    rows.append([int(v) for v in row])
                except ValueError as err:
                    raise CliError(E_SAMPLES_INVALID, f"{path} line {reader.line_num}: {err}")
    except UnicodeDecodeError:
        raise CliError(E_SAMPLES_INVALID, f"{path}: not UTF-8 text") from None
    try:
        return fit_cpts(structure, rows)
    except (OverflowError, ValueError) as err:  # a bin index outside its node's bins
        raise CliError(E_SAMPLES_INVALID, f"{path}: {err}")


def _cmd_fit(cfg: dict, out_dir: Path, seed, workers) -> None:
    # The fitted model keeps the skeleton's structure, mode and run geometry.
    structure_path = cfg["paths"]["structure_file"]
    if structure_path is not None:
        skeleton = _read_model(structure_path, "structure file", fitted=False)
    else:
        skeleton = configmod.encounter_model_from_config(cfg)
    model = replace(
        skeleton,
        initial_net=_fit_binned_csv(cfg["paths"]["initial_samples_csv"], skeleton.initial_net),
        transition_net=_fit_binned_csv(cfg["paths"]["transition_samples_csv"], skeleton.transition_net),
    )
    write_model_file(model, out_dir / "model.json")


def _cmd_sample(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model = _load_model(cfg)
    eq = Equipage()
    for start in range(0, cfg["sample"]["count"], CHUNK_ENCOUNTERS):
        indices = range(cfg["sample"]["count"])[start:start + CHUNK_ENCOUNTERS]
        trace = run_indexed_traces(model, eq, seed, indices)
        for b, i in enumerate(indices):
            write_trace_csv(trace, b, out_dir / f"encounter_{i:04d}.csv")


def _cmd_optimize(cfg: dict, out_dir: Path, seed, workers) -> None:
    grid = configmod.grid_from_config(cfg)
    pilot = configmod.pilot_from_config(cfg)
    intruder = configmod.intruder_from_config(cfg)
    rewards = configmod.rewards_from_config(cfg)
    write_table(backward_induction(grid, pilot, intruder, rewards), out_dir / "table.acxt")


def _model_and_equipage(cfg: dict) -> Tuple[EncounterModel, Equipage]:
    """The configured model and equipage; a table side needs the table's 1 s step."""
    model = _load_model(cfg)
    own, intruder = cfg["evaluation"]["equipage"]
    table = _load_table(cfg) if LOGIC_TABLE in (own, intruder) else None
    pilot = configmod.evaluation_pilot_from_config(cfg)
    eq = Equipage(own=own, intruder=intruder, pilot=pilot, table=table,
                  tcas=configmod.tcas_from_config(cfg, pilot), **cfg["online"])
    if table is not None and model.dt != 1.0:
        path = cfg["paths"]["model_file"]
        if path is not None:
            raise CliError(E_MODEL_INVALID, f"{path}: dt is {model.dt}, but table logic assumes a 1 s step")
        raise CliError(E_CONFIG_INVALID, f"encounter.dt must be 1 with a table side, got {model.dt}")
    return model, eq


def _cmd_simulate(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model, eq = _model_and_equipage(cfg)
    trace = run_indexed_traces(model, eq, seed, [cfg["simulate"]["index"]])
    write_trace_csv(trace, 0, out_dir / "trace.csv")


def _cmd_evaluate(cfg: dict, out_dir: Path, seed, workers) -> None:
    seed = _require_seed(seed)
    model, eq = _model_and_equipage(cfg)
    proposal = _load_proposal(cfg, model)
    equipages = [eq]
    if proposal is None and (eq.own, eq.intruder) != (LOGIC_NONE, LOGIC_NONE):
        equipages.append(Equipage(pilot=eq.pilot))
    # Every encounter is built once; the equipped logic and the unequipped
    # baseline fly over the same built encounter.
    sampler, nominal = (model, None) if proposal is None else (proposal, model)
    outcome = _run_batch(sampler, equipages, range(cfg["evaluation"]["n"]), seed, workers, nominal)
    metrics = _metrics_json(outcome, cfg["evaluation"]["equipage"], weighted=proposal is not None)
    (out_dir / "metrics.json").write_text(metrics)
    if cfg["evaluation"]["per_encounter_csv"]:
        _write_outcomes(out_dir / "per_encounter.csv", outcome)


def _metrics_json(outcome: np.ndarray, equipage: list, weighted: bool) -> str:
    """metrics.json's text from the OUTCOME records alone: the equipage's, then any baseline's."""
    report = _report(outcome[0], weighted)
    payload = asdict(report)
    del payload["weighted"]
    payload.update(schema_version=1, equipage=list(equipage))
    if len(outcome) > 1:
        baseline = _report(outcome[1], weighted)
        for key in ("p_nmac", "p_nmac_se", "p_nmac_upper95"):
            payload["baseline_" + key] = getattr(baseline, key)
        if baseline.p_nmac > 0:
            ratio = risk_ratio(report, baseline)
            payload.update(risk_ratio=ratio.value, risk_ratio_se=ratio.se)
        else:
            payload["risk_ratio_omitted"] = "the unequipped baseline saw no NMAC"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_outcomes(path: Path, outcome: np.ndarray) -> None:
    """per_encounter.csv: index, the equipage's OUTCOME fields, then any baseline's.

    A baseline's fields carry a baseline_ prefix; the log_weight both share is written once.
    """
    header, columns = ["index"], [range(outcome.shape[1])]
    for prefix, records in zip(("", "baseline_"), outcome):
        for name in records.dtype.names:
            if not (prefix and name == "log_weight"):
                header.append(prefix + name)
                columns.append(records[name].tolist())
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        # tolist() gives Python ints and floats, which csv writes as their repr.
        writer.writerows(zip(*columns))


def _cmd_slice(cfg: dict, out_dir: Path, seed, workers) -> None:
    table = _load_table(cfg)
    fixed = configmod.slice_fixed_from_config(cfg)
    try:
        matrix = policy_slice(table, fixed)
    except ValueError as err:  # a slice rate that is not one of the table's cuts
        raise CliError(E_CONFIG_INVALID, f"slice.{err}") from None
    grid = table.grid
    with open(out_dir / "slice.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["h"] + [f"tau_{t}" for t in range(grid.tau_max + 1)])
        for ih, h in enumerate(grid.h_cuts):
            writer.writerow([repr(float(h))] + [matrix[itau, ih].value for itau in range(grid.tau_max + 1)])


if __name__ == "__main__":
    sys.exit(main())
