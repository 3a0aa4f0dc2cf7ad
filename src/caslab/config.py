"""Run configuration handling.

A run config is one JSON document with an explicit schema version.  Loading
deep-merges the user document over the defaults (normalization), so every
run can write back its full effective config for reproducibility audits.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Advisory
from .dynamics import IntruderModel, PilotModel
from .encounters import CORRELATED, DEFAULT_DT_S, DEFAULT_DURATION_S, UNCORRELATED
from .evaluation import Equipage
from .optimizer import DEFAULT_H_CUTS, DEFAULT_RATE_CUTS, Grid, RewardParams, checked_cuts
from .tcas import TcasConfig

CONFIG_SCHEMA_VERSION = 1


def _defaults(obj, names=None) -> dict:
    """The named fields of a dataclass instance (every field when names is None)."""
    names = [f.name for f in fields(obj)] if names is None else names
    return {name: getattr(obj, name) for name in names}


# A block with an owning dataclass holds that dataclass's defaults, so each
# default has one definition.  The online block holds the Equipage
# low-altitude inhibit and belief settings.
DEFAULT_CONFIG = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "paths": {
        "model_file": None,
        "proposal_file": None,
        "table_file": None,
        "structure_file": None,
        "initial_samples_csv": None,
        "transition_samples_csv": None,
    },
    "grid": {
        "h_cuts": DEFAULT_H_CUTS.tolist(),
        "hdot_cuts": DEFAULT_RATE_CUTS.tolist(),
        "tau_max": Grid.tau_max,
    },
    "rewards": _defaults(RewardParams()),
    "pilot": _defaults(PilotModel()),
    "intruder": _defaults(IntruderModel()),
    "tcas": {k: v for k, v in _defaults(TcasConfig()).items() if k != "pilot"},
    "online": _defaults(Equipage(), ["inhibit_altitude", "belief_sigma_h", "belief_sigma_rate"]),
    "encounter": {
        "mode": CORRELATED,
        "duration": DEFAULT_DURATION_S,
        "dt": DEFAULT_DT_S,
    },
    "slice": {"hdot0": 0.0, "hdot1": 0.0, "a_prev": "COC"},
    "sample": {"count": 10},
    "simulate": {"index": 0},
    "evaluation": {
        "n": 1000,
        "seed": None,
        "equipage": ["table", "none"],
        "compare_unequipped": True,
        "per_encounter_csv": False,
        "pilot_response_probability": None,
    },
}


# The JSON type of each key whose default is null; null stays accepted there.
NULLABLE_TYPES = {
    **{f"paths.{key}": "a string" for key in DEFAULT_CONFIG["paths"]},
    "evaluation.seed": "an integer",
    "evaluation.pilot_response_probability": "a number",
}


class ConfigError(ValueError):
    pass


def _json_type(value) -> Optional[str]:
    for name, types in (("a boolean", bool), ("an integer", int), ("a number", float),
                        ("a string", str), ("an array", list), ("an object", dict)):
        if isinstance(value, types):
            return name
    return None


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge override over base; each value must have its default's JSON type.

    An integer passes where the default is a number, and a number must be
    finite: json.load accepts NaN and Infinity.  Where the default is null,
    the value is null or of the type NULLABLE_TYPES declares.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        nullable = base[key] is None
        expected = NULLABLE_TYPES[where] if nullable else _json_type(base[key])
        accepted = {expected, "an integer"} if expected == "a number" else {expected}
        if not (nullable and value is None) and _json_type(value) not in accepted:
            or_null = " or null" if nullable else ""
            raise ConfigError(f"{where} must be {expected}{or_null}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        if isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: Optional[str] = None) -> dict:
    """Parse and normalize a config file (or return pure defaults)."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not UTF-8 text: byte {err.start} cannot be decoded") from None
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {_json_type(user) or 'null'}")
    version = user.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema version: {version!r}")
    cfg = _deep_merge(DEFAULT_CONFIG, user)
    _check_grid(cfg["grid"])
    mode = cfg["encounter"]["mode"]
    if mode not in (CORRELATED, UNCORRELATED):
        raise ConfigError(f"encounter.mode must be {CORRELATED} or {UNCORRELATED}, got {mode!r}")
    return cfg


def _check_grid(g: dict) -> None:
    """Check the grid block at load, as Grid will, under its config keys.

    A bad grid is a malformed config for every command, not only optimize.
    """
    try:
        checked_cuts("grid.h_cuts", g["h_cuts"], zero=True)
        checked_cuts("grid.hdot_cuts", g["hdot_cuts"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if g["tau_max"] < 1:
        raise ConfigError(f"grid.tau_max must be an integer >= 1, got {g['tau_max']!r}")


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def write_effective_config(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "effective_config.json"
    path.write_text(dump_config(cfg))
    return path


def grid_from_config(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(
        h_cuts=np.asarray(g["h_cuts"], dtype=float),
        hdot0_cuts=np.asarray(g["hdot_cuts"], dtype=float),
        hdot1_cuts=np.asarray(g["hdot_cuts"], dtype=float),
        tau_max=g["tau_max"],
    )


def rewards_from_config(cfg: dict) -> RewardParams:
    return RewardParams(**cfg["rewards"])


def pilot_from_config(cfg: dict) -> PilotModel:
    return PilotModel(**cfg["pilot"])


def intruder_from_config(cfg: dict) -> IntruderModel:
    return IntruderModel(**cfg["intruder"])


def tcas_from_config(cfg: dict, pilot: PilotModel) -> TcasConfig:
    return TcasConfig(pilot=pilot, **cfg["tcas"])


def slice_fixed_from_config(cfg: dict) -> dict:
    s = cfg["slice"]
    return {
        "hdot0": float(s["hdot0"]),
        "hdot1": float(s["hdot1"]),
        "a_prev": Advisory(s["a_prev"]),
    }
