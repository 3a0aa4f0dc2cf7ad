"""Run configuration handling.

A run config is one JSON document with an explicit schema version.  Loading
deep-merges the user document over the defaults (normalization), so every
run can write back its full effective config for reproducibility audits,
and checks every block by building the object that uses it, so every
command reaches the same verdict on a document.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

from .core import ADVISORIES, SEED_LIMIT, Advisory
from .dynamics import IntruderModel, PilotModel
from .encounters import (
    CORRELATED,
    DEFAULT_DT_S,
    DEFAULT_DURATION_S,
    EncounterModel,
    default_correlated_model,
)
from .evaluation import Equipage, check_logic_kinds
from .optimizer import DEFAULT_H_CUTS, DEFAULT_RATE_CUTS, Grid, RewardParams
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

# The range of each integer setting that no object owns.  A seed and an
# encounter index are each one uint64 coordinate of the generator's key.
INTEGER_RANGES = {
    "evaluation.n": (1, math.inf),
    "evaluation.seed": (0, SEED_LIMIT),
    "sample.count": (0, math.inf),
    "simulate.index": (0, SEED_LIMIT),
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
    finite: json.load accepts NaN and Infinity, and integers no float holds.
    Where the default is null, the value is null or of the type
    NULLABLE_TYPES declares.
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
        if expected == "a number" and value is not None and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite, got {value!r}")
        if isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: Optional[str] = None) -> dict:
    """Parse, normalize and check a config file (or return pure defaults)."""
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
    check_config(cfg)
    return cfg


def check_config(cfg: dict) -> None:
    """Refuse what any command would refuse, by building the object each block configures.

    Checks that need a command's other inputs (a table's cuts, a table
    side's 1 s step, the files the config names) stay with that command.
    """
    for key, (low, limit) in INTEGER_RANGES.items():
        block, name = key.split(".")
        value = cfg[block][name]  # null only for a seed left to --seed
        if value is not None and not low <= value < limit:
            bound = f"an integer >= {low}" if value < low else "below 2**64"
            raise ConfigError(f"{key} must be {bound}, got {value}")
    _checked("grid", grid_from_config, cfg, hdot0_cuts="grid.hdot_cuts", hdot1_cuts="grid.hdot_cuts")
    _checked("rewards", rewards_from_config, cfg)
    _checked("pilot", pilot_from_config, cfg)
    pilot = _checked("evaluation", evaluation_pilot_from_config, cfg,
                     response_probability="evaluation.pilot_response_probability")
    _checked("intruder", intruder_from_config, cfg)
    tcas = _checked("tcas", lambda c: tcas_from_config(c, pilot), cfg)
    _checked("online", lambda c: Equipage(pilot=pilot, tcas=tcas, **c["online"]), cfg)
    _checked("encounter", encounter_model_from_config, cfg)
    _checked("slice", slice_fixed_from_config, cfg)
    _checked("evaluation", lambda c: check_logic_kinds(c["evaluation"]["equipage"]), cfg)


def _checked(block: str, build, cfg: dict, **keys):
    """build(cfg), with a ValueError it raises as a ConfigError that names the key.

    The error begins with the field it refuses; keys maps a field to a key outside block.
    """
    try:
        return build(cfg)
    except ValueError as err:
        name, _, rest = str(err).partition(" ")
        raise ConfigError(f"{keys.get(name, f'{block}.{name}')} {rest}") from None


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def write_effective_config(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "effective_config.json"
    path.write_text(dump_config(cfg))
    return path


def grid_from_config(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(h_cuts=g["h_cuts"], hdot0_cuts=g["hdot_cuts"], hdot1_cuts=g["hdot_cuts"],
                tau_max=g["tau_max"])


def rewards_from_config(cfg: dict) -> RewardParams:
    return RewardParams(**cfg["rewards"])


def pilot_from_config(cfg: dict) -> PilotModel:
    return PilotModel(**cfg["pilot"])


def evaluation_pilot_from_config(cfg: dict) -> PilotModel:
    """The pilot evaluate and simulate fly, with evaluation.pilot_response_probability if set."""
    pilot = pilot_from_config(cfg)
    p = cfg["evaluation"]["pilot_response_probability"]
    return pilot if p is None else replace(pilot, response_probability=float(p))


def intruder_from_config(cfg: dict) -> IntruderModel:
    return IntruderModel(**cfg["intruder"])


def tcas_from_config(cfg: dict, pilot: PilotModel) -> TcasConfig:
    return TcasConfig(pilot=pilot, **cfg["tcas"])


def encounter_model_from_config(cfg: dict) -> EncounterModel:
    """The bundled model of the encounter block: its mode, duration and dt."""
    enc = cfg["encounter"]
    model = default_correlated_model(duration=float(enc["duration"]), dt=float(enc["dt"]))
    return replace(model, mode=enc["mode"])


def slice_fixed_from_config(cfg: dict) -> dict:
    s = cfg["slice"]
    try:
        a_prev = Advisory(s["a_prev"])
    except ValueError:
        names = ", ".join(a.value for a in ADVISORIES)
        raise ValueError(f"a_prev must name an advisory ({names}), got {s['a_prev']!r}") from None
    return {"hdot0": float(s["hdot0"]), "hdot1": float(s["hdot1"]), "a_prev": a_prev}
