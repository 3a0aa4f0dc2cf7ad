"""Bayesian-network airspace encounter models.

An encounter model pairs an initial-state network with a dynamic (two-slice)
network.  Correlated models draw both aircraft jointly; uncorrelated models
draw two independent samples and combine them with a horizontal placement
rule.  A sampled chunk is one EncounterBatch of arrays.  Every encounter
shares one frame: the ownship starts at the origin with heading 0, and the
intruder flies heading pi.  Every CPT draw is recorded so trace likelihoods
(and importance weights) can be recomputed exactly at the bin level.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .bayesnet import (
    DiscreteBayesNet,
    ancestral_sample_many,
    log_prob_bins,
    net_from_dict,
    net_to_dict,
)
from .core import NMAC_HORIZONTAL_FT

NEXT_SUFFIX = "_next"

CORRELATED = "correlated"
UNCORRELATED = "uncorrelated"

# Variable names the encounter assembly expects in the initial net.
VAR_ALT = "alt_layer"
VAR_OWN_VRATE = "own_vrate"
VAR_INT_VRATE = "int_vrate"
VAR_CLOSURE = "closure"
VAR_TAU0 = "tau0"
REQUIRED_VARS = (VAR_ALT, VAR_OWN_VRATE, VAR_INT_VRATE, VAR_CLOSURE, VAR_TAU0)

# Loss-of-separation threshold tying encounter geometry to the grid's tau.
SEPARATION_THRESHOLD_FT = NMAC_HORIZONTAL_FT

# Run geometry of the bundled default models (s).
DEFAULT_DURATION_S = 50.0
DEFAULT_DT_S = 1.0

# Version 2: the transition net's t slice is given (bins, no parents, no CPT).
MODEL_SCHEMA_VERSION = 2

# The frame every encounter is placed in: ownship start (ft) and the
# headings (rad) of the ownship and the intruder.
OWN_POS0 = (0.0, 0.0)
HEADINGS = (0.0, math.pi)


class ModelFormatError(ValueError):
    """A model file that does not hold a valid encounter model."""


class LikelihoodSupportWarning(UserWarning):
    """A trace contains a bin with zero probability under the scoring model."""


@dataclass(frozen=True)
class EncounterModel:
    """Initial-state net, two-slice transition net, and run geometry."""

    initial_net: DiscreteBayesNet
    transition_net: DiscreteBayesNet
    mode: str
    duration: float
    dt: float

    def __post_init__(self) -> None:
        if self.mode not in (CORRELATED, UNCORRELATED):
            raise ValueError(f"mode must be correlated or uncorrelated, got {self.mode!r}")
        for name in ("duration", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in REQUIRED_VARS:
            if name not in self.initial_net.nodes:
                raise ValueError(f"model is missing required variable {name!r}")
        steps = self.duration / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(
                f"duration must be a whole number of {self.dt!r} s steps, got {self.duration!r}")
        if round(steps) < 1:
            raise ValueError(f"duration must hold at least one {self.dt!r} s step, got {self.duration!r}")
        if self.initial_net.given:
            raise ValueError("initial net must draw every node; it has no given nodes")
        n = len(self.initial_net.nodes)
        if self.transition_net.given != n or self.transition_net.nodes[:n] != self.initial_net.nodes:
            raise ValueError("transition net's given t-variables must be the initial net's nodes")
        for i in range(n):
            if not np.array_equal(self.transition_net.bins[i], self.initial_net.bins[i]):
                raise ValueError("transition net t-variable bins must match the initial net")
        for j in range(n, len(self.transition_net.nodes)):
            name = self.transition_net.nodes[j]
            if not name.endswith(NEXT_SUFFIX):
                raise ValueError(f"extra transition node {name!r} must end with {NEXT_SUFFIX!r}")
            base = name[: -len(NEXT_SUFFIX)]
            if base not in self.initial_net.nodes:
                raise ValueError(f"next-slice node {name!r} has no base variable")
            bi = self.initial_net.node_index(base)
            if not np.array_equal(self.transition_net.bins[j], self.initial_net.bins[bi]):
                raise ValueError(f"next-slice node {name!r} bins must match its base variable")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def uniforms_per_encounter(self) -> int:
        """Width of the block of uniforms build_encounters reads per encounter.

        At most a bin and a value uniform per draw, plus two for an
        uncorrelated placement.
        """
        n_init = len(self.initial_net.nodes)
        n_next = len(self.transition_net.nodes) - n_init
        per_trajectory = 2 * n_init + 2 * n_next * (self.n_steps - 1)
        return per_trajectory if self.mode == CORRELATED else 2 * per_trajectory + 2

    @property
    def next_node_map(self) -> Tuple[Tuple[int, int], ...]:
        """Pairs of (transition-net node index, initial-net base index)."""
        n = len(self.initial_net.nodes)
        pairs = []
        for j in range(n, len(self.transition_net.nodes)):
            base = self.transition_net.nodes[j][: -len(NEXT_SUFFIX)]
            pairs.append((j, self.initial_net.node_index(base)))
        return tuple(pairs)


@dataclass(frozen=True)
class EncounterBatch:
    """A chunk of B sampled encounters, as arrays.

    Every encounter has the same frame: the ownship starts at the origin
    (OWN_POS0) with heading 0 and the intruder flies heading pi (HEADINGS),
    both straight and level in the horizontal.  On an aircraft axis of
    length 2, index 0 is the ownship and 1 the intruder.

    vrate (B, 2, n_steps) holds the vertical-rate commands, piecewise
    constant over each step; speed (B, 2) the ground speeds; int_pos0 (B, 2)
    the intruder's start; alt0 (B, 2) the start altitudes.  initial_bins
    (R, B, n_init) and transition_rows (R, B, n_steps - 1, n_transition)
    hold the bin indices of every CPT draw, which trace_log_likelihoods
    scores, one record per trajectory sample: R is 1 for a correlated model
    and 2 for an uncorrelated one.  transition_rows has the narrowest
    unsigned type that holds the model's bin indices.
    """

    dt: float
    vrate: np.ndarray
    speed: np.ndarray
    int_pos0: np.ndarray
    alt0: np.ndarray
    initial_bins: np.ndarray
    transition_rows: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.vrate.shape[-1]

    def __len__(self) -> int:
        return len(self.vrate)


def _sample_trajectories(
    model: EncounterModel, u: np.ndarray, cursor: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trajectory (initial state plus command chain) per row of u.

    Each step draws the transition net over the batch, and its bins go to
    rows (B, n_steps - 1, n_transition).  Returns the initial bins and
    values (B, n) and the own and intruder rate commands (B, 2, n_steps).
    """
    init_net, trans_net = model.initial_net, model.transition_net
    batch, n, n_steps = len(u), len(init_net.nodes), model.n_steps
    bins = np.zeros((batch, n), dtype=int)
    values = np.full((batch, n), np.nan)
    ancestral_sample_many(init_net, u, cursor, bins, values)
    init_bins, init_values = bins.copy(), values.copy()
    rates = [init_net.node_index(VAR_OWN_VRATE), init_net.node_index(VAR_INT_VRATE)]
    cmds = np.empty((batch, 2, n_steps))
    cmds[:, :, 0] = values[:, rates]
    base = [i for _, i in model.next_node_map]
    next_values = np.full((batch, len(trans_net.nodes)), np.nan)
    for k in range(1, n_steps):
        row = rows[:, k - 1]
        row[:, :n] = bins
        ancestral_sample_many(trans_net, u, cursor, row, next_values)
        bins[:, base] = row[:, n:]
        values[:, base] = next_values[:, n:]
        cmds[:, :, k] = values[:, rates]
    return init_bins, init_values, cmds


def build_encounters(model: EncounterModel, u: np.ndarray) -> EncounterBatch:
    """Sample one encounter from each row of u, the whole chunk at once.

    Correlated mode draws one joint trajectory pair on a head-on collision
    course whose separation is lost at the sampled tau0.  Uncorrelated mode
    draws two independent trajectories and translates the intruder so its
    straight relative track passes a uniformly drawn miss distance (< 500
    ft) from the ownship at a uniformly drawn time in the run.

    u is (B, model.uniforms_per_encounter) uniforms in [0, 1), one row per
    encounter.  Every draw reads the row's next uniform for a bin and, for
    a bin with width, one more for lo + (hi - lo) * u, so an encounter
    depends only on its own row, never on the rest of the chunk.
    """
    correlated = model.mode == CORRELATED
    n_init = len(model.initial_net.nodes)
    n_next = len(model.transition_net.nodes) - n_init
    width = model.uniforms_per_encounter
    if u.ndim != 2 or u.shape[1] != width:
        raise ValueError(f"expected a (B, {width}) block of uniforms, got shape {u.shape}")
    cursor = np.zeros(len(u), dtype=int)
    # One record of transition-net rows per trajectory sampled, in the
    # narrowest type that holds every bin index: most of a batch's bytes.
    shape = (1 if correlated else 2, len(u), model.n_steps - 1, n_init + n_next)
    n_bins = max(map(model.transition_net.n_bins, range(n_init + n_next)))
    transition_rows = np.zeros(shape, dtype=np.min_scalar_type(n_bins - 1))
    trajectories = [_sample_trajectories(model, u, cursor, rows) for rows in transition_rows]
    if not correlated:
        batch = np.arange(len(u))
        t_u, miss_u = u[batch, cursor], u[batch, cursor + 1]

    initial_bins = np.stack([bins for bins, _, _ in trajectories])
    # Ownship variables from the first trajectory, intruder variables from
    # the last (the same one in correlated mode).
    _, own, own_cmds = trajectories[0]
    _, intr, int_cmds = trajectories[-1]
    index = model.initial_net.node_index
    closure, tau0, alt = index(VAR_CLOSURE), index(VAR_TAU0), index(VAR_ALT)
    own_speed, int_speed = own[:, closure] / 2.0, intr[:, closure] / 2.0
    if correlated:
        int_pos0 = np.stack(
            [SEPARATION_THRESHOLD_FT + own[:, closure] * own[:, tau0], np.zeros(len(u))], axis=1
        )
    else:
        # The relative velocity is (vr, 0), so its unit vector is (+-1, 0)
        # and the normal to the relative track is (-0.0, +-1), or (1, 0)
        # when the pair does not close.
        vr = -int_speed - own_speed
        moving = vr != 0.0
        nhat_x, nhat_y = np.where(moving, -0.0, 1.0), np.sign(vr)
        # uniform(0, duration) and uniform(0, 500 ft).
        t_star = model.duration * t_u
        miss = NMAC_HORIZONTAL_FT * miss_u
        int_pos0 = np.stack([nhat_x * miss - vr * t_star, nhat_y * miss], axis=1)
    return EncounterBatch(
        dt=model.dt,
        vrate=np.stack([own_cmds[:, 0], int_cmds[:, 1]], axis=1),
        speed=np.stack([own_speed, int_speed], axis=1),
        int_pos0=int_pos0,
        alt0=np.stack([own[:, alt], intr[:, alt]], axis=1),
        initial_bins=initial_bins,
        transition_rows=transition_rows,
    )


def build_encounter(model: EncounterModel, rng: np.random.Generator) -> EncounterBatch:
    """Sample a complete encounter: build_encounters on a chunk of one, fed by rng."""
    return build_encounters(model, rng.random((1, model.uniforms_per_encounter)))


def _check_records(model: EncounterModel, enc: EncounterBatch) -> None:
    if len(enc.initial_bins) != (1 if model.mode == CORRELATED else 2):
        raise ValueError("encounter draw records do not match the model mode")
    if enc.n_steps != model.n_steps:
        raise ValueError("encounter length does not match the model duration")
    if enc.transition_rows.shape[2:] != (model.n_steps - 1, len(model.transition_net.nodes)):
        raise ValueError("transition rows do not match the model networks")


def trace_log_likelihood(model: EncounterModel, enc: EncounterBatch) -> float:
    """Bin-level log-likelihood of a sampled encounter (a batch of one) under a model.

    Within-bin densities are uniform and cancel between models sharing the
    same bins, so only CPT bin probabilities are scored.  A zero-probability
    bin yields -inf and raises LikelihoodSupportWarning.
    """
    _check_records(model, enc)
    if len(enc) != 1:
        raise ValueError("trace_log_likelihood scores a batch of one encounter")
    total = 0.0
    for initial_bins, transition_rows in zip(enc.initial_bins[:, 0], enc.transition_rows[:, 0]):
        lp = log_prob_bins(model.initial_net, initial_bins)
        for row in transition_rows:
            if not math.isfinite(lp):
                break
            lp += log_prob_bins(model.transition_net, row)
        if not math.isfinite(lp):
            warnings.warn(
                "encounter contains a zero-probability bin under the scoring model",
                LikelihoodSupportWarning,
            )
            return -math.inf
        total += lp
    return total


def trace_log_likelihoods(model: EncounterModel, enc: EncounterBatch) -> np.ndarray:
    """trace_log_likelihood of each encounter of a batch, bit for bit.

    Terms are added in trace_log_likelihood's order: for each draw record
    the initial nodes one by one, then one (0.0 + each next node) term per
    step; then the records in order.  A zero-probability bin yields -inf
    without a warning: callers report the zero weight in their own output.
    """
    _check_records(model, enc)
    initial_bins, transition_rows = enc.initial_bins, enc.transition_rows
    init_net, trans_net = model.initial_net, model.transition_net
    terms = [
        log_cpt[init_net.parent_rows(i, initial_bins), initial_bins[..., i]]
        for i, log_cpt in enumerate(init_net.log_cpt)
    ]
    step = np.zeros(transition_rows.shape[:-1])
    for j, log_cpt in enumerate(trans_net.log_cpt, trans_net.given):
        step = step + log_cpt[trans_net.parent_rows(j, transition_rows), transition_rows[..., j]]
    # cumsum adds left to right, as the scalar loops do; np.sum would not.
    records = np.cumsum(np.concatenate([np.stack(terms, axis=-1), step], axis=-1), axis=-1)
    total = 0.0
    for record in records[..., -1]:
        total = total + record
    return total


# ---------------------------------------------------------------------------
# Bundled model definitions
# ---------------------------------------------------------------------------

# Vertical-rate bins shared by the bundled models (ft/s; +/-3000 fpm hull).
_VRATE_EDGES = np.array([-50.0, -1000.0 / 60.0, -250.0 / 60.0, 250.0 / 60.0, 1000.0 / 60.0, 50.0])

_VRATE_DRIFT = np.array(
    [
        [0.85, 0.15, 0.00, 0.00, 0.00],
        [0.08, 0.80, 0.12, 0.00, 0.00],
        [0.00, 0.08, 0.84, 0.08, 0.00],
        [0.00, 0.00, 0.12, 0.80, 0.08],
        [0.00, 0.00, 0.00, 0.15, 0.85],
    ]
)


def default_structure() -> Tuple[DiscreteBayesNet, DiscreteBayesNet]:
    """Unfitted default vertical-study networks.

    Initial net: altitude layer, both vertical rates (conditioned on the
    layer), horizontal closure speed (conditioned on the layer), and initial
    tau.  Transition net: the initial variables given (the t slice), and
    next-step vertical rates conditioned on the current rates.
    """
    nodes = REQUIRED_VARS
    parents = ((), (0,), (0,), (0,), ())
    bins = (
        np.array([1000.0, 5000.0, 15000.0, 30000.0]),
        _VRATE_EDGES,
        _VRATE_EDGES,
        np.array([100.0, 300.0, 600.0, 1000.0]),
        np.array([10.0, 20.0, 30.0, 40.0]),
    )
    initial = DiscreteBayesNet(nodes=nodes, parents=parents, bins=bins)
    t_nodes = nodes + (VAR_OWN_VRATE + NEXT_SUFFIX, VAR_INT_VRATE + NEXT_SUFFIX)
    t_parents = ((),) * len(nodes) + ((1,), (2,))
    t_bins = bins + (_VRATE_EDGES, _VRATE_EDGES)
    transition = DiscreteBayesNet(nodes=t_nodes, parents=t_parents, bins=t_bins, given=len(nodes))
    return initial, transition


def default_correlated_model(
    duration: float = DEFAULT_DURATION_S, dt: float = DEFAULT_DT_S
) -> EncounterModel:
    """Hand-parameterized conflict-forced correlated model.

    Both aircraft start coaltitude on a head-on course losing horizontal
    separation at the sampled tau0; vertical rates wander by the sticky
    drift CPT, so unresolved encounters frequently end in NMACs.
    """
    initial_s, transition_s = default_structure()
    rate_rows = np.array(
        [
            [0.10, 0.17, 0.46, 0.17, 0.10],
            [0.07, 0.15, 0.56, 0.15, 0.07],
            [0.05, 0.12, 0.66, 0.12, 0.05],
        ]
    )
    initial = DiscreteBayesNet(
        nodes=initial_s.nodes,
        parents=initial_s.parents,
        bins=initial_s.bins,
        cpt=(
            np.array([[0.35, 0.45, 0.20]]),
            rate_rows,
            rate_rows.copy(),
            np.array([[0.50, 0.40, 0.10], [0.30, 0.50, 0.20], [0.15, 0.45, 0.40]]),
            np.array([[0.30, 0.40, 0.30]]),
        ),
    )
    return EncounterModel(
        initial_net=initial,
        transition_net=replace(transition_s, cpt=(_VRATE_DRIFT, _VRATE_DRIFT)),
        mode=CORRELATED,
        duration=duration,
        dt=dt,
    )


def default_uncorrelated_model(
    duration: float = DEFAULT_DURATION_S, dt: float = DEFAULT_DT_S
) -> EncounterModel:
    """The correlated model's networks, flown in uncorrelated mode."""
    return replace(default_correlated_model(duration=duration, dt=dt), mode=UNCORRELATED)


def toy_two_bin_model(
    p_conflict: float = 0.05, duration: float = 30.0, dt: float = 1.0
) -> EncounterModel:
    """Analytically enumerable toy model.

    Both aircraft hold near-level rates (|h| stays < 60 ft), so an NMAC
    occurs exactly when tau0 lands in its first bin (separation lost inside
    the simulation window): p_nmac = p_conflict.
    """
    if not (0.0 < p_conflict < 1.0):
        raise ValueError("p_conflict must be in (0, 1)")
    nodes = REQUIRED_VARS
    parents = ((), (), (), (), ())
    bins = (
        np.array([5000.0, 5000.0]),
        np.array([-1.0, 1.0]),
        np.array([-1.0, 1.0]),
        np.array([200.0, 300.0]),
        np.array([10.0, duration, duration + 20.0]),
    )
    one = np.array([[1.0]])
    initial = DiscreteBayesNet(
        nodes=nodes,
        parents=parents,
        bins=bins,
        cpt=(one, one.copy(), one.copy(), one.copy(), np.array([[p_conflict, 1.0 - p_conflict]])),
    )
    t_nodes = nodes + (VAR_OWN_VRATE + NEXT_SUFFIX, VAR_INT_VRATE + NEXT_SUFFIX)
    t_parents = parents + ((1,), (2,))
    t_bins = bins + (np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    transition = DiscreteBayesNet(
        nodes=t_nodes,
        parents=t_parents,
        bins=t_bins,
        cpt=(one, one),
        given=len(nodes),
    )
    return EncounterModel(
        initial_net=initial,
        transition_net=transition,
        mode=CORRELATED,
        duration=duration,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Model file interchange
# ---------------------------------------------------------------------------


def model_to_dict(model: EncounterModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "mode": model.mode,
        "duration": model.duration,
        "dt": model.dt,
        "initial_net": net_to_dict(model.initial_net),
        "transition_net": net_to_dict(model.transition_net),
    }


def model_from_dict(d: dict) -> EncounterModel:
    version = d.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version: {version} (expected {MODEL_SCHEMA_VERSION})")
    for key in ("duration", "dt"):
        # float() would also take a bool or a numeric string.
        if isinstance(d[key], bool) or not isinstance(d[key], (int, float)):
            raise ValueError(f"{key} must be a number, got {d[key]!r}")
    return EncounterModel(
        initial_net=net_from_dict(d["initial_net"]),
        transition_net=net_from_dict(d["transition_net"]),
        mode=d["mode"],
        duration=float(d["duration"]),
        dt=float(d["dt"]),
    )


def write_model_file(model: EncounterModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")


def read_model_file(path) -> EncounterModel:
    """Read a model file; any fault in its contents is a ModelFormatError naming path."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
            return model_from_dict(doc)
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: not UTF-8 text") from None
        except KeyError as err:
            raise ModelFormatError(f"{path}: missing key {err}") from None
        except (TypeError, ValueError) as err:
            raise ModelFormatError(f"{path}: {err}") from None
