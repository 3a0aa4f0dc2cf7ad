"""Online execution of the optimized logic table.

Lookups run multilinear interpolation over the continuous axes (off-hull
queries clamp to the hull), QMDP averages the interpolated action values
under the belief, and online costs implement low-altitude descend inhibits
and pairwise coordination constraints before the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import ADVISORIES, Advisory, BeliefState, VerticalState
from .optimizer import LogicTable

DEFAULT_COST_MAGNITUDE = -1.0e6
DEFAULT_INHIBIT_ALTITUDE_FT = 1000.0

DEFAULT_BELIEF_SIGMA_H_FT = 25.0
DEFAULT_BELIEF_SIGMA_RATE_FPS = 2.0
DEFAULT_BELIEF_PARTICLES = 20


class CoordinationConstraint(Enum):
    DO_NOT_CLIMB = "DoNotClimb"
    DO_NOT_DESCEND = "DoNotDescend"


@dataclass(frozen=True)
class CoordinationMessage:
    """Constraint sent from the designated leader to the follower."""

    constraint: CoordinationConstraint
    leader_id: int
    follower_id: int

    def __post_init__(self) -> None:
        if not self.leader_id < self.follower_id:
            raise ValueError("leader_id must order below follower_id")


@dataclass(frozen=True)
class OnlineContext:
    """Per-lookup operational context applied as online costs."""

    own_altitude_agl: float = math.inf
    coordination_constraint: Optional[CoordinationConstraint] = None
    inhibit_altitude: float = DEFAULT_INHIBIT_ALTITUDE_FT
    cost_magnitude: float = DEFAULT_COST_MAGNITUDE

    def __post_init__(self) -> None:
        if self.cost_magnitude >= 0:
            raise ValueError("cost_magnitude must be negative (dominates table values)")


def interpolate(table: LogicTable, s: VerticalState) -> np.ndarray:
    """Action values at s by multilinear interpolation (h, rates, tau).

    The previous-advisory axis is categorical and indexed exactly; grid
    vertices return the stored values bit-identically.
    """
    ia = table.grid.advisory_index(s.a_prev)
    return interpolate_many(
        table,
        np.array([s.h]),
        np.array([s.hdot0]),
        np.array([s.hdot1]),
        np.array([s.tau]),
        np.array([ia]),
    )[0]


def interpolate_many(
    table: LogicTable,
    h: np.ndarray,
    hdot0: np.ndarray,
    hdot1: np.ndarray,
    tau: np.ndarray,
    ia_prev: np.ndarray,
) -> np.ndarray:
    """Vectorized multilinear lookup; returns (n, n_advisories).

    The 16 enclosing vertices per query are gathered through flat state
    indices; exact-vertex queries carry weight 1 on one corner and 0
    elsewhere, so stored values pass through unchanged.
    """
    grid = table.grid
    axes = (grid.h_cuts, grid.hdot0_cuts, grid.hdot1_cuts,
            np.arange(grid.tau_max + 1, dtype=float))
    coords = (h, hdot0, hdot1, tau)
    idx = []
    lo_w = []
    hi_w = []
    for cuts, x in zip(axes, coords):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), cuts[0]), cuts[-1])
        i = np.searchsorted(cuts, x, side="right") - 1
        i = np.minimum(np.maximum(i, 0), len(cuts) - 2)
        f = (x - cuts[i]) / (cuts[i + 1] - cuts[i])
        f = np.minimum(np.maximum(f, 0.0), 1.0)
        idx.append(i)
        lo_w.append(1.0 - f)
        hi_w.append(f)
    n = len(idx[0])
    na = len(grid.advisories)
    # State strides with axes (h, hdot0, hdot1, tau, a_prev).
    _, n0, n1, ntau, nap = grid.shape
    s_tau = nap
    s_1 = ntau * s_tau
    s_0 = n1 * s_1
    s_h = n0 * s_0
    base = idx[0] * s_h + idx[1] * s_0 + idx[2] * s_1 + idx[3] * s_tau + np.asarray(ia_prev)
    offsets = np.array(
        [
            b_h * s_h + b_0 * s_0 + b_1 * s_1 + b_t * s_tau
            for b_h in (0, 1)
            for b_0 in (0, 1)
            for b_1 in (0, 1)
            for b_t in (0, 1)
        ]
    )
    w = (
        np.stack([lo_w[0], hi_w[0]], axis=1)[:, :, None, None, None]
        * np.stack([lo_w[1], hi_w[1]], axis=1)[:, None, :, None, None]
        * np.stack([lo_w[2], hi_w[2]], axis=1)[:, None, None, :, None]
        * np.stack([lo_w[3], hi_w[3]], axis=1)[:, None, None, None, :]
    ).reshape(n, 16)
    vals = table.values_2d[base[:, None] + offsets[None, :]]
    return np.einsum("nc,nca->na", w, vals)


def weighted_particle_values(
    table: LogicTable,
    h: np.ndarray,
    hdot0: np.ndarray,
    hdot1: np.ndarray,
    tau: np.ndarray,
    ia_prev: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weight-averaged interpolated action values over particle arrays.

    The particle axis is the last one.  Leading axes (a batch of beliefs)
    are kept: inputs of one shape (..., P) give (..., n_advisories), all
    from one interpolate_many call.  The average is a matmul, which
    reproduces the single-belief result bit for bit; einsum does not.
    """
    shape = np.shape(h)
    flat = [np.ravel(x) for x in (h, hdot0, hdot1, tau, ia_prev)]
    values = interpolate_many(table, *flat)
    return weights @ values.reshape(shape + values.shape[-1:])


def belief_action_values(table: LogicTable, belief: BeliefState) -> np.ndarray:
    """Belief-weighted average of interpolated action values."""
    grid = table.grid
    n = len(belief.particles)
    h = np.empty(n)
    v0 = np.empty(n)
    v1 = np.empty(n)
    tau = np.empty(n)
    ia = np.empty(n, dtype=int)
    w = np.empty(n)
    for k, (s, weight) in enumerate(belief.particles):
        h[k], v0[k], v1[k], tau[k] = s.h, s.hdot0, s.hdot1, s.tau
        ia[k] = grid.advisory_index(s.a_prev)
        w[k] = weight
    return weighted_particle_values(table, h, v0, v1, tau, ia, w)


def apply_online_costs(values: np.ndarray, ctx: OnlineContext,
                       advisories: Sequence[Advisory] = ADVISORIES) -> np.ndarray:
    """Penalize inhibited and coordination-incompatible advisories.

    Down-sense advisories are inhibited below the low-altitude floor;
    DoNotClimb forbids up-sense and DoNotDescend forbids down-sense.  COC is
    never penalized.
    """
    constraint = ctx.coordination_constraint
    return apply_online_costs_many(
        np.asarray(values, dtype=float)[None, :],
        np.array([ctx.own_altitude_agl < ctx.inhibit_altitude]),
        np.array([constraint is CoordinationConstraint.DO_NOT_CLIMB]),
        np.array([constraint is CoordinationConstraint.DO_NOT_DESCEND]),
        ctx.cost_magnitude,
        advisories,
    )[0]


def apply_online_costs_many(
    values: np.ndarray,
    below_floor: np.ndarray,
    no_climb: np.ndarray,
    no_descend: np.ndarray,
    cost_magnitude: float,
    advisories: Sequence[Advisory] = ADVISORIES,
) -> np.ndarray:
    """Row-wise apply_online_costs over values of shape (B, n_advisories).

    below_floor, no_climb and no_descend are per-row masks.  Penalties that
    meet on one advisory are added one after another (low-altitude inhibit,
    then the coordination constraint), never as one multiple, so every row
    equals its own single-row result bit for bit.
    """
    out = np.array(values, dtype=float)
    for mask, sense in ((below_floor, -1), (no_climb, 1), (no_descend, -1)):
        if mask.any():
            cols = [i for i, a in enumerate(advisories) if a.sense == sense]
            out[np.ix_(mask, cols)] += cost_magnitude
    return out


def select_action(
    values: np.ndarray,
    a_prev: Optional[Advisory] = None,
    advisories: Sequence[Advisory] = ADVISORIES,
) -> Advisory:
    """Argmax advisory; ties break toward the canonical advisory order.

    a_prev is accepted for interface symmetry with the table lookup chain
    but does not affect the tie-break.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(advisories),):
        raise ValueError("value vector must match the advisory axis")
    if not np.all(np.isfinite(values)):
        raise ValueError("action values must be finite")
    return advisories[int(np.argmax(values))]


def fuse_multithreat(per_intruder_values: Sequence[np.ndarray]) -> np.ndarray:
    """Max-min utility fusion: elementwise minimum over intruders."""
    if len(per_intruder_values) == 0:
        raise ValueError("need at least one intruder value vector")
    stacked = np.asarray(per_intruder_values, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("value vectors must share one advisory axis")
    return stacked.min(axis=0)


def coordinate(
    leader_action: Advisory, ids: Tuple[int, int]
) -> Optional[CoordinationMessage]:
    """Coordination message implied by the leader's selected action.

    The lower identifier is the designated leader; calling this on the
    follower is an error.  A non-COC action constrains the follower to the
    opposite sense (leader down -> DoNotDescend, leader up -> DoNotClimb);
    COC sends nothing.
    """
    own_id, intruder_id = ids
    if own_id == intruder_id:
        raise ValueError("aircraft identifiers must differ")
    if own_id > intruder_id:
        raise ValueError("coordinate() may only be called on the leader (lower id)")
    if leader_action is Advisory.COC:
        return None
    constraint = (
        CoordinationConstraint.DO_NOT_CLIMB
        if leader_action.sense > 0
        else CoordinationConstraint.DO_NOT_DESCEND
    )
    return CoordinationMessage(
        constraint=constraint, leader_id=own_id, follower_id=intruder_id
    )


def synthesize_belief(
    state: VerticalState,
    sigma_h: float = DEFAULT_BELIEF_SIGMA_H_FT,
    sigma_rate: float = DEFAULT_BELIEF_SIGMA_RATE_FPS,
    n_particles: int = DEFAULT_BELIEF_PARTICLES,
    rng: Optional[np.random.Generator] = None,
) -> BeliefState:
    """Equal-weight Gaussian perturbations of the true state.

    Stands in for a surveillance tracker: h and both rates are perturbed,
    tau and the previous advisory are kept exact.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if rng is None or (sigma_h == 0.0 and sigma_rate == 0.0):
        noise = np.zeros((n_particles, 3))
    else:
        noise = rng.normal(0.0, 1.0, size=(n_particles, 3))
        noise[:, 0] *= sigma_h
        noise[:, 1] *= sigma_rate
        noise[:, 2] *= sigma_rate
    w = 1.0 / n_particles
    particles = tuple(
        (
            VerticalState(
                h=state.h + noise[k, 0],
                hdot0=state.hdot0 + noise[k, 1],
                hdot1=state.hdot1 + noise[k, 2],
                a_prev=state.a_prev,
                tau=state.tau,
            ),
            w,
        )
        for k in range(n_particles)
    )
    return BeliefState(particles=particles)
