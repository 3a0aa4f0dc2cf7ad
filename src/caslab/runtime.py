"""Online execution of the optimized logic table.

Lookups run multilinear interpolation over the continuous axes (off-hull
queries clamp to the hull), QMDP averages the interpolated action values
under the belief, and online costs implement low-altitude descend inhibits
and pairwise coordination constraints before the selection rule
(optimizer.select_advisories) picks an advisory.  A policy slice reads the
table through the same lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import ADVISORIES, DOWN, MIRROR_INDEX, SENSES, UP, Advisory, BeliefState, VerticalState
from .optimizer import LogicTable, _locate_many, select_advisories

# What an online cost adds to each advisory it forbids.  COC is never
# penalized and worth at least COLLISION_COST (-1), and no value exceeds 0,
# so any constant below COLLISION_COST - TIE_TOL keeps one below COC.
ONLINE_COST = -1.0e6
DEFAULT_INHIBIT_ALTITUDE_FT = 1000.0

DEFAULT_BELIEF_SIGMA_H_FT = 25.0
DEFAULT_BELIEF_SIGMA_RATE_FPS = 2.0

# A belief's sigma points in units of its standard deviations along (h,
# hdot0, hdot1), and their weights: the state, then +-2 on each axis.  This
# is the unscented transform with kappa = 1 in three dimensions: the points
# reproduce a Gaussian's mean and its per-axis variance.
SIGMA_POINTS = np.vstack([np.zeros(3), 2.0 * np.eye(3), -2.0 * np.eye(3)])
SIGMA_WEIGHTS = np.array([0.25] + [0.125] * 6)


class CoordinationConstraint(Enum):
    DO_NOT_CLIMB = "DoNotClimb"
    DO_NOT_DESCEND = "DoNotDescend"


@dataclass(frozen=True)
class OnlineContext:
    """One lookup's online costs for the scalar API; the closed loop derives its own."""

    own_altitude_agl: float = math.inf
    coordination_constraint: Optional[CoordinationConstraint] = None
    inhibit_altitude: float = DEFAULT_INHIBIT_ALTITUDE_FT

    def __post_init__(self) -> None:
        # A NaN altitude would make `z < inhibit_altitude` false, so the
        # low-altitude inhibit would silently never apply; +-inf stays valid.
        for name in ("own_altitude_agl", "inhibit_altitude"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")


def interpolate(table: LogicTable, s: VerticalState) -> np.ndarray:
    """Action values at s by multilinear interpolation (h, rates, tau).

    The previous advisory adds its row of the table's cost matrix exactly;
    at a grid vertex the result is that row plus the stored values.
    """
    return interpolate_many(
        table,
        np.array([s.h]),
        np.array([s.hdot0]),
        np.array([s.hdot1]),
        np.array([s.tau]),
        np.array([ADVISORIES.index(s.a_prev)]),
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

    The 16 enclosing vertices per query (8 when every tau is integral) are
    gathered from the table's expected values through flat row indices, and
    each query's row cost[ia_prev] is added to the interpolated row;
    exact-vertex queries carry weight 1 on one corner and 0 elsewhere, so
    stored values pass through unchanged.  The table stores h >= 0 only,
    and 0 is an h cut, so a query's cell lies wholly on one side.  A cell
    below zero is read at its mirror cell: h and rate indices reflected,
    corners stepping down instead of up, and the row's action columns
    mirrored back.  Its weights are the ones an unmirrored lookup would use,
    and the cost matrix is its own mirror, so its row adds as above zero.
    """
    grid = table.grid
    ih, fh = _locate_many(h, grid.h_cuts)
    i0, f0 = _locate_many(hdot0, grid.hdot0_cuts)
    i1, f1 = _locate_many(hdot1, grid.hdot1_cuts)
    it, ft = _locate_many(tau, grid.tau_cuts)
    n = len(ih)
    s_h, s_0, s_1, s_tau = grid.strides
    offsets = grid.corner_offsets
    # At integral tau, as in the closed loop, every ft is 0, or 1 at the
    # tau_max clamp.  Folding that into the index leaves one tau layer: 8
    # corners, every other offset (tau is the fastest corner axis), and
    # the same sums, since the dropped corners carry weight 0.
    layer = bool(np.all((ft == 0.0) | (ft == 1.0)))
    if layer:
        it = it + (ft == 1.0)
        offsets = offsets[:, ::2]
    below = ih < grid.h_zero
    # The (h, hdot0, hdot1) part of the base index.  A mirrored cell starts
    # at the reflection of its lower corner, top - corner.
    corner = (ih - grid.h_zero) * s_h + i0 * s_0 + i1 * s_1
    top = (len(grid.hdot0_cuts) - 1) * s_0 + (len(grid.hdot1_cuts) - 1) * s_1
    base = np.where(below, top - corner, corner) + it * s_tau
    # The index is built in place and dropped before the weights exist, so a
    # call's temporaries stay under the heap-trim threshold its largest one
    # sets; repeated calls then reuse freed memory instead of faulting in
    # ~1 MB of fresh pages each (measured at 1,280 queries).
    index = offsets[below.view(np.int8)]
    index += base[:, None]
    # A read table holds float32; widening the gathered corners is exact.
    vals = table.values_2d[index].astype(float, copy=False)
    del index
    w = (
        np.stack([1.0 - fh, fh], axis=1)[:, :, None, None, None]
        * np.stack([1.0 - f0, f0], axis=1)[:, None, :, None, None]
        * np.stack([1.0 - f1, f1], axis=1)[:, None, None, :, None]
    )
    if not layer:
        w = w * np.stack([1.0 - ft, ft], axis=1)[:, None, None, None, :]
    out = np.einsum("nc,nca->na", w.reshape(n, -1), vals)
    return np.where(below[:, None], out[:, MIRROR_INDEX], out) + table.cost[ia_prev]


def policy_slice(table: LogicTable, fixed: Dict[str, object]) -> np.ndarray:
    """Selected advisory over (tau, h) at fixed rates and previous advisory.

    fixed maps 'hdot0'/'hdot1' to on-grid rates and 'a_prev' to an Advisory.
    Each cell is select_advisories over interpolate_many at that grid
    vertex, with a_prev as the held advisory: what the closed loop would
    select there.  Returns an object array [itau, ih].
    """
    grid = table.grid
    try:
        hdot0, hdot1 = float(fixed["hdot0"]), float(fixed["hdot1"])
    except KeyError as exc:
        raise KeyError(f"policy_slice requires fixed value for {exc}") from exc
    for name, rate, cuts in (("hdot0", hdot0, grid.hdot0_cuts), ("hdot1", hdot1, grid.hdot1_cuts)):
        if rate not in cuts:
            raise ValueError(f"{name} must be a cut of the table's rate axis, got {rate}")
    a_prev = fixed["a_prev"]
    if not isinstance(a_prev, Advisory):
        raise TypeError("a_prev must be an Advisory")
    ia = ADVISORIES.index(a_prev)
    tau, h = np.meshgrid(grid.tau_cuts, grid.h_cuts, indexing="ij")
    n = h.size
    values = interpolate_many(table, h.ravel(), np.full(n, hdot0), np.full(n, hdot1),
                              tau.ravel(), np.full(n, ia))
    best = select_advisories(values, ia).reshape(h.shape)
    return np.array(ADVISORIES, dtype=object)[best]


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
    n = len(belief.particles)
    h = np.empty(n)
    v0 = np.empty(n)
    v1 = np.empty(n)
    tau = np.empty(n)
    ia = np.empty(n, dtype=int)
    w = np.empty(n)
    for k, (s, weight) in enumerate(belief.particles):
        h[k], v0[k], v1[k], tau[k] = s.h, s.hdot0, s.hdot1, s.tau
        ia[k] = ADVISORIES.index(s.a_prev)
        w[k] = weight
    return weighted_particle_values(table, h, v0, v1, tau, ia, w)


def apply_online_costs(values: np.ndarray, ctx: OnlineContext) -> np.ndarray:
    """Penalize inhibited and coordination-incompatible advisories by ONLINE_COST.

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
    )[0]


def apply_online_costs_many(
    values: np.ndarray,
    below_floor: np.ndarray,
    no_climb: np.ndarray,
    no_descend: np.ndarray,
) -> np.ndarray:
    """Row-wise apply_online_costs over values of shape (B, n_advisories).

    below_floor, no_climb and no_descend are per-row masks.  Penalties that
    meet on one advisory are added one after another (low-altitude inhibit,
    then the coordination constraint), never as one multiple, so every row
    equals its own single-row result bit for bit.
    """
    out = np.array(values, dtype=float)
    for mask, sense in ((below_floor, DOWN), (no_climb, UP), (no_descend, DOWN)):
        if mask.any():
            out[np.ix_(mask, SENSES == sense)] += ONLINE_COST
    return out


def select_action(values: np.ndarray, held: Advisory = Advisory.COC) -> Advisory:
    """The advisory select_advisories picks from one value vector.

    held is the advisory in force, kept on a tie; COC, the default, holds
    nothing, and the first advisory within TIE_TOL of the maximum wins.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(ADVISORIES),):
        raise ValueError("value vector must match the advisory axis")
    if not np.all(np.isfinite(values)):
        raise ValueError("action values must be finite")
    return ADVISORIES[int(select_advisories(values[None, :], ADVISORIES.index(held))[0])]


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
) -> Optional[CoordinationConstraint]:
    """The constraint the leader's selected action sends the follower.

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
    if leader_action.sense > 0:
        return CoordinationConstraint.DO_NOT_CLIMB
    return CoordinationConstraint.DO_NOT_DESCEND


def synthesize_belief(
    state: VerticalState,
    sigma_h: float = DEFAULT_BELIEF_SIGMA_H_FT,
    sigma_rate: float = DEFAULT_BELIEF_SIGMA_RATE_FPS,
) -> BeliefState:
    """The seven weighted sigma points of a tracker's Gaussian about the true state.

    Stands in for a surveillance tracker whose h and rates have standard
    deviations (sigma_h, sigma_rate, sigma_rate); tau and the previous
    advisory are kept exact.
    """
    offsets = SIGMA_POINTS * (sigma_h, sigma_rate, sigma_rate)
    return BeliefState(particles=tuple(
        (VerticalState(h=state.h + dh, hdot0=state.hdot0 + d0, hdot1=state.hdot1 + d1,
                       a_prev=state.a_prev, tau=state.tau), w)
        for (dh, d0, d1), w in zip(offsets.tolist(), SIGMA_WEIGHTS.tolist())
    ))
