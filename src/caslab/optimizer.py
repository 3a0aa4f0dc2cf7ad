"""Vertical resolution-advisory MDP and its backward-induction solver.

The state is (relative altitude h, ownship rate, intruder rate, previous
advisory, tau) on a rectilinear grid with a unit time step.  One DP step
enumerates the pilot response branch (complies this step with the geometric
per-step probability, or not) against a three-point sigma discretization of
the intruder's Gaussian acceleration, propagates the continuous variables,
and distributes each successor onto its enclosing grid vertices with
multilinear weights while tau decrements by exactly one.  The operator is
built once per solve, straight into the slots the sweep reads, and the
complying pilot moves by dynamics.step_complying_many, as in the closed
loop.  Values are expected cumulative rewards.  The MDP is symmetric under
the vertical mirror (h and both rates negated, advisory senses swapped), so
the DP solves only the states at h >= 0, reading a successor below zero at
its mirror state, and the emitted table stores those values and no other.

The previous advisory enters only through the reward: the pilot's response
is memoryless, so a transition depends on (h, hdot0, hdot1) and the action
alone.  Every state-action value is therefore cost[a_prev, a] plus an
expected value E(h, hdot0, hdot1, tau, a) that no a_prev changes, and the
table stores E and the 7 x 7 cost matrix instead of the values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from .core import (
    ADVISORIES,
    MIRROR_INDEX,
    NMAC_VERTICAL_FT,
    Advisory,
    VerticalState,
    is_reversal,
    is_strengthening,
)
from .dynamics import IntruderModel, PilotModel, step_complying_many, step_vertical

# Three-point sigma discretization of a zero-mean Gaussian: matches mean and
# variance with minimal branching.
SIGMA_POINTS = (-1.0, 0.0, 1.0)
SIGMA_WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)

DEFAULT_H_CUTS = np.array(
    [
        -4000.0, -3000.0, -2000.0, -1600.0, -1200.0, -900.0, -700.0, -500.0,
        -400.0, -300.0, -200.0, -150.0, -100.0, -75.0, -50.0, -25.0, 0.0,
        25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 700.0,
        900.0, 1200.0, 1600.0, 2000.0, 3000.0, 4000.0,
    ]
)

DEFAULT_RATE_CUTS = np.array(
    [
        -2500.0, -2000.0, -1500.0, -1000.0, -500.0, -250.0, 0.0,
        250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0,
    ]
) / 60.0  # ft/min -> ft/s


def checked_cuts(name: str, cuts, zero: bool = False) -> np.ndarray:
    """Read-only float copy of one axis's cut points, checked for the mirror.

    Cut points must be finite, strictly increasing and exactly symmetric
    about 0, because a table stores only its h >= 0 half and reads the rest
    through the vertical mirror; with zero, one cut must be 0.  name labels
    the errors.
    """
    try:
        cuts = np.array(cuts, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must list numbers") from None
    if cuts.ndim != 1 or len(cuts) < 2:
        raise ValueError(f"{name} needs at least two cut points")
    if not np.all(np.isfinite(cuts)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(cuts) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not np.array_equal(cuts, -cuts[::-1]):
        raise ValueError(f"{name} must be symmetric about 0")
    if zero and len(cuts) % 2 == 0:
        raise ValueError(f"{name} must include 0")
    cuts.setflags(write=False)
    return cuts


@dataclass(frozen=True)
class Grid:
    """Discretization of the vertical conflict state space.

    Cut points are finite, strictly increasing and exactly symmetric about
    zero, and 0 is an h cut.  The tau axis runs 0..tau_max in unit steps,
    at least one cell, and the advisory axis is ADVISORIES on every grid
    (the class attribute advisories names it; it is not a field).

    The MDP is symmetric under h -> -h with both rates negated and the
    advisory senses swapped, so a table keeps only the rows from h_zero,
    the index of the h = 0 cut, upward.  tau_cuts, strides (of h, hdot0,
    hdot1 and tau in a stored row index) and corner_offsets (the 16
    cell-corner offsets of a lookup, row 0 for a cell at h >= 0 and row 1
    for the mirror of a cell below zero) are the lookup's per-grid constants.
    """

    h_cuts: np.ndarray = field(default_factory=lambda: DEFAULT_H_CUTS.copy())
    hdot0_cuts: np.ndarray = field(default_factory=lambda: DEFAULT_RATE_CUTS.copy())
    hdot1_cuts: np.ndarray = field(default_factory=lambda: DEFAULT_RATE_CUTS.copy())
    tau_max: int = 40
    advisories: ClassVar[Tuple[Advisory, ...]] = ADVISORIES

    def __post_init__(self) -> None:
        for name in ("h_cuts", "hdot0_cuts", "hdot1_cuts"):
            cuts = checked_cuts(name, getattr(self, name), zero=name == "h_cuts")
            object.__setattr__(self, name, cuts)
        tau_max = self.tau_max
        if isinstance(tau_max, bool) or not isinstance(tau_max, (int, np.integer)) or tau_max < 1:
            raise ValueError(f"tau_max must be an integer >= 1, got {tau_max!r}")
        _, n0, n1, ntau, _ = self.shape
        strides = (n0 * n1 * ntau, n1 * ntau, ntau, 1)
        corners = np.array([(bh, b0, b1, bt) for bh in (0, 1) for b0 in (0, 1)
                            for b1 in (0, 1) for bt in (0, 1)])
        flip = np.array([-1, -1, -1, 1])  # a mirrored cell steps down in h and both rates
        constants = {
            "h_zero": len(self.h_cuts) // 2,
            "tau_cuts": np.arange(ntau, dtype=float),
            "strides": strides,
            "corner_offsets": np.stack([corners @ strides, (corners * flip) @ strides]),
        }
        for name, value in constants.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> Tuple[int, int, int, int, int]:
        """The MDP's state axes (h, hdot0, hdot1, tau, a_prev), every h cut."""
        return (
            len(self.h_cuts),
            len(self.hdot0_cuts),
            len(self.hdot1_cuts),
            self.tau_max + 1,
            len(ADVISORIES),
        )

    @property
    def table_shape(self) -> Tuple[int, int, int, int, int]:
        """A table's stored values: (h >= 0, hdot0, hdot1, tau, action), no a_prev axis."""
        nh, *rest, _ = self.shape
        return (nh - self.h_zero, *rest, len(ADVISORIES))

    def state_index(self, ih: int, i0: int, i1: int, itau: int, ia_prev: int) -> int:
        """Flat state index; axes (h, hdot0, hdot1, tau, a_prev), C order."""
        return int(np.ravel_multi_index((ih, i0, i1, itau, ia_prev), self.shape))

    def mirror_row(self, row: np.ndarray) -> np.ndarray:
        """The vertical mirror of (h, hdot0) rows of a table, as a new array.

        row has axes (..., hdot1, tau, action).  The values at (h, hdot0)
        are mirror_row of those at (-h, -hdot0): hdot1 reversed and the
        action mirrored; leading axes are kept.
        """
        return row[..., ::-1, :, :][..., MIRROR_INDEX]


# The reward at an NMAC, the unit of every other cost.  Advisory costs are
# <= 0, COC costs 0 after any advisory, and successor values are convex
# combinations, so holding COC is worth at least COLLISION_COST from any
# state: every E a table stores lies in [COLLISION_COST, 0], up to rounding.
COLLISION_COST = -1.0


@dataclass(frozen=True)
class RewardParams:
    """Advisory-change costs, in units of a collision's cost (all <= 0)."""

    alert_cost: float = -0.01
    strengthen_cost: float = -0.005
    reversal_cost: float = -0.02

    def __post_init__(self) -> None:
        for name in ("alert_cost", "strengthen_cost", "reversal_cost"):
            if not -np.inf < getattr(self, name) <= 0:
                raise ValueError(f"{name} must be finite and <= 0, got {getattr(self, name)!r}")
        if self.alert_cost < COLLISION_COST:
            raise ValueError(f"alert_cost must be >= {COLLISION_COST}, got {self.alert_cost!r}")


@dataclass(frozen=True)
class LogicTable:
    """Grid axes, the advisory-change costs and the expected values of the h >= 0 half.

    The value of action a at (h, hdot0, hdot1, tau) after advisory a_prev is
    cost[a_prev, a] + values[h, hdot0, hdot1, tau, a].  values holds E, the
    expected value of what follows the action, over the h cuts from
    grid.h_zero upward, shape grid.table_shape; values_2d views it as
    E[stored row index][advisory].  A value below h = 0 is the value at the
    mirror state with the action mirrored, and is never stored.  cost is
    the 7 x 7 float64 matrix over (a_prev, action), and is its own vertical
    mirror, so a mirrored lookup adds the same row.  The dtype of values is
    float64 when backward_induction makes the table and float32, the
    precision ACXT stores, when read from a file; lookups compute in
    float64 either way.
    """

    grid: Grid
    values: np.ndarray
    cost: np.ndarray

    def __post_init__(self) -> None:
        na = len(ADVISORIES)
        cost = np.array(self.cost, dtype=float)
        if cost.shape != (na, na):
            raise ValueError(f"advisory cost matrix shape {cost.shape} != ({na}, {na})")
        if not np.isfinite(cost).all():
            raise ValueError("advisory cost matrix must be finite")
        if not np.array_equal(cost[MIRROR_INDEX][:, MIRROR_INDEX], cost):
            raise ValueError("advisory cost matrix must be its own vertical mirror")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        expected = self.grid.table_shape
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")
        if not np.isfinite(self.values).all():
            raise ValueError("table values must be finite")
        # h = 0 is its own mirror, so a lookup from either side reads one set
        # of values there only if the row equals its mirror bit for bit.
        zero = self.values[0].view(f"u{self.values.itemsize}")
        if not np.array_equal(zero, self.grid.mirror_row(zero[::-1])):
            raise ValueError("table values at h = 0 must be their own vertical mirror")

    @property
    def values_2d(self) -> np.ndarray:
        return self.values.reshape(-1, len(ADVISORIES))


# Two action values within TIE_TOL of each other are a tie.  Where the DP
# predicts that holding the current rate resolves a conflict, keeping an RA
# and clearing it to COC have the same value (neither costs anything, and
# both hold the rate), so they differ only by rounding: float32 storage,
# interpolation and the QMDP average move a value by up to ~1e-7 of a
# collision's cost.  On 20,000 seeded random states of the default table,
# the float64 table and its float32 file picked different advisories in 47
# by plain argmax, and in 13, 11, 1 and 0 under the rule below at a
# tolerance of 0, 1e-12, 1e-9 and 1e-6 of a collision's cost.
TIE_TOL = 1e-6


def select_advisories(values: np.ndarray, held) -> np.ndarray:
    """The table's selection rule, row by row: indices into ADVISORIES.

    values has shape (B, n_advisories) and held, of shape (B,) or one index
    for every row, the advisory each row holds now.  A row keeps its held
    advisory when that value is within TIE_TOL of the row's maximum;
    otherwise it takes the first advisory in canonical order (COC first,
    weaker before stronger, down before up) within TIE_TOL of the maximum.
    """
    near = values >= values.max(axis=1, keepdims=True) - TIE_TOL
    return np.where(near[np.arange(len(near)), held], held, np.argmax(near, axis=1))


def reward(s: VerticalState, a: Advisory, params: RewardParams) -> float:
    """One-step reward: collision cost at tau=0 plus advisory-change costs."""
    r = 0.0
    if s.tau == 0 and abs(s.h) < NMAC_VERTICAL_FT:
        r += COLLISION_COST
    if a is not Advisory.COC and s.a_prev is Advisory.COC:
        r += params.alert_cost
    if is_strengthening(s.a_prev, a):
        r += params.strengthen_cost
    if is_reversal(s.a_prev, a):
        r += params.reversal_cost
    return r


def _advisory_cost_matrix(params: RewardParams) -> np.ndarray:
    """cost[a_prev, a]: the reward at a non-terminal state, its advisory-change terms."""
    return np.array([
        [reward(VerticalState(0.0, 0.0, 0.0, ap, 1.0), a, params) for a in ADVISORIES]
        for ap in ADVISORIES
    ])


def _locate(x: float, cuts: np.ndarray) -> Tuple[int, float]:
    """Cell index and fractional position of a clamped scalar coordinate."""
    if x <= cuts[0]:
        return 0, 0.0
    if x >= cuts[-1]:
        return len(cuts) - 2, 1.0
    i = int(np.searchsorted(cuts, x, side="right")) - 1
    i = min(i, len(cuts) - 2)
    return i, (x - cuts[i]) / (cuts[i + 1] - cuts[i])


def transition_distribution(
    s: VerticalState,
    a: Advisory,
    pilot: PilotModel,
    intruder: IntruderModel,
    grid: Grid,
) -> List[Tuple[int, float]]:
    """Distribution over successor grid states for one state-action pair.

    Enumerates pilot response (complies this step w.p. p, or not) against
    the intruder sigma points, propagates one unit step, decrements tau, and
    spreads each continuous successor over its enclosing vertices.  Weights
    are aggregated per vertex and sum to 1.
    """
    if s.tau < 1:
        raise ValueError("tau=0 states are terminal")
    p = pilot.response_probability
    pilot_branches = [(True, p)]
    if p < 1.0:
        pilot_branches.append((False, 1.0 - p))
    itau_next = int(round(s.tau)) - 1
    ia_prev_next = ADVISORIES.index(a)
    acc: Dict[Tuple[int, int, int], float] = {}
    for complying, w_pilot in pilot_branches:
        _, vz0p = step_vertical(0.0, s.hdot0, a, complying, pilot, 1.0)
        dz0 = 0.5 * (s.hdot0 + vz0p)
        for u, w_sig in zip(SIGMA_POINTS, SIGMA_WEIGHTS):
            vz1p = s.hdot1 + u * intruder.sigma_accel
            dz1 = 0.5 * (s.hdot1 + vz1p)
            hp = s.h + dz1 - dz0
            w_branch = w_pilot * w_sig
            ih, fh = _locate(hp, grid.h_cuts)
            i0, f0 = _locate(vz0p, grid.hdot0_cuts)
            i1, f1 = _locate(vz1p, grid.hdot1_cuts)
            for bh in (0, 1):
                wh = fh if bh else 1.0 - fh
                if wh == 0.0:
                    continue
                for b0 in (0, 1):
                    w0 = f0 if b0 else 1.0 - f0
                    if w0 == 0.0:
                        continue
                    for b1 in (0, 1):
                        w1 = f1 if b1 else 1.0 - f1
                        if w1 == 0.0:
                            continue
                        key = (ih + bh, i0 + b0, i1 + b1)
                        acc[key] = acc.get(key, 0.0) + w_branch * wh * w0 * w1
    return [
        (grid.state_index(ih, i0, i1, itau_next, ia_prev_next), w)
        for (ih, i0, i1), w in sorted(acc.items())
    ]


def _locate_many(x: np.ndarray, cuts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized _locate with hull clamping: lower cell index and fraction.

    The DP and the table lookup both locate through here.  Clamping uses
    np.minimum/np.maximum, which give np.clip's result with less overhead
    per call.
    """
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), cuts[0]), cuts[-1])
    i = np.searchsorted(cuts, x, side="right") - 1
    i = np.minimum(np.maximum(i, 0), len(cuts) - 2)
    frac = (x - cuts[i]) / (cuts[i + 1] - cuts[i])
    return i, np.minimum(np.maximum(frac, 0.0), 1.0)


def _sweep_operator(
    grid: Grid,
    pilot: PilotModel,
    intruder: IntruderModel,
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The one-step operator of every action, in the slots the sweep reads.

    Only the m vertices (h, hdot0, hdot1) at h >= 0 are sources.  Column
    ia*m + j is operator row j of action ADVISORIES[ia]: the successor
    distribution of the j-th such vertex, over flat targets a_prev*m +
    (successor vertex), which address a layer's best values raveled as
    (a_prev, vertex).  a_prev is ia, except that a successor corner below
    h = 0 is folded through the vertical mirror: its vertex is (-h, -hdot0,
    -hdot1) and its a_prev is MIRROR_INDEX[ia].  Each column lists
    its targets in ascending order, duplicate targets summed in the order
    they arise (branch, then corner, then source vertex), zero weights
    dropped.  tau advances deterministically and is handled by the sweep.

    Columns are ordered longest first; slots[k] is (flat targets, weights)
    of the k-th entry of every column that has one, so it covers a prefix of
    that order and the slots never lengthen.  unorder[c] is column c's place
    in the order.
    """
    n0, n1 = len(grid.hdot0_cuts), len(grid.hdot1_cuts)
    H, V0, V1 = np.meshgrid(
        grid.h_cuts[grid.h_zero:], grid.hdot0_cuts, grid.hdot1_cuts, indexing="ij"
    )
    H, V0, V1 = H.ravel(), V0.ravel(), V1.ravel()
    m = H.size
    na = len(ADVISORIES)
    p = pilot.response_probability
    w_pilots = [p] if p >= 1.0 else [p, 1.0 - p]  # complies this step, or not
    # corner offsets (bh, b0, b1) of the enclosing cell, bh slowest
    bh, b0, b1 = (np.array([0, 1]).reshape(shape) for shape in ((2, 1, 1, 1), (2, 1, 1), (2, 1)))
    source = np.arange(m) * (na * m)

    def branches(vz0p: np.ndarray, weights: Sequence[float]) -> List[List[np.ndarray]]:
        """Raw entries of the pilot branches that move the ownship's rate to vz0p.

        One [source*na*m + vertex, folded, weight] per pilot weight, each in
        arrival order: sigma point, then corner, then source vertex.
        """
        dz0 = 0.5 * (V0 + vz0p)
        i0, f0 = _locate_many(vz0p, grid.hdot0_cuts)
        raw: List[List[List[np.ndarray]]] = [[[], [], []] for _ in weights]
        for u, w_sig in zip(SIGMA_POINTS, SIGMA_WEIGHTS):
            vz1p = V1 + u * intruder.sigma_accel
            dz1 = 0.5 * (V1 + vz1p)
            ih, fh = _locate_many(H + dz1 - dz0, grid.h_cuts)
            i1, f1 = _locate_many(vz1p, grid.hdot1_cuts)
            # a corner dh rows below h = 0 is read at the mirror vertex |dh| rows up
            dh = ih + bh - grid.h_zero
            folded = dh < 0
            vertex = (
                (np.abs(dh) * n0 + np.where(folded, n0 - 1 - (i0 + b0), i0 + b0)) * n1
                + np.where(folded, n1 - 1 - (i1 + b1), i1 + b1)
            ).reshape(8, m)
            folded = np.broadcast_to(folded, (2, 2, 2, m)).reshape(8, m)
            for (keys, folds, ws), w_pilot in zip(raw, weights):
                w = (
                    w_pilot * w_sig
                    * np.where(bh, fh, 1.0 - fh)
                    * np.where(b0, f0, 1.0 - f0)
                    * np.where(b1, f1, 1.0 - f1)
                ).reshape(8, m)
                mask = w > 0.0
                keys.append((source + vertex)[mask])
                folds.append(folded[mask])
                ws.append(w[mask])
        return [[np.concatenate(part) for part in entries] for entries in raw]

    # Not complying, and complying with COC, both hold the ownship's rate, so
    # every action shares those successors; only their a_prev differs.
    held = branches(V0, w_pilots)
    merged = []  # per action: entries per column, then flat targets and weights
    for ia, a in enumerate(ADVISORIES):
        if a is Advisory.COC:
            raw = held
        else:
            _, vz0p = step_complying_many(0.0, V0, a.target_rate_fps, a.sense, pilot, 1.0)
            raw = branches(vz0p, [p]) + held[1:]
        key, folded, w = (np.concatenate(part) for part in zip(*raw))
        key += np.where(folded, MIRROR_INDEX[ia] * m, ia * m)
        keys, inverse = np.unique(key, return_inverse=True)
        summed = np.zeros(len(keys))
        np.add.at(summed, inverse, w)  # sequential, in arrival order
        col, tgt = np.divmod(keys, na * m)
        merged.append((np.bincount(col, minlength=m), tgt, summed))
    counts = np.concatenate([count for count, _, _ in merged])
    order = np.argsort(-counts, kind="stable")
    unorder = np.argsort(order)
    lengths = np.count_nonzero(counts > np.arange(counts.max())[:, None], axis=1)
    starts = np.cumsum(lengths) - lengths
    flat = np.empty(lengths.sum(), dtype=np.intp)
    weight = np.empty(lengths.sum())
    for ia, (count, tgt, w) in enumerate(merged):
        # an entry's rank is its place in its column; slot k holds every rank k
        rank = np.arange(len(tgt)) - np.repeat(np.cumsum(count) - count, count)
        at = starts[rank] + np.repeat(unorder[ia * m : (ia + 1) * m], count)
        flat[at] = tgt
        weight[at] = w
    ends = np.cumsum(lengths)[:-1]
    return list(zip(np.split(flat, ends), np.split(weight, ends))), unorder


def backward_induction(
    grid: Grid,
    pilot: PilotModel,
    intruder: IntruderModel,
    params: RewardParams,
) -> LogicTable:
    """Solve the finite-horizon MDP exactly on the grid.

    The table's values are the array the solve allocated, so they are the
    only copy.  Rounding leaves the h = 0 row off its own mirror by ~1e-16,
    so that row takes the mean of each value and its mirror: exact where
    they agree, and never past either of them.
    """
    values = _solve(grid, pilot, intruder, params)
    zero = values[0]
    zero[...] = 0.5 * (zero + grid.mirror_row(zero[::-1]))
    return LogicTable(grid=grid, values=values, cost=_advisory_cost_matrix(params))


def _solve(
    grid: Grid,
    pilot: PilotModel,
    intruder: IntruderModel,
    params: RewardParams,
) -> np.ndarray:
    """E, the expected value of each action at h >= 0, shape grid.table_shape.

    The value of action a after a_prev is cost[a_prev, a] + E[..., a]; at
    tau = 0, E is the collision reward.  Works backward from tau=0 to
    tau_max; within a tau layer every state depends only on the previous
    layer, so each layer is evaluated in one vectorized pass over all
    actions and written straight into the table's layout.  Only the h >= 0
    rows are swept: a successor below zero is read at its mirror state.

    A layer's expected values accumulate one operator slot at a time (see
    _sweep_operator): slot k touches only the prefix of columns that have a
    k-th entry, so each column sums its entries in ascending target order,
    and unorder puts the columns back as (action, vertex).
    """
    n0, n1 = len(grid.hdot0_cuts), len(grid.hdot1_cuts)
    h_cuts = grid.h_cuts[grid.h_zero:]
    na = len(ADVISORIES)
    m = len(h_cuts) * n0 * n1
    ntau = grid.tau_max + 1

    cost = _advisory_cost_matrix(params)
    collision = np.repeat(
        (np.abs(h_cuts) < NMAC_VERTICAL_FT) * COLLISION_COST, n0 * n1
    )

    slots, unorder = _sweep_operator(grid, pilot, intruder)

    # values[m, tau, action]: the table layout with (h, hdot0, hdot1) raveled
    values = np.empty((m, ntau, na))
    values[:, 0] = collision[:, None]
    expected = np.broadcast_to(collision, (na, m))  # E of the last layer, [action, m]
    acc = np.empty(na * m)
    term = np.empty(na * m)
    for itau in range(1, ntau):
        # best[a_prev, m]: the last layer's best value over actions
        best = cost[:, 0, None] + expected[0]
        for ia in range(1, na):
            np.maximum(best, cost[:, ia, None] + expected[ia], out=best)
        acc.fill(0.0)
        for idx, w in slots:
            n = len(idx)
            np.take(best, idx, out=term[:n], mode="clip")
            term[:n] *= w
            acc[:n] += term[:n]
        expected = acc[unorder].reshape(na, m)
        if not np.all(np.isfinite(expected)):
            raise OverflowError(f"non-finite values at tau={itau}")
        values[:, itau] = expected.T

    return values.reshape(grid.table_shape)


def policy_slice(
    table: LogicTable, fixed: Dict[str, object]
) -> np.ndarray:
    """Selected advisory over (tau, h) at fixed rates and previous advisory.

    fixed maps 'hdot0'/'hdot1' to on-grid rates and 'a_prev' to an Advisory.
    Each cell selects by select_advisories with a_prev as the held
    advisory, as the closed loop would at that state.  Returns an object
    array [itau, ih].
    """
    grid = table.grid
    try:
        i0 = _exact_cut_index(grid.hdot0_cuts, float(fixed["hdot0"]))
        i1 = _exact_cut_index(grid.hdot1_cuts, float(fixed["hdot1"]))
    except KeyError as exc:
        raise KeyError(f"policy_slice requires fixed value for {exc}") from exc
    a_prev = fixed["a_prev"]
    if not isinstance(a_prev, Advisory):
        raise TypeError("a_prev must be an Advisory")
    ia = ADVISORIES.index(a_prev)
    # A row below h = 0 is the mirror of a stored row above it (farthest from
    # zero first), with its action columns put back in canonical order.  The
    # slice is taken before mirroring, so no mirrored slab is built.  cost is
    # its own mirror, so both halves add the row of a_prev.
    below = table.values[:0:-1, -1 - i0, -1 - i1][..., MIRROR_INDEX]
    vals = np.concatenate([below, table.values[:, i0, i1]]) + table.cost[ia]  # (h, tau, action)
    best = select_advisories(vals.reshape(-1, len(ADVISORIES)), ia).reshape(vals.shape[:2])
    return np.array(ADVISORIES, dtype=object)[best.T]


def _exact_cut_index(cuts: np.ndarray, value: float) -> int:
    idx = np.nonzero(cuts == value)[0]
    if len(idx) == 0:
        raise ValueError(f"value {value} is not a grid cut point")
    return int(idx[0])
