"""Simplified TCAS threat logic.

Threat detection extrapolates both aircraft at constant velocity and gates
on time to closest point of approach and projected horizontal miss
distance.  RA selection is the classic two-step scheme: pick the vertical
sense whose standard-maneuver projection separates most at closest
approach, then pick the weakest advisory of that sense projected to achieve
the required separation (ALIM).

The scalar functions and TcasTracker are the reference; the *_many
functions are their array twins, bit for bit, which the lockstep simulator
flies over a whole chunk of encounters at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    ADVISORIES,
    COC_INDEX,
    DOWN,
    DOWN_ADVISORIES,
    FT_PER_NMI,
    SENSES,
    UP,
    UP_ADVISORIES,
    Advisory,
    AircraftState,
)
from .dynamics import PilotModel, project_template, project_template_many


class Threat(Enum):
    NONE = "none"
    TA = "TA"
    RA = "RA"


@dataclass(frozen=True)
class TcasConfig:
    """Alerting thresholds and the projection pilot model."""

    ta_tau: float = 40.0
    ra_tau: float = 25.0
    miss_distance_threshold: float = 1.2 * FT_PER_NMI
    alim: float = 400.0
    pilot: PilotModel = field(default_factory=PilotModel)

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not (self.ta_tau >= self.ra_tau > 0):
            raise ValueError(f"ra_tau must be > 0 and <= ta_tau ({self.ta_tau!r}), got {self.ra_tau!r}")
        for name in ("alim", "miss_distance_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")


def closest_approach(own: AircraftState, intr: AircraftState) -> Tuple[Optional[float], float]:
    """(time to horizontal CPA, projected miss distance) at constant velocity.

    Returns (None, current range) for non-closing geometry: the threat has
    no defined approach time.
    """
    px, py = intr.x - own.x, intr.y - own.y
    vx, vy = intr.vx - own.vx, intr.vy - own.vy
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return 0.0, float(np.hypot(px, py))
    t = -(px * vx + py * vy) / vv
    if t < 0.0:
        return None, float(np.hypot(px, py))
    return t, float(np.hypot(px + vx * t, py + vy * t))


def assess_threat(own: AircraftState, intr: AircraftState, cfg: TcasConfig) -> Threat:
    """Classify the intruder as none, TA, or RA."""
    t_cpa, miss = closest_approach(own, intr)
    if t_cpa is None or miss >= cfg.miss_distance_threshold:
        return Threat.NONE
    if t_cpa < cfg.ra_tau:
        return Threat.RA
    if t_cpa < cfg.ta_tau:
        return Threat.TA
    return Threat.NONE


def select_sense(own: AircraftState, intr: AircraftState, cfg: TcasConfig) -> int:
    """Choose the RA sense by projecting the standard climb and descend.

    Ties break toward down so behavior stays deterministic.
    """
    t_cpa, _ = closest_approach(own, intr)
    horizon = 0.0 if t_cpa is None else t_cpa
    up_sep = project_template(
        (own.z, own.vz), (intr.z, intr.vz), Advisory.CL1500, cfg.pilot, horizon
    )
    down_sep = project_template(
        (own.z, own.vz), (intr.z, intr.vz), Advisory.DES1500, cfg.pilot, horizon
    )
    return UP if up_sep > down_sep else DOWN


def select_strength(
    own: AircraftState, intr: AircraftState, sense: int, cfg: TcasConfig
) -> Advisory:
    """Weakest advisory of the chosen sense projected to achieve ALIM.

    Falls back to the strongest advisory when none achieves it.
    """
    candidates = UP_ADVISORIES if sense == UP else DOWN_ADVISORIES
    t_cpa, _ = closest_approach(own, intr)
    horizon = 0.0 if t_cpa is None else t_cpa
    separations = [
        project_template((own.z, own.vz), (intr.z, intr.vz), a, cfg.pilot, horizon)
        for a in candidates
    ]
    return pick_min_strength(candidates, separations, cfg.alim)


def pick_min_strength(
    candidates: Sequence[Advisory], separations: Sequence[float], alim: float
) -> Advisory:
    """Minimum-strength selection rule on projected separations."""
    for a, sep in zip(candidates, separations):
        if sep >= alim:
            return a
    return candidates[-1]


class TcasTracker:
    """Per-aircraft RA state with simple switching hysteresis.

    A fresh RA is issued immediately; once an RA is active, a differing
    selection must persist for two consecutive steps before it replaces the
    active one (covers strengthen, weaken, reversal, and clear).
    """

    def __init__(self, cfg: TcasConfig):
        self.cfg = cfg
        self.current = Advisory.COC
        self._pending_streak = 0

    def step(self, own: AircraftState, intr: AircraftState) -> Tuple[Advisory, Threat]:
        threat = assess_threat(own, intr, self.cfg)
        if threat is Threat.RA:
            sense = select_sense(own, intr, self.cfg)
            selected = select_strength(own, intr, sense, self.cfg)
        else:
            selected = Advisory.COC
        if self.current is Advisory.COC:
            self.current = selected
            self._pending_streak = 0
        elif selected is not self.current:
            self._pending_streak += 1
            if self._pending_streak >= 2:
                self.current = selected
                self._pending_streak = 0
        else:
            self._pending_streak = 0
        return self.current, threat


# The array twins hold advisories as indices into ADVISORIES and project
# the whole advisory axis at once; the COC column goes unread.
_UP_COLUMNS = np.flatnonzero(SENSES == UP)
_DOWN_COLUMNS = np.flatnonzero(SENSES == DOWN)
_CL1500 = ADVISORIES.index(Advisory.CL1500)
_DES1500 = ADVISORIES.index(Advisory.DES1500)


def closest_approach_many(px, py, vx, vy) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of closest_approach over broadcast relative positions and velocities.

    Returns (time to CPA, miss distance); the time is NaN where
    closest_approach gives None, so it fails every threshold compare.
    """
    vv = vx * vx + vy * vy
    num = -(px * vx + py * vy)
    t = np.divide(num, vv, out=np.zeros_like(num), where=vv != 0.0)
    closing = t >= 0.0
    t = np.where(closing, t, 0.0)
    return np.where(closing, t, np.nan), np.hypot(px + vx * t, py + vy * t)


def assess_threat_many(
    t_cpa: np.ndarray, miss: np.ndarray, cfg: TcasConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of assess_threat: the (TA, RA) masks of closest_approach_many's output."""
    gated = miss < cfg.miss_distance_threshold
    ra = gated & (t_cpa < cfg.ra_tau)
    return gated & ~ra & (t_cpa < cfg.ta_tau), ra


def select_advisory_many(own, intr, horizon: np.ndarray, cfg: TcasConfig) -> np.ndarray:
    """select_sense then select_strength per row, as indices into ADVISORIES.

    own and intr hold each row's (altitude, vertical rate) arrays and
    horizon its time to CPA.  One projection of the advisory axis serves
    both steps.
    """
    sep = project_template_many(own, intr, cfg.pilot, horizon)
    up = sep[:, _CL1500] > sep[:, _DES1500]
    columns = np.where(up[:, None], _UP_COLUMNS, _DOWN_COLUMNS)
    achieves = np.take_along_axis(sep, columns, axis=1) >= cfg.alim
    # pick_min_strength: the first achieving candidate, else the strongest.
    pick = np.where(achieves.any(axis=1), achieves.argmax(axis=1), columns.shape[1] - 1)
    return columns[np.arange(len(columns)), pick]


def tracker_step_many(
    current: np.ndarray,
    streak: np.ndarray,
    ra: np.ndarray,
    horizon: np.ndarray,
    own,
    intr,
    cfg: TcasConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """TcasTracker.step over rows: the new (current advisory, pending streak).

    current holds each row's active advisory as an index into ADVISORIES
    and streak its tracker's pending streak; ra marks the rows whose threat
    is an RA, horizon their time to CPA, and own and intr the (altitude,
    vertical rate) arrays.
    """
    selected = np.full(len(current), COC_INDEX)
    rows = np.flatnonzero(ra)
    if rows.size:
        selected[rows] = select_advisory_many(
            tuple(v[rows] for v in own), tuple(v[rows] for v in intr), horizon[rows], cfg
        )
    fresh = current == COC_INDEX
    streak = np.where(fresh | (selected == current), 0, streak + 1)
    switch = fresh | (streak >= 2)
    return np.where(switch, selected, current), np.where(switch, 0, streak)
