"""Shared airspace domain types, horizontal tau, and safety-event predicates.

Internal units are feet and feet/second throughout; advisory rate targets are
expressed in feet/minute at the interface (the conventional cockpit unit) and
converted once at the boundary.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

# NMAC volume thresholds (ft): both separations strictly below these at once.
NMAC_VERTICAL_FT = 100.0
NMAC_HORIZONTAL_FT = 500.0

FT_PER_NMI = 6076.115

# Vertical sense codes.
UP = +1
DOWN = -1

# Event flag labels, and each one's bit in a trace's per-sample event flags.
EVENT_TA = "TA"
EVENT_RA = "RA"
EVENT_STRENGTHEN = "STRENGTHEN"
EVENT_REVERSAL = "REVERSAL"
EVENT_CROSSING = "CROSSING"
EVENT_NMAC = "NMAC"
EVENT_FLAGS = (EVENT_TA, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL, EVENT_CROSSING, EVENT_NMAC)
EVENT_BIT = {flag: 1 << j for j, flag in enumerate(EVENT_FLAGS)}


class Advisory(Enum):
    """Vertical resolution advisories, one row each: (value, sense, strength, target_rate_fpm).

    sense is +1 (up), -1 (down) or 0 (COC); strength 0 for DNC/DND, 1 for
    1500 and 2 for 2500 (-1 for COC); target_rate_fpm is the signed band
    edge (None for COC): up-sense needs vertical rate >= it, down-sense <= it.
    Members are declared in selection tie-break order: no advisory first,
    then weaker before stronger, down before up at equal strength.
    """

    COC = ("COC", 0, -1, None)
    DNC = ("DNC", DOWN, 0, 0.0)
    DND = ("DND", UP, 0, 0.0)
    DES1500 = ("DES1500", DOWN, 1, -1500.0)
    CL1500 = ("CL1500", UP, 1, 1500.0)
    DES2500 = ("DES2500", DOWN, 2, -2500.0)
    CL2500 = ("CL2500", UP, 2, 2500.0)

    def __new__(cls, value: str, sense: int, strength: int, target_rate_fpm: Optional[float]):
        member = object.__new__(cls)
        member._value_ = value
        member.sense = sense
        member.strength = strength
        member.target_rate_fpm = target_rate_fpm
        member.target_rate_fps = None if target_rate_fpm is None else target_rate_fpm / 60.0
        return member

    @property
    def mirror(self) -> "Advisory":
        """The advisory of equal strength and opposite sense; COC mirrors to itself."""
        return next(b for b in Advisory if b.strength == self.strength and b.sense == -self.sense)


# Canonical advisory axis order (also the argmax tie-break order): the one
# axis of every table, lookup and lockstep simulator, which hold advisories
# as indices into it.  The read-only arrays along it hold each row's sense,
# band edge in ft/s (0 for COC) and the index of its mirror.
ADVISORIES: Tuple[Advisory, ...] = tuple(Advisory)
COC_INDEX = ADVISORIES.index(Advisory.COC)
SENSES = np.array([a.sense for a in ADVISORIES])
TARGETS_FPS = np.array([a.target_rate_fps or 0.0 for a in ADVISORIES])
MIRROR_INDEX = np.array([ADVISORIES.index(a.mirror) for a in ADVISORIES])
for _axis_array in (SENSES, TARGETS_FPS, MIRROR_INDEX):
    _axis_array.setflags(write=False)

UP_ADVISORIES: Tuple[Advisory, ...] = tuple(a for a in ADVISORIES if a.sense == UP)
DOWN_ADVISORIES: Tuple[Advisory, ...] = tuple(a for a in ADVISORIES if a.sense == DOWN)


def is_strengthening(prev: Advisory, new: Advisory) -> bool:
    """True when ``new`` strictly strengthens ``prev`` within the same sense."""
    return prev.sense != 0 and new.sense == prev.sense and new.strength > prev.strength


def is_reversal(prev: Advisory, new: Advisory) -> bool:
    """True when ``prev`` and ``new`` carry opposite senses."""
    return prev.sense != 0 and new.sense != 0 and new.sense == -prev.sense


@dataclass(frozen=True)
class VerticalState:
    """State of one pairwise vertical conflict.

    h is intruder-minus-ownship relative altitude (ft), hdot0/hdot1 are the
    ownship/intruder vertical rates (ft/s), a_prev the previously issued
    advisory, and tau the time to loss of horizontal separation (s,
    quantized to whole seconds by producers; must be >= 0).
    """

    h: float
    hdot0: float
    hdot1: float
    a_prev: Advisory
    tau: float

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not isinstance(self.a_prev, Advisory):
            raise TypeError("a_prev must be an Advisory")


@dataclass(frozen=True)
class AircraftState:
    """Instantaneous point-mass state (ft, ft/s)."""

    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float


@dataclass(frozen=True)
class BeliefState:
    """Finite set of weighted state samples representing state uncertainty."""

    particles: Tuple[Tuple[VerticalState, float], ...]

    def __post_init__(self) -> None:
        if not self.particles:
            raise ValueError("belief must contain at least one particle")
        total = 0.0
        for _, w in self.particles:
            if w < 0:
                raise ValueError("particle weights must be >= 0")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"particle weights must sum to 1, got {total}")


# ---------------------------------------------------------------------------
# Counter-based random numbers
# ---------------------------------------------------------------------------

# A seed is a 64-bit key: every uniform hashes it as one uint64.
SEED_LIMIT = 2**64

# SplitMix64 (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
# Generators", OOPSLA 2014): its golden-ratio increment and the two
# multipliers of its output finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array; returns z.

    numpy wraps uint64 array products silently; only scalar np.uint64
    arithmetic warns on overflow, so every operand here is an array.
    """
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, stream: int, indices, width: int) -> np.ndarray:
    """A chunk's block of uniforms in [0, 1): row b belongs to index indices[b].

    Uniform k of (seed, stream, index) is a pure function of those four
    numbers, so a row is the same in any chunk and any worker.  The row's
    key is mix(mix(mix(seed) + stream) + index), with mix SplitMix64's
    finalizer, and uniform k is the (k + 1)-th output of a SplitMix64
    generator started at that key, mix(key + (k + 1) * golden), as
    (z >> 11) * 2**-53.  Returns float64 of shape (len(indices), width).
    A seed that is not an integer raises TypeError.
    """
    if not 0 <= operator.index(seed) < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    key = _mix64(_mix64(np.full(1, seed, dtype=np.uint64)) + np.uint64(stream))
    keys = _mix64(np.asarray(indices, dtype=np.uint64) + key)
    z = keys[:, None] + np.arange(1, width + 1, dtype=np.uint64) * _GOLDEN
    _mix64(z)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def horizontal_tau_xy(
    rel_pos: Tuple[float, float],
    rel_vel: Tuple[float, float],
    separation_threshold: float,
) -> Optional[float]:
    """Time until constant-velocity horizontal range first drops to threshold.

    Returns the smallest t >= 0 with |rel_pos + t * rel_vel| <= threshold,
    0.0 if already inside, or None if the range never reaches the threshold.
    """
    if separation_threshold < 0:
        raise ValueError("separation threshold must be >= 0")
    px, py = rel_pos
    vx, vy = rel_vel
    rr = px * px + py * py
    thr2 = separation_threshold * separation_threshold
    if rr <= thr2:
        return 0.0
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return None
    pv = px * vx + py * vy
    disc = pv * pv - vv * (rr - thr2)
    if disc < 0.0:
        return None
    t = (-pv - math.sqrt(disc)) / vv
    if t < 0.0:
        return None
    return t


# ---------------------------------------------------------------------------
# Simulated traces and their CSV interchange
# ---------------------------------------------------------------------------


class Trace(NamedTuple):
    """A chunk of B simulated encounters, as the lockstep simulator records them.

    outcome holds each encounter's evaluation.OUTCOME record.  x, y, z and
    vz (ft, ft/s) have shape (B, 2, n+1): axis 1 is (ownship, intruder),
    axis 2 the sample at time k * dt.  vel (B, 2, 2) holds each aircraft's
    constant horizontal velocity (vx, vy).  adv (B, n+1, 2) holds the
    (ownship, intruder) advisories active at each sample as int8 indices
    into ADVISORIES, and events (B, n+1) each sample's EVENT_BIT flags as
    uint8.
    """

    outcome: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    vz: np.ndarray
    vel: np.ndarray
    adv: np.ndarray
    events: np.ndarray
    dt: float


TRACE_CSV_HEADER = [
    "t",
    "x0", "y0", "z0", "vx0", "vy0", "vz0",
    "x1", "y1", "z1", "vx1", "vy1", "vz1",
    "adv0", "adv1", "events",
]

# The events cell of each bit pattern: its labels, sorted, joined by "|".
_EVENT_CELLS = [
    "|".join(sorted(f for f in EVENT_FLAGS if bits & EVENT_BIT[f]))
    for bits in range(1 << len(EVENT_FLAGS))
]


def write_trace_csv(trace: Trace, b: int, path) -> None:
    """Write encounter b of trace as CSV with a leading ``# dt=<seconds>`` comment line.

    Every kinematic value must be finite; otherwise ValueError, and no file.
    """
    n = trace.z.shape[2]
    kinematics = np.stack([
        column
        for i in (0, 1)
        for column in (trace.x[b, i], trace.y[b, i], trace.z[b, i],
                       np.full(n, trace.vel[b, i, 0]), np.full(n, trace.vel[b, i, 1]), trace.vz[b, i])
    ])
    if not np.all(np.isfinite(kinematics)):
        raise ValueError(f"trace of encounter {b} holds non-finite kinematics")
    columns = [[k * trace.dt for k in range(n)], *kinematics.tolist()]
    columns += [[ADVISORIES[a].value for a in trace.adv[b, :, i].tolist()] for i in (0, 1)]
    columns.append([_EVENT_CELLS[bits] for bits in trace.events[b].tolist()])
    with open(path, "w", newline="") as f:
        f.write(f"# dt={trace.dt}\n")
        writer = csv.writer(f)
        writer.writerow(TRACE_CSV_HEADER)
        # tolist() gives Python floats, which csv writes as their repr.
        writer.writerows(zip(*columns))
