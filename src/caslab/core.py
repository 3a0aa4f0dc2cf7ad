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
from typing import Optional, Tuple

import numpy as np

# NMAC volume thresholds (ft): both separations strictly below these at once.
NMAC_VERTICAL_FT = 100.0
NMAC_HORIZONTAL_FT = 500.0

FT_PER_NMI = 6076.115

# Vertical sense codes.
UP = +1
DOWN = -1

# Event flag labels used in EncounterTrace.events.
EVENT_TA = "TA"
EVENT_RA = "RA"
EVENT_STRENGTHEN = "STRENGTHEN"
EVENT_REVERSAL = "REVERSAL"
EVENT_CROSSING = "CROSSING"
EVENT_NMAC = "NMAC"


class Advisory(Enum):
    """Vertical resolution advisories.

    Members are declared in selection tie-break order: no advisory first,
    then weaker before stronger, down before up at equal strength.  Each
    non-COC member carries a sense (up/down) and a one-sided target
    vertical-rate band expressed in ft/min.
    """

    COC = "COC"
    DNC = "DNC"
    DND = "DND"
    DES1500 = "DES1500"
    CL1500 = "CL1500"
    DES2500 = "DES2500"
    CL2500 = "CL2500"

    @property
    def sense(self) -> int:
        """+1 for up-sense, -1 for down-sense, 0 for COC."""
        return _SENSE[self]

    @property
    def strength(self) -> int:
        """0 for rate-limit advisories (DNC/DND), 1 for 1500, 2 for 2500."""
        return _STRENGTH[self]

    @property
    def mirror(self) -> "Advisory":
        """The advisory of equal strength and opposite sense; COC mirrors to itself."""
        return _MIRROR[self]

    @property
    def target_rate_fpm(self) -> Optional[float]:
        """Signed band edge in ft/min; None for COC.

        Up-sense advisories require vertical rate >= target; down-sense
        require rate <= target.
        """
        return _TARGET_FPM[self]

    @property
    def target_rate_fps(self) -> Optional[float]:
        t = _TARGET_FPM[self]
        return None if t is None else t / 60.0


_SENSE = {
    Advisory.COC: 0,
    Advisory.DNC: DOWN,
    Advisory.DND: UP,
    Advisory.DES1500: DOWN,
    Advisory.CL1500: UP,
    Advisory.DES2500: DOWN,
    Advisory.CL2500: UP,
}

_STRENGTH = {
    Advisory.COC: -1,
    Advisory.DNC: 0,
    Advisory.DND: 0,
    Advisory.DES1500: 1,
    Advisory.CL1500: 1,
    Advisory.DES2500: 2,
    Advisory.CL2500: 2,
}

_MIRROR = {
    a: next(b for b in Advisory if b.strength == a.strength and b.sense == -a.sense)
    for a in Advisory
}

_TARGET_FPM = {
    Advisory.COC: None,
    Advisory.DNC: 0.0,
    Advisory.DND: 0.0,
    Advisory.DES1500: -1500.0,
    Advisory.CL1500: 1500.0,
    Advisory.DES2500: -2500.0,
    Advisory.CL2500: 2500.0,
}

# Canonical advisory axis order (also the argmax tie-break order): the one
# axis of every table, lookup and lockstep simulator, which hold advisories
# as indices into it.  MIRROR_INDEX[i] is the index of ADVISORIES[i].mirror.
ADVISORIES: Tuple[Advisory, ...] = tuple(Advisory)
COC_INDEX = ADVISORIES.index(Advisory.COC)
MIRROR_INDEX = np.array([ADVISORIES.index(a.mirror) for a in ADVISORIES])
MIRROR_INDEX.setflags(write=False)

UP_ADVISORIES: Tuple[Advisory, ...] = (Advisory.DND, Advisory.CL1500, Advisory.CL2500)
DOWN_ADVISORIES: Tuple[Advisory, ...] = (Advisory.DNC, Advisory.DES1500, Advisory.DES2500)


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
class AircraftTrack:
    """Point-mass kinematic time series sampled at a fixed step dt."""

    dt: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vz: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        n = len(self.x)
        for name in ("x", "y", "z", "vx", "vy", "vz"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError("track series must share one length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"track series {name} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class EncounterTrace:
    """Simulated pairwise encounter: kinematics plus advisory/event annotations.

    advisories[i] holds the (ownship, intruder) advisories active at step i;
    events[i] is a frozenset of EVENT_* labels raised at step i.
    """

    ownship: AircraftTrack
    intruder: AircraftTrack
    advisories: Tuple[Tuple[Advisory, Advisory], ...]
    events: Tuple[frozenset, ...]

    def __post_init__(self) -> None:
        n = len(self.ownship)
        if len(self.intruder) != n or len(self.advisories) != n or len(self.events) != n:
            raise ValueError("trace series must share one length")
        if self.ownship.dt != self.intruder.dt:
            raise ValueError("tracks must share one dt")

    @property
    def dt(self) -> float:
        return self.ownship.dt

    def __len__(self) -> int:
        return len(self.ownship)

    def has_event(self, flag: str) -> bool:
        return any(flag in ev for ev in self.events)


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
# EncounterTrace CSV interchange
# ---------------------------------------------------------------------------

TRACE_CSV_HEADER = [
    "t",
    "x0", "y0", "z0", "vx0", "vy0", "vz0",
    "x1", "y1", "z1", "vx1", "vy1", "vz1",
    "adv0", "adv1", "events",
]


def write_trace_csv(trace: EncounterTrace, path) -> None:
    """Write a trace as CSV with a leading ``# dt=<seconds>`` comment line."""
    with open(path, "w", newline="") as f:
        f.write(f"# dt={trace.dt}\n")
        writer = csv.writer(f)
        writer.writerow(TRACE_CSV_HEADER)
        for i in range(len(trace)):
            own = trace.ownship
            intr = trace.intruder
            a0, a1 = trace.advisories[i]
            writer.writerow(
                [repr(i * trace.dt)]
                + [repr(float(v[i])) for v in (own.x, own.y, own.z, own.vx, own.vy, own.vz)]
                + [repr(float(v[i])) for v in (intr.x, intr.y, intr.z, intr.vx, intr.vy, intr.vz)]
                + [a0.value, a1.value, "|".join(sorted(trace.events[i]))]
            )


def read_trace_csv(path) -> EncounterTrace:
    with open(path, "r", newline="") as f:
        first = f.readline().strip()
        if not first.startswith("# dt="):
            raise ValueError("trace CSV must begin with a '# dt=<seconds>' line")
        dt = float(first.split("=", 1)[1])
        reader = csv.reader(f)
        header = next(reader)
        if header != TRACE_CSV_HEADER:
            raise ValueError("unexpected trace CSV header")
        cols: list = [[] for _ in TRACE_CSV_HEADER]
        for row in reader:
            for c, v in zip(cols, row):
                c.append(v)
    own = AircraftTrack(
        dt,
        *(np.array([float(v) for v in cols[i]]) for i in range(1, 7)),
    )
    intr = AircraftTrack(
        dt,
        *(np.array([float(v) for v in cols[i]]) for i in range(7, 13)),
    )
    advisories = tuple(
        (Advisory(a0), Advisory(a1)) for a0, a1 in zip(cols[13], cols[14])
    )
    events = tuple(
        frozenset(e.split("|")) if e else frozenset() for e in cols[15]
    )
    return EncounterTrace(ownship=own, intruder=intr, advisories=advisories, events=events)
