"""Point-mass vertical kinematics, pilot response, and maneuver projection.

A complying pilot accelerates at a constant rate toward the nearest edge of
the advisory's vertical-rate band and saturates exactly at the edge; altitude
integrates the trapezoidal mean of the step's start/end rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Advisory

# Default pilot parameters: ~g/4 vertical acceleration, 5 s deterministic
# projection delay, and a geometric per-step response probability whose mean
# delay (1-p)/p matches the 5 s figure.
DEFAULT_PILOT_ACCEL_FPS2 = 8.05
DEFAULT_PILOT_DELAY_S = 5.0
DEFAULT_RESPONSE_PROBABILITY = 1.0 / 6.0

# Intruder acceleration spread comparable to the ownship's own maneuver
# authority; weaker values wash out the near-coaltitude wait region.
DEFAULT_INTRUDER_SIGMA_FPS2 = 8.0


@dataclass(frozen=True)
class PilotModel:
    """Pilot response model.

    response_probability is the per-step probability of beginning to comply
    (geometric delay); acceleration is the constant vertical acceleration
    magnitude once complying (ft/s^2); deterministic_delay is the fixed
    response delay used by deterministic TCAS projections (s).
    """

    response_probability: float = DEFAULT_RESPONSE_PROBABILITY
    acceleration: float = DEFAULT_PILOT_ACCEL_FPS2
    deterministic_delay: float = DEFAULT_PILOT_DELAY_S

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not (0.0 < self.response_probability <= 1.0):
            p = self.response_probability
            raise ValueError(f"response_probability must be in (0, 1], got {p!r}")
        if not self.acceleration > 0:
            raise ValueError(f"acceleration must be > 0, got {self.acceleration!r}")
        if not self.deterministic_delay >= 0:
            raise ValueError(f"deterministic_delay must be >= 0, got {self.deterministic_delay!r}")


@dataclass(frozen=True)
class IntruderModel:
    """Zero-mean Gaussian per-step vertical acceleration (ft/s^2 std dev)."""

    sigma_accel: float = DEFAULT_INTRUDER_SIGMA_FPS2

    def __post_init__(self) -> None:
        # An infinite spread gives the DP NaN branch weights, which it drops.
        if not 0 <= self.sigma_accel < math.inf:
            raise ValueError(f"sigma_accel must be finite and >= 0, got {self.sigma_accel!r}")


def step_vertical(
    z: float,
    vz: float,
    target_band: Optional[Advisory],
    complying: bool,
    pilot: PilotModel,
    dt: float,
) -> Tuple[float, float]:
    """Advance (altitude, vertical rate) by one step of length dt.

    With no band or a non-complying pilot the rate is held; otherwise the
    rate moves toward the band edge at +/- pilot.acceleration and clamps
    exactly at the edge.  Altitude integrates the trapezoidal mean of the
    start/end rates.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    vz_new = vz
    if complying and target_band is not None and target_band is not Advisory.COC:
        target = target_band.target_rate_fps
        sense = target_band.sense
        inside = vz >= target if sense > 0 else vz <= target
        if not inside:
            step = pilot.acceleration * dt
            if target > vz:
                vz_new = min(vz + step, target)
            else:
                vz_new = max(vz - step, target)
    return z + 0.5 * (vz + vz_new) * dt, vz_new


def step_complying_many(
    z: np.ndarray,
    vz: np.ndarray,
    target: np.ndarray,
    sense: np.ndarray,
    pilot: PilotModel,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of step_vertical for complying pilots, bit for bit.

    target and sense hold each element's band edge (ft/s) and sense (+1 or
    -1), or are scalars shared by every element.  The min/max tie rules of
    step_vertical are kept, so every element equals the scalar result.
    """
    step = pilot.acceleration * dt
    up, down = vz + step, vz - step
    toward = np.where(
        target > vz,
        np.where(target < up, target, up),
        np.where(target > down, target, down),
    )
    inside = np.where(sense > 0, vz >= target, vz <= target)
    vz_new = np.where(inside, vz, toward)
    return z + 0.5 * (vz + vz_new) * dt, vz_new


def project_template_many(
    own: Tuple[np.ndarray, np.ndarray],
    intr: Tuple[np.ndarray, np.ndarray],
    templates: Sequence[Advisory],
    pilot: PilotModel,
    horizon: np.ndarray,
) -> np.ndarray:
    """Array form of project_template over rows x template advisories, in closed form.

    own and intr hold each row's (altitude, vertical rate) arrays and
    horizon each row's horizon; returns the (rows, templates) projected
    separations.  The result equals project_template's stepped sum up to
    rounding (~1e-11 ft), and bit for bit where the horizon ends inside
    the delay.  Rates run in the sense-normalized frame u = sense * vz,
    where the band edge e is a floor; a rate at or past its edge holds
    (COC's edge is -inf), so e is raised to u.  Over the time `left` after
    the delay, the stepped rate ramps from u at a, with knots every second,
    until it reaches e at s = (e - u) / a, and then holds.  Its trapezoid
    steps integrate that ramp exactly, except on the one step [k, k_end]
    that holds the kink s: its end rate is clamped at e, so the step falls
    short of the ramp's integral by a/2 * (s - k) * (k_end - s).
    """
    horizon = np.asarray(horizon, dtype=float)
    if not np.all(horizon >= 0):
        raise ValueError("horizon must be >= 0")
    sense = np.array([a.sense or 1 for a in templates], dtype=float)
    edge = np.array([-np.inf if a is Advisory.COC else a.sense * a.target_rate_fps
                     for a in templates])
    z0, vz0 = (np.asarray(v, dtype=float) for v in own)
    a = pilot.acceleration
    t = np.minimum(pilot.deterministic_delay, horizon)
    left = (horizon - t)[:, None]
    u = vz0[:, None] * sense
    edge = np.maximum(edge, u)
    s = np.minimum((edge - u) / a, left)
    k = np.floor(s)
    w = ((z0 + vz0 * t)[:, None] * sense + (u + 0.5 * a * s) * s + edge * (left - s)
         - 0.5 * a * (s - k) * (np.minimum(k + 1.0, left) - s))
    z1, vz1 = (np.asarray(v, dtype=float) for v in intr)
    return np.abs((z1 + vz1 * horizon)[:, None] - w * sense)


def project_template(
    own: Tuple[float, float],
    intr: Tuple[float, float],
    advisory: Advisory,
    pilot: PilotModel,
    horizon: float,
) -> float:
    """Deterministic projected vertical separation at the horizon (ft).

    The intruder holds constant velocity; the ownship holds constant
    velocity for pilot.deterministic_delay seconds and then complies with
    the advisory via step_vertical, in 1 s steps, until the horizon.  This
    stepped sum is the reference that project_template_many's closed form
    is held to.
    """
    if not horizon >= 0:
        raise ValueError("horizon must be >= 0")
    z0, vz0 = own
    z1, vz1 = intr
    delay = min(pilot.deterministic_delay, horizon)
    z0 += vz0 * delay
    t = delay
    while t < horizon - 1e-12:
        step = min(1.0, horizon - t)
        z0, vz0 = step_vertical(z0, vz0, advisory, True, pilot, step)
        t += step
    return abs((z1 + vz1 * horizon) - z0)
