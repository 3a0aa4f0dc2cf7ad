import math

import numpy as np
import pytest

from caslab.core import AircraftTrack
from caslab.dynamics import IntruderModel, PilotModel
from caslab.encounters import HEADINGS, OWN_POS0
from caslab.optimizer import Grid, RewardParams, backward_induction


def micro_grid(tau_max: int = 4) -> Grid:
    return Grid(
        h_cuts=np.array([-1000.0, -100.0, 0.0, 100.0, 1000.0]),
        hdot0_cuts=np.array([-25.0, 0.0, 25.0]),
        hdot1_cuts=np.array([-25.0, 0.0, 25.0]),
        tau_max=tau_max,
    )


def nominal_tracks(enc):
    """Integrate the nominal (logic-free) kinematics of both aircraft of a batch of one."""
    (speed,), (int_pos0,), (alt0,), (vrate,) = enc.speed, enc.int_pos0, enc.alt0, enc.vrate
    starts = (OWN_POS0, tuple(int_pos0.tolist()))
    return tuple(
        _integrate_track(enc.n_steps, enc.dt, starts[i], HEADINGS[i], float(speed[i]),
                         float(alt0[i]), vrate[i])
        for i in (0, 1)
    )


def _integrate_track(n, dt, pos0, heading, speed, alt0, vrate):
    t = np.arange(n + 1) * dt
    vx = speed * math.cos(heading)
    vy = speed * math.sin(heading)
    z = np.empty(n + 1)
    z[0] = alt0
    z[1:] = alt0 + np.cumsum(vrate * dt)
    vz = np.empty(n + 1)
    vz[:n] = vrate
    vz[n] = vrate[-1]
    return AircraftTrack(
        dt=dt,
        x=pos0[0] + vx * t,
        y=pos0[1] + vy * t,
        z=z,
        vx=np.full(n + 1, vx),
        vy=np.full(n + 1, vy),
        vz=vz,
    )


@pytest.fixture(scope="session")
def default_table():
    """Full-size optimized table shared across test modules (built once)."""
    return backward_induction(Grid(), PilotModel(), IntruderModel(), RewardParams())


@pytest.fixture(scope="session")
def small_table():
    """Micro-grid table for cheap runtime/lookup tests."""
    return backward_induction(
        micro_grid(),
        PilotModel(response_probability=0.5, acceleration=8.0),
        IntruderModel(sigma_accel=4.0),
        RewardParams(),
    )
