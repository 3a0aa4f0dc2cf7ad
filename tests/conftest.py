import math

import numpy as np
import pytest

from caslab.bayesnet import Assignment, ancestral_sample
from caslab.core import ADVISORIES, EVENT_BIT, EVENT_FLAGS, MIRROR_INDEX, NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT
from caslab.dynamics import IntruderModel, PilotModel
from caslab.encounters import HEADINGS, OWN_POS0
from caslab.optimizer import Grid, RewardParams, backward_induction
from caslab.tablefile import read_table, write_table


def micro_grid(tau_max: int = 4) -> Grid:
    return Grid(
        h_cuts=np.array([-1000.0, -100.0, 0.0, 100.0, 1000.0]),
        hdot0_cuts=np.array([-25.0, 0.0, 25.0]),
        hdot1_cuts=np.array([-25.0, 0.0, 25.0]),
        tau_max=tau_max,
    )


def full_expected(table):
    """A table's expected values on every h row, axes (h, hdot0, hdot1, tau, action).

    A table stores its h >= 0 rows; each row below zero is the vertical
    mirror of a stored one: both rates reversed and the action mirrored.
    """
    below = table.values[:0:-1, ::-1, ::-1][..., MIRROR_INDEX]
    return np.concatenate([below, table.values])


def full_values(table):
    """Every state-action value a table stands for, axes (h, hdot0, hdot1, tau, a_prev, action).

    The value is cost[a_prev, action] plus the expected value, rebuilt in
    float64.  Tests that index the whole grid read it through here.
    """
    return full_expected(table)[..., None, :] + table.cost


# The cost block of an ACXT file: the 7 x 7 float64 matrix between the header and the values.
ACXT_COST_BYTES = 8 * len(ADVISORIES) ** 2


def acxt_header_bytes(grid):
    """Length of the ACXT header of a table on grid: everything before the cost block.

    Every format version shares this layout; version 3 follows it with the
    cost block and then the values, earlier versions with the values.
    """
    cuts = len(grid.h_cuts) + len(grid.hdot0_cuts) + len(grid.hdot1_cuts) + grid.tau_max + 1
    names = sum(4 + len(a.value.encode()) for a in ADVISORIES)
    return 12 + 4 * 4 + 8 * cuts + 4 + names


def nominal_tracks(enc):
    """Integrate the nominal (logic-free) kinematics of a batch of one encounter.

    Returns x, y, z and vz, each of shape (2, n+1) with axis 0 (ownship,
    intruder), as a Trace holds them for that encounter.
    """
    (speed,), (int_pos0,), (alt0,), (vrate,) = enc.speed, enc.int_pos0, enc.alt0, enc.vrate
    n, dt = enc.n_steps, enc.dt
    t = np.arange(n + 1) * dt
    x, y, z, vz = (np.empty((2, n + 1)) for _ in range(4))
    for i, pos0 in enumerate((OWN_POS0, tuple(int_pos0.tolist()))):
        x[i] = pos0[0] + float(speed[i]) * math.cos(HEADINGS[i]) * t
        y[i] = pos0[1] + float(speed[i]) * math.sin(HEADINGS[i]) * t
        z[i, 0] = alt0[i]
        z[i, 1:] = alt0[i] + np.cumsum(vrate[i] * dt)
        vz[i, :n] = vrate[i]
        vz[i, n] = vrate[i, -1]
    return x, y, z, vz


def sample_initial(model, rng):
    """Ancestral draw of a model's initial-state network.

    The scalar twin of the batched sampler's initial draw.
    """
    return ancestral_sample(model.initial_net, rng)


def sample_transition(model, current, rng):
    """Propagate an assignment one step through a model's dynamic network.

    The scalar twin of one step of the batched sampler.
    """
    asn = ancestral_sample(model.transition_net, rng, current.bins)
    bins = current.bins.copy()
    values = current.values.copy()
    for j, base in model.next_node_map:
        bins[base] = asn.bins[j]
        values[base] = asn.values[j]
    return Assignment(bins=bins, values=values)


def trace_severity(x, y, z):
    """Minimum 3-D separation of one encounter's (2, n+1) tracks, scaled by the NMAC thresholds.

    Below 1 exactly when the encounter has an NMAC: the scalar twin of the
    severity field _fly reduces from its arrays.
    """
    dz = np.abs(z[1] - z[0]) / NMAC_VERTICAL_FT
    dxy = np.hypot(x[1] - x[0], y[1] - y[0]) / NMAC_HORIZONTAL_FT
    return float(np.min(np.maximum(dz, dxy)))


def event_labels(bits):
    """The EVENT_* labels of one sample's event bits."""
    return frozenset(f for f in EVENT_FLAGS if bits & EVENT_BIT[f])


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


@pytest.fixture(scope="session")
def read_small_table(small_table, tmp_path_factory):
    """small_table after an ACXT write and read: float32 values, as every reader holds."""
    path = tmp_path_factory.mktemp("acxt") / "small.acxt"
    write_table(small_table, path)
    return read_table(path)
