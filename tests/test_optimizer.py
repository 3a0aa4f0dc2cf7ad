import functools
import hashlib
import math

import numpy as np
import pytest

from caslab.core import ADVISORIES, MIRROR_INDEX, Advisory, VerticalState
from caslab.dynamics import IntruderModel, PilotModel
from caslab.optimizer import (
    COLLISION_COST,
    TIE_TOL,
    Grid,
    LogicTable,
    RewardParams,
    _advisory_cost_matrix,
    _solve,
    _sweep_operator,
    backward_induction,
    reward,
    select_advisories,
    transition_distribution,
)
from caslab.runtime import policy_slice
from caslab.tablefile import read_table, write_table
from conftest import full_values, micro_grid

MIRROR = {
    Advisory.COC: Advisory.COC,
    Advisory.DNC: Advisory.DND,
    Advisory.DND: Advisory.DNC,
    Advisory.DES1500: Advisory.CL1500,
    Advisory.CL1500: Advisory.DES1500,
    Advisory.DES2500: Advisory.CL2500,
    Advisory.CL2500: Advisory.DES2500,
}


def expectimax_table(grid, pilot, intruder, params):
    """Independent oracle: memoized recursion over all action/outcome trees."""
    na = len(ADVISORIES)

    @functools.lru_cache(maxsize=None)
    def value(ih, i0, i1, itau, ia_prev, ia):
        s = VerticalState(
            h=float(grid.h_cuts[ih]),
            hdot0=float(grid.hdot0_cuts[i0]),
            hdot1=float(grid.hdot1_cuts[i1]),
            a_prev=ADVISORIES[ia_prev],
            tau=float(itau),
        )
        r = reward(s, ADVISORIES[ia], params)
        if itau == 0:
            return r
        expected = 0.0
        for idx, w in transition_distribution(s, ADVISORIES[ia], pilot, intruder, grid):
            jh, j0, j1, jtau, ja_prev = np.unravel_index(idx, grid.shape)
            expected += w * max(
                value(int(jh), int(j0), int(j1), int(jtau), int(ja_prev), ja)
                for ja in range(na)
            )
        return r + expected

    out = np.empty(grid.shape + (na,))
    for ih in range(len(grid.h_cuts)):
        for i0 in range(len(grid.hdot0_cuts)):
            for i1 in range(len(grid.hdot1_cuts)):
                for itau in range(grid.tau_max + 1):
                    for ip in range(na):
                        for ia in range(na):
                            out[ih, i0, i1, itau, ip, ia] = value(ih, i0, i1, itau, ip, ia)
    return out


# (pilot response probability, intruder sigma) of the mirror checks
FOLD_CASES = [(0.4, 0.0), (0.4, 6.0), (1.0, 0.0), (1.0, 6.0)]


@functools.lru_cache(maxsize=None)
def micro_oracle(p, sigma):
    """expectimax_table on micro_grid(tau_max=3), whose successors cross h = 0."""
    return expectimax_table(
        micro_grid(tau_max=3), PilotModel(response_probability=p, acceleration=8.0),
        IntruderModel(sigma_accel=sigma), RewardParams(),
    )


class TestGridValidation:
    def test_h_cuts_must_be_symmetric(self):
        with pytest.raises(ValueError):
            Grid(h_cuts=np.array([-100.0, 0.0, 200.0]))

    def test_cuts_strictly_increasing(self):
        with pytest.raises(ValueError):
            Grid(h_cuts=np.array([-100.0, 0.0, 0.0, 100.0]))

    def test_cuts_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Grid(hdot0_cuts=np.array([-25.0, 0.0, np.nan]))

    def test_h_cuts_must_include_zero(self):
        with pytest.raises(ValueError, match="include 0"):
            Grid(h_cuts=np.array([-100.0, -10.0, 10.0, 100.0]))

    def test_symmetry_is_exact(self):
        with pytest.raises(ValueError, match="symmetric"):
            Grid(h_cuts=np.array([-100.0, 0.0, 100.0 + 1e-12]))

    @pytest.mark.parametrize("name", ["hdot0_cuts", "hdot1_cuts"])
    def test_rate_cuts_must_be_symmetric(self, name):
        with pytest.raises(ValueError, match=f"{name} must be symmetric"):
            Grid(**{name: np.array([-25.0, 0.0, 30.0])})

    # tau_max 0 leaves one tau cut, and a lookup on it divided 0 by 0
    @pytest.mark.parametrize("tau_max", [2.5, True, math.inf, 0])
    def test_tau_max_must_be_an_integer(self, tau_max):
        with pytest.raises(ValueError, match="tau_max"):
            Grid(tau_max=tau_max)

    def test_rate_cuts_need_no_zero(self):
        grid = Grid(hdot0_cuts=np.array([-25.0, -5.0, 5.0, 25.0]))
        assert grid.table_shape[1] == 4

    def test_advisory_axis_is_not_an_option(self):
        with pytest.raises(TypeError):
            Grid(advisories=ADVISORIES)
        assert Grid().advisories == ADVISORIES

    def test_advisory_mirror(self):
        assert {a: a.mirror for a in Advisory} == MIRROR
        assert MIRROR_INDEX.tolist() == [ADVISORIES.index(MIRROR[a]) for a in ADVISORIES]
        assert not MIRROR_INDEX.flags.writeable

    def test_state_index_matches_values_layout(self, small_table):
        grid = small_table.grid
        full = full_values(small_table)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ih = rng.integers(len(grid.h_cuts))
            i0 = rng.integers(len(grid.hdot0_cuts))
            i1 = rng.integers(len(grid.hdot1_cuts))
            itau = rng.integers(grid.tau_max + 1)
            ia = rng.integers(len(ADVISORIES))
            flat = grid.state_index(ih, i0, i1, itau, ia)
            np.testing.assert_array_equal(
                full.reshape(-1, len(ADVISORIES))[flat], full[ih, i0, i1, itau, ia]
            )


class TestReward:
    def params(self):
        return RewardParams()

    def test_collision_at_tau_zero(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 0.0)
        assert reward(s, Advisory.COC, self.params()) == -1.0

    def test_no_penalty_when_clear(self):
        s = VerticalState(2000.0, 0.0, 0.0, Advisory.COC, 10.0)
        assert reward(s, Advisory.COC, self.params()) == 0.0

    def test_alert_cost_on_first_issue(self):
        s = VerticalState(500.0, 0.0, 0.0, Advisory.COC, 10.0)
        assert reward(s, Advisory.DES1500, self.params()) == -0.01

    def test_reversal_cost(self):
        s = VerticalState(500.0, 0.0, 0.0, Advisory.CL1500, 10.0)
        assert reward(s, Advisory.DES1500, self.params()) == -0.02

    def test_strengthen_cost(self):
        s = VerticalState(500.0, 0.0, 0.0, Advisory.DES1500, 10.0)
        assert reward(s, Advisory.DES2500, self.params()) == -0.005

    def test_collision_and_alert_combine(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 0.0)
        assert reward(s, Advisory.CL2500, self.params()) == pytest.approx(-1.01)

    def test_weakening_free(self):
        s = VerticalState(500.0, 0.0, 0.0, Advisory.DES2500, 10.0)
        assert reward(s, Advisory.DES1500, self.params()) == 0.0

    def test_alert_costs_no_more_than_a_collision(self):
        assert RewardParams(alert_cost=COLLISION_COST).alert_cost == -1.0
        with pytest.raises(ValueError, match="alert_cost must be >= -1.0"):
            RewardParams(alert_cost=-1.5)

    @pytest.mark.parametrize("name", ["alert_cost", "strengthen_cost", "reversal_cost"])
    def test_infinite_cost_refused_before_a_solve(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            backward_induction(micro_grid(), PilotModel(), IntruderModel(),
                               RewardParams(**{name: -math.inf}))


class TestTransitionDistribution:
    def test_deterministic_level_coc_single_successor(self):
        grid = micro_grid()
        pilot = PilotModel(response_probability=1.0, acceleration=8.0)
        intr = IntruderModel(sigma_accel=0.0)
        s = VerticalState(100.0, 0.0, 0.0, Advisory.COC, 3.0)
        dist = transition_distribution(s, Advisory.COC, pilot, intr, grid)
        assert len(dist) == 1
        idx, w = dist[0]
        assert w == pytest.approx(1.0, abs=1e-12)
        jh, j0, j1, jtau, jap = np.unravel_index(idx, grid.shape)
        assert grid.h_cuts[jh] == 100.0
        assert grid.hdot0_cuts[j0] == 0.0
        assert grid.hdot1_cuts[j1] == 0.0
        assert jtau == 2
        assert ADVISORIES[jap] is Advisory.COC

    def test_weights_sum_to_one_random_states(self):
        grid = micro_grid()
        pilot = PilotModel(response_probability=0.25, acceleration=7.0)
        intr = IntruderModel(sigma_accel=5.0)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s = VerticalState(
                h=rng.uniform(-1000, 1000),
                hdot0=rng.uniform(-25, 25),
                hdot1=rng.uniform(-25, 25),
                a_prev=ADVISORIES[rng.integers(7)],
                tau=float(rng.integers(1, grid.tau_max + 1)),
            )
            a = ADVISORIES[rng.integers(7)]
            dist = transition_distribution(s, a, pilot, intr, grid)
            total = sum(w for _, w in dist)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(w > 0 for _, w in dist)

    def test_immediate_descend_rate_mass(self):
        # p=1 pilot from level flight: all own-rate mass lands at -accel,
        # spread only over the intruder sigma points
        grid = Grid(
            h_cuts=np.array([-1000.0, 0.0, 1000.0]),
            hdot0_cuts=np.array([-25.0, -500.0 / 60.0, 0.0, 500.0 / 60.0, 25.0]),
            hdot1_cuts=np.array([-25.0, 0.0, 25.0]),
            tau_max=3,
        )
        pilot = PilotModel(response_probability=1.0, acceleration=500.0 / 60.0)
        intr = IntruderModel(sigma_accel=4.0)
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 2.0)
        dist = transition_distribution(s, Advisory.DES1500, pilot, intr, grid)
        by_rate = {}
        for idx, w in dist:
            _, j0, _, _, _ = np.unravel_index(idx, grid.shape)
            by_rate[j0] = by_rate.get(j0, 0.0) + w
        target_idx = 1  # -500 fpm cut
        assert by_rate[target_idx] == pytest.approx(1.0, abs=1e-12)

    def test_terminal_tau_rejected(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 0.0)
        with pytest.raises(ValueError):
            transition_distribution(
                s, Advisory.COC, PilotModel(), IntruderModel(), micro_grid()
            )

    def test_successor_a_prev_is_action(self):
        grid = micro_grid()
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 2.0)
        dist = transition_distribution(s, Advisory.CL2500, PilotModel(), IntruderModel(), grid)
        for idx, _ in dist:
            *_, jap = np.unravel_index(idx, grid.shape)
            assert ADVISORIES[jap] is Advisory.CL2500


class TestBackwardInduction:
    def test_hand_worked_collision_avoidance(self):
        # engineered so one descend step (-25 ft/s reached at once: -12.5 ft)
        # takes h = 95 exactly onto the h = 107.5 vertex, outside the 100 ft
        # collision band, while no-advisory stays inside
        grid = Grid(
            h_cuts=np.array([-1000.0, -107.5, -95.0, 0.0, 95.0, 107.5, 1000.0]),
            hdot0_cuts=np.array([-25.0, 0.0, 25.0]),
            hdot1_cuts=np.array([-25.0, 0.0, 25.0]),
            tau_max=1,
        )
        pilot = PilotModel(response_probability=1.0, acceleration=25.0)
        intr = IntruderModel(sigma_accel=0.0)
        params = RewardParams(alert_cost=0.0, strengthen_cost=0.0, reversal_cost=0.0)
        values = full_values(backward_induction(grid, pilot, intr, params))
        ih = 4  # h = 95
        irate = 1  # level
        icoc = ADVISORIES.index(Advisory.COC)
        ides = ADVISORIES.index(Advisory.DES1500)
        assert values[ih, irate, irate, 1, icoc, icoc] == pytest.approx(-1.0, abs=1e-12)
        assert values[ih, irate, irate, 1, icoc, ides] == pytest.approx(0.0, abs=1e-12)

    def test_values_are_float64(self, small_table):
        # the DP is checked to 1e-9; only a table read from a file is float32
        assert small_table.values.dtype == np.float64

    def test_matches_expectimax_oracle(self):
        grid = micro_grid(tau_max=3)
        pilot = PilotModel(response_probability=0.4, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        params = RewardParams()
        table = backward_induction(grid, pilot, intr, params)
        oracle = expectimax_table(grid, pilot, intr, params)
        np.testing.assert_allclose(full_values(table), oracle, atol=1e-9)

    def test_vertical_mirror_symmetry(self):
        # the oracle solves every h row, and the rows below zero mirror the
        # rest; that is what lets the sweep solve h >= 0 and fold the others
        grid = micro_grid(tau_max=3)
        perm = [ADVISORIES.index(MIRROR[a]) for a in ADVISORIES]
        for p, sigma in FOLD_CASES:
            oracle = micro_oracle(p, sigma)
            mirrored = oracle[::-1, ::-1, ::-1][:, :, :, :, perm][..., perm]
            np.testing.assert_allclose(oracle, mirrored, rtol=0, atol=1e-9)
            table = backward_induction(
                grid, PilotModel(response_probability=p, acceleration=8.0),
                IntruderModel(sigma_accel=sigma), RewardParams(),
            )
            np.testing.assert_allclose(full_values(table), oracle, rtol=0, atol=1e-9)

    def test_table_is_the_h_zero_up_half_of_the_sweep(self, small_table):
        grid = small_table.grid
        cost = _advisory_cost_matrix(RewardParams())
        values = _solve(
            grid, PilotModel(response_probability=0.5, acceleration=8.0),
            IntruderModel(sigma_accel=4.0), cost,
        )
        assert values.shape == small_table.values.shape == grid.table_shape == (3, 3, 3, 5, 7)
        assert np.array_equal(small_table.values[1:], values[1:])
        # the h = 0 row keeps one value of each mirror pair, which agree to rounding
        np.testing.assert_allclose(small_table.values[0], values[0], rtol=0, atol=1e-15)
        # the half sweep reads successors below zero at their mirror states,
        # and every a_prev adds its cost row to the same expected values
        micro = micro_grid(tau_max=3)
        for p, sigma in FOLD_CASES:
            half = _solve(
                micro, PilotModel(response_probability=p, acceleration=8.0),
                IntruderModel(sigma_accel=sigma), cost,
            )
            np.testing.assert_allclose(half[..., None, :] + cost, micro_oracle(p, sigma)[micro.h_zero:],
                                       rtol=0, atol=1e-9)

    def test_values_are_the_whole_solve(self, small_table):
        # the table holds the array the solve allocated, not a view of a larger one
        values = small_table.values
        assert values.base is None or values.base.nbytes <= values.nbytes

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(h_cuts=np.array([-100.0, 0.0, 100.0]), hdot0_cuts=np.array([-25.0, 25.0]),
                 hdot1_cuts=np.array([-25.0, 25.0]), tau_max=3),
            micro_grid(tau_max=1),
        ],
        ids=["smallest", "tau_max_1"],
    )
    def test_edge_grids_match_oracle(self, grid):
        pilot = PilotModel(response_probability=0.4, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        params = RewardParams()
        table = backward_induction(grid, pilot, intr, params)
        assert table.values.shape == grid.table_shape
        oracle = expectimax_table(grid, pilot, intr, params)
        np.testing.assert_allclose(full_values(table), oracle, rtol=0, atol=1e-9)

    def test_value_bounds(self, small_table):
        params = RewardParams()
        per_step_costs = [params.alert_cost, params.strengthen_cost, params.reversal_cost]
        lower = COLLISION_COST + small_table.grid.tau_max * min(per_step_costs)
        values = full_values(small_table)
        assert np.all(values >= lower - 1e-12)
        assert np.all(values <= 1e-12)


def column_distributions(grid, pilot, intruder):
    """transition_distribution of every sweep column, folded as the sweep reads it.

    Columns run over the actions, then the (h, hdot0, hdot1) vertices at
    h >= 0.  A target below h = 0 becomes its mirror vertex at the mirrored
    a_prev; targets are flat, a_prev * m + vertex, ascending, and duplicates
    are summed.
    """
    nh, n0, n1 = len(grid.h_cuts), len(grid.hdot0_cuts), len(grid.hdot1_cuts)
    vertices = (nh - grid.h_zero, n0, n1)
    m = int(np.prod(vertices))
    out = []
    for a in ADVISORIES:
        for row in range(m):
            ih, i0, i1 = np.unravel_index(row, vertices)
            s = VerticalState(
                h=float(grid.h_cuts[grid.h_zero + ih]),
                hdot0=float(grid.hdot0_cuts[i0]),
                hdot1=float(grid.hdot1_cuts[i1]),
                a_prev=Advisory.COC,
                tau=1.0,
            )
            merged = {}
            for j, w in transition_distribution(s, a, pilot, intruder, grid):
                jh, j0, j1, _, ja = (int(k) for k in np.unravel_index(j, grid.shape))
                if jh < grid.h_zero:
                    jh, j0, j1, ja = nh - 1 - jh, n0 - 1 - j0, n1 - 1 - j1, MIRROR_INDEX[ja]
                target = ja * m + int(np.ravel_multi_index((jh - grid.h_zero, j0, j1), vertices))
                merged[target] = merged.get(target, 0.0) + w
            targets = sorted(merged)
            out.append((targets, [merged[t] for t in targets]))
    return out


class TestSweepOperator:
    @pytest.mark.parametrize("p", [0.4, 1.0])
    def test_columns_match_transition_distribution(self, p):
        grid = micro_grid()
        pilot = PilotModel(response_probability=p, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        m = (len(grid.h_cuts) - grid.h_zero) * len(grid.hdot0_cuts) * len(grid.hdot1_cuts)
        slots, unorder = _sweep_operator(grid, pilot, intr)
        reference = column_distributions(grid, pilot, intr)
        assert len(unorder) == len(reference) == len(ADVISORIES) * m
        folded = 0
        for column, (targets, weights) in enumerate(reference):
            place = unorder[column]
            idx = np.array([flat[place] for flat, _ in slots if len(flat) > place])
            w = np.array([w[place] for _, w in slots if len(w) > place])
            assert idx.tolist() == targets
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_allclose(w, weights, rtol=0, atol=1e-15)
            folded += np.count_nonzero(idx // m != column // m)
        # the micro grid's successors cross h = 0, so some targets take the mirrored a_prev
        assert folded > 0

    def test_slots_tile_the_longest_first_column_order(self):
        grid = micro_grid()
        pilot = PilotModel(response_probability=0.4, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        slots, unorder = _sweep_operator(grid, pilot, intr)
        counts = np.array([len(targets) for targets, _ in column_distributions(grid, pilot, intr)])
        # unorder inverts the order: a permutation of the columns, longest first
        order = np.argsort(unorder)
        assert np.array_equal(unorder[order], np.arange(len(counts)))
        assert np.all(np.diff(counts[order]) <= 0)
        # slot k covers the prefix of columns with a k-th entry, so slots never lengthen
        lengths = [len(flat) for flat, _ in slots]
        assert all(len(w) == n for (_, w), n in zip(slots, lengths))
        assert lengths == [np.count_nonzero(counts > k) for k in range(counts.max())]
        # together the slots hold every merged nonzero entry once
        assert sum(lengths) == counts.sum()
        assert all(np.all(w > 0.0) for _, w in slots)

    @pytest.mark.parametrize("p, sigma", [(0.4, 6.0), (1.0, 6.0), (0.4, 0.0)])
    def test_every_column_is_a_distribution(self, p, sigma):
        # the sweep takes expectations over each column, so its weights sum to 1
        grid = micro_grid()
        slots, unorder = _sweep_operator(
            grid, PilotModel(response_probability=p, acceleration=8.0), IntruderModel(sigma_accel=sigma),
        )
        totals = np.zeros(len(unorder))
        for _, w in slots:
            totals[: len(w)] += w
        np.testing.assert_allclose(totals[unorder], 1.0, rtol=0, atol=1e-12)

    def test_infinite_intruder_sigma_refused(self):
        # Its middle sigma point would weigh 0 x inf = NaN, which the
        # operator drops, so every column would sum to 1/3.
        with pytest.raises(ValueError, match="sigma_accel must be finite"):
            _sweep_operator(micro_grid(), PilotModel(), IntruderModel(sigma_accel=math.inf))


# sha256 of the ACXT file of the default-grid table.  The values were first
# recorded from the sparse-matrix solver that the fixed-width operators
# replaced, as version 1 files, and carried to version 2 by cutting the
# h < 0 slabs.  These version 3 digests are of files the factored solve
# writes; its E + cost equals the version 2 solve's float64 values bit for
# bit at every h > 0 row and within 1 ulp at h = 0.  A change here changes
# every table the optimizer writes.
PINNED_TABLE_DIGESTS = {
    "default": "4f2b7ed208276e442eda7e96c081b6160c27fc779f1e064293aedca2f77abeae",
    "p1": "d80ef20dc3ff295a888227119aa7ee654880eb11f40004e7edde2e9e21ba732b",
    "jittered": "844c2e0d32a4d4afd07a9923279c9e82b7d428437d33b488aeb5597d0f890f13",
}

PINNED_TABLE_INPUTS = {
    "default": (PilotModel(), RewardParams()),
    "p1": (PilotModel(response_probability=1.0), RewardParams()),
    "jittered": (
        PilotModel(),
        RewardParams(alert_cost=-0.0137, strengthen_cost=-0.0031, reversal_cost=-0.0352),
    ),
}


@pytest.fixture(scope="module")
def pinned_table_files(tmp_path_factory):
    """The ACXT file of each pinned default-grid table, solved and written once."""
    out = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, (pilot, params) in PINNED_TABLE_INPUTS.items():
        paths[name] = out / f"{name}.acxt"
        write_table(backward_induction(Grid(), pilot, IntruderModel(), params), paths[name])
    return paths


@pytest.mark.parametrize("name", sorted(PINNED_TABLE_DIGESTS))
def test_default_grid_table_bytes_pinned(name, pinned_table_files):
    path = pinned_table_files[name]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED_TABLE_DIGESTS))
def test_default_grid_table_round_trips(name, pinned_table_files, tmp_path):
    path = pinned_table_files[name]
    write_table(read_table(path), tmp_path / "again.acxt")
    assert (tmp_path / "again.acxt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED_TABLE_INPUTS) + ["costly_changes"])
def test_stored_values_lie_between_a_collision_and_zero(name):
    # Holding COC costs nothing after any advisory and every advisory cost is
    # <= 0, so no state is worth less than a collision or more than nothing,
    # however large the other costs.
    pilot, params = PINNED_TABLE_INPUTS.get(
        name, (PilotModel(), RewardParams(strengthen_cost=-1e30, reversal_cost=-1e30)))
    values = backward_induction(Grid(), pilot, IntruderModel(), params).values
    assert values.min() >= COLLISION_COST - 1e-12
    assert values.max() <= 0.0


def test_read_default_grid_table_holds_the_h_zero_up_half(pinned_table_files):
    table = read_table(pinned_table_files["default"])
    assert table.values.shape == (17, 13, 13, 41, 7) == table.grid.table_shape
    assert table.values.dtype == np.float32
    assert table.cost.dtype == np.float64


class TestPolicySlice:
    def test_all_zero_table_gives_coc(self):
        grid = micro_grid()
        table = LogicTable(grid=grid, values=np.zeros(grid.table_shape), cost=np.zeros((7, 7)))
        mat = policy_slice(table, {"hdot0": 0.0, "hdot1": 0.0, "a_prev": Advisory.COC})
        assert mat.shape == (grid.tau_max + 1, len(grid.h_cuts))
        assert all(a is Advisory.COC for a in mat.ravel())

    def test_tie_break_prefers_weaker_then_down(self):
        grid = micro_grid()
        values = np.zeros(grid.table_shape)
        icoc = ADVISORIES.index(Advisory.COC)
        values[..., icoc] = -1.0  # make COC strictly worse everywhere
        table = LogicTable(grid=grid, values=values, cost=np.zeros((7, 7)))
        mat = policy_slice(table, {"hdot0": 0.0, "hdot1": 0.0, "a_prev": Advisory.COC})
        # remaining six advisories tie at 0; DNC is first in canonical order
        assert all(a is Advisory.DNC for a in mat.ravel())

    def test_off_grid_fixed_value_rejected(self, small_table):
        with pytest.raises(ValueError):
            policy_slice(small_table, {"hdot0": 3.0, "hdot1": 0.0, "a_prev": Advisory.COC})

    @pytest.mark.parametrize("a_prev", [Advisory.COC, Advisory.DNC, Advisory.CL2500])
    def test_rows_below_zero_follow_the_mirror(self, small_table, a_prev):
        # every row, below zero too, is the selection rule on the full values
        grid = small_table.grid
        full = full_values(small_table)
        ia = ADVISORIES.index(a_prev)
        for r0 in grid.hdot0_cuts:
            for r1 in grid.hdot1_cuts:
                mat = policy_slice(small_table, {"hdot0": r0, "hdot1": r1, "a_prev": a_prev})
                i0 = list(grid.hdot0_cuts).index(r0)
                i1 = list(grid.hdot1_cuts).index(r1)
                rows = full[:, i0, i1, :, ia, :].reshape(-1, len(ADVISORIES))
                best = select_advisories(rows, np.full(len(rows), ia)).reshape(len(grid.h_cuts), -1)
                assert mat.tolist() == [[ADVISORIES[i] for i in row] for row in best.T]

    def test_held_advisory_kept_on_a_tie(self):
        grid = micro_grid()
        values = np.full(grid.table_shape, -1.0)
        values[..., ADVISORIES.index(Advisory.COC)] = 0.0
        for a in (Advisory.DNC, Advisory.DND):  # a mirror pair, as h = 0 requires
            values[..., ADVISORIES.index(a)] = -0.5 * TIE_TOL
        table = LogicTable(grid=grid, values=values, cost=np.zeros((7, 7)))
        for held, expected in ((Advisory.DND, Advisory.DND), (Advisory.DNC, Advisory.DNC),
                               (Advisory.COC, Advisory.COC), (Advisory.CL1500, Advisory.COC)):
            mat = policy_slice(table, {"hdot0": 0.0, "hdot1": 0.0, "a_prev": held})
            assert all(a is expected for a in mat.ravel())
