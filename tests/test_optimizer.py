import functools
import hashlib

import numpy as np
import pytest

from caslab.core import ADVISORIES, Advisory, VerticalState
from caslab.dynamics import IntruderModel, PilotModel
from caslab.optimizer import (
    Grid,
    LogicTable,
    RewardParams,
    _solve,
    _sweep_operator,
    backward_induction,
    policy_slice,
    reward,
    transition_distribution,
)
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
    na = len(grid.advisories)

    @functools.lru_cache(maxsize=None)
    def value(ih, i0, i1, itau, ia_prev, ia):
        s = VerticalState(
            h=float(grid.h_cuts[ih]),
            hdot0=float(grid.hdot0_cuts[i0]),
            hdot1=float(grid.hdot1_cuts[i1]),
            a_prev=grid.advisories[ia_prev],
            tau=float(itau),
        )
        r = reward(s, grid.advisories[ia], params)
        if itau == 0:
            return r
        expected = 0.0
        for idx, w in transition_distribution(s, grid.advisories[ia], pilot, intruder, grid):
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

    def test_advisories_must_be_distinct(self):
        with pytest.raises(ValueError, match="repeat"):
            Grid(advisories=(Advisory.COC, Advisory.DND, Advisory.DND))

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

    def test_rate_cuts_need_no_zero(self):
        grid = Grid(hdot0_cuts=np.array([-25.0, -5.0, 5.0, 25.0]))
        assert grid.table_shape[1] == 4

    def test_advisory_axis_must_be_mirror_closed(self):
        with pytest.raises(ValueError, match="closed under the vertical mirror: CL1500 needs DES1500"):
            Grid(advisories=(Advisory.COC, Advisory.CL1500))
        grid = Grid(advisories=(Advisory.COC, Advisory.CL1500, Advisory.DES1500))
        assert grid.advisory_mirror.tolist() == [0, 2, 1]

    def test_advisory_mirror(self):
        assert {a: a.mirror for a in Advisory} == MIRROR
        assert Grid().advisory_mirror.tolist() == [ADVISORIES.index(MIRROR[a]) for a in ADVISORIES]

    def test_state_index_matches_values_layout(self, small_table):
        grid = small_table.grid
        full = full_values(small_table)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ih = rng.integers(len(grid.h_cuts))
            i0 = rng.integers(len(grid.hdot0_cuts))
            i1 = rng.integers(len(grid.hdot1_cuts))
            itau = rng.integers(grid.tau_max + 1)
            ia = rng.integers(len(grid.advisories))
            flat = grid.state_index(ih, i0, i1, itau, ia)
            np.testing.assert_array_equal(
                full.reshape(-1, len(grid.advisories))[flat], full[ih, i0, i1, itau, ia]
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
        assert grid.advisories[jap] is Advisory.COC

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
            assert grid.advisories[jap] is Advisory.CL2500


class TestBackwardInduction:
    def test_hand_worked_collision_avoidance(self):
        # engineered so one descend step lands exactly on the h=+4 vertex,
        # outside the 2 ft collision band, while no-advisory stays inside
        grid = Grid(
            h_cuts=np.array([-1000.0, -4.0, 0.0, 4.0, 1000.0]),
            hdot0_cuts=np.array([-25.0, 0.0, 25.0]),
            hdot1_cuts=np.array([-25.0, 0.0, 25.0]),
            tau_max=1,
        )
        pilot = PilotModel(response_probability=1.0, acceleration=8.0)
        intr = IntruderModel(sigma_accel=0.0)
        params = RewardParams(
            collision_cost=-1.0, alert_cost=0.0, strengthen_cost=0.0,
            reversal_cost=0.0, nmac_vertical=2.0,
        )
        values = full_values(backward_induction(grid, pilot, intr, params))
        ih0 = 2  # h = 0
        irate = 1  # level
        icoc = grid.advisory_index(Advisory.COC)
        ides = grid.advisory_index(Advisory.DES1500)
        assert values[ih0, irate, irate, 1, icoc, icoc] == pytest.approx(-1.0, abs=1e-12)
        assert values[ih0, irate, irate, 1, icoc, ides] == pytest.approx(0.0, abs=1e-12)

    def test_values_are_float64(self, small_table):
        # the DP is checked to 1e-9; only a table read from a file is float32
        assert small_table.values.dtype == np.float64

    def test_zero_rewards_give_zero_values(self):
        params = RewardParams(
            collision_cost=0.0, alert_cost=0.0, strengthen_cost=0.0, reversal_cost=0.0
        )
        table = backward_induction(micro_grid(), PilotModel(), IntruderModel(), params)
        assert np.all(table.values == 0.0)

    def test_matches_expectimax_oracle(self):
        grid = micro_grid(tau_max=3)
        pilot = PilotModel(response_probability=0.4, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        params = RewardParams()
        table = backward_induction(grid, pilot, intr, params)
        oracle = expectimax_table(grid, pilot, intr, params)
        np.testing.assert_allclose(full_values(table), oracle, atol=1e-9)

    def test_values_monotone_in_collision_cost(self):
        grid = micro_grid()
        pilot = PilotModel(response_probability=0.5, acceleration=8.0)
        intr = IntruderModel(sigma_accel=4.0)
        mild = backward_induction(grid, pilot, intr, RewardParams(collision_cost=-1.0))
        harsh = backward_induction(grid, pilot, intr, RewardParams(collision_cost=-2.0))
        assert np.all(harsh.values <= mild.values + 1e-12)

    def test_vertical_mirror_symmetry(self):
        # the sweep solves every h row; the rows below zero must mirror the rest
        grid = micro_grid()
        values = _solve(
            grid, PilotModel(response_probability=0.5, acceleration=8.0),
            IntruderModel(sigma_accel=4.0), RewardParams(),
        )
        perm = [grid.advisory_index(MIRROR[a]) for a in grid.advisories]
        mirrored = values[::-1, ::-1, ::-1][:, :, :, :, perm][..., perm]
        np.testing.assert_allclose(values, mirrored, atol=1e-9)

    def test_table_is_the_h_zero_up_half_of_the_sweep(self, small_table):
        grid = small_table.grid
        values = _solve(
            grid, PilotModel(response_probability=0.5, acceleration=8.0),
            IntruderModel(sigma_accel=4.0), RewardParams(),
        )
        assert small_table.values.shape == grid.table_shape == (3, 3, 3, 5, 7, 7)
        assert np.array_equal(small_table.values[1:], values[grid.h_zero + 1:])
        # the h = 0 row keeps one value of each mirror pair, which agree to rounding
        np.testing.assert_allclose(small_table.values[0], values[grid.h_zero], rtol=0, atol=1e-15)

    def test_value_bounds(self, small_table):
        params = RewardParams()
        per_step_costs = [params.alert_cost, params.strengthen_cost, params.reversal_cost]
        lower = params.collision_cost + small_table.grid.tau_max * min(per_step_costs)
        assert np.all(small_table.values >= lower - 1e-12)
        assert np.all(small_table.values <= 1e-12)


def column_distributions(grid, pilot, intruder):
    """transition_distribution of every sweep column, targets as (h, hdot0, hdot1) vertices."""
    vertices = (len(grid.h_cuts), len(grid.hdot0_cuts), len(grid.hdot1_cuts))
    out = []
    for a in grid.advisories:
        for row in range(np.prod(vertices)):
            ih, i0, i1 = np.unravel_index(row, vertices)
            s = VerticalState(
                h=float(grid.h_cuts[ih]),
                hdot0=float(grid.hdot0_cuts[i0]),
                hdot1=float(grid.hdot1_cuts[i1]),
                a_prev=Advisory.COC,
                tau=1.0,
            )
            dist = transition_distribution(s, a, pilot, intruder, grid)
            targets = [
                np.ravel_multi_index(np.unravel_index(j, grid.shape)[:3], vertices) for j, _ in dist
            ]
            out.append((targets, [w for _, w in dist]))
    return out


class TestSweepOperator:
    @pytest.mark.parametrize("p", [0.4, 1.0])
    def test_columns_match_transition_distribution(self, p):
        grid = micro_grid()
        pilot = PilotModel(response_probability=p, acceleration=8.0)
        intr = IntruderModel(sigma_accel=6.0)
        m = len(grid.h_cuts) * len(grid.hdot0_cuts) * len(grid.hdot1_cuts)
        slots, unorder = _sweep_operator(grid, pilot, intr)
        reference = column_distributions(grid, pilot, intr)
        assert len(unorder) == len(reference) == len(grid.advisories) * m
        for column, (targets, weights) in enumerate(reference):
            ia = column // m
            place = unorder[column]
            idx = np.array([flat[place] for flat, _ in slots if len(flat) > place])
            w = np.array([w[place] for _, w in slots if len(w) > place])
            assert (idx - ia * m).tolist() == targets
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_allclose(w, weights, rtol=0, atol=1e-15)

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


# sha256 of the ACXT file of the default-grid table, recorded from the
# sparse-matrix solver that the fixed-width operators replaced.  A change
# here changes every table the optimizer writes.
PINNED_TABLE_DIGESTS = {
    "default": "886c03febcaa610e8e81704669aa8400f15628e76f721da49d3c60ab787da3da",
    "p1": "ad943cf831e21ef3cf51dede655c897d81ed7674f8c15dd9651a02473e87d13b",
    "jittered": "6bf1b18edf05d6f61eeddc78720ccd60b1f9e445460b139348a4c0249b89ea95",
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
    # the reader keeps h >= 0 and checks the rest; the writer mirrors it back
    path = pinned_table_files[name]
    write_table(read_table(path), tmp_path / "again.acxt")
    assert (tmp_path / "again.acxt").read_bytes() == path.read_bytes()


def test_read_default_grid_table_holds_the_h_zero_up_half(pinned_table_files):
    table = read_table(pinned_table_files["default"])
    assert table.values.shape == (17, 13, 13, 41, 7, 7) == table.grid.table_shape
    assert table.values.dtype == np.float32


class TestPolicySlice:
    def test_all_zero_table_gives_coc(self):
        grid = micro_grid()
        table = LogicTable(grid=grid, values=np.zeros(grid.table_shape))
        mat = policy_slice(table, {"hdot0": 0.0, "hdot1": 0.0, "a_prev": Advisory.COC})
        assert mat.shape == (grid.tau_max + 1, len(grid.h_cuts))
        assert all(a is Advisory.COC for a in mat.ravel())

    def test_tie_break_prefers_weaker_then_down(self):
        grid = micro_grid()
        values = np.zeros(grid.table_shape)
        icoc = grid.advisory_index(Advisory.COC)
        values[..., icoc] = -1.0  # make COC strictly worse everywhere
        table = LogicTable(grid=grid, values=values)
        mat = policy_slice(table, {"hdot0": 0.0, "hdot1": 0.0, "a_prev": Advisory.COC})
        # remaining six advisories tie at 0; DNC is first in canonical order
        assert all(a is Advisory.DNC for a in mat.ravel())

    def test_off_grid_fixed_value_rejected(self, small_table):
        with pytest.raises(ValueError):
            policy_slice(small_table, {"hdot0": 3.0, "hdot1": 0.0, "a_prev": Advisory.COC})

    @pytest.mark.parametrize("a_prev", [Advisory.COC, Advisory.DNC, Advisory.CL2500])
    def test_rows_below_zero_follow_the_mirror(self, small_table, a_prev):
        # every row, below zero too, is the first maximum of the full values
        grid = small_table.grid
        full = full_values(small_table)
        for r0 in grid.hdot0_cuts:
            for r1 in grid.hdot1_cuts:
                mat = policy_slice(small_table, {"hdot0": r0, "hdot1": r1, "a_prev": a_prev})
                i0 = list(grid.hdot0_cuts).index(r0)
                i1 = list(grid.hdot1_cuts).index(r1)
                best = np.argmax(full[:, i0, i1, :, grid.advisory_index(a_prev), :], axis=2)
                assert mat.tolist() == [[grid.advisories[i] for i in row] for row in best.T]
