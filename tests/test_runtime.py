import itertools

import numpy as np
import pytest

from caslab.core import ADVISORIES, COC_INDEX, Advisory, BeliefState, VerticalState
from caslab.optimizer import TIE_TOL, LogicTable, _locate_many, select_advisories
from caslab.runtime import (
    ONLINE_COST,
    CoordinationConstraint,
    OnlineContext,
    apply_online_costs,
    apply_online_costs_many,
    belief_action_values,
    coordinate,
    fuse_multithreat,
    interpolate,
    interpolate_many,
    policy_slice,
    select_action,
    synthesize_belief,
    weighted_particle_values,
)
from caslab.tablefile import read_table, write_table
from conftest import full_expected, full_values


def vertex_state(grid, ih, i0, i1, itau, a_prev=Advisory.COC):
    return VerticalState(
        h=float(grid.h_cuts[ih]),
        hdot0=float(grid.hdot0_cuts[i0]),
        hdot1=float(grid.hdot1_cuts[i1]),
        a_prev=a_prev,
        tau=float(itau),
    )


class TestInterpolate:
    def test_vertex_lookup_bit_identical(self, small_table):
        grid = small_table.grid
        full = full_values(small_table)
        rng = np.random.default_rng(0)
        for _ in range(100):
            ih = int(rng.integers(len(grid.h_cuts)))
            i0 = int(rng.integers(len(grid.hdot0_cuts)))
            i1 = int(rng.integers(len(grid.hdot1_cuts)))
            itau = int(rng.integers(grid.tau_max + 1))
            ia = int(rng.integers(len(ADVISORIES)))
            s = vertex_state(grid, ih, i0, i1, itau, ADVISORIES[ia])
            out = interpolate(small_table, s)
            expected = full[ih, i0, i1, itau, ia]
            assert np.array_equal(out, expected)

    def test_midpoint_single_dimension_is_mean(self, small_table):
        grid = small_table.grid
        h_mid = 0.5 * (grid.h_cuts[1] + grid.h_cuts[2])
        s = VerticalState(h_mid, 0.0, 0.0, Advisory.COC, 2.0)
        out = interpolate(small_table, s)
        ia = ADVISORIES.index(Advisory.COC)
        i0 = list(grid.hdot0_cuts).index(0.0)
        full = full_values(small_table)
        lo = full[1, i0, i0, 2, ia]
        hi = full[2, i0, i0, 2, ia]
        np.testing.assert_allclose(out, 0.5 * (lo + hi), atol=1e-12)

    def test_convex_combination_bound(self, small_table):
        grid = small_table.grid
        full = full_values(small_table)
        rng = np.random.default_rng(1)
        for _ in range(500):
            s = VerticalState(
                h=rng.uniform(grid.h_cuts[0], grid.h_cuts[-1]),
                hdot0=rng.uniform(grid.hdot0_cuts[0], grid.hdot0_cuts[-1]),
                hdot1=rng.uniform(grid.hdot1_cuts[0], grid.hdot1_cuts[-1]),
                a_prev=ADVISORIES[rng.integers(7)],
                tau=rng.uniform(0, grid.tau_max),
            )
            out = interpolate(small_table, s)
            ia = ADVISORIES.index(s.a_prev)
            ih = np.searchsorted(grid.h_cuts, s.h) - 1
            i0 = np.searchsorted(grid.hdot0_cuts, s.hdot0) - 1
            i1 = np.searchsorted(grid.hdot1_cuts, s.hdot1) - 1
            it = int(np.floor(s.tau))
            ih = np.clip(ih, 0, len(grid.h_cuts) - 2)
            i0 = np.clip(i0, 0, len(grid.hdot0_cuts) - 2)
            i1 = np.clip(i1, 0, len(grid.hdot1_cuts) - 2)
            it = min(it, grid.tau_max - 1)
            cell = full[ih:ih + 2, i0:i0 + 2, i1:i1 + 2, it:it + 2, ia]
            lo = cell.min(axis=(0, 1, 2, 3))
            hi = cell.max(axis=(0, 1, 2, 3))
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_off_hull_queries_clamp(self, small_table):
        grid = small_table.grid
        s_out = VerticalState(1e6, 1e3, -1e3, Advisory.COC, 1e3)
        s_corner = vertex_state(
            grid, len(grid.h_cuts) - 1, len(grid.hdot0_cuts) - 1, 0, grid.tau_max
        )
        np.testing.assert_array_equal(
            interpolate(small_table, s_out), interpolate(small_table, s_corner)
        )


def lookup_queries(grid, rng):
    """Query columns (h, hdot0, hdot1, tau, ia_prev): every vertex, then
    uniform off-grid points, then points clamped to the hull."""
    axes = (grid.h_cuts, grid.hdot0_cuts, grid.hdot1_cuts, np.arange(grid.tau_max + 1.0),
            np.arange(len(ADVISORIES)))
    vertices = [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]
    n = 500
    inside = [rng.uniform(a[0], a[-1], n) for a in axes[:4]]
    outside = [rng.uniform(a[0] - 2000.0, a[-1] + 2000.0, n) for a in axes[:4]]
    ia = rng.integers(len(ADVISORIES), size=2 * n)
    cols = [np.concatenate([v, a, b]) for v, a, b in zip(vertices[:4], inside, outside)]
    return (*cols, np.concatenate([vertices[4].astype(int), ia]))


def full_grid_lookup(table, h, hdot0, hdot1, tau, ia_prev):
    """interpolate_many without the mirror: 16 corners gathered from full_expected.

    The reference for both lookup paths: it reads all 16 corners at any
    tau, so it also checks the 8-corner path integral tau takes.
    """
    grid = table.grid
    full = full_expected(table).reshape(-1, len(ADVISORIES))
    axes = (grid.h_cuts, grid.hdot0_cuts, grid.hdot1_cuts, grid.tau_cuts)
    idx, hi = zip(*(_locate_many(x, cuts) for cuts, x in zip(axes, (h, hdot0, hdot1, tau))))
    strides = np.cumprod((1,) + grid.shape[1:4][::-1])[::-1]  # h, hdot0, hdot1, tau
    base = sum(i * s for i, s in zip(idx, strides))
    corners = np.array(list(itertools.product((0, 1), repeat=4)))
    w = (
        np.stack([1.0 - hi[0], hi[0]], axis=1)[:, :, None, None, None]
        * np.stack([1.0 - hi[1], hi[1]], axis=1)[:, None, :, None, None]
        * np.stack([1.0 - hi[2], hi[2]], axis=1)[:, None, None, :, None]
        * np.stack([1.0 - hi[3], hi[3]], axis=1)[:, None, None, None, :]
    ).reshape(len(base), 16)
    vals = full[base[:, None] + corners @ strides].astype(float)
    return np.einsum("nc,nca->na", w, vals) + table.cost[ia_prev]


class TestMirroredLookup:
    """A half table looks up every query, below zero too, as the whole grid would."""

    @pytest.mark.parametrize("fixture", ["small_table", "read_small_table"])
    def test_bit_identical_to_full_grid_lookup(self, fixture, request):
        table = request.getfixturevalue(fixture)
        q = lookup_queries(table.grid, np.random.default_rng(8))
        assert interpolate_many(table, *q).tobytes() == full_grid_lookup(table, *q).tobytes()

    @pytest.mark.parametrize("fixture", ["default_table", "read_small_table"])
    def test_integral_tau_reads_one_layer_bit_identically(self, fixture, request):
        # 10^5 integral-tau queries in chunks: h on both sides of zero and
        # off the hull, rates off the hull, tau from -2 to tau_max + 3 (the
        # clamp at tau_max puts its weight on the top layer), every ia_prev.
        table = request.getfixturevalue(fixture)
        grid = table.grid
        rng = np.random.default_rng(21)
        n = 10_000
        for _ in range(10):
            q = (rng.uniform(-grid.h_cuts[-1] - 300.0, grid.h_cuts[-1] + 300.0, n),
                 rng.uniform(grid.hdot0_cuts[0] - 15.0, grid.hdot0_cuts[-1] + 15.0, n),
                 rng.uniform(grid.hdot1_cuts[0] - 15.0, grid.hdot1_cuts[-1] + 15.0, n),
                 rng.integers(-2, grid.tau_max + 4, n).astype(float),
                 np.arange(n) % len(ADVISORIES))
            assert interpolate_many(table, *q).tobytes() == full_grid_lookup(table, *q).tobytes()

    def test_on_cut_and_signed_zero_queries(self, read_small_table):
        grid = read_small_table.grid
        h = np.repeat(np.concatenate([grid.h_cuts, [-0.0]]), 3)
        n = len(h)
        q = (h, np.full(n, -7.5), np.full(n, 20.0), np.full(n, 2.25), np.arange(n) % 7)
        out = interpolate_many(read_small_table, *q)
        assert out.tobytes() == full_grid_lookup(read_small_table, *q).tobytes()


class TestFloat32Table:
    """A read table (float32) looks up exactly like its float64 widening."""

    def widened(self, table):
        return LogicTable(grid=table.grid, values=table.values.astype(float), cost=table.cost)

    def test_interpolate_many_bit_identical(self, read_small_table):
        q = lookup_queries(read_small_table.grid, np.random.default_rng(5))
        out = interpolate_many(read_small_table, *q)
        assert out.dtype == np.float64
        assert out.tobytes() == interpolate_many(self.widened(read_small_table), *q).tobytes()

    def test_weighted_particle_values_bit_identical(self, read_small_table):
        q = lookup_queries(read_small_table.grid, np.random.default_rng(6))
        q = [x[: len(x) // 20 * 20].reshape(-1, 20) for x in q]  # beliefs of 20 particles
        w = np.random.default_rng(7).dirichlet(np.ones(20))
        out = weighted_particle_values(read_small_table, *q, w)
        assert out.tobytes() == weighted_particle_values(self.widened(read_small_table), *q, w).tobytes()

    @pytest.mark.parametrize("online", [False, True])
    def test_decisions_survive_storage_rounding(self, default_table, tmp_path, online):
        # Storing E as float32 moves a value by up to ~6e-8; under the tie
        # rule the float64 table and its ACXT round trip select alike.
        path = tmp_path / "table.acxt"
        write_table(default_table, path)
        stored = read_table(path)
        grid = default_table.grid
        rng = np.random.default_rng(11)
        n = 20_000
        h = rng.uniform(0.0, grid.h_cuts[-1], n) * np.where(np.arange(n) % 2, 1.0, -1.0)
        q = (h, rng.uniform(grid.hdot0_cuts[0], grid.hdot0_cuts[-1], n),
             rng.uniform(grid.hdot1_cuts[0], grid.hdot1_cuts[-1], n),
             rng.integers(0, grid.tau_max + 1, n).astype(float), np.arange(n) % len(ADVISORIES))
        masks = [rng.random(n) < 0.3 if online else np.zeros(n, bool) for _ in range(3)]
        masks[2] &= ~masks[1]  # one coordination constraint at a time
        chosen = []
        for table in (default_table, stored):
            values = apply_online_costs_many(interpolate_many(table, *q), *masks)
            chosen.append(select_advisories(values, q[4]))
        assert np.array_equal(chosen[0], chosen[1])

    def test_policy_slice_identical(self, read_small_table):
        grid = read_small_table.grid
        wide = self.widened(read_small_table)
        for hdot0 in grid.hdot0_cuts:
            for hdot1 in grid.hdot1_cuts:
                for a_prev in ADVISORIES:
                    fixed = {"hdot0": hdot0, "hdot1": hdot1, "a_prev": a_prev}
                    np.testing.assert_array_equal(
                        policy_slice(read_small_table, fixed), policy_slice(wide, fixed)
                    )


class TestBeliefValues:
    def test_point_mass_equals_interpolate(self, small_table):
        s = VerticalState(-37.5, 3.0, -9.0, Advisory.DES1500, 2.6)
        belief = BeliefState(particles=((s, 1.0),))
        np.testing.assert_array_equal(
            belief_action_values(small_table, belief), interpolate(small_table, s)
        )

    def test_two_equal_particles_average(self, small_table):
        s1 = VerticalState(-37.5, 3.0, -9.0, Advisory.COC, 2.6)
        s2 = VerticalState(150.0, -6.0, 2.0, Advisory.COC, 1.2)
        belief = BeliefState(particles=((s1, 0.5), (s2, 0.5)))
        expected = 0.5 * interpolate(small_table, s1) + 0.5 * interpolate(small_table, s2)
        np.testing.assert_allclose(
            belief_action_values(small_table, belief), expected, atol=1e-12
        )

    def test_duplication_invariance(self, small_table):
        s1 = VerticalState(40.0, 1.0, 0.0, Advisory.COC, 3.0)
        s2 = VerticalState(-40.0, 0.0, 5.0, Advisory.COC, 1.0)
        b1 = BeliefState(particles=((s1, 0.6), (s2, 0.4)))
        b2 = BeliefState(particles=((s1, 0.3), (s1, 0.3), (s2, 0.4)))
        np.testing.assert_allclose(
            belief_action_values(small_table, b1),
            belief_action_values(small_table, b2),
            atol=1e-12,
        )

    def test_linearity_in_weights(self, small_table):
        rng = np.random.default_rng(2)
        states = [
            VerticalState(
                h=rng.uniform(-900, 900), hdot0=rng.uniform(-20, 20),
                hdot1=rng.uniform(-20, 20), a_prev=Advisory.COC,
                tau=rng.uniform(0, 4),
            )
            for _ in range(6)
        ]
        w = rng.dirichlet(np.ones(6))
        belief = BeliefState(particles=tuple(zip(states, w)))
        expected = sum(wk * interpolate(small_table, sk) for sk, wk in zip(states, w))
        np.testing.assert_allclose(
            belief_action_values(small_table, belief), expected, atol=1e-12
        )


class TestOnlineCosts:
    def test_no_op_when_clear(self):
        values = np.arange(7.0)
        ctx = OnlineContext()
        np.testing.assert_array_equal(apply_online_costs(values, ctx), values)

    def test_do_not_climb_penalizes_up_sense(self):
        values = np.zeros(7)
        ctx = OnlineContext(coordination_constraint=CoordinationConstraint.DO_NOT_CLIMB)
        out = apply_online_costs(values, ctx)
        for i, a in enumerate(ADVISORIES):
            if a.sense > 0:
                assert out[i] == ONLINE_COST
            else:
                assert out[i] == 0.0

    def test_low_altitude_inhibits_descend(self):
        values = np.zeros(7)
        ctx = OnlineContext(own_altitude_agl=200.0, inhibit_altitude=1000.0)
        out = apply_online_costs(values, ctx)
        for i, a in enumerate(ADVISORIES):
            if a.sense < 0:
                assert out[i] == ONLINE_COST
            else:
                assert out[i] == 0.0

    def test_coc_never_penalized(self):
        ctx = OnlineContext(
            own_altitude_agl=0.0,
            coordination_constraint=CoordinationConstraint.DO_NOT_DESCEND,
        )
        out = apply_online_costs(np.zeros(7), ctx)
        assert out[ADVISORIES.index(Advisory.COC)] == 0.0

    def test_input_not_mutated(self):
        values = np.zeros(7)
        ctx = OnlineContext(coordination_constraint=CoordinationConstraint.DO_NOT_CLIMB)
        apply_online_costs(values, ctx)
        assert np.all(values == 0.0)

    def test_penalized_advisory_never_selected_over_coc(self, default_table):
        # Table values lie in [COLLISION_COST, 0] and COC is never penalized,
        # so ONLINE_COST rules a penalized advisory out even when it is held.
        grid = default_table.grid
        rng = np.random.default_rng(2201)
        n = 20_000
        held = rng.integers(len(ADVISORIES), size=n)
        values = interpolate_many(
            default_table, rng.uniform(-1200.0, 1200.0, n), rng.uniform(-50.0, 50.0, n),
            rng.uniform(-50.0, 50.0, n), rng.integers(grid.tau_max + 1, size=n).astype(float), held,
        )
        on, off = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        rows = np.arange(n)
        for masks in ((on, on, off), (on, off, on), (on, on, on)):
            out = apply_online_costs_many(values, *masks)
            picked = select_advisories(out, held)
            assert np.array_equal(out[rows, picked], values[rows, picked])
        assert np.all(picked == COC_INDEX)


class TestSelectAction:
    def test_unique_maximum(self):
        values = np.array([0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0])
        assert select_action(values) is ADVISORIES[3]

    def test_all_equal_gives_coc(self):
        assert select_action(np.zeros(7)) is Advisory.COC

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            values = rng.normal(size=7)
            shifted = values + rng.uniform(-10, 10)
            assert select_action(values) is select_action(shifted)

    def test_tie_break_down_before_up(self):
        values = np.full(7, -1.0)
        values[ADVISORIES.index(Advisory.DES1500)] = 0.0
        values[ADVISORIES.index(Advisory.CL1500)] = 0.0
        assert select_action(values) is Advisory.DES1500

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            select_action(np.array([0.0, np.nan, 0, 0, 0, 0, 0]))

    def test_held_advisory_kept_within_tolerance(self):
        values = np.full(7, -1.0)
        values[COC_INDEX] = 0.0
        values[ADVISORIES.index(Advisory.CL1500)] = -0.5 * TIE_TOL
        assert select_action(values) is Advisory.COC
        assert select_action(values, held=Advisory.CL1500) is Advisory.CL1500
        # a held advisory that only looks tied to float32 is not kept
        values[ADVISORIES.index(Advisory.CL1500)] = -2.0 * TIE_TOL
        assert select_action(values, held=Advisory.CL1500) is Advisory.COC

    def test_near_maximum_breaks_in_canonical_order(self):
        # not holding any of the near-maximal advisories, the first one wins
        values = np.full(7, -1.0)
        values[ADVISORIES.index(Advisory.CL1500)] = 0.0
        values[ADVISORIES.index(Advisory.DES1500)] = -0.5 * TIE_TOL
        assert select_action(values, held=Advisory.DNC) is Advisory.DES1500

    def test_rows_select_independently(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(50, 7))
        values[::3, 5] = values[::3].max(axis=1) - 0.5 * TIE_TOL
        held = rng.integers(0, 7, 50)
        rows = [ADVISORIES.index(select_action(v, ADVISORIES[h])) for v, h in zip(values, held)]
        assert select_advisories(values, held).tolist() == rows


class TestFuseMultithreat:
    def test_single_intruder_identity(self):
        v = np.arange(7.0)
        np.testing.assert_array_equal(fuse_multithreat([v]), v)

    def test_elementwise_minimum(self):
        a = np.array([1.0, 2, 3, 4, 5, 6, 7])
        b = np.array([7.0, 6, 5, 4, 3, 2, 1])
        np.testing.assert_array_equal(fuse_multithreat([a, b]), np.minimum(a, b))

    def test_fused_below_every_input(self):
        rng = np.random.default_rng(4)
        vs = [rng.normal(size=7) for _ in range(5)]
        fused = fuse_multithreat(vs)
        for v in vs:
            assert np.all(fused <= v)

    def test_permutation_invariance_and_idempotence(self):
        rng = np.random.default_rng(5)
        vs = [rng.normal(size=7) for _ in range(4)]
        f1 = fuse_multithreat(vs)
        f2 = fuse_multithreat(vs[::-1])
        f3 = fuse_multithreat(vs + [vs[0]])
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(f1, f3)

    def test_symmetric_intruders_select_coc(self):
        # two vertically mirrored threats: climbing toward one is descending
        # toward the other, so only no-advisory survives the min
        above = np.array([0.0, -0.2, -0.6, -0.1, -0.8, -0.1, -0.9])
        below = np.array([0.0, -0.6, -0.2, -0.8, -0.1, -0.9, -0.1])
        fused = fuse_multithreat([above, below])
        assert select_action(fused) is Advisory.COC

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_multithreat([])

    def test_mismatched_axes_rejected(self):
        with pytest.raises(ValueError):
            fuse_multithreat([np.zeros(7), np.zeros(6)])


class TestCoordinate:
    def test_leader_descend_sends_do_not_descend(self):
        assert coordinate(Advisory.DES1500, (3, 9)) is CoordinationConstraint.DO_NOT_DESCEND

    def test_leader_climb_sends_do_not_climb(self):
        assert coordinate(Advisory.CL2500, (1, 2)) is CoordinationConstraint.DO_NOT_CLIMB

    def test_coc_sends_nothing(self):
        assert coordinate(Advisory.COC, (1, 2)) is None

    @pytest.mark.parametrize("ids", [(9, 3), (3, 3)])
    def test_follower_cannot_coordinate(self, ids):
        # Only the leader, the strictly lower id, sends a constraint.
        with pytest.raises(ValueError):
            coordinate(Advisory.DES1500, ids)

    def test_follower_never_matches_leader_sense(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            leader_vals = rng.normal(size=7)
            follower_vals = rng.normal(size=7)
            leader_action = select_action(leader_vals)
            ctx = OnlineContext(coordination_constraint=coordinate(leader_action, (0, 1)))
            follower_action = select_action(apply_online_costs(follower_vals, ctx))
            if leader_action.sense != 0 and follower_action.sense != 0:
                assert follower_action.sense == -leader_action.sense


class TestSynthesizeBelief:
    def test_sigma_point_moments(self):
        # Seven points whose weights sum to 1, whose mean is the state and
        # whose variance along each of h, hdot0 and hdot1 is its sigma squared.
        s = VerticalState(10.0, 1.0, -1.0, Advisory.COC, 5.0)
        belief = synthesize_belief(s, 25.0, 2.0)
        points = np.array([(p.h, p.hdot0, p.hdot1) for p, _ in belief.particles])
        w = np.array([w for _, w in belief.particles])
        assert len(w) == 7 and w.sum() == 1.0
        mean = w @ points
        np.testing.assert_allclose(mean, (10.0, 1.0, -1.0), rtol=0, atol=1e-12)
        cov = (points - mean).T @ np.diag(w) @ (points - mean)
        np.testing.assert_allclose(cov, np.diag([25.0**2, 2.0**2, 2.0**2]), rtol=1e-12, atol=1e-9)

    def test_tau_and_a_prev_exact(self):
        s = VerticalState(10.0, 1.0, -1.0, Advisory.CL1500, 5.0)
        belief = synthesize_belief(s, 25.0, 2.0)
        for p, _ in belief.particles:
            assert p.tau == 5.0
            assert p.a_prev is Advisory.CL1500

    def test_zero_noise_reproduces_state(self):
        s = VerticalState(10.0, 1.0, -1.0, Advisory.COC, 5.0)
        belief = synthesize_belief(s, 0.0, 0.0)
        for p, _ in belief.particles:
            assert (p.h, p.hdot0, p.hdot1) == (10.0, 1.0, -1.0)
