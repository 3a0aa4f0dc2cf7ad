"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The full-size logic table is built once per session by the
``default_table`` fixture.
"""

import csv
import math
import time

import numpy as np
import pytest

from caslab.cli import main
from caslab.core import ADVISORIES, DOWN, UP, Advisory, BeliefState, VerticalState
from caslab.dynamics import IntruderModel, PilotModel
from caslab.encounters import default_correlated_model, toy_two_bin_model
from caslab.evaluation import (
    Equipage,
    cross_entropy_adapt,
    estimate_metrics,
    is_estimate,
    risk_ratio,
)
from caslab.optimizer import Grid, RewardParams, backward_induction, transition_distribution
from caslab.runtime import (
    OnlineContext,
    apply_online_costs,
    belief_action_values,
    coordinate,
    fuse_multithreat,
    interpolate,
    select_action,
)
from caslab.tablefile import read_table, write_table
from caslab.tcas import TcasConfig, select_sense, select_strength

from conftest import full_values, micro_grid
from test_bayesnet import three_node_net
from test_optimizer import expectimax_table
from test_tcas import head_on_pair


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def test_criterion_01_dp_oracle_equivalence():
    grid = micro_grid(tau_max=4)
    pilot = PilotModel(response_probability=0.3, acceleration=8.0)
    intruder = IntruderModel(sigma_accel=6.0)
    params = RewardParams()
    start = time.perf_counter()
    table = backward_induction(grid, pilot, intruder, params)
    oracle = expectimax_table(grid, pilot, intruder, params)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(full_values(table) - oracle)))
    criterion(
        1, "DP equals exhaustive expectimax on the micro-grid",
        err <= 1e-9 and elapsed < 10.0,
        f"max|diff|={err:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_02_transition_normalization():
    grid = Grid()
    pilot = PilotModel()
    intruder = IntruderModel()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10_000):
        s = VerticalState(
            h=rng.uniform(grid.h_cuts[0], grid.h_cuts[-1]),
            hdot0=rng.uniform(grid.hdot0_cuts[0], grid.hdot0_cuts[-1]),
            hdot1=rng.uniform(grid.hdot1_cuts[0], grid.hdot1_cuts[-1]),
            a_prev=ADVISORIES[rng.integers(7)],
            tau=float(rng.integers(1, grid.tau_max + 1)),
        )
        a = ADVISORIES[rng.integers(7)]
        total = sum(w for _, w in transition_distribution(s, a, pilot, intruder, grid))
        worst = max(worst, abs(total - 1.0))
    criterion(
        2, "transition probabilities sum to 1 on 1e4 random pairs",
        worst <= 1e-9, f"worst|sum-1|={worst:.2e}",
    )


def test_criterion_03_interpolation_identities(small_table):
    grid = small_table.grid
    full = full_values(small_table)
    rng = np.random.default_rng(303)

    vertex_exact = True
    for _ in range(200):
        ih = int(rng.integers(len(grid.h_cuts)))
        i0 = int(rng.integers(len(grid.hdot0_cuts)))
        i1 = int(rng.integers(len(grid.hdot1_cuts)))
        itau = int(rng.integers(grid.tau_max + 1))
        ia = int(rng.integers(len(ADVISORIES)))
        s = VerticalState(
            float(grid.h_cuts[ih]), float(grid.hdot0_cuts[i0]),
            float(grid.hdot1_cuts[i1]), ADVISORIES[ia], float(itau),
        )
        if not np.array_equal(interpolate(small_table, s), full[ih, i0, i1, itau, ia]):
            vertex_exact = False

    h_mid = 0.5 * (grid.h_cuts[1] + grid.h_cuts[2])
    s_mid = VerticalState(h_mid, 0.0, 0.0, Advisory.COC, 1.0)
    i0 = list(grid.hdot0_cuts).index(0.0)
    ia = ADVISORIES.index(Advisory.COC)
    mean = 0.5 * (full[1, i0, i0, 1, ia] + full[2, i0, i0, 1, ia])
    mid_err = float(np.max(np.abs(interpolate(small_table, s_mid) - mean)))

    convex_ok = True
    for _ in range(10_000):
        s = VerticalState(
            h=rng.uniform(grid.h_cuts[0], grid.h_cuts[-1]),
            hdot0=rng.uniform(grid.hdot0_cuts[0], grid.hdot0_cuts[-1]),
            hdot1=rng.uniform(grid.hdot1_cuts[0], grid.hdot1_cuts[-1]),
            a_prev=ADVISORIES[rng.integers(7)],
            tau=rng.uniform(0.0, grid.tau_max),
        )
        out = interpolate(small_table, s)
        ia = ADVISORIES.index(s.a_prev)
        ih = min(int(np.searchsorted(grid.h_cuts, s.h)) - 1, len(grid.h_cuts) - 2)
        j0 = min(int(np.searchsorted(grid.hdot0_cuts, s.hdot0)) - 1, len(grid.hdot0_cuts) - 2)
        j1 = min(int(np.searchsorted(grid.hdot1_cuts, s.hdot1)) - 1, len(grid.hdot1_cuts) - 2)
        it = min(int(math.floor(s.tau)), grid.tau_max - 1)
        cell = full[ih:ih + 2, j0:j0 + 2, j1:j1 + 2, it:it + 2, ia]
        if np.any(out < cell.min(axis=(0, 1, 2, 3)) - 1e-12) or np.any(
            out > cell.max(axis=(0, 1, 2, 3)) + 1e-12
        ):
            convex_ok = False
    criterion(
        3, "interpolation identities (vertex, midpoint, convex bound)",
        vertex_exact and mid_err <= 1e-12 and convex_ok,
        f"midpoint err={mid_err:.2e}",
    )


def test_criterion_04_qmdp_identities(small_table):
    rng = np.random.default_rng(404)
    grid = small_table.grid
    point_ok = True
    linear_err = 0.0
    for _ in range(200):
        states = [
            VerticalState(
                h=rng.uniform(grid.h_cuts[0], grid.h_cuts[-1]),
                hdot0=rng.uniform(grid.hdot0_cuts[0], grid.hdot0_cuts[-1]),
                hdot1=rng.uniform(grid.hdot1_cuts[0], grid.hdot1_cuts[-1]),
                a_prev=ADVISORIES[rng.integers(7)],
                tau=rng.uniform(0.0, grid.tau_max),
            )
            for _ in range(5)
        ]
        if not np.array_equal(
            belief_action_values(small_table, BeliefState(((states[0], 1.0),))),
            interpolate(small_table, states[0]),
        ):
            point_ok = False
        w = rng.dirichlet(np.ones(5))
        belief = BeliefState(tuple(zip(states, w)))
        expected = sum(wk * interpolate(small_table, sk) for sk, wk in zip(states, w))
        linear_err = max(
            linear_err,
            float(np.max(np.abs(belief_action_values(small_table, belief) - expected))),
        )
    criterion(
        4, "QMDP point-mass identity and belief linearity",
        point_ok and linear_err <= 1e-12, f"linearity err={linear_err:.2e}",
    )


def test_criterion_05_policy_slice_features(default_table, tmp_path):
    table_path = tmp_path / "table.acxt"
    write_table(default_table, table_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        '{"schema_version": 1, "paths": {"table_file": "%s"}}' % table_path
    )
    assert main(["slice", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "slice.csv") as f:
        rows = list(csv.reader(f))
    h_values = [float(r[0]) for r in rows[1:]]
    ncols = default_table.grid.tau_max + 1
    cells = {
        (itau, h): rows[1 + ih][1 + itau]
        for ih, h in enumerate(h_values)
        for itau in range(ncols)
    }
    ih_zero = h_values.index(0.0)

    # (a) some tau column waits at coaltitude while alerting off-coaltitude
    wait_columns = [
        itau
        for itau in range(ncols)
        if cells[(itau, 0.0)] == "COC"
        and any(cells[(itau, h)] != "COC" for h in h_values if h != 0.0)
    ]
    # (b) no-advisory region at the smallest taus for small |h|
    late_coc = all(
        cells[(itau, h)] == "COC"
        for itau in (0, 1)
        for h in h_values
        if abs(h) <= 50.0
    )
    criterion(
        5, "policy slice reproduces coaltitude-wait and too-late regions",
        len(wait_columns) > 0 and late_coc,
        f"wait columns at tau={wait_columns[:6]}...",
    )


def test_criterion_06_tcas_two_step_regression():
    cfg = TcasConfig(alim=400.0)
    own, intr = head_on_pair()
    sense = select_sense(own, intr, cfg)
    advisory = select_strength(own, intr, sense, cfg)
    own_m, intr_m = head_on_pair(own_vz=-2.0, intr_z=-200.0)
    sense_m = select_sense(own_m, intr_m, cfg)
    advisory_m = select_strength(own_m, intr_m, sense_m, cfg)
    criterion(
        6, "TCAS two-step selection and mirror symmetry",
        sense == DOWN
        and advisory is Advisory.DES1500
        and sense_m == UP
        and advisory_m is Advisory.CL1500,
        f"selected {advisory.value}, mirrored {advisory_m.value}",
    )


def test_criterion_07_desk_scale_safety_effect(default_table):
    start = time.perf_counter()
    model = default_correlated_model()
    pilot = PilotModel(response_probability=1.0)
    n = 10_000
    rep_none = estimate_metrics(model, Equipage(pilot=pilot), n, seed=777)
    rep_tcas = estimate_metrics(model, Equipage(own="tcas", pilot=pilot), n, seed=777)
    rep_table = estimate_metrics(
        model, Equipage(own="table", pilot=pilot, table=default_table), n, seed=777
    )
    rr_table = risk_ratio(rep_table, rep_none).value
    rr_tcas = risk_ratio(rep_tcas, rep_none).value
    elapsed = time.perf_counter() - start
    criterion(
        7, "paired-seed risk ratios at 1e4 encounters",
        rr_table <= 0.5 and rr_tcas <= 0.8 and elapsed < 300.0,
        f"table={rr_table:.3f} (<=0.5), tcas={rr_tcas:.3f} (<=0.8), "
        f"baseline p={rep_none.p_nmac:.3f}, runtime={elapsed:.0f}s",
    )


def test_criterion_08_importance_sampling_unbiased():
    nominal = toy_two_bin_model(p_conflict=0.05)
    proposal = toy_two_bin_model(p_conflict=0.5)
    n = 10_000
    rep = is_estimate(nominal, proposal, Equipage(), n, seed=888)
    err = abs(rep.p_nmac - 0.05)
    identity = is_estimate(nominal, nominal, Equipage(), 2000, seed=888)
    plain = estimate_metrics(nominal, Equipage(), 2000, seed=888)
    weights_one = (
        identity.p_nmac == plain.p_nmac
        and identity.effective_sample_size == pytest.approx(2000.0)
    )
    criterion(
        8, "IS estimate within 3 SE of the analytic toy value",
        err <= 3.0 * rep.p_nmac_se and weights_one,
        f"est={rep.p_nmac:.4f} vs 0.05, se={rep.p_nmac_se:.4f}, "
        f"identity weights all 1: {weights_one}",
    )


def test_criterion_09_cross_entropy_effectiveness():
    nominal = toy_two_bin_model(p_conflict=0.05)
    adapted = cross_entropy_adapt(
        nominal, nominal, Equipage(), iterations=3, n_per_iter=2000,
        elite_fraction=0.1, seed=909,
    )
    freq_nominal = estimate_metrics(nominal, Equipage(), 2000, seed=910).p_nmac
    freq_adapted = estimate_metrics(adapted, Equipage(), 2000, seed=910).p_nmac
    rep = is_estimate(nominal, adapted, Equipage(), 10_000, seed=911)
    err = abs(rep.p_nmac - 0.05)
    criterion(
        9, "cross-entropy amplifies failures >=5x and stays unbiased",
        freq_adapted >= 5.0 * freq_nominal and err <= 3.0 * rep.p_nmac_se,
        f"freq {freq_nominal:.3f} -> {freq_adapted:.3f} "
        f"({freq_adapted / max(freq_nominal, 1e-9):.1f}x), "
        f"reweighted est={rep.p_nmac:.4f} se={rep.p_nmac_se:.4f}",
    )


def test_criterion_10_coordination_safety():
    from caslab.runtime import CoordinationConstraint

    rng = np.random.default_rng(1010)
    same_sense = 0
    constraint_broken = 0
    for _ in range(100_000):
        leader_vals = rng.normal(size=7)
        follower_vals = rng.normal(size=7)
        leader_action = select_action(leader_vals)
        constraint = coordinate(leader_action, (0, 1))
        ctx = OnlineContext(coordination_constraint=constraint)
        follower_action = select_action(apply_online_costs(follower_vals, ctx))
        if leader_action.sense != 0 and follower_action.sense == leader_action.sense:
            same_sense += 1
        if constraint is CoordinationConstraint.DO_NOT_CLIMB and follower_action.sense > 0:
            constraint_broken += 1
        if constraint is CoordinationConstraint.DO_NOT_DESCEND and follower_action.sense < 0:
            constraint_broken += 1
    criterion(
        10, "no same-sense pairs over 1e5 coordinated selections",
        same_sense == 0 and constraint_broken == 0,
        f"same-sense={same_sense}, constraint violations={constraint_broken}",
    )


def test_criterion_11_multithreat_fusion(default_table):
    s_above = VerticalState(300.0, 0.0, 0.0, Advisory.COC, 20.0)
    s_below = VerticalState(-300.0, 0.0, 0.0, Advisory.COC, 20.0)
    v_above = interpolate(default_table, s_above)
    v_below = interpolate(default_table, s_below)
    fused = fuse_multithreat([v_above, v_below])
    symmetric_coc = select_action(fused) is Advisory.COC
    isolated_alerts = (
        select_action(v_above).sense != 0 and select_action(v_below).sense != 0
    )
    perm_ok = np.array_equal(fused, fuse_multithreat([v_below, v_above]))
    single_ok = np.array_equal(fuse_multithreat([v_above]), v_above)
    criterion(
        11, "symmetric intruders fuse to no-advisory; fusion invariants",
        symmetric_coc and isolated_alerts and perm_ok and single_ok,
        f"isolated=({select_action(v_above).value},{select_action(v_below).value}), "
        f"fused={select_action(fused).value}",
    )


def test_criterion_12_cpt_recovery():
    truth = three_node_net()
    rng = np.random.default_rng(1212)
    from caslab.bayesnet import DiscreteBayesNet, ancestral_sample, fit_cpts

    samples = np.empty((100_000, 3), dtype=int)
    for k in range(100_000):
        samples[k] = ancestral_sample(truth, rng).bins
    fitted = fit_cpts(
        DiscreteBayesNet(nodes=truth.nodes, parents=truth.parents, bins=truth.bins),
        samples,
        prior_count=1.0,
    )
    worst = max(
        float(np.max(np.abs(fitted.cpt[i] - truth.cpt[i]))) for i in range(3)
    )
    criterion(
        12, "CPTs recovered within 0.02 from 1e5 samples",
        worst <= 0.02, f"max abs error={worst:.4f}",
    )


def test_criterion_13_table_round_trip(default_table, tmp_path):
    p1 = tmp_path / "first.acxt"
    p2 = tmp_path / "second.acxt"
    write_table(default_table, p1)
    write_table(read_table(p1), p2)
    identical = p1.read_bytes() == p2.read_bytes()
    criterion(
        13, "ACXT write/read/write is byte-identical",
        identical, f"{p1.stat().st_size} bytes",
    )
