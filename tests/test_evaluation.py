import concurrent.futures
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from caslab import evaluation
from caslab.core import (
    ADVISORIES,
    COC_INDEX,
    EVENT_BIT,
    EVENT_CROSSING,
    EVENT_NMAC,
    EVENT_RA,
    EVENT_REVERSAL,
    EVENT_STRENGTHEN,
    EVENT_TA,
    Advisory,
    AircraftState,
    VerticalState,
    horizontal_tau_xy,
    is_reversal,
    is_strengthening,
    uniforms,
)
from caslab.dynamics import IntruderModel, PilotModel, step_vertical
from caslab.encounters import (
    HEADINGS,
    OWN_POS0,
    SEPARATION_THRESHOLD_FT,
    EncounterBatch,
    build_encounters,
    default_correlated_model,
    default_uncorrelated_model,
    toy_two_bin_model,
)
from caslab.evaluation import (
    STREAM_ENCOUNTER,
    STREAM_SIMULATE,
    Equipage,
    MetricsReport,
    _delay_uniforms,
    _fly,
    _quantized_tau,
    _run_batch,
    _run_chunk,
    binomial_upper_bound,
    cross_entropy_adapt,
    estimate_metrics,
    is_estimate,
    risk_ratio,
    run_indexed_traces,
    simulate_encounter,
)
from caslab.optimizer import TIE_TOL, Grid, RewardParams, select_advisories
from caslab.runtime import (
    SIGMA_POINTS,
    SIGMA_WEIGHTS,
    OnlineContext,
    apply_online_costs,
    belief_action_values,
    coordinate,
    interpolate,
    interpolate_many,
    select_action,
    synthesize_belief,
    weighted_particle_values,
)
from caslab.tcas import TcasConfig, TcasTracker, Threat
from conftest import event_labels, nominal_tracks, trace_severity


def hand_encounter(n_steps=30, closure=250.0, tau0=20.0, own_vr=0.0, int_vr=0.0, dt=1.0):
    """A coaltitude head-on encounter with constant rates: a batch of one, without draw records."""
    return EncounterBatch(
        dt=dt,
        vrate=np.array([[np.full(n_steps, own_vr), np.full(n_steps, int_vr)]]),
        speed=np.array([[closure / 2, closure / 2]]),
        int_pos0=np.array([[500.0 + closure * tau0, 0.0]]),
        alt0=np.array([[5000.0, 5000.0]]),
        initial_bins=np.zeros((0, 1, 5), dtype=int),
        transition_rows=np.zeros((0, 1, n_steps - 1, 7), dtype=int),
    )


def det_pilot():
    return PilotModel(response_probability=1.0)


def trace_outcome(trace, b=0):
    """Encounter b's OUTCOME record as a tuple, rebuilt from its per-step arrays.

    Its event indicators over the samples, its severity and log-weight 0.
    """
    seen = int(np.bitwise_or.reduce(trace.events[b]))
    indicators = (int(bool(seen & EVENT_BIT[event])) for event in (
        EVENT_NMAC, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL, EVENT_CROSSING))
    return (*indicators, trace_severity(trace.x[b], trace.y[b], trace.z[b]), 0.0)


def advisory_pairs(trace, b=0):
    """Encounter b's (ownship, intruder) advisories at each sample."""
    return [(ADVISORIES[a0], ADVISORIES[a1]) for a0, a1 in trace.adv[b].tolist()]


ADVISORY_EVENTS = frozenset({EVENT_TA, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL})


def reference_flight(enc, eq, u):
    """Reference closed loop: scalar kinematics and each side's scalar logic.

    Flies a batch of one encounter with the simulator's conventions (pilot
    response uniforms, nominal commands when not complying).  u is the
    encounter's simulation stream, 2 uniforms per step: side i at step k
    reads u_delay[b, i, k], counter 2k + i.  A TCAS
    side steps one TcasTracker.  A table side looks up the sigma-point
    belief of the true state, adds its online costs (the low-altitude
    inhibit at its own altitude; for the follower of two table sides, the
    constraint coordinate() derives from the leader's advisory of the same
    step) and selects, holding its advisory on a tie.  Once both sides
    have decided at step k, a pilot not yet complying begins where
    u[2k + i] < p and keeps complying; a switch to an advisory other than
    COC stops the pilot first, even while an earlier delay runs.
    Returns each sample's (own, intruder) advisories, its
    TA/RA/strengthen/reversal labels and both altitudes, how many table
    selections each online cost changed, and how many switches restarted
    a running delay.
    """
    n, dt = enc.n_steps, enc.dt
    (speed,), (int_pos0,), (alt0,), (cmds,) = (
        a.tolist() for a in (enc.speed, enc.int_pos0, enc.alt0, enc.vrate)
    )
    vel = [(s * math.cos(heading), s * math.sin(heading)) for s, heading in zip(speed, HEADINGS)]
    pos0 = (OWN_POS0, int_pos0)
    z, vz = alt0, [cmds[0][0], cmds[1][0]]
    kinds = (eq.own, eq.intruder)
    trackers = [TcasTracker(eq.tcas) if kind == "tcas" else None for kind in kinds]
    adv, complying = [Advisory.COC] * 2, [False] * 2
    advisories, labels, altitudes = [], [], []
    binding = {"inhibit": 0, "coordination": 0, "restart": 0}
    for k in range(n):
        states = [
            AircraftState(pos0[i][0] + vel[i][0] * k * dt, pos0[i][1] + vel[i][1] * k * dt,
                          z[i], vel[i][0], vel[i][1], vz[i])
            for i in (0, 1)
        ]
        step_labels = set()
        for i in (0, 1):
            if kinds[i] == "tcas":
                a, threat = trackers[i].step(states[i], states[1 - i])
                if threat is Threat.TA:
                    step_labels.add(EVENT_TA)
            elif kinds[i] == "table":
                tau_max = eq.table.grid.tau_max
                t = horizontal_tau_xy(
                    (states[1].x - states[0].x, states[1].y - states[0].y),
                    (vel[1][0] - vel[0][0], vel[1][1] - vel[0][1]),
                    SEPARATION_THRESHOLD_FT,
                )
                tau = float(tau_max if t is None else min(round(t), tau_max))
                belief = synthesize_belief(
                    VerticalState(z[1 - i] - z[i], vz[i], vz[1 - i], adv[i], tau),
                    eq.belief_sigma_h, eq.belief_sigma_rate,
                )
                values = belief_action_values(eq.table, belief)
                inhibited = OnlineContext(own_altitude_agl=z[i], inhibit_altitude=eq.inhibit_altitude)
                message = coordinate(leader, (0, 1)) if i == 1 and kinds[0] == "table" else None
                constraint = None if message is None else message.constraint
                ctx = dataclasses.replace(inhibited, coordination_constraint=constraint)
                plain, floor, a = (select_action(v, held=adv[i]) for v in (
                    values, apply_online_costs(values, inhibited), apply_online_costs(values, ctx)))
                binding["inhibit"] += floor is not plain
                binding["coordination"] += a is not floor
                leader = a
            else:
                continue
            if a is not adv[i]:
                if adv[i] is Advisory.COC:
                    step_labels.add(EVENT_RA)
                if is_strengthening(adv[i], a):
                    step_labels.add(EVENT_STRENGTHEN)
                if is_reversal(adv[i], a):
                    step_labels.add(EVENT_REVERSAL)
                if a is not Advisory.COC:
                    binding["restart"] += adv[i] is not Advisory.COC and not complying[i]
                    complying[i] = False
                adv[i] = a
        for i in (0, 1):
            complying[i] = complying[i] or u[2 * k + i] < eq.pilot.response_probability
        advisories.append(tuple(adv))
        labels.append(frozenset(step_labels))
        altitudes.append(tuple(z))
        for i in (0, 1):
            if adv[i] is not Advisory.COC and complying[i]:
                z[i], vz[i] = step_vertical(z[i], vz[i], adv[i], True, eq.pilot, dt)
            else:
                z[i], vz[i] = z[i] + cmds[i][k] * dt, cmds[i][k]
    advisories.append(tuple(adv))
    labels.append(frozenset())
    altitudes.append(tuple(z))
    return advisories, labels, altitudes, binding


class TestSimulateEncounter:
    def test_unequipped_matches_nominal(self):
        enc = hand_encounter(own_vr=3.0, int_vr=-2.0)
        trace = simulate_encounter(enc, Equipage(), np.random.default_rng(0))
        x, _, z, vz = nominal_tracks(enc)
        np.testing.assert_array_equal(trace.z[0], z)
        np.testing.assert_array_equal(trace.vz[0], vz)
        np.testing.assert_array_equal(trace.x[0], x)

    def test_same_seed_bit_identical(self, default_table):
        enc = hand_encounter()
        eq = Equipage(own="table", pilot=PilotModel(), table=default_table)
        t1 = simulate_encounter(enc, eq, np.random.default_rng(42))
        t2 = simulate_encounter(enc, eq, np.random.default_rng(42))
        for field in ("z", "adv", "events"):
            np.testing.assert_array_equal(getattr(t1, field), getattr(t2, field))

    def test_coaltitude_head_on_unequipped_is_nmac(self):
        trace = simulate_encounter(hand_encounter(), Equipage(), np.random.default_rng(0))
        assert trace.outcome["nmac"][0]

    def test_coaltitude_head_on_table_resolves(self, default_table):
        # single-scenario regression pinned after the first table build
        enc = hand_encounter()
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table)
        trace = simulate_encounter(enc, eq, np.random.default_rng(1))
        assert trace.outcome["alert"][0]
        assert not trace.outcome["nmac"][0]

    def test_ra_held_while_its_band_is_met(self, default_table):
        # Coaltitude head-on, both aircraft level, exact state.  Once the
        # ownship meets its RA's band, keeping the RA and clearing to COC
        # have the same DP value (both hold the rate), but COC would return
        # the ownship to its level nominal command and undo the separation.
        enc = hand_encounter(tau0=20.0)
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table,
                      belief_sigma_h=0.0, belief_sigma_rate=0.0)
        trace = simulate_encounter(enc, eq, np.random.default_rng(1))
        own = [a for a, _ in advisory_pairs(trace)]
        ra = own[0]
        assert ra.sense != 0
        assert own[:21] == [ra] * 21  # held through CPA at step 20
        assert not trace.outcome["nmac"][0]
        # The hold decided it: on this flight COC ties the RA within TIE_TOL
        # at some step, where the first maximum alone would clear the RA.
        ties = []
        for k in range(1, 20):
            (z0, z1), (vz0, vz1) = trace.z[0, :, k].tolist(), trace.vz[0, :, k].tolist()
            s = VerticalState(z1 - z0, vz0, vz1, ra, 20.0 - k)
            values = interpolate(default_table, s)
            if select_action(values) is Advisory.COC:
                ties.append(k)
                assert select_action(values, held=ra) is ra
                assert values[COC_INDEX] >= values.max() - TIE_TOL
        assert ties

    def test_ra_to_coc_drops_on_a_fixed_seed(self, default_table, monkeypatch):
        # The same 64 exact-state encounters flown with the hold and with
        # the first-maximum rule it replaced.  Without the hold they drop an
        # RA to COC 214 times, 62 of them drop one at least twice, and 54
        # times the dropped RA is back the next step: tie flicker.  With
        # it, one encounter drops twice: it stays clear 11 steps before the
        # table issues the same RA again, a new alert, not a tie.
        model = default_correlated_model()
        u = uniforms(7, STREAM_ENCOUNTER, range(64), model.uniforms_per_encounter)
        enc = build_encounters(model, u)
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table,
                      belief_sigma_h=0.0, belief_sigma_rate=0.0)

        def drops(own):
            return ((own[:, :-1] != COC_INDEX) & (own[:, 1:] == COC_INDEX)).sum(axis=1)

        def steps_clear(own):
            # For each RA that drops to COC and is later issued again
            # unchanged, the number of COC steps between.
            gaps = []
            for row in own.tolist():
                for k in range(1, len(row)):
                    if row[k - 1] != COC_INDEX and row[k] == COC_INDEX:
                        back = next((j for j in range(k, len(row)) if row[j] != COC_INDEX), None)
                        if back is not None and row[back] == row[k - 1]:
                            gaps.append(back - k)
            return gaps

        held = _fly(enc, eq, np.zeros((len(enc), 2, enc.n_steps))).adv[:, :, 0]
        monkeypatch.setattr(evaluation, "select_advisories",
                            lambda values, adv: select_advisories(values, COC_INDEX))
        first_maximum = _fly(enc, eq, np.zeros((len(enc), 2, enc.n_steps))).adv[:, :, 0]
        assert drops(first_maximum).sum() >= 100 and (drops(first_maximum) >= 2).sum() >= 32
        assert steps_clear(first_maximum).count(1) >= 27
        assert drops(held).max() <= 2 and drops(held).sum() <= 10
        assert min(steps_clear(held), default=10) >= 10

    def test_pilot_whose_one_minus_p_rounds_to_one_never_complies(self):
        # Both TCAS sides alert, but neither pilot leaves the nominal track.
        model = default_correlated_model()
        eq = Equipage(own="tcas", intruder="tcas", pilot=PilotModel(response_probability=1e-17))
        trace = run_indexed_traces(model, eq, 5, range(8))
        assert trace.outcome["alert"].all()
        assert np.array_equal(trace.z, run_indexed_traces(model, Equipage(), 5, range(8)).z)

    def test_coaltitude_head_on_tcas_resolves(self):
        enc = hand_encounter()
        eq = Equipage(own="tcas", pilot=det_pilot())
        trace = simulate_encounter(enc, eq, np.random.default_rng(2))
        assert trace.outcome["alert"][0]
        assert not trace.outcome["nmac"][0]

    def test_dt_mismatch_rejected(self, default_table):
        enc = hand_encounter(n_steps=60, dt=0.5)
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table)
        with pytest.raises(ValueError):
            simulate_encounter(enc, eq, np.random.default_rng(0))

    def test_table_equipage_requires_table(self):
        with pytest.raises(ValueError):
            Equipage(own="table")

    def test_fast_lookup_path_matches_public_ops(self, default_table):
        # the simulation loop's array-form lookup over a batch of beliefs must
        # agree with synthesize_belief + belief_action_values, one at a time
        rng = np.random.default_rng(33)
        b = 12
        h, (v0, v1) = rng.uniform(-900.0, 900.0, b), rng.uniform(-30.0, 30.0, (2, b))
        tau = rng.integers(0, 45, b).astype(float)
        ia = np.arange(b) % len(ADVISORIES)
        offsets = SIGMA_POINTS * (25.0, 2.0, 2.0)
        via_arrays = weighted_particle_values(
            default_table, h[:, None] + offsets[:, 0], v0[:, None] + offsets[:, 1],
            v1[:, None] + offsets[:, 2], np.repeat(tau[:, None], 7, axis=1),
            np.repeat(ia[:, None], 7, axis=1), SIGMA_WEIGHTS,
        )
        for k in range(b):
            s = VerticalState(h[k], v0[k], v1[k], ADVISORIES[ia[k]], tau[k])
            via_public = belief_action_values(default_table, synthesize_belief(s, 25.0, 2.0))
            np.testing.assert_array_equal(via_public, via_arrays[k])


def quantized_tau(rel_pos, rel_vel, tau_max):
    """_quantized_tau of one geometry, as a float."""
    return float(_quantized_tau(*(np.array([c]) for c in (*rel_pos, *rel_vel)), tau_max)[0])


class TestQuantizedTau:
    """The simulator's one tau convention (separation threshold 500 ft)."""

    def test_diverging_maps_to_tau_max(self):
        assert quantized_tau((5000.0, 0.0), (100.0, 0.0), 40) == 40.0

    def test_rounds_to_whole_seconds(self):
        # (1730 - 500) / 100 = 12.3 s and (1760 - 500) / 100 = 12.6 s
        assert quantized_tau((1730.0, 0.0), (-100.0, 0.0), 40) == 12.0
        assert quantized_tau((1760.0, 0.0), (-100.0, 0.0), 40) == 13.0

    def test_capped_at_tau_max(self):
        # (5000 - 500) / 100 = 45 s lies beyond the 40 s horizon
        assert quantized_tau((5000.0, 0.0), (-100.0, 0.0), 40) == 40.0

    def test_matches_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        random = np.hstack([rng.uniform(-6000.0, 6000.0, size=(4000, 2)),
                            rng.uniform(-400.0, 400.0, size=(4000, 2))])
        cases = np.array([  # px, py, vx, vy: one of each branch
            [300.0, 100.0, -50.0, 0.0],  # inside the circle
            [500.0, 0.0, 100.0, 0.0],  # on it, moving away
            [1000.0, 0.0, 0.0, 0.0],  # no relative velocity
            [1000.0, 1000.0, -100.0, 0.0],  # a miss: disc < 0
            [1000.0, 0.0, 100.0, 0.0],  # diverging
            [1750.0, 0.0, -100.0, 0.0],  # tie 12.5 -> 12
            [1850.0, 0.0, -100.0, 0.0],  # tie 13.5 -> 14
        ])
        px, py, vx, vy = np.vstack([random, cases]).T
        taus = [horizontal_tau_xy((a, b), (c, d), 500.0)
                for a, b, c, d in zip(px.tolist(), py.tolist(), vx.tolist(), vy.tolist())]
        want = np.array([40.0 if t is None else float(min(round(t), 40)) for t in taus])
        got = _quantized_tau(px, py, vx, vy, 40)
        assert got.tobytes() == want.tobytes()
        assert want[-7:].tolist() == [0.0, 0.0, 40.0, 40.0, 40.0, 12.0, 14.0]
        assert taus[-7:] == [0.0, 0.0, None, None, None, 12.5, 13.5]
        # The random draws also fall inside, converge and never converge.
        assert {0.0, None} <= set(taus) and any(t is not None and 0 < t < 40 for t in taus)


class TestLockstep:
    """A lockstep chunk flies each encounter exactly as a lone encounter."""

    N = 12

    @pytest.mark.parametrize("sides", [("none", "none"), ("tcas", "none"),
                                       ("table", "none"), ("table", "table")])
    @pytest.mark.parametrize("sigma_h", [0.0, 25.0])
    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0])
    def test_batch_invariance(self, default_table, sides, sigma_h, p):
        model = default_correlated_model()
        eq = Equipage(
            own=sides[0], intruder=sides[1], pilot=PilotModel(response_probability=p),
            table=default_table, belief_sigma_h=sigma_h,
            belief_sigma_rate=2.0 if sigma_h else 0.0,
        )
        # The reference is each encounter's lone trace, reduced to its outcome.
        traced = [trace_outcome(run_indexed_traces(model, eq, 61, [i])) for i in range(self.N)]
        for size in (1, 7, self.N):
            chunked = []
            for start in range(0, self.N, size):
                indices = range(start, min(start + size, self.N))
                outcome = _run_chunk(model, [eq], 61, indices)
                chunked += outcome[0].tolist()
            assert chunked == traced, f"chunk size {size}"

    @pytest.mark.parametrize("sides", [("none", "none"), ("tcas", "none"), ("table", "none")])
    def test_chunk_invariance_past_one_chunk(self, default_table, sides):
        # More encounters than one chunk of CHUNK_ENCOUNTERS (256), at p < 1,
        # so pilot delays are drawn in every chunk layout.
        eq = Equipage(own=sides[0], intruder=sides[1], table=default_table,
                      pilot=PilotModel(response_probability=1.0 / 6.0))
        model, n = default_correlated_model(), 260
        outcomes = {}
        for size in (1, 7, 64, 256):
            chunks = [_run_chunk(model, [eq], 63, range(start, min(start + size, n)))
                      for start in range(0, n, size)]
            outcomes[size] = np.concatenate([outcome[0] for outcome in chunks]).tolist()
        assert outcomes[1] == outcomes[7] == outcomes[64] == outcomes[256]

    def assert_matches_reference(self, model, eq, seed):
        """A chunk's trace against reference_flight; returns it and the summed cost bindings."""
        trace = run_indexed_traces(model, eq, seed, range(self.N))
        # reference_flight flies chunks of one, which build as in any chunk.
        width = model.uniforms_per_encounter
        encs = [build_encounters(model, uniforms(seed, STREAM_ENCOUNTER, [b], width))
                for b in range(self.N)]
        u_sim = uniforms(seed, STREAM_SIMULATE, range(self.N), 2 * model.n_steps).tolist()
        bound = {"inhibit": 0, "coordination": 0, "restart": 0}
        for b, (enc, u) in enumerate(zip(encs, u_sim)):
            advisories, labels, altitudes, binding = reference_flight(enc, eq, u)
            assert advisory_pairs(trace, b) == advisories, b
            assert [event_labels(e) & ADVISORY_EVENTS for e in trace.events[b].tolist()] == labels, b
            assert list(zip(*trace.z[b].tolist())) == altitudes, b
            for key in bound:
                bound[key] += binding[key]
        return trace, bound

    @pytest.mark.parametrize("factory", [default_correlated_model, default_uncorrelated_model])
    @pytest.mark.parametrize("sides", [("tcas", "none"), ("none", "tcas"), ("tcas", "tcas")])
    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
    def test_tcas_arrays_match_scalar_tracker(self, factory, sides, p, dt):
        # A whole chunk flown by tracker_step_many against one TcasTracker
        # per encounter and side; dt != 1 makes every time to CPA fractional.
        model = factory(dt=dt)
        eq = Equipage(own=sides[0], intruder=sides[1], pilot=PilotModel(response_probability=p))
        trace, _ = self.assert_matches_reference(model, eq, 71)
        assert trace.outcome["alert"].all()

    @pytest.mark.parametrize("sides", [("table", "none"), ("table", "table")])
    @pytest.mark.parametrize("sigma_h", [0.0, 25.0])
    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0])
    def test_table_arrays_match_scalar_lookups(self, default_table, sides, sigma_h, p):
        # A whole chunk's table lookups and online costs against the scalar
        # API, one belief at a time.  A 6000 ft floor puts the 1000-5000 ft
        # altitude layer under the low-altitude inhibit.  Seed 73's twelve
        # encounters bind the coordination constraint at p = 1/6.
        eq = Equipage(
            own=sides[0], intruder=sides[1], pilot=PilotModel(response_probability=p),
            table=default_table, inhibit_altitude=6000.0, belief_sigma_h=sigma_h,
            belief_sigma_rate=2.0 if sigma_h else 0.0,
        )
        _, bound = self.assert_matches_reference(default_correlated_model(), eq, 73)
        assert bound["inhibit"] > 0
        if sides == ("table", "none"):
            assert bound["coordination"] == 0
        elif p < 1:
            # At p = 1 the two tables pick opposite senses unconstrained in
            # these encounters, so only p = 1/6 shows the constraint binding.
            assert bound["coordination"] > 0

    @pytest.mark.parametrize("sides", [("tcas", "tcas"), ("table", "none")])
    def test_switch_restarts_a_running_delay(self, default_table, sides):
        # At p = 1/6 the mean delay is 5 steps, so a side can switch to a new
        # advisory before its pilot has begun to comply with the last one.
        # The switch starts a new delay from its own step, as the reference
        # does; these seeded encounters must contain such switches.  Seed 73
        # has 25 under TCAS and 5 under the table (seed 71's table
        # encounters had none once the pilot began at a per-step draw).
        eq = Equipage(own=sides[0], intruder=sides[1], table=default_table,
                      pilot=PilotModel(response_probability=1.0 / 6.0))
        _, bound = self.assert_matches_reference(default_correlated_model(), eq, 73)
        assert bound["restart"] > 0

    @pytest.mark.parametrize("sides", [("none", "none"), ("tcas", "none"), ("table", "table")])
    def test_chunk_traces_match_lone_traces(self, default_table, sides):
        model = default_correlated_model()
        eq = Equipage(own=sides[0], intruder=sides[1], table=default_table,
                      belief_sigma_h=25.0, belief_sigma_rate=2.0)
        chunked = run_indexed_traces(model, eq, 62, range(self.N))
        for i in range(self.N):
            lone = run_indexed_traces(model, eq, 62, [i])
            assert lone.dt == chunked.dt
            for field in ("outcome", "x", "y", "z", "vz", "vel", "adv", "events"):
                assert getattr(chunked, field)[i].tolist() == getattr(lone, field)[0].tolist(), (i, field)

    def test_equipages_share_one_build(self, default_table):
        model = default_correlated_model()
        eqs = [Equipage(own="table", pilot=det_pilot(), table=default_table),
               Equipage(pilot=det_pilot())]
        outcome = _run_chunk(model, eqs, 8, range(5))
        assert outcome.shape == (2, 5)
        for j, eq in enumerate(eqs):
            lone = [trace_outcome(run_indexed_traces(model, eq, 8, [i])) for i in range(5)]
            assert outcome[j].tolist() == lone

    def test_particle_average_is_per_belief_matmul(self, default_table):
        # the batched belief average must equal each belief's own
        # weights @ values bit for bit (an einsum over the batch does not)
        rng = np.random.default_rng(5)
        b, n_p = 9, 20
        h = rng.uniform(-900.0, 900.0, (b, n_p))
        v0 = rng.uniform(-30.0, 30.0, (b, n_p))
        v1 = rng.uniform(-30.0, 30.0, (b, n_p))
        tau = np.repeat(rng.integers(0, 40, (b, 1)).astype(float), n_p, axis=1)
        ia = np.repeat(rng.integers(0, 7, (b, 1)), n_p, axis=1)
        w = np.full(n_p, 1.0 / n_p)
        batched = weighted_particle_values(default_table, h, v0, v1, tau, ia, w)
        per_belief = np.stack([
            weighted_particle_values(default_table, h[j], v0[j], v1[j], tau[j], ia[j], w)
            for j in range(b)
        ])
        np.testing.assert_array_equal(batched, per_belief)
        rows = interpolate_many(
            default_table, h.ravel(), v0.ravel(), v1.ravel(), tau.ravel(), ia.ravel()
        )
        np.testing.assert_array_equal(rows[:n_p], interpolate_many(
            default_table, h[0], v0[0], v1[0], tau[0], ia[0]))


# Every checked field of the model parameters a library caller constructs.
CHECKED_FIELDS = [
    (PilotModel, "response_probability"),
    (PilotModel, "acceleration"),
    (PilotModel, "deterministic_delay"),
    (IntruderModel, "sigma_accel"),
    (TcasConfig, "ta_tau"),
    (TcasConfig, "ra_tau"),
    (TcasConfig, "alim"),
    (TcasConfig, "miss_distance_threshold"),
    (RewardParams, "alert_cost"),
    (RewardParams, "strengthen_cost"),
    (RewardParams, "reversal_cost"),
    (Equipage, "belief_sigma_h"),
    (Equipage, "belief_sigma_rate"),
    (Equipage, "inhibit_altitude"),
    (OnlineContext, "inhibit_altitude"),
    (OnlineContext, "own_altitude_agl"),
    (Grid, "tau_max"),
]


@pytest.mark.parametrize("cls, name", CHECKED_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in CHECKED_FIELDS])
def test_nan_parameter_refused_by_name(cls, name):
    # Every ordered comparison with NaN is false, so `if x < 0: raise` lets
    # it through; the DP then drops NaN branch weights and returns a
    # finite, wrong table.
    with pytest.raises(ValueError, match=name):
        cls(**{name: math.nan})


class TestPairedSeeds:
    def test_intruder_trace_isolated_from_ownship_equipage(self, default_table):
        model = default_correlated_model()
        eq_none = Equipage(pilot=det_pilot())
        eq_table = Equipage(own="table", pilot=det_pilot(), table=default_table)
        for idx in range(5):
            trace_none = run_indexed_traces(model, eq_none, 99, [idx])
            trace_tab = run_indexed_traces(model, eq_table, 99, [idx])
            np.testing.assert_array_equal(trace_none.z[0, 1], trace_tab.z[0, 1])
            np.testing.assert_array_equal(trace_none.vz[0, 1], trace_tab.vz[0, 1])

    def test_equipping_reduces_nmacs_paired(self, default_table):
        model = default_correlated_model()
        rep_none = estimate_metrics(model, Equipage(pilot=det_pilot()), 300, seed=5)
        rep_tab = estimate_metrics(
            model, Equipage(own="table", pilot=det_pilot(), table=default_table), 300, seed=5
        )
        assert rep_tab.p_nmac < rep_none.p_nmac


class TestEstimateMetrics:
    def test_single_nmac_encounter(self):
        toy = toy_two_bin_model(p_conflict=0.999999)
        rep = estimate_metrics(toy, Equipage(), 1, seed=0)
        assert rep.n == 1
        assert rep.p_nmac == 1.0
        assert rep.p_nmac_se == 0.0

    def test_bit_reproducible(self):
        model = default_correlated_model()
        r1 = estimate_metrics(model, Equipage(), 50, seed=7)
        r2 = estimate_metrics(model, Equipage(), 50, seed=7)
        assert r1 == r2

    def test_rates_in_unit_interval(self, default_table):
        model = default_correlated_model()
        eq = Equipage(own="table", pilot=PilotModel(), table=default_table)
        rep = estimate_metrics(model, eq, 100, seed=3)
        for v in (rep.p_nmac, rep.alert_rate, rep.strengthen_rate,
                  rep.reversal_rate, rep.crossing_rate):
            assert 0.0 <= v <= 1.0

    def test_se_matches_bootstrap(self):
        toy = toy_two_bin_model(p_conflict=0.3)
        rep = estimate_metrics(toy, Equipage(), 200, seed=11)
        # bootstrap the binomial SE from the indicator draws themselves
        rng = np.random.default_rng(0)
        flags = np.array(
            [run_indexed_traces(toy, Equipage(), 11, [i]).outcome["nmac"][0] for i in range(200)],
            dtype=float,
        )
        assert np.mean(flags) == rep.p_nmac
        boots = [
            np.mean(flags[rng.integers(0, 200, 200)]) for _ in range(2000)
        ]
        assert rep.p_nmac_se == pytest.approx(np.std(boots), rel=0.15)

    def test_null_logic_toy_matches_analytic_at_1e4(self):
        toy = toy_two_bin_model(p_conflict=0.05)
        rep = estimate_metrics(toy, Equipage(), 10_000, seed=17)
        assert abs(rep.p_nmac - 0.05) <= 3.0 * max(rep.p_nmac_se, 1e-9)

    def test_workers_match_serial(self, small_table, read_small_table):
        toy = toy_two_bin_model(p_conflict=0.3)
        # belief noise on (the defaults) and a geometric pilot delay; the
        # read table reaches the workers as pickled float32 values
        table_eqs = [Equipage(own="table", pilot=PilotModel(), table=t)
                     for t in (small_table, read_small_table)]
        cases = [(toy, [eq], 40, None) for eq in (Equipage(), *table_eqs)]
        # 300 encounters: the serial run takes chunks of 256 and 44, the pool
        # two of 150, and each encounter reads its own rows of uniforms.
        # TCAS at p = 1/6 draws delays, under the nominal model and under IS.
        tcas = [Equipage(own="tcas", pilot=PilotModel(response_probability=1.0 / 6.0)), Equipage()]
        cases += [(default_uncorrelated_model(), tcas, 300, None),
                  (toy_two_bin_model(p_conflict=0.5), tcas, 300, toy_two_bin_model(p_conflict=0.05))]
        for model, equipages, n, nominal in cases:
            serial = _run_batch(model, equipages, range(n), 13, 1, nominal)
            try:
                parallel = _run_batch(model, equipages, range(n), 13, 2, nominal)
            except OSError:
                pytest.skip("process pool unavailable in sandbox")
            assert serial.tobytes() == parallel.tobytes()


class _StandInPool:
    """ProcessPoolExecutor's face, run in this process; records max_workers."""

    started: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


class TestWorkerCap:
    @pytest.fixture
    def started(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StandInPool)
        monkeypatch.setattr(evaluation, "_POOL_CONTEXT", {})
        monkeypatch.setattr(_StandInPool, "started", [])
        return _StandInPool.started

    @pytest.mark.parametrize("workers, cpus, n, expected", [
        (8, 3, 600, [3]),  # the CPUs bound the pool
        (8, 64, 3, [3]),  # the chunks bound the pool
        (4, 64, 600, [4]),
        (64, 1, 600, []),  # one CPU runs serially
        (8, 8, 1, []),  # so does one chunk
    ])
    def test_pool_is_no_larger_than_chunks_or_cpus(self, started, monkeypatch,
                                                    workers, cpus, n, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        toy = toy_two_bin_model(p_conflict=0.3)
        eq = Equipage(own="tcas")
        result = _run_batch(toy, [eq], range(n), 5, workers, None)
        assert started == expected
        assert result.tobytes() == _run_batch(toy, [eq], range(n), 5, 1, None).tobytes()

    def test_workers_below_one_refused(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _run_batch(toy_two_bin_model(), [Equipage()], range(10), 5, 0, None)


class TestSimulationStreams:
    def test_side_i_at_step_k_reads_counter_2k_plus_i(self):
        u_delay = _delay_uniforms(7, STREAM_SIMULATE, range(4), 50)
        u = uniforms(7, STREAM_SIMULATE, range(4), 100)
        assert u_delay.shape == (4, 2, 50)
        assert np.array_equal(u_delay[:, 0], u[:, 0::2]) and np.array_equal(u_delay[:, 1], u[:, 1::2])

    def test_fly_needs_the_whole_block(self):
        enc = hand_encounter()
        eq = Equipage(own="tcas", pilot=PilotModel(response_probability=0.5))
        with pytest.raises(ValueError, match="simulation-stream uniforms"):
            _fly(enc, eq, np.full((1, 2, 29), 0.5))


class TestPilotResponse:
    """A pilot not yet complying begins with probability p at each step."""

    def onsets(self, p, copies):
        # Copies of one head-on encounter under TCAS, which issues a descent
        # at step 23 (ra_tau 40 s) and keeps one while the pilot holds level
        # flight; only their simulation-stream uniforms differ.  A pilot who
        # begins at step j moves off the commanded rate of 0 at sample j + 1.
        one = hand_encounter(n_steps=70, tau0=60.0)
        enc = dataclasses.replace(one, **{name: np.repeat(getattr(one, name), copies, axis=0)
                                        for name in ("vrate", "speed", "int_pos0", "alt0")})
        eq = Equipage(own="tcas", pilot=PilotModel(response_probability=p), tcas=TcasConfig(ra_tau=40.0))
        trace = _fly(enc, eq, _delay_uniforms(5, STREAM_SIMULATE, range(copies), enc.n_steps))
        switch = (trace.adv[:, :, 0] != COC_INDEX).argmax(axis=1)
        left = trace.vz[:, 0] != 0.0
        # Every copy switches at the same step and complies within the run.
        assert np.all(switch == 23) and left.any(axis=1).all()
        return left.argmax(axis=1) - 1 - switch

    def test_onset_is_geometric(self):
        # Geometric on {0, 1, ...}: mean (1 - p) / p = 4 (se 0.03 over
        # 20000 copies) and mass p at 0 (se 0.003).
        p = 0.2
        onset = self.onsets(p, 20_000)
        assert abs(onset.mean() - (1 - p) / p) <= 0.1
        assert abs(np.mean(onset == 0) - p) <= 0.01

    def test_p_one_complies_at_the_switch(self):
        assert not self.onsets(1.0, 16).any()


class TestZeroEventReporting:
    @pytest.mark.parametrize("n, k", [(1, 0), (10, 1), (60, 0), (60, 3), (100, 5), (400, 20)])
    def test_upper_bound_is_the_clopper_pearson_point(self, n, k):
        # P(X <= k | n, bound) = 0.05, summed exactly with integer binomials
        bound = binomial_upper_bound(k, n)
        cdf = sum(math.comb(n, i) * bound ** i * (1.0 - bound) ** (n - i) for i in range(k + 1))
        assert cdf == pytest.approx(0.05, rel=1e-9)
        assert k / n < bound < 1.0

    def test_upper_bound_at_zero_events_is_closed_form(self):
        for n in (1, 60, 4000):
            assert binomial_upper_bound(0, n) == 1.0 - 0.05 ** (1.0 / n)

    def test_upper_bound_known_values(self):
        # the 0.95 quantile of Beta(k + 1, n - k), as tabulated
        assert binomial_upper_bound(1, 10) == pytest.approx(0.3941633024365047, rel=1e-12)
        assert binomial_upper_bound(5, 100) == pytest.approx(0.1022533776432745, rel=1e-12)
        assert binomial_upper_bound(10, 10) == 1.0

    def test_upper_bound_grows_with_events(self):
        bounds = [binomial_upper_bound(k, 50) for k in range(51)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_report_without_nmacs_bounds_instead_of_se(self):
        rep = estimate_metrics(toy_two_bin_model(p_conflict=1e-6), Equipage(), 60, seed=0)
        assert rep.p_nmac == 0.0
        assert rep.p_nmac_se is None
        assert rep.p_nmac_upper95 == 1.0 - 0.05 ** (1.0 / 60)

    def test_report_with_nmacs_keeps_se_and_bounds(self):
        toy = toy_two_bin_model(p_conflict=0.3)
        rep = estimate_metrics(toy, Equipage(), 200, seed=11)
        k = round(rep.p_nmac * 200)
        assert 0 < k < 200
        assert rep.p_nmac_se == math.sqrt(rep.p_nmac * (1 - rep.p_nmac) / 200)
        assert rep.p_nmac_upper95 == binomial_upper_bound(k, 200)

    def test_weighted_report_has_no_bound(self):
        toy = toy_two_bin_model(p_conflict=0.05)
        rep = is_estimate(toy, toy_two_bin_model(p_conflict=0.5), Equipage(), 40, seed=3)
        assert rep.p_nmac_upper95 is None and rep.p_nmac_se is not None


class TestRiskRatio:
    def report(self, p, se=0.01, n=1000):
        return MetricsReport(
            n=n, p_nmac=p, p_nmac_se=se, alert_rate=0.5, strengthen_rate=0.0,
            reversal_rate=0.0, crossing_rate=0.0, effective_sample_size=n,
        )

    def test_identity(self):
        r = risk_ratio(self.report(0.1), self.report(0.1))
        assert r.value == 1.0

    def test_arithmetic(self):
        r = risk_ratio(self.report(0.01), self.report(0.1))
        assert r.value == pytest.approx(0.1)

    def test_perfect_system(self):
        r = risk_ratio(self.report(0.0, se=0.0), self.report(0.1))
        assert r.value == 0.0
        assert r.se == 0.0

    def test_no_equipped_se_gives_no_ratio_se(self):
        r = risk_ratio(self.report(0.0, se=None), self.report(0.1))
        assert r.value == 0.0
        assert r.se is None

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="unequipped"):
            risk_ratio(self.report(0.01), self.report(0.0))

    def test_delta_method_se(self):
        eq, un = self.report(0.02, se=0.004), self.report(0.2, se=0.012)
        r = risk_ratio(eq, un)
        expected = (0.02 / 0.2) * math.sqrt((0.004 / 0.02) ** 2 + (0.012 / 0.2) ** 2)
        assert r.se == pytest.approx(expected)


class TestImportanceSampling:
    def test_weighted_report_may_exceed_one(self):
        rep = MetricsReport(
            n=10, p_nmac=0.2, p_nmac_se=0.1, alert_rate=1.3, strengthen_rate=0.0,
            reversal_rate=0.0, crossing_rate=0.0, effective_sample_size=6.0, weighted=True,
        )
        assert rep.alert_rate == 1.3
        with pytest.raises(ValueError):
            dataclasses.replace(rep, alert_rate=1.3, weighted=False)
        with pytest.raises(ValueError):
            dataclasses.replace(rep, alert_rate=math.inf)
        with pytest.raises(ValueError):
            dataclasses.replace(rep, alert_rate=-0.1)

    def test_identity_proposal_equals_plain_mc(self):
        toy = toy_two_bin_model(p_conflict=0.2)
        plain = estimate_metrics(toy, Equipage(), 500, seed=21)
        weighted = is_estimate(toy, toy, Equipage(), 500, seed=21)
        assert weighted.p_nmac == plain.p_nmac
        assert weighted.alert_rate == plain.alert_rate

    def test_biased_proposal_recovers_analytic_value(self):
        nominal = toy_two_bin_model(p_conflict=0.05)
        proposal = toy_two_bin_model(p_conflict=0.5)
        rep = is_estimate(nominal, proposal, Equipage(), 2000, seed=22)
        assert abs(rep.p_nmac - 0.05) <= 3.0 * rep.p_nmac_se
        assert rep.p_nmac_se > 0.0

    def test_effective_sample_size_bounded(self):
        nominal = toy_two_bin_model(p_conflict=0.05)
        proposal = toy_two_bin_model(p_conflict=0.5)
        rep = is_estimate(nominal, proposal, Equipage(), 500, seed=23)
        assert rep.effective_sample_size <= 500.0
        plain = is_estimate(nominal, nominal, Equipage(), 500, seed=23)
        assert plain.effective_sample_size == pytest.approx(500.0)

    def test_structure_mismatch_rejected(self):
        nominal = toy_two_bin_model(p_conflict=0.05)
        other = default_correlated_model()
        with pytest.raises(ValueError):
            is_estimate(nominal, other, Equipage(), 10, seed=0)


class TestCrossEntropy:
    def test_elite_fraction_validated(self):
        toy = toy_two_bin_model()
        with pytest.raises(ValueError):
            cross_entropy_adapt(toy, toy, Equipage(), 1, 100, 0.0, seed=0)
        with pytest.raises(ValueError):
            cross_entropy_adapt(toy, toy, Equipage(), 1, 5, 0.1, seed=0)

    def test_full_elite_fraction_runs(self):
        toy = toy_two_bin_model(p_conflict=0.3)
        adapted = cross_entropy_adapt(toy, toy, Equipage(), 1, 200, 1.0, seed=1)
        # refit on every sample: tau0 CPT stays near the sampling frequency
        itau = adapted.initial_net.node_index("tau0")
        assert adapted.initial_net.cpt[itau][0, 0] == pytest.approx(0.3, abs=0.1)

    def test_adaptation_amplifies_failures(self):
        nominal = toy_two_bin_model(p_conflict=0.05)
        adapted = cross_entropy_adapt(
            nominal, nominal, Equipage(), iterations=2, n_per_iter=500,
            elite_fraction=0.1, seed=2,
        )
        freq_nominal = estimate_metrics(nominal, Equipage(), 500, seed=3).p_nmac
        freq_adapted = estimate_metrics(adapted, Equipage(), 500, seed=3).p_nmac
        assert freq_adapted > freq_nominal

    def test_reweighted_estimate_stays_unbiased(self):
        nominal = toy_two_bin_model(p_conflict=0.05)
        adapted = cross_entropy_adapt(
            nominal, nominal, Equipage(), iterations=2, n_per_iter=500,
            elite_fraction=0.1, seed=4,
        )
        rep = is_estimate(nominal, adapted, Equipage(), 2000, seed=5)
        assert abs(rep.p_nmac - 0.05) <= 3.0 * max(rep.p_nmac_se, 1e-6)

    def test_memory_does_not_grow_with_the_iteration(self):
        # An iteration keeps only its outcome records and builds its 24
        # elite encounters again from their rows of the encounter stream, so
        # 2,048 encounters peak about where 256 do (1.03 x).  Holding every
        # built encounter until the ranking was done peaked 2.20 x higher.
        model = default_uncorrelated_model()
        eq = Equipage(own="tcas")
        cross_entropy_adapt(model, model, eq, 1, 256, 24.5 / 256, 5)  # warm-up
        peaks = {}
        for n in (256, 2048):
            tracemalloc.start()
            try:
                cross_entropy_adapt(model, model, eq, 1, n, 24.5 / n, 5)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] <= 1.25 * peaks[256], peaks


class TestSeverity:
    @pytest.mark.parametrize("h, nmac", [(100.0, False), (np.nextafter(100.0, 0.0), True)])
    def test_nmac_boundary_at_zero_range(self, h, nmac):
        # Horizontal range closes to zero at t = tau0 + 500 / closure = 22 s.
        enc = dataclasses.replace(hand_encounter(), alt0=np.array([[0.0, h]]))
        (outcome,) = _fly(enc, Equipage(), np.zeros((1, 2, enc.n_steps))).outcome
        assert bool(outcome["nmac"]) == nmac == (outcome["severity"] < 1.0)
        if not nmac:
            assert outcome["severity"] == 1.0
        trace = simulate_encounter(enc, Equipage(), np.random.default_rng(0))
        assert trace_severity(trace.x[0], trace.y[0], trace.z[0]) == outcome["severity"]

    def test_nmac_iff_severity_below_one(self):
        model = default_correlated_model()
        for idx in range(30):
            trace = run_indexed_traces(model, Equipage(), 31, [idx])
            nmac = bool(np.bitwise_or.reduce(trace.events[0]) & EVENT_BIT[EVENT_NMAC])
            assert nmac == (trace_severity(trace.x[0], trace.y[0], trace.z[0]) < 1.0)
