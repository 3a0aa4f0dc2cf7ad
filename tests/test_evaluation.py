import dataclasses
import math

import numpy as np
import pytest

from caslab.core import (
    EVENT_NMAC,
    EVENT_RA,
    EVENT_REVERSAL,
    EVENT_STRENGTHEN,
    EVENT_TA,
    Advisory,
    AircraftState,
    VerticalState,
    is_reversal,
    is_strengthening,
)
from caslab.dynamics import PilotModel, sample_response_delay, step_vertical
from caslab.encounters import (
    HEADINGS,
    OWN_POS0,
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
    _BIT,
    _quantized_tau,
    _rngs,
    _run_chunk,
    cross_entropy_adapt,
    estimate_metrics,
    is_estimate,
    risk_ratio,
    run_indexed_traces,
    simulate_encounter,
    trace_severity,
)
from caslab.runtime import (
    belief_action_values,
    interpolate_many,
    synthesize_belief,
    weighted_particle_values,
)
from caslab.tcas import TcasTracker, Threat
from conftest import nominal_tracks


def hand_encounter(n_steps=30, closure=250.0, tau0=20.0, own_vr=0.0, int_vr=0.0, dt=1.0):
    """A coaltitude head-on encounter with constant rates: a batch of one, without draw records."""
    return EncounterBatch(
        dt=dt,
        n_steps=n_steps,
        mode="correlated",
        vrate=np.array([[np.full(n_steps, own_vr), np.full(n_steps, int_vr)]]),
        speed=np.array([[closure / 2, closure / 2]]),
        int_pos0=np.array([[500.0 + closure * tau0, 0.0]]),
        alt0=np.array([[5000.0, 5000.0]]),
        log_probability=np.array([0.0]),
        initial_bins=np.zeros((0, 1, 5), dtype=int),
        transition_rows=np.zeros((0, 1, n_steps - 1, 7), dtype=int),
    )


def det_pilot():
    return PilotModel(response_probability=1.0)


def trace_outcome(trace):
    """A trace's event bits ORed over its steps, and its severity."""
    return sum(_BIT[f] for f in frozenset().union(*trace.events)), trace_severity(trace)


ADVISORY_EVENTS = frozenset({EVENT_TA, EVENT_RA, EVENT_STRENGTHEN, EVENT_REVERSAL})


def tracker_flight(enc, eq, rng):
    """Reference TCAS closed loop: one TcasTracker per TCAS side, scalar kinematics.

    Flies a batch of one encounter with the simulator's conventions (pilot
    stream, response delays, nominal commands when not complying) and
    returns each sample's (own, intruder) advisories, its
    TA/RA/strengthen/reversal labels and both altitudes.
    """
    pilot_rng, _ = rng.spawn(2)
    n, dt = enc.n_steps, enc.dt
    (speed,), (int_pos0,), (alt0,), (cmds,) = (
        a.tolist() for a in (enc.speed, enc.int_pos0, enc.alt0, enc.vrate)
    )
    vel = [(s * math.cos(heading), s * math.sin(heading)) for s, heading in zip(speed, HEADINGS)]
    pos0 = (OWN_POS0, int_pos0)
    z, vz = alt0, [cmds[0][0], cmds[1][0]]
    trackers = [TcasTracker(eq.tcas) if kind == "tcas" else None for kind in (eq.own, eq.intruder)]
    adv, complying, delay = [Advisory.COC] * 2, [False] * 2, [0, 0]
    advisories, labels, altitudes = [], [], []
    for k in range(n):
        states = [
            AircraftState(pos0[i][0] + vel[i][0] * k * dt, pos0[i][1] + vel[i][1] * k * dt,
                          z[i], vel[i][0], vel[i][1], vz[i])
            for i in (0, 1)
        ]
        step_labels = set()
        for i, tracker in enumerate(trackers):
            if tracker is None:
                continue
            a, threat = tracker.step(states[i], states[1 - i])
            if threat is Threat.TA:
                step_labels.add(EVENT_TA)
            if a is not adv[i]:
                if adv[i] is Advisory.COC:
                    step_labels.add(EVENT_RA)
                if is_strengthening(adv[i], a):
                    step_labels.add(EVENT_STRENGTHEN)
                if is_reversal(adv[i], a):
                    step_labels.add(EVENT_REVERSAL)
                adv[i], complying[i] = a, False
                if a is not Advisory.COC:
                    delay[i] = sample_response_delay(eq.pilot, pilot_rng)
            if adv[i] is not Advisory.COC and not complying[i]:
                if delay[i] == 0:
                    complying[i] = True
                else:
                    delay[i] -= 1
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
    return advisories, labels, altitudes


class TestSimulateEncounter:
    def test_unequipped_matches_nominal(self):
        enc = hand_encounter(own_vr=3.0, int_vr=-2.0)
        trace = simulate_encounter(enc, Equipage(), np.random.default_rng(0))
        own_n, intr_n = nominal_tracks(enc)
        np.testing.assert_array_equal(trace.ownship.z, own_n.z)
        np.testing.assert_array_equal(trace.ownship.vz, own_n.vz)
        np.testing.assert_array_equal(trace.intruder.z, intr_n.z)
        np.testing.assert_array_equal(trace.intruder.x, intr_n.x)

    def test_same_seed_bit_identical(self, default_table):
        enc = hand_encounter()
        eq = Equipage(own="table", pilot=PilotModel(), table=default_table)
        t1 = simulate_encounter(enc, eq, np.random.default_rng(42))
        t2 = simulate_encounter(enc, eq, np.random.default_rng(42))
        np.testing.assert_array_equal(t1.ownship.z, t2.ownship.z)
        assert t1.advisories == t2.advisories
        assert t1.events == t2.events

    def test_coaltitude_head_on_unequipped_is_nmac(self):
        trace = simulate_encounter(hand_encounter(), Equipage(), np.random.default_rng(0))
        assert trace.has_event(EVENT_NMAC)

    def test_coaltitude_head_on_table_resolves(self, default_table):
        # single-scenario regression pinned after the first table build
        enc = hand_encounter()
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table)
        trace = simulate_encounter(enc, eq, np.random.default_rng(1))
        assert trace.has_event(EVENT_RA)
        assert not trace.has_event(EVENT_NMAC)

    def test_coaltitude_head_on_tcas_resolves(self):
        enc = hand_encounter()
        eq = Equipage(own="tcas", pilot=det_pilot())
        trace = simulate_encounter(enc, eq, np.random.default_rng(2))
        assert trace.has_event(EVENT_RA)
        assert not trace.has_event(EVENT_NMAC)

    def test_dt_mismatch_rejected(self, default_table):
        enc = hand_encounter(n_steps=60, dt=0.5)
        eq = Equipage(own="table", pilot=det_pilot(), table=default_table)
        with pytest.raises(ValueError):
            simulate_encounter(enc, eq, np.random.default_rng(0))

    def test_table_equipage_requires_table(self):
        with pytest.raises(ValueError):
            Equipage(own="table")

    def test_fast_lookup_path_matches_public_ops(self, default_table):
        # the simulation loop's array-form belief lookup must agree with
        # synthesize_belief + belief_action_values on the same stream
        s = VerticalState(120.0, -4.0, 6.0, Advisory.COC, 17.0)
        rng_a = np.random.default_rng(33)
        belief = synthesize_belief(s, 25.0, 2.0, 20, rng_a)
        via_public = belief_action_values(default_table, belief)
        rng_b = np.random.default_rng(33)
        noise = rng_b.normal(0.0, 1.0, size=(20, 3))
        noise[:, 0] *= 25.0
        noise[:, 1] *= 2.0
        noise[:, 2] *= 2.0
        ia = default_table.grid.advisory_index(s.a_prev)
        via_arrays = weighted_particle_values(
            default_table,
            s.h + noise[:, 0],
            s.hdot0 + noise[:, 1],
            s.hdot1 + noise[:, 2],
            np.full(20, s.tau),
            np.full(20, ia),
            np.full(20, 1 / 20),
        )
        np.testing.assert_array_equal(via_public, via_arrays)


class TestQuantizedTau:
    """The simulator's one tau convention (separation threshold 500 ft)."""

    def test_diverging_maps_to_tau_max(self):
        assert _quantized_tau((5000.0, 0.0), (100.0, 0.0), 40) == 40.0

    def test_rounds_to_whole_seconds(self):
        # (1730 - 500) / 100 = 12.3 s and (1760 - 500) / 100 = 12.6 s
        assert _quantized_tau((1730.0, 0.0), (-100.0, 0.0), 40) == 12.0
        assert _quantized_tau((1760.0, 0.0), (-100.0, 0.0), 40) == 13.0

    def test_capped_at_tau_max(self):
        # (5000 - 500) / 100 = 45 s lies beyond the 40 s horizon
        assert _quantized_tau((5000.0, 0.0), (-100.0, 0.0), 40) == 40.0


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
        traced = [trace_outcome(run_indexed_traces(model, eq, 61, [i])[0]) for i in range(self.N)]
        for size in (1, 7, self.N):
            chunked = []
            for start in range(0, self.N, size):
                indices = range(start, min(start + size, self.N))
                _, flags, severity, log_weight = _run_chunk(model, [eq], 61, indices)
                assert not log_weight.any()
                chunked += zip(flags[0].tolist(), severity[0].tolist())
            assert chunked == traced, f"chunk size {size}"

    @pytest.mark.parametrize("factory", [default_correlated_model, default_uncorrelated_model])
    @pytest.mark.parametrize("sides", [("tcas", "none"), ("none", "tcas"), ("tcas", "tcas")])
    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
    def test_tcas_arrays_match_scalar_tracker(self, factory, sides, p, dt):
        # A whole chunk flown by tracker_step_many against one TcasTracker
        # per encounter and side; dt != 1 makes every time to CPA fractional.
        model = factory(dt=dt)
        eq = Equipage(own=sides[0], intruder=sides[1], pilot=PilotModel(response_probability=p))
        traces = run_indexed_traces(model, eq, 71, range(self.N))
        # tracker_flight flies chunks of one, which build as in any chunk.
        encs = [build_encounters(model, _rngs(71, STREAM_ENCOUNTER, [b])) for b in range(self.N)]
        rngs = _rngs(71, STREAM_SIMULATE, range(self.N))
        for b, (trace, enc, rng) in enumerate(zip(traces, encs, rngs)):
            advisories, labels, altitudes = tracker_flight(enc, eq, rng)
            assert list(trace.advisories) == advisories, b
            assert [e & ADVISORY_EVENTS for e in trace.events] == labels, b
            assert list(zip(trace.ownship.z.tolist(), trace.intruder.z.tolist())) == altitudes, b
        assert all(any(EVENT_RA in e for e in trace.events) for trace in traces)

    @pytest.mark.parametrize("sides", [("none", "none"), ("tcas", "none"), ("table", "table")])
    def test_chunk_traces_match_lone_traces(self, default_table, sides):
        model = default_correlated_model()
        eq = Equipage(own=sides[0], intruder=sides[1], table=default_table,
                      belief_sigma_h=25.0, belief_sigma_rate=2.0)
        chunked = run_indexed_traces(model, eq, 62, range(self.N))
        for i, trace in enumerate(chunked):
            (lone,) = run_indexed_traces(model, eq, 62, [i])
            for a, b in ((trace.ownship, lone.ownship), (trace.intruder, lone.intruder)):
                for field in ("x", "y", "z", "vx", "vy", "vz"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (i, field)
            assert trace.advisories == lone.advisories
            assert trace.events == lone.events

    def test_equipages_share_one_build(self, default_table):
        model = default_correlated_model()
        eqs = [Equipage(own="table", pilot=det_pilot(), table=default_table),
               Equipage(pilot=det_pilot())]
        encs, flags, severity, log_weight = _run_chunk(model, eqs, 8, range(5))
        assert len(encs) == 5
        assert flags.shape == severity.shape == (2, 5) and log_weight.shape == (5,)
        for j, eq in enumerate(eqs):
            lone = [trace_outcome(run_indexed_traces(model, eq, 8, [i])[0]) for i in range(5)]
            assert list(zip(flags[j].tolist(), severity[j].tolist())) == lone

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


class TestPairedSeeds:
    def test_intruder_trace_isolated_from_ownship_equipage(self, default_table):
        model = default_correlated_model()
        eq_none = Equipage(pilot=det_pilot())
        eq_table = Equipage(own="table", pilot=det_pilot(), table=default_table)
        for idx in range(5):
            (trace_none,) = run_indexed_traces(model, eq_none, 99, [idx])
            (trace_tab,) = run_indexed_traces(model, eq_table, 99, [idx])
            np.testing.assert_array_equal(
                trace_none.intruder.z, trace_tab.intruder.z
            )
            np.testing.assert_array_equal(
                trace_none.intruder.vz, trace_tab.intruder.vz
            )

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
            [run_indexed_traces(toy, Equipage(), 11, [i])[0].has_event(EVENT_NMAC)
             for i in range(200)],
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

    def test_workers_match_serial(self, small_table):
        toy = toy_two_bin_model(p_conflict=0.3)
        # belief noise on (the defaults) and a geometric pilot delay
        table_eq = Equipage(own="table", pilot=PilotModel(), table=small_table)
        for eq in (Equipage(), table_eq):
            serial = estimate_metrics(toy, eq, 40, seed=13, workers=1)
            try:
                parallel = estimate_metrics(toy, eq, 40, seed=13, workers=2)
            except OSError:
                pytest.skip("process pool unavailable in sandbox")
            assert serial == parallel


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


class TestSeverity:
    def test_nmac_iff_severity_below_one(self):
        model = default_correlated_model()
        for idx in range(30):
            (trace,) = run_indexed_traces(model, Equipage(), 31, [idx])
            assert trace.has_event(EVENT_NMAC) == (trace_severity(trace) < 1.0)
