import numpy as np
import pytest

from caslab.core import ADVISORIES, DOWN, UP, Advisory, AircraftState
from caslab.tcas import (
    TcasConfig,
    TcasTracker,
    Threat,
    assess_threat,
    assess_threat_many,
    closest_approach,
    closest_approach_many,
    pick_min_strength,
    select_advisory_many,
    select_sense,
    select_strength,
    tracker_step_many,
)


def cfg(**kw):
    return TcasConfig(**kw)


def head_on_pair(r=7200.0, closure=300.0, own_z=0.0, own_vz=2.0, intr_z=200.0, intr_vz=0.0):
    """Scripted geometry in the style of the two-step selection figure."""
    own = AircraftState(x=0.0, y=0.0, z=own_z, vx=closure / 2, vy=0.0, vz=own_vz)
    intr = AircraftState(x=r, y=0.0, z=intr_z, vx=-closure / 2, vy=0.0, vz=intr_vz)
    return own, intr


class TestAssessThreat:
    def test_diverging_is_none(self):
        own = AircraftState(0, 0, 0, 100, 0, 0)
        intr = AircraftState(5000, 0, 0, 300, 0, 0)  # running away ahead
        assert assess_threat(own, intr, cfg()) is Threat.NONE

    def test_head_on_inside_ra_gate(self):
        own, intr = head_on_pair(r=6000.0, closure=300.0)  # t_cpa = 20 s
        assert assess_threat(own, intr, cfg(ra_tau=25.0)) is Threat.RA

    def test_between_gates_is_ta(self):
        own, intr = head_on_pair(r=9000.0, closure=300.0)  # t_cpa = 30 s
        assert assess_threat(own, intr, cfg(ta_tau=40.0, ra_tau=25.0)) is Threat.TA

    def test_wide_miss_is_none(self):
        own = AircraftState(0, 20000, 0, 150, 0, 0)
        intr = AircraftState(6000, -20000, 0, -150, 0, 0)
        assert assess_threat(own, intr, cfg()) is Threat.NONE

    def test_monotone_in_tau(self):
        # shrinking range (same geometry family) never downgrades the threat
        order = {Threat.NONE: 0, Threat.TA: 1, Threat.RA: 2}
        prev = -1
        for r in np.arange(13000.0, 500.0, -500.0):
            own, intr = head_on_pair(r=r)
            level = order[assess_threat(own, intr, cfg())]
            assert level >= prev
            prev = level


class TestSelectSense:
    def test_level_intruder_above_gives_down(self):
        own, intr = head_on_pair(own_vz=0.0, intr_z=300.0)
        assert select_sense(own, intr, cfg()) == DOWN

    def test_mirrored_gives_up(self):
        own, intr = head_on_pair(own_vz=0.0, intr_z=-300.0)
        assert select_sense(own, intr, cfg()) == UP

    def test_figure_geometry_down(self):
        own, intr = head_on_pair()
        assert select_sense(own, intr, cfg()) == DOWN

    def test_mirror_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            own, intr = head_on_pair(
                r=rng.uniform(4000, 7000),
                own_vz=rng.uniform(-15, 15),
                intr_z=rng.uniform(-800, 800),
                intr_vz=rng.uniform(-15, 15),
            )
            own_m = AircraftState(own.x, own.y, -own.z, own.vx, own.vy, -own.vz)
            intr_m = AircraftState(intr.x, intr.y, -intr.z, intr.vx, intr.vy, -intr.vz)
            s = select_sense(own, intr, cfg())
            s_m = select_sense(own_m, intr_m, cfg())
            # skip exact projection ties, where the down tie-break wins both
            t_cpa, _ = closest_approach(own, intr)
            from caslab.dynamics import project_template
            up = project_template((own.z, own.vz), (intr.z, intr.vz), Advisory.CL1500, cfg().pilot, t_cpa)
            down = project_template((own.z, own.vz), (intr.z, intr.vz), Advisory.DES1500, cfg().pilot, t_cpa)
            if abs(up - down) > 1e-9:
                assert s_m == -s


class TestSelectStrength:
    def test_figure_selection_is_des1500(self):
        own, intr = head_on_pair()
        assert select_strength(own, intr, DOWN, cfg(alim=400.0)) is Advisory.DES1500

    def test_minimum_strength_rule_on_given_separations(self):
        chosen = pick_min_strength(
            (Advisory.DNC, Advisory.DES1500, Advisory.DES2500),
            [300.0, 450.0, 700.0],
            400.0,
        )
        assert chosen is Advisory.DES1500

    def test_all_achieving_gives_weakest(self):
        chosen = pick_min_strength(
            (Advisory.DNC, Advisory.DES1500, Advisory.DES2500),
            [500.0, 600.0, 700.0],
            400.0,
        )
        assert chosen is Advisory.DNC

    def test_none_achieving_gives_strongest(self):
        chosen = pick_min_strength(
            (Advisory.DND, Advisory.CL1500, Advisory.CL2500),
            [100.0, 200.0, 300.0],
            400.0,
        )
        assert chosen is Advisory.CL2500

    def test_output_sense_matches_input_sense(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            own, intr = head_on_pair(
                r=rng.uniform(4000, 7000),
                own_vz=rng.uniform(-15, 15),
                intr_z=rng.uniform(-800, 800),
                intr_vz=rng.uniform(-15, 15),
            )
            for sense in (UP, DOWN):
                assert select_strength(own, intr, sense, cfg()).sense == sense


class TestTracker:
    def test_fresh_ra_issues_immediately(self):
        tracker = TcasTracker(cfg())
        own, intr = head_on_pair(r=6000.0)
        advisory, threat = tracker.step(own, intr)
        assert threat is Threat.RA
        assert advisory is not Advisory.COC

    def test_switch_requires_two_consecutive_differing_steps(self):
        tracker = TcasTracker(cfg())
        own, intr = head_on_pair(r=6000.0)
        first, _ = tracker.step(own, intr)
        # move the threat away: selection flips to COC but must persist twice
        own_far = AircraftState(0, 0, 0, -150, 0, 0)
        intr_far = AircraftState(50000, 0, 0, 150, 0, 0)
        second, _ = tracker.step(own_far, intr_far)
        assert second is first
        third, _ = tracker.step(own_far, intr_far)
        assert third is Advisory.COC


def random_pairs(rng, n):
    """Own/intruder states: closing, diverging and equal-velocity geometries."""
    pairs = []
    for j in range(n):
        own = AircraftState(0.0, 0.0, rng.uniform(-500, 500), rng.uniform(-200, 200),
                            rng.uniform(-200, 200), rng.uniform(-40, 40))
        if j % 10 == 0:  # no relative motion: closest_approach's vv == 0 branch
            vx, vy = own.vx, own.vy
        else:
            vx, vy = rng.uniform(-200, 200), rng.uniform(-200, 200)
        intr = AircraftState(rng.uniform(-12000, 12000), rng.uniform(-12000, 12000),
                             rng.uniform(-800, 800), vx, vy, rng.uniform(-40, 40))
        pairs.append((own, intr))
    return pairs


def relative(pairs):
    """Intruder-minus-own position and velocity arrays."""
    return tuple(np.array([getattr(i, f) - getattr(o, f) for o, i in pairs])
                 for f in ("x", "y", "vx", "vy"))


class TestArrayTwins:
    """The *_many functions equal the scalar reference bit for bit."""

    def test_closest_approach_and_threat(self):
        pairs = random_pairs(np.random.default_rng(3), 600)
        t_cpa, miss = closest_approach_many(*relative(pairs))
        ta, ra = assess_threat_many(t_cpa, miss, cfg())
        for j, (own, intr) in enumerate(pairs):
            t, m = closest_approach(own, intr)
            assert (t is None and np.isnan(t_cpa[j])) or t == t_cpa[j]
            assert m == miss[j]
            threat = assess_threat(own, intr, cfg())
            assert (threat is Threat.TA, threat is Threat.RA) == (ta[j], ra[j])
        assert ta.any() and ra.any() and np.isnan(t_cpa).any()

    @pytest.mark.parametrize("alim", [400.0, 650.0])
    def test_select_advisory(self, alim):
        rng = np.random.default_rng(4)
        pairs = []
        for _ in range(300):  # within 25 s of CPA, so the projections differ
            own, intr = head_on_pair(r=rng.uniform(600, 7000), own_vz=rng.uniform(-40, 40),
                                     intr_z=rng.uniform(-900, 900), intr_vz=rng.uniform(-40, 40))
            pairs.append((own, intr))
        # level pairs CPA inside the delay: every template projects exactly ALIM
        pairs += [head_on_pair(r=600.0, own_vz=0.0, intr_z=z, intr_vz=0.0) for z in (alim, -alim)]
        c = cfg(alim=alim)
        t_cpa, _ = closest_approach_many(*relative(pairs))
        own_z, own_vz, intr_z, intr_vz = (
            np.array([getattr(s, f) for s in states])
            for states in zip(*pairs) for f in ("z", "vz")
        )
        got = select_advisory_many((own_z, own_vz), (intr_z, intr_vz), t_cpa, c)
        expected = [
            ADVISORIES.index(select_strength(own, intr, select_sense(own, intr, c), c))
            for own, intr in pairs
        ]
        assert got.tolist() == expected
        assert len(set(expected)) >= 4

    def test_tracker_step(self):
        rng = np.random.default_rng(5)
        rows, steps = 40, 30
        trackers = [TcasTracker(cfg()) for _ in range(rows)]
        current, streak = np.zeros(rows, dtype=int), np.zeros(rows, dtype=int)
        switches = 0
        for _ in range(steps):
            # mostly short-range geometry, so RAs come, go and change
            pairs = [head_on_pair(r=rng.uniform(500, 12000), own_vz=rng.uniform(-40, 40),
                                  intr_z=rng.uniform(-900, 900), intr_vz=rng.uniform(-40, 40))
                     for _ in range(rows)]
            t_cpa, miss = closest_approach_many(*relative(pairs))
            _, ra = assess_threat_many(t_cpa, miss, cfg())
            own = tuple(np.array([getattr(o, f) for o, _ in pairs]) for f in ("z", "vz"))
            intr = tuple(np.array([getattr(i, f) for _, i in pairs]) for f in ("z", "vz"))
            previous = current
            current, streak = tracker_step_many(current, streak, ra, t_cpa, own, intr, cfg())
            expected = [ADVISORIES.index(t.step(o, i)[0]) for t, (o, i) in zip(trackers, pairs)]
            assert current.tolist() == expected
            assert streak.tolist() == [t._pending_streak for t in trackers]
            switches += int(np.sum((previous != current) & (previous != 0)))
        assert switches > 0
