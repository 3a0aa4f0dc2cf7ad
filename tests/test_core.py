import copy
import pickle

import numpy as np
import pytest

from caslab.core import (
    ADVISORIES,
    COC_INDEX,
    DOWN,
    DOWN_ADVISORIES,
    EVENT_BIT,
    EVENT_NMAC,
    EVENT_RA,
    MIRROR_INDEX,
    SENSES,
    TARGETS_FPS,
    UP,
    UP_ADVISORIES,
    Advisory,
    BeliefState,
    Trace,
    VerticalState,
    horizontal_tau_xy,
    is_reversal,
    is_strengthening,
    write_trace_csv,
)
from caslab.evaluation import OUTCOME


# Each advisory's (value, sense, strength, target_rate_fpm, target_rate_fps,
# mirror), in axis order.
ADVISORY_ROWS = {
    Advisory.COC: ("COC", 0, -1, None, None, Advisory.COC),
    Advisory.DNC: ("DNC", -1, 0, 0.0, 0.0, Advisory.DND),
    Advisory.DND: ("DND", 1, 0, 0.0, 0.0, Advisory.DNC),
    Advisory.DES1500: ("DES1500", -1, 1, -1500.0, -25.0, Advisory.CL1500),
    Advisory.CL1500: ("CL1500", 1, 1, 1500.0, 25.0, Advisory.DES1500),
    Advisory.DES2500: ("DES2500", -1, 2, -2500.0, -41.666666666666664, Advisory.CL2500),
    Advisory.CL2500: ("CL2500", 1, 2, 2500.0, 41.666666666666664, Advisory.DES2500),
}


class TestAdvisory:
    @pytest.mark.parametrize("member", ADVISORY_ROWS, ids=lambda a: a.value)
    def test_row(self, member):
        assert ADVISORIES == tuple(ADVISORY_ROWS)
        assert (member.value, member.sense, member.strength, member.target_rate_fpm,
                member.target_rate_fps, member.mirror) == ADVISORY_ROWS[member]
        # The --workers pool pickles advisories; each must come back as itself.
        assert Advisory(member.value) is member
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member
        i = ADVISORIES.index(member)
        assert SENSES[i] == member.sense
        assert TARGETS_FPS[i] == (0.0 if member is Advisory.COC else member.target_rate_fps)
        assert ADVISORIES[MIRROR_INDEX[i]] is member.mirror
        assert UP_ADVISORIES == (Advisory.DND, Advisory.CL1500, Advisory.CL2500)
        assert DOWN_ADVISORIES == (Advisory.DNC, Advisory.DES1500, Advisory.DES2500)
        assert (member in UP_ADVISORIES) == (member.sense == UP)
        assert (member in DOWN_ADVISORIES) == (member.sense == DOWN)
        for array in (SENSES, TARGETS_FPS, MIRROR_INDEX):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[i] = 0

    def test_exactly_one_coc(self):
        assert sum(a is Advisory.COC for a in ADVISORIES) == 1

    def test_senses(self):
        assert {a for a in ADVISORIES if a.sense > 0} == {
            Advisory.DND, Advisory.CL1500, Advisory.CL2500
        }
        assert {a for a in ADVISORIES if a.sense < 0} == {
            Advisory.DNC, Advisory.DES1500, Advisory.DES2500
        }

    def test_strength_order_within_sense(self):
        assert Advisory.DNC.strength < Advisory.DES1500.strength < Advisory.DES2500.strength
        assert Advisory.DND.strength < Advisory.CL1500.strength < Advisory.CL2500.strength

    def test_rate_bands_fpm(self):
        assert Advisory.COC.target_rate_fpm is None
        assert Advisory.DES1500.target_rate_fpm == -1500.0
        assert Advisory.CL2500.target_rate_fpm == 2500.0
        assert Advisory.DNC.target_rate_fpm == 0.0

    def test_strengthen_and_reversal_predicates(self):
        assert is_strengthening(Advisory.CL1500, Advisory.CL2500)
        assert is_strengthening(Advisory.DND, Advisory.CL1500)
        assert not is_strengthening(Advisory.CL2500, Advisory.CL1500)
        assert not is_strengthening(Advisory.COC, Advisory.CL1500)
        assert is_reversal(Advisory.CL1500, Advisory.DES1500)
        assert not is_reversal(Advisory.COC, Advisory.DES1500)
        assert not is_reversal(Advisory.DES1500, Advisory.COC)


class TestHorizontalTau:
    def test_head_on_threshold_zero(self):
        assert horizontal_tau_xy((1000.0, 0.0), (-100.0, 0.0), 0.0) == pytest.approx(10.0, abs=1e-12)

    def test_diverging_is_none(self):
        assert horizontal_tau_xy((1000.0, 0.0), (100.0, 0.0), 500.0) is None

    def test_already_inside_is_zero(self):
        assert horizontal_tau_xy((300.0, 0.0), (-100.0, 0.0), 500.0) == 0.0

    def test_zero_closure_is_none(self):
        assert horizontal_tau_xy((1000.0, 0.0), (0.0, 0.0), 500.0) is None

    def test_translation_invariance(self):
        # translating both aircraft by a common offset leaves tau unchanged
        rng = np.random.default_rng(3)
        for _ in range(200):
            own_p = rng.uniform(-5000, 5000, 2)
            intr_p = rng.uniform(-5000, 5000, 2)
            rel_v = tuple(rng.uniform(-300, 300, 2) - rng.uniform(-300, 300, 2))
            shift = rng.uniform(-10000, 10000, 2)
            t1 = horizontal_tau_xy(tuple(intr_p - own_p), rel_v, 500.0)
            t2 = horizontal_tau_xy(tuple((intr_p + shift) - (own_p + shift)), rel_v, 500.0)
            assert (t1 is None) == (t2 is None)
            if t1 is not None:
                assert t1 == pytest.approx(t2, abs=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.uniform(-5000, 5000, 2)
            v = rng.uniform(-300, 300, 2)
            t1 = horizontal_tau_xy(tuple(p), tuple(v), 400.0)
            t2 = horizontal_tau_xy(tuple(2 * p), tuple(2 * v), 800.0)
            assert (t1 is None) == (t2 is None)
            if t1 is not None:
                assert t1 == pytest.approx(t2, rel=1e-9, abs=1e-9)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            horizontal_tau_xy((1000.0, 0.0), (-100.0, 0.0), -1.0)


def level_pair_trace(h=250.0, n=10):
    """A Trace of one encounter: a level intruder h ft above closes head-on at 100 ft/s from 5000 ft."""
    t = np.arange(n + 1, dtype=float)
    zeros = np.zeros((1, 2, n + 1))
    return Trace(
        outcome=np.zeros(1, OUTCOME),
        x=np.stack([0.0 * t, 5000.0 - 100.0 * t])[None],
        y=zeros,
        z=np.stack([0.0 * t, h + 0.0 * t])[None],
        vz=zeros,
        vel=np.array([[[0.0, 0.0], [-100.0, 0.0]]]),
        adv=np.full((1, n + 1, 2), COC_INDEX, dtype=np.int8),
        events=np.zeros((1, n + 1), dtype=np.uint8),
        dt=1.0,
    )


class TestBeliefState:
    def test_weights_must_normalize(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 10.0)
        with pytest.raises(ValueError):
            BeliefState(particles=((s, 0.5), (s, 0.4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BeliefState(particles=())

    def test_negative_weight_rejected(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 10.0)
        with pytest.raises(ValueError):
            BeliefState(particles=((s, 1.5), (s, -0.5)))

    def test_uniform_weights_pass(self):
        s = VerticalState(0.0, 0.0, 0.0, Advisory.COC, 10.0)
        BeliefState(particles=tuple((s, 1.0 / 7.0) for _ in range(7)))


class TestVerticalState:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            VerticalState(0.0, 0.0, 0.0, Advisory.COC, -1.0)


class TestTraceCsv:
    # Every cell of the files sample and simulate write is checked against
    # the record in tests/test_cli.py::TestFitAndSample.

    def test_header_and_dt_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(level_pair_trace(), 0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# dt=1.0"
        assert lines[1].startswith("t,x0,y0,z0,")
        assert len(lines) == 2 + 11

    def test_row_from_a_hand_record(self, tmp_path):
        trace = level_pair_trace()
        trace.adv[0, 3, 0] = ADVISORIES.index(Advisory.DES1500)
        trace.events[0, 3] = EVENT_BIT[EVENT_RA] | EVENT_BIT[EVENT_NMAC]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, 0, path)
        assert path.read_text().splitlines()[5] == (
            "3.0,0.0,0.0,0.0,0.0,0.0,0.0,4700.0,0.0,250.0,-100.0,0.0,0.0,DES1500,COC,NMAC|RA"
        )

    @pytest.mark.parametrize("field, index", [("z", (0, 1, 4)), ("vel", (0, 0, 1))])
    def test_non_finite_kinematics_refused(self, field, index, tmp_path):
        trace = level_pair_trace()
        getattr(trace, field)[index] = np.nan
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_trace_csv(trace, 0, path)
        assert not path.exists()
