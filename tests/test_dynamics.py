import math

import numpy as np
import pytest

from caslab.core import ADVISORIES, Advisory
from caslab.dynamics import (
    IntruderModel,
    PilotModel,
    project_template,
    project_template_many,
    sample_response_delay,
    step_complying_many,
    step_vertical,
)


def pilot(p=1.0, accel=8.0, delay=5.0):
    return PilotModel(response_probability=p, acceleration=accel, deterministic_delay=delay)


class TestStepVertical:
    def test_rate_inside_band_unchanged(self):
        z, vz = step_vertical(100.0, -30.0, Advisory.DES1500, True, pilot(), 1.0)
        assert vz == -30.0
        assert z == pytest.approx(100.0 - 30.0)

    def test_constant_acceleration_toward_band(self):
        # DES1500 band edge is -25 ft/s; from level, one second at 8 ft/s^2
        z, vz = step_vertical(0.0, 0.0, Advisory.DES1500, True, pilot(), 1.0)
        assert vz == -8.0
        assert z == pytest.approx(-4.0)  # trapezoidal mean of (0, -8)

    def test_exact_saturation_at_band_edge(self):
        _, vz = step_vertical(0.0, -24.0, Advisory.DES1500, True, pilot(), 1.0)
        assert vz == -25.0

    def test_not_complying_holds_rate(self):
        z, vz = step_vertical(50.0, 10.0, Advisory.DES2500, False, pilot(), 1.0)
        assert vz == 10.0
        assert z == pytest.approx(60.0)

    def test_no_band_holds_rate(self):
        z, vz = step_vertical(0.0, 7.0, None, True, pilot(), 2.0)
        assert vz == 7.0
        assert z == pytest.approx(14.0)
        z2, vz2 = step_vertical(0.0, 7.0, Advisory.COC, True, pilot(), 2.0)
        assert (z2, vz2) == (z, vz)

    def test_up_sense_band(self):
        _, vz = step_vertical(0.0, 20.0, Advisory.CL1500, True, pilot(), 1.0)
        assert vz == 25.0  # saturates exactly at +1500 fpm
        _, vz = step_vertical(0.0, 30.0, Advisory.CL1500, True, pilot(), 1.0)
        assert vz == 30.0  # already inside band

    def test_linear_altitude_without_band(self):
        # no acceleration source: altitude is exactly linear in time
        z, vz = 0.0, 12.5
        for _ in range(10):
            z, vz = step_vertical(z, vz, None, False, pilot(), 1.0)
        assert z == pytest.approx(125.0, abs=1e-12)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step_vertical(0.0, 0.0, None, False, pilot(), 0.0)

    def test_array_form_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(4)
        bands = [a for a in ADVISORIES if a is not Advisory.COC]
        band = [bands[i] for i in rng.integers(0, len(bands), 400)]
        rates = rng.uniform(-60.0, 60.0, 400).tolist()
        # rates on each band edge and exactly one acceleration step from it
        for a in bands:
            for offset in (-8.0, -4.0, 0.0, 4.0, 8.0):
                band.append(a)
                rates.append(a.target_rate_fps + offset)
        vz = np.array(rates)
        z = rng.uniform(-5000.0, 5000.0, vz.size)
        for dt in (1.0, 0.5):
            zn, vzn = step_complying_many(
                z, vz, np.array([a.target_rate_fps for a in band]),
                np.array([a.sense for a in band]), pilot(), dt,
            )
            expected = [step_vertical(a, b, c, True, pilot(), dt)
                        for a, b, c in zip(z.tolist(), vz.tolist(), band)]
            assert zn.tolist() == [e[0] for e in expected]
            assert vzn.tolist() == [e[1] for e in expected]

    def test_scalar_target_and_sense_match_arrays(self):
        # the DP passes one advisory's band edge and sense as scalars
        vz = np.random.default_rng(5).uniform(-60.0, 60.0, 200)
        z = np.zeros_like(vz)
        for a in ADVISORIES:
            if a is Advisory.COC:
                continue
            zs, vzs = step_complying_many(z, vz, a.target_rate_fps, a.sense, pilot(), 1.0)
            za, vza = step_complying_many(
                z, vz, np.full(vz.size, a.target_rate_fps), np.full(vz.size, a.sense), pilot(), 1.0,
            )
            assert zs.tolist() == za.tolist() and vzs.tolist() == vza.tolist()


class TestSampleResponseDelay:
    def test_p_one_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample_response_delay(pilot(p=1.0), rng) == 0 for _ in range(100))

    def test_mean_matches_geometric(self):
        # mean of Geometric(p) on {0,1,...} is (1-p)/p = 4 for p = 0.2
        rng = np.random.default_rng(1)
        draws = [sample_response_delay(pilot(p=0.2), rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 4.0) <= 0.1

    def test_mass_at_zero(self):
        rng = np.random.default_rng(2)
        draws = [sample_response_delay(pilot(p=0.5), rng) for _ in range(100_000)]
        assert abs(np.mean([d == 0 for d in draws]) - 0.5) <= 0.01


    def test_delay_keeps_its_draw_down_to_the_smallest_representable_p(self):
        # At p = 2^-53, 1 - p is still below 1: the inverse CDF applies as is.
        p = 2.0**-53
        u = np.random.default_rng(3).random()
        expected = math.floor(math.log(u) / math.log(1.0 - p))
        assert sample_response_delay(pilot(p=p), np.random.default_rng(3)) == expected

    @pytest.mark.parametrize("p", [1e-17, 2.0**-54, 5e-324])
    def test_pilot_whose_one_minus_p_rounds_to_one_never_complies(self, p):
        # log(1 - p) is 0 there; the delay passes every draw at a larger p
        # and still fits an int64 step index.
        delay = sample_response_delay(pilot(p=p), np.random.default_rng(4))
        assert 6.3e18 < delay < np.iinfo(np.int64).max - 2**40


class TestProjectTemplate:
    def test_coc_is_constant_velocity_gap(self):
        sep = project_template((0.0, 5.0), (300.0, -5.0), Advisory.COC, pilot(), 20.0)
        assert sep == pytest.approx(abs((300.0 - 5.0 * 20.0) - 5.0 * 20.0))

    def test_horizon_within_delay_is_constant_velocity(self):
        sep = project_template((0.0, 0.0), (200.0, 0.0), Advisory.DES2500, pilot(delay=5.0), 4.0)
        assert sep == pytest.approx(200.0)

    def test_stronger_descend_separates_at_least_as_much(self):
        # direct-projection monotonicity oracle for the template pair
        for h0 in (100.0, 300.0, 600.0):
            for vz0 in (-10.0, 0.0, 10.0):
                weak = project_template((0.0, vz0), (h0, 0.0), Advisory.DES1500, pilot(), 30.0)
                strong = project_template((0.0, vz0), (h0, 0.0), Advisory.DES2500, pilot(), 30.0)
                assert strong >= weak - 1e-9

    def test_strength_monotone_away_from_intruder(self):
        # separation is non-decreasing in target-rate magnitude whenever the
        # sense points away from the intruder (no altitude crossing possible)
        rng = np.random.default_rng(9)
        for _ in range(200):
            own = (0.0, rng.uniform(-20.0, 20.0))
            # gap beyond the ownship's maximum toward-intruder drift under the
            # weakest advisory, so the pair can never cross altitudes
            gap = rng.uniform(200.0, 800.0)
            horizon = rng.uniform(6.0, 40.0)
            intr_above = (gap, rng.uniform(0.0, 10.0))
            downs = [
                project_template(own, intr_above, a, pilot(), horizon)
                for a in (Advisory.DNC, Advisory.DES1500, Advisory.DES2500)
            ]
            assert downs[0] <= downs[1] + 1e-9 <= downs[2] + 2e-9
            intr_below = (-gap, rng.uniform(-10.0, 0.0))
            ups = [
                project_template(own, intr_below, a, pilot(), horizon)
                for a in (Advisory.DND, Advisory.CL1500, Advisory.CL2500)
            ]
            assert ups[0] <= ups[1] + 1e-9 <= ups[2] + 2e-9

    @pytest.mark.parametrize("horizon", [-1.0, math.nan])
    def test_negative_horizon_rejected(self, horizon):
        with pytest.raises(ValueError):
            project_template((0.0, 0.0), (100.0, 0.0), Advisory.COC, pilot(), horizon)

    @pytest.mark.parametrize("model", [pilot(), PilotModel()])
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_closed_form_matches_stepped_scalar(self, model, dt):
        # Horizons: zero, inside the 5 s delay, exactly at it, past it by less
        # than the scalar's 1e-12 loop guard, whole, with a final partial
        # step, just under 25 s, and two long ones (a config may raise
        # tcas.ra_tau); then the same set shuffled, with repeats.
        horizons = [0.0, 2.5, 5.0, 5.0 + 1e-13, 17.0, 17.3, 24.999, 61.7, 140.0]
        horizons += np.random.default_rng(3).permutation(horizons + horizons[3:6]).tolist()
        # Rates inside and outside every band, on each edge, and less than
        # one acceleration step from it.
        offsets = (-30.0, -3.0, 0.0, 3.0, 30.0)
        rates = sorted({a.target_rate_fps + d for a in ADVISORIES[1:] for d in offsets})
        rows = [(h, r) for h in horizons for r in rates]
        rng = np.random.default_rng(7)
        z0 = rng.uniform(-600.0, 600.0, len(rows))
        z1, vz1 = rng.uniform(-600.0, 600.0, len(rows)), rng.uniform(-40.0, 40.0, len(rows))
        horizon, vz0 = (np.array(c) for c in zip(*rows))
        got = project_template_many((z0, vz0), (z1, vz1), ADVISORIES, model, horizon, dt)
        columns = (c.tolist() for c in (z0, vz0, z1, vz1, horizon))
        expected = np.array([
            [project_template((a, b), (c, d), adv, model, h, dt) for adv in ADVISORIES]
            for a, b, c, d, h in zip(*columns)
        ])
        # The closed form sums in another order than the stepped scalar; its
        # worst deviation on these rows is ~2e-11 ft.
        assert np.abs(got - expected).max() <= 1e-9
        # A horizon inside the delay takes no step, and then no rounding differs.
        inside = horizon <= model.deterministic_delay
        assert inside.any() and got[inside].tolist() == expected[inside].tolist()

    @pytest.mark.parametrize("horizon", [-1.0, math.nan])
    def test_many_rejects_negative_horizon(self, horizon):
        with pytest.raises(ValueError):
            project_template_many(([0.0], [0.0]), ([100.0], [0.0]), ADVISORIES, pilot(), [horizon])


class TestModelValidation:
    def test_pilot_probability_bounds(self):
        with pytest.raises(ValueError):
            PilotModel(response_probability=0.0)
        with pytest.raises(ValueError):
            PilotModel(response_probability=1.5)

    def test_intruder_sigma_nonnegative(self):
        with pytest.raises(ValueError):
            IntruderModel(sigma_accel=-1.0)
        IntruderModel(sigma_accel=0.0)
