import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from caslab import evaluation
from caslab.bayesnet import DiscreteBayesNet, ancestral_sample, ancestral_sample_many
from caslab.core import horizontal_tau_xy, uniforms
from caslab.encounters import (
    CORRELATED,
    UNCORRELATED,
    EncounterModel,
    LikelihoodSupportWarning,
    build_encounter,
    build_encounters,
    default_correlated_model,
    default_structure,
    default_uncorrelated_model,
    model_from_dict,
    model_to_dict,
    read_model_file,
    toy_two_bin_model,
    trace_log_likelihood,
    trace_log_likelihoods,
    write_model_file,
)
from caslab.evaluation import (
    STREAM_ENCOUNTER,
    Equipage,
    _run_chunk,
    cross_entropy_adapt,
    simulate_encounter,
)
from conftest import nominal_tracks, sample_initial, sample_transition

ONE = np.array([[1.0]])


def degenerate_model(mode=CORRELATED, duration=20.0):
    """Point-mass CPTs over zero-width bins: every sample is identical."""
    nodes = ("alt_layer", "own_vrate", "int_vrate", "closure", "tau0")
    parents = ((), (), (), (), ())
    bins = (
        np.array([5000.0, 5000.0]),
        np.array([0.0, 0.0]),
        np.array([0.0, 0.0]),
        np.array([250.0, 250.0]),
        np.array([10.0, 10.0]),
    )
    initial = DiscreteBayesNet(nodes=nodes, parents=parents, bins=bins,
                               cpt=(ONE,) * 5)
    t_nodes = nodes + ("own_vrate_next", "int_vrate_next")
    t_bins = bins + (np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    transition = DiscreteBayesNet(
        nodes=t_nodes, parents=parents + ((1,), (2,)), bins=t_bins, cpt=(ONE,) * 2, given=5
    )
    return EncounterModel(
        initial_net=initial, transition_net=transition, mode=mode,
        duration=duration, dt=1.0,
    )


def drift_model(rows):
    """Default-structure model with a custom rate-transition CPT."""
    base = default_correlated_model()
    transition = dataclasses.replace(base.transition_net, cpt=(rows, rows.copy()))
    return EncounterModel(
        initial_net=base.initial_net, transition_net=transition,
        mode=base.mode, duration=base.duration, dt=base.dt,
    )


class TestModelValidation:
    def test_transition_must_mirror_initial(self):
        base = default_correlated_model()
        bad_nodes = ("own_vrate",) + base.initial_net.nodes[1:]
        bad = DiscreteBayesNet(
            nodes=bad_nodes + ("own_vrate_next",),
            parents=((), (), (), (), (), (0,)),
            bins=base.initial_net.bins[1:2] + base.initial_net.bins[1:] + base.initial_net.bins[1:2],
            given=5,
        )
        with pytest.raises(ValueError, match="must be the initial net's nodes"):
            EncounterModel(
                initial_net=base.initial_net, transition_net=bad,
                mode=CORRELATED, duration=50.0, dt=1.0,
            )

    def test_initial_net_has_no_given_nodes(self):
        # its given columns would never be drawn, and every encounter's
        # altitude would be NaN
        base = default_correlated_model()
        cpt = base.initial_net.cpt[1:]
        given = dataclasses.replace(base.initial_net, given=1, cpt=cpt)
        with pytest.raises(ValueError, match="initial net must draw every node"):
            dataclasses.replace(base, initial_net=given)

    def test_transition_t_slice_must_be_given(self):
        # tau0 (node 4) drawn rather than given: a CPT nothing would read
        base = default_correlated_model()
        drawn = dataclasses.replace(base.transition_net, given=4,
                                    cpt=(np.array([[0.3, 0.4, 0.3]]),) + base.transition_net.cpt)
        with pytest.raises(ValueError, match="must be the initial net's nodes"):
            dataclasses.replace(base, transition_net=drawn)

    def test_duration_must_be_integral_steps(self):
        base = default_correlated_model()
        with pytest.raises(ValueError):
            EncounterModel(
                initial_net=base.initial_net, transition_net=base.transition_net,
                mode=CORRELATED, duration=50.5, dt=1.0,
            )

    def test_unknown_mode_rejected(self):
        base = default_correlated_model()
        with pytest.raises(ValueError):
            EncounterModel(
                initial_net=base.initial_net, transition_net=base.transition_net,
                mode="joint", duration=50.0, dt=1.0,
            )


class TestSampleInitial:
    def test_degenerate_point_mass(self):
        model = degenerate_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            asn = sample_initial(model, rng)
            assert asn.bins.tolist() == [0, 0, 0, 0, 0]
            assert asn.values.tolist() == [5000.0, 0.0, 0.0, 250.0, 10.0]

    def test_unfitted_rejected(self):
        initial_s, transition_s = default_structure()
        model = default_correlated_model()
        unfitted = EncounterModel(
            initial_net=initial_s, transition_net=model.transition_net,
            mode=CORRELATED, duration=50.0, dt=1.0,
        )
        with pytest.raises(ValueError):
            sample_initial(unfitted, np.random.default_rng(0))


class TestSampleTransition:
    def test_identity_cpt_keeps_bins(self):
        model = drift_model(np.eye(5))
        rng = np.random.default_rng(1)
        current = sample_initial(model, rng)
        for _ in range(25):
            nxt = sample_transition(model, current, rng)
            assert nxt.bins.tolist() == current.bins.tolist()
            current = nxt

    def test_zero_mean_drift(self):
        # symmetric sticky CPT over symmetric bins: rate drift averages ~0
        model = default_correlated_model()
        rng = np.random.default_rng(2)
        current = sample_initial(model, rng)
        own_idx = model.initial_net.node_index("own_vrate")
        total = 0.0
        n = 10_000
        for _ in range(n):
            current = sample_transition(model, current, rng)
            total += current.values[own_idx]
        assert abs(total / n) < 2.0  # ft/s, vs bin hull of +-50

    def test_always_climb_monotone_altitude(self):
        rows = np.zeros((5, 5))
        rows[:, 4] = 1.0  # always jump to the strongest climb bin
        model = drift_model(rows)
        enc = build_encounter(model, np.random.default_rng(3))
        _, _, z, _ = nominal_tracks(enc)
        assert np.all(enc.vrate[0, 0, 1:] >= 1000.0 / 60.0)
        assert np.all(np.diff(z[0, 1:]) > 0)


class TestBuildEncounter:
    def test_command_series_length(self):
        model = default_correlated_model(duration=60.0, dt=1.0)
        enc = build_encounter(model, np.random.default_rng(4))
        assert enc.n_steps == 60
        assert enc.vrate.shape == (1, 2, 60)

    def test_degenerate_model_identical_encounters(self):
        model = degenerate_model()
        enc1 = build_encounter(model, np.random.default_rng(5))
        enc2 = build_encounter(model, np.random.default_rng(99))
        np.testing.assert_array_equal(enc1.vrate, enc2.vrate)
        np.testing.assert_array_equal(enc1.int_pos0, enc2.int_pos0)
        assert (trace_log_likelihoods(model, enc1).tolist()
                == trace_log_likelihoods(model, enc2).tolist() == [0.0])

    def test_correlated_geometry_loses_separation_at_tau0(self):
        # degenerate model: closure 250 ft/s, tau0 10 s, threshold 500 ft
        enc = build_encounter(degenerate_model(), np.random.default_rng(6))
        assert enc.int_pos0[0, 0] == pytest.approx(500.0 + 250.0 * 10.0)
        x, y, _, _ = nominal_tracks(enc)
        rng_at = lambda k: math.hypot(x[1, k] - x[0, k], y[1, k] - y[0, k])
        assert rng_at(10) == pytest.approx(500.0)
        assert rng_at(9) > 500.0 and rng_at(11) < 500.0

    def test_same_seed_reproducible(self):
        model = default_correlated_model()
        enc1 = build_encounter(model, np.random.default_rng(7))
        enc2 = build_encounter(model, np.random.default_rng(7))
        np.testing.assert_array_equal(enc1.vrate, enc2.vrate)
        np.testing.assert_array_equal(enc1.transition_rows, enc2.transition_rows)

    def test_own_sample_probability_in_unit_interval(self):
        model = default_correlated_model()
        rng = np.random.default_rng(10)
        for _ in range(25):
            enc = build_encounter(model, rng)
            assert 0.0 < math.exp(trace_log_likelihood(model, enc)) <= 1.0


class TestUncorrelated:
    def test_two_draw_records(self):
        enc = build_encounter(default_uncorrelated_model(), np.random.default_rng(11))
        assert len(enc.initial_bins) == len(enc.transition_rows) == 2

    def test_ownship_unaffected_by_intruder_cpts(self):
        # fixing the rng stream, changing only the intruder-rate CPTs leaves
        # the ownship draws untouched
        base = default_uncorrelated_model()
        skew = np.zeros((5, 5))
        skew[:, 0] = 1.0
        cpt = (base.transition_net.cpt[0], skew)  # int_vrate_next only
        init_cpt = list(base.initial_net.cpt)
        init_cpt[2] = np.array([[0.9, 0.05, 0.03, 0.01, 0.01]] * 3)  # int_vrate prior
        altered = EncounterModel(
            initial_net=DiscreteBayesNet(
                nodes=base.initial_net.nodes, parents=base.initial_net.parents,
                bins=base.initial_net.bins, cpt=tuple(init_cpt),
            ),
            transition_net=dataclasses.replace(base.transition_net, cpt=cpt),
            mode=UNCORRELATED, duration=base.duration, dt=base.dt,
        )
        enc_a = build_encounter(base, np.random.default_rng(12))
        enc_b = build_encounter(altered, np.random.default_rng(12))
        np.testing.assert_array_equal(enc_a.vrate[:, 0], enc_b.vrate[:, 0])
        assert enc_a.speed[0, 0] == enc_b.speed[0, 0]
        assert enc_a.alt0[0, 0] == enc_b.alt0[0, 0]

    def test_placement_minimum_range_within_nmac_radius(self):
        model = default_uncorrelated_model()
        rng = np.random.default_rng(13)
        for _ in range(20):
            enc = build_encounter(model, rng)
            # The ownship starts at the origin on heading 0; the intruder flies heading pi.
            own_speed, int_speed = enc.speed[0].tolist()
            vr = (int_speed * math.cos(math.pi) - own_speed, int_speed * math.sin(math.pi))
            speed = math.hypot(*vr)
            rel0 = enc.int_pos0[0].tolist()
            if speed > 0:
                # perpendicular distance of the relative track from the origin
                min_range = abs(rel0[0] * vr[1] - rel0[1] * vr[0]) / speed
            else:
                min_range = math.hypot(*rel0)
            assert min_range <= 500.0 + 1e-9


MALFORMED_MODEL = default_uncorrelated_model(duration=20.0)


# Each check on an encounter batch: the message it raises, and a call on a
# batch of three uncorrelated 20 s encounters that breaks it.
MALFORMED = {
    # Two draw records per encounter, scored by a model that expects one.
    "record_count": ("draw records", lambda enc: trace_log_likelihoods(
        dataclasses.replace(MALFORMED_MODEL, mode=CORRELATED), enc)),
    "n_steps": ("model duration", lambda enc: trace_log_likelihoods(
        default_uncorrelated_model(duration=30.0), enc)),
    "row_shape": ("transition rows", lambda enc: trace_log_likelihoods(
        MALFORMED_MODEL, dataclasses.replace(enc, transition_rows=enc.transition_rows[..., :-1]))),
    # The scalar scorer and the lone simulator take a batch of one.
    "scalar_score": ("batch of one", lambda enc: trace_log_likelihood(MALFORMED_MODEL, enc)),
    "lone_flight": ("simulation stream", lambda enc: simulate_encounter(
        enc, Equipage(), np.random.default_rng(0))),
}


class TestLikelihood:
    def test_deterministic_model_zero(self):
        model = degenerate_model()
        enc = build_encounter(model, np.random.default_rng(14))
        assert trace_log_likelihood(model, enc) == 0.0

    def test_zero_probability_bin_flagged(self):
        p_small = toy_two_bin_model(p_conflict=0.5)
        # force an encounter whose tau0 bin has probability 0 under a
        # point-mass variant of the same structure
        zero = toy_two_bin_model(p_conflict=1e-12)
        cpt = list(zero.initial_net.cpt)
        cpt[4] = np.array([[0.0, 1.0]])
        hard_zero = EncounterModel(
            initial_net=DiscreteBayesNet(
                nodes=zero.initial_net.nodes, parents=zero.initial_net.parents,
                bins=zero.initial_net.bins, cpt=tuple(cpt),
            ),
            transition_net=zero.transition_net,
            mode=zero.mode, duration=zero.duration, dt=zero.dt,
        )
        rng = np.random.default_rng(0)
        enc = None
        for _ in range(200):
            cand = build_encounter(p_small, rng)
            if cand.initial_bins[0, 0, 4] == 0:
                enc = cand
                break
        assert enc is not None
        with pytest.warns(LikelihoodSupportWarning):
            assert trace_log_likelihood(hard_zero, enc) == -math.inf

    def test_dimension_mismatch_rejected(self):
        enc = build_encounter(degenerate_model(), np.random.default_rng(15))
        assert len(enc) == 1
        other = degenerate_model(duration=30.0)
        with pytest.raises(ValueError, match="model duration"):
            trace_log_likelihood(other, enc)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_encounter_rejected(self, case):
        match, call = MALFORMED[case]
        enc = build_encounters(MALFORMED_MODEL, seeded_block(MALFORMED_MODEL, range(3), seed=15))
        with pytest.raises(ValueError, match=match):
            call(enc)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = default_correlated_model()
        path = tmp_path / "model.json"
        write_model_file(model, path)
        back = read_model_file(path)
        assert back.mode == model.mode
        assert back.duration == model.duration
        assert back.initial_net.nodes == model.initial_net.nodes
        assert (back.initial_net.given, back.transition_net.given) == (0, 5)
        for a, b in zip(back.initial_net.cpt + back.transition_net.cpt,
                        model.initial_net.cpt + model.transition_net.cpt):
            np.testing.assert_array_equal(a, b)
        # sampling from the round-tripped model reproduces the original
        enc_a = build_encounter(model, np.random.default_rng(16))
        enc_b = build_encounter(back, np.random.default_rng(16))
        np.testing.assert_array_equal(enc_a.vrate, enc_b.vrate)

    def test_schema_version_checked(self):
        d = model_to_dict(default_correlated_model())
        d["schema_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(d)


# sha256 over every field of encounters 0..199 built from the encounter
# stream's uniforms at seed 11, recorded when counter-based uniforms
# replaced one generator per encounter.  A change here changes every
# seeded result.
PINNED_DIGESTS = {
    "ce_proposal": "e1776ead5da5252e323f0d76a248ea0f45641f7e685ddd7beac72062d20b5a49",
    "correlated": "55b4ffa0240910e091cd35fdd2f391257b732b595ea2e65ea655107facba1b4d",
    "toy": "49f5ae3c646777363e67ff297bce3ea1135f34bdeee4978d1840510593d2e843",
    "uncorrelated": "17d7bf064db0b25269f7b7cd27a498fa96fdda1197c9a41d421022a5953a1e30",
    "uncorrelated_dt05": "38be054091d5151e1a6196b59bb58793c03fbbf9269336262d068e33e40539e1",
    "uncorrelated_dt2": "1f684a9bd50b417fb8b65094ff2ee2a3b8cdff6ec87a493cfd7a04a85bf60df4",
}


def ce_proposal(make=default_uncorrelated_model):
    nominal = make()
    return cross_entropy_adapt(
        nominal, nominal, Equipage(own="tcas", intruder="none"), 2, 150, 0.3, seed=1
    )


# sha256 of the sorted-key JSON of model_to_dict(ce_proposal(make)): the CE
# refit itself, for one draw record per encounter (correlated) and for two
# (uncorrelated).  Re-pinned when model files went to schema 2 and the
# transition net's t slice lost its CPTs, and again, with every seeded
# digest, when counter-based uniforms replaced the per-encounter generators,
# and again when the TCAS pilot began to comply at a per-step draw.
PINNED_CE_DIGESTS = {
    "correlated": "28b2a832cbd3bfb322115498f8a062dcfae31e7f0ddf093dea734f432c103531",
    "uncorrelated": "7a76edec850d4c879b7fffbbc889d0d12a16817dec7e437e6cc7cb2b73bed7bf",
}

# sha256 of the float64 bytes of ce_proposal(make)'s own_vrate_next and
# int_vrate_next CPTs, the only CPTs the transition net refits; recorded
# with counter-based uniforms and the per-step pilot-response draw.
PINNED_CE_NEXT_CPT_DIGESTS = {
    "correlated": "97b802ea59d9f4258fb8caf67336a9f7b17baeb1ade02b0be44aaa1b420bbe5c",
    "uncorrelated": "fd60c981ccb1261c8a1c989c683a4138dc29664e9c3fe4c9a5a0b65ffab17e12",
}


PINNED_MODELS = {
    "correlated": default_correlated_model,
    "uncorrelated": default_uncorrelated_model,
    "toy": toy_two_bin_model,
    "uncorrelated_dt05": lambda: default_uncorrelated_model(dt=0.5),
    "uncorrelated_dt2": lambda: default_uncorrelated_model(dt=2.0),
    "ce_proposal": ce_proposal,
}


def encounter_digest(model, batches):
    """sha256 over each encounter of each batch of model in turn.

    Each encounter feeds the bytes one record per encounter gave: the
    ownship's start (0, 0) and heading 0 and the intruder's heading pi are
    the fixed frame, the mode is named by the number of draw records, and
    the log-likelihood is the sampling model's; the batch stores none of
    them.
    """
    h = hashlib.sha256()
    for enc in batches:
        log_probability = trace_log_likelihoods(model, enc)
        for b in range(len(enc)):
            h.update((CORRELATED if len(enc.initial_bins) == 1 else UNCORRELATED).encode())
            h.update(np.array([enc.dt, enc.n_steps], dtype=np.float64).tobytes())
            h.update(np.asarray(enc.vrate[b], dtype=np.float64).tobytes())
            h.update(np.array([*enc.speed[b], 0.0, 0.0, *enc.int_pos0[b], 0.0, math.pi,
                               *enc.alt0[b], log_probability[b]], dtype=np.float64).tobytes())
            for r in range(len(enc.initial_bins)):
                h.update(np.asarray(enc.initial_bins[r, b], dtype=np.int64).tobytes())
                h.update(np.asarray(enc.transition_rows[r, b], dtype=np.int64).tobytes())
    return h.hexdigest()


def seeded_block(model, indices, seed=11):
    """The encounter stream's uniforms for these indices, as evaluate draws them."""
    return uniforms(seed, STREAM_ENCOUNTER, indices, model.uniforms_per_encounter)


def build_in_chunks(model, n, size):
    return [build_encounters(model, seeded_block(model, range(start, min(start + size, n))))
            for start in range(0, n, size)]


class TestBatchedSampler:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_seed_to_encounter_map_pinned(self, name):
        model = PINNED_MODELS[name]()
        enc = build_encounters(model, seeded_block(model, range(200)))
        assert encounter_digest(model, [enc]) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CE_DIGESTS))
    def test_ce_refit_pinned(self, name):
        model = ce_proposal(PINNED_MODELS[name])
        text = json.dumps(model_to_dict(model), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CE_NEXT_CPT_DIGESTS))
    def test_ce_refits_only_the_next_slice(self, name):
        net = ce_proposal(PINNED_MODELS[name]).transition_net
        assert net.nodes[net.given:] == ("own_vrate_next", "int_vrate_next")
        assert len(net.cpt) == 2
        h = hashlib.sha256()
        for table in net.cpt:
            h.update(np.ascontiguousarray(table, dtype=np.float64).tobytes())
        assert h.hexdigest() == PINNED_CE_NEXT_CPT_DIGESTS[name]

    @pytest.mark.parametrize("make", [default_correlated_model, default_uncorrelated_model,
                                      toy_two_bin_model])
    def test_chunk_invariance(self, make):
        model = make()
        # More encounters than one chunk of CHUNK_ENCOUNTERS (256).
        digests = {size: encounter_digest(model, build_in_chunks(model, 260, size))
                   for size in (1, 64, 256)}
        assert len(set(digests.values())) == 1

    @pytest.mark.parametrize("make", [default_correlated_model, toy_two_bin_model])
    def test_initial_net_matches_ancestral_sample(self, make):
        net = make().initial_net
        n = len(net.nodes)
        for seed in range(20):
            asn = ancestral_sample(net, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random((1, 2 * n))
            cursor = np.zeros(1, dtype=int)
            bins = np.zeros((1, n), dtype=int)
            values = np.full((1, n), np.nan)
            ancestral_sample_many(net, u, cursor, bins, values)
            assert bins[0].tolist() == asn.bins.tolist()
            assert values[0].tolist() == asn.values.tolist()

    @pytest.mark.parametrize("make", [default_correlated_model, toy_two_bin_model])
    def test_trajectory_matches_scalar_chain(self, make):
        model = make()
        own, intr = model.initial_net.node_index("own_vrate"), model.initial_net.node_index("int_vrate")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            enc = build_encounter(model, rng)
            ref = np.random.default_rng(seed)
            current = sample_initial(model, ref)
            assert enc.initial_bins[0, 0].tolist() == current.bins.tolist()
            rates = [(current.values[own], current.values[intr])]
            for _ in range(model.n_steps - 1):
                current = sample_transition(model, current, ref)
                rates.append((current.values[own], current.values[intr]))
            assert list(zip(*enc.vrate[0].tolist())) == rates

    @pytest.mark.parametrize("name", sorted(PINNED_MODELS))
    def test_batched_likelihoods_are_trace_log_likelihood(self, name):
        model = PINNED_MODELS[name]()
        # trace_log_likelihood scores chunks of one, which test_chunk_invariance
        # ties to the chunk of 40.
        lone = [build_encounters(model, seeded_block(model, [i], seed=5)) for i in range(40)]
        scalar = [trace_log_likelihood(model, e) for e in lone]
        assert [trace_log_likelihoods(model, e)[0] for e in lone] == scalar
        enc = build_encounters(model, seeded_block(model, range(40), seed=5))
        assert trace_log_likelihoods(model, enc).tolist() == scalar

    def test_chunk_log_weights_match_scalar(self):
        nominal = default_uncorrelated_model()
        hard_zero = hard_zero_toy()
        for proposal, nom, n in ((ce_proposal(), nominal, 200),
                                 (toy_two_bin_model(p_conflict=0.5), hard_zero, 40)):
            log_weight = _run_chunk(proposal, [Equipage()], 3, range(n), nominal=nom)[0]["log_weight"]
            lone = [build_encounters(proposal, seeded_block(proposal, [i], seed=3)) for i in range(n)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LikelihoodSupportWarning)
                expected = [trace_log_likelihood(nom, e) - trace_log_likelihood(proposal, e)
                            for e in lone]
            assert log_weight.tolist() == expected
            assert -math.inf in expected

    def test_log_weight_needs_a_finite_sample_likelihood(self, monkeypatch):
        # A draw its sampling model gives probability 0 would take an
        # infinite IS weight.  The sampler never makes one, so the chunk is
        # drawn from a model that puts mass where the sampling model has none.
        half = toy_two_bin_model(p_conflict=0.5)
        monkeypatch.setattr(evaluation, "build_encounters",
                            lambda model, u: build_encounters(half, u))
        with pytest.raises(ValueError, match="sample log-probability must be finite"):
            _run_chunk(hard_zero_toy(), [Equipage()], 3, range(40), nominal=half)

    @pytest.mark.parametrize("duration,dt", [(50.0, 0.5), (50.0, 1.0), (50.0, 2.0), (80.0, 40.0)])
    @pytest.mark.parametrize("make", [default_uncorrelated_model, toy_two_bin_model])
    def test_placement_reaches_separation_within_a_step(self, make, duration, dt):
        # The relative track passes within 500 ft at t_star, so at the last
        # step before t_star the pair is less than one step from losing
        # separation.  A placement with tau <= 40 s at some step was never
        # re-drawn, so up to dt = 40 s placement never needed a retry.
        model = dataclasses.replace(make(duration=duration, dt=dt), mode=UNCORRELATED)
        enc = build_encounters(model, seeded_block(model, range(200), seed=21))
        for (own_speed, int_speed), (x0, y0) in zip(enc.speed.tolist(), enc.int_pos0.tolist()):
            vr = (-int_speed - own_speed, 0.0)
            taus = [
                horizontal_tau_xy((x0 + vr[0] * k * dt, y0 + vr[1] * k * dt), vr, 500.0)
                for k in range(enc.n_steps + 1)
            ]
            assert min(t for t in taus if t is not None) <= dt + 1e-9

    @pytest.mark.parametrize("shape", [(2, 205), (2, 207), (206,)])
    def test_block_of_the_wrong_shape_rejected(self, shape):
        # The correlated model reads 206 uniforms per encounter.
        model = default_correlated_model()
        assert model.uniforms_per_encounter == 206
        with pytest.raises(ValueError, match=r"\(B, 206\) block of uniforms"):
            build_encounters(model, np.full(shape, 0.5))

    def test_wide_bin_index_kept_in_draw_records(self):
        # 300 altitude bins, all mass on the last: its index needs 9 bits.
        base, n = degenerate_model(), 300
        last = np.zeros((1, n))
        last[0, -1] = 1.0

        def widen(net, **cpt):
            return dataclasses.replace(net, bins=(np.linspace(0.0, 30000.0, n + 1),) + net.bins[1:],
                                       **cpt)

        # The transition net's altitude is given, so only the initial net draws it.
        model = dataclasses.replace(
            base, initial_net=widen(base.initial_net, cpt=(last,) + base.initial_net.cpt[1:]),
            transition_net=widen(base.transition_net))
        enc = build_encounter(model, np.random.default_rng(16))
        assert enc.initial_bins[0, 0, 0] == n - 1
        assert np.all(enc.transition_rows[..., 0] == n - 1)
        assert trace_log_likelihoods(model, enc).tolist() == [0.0]


def hard_zero_toy():
    """The toy model with tau0's first bin at probability 0."""
    toy = toy_two_bin_model(p_conflict=1e-12)
    cpt = list(toy.initial_net.cpt)
    cpt[4] = np.array([[0.0, 1.0]])
    return dataclasses.replace(
        toy, initial_net=dataclasses.replace(toy.initial_net, cpt=tuple(cpt))
    )
