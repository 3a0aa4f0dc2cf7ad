import dataclasses
import math

import numpy as np
import pytest

from caslab.bayesnet import (
    DiscreteBayesNet,
    ancestral_sample,
    fit_cpts,
    log_prob_bins,
    net_from_dict,
    net_to_dict,
)


def single_node(n_bins=2):
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return DiscreteBayesNet(nodes=("x",), parents=((),), bins=(edges,))


def chain_net():
    """x -> y, two bins each."""
    return DiscreteBayesNet(
        nodes=("x", "y"),
        parents=((), (0,)),
        bins=(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])),
    )


def three_node_net():
    """x -> y, (x, y) -> z with known CPTs."""
    return DiscreteBayesNet(
        nodes=("x", "y", "z"),
        parents=((), (0,), (0, 1)),
        bins=(
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 1.0, 2.0]),
        ),
        cpt=(
            np.array([[0.5, 0.3, 0.2]]),
            np.array([[0.9, 0.1], [0.4, 0.6], [0.2, 0.8]]),
            np.array(
                [[0.7, 0.3], [0.5, 0.5], [0.25, 0.75], [0.1, 0.9], [0.6, 0.4], [0.35, 0.65]]
            ),
        ),
    )


def given_prefix_net():
    """three_node_net's z, with x and y given: z's CPT is the only one."""
    net = three_node_net()
    return DiscreteBayesNet(nodes=net.nodes, parents=((), (), (0, 1)), bins=net.bins,
                            cpt=net.cpt[2:], given=2)


class TestStructureValidation:
    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(
                nodes=("a", "b"),
                parents=((1,), ()),
                bins=(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            )

    @pytest.mark.parametrize("nodes, parents, match", [
        # A model file's JSON can hold any type where a name or index
        # stands; each once surfaced a raw AttributeError or broadcast error.
        (("a", {"b": 1}), ((), (0,)), "node names must be strings"),
        (("a", None), ((), (0,)), "node names must be strings"),
        (("a", "b"), ((), (False,)), "parents must precede children in node order, got False for b"),
        (("a", "b"), ((), (0.0,)), "parents must precede children in node order, got 0.0 for b"),
    ])
    def test_names_and_parent_indices_typed(self, nodes, parents, match):
        with pytest.raises(ValueError, match=match):
            DiscreteBayesNet(nodes=nodes, parents=parents,
                             bins=(np.array([0.0, 1.0]), np.array([0.0, 1.0])))

    def test_cpt_rows_must_normalize(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(
                nodes=("a",),
                parents=((),),
                bins=(np.array([0.0, 0.5, 1.0]),),
                cpt=(np.array([[0.6, 0.6]]),),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cpt_entries_must_be_finite(self, bad):
        # NaN fails both the sign and the row-sum test, so it needs its own
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteBayesNet(
                nodes=("a",),
                parents=((),),
                bins=(np.array([0.0, 0.5, 1.0]),),
                cpt=(np.array([[bad, 1.0]]),),
            )

    def test_cpt_row_count_matches_parent_bins(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(
                nodes=("a", "b"),
                parents=((), (0,)),
                bins=(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])),
                cpt=(np.array([[0.5, 0.5]]), np.array([[1.0]])),
            )

    def test_empty_structure_rejected(self):
        with pytest.raises(ValueError):
            DiscreteBayesNet(nodes=(), parents=(), bins=())


class TestFitCpts:
    def test_zero_data_laplace_prior_gives_uniform(self):
        net = fit_cpts(three_node_net(), np.zeros((0, 3), dtype=int), prior_count=1.0)
        for i in range(3):
            np.testing.assert_allclose(
                net.cpt[i], np.full_like(net.cpt[i], 1.0 / net.n_bins(i))
            )

    def test_single_node_empirical_frequency(self):
        data = np.array([[0], [0], [0], [1]])
        net = fit_cpts(single_node(), data, prior_count=0.0)
        np.testing.assert_allclose(net.cpt[0], [[0.75, 0.25]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        data = np.column_stack(
            [rng.integers(0, 3, 500), rng.integers(0, 2, 500), rng.integers(0, 2, 500)]
        )
        net = fit_cpts(three_node_net(), data, prior_count=0.5)
        for t in net.cpt:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        data = np.column_stack(
            [rng.integers(0, 3, 400), rng.integers(0, 2, 400), rng.integers(0, 2, 400)]
        )
        net_a = fit_cpts(three_node_net(), data, prior_count=1.0)
        net_b = fit_cpts(three_node_net(), data[rng.permutation(400)], prior_count=1.0)
        for ta, tb in zip(net_a.cpt, net_b.cpt):
            np.testing.assert_allclose(ta, tb)

    def test_data_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_cpts(three_node_net(), np.zeros((5, 2), dtype=int))

    def test_bin_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fit_cpts(single_node(), np.array([[5]]))

    def test_recovery_from_known_net(self):
        # oracle: the generating CPTs themselves
        truth = three_node_net()
        rng = np.random.default_rng(42)
        n = 100_000
        samples = np.empty((n, 3), dtype=int)
        for k in range(n):
            samples[k] = ancestral_sample(truth, rng).bins
        fitted = fit_cpts(
            DiscreteBayesNet(nodes=truth.nodes, parents=truth.parents, bins=truth.bins),
            samples,
            prior_count=1.0,
        )
        for i in range(3):
            assert np.max(np.abs(fitted.cpt[i] - truth.cpt[i])) <= 0.02


class TestAncestralSample:
    def test_degenerate_cpts_deterministic(self):
        net = DiscreteBayesNet(
            nodes=("a", "b"),
            parents=((), (0,)),
            bins=(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])),
            cpt=(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])),
        )
        rng = np.random.default_rng(0)
        for _ in range(50):
            asn = ancestral_sample(net, rng)
            assert asn.bins.tolist() == [1, 1]
            assert 1.0 <= asn.values[0] <= 2.0

    def test_binary_half_frequency(self):
        net = DiscreteBayesNet(
            nodes=("a",), parents=((),), bins=(np.array([0.0, 1.0, 2.0]),),
            cpt=(np.array([[0.5, 0.5]]),),
        )
        rng = np.random.default_rng(7)
        hits = sum(ancestral_sample(net, rng).bins[0] for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) <= 0.01

    def test_chain_joint_matches_analytic(self):
        cpt_x = np.array([[0.3, 0.7]])
        cpt_y = np.array([[0.8, 0.2], [0.1, 0.9]])
        net = DiscreteBayesNet(
            nodes=chain_net().nodes, parents=chain_net().parents, bins=chain_net().bins,
            cpt=(cpt_x, cpt_y),
        )
        analytic = cpt_x[0][:, None] * cpt_y  # joint over (x, y)
        rng = np.random.default_rng(11)
        counts = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            b = ancestral_sample(net, rng).bins
            counts[b[0], b[1]] += 1
        assert np.max(np.abs(counts / n - analytic)) <= 0.01

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            ancestral_sample(single_node(), np.random.default_rng(0))

    def test_values_fall_inside_bins(self):
        net = three_node_net()
        rng = np.random.default_rng(5)
        for _ in range(200):
            asn = ancestral_sample(net, rng)
            for i in range(3):
                lo = net.bins[i][asn.bins[i]]
                hi = net.bins[i][asn.bins[i] + 1]
                assert lo <= asn.values[i] <= hi


class TestLogProb:
    def test_matches_product_of_cpt_entries(self):
        net = three_node_net()
        lp = log_prob_bins(net, [1, 0, 1])
        # x=1: 0.3; y|x=1: row 1 -> 0.4; z|(x=1,y=0): row index 1*2+0=2 -> 0.75
        assert lp == pytest.approx(math.log(0.3) + math.log(0.4) + math.log(0.75))

    def test_zero_probability_gives_minus_inf(self):
        net = DiscreteBayesNet(
            nodes=("a",), parents=((),), bins=(np.array([0.0, 1.0, 2.0]),),
            cpt=(np.array([[1.0, 0.0]]),),
        )
        assert log_prob_bins(net, [1]) == -math.inf

    def test_given_prefix_is_not_scored(self):
        # z|(x=1, y=0) is 0.75; the given x and y add no term
        assert log_prob_bins(given_prefix_net(), [1, 0, 1]) == math.log(0.75)


class TestGivenPrefix:
    @pytest.mark.parametrize("given, parents, cpt, match", [
        (3, ((), (), (0, 1)), (), "given must be an integer in"),
        (-1, ((), (), (0, 1)), (), "given must be an integer in"),
        (2, ((), (0,), (0, 1)), (), "given node y must have no parents"),
        (2, ((), (), (0, 1)), three_node_net().cpt, "every node that is not given"),
    ])
    def test_structure_refused(self, given, parents, cpt, match):
        net = three_node_net()
        with pytest.raises(ValueError, match=match):
            DiscreteBayesNet(nodes=net.nodes, parents=parents, bins=net.bins, cpt=cpt, given=given)

    def test_sample_draws_only_after_the_prefix(self):
        net = given_prefix_net()
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(20_000):
            asn = ancestral_sample(net, rng, [2, 1])
            assert asn.bins[:2].tolist() == [2, 1]
            assert np.isnan(asn.values[:2]).all()
            hits += asn.bins[2]
        # z|(x=2, y=1) is row 5: P(z=1) = 0.65
        assert hits / 20_000 == pytest.approx(0.65, abs=0.01)

    def test_sample_needs_every_given_bin(self):
        with pytest.raises(ValueError, match="2 given nodes"):
            ancestral_sample(given_prefix_net(), np.random.default_rng(0), [1])

    def test_fit_leaves_the_prefix_unfitted(self):
        data = np.array([[1, 0, 1], [1, 0, 1], [1, 0, 0], [2, 1, 1]])
        net = fit_cpts(dataclasses.replace(given_prefix_net(), cpt=()), data, prior_count=0.0)
        assert net.given == 2 and len(net.cpt) == 1
        full = fit_cpts(dataclasses.replace(three_node_net(), cpt=()), data, prior_count=0.0)
        np.testing.assert_array_equal(net.cpt[0], full.cpt[2])


class TestSerialization:
    def test_dict_round_trip(self):
        net = three_node_net()
        back = net_from_dict(net_to_dict(net))
        assert back.nodes == net.nodes
        assert back.parents == net.parents
        for a, b in zip(back.bins, net.bins):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.cpt, net.cpt):
            np.testing.assert_allclose(a, b)

    def test_given_count_round_trips(self):
        back = net_from_dict(net_to_dict(given_prefix_net()))
        assert back.given == 2
        assert len(back.cpt) == 1
