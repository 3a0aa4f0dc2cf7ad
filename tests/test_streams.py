"""Counter-based random numbers: the hash, its statistics, and the commands it serves."""

import json
import math

import numpy as np
import pytest

from caslab.core import SEED_LIMIT, uniforms
from caslab.encounters import toy_two_bin_model
from caslab.evaluation import (
    STREAM_CE_SIMULATE,
    STREAM_ENCOUNTER,
    STREAM_SIMULATE,
    Equipage,
    cross_entropy_adapt,
    estimate_metrics,
    is_estimate,
)
from caslab.tablefile import write_table
from test_cli import run_python, small_grid_config

MASK = 2**64 - 1
GOLDEN, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def mix64(z):
    """SplitMix64's finalizer on a Python int."""
    z ^= z >> 30
    z = (z * MIX1) & MASK
    z ^= z >> 27
    z = (z * MIX2) & MASK
    return z ^ (z >> 31)


def twin(seed, stream, index, k):
    """Uniform k of (seed, stream, index), on Python ints masked to 64 bits."""
    key = mix64((mix64((mix64(seed) + stream) & MASK) + index) & MASK)
    return (mix64((key + (k + 1) * GOLDEN) & MASK) >> 11) * 2.0**-53


class TestHash:
    @pytest.mark.parametrize("seed", [0, 1, 777, 2**63, SEED_LIMIT - 1])
    @pytest.mark.parametrize("stream", [STREAM_ENCOUNTER, STREAM_CE_SIMULATE])
    def test_block_matches_python_twin(self, seed, stream):
        indices = [0, 1, 2, 255, 2**40]
        block = uniforms(seed, stream, indices, 9)
        assert block.tolist() == [[twin(seed, stream, i, k) for k in range(9)] for i in indices]

    def test_key_zero_is_splitmix64_from_zero(self):
        # Seed, stream and index 0 hash to key 0 (the finalizer fixes 0), so
        # the row is SplitMix64's published sequence from state 0.
        first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert uniforms(0, 0, [0], 3)[0].tolist() == [(z >> 11) * 2.0**-53 for z in first]

    def test_row_depends_only_on_its_index(self):
        whole = uniforms(5, STREAM_SIMULATE, range(300), 40)
        for start, stop in ((0, 1), (7, 14), (256, 300)):
            assert np.array_equal(uniforms(5, STREAM_SIMULATE, range(start, stop), 40), whole[start:stop])
        # A wider block extends each row: counter k is the same uniform.
        assert np.array_equal(uniforms(5, STREAM_SIMULATE, range(300), 60)[:, :40], whole)

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, 2**80])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            uniforms(seed, STREAM_ENCOUNTER, [0], 1)

    def test_seed_that_is_not_an_integer_refused(self):
        # A float seed would otherwise be truncated to another seed's stream.
        with pytest.raises(TypeError):
            uniforms(2.7, STREAM_ENCOUNTER, [0], 1)
        assert np.array_equal(uniforms(np.int64(5), 0, [0], 4), uniforms(5, 0, [0], 4))


class TestStatistics:
    # 10^6 uniforms: 1000 encounter indices by 1000 counters.
    U = uniforms(2026, STREAM_ENCOUNTER, range(1000), 1000)

    def test_range(self):
        assert self.U.min() >= 0.0 and self.U.max() < 1.0

    def test_chi_square_over_100_bins(self):
        counts = np.bincount((self.U * 100).astype(int).ravel(), minlength=100)
        chi2 = float(((counts - 1e4) ** 2 / 1e4).sum())
        # 99 degrees of freedom: mean 99, standard deviation sqrt(198).
        assert abs(chi2 - 99) < 4 * math.sqrt(198)

    @pytest.mark.parametrize("pair", ["adjacent indices", "adjacent counters", "two streams"])
    def test_no_correlation(self, pair):
        if pair == "adjacent indices":
            a, b = self.U[:-1], self.U[1:]
        elif pair == "adjacent counters":
            a, b = self.U[:, :-1], self.U[:, 1:]
        else:
            a, b = self.U, uniforms(2026, STREAM_SIMULATE, range(1000), 1000)
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 4 / math.sqrt(a.size)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [SEED_LIMIT, 2**70])
    def test_library_estimators_refuse_a_seed_beyond_64_bits(self, seed):
        toy = toy_two_bin_model(p_conflict=0.3)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            estimate_metrics(toy, Equipage(), 10, seed=seed)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            is_estimate(toy, toy, Equipage(), 10, seed=seed)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            cross_entropy_adapt(toy, toy, Equipage(), 1, 10, 0.5, seed=seed)

    def test_largest_seed_runs(self):
        toy = toy_two_bin_model(p_conflict=0.3)
        assert estimate_metrics(toy, Equipage(), 10, seed=SEED_LIMIT - 1).n == 10


# Each command, run in a fresh interpreter, must finish without importing
# numpy.random: the import alone costs a process ~5 MB of RSS.
NO_NUMPY_RANDOM = """
import sys
{call}
loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
assert not loaded, loaded
"""

CLI_CALL = """
from caslab.cli import main
assert main(sys.argv[1:]) == 0
"""

CE_CALL = """
from caslab import Equipage, cross_entropy_adapt, default_uncorrelated_model
from caslab.dynamics import PilotModel
nominal = default_uncorrelated_model()
eq = Equipage(own="tcas", pilot=PilotModel(response_probability=1.0 / 6.0))
cross_entropy_adapt(nominal, nominal, eq, 1, 40, 0.3, seed=3)
"""


class TestNoNumpyRandom:
    @pytest.mark.parametrize("case", ["evaluate_table", "evaluate_tcas", "sample", "simulate"])
    def test_command(self, case, small_table, tmp_path):
        table = tmp_path / "table.acxt"
        write_table(small_table, table)
        doc = {
            "evaluate_table": {"evaluation": {"n": 20, "equipage": ["table", "none"],
                                              "pilot_response_probability": 1.0}},
            "evaluate_tcas": {"encounter": {"mode": "uncorrelated"},
                              "evaluation": {"n": 20, "equipage": ["tcas", "none"],
                                             "pilot_response_probability": 1.0 / 6.0}},
            "sample": {"sample": {"count": 2}},
            "simulate": {"evaluation": {"equipage": ["table", "tcas"],
                                        "pilot_response_probability": 1.0 / 6.0}},
        }[case]
        cfg = small_grid_config(tmp_path, paths={"table_file": str(table)}, **doc)
        command = case.split("_")[0]
        argv = [command, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")]
        proc = run_python(["-c", NO_NUMPY_RANDOM.format(call=CLI_CALL), *argv])
        assert proc.returncode == 0, proc.stderr
        if command == "evaluate":
            assert json.loads((tmp_path / "out" / "metrics.json").read_text())["n"] == 20

    def test_cross_entropy(self):
        proc = run_python(["-c", NO_NUMPY_RANDOM.format(call=CE_CALL)])
        assert proc.returncode == 0, proc.stderr

