import math

import numpy as np
import pytest

from caslab.optimizer import LogicTable
from caslab.tablefile import FORMAT_VERSION, MAGIC, TableFormatError, read_table, write_table
from conftest import ACXT_COST_BYTES, acxt_header_bytes


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, small_table, tmp_path):
        p1 = tmp_path / "a.acxt"
        p2 = tmp_path / "b.acxt"
        write_table(small_table, p1)
        back = read_table(p1)
        write_table(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_and_values_survive(self, small_table, tmp_path):
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        back = read_table(path)
        np.testing.assert_array_equal(back.grid.h_cuts, small_table.grid.h_cuts)
        np.testing.assert_array_equal(back.grid.hdot0_cuts, small_table.grid.hdot0_cuts)
        assert back.grid.tau_max == small_table.grid.tau_max
        assert back.grid.advisories == small_table.grid.advisories
        np.testing.assert_allclose(
            back.values, small_table.values.astype(np.float32), rtol=0, atol=0
        )
        assert back.values.dtype == np.float32  # kept at the precision ACXT stores

    def test_header_layout(self, small_table, tmp_path):
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:8], "little") == FORMAT_VERSION
        assert int.from_bytes(raw[8:12], "little") == 4  # h, hdot0, hdot1, tau


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.acxt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(TableFormatError):
            read_table(path)

    def test_truncated_file(self, small_table, tmp_path):
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        clipped = tmp_path / "clipped.acxt"
        clipped.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(TableFormatError):
            read_table(clipped)

    def test_trailing_bytes(self, small_table, tmp_path):
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        padded = tmp_path / "padded.acxt"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TableFormatError):
            read_table(padded)

    @pytest.mark.parametrize("stale", [False, True])
    def test_value_beyond_float32_refused_without_file(self, small_table, tmp_path, stale):
        values = small_table.values.copy()
        values[1, 0, 2, 3, 4] = -1e39
        path = tmp_path / "t.acxt"
        if stale:
            path.write_bytes(b"an earlier table")
        with pytest.raises(TableFormatError, match="float32 range"):
            write_table(LogicTable(grid=small_table.grid, values=values, cost=small_table.cost), path)
        assert not path.exists()

    def test_float32_extremes_are_written(self, small_table, tmp_path):
        values = small_table.values.copy()
        values[-1, 0, 0, 0, :2] = (np.finfo(np.float32).min, np.finfo(np.float32).max)
        path = tmp_path / "t.acxt"
        write_table(LogicTable(grid=small_table.grid, values=values, cost=small_table.cost), path)
        np.testing.assert_array_equal(read_table(path).values, values.astype(np.float32))


def h_zero_off_its_own_mirror(raw, grid):
    """One value of the h = 0 slab, the first slab stored, moved by one float32 ulp."""
    start = acxt_header_bytes(grid) + ACXT_COST_BYTES
    (bits,) = np.frombuffer(raw, dtype="<u4", count=1, offset=start)
    return raw[:start] + int(bits + 1).to_bytes(4, "little") + raw[start + 4:]


def short_stored_half(raw, grid):
    """The file cut inside its value array."""
    return raw[:-40]


# Files the reader must refuse: an h = 0 slab that breaks its own mirror, or
# a value array cut short.
MIRROR_BREAKS = {
    "h_zero_off_its_own_mirror": (h_zero_off_its_own_mirror, "own vertical mirror"),
    "short_stored_half": (short_stored_half, "truncated"),
}


class TestHalfTable:
    @pytest.mark.parametrize("case", sorted(MIRROR_BREAKS))
    def test_reader_refuses(self, case, small_table, tmp_path):
        mutate, fragment = MIRROR_BREAKS[case]
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        raw = path.read_bytes()
        path.write_bytes(mutate(raw, small_table.grid))
        assert path.read_bytes() != raw
        with pytest.raises(TableFormatError, match=fragment):
            read_table(path)

    def test_file_values_are_the_table_values(self, small_table, tmp_path):
        # a float64 cost block, then the h >= 0 table itself: nothing below
        # zero, and no a_prev axis
        path = tmp_path / "t.acxt"
        write_table(small_table, path)
        grid = small_table.grid
        raw = path.read_bytes()
        header = acxt_header_bytes(grid)
        assert len(raw) == header + ACXT_COST_BYTES + 4 * math.prod(grid.table_shape)
        assert raw[header:header + ACXT_COST_BYTES] == small_table.cost.astype("<f8").tobytes()
        assert raw[header + ACXT_COST_BYTES:] == small_table.values.astype("<f4").tobytes()

    def test_h_zero_row_must_be_its_own_mirror(self, small_table):
        values = small_table.values.copy()
        values[0, 0, 0, 0, 0] += 1e-3
        with pytest.raises(ValueError, match="own vertical mirror"):
            LogicTable(grid=small_table.grid, values=values, cost=small_table.cost)

    def test_non_finite_value_refused(self, small_table):
        values = small_table.values.copy()
        values[-1, 1, 2, 3, 5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LogicTable(grid=small_table.grid, values=values, cost=small_table.cost)
