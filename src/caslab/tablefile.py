"""Binary logic-table format (ACXT).

Little-endian layout:

    magic           4 bytes  b"ACXT"
    version         u32      format version (currently 3)
    dim_count       u32      number of continuous axes (h, hdot0, hdot1, tau)
    per dimension:  u32 cut-point count, then that many f64 cut points
    advisory_count  u32      always 7
    per advisory:   u32 name byte length, then UTF-8 name bytes
    cost            f64 array, 7 x 7, row-major over (a_prev, action)
    values          f32 array, row-major over
                    (h >= 0, hdot0, hdot1, tau, action)

The value of action a after advisory a_prev is cost[a_prev, a] plus the
stored value: the pair is exactly LogicTable.cost and LogicTable.values
(Grid.table_shape).  The header lists every h cut, but the values cover
only the h >= 0 cuts, and a LogicTable reads the rows below zero through
the vertical mirror.  The cost matrix must be finite and its own vertical
mirror.  The tau axis is stored as explicit cut points 0..tau_max so
readers need no side channel.  The advisory axis is always the seven
advisories in canonical (tie-break) order, COC DNC DND DES1500 CL1500
DES2500 CL2500; a file that lists any other axis is refused before its
values are read.  Values are rounded to 32-bit floats on write, and a value
outside the float32 range is refused; a read/write cycle is byte-stable.
Files of earlier versions are refused: version 1 also stored the h < 0
rows, and version 2 stored every (a_prev, action) value, 7 times the values
of version 3.
"""

from __future__ import annotations

import io
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .core import ADVISORIES
from .optimizer import Grid, LogicTable

MAGIC = b"ACXT"
FORMAT_VERSION = 3
# The advisory block every file holds: the count, then each length and name.
_ADVISORY_BLOCK = struct.pack("<I", len(ADVISORIES)) + b"".join(
    struct.pack("<I", len(name)) + name for name in (a.value.encode("utf-8") for a in ADVISORIES)
)


class TableFormatError(ValueError):
    pass


def write_table(table: LogicTable, path) -> None:
    """Write table to path; on any failure no partial file is left."""
    f = open(path, "wb")
    try:
        with f:
            _write_stream(table, f)
    except BaseException:
        os.unlink(path)
        raise


def _write_stream(table: LogicTable, f: BinaryIO) -> None:
    grid = table.grid
    dims = (
        grid.h_cuts,
        grid.hdot0_cuts,
        grid.hdot1_cuts,
        np.arange(grid.tau_max + 1, dtype=float),
    )
    f.write(MAGIC)
    f.write(struct.pack("<II", FORMAT_VERSION, len(dims)))
    for cuts in dims:
        f.write(struct.pack("<I", len(cuts)))
        f.write(np.asarray(cuts, dtype="<f8").tobytes())
    f.write(_ADVISORY_BLOCK)
    f.write(np.asarray(table.cost, dtype="<f8").tobytes())
    try:
        with np.errstate(over="raise"):
            # one h cut at a time: no whole-table f32 copy
            for slab in table.values:
                f.write(np.ascontiguousarray(slab, dtype="<f4"))
    except FloatingPointError:
        raise TableFormatError(
            "table values lie outside the float32 range of the ACXT format "
            f"(|value| <= {float(np.finfo(np.float32).max):.8g})"
        ) from None


def read_table(path) -> LogicTable:
    with open(path, "rb") as f:
        return _read_stream(f)


def _read_stream(f: BinaryIO) -> LogicTable:
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    magic = f.read(4)
    if magic != MAGIC:
        raise TableFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, dim_count = struct.unpack("<II", _read_exact(f, 8))
    if version != FORMAT_VERSION:
        raise TableFormatError(f"unsupported table format version {version}")
    if dim_count != 4:
        raise TableFormatError(f"expected 4 dimensions, found {dim_count}")
    dims = []
    for _ in range(dim_count):
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        # A garbled count must not make the reader ask for bytes the file lacks.
        if 8 * count > size - f.tell():
            raise TableFormatError("truncated table file")
        dims.append(np.frombuffer(_read_exact(f, 8 * count), dtype="<f8"))
    if _read_exact(f, len(_ADVISORY_BLOCK)) != _ADVISORY_BLOCK:
        axis = ", ".join(a.value for a in ADVISORIES)
        raise TableFormatError(f"advisory axis must be [{axis}]")
    na = len(ADVISORIES)
    cost = np.frombuffer(_read_exact(f, 8 * na * na, "advisory cost matrix"), dtype="<f8")
    tau_cuts = dims[3]
    if len(tau_cuts) < 1 or not np.array_equal(tau_cuts, np.arange(len(tau_cuts))):
        raise TableFormatError("tau axis must be 0..tau_max in unit steps")
    # Check the declared value count against the stream before building the
    # grid or allocating: a short file must not make the reader allocate a
    # table it cannot fill.
    stored_h = np.count_nonzero(dims[0] >= 0)
    counts = [stored_h] + [len(cuts) for cuts in dims[1:]] + [na]
    if size - f.tell() < 4 * math.prod(counts):
        raise TableFormatError("truncated table file")
    try:
        grid = Grid(
            h_cuts=dims[0],
            hdot0_cuts=dims[1],
            hdot1_cuts=dims[2],
            tau_max=len(tau_cuts) - 1,
        )
    except ValueError as err:
        raise TableFormatError(f"invalid grid: {err}") from None
    values = np.empty(grid.table_shape, dtype="<f4")
    if f.readinto(values) != values.nbytes:
        raise TableFormatError("truncated table file")
    if f.read(1):
        raise TableFormatError("trailing bytes after value array")
    try:
        return LogicTable(grid=grid, values=values, cost=cost.reshape(na, na))
    except ValueError as err:  # a cost matrix or values that break their checks
        raise TableFormatError(str(err)) from None


def _read_exact(f: BinaryIO, n: int, what: str = "table file") -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise TableFormatError(f"truncated {what}")
    return data
