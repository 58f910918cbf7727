"""Field, CSV, and raster serialization.

Field files are a small self-describing binary, little-endian throughout:

========  =======================================
bytes     content
========  =======================================
8         magic ``OBSGRID1``
4         dimension (uint32)
4 * n     nodes per axis (uint32)
8 * n     lower corner per axis (float64)
8 * n     upper corner per axis (float64)
8 * N     node values, row-major (float64)
========  =======================================

Round-trips are bit-exact, which the regression tests rely on. Rasters are
binary PGM (P5), 8-bit, field values scaled min -> max; no timestamps or
other ambient metadata are written anywhere in this module.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

from .grid import GridError, GridSpec, ScalarField

MAGIC = b"OBSGRID1"


class FieldFormatError(GridError):
    """Malformed field file."""


def write_field(path, field: ScalarField) -> None:
    grid = field.grid
    n = grid.dimension
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", n))
        fh.write(struct.pack(f"<{n}I", *grid.nodes_per_axis))
        fh.write(struct.pack(f"<{n}d", *grid.lower))
        fh.write(struct.pack(f"<{n}d", *grid.upper))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> ScalarField:
    """The field of a :func:`write_field` file. The header's length, and the
    payload size its node counts imply, must match the file's size."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != MAGIC:
            raise FieldFormatError(f"bad magic {magic!r} in {path}")
        if size < 12:
            raise FieldFormatError(f"truncated header in {path}")
        (n,) = struct.unpack("<I", fh.read(4))
        if n not in (1, 2, 3):
            raise FieldFormatError(f"bad dimension {n} in {path}")
        header = 12 + 20 * n
        if size < header:
            raise FieldFormatError(f"truncated header in {path}")
        nodes = struct.unpack(f"<{n}I", fh.read(4 * n))
        lower = struct.unpack(f"<{n}d", fh.read(8 * n))
        upper = struct.unpack(f"<{n}d", fh.read(8 * n))
        count = math.prod(nodes)
        if size != header + 8 * count:
            raise FieldFormatError(f"{path}: {size} bytes, header implies {header + 8 * count}")
        grid = GridSpec(lower=lower, upper=upper, nodes_per_axis=nodes)
        values = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(grid.shape)
    return ScalarField(grid, values)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _format_cell(cell):
    # np.float64 subclasses float, and its repr is "np.float64(x)" under numpy 2
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, np.integer):
        return int(cell)
    return cell


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM of a finite 2D array, min -> 0, max -> 255."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise GridError(f"PGM raster needs a 2D array, got shape {values.shape}")
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    if span <= 0.0:
        scaled = np.zeros_like(values)
    else:
        scaled = (values - lo) / span * 255.0
    data = np.clip(scaled, 0, 255).astype(np.uint8)
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
