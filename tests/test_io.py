import struct

import numpy as np
import pytest

from obslab.grid import GridError, GridSpec, ScalarField, centered_box
from obslab.io import (
    FieldFormatError,
    read_field,
    write_csv,
    write_field,
    write_json,
    write_pgm,
)


class TestFieldRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_exact(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        grid = GridSpec(
            lower=(-1.25,) * dim, upper=(0.75,) * dim, nodes_per_axis=(9,) * dim
        )
        field = ScalarField(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "f.field"
        write_field(path, field)
        back = read_field(path)
        assert back.grid == grid
        assert (back.values == field.values).all()  # bit-exact

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_bytes(b"NOTAGRID" + b"\x00" * 64)
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_rejects_truncated(self, tmp_path):
        grid = centered_box(2, 1.0, 5)
        field = ScalarField(grid, np.zeros(grid.shape))
        path = tmp_path / "t.field"
        write_field(path, field)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_rejects_short_header(self, tmp_path):
        # cut inside the dimension, the node counts and the upper corner
        grid = centered_box(2, 1.0, 5)
        path = tmp_path / "h.field"
        write_field(path, ScalarField(grid, np.zeros(grid.shape)))
        data = path.read_bytes()
        for cut in (10, 12 + 6, 12 + 40 - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FieldFormatError, match="truncated header"):
                read_field(path)

    @pytest.mark.parametrize("nodes", [2**31, 6], ids=["overflowing", "past_the_file"])
    def test_rejects_node_count_beyond_the_payload(self, tmp_path, nodes):
        grid = centered_box(2, 1.0, 5)
        path = tmp_path / "n.field"
        write_field(path, ScalarField(grid, np.zeros(grid.shape)))
        data = bytearray(path.read_bytes())
        struct.pack_into("<2I", data, 8 + 4, nodes, nodes)
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFormatError, match=f"header implies {52 + 8 * nodes * nodes}"):
            read_field(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        grid = centered_box(2, 1.0, 5)
        path = tmp_path / "t.field"
        write_field(path, ScalarField(grid, np.zeros(grid.shape)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FieldFormatError, match="260 bytes, header implies 252"):
            read_field(path)

    def test_rejects_non_finite_box(self, tmp_path):
        grid = centered_box(2, 1.0, 5)
        path = tmp_path / "inf.field"
        write_field(path, ScalarField(grid, np.zeros(grid.shape)))
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 8 + 4 + 2 * 4, -np.inf)  # lower[0], after magic, n, nodes
        path.write_bytes(bytes(data))
        with pytest.raises(GridError, match="finite"):
            read_field(path)


class TestWriters:
    def test_csv_deterministic(self, tmp_path):
        rows = [(0.1, 1, "ok"), (0.25, 2, "x")]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["r", "k", "s"], rows)
        write_csv(b, ["r", "k", "s"], rows)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "r,k,s"

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 1, "a": {"z": 2, "y": 3}})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')

    def test_pgm_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 0.25]]))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert len(data) == len(b"P5\n2 2\n255\n") + 4
        assert data[-4] == 0 and data[-3] == 255

    def test_pgm_constant_field(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((3, 3), 7.0))
        assert path.read_bytes().endswith(b"\x00" * 9)
