import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segloss.errors import (
    ConfigError,
    DataError,
    MalformedHeader,
    NonBinaryPixel,
    TruncatedPayload,
)
from segloss.fileio import (
    ReportTable,
    cfg_float_list,
    cfg_str_list,
    format_cell,
    parse_config_text,
    read_mask,
    read_report_json,
    write_mask,
    write_report,
)
from segloss.masks import BinaryMask, ProbMap


def rand_binary(rng, nx, ny, nz=1):
    return BinaryMask((nx, ny, nz), rng.integers(0, 2, size=nx * ny * nz).astype(np.uint8))


def rand_prob(rng, nx, ny, nz=1):
    # quantized to the on-disk u16 grid so round trips are bit exact
    raw = rng.integers(0, 65536, size=nx * ny * nz)
    return ProbMap((nx, ny, nz), raw / 65535.0)


def test_pgm_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rand_binary(rng, 7, 5)
    path = tmp_path / "m.pgm"
    write_mask(m, str(path))
    got = read_mask(str(path))
    assert path.read_bytes().startswith(b"P5\n")
    assert got.dims == m.dims
    assert np.array_equal(got.data, m.data)


def test_pgm_prob_round_trip_and_endpoints(tmp_path):
    p = ProbMap((3, 1, 1), np.array([0.0, 1.0, 32768 / 65535]))
    path = tmp_path / "p.pgm"
    write_mask(p, str(path))
    got = read_mask(str(path))
    assert isinstance(got, ProbMap)
    assert got.data[0] == 0.0
    assert got.data[1] == 1.0
    assert np.array_equal(got.data, p.data)


def test_msk_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    m = rand_binary(rng, 4, 3, 2)
    p = rand_prob(rng, 3, 2, 4)
    for payload, name in ((m, "m.msk"), (p, "p.msk")):
        path = tmp_path / name
        write_mask(payload, str(path))
        got = read_mask(str(path))
        assert path.read_bytes().startswith(b"MSK1 ")
        assert got.dims == payload.dims
        assert np.array_equal(got.data, payload.data)


def test_file_level_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rand_binary(rng, 9, 4)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    write_mask(m, str(p1))
    write_mask(read_mask(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_rejects_nonbinary_pixel(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 7, 0]))
    with pytest.raises(NonBinaryPixel):
        read_mask(str(path))


def test_pgm_rejects_truncated_and_trailing(tmp_path):
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255]))
    with pytest.raises(TruncatedPayload):
        read_mask(str(short))
    extra = tmp_path / "extra.pgm"
    extra.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255, 9]))
    with pytest.raises(MalformedHeader):
        read_mask(str(extra))


# (header, bytes per sample) for each container and sample kind
LAYOUTS = [
    (b"P5\n2 2\n255\n", 1),
    (b"P5\n2 2\n65535\n", 2),
    (b"MSK1 2 1 2 u8\n", 1),
    (b"MSK1 2 1 2 u16\n", 2),
]


@pytest.mark.parametrize("header, width", LAYOUTS)
def test_every_layout_rejects_truncated_and_trailing(tmp_path, header, width):
    path = tmp_path / "m"
    path.write_bytes(header + bytes(4 * width))
    assert read_mask(str(path)).d == 4
    path.write_bytes(header + bytes(4 * width - 1))
    with pytest.raises(TruncatedPayload):
        read_mask(str(path))
    path.write_bytes(header + bytes(4 * width + 1))
    with pytest.raises(MalformedHeader):
        read_mask(str(path))


@pytest.mark.parametrize("header", [h for h, width in LAYOUTS if width == 1])
def test_every_container_rejects_nonbinary_u8(tmp_path, header):
    path = tmp_path / "m"
    path.write_bytes(header + bytes([0, 255, 7, 0]))
    with pytest.raises(NonBinaryPixel):
        read_mask(str(path))


def test_msk_with_one_slice_reads_as_2d_and_writes_as_pgm(tmp_path):
    src, dst = tmp_path / "a.msk", tmp_path / "b.pgm"
    src.write_bytes(b"MSK1 3 2 1 u8\n" + bytes([0, 255, 255, 0, 0, 255]))
    got = read_mask(str(src))
    assert got.dims == (3, 2, 1)
    assert got.data.tolist() == [0, 1, 1, 0, 0, 1]
    write_mask(got, str(dst))
    assert dst.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 255, 255, 0, 0, 255])


def test_pgm_rejects_bad_headers(tmp_path):
    for blob in (b"P6\n2 2\n255\n" + bytes(12),
                 b"P5\n2 x\n255\n" + bytes(4),
                 b"P5\n2 2\n16\n" + bytes(4)):
        path = tmp_path / "h.pgm"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            read_mask(str(path))


def test_pgm_accepts_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([255, 0]))
    got = read_mask(str(path))
    assert got.data.tolist() == [1, 0]


def test_msk_rejects_bad_headers(tmp_path):
    for blob in (b"MSK1 2 2\n" + bytes(4),
                 b"MSK1 2 2 1 f32\n" + bytes(16),
                 b"MSK1 0 2 1 u8\n"):
        path = tmp_path / "h.msk"
        path.write_bytes(blob)
        with pytest.raises(MalformedHeader):
            read_mask(str(path))
    path = tmp_path / "t.msk"
    path.write_bytes(b"MSK1 2 2 1 u16\n" + bytes(6))
    with pytest.raises(TruncatedPayload):
        read_mask(str(path))


def test_unknown_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNK")
    with pytest.raises(MalformedHeader):
        read_mask(str(path))


@given(st.integers(1, 32), st.integers(1, 32), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(nx, ny, binary, seed):
    import tempfile, os
    rng = np.random.default_rng(seed)
    payload = rand_binary(rng, nx, ny) if binary else rand_prob(rng, nx, ny)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.pgm")
        write_mask(payload, path)
        got = read_mask(path)
        assert got.dims == payload.dims
        assert np.array_equal(got.data, payload.data)


def test_report_round_trip_17_digits(tmp_path):
    rows = [
        ["dice", 1 / 3, True],
        ["hausdorff", None, False],
        ["rel", math.inf, True],
        ["count", 42, True],
    ]
    table = ReportTable("t", ["metric", "value", "defined"], rows)
    csv_path, json_path = write_report(table, str(tmp_path), "t")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == ["metric,value,defined", "dice,0.33333333333333331,true", "hausdorff,,false",
                     "rel,inf,true", "count,42,true"]
    for line, row in zip(lines[1:], rows):
        if isinstance(row[1], float):
            assert float(line.split(",")[1]) == row[1]
    jback = read_report_json(json_path)
    assert jback.rows == rows


def test_report_cell_formats():
    assert format_cell(1 / 3) == "0.33333333333333331"
    assert float(format_cell(1 / 3)) == 1 / 3
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(None) == ""


def test_report_json_rejects_garbage(tmp_path):
    path = tmp_path / "x.json"
    for text in ["{not json", '{"a": 1}',
                 '{"name": "t", "columns": ["a", "b"], "rows": [[1, 2, 3], [4]]}',
                 '{"name": "t", "columns": ["a", "b"], "rows": [[1, 2], [4]]}',
                 '{"name": "t", "columns": "ab", "rows": [[1, 2]]}',
                 '{"name": "t", "columns": ["a", 2], "rows": [[1, 2]]}',
                 '{"name": "t", "columns": ["a", "b"], "rows": ["xy"]}',
                 '{"name": 5, "columns": ["a", "b"], "rows": [[1, 2]]}',
                 '{"name": null, "columns": ["a"], "rows": []}',
                 '{"name": "t", "columns": ["a", "b"], "rows": [[{"k": 1}, 2]]}',
                 '{"name": "t", "columns": ["a", "b"], "rows": [[1, 2], [null, [3]]]}']:
        path.write_text(text)
        with pytest.raises(DataError):
            read_report_json(str(path))


def test_config_parser_happy_path():
    schema = {"n": int, "lr": float, "losses": cfg_str_list, "ratios": cfg_float_list}
    text = """
# a comment
n = 5
lr = 0.25   # trailing comment
losses = ce, soft_dice
ratios = 0.1,0.2
"""
    out = parse_config_text(text, schema)
    assert out == {"n": 5, "lr": 0.25, "losses": ["ce", "soft_dice"], "ratios": [0.1, 0.2]}


def test_config_parser_errors_carry_line_numbers():
    schema = {"n": int}
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("n = 1\nbogus = 2\n", schema)
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("n = x\n", schema)
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("n = 1\n\nn = 2\n", schema)
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n", schema)
