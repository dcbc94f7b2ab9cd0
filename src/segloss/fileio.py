"""Mask file formats, report serialization, and the experiment config
parser.

Mask formats: 2D payloads are PGM P5 files, 3D payloads a one-line header
``MSK1 <nx> <ny> <nz> <u8|u16>\\n`` followed by the raw payload, row-major
with x fastest.  Both containers carry the same two sample encodings: one
byte, a binary mask with pixels in {0, 255} (PGM maxval 255, MSK1 u8), or
two bytes, a probability map with value v read as v/65535 (PGM maxval
65535, MSK1 u16).  The tables ``_PGM_DTYPES`` and ``_MSK_DTYPES`` are the
one place that maps each header to its sample dtype and byte order, and
``_decode`` the one place that turns samples into a mask.

Reports are written as a CSV and a JSON mirror carrying identical values;
floats are serialized with 17 significant digits so they parse back
bit-exactly.  Only the JSON mirror is read back; ``read_report_json``
rejects rows whose width differs from the columns'.  All files are
written to a temp name and atomically renamed, so failed commands leave
no partial reports behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    MalformedHeader,
    NonBinaryPixel,
    TruncatedPayload,
)
from .masks import BinaryMask, ProbMap

_U16_MAX = 65535
# the sample dtype of each PGM maxval and MSK1 sample kind; netpbm samples
# are big-endian and MSK1 samples little-endian
_PGM_DTYPES = {255: "u1", _U16_MAX: ">u2"}
_MSK_DTYPES = {"u8": "u1", "u16": "<u2"}


def _read_pgm(blob: bytes):
    """Parse the three header integers after the P5 magic, honouring netpbm
    whitespace and # comments.  Returns (dims, payload offset, dtype)."""
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise MalformedHeader(f"bad header token {token!r}")
        fields.append(int(token))
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise MalformedHeader("missing whitespace after maxval")
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise MalformedHeader(f"bad raster size {w}x{h}")
    if maxval not in _PGM_DTYPES:
        raise MalformedHeader(f"unsupported maxval {maxval} (255 or 65535)")
    # exactly one whitespace byte before the raster
    return (w, h, 1), pos + 1, _PGM_DTYPES[maxval]


def _read_msk(blob: bytes):
    """Parse the ``MSK1 <nx> <ny> <nz> <kind>`` line.  Returns (dims,
    payload offset, dtype)."""
    nl = blob.find(b"\n")
    if nl < 0:
        raise MalformedHeader("missing header line")
    parts = blob[:nl].decode("ascii", errors="replace").split()
    if len(parts) != 5 or parts[0] != "MSK1":
        raise MalformedHeader(f"bad MSK1 header {blob[:nl]!r}")
    try:
        nx, ny, nz = (int(v) for v in parts[1:4])
    except ValueError as exc:
        raise MalformedHeader(f"bad dims in header {blob[:nl]!r}") from exc
    if min(nx, ny, nz) < 1:
        raise MalformedHeader(f"bad dims {nx}x{ny}x{nz}")
    if parts[4] not in _MSK_DTYPES:
        raise MalformedHeader(f"unknown sample kind {parts[4]!r}")
    return (nx, ny, nz), nl + 1, _MSK_DTYPES[parts[4]]


def _decode(dims, raw: bytes, dtype: str) -> BinaryMask | ProbMap:
    """One-byte samples are a binary mask with pixels in {0, 255}; two-byte
    samples a probability map, value v read as v/65535."""
    dt = np.dtype(dtype)
    need = dims[0] * dims[1] * dims[2] * dt.itemsize
    if len(raw) < need:
        raise TruncatedPayload(f"expected {need} bytes, found {len(raw)}")
    if len(raw) > need:
        raise MalformedHeader(f"{len(raw) - need} trailing bytes after payload")
    data = np.frombuffer(raw, dtype=dt)
    if dt.itemsize == 2:
        return ProbMap(dims, data.astype(np.float64) / _U16_MAX)
    bad = (data != 0) & (data != 255)
    if bad.any():
        raise NonBinaryPixel(
            f"binary mask contains value {int(data[bad][0])} (only 0/255 allowed)"
        )
    return BinaryMask(dims, data == 255)


def read_mask(path: str) -> BinaryMask | ProbMap:
    """Load a mask/probability file, detecting the format by its magic."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(b"P5"):
        dims, pos, dtype = _read_pgm(blob)
    elif blob.startswith(b"MSK1"):
        dims, pos, dtype = _read_msk(blob)
    else:
        raise MalformedHeader("unknown file magic (expected P5 or MSK1)")
    return _decode(dims, blob[pos:], dtype)


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-segloss-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_mask(payload: BinaryMask | ProbMap, path: str) -> None:
    """Write a mask or probability map: 2D payloads as PGM, 3D as the MSK1
    container.  Probabilities are quantized to 16 bits."""
    nx, ny, nz = payload.dims
    binary = isinstance(payload, BinaryMask)
    if nz == 1:
        maxval = 255 if binary else _U16_MAX
        header, dtype = f"P5\n{nx} {ny}\n{maxval}\n", _PGM_DTYPES[maxval]
    else:
        kind = "u8" if binary else "u16"
        header, dtype = f"MSK1 {nx} {ny} {nz} {kind}\n", _MSK_DTYPES[kind]
    body = payload.data * np.uint8(255) if binary else np.round(payload.data * _U16_MAX)
    _atomic_write(path, header.encode("ascii") + body.astype(dtype).tobytes())


@dataclass
class ReportTable:
    """A named table destined for a CSV file plus its JSON mirror."""

    name: str
    columns: list[str]
    rows: list[list]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_bytes(table: ReportTable) -> bytes:
    lines = [",".join(table.columns)]
    for row in table.rows:
        if len(row) != len(table.columns):
            raise DataError(f"row width {len(row)} != {len(table.columns)} columns")
        lines.append(",".join(format_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_bytes(table: ReportTable) -> bytes:
    def coerce(v):
        if isinstance(v, (np.floating,)):
            return float(v)
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    doc = {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [[coerce(v) for v in row] for row in table.rows],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def write_report(table: ReportTable, out_dir: str, basename: str) -> tuple[str, str]:
    """Write <basename>.csv and <basename>.json atomically; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, basename + ".csv")
    json_path = os.path.join(out_dir, basename + ".json")
    _atomic_write(csv_path, _csv_bytes(table))
    _atomic_write(json_path, _json_bytes(table))
    return csv_path, json_path


def read_report_json(path: str) -> ReportTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from exc
    try:
        name, columns, rows = doc["name"], doc["columns"], doc["rows"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a report document") from exc
    if not isinstance(name, str):
        raise DataError(f"{path}: name must be a string")
    if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
        raise DataError(f"{path}: columns must be a list of names")
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == len(columns) for r in rows)):
        raise DataError(f"{path}: every row must be a list of {len(columns)} cells")
    if not all(isinstance(v, (type(None), bool, int, float, str)) for r in rows for v in r):
        raise DataError(f"{path}: every cell must be null, a bool, a number or a string")
    return ReportTable(name, columns, rows)


def parse_config_text(text: str, schema: dict) -> dict:
    """Parse the flat ``key = value`` config format.

    Blank lines are skipped and everything after a ``#`` is a comment.
    Unknown keys, repeated keys and unparsable values are rejected with
    their line number.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = schema[key](value)
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str, schema: dict) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config_text(text, schema)


def cfg_float_list(value: str) -> list[float]:
    return [float(v) for v in cfg_str_list(value)]


def cfg_str_list(value: str) -> list[str]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError("empty list")
    return items
