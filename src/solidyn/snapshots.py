"""Bit-stable data export: SLDN1 binary field snapshots and CSV series.

Snapshot layout (fixed little-endian, platform independent):

    bytes 0-4   magic "SLDN1"
    u32         dim
    u32 * dim   points per axis
    f64 * dim   box length per axis
    f64         time tag
    c128 * N    row-major samples, interleaved (re, im) float64 pairs

Every write is atomic (temp file in the target directory, then rename), and
float formatting uses repr (shortest round-trip), so re-running a scenario
with the same configuration reproduces byte-identical files.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import SolidynError
from .grids import Field, Grid

MAGIC = b"SLDN1"


def _atomic_write(path, payload: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(field: Field, path):
    """Serialize a complex field snapshot to the SLDN1 layout."""
    grid = field.grid
    head = struct.pack(_header_format(grid.dim), grid.dim, *grid.points,
                       *grid.lengths, field.time_tag)
    samples = np.ascontiguousarray(field.samples, dtype="<c16")
    _atomic_write(path, MAGIC + head + samples.tobytes())


def _header_format(dim):
    """The struct format of dim, points, lengths and time tag."""
    return f"<I{dim}I{dim}dd"


def read_snapshot(path) -> Field:
    """Inverse of write_snapshot; validates the magic and sizes."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:5] != MAGIC:
        raise SolidynError(f"{path}: not an SLDN1 snapshot")
    if len(blob) < 9:
        raise SolidynError(f"{path}: truncated snapshot header")
    dim = struct.unpack_from("<I", blob, 5)[0]
    if dim not in (1, 2):
        raise SolidynError(f"{path}: snapshot dim {dim} is not 1 or 2")
    head = _header_format(dim)
    offset = 5 + struct.calcsize(head)
    if len(blob) < offset:
        raise SolidynError(f"{path}: truncated snapshot header")
    dim, *sizes, time_tag = struct.unpack_from(head, blob, 5)
    points, lengths = sizes[:dim], sizes[dim:]
    count = math.prod(points)     # exact: np.prod wraps in int64
    expected = offset + 16 * count
    if len(blob) != expected:
        raise SolidynError(
            f"{path}: truncated snapshot ({len(blob)} bytes, "
            f"expected {expected})")
    samples = np.frombuffer(blob, dtype="<c16", count=count, offset=offset)
    grid = Grid(tuple(points), tuple(lengths))
    return Field(grid, samples.reshape(grid.shape).astype(np.complex128),
                 time_tag)


def _format_value(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, columns, comment):
    """Column-oriented CSV writer with deterministic float formatting,
    under a `# comment` line."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    for c in columns:
        if len(c) != n:
            raise SolidynError("csv columns must have equal lengths")
    lines = [f"# {comment}", ",".join(header)]
    for i in range(n):
        lines.append(",".join(_format_value(c[i]) for c in columns))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_text(path, text):
    _atomic_write(path, text.encode())
