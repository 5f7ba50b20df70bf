"""Binary field dumps.

Layout of a field dump (all integers little-endian):

    bytes 0..7    magic ``b"SPDE2DF\\0"``
    bytes 8..11   format version, uint32 (currently 1)
    bytes 12..23  N, M1, M2 as uint32 each
    bytes 24..    (N+1) * (M1+1) * (M2+1) float64 values, row-major in
                  (time, y-index, z-index)

Provenance travels in a JSON sidecar ``<path>.meta.json`` written next to
the dump and re-attached on read when present.

``read_field`` reads an observation record (what estimation reads, or one
cross section), streamed through a buffer of whole time slices: a dump
grows as N M1 M2, its record as N m1 m2 + n M1 M2.  The whole field is the
record with no points and every time coarse.  ``read_grid`` reads the
header alone.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np

from .errors import ConfigError, GridMismatchError
from .simulate import Observation, SpaceTimeGrid, observe_slices

MAGIC = b"SPDE2DF\x00"
VERSION = 1

# Bytes of values a record read holds at once: as many whole time slices
# as fit, and at least one.
BLOCK_BYTES = 1 << 20


def _meta_path(path: str) -> str:
    return path + ".meta.json"


def write_field(field: Observation, path: str) -> None:
    """Write ``field``, the record of every time slice (any other raises
    ``GridMismatchError``), to a dump at ``path`` and its provenance to the
    sidecar.  Both are written to temporary files beside them first, which
    then replace them: a write that fails or is interrupted before that
    leaves a previous dump and its sidecar as they were."""
    if not field.is_field:
        raise GridMismatchError(f"slices {field.slices.shape} are not the "
                                f"whole field on {field.grid}")
    header = np.array([VERSION, field.grid.N, field.grid.M1, field.grid.M2],
                      dtype="<u4")
    # one name per process and thread, so concurrent writers never share one
    tmp = f".{os.getpid()}.{threading.get_ident()}.tmp"
    dump, meta = path + tmp, _meta_path(path) + tmp
    try:
        with open(dump, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header.tobytes())
            np.ascontiguousarray(field.slices, dtype="<f8").tofile(fh)
        with open(meta, "w") as fh:
            json.dump(field.provenance, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(dump, path)
        os.replace(meta, _meta_path(path))
    finally:
        for name in (dump, meta):
            if os.path.exists(name):
                os.remove(name)


def _blocks(fh, path: str, grid: SpaceTimeGrid):
    """The dump's values after the header, as runs of whole time slices
    read into one reused buffer of at most ``BLOCK_BYTES`` (one slice where
    a slice is larger)."""
    shape = (grid.M1 + 1, grid.M2 + 1)
    rows = min(grid.N + 1, max(1, BLOCK_BYTES // (8 * shape[0] * shape[1])))
    buf = np.empty((rows, *shape), dtype="<f8")
    for first in range(0, grid.N + 1, rows):
        block = buf[:grid.N + 1 - first]
        if fh.readinto(block) != block.nbytes:
            count = (grid.N + 1) * shape[0] * shape[1]
            raise ConfigError(f"{path} is truncated ({count} values expected)")
        yield block


def _open(path: str):
    if os.path.isdir(path):
        raise ConfigError(f"{path} is a directory, not a field dump")
    return open(path, "rb")


def _header(fh, path: str) -> SpaceTimeGrid:
    """The grid in the header of the dump open in ``fh`` at its start;
    raises ``ConfigError`` for a bad header or a size that does not match
    it."""
    magic = fh.read(8)
    if magic != MAGIC:
        raise ConfigError(f"{path} is not a field dump (bad magic {magic!r})")
    header = fh.read(16)
    if len(header) != 16:
        raise ConfigError(f"{path} is truncated (header of 16 bytes "
                          f"expected after the magic)")
    version, n, m1, m2 = (int(v) for v in np.frombuffer(header, "<u4"))
    if version != VERSION:
        raise ConfigError(f"unsupported field dump version {version}")
    count = (n + 1) * (m1 + 1) * (m2 + 1)
    size = os.fstat(fh.fileno()).st_size
    if size != 24 + 8 * count:
        what = "truncated" if size < 24 + 8 * count else "padded"
        raise ConfigError(f"{path} is {what} ({count} values expected)")
    return SpaceTimeGrid(N=n, M1=m1, M2=m2)


def read_grid(path: str) -> SpaceTimeGrid:
    """The grid of the dump at ``path``, after ``read_field``'s checks of
    its header and size; no value is read."""
    with _open(path) as fh:
        return _header(fh, path)


def read_field(path: str, *, grid: SpaceTimeGrid | None = None,
               record=None) -> Observation:
    """The record of the dump at ``path`` with its sidecar's provenance
    (``{}`` without one); raises ``ConfigError`` for anything but a
    well-formed dump and a sidecar of valid JSON, and ``FileNotFoundError``
    for no file.

    With ``grid``, a dump on another grid raises ``GridMismatchError``
    before any value is read.  With ``record=(index_y, index_z, coarse)``
    it returns the record at those indices, equal to
    ``observe_sample(read_field(path), *record)``, and never holds the
    field: the values are read in blocks of ``BLOCK_BYTES``.  Without it,
    it returns the field, the record ``([], [], range(N+1))``.
    """
    with _open(path) as fh:
        found = _header(fh, path)
        if grid is not None and found != grid:
            raise GridMismatchError(
                f"field grid ({found.N}, {found.M1}, {found.M2}) does not "
                f"match the expected grid ({grid.N}, {grid.M1}, {grid.M2})")
        if record is None:
            record = [], [], range(found.N + 1)
        return observe_slices(found, _blocks(fh, path, found), *record,
                              provenance=_provenance(path))


def _provenance(path: str) -> dict:
    """The provenance in the sidecar of the dump at ``path``, ``{}`` without
    one."""
    meta = _meta_path(path)
    if not os.path.exists(meta):
        return {}
    if os.path.isdir(meta):
        raise ConfigError(f"{meta} is a directory, not a sidecar")
    with open(meta, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"{meta} is not valid JSON: {exc}") from exc
