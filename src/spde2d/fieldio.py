"""Binary field dumps.

Layout of a field dump (all integers little-endian):

    bytes 0..7    magic ``b"SPDE2DF\\0"``
    bytes 8..11   format version, uint32 (currently 1)
    bytes 12..23  N, M1, M2 as uint32 each
    bytes 24..    (N+1) * (M1+1) * (M2+1) float64 values, row-major in
                  (time, y-index, z-index)

Provenance travels in a JSON sidecar ``<path>.meta.json`` written next to
the dump and re-attached on read when present.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError
from .simulate import FieldSample, SpaceTimeGrid

MAGIC = b"SPDE2DF\x00"
VERSION = 1


def _meta_path(path: str) -> str:
    return path + ".meta.json"


def write_field(field: FieldSample, path: str) -> None:
    header = np.array([VERSION, field.grid.N, field.grid.M1, field.grid.M2],
                      dtype="<u4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.tobytes())
        np.ascontiguousarray(field.values, dtype="<f8").tofile(fh)
    with open(_meta_path(path), "w") as fh:
        json.dump(field.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_field(path: str) -> FieldSample:
    """The dump at ``path`` with its sidecar's provenance (``{}`` without
    one); raises ``ConfigError`` for anything but a well-formed dump and a
    sidecar of valid JSON, and ``FileNotFoundError`` for no file."""
    if os.path.isdir(path):
        raise ConfigError(f"{path} is a directory, not a field dump")
    with open(path, "rb") as fh:
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
        grid = SpaceTimeGrid(N=n, M1=m1, M2=m2)
        data = np.empty((n + 1, m1 + 1, m2 + 1), dtype="<f8")
        if fh.readinto(data) != 8 * count:
            raise ConfigError(f"{path} is truncated ({count} values expected)")
    values = data.astype(np.float64, copy=False)
    provenance = {}
    meta = _meta_path(path)
    if os.path.exists(meta):
        with open(meta, "rb") as fh:
            try:
                provenance = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigError(f"{meta} is not valid JSON: {exc}") from exc
    return FieldSample(values=values, grid=grid, provenance=provenance)
