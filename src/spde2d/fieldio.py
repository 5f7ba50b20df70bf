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
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    with open(_meta_path(path), "w") as fh:
        json.dump(field.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_field(path: str) -> FieldSample:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ConfigError(f"{path} is not a field dump (bad magic {magic!r})")
        header = np.frombuffer(fh.read(16), dtype="<u4")
        version, n, m1, m2 = (int(v) for v in header)
        if version != VERSION:
            raise ConfigError(f"unsupported field dump version {version}")
        count = (n + 1) * (m1 + 1) * (m2 + 1)
        raw = fh.read(8 * count + 1)
        if len(raw) != 8 * count:
            what = "truncated" if len(raw) < 8 * count else "padded"
            raise ConfigError(f"{path} is {what} ({count} values expected)")
        data = np.frombuffer(raw, dtype="<f8")
    grid = SpaceTimeGrid(N=n, M1=m1, M2=m2)
    values = data.astype(np.float64).reshape(n + 1, m1 + 1, m2 + 1)
    provenance = {}
    if os.path.exists(_meta_path(path)):
        with open(_meta_path(path)) as fh:
            provenance = json.load(fh)
    return FieldSample(values=values, grid=grid, provenance=provenance)
