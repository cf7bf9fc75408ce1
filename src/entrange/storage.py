"""Index persistence: magic-tagged, versioned files, plus CSV ingestion.

File layout: 7 magic bytes ``RQEIDX1``, one version byte, a 4-byte
big-endian header length, a JSON header (at least ``{"kind": ...}``), then
a pickle of the index object. Loading verifies the magic, refuses files of
any other format version (a payload pickles the index's internal layout,
which changes between versions), and can enforce an expected kind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pickle
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import ColoredPointSet
from .errors import (
    DataFormatError,
    IndexKindMismatch,
    NotAnIndex,
    UnsupportedVersion,
)

MAGIC = b"RQEIDX1"
FORMAT_VERSION = 12

INDEX_KINDS = ("exact1d", "exactnd", "sweep-shannon", "sweep-renyi", "estimator")


def save_index(path: Union[str, Path], kind: str, index, extra: Optional[dict] = None) -> None:
    if kind not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    header = {"kind": kind}
    if extra:
        header.update(extra)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        fh.write(struct.pack(">I", len(header_bytes)))
        fh.write(header_bytes)
        pickle.dump(index, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_index(path: Union[str, Path], expect_kind: Optional[str] = None):
    """Returns (kind, header dict, index object)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise NotAnIndex(f"{path}: bad magic {magic!r}")
        version_byte = fh.read(1)
        if len(version_byte) != 1:
            raise NotAnIndex(f"{path}: truncated before version byte")
        version = version_byte[0]
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(
                f"{path}: format version {version}, this build reads only {FORMAT_VERSION}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise NotAnIndex(f"{path}: truncated header length")
        (header_len,) = struct.unpack(">I", raw_len)
        header_bytes = fh.read(header_len)
        if len(header_bytes) != header_len:
            raise NotAnIndex(f"{path}: truncated header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise NotAnIndex(f"{path}: unreadable header: {exc}") from None
        kind = header.get("kind")
        if kind not in INDEX_KINDS:
            raise NotAnIndex(f"{path}: unknown kind {kind!r}")
        if expect_kind is not None and kind != expect_kind:
            raise IndexKindMismatch(f"{path}: holds {kind!r}, expected {expect_kind!r}")
        try:
            index = pickle.load(fh)
        except Exception as exc:
            raise NotAnIndex(f"{path}: unreadable payload: {exc}") from None
    return kind, header, index


# ---------------------------------------------------------------------------
# CSV / TSV ingestion


def ingest(path: Union[str, Path], fmt: Optional[str] = None) -> ColoredPointSet:
    """Read colored points from CSV/TSV: columns x1..xd, color, optional weight.

    The header row is required; colors are interned in first-appearance
    order; omitted weights default to 1. Malformed rows raise
    DataFormatError with their line number.
    """
    path = Path(path)
    if fmt is None:
        fmt = "tsv" if path.suffix.lower() in (".tsv", ".tab") else "csv"
    delim = "\t" if fmt == "tsv" else ","
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return ingest_stream(fh, delim, str(path))


def ingest_stream(fh: io.TextIOBase, delim: str = ",", name: str = "<stream>") -> ColoredPointSet:
    reader = csv.reader(fh, delimiter=delim)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{name}: empty file (header row required)") from None
    header = [h.strip().lower() for h in header]
    coord_cols = [i for i, h in enumerate(header) if h.startswith("x") and h[1:].isdigit()]
    expected = [f"x{i + 1}" for i in range(len(coord_cols))]
    if not coord_cols or [header[i] for i in coord_cols] != expected:
        raise DataFormatError(f"{name}: header must carry columns x1..xd, got {header}")
    if "color" not in header:
        raise DataFormatError(f"{name}: header must carry a 'color' column")
    color_col = header.index("color")
    weight_col = header.index("weight") if "weight" in header else None
    d = len(coord_cols)

    coords: list[list[float]] = []
    labels: list[str] = []
    weights: list[float] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise DataFormatError(f"{name}:{lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            xs = [float(row[i]) for i in coord_cols]
        except ValueError as exc:
            raise DataFormatError(f"{name}:{lineno}: bad coordinate: {exc}") from None
        if not all(math.isfinite(x) for x in xs):
            raise DataFormatError(f"{name}:{lineno}: non-finite coordinate")
        if weight_col is not None:
            try:
                w = float(row[weight_col])
            except ValueError as exc:
                raise DataFormatError(f"{name}:{lineno}: bad weight: {exc}") from None
            if not math.isfinite(w) or w < 0:
                raise DataFormatError(f"{name}:{lineno}: weight must be finite and nonnegative")
        else:
            w = 1.0
        coords.append(xs)
        labels.append(row[color_col].strip())
        weights.append(w)

    if not coords:
        return ColoredPointSet(np.zeros((0, d)), np.zeros(0, dtype=np.int64))
    return ColoredPointSet.from_labeled(coords, labels, weights)
