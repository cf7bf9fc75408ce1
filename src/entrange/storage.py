"""Index persistence: magic-tagged, versioned, checked files, plus CSV ingestion.

File layout (format 18): 7 magic bytes ``RQEIDX1``, one version byte, a
4-byte big-endian header length, a JSON header, then the payload of raw
array buffers. The header holds:

  * ``kind``, the index kind;
  * ``scalars``, the index's scalars (t, orders, eps, alpha, the color
    count and labels, as each kind needs);
  * ``arrays``, the manifest: per array its name, little-endian dtype
    string, shape, byte offset into the payload (a multiple of 64) and
    byte length;
  * ``sha256``, the hex digest of the payload.

An index stores only the arrays it cannot derive from others (each class's
``STORED``, written by its ``to_arrays`` and read by its ``from_arrays``,
which derives the rest with the same code its build runs). The points are
their coordinates and weights on float64, and their colors on the
narrowest unsigned type that holds the color count's ids
(``core.color_type``: uint8 up to 256 colors, uint16 up to 65,536), which
a load widens to int64 again:

  * exact1d: the points, and per kind a table's entries above the
    diagonal, row-major, in the sort regime, or none (bincount regime);
  * exactnd and estimator: the points and the range tree's pool of ids,
    and the Renyi orders when there are any. Both kinds load as the one
    :class:`~.exactnd.ExactNDIndex`;
  * sweep-shannon and sweep-renyi: the points' coordinates and colors (a
    sweep's weights are all 1, so its file holds none), and the ladders of
    the nodes of two or more points (jump ranks, their exponents and each
    node's run start).

Loading never runs code: no pickle is involved. It checks the magic, then
the version (a file of any other format version is refused), then the
kind (against an expected kind too, when given). It checks the payload's
digest before it builds any array, and then that the manifest names
exactly the kind's arrays, each of a fixed-width numeric dtype and with a
shape, offset and length that fit the payload. The arrays come back as
read-only views of the payload, with no copy; the colors are then widened
to an int64 copy, and the coordinates and weights stay views
(:func:`.core.frozen`). The points' arrays must be on exactly the dtypes a save
writes: coordinates and weights on float64 and colors on the color count's
type, so float, boolean or wider colors are refused, not cast. A sweep
file's ladders are checked against the layout derived from its points
before the index is used, and its kind against its alpha (none for
sweep-shannon, one for sweep-renyi), on save as on load. Every refusal
raises an :class:`~.errors.IndexFileError` (CLI exit code 4):
``UnsupportedVersion`` for another format version, ``IndexKindMismatch``
for an unexpected kind, and ``NotAnIndex`` for anything else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
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
from .exact1d import Exact1DIndex
from .exactnd import ExactNDIndex
from .sweep1d import Sweep1DIndex

MAGIC = b"RQEIDX1"
FORMAT_VERSION = 18
ALIGN = 64   # every array's offset into the payload is a multiple of this

INDEX_CLASSES = {
    "exact1d": Exact1DIndex,
    "exactnd": ExactNDIndex,
    "sweep-shannon": Sweep1DIndex,
    "sweep-renyi": Sweep1DIndex,
    "estimator": ExactNDIndex,
}
INDEX_KINDS = tuple(INDEX_CLASSES)

# the dtypes a stored array may have: fixed-width numbers, little-endian
DTYPES = frozenset(("|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f4", "<f8"))


def save_index(path: Union[str, Path], kind: str, index) -> None:
    cls = INDEX_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown index kind {kind!r}")
    if not isinstance(index, cls):
        raise ValueError(f"a {type(index).__name__} is not a {kind!r} index")
    if kind.startswith("sweep-") and (kind == "sweep-shannon") != (index.alpha is None):
        raise ValueError(f"a sweep index with alpha={index.alpha} is not a {kind!r} index")
    arrays, scalars = index.to_arrays()
    manifest, chunks, offset = [], [], 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        if array.dtype.str not in DTYPES:
            raise ValueError(f"array {name!r} has dtype {array.dtype}, which a file cannot hold")
        pad = -offset % ALIGN
        chunks.append(bytes(pad))
        offset += pad
        manifest.append({"name": name, "dtype": array.dtype.str, "shape": list(array.shape),
                         "offset": offset, "nbytes": array.nbytes})
        chunks.append(array.reshape(-1).view(np.uint8))
        offset += array.nbytes
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    header = dict(kind=kind, scalars=scalars, arrays=manifest, sha256=digest.hexdigest())
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        fh.write(struct.pack(">I", len(header_bytes)))
        fh.write(header_bytes)
        for chunk in chunks:
            fh.write(chunk)


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
        # the payload is read as its own bytes object, not sliced out of the
        # whole file's: its buffer start is aligned and the header's length
        # is arbitrary, so only here do the 64-byte offsets give aligned
        # arrays (memoryviews of unaligned ones, as a sweep query takes,
        # raise NotImplementedError)
        payload = fh.read()
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, or nested too deep
        raise NotAnIndex(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise NotAnIndex(f"{path}: header is not a JSON object")
    kind = header.get("kind")
    if kind not in INDEX_KINDS:
        raise NotAnIndex(f"{path}: unknown kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise IndexKindMismatch(f"{path}: holds {kind!r}, expected {expect_kind!r}")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise NotAnIndex(f"{path}: payload does not match its digest")
    cls = INDEX_CLASSES[kind]
    arrays = _views(path, header.get("arrays"), payload, cls.STORED)
    scalars = header.get("scalars")
    if not isinstance(scalars, dict):
        raise NotAnIndex(f"{path}: header holds no scalars")
    if kind.startswith("sweep-") and (kind == "sweep-shannon") != (scalars.get("alpha") is None):
        raise NotAnIndex(f"{path}: a {kind!r} file with alpha={scalars.get('alpha')!r}")
    try:
        index = cls.from_arrays(arrays, scalars)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise NotAnIndex(f"{path}: arrays do not form a {kind!r} index: {exc!r}") from None
    return kind, header, index


def _views(path, manifest, payload: bytes, names: tuple) -> dict:
    """The manifest's arrays as read-only views of the payload, after
    checking that it lists exactly ``names``, each of a dtype in DTYPES and
    with a shape, offset and length that fit the payload."""
    if not isinstance(manifest, list):
        raise NotAnIndex(f"{path}: header holds no array manifest")
    arrays = {}
    for entry in manifest:
        try:
            name, dtype, shape, offset, nbytes = (
                entry[key] for key in ("name", "dtype", "shape", "offset", "nbytes"))
        except (TypeError, KeyError):
            raise NotAnIndex(f"{path}: malformed manifest entry {entry!r}") from None
        if not isinstance(name, str) or name in arrays:
            raise NotAnIndex(f"{path}: bad or repeated array name {name!r}")
        if dtype not in DTYPES:
            raise NotAnIndex(f"{path}: array {name!r} has unsupported dtype {dtype!r}")
        dims = (*shape, offset, nbytes) if isinstance(shape, list) else (None,)
        if not all(type(v) is int and v >= 0 for v in dims):
            raise NotAnIndex(f"{path}: array {name!r} has a malformed shape, offset or length")
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if (offset % ALIGN or nbytes != count * dtype.itemsize
                or offset + nbytes > len(payload)):
            raise NotAnIndex(f"{path}: array {name!r} does not fit the payload")
        arrays[name] = np.ndarray(shape, dtype, buffer=payload, offset=offset)
    if set(arrays) != set(names):
        raise NotAnIndex(f"{path}: manifest names {sorted(arrays)}, expected {sorted(names)}")
    return arrays


# ---------------------------------------------------------------------------
# CSV / TSV ingestion


def ingest(path: Union[str, Path]) -> ColoredPointSet:
    """Read colored points from CSV/TSV: columns x1..xd, color, optional weight.

    The header row is required; colors are interned in first-appearance
    order; omitted weights default to 1. A ``.tsv`` or ``.tab`` suffix means
    tab-separated. Malformed rows raise DataFormatError with their line
    number.
    """
    path = Path(path)
    delim = "\t" if path.suffix.lower() in (".tsv", ".tab") else ","
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
