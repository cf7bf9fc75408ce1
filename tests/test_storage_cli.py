"""Persistence round-trips, ingestion, and the CLI surface."""

import copy
import hashlib
import json
import math
import pickle
import struct
import subprocess
import sys

import numpy as np
import pytest

from entrange import exact1d, exactnd, storage, sweep1d
from entrange.approx import (
    DualAccessOracle,
    EstimatorConfig,
    EstimatorIndex,
    estimate_additive,
    estimate_additive_renyi,
    estimate_multiplicative,
    estimate_multiplicative_renyi,
)
from entrange.core import ColoredPointSet, QueryRect, SHANNON, renyi_kind
from entrange.errors import (
    DataFormatError,
    EmptyRange,
    IndexKindMismatch,
    InvalidWeight,
    NotAnIndex,
    UnsupportedVersion,
)
from entrange.oracle import brute_entropy

from conftest import random_pointset, random_rect


def write_csv(path, rows, header="x1,x2,color,weight"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


NINE_POINT_ROWS = [
    "1,1,red", "2,2,red",
    "1,3,green", "2,4,green", "3,1,green",
    "3,3,blue", "4,2,blue", "4,4,blue", "2.5,2.5,blue",
]


def test_ingest_nine_point_example(tmp_path):
    path = write_csv(tmp_path / "ninepoint.csv", NINE_POINT_ROWS, header="x1,x2,color")
    pts = storage.ingest(path)
    assert len(pts) == 9 and pts.dim == 2 and pts.num_colors == 3
    assert pts.labels == ("red", "green", "blue")
    counts = np.bincount(pts.colors)
    assert counts.tolist() == [2, 3, 4]
    assert np.all(pts.weights == 1.0)


def test_ingest_weights_and_1d(tmp_path):
    # blank rows, empty or of blank cells, are skipped
    path = write_csv(tmp_path / "w.csv", ["0,a,2.5", "", " , ,", "1,b,0.5", ""],
                     header="x1,color,weight")
    pts = storage.ingest(path)
    assert pts.dim == 1
    assert pts.weights.tolist() == [2.5, 0.5]


def test_ingest_header_only(tmp_path):
    path = write_csv(tmp_path / "empty.csv", [], header="x1,color")
    pts = storage.ingest(path)
    assert len(pts) == 0


def test_ingest_errors_carry_line_numbers(tmp_path, capsys):
    # each malformed file is refused as a DataFormatError, naming the line
    # where there is one, and a build from it exits 3
    cases = {
        "x1,color,weight\n0,a,1\noops,b,1\n": ":3: bad coordinate",
        "x1,color,weight\n0,a,-2\n": "nonnegative",
        "x1,color,weight\ninf,a,1\n": "non-finite",
        "a,b\n1,2\n": "x1..xd",
        "x1,label\n1,a\n": "'color' column",
        "x1,color,weight\n0,a,1\n1,b\n": ":3: expected 3 columns, got 2",
        "x1,color,weight\n0,a,heavy\n": ":2: bad weight",
        "": "empty file",
    }
    path = tmp_path / "bad.csv"
    for text, match in cases.items():
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            storage.ingest(path)
        assert run_cli("build", "--input", str(path), "--kind", "exact1d",
                       "--out", str(tmp_path / "o.rqe")) == 3, text
        assert capsys.readouterr().err.startswith("data error: ")


def test_non_finite_weights_refused(tmp_path, rng, capsys):
    # built directly, read from a CSV, or found in an index file whose
    # digest and manifest are right
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidWeight, match="finite"):
            ColoredPointSet([[0.0], [1.0]], [0, 1], [1.0, bad])
    csv_path = write_csv(tmp_path / "nan.csv", ["0,a,1", "1,b,nan"], header="x1,color,weight")
    idx_path = tmp_path / "nan.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "exact1d",
                   "--out", str(idx_path)) == 3
    assert not idx_path.exists()
    pts = random_pointset(rng, 20, d=1, m=3, weighted=True)
    storage.save_index(idx_path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
    data = idx_path.read_bytes()
    at = len(storage.MAGIC) + 1
    (size,) = struct.unpack(">I", data[at:at + 4])
    start = at + 4 + size
    payload = bytearray(data[start:])
    weights = next(e for e in json.loads(data[at + 4:start])["arrays"] if e["name"] == "weights")
    payload[weights["offset"]:weights["offset"] + 8] = struct.pack("<d", math.nan)
    idx_path.write_bytes(edit_header(data[:start], lambda h: h.update(
        sha256=hashlib.sha256(payload).hexdigest())) + bytes(payload))
    with pytest.raises(NotAnIndex, match="finite"):
        storage.load_index(idx_path)
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:100") == 4
    capsys.readouterr()


def test_ingest_large_synthetic_roundtrip(tmp_path, rng):
    n = 100_000
    colors = rng.integers(0, 40, size=n)
    coords = rng.uniform(0, 100, size=n)
    rows = [f"{float(coords[i])!r},c{colors[i]}" for i in range(n)]
    path = write_csv(tmp_path / "big.csv", rows, header="x1,color")
    pts = storage.ingest(path)
    assert len(pts) == n
    # interning keeps per-label masses
    for label_id, label in enumerate(pts.labels):
        want = int((colors == int(label[1:])).sum())
        assert int((pts.colors == label_id).sum()) == want


def test_cli_usage_error_exit_code():
    from entrange.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["query"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# save/load


def _indexes_for_roundtrip(pts1, pts2):
    return [
        ("exact1d", exact1d.Exact1DIndex(pts1, 0.5, (2.0,))),
        ("exactnd", exactnd.ExactNDIndex(pts2, 0.5, (2.0,))),
        ("sweep-shannon", sweep1d.build_shannon(pts1, 0.3)),
        ("sweep-renyi", sweep1d.build_renyi(pts1, 0.3, 2.0)),
        ("estimator", EstimatorIndex(pts2)),
    ]


def test_save_load_roundtrip_identical_answers(tmp_path, rng, always_sample):
    pts1 = random_pointset(rng, 150, d=1, m=9)
    pts2 = random_pointset(rng, 150, d=2, m=9)
    rects1 = [QueryRect.interval(*sorted(rng.uniform(0, 100, 2))) for _ in range(40)]
    rects2 = []
    for _ in range(40):
        a = rng.uniform(0, 100, 2)
        b = rng.uniform(0, 100, 2)
        rects2.append(QueryRect(tuple(np.minimum(a, b)), tuple(np.maximum(a, b))))
    by_kind = {}
    for kind, index in _indexes_for_roundtrip(pts1, pts2):
        path = tmp_path / f"{kind}.rqe"
        storage.save_index(path, kind, index)
        got_kind, header, loaded = by_kind[kind] = storage.load_index(path)
        assert got_kind == kind
        if kind in ("exact1d", "exactnd"):
            rects = rects1 if kind == "exact1d" else rects2
            for rect in rects:
                a = index.query(rect, renyi_kind(2.0))
                b = loaded.query(rect, renyi_kind(2.0))
                assert a.value == b.value and a.count == b.count
        elif kind.startswith("sweep"):
            for rect in rects1:
                assert index.query(rect) == loaded.query(rect)
        else:
            cfg = EstimatorConfig(c_add=0.05)
            for rect in rects2[:10]:
                try:
                    a = estimate_additive(index, rect, 0.3, cfg, np.random.default_rng(5))
                    b = estimate_additive(loaded, rect, 0.3, cfg, np.random.default_rng(5))
                except Exception:
                    continue
                assert a.value == b.value
    # both d-D kinds load as the one index, which answers alike from either file
    nd, est = by_kind["exactnd"][2], by_kind["estimator"][2]
    assert type(nd) is type(est) is exactnd.ExactNDIndex
    assert (nd.orders, est.orders) == ((2.0,), ())
    assert "orders" not in by_kind["estimator"][1]["scalars"]
    cfg = EstimatorConfig(c_add=0.05, c_mult=0.05, c_mom=0.05)
    estimators = [
        lambda index, rect, rng: estimate_additive(index, rect, 0.3, cfg, rng),
        lambda index, rect, rng: estimate_multiplicative(index, rect, 0.3, cfg, rng),
        lambda index, rect, rng: estimate_additive_renyi(index, rect, 2.0, 0.3, cfg, rng),
        lambda index, rect, rng: estimate_multiplicative_renyi(index, rect, 2.0, 0.3, cfg, rng),
    ]
    for rect in rects2:
        assert nd.query(rect, SHANNON) == est.query(rect, SHANNON)
        for estimate in estimators:
            got = []
            for index in (nd, est):
                try:
                    got.append(estimate(index, rect, np.random.default_rng(7)))
                except EmptyRange:
                    got.append(EmptyRange)
            assert got[0] == got[1]


def test_exactnd_file_without_orders(tmp_path, rng):
    # an exactnd file of no orders holds no "orders" scalar, so it is an
    # estimator file with the other kind name; one that holds an empty list,
    # as earlier builds wrote, loads with no orders
    pts = random_pointset(rng, 40, d=2, m=5)
    files = {}
    for kind in ("exactnd", "estimator"):
        storage.save_index(tmp_path / kind, kind, exactnd.ExactNDIndex(pts))
        files[kind] = (tmp_path / kind).read_bytes()
    assert edit_header(files["estimator"], lambda h: h.update(kind="exactnd")) == files["exactnd"]
    path = tmp_path / "empty-orders"
    path.write_bytes(edit_header(files["exactnd"], lambda h: h["scalars"].update(orders=[])))
    kind, header, loaded = storage.load_index(path, expect_kind="exactnd")
    assert header["scalars"]["orders"] == [] and loaded.orders == ()
    assert loaded.query(QueryRect.full(2)) == exactnd.ExactNDIndex(pts).query(QueryRect.full(2))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.rqe"
    path.write_bytes(b"NOTANINDEX")
    with pytest.raises(NotAnIndex):
        storage.load_index(path)


def test_load_rejects_truncation(tmp_path, rng, capsys):
    # cut inside the magic, before the version byte, inside the header's
    # length, inside the header and inside the payload
    pts = random_pointset(rng, 30, d=1)
    path = tmp_path / "x.rqe"
    storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
    data = path.read_bytes()
    in_header = len(storage.MAGIC) + 1 + 4 + 10   # ten bytes into the header
    for cut in (3, len(storage.MAGIC), 8, 10, in_header, len(data) // 2):
        path.write_bytes(data[:cut])
        with pytest.raises(NotAnIndex):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4, cut
    capsys.readouterr()


def test_save_refuses_what_no_file_can_hold(tmp_path, rng):
    # an unknown kind, an index of another class, an array on a dtype
    # outside storage.DTYPES
    index = exact1d.Exact1DIndex(random_pointset(rng, 20, d=1), 0.5)
    path = tmp_path / "s.rqe"
    with pytest.raises(ValueError, match="unknown index kind"):
        storage.save_index(path, "nope", index)
    with pytest.raises(ValueError, match="is not a 'exactnd' index"):
        storage.save_index(path, "exactnd", index)
    complex_weights = copy.copy(index)
    complex_weights.to_arrays = to_arrays_with(
        index, weights=index.pts.weights.astype(np.complex128))
    with pytest.raises(ValueError, match="a file cannot hold"):
        storage.save_index(path, "exact1d", complex_weights)
    assert not path.exists()


def test_load_rejects_newer_version(tmp_path, rng):
    pts = random_pointset(rng, 10, d=1)
    path = tmp_path / "v.rqe"
    storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
    data = bytearray(path.read_bytes())
    data[len(storage.MAGIC)] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion):
        storage.load_index(path)


def test_load_rejects_older_version(tmp_path, rng, capsys):
    # older payloads pickle index layouts this build no longer has
    pts = random_pointset(rng, 10, d=1)
    for version in range(1, storage.FORMAT_VERSION):
        path = tmp_path / f"v{version}.rqe"
        storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
        data = bytearray(path.read_bytes())
        data[len(storage.MAGIC)] = version
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4
        assert f"version {version}" in capsys.readouterr().err


def test_load_rejects_cross_kind(tmp_path, rng):
    pts = random_pointset(rng, 20, d=1)
    path = tmp_path / "k.rqe"
    storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
    with pytest.raises(IndexKindMismatch):
        storage.load_index(path, expect_kind="exactnd")


def held_arrays(obj, prefix=""):
    """Every numpy array an index holds, by attribute path: its own, and
    those of the library objects it holds (tree, color prefix, points),
    its lists (keys) and its dicts (tables)."""
    out = {}
    for name in getattr(type(obj), "__slots__", None) or vars(obj):
        value, path = getattr(obj, name), prefix + name
        if isinstance(value, np.ndarray):
            out[path] = value
        elif isinstance(value, (list, dict)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            out.update((f"{path}[{key}]", a) for key, a in items)
        elif type(value).__module__.startswith("entrange."):
            out.update(held_arrays(value, path + "."))
    return out


def test_round_trip_stores_bit_equal_arrays_and_derives_the_rest(tmp_path, rng):
    # a file holds the STORED arrays bit for bit; every other array the
    # loaded index holds is derived again and equals the built one, dtype
    # included; the stored ones come back read-only
    cases = [(random_pointset(rng, 150, d=1, m=9, duplicate_frac=0.2),
              random_pointset(rng, 150, d=2, m=9, weighted=True, duplicate_frac=0.2)),
             (ColoredPointSet(np.zeros((0, 1)), np.zeros(0, dtype=np.int64)),
              ColoredPointSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)))]
    for kind, index in (pair for pts in cases for pair in _indexes_for_roundtrip(*pts)):
        path = tmp_path / f"{kind}.rqe"
        storage.save_index(path, kind, index)
        loaded = storage.load_index(path, expect_kind=kind)[2]
        stored, scalars = index.to_arrays()
        got, got_scalars = loaded.to_arrays()
        assert tuple(stored) == tuple(got) == type(index).STORED
        assert got_scalars == scalars
        for name, a in stored.items():
            assert got[name].dtype == a.dtype and got[name].shape == a.shape, (kind, name)
            assert got[name].tobytes() == a.tobytes(), (kind, name)
        want, held = held_arrays(index), held_arrays(loaded)
        assert held.keys() == want.keys()
        for name, a in want.items():
            assert held[name].dtype == a.dtype and np.array_equal(held[name], a), (kind, name)
            if name.rsplit(".", 1)[-1] in type(index).STORED:
                assert not held[name].flags.writeable, (kind, name)


class _Touch:
    """Pickles as a call that creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (str(self.path), "w"))


def test_load_never_unpickles(tmp_path):
    payload = pickle.dumps(_Touch(tmp_path / "proof"))
    pickle.loads(payload).close()   # the payload does run code when unpickled
    assert (tmp_path / "proof").exists()
    payload = pickle.dumps(_Touch(tmp_path / "sentinel"))
    digest = hashlib.sha256(payload).hexdigest()
    path = tmp_path / "pickled.rqe"
    for header in ({"kind": "exact1d"},
                   {"kind": "exact1d", "sha256": digest},
                   {"kind": "exact1d", "sha256": digest, "arrays": [], "scalars": {}}):
        raw = json.dumps(header).encode()
        path.write_bytes(storage.MAGIC + bytes([storage.FORMAT_VERSION])
                         + struct.pack(">I", len(raw)) + raw + payload)
        with pytest.raises(NotAnIndex):
            storage.load_index(path)
        assert not (tmp_path / "sentinel").exists()


def edit_header(data: bytes, edit) -> bytes:
    """``data``, an index file, with ``edit`` applied to its parsed header."""
    at = len(storage.MAGIC) + 1
    (size,) = struct.unpack(">I", data[at:at + 4])
    header = json.loads(data[at + 4:at + 4 + size])
    edit(header)
    return with_header(data, json.dumps(header).encode())


def with_header(data: bytes, raw: bytes) -> bytes:
    """``data``, an index file, with ``raw`` as its header bytes."""
    at = len(storage.MAGIC) + 1
    (size,) = struct.unpack(">I", data[at:at + 4])
    return data[:at] + struct.pack(">I", len(raw)) + raw + data[at + 4 + size:]


def entry(name, **change):
    """A header edit that changes the manifest entry of array ``name``;
    a callable value maps the entry's old value to the new one."""
    def edit(header):
        found = next(e for e in header["arrays"] if e["name"] == name)
        found.update((k, v(found[k]) if callable(v) else v) for k, v in change.items())
    return edit


def test_load_rejects_tampered_files(tmp_path, rng, capsys):
    pts = random_pointset(rng, 40, d=1, m=5)
    good = tmp_path / "good.rqe"
    # t = 0: 5 colors against the bincount fold's bound of 4, so the file
    # holds a table of every cut pair for the crafted-tables cases
    index = exact1d.Exact1DIndex(pts, 0.0, (2.0,))
    assert index.fold == "sort"
    storage.save_index(good, "exact1d", index)
    data = good.read_bytes()
    kinds, entries = len(index.kinds), len(index.tables[SHANNON])
    flipped = bytearray(data)
    flipped[-1] ^= 0x01   # last byte of the payload
    tampered = [
        bytes(flipped),
        data[:-1],
        with_header(data, b"\xff{}"),   # not UTF-8
        with_header(data, b"{not json"),
        with_header(data, b"[]"),
        edit_header(data, lambda h: h.update(kind="nope")),
        edit_header(data, lambda h: h.update(kind="exactnd")),
        edit_header(data, lambda h: h.update(kind="estimator")),
        edit_header(data, lambda h: h.pop("sha256")),
        edit_header(data, lambda h: h.update(sha256="0" * 64)),
        edit_header(data, lambda h: h.pop("scalars")),
        edit_header(data, lambda h: h["scalars"].pop("t")),
        edit_header(data, lambda h: h.update(arrays=h["arrays"][:-1])),
        edit_header(data, lambda h: h["arrays"].append(dict(h["arrays"][0]))),
        edit_header(data, lambda h: h["arrays"].append(dict(h["arrays"][0], name="extra"))),
        edit_header(data, lambda h: h.update(arrays={})),
        edit_header(data, lambda h: h.update(arrays=["coords", *h["arrays"][1:]])),
        edit_header(data, lambda h: h["arrays"][0].pop("nbytes")),
        edit_header(data, entry("colors", dtype="|O")),
        edit_header(data, entry("colors", dtype=">i8")),
        edit_header(data, entry("colors", dtype="<c16")),
        edit_header(data, entry("colors", dtype="junk")),
        edit_header(data, entry("colors", offset=(len(data) // 64 + 1) * 64)),
        edit_header(data, entry("weights", offset=lambda offset: offset + 8)),
        edit_header(data, entry("colors", offset=-64)),
        edit_header(data, entry("colors", nbytes=8)),
        edit_header(data, entry("colors", shape=[1 << 40])),
        edit_header(data, entry("colors", shape=[-40])),
        edit_header(data, entry("colors", shape=[True])),
        edit_header(data, entry("colors", shape=40)),
        edit_header(data, entry("weights", shape=[20, 2])),
        edit_header(data, entry("tables", shape=[3, 1], nbytes=24)),
        # tables of as many bytes as their shape, but not one upper triangle per kind
        edit_header(data, entry("tables", shape=[kinds, entries - 1],
                                nbytes=kinds * (entries - 1) * 8)),
        edit_header(data, entry("tables", shape=[kinds * entries])),
        edit_header(data, entry("tables", shape=[1, kinds, entries])),
    ]
    path = tmp_path / "bad.rqe"
    for i, raw in enumerate(tampered):
        path.write_bytes(raw)
        with pytest.raises(NotAnIndex):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4, i
    capsys.readouterr()


def test_loaded_exact1d_tables_are_views_of_the_file(tmp_path, rng):
    # a load keeps each kind's table as the file stores it: a view of the
    # payload with the built table's entries, not a copy (t = 0 puts the 7
    # colors past the bincount fold's bound of 4, where an index holds tables)
    pts = random_pointset(rng, 200, d=1, m=7, weighted=True)
    index = exact1d.Exact1DIndex(pts, 0.0, (2.0, 3.0))
    assert index.fold == "sort"
    path = tmp_path / "x.rqe"
    storage.save_index(path, "exact1d", index)
    loaded = storage.load_index(path, expect_kind="exact1d")[2]
    assert loaded.tables.keys() == index.tables.keys()
    for kind, table in loaded.tables.items():
        assert not table.flags.owndata and not table.flags.writeable, kind
        assert table.tobytes() == index.tables[kind].tobytes(), kind


@pytest.mark.parametrize("kind", ["exact1d", "exactnd", "estimator"])
def test_loaded_points_are_views_of_the_file(tmp_path, rng, kind):
    # a load keeps the coordinates and weights as the file stores them: views
    # of the payload, not copies beside it; only the colors are widened
    pts = random_pointset(rng, 200, d=1, m=7, weighted=True)
    index = {"exact1d": lambda: exact1d.Exact1DIndex(pts, 0.5, (2.0,)),
             "exactnd": lambda: exactnd.ExactNDIndex(pts, 0.5),
             "estimator": lambda: EstimatorIndex(pts)}[kind]()
    path = tmp_path / "x.rqe"
    storage.save_index(path, kind, index)
    loaded = storage.load_index(path)[2].pts
    for name in ("coords", "weights"):
        array = getattr(loaded, name)
        assert not array.flags.owndata and not array.flags.writeable, name
        assert array.tobytes() == getattr(index.pts, name).tobytes(), name
    assert loaded.colors.dtype == np.int64 and not loaded.colors.flags.writeable
    assert np.array_equal(loaded.colors, index.pts.colors)


def test_digest_is_checked_before_any_array_is_built(tmp_path, rng, monkeypatch):
    pts = random_pointset(rng, 40, d=1, m=5)
    path = tmp_path / "x.rqe"
    storage.save_index(path, "exact1d", exact1d.Exact1DIndex(pts, 0.5))
    data = bytearray(path.read_bytes())
    data[-8] ^= 0x80
    path.write_bytes(bytes(data))
    monkeypatch.setattr(np, "frombuffer", lambda *a, **k: pytest.fail("array built"))
    with pytest.raises(NotAnIndex, match="digest"):
        storage.load_index(path)


def to_arrays_with(index, **change):
    """A ``to_arrays`` for ``index`` that gives its arrays with ``change``
    applied, so that save_index writes them with a valid digest."""
    arrays, scalars = index.to_arrays()
    return lambda: ({**arrays, **change}, scalars)


def answers(kind, index, rects):
    """What ``index`` answers on each of ``rects``: Shannon and Renyi-2
    (value, count) pairs from the exact kinds, the sweep's summary, or a
    seeded additive estimate; an empty range answers EmptyRange."""
    out = []
    for rect in rects:
        try:
            if kind.startswith("sweep"):
                out.append(index.query(rect))
            elif kind == "estimator":
                out.append(estimate_additive(index, rect, 0.3, EstimatorConfig(c_add=0.05),
                                             np.random.default_rng(5)).value)
            else:
                out.append([(s.value, s.count) for s in (
                    index.query(rect, SHANNON), index.query(rect, renyi_kind(2.0)))])
        except EmptyRange:
            out.append(EmptyRange)
    return out


@pytest.mark.parametrize("m, stored", [(0, "|u1"), (1, "|u1"), (256, "|u1"),
                                       (257, "<u2"), (70_000, "<u4")])
def test_colors_stored_on_narrowest_type(tmp_path, rng, m, stored):
    # every kind's file holds the colors on the narrowest unsigned type of
    # the color count, whichever ids a few points use; a load widens them to
    # int64 again, and the loaded index answers as the built one does
    n = 12 if m else 0
    colors = rng.integers(0, max(m, 1), size=n)
    colors[:1] = m - 1
    pts1 = ColoredPointSet(rng.uniform(0, 100, (n, 1)), colors, num_colors=m)
    pts2 = ColoredPointSet(rng.uniform(0, 100, (n, 2)), colors, rng.uniform(0.5, 3.0, n),
                           num_colors=m)
    rects1 = [random_rect(rng) for _ in range(10)] + [QueryRect.full(1)]
    rects2 = [random_rect(rng, d=2) for _ in range(10)] + [QueryRect.full(2)]
    for kind, index in _indexes_for_roundtrip(pts1, pts2):
        path = tmp_path / f"{kind}.rqe"
        storage.save_index(path, kind, index)
        _, header, loaded = storage.load_index(path, expect_kind=kind)
        dtypes = {e["name"]: e["dtype"] for e in header["arrays"]}
        assert dtypes["colors"] == stored and dtypes["coords"] == "<f8", kind
        pts = loaded.pts if hasattr(loaded, "pts") else loaded.tree.pts
        assert pts.colors.dtype == np.int64 and np.array_equal(pts.colors, colors), kind
        assert pts.num_colors == m, kind
        rects = rects2 if kind in ("exactnd", "estimator") else rects1
        assert answers(kind, loaded, rects) == answers(kind, index, rects), kind


def test_load_refuses_points_on_other_dtypes(tmp_path, rng, capsys):
    # a file whose digest is right but whose points' arrays are not on the
    # dtypes a save writes is refused, not cast: float colors would be
    # truncated (0.7 read as color 0), booleans read as ids
    pts = random_pointset(rng, 40, d=1, m=5, weighted=True)
    colors = pts.colors
    index = exact1d.Exact1DIndex(pts, 0.5)
    path = tmp_path / "bad.rqe"
    storage.save_index(path, "exact1d", index)
    storage.load_index(path)   # as saved, it loads
    cases = {
        "float colors": ("colors are stored as <f8", dict(colors=colors + 0.7)),
        "boolean colors": ("colors are stored as |b1", dict(colors=colors % 2 == 1)),
        "int64 colors, the format-16 layout": ("colors are stored as <i8", dict(colors=colors)),
        "uint16 colors where uint8 fits": ("colors are stored as <u2",
                                           dict(colors=colors.astype(np.uint16))),
        "float32 coordinates": ("coords are stored as <f4",
                                dict(coords=pts.coords.astype(np.float32))),
        "float32 weights": ("weights are stored as <f4",
                            dict(weights=pts.weights.astype(np.float32))),
    }
    for name, (reason, change) in cases.items():
        tampered = copy.copy(index)
        tampered.to_arrays = to_arrays_with(index, **change)
        storage.save_index(path, "exact1d", tampered)
        with pytest.raises(NotAnIndex, match=reason):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4, name
    capsys.readouterr()


def test_load_refuses_exact1d_tables_outside_their_bounds(tmp_path, rng, capsys):
    # a file whose digest is right but whose tables no build of its points
    # writes: every entropy of the D colors that occur (6 of 64 declared)
    # lies in [0, log2 D], so NaN, 1e6 bits, one entry of -1 or log2 D + 0.5
    # is refused; entries at the bounds (and within the slack of a few
    # rounding errors past them) load. t = 0 puts the 6 colors past the
    # bincount fold's bound of 4, where an index holds tables
    pts = ColoredPointSet(rng.uniform(0, 100, size=60), rng.permutation(np.arange(60) % 6),
                          rng.uniform(0.5, 2.0, size=60), num_colors=64)
    index = exact1d.Exact1DIndex(pts, 0.0, orders=(2.0,))
    assert index.fold == "sort"
    tables = index.to_arrays()[0]["tables"]
    path = tmp_path / "tables.rqe"
    top = math.log2(6)
    cases = {
        "all NaN": (r"\[nan, nan\]", np.full_like(tables, np.nan)),
        "tables of 1e6": (r"\[1000000.0, 1000000.0\]", np.full_like(tables, 1e6)),
        "one entry of -1": (r"\[-1.0, ", changed(tables, (1, 3), -1.0)),
        "one entry of +inf": (r", inf\]", changed(tables, (0, 0), np.inf)),
        "log2 D + 0.5": (r"\[3.08", np.full_like(tables, math.log2(6) + 0.5)),
    }
    for name, (reason, bad) in cases.items():
        tampered = copy.copy(index)
        tampered.to_arrays = to_arrays_with(index, tables=bad)
        storage.save_index(path, "exact1d", tampered)
        with pytest.raises(NotAnIndex, match=reason + r".*outside \[0, log2 6 = "):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4, name
    for edge in (np.zeros_like(tables), np.full_like(tables, top),
                 np.full_like(tables, top + 1e-12), np.full_like(tables, -1e-12)):
        tampered = copy.copy(index)
        tampered.to_arrays = to_arrays_with(index, tables=edge)
        storage.save_index(path, "exact1d", tampered)
        storage.load_index(path)
    capsys.readouterr()


def test_load_refuses_exact1d_tables_in_the_bincount_regime(tmp_path, rng, capsys):
    # an index whose colors fold by bincount holds no tables, and its file
    # tables of shape (kinds, 0): a file of its points that holds the upper
    # triangle a sort-regime index would, right entries and all, is refused
    pts = random_pointset(rng, 40, d=1, m=5)
    index = exact1d.Exact1DIndex(pts, 0.5, (2.0,))
    assert index.fold == "bincount" and index.to_arrays()[0]["tables"].shape == (2, 0)
    tampered = copy.copy(index)
    triangle = np.stack(list(index._build_tables().values()))
    tampered.to_arrays = to_arrays_with(index, tables=triangle)
    path = tmp_path / "triangle.rqe"
    storage.save_index(path, "exact1d", tampered)
    with pytest.raises(NotAnIndex, match=r"\(2, 21\) do not fit 2 kinds over 6 buckets in the bi"):
        storage.load_index(path)
    assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4
    capsys.readouterr()


def test_exact1d_renyi_power_sums_out_of_float_range_are_refused(tmp_path, rng, capsys):
    # a build refuses a Renyi order whose power sums leave float range
    # (InvalidWeight, exit 3); a file re-saved with its weights scaled by
    # 1e-300 or 1e300, with a valid digest and tables in [0, log2 D], is
    # refused on load by the same rule (NotAnIndex, exit 4)
    rows = [f"{x},c{x % 5},1e200" for x in range(64)]
    csv_path = write_csv(tmp_path / "heavy.csv", rows, header="x1,color,weight")
    idx_path = tmp_path / "heavy.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "exact1d",
                   "--out", str(idx_path), "--alphas", "2") == 3
    assert not idx_path.exists()
    assert run_cli("build", "--input", str(csv_path), "--kind", "exact1d",
                   "--out", str(idx_path)) == 0   # Shannon alone is kept in range
    pts = ColoredPointSet(rng.uniform(0, 100, 64), rng.integers(0, 5, 64),
                          rng.uniform(0.5, 1.5, 64))
    index = exact1d.Exact1DIndex(pts, 0.5, orders=(2.0,))
    for scale in (1e-300, 1e300):
        tampered = copy.copy(index)
        tampered.to_arrays = to_arrays_with(index, weights=pts.weights * scale)
        storage.save_index(idx_path, "exact1d", tampered)
        with pytest.raises(NotAnIndex, match="Renyi order 2.0 takes power sums out of float"):
            storage.load_index(idx_path)
        assert run_cli("query", "--index", str(idx_path), "--rect", "0:100") == 4, scale
    capsys.readouterr()


def changed(a, at, value):
    """A copy of ``a`` with ``a[at] = value``."""
    a = a.copy()
    a[at] = value
    return a


def test_load_refuses_sweep_ladders_no_build_writes(tmp_path, rng, capsys):
    # every file is written by save_index, so its digest is right: only the
    # ladders (or the points, or the arrays named) are not what a build of
    # its points, eps and alpha writes
    pts = random_pointset(rng, 60, d=1, m=6)
    path = tmp_path / "bad.rqe"
    for kind, idx in (("sweep-shannon", sweep1d.build_shannon(pts, 0.3)),
                      ("sweep-renyi", sweep1d.build_renyi(pts, 0.3, 2.0))):
        first, rank, exp = (a.astype(np.int64)
                            for a in (idx.ladder_first, idx.h_rank, idx.h_exp))
        g = int(np.argmax(np.diff(first) >= 2))   # a node with two jumps or more
        j, top = first[g], idx._terms()[1]
        delimit, bounds, rise = "one run per", "out of range", "rise within"
        cases = {   # name: (what the refusal names, the arrays that differ)
            "one run start short": (delimit, dict(ladder_first=first[:-1])),
            # format 14 kept a run for every node of distinct colors, reachable or not
            "runs for unreachable nodes": (delimit, dict(
                ladder_first=np.concatenate((first, np.full(5, first[-1]))))),
            "runs start past 0": (delimit, dict(ladder_first=changed(first, 0, 1))),
            "run starts fall": (delimit, dict(ladder_first=changed(first, g + 1, first[g] - 1))),
            "runs end short of the pool": (delimit, dict(h_rank=rank[:-1], h_exp=exp[:-1])),
            "fewer exponents than ranks": (delimit, dict(h_exp=exp[:-1])),
            "rank 0": (bounds, dict(h_rank=changed(rank, j, 0))),
            "rank above U": (bounds, dict(h_rank=changed(rank, -1, len(idx.ucoords) + 1))),
            "negative exponent": (bounds, dict(h_exp=changed(exp, j, -1))),
            "exponent above the build's top": (bounds, dict(h_exp=changed(exp, -1, top + 1))),
            # would size the powers table at 8 TB
            "huge exponent": (bounds, dict(h_exp=changed(exp, -1, 10**12))),
            "ranks flat in a run": (rise, dict(h_rank=changed(rank, j + 1, rank[j]))),
            "exponents flat in a run": (rise, dict(h_exp=changed(exp, j + 1, exp[j]))),
            "float ranks": ("integer arrays", dict(h_rank=rank.astype(np.float64))),
            "2-D run starts": ("integer arrays", dict(ladder_first=first[:, None])),
            # a sweep file holds no weights, since a build takes only 1: one
            # that carries weights, here of 2, does not name the kind's arrays
            "stored weights": ("manifest names", dict(
                to_arrays=to_arrays_with(idx, weights=np.full(len(pts), 2.0)))),
            "2-D points": ("1-D points", dict(
                pts=ColoredPointSet(np.repeat(pts.coords, 2, axis=1), pts.colors))),
            "eps below a float step": ("too small", dict(eps=1e-300)),
        }
        storage.save_index(path, kind, copy.copy(idx))
        storage.load_index(path, expect_kind=kind)   # an unchanged copy loads
        for name, (reason, arrays) in cases.items():
            tampered = copy.copy(idx)
            for attr, value in arrays.items():
                setattr(tampered, attr, value)
            storage.save_index(path, kind, tampered)
            with pytest.raises(NotAnIndex, match=reason):
                storage.load_index(path)
            assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4, (kind, name)
    capsys.readouterr()


def test_sweep_kind_must_match_its_alpha(tmp_path, rng, capsys):
    # sweep-shannon names a sweep without alpha and sweep-renyi one with:
    # a save refuses the other kind, and a load refuses a file relabelled
    # so (its digest covers the payload only), which the CLI once served
    # with the wrong bounds or a TypeError
    pts = random_pointset(rng, 40, d=1, m=5)
    path = tmp_path / "sweep.rqe"
    for kind, idx, other, query in (
            ("sweep-renyi", sweep1d.build_renyi(pts, 0.3, 3.0), "sweep-shannon",
             ("--kind", "shannon")),
            ("sweep-shannon", sweep1d.build_shannon(pts, 0.3), "sweep-renyi",
             ("--kind", "renyi", "--alpha", "2"))):
        with pytest.raises(ValueError, match="alpha"):
            storage.save_index(path, other, idx)
        storage.save_index(path, kind, idx)
        path.write_bytes(edit_header(path.read_bytes(), lambda header: header.update(kind=other)))
        with pytest.raises(NotAnIndex, match="alpha"):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100",
                       "--mode", "deterministic", *query) == 4, kind
    capsys.readouterr()


def test_sweep_file_with_an_alpha_whose_terms_overflow_is_refused(tmp_path, rng, capsys):
    # a file that claims a Renyi order whose f(n) = n^alpha overflows a float
    # is not a sweep index a build writes: it loads as NotAnIndex naming alpha
    # and n, not as a bare OverflowError, and the CLI exits with code 4
    pts = random_pointset(rng, 60, d=1, m=6)
    tampered = copy.copy(sweep1d.build_renyi(pts, 0.3, 2.0))
    tampered.alpha = 1000.0
    path = tmp_path / "alpha.rqe"
    storage.save_index(path, "sweep-renyi", tampered)
    with pytest.raises(NotAnIndex, match="alpha 1000.0 is too high for 60 points"):
        storage.load_index(path)
    assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4
    capsys.readouterr()


def queried_indexes(rng):
    """An estimator index, both exact indexes and both sweep kinds, each
    with a function of an index giving its answers (the estimator's sampled
    with a generator seeded 0), queried once so that each holds its views."""
    pts2, pts1 = random_pointset(rng, 300, d=2, m=8, weighted=True), random_pointset(rng, 300)
    rects = [QueryRect.full(2)] + [random_rect(rng, d=2) for _ in range(30)]
    intervals = [QueryRect.full(1)] + [random_rect(rng, d=1) for _ in range(30)]
    cfg = EstimatorConfig(c_add=0.2, c_mult=2.0, c_mom=0.05, moment_c1=1.0, moment_c2=1.0)

    def estimates(idx):
        g = np.random.default_rng(0)
        return [estimate_additive(idx, r, 0.25, cfg, g).value for r in rects
                if not DualAccessOracle(idx, r).is_empty]

    cases = [
        (EstimatorIndex(pts2), estimates),
        (exactnd.ExactNDIndex(pts2, t=0.5, orders=(2.0,)),
         lambda idx: [idx.query(r, k) for r in rects for k in (SHANNON, renyi_kind(2.0))]),
        (exact1d.Exact1DIndex(pts1, t=0.5, orders=(2.0,)),
         lambda idx: [idx.query(r, k) for r in intervals for k in (SHANNON, renyi_kind(2.0))]),
        (sweep1d.build_shannon(pts1, 0.3), lambda idx: [idx.query(r) for r in intervals]),
        (sweep1d.build_renyi(pts1, 0.3, 2.0), lambda idx: [idx.query(r) for r in intervals]),
    ]
    for idx, answers in cases:
        answers(idx)
    return cases


def test_copies_of_a_queried_index_answer_alike(rng, always_sample):
    # a queried index holds memoryviews of its arrays, which no pickle holds:
    # a pickle round trip, a copy and a deep copy each make their own views
    # and answer bit for bit as the index does
    for idx, answers in queried_indexes(rng):
        tree = getattr(idx, "tree", idx)
        assert "_views" in vars(tree)
        want = answers(idx)
        copies = (pickle.loads(pickle.dumps(idx)), copy.copy(idx), copy.deepcopy(idx))
        for other in copies:
            assert answers(other) == want, type(idx).__name__
        assert "_views" not in pickle.loads(pickle.dumps(tree)).__dict__


def test_format_13_sweep_files_are_refused(tmp_path, rng):
    # format 13 stored the sweep's mapped points, rows, node keys, slots and
    # count ladder: its version byte is refused, and so is its layout
    # behind the current version byte
    pts = random_pointset(rng, 40, d=1, m=5)
    path = tmp_path / "s.rqe"
    storage.save_index(path, "sweep-renyi", sweep1d.build_renyi(pts, 0.3, 2.0))
    data = bytearray(path.read_bytes())
    data[len(storage.MAGIC)] = 13
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion, match="version 13"):
        storage.load_index(path)
    data[len(storage.MAGIC)] = storage.FORMAT_VERSION
    for name in ("gid_slots", "s_rank", "count_exps"):
        path.write_bytes(edit_header(bytes(data), lambda h: h["arrays"].append(
            dict(h["arrays"][-1], name=name))))
        with pytest.raises(NotAnIndex, match="manifest names"):
            storage.load_index(path)


def format_15_ladders(idx):
    """The ladders a format-15 build of ``idx``'s points stored: a run for
    every node of two or more points that ``idx`` holds, and one for every
    one-point node a query can take (the root of a primary span where that
    span first appears, or a left child, ending within its span's reach),
    all in (depth, start, stop) order. A one-point node's run is the ladder
    of f over its one color's counts from x_v on."""
    stride = idx.n + 1
    runs = {int(key): (idx.h_rank[lo:hi], idx.h_exp[lo:hi]) for key, lo, hi in zip(
        idx.node_keys, idx.ladder_first[:-1], idx.ladder_first[1:])}
    coords = idx.pts.coords[:, 0]
    prim = [(0, idx.n, 0)]
    while prim:
        p, e, depth = prim.pop()
        reach = p + int((idx.my[idx.rows[depth, p:e]] < idx.mx[p:e].min()).sum())
        sec = [(p, e, True)]
        while sec:
            lo, hi, takeable = sec.pop()
            if hi - lo >= 2:
                sec += [(lo, (lo + hi) // 2, True), ((lo + hi) // 2, hi, False)]
            elif takeable and hi <= reach:
                i = idx.rows[depth, lo]
                mine = np.sort(coords[(idx.pts.colors == idx.mcolor[i]) & (coords >= idx.mx[i])])
                last = np.append(mine[1:] != mine[:-1], True)
                values = idx._f[np.flatnonzero(last) + 1]   # f of the count at each coordinate
                ranks = idx.ucoords.searchsorted(mine[last], side="right")[values > 0]
                exps = sweep1d._exponents(values[values > 0], idx._base, idx._log_base)
                rise = np.append(True, exps[1:] > exps[:-1])[:len(exps)]
                runs[(depth * stride + lo) * stride + hi] = (ranks[rise], exps[rise])
        if e - p >= 2:
            prim += [(p, (p + e) // 2, depth + 1), ((p + e) // 2, e, depth + 1)]
    ordered = [runs[key] for key in sorted(runs)]
    first = np.cumsum([0] + [len(r) for r, _ in ordered])
    return (sweep1d._narrow(first),
            np.concatenate([r for r, _ in ordered]).astype(idx.h_rank.dtype),
            np.concatenate([x for _, x in ordered]).astype(idx.h_exp.dtype))


def test_format_15_sweep_files_are_refused(tmp_path, rng, capsys):
    # format 15 stored a ladder for every one-point node a query can take:
    # its version byte is refused, and so are its runs behind the current
    # version byte, with a valid digest, through the API and the CLI
    pts = random_pointset(rng, 60, d=1, m=6, duplicate_frac=0.2)
    path = tmp_path / "s.rqe"
    for kind, idx in (("sweep-shannon", sweep1d.build_shannon(pts, 0.3)),
                      ("sweep-renyi", sweep1d.build_renyi(pts, 0.3, 2.0))):
        storage.save_index(path, kind, idx)
        data = bytearray(path.read_bytes())
        data[len(storage.MAGIC)] = 15
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion, match="version 15"):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4
        old = copy.copy(idx)
        old.ladder_first, old.h_rank, old.h_exp = format_15_ladders(idx)
        # most stored nodes were one-point nodes, and so were most jumps
        assert len(old.ladder_first) > 2 * len(idx.ladder_first)
        assert len(old.h_rank) > 2 * len(idx.h_rank)
        storage.save_index(path, kind, old)
        with pytest.raises(NotAnIndex, match="one run per"):
            storage.load_index(path)
        assert run_cli("query", "--index", str(path), "--rect", "0:100") == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI (in-process via main())


def run_cli(*argv):
    from entrange.cli import main

    return main(list(argv))


def test_cli_build_query_roundtrip(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "ninepoint.csv", NINE_POINT_ROWS, header="x1,x2,color")
    idx_path = tmp_path / "ninepoint.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "exactnd",
                   "--out", str(idx_path), "--t", "0.5", "--alphas", "2") == 0
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:5,0:5",
                   "--kind", "shannon", "--mode", "exact", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.5304930567574824) < 1e-6
    assert out["mode"] == "exact"
    assert "wall_time_us" in out
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:5,0:5",
                   "--kind", "renyi", "--alpha", "2", "--mode", "exact", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.4818690077570527) < 1e-6


def test_cli_underflowed_moment_exit_code(tmp_path, capsys):
    # six equal colors: at alpha 1000 the Renyi moment, (1/6)^999, underflows
    # to 0, and the query is refused as Underflow (exit code 3)
    rows = [f"{i},{i % 7},c{i % 6}" for i in range(60)]
    csv_path = write_csv(tmp_path / "six.csv", rows, header="x1,x2,color")
    idx_path = tmp_path / "six.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "exactnd",
                   "--out", str(idx_path), "--alphas", "1000") == 0
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "*:*,*:*",
                   "--kind", "renyi", "--alpha", "1000") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflowed to 0" in err and "Traceback" not in err


def test_cli_rect_wildcards(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "d.csv", ["0,a", "1,a", "2,b"], header="x1,color")
    idx_path = tmp_path / "d.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "exact1d", "--out", str(idx_path))
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "*:*", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 3.0


def test_cli_mode_kind_mismatch_exit_code(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "d.csv", ["0,a", "1,b"], header="x1,color")
    idx_path = tmp_path / "d.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "exact1d", "--out", str(idx_path))
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:1",
                   "--mode", "additive") == 4
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:1",
                   "--mode", "deterministic") == 4
    assert "needs a sweep index" in capsys.readouterr().err


def test_cli_sweep_renyi_build_and_deterministic_query(tmp_path, capsys):
    rows = [f"{i},{'abc'[i % 3]}" for i in range(30)]
    csv_path = write_csv(tmp_path / "r.csv", rows, header="x1,color")
    idx_path = tmp_path / "r.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "sweep-renyi",
                   "--out", str(idx_path), "--epsilon", "0.3", "--alpha", "3") == 0
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:29", "--kind", "renyi",
                   "--alpha", "3", "--mode", "deterministic", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds_claimed"] == {"lower": "H_a", "upper": "H_a+0.6"}
    assert out["count"] == 30.0 and out["kind"] == "renyi(3)"
    # the range holds three equal colors: log2 3 <= h <= log2 3 + 0.6
    assert math.log2(3) - 1e-9 <= out["value"] <= math.log2(3) + 0.6 + 1e-9
    refusals = {  # every one is an index error, exit 4
        "cannot answer shannon queries": ("--mode", "deterministic"),
        "index built for alpha=3.0, asked 2.0": ("--mode", "deterministic", "--kind", "renyi",
                                                 "--alpha", "2"),
        "mode=exact needs an exact index": ("--mode", "exact"),
    }
    for message, flags in refusals.items():
        assert run_cli("query", "--index", str(idx_path), "--rect", "0:29", *flags) == 4
        assert message in capsys.readouterr().err


def test_cli_query_refuses_bad_rects_and_accuracy(tmp_path, capsys):
    # a rect component without ':', a rect of another dimension than the
    # index's and an estimator accuracy outside (0, 1) are data errors, exit 3
    rows = [f"{i},{i % 3},{'ab'[i % 2]}" for i in range(16)]
    csv_path = write_csv(tmp_path / "e.csv", rows, header="x1,x2,color")
    idx_path = tmp_path / "e.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "estimator", "--out", str(idx_path))
    capsys.readouterr()
    cases = {
        "bad rect component '0'": ("--rect", "0,0:2"),
        "rect dim 1 != tree dim 2": ("--rect", "0:15", "--mode", "additive"),
        "delta must lie in (0, 1), got 1.5": ("--rect", "0:15,0:2", "--mode", "additive",
                                              "--delta", "1.5"),
    }
    for message, flags in cases.items():
        assert run_cli("query", "--index", str(idx_path), *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err, err


def test_cli_multiplicative_query(tmp_path, capsys):
    rows = [f"{i},{'aab'[i % 3]}" for i in range(64)]
    csv_path = write_csv(tmp_path / "m.csv", rows, header="x1,color")
    idx_path = tmp_path / "m.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "estimator", "--out", str(idx_path))
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:63", "--mode",
                   "multiplicative", "--epsilon", "0.25", "--seed", "3", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds_claimed"] == {"factor": 1.25, "confidence": "whp"}
    assert out["count"] == 64.0 and out["mode"] == "multiplicative"
    # 43 of color a and 21 of b: the answer within its (1+eps) factor
    truth = brute_entropy(storage.ingest(csv_path), QueryRect.interval(0, 63), SHANNON).value
    assert truth / 1.25 <= out["value"] <= 1.25 * truth


def test_nan_bound_refused_by_every_index_kind(rng):
    # a NaN bound used to answer "empty range" everywhere; now no rect carries one
    pts1 = random_pointset(rng, 40, d=1, m=5)
    pts2 = random_pointset(rng, 40, d=2, m=5)
    cfg = EstimatorConfig()
    queries = {
        "exact1d": lambda r: exact1d.Exact1DIndex(pts1, 0.5).query(r, SHANNON),
        "exactnd": lambda r: exactnd.ExactNDIndex(pts2, 0.5).query(r, SHANNON),
        "sweep": lambda r: sweep1d.build_shannon(pts1, 0.3).query(r),
        "estimator": lambda r: estimate_additive(EstimatorIndex(pts2), r, 0.2, cfg, rng),
        "brute": lambda r: brute_entropy(pts1, r, SHANNON),
    }
    for name, query in queries.items():
        dim = 2 if name in ("exactnd", "estimator") else 1
        with pytest.raises(ValueError, match="NaN"):
            query(QueryRect((float("nan"),) * dim, (50.0,) * dim))


def test_cli_nan_bound_exit_code(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "d.csv", ["0,a", "1,b"], header="x1,color")
    idx_path = tmp_path / "d.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "sweep-shannon", "--out", str(idx_path))
    capsys.readouterr()
    assert run_cli("query", "--index", str(idx_path), "--rect", "nan:1",
                   "--mode", "deterministic") == 3
    assert "NaN" in capsys.readouterr().err


def test_cli_builds_sweep_at_small_eps(tmp_path, capsys):
    # a build at eps 1e-15 sized a powers table of 190 PiB and died with a
    # bare MemoryError; it now exits 0 and its index answers
    rows = [f"{i % 37}.5,{'abcde'[i % 5]}" for i in range(64)]
    csv_path = write_csv(tmp_path / "s.csv", rows, header="x1,color")
    idx_path = tmp_path / "s.rqe"
    assert run_cli("build", "--input", str(csv_path), "--kind", "sweep-shannon",
                   "--out", str(idx_path), "--epsilon", "1e-15") == 0
    assert run_cli("query", "--index", str(idx_path), "--rect", "0:40",
                   "--mode", "deterministic") == 0
    assert "entropy" in capsys.readouterr().out


def test_cli_missing_input_exit_code(tmp_path, capsys):
    assert run_cli("build", "--input", str(tmp_path / "none.csv"),
                   "--kind", "exact1d", "--out", str(tmp_path / "o.rqe")) == 3


def test_cli_seeded_queries_reproducible(tmp_path, capsys):
    rows = [f"{i},{'ab'[i % 2]}" for i in range(64)]
    csv_path = write_csv(tmp_path / "e.csv", rows, header="x1,color")
    idx_path = tmp_path / "e.rqe"
    run_cli("build", "--input", str(csv_path), "--kind", "estimator", "--out", str(idx_path))
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert run_cli("query", "--index", str(idx_path), "--rect", "0:63",
                       "--mode", "additive", "--delta", "0.3", "--seed", "42",
                       "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("wall_time_us")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_cli_partition_json(tmp_path, capsys):
    rows = [f"{i},{'aabb'[i % 4]}" for i in range(16)]
    csv_path = write_csv(tmp_path / "p.csv", rows, header="x1,color")
    outs = []
    for backend in ("oracle", "exact"):
        assert run_cli("partition", "--input", str(csv_path), "--k", "4",
                       "--algorithm", "dp", "--backend", backend, "--json") == 0
        outs.append(json.loads(capsys.readouterr().out))
    out, exact = outs
    assert out["k"] == 4
    assert len(out["bucket_scores"]) == 4
    assert out["cuts"][0] == 0 and out["cuts"][-1] == 16
    assert exact["value"] == pytest.approx(out["value"], abs=1e-9)
    with pytest.raises(SystemExit):  # the exact backend builds its own one-bucket index
        run_cli("partition", "--input", str(csv_path), "--k", "4", "--t", "0.5")


def test_cli_partition_greedy_tree(tmp_path, capsys):
    rows = []
    for i in range(8):
        rows.append(f"{i % 4},{i // 4},c{i % 2}")
    csv_path = write_csv(tmp_path / "g.csv", rows, header="x1,x2,color")
    assert run_cli("partition", "--input", str(csv_path), "--k", "3",
                   "--algorithm", "greedy-tree", "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["leaves"]) == 3


def test_cli_partition_algorithms_and_backends(tmp_path, capsys):
    rows = [f"{i},{'aabbc'[i % 5]}" for i in range(16)]
    csv_path = write_csv(tmp_path / "p.csv", rows, header="x1,color")

    def partition(*flags):
        assert run_cli("partition", "--input", str(csv_path), "--k", "4", *flags, "--json") == 0
        return json.loads(capsys.readouterr().out)

    best = partition("--algorithm", "dp")["value"]
    for backend in ("oracle", "exact"):
        out = partition("--algorithm", "maxpart-approx", "--backend", backend, "--epsilon", "0.1")
        assert len(out["cuts"]) == 5 and out["value"] == max(out["bucket_scores"])
        assert best - 1e-9 <= out["value"] <= 1.1 * best + 1e-9
        out = partition("--algorithm", "sumpart", "--backend", backend, "--epsilon", "0.1")
        assert len(out["cuts"]) == 5
        assert out["value"] == pytest.approx(sum(out["bucket_scores"]))
    out = partition("--backend", "estimate", "--delta", "0.2", "--seed", "1")
    assert out["backend"] == {"backend": "estimate", "mode": "additive", "kind": "shannon",
                              "delta": 0.2}
    assert len(out["cuts"]) == 5 and out["cuts"][0] == 0 and out["cuts"][-1] == 16


def test_cli_partition_greedy_tree_over_an_exact_backend(tmp_path, capsys):
    # 2-D points: the exact backend builds an ExactNDIndex, whose leaves and
    # scores match the oracle's
    rows = [f"{i % 4},{i // 4},{'abc'[i % 3]}" for i in range(16)]
    csv_path = write_csv(tmp_path / "g.csv", rows, header="x1,x2,color")
    outs = []
    for backend in ("oracle", "exact"):
        assert run_cli("partition", "--input", str(csv_path), "--k", "5", "--algorithm",
                       "greedy-tree", "--backend", backend, "--json") == 0
        outs.append(json.loads(capsys.readouterr().out))
    oracle, exact = outs
    assert exact["backend"]["index"] == "ExactNDIndex"
    assert [(leaf["rect"], leaf["points"]) for leaf in exact["leaves"]] == [
        (leaf["rect"], leaf["points"]) for leaf in oracle["leaves"]]
    assert [leaf["score"] for leaf in exact["leaves"]] == pytest.approx(
        [leaf["score"] for leaf in oracle["leaves"]], abs=1e-9)


def test_cli_partition_text_output(tmp_path, capsys):
    rows = [f"{i % 4},{i // 4},{'ab'[i % 2]}" for i in range(8)]
    csv_path = write_csv(tmp_path / "t.csv", rows, header="x1,x2,color")
    assert run_cli("partition", "--input", str(csv_path), "--k", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dp: k=2 value=") and lines[1].startswith("cuts: [0, ")
    assert lines[2].startswith("scores: [") and len(lines) == 3
    assert run_cli("partition", "--input", str(csv_path), "--k", "3",
                   "--algorithm", "greedy-tree") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("greedy-tree: k=3 value=") and len(lines) == 4
    assert all(line.startswith("  rect=[[") and " points=" in line and " score=" in line
               for line in lines[1:])


def test_cli_partition_exact_backend_needs_1d_for_index_ranges(tmp_path, capsys):
    csv_path = write_csv(tmp_path / "p.csv", ["0,0,a", "1,1,b", "2,0,a"], header="x1,x2,color")
    assert run_cli("partition", "--input", str(csv_path), "--k", "2",
                   "--algorithm", "dp", "--backend", "exact") == 3
    assert "needs 1-D points" in capsys.readouterr().err


def test_cli_entrypoint_subprocess(tmp_path):
    csv_path = write_csv(tmp_path / "s.csv", ["0,a", "1,b"], header="x1,color")
    idx = tmp_path / "s.rqe"
    proc = subprocess.run(
        [sys.executable, "-m", "entrange.cli", "build", "--input", str(csv_path),
         "--kind", "exact1d", "--out", str(idx)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "entrange.cli", "query", "--index", str(idx),
         "--rect", "0:1", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["value"] - 1.0) < 1e-9
