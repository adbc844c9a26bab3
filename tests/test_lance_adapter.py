"""S13 Lance sink adapter: both branches of ``io/lance.py``.

The sandbox has no ``pylance``, so the parquet stand-in is what every
crawl run exercises; these tests additionally pin the REAL-Lance branch
by injecting a fake ``lance`` module, so the non-sandbox path (the one
the north rule's Lance-table output contract actually uses) cannot rot
unnoticed: each ``write_harvest`` call must write its part through
``lance.fragment.write_fragments``, ``commit_harvest`` must make them
one table with exactly one ``LanceDataset.commit`` of an ``Overwrite``,
and ``read_harvest`` must read through ``lance.dataset(uri).to_table()``.
"""

import os
import sys
import types
from unittest import mock

import pyarrow as pa
import pytest

from ragnificent_ray.io import lance as lance_io

HARVEST_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])


def _harvest_table() -> pa.Table:
    return pa.table({
        "image_id": pa.array(["a", "b"], type=pa.string()),
        "bytes": pa.array([b"\x89PNG", b"\xff\xd8"], type=pa.binary()),
        "w": pa.array([4, 8], type=pa.int32()),
        "h": pa.array([4, 8], type=pa.int32()),
        "fmt": pa.array(["png", "jpeg"], type=pa.string()),
        "caption": pa.array(["cap a", "cap b"], type=pa.string()),
        "phash": pa.array([1, 2], type=pa.int64()),
    })


@pytest.fixture
def fake_lance(monkeypatch):
    """A recording stand-in for the pylance module, installed only for
    the duration of a test (HAVE_LANCE flips with it)."""
    calls = {"fragments": [], "commit": [], "read": []}
    mod = types.ModuleType("lance")
    fragment = types.ModuleType("lance.fragment")

    def write_fragments(table, uri, schema=None):
        calls["fragments"].append((table, uri, schema))
        return [f"fragment-{len(calls['fragments'])}"]

    class LanceOperation:
        @staticmethod
        def Overwrite(schema, fragments):
            return ("overwrite", schema, fragments)

    class LanceDataset:
        @staticmethod
        def commit(uri, operation, read_version=None):
            calls["commit"].append((uri, operation))

    def dataset(uri):
        calls["read"].append(uri)
        ds = mock.Mock()
        ds.to_table.return_value = _harvest_table()
        return ds

    fragment.write_fragments = write_fragments
    mod.fragment = fragment
    mod.LanceOperation = LanceOperation
    mod.LanceDataset = LanceDataset
    mod.dataset = dataset
    monkeypatch.setitem(sys.modules, "lance", mod)
    monkeypatch.setitem(sys.modules, "lance.fragment", fragment)
    monkeypatch.setattr(lance_io, "HAVE_LANCE", True)
    return calls


def test_real_lance_writes_a_fragment_per_part_and_commits_once(
        fake_lance, tmp_path):
    t = _harvest_table()
    uri = str(tmp_path / "harvest.lance")
    parts = [lance_io.write_harvest(t.slice(i, 1), uri) for i in range(2)]
    assert [(n.num_rows, u, s.equals(HARVEST_SCHEMA))
            for n, u, s in fake_lance["fragments"]] == [(1, uri, True)] * 2
    assert fake_lance["commit"] == []  # parts are invisible until the commit

    lance_io.commit_harvest(uri, parts, HARVEST_SCHEMA)
    assert len(fake_lance["commit"]) == 1
    got_uri, (op, schema, fragments) = fake_lance["commit"][0]
    assert got_uri == uri and op == "overwrite"
    assert schema.equals(HARVEST_SCHEMA)
    assert fragments == ["fragment-1", "fragment-2"]


def test_real_lance_empty_part_writes_no_fragment(fake_lance, tmp_path):
    uri = str(tmp_path / "harvest.lance")
    assert lance_io.write_harvest(_harvest_table().slice(0, 0), uri) == []
    assert fake_lance["fragments"] == []


def test_real_lance_read(fake_lance, tmp_path):
    uri = str(tmp_path / "harvest.lance")
    out = lance_io.read_harvest(uri)
    assert fake_lance["read"] == [uri]
    assert out.schema.equals(HARVEST_SCHEMA)


def test_adapter_parquet_roundtrip_without_lance(tmp_path):
    """The sandbox branch: one parquet part per write and a
    _lance_adapter.json sidecar on commit, read back equal — and
    HAVE_LANCE must actually be off here."""
    assert not lance_io.HAVE_LANCE
    t = _harvest_table()
    uri = str(tmp_path / "harvest.lance")
    part = lance_io.write_harvest(t, uri)
    lance_io.commit_harvest(uri, [part], t.schema)
    assert (tmp_path / "harvest.lance" / "_lance_adapter.json").exists()
    back = lance_io.read_harvest(uri)
    assert back.equals(t)


def test_adapter_parquet_roundtrip_of_several_parts(tmp_path):
    """Three writes (one per harvest task) make three content-addressed
    parts; a retried write rewrites its own part; the one commit records
    them all, and they read back as the whole table."""
    import json

    t = _harvest_table()
    more = t.slice(0, 1).set_column(
        0, "image_id", pa.array(["c"], type=pa.string()))
    uri = str(tmp_path / "harvest.lance")
    pieces = [t.slice(0, 1), t.slice(1, 1), more]
    parts = [lance_io.write_harvest(p, uri) for p in pieces]
    assert lance_io.write_harvest(pieces[0], uri) == parts[0]  # a retry
    lance_io.commit_harvest(uri, parts, t.schema)

    files = sorted(n for n in os.listdir(uri) if n.endswith(".parquet"))
    assert len(files) == 3
    meta = json.loads((tmp_path / "harvest.lance" /
                       "_lance_adapter.json").read_text())
    assert meta["parts"] == files
    back = lance_io.read_harvest(uri)
    assert sorted(back.to_pylist(), key=lambda r: r["image_id"]) == \
        pa.concat_tables(pieces).to_pylist()
