"""Round-5 scale-hardening pins.

The exact-substring family's token-scale gram tables must never sit in
the object store (`_checkpointed` parquet instead of `materialize()` —
the 100-TB residency fix), `_dup_gram_marks(distinct=False)` must be
batch-boundary-proof, and the keeper attach guards must fail loudly on
missing metadata.
"""

import inspect

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_exact_substring_family_never_materializes():
    """dup_spans / ngram_novelty / duplicate_ngram_fraction park their
    token-position tables in a parquet checkpoint, not the object
    store: no ``materialize()`` anywhere in the family, and each
    consumer re-reads through the column-pruned ``_checkpointed``
    reader."""
    from ragnificent_ray.pipelines import dedup

    for fn in (dedup.dup_spans, dedup.ngram_novelty,
               dedup.duplicate_ngram_fraction):
        src = inspect.getsource(fn)
        assert ".materialize()" not in src, fn.__name__
        assert "_checkpointed(" in src, fn.__name__


def test_dup_spans_mark_side_prunes_pos():
    """The dup-mark consumer of dup_spans' checkpoint must read only
    (doc_id, gram) — re-reading ``pos`` would double the mark
    exchange's width for nothing."""
    from ragnificent_ray.pipelines import dedup

    src = inspect.getsource(dedup.dup_spans)
    mark_read = src.split("_dup_gram_marks(")[1].split(")")[0]
    assert '"pos"' not in mark_read


def test_dup_gram_marks_nondistinct_exact_across_batch_splits(ray_session):
    """distinct=False must count DISTINCT docs per gram no matter how
    batch boundaries split a doc's position rows: a gram occurring 3x
    in ONE doc (split across 3 one-row batches) is not a dup; a gram
    in two docs is."""
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import _dup_gram_marks

    rows = pa.table({
        "doc_id": pa.array([1, 1, 1, 2, 3], type=pa.int64()),
        "gram": pa.array([77, 77, 77, 88, 88], type=pa.int64()),
    })
    # one row per block → every batch split lands between repeats
    ds = rd.from_arrow(rows).repartition(5)
    out = _dup_gram_marks(ds, n_buckets=4, distinct=False).to_pandas()
    assert set(out["gram"]) == {88}


def test_gram_checkpoint_roundtrip_and_column_pruning(ray_session):
    """_checkpointed executes once and serves column-pruned re-reads."""
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import _checkpointed

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "pos": pa.array([0, 1, 2], type=pa.int64()),
        "gram": pa.array([10, 20, 30], type=pa.int64()),
    })
    read = _checkpointed(rd.from_arrow(t), "pytest")
    narrow = read(["doc_id", "gram"]).to_pandas()
    assert list(narrow.columns) == ["doc_id", "gram"]
    full = read(["doc_id", "pos", "gram"]).to_pandas()
    assert full.shape == (3, 3)
    assert sorted(full["gram"]) == [10, 20, 30]


def test_keep_best_attach_rejects_missing_metadata(ray_session):
    """A label row whose doc has no metadata row must raise, not
    borrow a neighbor's n_chars (the searchsorted-equality guard)."""
    import re

    from ragnificent_ray.pipelines import dedup

    src = inspect.getsource(dedup.dedup_keep_best)
    assert "searchsorted" in src
    assert re.search(r"raise ValueError", src), \
        "attach must fail loudly on a missing metadata row"


def test_image_attach_guard_vectorized():
    """The image keeper's attach/winners are numpy lexsort/searchsorted
    folds with a loud missing-quality-row guard — no per-row dict
    walks left."""
    import __ray_entry__ as e

    src = inspect.getsource(e._image_keep_best_from)
    assert "np.lexsort" in src and "searchsorted" in src
    assert "raise ValueError" in src
    assert "best[c]" not in src


def test_politeness_reserve_counts_deterministic_shape(ray_session):
    """Round metrics carry reservation watermarks; a second identical
    reserve_many adds exactly one call and the same rows."""
    from ragnificent_ray.state.politeness import _PolitenessShardRPC

    s = _PolitenessShardRPC(default_rate=5.0, adaptive=False)
    s.reserve_many([("a.test", 4)])
    c1 = s.rpc_stats()["reserve_rpc_calls"]
    s.reserve_many([("a.test", 4)])
    st = s.rpc_stats()
    assert st["reserve_rpc_calls"] == c1 + 1
    assert st["reserve_rpc_rows"] == 2
    assert st["rpc_rows_out"] == 8


def test_seeded_shuffle_manifest_invariants(ray_session):
    """Coverage (every doc in exactly one bucket), key-range disjointness
    by construction (bucket = top key bits), determinism, and epoch
    sensitivity (a new epoch produces a different permutation)."""
    import pyarrow.parquet as pq

    from ragnificent_ray.pipelines.sampling import (
        SHUFFLE_BUCKETS, seeded_shuffle_manifest)

    m = seeded_shuffle_manifest(SF).to_pandas().sort_values("bucket")
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert m["n_docs"].sum() == n_docs
    assert m["bucket"].between(0, SHUFFLE_BUCKETS - 1).all()
    assert m["bucket"].is_unique
    # bucket id must equal the top 6 bits of every key it contains
    assert ((m["min_key"].to_numpy() >> 50) == m["bucket"].to_numpy()).all()
    assert ((m["max_key"].to_numpy() >> 50) == m["bucket"].to_numpy()).all()
    # deterministic across runs
    m2 = seeded_shuffle_manifest(SF).to_pandas().sort_values("bucket")
    assert m.reset_index(drop=True).equals(m2.reset_index(drop=True))
    # a different epoch re-permutes: some bucket's resume cursor moves
    m_e1 = seeded_shuffle_manifest(SF, epoch=1).to_pandas() \
        .sort_values("bucket").reset_index(drop=True)
    assert m_e1["n_docs"].sum() == n_docs
    merged = m.reset_index(drop=True).merge(
        m_e1, on="bucket", suffixes=("_0", "_1"))
    assert (merged["first_doc_0"] != merged["first_doc_1"]).any()


def test_decontam_span_report_hit_path(ray_session):
    """The benchmark-side contamination report must exercise its HIT
    path on the planted sf0.001 contamination (5 bench docs leak into
    train) and keep the zero-hit bench docs reporting."""
    from ragnificent_ray.pipelines.decontam import (
        _BENCH_MAX_ID, decontam_span_report)

    r = decontam_span_report(SF).to_pandas().sort_values("bench_id")
    assert len(r) == _BENCH_MAX_ID          # every bench doc reports
    assert (r["n_hit"] > 0).sum() >= 3      # planted leaks found
    assert ((r["n_hit"] <= r["n_grams"]) & (r["hit_frac"] <= 1.0)).all()
    assert (r.loc[r["n_hit"] == 0, "n_train_docs"] == 0).all()
    assert (r.loc[r["n_hit"] > 0, "n_train_docs"] >= 1).all()


def test_image_phash_threshold_curve(ray_session):
    """The image-dedup threshold curve must see the planted perturbed
    near-dup pairs at small hamming distances, bin by exact distance
    within the pigeonhole-exact 0..15 range, and agree with the pair
    set it composes."""
    import __ray_entry__ as e

    curve = e.queries()["image_phash_threshold_curve"](SF).to_pandas()
    assert len(curve) >= 1
    assert curve["hamming"].between(0, 15).all()
    assert (curve["n_pairs"] > 0).all()
    assert curve["hamming"].is_unique
    # planted perturbed copies sit at small distances
    assert curve.loc[curve["hamming"] <= 8, "n_pairs"].sum() > 0
    # total pairs == the composed pair set at the same radius
    pairs = e.queries()["harvest_phash_neardup"](SF)
    import pandas as pd
    pdf = pairs.to_pandas() if not isinstance(pairs, pd.DataFrame) else pairs
    n8 = curve.loc[curve["hamming"] <= 8, "n_pairs"].sum()
    assert n8 == len(pdf)


def test_shuffle_write_resume_skips_finished_parts(ray_session, tmp_path):
    """The resumable shuffled-corpus writer: full run covers every doc
    exactly once in deterministic shuffle order; deleting three parts
    and re-running rewrites ONLY those (untouched parts keep their
    mtime); the reassembled corpus equals the source."""
    import os
    import time

    import pyarrow.parquet as pq

    from ragnificent_ray.pipelines.shuffle_write import (
        _part_name, read_shuffled, shuffle_write)

    out = str(tmp_path / "shuffled")
    r1 = shuffle_write(SF, out)
    n_src = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert r1["rows_written"] == n_src and r1["skipped"] == []
    parts = sorted(os.listdir(out))
    assert all(p.startswith("part-") for p in parts)

    # shuffle order inside a part: keys non-decreasing
    from ragnificent_ray.functions.hashing import md5_hex
    first = pq.read_table(os.path.join(out, parts[0]))
    keys = [int(md5_hex(f"{d}:0")[:14], 16)
            for d in first.column("doc_id").to_pylist()]
    assert keys == sorted(keys)

    victims = [r1["written"][0], r1["written"][5], r1["written"][-1]]
    for b in victims:
        os.remove(os.path.join(out, _part_name(b)))
    keep_mtime = {p: os.path.getmtime(os.path.join(out, p))
                  for p in os.listdir(out)}
    time.sleep(0.05)
    r2 = shuffle_write(SF, out)
    assert sorted(r2["written"]) == sorted(victims)
    for p, m in keep_mtime.items():
        assert os.path.getmtime(os.path.join(out, p)) == m
    # third run: nothing left to do
    r3 = shuffle_write(SF, out)
    assert r3["written"] == [] and r3["rows_written"] == 0

    back = read_shuffled(out).to_pandas()
    assert len(back) == n_src
    assert sorted(back["doc_id"]) == sorted(range(len(back)))


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_rows = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 14)),
    min_size=1, max_size=60)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_rows, st.integers(1, 6), st.integers(1, 6))
def test_dup_gram_marks_property_vs_pure_python(ray_session, rows,
                                                n_buckets, n_blocks):
    """Property: for ANY multiset of (doc, gram) position rows, ANY
    bucket count and ANY block split, distinct=False marks exactly the
    grams with >=2 distinct docs (the pure-Python reference)."""
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import _dup_gram_marks

    docs = [r[0] for r in rows]
    grams = [r[1] for r in rows]
    t = pa.table({"doc_id": pa.array(docs, type=pa.int64()),
                  "gram": pa.array(grams, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(min(n_blocks, len(rows)))
    out = _dup_gram_marks(ds, n_buckets=n_buckets,
                          distinct=False).to_pandas()
    expect = {g for g in set(grams)
              if len({d for d, gg in rows if gg == g}) >= 2}
    got = set(out["gram"]) if len(out) else set()
    assert got == expect
    if len(out):
        assert (out["is_dup"] == 1).all()


def test_events_watermark_windows_exercises_both_branches(ray_session):
    """The watermark admission must drop SOME events as late under the
    default knobs (delay spread 1h, lateness 10min) and accept the
    rest; totals must cover the whole table."""
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    r = e.queries()["events_watermark_windows"](SF).to_pandas()
    n_events = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert int((r["n_accepted"] + r["n_late"]).sum()) == n_events
    assert int(r["n_late"].sum()) > 0
    assert int(r["n_accepted"].sum()) > 0


def test_shuffle_write_ignores_stale_tmp(ray_session, tmp_path):
    """A torn .tmp from a crashed writer must not count as a finished
    part: the bucket rewrites and the stale tmp is replaced."""
    import os

    from ragnificent_ray.pipelines.shuffle_write import (
        _part_name, shuffle_write)

    out = str(tmp_path / "shuffled")
    r1 = shuffle_write(SF, out)
    victim = r1["written"][0]
    os.remove(os.path.join(out, _part_name(victim)))
    with open(os.path.join(out, f".part-{victim:04d}.tmp"), "w") as f:
        f.write("torn")
    r2 = shuffle_write(SF, out)
    assert r2["written"] == [victim]
    assert os.path.exists(os.path.join(out, _part_name(victim)))


def test_shuffle_write_rejects_non_power_of_two_buckets(tmp_path):
    """Buckets are the key's top log2(n) bits: 48 buckets would leave
    buckets 32..47 unwritten forever, so the writer must refuse."""
    import os

    from ragnificent_ray.pipelines.shuffle_write import shuffle_write

    out = str(tmp_path / "shuffled")
    with pytest.raises(ValueError, match="power of two"):
        shuffle_write(SF, out, n_buckets=48)
    assert not os.path.exists(out)


def test_gram_checkpoint_honors_ckpt_dir_env(ray_session, tmp_path,
                                             monkeypatch):
    """RAGNIFICENT_CKPT_DIR is the multi-node shared-filesystem knob:
    checkpoints must land under it when set."""
    import os

    import ray.data as rd

    from ragnificent_ray.pipelines import dedup

    monkeypatch.setenv("RAGNIFICENT_CKPT_DIR", str(tmp_path))
    monkeypatch.setattr(dedup, "_GRAM_CKPT_ROOT", None)
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "gram": pa.array([7], type=pa.int64())})
    read = dedup._checkpointed(rd.from_arrow(t), "envtest")
    assert read(["doc_id", "gram"]).count() == 1
    roots = [d for d in os.listdir(tmp_path)
             if d.startswith("ragnificent_gram_ckpt_")]
    assert len(roots) == 1
    assert os.path.isdir(os.path.join(tmp_path, roots[0], "envtest"))
    monkeypatch.setattr(dedup, "_GRAM_CKPT_ROOT", None)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, 3 * 3600), min_size=1, max_size=80,
                unique=False))
def test_watermark_windows_property_vs_pure_replay(ray_session, tmp_path_factory,
                                                   offsets_s):
    """Property: for ANY event-time stream (ties, bursts, gaps spanning
    several arrival-hour buckets), the distributed prefix-max admission
    equals a pure-Python replay of the same arrival-ordered rule."""
    import pyarrow.parquet as pq_mod

    from ragnificent_ray.functions.hashing import md5_hex
    from ragnificent_ray.pipelines.temporal import (
        WATERMARK_DELAY_MOD_S, WATERMARK_LATENESS_S,
        events_watermark_windows)

    base_us = 1_600_000_000 * 1_000_000
    ids = list(range(len(offsets_s)))
    ts_us = [base_us + o * 1_000_000 for o in offsets_s]
    d = tmp_path_factory.mktemp("wm")
    pq_mod.write_table(pa.table({
        "event_id": pa.array(ids, type=pa.int64()),
        "ts": pa.array(ts_us, type=pa.timestamp("us")),
    }), str(d / "events.parquet"))

    got = events_watermark_windows(str(d)).to_pandas()

    # pure replay: arrival order, running max event time, admission
    delay = [int(md5_hex(str(i))[:8], 16) % WATERMARK_DELAY_MOD_S
             for i in ids]
    arrival = [t + s * 1_000_000 for t, s in zip(ts_us, delay)]
    order = sorted(range(len(ids)), key=lambda i: (arrival[i], ids[i]))
    late_us = WATERMARK_LATENESS_S * 1_000_000
    wm, n_ok, n_late = None, {}, {}
    for i in order:
        win = ts_us[i] // 3_600_000_000
        ok = wm is None or ts_us[i] >= wm - late_us
        (n_ok if ok else n_late)[win] = \
            (n_ok if ok else n_late).get(win, 0) + 1
        wm = ts_us[i] if wm is None else max(wm, ts_us[i])

    import datetime as dt
    def fmt(win):
        t = dt.datetime.utcfromtimestamp(win * 3600)
        return t.strftime("%Y-%m-%d %H:%M:%S")
    wins = sorted(set(n_ok) | set(n_late))
    expect = {fmt(w): (n_ok.get(w, 0), n_late.get(w, 0)) for w in wins}
    got_map = {r.window_start: (int(r.n_accepted), int(r.n_late))
               for r in got.itertuples()}
    assert got_map == expect
