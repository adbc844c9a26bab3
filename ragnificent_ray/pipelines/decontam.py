"""Benchmark decontamination: flag train docs overlapping an eval set.

Before training, every corpus pipeline must drop documents that share
long n-grams with evaluation benchmarks (otherwise eval scores leak).
The structural shape is a **broadcast anti-join**: the benchmark side
is always tiny (thousands of eval documents) while the train side is
the full corpus — so the benchmark's distinct 8-gram set is built once
from a row-filter-pushdown parquet read, captured in the probe's
closure (Ray Data puts a map's function in the object store once per
execution), and probed per batch inside ``map_batches``. No shuffle
touches the 100 TB side.

Here the stand-in benchmark is ``doc_id < _BENCH_MAX_ID`` of the same
documents table (the sandbox has no external eval set); swapping in a
real benchmark table changes only ``_bench_grams``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .inputs import _pq, scan

_BENCH_MAX_ID = 20  # stand-in eval set: first 20 documents
_NGRAM = 8


def _doc_grams(text: str) -> set[str]:
    """Distinct word-8-grams, same truncated-tail semantics as
    ``textstats.fingerprints`` (docs shorter than n yield one partial
    gram)."""
    toks = text.strip().split()
    return {
        " ".join(toks[i:i + _NGRAM])
        for i in range(max(1, len(toks) - (_NGRAM - 1)))
    }


def _bench_grams(sf_dir: str) -> set[str]:
    import pyarrow.parquet as pq

    bench = pq.read_table(
        _pq(sf_dir, "documents"), columns=["text"],
        filters=[("doc_id", "<", _BENCH_MAX_ID)],
    )
    grams: set[str] = set()
    for text in bench.column("text").to_pylist():
        grams |= _doc_grams(text)
    return grams


def decontaminate(sf_dir: str):
    """Per train-doc count of distinct 8-grams shared with the eval set.

    Downstream curation drops ``n_hits > 0`` rows; the count is kept so
    thresholded policies (and the DuckDB oracle) can value-check it.
    """
    bench = _bench_grams(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def probe(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("doc_id"), _BENCH_MAX_ID))
        hits = [len(_doc_grams(t) & bench)
                for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_hits": pa.array(hits, type=pa.int64()),
        })

    return ds.map_batches(probe, batch_format="pyarrow", batch_size=8192)


_BLOOM_M = 1 << 18  # bits
_BLOOM_K = 4  # hash functions (double hashing off two md5 slices)


def _bloom_positions(h1: int, h2: int) -> list[int]:
    return [(h1 + j * h2) % _BLOOM_M for j in range(_BLOOM_K)]


def _gram_hashes(g: str) -> tuple[int, int]:
    from ..functions.hashing import md5_hex

    hx = md5_hex(g)
    return int(hx[:8], 16), int(hx[8:16], 16)


def decontaminate_bloom(sf_dir: str):
    """Bloom-filter decontamination probe — the memory-bounded variant
    of :func:`decontaminate` for when the eval-set gram inventory no
    longer fits a broadcast set (the filter is ``_BLOOM_M`` BITS
    regardless of benchmark size; the exact set grows with it).

    Deterministic double hashing (two md5 slices), so the DuckDB oracle
    value-checks the sketch's answers — including its false positives:
    the output carries ``n_maybe`` (bloom hits), ``n_hits`` (exact),
    and ``n_fp`` per train doc, making the precision/recall trade
    auditable. Recall is 1 by construction (no false negatives)."""
    import numpy as np

    bench = _bench_grams(sf_dir)
    bits = np.zeros(_BLOOM_M, dtype=bool)
    for g in bench:
        h1, h2 = _gram_hashes(g)
        bits[_bloom_positions(h1, h2)] = True

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def probe(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("doc_id"), _BENCH_MAX_ID))
        n_maybe, n_hits = [], []
        for t in batch.column("text").to_pylist():
            grams = _doc_grams(t)
            maybe = 0
            for g in grams:
                h1, h2 = _gram_hashes(g)
                if all(bits[p] for p in _bloom_positions(h1, h2)):
                    maybe += 1
            n_maybe.append(maybe)
            n_hits.append(len(grams & bench))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_maybe": pa.array(n_maybe, type=pa.int64()),
            "n_hits": pa.array(n_hits, type=pa.int64()),
            "n_fp": pa.array(
                [m - h for m, h in zip(n_maybe, n_hits)], type=pa.int64()),
        })

    return ds.map_batches(probe, batch_format="pyarrow", batch_size=8192)


_GRAMS_CTE = rf"""grams AS (
          SELECT doc_id, list_transform(
              range(1, greatest(len(toks) - {_NGRAM - 1}, 1) + 1),
              i -> array_to_string(toks[i:i+{_NGRAM - 1}], ' ')) AS gs
          FROM (SELECT doc_id,
                       regexp_split_to_array(trim(text), '\s+') AS toks
                FROM documents)
        )"""

ORACLE_SQL = {
    "decontaminate_bloom": rf"""
        WITH {_GRAMS_CTE}, bench AS (
          SELECT DISTINCT unnest(gs) AS g FROM grams
          WHERE doc_id < {_BENCH_MAX_ID}
        ), bench_pos AS (
          SELECT DISTINCT
              (CAST(('0x' || substr(md5(g), 1, 8)) AS BIGINT)
               + j.range * CAST(('0x' || substr(md5(g), 9, 8)) AS BIGINT))
              % {_BLOOM_M} AS pos
          FROM bench, range({_BLOOM_K}) j
        ), train AS (
          SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
          WHERE doc_id >= {_BENCH_MAX_ID}
        ), probes AS (
          SELECT t.doc_id, t.g,
                 (CAST(('0x' || substr(md5(t.g), 1, 8)) AS BIGINT)
                  + j.range * CAST(('0x' || substr(md5(t.g), 9, 8))
                                   AS BIGINT)) % {_BLOOM_M} AS pos
          FROM train t, range({_BLOOM_K}) j
        ), maybe AS (
          SELECT p.doc_id, p.g
          FROM probes p LEFT JOIN bench_pos b USING (pos)
          GROUP BY p.doc_id, p.g
          HAVING COUNT(b.pos) = {_BLOOM_K}
        ), mcnt AS (
          SELECT doc_id, COUNT(*) AS n_maybe FROM maybe GROUP BY doc_id
        ), hcnt AS (
          SELECT t.doc_id, COUNT(be.g) AS n_hits
          FROM train t LEFT JOIN bench be USING (g)
          GROUP BY t.doc_id
        )
        SELECT h.doc_id, COALESCE(m.n_maybe, 0) AS n_maybe, h.n_hits,
               COALESCE(m.n_maybe, 0) - h.n_hits AS n_fp
        FROM hcnt h LEFT JOIN mcnt m USING (doc_id)
    """,
    "decontaminate": rf"""
        WITH grams AS (
          SELECT doc_id, list_transform(
              range(1, greatest(len(toks) - {_NGRAM - 1}, 1) + 1),
              i -> array_to_string(toks[i:i+{_NGRAM - 1}], ' ')) AS gs
          FROM (SELECT doc_id,
                       regexp_split_to_array(trim(text), '\s+') AS toks
                FROM documents)
        ), bench AS (
          SELECT DISTINCT unnest(gs) AS g FROM grams
          WHERE doc_id < {_BENCH_MAX_ID}
        ), train AS (
          SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
          WHERE doc_id >= {_BENCH_MAX_ID}
        )
        SELECT t.doc_id, COUNT(b.g) AS n_hits
        FROM train t LEFT JOIN bench b USING (g)
        GROUP BY t.doc_id
    """,
}

def decontam_span_report(sf_dir: str):
    """The benchmark OWNER's side of decontamination: per eval doc, how
    compromised is it — how many of its distinct 8-grams appear in ≥1
    train doc, and how many train docs touch it. :func:`decontaminate`
    answers "which train docs must I drop"; this answers "which eval
    items are already burned" (the report an eval maintainer publishes,
    e.g. GPT-3 appendix C / the Lee et al. contamination studies).

    Scale shape: the benchmark inverted index (gram → bench ids) is the
    broadcast small side — built once driver-side from the row-filtered
    bench read and captured in the probe's closure. The corpus streams
    per batch emitting only ACTUAL hit rows (bench_id, gram, train doc)
    — sparse by construction in a real corpus — which fold per bench id
    (a catalog-bounded key space, so the groupby is bounded by benchmark
    size, never corpus size). Zero-hit bench docs still report via the
    tiny driver-built base rows."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.numeric import round_half_away

    bench_tbl = pq.read_table(
        _pq(sf_dir, "documents"), columns=["doc_id", "text"],
        filters=[("doc_id", "<", _BENCH_MAX_ID)],
    )
    index: dict[str, list[int]] = {}
    n_grams: dict[int, int] = {}
    for bid, text in zip(bench_tbl.column("doc_id").to_pylist(),
                         bench_tbl.column("text").to_pylist()):
        gs = _doc_grams(text)
        n_grams[int(bid)] = len(gs)
        for g in gs:
            index.setdefault(g, []).append(int(bid))
    keys = set(index)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def probe(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("doc_id"), _BENCH_MAX_ID))
        bids, gs_out, tdocs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            # C-level set intersection first: the inner loop walks
            # only actual hits, not every gram of every doc
            for g in _doc_grams(t) & keys:
                for bid in index[g]:
                    bids.append(bid)
                    gs_out.append(g)
                    tdocs.append(d)
        return pa.table({
            "bench_id": pa.array(bids, type=pa.int64()),
            "g": pa.array(gs_out, type=pa.string()),
            "train_doc": pa.array(tdocs, type=pa.int64()),
        })

    hits = ds.map_batches(probe, batch_format="pyarrow", batch_size=8192)

    def fold(g: pa.Table) -> pa.Table:
        t = pa.table({"bench_id": g.column("bench_id"),
                      "g": g.column("g"),
                      "train_doc": g.column("train_doc")})
        dg = (t.select(["bench_id", "g"])
              .group_by(["bench_id", "g"]).aggregate([])
              .group_by("bench_id").aggregate([("g", "count")]))
        dd = (t.select(["bench_id", "train_doc"])
              .group_by(["bench_id", "train_doc"]).aggregate([])
              .group_by("bench_id").aggregate([("train_doc", "count")]))
        out = dg.join(dd, keys=["bench_id"])
        return pa.table({
            "bench_id": pc.cast(out.column("bench_id"), pa.int64()),
            "n_hit": pc.cast(out.column("g_count"), pa.int64()),
            "n_train_docs": pc.cast(out.column("train_doc_count"),
                                    pa.int64()),
        })

    folded = hits.groupby("bench_id").map_groups(
        fold, batch_format="pyarrow")

    base = rd.from_arrow(pa.table({
        "bench_id": pa.array(sorted(n_grams), type=pa.int64()),
        "n_hit": pa.array([0] * len(n_grams), type=pa.int64()),
        "n_train_docs": pa.array([0] * len(n_grams), type=pa.int64()),
    }))

    def finish(t: pa.Table) -> pa.Table:
        f = (t.group_by("bench_id")
             .aggregate([("n_hit", "max"), ("n_train_docs", "max")]))
        bid = f.column("bench_id").to_numpy(zero_copy_only=False)
        ng = np.array([n_grams[int(b)] for b in bid], dtype=np.int64)
        nh = f.column("n_hit_max").to_numpy(zero_copy_only=False)
        return pa.table({
            "bench_id": pa.array(bid.astype(np.int64)),
            "n_grams": pa.array(ng),
            "n_hit": pc.cast(f.column("n_hit_max"), pa.int64()),
            "n_train_docs": pc.cast(f.column("n_train_docs_max"),
                                    pa.int64()),
            "hit_frac": pa.array(
                round_half_away(nh / ng, 4), type=pa.float64()),
        })

    # the union is ≤ 2 rows per bench id (base zero + at most one fold
    # row); the final fold is a catalog-bounded single-group pass
    def add_one_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "fb", pa.array(np.zeros(t.num_rows, dtype=np.int32)))

    return (base.union(folded)
            .map_batches(add_one_bucket, batch_format="pyarrow")
            .groupby("fb")
            .map_groups(lambda g: finish(g.drop_columns(["fb"])),
                        batch_format="pyarrow"))


ORACLE_SQL["decontam_span_report"] = rf"""
WITH {_GRAMS_CTE}, bench AS (
  SELECT doc_id AS bench_id, unnest(list_distinct(gs)) AS g FROM grams
  WHERE doc_id < {_BENCH_MAX_ID}
), bstat AS (
  SELECT bench_id, COUNT(*) AS n_grams FROM bench GROUP BY bench_id
), train AS (
  SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
  WHERE doc_id >= {_BENCH_MAX_ID}
), hits AS (
  SELECT b.bench_id, b.g, t.doc_id FROM bench b JOIN train t USING (g)
), agg AS (
  SELECT bench_id, COUNT(DISTINCT g) AS n_hit,
         COUNT(DISTINCT doc_id) AS n_train_docs
  FROM hits GROUP BY bench_id
)
SELECT bs.bench_id, CAST(bs.n_grams AS BIGINT) AS n_grams,
       CAST(COALESCE(a.n_hit, 0) AS BIGINT) AS n_hit,
       CAST(COALESCE(a.n_train_docs, 0) AS BIGINT) AS n_train_docs,
       ROUND(COALESCE(a.n_hit, 0) / CAST(bs.n_grams AS DOUBLE), 4)
           AS hit_frac
FROM bstat bs LEFT JOIN agg a USING (bench_id)
"""


QUERIES = {
    "decontaminate": decontaminate,
    "decontaminate_bloom": decontaminate_bloom,
    "decontam_span_report": decontam_span_report,
}
