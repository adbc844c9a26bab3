"""Sequence packing — assign documents to fixed-length training
sequences (the GPT-style pack-and-split step every LLM pretraining
pipeline runs between curation and tokenized-shard writing).

Semantics: documents concatenate in ``doc_id`` order into one token
stream (whitespace tokens, same count as ``textstats.token_stats``);
the stream splits into sequences of ``SEQ_LEN`` tokens, documents
spanning boundaries. Output is the per-document placement: global
start offset, first/last sequence id, offset within the first
sequence, and how many sequences the doc touches — exactly what a
shard writer needs to emit packed examples, and fully SQL-expressible
(a running-sum window) for the driver oracle.

Scale shape — distributed prefix sum, no driver materialization:

1. one streaming pass computes (doc_id, n_tokens, bucket) where
   ``bucket = doc_id // RANGE`` (contiguous id ranges, so bucket order
   IS stream order);
2. per-bucket token subtotals reduce via ``combine.combine``
   — ONE ROW PER BUCKET reaches the driver (bounded: ~n_docs/8192),
   which computes the exclusive prefix over buckets and broadcasts it
   in the group map's closure (read once per task, never per batch);
3. a bounded-bucket ``map_groups`` sorts each id-range locally and
   adds bucket_start + local exclusive cumsum.

At 10^10 docs the only shuffle moves 24-byte rows and the broadcast
table is ~1.2M int pairs — both bounded; the text column never moves.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .combine import combine
from .exchange import hash_join
from .inputs import scan

SEQ_LEN = 512  # tokens per packed training sequence
_BUCKET_RANGE = 8192  # doc_ids per contiguous prefix bucket


def _counts_fn(with_text: bool):
    """Per-batch (doc_id, n_tokens, bucket) rows; optionally carries the
    text column through for segment assembly."""
    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_tok = np.fromiter(
            (len(t.split()) for t in
             (s.strip() for s in batch.column("text").to_pylist())),
            dtype=np.int64, count=len(ids))
        cols = {
            "doc_id": pa.array(ids.astype(np.int64)),
            "n_tokens": pa.array(n_tok),
            "bucket": pa.array((ids // _BUCKET_RANGE).astype(np.int64)),
        }
        if with_text:
            cols["text"] = batch.column("text")
        return pa.table(cols)

    return counts


def _bucket_offsets(narrow) -> dict:
    """Exclusive prefix of per-id-range-bucket token subtotals: one row
    per bucket reaches the driver, the offsets map broadcasts once."""
    subtotals = combine(narrow, "bucket", {"n_tokens": ("n_tokens", "sum")}
                        ).to_pandas().sort_values("bucket")
    tot = subtotals["n_tokens"].to_numpy(dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(tot)[:-1]))
    return dict(zip(
        subtotals["bucket"].astype(np.int64).tolist(), starts.tolist()))


def sequence_pack(sf_dir: str, seq_len: int = SEQ_LEN):
    """Per-document placement in the packed fixed-length token stream."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    narrow = ds.map_batches(
        _counts_fn(False), batch_format="pyarrow",
        batch_size=8192).materialize()
    bucket_start = _bucket_offsets(narrow)

    def place(g: pa.Table) -> pa.Table:
        base = bucket_start[int(g.column("bucket")[0].as_py())]
        g = g.sort_by([("doc_id", "ascending")])
        n = g.column("n_tokens").to_numpy(
            zero_copy_only=False).astype(np.int64)
        start = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        seq_id = start // seq_len
        last = np.maximum(start, start + n - 1)  # n=0 stays in its slot
        end_seq = last // seq_len
        return pa.table({
            "doc_id": pc.cast(g.column("doc_id"), pa.int64()),
            "n_tokens": pa.array(n),
            "start_tok": pa.array(start),
            "seq_id": pa.array(seq_id.astype(np.int64)),
            "seq_offset": pa.array((start % seq_len).astype(np.int64)),
            "n_seqs": pa.array(np.where(n == 0, 0, end_seq - seq_id + 1)
                               .astype(np.int64)),
        })

    return narrow.groupby("bucket").map_groups(place,
                                               batch_format="pyarrow")


_SEQ_BUCKETS = 4096  # bounded key space for the sequence assembly groupby


def packed_sequences(sf_dir: str, seq_len: int = SEQ_LEN):
    """Assemble the ACTUAL packed training sequences — including the
    ones that span document boundaries (the part shard writers get
    wrong first): per sequence, the concatenated token window plus doc
    count and token count.

    Two-stage distributed assembly, no corpus-wide sort:

    1. doc-id-range groups (text carried, bounded by ``_BUCKET_RANGE``)
       compute their exclusive token offsets from the broadcast bucket
       prefix and FLAT-MAP each document into per-sequence segments —
       (seq_id, seg_start, seg_text) rows, one per sequence the doc
       touches;
    2. segments shuffle by ``seq_id % _SEQ_BUCKETS`` (bounded key
       space) and each group stitches its sequences back together with
       a vectorized sort + per-seq join.

    Only segment text moves in the exchange — each token ships exactly
    once, like the shard files it would feed."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    with_text = ds.map_batches(
        _counts_fn(True), batch_format="pyarrow",
        batch_size=8192).materialize()
    bucket_start = _bucket_offsets(
        with_text.select_columns(["doc_id", "n_tokens", "bucket"]))

    def segments(g: pa.Table) -> pa.Table:
        base = bucket_start[int(g.column("bucket")[0].as_py())]
        g = g.sort_by([("doc_id", "ascending")])
        n = g.column("n_tokens").to_numpy(
            zero_copy_only=False).astype(np.int64)
        start = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        out_seq, out_start, out_text, out_len = [], [], [], []
        for i, text in enumerate(g.column("text").to_pylist()):
            if n[i] == 0:
                continue
            toks = text.strip().split()
            s0, s1 = start[i] // seq_len, (start[i] + n[i] - 1) // seq_len
            for s in range(s0, s1 + 1):
                a = max(s * seq_len, start[i])
                b = min((s + 1) * seq_len, start[i] + n[i])
                out_seq.append(s)
                out_start.append(a)
                out_text.append(" ".join(toks[a - start[i]:b - start[i]]))
                out_len.append(b - a)
        return pa.table({
            "seq_id": pa.array(out_seq, type=pa.int64()),
            "seg_start": pa.array(out_start, type=pa.int64()),
            "seg_len": pa.array(out_len, type=pa.int64()),
            "seg_text": pa.array(out_text, type=pa.string()),
            "seq_bucket": pa.array(
                [s % _SEQ_BUCKETS for s in out_seq], type=pa.int64()),
        })

    def assemble(g: pa.Table) -> pa.Table:
        g = g.sort_by([("seq_id", "ascending"),
                       ("seg_start", "ascending")])
        sid = g.column("seq_id").to_numpy(zero_copy_only=False)
        seg_len = g.column("seg_len").to_numpy(zero_copy_only=False)
        texts = g.column("seg_text").to_pylist()
        first = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]])
        ends = np.r_[first[1:], len(sid)]
        return pa.table({
            "seq_id": pa.array(sid[first], type=pa.int64()),
            "n_docs": pa.array(ends - first, type=pa.int64()),
            "n_tokens": pa.array(np.add.reduceat(seg_len, first)
                                 if len(first) else
                                 np.zeros(0, dtype=np.int64),
                                 type=pa.int64()),
            "text": pa.array(
                [" ".join(texts[a:b]) for a, b in zip(first, ends)],
                type=pa.string()),
        })

    return (with_text.groupby("bucket")
            .map_groups(segments, batch_format="pyarrow")
            .groupby("seq_bucket")
            .map_groups(assemble, batch_format="pyarrow"))


def byte_shard_pack(ds, id_col: str, nbytes_col: str, bucket_col: str,
                    shard_bytes: int):
    """Generic byte-budget shard assignment — the webdataset-style
    "pack these blobs into ~N-byte training shards" step, as the same
    distributed prefix sum as :func:`sequence_pack` but over BYTE
    sizes: ``shard_id = exclusive_prefix_bytes // shard_bytes``.

    A blob never splits, so a shard's actual size is ≤ shard_bytes
    plus one blob — the standard size-estimate sharding semantics, and
    (unlike greedy first-fit, which is inherently sequential) a pure
    prefix sum that parallelizes and is deterministic across cluster
    layouts. ``bucket_col`` must partition the ``id_col`` sort order
    into contiguous ranges (e.g. the domain prefix of an image id);
    one subtotal row per bucket reaches the driver, the offsets map
    broadcasts once."""
    subtotals = combine(ds, bucket_col, {"tot": (nbytes_col, "sum")}
                        ).to_pandas().sort_values(bucket_col)
    tot = subtotals["tot"].to_numpy(dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(tot)[:-1]))
    bucket_start = dict(zip(subtotals[bucket_col].tolist(), starts.tolist()))

    def place(g: pa.Table) -> pa.Table:
        base = bucket_start[g.column(bucket_col)[0].as_py()]
        g = g.sort_by([(id_col, "ascending")])
        n = g.column(nbytes_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        start = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        return pa.table({
            id_col: g.column(id_col),
            "nbytes": pa.array(n),
            "start_byte": pa.array(start),
            "shard_id": pa.array((start // shard_bytes)
                                 .astype(np.int64)),
        })

    return ds.groupby(bucket_col).map_groups(place,
                                             batch_format="pyarrow")


ORACLE_SQL = {
    "packed_sequences": f"""
        WITH c AS (
          SELECT doc_id,
                 regexp_split_to_array(trim(text), '\\s+') AS toks
          FROM documents
        ), p AS (
          SELECT doc_id, toks, len(toks) AS n,
                 COALESCE(SUM(len(toks)) OVER (
                     ORDER BY doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                 ), 0) AS s
          FROM c
        ), seg AS (
          SELECT p.doc_id, gs.g AS seq_id,
                 GREATEST(gs.g * {SEQ_LEN}, p.s) AS seg_start,
                 LEAST((gs.g + 1) * {SEQ_LEN}, p.s + p.n) AS seg_end,
                 array_to_string(p.toks[
                     CAST(GREATEST(gs.g * {SEQ_LEN}, p.s) - p.s + 1
                          AS BIGINT) :
                     CAST(LEAST((gs.g + 1) * {SEQ_LEN}, p.s + p.n) - p.s
                          AS BIGINT)], ' ') AS seg_text
          FROM p, LATERAL (
              SELECT unnest(range(
                  CAST(p.s // {SEQ_LEN} AS BIGINT),
                  CAST((p.s + p.n - 1) // {SEQ_LEN} + 1 AS BIGINT))) AS g
          ) gs
          WHERE p.n > 0
        )
        SELECT seq_id, COUNT(*) AS n_docs,
               CAST(SUM(seg_end - seg_start) AS BIGINT) AS n_tokens,
               string_agg(seg_text, ' ' ORDER BY seg_start) AS text
        FROM seg GROUP BY seq_id
    """,
    "sequence_pack": f"""
        WITH c AS (
          SELECT doc_id,
                 len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
          FROM documents
        ), p AS (
          SELECT doc_id, n_tokens,
                 CAST(COALESCE(SUM(n_tokens) OVER (
                     ORDER BY doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                 ), 0) AS BIGINT) AS start_tok
          FROM c
        )
        SELECT doc_id, n_tokens, start_tok,
               start_tok // {SEQ_LEN} AS seq_id,
               start_tok % {SEQ_LEN} AS seq_offset,
               CASE WHEN n_tokens = 0 THEN 0
                    ELSE (start_tok + n_tokens - 1) // {SEQ_LEN}
                         - start_tok // {SEQ_LEN} + 1 END AS n_seqs
        FROM p
    """,
}

QUERIES = {
    "sequence_pack": sequence_pack,
    "packed_sequences": packed_sequences,
}


# ------------------------------------------------- greedy padded packing

PACK_SHARD = 64        # docs per independent greedy-packing shard


def _greedy_fold(cap: int):
    """The sharded greedy first-fit fill recurrence as a bucket-fold
    body — ONE copy shared by :func:`greedy_pack_stats` and
    :func:`curated_pack_stats` so the two audits can never silently
    diverge. Input groups carry (doc_id, n, shard); the per-shard
    recurrence walks ≤``shard_docs`` ints (the genuinely-serial part
    production packers also serialize inside a shard)."""

    def fold(g: pa.Table) -> pa.Table:
        idx = np.lexsort((
            g.column("doc_id").to_numpy(zero_copy_only=False),
            g.column("shard").to_numpy(zero_copy_only=False)))
        shard = g.column("shard").to_numpy(zero_copy_only=False)[idx]
        n = g.column("n").to_numpy(zero_copy_only=False)[idx]
        eff = np.minimum(n, cap)
        trunc = n - eff
        out: dict[tuple, list] = {}
        cur_shard, seq, fill = None, 0, 0
        for i in range(len(shard)):
            s, e = int(shard[i]), int(eff[i])
            if s != cur_shard:
                cur_shard, seq, fill = s, 0, e
            elif fill + e > cap:
                seq, fill = seq + 1, e
            else:
                fill += e
            row = out.setdefault((s, seq), [0, 0, 0])
            row[0] += 1
            row[1] += e
            row[2] += int(trunc[i])
        keys = sorted(out)
        return pa.table({
            "shard": pa.array([k[0] for k in keys], type=pa.int64()),
            "seq": pa.array([k[1] for k in keys], type=pa.int64()),
            "n_docs": pa.array([out[k][0] for k in keys],
                               type=pa.int64()),
            "n_tokens": pa.array([out[k][1] for k in keys],
                                 type=pa.int64()),
            "pad_tokens": pa.array([cap - out[k][1] for k in keys],
                                   type=pa.int64()),
            "trunc_tokens": pa.array([out[k][2] for k in keys],
                                     type=pa.int64()),
        })

    return fold


def _greedy_recurrence_sql(cap: int, shard_docs: int, rel: str) -> str:
    """ROW_NUMBER ordering + keyed recursive fill CTE + the final
    per-(shard, seq) aggregate over ``rel(doc_id, n)`` — the single SQL
    replay of :func:`_greedy_fold`, shared by both pack oracles."""
    return f"""r AS (
  SELECT doc_id, doc_id // {shard_docs} AS shard,
         ROW_NUMBER() OVER (PARTITION BY doc_id // {shard_docs}
                            ORDER BY doc_id) AS rn,
         LEAST(n, {cap}) AS eff, n - LEAST(n, {cap}) AS trunc
  FROM {rel}
), st(shard, rn, seq, fill) AS (
  SELECT shard, rn, 0, eff FROM r WHERE rn = 1
  UNION ALL
  SELECT r.shard, r.rn,
         CASE WHEN st.fill + r.eff > {cap} THEN st.seq + 1
              ELSE st.seq END,
         CASE WHEN st.fill + r.eff > {cap} THEN r.eff
              ELSE st.fill + r.eff END
  FROM st JOIN r ON r.shard = st.shard AND r.rn = st.rn + 1
)
SELECT st.shard, CAST(st.seq AS BIGINT) AS seq,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(r.eff) AS BIGINT) AS n_tokens,
       CAST({cap} - SUM(r.eff) AS BIGINT) AS pad_tokens,
       CAST(SUM(r.trunc) AS BIGINT) AS trunc_tokens
FROM st JOIN r ON r.shard = st.shard AND r.rn = st.rn
GROUP BY st.shard, st.seq"""


def greedy_pack_stats(sf_dir: str, cap: int = SEQ_LEN,
                      shard_docs: int = PACK_SHARD):
    """GREEDY NON-SPLITTING sequence packing audit — the other standard
    packing discipline next to :func:`packed_sequences`' boundary-
    splitting stream: each document lands whole in a sequence (greedy
    first-fit in doc order, truncated at ``cap`` if longer), sequences
    pad to ``cap`` — so PADDING WASTE is the metric this op exists to
    report (what fraction of training compute burns on pad tokens).

    The fill recurrence is inherently sequential, so it runs SHARDED:
    docs partition into independent ``shard_docs``-sized ranges
    (``doc_id // shard_docs``) and the greedy state resets per shard —
    exactly how production packers parallelize (pack within shard,
    never across), deterministic on any cluster layout. Per (shard,
    seq): docs, real tokens, pad tokens, truncated tokens.

    Scale shape: one pruned scan to (doc_id, n) int rows, shards fold
    in bounded shard-hash buckets; the per-shard recurrence walks
    ≤``shard_docs`` ints. The oracle replays the fill recurrence as a
    keyed recursive CTE."""
    n_buckets = 64
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = np.fromiter(
            (len(t.split()) for t in b.column("text").to_pylist()),
            dtype=np.int64, count=len(ids))
        shard = ids // shard_docs
        return pa.table({
            "doc_id": pa.array(ids),
            "n": pa.array(n),
            "shard": pa.array(shard),
            "kb": pa.array((shard % n_buckets).astype(np.int32)),
        })

    return (ds.map_batches(counts, batch_format="pyarrow",
                           batch_size=8192)
            .groupby("kb").map_groups(_greedy_fold(cap),
                                      batch_format="pyarrow"))


def _greedy_pack_sql(cap: int = SEQ_LEN,
                     shard_docs: int = PACK_SHARD) -> str:
    return f"""
WITH RECURSIVE d AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
             AS n
  FROM documents
), {_greedy_recurrence_sql(cap, shard_docs, "d")}
"""


QUERIES["greedy_pack_stats"] = greedy_pack_stats
ORACLE_SQL["greedy_pack_stats"] = _greedy_pack_sql()


def curated_pack_stats(sf_dir: str, cap: int = SEQ_LEN,
                       shard_docs: int = PACK_SHARD):
    """End-to-end CURATION → PACKING composition — the question a
    training-data owner actually asks ("after the quality/dedup/
    decontamination gates, what do my training shards look like and
    how much padding do I pay?"): :func:`greedy_pack_stats`' sharded
    greedy first-fit run over ONLY the documents `curation.
    curate_corpus` keeps. Shard identity stays ``doc_id //
    shard_docs`` (dropped docs leave holes, they don't reshuffle
    survivors across shards — resumable and layout-independent).

    Scale shape: the keep-set is an inner hash join of two narrow int
    streams (verdicts never materialize on the driver), then the same
    bounded shard-bucket fold as the uncurated audit."""
    from .curation import curate_corpus

    n_buckets = 64
    kept = curate_corpus(sf_dir).map_batches(
        lambda t: t.filter(
            pc.equal(t.column("kept"), pa.scalar(1, pa.int64()))
        ).select(["doc_id"]),
        batch_format="pyarrow")

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = np.fromiter(
            (len(t.split()) for t in b.column("text").to_pylist()),
            dtype=np.int64, count=len(ids))
        return pa.table({
            "doc_id": pa.array(ids),
            "n": pa.array(n),
        })

    rows = hash_join(ds.map_batches(counts, batch_format="pyarrow",
                                    batch_size=8192),
                     kept, "inner", "doc_id")

    def shardize(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        shard = ids // shard_docs
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n": b.column("n"),
            "shard": pa.array(shard),
            "kb": pa.array((shard % n_buckets).astype(np.int32)),
        })

    return (rows.map_batches(shardize, batch_format="pyarrow")
            .groupby("kb").map_groups(_greedy_fold(cap),
                                      batch_format="pyarrow"))


def _curated_pack_sql(cap: int = SEQ_LEN,
                      shard_docs: int = PACK_SHARD) -> str:
    from .curation import _CURATE_CORE_SQL

    return f"""
WITH RECURSIVE {_CURATE_CORE_SQL.strip().removeprefix("WITH ")},
kv AS (SELECT doc_id FROM curated WHERE kept = 1),
d2 AS (
  SELECT d.doc_id,
         CASE WHEN trim(d.text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(d.text), '\\s+')) END
             AS n
  FROM documents d JOIN kv USING (doc_id)
), {_greedy_recurrence_sql(cap, shard_docs, "d2")}
"""


QUERIES["curated_pack_stats"] = curated_pack_stats
ORACLE_SQL["curated_pack_stats"] = _curated_pack_sql()
