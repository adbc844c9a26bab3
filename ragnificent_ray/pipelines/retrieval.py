"""Lexical (BM25) retrieval over the ``documents`` table.

The lexical counterpart to ``pipelines/ann.py``'s dense search — the
other half of a hybrid RAG retrieval stack (reference surface:
``rag/search.py``-style top-k ranking; scoring here is standard
Lucene-variant BM25, public formula).

Distributed shape, 100 TB-conscious:

1. **Corpus-stats pass** — one streaming pass emits a single partial
   row per block (doc count, token count, per-query-term document
   frequencies); the driver folds the ≤ n_blocks rows. Only the
   handful of query terms ever get a DF counter — never a full
   vocabulary shuffle (that is ``vocab_top``'s job).
2. **Score-and-select pass** — the tiny stats are closure-broadcast;
   each block scores its docs vectorized-per-doc against every query
   and keeps its local top-k per query (the combiner), so the shuffle
   moves ≤ k rows per query per block; a per-query ``map_groups``
   merges the survivors. Same partial-top-k shape as
   ``ann.py:ann_topk``.

Scores are rounded to 4 decimals BEFORE ranking on both sides so the
rank column is stable under fp summation-order differences; ties break
on ``doc_id``.
"""

from __future__ import annotations

import math
from collections import Counter

import pandas as pd
import numpy as np
import pyarrow as pa

from ..functions.hashing import stable_hash64
from ..functions.numeric import round_half_away
from .inputs import scan

# fixed benchmark queries (terms exist in the synthetic corpus vocabulary)
BM25_QUERIES: dict[int, tuple[str, ...]] = {
    0: ("hash", "join"),
    1: ("merge", "sort", "window"),
    2: ("stream", "filter"),
}
K1 = 1.2
B = 0.75
TOP_K = 10


def _all_terms() -> tuple[str, ...]:
    return tuple(sorted({t for ts in BM25_QUERIES.values() for t in ts}))


def _corpus_stats(sf_dir: str) -> tuple[int, float, dict[str, int]]:
    """(n_docs, avgdl, per-term DF) in one streaming pass — one partial
    row per block reaches the driver."""
    terms = _all_terms()
    ds = scan(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tokens = 0
        df = dict.fromkeys(terms, 0)
        for t in texts:
            toks = t.strip().split()
            n_tokens += len(toks)
            present = set(toks)
            for term in terms:
                if term in present:
                    df[term] += 1
        return pa.table({
            "n_docs": pa.array([len(texts)], type=pa.int64()),
            "n_tokens": pa.array([n_tokens], type=pa.int64()),
            **{f"df_{i}": pa.array([df[t]], type=pa.int64())
               for i, t in enumerate(terms)},
        })

    rows = ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=8192).take_all()
    n_docs = sum(r["n_docs"] for r in rows)
    n_tokens = sum(r["n_tokens"] for r in rows)
    df = {t: sum(r[f"df_{i}"] for r in rows)
          for i, t in enumerate(terms)}
    return n_docs, n_tokens / n_docs, df


def bm25_topk(sf_dir: str):
    """Top-10 docs per fixed query by BM25 (k1=1.2, b=0.75, Lucene idf
    ``ln(1 + (N - df + 0.5) / (df + 0.5))``); whitespace tokens, same
    tokenization as ``textstats``. SQL-oracle-checkable."""
    n_docs, avgdl, df = _corpus_stats(sf_dir)
    idf = {t: math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5))
           for t, d in df.items()}

    def score_block(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        rows: dict[int, list[tuple[float, int]]] = {
            q: [] for q in BM25_QUERIES}
        for did, text in zip(ids, texts):
            toks = text.strip().split()
            dl = len(toks)
            if not dl:
                continue
            tf = Counter(toks)
            norm = K1 * (1.0 - B + B * dl / avgdl)
            for qid, terms in BM25_QUERIES.items():
                s = 0.0
                for term in sorted(terms):
                    f = tf.get(term, 0)
                    if f:
                        s += idf[term] * f * (K1 + 1.0) / (f + norm)
                if s > 0.0:
                    rows[qid].append((round_half_away(s, 4), did))
        out_q, out_d, out_s = [], [], []
        for qid, cand in rows.items():
            # local top-k: highest rounded score first, doc_id tiebreak
            cand.sort(key=lambda p: (-p[0], p[1]))
            for s, d in cand[:TOP_K]:
                out_q.append(qid)
                out_d.append(d)
                out_s.append(s)
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        })

    def merge(g: pa.Table) -> pa.Table:
        g = g.sort_by([("score", "descending"),
                       ("doc_id", "ascending")]).slice(0, TOP_K)
        return pa.table({
            "query_id": g.column("query_id"),
            "doc_id": g.column("doc_id"),
            "rank": pa.array(np.arange(1, g.num_rows + 1,
                                       dtype=np.int64)),
            "score": g.column("score"),
        })

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        ds.map_batches(score_block, batch_format="pyarrow", batch_size=8192)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )


def _bm25_sql() -> str:
    terms_values = ", ".join(
        f"({qid}, '{t}')"
        for qid in sorted(BM25_QUERIES)
        for t in sorted(BM25_QUERIES[qid]))
    return rf"""
        WITH toks AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents WHERE len(trim(text)) > 0
        ), stats AS (
          SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs,
                 CAST(SUM(len(toks)) AS DOUBLE) / COUNT(*) AS avgdl
          FROM toks
        ), terms(query_id, term) AS (VALUES {terms_values}),
        tdf AS (
          SELECT term, CAST(COUNT(DISTINCT t.doc_id) AS DOUBLE) AS df
          FROM (SELECT DISTINCT term FROM terms) q
          JOIN toks t ON list_contains(t.toks, q.term)
          GROUP BY term
        ), scored AS (
          SELECT r.query_id, t.doc_id,
                 ROUND(SUM(
                   ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
                   * tfv * ({K1} + 1)
                   / (tfv + {K1} * (1 - {B} + {B} * len(t.toks) / s.avgdl))
                 ), 4) AS score
          FROM terms r
          JOIN tdf d USING (term)
          CROSS JOIN stats s
          JOIN toks t ON list_contains(t.toks, r.term)
          CROSS JOIN LATERAL (SELECT CAST(len(list_filter(
              t.toks, x -> x = r.term)) AS DOUBLE) AS tfv) f
          GROUP BY r.query_id, t.doc_id
        )
        SELECT query_id, doc_id, rank, score FROM (
          SELECT query_id, doc_id, score,
                 ROW_NUMBER() OVER (PARTITION BY query_id
                                    ORDER BY score DESC, doc_id) AS rank
          FROM scored) WHERE rank <= {TOP_K}
    """


def inverted_index(sf_dir: str):
    """Inverted-index build: token → (document frequency, md5 digest of
    the sorted posting list). Each block emits its DISTINCT
    (token, doc_id) pairs — the inherent shuffle volume of index
    construction — keyed by a BOUNDED bucket of the token hash, and
    each bucket assembles its tokens' postings with vectorized pandas
    (sort + groupby-agg), never one Python call per token. The digest
    stands in for the posting list itself so the result is
    value-hashable against the SQL oracle; at scale the same bucketing
    writes the raw postings as hash-partitioned parquet."""
    import hashlib

    n_buckets = 64
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        out_t, out_d, out_b = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for tok in set(text.strip().split()):
                if tok:
                    out_t.append(tok)
                    out_d.append(did)
        # stable across workers (builtin hash() is per-process salted)
        for t in out_t:
            out_b.append(stable_hash64(t) % n_buckets)
        return pa.table({
            "token": pa.array(out_t, type=pa.string()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "bucket": pa.array(out_b, type=pa.int32()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("token", "ascending"), ("doc_id", "ascending")])
        tok = g.column("token").to_numpy(
            zero_copy_only=False).astype(object)
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)
        first = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        ends = np.r_[first[1:], len(tok)]
        docs_str = doc.astype(str)
        return pa.table({
            "token": pa.array(tok[first], type=pa.string()),
            "df": pa.array(ends - first, type=pa.int64()),
            "postings_md5": pa.array(
                [hashlib.md5(",".join(docs_str[a:b]).encode())
                 .hexdigest() for a, b in zip(first, ends)],
                type=pa.string()),
        })

    return (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["bucket"])
                     if "bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


_INVERTED_SQL = r"""
    WITH pairs AS (
      SELECT DISTINCT doc_id,
             unnest(regexp_split_to_array(trim(text), '\s+')) AS token
      FROM documents
    )
    SELECT token, COUNT(*) AS df,
           md5(string_agg(CAST(doc_id AS VARCHAR), ','
                          ORDER BY doc_id)) AS postings_md5
    FROM pairs WHERE token <> ''
    GROUP BY token
"""

ORACLE_SQL = {"bm25_topk": _bm25_sql(), "inverted_index": _INVERTED_SQL}

QUERIES = {"bm25_topk": bm25_topk, "inverted_index": inverted_index}
