"""End-to-end corpus curation: the composite pass a training-data user
actually runs before pretraining.

One pipeline composes the four standard curation gates over the
``documents`` table (each also available standalone):

* **quality** — Gopher-rule filter (`textstats.gopher_quality_filter`)
* **language** — stopword-profile language ID (`textstats.lang_id`)
* **exact dedup** — lowest-doc_id-per-md5(text) canonical choice
  (`dedup.exact_dedup` semantics)
* **decontamination** — distinct word-8-grams shared with the stand-in
  benchmark set (`decontam.decontaminate` semantics)

Scale shape (the point of the composite): the heavy ``text`` column is
read ONCE and reduced to ~60-byte signal rows inside a single fused
``map_batches`` (the benchmark gram set is a `ray.put` broadcast built
from a row-filter-pushdown read); the only shuffle is a bounded-bucket
groupby over those narrow rows to resolve exact-dup canonicals. At
100 TB nothing but signals moves between nodes, and no stage holds more
than one block of text.

Verdict precedence for the report: quality > duplicate > contaminated
(a doc failing several gates counts once, under the first).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.hashing import md5_hex
from ..functions.numeric import round_half_away
from .decontam import _BENCH_MAX_ID, _bench_grams, _doc_grams
from .combine import combine
from .dedup import _bucket_count
from .inputs import scan
from .textstats import (_ALPHA, _LANG_PROFILES, GOPHER_MAX_MEAN_LEN,
                        GOPHER_MAX_WORDS, GOPHER_MIN_ALPHA,
                        GOPHER_MIN_MEAN_LEN, GOPHER_MIN_STOPS,
                        GOPHER_MIN_WORDS, STOPWORDS, _LANG_CASE, _LANG_HITS)


class _Signals:
    """Fused per-document signal extractor (stateful actor stage).

    One pass over the text computes every gate's inputs: Gopher
    signals, language guess, md5 hash + dedup bucket, and the
    contamination hit count against the broadcast benchmark gram set.
    Benchmark rows (``doc_id < _BENCH_MAX_ID``) are dropped — they are
    the eval set, not corpus candidates.
    """

    def __init__(self, bench_ref, n_buckets: int):
        self.bench = ray.get(bench_ref)
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}
        self.langs = sorted(self.profiles)
        self.stops = frozenset(STOPWORDS)
        self.n_buckets = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater_equal(batch.column("doc_id"), _BENCH_MAX_ID))
        passes, langs, hashes, buckets, contam = [], [], [], [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            n = len(toks)
            ml = round_half_away(sum(map(len, toks)) / n, 4) if n else 0.0
            ar = round_half_away(
                sum(1 for w in toks if _ALPHA.search(w)) / n, 4) if n else 0.0
            sh = len({w.lower() for w in toks} & self.stops)
            passes.append(int(
                GOPHER_MIN_WORDS <= n <= GOPHER_MAX_WORDS
                and GOPHER_MIN_MEAN_LEN <= ml <= GOPHER_MAX_MEAN_LEN
                and ar >= GOPHER_MIN_ALPHA and sh >= GOPHER_MIN_STOPS))
            # language guess — identical arithmetic to textstats.LangId
            lset = set(t.lower().split())
            best, best_hits = "und", 0
            for lang in self.langs:
                hits = len(lset & self.profiles[lang])
                if hits > best_hits:
                    best, best_hits = lang, hits
            langs.append(best)
            h = md5_hex(t)
            hashes.append(h)
            buckets.append(int(h[:8], 16) % self.n_buckets)
            contam.append(len(_doc_grams(t) & self.bench))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text_hash": pa.array(hashes, type=pa.string()),
            "bucket": pa.array(buckets, type=pa.int32()),
            "passes_quality": pa.array(passes, type=pa.int64()),
            "guessed_lang": pa.array(langs, type=pa.string()),
            "n_contam_hits": pa.array(contam, type=pa.int64()),
        })


def _resolve_bucket(g: pa.Table) -> pa.Table:
    """Per hash-bucket: mark the lowest doc_id of each text_hash
    canonical, then combine the gate verdicts into ``kept``."""
    import numpy as np

    g = g.sort_by([("text_hash", "ascending"), ("doc_id", "ascending")])
    th = g.column("text_hash").to_numpy(
        zero_copy_only=False).astype(object)
    is_canon = np.r_[True, th[1:] != th[:-1]].astype(np.int64) \
        if len(th) else np.zeros(0, dtype=np.int64)
    pq_ = g.column("passes_quality").to_numpy(zero_copy_only=False)
    nc = g.column("n_contam_hits").to_numpy(zero_copy_only=False)
    kept = ((pq_ == 1) & (is_canon == 1) & (nc == 0)).astype(np.int64)
    return pa.table({
        "doc_id": g.column("doc_id"),
        "passes_quality": g.column("passes_quality"),
        "guessed_lang": g.column("guessed_lang"),
        "is_canonical": pa.array(is_canon),
        "n_contam_hits": g.column("n_contam_hits"),
        "kept": pa.array(kept),
    })


def curate_corpus(sf_dir: str):
    """Per-document curation verdicts: every gate's signal plus the
    final ``kept`` flag — non-destructive, so drop decisions stay
    auditable (and the DuckDB oracle can value-check every column)."""
    bench_ref = ray.put(_bench_grams(sf_dir))
    n_buckets = _bucket_count(sf_dir)
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    return (
        ds.map_batches(_Signals,
                       fn_constructor_kwargs={"bench_ref": bench_ref,
                                              "n_buckets": n_buckets},
                       batch_format="pyarrow", batch_size=4096,
                       concurrency=2)
        .groupby("bucket")
        .map_groups(_resolve_bucket, batch_format="pyarrow")
    )


def curation_report(sf_dir: str):
    """Corpus-level drop accounting: doc counts per verdict
    (kept / dropped_quality / dropped_duplicate / dropped_contaminated,
    precedence in that order). The tiny final groupby runs over one
    int column."""
    ds = curate_corpus(sf_dir)

    def verdict(batch: pa.Table) -> pa.Table:
        q = batch.column("passes_quality").to_numpy(zero_copy_only=False)
        c = batch.column("is_canonical").to_numpy(zero_copy_only=False)
        h = batch.column("n_contam_hits").to_numpy(zero_copy_only=False)
        out = []
        for qi, ci, hi in zip(q, c, h):
            if qi == 0:
                out.append("dropped_quality")
            elif ci == 0:
                out.append("dropped_duplicate")
            elif hi > 0:
                out.append("dropped_contaminated")
            else:
                out.append("kept")
        return pa.table({"verdict": pa.array(out, type=pa.string())})

    return combine(ds, "verdict", {"n_docs": ("verdict", "count")}, verdict)


def _gopher_pass_sql(src: str) -> str:
    """passes_quality as a scalar over a relation with (doc_id, toks)."""
    stops = ", ".join(f"'{w}'" for w in STOPWORDS)
    return rf"""
        CAST(CASE WHEN len(toks) BETWEEN {GOPHER_MIN_WORDS}
                                     AND {GOPHER_MAX_WORDS}
              AND ROUND(CAST(length(array_to_string(toks, '')) AS DOUBLE)
                        / len(toks), 4)
                  BETWEEN {GOPHER_MIN_MEAN_LEN} AND {GOPHER_MAX_MEAN_LEN}
              AND ROUND(CAST(len(list_filter(toks,
                        w -> regexp_matches(w, '[A-Za-z]'))) AS DOUBLE)
                        / len(toks), 4) >= {GOPHER_MIN_ALPHA}
              AND len(list_intersect(
                      list_distinct(list_transform(toks, w -> lower(w))),
                      [{stops}])) >= {GOPHER_MIN_STOPS}
            THEN 1 ELSE 0 END AS BIGINT)
    """


_CURATE_CORE_SQL = rf"""
    train AS (
      SELECT doc_id, text FROM documents WHERE doc_id >= {_BENCH_MAX_ID}
    ), tk AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
      FROM train
    ), sig AS (
      SELECT doc_id, {_gopher_pass_sql('tk')} AS passes_quality FROM tk
    ), lh AS (
      SELECT doc_id, {_LANG_HITS}
      FROM (SELECT doc_id,
                   list_distinct(regexp_split_to_array(lower(trim(text)),
                                                       '\s+')) AS toks
            FROM train)
    ), lang AS (
      SELECT doc_id, {_LANG_CASE} AS guessed_lang FROM lh
    ), canon AS (
      SELECT doc_id,
             CAST(CASE WHEN doc_id = MIN(doc_id)
                            OVER (PARTITION BY md5(text))
                  THEN 1 ELSE 0 END AS BIGINT) AS is_canonical
      FROM train
    ), grams AS (
      SELECT doc_id, list_transform(
          range(1, greatest(len(toks) - 7, 1) + 1),
          i -> array_to_string(toks[i:i+7], ' ')) AS gs
      FROM (SELECT doc_id,
                   regexp_split_to_array(trim(text), '\s+') AS toks
            FROM documents)
    ), bench AS (
      SELECT DISTINCT unnest(gs) AS g FROM grams
      WHERE doc_id < {_BENCH_MAX_ID}
    ), tr AS (
      SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
      WHERE doc_id >= {_BENCH_MAX_ID}
    ), contam AS (
      SELECT t.doc_id, COUNT(b.g) AS n_contam_hits
      FROM tr t LEFT JOIN bench b USING (g) GROUP BY t.doc_id
    ), curated AS (
      SELECT s.doc_id, s.passes_quality, l.guessed_lang, c.is_canonical,
             ct.n_contam_hits,
             CAST(CASE WHEN s.passes_quality = 1 AND c.is_canonical = 1
                            AND ct.n_contam_hits = 0
                  THEN 1 ELSE 0 END AS BIGINT) AS kept
      FROM sig s JOIN lang l USING (doc_id) JOIN canon c USING (doc_id)
           JOIN contam ct USING (doc_id)
    )
"""

ORACLE_SQL = {
    "curate_corpus": f"WITH {_CURATE_CORE_SQL} SELECT * FROM curated",
    "curation_report": f"""
        WITH {_CURATE_CORE_SQL}
        SELECT CASE WHEN passes_quality = 0 THEN 'dropped_quality'
                    WHEN is_canonical = 0 THEN 'dropped_duplicate'
                    WHEN n_contam_hits > 0 THEN 'dropped_contaminated'
                    ELSE 'kept' END AS verdict,
               COUNT(*) AS n_docs
        FROM curated GROUP BY 1
    """,
}

QUERIES = {
    "curate_corpus": curate_corpus,
    "curation_report": curation_report,
}
