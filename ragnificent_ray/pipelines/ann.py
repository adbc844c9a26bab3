"""Similarity search over the ``embeddings`` table.

* ``ann_topk`` — brute-force cosine top-k: the query matrix is broadcast
  (captured in the map's closure), every batch computes a block matmul
  and keeps its local top-k per query, then a tiny per-query
  ``map_groups`` merges partials — the canonical distributed exact-kNN
  shape. SQL-checkable.
* ``ann_lsh_topk`` — the scale path: random-hyperplane LSH buckets
  (deterministic seed); queries probe only matching buckets. Approximate
  (rows-only check): at 10^10 rows the bucketing turns the all-pairs
  matmul into per-bucket work.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.numeric import list_column_matrix, round_half_away
from .inputs import _pq, scan

TOP_K = 10
N_QUERIES = 5
LSH_PLANES = 8


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Query vectors via a FILTERED parquet read (row-group pruning —
    only the query rows leave storage, never the full table)."""
    t = pq.read_table(_pq(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_QUERIES)])
    qids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    q = list_column_matrix(t.column("embedding"), dtype=np.float64)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    return qids, qn


def _partial_topk(qids: np.ndarray, qn: np.ndarray, k: int):
    """Per-batch map: each query's local top-``k`` (query_id,
    neighbor_id, sim) rows in deterministic (−sim, id) order, the query
    matrix captured in the closure."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        sims = qn @ m.T  # (Q, B)
        out_q, out_n, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(len(qids)):
            order = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.extend([int(qids[qi])] * len(order))
            out_n.extend(ids[order].tolist())
            out_s.extend(sims[qi][order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    return partial


def _ranked_topk(g: pa.Table) -> pa.Table:
    """One query's merged top-``TOP_K`` with 1-based ranks and the
    4-decimal cosine."""
    g = g.sort_by([("sim", "descending"),
                   ("neighbor_id", "ascending")]).slice(0, TOP_K)
    return pa.table({
        "query_id": g.column("query_id"),
        "neighbor_id": g.column("neighbor_id"),
        "rank": pa.array(np.arange(1, g.num_rows + 1, dtype=np.int64)),
        "cos_sim": pa.array(round_half_away(
            g.column("sim").to_numpy(zero_copy_only=False), 4)),
    })


def ann_topk(sf_dir: str):
    """Exact cosine top-k of every vec_id < N_QUERIES query."""
    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return (
        ds.map_batches(_partial_topk(*_query_matrix(sf_dir), TOP_K),
                       batch_format="pyarrow", batch_size=4096)
        .groupby("query_id")
        .map_groups(_ranked_topk, batch_format="pyarrow")
    )


def ann_lsh_topk(sf_dir: str):
    """Approximate top-k: random-hyperplane buckets, probe own bucket.

    Deterministic (seeded planes); recall < 1 by design — rows-only
    check. Pattern: add bucket column → groupby bucket → exact search
    inside the bucket for the queries hashed there."""
    rng = np.random.Generator(np.random.PCG64(7))
    qids, qn = _query_matrix(sf_dir)
    dim = qn.shape[1]
    planes = rng.standard_normal((LSH_PLANES, dim))
    qbuckets = (qn @ planes.T > 0) @ (1 << np.arange(LSH_PLANES))

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def bucket_search(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        buckets = (m @ planes.T > 0) @ (1 << np.arange(LSH_PLANES))
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            mask = buckets == qbuckets[qi]
            if not mask.any():
                continue
            sims = qn[qi] @ m[mask].T
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -sims))[:TOP_K]
            out_q.extend([int(qids[qi])] * len(order))
            out_n.extend(sub_ids[order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    return (
        ds.map_batches(bucket_search, batch_format="pyarrow",
                       batch_size=4096)
        .groupby("query_id")
        .map_groups(_ranked_topk, batch_format="pyarrow")
    )




def ann_lsh_recall(sf_dir: str):
    """Recall@k of the LSH probe against the exact top-k, per query —
    the accuracy gauge every approximate-index deployment reports
    alongside its speedup.

    Both result sets are tiny (≤ Q·k rows), so the comparison is a
    tagged union + per-query set overlap; the heavy work is the two
    searches themselves, which keep their own scale shapes."""

    def tag(name):
        def add(batch: pa.Table, name=name) -> pa.Table:
            return pa.table({
                "query_id": batch["query_id"],
                "neighbor_id": batch["neighbor_id"],
                "src": pa.array([name] * len(batch), type=pa.string()),
            })
        return add

    both = ann_topk(sf_dir).map_batches(
        tag("exact"), batch_format="pyarrow").union(
        ann_lsh_topk(sf_dir).map_batches(tag("lsh"), batch_format="pyarrow"))

    def recall(g: pa.Table) -> pa.Table:
        src_col = g.column("src")
        e = set(g.filter(pc.equal(src_col, "exact"))
                .column("neighbor_id").to_pylist())
        l = set(g.filter(pc.equal(src_col, "lsh"))
                .column("neighbor_id").to_pylist())
        return pa.table({
            "query_id": pa.array([g.column("query_id")[0].as_py()],
                                 type=pa.int64()),
            "n_exact": pa.array([len(e)], type=pa.int64()),
            "n_lsh": pa.array([len(l)], type=pa.int64()),
            "recall": pa.array(
                [round_half_away(len(e & l) / len(e), 4)
                 if e else 0.0], type=pa.float64()),
        })

    return both.groupby("query_id").map_groups(recall,
                                               batch_format="pyarrow")


def search_rerank(sf_dir: str):
    """Vector search + rerank (O3, ``rag/search.py:148-305``): over-fetch
    2k candidates by cosine, rerank with the reference's exact formula
    ``0.7·cos + 0.2·term_overlap + 0.1·min(1, 200/words)``, keep top k.

    Distributed shape: block-matmul partial top-2k per batch (queries
    broadcast), per-query merge, then the rerank touches ONLY the ≤ 2k·Q
    candidate texts via an id-filtered parquet read (the candidate→
    documents semi-join pushed down to the scan)."""
    over_k = 2 * TOP_K
    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def merge(g: pa.Table) -> pa.Table:
        return g.sort_by([("sim", "descending"),
                          ("neighbor_id", "ascending")]).slice(0, over_k)

    cands = (
        ds.map_batches(_partial_topk(*_query_matrix(sf_dir), over_k),
                       batch_format="pyarrow", batch_size=4096)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    ).to_pandas()

    # candidate-only text lookup: an `in`-filtered parquet read is the
    # candidate-ids→documents semi-join pushed down to the scan — only
    # row groups holding the ≤ 2k·Q+Q candidate ids are read.
    need = sorted(set(cands["neighbor_id"]) | set(cands["query_id"]))
    dt = pq.read_table(_pq(sf_dir, "documents"), columns=["doc_id", "text"],
                       filters=[("doc_id", "in", need)])
    texts = dict(zip(dt.column("doc_id").to_pylist(),
                     dt.column("text").to_pylist()))

    rows = []
    for qid, grp in cands.groupby("query_id"):
        q_terms = set(texts[qid].lower().split())
        scored = []
        for _, r in grp.iterrows():
            did = int(r["neighbor_id"])
            content = texts[did]
            content_terms = set(content.lower().split())
            overlap = (len(q_terms & content_terms) / len(q_terms)
                       if q_terms else 0.0)
            words = len(content.split())
            length_factor = min(1.0, 200.0 / max(words, 1))
            adjusted = r["sim"] * 0.7 + overlap * 0.2 + length_factor * 0.1
            scored.append((adjusted, did))
        scored.sort(key=lambda x: (-x[0], x[1]))
        for rank, (adj, did) in enumerate(scored[:TOP_K], start=1):
            rows.append((int(qid), did, rank,
                         float(round_half_away(adj, 4))))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "rank": pa.array([r[2] for r in rows], type=pa.int64()),
        "score": pa.array([r[3] for r in rows], type=pa.float64()),
    })


MMR_LAMBDA = 0.7
MMR_CANDIDATES = 20
MMR_SELECT = 5


def mmr_rerank(sf_dir: str):
    """Maximal-marginal-relevance reranking (Carbonell & Goldstein
    1998): for each query, greedily pick MMR_SELECT of the top
    MMR_CANDIDATES cosine candidates maximizing
    λ·sim(q,d) − (1−λ)·max_{s∈selected} sim(d,s) — the diversity
    rerank a RAG retriever runs so the context window isn't five
    near-copies of one passage.

    Scale shape: candidate generation is the distributed partial-top-k
    (per-block lexsort cut + per-query merge); the greedy recurrence
    touches only Q×MMR_CANDIDATES rows, and the candidates' vectors
    come from an id-filtered parquet read (the semi-join pushed to the
    scan) — never a corpus materialization. Ties break on neighbor_id,
    so the selection is a total order."""
    import pyarrow.parquet as pq

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def merge(g: pa.Table) -> pa.Table:
        return g.sort_by([("sim", "descending"),
                          ("neighbor_id", "ascending")]
                         ).slice(0, MMR_CANDIDATES)

    cands = (
        ds.map_batches(
            _partial_topk(*_query_matrix(sf_dir), MMR_CANDIDATES),
            batch_format="pyarrow", batch_size=4096)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    ).to_pandas()

    need = sorted(set(cands["neighbor_id"].astype(int)))
    et = pq.read_table(_pq(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "in", need)])
    eids = np.asarray(et.column("vec_id").to_pylist(), dtype=np.int64)
    evecs = list_column_matrix(et.column("embedding"), dtype=np.float64)
    evecs /= np.linalg.norm(evecs, axis=1, keepdims=True)
    eorder = np.argsort(eids)
    eids, evecs = eids[eorder], evecs[eorder]

    rows = []
    for qid, grp in cands.groupby("query_id"):
        grp = grp.sort_values(["sim", "neighbor_id"],
                              ascending=[False, True])
        nids = grp["neighbor_id"].to_numpy(dtype=np.int64)
        qsim = grp["sim"].to_numpy(dtype=np.float64)
        vecs = evecs[np.searchsorted(eids, nids)]
        pair = vecs @ vecs.T  # candidate×candidate cosine
        picked: list[int] = []
        avail = np.ones(len(nids), dtype=bool)
        for rank in range(1, min(MMR_SELECT, len(nids)) + 1):
            if picked:
                div = pair[:, picked].max(axis=1)
            else:
                div = np.zeros(len(nids))
            score = MMR_LAMBDA * qsim - (1.0 - MMR_LAMBDA) * div
            score[~avail] = -np.inf
            # deterministic argmax: best score, then smallest id
            best = np.lexsort((nids, -score))[0]
            picked.append(int(best))
            avail[best] = False
            rows.append((int(qid), rank, int(nids[best]),
                         float(round_half_away(score[best], 4))))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "rank": pa.array([r[1] for r in rows], type=pa.int64()),
        "neighbor_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "mmr_score": pa.array([r[3] for r in rows], type=pa.float64()),
    })


ORACLE_SQL = {
    "ann_topk": f"""
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
            FROM embeddings
        ), q AS (
            SELECT vec_id AS query_id, emb AS qemb FROM e
            WHERE vec_id < {N_QUERIES}
        ), scored AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(q.qemb, e.emb) AS sim
            FROM q CROSS JOIN e
        )
        SELECT query_id, neighbor_id,
               CAST(ROW_NUMBER() OVER (
                   PARTITION BY query_id ORDER BY sim DESC, neighbor_id
               ) AS BIGINT) AS rank,
               ROUND(sim, 4) AS cos_sim
        FROM scored
        QUALIFY rank <= {TOP_K}
    """,
    "search_rerank": """
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
            FROM embeddings
        ), q AS (
            SELECT vec_id AS query_id, emb AS qemb FROM e
            WHERE vec_id < 5
        ), scored AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(q.qemb, e.emb) AS sim
            FROM q CROSS JOIN e
        ), cands AS (
            SELECT query_id, neighbor_id, sim,
                   ROW_NUMBER() OVER (
                       PARTITION BY query_id ORDER BY sim DESC, neighbor_id
                   ) AS rn
            FROM scored QUALIFY rn <= 20
        ), toks AS (
            SELECT doc_id,
                   list_distinct(regexp_split_to_array(lower(trim(text)),
                                                       '\\s+')) AS terms,
                   len(regexp_split_to_array(trim(text), '\\s+')) AS words
            FROM documents
        ), rer AS (
            SELECT c.query_id, c.neighbor_id AS doc_id,
                   c.sim * 0.7
                   + 0.2 * CAST(len(list_intersect(qt.terms, dt.terms))
                                AS DOUBLE) / len(qt.terms)
                   + 0.1 * least(1.0, 200.0 / greatest(dt.words, 1))
                       AS adjusted
            FROM cands c
            JOIN toks qt ON qt.doc_id = c.query_id
            JOIN toks dt ON dt.doc_id = c.neighbor_id
        )
        SELECT query_id, doc_id,
               CAST(ROW_NUMBER() OVER (
                   PARTITION BY query_id ORDER BY adjusted DESC, doc_id
               ) AS BIGINT) AS rank,
               ROUND(adjusted, 4) AS score
        FROM rer
        QUALIFY rank <= 10
    """,
}

QUERIES = {
    "ann_topk": ann_topk,
    "ann_lsh_topk": ann_lsh_topk,
    "search_rerank": search_rerank,
    "ann_lsh_recall": ann_lsh_recall,
    "mmr_rerank": mmr_rerank,
}
