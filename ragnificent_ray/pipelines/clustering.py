"""Embedding-space clustering (the SemDeDup/corpus-mixing primitive).

Semantic curation pipelines cluster the corpus embedding space, then
work within clusters (SemDeDup drops near-duplicates per cluster;
mixing rebalances cluster mass). The scale-critical step is the
ASSIGNMENT pass: every vector against K centroids. K is small (1e2-1e5)
while the corpus is 100 TB — so centroids are a broadcast (captured in
the map's closure, block matmul per batch), never a join. The
per-cluster follow-on work is the bounded-bucket groupby discipline of
``pipelines/dedup.py`` (cluster id is the bucket).

``kmeans_assign`` does one deterministic assignment pass with centroids
seeded from the first K vectors (vec_id < K via row-filter pushdown, as
Lloyd's seeding step); every vector picks its nearest centroid by
squared euclidean distance with the centroid index as tiebreak. The
assignment margin in this corpus is >= 2e-4, orders of magnitude above
double-precision noise, so the DuckDB oracle value-checks exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.numeric import list_column_matrix, round_half_away
from .ann import N_QUERIES, TOP_K, _ranked_topk
from .combine import fold
from .inputs import _pq, scan

N_CENTROIDS = 8


def _centroids(sf_dir: str) -> np.ndarray:
    t = pq.read_table(_pq(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_CENTROIDS)])
    order = np.argsort(np.asarray(t.column("vec_id").to_pylist()))
    return list_column_matrix(t.column("embedding"),
                              dtype=np.float64)[order]


def _nearest(x: np.ndarray, c: np.ndarray) -> tuple:
    """``(cell, d)``: each row of ``x``'s nearest centroid of ``c`` and
    the squared euclidean distances ``d`` (rows × centroids), expanded
    as ``||x||^2 - 2 x.c + ||c||^2`` into one block matmul. np.argmin
    breaks exact ties on the lowest centroid index, matching the
    oracles' ``ORDER BY dist, cid``."""
    c_sq = (c * c).sum(axis=1)
    d = (x * x).sum(axis=1, keepdims=True) - 2.0 * (x @ c.T) + c_sq[None, :]
    return np.argmin(d, axis=1).astype(np.int64), d


def kmeans_assign(sf_dir: str):
    """Nearest-centroid assignment of every non-seed vector.

    Returns (vec_id, cluster, dist): the winning centroid index and the
    squared euclidean distance to it (rounded to 4 decimals)."""
    c = _centroids(sf_dir)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        keep = ids >= N_CENTROIDS
        ids = ids[keep]
        x = list_column_matrix(batch.column("embedding"),
                               dtype=np.float64)[keep]
        cluster, d = _nearest(x, c)
        dist = d[np.arange(len(ids)), cluster]
        return pa.table({
            "vec_id": pa.array(ids),
            "cluster": pa.array(cluster),
            "dist": pa.array(round_half_away(dist, 4)),
        })

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)


N_PROBE = 2
SEMDEDUP_TAU = 0.4


def ann_ivf_topk(sf_dir: str):
    """IVF approximate top-k: probe the ``N_PROBE`` nearest centroid
    cells per query, exact cosine rank within the probed cells.

    The scale path the brief names next to LSH bucketing: the K
    centroids are a broadcast (tiny), every batch assigns its vectors to
    cells with one block matmul and searches only the vectors whose cell
    one of the queries probes — per-batch work drops by ~N_PROBE/K
    versus brute force and nothing shuffles except the tiny per-query
    top-k merge. Assignment metric is squared euclidean on the raw
    vectors with centroid-index tiebreak (same as ``kmeans_assign``);
    ranking is cosine with neighbor-id tiebreak (same as ``ann_topk``).
    Approximate by design, yet fully deterministic, so the DuckDB oracle
    value-checks exactly.
    """
    cent = _centroids(sf_dir)

    t = pq.read_table(_pq(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_QUERIES)])
    qids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    q = list_column_matrix(t.column("embedding"), dtype=np.float64)
    order = np.argsort(qids)
    qids, q = qids[order], q[order]
    qd = _nearest(q, cent)[1]
    # N_PROBE nearest cells, (dist, cid) order — argsort is stable, so
    # equal distances resolve to the lower centroid index
    q_cells = np.argsort(qd, axis=1, kind="stable")[:, :N_PROBE]
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def probe_search(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        x = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        cell = _nearest(x, cent)[0]
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            mask = np.isin(cell, q_cells[qi])
            if not mask.any():
                continue
            sims = qn[qi] @ xn[mask].T
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
        ds.map_batches(probe_search, batch_format="pyarrow", batch_size=4096)
        .groupby("query_id")
        .map_groups(_ranked_topk, batch_format="pyarrow")
    )


def ann_ivf_recall(sf_dir: str):
    """Recall@k of the IVF probe against the exact top-k, per query —
    the tuning gauge for ``N_PROBE`` (probe more cells → higher recall,
    more compute). Same bounded-result comparison shape as
    ``ann.ann_lsh_recall`` (≤ Q·k rows per branch by construction)."""
    from .ann import ann_topk
    from ..functions.numeric import round_half_away as _r4

    def tag(name):
        def add(batch: pa.Table, name=name) -> pa.Table:
            return pa.table({
                "query_id": batch["query_id"],
                "neighbor_id": batch["neighbor_id"],
                "src": pa.array([name] * len(batch), type=pa.string()),
            })
        return add

    exact = ann_topk(sf_dir).map_batches(tag("exact"),
                                         batch_format="pyarrow")
    approx = ann_ivf_topk(sf_dir).map_batches(tag("ivf"),
                                              batch_format="pyarrow")

    def recall(g: pa.Table) -> pa.Table:
        src_col = g.column("src")
        e = set(g.filter(pc.equal(src_col, "exact"))
                .column("neighbor_id").to_pylist())
        a = set(g.filter(pc.equal(src_col, "ivf"))
                .column("neighbor_id").to_pylist())
        return pa.table({
            "query_id": pa.array([g.column("query_id")[0].as_py()],
                                 type=pa.int64()),
            "n_exact": pa.array([len(e)], type=pa.int64()),
            "n_ivf": pa.array([len(a)], type=pa.int64()),
            "recall": pa.array(
                [_r4(len(e & a) / len(e), 4) if e else 0.0],
                type=pa.float64()),
        })

    return (exact.union(approx)
            .groupby("query_id")
            .map_groups(recall, batch_format="pyarrow"))


def semantic_dedup(sf_dir: str):
    """SemDeDup: within each k-means cell, drop vectors that duplicate an
    earlier (lower-id) vector at cosine ≥ τ.

    The second SemDeDup half over :func:`kmeans_assign`: cluster id is
    the bounded bucket, the all-pairs cosine runs per cell (cell size is
    the knob — at 100 TB, K grows with the corpus so cells stay
    block-sized; ``dedup.py``'s bounded-bucket discipline). Output: one
    row per DROPPED vector with its keeper = the lowest-id same-cell
    vector at sim ≥ τ.
    """
    c = _centroids(sf_dir)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        keep = ids >= N_CENTROIDS
        ids = ids[keep]
        x = list_column_matrix(batch.column("embedding"),
                               dtype=np.float64)[keep]
        cluster = _nearest(x, c)[0]
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        return pa.table({
            "vec_id": pa.array(ids),
            "cluster": pa.array(cluster),
            "nemb": pa.array(list(xn)),
        })

    def prune(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        m = list_column_matrix(g.column("nemb"), dtype=np.float64)[order]
        sims = m @ m.T
        # qualifying keepers are strictly earlier ids at sim >= tau;
        # argmax over the boolean row picks the FIRST (lowest-id) one
        qual = sims >= SEMDEDUP_TAU
        qual[np.triu_indices(len(ids))] = False
        has = qual.any(axis=1)
        first = qual.argmax(axis=1)
        return pa.table({
            "vec_id": pa.array(ids[has]),
            "keeper": pa.array(ids[first[has]]),
            "cos_sim": pa.array(round_half_away(
                sims[np.arange(len(ids))[has], first[has]], 4),
                type=pa.float64()),
        })

    return (
        ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)
        .groupby("cluster")
        .map_groups(prune, batch_format="pyarrow")
    )


def cluster_purity(sf_dir: str):
    """K-means evaluation against the embeddings ground-truth ``label``:
    the (cluster, label) count matrix. Assignment is the broadcast
    matmul pass; each batch emits one partial row per (cluster, label)
    so the final two-key groupby moves a bounded handful of rows per
    block."""
    from collections import Counter

    cent = _centroids(sf_dir)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def assign_count(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        keep = ids >= N_CENTROIDS
        labels = np.asarray(batch.column("label").to_pylist(),
                            dtype=np.int64)[keep]
        x = list_column_matrix(batch.column("embedding"),
                               dtype=np.float64)[keep]
        cluster = _nearest(x, cent)[0]
        c: Counter = Counter(zip(cluster.tolist(), labels.tolist()))
        keys = sorted(c)
        return pa.table({
            "cluster": pa.array([k[0] for k in keys], type=pa.int64()),
            "label": pa.array([k[1] for k in keys], type=pa.int64()),
            "n": pa.array([c[k] for k in keys], type=pa.int64()),
        })

    return fold(ds.map_batches(assign_count, batch_format="pyarrow",
                               batch_size=4096),
                ["cluster", "label"], {"n": ("n", "sum")})


KNN_K = 10


def knn_label_accuracy(sf_dir: str):
    """Leave-one-out kNN label prediction over the embedding column —
    the standard embedding-quality eval (does cosine neighborhood
    structure recover the ground-truth ``label``?).

    Per vector: top-``KNN_K`` cosine neighbors excluding itself,
    majority vote with deterministic tie-break (higher count first,
    smaller label wins ties). Exact gate: the corpus matrix rides in the
    map's closure and each batch block-matmuls against it — same
    documented ~10M-vector ceiling as ``embedding_neardup``, with
    ``ann_ivf_topk`` as the bucketed scale route."""
    t = pq.read_table(_pq(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding", "label"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    labels = np.asarray(t.column("label").to_pylist(), dtype=np.int64)
    m = list_column_matrix(t.column("embedding"), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def vote(batch: pa.Table) -> pa.Table:
        q_ids = np.asarray(batch.column("vec_id").to_pylist(),
                           dtype=np.int64)
        q_lab = np.asarray(batch.column("label").to_pylist(),
                           dtype=np.int64)
        x = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        sims = x @ m.T  # (B, N)
        pred = np.empty(len(q_ids), dtype=np.int64)
        for i in range(len(q_ids)):
            row = sims[i].copy()
            row[ids == q_ids[i]] = -np.inf  # leave-one-out
            top = np.lexsort((ids, -row))[:KNN_K]
            votes: dict[int, int] = {}
            for lb in labels[top]:
                votes[int(lb)] = votes.get(int(lb), 0) + 1
            pred[i] = min(votes, key=lambda lb: (-votes[lb], lb))
        return pa.table({
            "vec_id": pa.array(q_ids),
            "true_label": pa.array(q_lab),
            "pred_label": pa.array(pred),
            "correct": pa.array((pred == q_lab).astype(np.int64)),
        })

    return ds.map_batches(vote, batch_format="pyarrow", batch_size=2048)


EMB_Q = 1000   # e-3 quantization, the embedding_gram convention


def embedding_centroid_shift(sf_dir: str):
    """Embedding-distribution drift gauge — the vector-side PSI: the
    cosine between the centroid of the FIRST id-half of the embedding
    table and the SECOND (ingest-order halves, the snapshot stand-in).
    Cosine ≈ 1 means the embedding distribution is stationary across
    ingestion; a drop says the upstream encoder or corpus mix moved
    and ANN index parameters (IVF centroids, PQ codebooks) need
    retraining. Reported with each half's vector count.

    Exactness: components quantize to e-3 integers (the
    embedding_gram convention), per-(dim, side) int64 sums fold
    distributed (≤128 rows per block), and the cosine's numerator and
    both norms are exact integer dot products on the 128 driver
    cells — ONE sqrt + division at the end, term-identical to the
    oracle's HUGEINT tree."""
    import math

    from ray.data.aggregate import Max, Min

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mm = ds.select_columns(["vec_id"]).aggregate(
        Min("vec_id"), Max("vec_id"))
    split = (int(mm["min(vec_id)"]) + int(mm["max(vec_id)"])) // 2

    def partial(b: pa.Table) -> pa.Table:
        y = list_column_matrix(b.column("embedding")) \
            .astype(np.float64) * EMB_Q
        # DuckDB ROUND is half-AWAY-from-zero; np.rint is half-even
        m = np.where(y >= 0, np.floor(y + 0.5),
                     np.ceil(y - 0.5)).astype(np.int64)
        side = (b.column("vec_id").to_numpy() > split).astype(np.int64)
        d = m.shape[1]
        rows_d, rows_s, rows_sum, rows_n = [], [], [], []
        for s in (0, 1):
            sel = m[side == s]
            rows_d.extend(range(d))
            rows_s.extend([s] * d)
            rows_sum.extend(sel.sum(axis=0).tolist()
                            if len(sel) else [0] * d)
            rows_n.extend([len(sel)] * d)
        return pa.table({
            "d": pa.array(rows_d, type=pa.int64()),
            "side": pa.array(rows_s, type=pa.int64()),
            "s": pa.array(rows_sum, type=pa.int64()),
            "n": pa.array(rows_n, type=pa.int64()),
        })

    rows = fold(ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=4096),
                ["d", "side"], {"s": ("s", "sum"), "n": ("n", "sum")}
                ).take_all()
    dim = max(r["d"] for r in rows) + 1
    sa = np.zeros(dim, dtype=object)
    sb = np.zeros(dim, dtype=object)
    na = nb = 0
    for r in rows:
        if r["side"] == 0:
            sa[r["d"]] = int(r["s"])
        else:
            sb[r["d"]] = int(r["s"])
    # vector counts: n was replicated per dim; take the dim-0 rows
    na = sum(int(r["n"]) for r in rows if r["side"] == 0
             and r["d"] == 0)
    nb = sum(int(r["n"]) for r in rows if r["side"] == 1
             and r["d"] == 0)
    num = int(sum(int(a) * int(b) for a, b in zip(sa, sb)))
    qa = int(sum(int(a) * int(a) for a in sa))
    qb = int(sum(int(b) * int(b) for b in sb))
    cos = (float(num) / math.sqrt(float(qa) * float(qb))
           if qa and qb else 0.0)
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "centroid_cosine": pa.array([round_half_away(cos, 6)],
                                    type=pa.float64()),
    })


_CENTROID_SHIFT_SQL = f"""
WITH mm AS (
  SELECT (MIN(vec_id) + MAX(vec_id)) // 2 AS split FROM embeddings
), e AS (
  SELECT CASE WHEN vec_id > mm.split THEN 1 ELSE 0 END AS side,
         generate_subscripts(embedding, 1) AS d,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {EMB_Q})
              AS BIGINT) AS xq
  FROM embeddings CROSS JOIN mm
), s AS (
  SELECT d, side, SUM(xq) AS s FROM e GROUP BY d, side
), w AS (
  SELECT SUM(a.s * b.s) AS num,
         SUM(a.s * a.s) AS qa, SUM(b.s * b.s) AS qb
  FROM s a JOIN s b ON a.d = b.d AND a.side = 0 AND b.side = 1
), n AS (
  SELECT SUM(CASE WHEN vec_id <= mm.split THEN 1 ELSE 0 END) AS n_a,
         SUM(CASE WHEN vec_id > mm.split THEN 1 ELSE 0 END) AS n_b
  FROM embeddings CROSS JOIN mm
)
SELECT CAST(n.n_a AS BIGINT) AS n_a, CAST(n.n_b AS BIGINT) AS n_b,
       CASE WHEN w.qa = 0 OR w.qb = 0 THEN 0.0
            ELSE ROUND(CAST(w.num AS DOUBLE)
                       / SQRT(CAST(w.qa AS DOUBLE)
                              * CAST(w.qb AS DOUBLE)), 6)
       END AS centroid_cosine
FROM w CROSS JOIN n
"""


ORACLE_SQL = {
    "embedding_centroid_shift": _CENTROID_SHIFT_SQL,
    "knn_label_accuracy": f"""
        WITH e AS (
          SELECT vec_id, label,
                 list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
          FROM embeddings
        ), scored AS (
          SELECT a.vec_id AS q, b.vec_id AS n, b.label,
                 list_cosine_similarity(a.emb, b.emb) AS sim
          FROM e a JOIN e b ON a.vec_id <> b.vec_id
        ), topk AS (
          SELECT q, label FROM scored
          QUALIFY ROW_NUMBER() OVER (
              PARTITION BY q ORDER BY sim DESC, n) <= {KNN_K}
        ), votes AS (
          SELECT q, label, COUNT(*) AS c FROM topk GROUP BY q, label
        ), pred AS (
          SELECT q AS vec_id, label AS pred_label FROM votes
          QUALIFY ROW_NUMBER() OVER (
              PARTITION BY q ORDER BY c DESC, label) = 1
        )
        SELECT e.vec_id, CAST(e.label AS BIGINT) AS true_label,
               CAST(p.pred_label AS BIGINT) AS pred_label,
               CAST(CASE WHEN e.label = p.pred_label
                         THEN 1 ELSE 0 END AS BIGINT) AS correct
        FROM e JOIN pred p USING (vec_id)
    """,
    "kmeans_assign": f"""
        WITH c AS (
          SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cvec
          FROM embeddings WHERE vec_id < {N_CENTROIDS}
        ), d AS (
          SELECT e.vec_id, c.cid,
                 list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec) ** 2
                     AS sqdist
          FROM embeddings e CROSS JOIN c
          WHERE e.vec_id >= {N_CENTROIDS}
        )
        SELECT vec_id, cid AS cluster, ROUND(sqdist, 4) AS dist
        FROM d
        QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                   ORDER BY sqdist, cid) = 1
    """,
    "ann_ivf_topk": f"""
        WITH e AS (
          SELECT vec_id,
                 list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
          FROM embeddings
        ), c AS (
          SELECT vec_id AS cid, emb AS cvec FROM e
          WHERE vec_id < {N_CENTROIDS}
        ), asg AS (
          SELECT e.vec_id, c.cid,
                 list_distance(e.emb, c.cvec) ** 2 AS sqdist
          FROM e CROSS JOIN c
          QUALIFY ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                     ORDER BY sqdist, cid) = 1
        ), qp AS (
          SELECT e.vec_id AS query_id, c.cid
          FROM e CROSS JOIN c
          WHERE e.vec_id < {N_QUERIES}
          QUALIFY ROW_NUMBER() OVER (
              PARTITION BY e.vec_id
              ORDER BY list_distance(e.emb, c.cvec) ** 2, cid
          ) <= {N_PROBE}
        ), scored AS (
          SELECT qp.query_id, a.vec_id AS neighbor_id,
                 list_cosine_similarity(qe.emb, ne.emb) AS sim
          FROM qp
          JOIN asg a ON a.cid = qp.cid
          JOIN e qe ON qe.vec_id = qp.query_id
          JOIN e ne ON ne.vec_id = a.vec_id
        )
        SELECT query_id, neighbor_id,
               CAST(ROW_NUMBER() OVER (
                   PARTITION BY query_id ORDER BY sim DESC, neighbor_id
               ) AS BIGINT) AS rank,
               ROUND(sim, 4) AS cos_sim
        FROM scored
        QUALIFY rank <= {TOP_K}
    """,
    "cluster_purity": f"""
        WITH c AS (
          SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cvec
          FROM embeddings WHERE vec_id < {N_CENTROIDS}
        ), asg AS (
          SELECT e.vec_id, c.cid,
                 list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec) ** 2
                     AS sqdist
          FROM embeddings e CROSS JOIN c
          WHERE e.vec_id >= {N_CENTROIDS}
          QUALIFY ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                     ORDER BY sqdist, cid) = 1
        )
        SELECT asg.cid AS cluster, CAST(e.label AS BIGINT) AS label,
               COUNT(*) AS n
        FROM asg JOIN embeddings e USING (vec_id)
        GROUP BY asg.cid, e.label
    """,
    "semantic_dedup": f"""
        WITH e AS (
          SELECT vec_id,
                 list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
          FROM embeddings
        ), c AS (
          SELECT vec_id AS cid, emb AS cvec FROM e
          WHERE vec_id < {N_CENTROIDS}
        ), asg AS (
          SELECT e.vec_id, c.cid,
                 list_distance(e.emb, c.cvec) ** 2 AS sqdist
          FROM e CROSS JOIN c
          WHERE e.vec_id >= {N_CENTROIDS}
          QUALIFY ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                     ORDER BY sqdist, cid) = 1
        ), pairs AS (
          SELECT x.vec_id, y.vec_id AS keeper,
                 list_cosine_similarity(xe.emb, ye.emb) AS sim
          FROM asg x
          JOIN asg y ON y.cid = x.cid AND y.vec_id < x.vec_id
          JOIN e xe ON xe.vec_id = x.vec_id
          JOIN e ye ON ye.vec_id = y.vec_id
        )
        SELECT vec_id, keeper, ROUND(sim, 4) AS cos_sim
        FROM pairs
        WHERE sim >= {SEMDEDUP_TAU}
        QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                   ORDER BY keeper) = 1
    """,
}

def embedding_dim_stats(sf_dir: str):
    """Per-dimension feature statistics of the embedding column — the
    normalization/whitening census (mean, min, max per dim) a feature
    store computes before training or index building.

    One streaming pass: each batch reduces to exactly D partial rows
    (dim, count, sum_e6, min, max) — sums in exact integer 1e-6 units
    with DuckDB's half-away rounding reproduced bit-for-bit, so the
    cross-block fold is order-independent — then a ≤D-key
    fold and a driver-side division."""
    from ..functions.numeric import round_half_away

    ds = scan(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        x = list_column_matrix(batch.column("embedding"),
                               dtype=np.float64)
        y = x * 1_000_000.0
        e6 = np.where(y >= 0, np.floor(y + 0.5),
                      np.ceil(y - 0.5)).astype(np.int64)
        d = x.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
            "n": pa.array(np.full(d, x.shape[0], dtype=np.int64)),
            "sum_e6": pa.array(e6.sum(axis=0)),
            "mn": pa.array(x.min(axis=0), type=pa.float64()),
            "mx": pa.array(x.max(axis=0), type=pa.float64()),
        })

    folded = fold(ds.map_batches(partial, batch_format="pyarrow",
                                 batch_size=4096),
                  "dim", {"n": ("n", "sum"), "sum_e6": ("sum_e6", "sum"),
                          "mn": ("mn", "min"), "mx": ("mx", "max")}
                  ).to_pandas().sort_values("dim")
    mean = [round_half_away(int(s) / int(n) / 1_000_000.0, 6)
            for s, n in zip(folded["sum_e6"], folded["n"])]
    return pa.table({
        "dim": pa.array(folded["dim"].to_numpy(dtype=np.int64)),
        "n": pa.array(folded["n"].to_numpy(dtype=np.int64)),
        "mean": pa.array(mean, type=pa.float64()),
        "mn": pa.array(folded["mn"].to_numpy(dtype=np.float64)),
        "mx": pa.array(folded["mx"].to_numpy(dtype=np.float64)),
    })


def embedding_gram(sf_dir: str):
    """Distributed Gram matrix (uncentered second-moment matrix
    E[x_i·x_j]) of the embedding column — the building block of
    covariance/PCA/whitening at corpus scale.

    Each block contributes ONE exact-integer XᵀX partial (values
    quantized to 1e-3 with DuckDB-matching half-away rounding, so
    products are e-6 ints whose sum stays inside int64 at ~1e12
    vectors), shipped as D² rows per block regardless of block height;
    a ≤D²-key fold merges them and the driver divides. The
    oracle replays the self-join of the unnested column."""
    from ..functions.numeric import round_half_away

    ds = scan(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        x = list_column_matrix(batch.column("embedding"),
                               dtype=np.float64)
        y = x * 1000.0
        e3 = np.where(y >= 0, np.floor(y + 0.5),
                      np.ceil(y - 0.5)).astype(np.int64)
        g = e3.T @ e3
        d = x.shape[1]
        i = np.repeat(np.arange(1, d + 1, dtype=np.int64), d)
        j = np.tile(np.arange(1, d + 1, dtype=np.int64), d)
        return pa.table({
            "i": pa.array(i),
            "j": pa.array(j),
            "s_e6": pa.array(g.reshape(-1)),
            "n": pa.array(np.full(d * d, x.shape[0], dtype=np.int64)),
        })

    folded = fold(ds.map_batches(partial, batch_format="pyarrow",
                                 batch_size=4096),
                  ["i", "j"], {"s_e6": ("s_e6", "sum"), "n": ("n", "sum")}
                  ).to_pandas()
    m2 = [round_half_away(int(s) / int(n) / 1_000_000.0, 6)
          for s, n in zip(folded["s_e6"], folded["n"])]
    return pa.table({
        "i": pa.array(folded["i"].to_numpy(dtype=np.int64)),
        "j": pa.array(folded["j"].to_numpy(dtype=np.int64)),
        "n": pa.array(folded["n"].to_numpy(dtype=np.int64)),
        "m2": pa.array(m2, type=pa.float64()),
    })


SPECTRUM_TOPK = 10


def embedding_spectrum(sf_dir: str):
    """Distributed spectral analysis of the embedding space — the
    eigenvalue spectrum of the (uncentered) second-moment matrix from
    :func:`embedding_gram`'s exact-integer fold, i.e. the classic
    two-stage distributed PCA: the corpus-sized work is the D²-row
    Gram reduction, then ``eigh`` runs on the D×D driver matrix. The
    top-10 eigenvalues with variance-explained tell whether the
    embedding space is healthy (energy spread) or collapsed (one
    direction dominates — the anisotropy failure mode of contrastive
    towers).

    Deterministic end-to-end: the Gram values are exact e-6 integers
    divided and rounded once, so the driver matrix — and therefore
    LAPACK's spectrum — is a pure function of the input. No SQL can
    express an eigendecomposition; the gate is a full numpy replay in
    pytest (rows-only entry)."""
    from ..functions.numeric import round_half_away

    g = embedding_gram(sf_dir)
    d = int(pc.max(g.column("i")).as_py())
    m = np.zeros((d, d))
    m[np.asarray(g.column("i")) - 1,
      np.asarray(g.column("j")) - 1] = g.column("m2").to_numpy()
    evals = np.linalg.eigvalsh(m)[::-1]          # descending
    trace = float(np.trace(m))
    k = min(SPECTRUM_TOPK, d)
    top = evals[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, k + 1, dtype=np.int64)),
        "eigenvalue": pa.array(round_half_away(top, 6),
                               type=pa.float64()),
        "var_explained": pa.array(
            round_half_away(top / trace, 6), type=pa.float64()),
        "cum_var_explained": pa.array(
            round_half_away(np.cumsum(top) / trace, 6),
            type=pa.float64()),
    })


def int8_quantize(sf_dir: str):
    """Symmetric per-dimension int8 scalar quantization of the
    embedding column — the compression step a 100 TB vector store runs
    before indexing (4x smaller than float32; PQ's scalar baseline).

    Two-pass combiner discipline like ``rag.tfidf_embed``: pass 1
    reduces each batch to one (dim, max_abs) partial row per dimension
    (the shuffle moves ``dim`` rows per block, nothing else), a tiny
    per-``d`` max folds them, and the resulting scale vector is a
    broadcast into the pass-2 quantizing map. Emits integer-exact
    ``q_l1`` (sum of |int8 code|) per vector — a bit-strength oracle
    check — plus the reconstruction ``mse``."""
    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def maxabs_partial(batch: pa.Table) -> pa.Table:
        m = np.abs(list_column_matrix(batch.column("embedding"),
                                      dtype=np.float64)).max(axis=0)
        return pa.table({
            "d": pa.array(np.arange(len(m), dtype=np.int32)),
            "m": pa.array(m, type=pa.float64()),
        })

    parts = fold(ds.map_batches(maxabs_partial, batch_format="pyarrow",
                                batch_size=4096),
                 "d", {"m": ("m", "max")}).to_pandas()
    scale = np.zeros(len(parts), dtype=np.float64)
    scale[parts["d"].to_numpy()] = parts["m"].to_numpy()
    scale = np.where(scale == 0.0, 1.0, scale)  # all-zero dim guard

    def quant(batch: pa.Table) -> pa.Table:
        x = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        q = round_half_away(x / scale * 127.0, 0)
        rec = q * scale / 127.0
        return pa.table({
            "vec_id": batch["vec_id"],
            "q_l1": pa.array(np.abs(q).sum(axis=1).astype(np.int64)),
            "mse": pa.array(
                round_half_away(((x - rec) ** 2).mean(axis=1), 8),
                type=pa.float64()),
        })

    return ds.map_batches(quant, batch_format="pyarrow", batch_size=4096)


ORACLE_SQL["embedding_gram"] = """
    WITH u AS (
      SELECT vec_id,
             CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000)
                  AS BIGINT) AS x,
             unnest(range(1, len(embedding) + 1)) AS d
      FROM embeddings
    )
    SELECT a.d AS i, b.d AS j, CAST(COUNT(*) AS BIGINT) AS n,
           ROUND(CAST(SUM(a.x * b.x) AS DOUBLE)
                 / COUNT(*) / 1000000.0, 6) AS m2
    FROM u a JOIN u b USING (vec_id)
    GROUP BY i, j
"""

ORACLE_SQL["embedding_dim_stats"] = """
    WITH u AS (
      SELECT CAST(unnest(embedding) AS DOUBLE) AS x,
             unnest(range(1, len(embedding) + 1)) AS dim
      FROM embeddings
    )
    SELECT dim, CAST(COUNT(*) AS BIGINT) AS n,
           ROUND(CAST(SUM(CAST(ROUND(x * 1000000) AS BIGINT)) AS DOUBLE)
                 / COUNT(*) / 1000000.0, 6) AS mean,
           MIN(x) AS mn, MAX(x) AS mx
    FROM u GROUP BY dim
"""

ORACLE_SQL["int8_quantize"] = r"""
    WITH u AS (
      SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
             unnest(range(1, len(embedding) + 1)) AS d
      FROM embeddings
    ), s AS (
      SELECT d, CASE WHEN MAX(abs(x)) = 0 THEN 1
                     ELSE MAX(abs(x)) END AS m
      FROM u GROUP BY d
    ), q AS (
      SELECT u.vec_id, u.x, s.m, ROUND(u.x / s.m * 127, 0) AS qv
      FROM u JOIN s USING (d)
    )
    SELECT vec_id,
           CAST(SUM(ABS(qv)) AS BIGINT) AS q_l1,
           ROUND(AVG(POW(x - qv * m / 127, 2)), 8) AS mse
    FROM q GROUP BY vec_id
"""

def _ivf_recall_sql() -> str:
    """Composed oracle: exact top-k CTE (from the ann module) vs the
    IVF probe CTE, per-query overlap."""
    from .ann import ORACLE_SQL as ANN_SQL

    return f"""
    WITH ex AS ({ANN_SQL["ann_topk"]}),
    ap AS ({ORACLE_SQL["ann_ivf_topk"]}),
    hits AS (
        SELECT ex.query_id, COUNT(ap.neighbor_id) AS n_hit
        FROM ex LEFT JOIN ap
          ON ap.query_id = ex.query_id
         AND ap.neighbor_id = ex.neighbor_id
        GROUP BY ex.query_id
    ),
    ne AS (SELECT query_id, COUNT(*) AS n_exact FROM ex GROUP BY query_id),
    na AS (SELECT query_id, COUNT(*) AS n_ivf FROM ap GROUP BY query_id)
    SELECT ne.query_id, ne.n_exact, COALESCE(na.n_ivf, 0) AS n_ivf,
           ROUND(CAST(hits.n_hit AS DOUBLE) / ne.n_exact, 4) AS recall
    FROM ne JOIN hits USING (query_id) LEFT JOIN na USING (query_id)
"""


ORACLE_SQL["ann_ivf_recall"] = _ivf_recall_sql()

# ------------------------------------------------------------- k-means fit

KM_SCALE = 1_000_000
KM_ITERS = 2


def kmeans_fit(sf_dir: str, k: int = N_CENTROIDS, iters: int = KM_ITERS):
    """Distributed Lloyd's k-means FIT — the iterative-algorithm class
    (like ``pagerank_clicks``), made value-checkable by quantizing to
    integers: embeddings scale to 1e6 ints, centroid updates are
    elementwise FLOOR means (exact integer division), and assignment
    distances are exact int64 sums — so every iteration is
    bit-deterministic on any cluster and the DuckDB oracle unrolls the
    recurrence as CTEs.

    Scale shape is canonical distributed k-means: centroids broadcast
    (captured in the map's closure, K×D ints), each batch folds to
    K×(D+1) partial rows (per-cluster dim sums + counts) — the
    per-iteration exchange is K·D rows per block regardless of corpus
    size — and the driver updates the tiny centroid matrix. ``iters``
    passes + one final labeled-assignment pass; the quantized input is
    materialized once and reused across passes (at 100 TB you'd re-read
    the column-pruned parquet instead and let the object store spill).

    Empty clusters keep their previous centroid (mirrored by the
    oracle's COALESCE). Ties break toward the lower cluster id."""
    from ..functions.numeric import round_half_away

    seed = pq.read_table(_pq(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", k)])
    order = np.argsort(np.asarray(seed.column("vec_id").to_pylist()))
    C = round_half_away(
        list_column_matrix(seed.column("embedding"),
                           dtype=np.float64)[order] * KM_SCALE, 0
    ).astype(np.int64)
    D = C.shape[1]

    def to_int(batch: pa.Table) -> pa.Table:
        m = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * KM_SCALE, 0
        ).astype(np.int64)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "x": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), type=pa.int64()), D),
        })

    ints = scan(
        sf_dir, "embeddings", columns=["vec_id", "embedding"]
    ).map_batches(to_int, batch_format="pyarrow",
                  batch_size=4096).materialize()

    def _dists(m: np.ndarray, cent: np.ndarray) -> np.ndarray:
        # exact int64 expansion: ||x||^2 - 2 x.c + ||c||^2 per pair
        return ((m * m).sum(axis=1, dtype=np.int64)[:, None]
                - 2 * (m @ cent.T)
                + (cent * cent).sum(axis=1, dtype=np.int64)[None, :])

    # the maps read the current ``C``: each pass's fold runs when called
    def partial(batch: pa.Table) -> pa.Table:
        m = list_column_matrix(batch.column("x"), dtype=np.int64)
        assign = np.argmin(_dists(m, C), axis=1)
        kk, dd = C.shape
        sums = np.zeros((kk, dd), dtype=np.int64)
        counts = np.zeros(kk, dtype=np.int64)
        for c in range(kk):
            members = m[assign == c]
            counts[c] = len(members)
            if len(members):
                sums[c] = members.sum(axis=0, dtype=np.int64)
        # flatten to (cluster, dim, s); dim = -1 carries the count
        cluster = np.repeat(np.arange(kk, dtype=np.int32), dd + 1)
        dim = np.tile(np.arange(-1, dd, dtype=np.int32), kk)
        s = np.concatenate(
            [np.concatenate(([counts[c]], sums[c])) for c in range(kk)])
        return pa.table({
            "cluster": pa.array(cluster),
            "dim": pa.array(dim),
            "s": pa.array(s, type=pa.int64()),
        })

    def final_assign(batch: pa.Table) -> pa.Table:
        m = list_column_matrix(batch.column("x"), dtype=np.int64)
        d2 = _dists(m, C)
        assign = np.argmin(d2, axis=1)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "cluster": pa.array(assign.astype(np.int32)),
            "sq_dist": pa.array(
                d2[np.arange(len(assign)), assign], type=pa.int64()),
        })

    for _ in range(iters):
        small = fold(
            ints.map_batches(partial, batch_format="pyarrow",
                             batch_size=4096),
            ["cluster", "dim"], {"s": ("s", "sum")}).to_pandas()
        piv = small.pivot(index="cluster", columns="dim",
                          values="s").sort_index()
        counts = piv[-1].to_numpy()
        sums = piv[[d for d in range(D)]].to_numpy()
        newC = np.where(counts[:, None] > 0,
                        np.floor_divide(sums, np.maximum(counts, 1)[:, None]),
                        C).astype(np.int64)
        C = newC

    return ints.map_batches(final_assign, batch_format="pyarrow",
                            batch_size=4096)


def _kmeans_fit_sql(k: int = N_CENTROIDS, iters: int = KM_ITERS) -> str:
    assign = """a{i} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           ROW_NUMBER() OVER (PARTITION BY vec_id
                              ORDER BY dist, cluster) AS rn
    FROM (SELECT e.vec_id, c.cluster,
                 SUM((e.x - c.c) * (e.x - c.c)) AS dist
          FROM e JOIN cf{p} c ON c.d = e.d
          GROUP BY e.vec_id, c.cluster))
  WHERE rn = 1
)"""
    update = """c{i} AS (
  SELECT a.cluster, e.d,
         CAST(FLOOR(CAST(SUM(e.x) AS DOUBLE) / COUNT(DISTINCT a.vec_id))
              AS BIGINT) AS c
  FROM a{i} a JOIN e ON e.vec_id = a.vec_id
  GROUP BY a.cluster, e.d
), cf{i} AS (
  SELECT p.cluster, p.d, COALESCE(c.c, p.c) AS c
  FROM cf{p} p LEFT JOIN c{i} c
    ON c.cluster = p.cluster AND c.d = p.d
)"""
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(assign.format(i=i, p=i - 1))
        rounds.append(update.format(i=i, p=i - 1))
    return f"""
WITH e AS (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {KM_SCALE})
              AS BIGINT) AS x
  FROM embeddings
), cf0 AS (
  SELECT CAST(vec_id AS INTEGER) AS cluster, d, x AS c
  FROM e WHERE vec_id < {k}
), {', '.join(rounds)}
SELECT vec_id, cluster, CAST(dist AS BIGINT) AS sq_dist FROM (
  SELECT vec_id, cluster, dist,
         ROW_NUMBER() OVER (PARTITION BY vec_id
                            ORDER BY dist, cluster) AS rn
  FROM (SELECT e.vec_id, c.cluster,
               SUM((e.x - c.c) * (e.x - c.c)) AS dist
        FROM e JOIN cf{iters} c ON c.d = e.d
        GROUP BY e.vec_id, c.cluster))
WHERE rn = 1
"""


# --------------------------------------------------- product quantization

PQ_SUBSPACES = 8
PQ_CODES = 16


def pq_encode(sf_dir: str, m: int = PQ_SUBSPACES, k: int = PQ_CODES):
    """Product-quantization encoding — the vector-compression step
    behind IVF-PQ ANN indexes: the 64-d embedding splits into ``m``
    subvectors, each assigned to its nearest of ``k`` per-subspace
    centroids (seeded from the first ``k`` vectors' subvectors, the
    deterministic codebook), emitting one (vec_id, sub, code, sq_dist)
    row per subspace. Same integer discipline as :func:`kmeans_fit`
    (1e6-quantized ints, exact int64 distances, ties to the lower
    code), so the oracle value-checks every code and residual.

    Scale shape: the codebook is a broadcast (k×D ints); encoding is a
    pure per-batch map with one argmin per (row, subspace) — no
    shuffle. A trained codebook would come from running
    :func:`kmeans_fit` per subspace; the encode pass is identical."""
    from ..functions.numeric import round_half_away

    seed = pq.read_table(_pq(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", k)])
    order = np.argsort(np.asarray(seed.column("vec_id").to_pylist()))
    C = round_half_away(
        list_column_matrix(seed.column("embedding"),
                           dtype=np.float64)[order] * KM_SCALE, 0
    ).astype(np.int64)
    D = C.shape[1]
    sd = D // m
    cent = C.reshape(k, m, sd)          # (k, m, sd)

    def encode(batch: pa.Table) -> pa.Table:
        mtx = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * KM_SCALE, 0
        ).astype(np.int64).reshape(-1, m, sd)       # (n, m, sd)
        # exact int64 distances per (row, sub, code)
        diff = mtx[:, None, :, :] - cent[None, :, :, :]
        d2 = (diff * diff).sum(axis=3)               # (n, k, m)
        codes = np.argmin(d2, axis=1)                # (n, m)
        n = mtx.shape[0]
        rows = np.arange(n)[:, None]
        subs = np.arange(m)[None, :]
        best = d2[rows, codes, subs]                 # (n, m)
        vec = np.repeat(batch.column("vec_id").to_numpy(), m)
        return pa.table({
            "vec_id": pa.array(vec, type=pa.int64()),
            "sub": pa.array(np.tile(np.arange(m, dtype=np.int32), n)),
            "code": pa.array(codes.ravel().astype(np.int32)),
            "sq_dist": pa.array(best.ravel(), type=pa.int64()),
        })

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(encode, batch_format="pyarrow", batch_size=4096)


_PQ_ENCODE_SQL = f"""
    WITH e AS (
      SELECT vec_id,
             CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
             CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {KM_SCALE})
                  AS BIGINT) AS x
      FROM embeddings
    ), ee AS (
      SELECT vec_id, CAST(d // {64 // PQ_SUBSPACES} AS INTEGER) AS sub,
             d % {64 // PQ_SUBSPACES} AS sd, x
      FROM e
    ), c AS (
      SELECT CAST(vec_id AS INTEGER) AS code, sub, sd, x AS cx
      FROM ee WHERE vec_id < {PQ_CODES}
    ), dist AS (
      SELECT ee.vec_id, ee.sub, c.code,
             SUM((ee.x - c.cx) * (ee.x - c.cx)) AS dist
      FROM ee JOIN c ON c.sub = ee.sub AND c.sd = ee.sd
      GROUP BY ee.vec_id, ee.sub, c.code
    )
    SELECT vec_id, sub, code, CAST(dist AS BIGINT) AS sq_dist FROM (
      SELECT vec_id, sub, code, dist,
             ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                                ORDER BY dist, code) AS rn
      FROM dist)
    WHERE rn = 1
"""


def pq_train_encode(sf_dir: str, m: int = PQ_SUBSPACES, k: int = PQ_CODES,
                    iters: int = KM_ITERS):
    """TRAIN the product-quantization codebook (per-subspace Lloyd's
    k-means, :func:`kmeans_fit`'s integer discipline) and encode with
    it — the full IVF-PQ codebook pipeline rather than the seed
    codebook of :func:`pq_encode`. All ``m`` subspace k-means run
    together: each batch folds to k·m·(sd+1) partial rows (per
    (code, sub) dim sums + counts) and the driver floor-means the tiny
    codebook tensor; the oracle runs the same recurrence as ONE
    unrolled CTE chain with ``sub`` carried as a grouping key. Training
    demonstrably helps: the summed residual is pinned below the
    untrained encoder's in pytest."""
    from ..functions.numeric import round_half_away

    seed = pq.read_table(_pq(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", k)])
    order = np.argsort(np.asarray(seed.column("vec_id").to_pylist()))
    ints0 = round_half_away(
        list_column_matrix(seed.column("embedding"),
                           dtype=np.float64)[order] * KM_SCALE, 0
    ).astype(np.int64)
    D = ints0.shape[1]
    sd = D // m
    cent = ints0.reshape(k, m, sd).copy()       # (k, m, sd)

    def to_int(batch: pa.Table) -> pa.Table:
        mtx = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * KM_SCALE, 0
        ).astype(np.int64)
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "x": pa.FixedSizeListArray.from_arrays(
                pa.array(mtx.ravel(), type=pa.int64()), D),
        })

    ints = scan(
        sf_dir, "embeddings", columns=["vec_id", "embedding"]
    ).map_batches(to_int, batch_format="pyarrow",
                  batch_size=4096).materialize()

    def _codes(mtx3, cent):
        d2 = ((mtx3[:, None, :, :] - cent[None, :, :, :]) ** 2).sum(axis=3)
        return d2, np.argmin(d2, axis=1)        # (n,k,m), (n,m)

    def _matrix(batch: pa.Table) -> np.ndarray:
        return list_column_matrix(batch.column("x"), dtype=np.int64) \
            .reshape(-1, m, sd)

    # the maps read the current ``cent``: each pass's fold runs when called
    def partial(batch: pa.Table) -> pa.Table:
        mtx = _matrix(batch)
        _, codes = _codes(mtx, cent)
        sums = np.zeros((k, m, sd), dtype=np.int64)
        counts = np.zeros((k, m), dtype=np.int64)
        for c in range(k):
            for s in range(m):
                members = mtx[codes[:, s] == c, s, :]
                counts[c, s] = len(members)
                if len(members):
                    sums[c, s] = members.sum(axis=0, dtype=np.int64)
        # flatten: (code, sub, dim, v); dim = -1 carries the count
        code_col = np.repeat(np.arange(k, dtype=np.int32), m * (sd + 1))
        sub_col = np.tile(np.repeat(np.arange(m, dtype=np.int32), sd + 1),
                          k)
        dim_col = np.tile(np.arange(-1, sd, dtype=np.int32), k * m)
        v = np.concatenate([
            np.concatenate(([counts[c, s]], sums[c, s]))
            for c in range(k) for s in range(m)])
        return pa.table({
            "code": pa.array(code_col),
            "sub": pa.array(sub_col),
            "dim": pa.array(dim_col),
            "v": pa.array(v, type=pa.int64()),
        })

    def encode(batch: pa.Table) -> pa.Table:
        mtx = _matrix(batch)
        d2, codes = _codes(mtx, cent)
        n = mtx.shape[0]
        rows = np.arange(n)[:, None]
        subs = np.arange(m)[None, :]
        best = d2[rows, codes, subs]
        return pa.table({
            "vec_id": pa.array(
                np.repeat(batch.column("vec_id").to_numpy(), m),
                type=pa.int64()),
            "sub": pa.array(np.tile(np.arange(m, dtype=np.int32), n)),
            "code": pa.array(codes.ravel().astype(np.int32)),
            "sq_dist": pa.array(best.ravel(), type=pa.int64()),
        })

    for _ in range(iters):
        small = fold(
            ints.map_batches(partial, batch_format="pyarrow",
                             batch_size=4096),
            ["code", "sub", "dim"], {"v": ("v", "sum")}).to_pandas()
        piv = small.pivot(index=["code", "sub"], columns="dim",
                          values="v").sort_index()
        counts = piv[-1].to_numpy().reshape(k, m)
        sums = piv[[d for d in range(sd)]].to_numpy().reshape(k, m, sd)
        newc = np.where(counts[:, :, None] > 0,
                        np.floor_divide(
                            sums, np.maximum(counts, 1)[:, :, None]),
                        cent).astype(np.int64)
        cent = newc

    return ints.map_batches(encode, batch_format="pyarrow", batch_size=4096)


def _pq_train_sql(m: int = PQ_SUBSPACES, k: int = PQ_CODES,
                  iters: int = KM_ITERS) -> str:
    """Unrolled per-subspace Lloyd recurrence: the kmeans_fit CTE chain
    with ``sub`` carried through every GROUP BY / JOIN."""
    sd = 64 // m
    assign = """a{i} AS (
  SELECT vec_id, sub, code FROM (
    SELECT vec_id, sub, code,
           ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                              ORDER BY dist, code) AS rn
    FROM (SELECT e.vec_id, e.sub, c.code,
                 SUM((e.x - c.cx) * (e.x - c.cx)) AS dist
          FROM ee e JOIN cf{p} c ON c.sub = e.sub AND c.sd = e.sd
          GROUP BY e.vec_id, e.sub, c.code))
  WHERE rn = 1
)"""
    update = """c{i} AS (
  SELECT a.code, a.sub, e.sd,
         CAST(FLOOR(CAST(SUM(e.x) AS DOUBLE)
                    / COUNT(DISTINCT a.vec_id)) AS BIGINT) AS cx
  FROM a{i} a JOIN ee e ON e.vec_id = a.vec_id AND e.sub = a.sub
  GROUP BY a.code, a.sub, e.sd
), cf{i} AS (
  SELECT p.code, p.sub, p.sd, COALESCE(c.cx, p.cx) AS cx
  FROM cf{p} p LEFT JOIN c{i} c
    ON c.code = p.code AND c.sub = p.sub AND c.sd = p.sd
)"""
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(assign.format(i=i, p=i - 1))
        rounds.append(update.format(i=i, p=i - 1))
    return f"""
WITH e AS (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {KM_SCALE})
              AS BIGINT) AS x
  FROM embeddings
), ee AS (
  SELECT vec_id, CAST(d // {sd} AS INTEGER) AS sub, d % {sd} AS sd, x
  FROM e
), cf0 AS (
  SELECT CAST(vec_id AS INTEGER) AS code, sub, sd, x AS cx
  FROM ee WHERE vec_id < {k}
), {', '.join(rounds)}
SELECT vec_id, sub, code, CAST(dist AS BIGINT) AS sq_dist FROM (
  SELECT vec_id, sub, code, dist,
         ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                            ORDER BY dist, code) AS rn
  FROM (SELECT e.vec_id, e.sub, c.code,
               SUM((e.x - c.cx) * (e.x - c.cx)) AS dist
        FROM ee e JOIN cf{iters} c ON c.sub = e.sub AND c.sd = e.sd
        GROUP BY e.vec_id, e.sub, c.code))
WHERE rn = 1
"""


def _ranked_adc(g: pa.Table) -> pa.Table:
    """One query's merged top-k by (ADC distance, neighbor id), ranked
    from 1."""
    g = g.sort_by([("adc", "ascending"),
                   ("neighbor_id", "ascending")]).slice(0, TOP_K)
    return pa.table({
        "query_id": g.column("query_id"),
        "neighbor_id": g.column("neighbor_id"),
        "rank": pa.array(np.arange(1, g.num_rows + 1, dtype=np.int64)),
        "adc": g.column("adc"),
    })


def ann_pq_topk(sf_dir: str, m: int = PQ_SUBSPACES, k: int = PQ_CODES):
    """PQ-ADC approximate nearest-neighbor search — how an IVF-PQ index
    actually answers queries: each corpus vector is represented only by
    its ``m`` codes; the query precomputes a (subspace × code) distance
    LUT against the codebook, and the estimated distance is m LUT adds
    per row (the Asymmetric Distance Computation of Jégou et al.).

    Integer-exact throughout (quantized query, int64 LUT), so the
    DuckDB oracle value-checks every estimated distance. Scale shape:
    LUT + codebook broadcast, per-block partial top-k per query, tiny
    per-query merge — identical exchange profile to ``ann_topk`` but
    each row costs m adds instead of a D-dim dot product."""
    from .ann import N_QUERIES, TOP_K
    from ..functions.numeric import round_half_away

    seed = pq.read_table(_pq(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", max(k, N_QUERIES))])
    order = np.argsort(np.asarray(seed.column("vec_id").to_pylist()))
    ints = round_half_away(
        list_column_matrix(seed.column("embedding"),
                           dtype=np.float64)[order] * KM_SCALE, 0
    ).astype(np.int64)
    D = ints.shape[1]
    sd = D // m
    cent = ints[:k].reshape(k, m, sd)                    # codebook
    qv = ints[:N_QUERIES].reshape(N_QUERIES, m, sd)      # queries (exact)
    # LUT[q, sub, code] = ||q_sub - cent[code, sub]||^2, exact int64
    diff = qv[:, None, :, :] - cent[None, :, :, :]       # (Q, k, m, sd)
    lut = (diff * diff).sum(axis=3).transpose(0, 2, 1)   # (Q, m, k)

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mtx = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * KM_SCALE, 0
        ).astype(np.int64).reshape(-1, m, sd)
        d2 = ((mtx[:, None, :, :] - cent[None, :, :, :]) ** 2) \
            .sum(axis=3)                                  # (n, k, m)
        codes = np.argmin(d2, axis=1)                     # (n, m)
        n = len(ids)
        subs = np.arange(m)[None, :]
        out_q, out_n, out_d = [], [], []
        kq = min(TOP_K, n)
        for qi in range(lut.shape[0]):
            adc = lut[qi][subs, codes].sum(axis=1)        # (n,)
            order = np.lexsort((ids, adc))[:kq]
            out_q.extend([qi] * len(order))
            out_n.extend(ids[order].tolist())
            out_d.extend(adc[order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "adc": pa.array(out_d, type=pa.int64()),
        })

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return (ds.map_batches(partial_topk, batch_format="pyarrow",
                           batch_size=4096)
            .groupby("query_id")
            .map_groups(_ranked_adc, batch_format="pyarrow"))


def ann_ivfpq_topk(sf_dir: str, m: int = PQ_SUBSPACES, k: int = PQ_CODES):
    """IVF-PQ composed search — the index shape production ANN systems
    actually deploy (Jégou et al.; FAISS ``IVFx,PQy``): an IVF coarse
    quantizer prunes the corpus to the ``N_PROBE`` probed cells, and
    the surviving candidates are ranked by PQ asymmetric distance (m
    integer LUT adds per row) instead of a full D-dim dot product —
    compute drops multiplicatively (probe ratio × code compression).

    Integer-exact end to end: coarse assignment uses the same
    1e6-quantized squared-euclid/low-cid discipline as
    :func:`kmeans_assign`, codes and LUT the same as
    :func:`ann_pq_topk`, so the DuckDB oracle value-checks every ADC
    distance of the composed index. Scale shape: coarse centroids +
    codebook + query LUT ride ONE broadcast; per-block partial top-k;
    tiny per-query merge — no shuffle beyond ≤Q·k rows."""
    from .ann import N_QUERIES, TOP_K
    from ..functions.numeric import round_half_away

    seed = pq.read_table(
        _pq(sf_dir, "embeddings"), columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", max(k, N_CENTROIDS, N_QUERIES))])
    order = np.argsort(np.asarray(seed.column("vec_id").to_pylist()))
    ints = round_half_away(
        list_column_matrix(seed.column("embedding"),
                           dtype=np.float64)[order] * KM_SCALE, 0
    ).astype(np.int64)
    D = ints.shape[1]
    sd = D // m
    coarse = ints[:N_CENTROIDS]                          # (C, D) ints
    cent = ints[:k].reshape(k, m, sd)                    # PQ codebook
    qv = ints[:N_QUERIES]                                # queries (exact)
    # query → probed cells, (dist, cid) order with stable tiebreak
    qd = ((qv[:, None, :] - coarse[None, :, :]) ** 2).sum(axis=2)
    q_cells = np.argsort(qd, axis=1, kind="stable")[:, :N_PROBE]
    # LUT[q, sub, code] = ||q_sub − cent[code, sub]||², exact int64
    diff = qv.reshape(N_QUERIES, m, sd)[:, None, :, :] - cent[None, :, :, :]
    lut = (diff * diff).sum(axis=3).transpose(0, 2, 1)   # (Q, m, k)

    def probe_adc(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        xi = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * KM_SCALE, 0
        ).astype(np.int64)
        cd = ((xi[:, None, :] - coarse[None, :, :]) ** 2) \
            .sum(axis=2)                                  # (n, C)
        cell = np.argmin(cd, axis=1)
        mtx = xi.reshape(-1, m, sd)
        d2 = ((mtx[:, None, :, :] - cent[None, :, :, :]) ** 2) \
            .sum(axis=3)                                  # (n, k, m)
        codes = np.argmin(d2, axis=1)                     # (n, m)
        subs = np.arange(m)[None, :]
        out_q, out_n, out_d = [], [], []
        for qi in range(lut.shape[0]):
            mask = np.isin(cell, q_cells[qi])
            if not mask.any():
                continue
            adc = lut[qi][subs, codes[mask]].sum(axis=1)
            sub_ids = ids[mask]
            top = np.lexsort((sub_ids, adc))[:TOP_K]
            out_q.extend([qi] * len(top))
            out_n.extend(sub_ids[top].tolist())
            out_d.extend(adc[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "adc": pa.array(out_d, type=pa.int64()),
        })

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return (ds.map_batches(probe_adc, batch_format="pyarrow",
                           batch_size=4096)
            .groupby("query_id")
            .map_groups(_ranked_adc, batch_format="pyarrow"))


def ann_pq_recall(sf_dir: str):
    """Recall@k of the PQ-ADC search vs the exact top-k — the
    compression-loss gauge (more codes / subspaces → higher recall,
    bigger index). Same bounded comparison shape as ``ann_ivf_recall``."""
    from .ann import ann_topk
    from ..functions.numeric import round_half_away as _r4

    def tag(name):
        def add(batch: pa.Table, name=name) -> pa.Table:
            return pa.table({
                "query_id": batch["query_id"],
                "neighbor_id": batch["neighbor_id"],
                "src": pa.array([name] * len(batch), type=pa.string()),
            })
        return add

    exact = ann_topk(sf_dir).map_batches(
        tag("exact"), batch_format="pyarrow").materialize()
    approx = ann_pq_topk(sf_dir).map_batches(
        tag("pq"), batch_format="pyarrow").materialize()

    def recall(g: pa.Table) -> pa.Table:
        src_col = g.column("src")
        e = set(g.filter(pc.equal(src_col, "exact"))
                .column("neighbor_id").to_pylist())
        a = set(g.filter(pc.equal(src_col, "pq"))
                .column("neighbor_id").to_pylist())
        return pa.table({
            "query_id": pa.array([g.column("query_id")[0].as_py()],
                                 type=pa.int64()),
            "n_exact": pa.array([len(e)], type=pa.int64()),
            "n_pq": pa.array([len(a)], type=pa.int64()),
            "recall": pa.array(
                [_r4(len(e & a) / len(e), 4) if e else 0.0],
                type=pa.float64()),
        })

    return (exact.union(approx)
            .groupby("query_id")
            .map_groups(recall, batch_format="pyarrow"))


QUERIES = {
    "embedding_centroid_shift": embedding_centroid_shift,
    "kmeans_assign": kmeans_assign,
    "kmeans_fit": kmeans_fit,
    "pq_encode": pq_encode,
    "pq_train_encode": pq_train_encode,
    "ann_pq_topk": ann_pq_topk,
    "ann_pq_recall": ann_pq_recall,
    "ann_ivfpq_topk": ann_ivfpq_topk,
    "ann_ivf_topk": ann_ivf_topk,
    "ann_ivf_recall": ann_ivf_recall,
    "semantic_dedup": semantic_dedup,
    "cluster_purity": cluster_purity,
    "int8_quantize": int8_quantize,
    "embedding_dim_stats": embedding_dim_stats,
    "embedding_gram": embedding_gram,
    "embedding_spectrum": embedding_spectrum,
    "knn_label_accuracy": knn_label_accuracy,
}

ORACLE_SQL["kmeans_fit"] = _kmeans_fit_sql()
ORACLE_SQL["pq_encode"] = _PQ_ENCODE_SQL

from .ann import N_QUERIES  # noqa: E402  (query panel shared with ann_topk)

_PQ_TOPK_SQL = f"""
    WITH e AS (
      SELECT vec_id,
             CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
             CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {KM_SCALE})
                  AS BIGINT) AS x
      FROM embeddings
    ), ee AS (
      SELECT vec_id, CAST(d // {64 // PQ_SUBSPACES} AS INTEGER) AS sub,
             d % {64 // PQ_SUBSPACES} AS sd, x
      FROM e
    ), c AS (
      SELECT CAST(vec_id AS INTEGER) AS code, sub, sd, x AS cx
      FROM ee WHERE vec_id < {PQ_CODES}
    ), dist AS (
      SELECT ee.vec_id, ee.sub, c.code,
             SUM((ee.x - c.cx) * (ee.x - c.cx)) AS dd
      FROM ee JOIN c ON c.sub = ee.sub AND c.sd = ee.sd
      GROUP BY ee.vec_id, ee.sub, c.code
    ), codes AS (
      SELECT vec_id, sub, code FROM (
        SELECT vec_id, sub, code,
               ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                                  ORDER BY dd, code) AS rn
        FROM dist)
      WHERE rn = 1
    ), q AS (
      SELECT vec_id AS qid, sub, sd, x FROM ee WHERE vec_id < {N_QUERIES}
    ), lut AS (
      SELECT q.qid, q.sub, c.code,
             SUM((q.x - c.cx) * (q.x - c.cx)) AS d
      FROM q JOIN c ON c.sub = q.sub AND c.sd = q.sd
      GROUP BY q.qid, q.sub, c.code
    ), adc AS (
      SELECT l.qid, codes.vec_id, SUM(l.d) AS adc
      FROM codes JOIN lut l
        ON l.sub = codes.sub AND l.code = codes.code
      GROUP BY l.qid, codes.vec_id
    )
    SELECT qid AS query_id, vec_id AS neighbor_id, rank,
           CAST(adc AS BIGINT) AS adc
    FROM (SELECT qid, vec_id, adc,
                 ROW_NUMBER() OVER (PARTITION BY qid
                                    ORDER BY adc, vec_id) AS rank
          FROM adc)
    WHERE rank <= 10
"""

ORACLE_SQL["ann_pq_topk"] = _PQ_TOPK_SQL

_IVFPQ_TOPK_SQL = f"""
    WITH e AS (
      SELECT vec_id,
             CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
             CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {KM_SCALE})
                  AS BIGINT) AS x
      FROM embeddings
    ), ee AS (
      SELECT vec_id, CAST(d // {64 // PQ_SUBSPACES} AS INTEGER) AS sub,
             d % {64 // PQ_SUBSPACES} AS sd, x
      FROM e
    ), c AS (
      SELECT CAST(vec_id AS INTEGER) AS code, sub, sd, x AS cx
      FROM ee WHERE vec_id < {PQ_CODES}
    ), coarse AS (
      SELECT CAST(vec_id AS INTEGER) AS cid, d, x AS cx
      FROM e WHERE vec_id < {N_CENTROIDS}
    ), cdist AS (
      SELECT e.vec_id, coarse.cid,
             SUM((e.x - coarse.cx) * (e.x - coarse.cx)) AS dd
      FROM e JOIN coarse ON coarse.d = e.d
      GROUP BY e.vec_id, coarse.cid
    ), cell AS (
      SELECT vec_id, cid FROM (
        SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dd, cid) AS rn
        FROM cdist)
      WHERE rn = 1
    ), qprobe AS (
      SELECT vec_id AS qid, cid FROM (
        SELECT vec_id, cid,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dd, cid) AS rn
        FROM cdist WHERE vec_id < {N_QUERIES})
      WHERE rn <= {N_PROBE}
    ), dist AS (
      SELECT ee.vec_id, ee.sub, c.code,
             SUM((ee.x - c.cx) * (ee.x - c.cx)) AS dd
      FROM ee JOIN c ON c.sub = ee.sub AND c.sd = ee.sd
      GROUP BY ee.vec_id, ee.sub, c.code
    ), codes AS (
      SELECT vec_id, sub, code FROM (
        SELECT vec_id, sub, code,
               ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                                  ORDER BY dd, code) AS rn
        FROM dist)
      WHERE rn = 1
    ), q AS (
      SELECT vec_id AS qid, sub, sd, x FROM ee WHERE vec_id < {N_QUERIES}
    ), lut AS (
      SELECT q.qid, q.sub, c.code,
             SUM((q.x - c.cx) * (q.x - c.cx)) AS d
      FROM q JOIN c ON c.sub = q.sub AND c.sd = q.sd
      GROUP BY q.qid, q.sub, c.code
    ), adc AS (
      SELECT l.qid, codes.vec_id, SUM(l.d) AS adc
      FROM codes
      JOIN cell ON cell.vec_id = codes.vec_id
      JOIN lut l ON l.sub = codes.sub AND l.code = codes.code
      JOIN qprobe ON qprobe.qid = l.qid AND qprobe.cid = cell.cid
      GROUP BY l.qid, codes.vec_id
    )
    SELECT qid AS query_id, vec_id AS neighbor_id, rank,
           CAST(adc AS BIGINT) AS adc
    FROM (SELECT qid, vec_id, adc,
                 ROW_NUMBER() OVER (PARTITION BY qid
                                    ORDER BY adc, vec_id) AS rank
          FROM adc)
    WHERE rank <= {TOP_K}
"""

ORACLE_SQL["ann_ivfpq_topk"] = _IVFPQ_TOPK_SQL
ORACLE_SQL["pq_train_encode"] = _pq_train_sql()


def _pq_recall_sql() -> str:
    from .ann import ORACLE_SQL as ANN_SQL

    return f"""
    WITH ex AS ({ANN_SQL["ann_topk"]}),
    ap AS ({_PQ_TOPK_SQL}),
    hits AS (
        SELECT ex.query_id, COUNT(ap.neighbor_id) AS n_hit
        FROM ex LEFT JOIN ap
          ON ap.query_id = ex.query_id
         AND ap.neighbor_id = ex.neighbor_id
        GROUP BY ex.query_id
    ),
    ne AS (SELECT query_id, COUNT(*) AS n_exact FROM ex GROUP BY query_id),
    na AS (SELECT query_id, COUNT(*) AS n_pq FROM ap GROUP BY query_id)
    SELECT ne.query_id, ne.n_exact, COALESCE(na.n_pq, 0) AS n_pq,
           ROUND(CAST(hits.n_hit AS DOUBLE) / ne.n_exact, 4) AS recall
    FROM ne JOIN hits USING (query_id) LEFT JOIN na USING (query_id)
"""


ORACLE_SQL["ann_pq_recall"] = _pq_recall_sql()


def ivf_cell_balance(sf_dir: str):
    """IVF index BALANCE audit — the cell-size census that determines
    ANN tail latency at scale (a probe into a hot cell scans that
    cell's whole posting list, so max/mean cell skew IS the p99): every
    vector assigned to its nearest of the ``N_CENTROIDS`` seed
    centroids (same metric + (dist, cid) tiebreak as the IVF search
    path), per-cell counts plus the corpus fraction. One broadcast of
    the tiny centroid matrix, one block matmul + in-batch fold per
    batch, a ≤K-key groupby — the audit costs one pruned scan."""
    cent = _centroids(sf_dir)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def cell_count(batch: pa.Table) -> pa.Table:
        x = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        cell = _nearest(x, cent)[0]
        g = pa.table({
            "cell": pa.array(cell),
            "n": pa.array(np.ones(len(cell), dtype=np.int64)),
        }).group_by("cell").aggregate([("n", "sum")])
        return g.rename_columns(["cell", "n"])

    per_cell = fold(ds.map_batches(cell_count, batch_format="pyarrow",
                                   batch_size=4096),
                    "cell", {"n": ("n", "sum")}).to_pandas()
    n = per_cell["n"].to_numpy().astype(np.int64)
    total = int(n.sum())
    return pa.table({
        "cell": pa.array(per_cell["cell"].to_numpy().astype(np.int64)),
        "n_vecs": pa.array(n),
        "frac": pa.array(round_half_away(n / total, 6),
                         type=pa.float64()),
    })


ORACLE_SQL["ivf_cell_balance"] = f"""
    WITH e AS (
      SELECT vec_id,
             list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
      FROM embeddings
    ), c AS (
      SELECT vec_id AS cid, emb AS cvec FROM e
      WHERE vec_id < {N_CENTROIDS}
    ), asg AS (
      SELECT e.vec_id, c.cid,
             list_distance(e.emb, c.cvec) ** 2 AS sqdist
      FROM e CROSS JOIN c
      QUALIFY ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                 ORDER BY sqdist, cid) = 1
    ), s AS (
      SELECT cid AS cell, COUNT(*) AS n_vecs FROM asg GROUP BY cid
    ), g AS (SELECT SUM(n_vecs) AS tot FROM s)
    SELECT CAST(cell AS BIGINT) AS cell, CAST(n_vecs AS BIGINT) AS n_vecs,
           ROUND(CAST(n_vecs AS DOUBLE) / g.tot, 6) AS frac
    FROM s CROSS JOIN g
"""
QUERIES["ivf_cell_balance"] = ivf_cell_balance


# ------------------------------------------------ gram power iteration

PI_Q = 1000           # embedding quantization scale (exact e-3 ints)
PI_S = 1_000_000      # eigenvector fixed-point scale after normalization
PI_ITERS = 3
_PI_SPLIT = 1 << 32   # int64-safe partial-cell split (hi/lo halves)


def gram_power_iteration(sf_dir: str, iters: int = PI_ITERS):
    """Top-eigenvector POWER ITERATION over the corpus second-moment
    matrix M = Σ x xᵀ — the 10th value-checked iterative algorithm and
    the distributed core of PCA/spectral methods (``embedding_spectrum``
    folds M to the driver then calls LAPACK; this op never forms M —
    each iteration is one corpus pass computing u = Σ xᵢ(xᵢ·v), the
    matrix-free shape that still works when D² partials are too big or
    M must stay implicit).

    Integer discipline end-to-end: embeddings quantize to exact e-3
    ints, v holds S-scaled ints, u accumulates exactly (per-batch int64
    partials split into hi/lo 2³² cells so the cross-block fold can
    never wrap — the ``graph_assortativity`` pattern — and the driver
    reconstructs unbounded Python ints), and re-normalization is floor
    division by max|u| — bit-deterministic on any cluster and replayed
    by an unrolled-CTE DuckDB oracle in HUGEINT. The all-positive v₀
    fixes the sign/orientation. Per-iteration exchange: 2·D partial
    rows per block + one D-int broadcast; the quantized matrix is
    materialized once (at 100 TB re-read the pruned parquet instead).

    Output: (dim, v) — the S-scaled eigenvector — plus the Rayleigh-
    quotient eigenvalue estimate from the last un-normalized pass
    (float division of exact ints, mirrored by the oracle's
    HUGEINT→DOUBLE casts). Pytest pins a numpy-free replay plus
    the Rayleigh-ascent property (monotone climb bounded by LAPACK's
    λ_max; full eigenvector convergence is gap-limited on this
    near-isotropic corpus by design)."""
    from ..functions.numeric import round_half_away

    def to_int(batch: pa.Table) -> pa.Table:
        m = round_half_away(
            list_column_matrix(batch.column("embedding"),
                               dtype=np.float64) * PI_Q, 0
        ).astype(np.int64)
        d = m.shape[1]
        return pa.table({
            "x": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), type=pa.int64()), d),
        })

    ints = scan(
        sf_dir, "embeddings", columns=["embedding"]
    ).map_batches(to_int, batch_format="pyarrow",
                  batch_size=4096).materialize()

    def _fold_u(v: np.ndarray) -> list[int]:
        def partial(b: pa.Table) -> pa.Table:
            X = list_column_matrix(b.column("x"), dtype=np.int64)
            # s_i = x_i . v  (<= D*Q*S = 6.4e10); u_j = sum_i x_ij*s_i
            # (<= Q*6.4e10*4096 = 2.6e17 per batch: int64-safe)
            s = X @ v
            u = s @ X
            hi = u // _PI_SPLIT
            lo = u - hi * _PI_SPLIT
            return pa.table({
                "dim": pa.array(np.arange(len(u), dtype=np.int64)),
                "hi": pa.array(hi, type=pa.int64()),
                "lo": pa.array(lo, type=pa.int64()),
            })

        small = fold(ints.map_batches(partial, batch_format="pyarrow",
                                      batch_size=4096),
                     "dim", {"hi": ("hi", "sum"), "lo": ("lo", "sum")}
                     ).to_pandas().sort_values("dim")
        # exact reconstruction in unbounded Python ints
        return [int(h) * _PI_SPLIT + int(l)
                for h, l in zip(small["hi"], small["lo"])]

    probe = ints.take_batch(1, batch_format="pyarrow")
    D = len(probe.column("x")[0])
    v = np.full(D, PI_S, dtype=np.int64)
    rayleigh = 0.0
    for it in range(iters):
        u = _fold_u(v)
        if it == iters - 1:
            num = sum(int(vk) * uk for vk, uk in zip(v, u))
            den = sum(int(vk) * int(vk) for vk in v)
            # mirror the oracle: HUGEINT→DOUBLE casts, one division
            rayleigh = round_half_away(float(num) / float(den), 6)
        m = max(abs(uk) for uk in u)
        v = np.array([(uk * PI_S) // m for uk in u], dtype=np.int64)

    return pa.table({
        "dim": pa.array(np.arange(D, dtype=np.int64)),
        "v": pa.array(v, type=pa.int64()),
        "rayleigh": pa.array(np.full(D, rayleigh), type=pa.float64()),
    })


def _gram_power_sql(iters: int = PI_ITERS) -> str:
    from .textstats import _floordiv_sql as fdiv

    rounds = []
    for i in range(1, iters + 1):
        rounds.append(f"""s{i} AS (
  SELECT e.vec_id, SUM(e.x * v.v) AS s
  FROM e JOIN v{i - 1} v ON v.dim = e.d GROUP BY e.vec_id
), u{i} AS (
  SELECT e.d AS dim, SUM(e.x * s{i}.s) AS u
  FROM e JOIN s{i} ON s{i}.vec_id = e.vec_id GROUP BY e.d
), m{i} AS (SELECT MAX(ABS(u)) AS m FROM u{i}),
v{i} AS (
  SELECT dim, {fdiv(f'u * {PI_S}', 'm.m')} AS v
  FROM u{i} CROSS JOIN m{i} m
)""")
    last = iters
    return f"""
WITH e AS (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS INTEGER) AS d,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * {PI_Q})
              AS BIGINT) AS x
  FROM embeddings
), v0 AS (
  SELECT DISTINCT d AS dim, CAST({PI_S} AS HUGEINT) AS v FROM e
), {', '.join(rounds)},
ray AS (
  SELECT ROUND(CAST(SUM(v.v * u.u) AS DOUBLE)
               / CAST(SUM(v.v * v.v) AS DOUBLE), 6) AS rayleigh
  FROM v{last - 1} v JOIN u{last} u USING (dim)
)
SELECT CAST(dim AS BIGINT) AS dim, CAST(v AS BIGINT) AS v, ray.rayleigh
FROM v{last} CROSS JOIN ray
"""


QUERIES["gram_power_iteration"] = gram_power_iteration
ORACLE_SQL["gram_power_iteration"] = _gram_power_sql()


# ---------------------------------------------------- IVF probe curve

PROBE_LEVELS = 4


def ann_ivf_probe_curve(sf_dir: str, levels: int = PROBE_LEVELS):
    """IVF TUNING CURVE — recall@k at every probe depth nprobe ∈
    1..``levels`` in ONE corpus pass (the ``minhash_threshold_curve``
    of the ANN stack: you pick nprobe from this table, trading scan
    fraction against recall). Instead of re-searching per level, each
    corpus vector's cell gets its PROBE RANK within every query's
    cell ordering (one block matmul against the broadcast centroids);
    candidates at rank ≤ ``levels`` carry the rank, and the per-query
    fold cuts each level's top-k as a prefix-filter of the same sorted
    candidate list. Exact top-k (the ≤Q·k gold set) broadcasts into
    the fold. Same metrics/tiebreaks as ``ann_ivf_topk``; fully
    deterministic, oracle-value-checked per (nprobe, query)."""
    from .ann import TOP_K as ANN_TOP_K
    from .ann import ann_topk
    from ..functions.numeric import round_half_away

    cent = _centroids(sf_dir)

    t = pq.read_table(_pq(sf_dir, "embeddings"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_QUERIES)])
    qids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    q = list_column_matrix(t.column("embedding"), dtype=np.float64)
    order = np.argsort(qids)
    qids, q = qids[order], q[order]
    qd = _nearest(q, cent)[1]
    cell_order = np.argsort(qd, axis=1, kind="stable")
    # prank[qi, cell] = probe depth at which query qi reaches the cell
    prank = np.empty_like(cell_order)
    rows = np.arange(cell_order.shape[0])[:, None]
    prank[rows, cell_order] = np.arange(cell_order.shape[1])[None, :]

    exact = ann_topk(sf_dir).to_pandas()
    gold = {int(k): set(v["neighbor_id"])
            for k, v in exact.groupby("query_id")}

    qn = q / np.linalg.norm(q, axis=1, keepdims=True)

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def cand(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("vec_id").to_pylist(), dtype=np.int64)
        x = list_column_matrix(b.column("embedding"), dtype=np.float64)
        cell = _nearest(x, cent)[0]
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        out_q, out_n, out_s, out_r = [], [], [], []
        for qi in range(len(qids)):
            pr = prank[qi][cell]
            mask = pr < levels
            if not mask.any():
                continue
            sims = qn[qi] @ xn[mask].T
            out_q.extend([int(qids[qi])] * int(mask.sum()))
            out_n.extend(ids[mask].tolist())
            out_s.extend(sims.tolist())
            out_r.extend((pr[mask] + 1).tolist())   # 1-based nprobe
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
            "min_probe": pa.array(out_r, type=pa.int64()),
        })

    def curve(g: pa.Table) -> pa.Table:
        # gold is the ≤Q·k exact set — tiny, shipped in the closure
        qid = int(g.column("query_id")[0].as_py())
        nid = g.column("neighbor_id").to_numpy(zero_copy_only=False)
        sim = g.column("sim").to_numpy(zero_copy_only=False)
        mp = g.column("min_probe").to_numpy(zero_copy_only=False)
        order = np.lexsort((nid, -sim))
        nid, sim, mp = nid[order], sim[order], mp[order]
        e = gold.get(qid, set())
        out_l, out_hit, out_n = [], [], []
        for lv in range(1, levels + 1):
            keep = mp <= lv
            top = nid[keep][:ANN_TOP_K]
            out_l.append(lv)
            out_n.append(len(top))
            out_hit.append(len(e & set(top.tolist())))
        return pa.table({
            "nprobe": pa.array(out_l, type=pa.int64()),
            "query_id": pa.array([qid] * levels, type=pa.int64()),
            "n_exact": pa.array([len(e)] * levels, type=pa.int64()),
            "n_topk": pa.array(out_n, type=pa.int64()),
            "n_hit": pa.array(out_hit, type=pa.int64()),
            "recall": pa.array(
                [round_half_away(h / len(e), 4) if e else 0.0
                 for h in out_hit], type=pa.float64()),
        })

    return (ds.map_batches(cand, batch_format="pyarrow", batch_size=4096)
            .groupby("query_id")
            .map_groups(curve, batch_format="pyarrow"))


def _probe_curve_sql(levels: int = PROBE_LEVELS) -> str:
    from .ann import ORACLE_SQL as ANN_SQL
    from .ann import TOP_K as ANN_TOP_K

    lvl_rows = ", ".join(f"({i})" for i in range(1, levels + 1))
    return f"""
    WITH lv(nprobe) AS (VALUES {lvl_rows}),
    e AS (
      SELECT vec_id,
             list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
      FROM embeddings
    ), c AS (
      SELECT vec_id AS cid, emb AS cvec FROM e
      WHERE vec_id < {N_CENTROIDS}
    ), asg AS (
      SELECT e.vec_id, c.cid,
             list_distance(e.emb, c.cvec) ** 2 AS sqdist
      FROM e CROSS JOIN c
      QUALIFY ROW_NUMBER() OVER (PARTITION BY e.vec_id
                                 ORDER BY sqdist, cid) = 1
    ), qp AS (
      SELECT e.vec_id AS query_id, c.cid,
             ROW_NUMBER() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY list_distance(e.emb, c.cvec) ** 2, cid
             ) AS prank
      FROM e CROSS JOIN c
      WHERE e.vec_id < {N_QUERIES}
      QUALIFY prank <= {levels}
    ), scored AS (
      SELECT lv.nprobe, qp.query_id, a.vec_id AS neighbor_id,
             list_cosine_similarity(qe.emb, ne.emb) AS sim
      FROM qp
      JOIN lv ON qp.prank <= lv.nprobe
      JOIN asg a ON a.cid = qp.cid
      JOIN e qe ON qe.vec_id = qp.query_id
      JOIN e ne ON ne.vec_id = a.vec_id
    ), topk AS (
      SELECT nprobe, query_id, neighbor_id FROM scored
      QUALIFY ROW_NUMBER() OVER (
          PARTITION BY nprobe, query_id
          ORDER BY sim DESC, neighbor_id) <= {ANN_TOP_K}
    ), ex AS ({ANN_SQL["ann_topk"]}),
    ne AS (SELECT query_id, COUNT(*) AS n_exact FROM ex
           GROUP BY query_id),
    nt AS (SELECT nprobe, query_id, COUNT(*) AS n_topk FROM topk
           GROUP BY nprobe, query_id),
    hits AS (
      SELECT t.nprobe, t.query_id, COUNT(ex.neighbor_id) AS n_hit
      FROM topk t LEFT JOIN ex
        ON ex.query_id = t.query_id
       AND ex.neighbor_id = t.neighbor_id
      GROUP BY t.nprobe, t.query_id
    )
    SELECT lv.nprobe, ne.query_id, ne.n_exact,
           COALESCE(nt.n_topk, 0) AS n_topk,
           COALESCE(hits.n_hit, 0) AS n_hit,
           ROUND(CAST(COALESCE(hits.n_hit, 0) AS DOUBLE)
                 / ne.n_exact, 4) AS recall
    FROM lv CROSS JOIN ne
    LEFT JOIN nt ON nt.nprobe = lv.nprobe AND nt.query_id = ne.query_id
    LEFT JOIN hits ON hits.nprobe = lv.nprobe
                  AND hits.query_id = ne.query_id
    """


QUERIES["ann_ivf_probe_curve"] = ann_ivf_probe_curve
ORACLE_SQL["ann_ivf_probe_curve"] = _probe_curve_sql()
