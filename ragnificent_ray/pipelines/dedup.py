"""Deduplication operators over the ``documents`` / ``embeddings`` tables.

The five families the brief calls for, each mapped to a scale-conscious
Ray Data shape:

* exact          — content-hash + hash-partitioned group-first (D3)
* n-gram Jaccard — all-pairs verification; the corpus-sized comparison
                   matrix is one object-store ref that each map task
                   reads zero-copy; exact, SQL-checkable
* MinHash + LSH  — shingle → minhash → banded buckets → groupby →
                   candidate pairs → exact verify (the 100 TB path:
                   only the narrow band rows touch the shuffle)
* SimHash        — 64-bit sketch column (hamming-bucket dedup key)
* embedding cos  — near-dup pairs by cosine over the embedding column,
                   block-broadcast matmul; SQL-checkable via
                   ``list_cosine_similarity``

Groupby discipline: every ``groupby`` here keys on a BOUNDED bucket
column (hash & mask), never on a high-cardinality value — Ray Data's
``map_groups`` makes one Python call per group, so a million tiny
groups is the canonical overhead/skew trap. Within a bucket the dedup /
pair logic is vectorized pandas.

Broadcast note: the "small side" here is the token/embedding matrix of
the corpus being deduped — fine up to ~10M docs on a 128 GiB node; past
that the paired LSH route takes over. Every exact all-pairs gate has an
oracle-checked distributed companion with NO broadcast and NO driver
state:

* ``ngram_jaccard_pairs`` (exact gate) ↔ ``minhash_lsh_pairs``
  (banding shuffle + hash-join shingle verify)
* ``embedding_neardup`` (exact gate) ↔ ``embedding_neardup_lsh``
  (hyperplane-band shuffle + hash-join cosine verify)

Both companions are value-checked against full-pipeline DuckDB oracles
(seeded constants embedded as SQL literals), so the scale path is held
to the same correctness bar as the gates.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.hashing import md5_hex, stable_hash64
from ..functions.numeric import list_column_matrix, round_half_away
from .combine import combine, fold
from .exchange import hash_join
from .inputs import _pq, fold_buckets, scan, table_bytes

JACCARD_THRESHOLD = 0.6
COSINE_THRESHOLD = 0.4
MINHASH_PERMS = 64
LSH_BANDS = 16  # 16 bands × 4 rows
_MERSENNE = (1 << 61) - 1
_BUCKETS = 64  # minimum bounded groupby key space


def _bucket_count(sf_dir: str, table: str = "documents",
                  target_bytes: int = 64 << 20) -> int:
    """Bucket count scaled to the input: one bucket per ~64 MiB of
    source parquet (min 64) so per-group pandas frames stay block-sized
    at any corpus scale while the groupby key space remains bounded."""
    sz = table_bytes(sf_dir, table)
    return max(_BUCKETS, int(sz // target_bytes) + 1)


# -------------------------------------------------------------- exact dedup

def exact_dedup(sf_dir: str):
    """Keep the lowest doc_id per md5(text): hash column in a vectorized
    map, then group-first over hash BUCKETS (bounded key space) with the
    per-hash dedup vectorized inside each bucket (the D3 pattern)."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    n_buckets = _bucket_count(sf_dir)

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t) for t in batch.column("text").to_pylist()]
        # narrow rows only — the text column never ships through the
        # bucket exchange
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text_hash": pa.array(hashes),
            "bucket": pa.array([int(h[:8], 16) % n_buckets
                                for h in hashes], type=pa.int32()),
        })

    def bucket_first(g: pa.Table) -> pa.Table:
        f = (g.select(["text_hash", "doc_id"]).group_by("text_hash")
             .aggregate([("doc_id", "min")]))
        return pa.table({"doc_id": f.column("doc_id_min"),
                         "text_hash": f.column("text_hash")})

    return (
        ds.map_batches(add_hash, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(bucket_first, batch_format="pyarrow")
    )


_PREFIX_LEN = 32


def doc_prefix_dedup(sf_dir: str):
    """Boilerplate-prefix clusters: documents sharing their first 32
    characters (the shared-header/template symptom in web corpora —
    catches near-dups that exact hashing misses because the tails
    differ). Per-batch Arrow ``group_by`` collapses to one (prefix,
    count, min-id) cell per distinct prefix per block; md5-bucketed
    folds keep the exchange bounded while the prefix key space is
    corpus-scale; clusters of one are dropped in-bucket so only actual
    duplicate groups ever leave."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    n_buckets = _bucket_count(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({
            "prefix": pc.utf8_slice_codeunits(
                batch.column("text"), 0, _PREFIX_LEN),
            "n_docs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "first_doc": batch.column("doc_id"),
        }).group_by("prefix").aggregate(
            [("n_docs", "sum"), ("first_doc", "min")])
        g = g.rename_columns(["prefix", "n_docs", "first_doc"])
        return g.append_column("bucket", pa.array(
            [int(md5_hex(p)[:8], 16) % n_buckets
             for p in g.column("prefix").to_pylist()], type=pa.int32()))

    def fold(g: pa.Table) -> pa.Table:
        f = g.group_by("prefix").aggregate(
            [("n_docs", "sum"), ("first_doc", "min")])
        f = f.rename_columns(["prefix", "n_docs", "first_doc"])
        return f.filter(pc.greater(f.column("n_docs"), 1))

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=8192)
            .groupby("bucket")
            .map_groups(fold, batch_format="pyarrow"))


def cross_source_dup_matrix(sf_dir: str):
    """Cross-source duplication matrix — WHO copies from WHOM: for
    every source pair, how many 32-char boilerplate-prefix groups
    (the [[doc-prefix-dedup]] signal) contain documents from BOTH.
    The provenance question a crawl-curation pass answers before
    deciding which mirror/aggregator sources to drop entirely rather
    than dedup document-by-document.

    Scale shape: distinct (prefix, source) cells per batch, prefix
    co-locates via md5-bucketed folds, pair generation is a
    vectorized self-merge per bucket bounded by |sources| per prefix,
    and the final fold is the ≤C(|sources|,2) pair key space. Exact
    integer counts."""
    ds = scan(sf_dir, "documents", columns=["source", "text"])
    n_buckets = _bucket_count(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({
            "prefix": pc.utf8_slice_codeunits(
                batch.column("text"), 0, _PREFIX_LEN),
            "source": batch.column("source"),
        }).group_by(["prefix", "source"]).aggregate([])
        return g.append_column("bucket", pa.array(
            [int(md5_hex(p)[:8], 16) % n_buckets
             for p in g.column("prefix").to_pylist()], type=pa.int32()))

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = (g.select(["prefix", "source"])
             .group_by(["prefix", "source"]).aggregate([]))
        m = g.join(g, keys="prefix", join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("source_x"),
                             m.column("source_y")))
        cnt = (m.group_by(["source_x", "source_y"])
               .aggregate([("prefix", "count")]))
        return pa.table({
            "src_a": cnt.column("source_x"),
            "src_b": cnt.column("source_y"),
            "n_prefixes": pc.cast(cnt.column("prefix_count"),
                                  pa.int64()),
        })

    return fold(ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=8192)
                .groupby("bucket")
                .map_groups(bucket_pairs, batch_format="pyarrow"),
                ["src_a", "src_b"], {"n_prefixes": ("n_prefixes", "sum")})


_CROSS_SOURCE_SQL = """
WITH pv AS (
  SELECT DISTINCT substr(text, 1, 32) AS prefix, source
  FROM documents
)
SELECT a.source AS src_a, b.source AS src_b,
       COUNT(*) AS n_prefixes
FROM pv a JOIN pv b ON a.prefix = b.prefix
      AND a.source < b.source
GROUP BY a.source, b.source
"""


def incremental_dedup(sf_dir: str):
    """Incremental-ingest dedup — the repeated-crawl scenario: the
    incoming half of the corpus (doc_id ≥ median split point) keeps
    only documents whose content key was never seen in the EXISTING
    half, nor earlier within the incoming batch itself. The key is the
    md5 of the 32-char boilerplate prefix (the :func:`doc_prefix_dedup`
    signal — this corpus has no full-text exact dups, so prefix keys
    are what actually collide across snapshots).

    Both legs stream: existing docs reduce to per-batch-unique hash
    rows, the batch-internal keeper is the bucketed group-first
    (:func:`exact_dedup`'s shape), and the cross-snapshot test is one
    hash-partitioned ``left_anti`` join — the exchange carries hashes,
    never text. No corpus-sized set ever materializes on the driver."""
    import pyarrow.parquet as pq_mod

    meta = pq_mod.read_metadata(_pq(sf_dir, "documents"))
    split = meta.num_rows // 2
    n_buckets = _bucket_count(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def hash_existing(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.less(batch.column("doc_id"), split))
        hashes = sorted({md5_hex(t[:_PREFIX_LEN]) for t in
                         b.column("text").to_pylist()})
        return pa.table({"old_hash": pa.array(hashes, type=pa.string())})

    def hash_incoming(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.greater_equal(batch.column("doc_id"), split))
        hashes = [md5_hex(t[:_PREFIX_LEN])
                  for t in b.column("text").to_pylist()]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "text_hash": pa.array(hashes, type=pa.string()),
            "bucket": pa.array([int(h[:8], 16) % n_buckets
                                for h in hashes], type=pa.int32()),
        })

    def batch_first(g: pa.Table) -> pa.Table:
        f = (g.select(["text_hash", "doc_id"]).group_by("text_hash")
             .aggregate([("doc_id", "min")]))
        return pa.table({"doc_id": f.column("doc_id_min"),
                         "text_hash": f.column("text_hash")})

    existing = ds.map_batches(hash_existing, batch_format="pyarrow",
                              batch_size=8192)
    incoming = (ds.map_batches(hash_incoming, batch_format="pyarrow",
                               batch_size=8192)
                .groupby("bucket")
                .map_groups(batch_first, batch_format="pyarrow"))
    out = hash_join(incoming, existing, "left_anti", "text_hash", "old_hash")
    return out.map_batches(
        lambda b: b.select(["doc_id", "text_hash"]),
        batch_format="pyarrow")


def minhash_threshold_curve(sf_dir: str):
    """Dedup-threshold tuning curve over the verified MinHash
    candidate set: pair counts per 0.1-wide Jaccard bin — the plot an
    operator reads before picking the near-dup cut ("how many more
    pairs does lowering the threshold to 0.5 admit?"). Composes the
    full :func:`minhash_lsh_pairs` scale path (band buckets, hash-join
    verify) and adds one ≤10-key integer fold; binning floors the same
    IEEE double on both engines."""
    def bins(b: pa.Table) -> pa.Table:
        j = b.column("jaccard").to_numpy()
        return pa.table({"bin": pa.array(np.floor(j * 10).astype(np.int64))})

    return combine(minhash_lsh_pairs(sf_dir), "bin",
                   {"n_pairs": ("bin", "count")}, bins)


def snapshot_diff(sf_dir: str):
    """Snapshot-to-snapshot content diff — the recrawl health report:
    the corpus splits into an EXISTING half (doc_id below the median)
    and an INCOMING half (:func:`incremental_dedup`'s scenario), keyed
    by the md5 of the 32-char boilerplate prefix, and the census says
    how much content carried over, arrived new, or disappeared —
    the numbers behind "did the recrawl actually refresh anything?".

    Scale shape: legs ride as bits (old=1, new=2) on distinct
    (key, bit) rows — per-batch Arrow ``group_by`` collapses repeats,
    md5-buckets bound the corpus-scale key space, each bucket folds to
    ONE partial row of five counts, and the final fold sums a
    buckets-sized table into the single-row report."""
    import pyarrow.parquet as pq_mod

    meta = pq_mod.read_metadata(_pq(sf_dir, "documents"))
    split = meta.num_rows // 2
    n_buckets = _bucket_count(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        bit = pc.if_else(pc.less(batch.column("doc_id"), split),
                         pa.scalar(1, pa.int64()),
                         pa.scalar(2, pa.int64()))
        hashes = [md5_hex(t[:_PREFIX_LEN])
                  for t in batch.column("text").to_pylist()]
        g = (pa.table({"h": pa.array(hashes, type=pa.string()),
                       "bit": bit})
             .group_by(["h", "bit"]).aggregate([]))
        return g.append_column("bucket", pa.array(
            (int(h[:8], 16) % n_buckets
             for h in g.column("h").to_pylist()), type=pa.int32()))

    def bucket_fold(g: pa.Table) -> pa.Table:
        f = (pa.table({"h": g.column("h"), "bit": g.column("bit")})
             .group_by(["h", "bit"]).aggregate([])
             .group_by("h").aggregate([("bit", "sum")]))
        mask = f.column("bit_sum").to_numpy()
        return pa.table({
            "k": pa.array([1], type=pa.int32()),
            "n_old_keys": pa.array([int(((mask & 1) > 0).sum())]),
            "n_new_keys": pa.array([int(((mask & 2) > 0).sum())]),
            "n_carried": pa.array([int((mask == 3).sum())]),
            "n_added": pa.array([int((mask == 2).sum())]),
            "n_retired": pa.array([int((mask == 1).sum())]),
        })

    def finish(g: pa.Table) -> pa.Table:
        cols = ["n_old_keys", "n_new_keys", "n_carried", "n_added",
                "n_retired"]
        return pa.table({c: pa.array(
            [int(pc.sum(g.column(c)).as_py() or 0)], type=pa.int64())
            for c in cols})

    return (ds.map_batches(keyed, batch_format="pyarrow",
                           batch_size=8192)
            .groupby("bucket")
            .map_groups(bucket_fold, batch_format="pyarrow")
            .groupby("k")
            .map_groups(finish, batch_format="pyarrow"))


def length_drift_ks(sf_dir: str):
    """Distribution-drift monitor between crawl snapshots: the exact
    two-sample Kolmogorov–Smirnov statistic on the document-length
    distribution of the EXISTING half (doc_id below the median) vs the
    INCOMING half — did the recrawl change the SHAPE of what we
    collect, not just its keys (:func:`snapshot_diff`'s complement)?
    D = max_t |F_old(t) − F_new(t)|; the argmax is found on the
    INTEGER numerator |k_old·n_new − k_new·n_old| over a common
    denominator, so the maximizing length is exact on both engines and
    only the reported ratio is a rounded float.

    Scale shape: per-batch Arrow ``group_by`` folds to one
    (length, leg-count) cell per block; lengths are value-bounded, so
    the cumulative walk runs driver-side on the bounded histogram in
    Python unbounded ints (n_old·n_new overflows int64 at ~10¹⁰ docs
    per leg)."""
    import pyarrow.parquet as pq_mod

    from ..functions.numeric import round_half_away

    meta = pq_mod.read_metadata(_pq(sf_dir, "documents"))
    split = meta.num_rows // 2

    ds = scan(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def cells(b: pa.Table) -> pa.Table:
        old = pc.cast(pc.less(b.column("doc_id"), split), pa.int64())
        return pa.table({
            "v": b.column("n_chars"),
            "c0": old,
            "c1": pc.subtract(pa.scalar(1, pa.int64()), old),
        })

    hist = combine(ds, "v", {"c0": ("c0", "sum"), "c1": ("c1", "sum")},
                   cells).to_pandas().sort_values("v")
    vs, c0, c1 = ([int(x) for x in hist[c]] for c in ("v", "c0", "c1"))
    n0, n1 = sum(c0), sum(c1)
    best_num, best_v, best_k0, best_k1 = -1, None, 0, 0
    k0 = k1 = 0
    for v, a, b_ in zip(vs, c0, c1):
        k0 += a
        k1 += b_
        num = abs(k0 * n1 - k1 * n0)
        if num > best_num:
            best_num, best_v, best_k0, best_k1 = num, v, k0, k1
    return pa.table({
        "at_length": pa.array([best_v], type=pa.int64()),
        "n_old": pa.array([n0], type=pa.int64()),
        "n_new": pa.array([n1], type=pa.int64()),
        "cdf_old": pa.array(
            [round_half_away(np.array([best_k0 / n0]), 4)[0]],
            type=pa.float64()),
        "cdf_new": pa.array(
            [round_half_away(np.array([best_k1 / n1]), 4)[0]],
            type=pa.float64()),
        "ks": pa.array(
            [round_half_away(
                np.array([float(best_num) / float(n0 * n1)]), 4)[0]],
            type=pa.float64()),
    })


# ------------------------------------------------------- token-set helpers

def _token_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, binary doc×vocab matrix) for the unigram token sets."""
    t = pq.read_table(_pq(sf_dir, "documents"), columns=["doc_id", "text"])
    doc_ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    token_sets = [set(x.strip().split()) for x in t.column("text").to_pylist()]
    vocab = {w: i for i, w in enumerate(sorted(set().union(*token_sets)))}
    m = np.zeros((len(doc_ids), len(vocab)), dtype=np.float32)
    for r, s in enumerate(token_sets):
        for w in s:
            m[r, vocab[w]] = 1.0
    return doc_ids, m


class _BlockJaccard:
    """Task-based callable (no actor pool): the matrix ref resolves from
    the object store once per worker process (plasma get is zero-copy)."""

    def __init__(self, ref):
        self.ref = ref
        self._state = None

    def _resolve(self):
        if self._state is None:
            doc_ids, matrix = ray.get(self.ref)
            self._state = (doc_ids, matrix, matrix.sum(axis=1),
                           {d: i for i, d in enumerate(doc_ids)})
        return self._state

    def __getstate__(self):
        s = self.__dict__.copy()
        s["_state"] = None
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, matrix, sizes, index = self._resolve()
        rows = [index[d] for d in batch.column("doc_id").to_pylist()]
        block = matrix[rows]                            # (b, V)
        inter = block @ matrix.T                        # (b, N)
        union = sizes[rows][:, None] + sizes[None, :] - inter
        jac = np.where(union > 0, inter / union, 0.0)
        a_ids = doc_ids[rows][:, None]
        mask = (jac >= JACCARD_THRESHOLD) & (a_ids < doc_ids[None, :])
        ai, bi = np.nonzero(mask)
        return pa.table({
            "doc_a": pa.array(doc_ids[rows][ai], type=pa.int64()),
            "doc_b": pa.array(doc_ids[bi], type=pa.int64()),
            "jaccard": pa.array(round_half_away(jac[ai, bi], 4),
                                type=pa.float64()),
        })


EXACT_ALLPAIRS_MAX_ROWS = 1_000_000


def _guard_exact_allpairs(sf_dir: str, table: str, companion: str) -> None:
    """The exact all-pairs gates broadcast the whole corpus matrix to
    every worker — fine as exactness gates at test scale, a silent
    128 GiB-node OOM past ~10^6 rows. Refuse loudly and point at the
    oracle-green LSH companion instead of letting the broadcast wedge
    the cluster. Row count comes from parquet footer metadata (no data
    read)."""
    path = _pq(sf_dir, table)
    try:
        if os.path.isdir(path):
            n = sum(pq.read_metadata(os.path.join(path, f)).num_rows
                    for f in os.listdir(path) if f.endswith(".parquet"))
        else:
            n = pq.read_metadata(path).num_rows
    except OSError:
        return
    if n > EXACT_ALLPAIRS_MAX_ROWS:
        raise ValueError(
            f"{table} has {n} rows > EXACT_ALLPAIRS_MAX_ROWS="
            f"{EXACT_ALLPAIRS_MAX_ROWS}: the exact all-pairs gate "
            f"broadcasts the full corpus matrix; use the distributed "
            f"LSH companion `{companion}` at this scale.")


def ngram_jaccard_pairs(sf_dir: str):
    """Exact all-pairs unigram-set Jaccard ≥ threshold (a < b).

    The full binary matrix is broadcast once (``ray.put``); each batch
    computes its block of the pair matrix with one matmul. Guarded to
    ≤ EXACT_ALLPAIRS_MAX_ROWS — `minhash_lsh_pairs` is the scale path."""
    _guard_exact_allpairs(sf_dir, "documents", "minhash_lsh_pairs")
    doc_ids, matrix = _token_matrix(sf_dir)
    mref = ray.put((doc_ids, matrix))
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(_BlockJaccard(mref), batch_format="pyarrow",
                          batch_size=256)


# ------------------------------------------------------------- minhash+LSH

def _minhash_perms(n: int = MINHASH_PERMS) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) permutation constants — module-level so the DuckDB
    oracle can embed the SAME values as SQL literals."""
    rng = np.random.Generator(np.random.PCG64(42))
    a = rng.integers(1, _MERSENNE, size=n, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=n, dtype=np.uint64)
    return a, b


MINHASH_A, MINHASH_B = _minhash_perms()


# ------------------------------------------------- vectorized gram ids
# Gram identity = token-level md5 once (cached per worker — Heaps-law
# vocabulary is tiny next to token occurrences), then a Horner fold of
# the k token ids in wrapping uint64: one numpy pass per document
# instead of one Python md5 per gram. The oracles replay the identical
# fold in HUGEINT mod-2^64 arithmetic (``_gram_mix_sql``), collisions
# included. Multipliers stay < 2^63 so every HUGEINT product fits.
_W64 = 1 << 64
GRAM_MIX_P = 0x51E3779B97F4A7C1
GRAM_MIX_P2 = 0x27D4EB2F165667C5
GRAM_MIX_SEED = 0x9E3779B97F4A7C15
_GRAM_C0 = (GRAM_MIX_SEED * GRAM_MIX_P) % _W64

_TOKEN_HASH_CACHE: dict[str, int] = {}


def _token_hashes(toks: list[str]) -> np.ndarray:
    """60-bit md5 token ids (``int(md5_hex(tok)[:15], 16)``), cached."""
    cache = _TOKEN_HASH_CACHE
    if len(cache) > (1 << 20):
        cache.clear()
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = int(md5_hex(t)[:15], 16)
            cache[t] = h
        out[i] = h
    return out


def _gram_hashes(toks: list[str], k: int, shift: int) -> np.ndarray:
    """Hashes of every k-token gram of ``toks`` (a doc shorter than k
    folds to ONE whole-doc gram, mirroring the joined-string idiom):
    ``(Horner(u_i..u_{i+k-1}) * P2) >> shift`` in wrapping uint64."""
    u = _token_hashes(toks)
    if len(u) == 0:
        return np.zeros(0, dtype=np.uint64)
    win = (u[None, :] if len(u) < k
           else np.lib.stride_tricks.sliding_window_view(u, k))
    p = np.uint64(GRAM_MIX_P)
    h = np.uint64(_GRAM_C0) + win[:, 0]
    for j in range(1, win.shape[1]):
        h = h * p + win[:, j]
    return (h * np.uint64(GRAM_MIX_P2)) >> np.uint64(shift)


def _gram_mix_sql(k: int, shift: int, toks_expr: str = "toks") -> str:
    """DuckDB expression yielding the per-doc LIST of gram hashes for a
    string-array column — the exact HUGEINT replay of ``_gram_hashes``
    (token md5-60 ids, Horner fold, finalizer multiply, >> shift)."""
    div = 1 << shift

    def u(idx: str) -> str:
        # hex literals parse to BIGINT only (60 bits fits); the fold
        # itself runs in HUGEINT
        return ("CAST(CAST(('0x' || substr(md5(%s[%s]), 1, 15))"
                " AS BIGINT) AS HUGEINT)" % (toks_expr, idx))

    def horner(idxs: list[str]) -> str:
        e = f"(({_GRAM_C0} + {u(idxs[0])}) % {_W64})"
        for ix in idxs[1:]:
            e = f"((({e} * {GRAM_MIX_P}) % {_W64} + {u(ix)}) % {_W64})"
        return (f"CAST((({e} * {GRAM_MIX_P2}) % {_W64}) // {div}"
                f" AS BIGINT)")

    short = "".join(
        f" WHEN len({toks_expr}) = {n}"
        f" THEN [{horner([str(j) for j in range(1, n + 1)])}]"
        for n in range(1, k))
    full = horner([f"i+{j}" for j in range(1, k + 1)])
    return (f"CASE{short} ELSE [{full} FOR i IN"
            f" range(0, len({toks_expr}) - {k - 1})] END")


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """3-token-gram shingle ids: the token-md5 Horner mix, top 60 bits
    (< the Mersenne-61 modulus) — one vectorized pass per doc, replayed
    in SQL by ``_gram_mix_sql(3, 4)``."""
    return np.unique(_gram_hashes(text.strip().split(), k, 4))


def _minhash(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(shingles) == 0:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    # (P, S) permuted hashes mod Mersenne prime, min over shingles
    v = (a[:, None] * shingles[None, :] + b[:, None]) % np.uint64(_MERSENNE)
    return v.min(axis=1)


def _verify_joined(batch: pa.Table, threshold: float) -> pa.Table:
    """Exact shingle-Jaccard over candidate rows that already carry both
    docs' shingle sets (attached by the hash join — no driver state)."""
    oa, ob, oj = [], [], []
    for x, y, sa, sb in zip(batch.column("doc_a").to_pylist(),
                            batch.column("doc_b").to_pylist(),
                            batch.column("shingles_a").to_pylist(),
                            batch.column("shingles_b").to_pylist()):
        sa = np.frombuffer(sa, dtype=np.uint64)
        sb = np.frombuffer(sb, dtype=np.uint64)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        j = inter / union if union else 0.0
        if j >= threshold:
            oa.append(x)
            ob.append(y)
            oj.append(round_half_away(j, 4))
    return pa.table({
        "doc_a": pa.array(oa, type=pa.int64()),
        "doc_b": pa.array(ob, type=pa.int64()),
        "jaccard": pa.array(oj, type=pa.float64()),
    })


def minhash_lsh_pairs(sf_dir: str, jaccard_threshold: float = 0.4):
    """Near-dup pairs via MinHash banding (SURVEY §2.7 D-pattern).

    One distributed sketch pass computes shingles + 64 minhashes + 16
    band hashes per doc; band rows explode to (doc_id, band_id,
    band_hash, bucket) and candidate pairs form per BUCKET with a
    vectorized self-merge; pairs dedup in bounded pair-buckets; exact
    shingle-Jaccard verification hash-joins the candidate pairs back
    to the materialized sketch table (once per side) so only candidate
    rows and their two shingle sets ever co-locate — no driver-side
    materialization anywhere in the path. At 10^10 scale only the
    narrow band rows and the (rare) candidates shuffle."""
    n_buckets = _bucket_count(sf_dir)

    a, b = MINHASH_A, MINHASH_B
    rows_per_band = MINHASH_PERMS // LSH_BANDS

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def sketch_batch(batch: pa.Table) -> pa.Table:
        ids, shing, bands = [], [], []
        for d, x in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            s = _shingle_hashes(x)
            mh = _minhash(s, a, b)
            bh = [
                int(stable_hash64(
                    mh[i * rows_per_band:(i + 1) * rows_per_band]
                    .tobytes().hex()))
                for i in range(LSH_BANDS)
            ]
            ids.append(d)
            shing.append(s)
            bands.append(bh)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "shingles": pa.array([s.tolist() for s in shing],
                                 type=pa.list_(pa.uint64())),
            "band_hashes": pa.array(bands, type=pa.list_(pa.uint64())),
        })

    # the sketch table carries the corpus's shingle sets (~8 B/token,
    # token-scale like the exact-substring family's gram tables): one
    # parquet checkpoint, consumed three times with pruned columns —
    # bands never re-read shingles, the verify joins never re-read bands
    sketches = _checkpointed(
        ds.map_batches(sketch_batch, batch_format="pyarrow",
                       batch_size=1024),
        _ckpt_tag("minhash_sketch", sf_dir))

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        bands = batch.column("band_hashes").to_pylist()
        n = len(ids)
        doc = np.repeat(np.asarray(ids, dtype=np.int64), LSH_BANDS)
        band_id = np.tile(np.arange(LSH_BANDS, dtype=np.int32), n)
        band_hash = np.asarray([h for bh in bands for h in bh],
                               dtype=np.uint64)
        return pa.table({
            "doc_id": pa.array(doc),
            "band_id": pa.array(band_id),
            "band_hash": pa.array(band_hash),
            "bucket": pa.array((band_hash % n_buckets).astype(np.int32)),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = g.select(["band_id", "band_hash", "doc_id"])
        m = g.join(g, keys=["band_id", "band_hash"], join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("doc_id_x"),
                             m.column("doc_id_y")))
        return (m.group_by(["doc_id_x", "doc_id_y"]).aggregate([])
                .rename_columns(["doc_a", "doc_b"]))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        pb = ((da * np.int64(1000003) + db) % n_buckets).astype(np.int32)
        return batch.append_column("pair_bucket", pa.array(pb))

    def pair_dedup(g: pa.Table) -> pa.Table:
        return g.group_by(["doc_a", "doc_b"]).aggregate([])

    cands = (
        sketches(["doc_id", "band_hashes"])
        .map_batches(explode_bands, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(pair_dedup, batch_format="pyarrow")
    )

    def _keyed(key: str, col: str):
        # Arrow's hash join takes no list payloads: pack each sorted
        # shingle set into one binary cell (uint64 LE) for the exchange.
        def pack(b: pa.Table, key=key, col=col) -> pa.Table:
            packed = [np.asarray(s, dtype=np.uint64).tobytes()
                      for s in b.column("shingles").to_pylist()]
            return pa.table({
                key: b.column("doc_id"),
                col: pa.array(packed, type=pa.binary()),
            })

        return sketches(["doc_id", "shingles"]).map_batches(
            pack, batch_format="pyarrow")

    return (
        hash_join(hash_join(cands, _keyed("doc_a", "shingles_a"), "inner",
                            "doc_a"),
                  _keyed("doc_b", "shingles_b"), "inner", "doc_b")
        .map_batches(
            lambda b: _verify_joined(b, jaccard_threshold),
            batch_format="pyarrow")
    )


# ------------------------------------------------------------------ simhash

def simhash64(sf_dir: str):
    """SimHash sketch per document (token-hash sign aggregation).

    The token hash is the first 60 bits of md5 (like ``fingerprints``)
    so the sketch is SQL-expressible and value-checked by the DuckDB
    oracle; 60 bits keeps the signature inside a signed BIGINT on both
    engines. Semantics match the classic 64-bit SimHash with the top
    four bit positions constant-zero."""

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def sketch(batch: pa.Table) -> pa.Table:
        out = []
        bit_cols = np.arange(60, dtype=np.uint64)
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            if not toks:
                out.append(0)
                continue
            hs = _token_hashes(toks)  # same md5-60 ids, cached
            bits = ((hs[:, None] >> bit_cols[None, :]) & 1).astype(np.int32)
            acc = (2 * bits - 1).sum(axis=0)
            sig = 0
            for i in range(60):
                if acc[i] > 0:
                    sig |= 1 << i
            out.append(sig)
        return pa.table({
            "doc_id": batch["doc_id"],
            "simhash": pa.array(out, type=pa.int64()),
        })

    return ds.map_batches(sketch, batch_format="pyarrow", batch_size=4096)


SIMHASH_BANDS = 4
SIMHASH_BAND_BITS = 15  # 60 sketch bits / 4 bands
SIMHASH_HAMMING_K = 3  # pigeonhole: ≤3 differing bits ⇒ ≥1 equal band

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 has no bitwise_count)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(
        axis=1).astype(np.int64)


def simhash_neardup_pairs(sf_dir: str, k: int = SIMHASH_HAMMING_K):
    """Near-duplicate pairs by SimHash hamming distance ≤ ``k`` via
    banded bucketing (the classic sketch-side LSH for hamming space).

    The 60-bit sketch splits into 4 disjoint 15-bit bands; any pair
    within hamming 3 differs in at most 3 bands, so at least one band
    matches exactly (pigeonhole) — candidate generation by band-equality
    buckets is therefore COMPLETE for k=3, and the emitted set equals
    the brute-force hamming self-join the DuckDB oracle computes.

    Scale shape: no all-pairs anywhere. The sketch rides along with the
    band rows (8 bytes — unlike MinHash there is no join-back), pairs
    form per bounded bucket with a vectorized self-merge, the hamming
    filter applies in the same group call, and duplicates collapse in
    bounded pair-buckets. Only narrow (doc_id, band, sketch) rows ever
    shuffle; at 10^10 docs the exchange is ~32 bytes/doc·band."""
    n_buckets = _bucket_count(sf_dir)
    mask = np.uint64((1 << SIMHASH_BAND_BITS) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sh = batch.column("simhash").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        doc = np.repeat(ids.astype(np.int64), SIMHASH_BANDS)
        sig = np.repeat(sh, SIMHASH_BANDS)
        band_id = np.tile(np.arange(SIMHASH_BANDS, dtype=np.int64), n)
        shift = (band_id * SIMHASH_BAND_BITS).astype(np.uint64)
        band_val = (sig >> shift) & mask
        bucket = ((band_val * np.uint64(2654435761)
                   + band_id.astype(np.uint64)) % np.uint64(n_buckets))
        return pa.table({
            "doc_id": pa.array(doc),
            "simhash": pa.array(sig.astype(np.int64)),
            "band_id": pa.array(band_id.astype(np.int32)),
            "band_val": pa.array(band_val.astype(np.int64)),
            "bucket": pa.array(bucket.astype(np.int32)),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = g.select(["band_id", "band_val", "doc_id", "simhash"])
        m = g.join(g, keys=["band_id", "band_val"], join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("doc_id_x"),
                             m.column("doc_id_y")))
        ham = _popcount64(
            m.column("simhash_x").to_numpy(zero_copy_only=False)
            .astype(np.uint64)
            ^ m.column("simhash_y").to_numpy(zero_copy_only=False)
            .astype(np.uint64))
        m = m.append_column("hamming", pa.array(ham))
        m = m.filter(pa.array(ham <= k))
        f = (m.select(["doc_id_x", "doc_id_y", "hamming"])
             .group_by(["doc_id_x", "doc_id_y"])
             .aggregate([("hamming", "min")]))
        return f.rename_columns(["doc_a", "doc_b", "hamming"])

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        pb = ((da * np.int64(1000003) + db) % n_buckets).astype(np.int32)
        return batch.append_column("pair_bucket", pa.array(pb))

    def pair_dedup(g: pa.Table) -> pa.Table:
        f = (g.select(["doc_a", "doc_b", "hamming"])
             .group_by(["doc_a", "doc_b"])
             .aggregate([("hamming", "min")]))
        return f.rename_columns(["doc_a", "doc_b", "hamming"])

    return (
        simhash64(sf_dir)
        .map_batches(explode, batch_format="pyarrow", batch_size=8192)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(pair_dedup, batch_format="pyarrow")
    )


# ------------------------------------------------- embedding cosine near-dup

class _BlockCosine:
    """Task-based block-matmul cosine; matrix resolves per worker."""

    def __init__(self, ref):
        self.ref = ref
        self._state = None

    def __getstate__(self):
        s = self.__dict__.copy()
        s["_state"] = None
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._state is None:
            ids, mn = ray.get(self.ref)
            self._state = (ids, mn, {d: i for i, d in enumerate(ids)})
        ids, mn, index = self._state
        rows = [index[d] for d in batch.column("vec_id").to_pylist()]
        sims = mn[rows] @ mn.T
        a_ids = ids[rows][:, None]
        mask = (sims >= COSINE_THRESHOLD) & (a_ids < ids[None, :])
        ai, bi = np.nonzero(mask)
        return pa.table({
            "vec_a": pa.array(ids[rows][ai], type=pa.int64()),
            "vec_b": pa.array(ids[bi], type=pa.int64()),
            "cos_sim": pa.array(round_half_away(sims[ai, bi], 4),
                                type=pa.float64()),
        })


def embedding_neardup(sf_dir: str):
    """Near-duplicate pairs by embedding cosine ≥ threshold (a < b).

    Normalized float64 matrix broadcast once; per-batch block matmul.
    SQL oracle casts the float32 lists to DOUBLE so both engines work
    on identical inputs. Guarded to ≤ EXACT_ALLPAIRS_MAX_ROWS —
    `embedding_neardup_lsh` is the scale path."""
    _guard_exact_allpairs(sf_dir, "embeddings", "embedding_neardup_lsh")
    t = pq.read_table(_pq(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    m = list_column_matrix(t.column("embedding"), dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    mn = m / np.where(norms == 0, 1, norms)
    ref = ray.put((ids, mn))

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(_BlockCosine(ref), batch_format="pyarrow",
                          batch_size=256)


EMB_LSH_BANDS = 12
EMB_LSH_BITS = 10


def embedding_neardup_lsh(sf_dir: str, threshold: float = COSINE_THRESHOLD,
                          bands: int = EMB_LSH_BANDS,
                          bits: int = EMB_LSH_BITS):
    """Embedding near-dup, the SCALE path (``embedding_neardup`` is the
    exact all-pairs gate with a documented ~10M-vector broadcast
    ceiling). Banded random-hyperplane LSH, fully distributed:

    1. per batch: normalize, project onto ``bands × bits`` fixed seeded
       hyperplanes, pack each band's sign bits into a band hash;
    2. band rows groupby bounded bucket → vectorized self-merge →
       candidate pairs; pair-dedup in bounded pair-buckets;
    3. exact-cosine verify hash-joins each side's vector back by id
       (packed float64 bytes) — no broadcast matrix anywhere.

    Output ⊆ ``embedding_neardup``'s pairs (verification is exact);
    recall < 1 by LSH design and rises with the pair's cosine. At real
    scale ``bits`` grows with log2(n_vectors) to keep band buckets
    block-sized (the ``bands``/``bits`` knobs are the tradeoff dial)."""
    n_buckets = _bucket_count(sf_dir, table="embeddings")

    ds = scan(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    _planes: dict[int, np.ndarray] = {}  # per-process (same seed → same planes)

    def planes_for(dim: int) -> np.ndarray:
        p = _planes.get(dim)
        if p is None:
            rng = np.random.Generator(np.random.PCG64(11))
            p = rng.standard_normal((bands * bits, dim))
            _planes[dim] = p
        return p

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = list_column_matrix(batch.column("embedding"), dtype=np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        mn = m / np.where(norms == 0, 1, norms)
        sign = (mn @ planes_for(m.shape[1]).T) > 0          # n × bands*bits
        w = (np.uint64(1) << np.arange(bits, dtype=np.uint64))
        vals = sign.reshape(len(ids), bands, bits).astype(np.uint64) @ w
        # fold band_id into the hash so distinct bands never collide
        bh = (vals * np.uint64(bands)
              + np.arange(bands, dtype=np.uint64)[None, :]).ravel()
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands)),
            "band_id": pa.array(
                np.tile(np.arange(bands, dtype=np.int32), len(ids))),
            "band_hash": pa.array(bh),
            "bucket": pa.array(
                ((bh * np.uint64(0x9E3779B97F4A7C15)) %
                 np.uint64(n_buckets)).astype(np.int32)),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = g.select(["band_id", "band_hash", "doc_id"])
        m = g.join(g, keys=["band_id", "band_hash"], join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("doc_id_x"),
                             m.column("doc_id_y")))
        return (m.group_by(["doc_id_x", "doc_id_y"]).aggregate([])
                .rename_columns(["vec_a", "vec_b"]))

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        da = batch.column("vec_a").to_numpy(zero_copy_only=False)
        db = batch.column("vec_b").to_numpy(zero_copy_only=False)
        pb = ((da * np.int64(1000003) + db) % n_buckets).astype(np.int32)
        return batch.append_column("pair_bucket", pa.array(pb))

    def pair_dedup(g: pa.Table) -> pa.Table:
        return g.group_by(["vec_a", "vec_b"]).aggregate([])

    cands = (
        ds.map_batches(band_rows, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(pair_dedup, batch_format="pyarrow")
    )

    def _keyed(key: str):
        def pack(b: pa.Table, key=key) -> pa.Table:
            m = list_column_matrix(b.column("embedding"), dtype=np.float64)
            norms = np.linalg.norm(m, axis=1, keepdims=True)
            mn = m / np.where(norms == 0, 1, norms)
            return pa.table({
                key: b.column("vec_id"),
                f"{key}_vec": pa.array([row.tobytes() for row in mn],
                                       type=pa.binary()),
            })

        return ds.map_batches(pack, batch_format="pyarrow")

    def verify(batch: pa.Table) -> pa.Table:
        va = batch.column("vec_a").to_numpy(zero_copy_only=False)
        vb = batch.column("vec_b").to_numpy(zero_copy_only=False)
        a = np.array([np.frombuffer(x, dtype=np.float64)
                      for x in batch.column("vec_a_vec").to_pylist()])
        b = np.array([np.frombuffer(x, dtype=np.float64)
                      for x in batch.column("vec_b_vec").to_pylist()])
        if len(va) == 0:
            return pa.table({
                "vec_a": pa.array([], type=pa.int64()),
                "vec_b": pa.array([], type=pa.int64()),
                "cos_sim": pa.array([], type=pa.float64()),
            })
        sims = np.einsum("ij,ij->i", a, b)
        keep = sims >= threshold
        return pa.table({
            "vec_a": pa.array(va[keep], type=pa.int64()),
            "vec_b": pa.array(vb[keep], type=pa.int64()),
            "cos_sim": pa.array(round_half_away(sims[keep], 4),
                                type=pa.float64()),
        })

    return hash_join(hash_join(cands, _keyed("vec_a"), "inner", "vec_a"),
                     _keyed("vec_b"), "inner", "vec_b",
                     ).map_batches(verify, batch_format="pyarrow")


# --------------------------------------- duplicate n-gram spans (Lee et al.)

NGRAM_SPAN_K = 8

# Token-scale gram tables are consumed twice (the dup-mark pass and the
# join-back). Holding them in the object store via ``materialize()``
# parks ~16-24 B/token of narrow rows there for the whole query — at a
# 100 TB corpus (~20 T tokens) that is ~0.5 PB of object-store
# residency, the fleet's biggest. Instead each op writes the table ONCE
# to a parquet checkpoint (sequential writes, column-compressed ints)
# and every consumer re-reads only the columns it needs: residency
# becomes sequential-disk, the object store holds only the streaming
# working set, and the re-reads are column-pruned. Checkpoints live
# until process exit (the returned Datasets are lazy) and are removed
# atexit; override the root with $RAGNIFICENT_CKPT_DIR (a shared
# filesystem path on a real cluster).
_GRAM_CKPT_ROOT: str | None = None


def _gram_ckpt_dir(tag: str) -> str:
    import atexit
    import shutil
    import tempfile

    global _GRAM_CKPT_ROOT
    if _GRAM_CKPT_ROOT is None:
        shared = os.environ.get("RAGNIFICENT_CKPT_DIR")
        if shared is None and len(ray.nodes()) > 1:
            # write_parquet tasks land on every node; without a shared
            # filesystem the driver would list only its local files and
            # re-read PARTIAL data — fail loudly instead
            raise RuntimeError(
                "token-scale checkpoints on a multi-node cluster need a "
                "shared filesystem: set RAGNIFICENT_CKPT_DIR to a path "
                "visible from every node")
        _GRAM_CKPT_ROOT = tempfile.mkdtemp(
            prefix="ragnificent_gram_ckpt_", dir=shared)
        atexit.register(shutil.rmtree, _GRAM_CKPT_ROOT, ignore_errors=True)
    # keyed per (tag, input) and OVERWRITTEN per invocation (rmtree
    # first, so no stale part files mix in): repeated calls in one
    # process — bench trials, full parity sweeps — hold one checkpoint
    # per (query, input) instead of growing a fresh uuid dir each
    # call. A still-unconsumed lazy Dataset from a PREVIOUS invocation
    # of the same (query, input) fails loudly (its files are gone) —
    # consume a query's result before re-invoking it.
    path = os.path.join(_GRAM_CKPT_ROOT, tag)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def _ckpt_tag(tag: str, sf_dir: str) -> str:
    """Checkpoint directory key: op tag + a short input fingerprint so
    two tiers of the same query never share (or overwrite) a path."""
    return f"{tag}-{md5_hex(os.path.abspath(sf_dir))[:10]}"


def _checkpointed(ds, tag: str):
    """Execute ``ds`` into a parquet checkpoint; returns a reader
    ``read(columns) -> Dataset`` for column-pruned re-reads. The
    checkpoint is the directory-of-parts table ``rows`` of the tag's
    directory, re-read by :func:`inputs.scan`, whose footer-planned
    read starts no sampling task and sizes its blocks from the bytes
    read (Ray's default reader spent 2.2 s cold, 0.54 s warm, on
    sampling and ~200 tiny read tasks for a small sf0.1 checkpoint)."""
    path = _gram_ckpt_dir(tag)
    ds.write_parquet(_pq(path, "rows"))

    def read(columns: list[str]):
        return scan(path, "rows", columns=columns)

    return read


def _dup_gram_marks(doc_grams, n_buckets: int, distinct: bool = True):
    """grams occurring in ≥2 distinct documents → (gram, is_dup=1).

    With ``distinct=True`` input rows must be GLOBALLY (doc, gram)-
    distinct (rows-per-gram = distinct docs per gram) and only the
    ``gram`` column ships into the bucket exchange. With
    ``distinct=False`` rows may repeat — e.g. one row per token
    position: a per-batch Arrow distinct combiner thins the exchange
    and the bucket fold re-distincts EXACTLY before counting (all rows
    of a gram co-locate in its bucket, so the global distinct is a
    local group_by there — batch boundaries can never split it).

    Counted in bounded gram-hash buckets with an Arrow ``group_by``
    body: Ray's native ``groupby("gram").count()`` walks the key space
    per group, and at corpus-scale gram cardinality (~1 gram/token)
    that per-group overhead dominated the whole op (8.3 s of 9 s at
    sf0.1); the bucket fold is one bounded exchange with a vectorized
    count inside."""

    if distinct:
        def add_bucket(t: pa.Table) -> pa.Table:
            g = t.column("gram").to_numpy(zero_copy_only=False)
            return pa.table({
                "gram": t.column("gram"),
                "gb": pa.array((g % n_buckets).astype(np.int32)),
            })

        def bucket_marks(t: pa.Table) -> pa.Table:
            c = (pa.table({"gram": t.column("gram")})
                 .group_by("gram").aggregate([("gram", "count")]))
            f = c.filter(pc.greater_equal(c.column("gram_count"), 2))
            return pa.table({
                "gram": f.column("gram"),
                "is_dup": pa.array(np.ones(f.num_rows, dtype=np.int64)),
            })
    else:
        def add_bucket(t: pa.Table) -> pa.Table:
            d = (pa.table({"doc_id": t.column("doc_id"),
                           "gram": t.column("gram")})
                 .group_by(["doc_id", "gram"]).aggregate([]))
            g = d.column("gram").to_numpy(zero_copy_only=False)
            return d.append_column(
                "gb", pa.array((g % n_buckets).astype(np.int32)))

        def bucket_marks(t: pa.Table) -> pa.Table:
            d = (pa.table({"doc_id": t.column("doc_id"),
                           "gram": t.column("gram")})
                 .group_by(["doc_id", "gram"]).aggregate([]))
            c = (pa.table({"gram": d.column("gram")})
                 .group_by("gram").aggregate([("gram", "count")]))
            f = c.filter(pc.greater_equal(c.column("gram_count"), 2))
            return pa.table({
                "gram": f.column("gram"),
                "is_dup": pa.array(np.ones(f.num_rows, dtype=np.int64)),
            })

    return (doc_grams.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("gb")
            .map_groups(bucket_marks, batch_format="pyarrow"))


def duplicate_ngram_fraction(sf_dir: str, k: int = NGRAM_SPAN_K):
    """Exact-substring contamination signal (the public Lee et al. 2021
    "Deduplicating Training Data" recipe, suffix-array spans re-expressed
    as fixed-k token grams): for every document, the fraction of its
    k-gram positions whose gram also occurs in ≥1 OTHER document.

    Scale shape: the gram table is corpus-sized, so the dup-gram set is
    never broadcast — one gram-keyed groupby counts distinct docs per
    gram (combiner: one row per distinct gram per doc), and the dup
    marks flow back via a gram-keyed LEFT OUTER hash-join before a
    doc-keyed sum. The token-scale gram table itself is computed once
    into a parquet checkpoint and column-pruned per consumer
    (``_checkpointed``) — never parked in the object store. Gram identity is the 48-bit token-md5 Horner mix
    (``_gram_hashes``) on both sides, so the oracle hashes identically
    (collisions included)."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(batch: pa.Table) -> pa.Table:
        ids, ghs, occ = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = t.strip().split()
            if len(toks) < k:
                continue
            vals, cnts = np.unique(_gram_hashes(toks, k, 16),
                                   return_counts=True)
            ids.extend([d] * len(vals))
            ghs.extend(vals.astype(np.int64))
            occ.extend(cnts.astype(np.int64))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "gram": pa.array(ghs, type=pa.int64()),
            "occ": pa.array(occ, type=pa.int64()),
        })

    go = _checkpointed(
        ds.map_batches(grams, batch_format="pyarrow", batch_size=2048),
        _ckpt_tag("ngram_frac", sf_dir))

    # distinct docs per gram (checkpoint rows are (doc, gram)-distinct
    # by construction: np.unique per doc, one row per corpus doc — so
    # the mark side needs only the pruned gram column)
    dup = _dup_gram_marks(go(["gram"]), _bucket_count(sf_dir))

    def mark(t: pa.Table) -> pa.Table:
        occ = t.column("occ").to_numpy(zero_copy_only=False)
        isd = t.column("is_dup").to_pandas().fillna(0).to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "occ": t.column("occ"),
            "dup_occ": pa.array(occ * isd, type=pa.int64()),
        })

    per_doc = combine(
        hash_join(go(["doc_id", "gram", "occ"]), dup, "left_outer", "gram"),
        "doc_id", {"total_grams": ("occ", "sum"),
                   "dup_grams": ("dup_occ", "sum")}, mark)

    def finish(t: pa.Table) -> pa.Table:
        tot = t.column("total_grams").to_numpy(zero_copy_only=False)
        dupg = t.column("dup_grams").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "total_grams": t.column("total_grams"),
            "dup_grams": t.column("dup_grams"),
            "dup_frac": pa.array(
                round_half_away(dupg / tot, 4), type=pa.float64()),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow")


def ngram_novelty(sf_dir: str, k: int = NGRAM_SPAN_K):
    """Corpus-saturation novelty curve: for every document, the
    fraction of its DISTINCT k-token grams whose corpus-wide FIRST
    occurrence (minimum doc_id — the ingest-order stand-in) is this
    document. A corpus whose marginal novelty decays toward zero is
    saturated — adding more of the same source stops buying new text;
    this is the per-doc attribution behind that curve (the dedup-side
    complement of :func:`duplicate_ngram_fraction`, which marks
    repeats without attributing them).

    Scale shape: distinct (doc, gram) rows stream into a parquet
    checkpoint read back by both consumers (``_checkpointed`` — the
    token-scale table never sits in the object store); the
    first-seen owner per gram is a min-fold in bounded gram-hash
    buckets (Arrow ``group_by`` body — the corpus-scale gram key space
    never meets a native per-group walk); marks flow back via one
    gram-keyed hash-join before a doc-keyed sum. Gram identity is the
    48-bit token-md5 Horner mix (``_gram_hashes``) on both sides so
    the oracle hashes identically, collisions included."""
    n_buckets = _bucket_count(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(batch: pa.Table) -> pa.Table:
        ids, ghs = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = t.strip().split()
            if len(toks) < k:
                continue
            hs = np.unique(_gram_hashes(toks, k, 16)).astype(np.int64)
            ids.append(np.full(len(hs), d, dtype=np.int64))
            ghs.append(hs)
        if not ids:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "gram": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids)),
            "gram": pa.array(np.concatenate(ghs)),
        })

    go = _checkpointed(
        ds.map_batches(grams, batch_format="pyarrow", batch_size=2048),
        _ckpt_tag("ngram_novelty", sf_dir))

    def add_bucket(t: pa.Table) -> pa.Table:
        g = t.column("gram").to_numpy(zero_copy_only=False)
        return t.append_column(
            "gb", pa.array((g % n_buckets).astype(np.int32)))

    def bucket_first(t: pa.Table) -> pa.Table:
        f = (pa.table({"gram": t.column("gram"),
                       "first_doc": t.column("doc_id")})
             .group_by("gram").aggregate([("first_doc", "min")]))
        return f.rename_columns(["gram", "first_doc"])

    first = (go(["doc_id", "gram"])
             .map_batches(add_bucket, batch_format="pyarrow")
             .groupby("gb")
             .map_groups(bucket_first, batch_format="pyarrow"))

    def mark(t: pa.Table) -> pa.Table:
        novel = pc.cast(pc.equal(t.column("first_doc"),
                                 t.column("doc_id")), pa.int64())
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "novel": novel,
        })

    per_doc = combine(
        hash_join(go(["doc_id", "gram"]), first, "inner", "gram"),
        "doc_id", {"n_grams": ("n", "sum"), "n_novel": ("novel", "sum")},
        mark)

    def finish(t: pa.Table) -> pa.Table:
        tot = t.column("n_grams").to_numpy(zero_copy_only=False)
        nov = t.column("n_novel").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_grams": t.column("n_grams"),
            "n_novel": t.column("n_novel"),
            "novelty": pa.array(
                round_half_away(nov / tot, 4), type=pa.float64()),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow")


def dup_spans(sf_dir: str, k: int = NGRAM_SPAN_K):
    """Maximal duplicated-span coverage per document — the step past
    :func:`duplicate_ngram_fraction` toward actual exact-substring
    dedup (Lee et al. 2021): merge every duplicated k-gram's token
    window into maximal spans and report, per doc, how many spans and
    how many tokens exact-substring dedup would cut.

    Scale shape mirrors the fraction op: gram-position rows (narrow
    ints, parquet-checkpointed once and column-pruned per consumer —
    the mark side never reads ``pos``) → gram-keyed distinct-doc count
    → dup marks hash-join back (inner — only duplicated positions
    survive), then interval merging runs vectorized inside bounded
    doc-buckets, with token totals riding the same union so zero-dup
    docs still report."""
    n_buckets = _bucket_count(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def gram_pos(batch: pa.Table) -> pa.Table:
        ids, pos, ghs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = t.strip().split()
            if len(toks) < k:
                continue
            gh = _gram_hashes(toks, k, 16).astype(np.int64)
            ids.append(np.full(len(gh), d, dtype=np.int64))
            pos.append(np.arange(len(gh), dtype=np.int64))
            ghs.append(gh)
        if not ids:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "gram": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids)),
            "pos": pa.array(np.concatenate(pos)),
            "gram": pa.array(np.concatenate(ghs)),
        })

    occ = _checkpointed(
        ds.map_batches(gram_pos, batch_format="pyarrow", batch_size=2048),
        _ckpt_tag("dup_spans", sf_dir))

    # the mark side reads only (doc_id, gram); position rows repeat a
    # (doc, gram) pair once per occurrence, so distinct=False runs the
    # per-batch Arrow combiner + exact in-bucket distinct before the
    # ≥2-distinct-docs count
    dup = _dup_gram_marks(occ(["doc_id", "gram"]), n_buckets,
                          distinct=False)

    def cov_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids),
            "pos": t.column("pos"),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    covered = hash_join(occ(["doc_id", "pos", "gram"]), dup, "inner",
                        "gram").map_batches(cov_rows, batch_format="pyarrow")

    def tok_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_tok = np.fromiter(
            (len(t.strip().split())
             for t in batch.column("text").to_pylist()),
            dtype=np.int64, count=len(ids))
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "pos": pa.array(-1 - n_tok),  # token count rides as -(n+1)
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    totals = ds.map_batches(tok_rows, batch_format="pyarrow",
                            batch_size=8192)

    def merge_spans(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_id", "ascending"), ("pos", "ascending")])
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)
        pos = g.column("pos").to_numpy(zero_copy_only=False)
        out_d, out_n, out_s, out_c = [], [], [], []
        bounds = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
        for j, lo in enumerate(bounds):
            hi = bounds[j + 1] if j + 1 < len(bounds) else len(doc)
            p = pos[lo:hi]
            n_tokens = int(-(p[p < 0][0]) - 1)
            starts = np.unique(p[p >= 0])
            if len(starts):
                # merge [s, s+k) windows: a new span begins where the
                # gap since the previous start exceeds the window
                breaks = np.nonzero(np.diff(starts) > k)[0]
                span_starts = np.concatenate(([0], breaks + 1))
                span_ends = np.concatenate((breaks, [len(starts) - 1]))
                n_spans = len(span_starts)
                n_dup = int(sum(
                    starts[e] + k - starts[s]
                    for s, e in zip(span_starts, span_ends)))
            else:
                n_spans, n_dup = 0, 0
            out_d.append(int(doc[lo]))
            out_n.append(n_tokens)
            out_s.append(n_spans)
            out_c.append(n_dup)
        frac = [round_half_away(c / n, 4) if n else 0.0
                for c, n in zip(out_c, out_n)]
        return pa.table({
            "doc_id": pa.array(out_d, type=pa.int64()),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "n_spans": pa.array(out_s, type=pa.int64()),
            "n_dup_tokens": pa.array(out_c, type=pa.int64()),
            "dup_token_frac": pa.array(frac, type=pa.float64()),
        })

    return (covered.union(totals)
            .groupby("bucket")
            .map_groups(merge_spans, batch_format="pyarrow"))


# ------------------------------------------- dup components (CC over pairs)

def min_label_components(pairs, col_a: str, col_b: str,
                         max_iters: int = 16, convergence: str = "sum",
                         n_buckets: int = 16):
    """Connected components over an undirected edge Dataset by
    iterative min-label propagation — the generic core behind
    :func:`dedup_clusters` (int64 doc ids) and
    :func:`image_phash_clusters` (string image ids).

    Fully distributed: each round hash-joins the label table to the
    edge-sized adjacency, sends every node's label to its neighbors,
    and folds candidates with a groupby-min. Labels are monotone
    non-increasing, so a per-round scalar certificate (label sum for
    ints, changed-count otherwise) is all the driver sees. Returns a
    Dataset of (node, label); the per-node min folds run in
    ``n_buckets`` node-hash buckets."""

    def undirect(b: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"node": b.column(col_a), "nbr": b.column(col_b)}),
            pa.table({"node": b.column(col_b), "nbr": b.column(col_a)}),
        ])

    und = pairs.map_batches(undirect, batch_format="pyarrow").materialize()

    # per-node min folds run in bounded node-hash buckets with an Arrow
    # group_by body — Ray's native groupby("node").min() walks the |V|
    # key space per group (the high-cardinality Aggregate trap), and it
    # ran once per propagation round here

    def _add_nb(t: pa.Table) -> pa.Table:
        node = t.column("node")
        if pa.types.is_integer(node.type):
            nb = (node.to_numpy(zero_copy_only=False)
                  % n_buckets).astype(np.int32)
        else:
            import zlib

            nb = np.fromiter(
                (zlib.crc32(s.encode()) % n_buckets
                 for s in node.to_pylist()),
                dtype=np.int32, count=len(t))
        return t.append_column("nb", pa.array(nb))

    def _bucket_min(src, val_col: str):
        def fold(t: pa.Table, val_col=val_col) -> pa.Table:
            g = (t.select(["node", val_col]).group_by("node")
                 .aggregate([(val_col, "min")]))
            return pa.table({"node": g.column("node"),
                             "label": g.column(f"{val_col}_min")})

        return (src.map_batches(_add_nb, batch_format="pyarrow")
                .groupby("nb").map_groups(fold, batch_format="pyarrow"))

    def _fold_init(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy(zero_copy_only=False)
        mn = t.column("label").to_numpy(zero_copy_only=False)
        # np.minimum is elementwise min for int64 AND object/str arrays
        return pa.table({
            "node": pa.array(node),
            "label": pa.array(np.minimum(node, mn)),
        })

    # label[v] = min(v, direct neighbors) — init plus one free round
    labels = (_bucket_min(und, "nbr")
              .map_batches(_fold_init, batch_format="pyarrow")
              .materialize())

    def _as_cand(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "cand": t.column("label")})

    def _nbr_cand(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("nbr"),
                         "cand": t.column("label")})

    def _old(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "old": t.column("label")})

    def _count_changed(t: pa.Table) -> pa.Table:
        a = t.column("label").to_numpy(zero_copy_only=False)
        b = t.column("old").to_numpy(zero_copy_only=False)
        return pa.table({"c": pa.array([int((a != b).sum())],
                                       type=pa.int64())})

    prev = labels.sum("label") if convergence == "sum" else None
    for _ in range(max_iters):
        msgs = hash_join(und, labels, "inner", "node").map_batches(
            _nbr_cand, batch_format="pyarrow")
        new_labels = _bucket_min(
            msgs.union(labels.map_batches(
                _as_cand, batch_format="pyarrow")),
            "cand").materialize()
        if convergence == "sum":
            cur = new_labels.sum("label")
            labels = new_labels
            if cur == prev:
                break
            prev = cur
        else:
            changed = hash_join(
                new_labels,
                labels.map_batches(_old, batch_format="pyarrow"),
                "inner", "node",
            ).map_batches(_count_changed, batch_format="pyarrow").sum("c")
            labels = new_labels
            if not changed:
                break

    return labels


def dedup_clusters(sf_dir: str, max_iters: int = 16):
    """Duplicate-document components over the MinHash-LSH pair set:
    every doc touching a near-dup edge labeled with the minimum doc_id
    reachable through such edges (the canonical keep-one-per-cluster
    step after pair generation). See :func:`min_label_components` for
    the distributed propagation; the int64 label sum is the
    convergence certificate."""
    pairs = minhash_lsh_pairs(sf_dir).select_columns(["doc_a", "doc_b"])
    labels = min_label_components(
        pairs, "doc_a", "doc_b", max_iters, convergence="sum",
        n_buckets=fold_buckets(sf_dir, "documents"))

    def _rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("node"),
                         "component": t.column("label")})

    return labels.map_batches(_rename, batch_format="pyarrow")


def dedup_keep(sf_dir: str):
    """The kept corpus after MinHash near-dedup: every document except
    non-representative cluster members (the actual "write the deduped
    dataset" step downstream of :func:`dedup_clusters`).

    A document is dropped iff its cluster component label is smaller
    than its own id; kept docs carry ``in_cluster`` (1 = it is the
    representative of a multi-doc cluster, 0 = untouched singleton).

    Scale shape: the removal set is edge-derived, NOT assumed
    driver-small — corpus ids and cluster labels meet in a bounded-
    bucket groupby (narrow int rows only; no broadcast of the removed
    set, no join of the corpus)."""
    n_buckets = _bucket_count(sf_dir)
    labels = dedup_clusters(sf_dir)

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "marker": pa.array(np.zeros(len(ids), dtype=np.int8)),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    def label_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        comp = batch.column("component").to_numpy(zero_copy_only=False)
        # 1 = removed (label beats id), 2 = cluster representative
        marker = np.where(comp < ids, 1, 2).astype(np.int8)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "marker": pa.array(marker),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    docs = scan(sf_dir, "documents", columns=["doc_id"]) \
        .map_batches(doc_rows, batch_format="pyarrow", batch_size=8192)
    marks = labels.map_batches(label_rows, batch_format="pyarrow")

    def fold(g: pa.Table) -> pa.Table:
        f = (g.select(["doc_id", "marker"]).group_by("doc_id")
             .aggregate([("marker", "max")]))
        mx = f.column("marker_max").to_numpy(zero_copy_only=False)
        keep = f.filter(pa.array(mx != 1))
        return pa.table({
            "doc_id": pc.cast(keep.column("doc_id"), pa.int64()),
            "in_cluster": pa.array(
                (keep.column("marker_max").to_numpy(zero_copy_only=False)
                 == 2).astype(np.int64)),
        })

    return (docs.union(marks)
            .groupby("bucket")
            .map_groups(fold, batch_format="pyarrow"))


def dedup_cluster_sizes(sf_dir: str):
    """Near-dup CLUSTER-SIZE distribution — the dedup audit view
    (how much of the corpus sits in 2-doc vs N-doc duplicate groups):
    (cluster size, number of clusters) over :func:`dedup_clusters`.
    Component labels are corpus-scale keys, so per-component sizes fold
    in bounded label-hash buckets (Arrow ``group_by`` body); the final
    count-of-counts folds the bounded size key space. Nothing
    corpus-sized reaches the driver."""
    n_buckets = _bucket_count(sf_dir)
    labels = dedup_clusters(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({
            "component": b.column("component"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        }).group_by("component").aggregate([("n", "sum")])
        key = g.column("component").to_numpy(zero_copy_only=False)
        return pa.table({
            "component": g.column("component"),
            "n": g.column("n_sum"),
            "kb": pa.array((key % n_buckets).astype(np.int32)),
        })

    def size_rows(g: pa.Table) -> pa.Table:
        f = (g.group_by("component").aggregate([("n", "sum")])
             .group_by("n_sum").aggregate([("component", "count")]))
        return pa.table({
            "size": f.column("n_sum"),
            "n_clusters": pc.cast(f.column("component_count"),
                                  pa.int64()),
        })

    return fold(labels.map_batches(partial, batch_format="pyarrow",
                                   batch_size=65536)
                .groupby("kb")
                .map_groups(size_rows, batch_format="pyarrow"),
                "size", {"n_clusters": ("n_clusters", "sum")})


# ------------------------------------------------- phash near-dup (images)

def phash_neardup_pairs(ds, max_hamming: int = 8,
                        hash_col: str = "phash"):
    """D4: near-duplicate images by perceptual-hash hamming distance.

    Banding: the 64-bit phash splits into 4×16-bit bands, and a pair is
    a candidate when it agrees on at least one full band. By pigeonhole,
    4 bands guarantee a shared band only up to hamming 3, so recall is
    exact for ``max_hamming ≤ 3`` and a lower bound above that: a pair
    whose differing bits touch all four bands is never a candidate.
    Candidates form per band-bucket with a vectorized self-merge; the
    XOR-popcount verify is exact, so every returned pair is real.

    ``ds``: Dataset or Arrow table with (image_id, <hash_col>) columns —
    any 64-bit perceptual hash bands the same way (``hash_col="dhash"``
    runs the identical machinery over difference hashes).
    """
    import ray.data as rd

    if isinstance(ds, pa.Table):
        ds = rd.from_arrow(ds)
    if hash_col != "phash":
        ds = ds.rename_columns({hash_col: "phash"})

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        ph = batch.column("phash").to_numpy(zero_copy_only=False) \
            .astype(np.int64).view(np.uint64)
        n = len(ids)
        out_id, out_ph, out_band, out_val = [], [], [], []
        for band in range(4):
            vals = (ph >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            out_id.extend(ids)
            out_ph.extend(ph.tolist())
            out_band.extend([band] * n)
            out_val.extend(vals.tolist())
        val_arr = np.asarray(out_val, dtype=np.uint64)
        return pa.table({
            "image_id": pa.array(out_id, type=pa.string()),
            "phash": pa.array(np.asarray(out_ph, dtype=np.uint64)),
            "band_id": pa.array(out_band, type=pa.int32()),
            "band_val": pa.array(val_arr),
            "bucket": pa.array(
                ((val_arr * np.uint64(0x9E3779B97F4A7C15))
                 >> np.uint64(58)).astype(np.int32)),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = g.select(["band_id", "band_val", "image_id", "phash"])
        m = g.join(g, keys=["band_id", "band_val"], join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("image_id_x"),
                             m.column("image_id_y")))
        ham = _popcount64(
            m.column("phash_x").to_numpy(zero_copy_only=False)
            .astype(np.uint64)
            ^ m.column("phash_y").to_numpy(zero_copy_only=False)
            .astype(np.uint64))
        m = m.append_column("hamming", pa.array(ham))
        m = m.filter(pa.array(ham <= max_hamming))
        f = (m.select(["image_id_x", "image_id_y", "hamming"])
             .group_by(["image_id_x", "image_id_y"])
             .aggregate([("hamming", "min")]))
        return f.rename_columns(["image_id_a", "image_id_b", "hamming"])

    def pair_dedup(g: pa.Table) -> pa.Table:
        f = (g.select(["image_id_a", "image_id_b", "hamming"])
             .group_by(["image_id_a", "image_id_b"])
             .aggregate([("hamming", "min")]))
        return f.rename_columns(["image_id_a", "image_id_b", "hamming"])

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(
                "pair_bucket", pa.array([], type=pa.int32()))
        # stable hash — Python's hash() is per-process seeded, which
        # would scatter duplicate pairs across different dedup buckets
        pb = [stable_hash64(f"{a}|{b}") % _BUCKETS
              for a, b in zip(batch.column("image_id_a").to_pylist(),
                              batch.column("image_id_b").to_pylist())]
        return batch.append_column(
            "pair_bucket", pa.array(pb, type=pa.int32()))

    return (
        ds.map_batches(band_rows, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(pair_dedup, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["pair_bucket"])
                     if "pair_bucket" in b.column_names else b,
                     batch_format="pyarrow")
    )


# SimHash sketch as a reusable CTE (60-bit md5-token sign aggregation);
# ``sh`` is (doc_id, simhash) — shared by the sketch and the pair oracle.
_SIMHASH_SQL_CTE = r"""t AS (
            SELECT doc_id,
                   regexp_split_to_array(trim(text), '\s+') AS toks
            FROM documents
        ), tk AS (
            SELECT doc_id,
                   CAST(('0x' || substr(md5(tok), 1, 15)) AS BIGINT) AS h
            FROM (SELECT doc_id, unnest(toks) AS tok FROM t)
        ), bits AS (
            SELECT doc_id, r.range AS i,
                   SUM((h >> r.range) & 1) AS ones,
                   COUNT(*) AS n
            FROM tk, range(60) r
            GROUP BY doc_id, r.range
        ), sh AS (
        SELECT doc_id,
               CAST(SUM(CASE WHEN 2 * ones > n
                             THEN (CAST(1 AS BIGINT) << i) ELSE 0 END)
                    AS BIGINT) AS simhash
        FROM bits GROUP BY doc_id
        )"""

WINNOW_K = 4   # gram width (tokens)
WINNOW_W = 4   # winnowing window (grams)


def winnowing_fingerprints(sf_dir: str):
    """MOSS winnowing fingerprint selection (Schleimer, Wilkerson &
    Aiken 2003): per document, slide a WINNOW_W-gram window over the
    WINNOW_K-token gram-hash sequence and keep each window's minimum
    hash (RIGHTMOST position on ties); the distinct (position, hash)
    selections are the document's fingerprints — the guaranteed-
    coverage sparse signature exact-substring matchers index (any
    shared run of WINNOW_K+WINNOW_W−1 tokens shares a fingerprint).
    Output per doc: gram count, fingerprint count, and the fingerprint
    hash sum so the SELECTION ITSELF is value-checked, not just its
    size. Docs with fewer than WINNOW_W grams keep zero fingerprints
    (full windows only — in the oracle too).

    Scale shape: pure per-batch map, no shuffle — the sliding-window
    min is a vectorized stride-trick kernel per doc, gram identity is
    the 48-bit token-md5 Horner mix shared with [[ngram-novelty]] so
    the oracle hashes identically, collisions included."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def winnow(batch: pa.Table) -> pa.Table:
        n_grams, n_fp, fp_sum = [], [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            ng = max(0, len(toks) - WINNOW_K + 1)
            n_grams.append(ng)
            if ng < WINNOW_W:
                n_fp.append(0)
                fp_sum.append(0)
                continue
            h = _gram_hashes(toks, WINNOW_K, 16).astype(np.int64)
            win = np.lib.stride_tricks.sliding_window_view(h, WINNOW_W)
            # rightmost min: argmin over the reversed window
            rev = win[:, ::-1]
            ridx = rev.argmin(axis=1)
            pos = (np.arange(ng - WINNOW_W + 1)
                   + (WINNOW_W - 1 - ridx))
            sel = {(int(p), int(h[p])) for p in pos}
            n_fp.append(len(sel))
            fp_sum.append(sum(v for _, v in sel))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_fingerprints": pa.array(n_fp, type=pa.int64()),
            "fp_sum": pa.array(fp_sum, type=pa.int64()),
        })

    return ds.map_batches(winnow, batch_format="pyarrow",
                          batch_size=8192)


_WINNOW_SQL = rf"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
  FROM documents
), hs AS (
  SELECT doc_id, {_gram_mix_sql(WINNOW_K, 16)} AS hl
  FROM t WHERE len(toks) >= {WINNOW_K}
), g AS (
  SELECT hs.doc_id, u.i AS pos, hs.hl[u.i] AS h
  FROM hs, LATERAL (SELECT unnest(range(1, len(hs.hl) + 1)) AS i) u
), ng AS (
  SELECT doc_id, COUNT(*) AS n_grams FROM g GROUP BY doc_id
), wm AS (
  SELECT doc_id, pos AS wstart,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN CURRENT ROW
                      AND {WINNOW_W} - 1 FOLLOWING) AS wmin,
         COUNT(*) OVER (PARTITION BY doc_id ORDER BY pos
                        ROWS BETWEEN CURRENT ROW
                        AND {WINNOW_W} - 1 FOLLOWING) AS wlen
  FROM g
), sel AS (
  SELECT w.doc_id, MAX(g.pos) AS spos, w.wmin AS h
  FROM wm w JOIN g ON g.doc_id = w.doc_id
        AND g.pos BETWEEN w.wstart AND w.wstart + {WINNOW_W} - 1
        AND g.h = w.wmin
  WHERE w.wlen = {WINNOW_W}
  GROUP BY w.doc_id, w.wstart, w.wmin
), fp AS (
  SELECT DISTINCT doc_id, spos, h FROM sel
), agg AS (
  SELECT doc_id, COUNT(*) AS n_fp, SUM(h) AS fp_sum
  FROM fp GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(ng.n_grams, 0) AS n_grams,
       COALESCE(agg.n_fp, 0) AS n_fingerprints,
       CAST(COALESCE(agg.fp_sum, 0) AS BIGINT) AS fp_sum
FROM (SELECT doc_id FROM documents) d
LEFT JOIN ng USING (doc_id) LEFT JOIN agg USING (doc_id)
"""


ORACLE_SQL = {
    "winnowing_fingerprints": _WINNOW_SQL,
    "cross_source_dup_matrix": _CROSS_SOURCE_SQL,
    "duplicate_ngram_fraction": rf"""
        WITH t AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), g AS (
          SELECT doc_id,
                 unnest({_gram_mix_sql(NGRAM_SPAN_K, 16)}) AS gram
          FROM t WHERE len(toks) >= {NGRAM_SPAN_K}
        ), go AS (
          SELECT doc_id, gram, COUNT(*) AS occ FROM g GROUP BY doc_id, gram
        ), nd AS (
          SELECT gram, COUNT(*) AS ndocs FROM go GROUP BY gram
        ), per AS (
          SELECT go.doc_id, SUM(go.occ) AS total_grams,
                 SUM(CASE WHEN nd.ndocs >= 2 THEN go.occ ELSE 0 END)
                     AS dup_grams
          FROM go JOIN nd USING (gram) GROUP BY go.doc_id
        )
        SELECT doc_id, CAST(total_grams AS BIGINT) AS total_grams,
               CAST(dup_grams AS BIGINT) AS dup_grams,
               ROUND(CAST(dup_grams AS DOUBLE) / total_grams, 4) AS dup_frac
        FROM per
    """,
    "ngram_novelty": rf"""
        WITH t AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), g0 AS (
          SELECT doc_id,
                 unnest({_gram_mix_sql(NGRAM_SPAN_K, 16)}) AS gram
          FROM t WHERE len(toks) >= {NGRAM_SPAN_K}
        ), g AS (
          SELECT DISTINCT doc_id, gram FROM g0
        ), fs AS (
          SELECT gram, MIN(doc_id) AS first_doc FROM g GROUP BY gram
        ), per AS (
          SELECT g.doc_id, COUNT(*) AS n_grams,
                 SUM(CASE WHEN fs.first_doc = g.doc_id THEN 1 ELSE 0 END)
                     AS n_novel
          FROM g JOIN fs USING (gram) GROUP BY g.doc_id
        )
        SELECT doc_id, CAST(n_grams AS BIGINT) AS n_grams,
               CAST(n_novel AS BIGINT) AS n_novel,
               ROUND(CAST(n_novel AS DOUBLE) / n_grams, 4) AS novelty
        FROM per
    """,
    "dup_spans": rf"""
        WITH t AS (
          SELECT doc_id,
                 regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), h AS (
          SELECT doc_id, {_gram_mix_sql(NGRAM_SPAN_K, 16)} AS hs
          FROM t WHERE len(toks) >= {NGRAM_SPAN_K}
        ), g AS (
          SELECT h.doc_id, gs.i, h.hs[gs.i] AS gram
          FROM h, LATERAL (
              SELECT unnest(range(1, len(h.hs) + 1)) AS i
          ) gs
        ), nd AS (
          SELECT gram, COUNT(DISTINCT doc_id) AS ndocs
          FROM g GROUP BY gram
        ), dupp AS (
          SELECT g.doc_id, g.i FROM g JOIN nd USING (gram)
          WHERE nd.ndocs >= 2
        ), cov AS (
          SELECT DISTINCT doc_id, i + r.range AS p
          FROM dupp, range({NGRAM_SPAN_K}) r
        ), isl AS (
          SELECT doc_id, p,
                 p - ROW_NUMBER() OVER (
                     PARTITION BY doc_id ORDER BY p) AS grp
          FROM cov
        ), per AS (
          SELECT doc_id, COUNT(*) AS n_dup_tokens,
                 COUNT(DISTINCT grp) AS n_spans
          FROM isl GROUP BY doc_id
        ), tc AS (
          SELECT doc_id,
                 len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens
          FROM documents
        )
        SELECT tc.doc_id, tc.n_tokens,
               COALESCE(per.n_spans, 0) AS n_spans,
               COALESCE(per.n_dup_tokens, 0) AS n_dup_tokens,
               ROUND(CAST(COALESCE(per.n_dup_tokens, 0) AS DOUBLE)
                     / tc.n_tokens, 4) AS dup_token_frac
        FROM tc LEFT JOIN per USING (doc_id)
    """,
    "exact_dedup": """
        SELECT MIN(doc_id) AS doc_id, md5(text) AS text_hash
        FROM documents GROUP BY md5(text)
    """,
    "length_drift_ks": """
        WITH sp AS (SELECT COUNT(*) // 2 AS s FROM documents),
        d AS (SELECT n_chars AS v,
                     CASE WHEN doc_id < s THEN 1 ELSE 0 END AS o
              FROM documents, sp),
        h AS (SELECT v, SUM(o) AS c0, SUM(1 - o) AS c1
              FROM d GROUP BY v),
        n AS (SELECT SUM(c0) AS n0, SUM(c1) AS n1 FROM h),
        cum AS (SELECT v, SUM(c0) OVER (ORDER BY v) AS k0,
                       SUM(c1) OVER (ORDER BY v) AS k1 FROM h),
        sc AS (SELECT v, k0, k1, n0, n1,
                      ABS(CAST(k0 AS HUGEINT) * n1
                          - CAST(k1 AS HUGEINT) * n0) AS num
               FROM cum CROSS JOIN n)
        SELECT CAST(v AS BIGINT) AS at_length,
               CAST(n0 AS BIGINT) AS n_old,
               CAST(n1 AS BIGINT) AS n_new,
               ROUND(k0 * 1.0 / n0, 4) AS cdf_old,
               ROUND(k1 * 1.0 / n1, 4) AS cdf_new,
               ROUND(CAST(num AS DOUBLE)
                     / CAST(CAST(n0 AS HUGEINT) * n1 AS DOUBLE), 4) AS ks
        FROM sc ORDER BY num DESC, v LIMIT 1
    """,
    "snapshot_diff": f"""
        WITH sp AS (SELECT COUNT(*) // 2 AS s FROM documents),
        d AS (SELECT DISTINCT md5(substr(text, 1, {_PREFIX_LEN})) AS h,
                     CASE WHEN doc_id < s THEN 1 ELSE 2 END AS bit
              FROM documents, sp),
        m AS (SELECT h, SUM(bit) AS mask FROM d GROUP BY h)
        SELECT CAST(SUM(CASE WHEN mask IN (1, 3) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_old_keys,
               CAST(SUM(CASE WHEN mask IN (2, 3) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_new_keys,
               CAST(SUM(CASE WHEN mask = 3 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_carried,
               CAST(SUM(CASE WHEN mask = 2 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_added,
               CAST(SUM(CASE WHEN mask = 1 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_retired
        FROM m
    """,
    "incremental_dedup": f"""
        WITH sp AS (SELECT COUNT(*) // 2 AS s FROM documents),
        old AS (SELECT DISTINCT md5(substr(text, 1, {_PREFIX_LEN})) AS h
                FROM documents, sp WHERE doc_id < s),
        inc AS (SELECT MIN(doc_id) AS doc_id,
                       md5(substr(text, 1, {_PREFIX_LEN})) AS text_hash
                FROM documents, sp WHERE doc_id >= s
                GROUP BY md5(substr(text, 1, {_PREFIX_LEN})))
        SELECT doc_id, text_hash FROM inc
        WHERE NOT EXISTS (SELECT 1 FROM old WHERE old.h = inc.text_hash)
    """,
    "doc_prefix_dedup": f"""
        SELECT substr(text, 1, {_PREFIX_LEN}) AS prefix,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               MIN(doc_id) AS first_doc
        FROM documents
        GROUP BY prefix HAVING COUNT(*) > 1
    """,
    "ngram_jaccard_pairs": f"""
        WITH t AS (
            SELECT doc_id,
                   list_distinct(regexp_split_to_array(trim(text), '\\s+')) AS toks
            FROM documents
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               ROUND(CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
                     / len(list_distinct(list_concat(a.toks, b.toks))), 4)
                   AS jaccard
        FROM t a JOIN t b ON a.doc_id < b.doc_id
        WHERE CAST(len(list_intersect(a.toks, b.toks)) AS DOUBLE)
              / len(list_distinct(list_concat(a.toks, b.toks)))
              >= {JACCARD_THRESHOLD}
    """,
    "simhash64": f"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT doc_id, simhash FROM sh
    """,
    "simhash_neardup_pairs": f"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                   AS hamming
        FROM sh a JOIN sh b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_HAMMING_K}
    """,
    "embedding_neardup": f"""
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
            FROM embeddings
        )
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               ROUND(list_cosine_similarity(a.emb, b.emb), 4) AS cos_sim
        FROM e a JOIN e b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.emb, b.emb) >= {COSINE_THRESHOLD}
    """,
}

def image_dedup_exact(ds, n_buckets: int = _BUCKETS):
    """Exact image dedup over a harvest-shaped table: blake2b-16 of the
    ENCODED payload (no decode needed — byte-identical fetches are the
    exact-dup class; near-dups are :func:`phash_neardup_pairs`'s job).

    The payload bytes are hashed straight off the Arrow buffers
    (offsets + one memoryview — no per-row Python bytes copies), the
    heavy column is dropped immediately, and the bounded-bucket
    group-first keeps the lexicographic-min image_id per hash with its
    copy count. Same D3 discipline as :func:`exact_dedup`; the shuffle
    moves (hash, id) rows only.

    ``ds``: Dataset or Arrow table with (image_id, bytes) columns.
    """
    import hashlib

    import ray.data as rd

    if isinstance(ds, pa.Table):
        ds = rd.from_arrow(ds.select(["image_id", "bytes"]))

    def add_hash(batch: pa.Table) -> pa.Table:
        arr = batch.column("bytes").combine_chunks()
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
            arr.offset: arr.offset + len(arr) + 1]
        data = memoryview(arr.buffers()[2])
        hs = [hashlib.blake2b(data[offs[i]:offs[i + 1]],
                              digest_size=16).hexdigest()
              for i in range(len(arr))]
        return pa.table({
            "image_id": batch["image_id"],
            "content_hash": pa.array(hs, type=pa.string()),
            "bucket": pa.array([int(h[:8], 16) % n_buckets for h in hs],
                               type=pa.int32()),
        })

    def bucket_fold(g: pa.Table) -> pa.Table:
        f = (g.select(["content_hash", "image_id"])
             .group_by("content_hash")
             .aggregate([("image_id", "min"), ("image_id", "count")]))
        return pa.table({
            "content_hash": f.column("content_hash"),
            "keeper": f.column("image_id_min"),
            "n_copies": pc.cast(f.column("image_id_count"), pa.int64()),
        })

    return (
        ds.map_batches(add_hash, batch_format="pyarrow", batch_size=2048)
        .groupby("bucket")
        .map_groups(bucket_fold, batch_format="pyarrow")
    )


QUERIES = {
    "winnowing_fingerprints": winnowing_fingerprints,
    "cross_source_dup_matrix": cross_source_dup_matrix,
    "exact_dedup": exact_dedup,
    "doc_prefix_dedup": doc_prefix_dedup,
    "incremental_dedup": incremental_dedup,
    "ngram_jaccard_pairs": ngram_jaccard_pairs,
    "minhash_lsh_pairs": minhash_lsh_pairs,
    "minhash_threshold_curve": minhash_threshold_curve,
    "dedup_clusters": dedup_clusters,
    "dedup_keep": dedup_keep,
    "dedup_cluster_sizes": dedup_cluster_sizes,
    "duplicate_ngram_fraction": duplicate_ngram_fraction,
    "ngram_novelty": ngram_novelty,
    "snapshot_diff": snapshot_diff,
    "length_drift_ks": length_drift_ks,
    "dup_spans": dup_spans,
    "simhash64": simhash64,
    "simhash_neardup_pairs": simhash_neardup_pairs,
    "embedding_neardup": embedding_neardup,
    "embedding_neardup_lsh": embedding_neardup_lsh,
}



def dedup_keep_best(sf_dir: str):
    """Quality-keeper near-dedup — the curation-grade keep rule: per
    MinHash near-dup cluster keep the member with the MOST CONTENT
    (max ``n_chars``, ties → min doc_id) instead of
    :func:`dedup_keep`'s min-id representative (what real corpus
    curation does: of N near-identical pages, keep the fullest one).

    Scale shape: cluster labels meet the pruned ``n_chars`` metadata
    column in bounded doc-hash buckets (narrow int rows — text never
    ships), per-cluster winners fold in component-hash buckets, and
    the keep set assembles back in doc-hash buckets. No broadcast of
    the removed set, no corpus-wide join, nothing corpus-sized on the
    driver."""
    n_buckets = _bucket_count(sf_dir)
    labels = dedup_clusters(sf_dir)

    def lab_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "component": pc.cast(b.column("component"), pa.int64()),
            "q": pa.array(np.full(len(ids), -1, dtype=np.int64)),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    def chr_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "component": pa.array(np.full(len(ids), -1, dtype=np.int64)),
            "q": pc.cast(b.column("n_chars"), pa.int64()),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    docs = scan(sf_dir, "documents", columns=["doc_id", "n_chars"])
    members = labels.map_batches(lab_rows, batch_format="pyarrow").union(
        docs.map_batches(chr_rows, batch_format="pyarrow"))

    def attach(g: pa.Table) -> pa.Table:
        comp = g.column("component").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        q = g.column("q").to_numpy(zero_copy_only=False)
        is_lab = comp >= 0
        cid, cq = ids[~is_lab], q[~is_lab]
        order = np.argsort(cid)
        cid, cq = cid[order], cq[order]
        lid = ids[is_lab]
        idx = np.searchsorted(cid, lid)
        bad = ((idx >= len(cid)) if len(cid) else
               np.ones(len(lid), dtype=bool))
        if len(cid):
            bad = bad | (cid[np.minimum(idx, len(cid) - 1)] != lid)
        if bad.any():
            raise ValueError(
                "dedup_keep_best: label doc_id %s has no metadata row"
                % lid[bad][:1])
        qq = cq[idx]
        return pa.table({
            "component": pa.array(comp[is_lab]),
            "doc_id": pa.array(lid),
            "q": pa.array(qq),
            "cb": pa.array((comp[is_lab] % n_buckets).astype(np.int32)),
        })

    labeled = members.groupby("bucket").map_groups(
        attach, batch_format="pyarrow")

    def winners(g: pa.Table) -> pa.Table:
        comp = g.column("component").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        q = g.column("q").to_numpy(zero_copy_only=False)
        # per component: max q, ties to min doc_id — the first sorted
        # row of each component IS the winner row, so the marker
        # scatters straight back through the sort permutation
        order = np.lexsort((ids, -q, comp))
        comp_s = comp[order]
        first = np.zeros(len(comp_s), dtype=bool)
        if len(comp_s):
            first[0] = True
            first[1:] = comp_s[1:] != comp_s[:-1]
        marker = np.empty(len(comp), dtype=np.int8)
        marker[order] = np.where(first, np.int8(2), np.int8(1))
        return pa.table({
            "doc_id": pa.array(ids),
            "marker": pa.array(marker),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    marks = labeled.groupby("cb").map_groups(
        winners, batch_format="pyarrow")

    def doc_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "marker": pa.array(np.zeros(len(ids), dtype=np.int8)),
            "bucket": pa.array((ids % n_buckets).astype(np.int32)),
        })

    base = scan(sf_dir, "documents", columns=["doc_id"]) \
        .map_batches(doc_rows, batch_format="pyarrow", batch_size=8192)

    def fold(g: pa.Table) -> pa.Table:
        f = (g.select(["doc_id", "marker"]).group_by("doc_id")
             .aggregate([("marker", "max")]))
        mx = f.column("marker_max").to_numpy(zero_copy_only=False)
        keep = f.filter(pa.array(mx != 1))
        return pa.table({
            "doc_id": pc.cast(keep.column("doc_id"), pa.int64()),
            "in_cluster": pa.array(
                (keep.column("marker_max").to_numpy(zero_copy_only=False)
                 == 2).astype(np.int64)),
        })

    return (base.union(marks)
            .groupby("bucket")
            .map_groups(fold, batch_format="pyarrow"))


QUERIES["dedup_keep_best"] = dedup_keep_best


# caption template normalization (same rule as the caption_template_dedup
# query): strip the per-image id prefix, trim, lowercase
import re as _re
_CAPTION_PREFIX = _re.compile(r"^caption img-\d{4}-\d{4}-\d{2}:\s*")


def joint_caption_phash_pairs(harvest, max_hamming: int = 8):
    """Image+TEXT joint near-dup pairs — the high-precision LAION-style
    dedup signal over an image+caption table: a pair counts only when
    BOTH modalities agree — the banded phash path's exact XOR-popcount
    verify fires (visual near-dup) AND the two captions normalize to
    the same template (textual dup). Single-modality hits (same pixels
    re-captioned, same boilerplate caption on different images) are
    exactly the false-positive classes each signal alone admits.

    Scale shape: the visual pair set comes from the banded phash path
    (no all-pairs); caption templates are narrow (image_id, md5) rows
    hash-joined onto the two pair endpoints; the template-equality
    filter is one vectorized compare. Pixels and caption text never
    ship past their first hash. Rows-only (binary-payload world);
    planted agree/visual-only/text-only cases pinned in
    ``tests/test_round4_ops.py``."""
    import ray.data as rd

    from ..functions.hashing import md5_hex

    if isinstance(harvest, pa.Table):
        caps_src = rd.from_arrow(harvest.select(["image_id", "caption"]))
        ph_src = harvest.select(["image_id", "phash"])
    else:
        caps_src = harvest.select_columns(["image_id", "caption"])
        ph_src = harvest.select_columns(["image_id", "phash"])

    pairs = phash_neardup_pairs(ph_src, max_hamming=max_hamming)

    def tmpl(b: pa.Table) -> pa.Table:
        caps = b.column("caption").to_pylist()
        hs = [md5_hex(_CAPTION_PREFIX.sub("", c or "").strip().lower())
              for c in caps]
        return pa.table({
            "image_id": b.column("image_id"),
            "tmpl": pa.array(hs, type=pa.string()),
        })

    tm = caps_src.map_batches(tmpl, batch_format="pyarrow")

    ta = tm.map_batches(
        lambda t: pa.table({"image_id_a": t.column("image_id"),
                            "tmpl_a": t.column("tmpl")}),
        batch_format="pyarrow")
    tb = tm.map_batches(
        lambda t: pa.table({"image_id_b": t.column("image_id"),
                            "tmpl_b": t.column("tmpl")}),
        batch_format="pyarrow")
    joined = hash_join(hash_join(pairs, ta, "inner", "image_id_a"),
                       tb, "inner", "image_id_b")

    def agree(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("tmpl_a"), t.column("tmpl_b"))
        f = t.filter(keep)
        return pa.table({
            "image_id_a": f.column("image_id_a"),
            "image_id_b": f.column("image_id_b"),
            "hamming": f.column("hamming"),
            "template_hash": f.column("tmpl_a"),
        })

    return joined.map_batches(agree, batch_format="pyarrow")
