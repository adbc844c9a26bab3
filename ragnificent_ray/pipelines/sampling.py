"""Deterministic sampling operators for corpus curation.

Training-data pipelines downsample overrepresented strata (by language,
source, quality band) before mixing. Random sampling is not
reproducible across retries or resumes; these operators key every keep
decision on a content-stable hash of the row id, so the sample is a
pure function of the input — identical across runs, workers, retries
and cluster sizes, and exactly SQL-expressible for the driver oracle
(same md5-prefix idiom as ``textstats.fingerprints``).

Scale shape: a pure per-batch filter — no shuffle, no state, no
driver-side pass. At 100 TB this streams block-by-block; the rates
table is a tiny module constant, not a broadcast.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.hashing import md5_hex
from .combine import combine, fold
from .inputs import scan

# per-stratum keep rates in percent (default 100 = keep everything);
# the canonical downsample-the-head curation move
STRATA_RATES: dict[str, int] = {"en": 25, "de": 50}
_DEFAULT_RATE = 100


def _keep_bucket(doc_id: int) -> int:
    """0-99 bucket from the first 32 bits of md5(str(doc_id))."""
    return int(md5_hex(str(doc_id))[:8], 16) % 100


def stratified_sample(sf_dir: str):
    """Hash-deterministic stratified Bernoulli sample of documents.

    Keeps a document iff its md5-derived 0-99 bucket falls below the
    stratum's keep rate (``STRATA_RATES`` by ``lang``, default 100)."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        mask = [
            _keep_bucket(d) < STRATA_RATES.get(lang, _DEFAULT_RATE)
            for d, lang in zip(ids, langs)
        ]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=8192)


# target mix weights by source for mix_sample (unlisted sources weight 1);
# the output composition is proportional to these, water-filled so the
# scarcest stratum caps the total (no stratum can be over-drawn)
MIX_WEIGHTS: dict[str, int] = {"src0": 4, "src1": 2, "src2": 2}
_MIX_SCALE = 1_000_000


def mix_sample(sf_dir: str):
    """Deterministic corpus mixing to a target source composition.

    Given integer weights per ``source``, the achievable total is
    water-filled: T = min_s floor(count_s / w_s) docs per weight unit,
    and stratum s keeps at rate w_s·T / count_s. The keep decision is
    the same md5-bucket Bernoulli as :func:`stratified_sample`, but the
    threshold compare is INTEGER (bucket·count_s < w_s·T·1e6) so the
    Ray side and the SQL oracle agree bit-for-bit with no float
    boundary risk.

    Scale shape: stratum counts reduce via ``combine`` to one row
    per source (bounded — sources are a catalog, not a corpus), the
    driver computes T from that tiny frame, and the keep pass is a
    pure per-batch filter. Nothing corpus-sized leaves the stream."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "source"])

    counts = combine(ds, "source", {"n": ("doc_id", "count")}).to_pandas()
    cmap = dict(zip(counts["source"], counts["n"].astype(int)))
    total_units = min(int(c) // MIX_WEIGHTS.get(s, 1)
                      for s, c in cmap.items())

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        srcs = batch.column("source").to_pylist()
        mask = []
        for d, s in zip(ids, srcs):
            b = int(md5_hex(str(d))[:8], 16) % _MIX_SCALE
            mask.append(b * cmap[s]
                        < MIX_WEIGHTS.get(s, 1) * total_units * _MIX_SCALE)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=8192)


_SOURCE_CAP = 50  # max docs kept per source


def per_source_cap(sf_dir: str):
    """Per-source document cap: keep at most ``_SOURCE_CAP`` docs per
    source, chosen by deterministic md5 order (tiebreak doc_id) — the
    per-domain cap every crawl-curation pipeline applies so one giant
    host cannot dominate the corpus.

    Scale shape: group-wise top-k with a combiner — every batch reduces
    to at most K rows per source BEFORE the shuffle, so the groupby
    moves O(K·sources·blocks) tiny rows no matter the corpus size, then
    each (bounded) source group takes its final K. No global sort."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "source"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["rank_md5"] = [md5_hex(str(d)) for d in df["doc_id"]]
        df = df.sort_values(["source", "rank_md5", "doc_id"],
                            kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("source", sort=False).head(_SOURCE_CAP),
            preserve_index=False)

    def final_topk(g: pa.Table) -> pa.Table:
        g = g.sort_by([("rank_md5", "ascending"),
                       ("doc_id", "ascending")])
        return g.slice(0, _SOURCE_CAP).select(["doc_id", "source"])

    return (
        ds.map_batches(partial_topk, batch_format="pyarrow",
                       batch_size=8192)
        .groupby("source")
        .map_groups(final_topk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------- DSIR
# Data Selection via Importance Resampling (Xie et al. 2023, public):
# score every raw document by the log-likelihood ratio of a TARGET
# hashed-unigram LM over the RAW corpus LM. The target here is the
# corpus's own English slice (lang='en') — the "select web data that
# looks like the target distribution" move used to curate pretraining
# mixes.
N_DSIR_BUCKETS = 512
DSIR_TARGET_LANG = "en"


def _dsir_weights_table(sf_dir: str) -> "object":
    """Bucketed log-ratio weights in integer milli-nats.

    Pass 1 over documents: per-block hashed-token bucket counts for the
    target slice and the whole corpus fold through one bounded groupby
    (≤ N_DSIR_BUCKETS rows per block, period) — the only driver-side
    hold is the 512×2 count table. Weights quantize as
    ``floor(1000·ln(p̂))`` per LM via ``math.log`` (libm, same as
    DuckDB's LN), so per-document scores are exact int64 sums — no
    float summation-order drift anywhere."""
    import math

    import numpy as np

    ds = scan(sf_dir, "documents", columns=["lang", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        tgt = np.zeros(N_DSIR_BUCKETS, dtype=np.int64)
        raw = np.zeros(N_DSIR_BUCKETS, dtype=np.int64)
        for lang, text in zip(batch.column("lang").to_pylist(),
                              batch.column("text").to_pylist()):
            toks = text.strip().split()
            if not toks:
                continue
            bs = np.fromiter(
                (int(md5_hex(t)[:12], 16) % N_DSIR_BUCKETS for t in toks),
                dtype=np.int64, count=len(toks))
            cnt = np.bincount(bs, minlength=N_DSIR_BUCKETS)
            raw += cnt
            if lang == DSIR_TARGET_LANG:
                tgt += cnt
        return pa.table({
            "bucket": pa.array(np.arange(N_DSIR_BUCKETS, dtype=np.int64)),
            "tgt_n": pa.array(tgt),
            "raw_n": pa.array(raw),
        })

    folded = fold(ds.map_batches(count_partial, batch_format="pyarrow",
                                 batch_size=8192),
                  "bucket", {"tgt_n": ("tgt_n", "sum"),
                             "raw_n": ("raw_n", "sum")}).to_pandas()
    tgt = np.zeros(N_DSIR_BUCKETS, dtype=np.int64)
    raw = np.zeros(N_DSIR_BUCKETS, dtype=np.int64)
    tgt[folded["bucket"].to_numpy()] = folded["tgt_n"].to_numpy()
    raw[folded["bucket"].to_numpy()] = folded["raw_n"].to_numpy()
    T, R = int(tgt.sum()), int(raw.sum())
    B = N_DSIR_BUCKETS
    w_mn = np.fromiter(
        (math.floor(1000.0 * math.log((int(t) + 1.0) / (T + B)))
         - math.floor(1000.0 * math.log((int(r) + 1.0) / (R + B)))
         for t, r in zip(tgt, raw)),
        dtype=np.int64, count=B)
    return w_mn


def dsir_weights(sf_dir: str):
    """Per-document DSIR importance score (integer milli-nats) — the
    ranking signal behind importance-resampled pretraining mixes.

    Pass 2 is a pure per-batch map: hash each token into its bucket and
    sum the broadcast weight vector (4 KB) — no shuffle, no state.
    Blank/whitespace-only docs score 0 with 0 tokens (both sides filter
    empty tokens, the ``normalize_text`` advisory lesson)."""
    import numpy as np

    w_mn = _dsir_weights_table(sf_dir)

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        n_out = np.zeros(len(ids), dtype=np.int64)
        s_out = np.zeros(len(ids), dtype=np.int64)
        for j, text in enumerate(batch.column("text").to_pylist()):
            toks = text.strip().split()
            if not toks:
                continue
            bs = np.fromiter(
                (int(md5_hex(t)[:12], 16) % N_DSIR_BUCKETS for t in toks),
                dtype=np.int64, count=len(toks))
            n_out[j] = len(toks)
            s_out[j] = int(w_mn[bs].sum())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(n_out),
            "dsir_score_mn": pa.array(s_out),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


def dsir_sample(sf_dir: str):
    """The selection step: keep documents whose PER-TOKEN DSIR score
    beats the corpus mean per-token score — self-normalizing (the raw
    log-ratio carries a corpus-wide smoothing offset from T ≪ R, so an
    absolute threshold is meaningless), deterministic, and exact: the
    compare is the integer cross-product ``s·N > S·n`` (Python ints, so
    the 100 TB-scale product cannot overflow), where (S, N) is one tiny
    global reduce over the scored stream."""
    scored = dsir_weights(sf_dir).materialize()
    totals = scored.sum(["dsir_score_mn", "n_tokens"])
    S = int(totals["sum(dsir_score_mn)"])
    N = int(totals["sum(n_tokens)"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        ss = batch.column("dsir_score_mn").to_pylist()
        ns = batch.column("n_tokens").to_pylist()
        mask = [s * N > S * n for s, n in zip(ss, ns)]
        f = batch.filter(pa.array(mask))
        return pa.table({"doc_id": f.column("doc_id"),
                         "dsir_score_mn": f.column("dsir_score_mn")})

    # typed empty union: a zero-row result must still carry its schema
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "dsir_score_mn": pa.array([], type=pa.int64())})
    return (scored.map_batches(keep, batch_format="pyarrow")
            .union(rd.from_arrow(empty)))


def _dsir_sql(select: str) -> str:
    return f"""
        WITH t AS (
          SELECT doc_id, lang,
                 unnest(regexp_split_to_array(trim(text), '\\s+')) AS tok
          FROM documents
        ), tk AS (
          SELECT doc_id, lang,
                 CAST(('0x' || substr(md5(tok), 1, 12)) AS BIGINT)
                     % {N_DSIR_BUCKETS} AS b
          FROM t WHERE tok <> ''
        ), raw AS (
          SELECT b, COUNT(*) AS n FROM tk GROUP BY b
        ), tgt AS (
          SELECT b, COUNT(*) AS n FROM tk
          WHERE lang = '{DSIR_TARGET_LANG}' GROUP BY b
        ), tot AS (
          SELECT (SELECT COUNT(*) FROM tk) AS R,
                 (SELECT COUNT(*) FROM tk
                  WHERE lang = '{DSIR_TARGET_LANG}') AS T
        ), w AS (
          SELECT raw.b,
                 CAST(FLOOR(1000.0 * LN((COALESCE(tgt.n, 0) + 1.0)
                                        / (tot.T + {N_DSIR_BUCKETS})))
                    - FLOOR(1000.0 * LN((raw.n + 1.0)
                                        / (tot.R + {N_DSIR_BUCKETS})))
                      AS BIGINT) AS w_mn
          FROM raw LEFT JOIN tgt USING (b) CROSS JOIN tot
        ), sc AS (
          SELECT tk.doc_id, COUNT(*) AS n_tokens, SUM(w.w_mn) AS s
          FROM tk JOIN w ON w.b = tk.b GROUP BY tk.doc_id
        )
        {select}
    """


def _mix_weight_case_sql() -> str:
    whens = " ".join(
        f"WHEN '{s}' THEN {w}" for s, w in sorted(MIX_WEIGHTS.items()))
    return f"CASE source {whens} ELSE 1 END"


def _rate_case_sql() -> str:
    whens = " ".join(
        f"WHEN '{lang}' THEN {rate}"
        for lang, rate in sorted(STRATA_RATES.items())
    )
    return f"CASE lang {whens} ELSE {_DEFAULT_RATE} END"


_RESERVOIR_K = 200


def reservoir_sample(sf_dir: str):
    """Deterministic distributed RESERVOIR sample: a uniform-looking
    fixed-size-k sample of the corpus as the k global minima of a
    content-stable md5 priority — the classic hash-priority equivalence
    (min-wise sampling): ordering by a uniform hash IS a random
    permutation, but one that is reproducible across runs, retries and
    cluster layouts, and exactly SQL-expressible for the oracle.

    Scale shape: every block reduces to its own k smallest priorities
    (a combiner — O(k) rows out per block regardless of block size),
    then one tiny single-group merge takes the global k. No shuffle of
    corpus-sized data, no driver-side pass, no randomness."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "source", "lang"])

    def partial_kmin(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["rank_md5"] = [md5_hex(str(d)) for d in df["doc_id"]]
        df = df.sort_values(["rank_md5", "doc_id"], kind="mergesort")
        df = df.head(_RESERVOIR_K)
        df["g"] = 0
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_kmin(g: pa.Table) -> pa.Table:
        g = g.sort_by([("rank_md5", "ascending"),
                       ("doc_id", "ascending")])
        return g.slice(0, _RESERVOIR_K).select(["doc_id", "source",
                                                "lang"])

    return (
        ds.map_batches(partial_kmin, batch_format="pyarrow",
                       batch_size=8192)
        .groupby("g")
        .map_groups(final_kmin, batch_format="pyarrow")
    )


def balanced_sample(sf_dir: str):
    """Class-BALANCED downsample: keep exactly ``m`` documents per
    language, where ``m`` is the minority class's count — the "balance
    to the rarest class" curation move for classifier / eval-set
    construction. Selection within a class is by deterministic md5
    order (tiebreak ``doc_id``), the same reproducible-permutation
    idiom as :func:`per_source_cap`, and exactly
    ``ROW_NUMBER() OVER (PARTITION BY lang ORDER BY md5, doc_id) <= m``.

    Scale shape: ``m`` here is data-dependent and corpus-scale
    (≈ n/|langs|), so the fixed-K combiner of :func:`per_source_cap`
    would move (and hold per group) m rows — instead the per-class cut
    pair (the m-th smallest (md5, doc_id)) is found by TWO-level
    histogram selection, the Munro-Paterson shape of the shared
    selector in :mod:`orderstats`: level 1 histograms the
    first 3 md5 hex digits (4096 cells × |langs| rows total after a
    bounded-bucket fold), level 2 re-histograms ONLY each class's
    boundary cell on the next 4 digits, so the rows that reach the
    driver are corpus/(4096·65536) per class. The keep pass is then a
    pure per-batch filter against |langs| broadcast cut pairs. Four
    2-column scans, no sort, no corpus-sized group anywhere."""
    import numpy as np
    import pandas as pd

    cols = ["doc_id", "lang"]
    ds = scan(sf_dir, "documents", columns=cols)

    def hist_rows(cell_of, flt=None):
        def fn(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            df["h"] = [md5_hex(str(d)) for d in df["doc_id"]]
            if flt is not None:
                df = df[flt(df)]
            if not len(df):
                return pa.table({"lang": pa.array([], type=pa.string()),
                                 "cell": pa.array([], type=pa.int64()),
                                 "cnt": pa.array([], type=pa.int64()),
                                 "bucket": pa.array([], type=pa.int32())})
            df["cell"] = cell_of(df["h"])
            out = df.groupby(["lang", "cell"], as_index=False).size()
            out = out.rename(columns={"size": "cnt"})
            out["cnt"] = out["cnt"].astype("int64")
            out["bucket"] = (out["cell"] % 64).astype("int32")
            return pa.Table.from_pandas(out, preserve_index=False)
        return fn

    def fold_hist(g: pa.Table) -> pa.Table:
        out = (g.select(["lang", "cell", "cnt"])
               .group_by(["lang", "cell"]).aggregate([("cnt", "sum")]))
        return pa.table({
            "lang": out.column("lang"),
            "cell": out.column("cell"),
            "cnt": pc.cast(out.column("cnt_sum"), pa.int64()),
        })

    def folded_hist(cell_of, flt=None) -> pd.DataFrame:
        return (ds.map_batches(hist_rows(cell_of, flt),
                               batch_format="pyarrow", batch_size=8192)
                .groupby("bucket")
                .map_groups(fold_hist, batch_format="pyarrow")
                .to_pandas())

    def cut_cell(h1: pd.DataFrame, ranks: dict) -> dict:
        """Per lang: (boundary cell, rows strictly below it)."""
        cuts = {}
        for lang, sub in h1.groupby("lang"):
            sub = sub.sort_values("cell")
            cum = sub["cnt"].cumsum().to_numpy()
            j = ranks[lang]
            i = int(np.searchsorted(cum, j, side="right"))
            below = int(cum[i - 1]) if i else 0
            cuts[lang] = (int(sub["cell"].to_numpy()[i]), below)
        return cuts

    # level 1: 4096-cell histogram; class counts ride it for free
    h1 = folded_hist(lambda h: [int(x[:3], 16) for x in h])
    m = int(h1.groupby("lang")["cnt"].sum().min())
    ranks = {lang: m - 1 for lang in h1["lang"].unique()}  # 0-based
    c1 = cut_cell(h1, ranks)

    # level 2: 65536 subcells, only inside each class's boundary cell
    def in_b1(df: pd.DataFrame) -> "pd.Series":
        cells = [int(x[:3], 16) for x in df["h"]]
        return pd.Series(
            [c1[lg][0] == c for lg, c in zip(df["lang"], cells)],
            index=df.index)

    h2 = folded_hist(lambda h: [int(x[3:7], 16) for x in h], in_b1)
    ranks2 = {lang: ranks[lang] - c1[lang][1] for lang in ranks}
    c2 = cut_cell(h2, ranks2)

    # exact cut pair from the boundary subcell (corpus/(4096·65536) rows)
    def in_b2(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["h"] = [md5_hex(str(d)) for d in df["doc_id"]]
        keep = [c1[lg][0] == int(h[:3], 16)
                and c2[lg][0] == int(h[3:7], 16)
                for lg, h in zip(df["lang"], df["h"])]
        return pa.Table.from_pandas(df[keep], preserve_index=False)

    edge = (ds.map_batches(in_b2, batch_format="pyarrow",
                           batch_size=8192).to_pandas())
    cut_pair = {}
    for lang, sub in edge.groupby("lang"):
        sub = sub.sort_values(["h", "doc_id"], kind="mergesort",
                              ignore_index=True)
        # rows below the subcell within the class, then index inside it
        k = ranks2[lang] - c2[lang][1]
        cut_pair[lang] = (sub["h"].iloc[k], int(sub["doc_id"].iloc[k]))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        mask = []
        for d, lg in zip(ids, langs):
            h = md5_hex(str(d))
            ch, cd = cut_pair[lg]
            mask.append(h < ch or (h == ch and d <= cd))
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=8192)


# train/val/test split fractions out of 100 (train < 90, val < 95)
_SPLIT_MUL = 2654435761  # Knuth multiplicative hash constant


def dataset_split(sf_dir: str):
    """Deterministic train/val/test split manifest: every document is
    assigned a split by a multiplicative hash of its id (90/5/5), and
    the result is the per-(split, source) document/char census a
    training run records before it starts.

    The hash is pure arithmetic — ``(doc_id·2654435761) mod 2^32 mod
    100`` — so assignment is reproducible across runs, cluster layouts
    and engines (the oracle replays it in HUGEINT). uint64 wraparound
    equals mod-2^64, and 2^32 divides 2^64, so the Ray side needs no
    big-int math. One streaming pass with per-batch Arrow cell
    combiners; the final fold is the ≤3×|sources| key space."""
    import numpy as np

    ds = scan(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def cells(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.uint64)
        bucket = ((ids * np.uint64(_SPLIT_MUL)) % np.uint64(1 << 32)
                  ) % np.uint64(100)
        split = np.where(bucket < 90, "train",
                         np.where(bucket < 95, "val", "test"))
        return pa.table({
            "split": pa.array(split, type=pa.string()),
            "source": batch.column("source"),
            "n_chars": batch.column("n_chars"),
        })

    return combine(ds, ["split", "source"],
                   {"n_docs": ("split", "count"),
                    "total_chars": ("n_chars", "sum")}, cells)


_WEIGHTED_K = 50


def weighted_sample(sf_dir: str):
    """Weighted sampling WITHOUT replacement — Efraimidis & Spirakis
    2006 ("Weighted random sampling with a reservoir"): each document
    draws priority ``ln(u)/w`` from a content-stable uniform
    u = (md5₃₂(doc_id)+1)/2³² and weight w = n_chars, and the sample
    is the top-50 priorities — longer documents proportionally more
    likely, yet the whole draw is a pure function of the input
    (reproducible across runs, retries and cluster layouts, and
    SQL-checkable; the char-weighted variant of
    :func:`reservoir_sample`'s uniform min-wise draw).

    Scale shape: priority is a pure per-batch map; each block emits
    only its local top-50 (argpartition, no block sort), so the final
    exact sort+limit sees blocks×50 rows, never the corpus. libm
    ln on both engines; ties broken by doc_id."""
    import numpy as np

    ds = scan(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def partial_topk(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("n_chars"), 0))  # w must be > 0
        ids = b.column("doc_id").to_pylist()
        h = np.array([int(md5_hex(str(d))[:8], 16) for d in ids],
                     dtype=np.float64)
        w = b.column("n_chars").to_numpy().astype(np.float64)
        key = np.log((h + 1.0) / 4294967296.0) / w
        k = min(_WEIGHTED_K, len(ids))
        sel = np.argpartition(-key, k - 1)[:k] if len(ids) > k \
            else np.arange(len(ids))
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[sel]),
            "source": pa.array(
                np.asarray(b.column("source").to_pylist(),
                           dtype=object)[sel], type=pa.string()),
            "n_chars": pa.array(
                b.column("n_chars").to_numpy()[sel], type=pa.int64()),
            "priority": pa.array(key[sel], type=pa.float64()),
        })

    from ..functions.numeric import round_half_away as _rha

    def finish(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.column_names.index("priority"), "priority",
            pa.array(_rha(b.column("priority").to_numpy(), 6),
                     type=pa.float64()))

    return (ds.map_batches(partial_topk, batch_format="pyarrow",
                           batch_size=65536)
            .sort(["priority", "doc_id"], descending=[True, False])
            .limit(_WEIGHTED_K)
            .map_batches(finish, batch_format="pyarrow"))


# alphabetical split-set strings indexed by bitmask (test=1, train=2,
# val=4) — matches the oracle's list_sort(list_distinct(list(split)))
_SPLIT_MASK_NAMES = [
    "", "test", "train", "test,train", "val", "test,val", "train,val",
    "test,train,val",
]


def split_leakage_audit(sf_dir: str):
    """Cross-split contamination audit: near-duplicate families (the
    32-char boilerplate-prefix key of :func:`...dedup.doc_prefix_dedup`
    — this corpus's real collision signal) whose members straddle two
    or more of the train/val/test splits assigned by
    :func:`dataset_split`'s multiplicative hash. Any such family leaks
    training text into evaluation — the audit a curation run performs
    after splitting and before publishing the manifest.

    Scale shape: per-batch Arrow ``group_by`` collapses to one
    (family-hash, split-bit) cell per block — splits ride as bits
    (test=1, train=2, val=4) so the distinct-split set is a plain
    integer OR, realized as a sum of per-(family, bit) rows. md5-bucket
    folds bound the corpus-scale family key space; families that don't
    leak are dropped in-bucket, so only offending rows leave."""
    import numpy as np
    import pyarrow.compute as pc

    from .dedup import _PREFIX_LEN, _bucket_count

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    n_buckets = _bucket_count(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.uint64)
        split_b = ((ids * np.uint64(_SPLIT_MUL)) % np.uint64(1 << 32)
                   ) % np.uint64(100)
        bit = np.where(split_b < 90, 2, np.where(split_b < 95, 4, 1))
        prefixes = pc.utf8_slice_codeunits(
            batch.column("text"), 0, _PREFIX_LEN).to_pylist()
        g = pa.table({
            "text_hash": pa.array([md5_hex(p) for p in prefixes]),
            "bit": pa.array(bit.astype(np.int64)),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "first_doc": batch.column("doc_id"),
        }).group_by(["text_hash", "bit"]).aggregate(
            [("n", "sum"), ("first_doc", "min")])
        g = g.rename_columns(["text_hash", "bit", "n", "first_doc"])
        return g.append_column("bucket", pa.array(
            (int(h[:8], 16) % n_buckets
             for h in g.column("text_hash").to_pylist()),
            type=pa.int32()))

    def fold(g: pa.Table) -> pa.Table:
        # collapse cross-block repeats of (family, split-bit) first so
        # the per-family bit sum below is an exact set-OR
        f1 = g.group_by(["text_hash", "bit"]).aggregate(
            [("n", "sum"), ("first_doc", "min")])
        f1 = f1.rename_columns(["text_hash", "bit", "n", "first_doc"])
        f2 = f1.group_by("text_hash").aggregate(
            [("n", "sum"), ("bit", "sum"), ("first_doc", "min")])
        f2 = f2.rename_columns(["text_hash", "n_docs", "mask",
                                "first_doc"])
        mask = f2.column("mask").to_numpy()
        n_splits = (((mask >> 0) & 1) + ((mask >> 1) & 1)
                    + ((mask >> 2) & 1)).astype(np.int64)
        out = pa.table({
            "text_hash": f2.column("text_hash"),
            "n_docs": f2.column("n_docs"),
            "n_splits": pa.array(n_splits),
            "splits": pa.array(
                np.asarray(_SPLIT_MASK_NAMES, dtype=object)[mask]),
            "first_doc": f2.column("first_doc"),
        })
        return out.filter(pc.and_(pc.greater(out.column("n_docs"), 1),
                                  pc.greater(out.column("n_splits"), 1)))

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=8192)
            .groupby("bucket")
            .map_groups(fold, batch_format="pyarrow"))


# ------------------------------------------- seeded global shuffle planner

SHUFFLE_BUCKETS = 64          # 2^6 range partitions of the key space
_SHUFFLE_KEY_BITS = 56        # md5-56 keys fit signed int64
_SHUFFLE_SHIFT = _SHUFFLE_KEY_BITS - 6


def seeded_shuffle_manifest(sf_dir: str, epoch: int = 0):
    """Deterministic GLOBAL-SHUFFLE planner — the training-order
    randomization step done scale-correctly: instead of
    ``random_shuffle()`` (a full all-to-all of the corpus bytes, not
    resumable, different every run), every doc gets a seeded
    pseudo-random 56-bit key (``md5(doc_id ':' epoch)``), the key
    space range-partitions into ``SHUFFLE_BUCKETS`` equal-probability
    buckets (top 6 key bits), and a writer emits one directory per
    bucket with rows ordered by (key, doc_id) inside — a complete,
    reproducible shuffle epoch from ONE narrow-column pass where only
    the tiny manifest reaches the driver. A new ``epoch`` value reshuffles
    without touching the recipe.

    Manifest per bucket: doc count, total chars (the writer's size
    planning signal), exact key range, and the first doc in shuffle
    order (the resume cursor). Bucket-count uniformity IS the skew
    audit: each doc lands in a bucket with probability 1/64
    independent of doc_id locality."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_pylist()
        key = np.fromiter(
            (int(md5_hex(f"{d}:{epoch}")[:14], 16) for d in ids),
            dtype=np.int64, count=len(ids))
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
            "n_chars": batch.column("n_chars"),
            "key": pa.array(key),
            "bucket": pa.array((key >> _SHUFFLE_SHIFT).astype(np.int64)),
        })

    def fold(g: pa.Table) -> pa.Table:
        import numpy as np

        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        chars = g.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        head = np.lexsort((ids, key))[0]
        return pa.table({
            "bucket": pa.array(
                [int(g.column("bucket")[0].as_py())], type=pa.int64()),
            "n_docs": pa.array([len(ids)], type=pa.int64()),
            "sum_chars": pa.array([int(chars.sum())], type=pa.int64()),
            "min_key": pa.array([int(key.min())], type=pa.int64()),
            "max_key": pa.array([int(key.max())], type=pa.int64()),
            "first_doc": pa.array([int(ids[head])], type=pa.int64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=8192)
            .groupby("bucket")
            .map_groups(fold, batch_format="pyarrow"))


_SEEDED_SHUFFLE_SQL = f"""
WITH k AS (
  SELECT doc_id, n_chars,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':0'),
                              1, 14)) AS BIGINT) AS key
  FROM documents
), r AS (
  SELECT *, key // {1 << _SHUFFLE_SHIFT} AS bucket,
         ROW_NUMBER() OVER (PARTITION BY key // {1 << _SHUFFLE_SHIFT}
                            ORDER BY key, doc_id) AS rn
  FROM k
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(MIN(key) AS BIGINT) AS min_key,
       CAST(MAX(key) AS BIGINT) AS max_key,
       CAST(MIN(CASE WHEN rn = 1 THEN doc_id END) AS BIGINT) AS first_doc
FROM r GROUP BY bucket
"""


ORACLE_SQL = {
    "seeded_shuffle_manifest": _SEEDED_SHUFFLE_SQL,
    "split_leakage_audit": """
        WITH d AS (
          SELECT doc_id, md5(substr(text, 1, 32)) AS text_hash,
                 CASE
                   WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                        % 4294967296 % 100 < 90 THEN 'train'
                   WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                        % 4294967296 % 100 < 95 THEN 'val'
                   ELSE 'test'
                 END AS split
          FROM documents
        ), f AS (
          SELECT text_hash,
                 CAST(COUNT(*) AS BIGINT) AS n_docs,
                 CAST(COUNT(DISTINCT split) AS BIGINT) AS n_splits,
                 array_to_string(
                     list_sort(list_distinct(list(split))), ',') AS splits,
                 MIN(doc_id) AS first_doc
          FROM d GROUP BY text_hash
        )
        SELECT * FROM f WHERE n_docs > 1 AND n_splits > 1
    """,
    "weighted_sample": f"""
        WITH p AS (
          SELECT doc_id, source, n_chars,
                 ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                          1, 8)) AS BIGINT) + 1.0)
                    / 4294967296.0) / n_chars AS pri
          FROM documents WHERE n_chars > 0
        )
        SELECT doc_id, source, n_chars, ROUND(pri, 6) AS priority
        FROM p ORDER BY pri DESC, doc_id LIMIT {_WEIGHTED_K}
    """,
    "dataset_split": f"""
        SELECT CASE
                 WHEN (CAST(doc_id AS HUGEINT) * {_SPLIT_MUL})
                      % 4294967296 % 100 < 90 THEN 'train'
                 WHEN (CAST(doc_id AS HUGEINT) * {_SPLIT_MUL})
                      % 4294967296 % 100 < 95 THEN 'val'
                 ELSE 'test'
               END AS split,
               source,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars
        FROM documents GROUP BY split, source
    """,
    "balanced_sample": """
        WITH c AS (SELECT lang, COUNT(*) AS cnt FROM documents
                   GROUP BY lang),
             m AS (SELECT MIN(cnt) AS m FROM c)
        SELECT doc_id, lang FROM documents CROSS JOIN m
        QUALIFY row_number() OVER (
            PARTITION BY lang
            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
        ) <= m.m
    """,
    "reservoir_sample": f"""
        SELECT doc_id, source, lang FROM documents
        ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
        LIMIT {_RESERVOIR_K}
    """,
    "mix_sample": f"""
        WITH c AS (
          SELECT source, COUNT(*) AS cnt,
                 {_mix_weight_case_sql()} AS wt
          FROM documents GROUP BY source
        ), t AS (
          SELECT MIN(cnt // wt) AS total_units FROM c
        )
        SELECT d.doc_id, d.source
        FROM documents d JOIN c ON c.source = d.source CROSS JOIN t
        WHERE (CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))
                    AS BIGINT) % {_MIX_SCALE}) * c.cnt
              < c.wt * t.total_units * {_MIX_SCALE}
    """,
    "stratified_sample": f"""
        SELECT doc_id, lang FROM documents
        WHERE (CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS BIGINT) % 100) < {_rate_case_sql()}
    """,
    "per_source_cap": f"""
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
        ) <= {_SOURCE_CAP}
    """,
    "dsir_weights": _dsir_sql("""
        SELECT d.doc_id,
               CAST(COALESCE(sc.n_tokens, 0) AS BIGINT) AS n_tokens,
               CAST(COALESCE(sc.s, 0) AS BIGINT) AS dsir_score_mn
        FROM documents d LEFT JOIN sc USING (doc_id)
    """),
    "dsir_sample": _dsir_sql("""
        SELECT doc_id, CAST(sc.s AS BIGINT) AS dsir_score_mn
        FROM sc CROSS JOIN (SELECT SUM(s) AS tot_s, SUM(n_tokens) AS tot_n
                            FROM sc) tot
        WHERE sc.s * tot.tot_n > tot.tot_s * sc.n_tokens
    """),
}

QUERIES = {
    "stratified_sample": stratified_sample,
    "mix_sample": mix_sample,
    "per_source_cap": per_source_cap,
    "dsir_weights": dsir_weights,
    "dsir_sample": dsir_sample,
    "reservoir_sample": reservoir_sample,
    "balanced_sample": balanced_sample,
    "dataset_split": dataset_split,
    "weighted_sample": weighted_sample,
    "split_leakage_audit": split_leakage_audit,
    "seeded_shuffle_manifest": seeded_shuffle_manifest,
}
