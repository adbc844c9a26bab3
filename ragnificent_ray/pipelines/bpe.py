"""Distributed BPE tokenizer training — merge discovery over the corpus.

The byte-pair-encoding loop every LLM tokenizer is trained with
(Sennrich et al. 2016, public): count adjacent symbol pairs across the
corpus, merge the most frequent pair, repeat. This is the fourth
value-checked ITERATIVE algorithm in the repo (after PageRank, k-means,
and the PQ codebook fit): the merge chosen at every round is an exact
integer argmax with a total-order tie-break, so the DuckDB oracle
replays the whole recurrence as one unrolled CTE chain and the driver
hash-checks the merge table itself.

Scale shape:

* **The corpus is touched once.** Word frequencies fold through
  bounded word-hash buckets with an Arrow ``group_by`` body (the
  repo's high-cardinality-key discipline — Ray's native aggregate
  walks the key space per group); everything after runs on the VOCAB
  (unique words × freq), which is orders of magnitude smaller.
* **One bounded exchange per iteration.** Pair counts pre-sum per
  vocab batch (a ``Counter`` over symbol bigrams weighted by word
  freq), fold in pair-hash buckets, and each bucket emits only its
  top-1 candidate — the driver sees ≤ n_buckets rows per round and
  takes the global argmax (count DESC, then (left, right) ascending).
* **Merge application is a vocab-local map.** The chosen pair rewrites
  each word's symbol string with plain non-regex replaces — no
  shuffle. Both engines share the same greedy non-overlapping
  left-to-right replace contract; the double-space padding trick makes
  it equal to classic BPE's "merge every non-overlapping adjacent
  occurrence" (``a a a a`` → ``aa aa``, not ``aa a a``).

Symbols start as unicode codepoints (Python ``str`` iteration; the
oracle's RE2 ``'.'`` extraction agrees), no end-of-word marker —
documented engine semantics, identical on both sides.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from .combine import combine
from .inputs import scan, table_bytes

BPE_ITERS = 3
_MIN_BUCKETS = 16


def _buckets(sf_dir: str, target_bytes: int = 32 << 20) -> int:
    sz = table_bytes(sf_dir, "documents")
    return max(_MIN_BUCKETS, int(sz // target_bytes) + 1)


def _apply_merge(sym: str, left: str, right: str) -> str:
    """Greedy left-to-right merge of every non-overlapping adjacent
    (left, right) occurrence — classic BPE. The double-space padding
    keeps simultaneous occurrences from stealing each other's
    separator; re-canonicalize by splitting on whitespace runs."""
    padded = " " + sym.replace(" ", "  ") + " "
    merged = padded.replace(f" {left}  {right} ", f" {left}{right} ")
    return " ".join(merged.split())


def bpe_merges(sf_dir: str, iters: int = BPE_ITERS):
    """The learned merge table: one row per round —
    (it, left_sym, right_sym, pair_count)."""
    n_buckets = _buckets(sf_dir)

    ds = scan(sf_dir, "documents", columns=["text"])

    def word_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column("text").to_pylist():
            c.update(text.strip().split())
        words = list(c.keys())
        # crc32, not hash(): bucket layout must be stable across
        # worker processes (PYTHONHASHSEED) per the repo's
        # deterministic-hashing discipline
        wb = np.fromiter((zlib.crc32(w.encode()) for w in words),
                         dtype=np.int64, count=len(words))
        return pa.table({
            "word": pa.array(words, type=pa.string()),
            "f": pa.array([c[w] for w in words], type=pa.int64()),
            "wb": pa.array((wb % n_buckets).astype(np.int32)),
        })

    def word_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["word", "f"]).group_by("word")
             .aggregate([("f", "sum")]))
        syms = [" ".join(w) for w in g.column("word").to_pylist()]
        return pa.table({
            "sym": pa.array(syms, type=pa.string()),
            "f": g.column("f_sum"),
        })

    vocab = (ds.map_batches(word_partial, batch_format="pyarrow",
                            batch_size=2048)
             .groupby("wb").map_groups(word_fold, batch_format="pyarrow")
             .materialize())

    merges: list[tuple[int, str, str, int]] = []
    for it in range(1, iters + 1):

        def pair_partial(batch: pa.Table) -> pa.Table:
            c: Counter = Counter()
            for sym, f in zip(batch.column("sym").to_pylist(),
                              batch.column("f").to_pylist()):
                syms = sym.split(" ")
                for a, b in zip(syms, syms[1:]):
                    c[(a, b)] += f
            ls = [k[0] for k in c]
            rs = [k[1] for k in c]
            pb = np.fromiter(
                (zlib.crc32(f"{a}\x00{b}".encode()) for a, b in c),
                dtype=np.int64, count=len(c))
            return pa.table({
                "l": pa.array(ls, type=pa.string()),
                "r": pa.array(rs, type=pa.string()),
                "c": pa.array(list(c.values()), type=pa.int64()),
                "pb": pa.array((pb % n_buckets).astype(np.int32)),
            })

        def bucket_top1(g: pa.Table) -> pa.Table:
            agg = (g.select(["l", "r", "c"]).group_by(["l", "r"])
                   .aggregate([("c", "sum")])
                   .rename_columns(["l", "r", "c"]))
            agg = agg.sort_by([("c", "descending"), ("l", "ascending"),
                               ("r", "ascending")])
            return agg.slice(0, 1)

        cands = (vocab.map_batches(pair_partial, batch_format="pyarrow")
                 .groupby("pb")
                 .map_groups(bucket_top1, batch_format="pyarrow")
                 .to_pandas())
        if not len(cands):
            break
        cands = cands.sort_values(["c", "l", "r"],
                                  ascending=[False, True, True],
                                  kind="mergesort")
        left, right, cnt = (str(cands.iloc[0]["l"]),
                            str(cands.iloc[0]["r"]),
                            int(cands.iloc[0]["c"]))
        merges.append((it, left, right, cnt))

        def apply(batch: pa.Table, left=left, right=right) -> pa.Table:
            syms = [_apply_merge(s, left, right)
                    for s in batch.column("sym").to_pylist()]
            return pa.table({"sym": pa.array(syms, type=pa.string()),
                             "f": batch.column("f")})

        vocab = vocab.map_batches(apply,
                                  batch_format="pyarrow").materialize()

    return pa.table({
        "it": pa.array([m[0] for m in merges], type=pa.int64()),
        "left_sym": pa.array([m[1] for m in merges], type=pa.string()),
        "right_sym": pa.array([m[2] for m in merges], type=pa.string()),
        "pair_count": pa.array([m[3] for m in merges], type=pa.int64()),
    })


def bpe_token_counts(sf_dir: str, iters: int = BPE_ITERS):
    """The ENCODE side: tokenize every document with the learned merge
    table and report its BPE token count — the length statistic that
    sizes training sequences (chars per doc → tokens per doc under the
    trained vocabulary).

    Scale shape: the 3-row merge table is driver state; encoding is a
    pure per-batch map over documents (apply the merges to each word's
    symbol string, count symbols) — no second shuffle. Per-word results
    memoize in a per-batch dict, so hot words tokenize once per batch."""
    merges = [(m["left_sym"], m["right_sym"])
              for m in bpe_merges(sf_dir, iters).to_pylist()]

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(batch: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}

        def n_toks(word: str) -> int:
            got = memo.get(word)
            if got is None:
                s = " ".join(word)
                for left, right in merges:
                    s = _apply_merge(s, left, right)
                got = memo[word] = s.count(" ") + 1
            return got

        ids = batch.column("doc_id").to_pylist()
        counts = np.zeros(len(ids), dtype=np.int64)
        for j, text in enumerate(batch.column("text").to_pylist()):
            counts[j] = sum(n_toks(w) for w in text.strip().split())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_bpe_tokens": pa.array(counts),
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          batch_size=2048)


def _bpe_sql(iters: int = BPE_ITERS) -> str:
    """Unrolled-CTE replay of the whole BPE recurrence: pair counting,
    argmax with the (count DESC, left, right) tie-break, and the exact
    padded-replace merge application, per round."""
    parts = [f"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
  FROM documents
), w AS (
  SELECT word, COUNT(*) AS f FROM tok WHERE word <> '' GROUP BY word
), s0 AS (
  SELECT word, array_to_string(regexp_extract_all(word, '.'), ' ') AS s, f
  FROM w
)"""]
    for i in range(1, iters + 1):
        prev = f"s{i - 1}"
        parts.append(f""", p{i} AS (
  SELECT t.syms[ix.i] AS l, t.syms[ix.i + 1] AS r, SUM(t.f) AS c
  FROM (SELECT regexp_split_to_array(s, ' ') AS syms, f FROM {prev}) t,
       LATERAL (SELECT unnest(range(1, len(t.syms))) AS i) ix
  GROUP BY l, r
), m{i} AS (
  SELECT l, r, c FROM p{i} ORDER BY c DESC, l, r LIMIT 1
), s{i} AS (
  SELECT {prev}.word, trim(regexp_replace(
           replace(' ' || replace({prev}.s, ' ', '  ') || ' ',
                   ' ' || m{i}.l || '  ' || m{i}.r || ' ',
                   ' ' || m{i}.l || m{i}.r || ' '),
           ' +', ' ', 'g')) AS s, f
  FROM {prev} CROSS JOIN m{i}
)""")
    selects = [
        f"SELECT {i} AS it, l AS left_sym, r AS right_sym, "
        f"CAST(c AS BIGINT) AS pair_count FROM m{i}"
        for i in range(1, iters + 1)
    ]
    parts.append("\n" + "\nUNION ALL\n".join(selects))
    return "".join(parts)


def _bpe_encode_sql(iters: int = BPE_ITERS) -> str:
    """Same unrolled merge chain (the s CTEs carry the word key), then
    every document's tokens join their final symbol strings and the
    symbol counts sum per doc; docs with no tokens report 0."""
    chain = _bpe_sql(iters)
    # drop the final merge-table SELECT; keep the CTE chain
    chain = chain[:chain.rindex("\nSELECT 1 AS it")]
    return f"""{chain}
, dtok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(text), '\\s+')) AS word
  FROM documents
), per_doc AS (
  SELECT dtok.doc_id,
         SUM(len(regexp_split_to_array(s{iters}.s, ' '))) AS n
  FROM dtok JOIN s{iters} USING (word)
  WHERE dtok.word <> ''
  GROUP BY dtok.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(per_doc.n, 0) AS BIGINT) AS n_bpe_tokens
FROM documents d LEFT JOIN per_doc USING (doc_id)
"""


def bpe_compression_ratio(sf_dir: str, iters: int = BPE_ITERS):
    """Tokenizer efficiency gauge: characters per BPE token, per
    language — the compression statistic that decides whether a
    trained vocabulary is pulling its weight (and where it
    under-serves a language).

    Composes :func:`bpe_token_counts` (encode side, one per-batch map)
    with a doc_id-aligned pruned read of (lang, n_chars); the join is
    the encode output's own batch (doc_id rides through), so the only
    exchange is the ≤|langs| final fold of exact integer (chars,
    tokens) sums."""
    merges = [(m["left_sym"], m["right_sym"])
              for m in bpe_merges(sf_dir, iters).to_pylist()]

    ds = scan(sf_dir, "documents", columns=["lang", "text", "n_chars"])

    def encode(batch: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}

        def n_toks(word: str) -> int:
            got = memo.get(word)
            if got is None:
                s = " ".join(word)
                for left, right in merges:
                    s = _apply_merge(s, left, right)
                got = memo[word] = s.count(" ") + 1
            return got

        toks = np.zeros(batch.num_rows, dtype=np.int64)
        for j, text in enumerate(batch.column("text").to_pylist()):
            toks[j] = sum(n_toks(w) for w in text.strip().split())
        return pa.table({
            "lang": batch.column("lang"),
            "n_chars": batch.column("n_chars"),
            "n_tokens": pa.array(toks),
        })

    folded = combine(ds, "lang", {"n_chars": ("n_chars", "sum"),
                                  "n_tokens": ("n_tokens", "sum")},
                     encode, batch_size=2048).to_pandas().sort_values("lang")
    from ..functions.numeric import round_half_away

    ratio = [round_half_away(int(c) / int(t), 6) if int(t) else 0.0
             for c, t in zip(folded["n_chars"], folded["n_tokens"])]
    return pa.table({
        "lang": pa.array(folded["lang"].tolist(), type=pa.string()),
        "n_chars": pa.array(folded["n_chars"].to_numpy(dtype="int64")),
        "n_tokens": pa.array(folded["n_tokens"].to_numpy(dtype="int64")),
        "chars_per_token": pa.array(ratio, type=pa.float64()),
    })


def _bpe_ratio_sql(iters: int = BPE_ITERS) -> str:
    enc = _bpe_encode_sql(iters)
    return f"""
WITH enc AS ({enc})
SELECT d.lang, CAST(SUM(d.n_chars) AS BIGINT) AS n_chars,
       CAST(SUM(enc.n_bpe_tokens) AS BIGINT) AS n_tokens,
       ROUND(CAST(SUM(d.n_chars) AS DOUBLE)
             / SUM(enc.n_bpe_tokens), 6) AS chars_per_token
FROM documents d JOIN enc USING (doc_id)
GROUP BY d.lang
"""


QUERIES = {"bpe_merges": bpe_merges,
           "bpe_token_counts": bpe_token_counts,
           "bpe_compression_ratio": bpe_compression_ratio}
ORACLE_SQL = {"bpe_merges": _bpe_sql(),
              "bpe_token_counts": _bpe_encode_sql(),
              "bpe_compression_ratio": _bpe_ratio_sql()}
