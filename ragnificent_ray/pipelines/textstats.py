"""Text-analysis operators over the ``documents`` table.

Large-scale training-data pipeline staples (per the build brief):
token counting, quality scoring, language-ID heuristic, document
fingerprinting. All vectorized-per-batch plain-function maps: a value a
map needs on every batch (stopword set, language profiles, a fitted
model) is built once and captured in the map's closure, which Ray Data
puts in the object store once per execution.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.numeric import round_half_away
from .combine import combine, fold, group_agg
from .inputs import scan, table_bytes
from .orderstats import boundary_rows, histogram


STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")


def _sums(*cols: str) -> dict:
    """Combiner aggs summing each of ``cols`` under its own name."""
    return {c: (c, "sum") for c in cols}


# the (key…, n) count partials most folds here merge
_N_SUM = _sums("n")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "a", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "para", "en"},
    "zh": set(),  # no-latin-stopword fallback
}

_BPEISH = re.compile(r"\w+|[^\w\s]")


def token_stats(sf_dir: str):
    """Per-document token counts (whitespace tokenization) + average
    token length — SQL-oracle-checkable."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tokens, avg_len = [], []
        for t in texts:
            toks = t.strip().split()
            n = len(toks)
            n_tokens.append(n)
            avg_len.append(round_half_away(sum(map(len, toks)) / n, 4) if n else 0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            "avg_token_len": pa.array(avg_len, type=pa.float64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow", batch_size=8192)


def quality_scores(sf_dir: str):
    """Stopword-ratio quality signal (length/stopword heuristics the
    reference-scale pipelines use for corpus filtering)."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    stops = set(STOPWORDS)

    def score(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ratios, lens = [], []
        for t in texts:
            toks = t.strip().lower().split()
            n = len(toks)
            ratios.append(round_half_away(sum(w in stops for w in toks) / n, 4) if n else 0.0)
            lens.append(n)
        return pa.table({
            "doc_id": batch["doc_id"],
            "stopword_ratio": pa.array(ratios, type=pa.float64()),
            "n_tokens": pa.array(lens, type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


_PROFILES = {k: frozenset(v) for k, v in sorted(_LANG_PROFILES.items())}


def guess_lang(text: str) -> str:
    """Heuristic language ID: argmax of per-language stopword hit counts;
    ties go to the first language in sorted order and zero-hit docs fall
    back to "und". Deterministic and value-checked — the DuckDB oracle
    (``ORACLE_SQL["lang_id"]``) replays the profiles and the tie rule
    with list_intersect + an ordered CASE."""
    toks = set(text.lower().split())
    best, best_hits = "und", 0
    for lang, profile in _PROFILES.items():
        hits = len(toks & profile)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best


def lang_id(sf_dir: str):
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def guess(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "guessed_lang": pa.array(
                [guess_lang(t) for t in batch.column("text").to_pylist()],
                type=pa.string()),
        })

    return ds.map_batches(guess, batch_format="pyarrow", batch_size=8192)


def token_count_bpeish(sf_dir: str):
    """Token counting with a BPE-ish regex (words + punctuation marks),
    the second tokenizer the brief asks for."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bpeish_tokens": pa.array(
                [len(_BPEISH.findall(t)) for t in texts], type=pa.int64()),
        })

    return ds.map_batches(count, batch_format="pyarrow", batch_size=8192)


def fingerprints(sf_dir: str):
    """Document fingerprinting: min/max of rolling word-4-gram hashes
    (winnowing-style sketch). The gram hash is the first 48 bits of
    md5 — SQL-expressible, so the sketch is value-checked against the
    DuckDB oracle, not just row-counted."""
    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        mins, maxs = [], []
        for t in texts:
            toks = t.strip().split()
            grams = [" ".join(toks[i:i + 4]) for i in range(max(1, len(toks) - 3))]
            hs = [int(md5_hex(g)[:12], 16) for g in grams]
            mins.append(min(hs))
            maxs.append(max(hs))
        return pa.table({
            "doc_id": batch["doc_id"],
            "fp_min": pa.array(mins, type=pa.int64()),
            "fp_max": pa.array(maxs, type=pa.int64()),
        })

    return ds.map_batches(fp, batch_format="pyarrow", batch_size=8192)


def _token_counts(ds):
    """Corpus token frequencies ``(token, n)`` of the ``text`` column:
    one row per distinct token per block, folded by token."""
    from collections import Counter

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.strip().split())
        return pa.table({
            "token": pa.array(list(c.keys()), type=pa.string()),
            "n": pa.array(list(c.values()), type=pa.int64()),
        })

    return fold(ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=8192), "token", _N_SUM)


def _bigram_partials(ds):
    """Per-block ``(w1, w2, n)`` adjacent-token-pair counts of the
    ``text`` column, one row per distinct pair per block."""
    from collections import Counter

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            c.update(zip(toks, toks[1:]))
        return pa.table({
            "w1": pa.array([k[0] for k in c], type=pa.string()),
            "w2": pa.array([k[1] for k in c], type=pa.string()),
            "n": pa.array(list(c.values()), type=pa.int64()),
        })

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)


def doc_length_histogram(sf_dir: str):
    """Corpus length profile: documents bucketed by the DECIMAL DIGIT
    COUNT of their character length (1=1–9 chars, 2=10–99, …) with
    count and mean length per bucket — the analysis view behind
    min/max-length curation cuts. Digit count is integer-exact in both
    engines (``len(str(n))`` ≡ ``LENGTH(CAST(n AS VARCHAR))``), unlike
    a float ``log10`` boundary. Pure metadata scan (``n_chars`` column
    only — text bytes never leave storage) + one ≤20-key fold."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def cells(b: pa.Table) -> pa.Table:
        n = b.column("n_chars").to_numpy()
        digits = np.char.str_len(n.astype("U20")).astype(np.int64)
        return pa.table({
            "digits": pa.array(digits, type=pa.int64()),
            "n_docs": pa.array(np.ones(len(n), dtype=np.int64)),
            "chars": pa.array(n, type=pa.int64()),
        })

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_docs").to_numpy()
        c = b.column("chars").to_numpy()
        return pa.table({
            "digits": b.column("digits"),
            "n_docs": b.column("n_docs"),
            "avg_chars": pa.array(round_half_away(c / n, 4),
                                  type=pa.float64()),
        })

    return combine(ds, "digits", {
        "n_docs": ("n_docs", "sum"), "chars": ("chars", "sum"),
    }, cells).map_batches(finish, batch_format="pyarrow")


def doclen_gini(sf_dir: str):
    """Gini coefficient of document character lengths per source — the
    length-inequality gauge behind "is one template dominating this
    source?" curation calls (0 = all docs equal, →1 = a few giants
    hold all the text).

    Exact by construction: the classic rank formula
    ``2·Σᵢ i·xᵢ/(N·Σx) − (N+1)/N`` needs a global sort, but lengths
    are small ints, so each source folds to a VALUE HISTOGRAM instead
    — per-batch Arrow ``group_by`` collapses to (source, n_chars,
    count) cells, one bounded exchange later each source's histogram
    ranks its runs in closed form (a run of c equal values starting at
    rank r contributes v·(c·r + c·(c−1)/2), tie-order-independent).
    The rank algebra runs in Python unbounded ints (i·xᵢ overflows
    int64 at ~10¹⁰ docs); floats appear only in the final ratio,
    mirroring the oracle's HUGEINT→DOUBLE cast. Pure metadata scan —
    text bytes never leave storage."""
    ds = scan(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        return group_agg(pa.table({
            "source": b.column("source"),
            "n_chars": b.column("n_chars"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        }), ["source", "n_chars"], {"c": ("c", "sum")})

    def gini_fold(g: pa.Table) -> pa.Table:
        src = g.column("source")[0].as_py()
        h = (pa.table({"n_chars": g.column("n_chars"),
                       "c": g.column("c")})
             .group_by("n_chars").aggregate([("c", "sum")])
             .sort_by("n_chars"))
        v = h.column("n_chars").to_pylist()
        c = h.column("c_sum").to_pylist()
        n_docs = sum(c)
        total = sum(vi * ci for vi, ci in zip(v, c))
        t, rank = 0, 1
        for vi, ci in zip(v, c):
            t += vi * (ci * rank + ci * (ci - 1) // 2)
            rank += ci
        gini = round_half_away(
            np.array([2.0 * t / (n_docs * total)
                      - (n_docs + 1.0) / n_docs]), 4)
        return pa.table({
            "source": pa.array([src]),
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "total_chars": pa.array([total], type=pa.int64()),
            "gini": pa.array(gini, type=pa.float64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("source")
            .map_groups(gini_fold, batch_format="pyarrow"))


def normalize_text(sf_dir: str):
    """Text normalization pass: whitespace squeeze + consecutive
    duplicate-token removal (the classic "word word word" cleanup that
    every crawl-curation pipeline applies before training), plus an md5
    content hash of the normalized text so downstream exact-dedup runs
    on the cleaned form.

    Pure per-batch map — no shuffle, no state; the normalized corpus
    streams straight into :func:`exact_dedup`-shaped consumers at any
    scale. The md5 makes the op value-checkable end-to-end: the DuckDB
    oracle recomputes the identical dedup + hash with an indexed
    list_filter lambda."""
    import hashlib

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tok, n_norm, md5s = [], [], []
        for t in texts:
            toks = t.strip().split()
            kept = toks[:1] + [b for a, b in zip(toks, toks[1:]) if b != a]
            n_tok.append(len(toks))
            n_norm.append(len(kept))
            md5s.append(hashlib.md5(" ".join(kept).encode()).hexdigest())
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_tokens_norm": pa.array(n_norm, type=pa.int64()),
            "norm_md5": pa.array(md5s, type=pa.string()),
        })

    return ds.map_batches(norm, batch_format="pyarrow", batch_size=8192)


def repetition_scores(sf_dir: str):
    """Repetition-based quality signals (Gopher/C4-style filters):
    duplicate-token fraction and most-frequent-bigram fraction. High
    values mark boilerplate/spam for corpus filtering. Pure per-batch
    map, no shuffle."""
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        dup_fracs, top_fracs = [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            n = len(toks)
            dup_fracs.append(
                round_half_away(1.0 - len(set(toks)) / n, 4) if n else 0.0)
            bgs = [" ".join(toks[i:i + 2]) for i in range(max(1, n - 1))]
            top_fracs.append(
                round_half_away(max(Counter(bgs).values()) / len(bgs), 4))
        return pa.table({
            "doc_id": batch["doc_id"],
            "dup_token_frac": pa.array(dup_fracs, type=pa.float64()),
            "top_bigram_frac": pa.array(top_fracs, type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


_ALPHA = re.compile(r"[A-Za-z]")

GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_LEN = 3.0
GOPHER_MAX_MEAN_LEN = 10.0
GOPHER_MIN_ALPHA = 0.8
GOPHER_MIN_STOPS = 2


def gopher_quality_filter(sf_dir: str):
    """Gopher-style rule filter (Rae et al. 2021, appendix A heuristics,
    public paper): word-count bounds, mean-word-length bounds,
    alphabetic-word ratio, distinct-stopword floor. Emits the per-rule
    signals plus the combined verdict (as 0/1) for every document —
    non-destructive, so the filter decision is auditable downstream.
    Pure per-batch map, no shuffle; thresholds compare the ROUNDED
    signals so the oracle's arithmetic is byte-identical."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    stops = frozenset(STOPWORDS)

    def score(batch: pa.Table) -> pa.Table:
        n_words, mean_len, alpha, stop_hits, passes = [], [], [], [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            n = len(toks)
            ml = round_half_away(sum(map(len, toks)) / n, 4) if n else 0.0
            ar = round_half_away(
                sum(1 for w in toks if _ALPHA.search(w)) / n, 4) if n else 0.0
            sh = len({w.lower() for w in toks} & stops)
            ok = (GOPHER_MIN_WORDS <= n <= GOPHER_MAX_WORDS
                  and GOPHER_MIN_MEAN_LEN <= ml <= GOPHER_MAX_MEAN_LEN
                  and ar >= GOPHER_MIN_ALPHA
                  and sh >= GOPHER_MIN_STOPS)
            n_words.append(n)
            mean_len.append(ml)
            alpha.append(ar)
            stop_hits.append(sh)
            passes.append(int(ok))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, type=pa.int64()),
            "mean_word_len": pa.array(mean_len, type=pa.float64()),
            "alpha_ratio": pa.array(alpha, type=pa.float64()),
            "stop_hits": pa.array(stop_hits, type=pa.int64()),
            "passes": pa.array(passes, type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


# PII classes countable with RE2-compatible regexes (the subset of
# functions/security.py:_REDACT_PATTERNS whose counts the DuckDB oracle
# can mirror; \w is ASCII in RE2 vs unicode in Python — the corpus and
# the planted-PII tests stay ASCII, divergence documented here).
_PII_PATTERNS = {
    "n_emails": re.compile(r"[\w\.-]+@[\w\.-]+\.\w+"),
    "n_ips": re.compile(r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    "n_cards": re.compile(r"\b(?:\d{4}[-\s]?){3}\d{4}\b"),
    "n_ssns": re.compile(r"\b\d{3}-\d{2}-\d{4}\b"),
    "n_aws_keys": re.compile(r"AKIA[0-9A-Z]{16}"),
}


def pii_scan(sf_dir: str):
    """Per-document PII exposure counts (emails, IPs, cards, SSNs, AWS
    keys — the countable classes of M19's redaction patterns) plus the
    combined ``any_pii`` flag. The audit pass a curation pipeline runs
    BEFORE redaction: count first so drop-vs-redact policies (and the
    oracle) can value-check, then ``redact_sensitive_data`` scrubs.
    Pure per-batch map with module-compiled regexes, no shuffle."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def count_pii(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        cols: dict = {"doc_id": batch["doc_id"]}
        counts = {k: [len(p.findall(t)) for t in texts]
                  for k, p in _PII_PATTERNS.items()}
        for k, v in counts.items():
            cols[k] = pa.array(v, type=pa.int64())
        cols["any_pii"] = pa.array(
            [int(any(counts[k][i] for k in _PII_PATTERNS))
             for i in range(len(texts))], type=pa.int64())
        return pa.table(cols)

    return ds.map_batches(count_pii, batch_format="pyarrow", batch_size=8192)


def vocab_top(sf_dir: str):
    """Vocabulary building: top-100 tokens by document frequency.

    The combiner pattern at corpus scale: each batch emits one partial
    (token, df) table built from per-doc DISTINCT tokens — so the
    token-keyed shuffle moves one row per distinct token per block, not
    one per occurrence — then a native groupby-sum, a sort and a limit.
    Deterministic tiebreak on the token string keeps the LIMIT cutoff
    stable on both sides of the oracle."""
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["text"])

    def partial_df(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(set(t.strip().split()))
        return pa.table({
            "token": pa.array(list(c.keys()), type=pa.string()),
            "df": pa.array(list(c.values()), type=pa.int64()),
        })

    return (
        fold(ds.map_batches(partial_df, batch_format="pyarrow",
                            batch_size=8192),
             "token", {"df": ("df", "sum")})
        .sort(["df", "token"], descending=[True, False])
        .limit(100)
    )


ZIPF_TOPK = 100


def zipf_fit(sf_dir: str):
    """Zipf's-law exponent of the corpus token frequency distribution:
    OLS slope of ln(count) on ln(rank) over the top-100 tokens —
    natural text sits near −1; a corpus drifting toward 0 (flat) or
    −2+ (head-dominated) signals template spam or a collapsed
    vocabulary. The one-number lexical-health gauge next to
    ``vocab_top``'s raw list.

    Scale shape: the distinct-per-block occurrence combiner →
    token-keyed groupby → deterministic (count DESC, token) top-100 —
    everything heavy is the same shape as ``heavy_hitter_tokens``; the
    regression then runs on exactly 100 driver rows. Ranks and counts
    are exact integers on both engines; ln() is libm on both; the
    4-dp rounding absorbs the float-sum association order."""
    ds = scan(sf_dir, "documents", columns=["text"])
    top = (_token_counts(ds)
           .sort(["n", "token"], descending=[True, False])
           .limit(ZIPF_TOPK)
           .take(ZIPF_TOPK))
    cnt = np.array([r["n"] for r in top], dtype=np.float64)
    k = len(cnt)
    x = np.log(np.arange(1, k + 1, dtype=np.float64))
    y = np.log(cnt)
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    intercept = (sy - slope * sx) / k
    return pa.table({
        "n_tokens": pa.array([k], type=pa.int64()),
        "zipf_slope": pa.array(
            round_half_away(np.array([slope]), 4), type=pa.float64()),
        "ln_intercept": pa.array(
            round_half_away(np.array([intercept]), 4),
            type=pa.float64()),
    })


NB_BUCKETS = 512


def naive_bayes_source(sf_dir: str):
    """Distributed multinomial NAIVE BAYES source classifier, trained
    and evaluated in one pipeline (the fastText-slot baseline of a
    quality/provenance-classification stage): hashed-unigram class
    likelihoods with add-one smoothing, document-count priors, and the
    training-set confusion matrix (actual × predicted counts) as the
    output — the separability census telling whether provenance is
    even learnable from text.

    Exact by the DSIR discipline: per-(source, bucket) counts fold to
    a |sources|×513 driver table (the ONLY driver-side hold), weights
    quantize as ``floor(1000·ln(p̂))`` via libm so both engines agree
    bit-for-bit, per-doc scores are exact int64 dot products, and the
    argmax tiebreak is the source name — nothing floats across a
    combine. Pass 2 is one vectorized map (docs×512 count matrix @
    weight matrix); the confusion fold is ≤|sources|² keys."""
    import math

    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "documents", columns=["source", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        per: dict[str, np.ndarray] = {}
        docs: dict[str, int] = {}
        for src, text in zip(batch.column("source").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = text.strip().split()
            docs[src] = docs.get(src, 0) + 1
            if src not in per:
                per[src] = np.zeros(NB_BUCKETS, dtype=np.int64)
            if toks:
                bs = np.fromiter(
                    (int(md5_hex(t)[:12], 16) % NB_BUCKETS
                     for t in toks), dtype=np.int64, count=len(toks))
                per[src] += np.bincount(bs, minlength=NB_BUCKETS)
        out_s, out_b, out_n = [], [], []
        for src, cnt in per.items():
            nz = np.nonzero(cnt)[0]
            out_s.extend([src] * (len(nz) + 1))
            out_b.extend(nz.tolist())
            out_n.extend(cnt[nz].tolist())
            out_b.append(-1)                 # sentinel: doc count
            out_n.append(docs[src])
        return pa.table({
            "source": pa.array(out_s, type=pa.string()),
            "b": pa.array(out_b, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
        })

    folded = fold(ds.map_batches(count_partial, batch_format="pyarrow",
                                 batch_size=8192),
                  ["source", "b"], _N_SUM).take_all()
    srcs = sorted({r["source"] for r in folded})
    sidx = {s: i for i, s in enumerate(srcs)}
    cnt = np.zeros((len(srcs), NB_BUCKETS), dtype=np.int64)
    ndocs = np.zeros(len(srcs), dtype=np.int64)
    for r in folded:
        if r["b"] < 0:
            ndocs[sidx[r["source"]]] += r["n"]
        else:
            cnt[sidx[r["source"]], r["b"]] = r["n"]
    tot = cnt.sum(axis=1)
    W = np.array([[math.floor(1000.0 * math.log(
        (int(c) + 1.0) / (int(t) + NB_BUCKETS))) for c in row]
        for row, t in zip(cnt, tot)], dtype=np.int64)
    total_docs = int(ndocs.sum())
    prior = np.array([math.floor(1000.0 * math.log(
        int(d) * 1.0 / total_docs)) for d in ndocs], dtype=np.int64)

    def classify(batch: pa.Table) -> pa.Table:
        rows = batch.num_rows
        C = np.zeros((rows, NB_BUCKETS), dtype=np.int64)
        for i, text in enumerate(batch.column("text").to_pylist()):
            toks = text.strip().split()
            if toks:
                bs = np.fromiter(
                    (int(md5_hex(t)[:12], 16) % NB_BUCKETS
                     for t in toks), dtype=np.int64, count=len(toks))
                C[i] = np.bincount(bs, minlength=NB_BUCKETS)
        scores = C @ W.T + prior             # exact int64
        # first max = alphabetically smallest source (srcs sorted)
        pred = np.asarray(srcs, dtype=object)[np.argmax(scores, axis=1)]
        return pa.table({
            "actual": batch.column("source"),
            "predicted": pa.array(pred, type=pa.string()),
            "n": pa.array(np.ones(rows, dtype=np.int64)),
        })

    return combine(ds, ["actual", "predicted"], _N_SUM, classify,
                   batch_size=8192)


def _lang_source_counts(sf_dir: str):
    """Documents per (lang, source) cell — the catalog-bounded
    contingency table under the lang × source dependency tests."""
    ds = scan(sf_dir, "documents", columns=["lang", "source"])

    def cells(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n", pa.array(np.ones(b.num_rows, dtype=np.int64)))

    return combine(ds, ["lang", "source"], _N_SUM, cells)


def lang_source_mi(sf_dir: str):
    """Mutual information I(lang; source) in nats — the one-number
    dependency census behind stratification decisions: 0 means
    language balance is uniform across sources (stratify by either),
    high MI means sources are language silos (stratify by both). Also
    reports the normalized variant I/min(H(lang), H(source)).

    Exactness: the joint (lang, source) table is catalog-bounded, so
    one Arrow cell-combiner pass folds exact integer counts; the MI
    sum runs driver-side over ≤|langs|·|sources| cells in a
    DETERMINISTIC (lang, source) order with libm ln — matching the
    oracle's ordered-list aggregation, so even float association
    order is pinned."""
    import math

    cells = _lang_source_counts(sf_dir).take_all()
    cells.sort(key=lambda r: (r["lang"], r["source"]))
    n = sum(int(r["n"]) for r in cells)
    pl: dict[str, int] = {}
    ps: dict[str, int] = {}
    for r in cells:
        pl[r["lang"]] = pl.get(r["lang"], 0) + int(r["n"])
        ps[r["source"]] = ps.get(r["source"], 0) + int(r["n"])
    mi = sum((int(r["n"]) / n) * math.log(
        int(r["n"]) * n * 1.0 / (pl[r["lang"]] * ps[r["source"]]))
        for r in cells)
    hl = -sum((c / n) * math.log(c * 1.0 / n)
              for _, c in sorted(pl.items()))
    hs = -sum((c / n) * math.log(c * 1.0 / n)
              for _, c in sorted(ps.items()))
    return pa.table({
        "n_docs": pa.array([n], type=pa.int64()),
        "mi_nats": pa.array(round_half_away(np.array([mi]), 6),
                            type=pa.float64()),
        "h_lang": pa.array(round_half_away(np.array([hl]), 6),
                           type=pa.float64()),
        "h_source": pa.array(round_half_away(np.array([hs]), 6),
                             type=pa.float64()),
        "mi_normalized": pa.array(
            round_half_away(np.array([mi / min(hl, hs)]), 6),
            type=pa.float64()),
    })


def bigram_top(sf_dir: str):
    """Top-100 token bigrams by occurrence count (the collocation /
    boilerplate-detection companion to :func:`vocab_top`). Same combiner
    discipline: one (bigram, n) partial row per distinct bigram per
    block, native groupby-sum, deterministic (count desc, bigram)
    cutoff."""
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            c.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        return pa.table({
            "bigram": pa.array(list(c.keys()), type=pa.string()),
            "n": pa.array(list(c.values()), type=pa.int64()),
        })

    return (
        fold(ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=8192), "bigram", _N_SUM)
        .sort(["n", "bigram"], descending=[True, False])
        .limit(100)
    )


_MG_CAPACITY = 8192  # heavy-hitter candidate threshold: freq > n/_MG_CAPACITY
_HH_TOP = 50


def heavy_hitter_tokens(sf_dir: str):
    """Top-50 tokens by TERM frequency via Misra-Gries candidates plus
    an exact recount — the bounded-memory alternative to
    :func:`vocab_top`'s full token-keyed shuffle.

    Pass 1 emits, per block, only tokens whose in-block count exceeds
    ``n_block/C`` (C = 8192). Any token with global frequency > N/C must
    clear that bar in at least one block (else its total would be
    ≤ Σ n_b/C = N/C), so the candidate union provably contains the true
    top-k whenever the k-th count exceeds N/C — which Zipfian token
    distributions satisfy by orders of magnitude. Pass 2 captures the
    (small) candidate set in its map's closure and recounts exactly, so the
    result is EXACT, not an estimate: no token-cardinality shuffle ever
    happens — the only groupby is over candidates.

    Scale note: candidate-set size is bounded by C tokens per block
    pre-dedup and in practice by the corpus's heavy tail; pass 2 ships
    one (token, n) row per candidate per block.
    """
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["text"])

    def mg_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.strip().split())
        n_block = sum(c.values())
        bar = n_block // _MG_CAPACITY
        keep = [tok for tok, n in c.items() if n > bar]
        return pa.table({"token": pa.array(keep, type=pa.string())})

    cand = set()
    for b in (combine(ds, "token", {"n": ("token", "count")}, mg_partial,
                      batch_size=8192)
              .iter_batches(batch_format="pyarrow")):
        cand.update(b.column("token").to_pylist())
    cset = frozenset(cand)

    def recount(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(tok for tok in t.strip().split() if tok in cset)
        return pa.table({
            "token": pa.array(list(c.keys()), type=pa.string()),
            "n": pa.array(list(c.values()), type=pa.int64()),
        })

    return (
        fold(ds.map_batches(recount, batch_format="pyarrow",
                            batch_size=8192), "token", _N_SUM)
        .sort(["n", "token"], descending=[True, False])
        .limit(_HH_TOP)
    )


CM_D, CM_W = 4, 1024     # count-min sketch: 4 hash rows x 1024 counters
CM_TOPK = 20             # point-query the exact top-k tokens


def countmin_tokens(sf_dir: str):
    """Count-Min sketch over the corpus token stream, point-queried at
    the exact top-%d tokens — the O(1)-memory frequency oracle a
    streaming curation pipeline keeps where exact token counts are a
    corpus-sized shuffle.

    Sketch path: each block folds its token counts into a local
    %d×%d counter array (deterministic md5 row-hashes) and emits only
    non-zero cells — at most D·W rows per block regardless of
    vocabulary size; a native groupby-sum merges cells (the key space
    is the FIXED 4096 cells, not the vocabulary). The merged sketch is
    O(1)-sized by construction, so holding it driver-side for the
    point queries is scale-safe. Estimates use the classic min-over-
    rows rule; all arithmetic is integer, so the DuckDB oracle
    value-checks the estimates themselves. The exact counts ride along
    (CM overestimates: est >= exact always — asserted in pytest).
    """ % (CM_TOPK, CM_D, CM_W)
    from collections import Counter

    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "documents", columns=["text"])

    def _h(d: int, tok: str) -> int:
        return int(md5_hex(f"{d}|{tok}")[:15], 16) % CM_W

    def cm_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.strip().split())
        c.pop("", None)
        arr = np.zeros((CM_D, CM_W), dtype=np.int64)
        for tok, n in c.items():
            for d in range(CM_D):
                arr[d, _h(d, tok)] += n
        d_idx, h_idx = arr.nonzero()
        return pa.table({
            "cell": pa.array(d_idx.astype(np.int64) * CM_W + h_idx),
            "c": pa.array(arr[d_idx, h_idx]),
        })

    cm_rows = fold(ds.map_batches(cm_partial, batch_format="pyarrow",
                                  batch_size=8192),
                   "cell", {"c": ("c", "sum")})
    cm = np.zeros(CM_D * CM_W, dtype=np.int64)
    for b in cm_rows.iter_batches(batch_format="pyarrow"):
        cm[b.column("cell").to_numpy()] = b.column("c").to_numpy()

    def add_est(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        est = np.array([min(cm[d * CM_W + _h(d, t)] for d in range(CM_D))
                        for t in toks], dtype=np.int64)
        return pa.table({
            "token": batch.column("token"),
            "est_count": pa.array(est),
            "exact_count": pc.cast(batch.column("n"), pa.int64()),
        })

    return (heavy_hitter_tokens(sf_dir).limit(CM_TOPK)
            .map_batches(add_est, batch_format="pyarrow"))


def _edit1(a: str, b: str) -> bool:
    """Exact check: levenshtein(a, b) <= 1 (one pass, no DP table)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a with one insertion
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def fuzzy_name_pairs(sf_dir: str):
    """Entity names within edit distance 1 — the fuzzy-string-join /
    entity-resolution shape (SymSpell's trick, scaled out). An
    all-pairs levenshtein is O(V²); instead every name emits its
    DELETION NEIGHBORHOOD (itself + each one-char-deleted variant),
    candidates co-locate per variant in bounded hash buckets (any pair
    at distance ≤1 provably shares a deletion variant — substitution:
    delete the differing char from both; indel: delete the inserted
    char), and the exact one-pass edit check verifies in-group. The
    oracle IS the O(V²) levenshtein join, so completeness — not just
    precision — is value-checked. Name universe: part brands ∪
    supplier names (single-digit variants abound — the dirty-catalog
    case this op exists for)."""
    import pandas as pd

    from ..functions.hashing import stable_hash64

    _B = 64

    brands = scan(sf_dir, "part", columns=["p_brand"])
    snames = scan(sf_dir, "supplier", columns=["s_name"])

    def vocab_partial(col):
        def inner(batch: pa.Table) -> pa.Table:
            toks = set(batch.column(col).to_pylist())
            return pa.table({
                "token": pa.array(sorted(toks), type=pa.string())})
        return inner

    ds = brands.map_batches(vocab_partial("p_brand"),
                            batch_format="pyarrow", batch_size=65536) \
        .union(snames.map_batches(vocab_partial("s_name"),
                                  batch_format="pyarrow",
                                  batch_size=65536))

    def variants(batch: pa.Table) -> pa.Table:
        # batch is (token) — may still hold cross-block duplicates;
        # the variant groupby dedups pairs downstream
        out_t, out_v = [], []
        for tok in set(batch.column("token").to_pylist()):
            seen = {tok}
            out_t.append(tok)
            out_v.append(tok)
            for i in range(len(tok)):
                v = tok[:i] + tok[i + 1:]
                if v not in seen:
                    seen.add(v)
                    out_t.append(tok)
                    out_v.append(v)
        vb = np.fromiter((stable_hash64(v) % _B for v in out_v),
                         dtype=np.int32, count=len(out_v))
        return pa.table({
            "token": pa.array(out_t, type=pa.string()),
            "variant": pa.array(out_v, type=pa.string()),
            "vb": pa.array(vb),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        g = (g.select(["token", "variant"])
             .group_by(["token", "variant"]).aggregate([]))
        m = g.join(g, keys="variant", join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("token_x"), m.column("token_y")))
        m = m.group_by(["token_x", "token_y"]).aggregate([])
        ta = m.column("token_x").to_pylist()
        tb = m.column("token_y").to_pylist()
        if ta:
            keep = np.fromiter((_edit1(a, b) for a, b in zip(ta, tb)),
                               dtype=bool, count=len(ta))
            m = m.filter(pa.array(keep))
        return m.rename_columns(["tok_a", "tok_b"])

    def pair_dedup(g: pa.Table) -> pa.Table:
        return g.group_by(["tok_a", "tok_b"]).aggregate([])

    def add_pb(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("pb", pa.array([], type=pa.int32()))
        pb = [stable_hash64(f"{a}|{b}") % _B
              for a, b in zip(batch.column("tok_a").to_pylist(),
                              batch.column("tok_b").to_pylist())]
        return batch.append_column("pb", pa.array(pb, type=pa.int32()))

    return (
        ds.map_batches(variants, batch_format="pyarrow")
        .groupby("vb")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .map_batches(add_pb, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(pair_dedup, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(["pb"])
                     if "pb" in b.column_names else b,
                     batch_format="pyarrow")
    )


def bigram_logprob(sf_dir: str):
    """Per-doc mean log-probability under an add-one-smoothed BIGRAM
    model fit on the corpus itself — the next LM-scoring rung above
    :func:`unigram_logprob` (closer to the KenLM-perplexity filters of
    CCNet/Gopher; still oracle-expressible).

    Three aggregates, all the two-pass broadcast pattern: unigram
    counts (the smoothing denominator + vocab size V), bigram counts
    (one row per distinct in-block bigram — the combiner), then a pure
    per-batch scoring map over the broadcast tables. The bigram table
    is the broadcast ceiling at 100 TB (unigram's ceiling squared); the
    scale route is hash-joining bigram rows to their counts, or a
    Count-Min estimate — both documented trade-offs, this op is the
    exact gate. No OOV term: the model is fit on the scored corpus, so
    every scored bigram has count ≥ 1."""
    import math

    import numpy as np

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    uni = _token_counts(ds).to_pandas()
    v = len(uni)
    uc = dict(zip(uni["token"], uni["n"].astype(np.int64)))

    bi = fold(_bigram_partials(ds), ["w1", "w2"], _N_SUM).to_pandas()
    bc = dict(zip(zip(bi["w1"], bi["w2"]), bi["n"].astype(np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        ns, means = [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            n = max(len(toks) - 1, 0)
            ns.append(n)
            if not n:
                means.append(0.0)
                continue
            lp = sum(
                math.log((bc[(a, b)] + 1.0) / (uc[a] + v))
                for a, b in zip(toks, toks[1:]))
            means.append(round_half_away(lp / n, 4))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(ns, type=pa.int64()),
            "mean_logprob": pa.array(means, type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=4096)


def source_mixture(sf_dir: str):
    """Corpus-mixing report: per-source document and token mass plus the
    token fraction — the table a training-mixture rebalancer consumes.
    Combiner discipline: each batch emits ONE partial row per source, so
    the groupby moves a handful of rows per block regardless of corpus
    size."""
    from collections import defaultdict

    ds = scan(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        docs: dict = defaultdict(int)
        toks: dict = defaultdict(int)
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            docs[s] += 1
            toks[s] += len(t.strip().split())
        keys = sorted(docs)
        return pa.table({
            "source": pa.array(keys, type=pa.string()),
            "n_docs": pa.array([docs[k] for k in keys], type=pa.int64()),
            "n_tokens": pa.array([toks[k] for k in keys], type=pa.int64()),
        })

    agg = fold(ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=8192), "source", {
        "n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum"),
    }).materialize()
    total = agg.sum("n_tokens")

    def frac(t: pa.Table) -> pa.Table:
        n = t.column("n_tokens").to_numpy(zero_copy_only=False)
        return t.append_column(
            "token_frac",
            pa.array(round_half_away(n / total, 4), type=pa.float64()))

    return agg.map_batches(frac, batch_format="pyarrow")


def lang_confusion(sf_dir: str):
    """Language-ID evaluation against the corpus ground truth: the
    (actual lang, guessed lang) count matrix. The heuristic scorer runs
    per batch with the ground-truth column carried through, then one
    tiny two-key groupby folds the partial counts."""
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def guess_and_count(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t, actual in zip(batch.column("text").to_pylist(),
                             batch.column("lang").to_pylist()):
            c[(actual, guess_lang(t))] += 1
        keys = sorted(c)
        return pa.table({
            "lang": pa.array([k[0] for k in keys], type=pa.string()),
            "guessed_lang": pa.array([k[1] for k in keys],
                                     type=pa.string()),
            "n": pa.array([c[k] for k in keys], type=pa.int64()),
        })

    return fold(ds.map_batches(guess_and_count, batch_format="pyarrow",
                               batch_size=8192),
                ["lang", "guessed_lang"], _N_SUM)


def _fit_unigram_model(sf_dir: str) -> tuple[dict, float]:
    """Fit the add-one-smoothed unigram LM on the corpus: per-batch
    token-count partials (one row per distinct token per block) → native
    groupby-sum → (token→logp dict, oov logp), which the scoring maps
    capture. Shared by :func:`unigram_logprob` and
    :func:`perplexity_buckets`."""
    import math

    import numpy as np

    ds = scan(sf_dir, "documents", columns=["text"])
    counts = _token_counts(ds).to_pandas()
    total = int(counts["n"].sum())
    vsize = len(counts)
    logp = np.log((counts["n"].to_numpy(dtype=np.float64) + 1.0)
                  / (total + vsize))
    model = dict(zip(counts["token"], logp))
    oov = math.log(1.0 / (total + vsize))
    return model, oov


def unigram_logprob(sf_dir: str):
    """CCNet-style LM quality score: per-doc mean log-probability under
    an add-one-smoothed unigram model fit on the corpus itself (the
    public perplexity-filtering recipe, with the 5-gram KenLM swapped
    for a unigram model the oracle can express).

    Two-pass like :func:`tfidf_embed`: per-batch token-count partials
    (one row per distinct token per block) → native groupby-sum → the
    bounded vocabulary captured in the scoring map's closure; scoring is
    a pure per-batch map. Low scores mark out-of-distribution / junk
    docs."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    model, oov = _fit_unigram_model(sf_dir)

    def score(batch: pa.Table) -> pa.Table:
        n_toks, means = [], []
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            n = len(toks)
            lp = sum(model.get(w, oov) for w in toks)
            n_toks.append(n)
            means.append(round_half_away(lp / n, 4) if n else 0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_toks, type=pa.int64()),
            "mean_logprob": pa.array(means, type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


PMI_MIN_COUNT = 5
PMI_TOP = 50


def pmi_bigrams(sf_dir: str):
    """Top-50 collocations by pointwise mutual information —
    PMI(a,b) = ln(p(a,b) / (p(a)·p(b))) with a ≥5-occurrence support
    floor, the classic phrase-mining signal (Church & Hanks 1990) that
    raw bigram counts miss because frequent-word pairs dominate them.

    Scale shape: unigram counts fold once (vocabulary-bounded,
    captured in the PMI map's closure); bigram counts use :func:`bigram_top`'s
    distinct-per-block combiner and stay distributed; the PMI map is
    one vectorized lookup pass and the cut is a distributed
    sort+limit. Both engines evaluate the identical
    ``LN(((c·Nu)·Nu)/((Nb·ca)·cb))`` double expression (same libm log
    as the DSIR precedent), then rank on the 6-dp rounding with the
    word pair as the total-order tiebreak."""
    from collections import Counter

    ds = scan(sf_dir, "documents", columns=["text"])

    def uni_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        nb = 0
        for t in batch.column("text").to_pylist():
            toks = t.strip().split()
            c.update(toks)
            nb += max(len(toks) - 1, 0)
        return pa.table({
            "token": pa.array(list(c.keys()) + ["\x00nb"],
                              type=pa.string()),
            "n": pa.array(list(c.values()) + [nb], type=pa.int64()),
        })

    uc = fold(ds.map_batches(uni_partial, batch_format="pyarrow",
                             batch_size=8192), "token", _N_SUM).to_pandas()
    nb_mask = uc["token"] == "\x00nb"
    n_bi = int(uc.loc[nb_mask, "n"].sum())
    uc = uc[~nb_mask]
    n_uni = int(uc["n"].sum())
    uni = dict(zip(uc["token"], uc["n"].astype(int)))
    nu, nbf = float(n_uni), float(n_bi)

    def score(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("cnt"),
                                          PMI_MIN_COUNT))
        w1 = t.column("w1").to_pylist()
        w2 = t.column("w2").to_pylist()
        cab = t.column("cnt").to_numpy().astype(np.float64)
        ca = np.asarray([uni[w] for w in w1], dtype=np.float64)
        cb = np.asarray([uni[w] for w in w2], dtype=np.float64)
        pmi = round_half_away(
            np.log(((cab * nu) * nu) / ((nbf * ca) * cb)), 6)
        return pa.table({
            "w1": t.column("w1"),
            "w2": t.column("w2"),
            "cnt": t.column("cnt"),
            "pmi": pa.array(pmi, type=pa.float64()),
        })

    return (
        fold(_bigram_partials(ds), ["w1", "w2"], {"cnt": ("n", "sum")})
        .map_batches(score, batch_format="pyarrow", batch_size=65536)
        .sort(["pmi", "w1", "w2"], descending=[True, False, False])
        .limit(PMI_TOP)
    )


def perplexity_buckets(sf_dir: str):
    """CCNet-style head/middle/tail terciles per language: rank every
    document inside its language by unigram-LM mean log-probability and
    report each (lang, bucket)'s size and mean score — the corpus map
    CCNet builds before keeping "head" for training.

    Bucket rule is pure integers on BOTH engines (no float percentile
    boundary): with rank = 1 + #{scores below} (ties share rank) and n
    docs in the language, head ⇔ rank = 1 or 3·(rank−1) < n−1, middle ⇔
    3·(rank−1) < 2·(n−1), else tail — exactly
    ``PERCENT_RANK() < 1/3 | 2/3`` but decided by integer cross
    products.

    Scale shape: ONE corpus scan emits per-batch (lang, score_e4,
    count) cells — scores are 4-decimal-rounded so the cell space is
    value-range-bounded (≤ langs × |score range|·1e4 rows), not
    corpus-sized — one native groupby folds them, and everything after
    (cumulative ranks, bucket cuts, per-bucket means) is driver
    arithmetic on that bounded histogram. No second pass, no join."""
    import numpy as np

    model, oov = _fit_unigram_model(sf_dir)
    ds = scan(sf_dir, "documents", columns=["text", "lang"])
    cnt_sum = {"cnt": ("cnt", "sum")}

    def cells(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        s_e4 = np.empty(batch.num_rows, dtype=np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            toks = t.strip().split()
            n = len(toks)
            mean = round_half_away(
                sum(model.get(w, oov) for w in toks) / n, 4) if n else 0.0
            s_e4[i] = np.int64(np.rint(mean * 10000.0))
        return group_agg(pa.table({
            "lang": pa.array(langs, type=pa.string()),
            "s_e4": pa.array(s_e4),
            "cnt": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        }), ["lang", "s_e4"], cnt_sum)

    hist = fold(ds.map_batches(cells, batch_format="pyarrow",
                               batch_size=8192),
                ["lang", "s_e4"], cnt_sum).to_pandas()

    out_lang, out_bucket, out_n, out_mean = [], [], [], []
    for lang, grp in hist.groupby("lang", sort=True):
        grp = grp.sort_values("s_e4")
        cnt = grp["cnt"].to_numpy(dtype=np.int64)
        val = grp["s_e4"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)
        less = cum - cnt                      # rank(v) − 1 per distinct v
        bucket = np.where(
            (less == 0) | (3 * less < n - 1), "head",
            np.where(3 * less < 2 * (n - 1), "middle", "tail"))
        for b in ("head", "middle", "tail"):
            m = bucket == b
            if not m.any():
                continue
            nb = int(cnt[m].sum())
            s = int((val[m] * cnt[m]).sum())
            out_lang.append(lang)
            out_bucket.append(b)
            out_n.append(nb)
            out_mean.append(round_half_away(s / nb / 10000.0, 4))
    return pa.table({
        "lang": pa.array(out_lang, type=pa.string()),
        "bucket": pa.array(out_bucket, type=pa.string()),
        "n_docs": pa.array(out_n, type=pa.int64()),
        "mean_logprob": pa.array(out_mean, type=pa.float64()),
    })


_SQL_STOPS = ", ".join(f"'{w}'" for w in STOPWORDS)


def _lang_hits_sql() -> tuple[str, str]:
    """(hit-count SELECT fragments, argmax CASE) mirroring guess_lang's
    first-in-sorted-order-wins-ties loop exactly."""
    langs = [k for k in sorted(_LANG_PROFILES) if _LANG_PROFILES[k]]
    hits = ",\n               ".join(
        f"len(list_intersect(toks, [{', '.join(repr(w) for w in sorted(_LANG_PROFILES[k]))}]))"
        f" AS hits_{k}" for k in langs
    )
    m = f"greatest({', '.join(f'hits_{k}' for k in langs)})"
    case = [f"WHEN {m} = 0 THEN 'und'"]
    for k in langs[:-1]:
        case.append(f"WHEN hits_{k} = {m} THEN '{k}'")
    case.append(f"ELSE '{langs[-1]}'")
    return hits, "CASE " + " ".join(case) + " END"


_LANG_HITS, _LANG_CASE = _lang_hits_sql()

QUALITY_KEEP_NUM, QUALITY_KEEP_DEN = 3, 4  # keep the top 3/4 by LM score


def quality_percentile_filter(sf_dir: str):
    """Perplexity-percentile curation: keep the best ``3/4`` of the
    corpus by unigram-LM mean log-probability (the CCNet move — filter
    on the score's rank, not an absolute threshold, so the cut adapts
    to the corpus).

    Rank rule: ``ROW_NUMBER() OVER (ORDER BY score DESC, doc_id)`` ≤
    ``floor(3n/4)``. The distributed side finds the cut pair (the K-th
    (score, doc_id)) with the shared histogram selection
    (:mod:`orderstats`): one bounded histogram reduce, then only the
    single boundary bucket's rows reach the driver. The keep pass is a
    pure per-batch filter against that broadcast pair. Scores compare
    at their 4-decimal rounding on BOTH engines, so the rank rule is
    float-boundary-safe."""
    scores = unigram_logprob(sf_dir).select_columns(
        ["doc_id", "mean_logprob"]).materialize()
    n = scores.count()
    k = (QUALITY_KEEP_NUM * n) // QUALITY_KEEP_DEN
    if k <= 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "mean_logprob": pa.array([], type=pa.float64())})

    # the K-th best under (score DESC, doc_id ASC) is the row at 0-based
    # rank n − K under the reverse order (score ASC, doc_id DESC)
    j = n - k
    h = histogram(scores, "mean_logprob")
    cell, below = h.locate([j])
    rows = boundary_rows(scores, h, cell, ["doc_id"])
    v = rows.column("mean_logprob").to_numpy()
    d = rows.column("doc_id").to_numpy().astype(np.int64)
    cut = np.lexsort((-d, v))[j - int(below[0, 0])]
    thr_s, thr_d = float(v[cut]), int(d[cut])

    def keep(batch: pa.Table) -> pa.Table:
        v = batch.column("mean_logprob").to_numpy(zero_copy_only=False)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = (v > thr_s) | ((v == thr_s) & (d <= thr_d))
        return batch.filter(pa.array(mask))

    return scores.map_batches(keep, batch_format="pyarrow",
                              batch_size=65536)


def quality_rank(sf_dir: str):
    """Global quality rank for EVERY document (1 = best) by unigram-LM
    score — the full-output companion to the percentile filter's
    selection: distributed ranking via histogram-prefix offsets.

    Shape: one bounded histogram reduce (:func:`orderstats.histogram`,
    the shared selection histogram) gives each score-bucket its
    exclusive prefix count (buckets scale with corpus size, the prefix
    table is ints — broadcast once); a bounded-bucket ``map_groups``
    then sorts each bucket locally by (score desc, doc_id) and adds its
    offset. Equal scores always share a bucket, so the global order is
    exact; no corpus-wide sort ever runs."""
    import numpy as np

    scores = unigram_logprob(sf_dir).select_columns(
        ["doc_id", "mean_logprob"]).materialize()

    # bucket count scaled to input (bounded groups at any corpus size)
    sz = table_bytes(sf_dir, "documents")
    h = histogram(scores, "mean_logprob",
                  nbuckets=max(2048, int(sz // (64 << 20)) + 1))
    # buckets ascend with the score, so a bucket's rank offset (1 = best)
    # is the count of rows in the buckets above it
    offsets = h.cum[0, -1] - h.cum[0]

    def add_bucket(batch: pa.Table) -> pa.Table:
        v = batch.column("mean_logprob").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(h.bucket_of(v), type=pa.int64()))

    def rank_group(g: pa.Table) -> pa.Table:
        off = offsets[int(g.column("bucket")[0].as_py())]
        g = g.sort_by([("mean_logprob", "descending"),
                       ("doc_id", "ascending")])
        return pa.table({
            "doc_id": pc.cast(g.column("doc_id"), pa.int64()),
            "mean_logprob": g.column("mean_logprob"),
            "rank": pa.array(
                off + np.arange(1, g.num_rows + 1, dtype=np.int64)),
        })

    return (scores.map_batches(add_bucket, batch_format="pyarrow",
                               batch_size=65536)
            .groupby("bucket")
            .map_groups(rank_group, batch_format="pyarrow"))


def keyword_topk(sf_dir: str):
    """Per-document KEYWORD EXTRACTION: the top-3 tokens by tf-idf —
    the RAG/indexing summarization staple. No vocabulary broadcast at
    any scale: document-frequency partials and per-doc term counts ride
    the SAME token-hash bucket exchange (one distinct (doc, token) row
    and one (token, df-partial) row per block), each bucket folds its
    tokens' df and hash-joins it onto its tf rows, then a second
    bounded doc-hash exchange cuts each document's top-3 vectorized
    (score DESC, token ASC — deterministic, and the score itself is
    bit-identical to the oracle's ``tf * LN(N/df)``)."""
    from collections import Counter

    from ..functions.hashing import stable_hash64

    n_buckets = 64
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    # total document count: metadata-only, no data pass
    n_docs = scan(sf_dir, "documents", columns=["doc_id"]).count()

    def tf_and_df_rows(batch: pa.Table) -> pa.Table:
        out_d, out_t, out_tf = [], [], []
        dfp: Counter = Counter()
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            c = Counter(text.strip().split())
            for tok, n in c.items():
                out_d.append(did)
                out_t.append(tok)
                out_tf.append(n)
            dfp.update(c.keys())
        # df partials share the stream: doc_id -1, tf = per-block df
        out_d.extend(-1 for _ in dfp)
        out_t.extend(dfp.keys())
        out_tf.extend(dfp.values())
        return pa.table({
            "doc_id": pa.array(out_d, type=pa.int64()),
            "token": pa.array(out_t, type=pa.string()),
            "tf": pa.array(out_tf, type=pa.int64()),
            "bucket": pa.array(
                [stable_hash64(t) % n_buckets for t in out_t],
                type=pa.int32()),
        })

    def join_df(g: pa.Table) -> pa.Table:
        is_df = pc.less(g.column("doc_id"), 0)
        dfp = (g.filter(is_df).select(["token", "tf"])
               .group_by("token").aggregate([("tf", "sum")]))
        dfp = pa.table({"token": dfp.column("token"),
                        "df": pc.cast(dfp.column("tf_sum"), pa.int64())})
        tf = g.filter(pc.invert(is_df)).select(["doc_id", "token", "tf"])
        m = tf.join(dfp, keys="token", join_type="inner")
        doc = m.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": m.column("doc_id"),
            "token": m.column("token"),
            "tf": m.column("tf"),
            "df": m.column("df"),
            "db": pa.array((doc % 64).astype(np.int32)),
        })

    def topk(g: pa.Table) -> pa.Table:
        score = (g.column("tf").to_numpy(zero_copy_only=False)
                 * np.log(n_docs / g.column("df").to_numpy(
                     zero_copy_only=False).astype(np.float64)))
        g = g.append_column("score",
                            pa.array(score, type=pa.float64()))
        g = g.sort_by([("doc_id", "ascending"),
                       ("score", "descending"),
                       ("token", "ascending")])
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(doc)
        if n:
            first = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
            starts = np.repeat(first, np.diff(np.r_[first, n]))
            rank = np.arange(n, dtype=np.int64) - starts + 1
        else:
            rank = np.zeros(0, dtype=np.int64)
        g = g.append_column("kw_rank", pa.array(rank))
        g = g.filter(pa.array(rank <= 3))
        return pa.table({
            "doc_id": g.column("doc_id"),
            "kw_rank": g.column("kw_rank"),
            "token": g.column("token"),
            "tf": g.column("tf"),
            "df": pc.cast(g.column("df"), pa.int64()),
            "score": pa.array(round_half_away(
                g.column("score").to_numpy(zero_copy_only=False), 6)),
        })

    return (
        ds.map_batches(tf_and_df_rows, batch_format="pyarrow",
                       batch_size=8192)
        .groupby("bucket")
        .map_groups(join_df, batch_format="pyarrow")
        .groupby("db")
        .map_groups(topk, batch_format="pyarrow")
        .map_batches(lambda b: b.drop_columns(
            [c for c in ("bucket", "db") if c in b.column_names]),
            batch_format="pyarrow")
    )


_KEYWORD_SQL = r"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_split_to_array(trim(text), '\s+')) AS token
      FROM documents
    ), tf AS (
      SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
      FROM toks WHERE token <> '' GROUP BY doc_id, token
    ), df AS (
      SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY token
    ), n AS (
      SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents
    ), sc AS (
      SELECT tf.doc_id, tf.token, tf.tf, df.df,
             tf.tf * LN(CAST(n.n AS DOUBLE) / df.df) AS score
      FROM tf JOIN df USING (token) CROSS JOIN n
    )
    SELECT doc_id, CAST(rn AS BIGINT) AS kw_rank, token, tf, df,
           ROUND(score, 6) AS score
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, token) AS rn
          FROM sc)
    WHERE rn <= 3
"""


HEAPS_K = 2   # bigram vocabulary (the unigram space saturates in doc 1)


def heaps_law_fit(sf_dir: str):
    """Heaps'-law fit of vocabulary growth: OLS of ln(V) on ln(N)
    over the cumulative (tokens-seen, distinct-bigrams-seen) curve in
    doc_id ingest order — V ≈ K·N^β with β < 1 for natural text; β
    near 0 means the corpus has saturated (more ingestion buys no new
    vocabulary: stop crawling this source). The regression companion
    to [[ngram_novelty]]'s per-doc attribution, over the bigram space
    (this corpus's ~31-token unigram vocabulary saturates in the
    first document).

    Scale shape: cumulative distinct counting distributes as
    FIRST-OCCURRENCE attribution — each gram's min doc_id is a
    min-fold in bounded gram-hash buckets; V(d) is then the cumsum of
    a ≤|docs| histogram. Gram rows and per-doc totals ride ONE
    exchange (sentinel rows, the basket_lift discipline); the OLS
    runs on ≤|docs| exact-integer driver rows with the zipf_fit float
    tree."""
    from ..functions.hashing import md5_hex
    from .dedup import _bucket_count

    n_buckets = _bucket_count(sf_dir)
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(batch: pa.Table) -> pa.Table:
        gmin: dict[int, int] = {}
        docs, dn = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = t.strip().split()
            docs.append(d)
            dn.append(max(0, len(toks) - HEAPS_K + 1))
            for i in range(len(toks) - HEAPS_K + 1):
                h = int(md5_hex(" ".join(toks[i:i + HEAPS_K]))[:12], 16)
                if h not in gmin or d < gmin[h]:
                    gmin[h] = d
        g = np.fromiter(gmin.keys(), dtype=np.int64, count=len(gmin))
        dm = np.fromiter(gmin.values(), dtype=np.int64, count=len(gmin))
        dd = np.asarray(docs, dtype=np.int64)
        return pa.table({
            "g": pa.array(np.concatenate([g, np.full(len(dd), -1)])),
            "d": pa.array(np.concatenate([dm, dd])),
            "n": pa.array(np.concatenate(
                [np.zeros(len(g), dtype=np.int64),
                 np.asarray(dn, dtype=np.int64)])),
            "bk": pa.array(np.concatenate(
                [(g % n_buckets), (dd % n_buckets)]).astype(np.int32)),
        })

    def bucket_fold(t: pa.Table) -> pa.Table:
        isg = pc.greater_equal(t.column("g"), 0)
        gr = t.filter(isg)
        sn = t.filter(pc.invert(isg))
        fo = (gr.select(["g", "d"]).group_by("g")
              .aggregate([("d", "min")]))
        vh = (pa.table({"doc": fo.column("d_min"),
                        "one": pa.array(
                            np.ones(fo.num_rows, dtype=np.int64))})
              .group_by("doc").aggregate([("one", "sum")]))
        nh = (sn.select(["d", "n"]).group_by("d")
              .aggregate([("n", "sum")]))
        return pa.table({
            "doc": pa.array(
                np.concatenate([
                    vh.column("doc").to_numpy(zero_copy_only=False),
                    nh.column("d").to_numpy(zero_copy_only=False),
                ]).astype(np.int64)),
            "v": pa.array(np.concatenate([
                vh.column("one_sum").to_numpy(zero_copy_only=False),
                np.zeros(nh.num_rows, dtype=np.int64)]).astype(np.int64)),
            "n": pa.array(np.concatenate([
                np.zeros(vh.num_rows, dtype=np.int64),
                nh.column("n_sum").to_numpy(zero_copy_only=False),
            ]).astype(np.int64)),
        })

    rows = fold(ds.map_batches(grams, batch_format="pyarrow",
                               batch_size=8192)
                .groupby("bk").map_groups(bucket_fold,
                                          batch_format="pyarrow"),
                "doc", {"v": ("v", "sum"), "n": ("n", "sum")}).take_all()
    rows.sort(key=lambda r: r["doc"])
    cn = np.cumsum([r["n"] for r in rows])
    cv = np.cumsum([r["v"] for r in rows])
    keep = (cn > 0) & (cv > 0)
    x = np.log(cn[keep].astype(np.float64))
    y = np.log(cv[keep].astype(np.float64))
    k = len(x)
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    den = k * sxx - sx * sx
    if k == 0 or den == 0:
        beta, lnk = 0.0, 0.0
    else:
        beta = round_half_away((k * sxy - sx * sy) / den, 4)
        lnk = round_half_away(
            (sy - ((k * sxy - sx * sy) / den) * sx) / k, 4)
    return pa.table({
        "n_points": pa.array([k], type=pa.int64()),
        "heaps_beta": pa.array([beta], type=pa.float64()),
        "ln_k": pa.array([lnk], type=pa.float64()),
    })


def kl_source_divergence(sf_dir: str):
    """Pairwise Kullback-Leibler divergence D(P‖Q) between the
    per-source hashed-unigram language models (add-one smoothed over
    NB_BUCKETS cells) — the distribution-shift matrix a data-mixing
    stage reads before reweighting sources: which provenances are
    interchangeable, which would shift the training distribution?

    Exact by the DSIR quantized-log discipline shared with
    [[naive-bayes-source]]: per-(source, bucket) counts fold to a
    |sources|×NB_BUCKETS driver table (the only driver-side hold),
    log-probs quantize as floor(1000·ln p̂) via libm so both engines
    agree bit-for-bit, and each pair's numerator
    Σ_b (c_pb+1)·(L_pb − L_qb) is an exact int64 dot — ONE float
    division per pair, mirroring the oracle."""
    import math

    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "documents", columns=["source", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        per: dict[str, np.ndarray] = {}
        for src, text in zip(batch.column("source").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = text.strip().split()
            if src not in per:
                per[src] = np.zeros(NB_BUCKETS, dtype=np.int64)
            if toks:
                bs = np.fromiter(
                    (int(md5_hex(t)[:12], 16) % NB_BUCKETS
                     for t in toks), dtype=np.int64, count=len(toks))
                per[src] += np.bincount(bs, minlength=NB_BUCKETS)
        out_s, out_b, out_n = [], [], []
        for src, cnt in per.items():
            nz = np.nonzero(cnt)[0]
            out_s.extend([src] * len(nz))
            out_b.extend(nz.tolist())
            out_n.extend(cnt[nz].tolist())
        return pa.table({
            "source": pa.array(out_s, type=pa.string()),
            "b": pa.array(out_b, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
        })

    folded = fold(ds.map_batches(count_partial, batch_format="pyarrow",
                                 batch_size=8192),
                  ["source", "b"], _N_SUM).take_all()
    srcs = sorted({r["source"] for r in folded})
    sidx = {s: i for i, s in enumerate(srcs)}
    cnt = np.zeros((len(srcs), NB_BUCKETS), dtype=np.int64)
    for r in folded:
        cnt[sidx[r["source"]], r["b"]] = r["n"]
    tot = cnt.sum(axis=1)
    W = np.array([[math.floor(1000.0 * math.log(
        (int(c) + 1.0) / (int(t) + NB_BUCKETS))) for c in row]
        for row, t in zip(cnt, tot)], dtype=np.int64)
    sp_, sq_, kl_ = [], [], []
    for p in range(len(srcs)):
        for q in range(len(srcs)):
            if p == q:
                continue
            num = int(((cnt[p] + 1) * (W[p] - W[q])).sum())
            sp_.append(srcs[p])
            sq_.append(srcs[q])
            kl_.append(round_half_away(
                float(num) / (1000.0 * (int(tot[p]) + NB_BUCKETS)), 6))
    return pa.table({
        "src_p": pa.array(sp_, type=pa.string()),
        "src_q": pa.array(sq_, type=pa.string()),
        "kl_nats": pa.array(kl_, type=pa.float64()),
    })


AMS_R = 8   # independent sign-hash estimators


def ams_f2_tokens(sf_dir: str):
    """AMS second-frequency-moment sketch (Alon, Matias & Szegedy
    1996) over the corpus token stream: F₂ = Σ_t f_t² — the
    self-join-size / skew gauge that complements the resident sketch
    family (HLL = F₀, Count-Min = point F₁ queries). Each of AMS_R
    estimators keeps ONE counter S_j = Σ_t σ_j(t)·f_t with md5-parity
    signs; E[S²] = F₂. The sketch's own estimate is value-checked
    against the oracle replaying the identical signs, and the exact
    F₂ rides along so est≥truth drift is auditable.

    Scale shape: each block folds to AMS_R (j, s) partial rows —
    O(1) driver-side hold by construction — while the exact F₂ is
    one vocabulary-bounded token fold. All counters are exact int64;
    one float division at the end."""
    from collections import Counter

    from ..functions.hashing import md5_hex

    ds = scan(sf_dir, "documents", columns=["text"])

    def sign_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(tok for tok in t.strip().split() if tok)
        s = np.zeros(AMS_R, dtype=np.int64)
        for tok, n in c.items():
            for j in range(AMS_R):
                sg = 1 if int(md5_hex(f"{j}:{tok}")[:12], 16) % 2 == 0 \
                    else -1
                s[j] += sg * n
        return pa.table({
            "j": pa.array(np.arange(AMS_R, dtype=np.int64)),
            "s": pa.array(s),
        })

    srows = fold(ds.map_batches(sign_partial, batch_format="pyarrow",
                                batch_size=8192),
                 "j", {"s": ("s", "sum")}).take_all()
    ss = sum(int(r["s"]) ** 2 for r in srows)     # exact Python ints

    def sq_partial(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False)
        return pa.table({"f2": pa.array([int((n * n).sum())],
                                        type=pa.int64())})

    f2 = int(_token_counts(ds)
             .map_batches(sq_partial, batch_format="pyarrow")
             .sum("f2"))
    est = float(ss) / float(AMS_R)
    return pa.table({
        "exact_f2": pa.array([f2], type=pa.int64()),
        "est_f2": pa.array([round_half_away(est, 4)],
                           type=pa.float64()),
        "rel_err": pa.array(
            [round_half_away(abs(float(ss) / float(AMS_R) - f2) / f2,
                             4) if f2 else 0.0],
            type=pa.float64()),
    })


_AMS_SQL = rf"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
), tc AS (
  SELECT tok, COUNT(*) AS n FROM toks WHERE tok <> '' GROUP BY tok
), ex AS (
  SELECT SUM(CAST(n AS HUGEINT) * n) AS f2 FROM tc
), js AS (SELECT unnest(range({AMS_R})) AS j),
s AS (
  SELECT js.j,
         SUM(CASE WHEN CAST(('0x' || substr(md5(
                  CAST(js.j AS VARCHAR) || ':' || tc.tok), 1, 12))
                  AS BIGINT) % 2 = 0
             THEN tc.n ELSE -tc.n END) AS s
  FROM js CROSS JOIN tc GROUP BY js.j
), est AS (SELECT SUM(CAST(s AS HUGEINT) * s) AS ss FROM s)
SELECT CAST(COALESCE(ex.f2, 0) AS BIGINT) AS exact_f2,
       ROUND(CAST(COALESCE(est.ss, 0) AS DOUBLE)
             / CAST({AMS_R} AS DOUBLE), 4) AS est_f2,
       CASE WHEN COALESCE(ex.f2, 0) = 0 THEN 0.0
            ELSE ROUND(ABS(CAST(COALESCE(est.ss, 0) AS DOUBLE)
                           / CAST({AMS_R} AS DOUBLE)
                           - ex.f2) / ex.f2, 4)
       END AS rel_err
FROM ex CROSS JOIN est
"""


def chi2_lang_source(sf_dir: str):
    """Pearson χ² independence test + Cramér's V between document
    language and source — the significance/effect-size companion to
    [[lang-source-mi]]'s information readout: is the lang×source
    association real, and how strong on a 0-1 scale?

    Exactness: the contingency table folds to catalog-bounded
    (lang, source) integer cells; each cell's χ² term is
    (O·N − R·C)²/(N·R·C) with an EXACT integer numerator (Python
    unbounded ints — O·N ~ 10¹⁰ at scale squares past int64) and one
    float division per cell; the ≤|langs|×|sources| float cell sum is
    absorbed by the 4-dp round, mirroring the oracle."""
    import math

    rows = _lang_source_counts(sf_dir).take_all()
    langs = sorted({r["lang"] for r in rows})
    srcs = sorted({r["source"] for r in rows})
    li = {v: i for i, v in enumerate(langs)}
    si = {v: i for i, v in enumerate(srcs)}
    obs = np.zeros((len(langs), len(srcs)), dtype=np.int64)
    for r in rows:
        obs[li[r["lang"]], si[r["source"]]] = r["n"]
    rsum = obs.sum(axis=1)
    csum = obs.sum(axis=0)
    n = int(obs.sum())
    chi2 = 0.0
    for i in range(len(langs)):
        for j in range(len(srcs)):
            num = (int(obs[i, j]) * n
                   - int(rsum[i]) * int(csum[j])) ** 2
            chi2 += float(num) / (float(n) * int(rsum[i])
                                  * int(csum[j]))
    dof = (len(langs) - 1) * (len(srcs) - 1)
    v = math.sqrt(chi2 / (n * min(len(langs) - 1, len(srcs) - 1)))
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "dof": pa.array([dof], type=pa.int64()),
        "chi2": pa.array([round_half_away(chi2, 4)],
                         type=pa.float64()),
        "cramers_v": pa.array([round_half_away(v, 6)],
                              type=pa.float64()),
    })


_QCORR_FEATS = ["n_chars", "n_tokens", "n_distinct", "longest_token"]


def quality_corr_matrix(sf_dir: str):
    """Pairwise Pearson correlation matrix over four per-document
    integer features (chars, tokens, distinct tokens, longest token)
    — the feature-redundancy census a quality-model trainer reads
    before fitting: ρ≈1 pairs carry one signal, drop one. The matrix
    generalization of ``price_quantity_corr``'s single pair.

    Exactness: each batch folds to ONE row of 15 int64 moments (n,
    four Σxᵢ, ten Σxᵢxⱼ); rows stream to the driver where unbounded
    Python ints combine order-independently; each ρ divides exact
    integers once via the closed form, mirroring the oracle's HUGEINT
    tree term for term."""
    import math

    ds = scan(sf_dir, "documents", columns=["text", "n_chars"])
    k = len(_QCORR_FEATS)

    def moments(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars").to_numpy()
        texts = batch.column("text").to_pylist()
        f = np.zeros((len(texts), k), dtype=np.int64)
        f[:, 0] = nc
        for i, t in enumerate(texts):
            toks = t.strip().split()
            f[i, 1] = len(toks)
            f[i, 2] = len(set(toks))
            f[i, 3] = max((len(w) for w in toks), default=0)
        out = {"n": pa.array([len(texts)], type=pa.int64())}
        for a in range(k):
            out[f"s{a}"] = pa.array([int(f[:, a].sum())],
                                    type=pa.int64())
            for b in range(a, k):
                out[f"p{a}{b}"] = pa.array(
                    [int((f[:, a] * f[:, b]).sum())], type=pa.int64())
        return pa.table(out)

    tot: dict[str, int] = {}
    for b in ds.map_batches(moments, batch_format="pyarrow",
                            batch_size=8192) \
               .iter_batches(batch_size=4096, batch_format="pyarrow"):
        for name in b.column_names:
            tot[name] = tot.get(name, 0) \
                + sum(b.column(name).to_pylist())
    n = tot["n"]
    fa, fb, rho = [], [], []
    for a in range(k):
        for b2 in range(a + 1, k):
            num = n * tot[f"p{a}{b2}"] - tot[f"s{a}"] * tot[f"s{b2}"]
            va = n * tot[f"p{a}{a}"] - tot[f"s{a}"] ** 2
            vb = n * tot[f"p{b2}{b2}"] - tot[f"s{b2}"] ** 2
            den = math.sqrt(float(va) * float(vb))
            fa.append(_QCORR_FEATS[a])
            fb.append(_QCORR_FEATS[b2])
            rho.append(round_half_away(float(num) / den, 4)
                       if den else 0.0)
    return pa.table({
        "feat_a": pa.array(fa, type=pa.string()),
        "feat_b": pa.array(fb, type=pa.string()),
        "corr": pa.array(rho, type=pa.float64()),
    })


def _qcorr_sql() -> str:
    # trim('')-guards: Python str.split() yields [] for
    # empty/whitespace-only text but regexp_split_to_array yields
    # [''] (count 1) — guard every token-derived feature to 0
    feats = {
        "n_chars": "n_chars",
        "n_tokens":
            r"CASE WHEN trim(text) = '' THEN 0 ELSE "
            r"len(regexp_split_to_array(trim(text), '\s+')) END",
        "n_distinct":
            r"CASE WHEN trim(text) = '' THEN 0 ELSE "
            r"len(list_distinct(regexp_split_to_array(trim(text),"
            r" '\s+'))) END",
        "longest_token":
            r"CASE WHEN trim(text) = '' THEN 0 ELSE "
            r"list_max(list_transform(regexp_split_to_array("
            r"trim(text), '\s+'), w -> length(w))) END",
    }
    cols = ", ".join(f"CAST({expr} AS BIGINT) AS f{i}"
                     for i, expr in enumerate(feats.values()))
    names = list(feats)
    pairs = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            pairs.append(f"""
SELECT '{names[a]}' AS feat_a, '{names[b]}' AS feat_b,
  CASE WHEN (n * p{a}{a} - s{a} * s{a}) = 0
            OR (n * p{b}{b} - s{b} * s{b}) = 0 THEN 0.0
       ELSE ROUND(CAST(n * p{a}{b} - s{a} * s{b} AS DOUBLE)
                  / SQRT(CAST(n * p{a}{a} - s{a} * s{a} AS DOUBLE)
                         * CAST(n * p{b}{b} - s{b} * s{b} AS DOUBLE)),
                  4)
  END AS corr FROM m""")
    sums = ", ".join(
        [f"SUM(CAST(f{a} AS HUGEINT)) AS s{a}" for a in range(4)]
        + [f"SUM(CAST(f{a} AS HUGEINT) * f{b}) AS p{a}{b}"
           for a in range(4) for b in range(a, 4)])
    return (f"WITH v AS (SELECT {cols} FROM documents),\n"
            f"m AS (SELECT COUNT(*) AS n, {sums} FROM v)\n"
            + "\nUNION ALL\n".join(pairs))


_CHI2_SQL = """
WITH c AS (
  SELECT lang, source, COUNT(*) AS o FROM documents
  GROUP BY lang, source
), r AS (SELECT lang, SUM(o) AS rs FROM c GROUP BY lang),
s AS (SELECT source, SUM(o) AS cs FROM c GROUP BY source),
tot AS (SELECT SUM(o) AS n FROM c),
grid AS (
  SELECT r.lang, s.source, COALESCE(c.o, 0) AS o, r.rs, s.cs
  FROM r CROSS JOIN s
  LEFT JOIN c ON c.lang = r.lang AND c.source = s.source
), terms AS (
  SELECT SUM(CAST((CAST(o AS HUGEINT) * tot.n - rs * cs)
                  * (CAST(o AS HUGEINT) * tot.n - rs * cs) AS DOUBLE)
             / (CAST(tot.n AS DOUBLE) * rs * cs)) AS chi2
  FROM grid CROSS JOIN tot
), dims AS (
  SELECT (SELECT COUNT(*) FROM r) AS nr, (SELECT COUNT(*) FROM s) AS nc
)
SELECT CAST(tot.n AS BIGINT) AS n,
       CAST((dims.nr - 1) * (dims.nc - 1) AS BIGINT) AS dof,
       ROUND(terms.chi2, 4) AS chi2,
       ROUND(SQRT(terms.chi2 / (tot.n * LEAST(dims.nr - 1,
                                              dims.nc - 1))), 6)
           AS cramers_v
FROM terms CROSS JOIN tot CROSS JOIN dims
"""


_HEAPS_SQL = rf"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
  FROM documents
), g AS (
  SELECT doc_id,
         unnest(list_transform(
             range(1, len(toks) - {HEAPS_K} + 2),
             i -> CAST(('0x' || substr(md5(array_to_string(
                 toks[i:i+{HEAPS_K}-1], ' ')), 1, 12))
                 AS BIGINT))) AS gram
  FROM t WHERE len(toks) >= {HEAPS_K}
), fo AS (
  SELECT gram, MIN(doc_id) AS d0 FROM g GROUP BY gram
), nv AS (
  SELECT d0 AS doc_id, COUNT(*) AS v FROM fo GROUP BY d0
), dn AS (
  SELECT doc_id, COUNT(*) AS n FROM g GROUP BY doc_id
), base AS (
  SELECT d.doc_id, COALESCE(dn.n, 0) AS n, COALESCE(nv.v, 0) AS v
  FROM (SELECT doc_id FROM documents) d
  LEFT JOIN dn USING (doc_id) LEFT JOIN nv USING (doc_id)
), cum AS (
  SELECT doc_id, SUM(n) OVER (ORDER BY doc_id) AS cn,
         SUM(v) OVER (ORDER BY doc_id) AS cv
  FROM base
), pts AS (
  SELECT ln(CAST(cn AS DOUBLE)) AS x, ln(CAST(cv AS DOUBLE)) AS y
  FROM cum WHERE cn > 0 AND cv > 0
), m AS (
  SELECT COUNT(*) AS k, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM pts
)
SELECT CAST(k AS BIGINT) AS n_points,
       CASE WHEN k = 0 OR k * sxx - sx * sx = 0 THEN 0.0
            ELSE ROUND((k * sxy - sx * sy) / (k * sxx - sx * sx), 4)
       END AS heaps_beta,
       CASE WHEN k = 0 OR k * sxx - sx * sx = 0 THEN 0.0
            ELSE ROUND((sy - ((k * sxy - sx * sy)
                              / (k * sxx - sx * sx)) * sx) / k, 4)
       END AS ln_k
FROM m
"""

_KL_SQL = rf"""
WITH t AS (
  SELECT source,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
  FROM documents
), tk AS (
  SELECT source,
         CAST(('0x' || substr(md5(tok), 1, 12)) AS BIGINT)
             % {NB_BUCKETS} AS b
  FROM t WHERE tok <> ''
), cnt AS (
  SELECT source, b, COUNT(*) AS n FROM tk GROUP BY source, b
), tot AS (
  SELECT source, COUNT(*) AS tot FROM tk GROUP BY source
), buckets AS (
  SELECT unnest(range({NB_BUCKETS})) AS b
), w AS (
  SELECT t2.source, buckets.b,
         CAST(FLOOR(1000.0 * LN((COALESCE(c.n, 0) + 1.0)
                                / (t2.tot + {NB_BUCKETS})))
              AS BIGINT) AS w
  FROM tot t2 CROSS JOIN buckets
  LEFT JOIN cnt c ON c.source = t2.source AND c.b = buckets.b
), num AS (
  SELECT wp.source AS sp, wq.source AS sq,
         SUM((COALESCE(c.n, 0) + 1) * (wp.w - wq.w)) AS num
  FROM w wp JOIN w wq ON wq.b = wp.b AND wq.source <> wp.source
  LEFT JOIN cnt c ON c.source = wp.source AND c.b = wp.b
  GROUP BY wp.source, wq.source
)
SELECT sp AS src_p, sq AS src_q,
       ROUND(CAST(num AS DOUBLE)
             / (1000.0 * (t.tot + {NB_BUCKETS})), 6) AS kl_nats
FROM num JOIN tot t ON t.source = num.sp
"""


ORACLE_SQL = {
    "heaps_law_fit": _HEAPS_SQL,
    "kl_source_divergence": _KL_SQL,
    "ams_f2_tokens": _AMS_SQL,
    "chi2_lang_source": _CHI2_SQL,
    "quality_corr_matrix": _qcorr_sql(),
    "keyword_topk": _KEYWORD_SQL,
    "fingerprints": r"""
        WITH t AS (
            SELECT doc_id,
                   regexp_split_to_array(trim(text), '\s+') AS toks
            FROM documents
        ), g AS (
            SELECT doc_id,
                   list_transform(
                       range(1, greatest(len(toks) - 3, 1) + 1),
                       i -> CAST(('0x' || substr(
                           md5(array_to_string(toks[i:i+3], ' ')),
                           1, 12)) AS BIGINT)) AS hs
            FROM t
        )
        SELECT doc_id, list_min(hs) AS fp_min, list_max(hs) AS fp_max
        FROM g
    """,
    "token_count_bpeish": r"""
        SELECT doc_id,
               len(regexp_extract_all(text, '\w+|[^\w\s]'))
                   AS n_bpeish_tokens
        FROM documents
    """,
    "lang_id": f"""
        WITH t AS (
            SELECT doc_id,
                   list_distinct(regexp_split_to_array(lower(trim(text)),
                                                       '\\s+')) AS toks
            FROM documents
        ), h AS (
            SELECT doc_id,
               {_LANG_HITS}
            FROM t
        )
        SELECT doc_id, {_LANG_CASE} AS guessed_lang FROM h
    """,
    "lang_confusion": f"""
        WITH t AS (
            SELECT lang,
                   list_distinct(regexp_split_to_array(lower(trim(text)),
                                                       '\\s+')) AS toks
            FROM documents
        ), h AS (
            SELECT lang,
               {_LANG_HITS}
            FROM t
        ), g AS (
            SELECT lang, {_LANG_CASE} AS guessed_lang FROM h
        )
        SELECT lang, guessed_lang, COUNT(*) AS n
        FROM g GROUP BY lang, guessed_lang
    """,
    "doc_length_histogram": """
        SELECT CAST(LENGTH(CAST(n_chars AS VARCHAR)) AS BIGINT) AS digits,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               ROUND(SUM(n_chars) * 1.0 / COUNT(*), 4) AS avg_chars
        FROM documents GROUP BY digits
    """,
    "lang_source_mi": """
        WITH c AS (
          SELECT lang, source, COUNT(*) AS n FROM documents
          GROUP BY lang, source
        ), tot AS (SELECT SUM(n) AS n FROM c),
        pl AS (SELECT lang, SUM(n) AS nl FROM c GROUP BY lang),
        ps AS (SELECT source, SUM(n) AS ns FROM c GROUP BY source),
        terms AS (
          SELECT c.lang, c.source,
                 (c.n * 1.0 / tot.n)
                 * LN(c.n * tot.n * 1.0 / (pl.nl * ps.ns)) AS t
          FROM c JOIN pl USING (lang) JOIN ps USING (source)
          CROSS JOIN tot
        ), mi AS (
          SELECT list_sum(list(t ORDER BY lang, source)) AS v FROM terms
        ), hl AS (
          SELECT -list_sum(list((nl * 1.0 / tot.n)
                                * LN(nl * 1.0 / tot.n)
                                ORDER BY lang)) AS v
          FROM pl CROSS JOIN tot GROUP BY tot.n
        ), hs AS (
          SELECT -list_sum(list((ns * 1.0 / tot.n)
                                * LN(ns * 1.0 / tot.n)
                                ORDER BY source)) AS v
          FROM ps CROSS JOIN tot GROUP BY tot.n
        )
        SELECT CAST(tot.n AS BIGINT) AS n_docs,
               ROUND(mi.v, 6) AS mi_nats,
               ROUND(hl.v, 6) AS h_lang,
               ROUND(hs.v, 6) AS h_source,
               ROUND(mi.v / least(hl.v, hs.v), 6) AS mi_normalized
        FROM tot, mi, hl, hs
    """,
    "naive_bayes_source": f"""
        WITH t AS (
          SELECT doc_id, source,
                 unnest(regexp_split_to_array(trim(text), '\\s+')) AS tok
          FROM documents
        ), tk AS (
          SELECT doc_id, source,
                 CAST(('0x' || substr(md5(tok), 1, 12)) AS BIGINT)
                     % {NB_BUCKETS} AS b
          FROM t WHERE tok <> ''
        ), cnt AS (
          SELECT source, b, COUNT(*) AS n FROM tk GROUP BY source, b
        ), tot AS (
          SELECT source, COUNT(*) AS tot FROM tk GROUP BY source
        ), buckets AS (
          SELECT unnest(range({NB_BUCKETS})) AS b
        ), w AS (
          SELECT t2.source, buckets.b,
                 CAST(FLOOR(1000.0 * LN((COALESCE(c.n, 0) + 1.0)
                                        / (t2.tot + {NB_BUCKETS})))
                      AS BIGINT) AS w
          FROM tot t2 CROSS JOIN buckets
          LEFT JOIN cnt c ON c.source = t2.source AND c.b = buckets.b
        ), docs AS (
          SELECT source, COUNT(*) AS nd FROM documents GROUP BY source
        ), alldocs AS (SELECT COUNT(*) AS total FROM documents),
        prior AS (
          SELECT d.source,
                 CAST(FLOOR(1000.0 * LN(d.nd * 1.0 / a.total))
                      AS BIGINT) AS pw
          FROM docs d CROSS JOIN alldocs a
        ), docscore AS (
          SELECT tk.doc_id, w.source, SUM(w.w) AS tscore
          FROM tk JOIN w ON w.b = tk.b GROUP BY tk.doc_id, w.source
        ), scored AS (
          SELECT d.doc_id, d.source AS actual, p.source AS cand,
                 p.pw + COALESCE(ds.tscore, 0) AS score
          FROM documents d CROSS JOIN prior p
          LEFT JOIN docscore ds
            ON ds.doc_id = d.doc_id AND ds.source = p.source
        ), pred AS (
          SELECT doc_id, actual, cand AS predicted FROM scored
          QUALIFY row_number() OVER (PARTITION BY doc_id
                                     ORDER BY score DESC, cand) = 1
        )
        SELECT actual, predicted, CAST(COUNT(*) AS BIGINT) AS n
        FROM pred GROUP BY actual, predicted
    """,
    "zipf_fit": f"""
        WITH toks AS (
          SELECT unnest(regexp_split_to_array(trim(text), '\\s+')) AS token
          FROM documents
        ), tc AS (
          SELECT token, COUNT(*) AS n FROM toks WHERE token <> ''
          GROUP BY token ORDER BY n DESC, token LIMIT {ZIPF_TOPK}
        ), r AS (
          SELECT n, row_number() OVER (ORDER BY n DESC, token) AS rank
          FROM tc
        ), m AS (
          SELECT COUNT(*) AS k, SUM(ln(rank)) AS sx, SUM(ln(n)) AS sy,
                 SUM(ln(rank) * ln(rank)) AS sxx,
                 SUM(ln(rank) * ln(n)) AS sxy
          FROM r
        )
        SELECT CAST(k AS BIGINT) AS n_tokens,
               ROUND((k * sxy - sx * sy) / (k * sxx - sx * sx), 4)
                   AS zipf_slope,
               ROUND((sy - ((k * sxy - sx * sy) / (k * sxx - sx * sx))
                      * sx) / k, 4) AS ln_intercept
        FROM m
    """,
    "doclen_gini": """
        WITH r AS (
          SELECT source, n_chars,
                 row_number() OVER (PARTITION BY source
                                    ORDER BY n_chars) AS i
          FROM documents
        )
        SELECT source,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars,
               ROUND(2.0 * SUM(CAST(i AS HUGEINT) * n_chars)
                         / (COUNT(*) * SUM(n_chars))
                     - (COUNT(*) + 1.0) / COUNT(*), 4) AS gini
        FROM r GROUP BY source
    """,
    "token_stats": """
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens,
               length(text) AS n_chars,
               ROUND(CAST(length(replace(trim(text), ' ', '')) AS DOUBLE)
                     / len(regexp_split_to_array(trim(text), '\\s+')), 4)
                   AS avg_token_len
        FROM documents
    """,
    "source_mixture": r"""
        WITH s AS (
          SELECT source, COUNT(*) AS n_docs,
                 SUM(len(regexp_split_to_array(trim(text), '\s+')))
                     AS n_tokens
          FROM documents GROUP BY source
        ), tot AS (SELECT SUM(n_tokens) AS t FROM s)
        SELECT source, n_docs, CAST(n_tokens AS BIGINT) AS n_tokens,
               ROUND(CAST(n_tokens AS DOUBLE) / tot.t, 4) AS token_frac
        FROM s CROSS JOIN tot
    """,
    "fuzzy_name_pairs": r"""
        WITH v AS (
          SELECT DISTINCT p_brand AS token FROM part
          UNION
          SELECT DISTINCT s_name FROM supplier
        )
        SELECT a.token AS tok_a, b.token AS tok_b
        FROM v a JOIN v b
          ON a.token < b.token
         AND levenshtein(a.token, b.token) <= 1
    """,
    "bigram_logprob": r"""
        WITH t AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), u AS (
          SELECT doc_id, unnest(toks) AS w,
                 CAST(unnest(range(len(toks))) AS BIGINT) AS i
          FROM t
        ), uc AS (
          SELECT w, COUNT(*) AS c FROM u GROUP BY w
        ), v AS (
          SELECT COUNT(*) AS v FROM uc
        ), bg AS (
          SELECT a.doc_id, a.w AS w1, b.w AS w2
          FROM u a JOIN u b ON b.doc_id = a.doc_id AND b.i = a.i + 1
        ), bc AS (
          SELECT w1, w2, COUNT(*) AS c FROM bg GROUP BY w1, w2
        ), sc AS (
          SELECT bg.doc_id, COUNT(*) AS n_bigrams,
                 SUM(ln((bc.c + 1.0) / (uc.c + v.v))) AS lp
          FROM bg
          JOIN bc ON bc.w1 = bg.w1 AND bc.w2 = bg.w2
          JOIN uc ON uc.w = bg.w1
          CROSS JOIN v
          GROUP BY bg.doc_id
        )
        SELECT d.doc_id,
               CAST(COALESCE(sc.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               ROUND(COALESCE(sc.lp / sc.n_bigrams, 0.0), 4)
                   AS mean_logprob
        FROM documents d LEFT JOIN sc USING (doc_id)
    """,
    "unigram_logprob": r"""
        WITH t AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), u AS (
          SELECT doc_id, unnest(toks) AS w FROM t
        ), cnt AS (
          SELECT w, COUNT(*) AS c FROM u GROUP BY w
        ), tot AS (
          SELECT SUM(c) AS n, COUNT(*) AS v FROM cnt
        ), sc AS (
          SELECT u.doc_id, COUNT(*) AS n_tokens,
                 SUM(ln((cnt.c + 1.0) / (tot.n + tot.v))) AS lp
          FROM u JOIN cnt ON cnt.w = u.w CROSS JOIN tot
          GROUP BY u.doc_id
        )
        SELECT doc_id, n_tokens, ROUND(lp / n_tokens, 4) AS mean_logprob
        FROM sc
    """,
    "gopher_quality_filter": rf"""
        WITH t AS (
          SELECT doc_id,
                 regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), s AS (
          SELECT doc_id,
                 len(toks) AS n_words,
                 ROUND(CAST(length(array_to_string(toks, '')) AS DOUBLE)
                       / len(toks), 4) AS mean_word_len,
                 ROUND(CAST(len(list_filter(toks,
                       w -> regexp_matches(w, '[A-Za-z]'))) AS DOUBLE)
                       / len(toks), 4) AS alpha_ratio,
                 len(list_intersect(
                     list_distinct(list_transform(toks, w -> lower(w))),
                     [{_SQL_STOPS}])) AS stop_hits
          FROM t
        )
        SELECT doc_id, n_words, mean_word_len, alpha_ratio, stop_hits,
               CAST(CASE WHEN n_words BETWEEN {GOPHER_MIN_WORDS}
                                          AND {GOPHER_MAX_WORDS}
                          AND mean_word_len BETWEEN {GOPHER_MIN_MEAN_LEN}
                                                AND {GOPHER_MAX_MEAN_LEN}
                          AND alpha_ratio >= {GOPHER_MIN_ALPHA}
                          AND stop_hits >= {GOPHER_MIN_STOPS}
                    THEN 1 ELSE 0 END AS BIGINT) AS passes
        FROM s
    """,
    "repetition_scores": r"""
        WITH t AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), b AS (
          SELECT doc_id, toks, list_transform(
              range(1, greatest(len(toks) - 1, 1) + 1),
              i -> array_to_string(toks[i:i+1], ' ')) AS bgs
          FROM t
        ), ub AS (
          SELECT doc_id, unnest(bgs) AS bg FROM b
        ), mx AS (
          SELECT doc_id, MAX(cnt) AS max_bg FROM (
            SELECT doc_id, bg, COUNT(*) AS cnt FROM ub GROUP BY doc_id, bg
          ) GROUP BY doc_id
        )
        SELECT b.doc_id,
               ROUND(1.0 - CAST(len(list_distinct(toks)) AS DOUBLE)
                     / len(toks), 4) AS dup_token_frac,
               ROUND(CAST(mx.max_bg AS DOUBLE) / len(bgs), 4)
                   AS top_bigram_frac
        FROM b JOIN mx USING (doc_id)
    """,
    "vocab_top": r"""
        WITH toks AS (
          SELECT DISTINCT doc_id,
                 unnest(regexp_split_to_array(trim(text), '\s+')) AS token
          FROM documents
        )
        SELECT token, COUNT(*) AS df FROM toks WHERE token <> ''
        GROUP BY token ORDER BY df DESC, token LIMIT 100
    """,
    "normalize_text": r"""
        -- blank-doc guard: Python str.split() yields 0 tokens for
        -- empty/whitespace-only text, while regexp_split_to_array
        -- yields [''] — the CASE collapses that to [] on both counts
        -- and the hash (md5('') = hash of zero kept tokens)
        SELECT doc_id,
               len(toks) AS n_tokens,
               len(dedup) AS n_tokens_norm,
               md5(COALESCE(array_to_string(dedup, ' '), '')) AS norm_md5
        FROM (
          SELECT doc_id, toks,
                 list_filter(toks, (x, i) -> i = 1 OR x <> toks[i-1]) AS dedup
          FROM (SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN []
                            ELSE regexp_split_to_array(trim(text), '\s+')
                       END AS toks
                FROM documents)
        )
    """,
    "heavy_hitter_tokens": r"""
        WITH toks AS (
          SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
          FROM documents
        )
        SELECT token, COUNT(*) AS n FROM toks WHERE token <> ''
        GROUP BY token ORDER BY n DESC, token LIMIT 50
    """,
    "countmin_tokens": rf"""
        WITH toks AS (
          SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
          FROM documents
        ), tk AS (
          SELECT token FROM toks WHERE token <> ''
        ), exact AS (
          SELECT token, COUNT(*) AS exact_count FROM tk
          GROUP BY token ORDER BY exact_count DESC, token LIMIT {CM_TOPK}
        ), hrows AS (
          SELECT unnest([0, 1, 2, 3]) AS d
        ), cm AS (
          SELECT d,
                 CAST(('0x' || substr(md5(CAST(d AS VARCHAR) || '|'
                     || token), 1, 15)) AS BIGINT) % {CM_W} AS h,
                 COUNT(*) AS c
          FROM tk CROSS JOIN hrows
          GROUP BY d, h
        ), q AS (
          SELECT e.token, e.exact_count, hrows.d,
                 CAST(('0x' || substr(md5(CAST(hrows.d AS VARCHAR) || '|'
                     || e.token), 1, 15)) AS BIGINT) % {CM_W} AS h
          FROM exact e CROSS JOIN hrows
        )
        SELECT q.token, CAST(MIN(cm.c) AS BIGINT) AS est_count,
               q.exact_count
        FROM q JOIN cm ON cm.d = q.d AND cm.h = q.h
        GROUP BY q.token, q.exact_count
    """,
    "bigram_top": r"""
        WITH t AS (
          SELECT doc_id,
                 regexp_split_to_array(trim(text), '\s+') AS toks
          FROM documents
        ), bg AS (
          SELECT unnest(list_transform(
              range(1, len(toks)),
              i -> toks[i] || ' ' || toks[i + 1])) AS bigram
          FROM t WHERE len(toks) >= 2
        )
        SELECT bigram, COUNT(*) AS n FROM bg
        GROUP BY bigram ORDER BY n DESC, bigram LIMIT 100
    """,
    "pii_scan": r"""
        WITH c AS (
          SELECT doc_id,
            len(regexp_extract_all(text, '[\w\.-]+@[\w\.-]+\.\w+'))
                AS n_emails,
            len(regexp_extract_all(text,
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ips,
            len(regexp_extract_all(text,
                '\b(?:\d{4}[-\s]?){3}\d{4}\b')) AS n_cards,
            len(regexp_extract_all(text, '\b\d{3}-\d{2}-\d{4}\b'))
                AS n_ssns,
            len(regexp_extract_all(text, 'AKIA[0-9A-Z]{16}'))
                AS n_aws_keys
          FROM documents
        )
        SELECT doc_id, n_emails, n_ips, n_cards, n_ssns, n_aws_keys,
               CAST(CASE WHEN n_emails + n_ips + n_cards + n_ssns
                              + n_aws_keys > 0
                    THEN 1 ELSE 0 END AS BIGINT) AS any_pii
        FROM c
    """,
    "quality_scores": f"""
        SELECT doc_id,
               ROUND(CAST(len(list_filter(
                     regexp_split_to_array(lower(trim(text)), '\\s+'),
                     x -> x IN ({_SQL_STOPS}))) AS DOUBLE)
                     / len(regexp_split_to_array(trim(text), '\\s+')), 4)
                   AS stopword_ratio,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
        FROM documents
    """,
}

# percentile filter composes the LM-score SQL: same rank rule, same
# 4-decimal rounded scores, so the cut is bit-identical on both engines
ORACLE_SQL["quality_rank"] = f"""
    WITH u AS ({ORACLE_SQL["unigram_logprob"]})
    SELECT doc_id, mean_logprob,
           ROW_NUMBER() OVER (ORDER BY mean_logprob DESC, doc_id) AS rank
    FROM u
"""

ORACLE_SQL["quality_percentile_filter"] = f"""
    WITH u AS ({ORACLE_SQL["unigram_logprob"]}), r AS (
      SELECT doc_id, mean_logprob,
             ROW_NUMBER() OVER (ORDER BY mean_logprob DESC, doc_id) AS rk,
             COUNT(*) OVER () AS n
      FROM u
    )
    SELECT doc_id, mean_logprob FROM r
    WHERE rk <= ({QUALITY_KEEP_NUM} * n) // {QUALITY_KEEP_DEN}
"""

ORACLE_SQL["pmi_bigrams"] = rf"""
    WITH t AS (
      SELECT regexp_split_to_array(trim(text), '\s+') AS toks
      FROM documents WHERE trim(text) <> ''
    ), u AS (
      SELECT unnest(toks) AS w FROM t
    ), uc AS (
      SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM u GROUP BY w
    ), nu AS (
      SELECT SUM(c) AS n FROM uc
    ), bg AS (
      SELECT unnest(list_transform(range(1, len(toks)),
                                   i -> toks[i])) AS w1,
             unnest(list_transform(range(1, len(toks)),
                                   i -> toks[i + 1])) AS w2
      FROM t WHERE len(toks) >= 2
    ), bc AS (
      SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS cnt
      FROM bg GROUP BY w1, w2 HAVING COUNT(*) >= {PMI_MIN_COUNT}
    ), nb AS (
      SELECT CAST(SUM(len(toks) - 1) AS BIGINT) AS n
      FROM t WHERE len(toks) >= 2
    )
    SELECT bc.w1, bc.w2, bc.cnt,
           ROUND(LN(((CAST(bc.cnt AS DOUBLE) * nu.n) * nu.n)
                    / ((CAST(nb.n AS DOUBLE) * ca.c) * cb.c)), 6) AS pmi
    FROM bc CROSS JOIN nu CROSS JOIN nb
    JOIN uc ca ON ca.w = bc.w1
    JOIN uc cb ON cb.w = bc.w2
    ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT {PMI_TOP}
"""

ORACLE_SQL["perplexity_buckets"] = f"""
    WITH u AS ({ORACLE_SQL["unigram_logprob"]}), l AS (
      SELECT u.doc_id, u.mean_logprob, d.lang
      FROM u JOIN documents d USING (doc_id)
    ), r AS (
      SELECT lang, mean_logprob,
             RANK() OVER (PARTITION BY lang ORDER BY mean_logprob) AS rk,
             COUNT(*) OVER (PARTITION BY lang) AS n
      FROM l)
    SELECT lang,
           CASE WHEN rk = 1 OR 3 * (rk - 1) < n - 1 THEN 'head'
                WHEN 3 * (rk - 1) < 2 * (n - 1) THEN 'middle'
                ELSE 'tail' END AS bucket,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           ROUND(SUM(CAST(ROUND(mean_logprob * 10000) AS BIGINT))
                 / COUNT(*) / 10000.0, 4) AS mean_logprob
    FROM r GROUP BY lang, bucket
"""

QUERIES = {
    "token_stats": token_stats,
    "doc_length_histogram": doc_length_histogram,
    "doclen_gini": doclen_gini,
    "zipf_fit": zipf_fit,
    "heaps_law_fit": heaps_law_fit,
    "kl_source_divergence": kl_source_divergence,
    "ams_f2_tokens": ams_f2_tokens,
    "chi2_lang_source": chi2_lang_source,
    "quality_corr_matrix": quality_corr_matrix,
    "naive_bayes_source": naive_bayes_source,
    "lang_source_mi": lang_source_mi,
    "quality_scores": quality_scores,
    "lang_id": lang_id,
    "token_count_bpeish": token_count_bpeish,
    "fingerprints": fingerprints,
    "vocab_top": vocab_top,
    "heavy_hitter_tokens": heavy_hitter_tokens,
    "countmin_tokens": countmin_tokens,
    "normalize_text": normalize_text,
    "bigram_top": bigram_top,
    "repetition_scores": repetition_scores,
    "gopher_quality_filter": gopher_quality_filter,
    "pii_scan": pii_scan,
    "unigram_logprob": unigram_logprob,
    "bigram_logprob": bigram_logprob,
    "fuzzy_name_pairs": fuzzy_name_pairs,
    "quality_percentile_filter": quality_percentile_filter,
    "quality_rank": quality_rank,
    "source_mixture": source_mixture,
    "lang_confusion": lang_confusion,
    "keyword_topk": keyword_topk,
    "perplexity_buckets": perplexity_buckets,
    "pmi_bigrams": pmi_bigrams,
}


# ------------------------------------------ quantized logistic regression

LOGREG_SCALE = 1_048_576      # 2^20 fixed-point probability/weight scale
LOGREG_HALF = LOGREG_SCALE // 2
LOGREG_ITERS = 3
LOGREG_LR_DIV = 16            # effective lr = 1/16 per mean-gradient unit
_LOGREG_SPLIT = 1 << 32       # hi/lo partial-cell split (exact cross-block fold)
_LOGREG_LANGS = ("en", "de", "fr")


def logreg_quality_gd(sf_dir: str, iters: int = LOGREG_ITERS):
    """Quantized logistic-regression FIT by full-batch gradient descent
    — the classifier-training shape behind learned quality filters
    (fastText/CCNet-style doc scoring), value-checkable like
    ``kmeans_fit``: the sigmoid is the HARD sigmoid
    ``clamp(z/4 + 1/2, 0, 1)`` in 2^20 fixed point, so every forward
    pass, gradient and weight update is exact integer arithmetic
    (floor divisions, no floats) and the DuckDB oracle unrolls the
    recurrence as CTEs — the 9th verified iterative algorithm.

    Task: predict the REPETITIVE-DOC label ``y = (2·|distinct toks| <
    |toks|)`` (the boilerplate/low-lexical-diversity cut a quality
    filter learns) from the mean-CENTERED token count — the centering
    statistic ``μ = ⌊Σ toks / n⌋`` comes from its own exact-integer
    distributed pre-pass (the standardization step real GD needs:
    uncentered, the bias gradient is swamped and the fit stalls at the
    majority class). w starts at 0; per iteration
    w_k ← w_k − floor(Σ_i (p_i − y_i·S)·f_ik / (n·LR_DIV)) with
    f = [1, toks − μ].

    Scale shape (canonical distributed GD): weights broadcast in the
    map's closure (K ints), each batch folds to K partial-gradient rows
    — the per-iteration exchange is K rows per block regardless of
    corpus size — and the driver updates the tiny weight vector. The
    integer (toks, y) table is materialized once and reused across
    passes (at 100 TB re-read the pruned parquet instead and let the
    object store spill). Ties: pred = 1 iff p ≥ S/2. Fit quality is
    pinned in pytest: ≥0.9 accuracy vs the 0.58 majority baseline."""
    K = 2

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks = np.empty(len(texts), dtype=np.int64)
        y = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = t.split()
            toks[i] = len(ws)
            y[i] = 1 if 2 * len(set(t.lower().split())) < len(ws) else 0
        return pa.table({
            "doc_id": batch["doc_id"],
            "toks": pa.array(toks),
            "y": pa.array(y),
        })

    ints = scan(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(feats, batch_format="pyarrow",
                  batch_size=8192).materialize()
    n = ints.count()
    mu = ints.sum("toks") // n      # exact integer floor mean

    def _probs(z: np.ndarray) -> np.ndarray:
        # hard sigmoid in fixed point: clamp(floor(z/4) + S/2, 0, S)
        return np.clip(np.floor_divide(z, 4) + LOGREG_HALF,
                       0, LOGREG_SCALE)

    def _fmat(b: pa.Table) -> np.ndarray:
        toks = b.column("toks").to_numpy(zero_copy_only=False)
        F = np.empty((len(toks), K), dtype=np.int64)
        F[:, 0] = 1
        F[:, 1] = toks - mu
        return F

    # the maps read the current ``w``: each pass's fold runs when called
    def grad(b: pa.Table) -> pa.Table:
        F = _fmat(b)
        y = b.column("y").to_numpy(zero_copy_only=False)
        err = _probs(F @ w) - y * LOGREG_SCALE
        # per-batch partial is int64-safe (|err| ≤ S = 2^20, so
        # 8192 rows stay exact for docs up to ~10^8 tokens); the
        # CROSS-block fold is not at ~1e10-doc corpus sizes, so
        # partials ship as hi/lo 2^32 cells (gram_power_iteration's
        # pattern) and the driver reconstructs unbounded ints —
        # exact at any corpus size, like the oracle's HUGEINT SUM
        g = err @ F
        hi = g // _LOGREG_SPLIT
        return pa.table({
            "k": pa.array(np.arange(K, dtype=np.int32)),
            "hi": pa.array(hi, type=pa.int64()),
            "lo": pa.array(g - hi * _LOGREG_SPLIT, type=pa.int64()),
        })

    def final(b: pa.Table) -> pa.Table:
        z = _fmat(b) @ w
        p = _probs(z)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "z": pa.array(z, type=pa.int64()),
            "p": pa.array(p, type=pa.int64()),
            "pred": pa.array((p >= LOGREG_HALF).astype(np.int64)),
            "y": b.column("y"),
        })

    w = np.zeros(K, dtype=np.int64)
    for _ in range(iters):
        small = fold(ints.map_batches(grad, batch_format="pyarrow",
                                      batch_size=8192),
                     "k", {"hi": ("hi", "sum"), "lo": ("lo", "sum")}
                     ).to_pandas().sort_values("k")
        g = [int(h) * _LOGREG_SPLIT + int(l)
             for h, l in zip(small["hi"], small["lo"])]
        # Python // is floor division on exact ints (= np.floor_divide)
        w = np.array([int(wk) - gk // (n * LOGREG_LR_DIV)
                      for wk, gk in zip(w, g)], dtype=np.int64)

    return ints.map_batches(final, batch_format="pyarrow", batch_size=8192)


def _floordiv_sql(a: str, b: str) -> str:
    """Exact floor division in SQL integer arithmetic (DuckDB ``//``
    and ``%`` truncate toward zero; this corrects to floor semantics,
    matching ``np.floor_divide``)."""
    return f"((({a}) - (((({a}) % ({b})) + ({b})) % ({b}))) // ({b}))"


def _logreg_sql(iters: int = LOGREG_ITERS) -> str:
    S, half, K = LOGREG_SCALE, LOGREG_HALF, 2
    zexpr = "w.w0 * f0 + w.w1 * f1"
    p_of = lambda z: (f"LEAST(GREATEST({_floordiv_sql(z, '4')} + {half}, "
                      f"0), {S})")
    rounds = []
    for i in range(1, iters + 1):
        gcols = ", ".join(
            f"SUM(err * f{k}) AS g{k}" for k in range(K))
        wcols = ", ".join(
            f"CAST(w.w{k} - {_floordiv_sql(f'g.g{k}', f'g.n * {LOGREG_LR_DIV}')} AS BIGINT) AS w{k}"
            for k in range(K))
        rounds.append(f"""e{i} AS (
  SELECT f.*, {p_of(f'({zexpr})')} - y * {S} AS err
  FROM f CROSS JOIN w{i - 1} w
), g{i} AS (
  SELECT {gcols}, COUNT(*) AS n FROM e{i}
), w{i} AS (
  SELECT {wcols} FROM w{i - 1} w CROSS JOIN g{i} g
)""")
    w0 = ", ".join(f"CAST(0 AS BIGINT) AS w{k}" for k in range(K))
    return f"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
             AS toks,
         len(list_distinct(regexp_split_to_array(lower(trim(text)),
                                                 '\\s+'))) AS utoks
  FROM documents
), mu AS (
  SELECT SUM(toks) // COUNT(*) AS mu FROM t
), f AS (
  SELECT doc_id,
         CASE WHEN 2 * utoks < toks THEN 1 ELSE 0 END AS y,
         1 AS f0, toks - mu.mu AS f1
  FROM t CROSS JOIN mu
), w0 AS (SELECT {w0}),
{', '.join(rounds)}
SELECT doc_id, CAST(z AS BIGINT) AS z, CAST(p AS BIGINT) AS p,
       CAST(CASE WHEN p >= {half} THEN 1 ELSE 0 END AS BIGINT) AS pred,
       CAST(y AS BIGINT) AS y
FROM (SELECT f.doc_id, f.y, ({zexpr}) AS z,
             {p_of(f'({zexpr})')} AS p
      FROM f CROSS JOIN w{iters} w)
"""


# ---------------------------------------------------- domain quality gate

def domain_quality_gate(sf_dir: str):
    """RefinedWeb-style DOMAIN-level quality gate over the ``source``
    column (the per-domain analog of per-doc quality filtering — at
    crawl scale you drop whole low-quality domains before per-doc
    scoring): per-source token/stopword-hit sums and the keep verdict
    ``ratio_s ≥ 0.9 × ratio_global``, evaluated by exact integer
    cross-multiplication (``hits_s·toks_all·10 ≥ hits_all·toks_s·9``)
    so both engines decide identically with no float boundary.

    Scale shape: one pruned scan folding to per-source partials inside
    each batch (source cardinality is catalog-bounded), a tiny groupby,
    and a driver-side verdict over the handful of source rows."""
    stops = frozenset(STOPWORDS)
    ds = scan(sf_dir, "documents", columns=["text", "source"])

    def cells(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        toks = np.empty(len(texts), dtype=np.int64)
        hits = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = t.strip().lower().split()
            toks[i] = len(ws)
            hits[i] = sum(w in stops for w in ws)
        return pa.table({
            "source": b.column("source"),
            "n_docs": pa.array(np.ones(len(texts), dtype=np.int64)),
            "toks": pa.array(toks),
            "hits": pa.array(hits),
        })

    per_src = combine(ds, "source", _sums("n_docs", "toks", "hits"), cells,
                      batch_size=8192).to_pandas()
    src = per_src["source"].to_numpy()
    n_docs = per_src["n_docs"].to_numpy().astype(np.int64)
    toks = per_src["toks"].to_numpy().astype(np.int64)
    hits = per_src["hits"].to_numpy().astype(np.int64)
    gt, gh = int(toks.sum()), int(hits.sum())
    keep = np.fromiter(
        (1 if int(h) * gt * 10 >= gh * int(tk) * 9 else 0
         for h, tk in zip(hits, toks)), dtype=np.int64, count=len(src))
    ratio = np.where(toks > 0, hits / np.maximum(toks, 1), 0.0)
    return pa.table({
        "source": pa.array(src, type=pa.string()),
        "n_docs": pa.array(n_docs),
        "n_tokens": pa.array(toks),
        "stop_hits": pa.array(hits),
        "stop_ratio": pa.array(round_half_away(ratio, 6),
                               type=pa.float64()),
        "keep_flag": pa.array(keep),
    })


_DOMAIN_GATE_SQL = f"""
WITH p AS (
  SELECT source,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END
             AS toks,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(list_filter(
                  regexp_split_to_array(lower(trim(text)), '\\s+'),
                  x -> x IN ({_SQL_STOPS}))) END AS hits
  FROM documents
), s AS (
  SELECT source, COUNT(*) AS n_docs, SUM(toks) AS toks,
         SUM(hits) AS hits
  FROM p GROUP BY source
), g AS (SELECT SUM(toks) AS gt, SUM(hits) AS gh FROM s)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(toks AS BIGINT) AS n_tokens,
       CAST(hits AS BIGINT) AS stop_hits,
       ROUND(CASE WHEN toks = 0 THEN 0.0
                  ELSE CAST(hits AS DOUBLE) / toks END, 6) AS stop_ratio,
       CAST(CASE WHEN hits * g.gt * 10 >= g.gh * toks * 9
                 THEN 1 ELSE 0 END AS BIGINT) AS keep_flag
FROM s CROSS JOIN g
"""


# ------------------------------------------------------- token fertility

def token_fertility(sf_dir: str):
    """Tokenizer FERTILITY census per language — BPE-ish tokens per
    whitespace word (the standard multi-lingual tokenizer-quality
    metric: fertility ≫ 1 means the tokenizer fragments that
    language): per-lang exact integer sums of both token counts plus
    the rounded ratio. One pruned scan, per-batch fold to the bounded
    lang key space, tiny groupby."""
    ds = scan(sf_dir, "documents", columns=["text", "lang"])

    def cells(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        ws = np.empty(len(texts), dtype=np.int64)
        bp = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws[i] = len(t.split())
            bp[i] = len(_BPEISH.findall(t))
        return pa.table({
            "lang": b.column("lang"),
            "n_docs": pa.array(np.ones(len(texts), dtype=np.int64)),
            "ws": pa.array(ws),
            "bp": pa.array(bp),
        })

    per_lang = combine(ds, "lang", _sums("n_docs", "ws", "bp"), cells,
                       batch_size=8192).to_pandas()
    ws = per_lang["ws"].to_numpy().astype(np.int64)
    bp = per_lang["bp"].to_numpy().astype(np.int64)
    fert = np.where(ws > 0, bp / np.maximum(ws, 1), 0.0)
    return pa.table({
        "lang": pa.array(per_lang["lang"].to_numpy(), type=pa.string()),
        "n_docs": pa.array(
            per_lang["n_docs"].to_numpy().astype(np.int64)),
        "ws_tokens": pa.array(ws),
        "bpeish_tokens": pa.array(bp),
        "fertility": pa.array(round_half_away(fert, 6),
                              type=pa.float64()),
    })


_FERTILITY_SQL = r"""
WITH p AS (
  SELECT lang,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END
             AS ws,
         len(regexp_extract_all(text, '\w+|[^\w\s]')) AS bp
  FROM documents
), s AS (
  SELECT lang, COUNT(*) AS n_docs, SUM(ws) AS ws, SUM(bp) AS bp
  FROM p GROUP BY lang
)
SELECT lang, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(ws AS BIGINT) AS ws_tokens, CAST(bp AS BIGINT) AS bpeish_tokens,
       ROUND(CASE WHEN ws = 0 THEN 0.0
                  ELSE CAST(bp AS DOUBLE) / ws END, 6) AS fertility
FROM s
"""


QUERIES["logreg_quality_gd"] = logreg_quality_gd
QUERIES["domain_quality_gate"] = domain_quality_gate
QUERIES["token_fertility"] = token_fertility
ORACLE_SQL["logreg_quality_gd"] = _logreg_sql()
ORACLE_SQL["domain_quality_gate"] = _DOMAIN_GATE_SQL
ORACLE_SQL["token_fertility"] = _FERTILITY_SQL


def logreg_calibration(sf_dir: str, bins: int = 10):
    """Reliability diagram over :func:`logreg_quality_gd`'s predicted
    probabilities — the CALIBRATION readout a learned quality filter
    ships with (is p≈0.8 right 80% of the time?): predictions bucket
    into ``bins`` equal-width fixed-point probability bins
    (``bin = min(p·bins // S, bins−1)``, integer-exact), each bin
    reports its size, mean predicted probability and observed positive
    rate. Composes on the trained model's final pass: one bounded
    per-batch fold to ≤``bins`` cells, a tiny groupby, float division
    only in the last ≤``bins``-row step."""
    preds = logreg_quality_gd(sf_dir)

    def cells(b: pa.Table) -> pa.Table:
        p = b.column("p").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        bn = np.minimum(p * bins // LOGREG_SCALE, bins - 1)
        return pa.table({
            "bin": pa.array(bn.astype(np.int64)),
            "n": pa.array(np.ones(len(p), dtype=np.int64)),
            "sum_p": pa.array(p, type=pa.int64()),
            "sum_y": pa.array(y, type=pa.int64()),
        })

    per_bin = combine(preds, "bin", _sums("n", "sum_p", "sum_y"), cells,
                      batch_size=8192).to_pandas()
    n = per_bin["n"].to_numpy().astype(np.int64)
    sp = per_bin["sum_p"].to_numpy().astype(np.int64)
    sy = per_bin["sum_y"].to_numpy().astype(np.int64)
    return pa.table({
        "bin": pa.array(per_bin["bin"].to_numpy().astype(np.int64)),
        "n": pa.array(n),
        "mean_p": pa.array(
            round_half_away(sp / (n * float(LOGREG_SCALE)), 6),
            type=pa.float64()),
        "frac_pos": pa.array(round_half_away(sy / n, 6),
                             type=pa.float64()),
    })


def _logreg_calibration_sql(bins: int = 10) -> str:
    return f"""
    WITH pred AS ({_logreg_sql()})
    SELECT CAST(LEAST(p * {bins} // {LOGREG_SCALE}, {bins - 1})
                AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n,
           ROUND(CAST(SUM(p) AS DOUBLE)
                 / (COUNT(*) * {float(LOGREG_SCALE)}), 6) AS mean_p,
           ROUND(CAST(SUM(y) AS DOUBLE) / COUNT(*), 6) AS frac_pos
    FROM pred GROUP BY bin
    """


# -------------------------------------------- temperature mixture weights

MIX_ALPHA = 0.3          # UniMax/mT5-style temperature exponent
MIX_QUANT = 1_000_000


def temperature_mix_weights(sf_dir: str, alpha: float = MIX_ALPHA):
    """Temperature-scaled SOURCE MIXTURE weights — the mT5/UniMax
    sampling-rate computation for multi-source training: sampling
    probability ∝ n_s^α (α<1 upsamples small sources). The power is
    quantized once per source (``floor(n^α · 10^6)``, libm ``pow`` on
    identical doubles in both engines) so the normalizing total is an
    order-free exact integer sum; the reported weight and the implied
    oversample factor (weight·N/n_s) divide exact ints, rounded at
    6 dp. One metadata-only scan folding to per-source counts, then
    driver arithmetic on the catalog-bounded source rows."""
    ds = scan(sf_dir, "documents", columns=["source"])

    def cells(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_docs", pa.array(np.ones(b.num_rows, dtype=np.int64)))

    per_src = combine(ds, "source", _sums("n_docs"), cells,
                      batch_size=8192).to_pandas()
    n = per_src["n_docs"].to_numpy().astype(np.int64)
    w = np.floor(np.power(n.astype(np.float64), alpha)
                 * MIX_QUANT).astype(np.int64)
    total_w, total_n = int(w.sum()), int(n.sum())
    return pa.table({
        "source": pa.array(per_src["source"].to_numpy(),
                           type=pa.string()),
        "n_docs": pa.array(n),
        "w_quant": pa.array(w),
        "weight": pa.array(round_half_away(w / total_w, 6),
                           type=pa.float64()),
        # numerator in float64, mirroring the oracle's CAST-to-DOUBLE —
        # the int64 product w * total_n would wrap at ~1e10-doc corpora
        "oversample": pa.array(
            round_half_away(w.astype(np.float64) * float(total_n)
                            / (float(total_w) * n.astype(np.float64)),
                            6), type=pa.float64()),
    })


_TEMP_MIX_SQL = f"""
WITH s AS (
  SELECT source, COUNT(*) AS n_docs FROM documents GROUP BY source
), q AS (
  SELECT source, n_docs,
         CAST(FLOOR(POWER(CAST(n_docs AS DOUBLE), {MIX_ALPHA})
                    * {MIX_QUANT}) AS BIGINT) AS w_quant
  FROM s
), g AS (SELECT SUM(w_quant) AS tw, SUM(n_docs) AS tn FROM q)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs, w_quant,
       ROUND(CAST(w_quant AS DOUBLE) / g.tw, 6) AS weight,
       ROUND(CAST(w_quant AS DOUBLE) * g.tn
             / (CAST(g.tw AS DOUBLE) * n_docs), 6) AS oversample
FROM q CROSS JOIN g
"""


QUERIES["logreg_calibration"] = logreg_calibration
QUERIES["temperature_mix_weights"] = temperature_mix_weights
ORACLE_SQL["logreg_calibration"] = _logreg_calibration_sql()
ORACLE_SQL["temperature_mix_weights"] = _TEMP_MIX_SQL
