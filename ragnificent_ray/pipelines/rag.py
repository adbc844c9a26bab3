"""RAG pipeline over a documents table: chunk → embed → (dedup) — the
Ray rendering of the reference's ``Pipeline.run_pipeline`` steps
(``rag/pipeline.py:1206-1540``): extract/chunk/embed/store, with the
inter-step JSON files replaced by streaming Dataset stages."""

from __future__ import annotations

import pyarrow as pa

from ..stages.chunk import chunk_batch
from ..stages.embed import HashEmbedder
from .combine import fold
from .inputs import scan


def chunk_documents(sf_dir: str, strategy: str = "semantic",
                    chunk_size: int = 1000, chunk_overlap: int = 200):
    """documents table → chunk rows (deterministic ids; the plain-text
    path of C1/C5 since the synthetic texts carry no markdown)."""
    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])

    def add_url(batch: pa.Table) -> pa.Table:
        urls = [f"https://docs.test/{d}" for d in
                batch.column("doc_id").to_pylist()]
        return batch.append_column("url", pa.array(urls, type=pa.string()))

    return (
        ds.map_batches(add_url, batch_format="pyarrow", batch_size=4096)
        .map_batches(
            lambda b: chunk_batch(b, strategy=strategy, chunk_size=chunk_size,
                                  chunk_overlap=chunk_overlap,
                                  content_col="text", url_col="url",
                                  created_at="1970-01-01T00:00:00"),
            batch_format="pyarrow",
            batch_size=2048,
        )
    )


def embed_documents(sf_dir: str, dim: int = 384):
    """chunk → embed (A4 actor pool); returns id + embedding-norm proof
    columns (norm ≈ 1, dim fixed — FIXTURES §6 invariants)."""
    from ..functions.numeric import round_half_away

    chunks = chunk_documents(sf_dir)
    embedded = chunks.map_batches(
        HashEmbedder, fn_constructor_kwargs={"dim": dim},
        batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=0.5,
    )

    def proof(batch: pa.Table) -> pa.Table:
        import numpy as np

        emb = batch.column("embedding")
        m = np.array(emb.to_pylist(), dtype=np.float64)
        return pa.table({
            "id": batch["id"],
            "source_url": batch["source_url"],
            "dim": pa.array([m.shape[1]] * len(m), type=pa.int64()),
            "l2_norm": pa.array(round_half_away(
                np.linalg.norm(m, axis=1), 4)),
        })

    return embedded.map_batches(proof, batch_format="pyarrow")


def rag_flagship(sf_dir: str):
    """entry() pipeline: chunk + embed the documents table, returning the
    embedded chunk rows (id, content metadata, embedding)."""
    chunks = chunk_documents(sf_dir)
    return chunks.map_batches(
        HashEmbedder, fn_constructor_kwargs={"dim": 384},
        batch_format="pyarrow", batch_size=256, concurrency=2, num_cpus=0.5,
    )


def tfidf_embed(sf_dir: str, max_features: int = 256):
    """TF-IDF vectorizer (A7, ``rag/embedding.py:416-483``) as an honest
    two-pass fit→transform instead of the reference's fit-on-first-batch
    (flagged in SURVEY §2.4 as a divergence risk — our fit sees the
    whole corpus, deterministically).

    Pass 1 (fit): per-batch document-frequency partials → one
    ``combine.fold`` (Arrow ``group_by``, no per-group Python) → small
    vocabulary+idf table on the driver, captured in the transform's closure.
    Pass 2 (transform): block-sparse counts × idf. Output is proof
    columns (nnz + the vector's l2 norm) — the full vector column
    exists transiently and would be the thing written at scale."""
    import numpy as np

    from ..functions.numeric import round_half_away

    ds = scan(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(set(t.lower().split()))
        return pa.table({
            "token": pa.array(list(c.keys()), type=pa.string()),
            "df": pa.array(list(c.values()), type=pa.int64()),
        })

    df_tab = fold(
        ds.map_batches(df_partial, batch_format="pyarrow", batch_size=4096),
        "token", {"df": ("df", "sum")}).to_pandas()
    df_tab = df_tab.sort_values(["df", "token"],
                                ascending=[False, True]).head(max_features)
    vocab = {t: i for i, t in enumerate(df_tab["token"])}
    idf = np.log((1.0 + n_docs) / (1.0 + df_tab["df"].to_numpy())) + 1.0

    def transform(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        m = np.zeros((len(texts), len(vocab)), dtype=np.float64)
        for r, t in enumerate(texts):
            for w in t.lower().split():
                i = vocab.get(w)
                if i is not None:
                    m[r, i] += 1.0
        m *= idf[None, :]
        norms = np.linalg.norm(m, axis=1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "nnz": pa.array((m > 0).sum(axis=1), type=pa.int64()),
            "tfidf_norm": pa.array(round_half_away(norms, 4),
                                   type=pa.float64()),
        })

    return ds.map_batches(transform, batch_format="pyarrow", batch_size=2048)
