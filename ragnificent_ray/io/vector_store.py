"""Vector-store sink (S12/A6): actor-pool upsert writer.

Re-expresses the reference's Qdrant path (``rag/vector_store.py``):

* connection with bounded retry + exponential backoff
  (``vector_store.py:75-115``),
* batch-100 upserts (``store_documents``, ``vector_store.py:240-316``),
* dimension-mismatch collection recreate (``vector_store.py:272-286``),

as a Ray-Data-first design: the writer is a callable CLASS for
``Dataset.map_batches(VectorSinkStage, concurrency=N)`` — the client
connection is opened once per actor in ``__init__`` and every batch is
sliced into ≤``upsert_batch_size``-point upserts in ``__call__``.

Backend: ``qdrant_client`` when importable (it is not in this sandbox);
otherwise the :class:`LanceAdapterClient` — an append-only parquet
point log under ``{uri}/points/`` with last-write-wins-by-id upsert
semantics applied at read time (``load_points``), matching Qdrant's
observable behavior for store→search round trips. Part files are
content-addressed and written atomically (tmp+rename), so a Ray task
retry after a mid-write actor death cannot duplicate or tear points.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class VectorStoreError(Exception):
    """Base exception (reference ``QdrantError``)."""


class VectorConnectionError(VectorStoreError):
    """Connection failure (reference ``QdrantConnectionError``)."""


class VectorOperationError(VectorStoreError):
    """Operation failure (reference ``QdrantOperationError``)."""


# --------------------------------------------------------------- backend

class LanceAdapterClient:
    """Sandbox vector-store backend over the Lance parquet adapter.

    One "collection" = one directory: ``_collection.json`` records the
    vector dimension; ``points/part-<digest>.parquet`` files are the
    upsert log. Each upsert batch carries a monotonically increasing
    ``_seq`` so :func:`load_points` can resolve duplicate ids
    last-write-wins — the same visible semantics as Qdrant upsert.
    """

    def __init__(self, uri: str):
        self.uri = uri
        self._meta_path = os.path.join(uri, "_collection.json")

    # -- collection lifecycle (initialize_collection parity) ------------

    def collection_dim(self) -> int | None:
        try:
            with open(self._meta_path, encoding="utf-8") as f:
                return int(json.load(f)["vector_size"])
        except (FileNotFoundError, KeyError, ValueError):
            return None

    def ensure_collection(self, vector_size: int, recreate: bool = False):
        """Create the collection if missing; wipe + recreate if asked.

        Concurrent-safe: creation is an atomic rename, and the FIRST
        writer wins (os.replace of the same content is idempotent;
        recreate from two actors converges because the meta content is
        identical for the same dim)."""
        import shutil

        if recreate:
            shutil.rmtree(os.path.join(self.uri, "points"),
                          ignore_errors=True)
        os.makedirs(os.path.join(self.uri, "points"), exist_ok=True)
        tmp = self._meta_path + f".tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"format": "lance-vector-adapter",
                       "vector_size": int(vector_size)}, f)
        os.replace(tmp, self._meta_path)

    # -- data path -------------------------------------------------------

    def upsert(self, points: pa.Table) -> int:
        """Write one upsert batch atomically; content-addressed name so
        a retried task overwrites its own part instead of duplicating."""
        import hashlib

        seq = time.monotonic_ns()
        t = points.append_column(
            "_seq", pa.array([seq] * points.num_rows, type=pa.int64()))
        ids = "".join(points.column("id").to_pylist()[:64])
        digest = hashlib.blake2b(
            f"{points.num_rows}:{ids}".encode(), digest_size=10).hexdigest()
        pdir = os.path.join(self.uri, "points")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, f".part-{digest}.tmp{os.getpid()}")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(pdir, f"part-{digest}.parquet"))
        return points.num_rows

    def count(self) -> int:
        return load_points(self.uri).num_rows


def connect(uri: str, max_retries: int = 3) -> LanceAdapterClient:
    """Open a vector-store client with bounded retry + exponential
    backoff (``vector_store.py:75-115``). Prefers a real ``qdrant_client``
    for ``qdrant://`` URIs when the package exists; everything else (and
    this sandbox) gets the Lance adapter."""
    if uri.startswith("qdrant://"):
        try:  # pragma: no cover - qdrant not installed in sandbox
            import qdrant_client  # noqa: F401
        except ImportError as exc:
            raise VectorConnectionError(
                "qdrant_client not installed; use a path URI for the "
                "Lance adapter backend") from exc
    last = None
    for attempt in range(max_retries):
        try:
            client = LanceAdapterClient(uri)
            os.makedirs(uri, exist_ok=True)  # connection probe
            return client
        except OSError as e:  # pragma: no cover - exercised via fault test
            last = e
            time.sleep(min(2 ** (attempt + 1), 2.0) * 0.01)
    raise VectorConnectionError(
        f"Failed to connect to vector store after {max_retries} retries: "
        f"{last}")


def load_points(uri: str, columns: list[str] | None = None) -> pa.Table:
    """Read the collection applying last-write-wins by id
    (upsert visibility parity with Qdrant)."""
    pdir = os.path.join(uri, "points")
    files = ([os.path.join(pdir, n) for n in sorted(os.listdir(pdir))
              if n.endswith(".parquet")] if os.path.isdir(pdir) else [])
    if not files:
        meta = LanceAdapterClient(uri).collection_dim()
        fields = [("id", pa.string()), ("_seq", pa.int64())]
        if meta:
            fields.insert(1, ("embedding", pa.list_(pa.float32(), meta)))
        return pa.table({n: pa.array([], type=t) for n, t in fields})
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="default")
    # last-write-wins: keep the highest _seq per id
    order = pc.sort_indices(
        t, sort_keys=[("id", "ascending"), ("_seq", "descending")])
    t = t.take(order)
    ids = t.column("id").combine_chunks()
    if t.num_rows > 1:
        differs = pc.not_equal(ids.slice(1), ids.slice(0, t.num_rows - 1))
        keep = np.ones(t.num_rows, dtype=bool)
        keep[1:] = differs.to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(keep))
    t = t.drop_columns(["_seq"])
    return t.select(columns) if columns else t


# ----------------------------------------------------------- sink stage

class VectorSinkStage:
    """Actor-pool upsert writer for ``Dataset.map_batches``.

    ``__init__`` (once per actor): connect with retry, ensure the
    collection exists, and RECREATE it when the configured dimension
    disagrees with the stored one (``vector_store.py:272-286``).
    ``__call__`` (per batch): slice into ≤``upsert_batch_size`` point
    groups and upsert each with bounded retry + reconnect
    (``vector_store.py:288-316``); emits one count row per batch so the
    sink composes as a normal streaming stage.
    """

    def __init__(self, uri: str, vector_size: int,
                 embedding_field: str = "embedding",
                 id_field: str = "id",
                 upsert_batch_size: int = 100,
                 max_retries: int = 3):
        self.uri = uri
        self.embedding_field = embedding_field
        self.id_field = id_field
        self.upsert_batch_size = upsert_batch_size
        self.max_retries = max_retries
        self.client = connect(uri, max_retries=max_retries)
        stored = self.client.collection_dim()
        self.vector_size = int(vector_size)
        self.client.ensure_collection(
            self.vector_size,
            recreate=(stored is not None and stored != self.vector_size))

    def _upsert_retry(self, points: pa.Table) -> int:
        last = None
        for attempt in range(self.max_retries):
            try:
                return self.client.upsert(points)
            except OSError as e:
                last = e
                time.sleep(min(2 ** (attempt + 1), 2.0) * 0.01)
                self.client = connect(self.uri,
                                      max_retries=self.max_retries)
        raise VectorOperationError(
            f"upsert failed after {self.max_retries} retries: {last}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        # documents without an embedding are skipped (store_documents
        # filters them, vector_store.py:262-266)
        if self.embedding_field not in batch.column_names:
            return pa.table({"upserted": pa.array([0], type=pa.int64())})
        emb = batch.column(self.embedding_field)
        # dim mismatch discovered on the data path → recreate, like the
        # reference's first-embedding probe (vector_store.py:272-286).
        # Re-check the STORED dim right before wiping: with an actor pool,
        # a peer may already have recreated at the data dim and written
        # points — recreating again here would rmtree its parts. The
        # re-check NARROWS but does not close that window (two actors
        # can both read the stale dim and both pass recreate=True); it
        # is defense-in-depth only — the race is truly prevented by
        # write_vectors inferring the dim BEFORE the pool starts, so
        # in-pool recreates never fire on the normal path.
        first = next((v for v in emb if v.is_valid), None)
        if first is not None and len(first) != self.vector_size:
            self.vector_size = len(first)
            stored = self.client.collection_dim()
            self.client.ensure_collection(
                self.vector_size,
                recreate=(stored is not None and stored != self.vector_size))
        ids = pc.cast(batch.column(self.id_field), pa.string())
        points = batch.drop_columns([self.id_field]) \
                      .add_column(0, "id", ids)
        total = 0
        for off in range(0, points.num_rows, self.upsert_batch_size):
            total += self._upsert_retry(
                points.slice(off, self.upsert_batch_size))
        return pa.table({"upserted": pa.array([total], type=pa.int64())})


def _infer_vector_size(ds, embedding_field: str = "embedding") -> int:
    """Resolve the embedding dimension from the Dataset itself: the
    schema when the column is a fixed-size list, else a 1-row probe.
    Resolving BEFORE the actor pool launches means no actor ever sees a
    dim mismatch, so the recreate (which wipes points) never races."""
    try:
        field = ds.schema().base_schema.field(embedding_field)
        if pa.types.is_fixed_size_list(field.type):
            return int(field.type.list_size)
    except (KeyError, AttributeError):
        pass
    probe = ds.limit(1).take_batch(1, batch_format="pyarrow")
    val = probe.column(embedding_field)[0].as_py()
    if val is None:
        raise VectorOperationError(
            "cannot infer vector dimension: first embedding is null")
    return len(val)


def write_vectors(ds, uri: str, vector_size: int | None = None,
                  concurrency: int = 2, **stage_kwargs) -> int:
    """Stream a Dataset into the vector store via the actor pool;
    returns total upserted points. ``vector_size=None`` infers the
    dimension from the data before the pool starts."""
    if vector_size is None:
        vector_size = _infer_vector_size(
            ds, stage_kwargs.get("embedding_field", "embedding"))
    counts = ds.map_batches(
        VectorSinkStage,
        fn_constructor_kwargs={"uri": uri, "vector_size": vector_size,
                               **stage_kwargs},
        batch_format="pyarrow",
        batch_size=1024,
        # (1, N): a one-block input starts one actor instead of warning
        concurrency=(1, concurrency),
        num_cpus=0.5,
    )
    total = 0
    for b in counts.iter_batches(batch_size=4096, batch_format="pyarrow"):
        total += int(pc.sum(b.column("upserted")).as_py() or 0)
    return total
