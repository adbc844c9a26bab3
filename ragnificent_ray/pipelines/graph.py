"""Graph operators: distributed PageRank over a behaviour-derived graph.

PageRank is the brief's "iterative algorithm" class — a loop of
(join rank to edges → scatter contributions → gather by destination)
that the Dataset API expresses as tagged-union ``groupby().map_groups``
exchanges. The reference has no graph operator; this is brief-driven
(web-scale link analysis is the canonical crawl follow-on — the same
shape ranks the crawl's own link graph).

Scale notes (the part the sandbox can't show):

* **Integer mass.** Ranks are int64 "mass" (start 1_000_000/node,
  teleport base 150_000, damping 85/100 via floor division), not
  floats. Distributed float summation is order-nondeterministic; the
  integer recurrence is bit-exact on any cluster AND in the DuckDB
  oracle, so the driver value-checks an iterative algorithm — normally
  the weakest-checked class.
* **One exchange per iteration.** The gather of iteration *i* groups
  by ``dst % B`` and the scatter of iteration *i+1* groups by
  ``src % B`` — the SAME key space — so they fuse into one
  ``groupby(bucket)`` step: each group sums the incoming contribution
  rows into this round's mass, then immediately re-scatters along its
  co-located edge rows (the whole src group lives in the bucket, so
  outdeg is computed in-group — no degree join). Contributions are
  pre-summed per destination inside the group before they ship, so
  the exchange carries one row per (bucket, dst), not per edge.
* **Edges are bucketed once, ranks are the small moving side.** The
  edge table is materialized keyed by ``src % B`` and unioned into
  every fused step; only the (bucket, dst, share) rows move between
  iterations. The fixed-iteration loop is ONE lazy DAG — no
  per-iteration materialize, driver round-trip, or hash-join actor
  pool; only sort exchanges on a bounded key space (one bucket per
  ~64 MiB input, min 4 so a kilobyte-scale test graph doesn't pay
  64 groups of dispatch overhead — the discipline documented in
  ``pipelines/dedup.py``).
* Dangling nodes (no out-edges) simply contribute nothing; every node
  stays alive because each fused step re-emits a zero-contribution row
  per node it owns, so mass is defined for all nodes every round.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .combine import combine, fold
from .exchange import exchange, hash_join
from .inputs import scan, table_bytes

_MIN_BUCKETS = 4
_INIT_MASS = 1_000_000
_BASE_MASS = 150_000  # 0.15 teleport share of the initial mass
_DAMP_NUM, _DAMP_DEN = 85, 100
_ITERS = 3


def _bucket_count(sf_dir: str, tables: tuple[str, ...]) -> int:
    sz = table_bytes(sf_dir, *tables)
    return max(_MIN_BUCKETS, int(sz // (64 << 20)) + 1)


def _props_k(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized extract of the integer ``k`` from the props JSON."""
    ext = pc.extract_regex(col, pattern=r'"k":\s*(?P<k>\d+)')
    return pc.cast(pc.struct_field(ext, "k"), pa.int64())


def _int_bucket_of(buckets: int):
    def f(arr: np.ndarray) -> np.ndarray:
        return (arr.astype(np.int64) % buckets).astype(np.int32)
    return f


def _str_bucket_of(buckets: int):
    from ..functions.hashing import stable_hash64

    def f(arr: np.ndarray) -> np.ndarray:
        return np.fromiter((stable_hash64(s) % buckets for s in arr),
                           dtype=np.int32, count=len(arr))
    return f


def pagerank_mass(edges, nodes, *, iters: int = _ITERS,
                  buckets: int = _MIN_BUCKETS,
                  node_type: pa.DataType = None):
    """Integer-mass PageRank core over Datasets ``edges`` (src, dst —
    distinct, no self-loops) and ``nodes`` (node — distinct). Node ids
    are int64 by default; pass ``node_type=pa.string()`` for string ids
    (e.g. urls). Returns a Dataset of (node, pagerank_mass). See the
    module docstring for the fused gather+scatter exchange shape."""
    node_type = node_type or pa.int64()
    bucket_of = (_str_bucket_of(buckets) if pa.types.is_string(node_type)
                 else _int_bucket_of(buckets))

    def _np(col) -> np.ndarray:
        return col.to_numpy(zero_copy_only=False)

    def _edge_rows(t: pa.Table) -> pa.Table:
        src = t.column("src")
        n = t.num_rows
        return pa.table({
            "b": pa.array(bucket_of(_np(src))),
            "dst": pa.nulls(n, type=node_type),
            "share": pa.nulls(n, type=pa.int64()),
            "src": src.cast(node_type),
            "edst": t.column("dst").cast(node_type),
        })

    # initial mass expressed in pre-gather share form: the first fused
    # step reconstitutes mass[v] = BASE + (INIT - BASE) = INIT
    def _init(t: pa.Table) -> pa.Table:
        node = t.column("node")
        n = t.num_rows
        return pa.table({
            "b": pa.array(bucket_of(_np(node))),
            "dst": node.cast(node_type),
            "share": pa.array([_INIT_MASS - _BASE_MASS] * n,
                              type=pa.int64()),
            "src": pa.nulls(n, type=node_type),
            "edst": pa.nulls(n, type=node_type),
        })

    ed = edges.map_batches(_edge_rows, batch_format="pyarrow").materialize()

    def _gather(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Sum this bucket's share rows per dst + teleport base.
        Arrow ``group_by`` (hash aggregation, no pandas index build);
        every node owned by the bucket appears — each step re-emits a
        zero-share row per node, so the gather is total."""
        sh = t.filter(pc.is_null(t.column("src")))
        g = (pa.table({"dst": sh.column("dst"), "share": sh.column("share")})
             .group_by("dst").aggregate([("share", "sum")]))
        node = g.column("dst").to_numpy(zero_copy_only=False)
        mass = (g.column("share_sum").to_numpy(zero_copy_only=False)
                .astype(np.int64) + _BASE_MASS)
        return node, mass

    def _step(t: pa.Table) -> pa.Table:
        node, mass = _gather(t)                   # this round's mass
        out_dst = [node]                          # keep every node alive
        out_share = [np.zeros(len(node), dtype=np.int64)]
        e = t.filter(pc.is_valid(t.column("src")))
        if e.num_rows:
            src = e.column("src").to_numpy(zero_copy_only=False)
            edst = e.column("edst").to_numpy(zero_copy_only=False)
            # outdeg + mass lookup via one sort of the bucket's nodes
            order = np.argsort(node, kind="stable")
            node_s, mass_s = node[order], mass[order]
            pos = np.searchsorted(node_s, src)
            # the contract is src ⊆ nodes (every src has a mass row);
            # a silent searchsorted miss would read a NEIGHBORING
            # node's mass and produce plausible-but-wrong ranks, so
            # violations must fail loudly
            if not (np.all(pos < len(node_s))
                    and np.array_equal(node_s[pos], src)):
                raise ValueError(
                    "pagerank: edge src outside the node set")
            _, inv, cnt = np.unique(src, return_inverse=True,
                                    return_counts=True)
            share = (mass_s[pos] * _DAMP_NUM) // (_DAMP_DEN * cnt[inv])
            uniq, inv_d = np.unique(edst, return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv_d, share)         # combiner: pre-sum per dst
            out_dst.append(uniq)
            out_share.append(sums)
        dst_all = np.concatenate(out_dst)
        n = len(dst_all)
        return pa.table({
            "b": pa.array(bucket_of(dst_all)),
            "dst": pa.array(dst_all, type=node_type),
            "share": pa.array(np.concatenate(out_share)),
            "src": pa.nulls(n, type=node_type),
            "edst": pa.nulls(n, type=node_type),
        })

    def _final(t: pa.Table) -> pa.Table:
        node, mass = _gather(t)
        return pa.table({
            "node": pa.array(node, type=node_type),
            "pagerank_mass": pa.array(mass, type=pa.int64()),
        })

    shares = nodes.map_batches(_init, batch_format="pyarrow")
    for _ in range(iters):
        shares = (ed.union(shares)
                  .groupby("b").map_groups(_step, batch_format="pyarrow"))
    return shares.groupby("b").map_groups(_final, batch_format="pyarrow")


def _click_graph(sf_dir: str):
    """(edges, nodes, n_buckets) of the click-transition graph: each
    user's consecutive events (ordered by ts, event_id) form a directed
    edge between their ``props.k`` pages; distinct edges, self-loops
    dropped; nodes are every page seen. Two bounded-key exchanges over
    one read: per-user buckets emit consecutive-pair edge rows AND the
    node ids they saw (tagged), then a hash-bucket distinct pass
    dedupes both kinds in one groupby. Shared by the link-analysis ops
    (:func:`pagerank_clicks`, :func:`hits_clicks`)."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id", "props"])

    def add_k_bucket(b: pa.Table) -> pa.Table:
        k = _props_k(b.column("props"))
        bucket = pc.cast(
            b.column("user_id").to_numpy() % n_buckets, pa.int32())
        return pa.table({"user_id": b.column("user_id"),
                         "ts": b.column("ts"),
                         "event_id": b.column("event_id"),
                         "k": k, "bucket": bucket})

    def pairs_and_nodes(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        k = g.column("k").to_numpy(zero_copy_only=False)
        same = uid[1:] == uid[:-1]
        src, dst = k[:-1][same], k[1:][same]
        keep = src != dst
        e = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
        nodes = np.unique(k)
        out_src = np.concatenate([e[:, 0], nodes]).astype(np.int64)
        out_dst = np.concatenate(
            [e[:, 1], np.full(len(nodes), -1, dtype=np.int64)])
        tag = np.concatenate([np.ones(len(e), dtype=np.int8),
                              np.zeros(len(nodes), dtype=np.int8)])
        eb = ((out_src * np.int64(2654435761) + out_dst)
              % n_buckets).astype(np.int32)
        return pa.table({"src": pa.array(out_src),
                         "dst": pa.array(out_dst),
                         "tag": pa.array(tag),
                         "ebucket": pa.array(eb)})

    def distinct(g: pa.Table) -> pa.Table:
        return (g.select(["src", "dst", "tag"])
                .group_by(["src", "dst", "tag"]).aggregate([]))

    tagged = (ds.map_batches(add_k_bucket, batch_format="pyarrow")
              .groupby("bucket").map_groups(pairs_and_nodes,
                                            batch_format="pyarrow")
              .groupby("ebucket").map_groups(distinct,
                                             batch_format="pyarrow")
              .materialize())

    def _as_edges(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t.column("tag"), 1))
        return pa.table({"src": m.column("src"), "dst": m.column("dst")})

    def _as_nodes(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t.column("tag"), 0))
        return pa.table({"node": m.column("src")})

    edges = tagged.map_batches(_as_edges, batch_format="pyarrow")
    nodes = tagged.map_batches(_as_nodes, batch_format="pyarrow")
    return edges, nodes, n_buckets


def pagerank_clicks(sf_dir: str, iters: int = _ITERS):
    """PageRank over the click-transition graph (see
    :func:`_click_graph`). 3 integer-mass iterations (module
    docstring) — bit-exact against the unrolled-CTE DuckDB oracle."""
    edges, nodes, n_buckets = _click_graph(sf_dir)
    return pagerank_mass(edges, nodes, iters=iters, buckets=n_buckets)


HITS_ITERS = 2  # unnormalized integer power rounds (see hits_clicks)


def hits_clicks(sf_dir: str, iters: int = HITS_ITERS):
    """HITS hubs & authorities (Kleinberg 1999, "Authoritative sources
    in a hyperlinked environment") over the click-transition graph —
    the SIXTH value-checked iterative algorithm: authority(v) =
    Σ_{u→v} hub(u) and hub(u) = Σ_{u→v} authority(v), alternating from
    hub₀ ≡ 1. The recurrence stays in EXACT int64 by running the
    classic power iteration UNNORMALIZED for a fixed 2 rounds (a₁ =
    indegree, h₁, a₂, h₂) — rankings equal the normalized ones (the
    L2 scale-out is rank-invariant), every value is an exact integer
    the unrolled-CTE oracle reproduces bit-for-bit, and no float ever
    rides a nondeterministic combine. Magnitudes grow ~d_max per
    half-round (h₂ ≲ d_max⁴ · N): fine for any graph whose max degree
    keeps d_max⁴·N < 2⁶³ — a production run at larger depth would
    rescale per round (dividing by a power of two preserves exactness)
    before this bound bites.

    Scale shape mirrors :func:`pagerank_mass`'s fused exchange, ONCE
    PER DIRECTION: edge rows materialize twice (bucketed by src for
    the authority gather, by dst for the hub gather) and each
    half-round is one bounded-bucket exchange where values look up via
    a sorted membership probe and shares pre-sum per target before
    leaving the bucket. The final hub fold emits its gathered
    authority values as carry rows, so both scores arrive at the
    output fold without an extra join."""
    edges, nodes, buckets = _click_graph(sf_dir)
    bucket_of = _int_bucket_of(buckets)
    KIND_VAL, KIND_CARRY = 0, 1

    def _np(col) -> np.ndarray:
        return col.to_numpy(zero_copy_only=False)

    def _edge_rows(key: str):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "b": pa.array(bucket_of(_np(t.column(key)))),
                "node": pa.nulls(n, type=pa.int64()),
                "val": pa.nulls(n, type=pa.int64()),
                "kind": pa.array(np.zeros(n, dtype=np.int8)),
                "src": t.column("src"),
                "edst": t.column("dst"),
            })
        return f

    def _init(t: pa.Table) -> pa.Table:
        node = t.column("node")
        n = t.num_rows
        return pa.table({
            "b": pa.array(bucket_of(_np(node))),
            "node": node,
            "val": pa.array(np.ones(n, dtype=np.int64)),
            "kind": pa.array(np.zeros(n, dtype=np.int8)),
            "src": pa.nulls(n, type=pa.int64()),
            "edst": pa.nulls(n, type=pa.int64()),
        })

    def _gather(t: pa.Table, kind: int):
        v = t.filter(pc.and_(pc.is_null(t.column("src")),
                             pc.equal(t.column("kind"), kind)))
        g = (pa.table({"node": v.column("node"), "val": v.column("val")})
             .group_by("node").aggregate([("val", "sum")]))
        return (_np(g.column("node")).astype(np.int64),
                _np(g.column("val_sum")).astype(np.int64))

    def _half_step(key: str, out: str, carry: bool):
        def f(t: pa.Table) -> pa.Table:
            node, val = _gather(t, KIND_VAL)
            out_n = [node]
            out_v = [np.zeros(len(node), dtype=np.int64)]
            out_k = [np.zeros(len(node), dtype=np.int8)]
            e = t.filter(pc.is_valid(t.column("src")))
            if e.num_rows:
                kcol = _np(e.column("src" if key == "src" else "edst"))
                ocol = _np(e.column("edst" if out == "edst" else "src"))
                order = np.argsort(node, kind="stable")
                node_s, val_s = node[order], val[order]
                pos = np.searchsorted(node_s, kcol)
                if not (np.all(pos < len(node_s))
                        and np.array_equal(node_s[pos], kcol)):
                    raise ValueError("hits: edge endpoint outside the "
                                     "node set")
                uniq, inv = np.unique(ocol, return_inverse=True)
                sums = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(sums, inv, val_s[pos])
                out_n.append(uniq)
                out_v.append(sums)
                out_k.append(np.zeros(len(uniq), dtype=np.int8))
            if carry:
                out_n.append(node)
                out_v.append(val)
                out_k.append(np.full(len(node), KIND_CARRY,
                                     dtype=np.int8))
            nodes_all = np.concatenate(out_n)
            n = len(nodes_all)
            return pa.table({
                "b": pa.array(bucket_of(nodes_all)),
                "node": pa.array(nodes_all, type=pa.int64()),
                "val": pa.array(np.concatenate(out_v)),
                "kind": pa.array(np.concatenate(out_k)),
                "src": pa.nulls(n, type=pa.int64()),
                "edst": pa.nulls(n, type=pa.int64()),
            })
        return f

    def _final(t: pa.Table) -> pa.Table:
        node, hub = _gather(t, KIND_VAL)
        cn, cv = _gather(t, KIND_CARRY)
        order = np.argsort(cn, kind="stable")
        cn_s, cv_s = cn[order], cv[order]
        pos = np.searchsorted(cn_s, node)
        if not (np.all(pos < len(cn_s))
                and np.array_equal(cn_s[pos], node)):
            raise ValueError("hits: carry rows missing a node")
        return pa.table({
            "node": pa.array(node, type=pa.int64()),
            "authority": pa.array(cv_s[pos]),
            "hub": pa.array(hub),
        })

    ed_src = edges.map_batches(_edge_rows("src"),
                               batch_format="pyarrow").materialize()
    ed_dst = edges.map_batches(_edge_rows("dst"),
                               batch_format="pyarrow").materialize()
    rows = nodes.map_batches(_init, batch_format="pyarrow")
    for i in range(iters):
        rows = (ed_src.union(rows).groupby("b")
                .map_groups(_half_step("src", "edst", carry=False),
                            batch_format="pyarrow"))
        rows = (ed_dst.union(rows).groupby("b")
                .map_groups(_half_step("edst", "src",
                                       carry=(i == iters - 1)),
                            batch_format="pyarrow"))
    return rows.groupby("b").map_groups(_final, batch_format="pyarrow")


def _hits_sql(iters: int = HITS_ITERS) -> str:
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(f"""a{i} AS (
  SELECT n.node, CAST(COALESCE(SUM(h.v), 0) AS BIGINT) AS v
  FROM nodes n
  LEFT JOIN edges e ON e.dst = n.node
  LEFT JOIN h{i - 1} h ON h.node = e.src
  GROUP BY n.node
)""")
        rounds.append(f"""h{i} AS (
  SELECT n.node, CAST(COALESCE(SUM(a.v), 0) AS BIGINT) AS v
  FROM nodes n
  LEFT JOIN edges e ON e.src = n.node
  LEFT JOIN a{i} a ON a.node = e.dst
  GROUP BY n.node
)""")
    return f"""
WITH ev AS (
  SELECT user_id, ts, event_id,
         CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS k
  FROM events
), pr AS (
  SELECT k AS src,
         LEAD(k) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dst
  FROM ev
), edges AS (
  SELECT DISTINCT src, dst FROM pr WHERE dst IS NOT NULL AND src <> dst
), nodes AS (
  SELECT DISTINCT k AS node FROM ev
), h0 AS (
  SELECT node, CAST(1 AS BIGINT) AS v FROM nodes
), {', '.join(rounds)}
SELECT n.node, a{iters}.v AS authority, h{iters}.v AS hub
FROM nodes n
JOIN a{iters} ON a{iters}.node = n.node
JOIN h{iters} ON h{iters}.node = n.node
"""


def pagerank_links(documents, *, buckets: int = _MIN_BUCKETS,
                   iters: int = _ITERS):
    """PageRank over a crawl's OWN link graph: ``documents`` is a
    Dataset or Arrow table with ``url`` + ``links`` (list<string>, the
    per-page outlinks M15 extracts). Nodes are the crawled pages;
    edges are outlinks whose target was also crawled (self-loops
    dropped). The link-analysis step a tier-crawl pipeline runs right
    after harvest — prioritizing recrawl and weighting training data
    by centrality.

    One exchange builds the graph: edge candidates and page-membership
    rows are tagged and bucketed by ``hash(dst)`` — the same (src, dst)
    pair always lands in one bucket, so membership semi-join AND
    pair-distinct happen in a single in-group pass. String node ids go
    through the generic integer-mass core (rows-only check: the graph
    comes from the crawl world, not a SQL view; semantics pinned by the
    string-id unit test against the python recurrence)."""
    ds = (rd.from_arrow(documents) if isinstance(documents, pa.Table)
          else documents)

    def tag_rows(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        urls = t.column("url").chunk(0) if t.num_rows else \
            pa.array([], type=pa.string())
        lv = t.column("links").chunk(0) if t.num_rows else \
            pa.array([], type=pa.list_(pa.string()))
        par = pc.list_parent_indices(lv)
        src = pc.take(urls, par)
        dst = pc.list_flatten(lv)
        if pa.types.is_struct(dst.type):     # M15 emits {text, url} structs
            dst = pc.struct_field(dst, "url")
        keep = pc.invert(pc.equal(src, dst))
        src, dst = src.filter(keep), dst.filter(keep)
        edges = pa.table({
            "src": src, "dst": dst,
            "tag": pa.array(np.full(len(src), 1, dtype=np.int8)),
        })
        members = pa.table({
            "src": pa.nulls(t.num_rows, type=pa.string()),
            "dst": urls,
            "tag": pa.array(np.full(t.num_rows, 0, dtype=np.int8)),
        })
        out = pa.concat_tables([edges, members])
        hb = _str_bucket_of(buckets)(
            out.column("dst").to_numpy(zero_copy_only=False))
        return out.append_column("hb", pa.array(hb))

    def member_distinct(g: pa.Table) -> pa.Table:
        crawled = (g.filter(pc.equal(g.column("tag"), 0))
                   .select(["dst"]).group_by("dst").aggregate([]))
        e = g.filter(pc.equal(g.column("tag"), 1)).select(["src", "dst"])
        e = e.join(crawled, keys="dst", join_type="left semi")
        return e.group_by(["src", "dst"]).aggregate([])

    tagged = ds.map_batches(tag_rows, batch_format="pyarrow")
    edges = tagged.groupby("hb").map_groups(member_distinct,
                                            batch_format="pyarrow")

    def as_nodes(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("url")})

    nodes = ds.map_batches(as_nodes, batch_format="pyarrow")
    return pagerank_mass(edges, nodes, iters=iters, buckets=buckets,
                         node_type=pa.string())


COVIS_CAP = 256     # skip items hotter than this (pair blow-up guard)
COVIS_MIN_SHARED = 3


def covisitation_pairs(sf_dir: str):
    """User co-visitation graph off the events stream: pairs of users
    who interacted with >= COVIS_MIN_SHARED common ``props.k`` items —
    the co-occurrence construction behind item-item / user-user
    collaborative filtering and session-graph mining.

    Scale shape: distinct (user, item) via a bounded item-hash bucket
    groupby; pair generation runs per-item inside the bucket group
    (the whole item co-locates) with an explicit hot-item cap —
    an item with more than COVIS_CAP distinct users is SKIPPED, because
    its pair set grows quadratically and a hot item (a nav page every
    user touches) carries no collaborative signal; the cap is in the
    oracle too, so the semantics are exact, not approximate. Pair
    counts then combine per (pair-hash bucket) — one bounded exchange,
    pre-summed inside each group."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "props"])

    def ui_partial(b: pa.Table) -> pa.Table:
        item = _props_k(b.column("props")).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "u": b.column("user_id").to_numpy(),
            "item": item,
        }).drop_duplicates()
        df["ib"] = (df["item"].to_numpy() % n_buckets).astype(np.int32)
        return pa.table({
            "u": pa.array(df["u"].to_numpy(), type=pa.int64()),
            "item": pa.array(df["item"].to_numpy(), type=pa.int64()),
            "ib": pa.array(df["ib"].to_numpy()),
        })

    def item_pairs(g: pa.Table) -> pa.Table:
        # vectorized self-join per bucket (the minhash bucket_pairs
        # shape): items outside [2, COVIS_CAP] users are dropped FIRST,
        # so the join blow-up is bounded by CAP × bucket rows
        g = g.select(["u", "item"]).group_by(["u", "item"]).aggregate([])
        cnt = g.group_by("item").aggregate([("u", "count")])
        c = pc.cast(cnt.column("u_count"), pa.int64())
        ok = cnt.filter(pc.and_(pc.greater_equal(c, pa.scalar(2)),
                                pc.less_equal(c, pa.scalar(COVIS_CAP)))
                        ).select(["item"])
        g = g.join(ok, keys="item", join_type="left semi")
        m = g.join(g, keys="item", join_type="inner",
                   left_suffix="_a", right_suffix="_b")
        m = m.filter(pc.less(m.column("u_a"), m.column("u_b")))
        part = m.group_by(["u_a", "u_b"]).aggregate([("item", "count")])
        ua = part.column("u_a").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ub = part.column("u_b").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pb = ((ua * np.int64(2654435761) + ub)
              % n_buckets).astype(np.int32)
        return pa.table({
            "pb": pa.array(pb),
            "user_a": pa.array(ua), "user_b": pa.array(ub),
            "n": pc.cast(part.column("item_count"), pa.int64()),
        })

    def pair_merge(g: pa.Table) -> pa.Table:
        agg = (g.select(["user_a", "user_b", "n"])
               .group_by(["user_a", "user_b"]).aggregate([("n", "sum")]))
        out = pa.table({
            "user_a": pc.cast(agg.column("user_a"), pa.int64()),
            "user_b": pc.cast(agg.column("user_b"), pa.int64()),
            "n_items": pc.cast(agg.column("n_sum"), pa.int64()),
        })
        return out.filter(pc.greater_equal(out.column("n_items"),
                                           COVIS_MIN_SHARED))

    out = (ds.map_batches(ui_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("ib").map_groups(item_pairs, batch_format="pyarrow")
           .groupby("pb").map_groups(pair_merge, batch_format="pyarrow"))
    # a corpus where every item trips the hot-item cap yields ZERO
    # rows — and Ray's to_pandas() drops the schema entirely when every
    # block is empty (even a typed empty union block doesn't survive),
    # so the all-empty case returns the typed Arrow table itself
    empty = pa.table({"user_a": pa.array([], type=pa.int64()),
                      "user_b": pa.array([], type=pa.int64()),
                      "n_items": pa.array([], type=pa.int64())})
    mat = out.union(rd.from_arrow(empty)).materialize()
    if mat.count() == 0:
        return empty
    return mat


def _covis_sql() -> str:
    return f"""
WITH ui AS (
  SELECT DISTINCT user_id AS u,
         CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS item
  FROM events
), ok AS (
  SELECT item FROM ui GROUP BY item
  HAVING COUNT(*) BETWEEN 2 AND {COVIS_CAP}
), p AS (
  SELECT a.u AS user_a, b.u AS user_b
  FROM ui a
  JOIN ui b ON a.item = b.item AND a.u < b.u
  JOIN ok ON ok.item = a.item
)
SELECT user_a, user_b, COUNT(*) AS n_items
FROM p GROUP BY user_a, user_b
HAVING COUNT(*) >= {COVIS_MIN_SHARED}
"""


BASKET_MIN_PAIR = 2   # support floor: pairs co-bought in ≥2 orders
BASKET_TOPK = 50


def basket_lift(sf_dir: str):
    """Market-basket association mining (the pair level of Agrawal et
    al. 1993's Apriori, the retail "beer and diapers" analysis): the
    top-50 part pairs by LIFT = N·n(a,b) / (n(a)·n(b)) among parts
    co-purchased in the same order, with co-purchase count and
    support. Lift > 1 means the pair co-occurs more than independent
    popularity predicts — the association-rule signal.

    Scale shape: the fact table is scanned ONCE (pruned 2-column
    read) and the distinct (order, part) projection is never
    materialized. One order-hash exchange co-locates each order's
    rows; the bucket fold emits a TAGGED union — pair partials
    (vectorized self-merge whose blow-up is bounded by the SCHEMA: an
    order holds ≤7 lineitems, so ≤C(7,2) pairs, pre-summed in-bucket)
    plus per-part count cells and a basket-total sentinel — that one
    second exchange folds by a combined bucket key (pair-hash buckets
    for pairs, part-hash buckets for counts). Only the FOLDED cells
    (support-floored pairs + the catalog-bounded item counts)
    materialize for the two hash-joins that put n(a)/n(b) on each
    surviving pair. Lift divides EXACT integer products (Python
    unbounded ints — N·n_ab overflows int64 at ~10¹⁰ baskets),
    mirroring the oracle's HUGEINT→DOUBLE; the top-50 rank orders by
    the 4-dp rounded lift with the part pair as tiebreak on both
    engines."""
    from ..functions.numeric import round_half_away

    n_buckets = _bucket_count(sf_dir, ("lineitem",))
    ds = scan(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def op_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o": b.column("l_orderkey").to_numpy(),
            "p": b.column("l_partkey").to_numpy(),
        }).drop_duplicates()
        return pa.table({
            "o": pa.array(df["o"].to_numpy(), type=pa.int64()),
            "p": pa.array(df["p"].to_numpy(), type=pa.int64()),
            "ob": pa.array((df["o"].to_numpy() % n_buckets)
                           .astype(np.int32)),
        })

    base = ds.map_batches(op_partial, batch_format="pyarrow",
                          batch_size=65536)

    def ob_fold(g: pa.Table) -> pa.Table:
        # one pass per order bucket emits EVERYTHING downstream needs
        # as a tagged union:
        #   tag 0: in-bucket pre-summed pair partials (a, b, n),
        #          keyed to pair-hash buckets [0, n_buckets)
        #   tag 1: per-part count cells (a=p, n) + one sentinel row
        #          (a=-1) carrying the bucket's distinct-order count,
        #          keyed to part-hash buckets [n_buckets, 2·n_buckets)
        g = g.select(["o", "p"]).group_by(["o", "p"]).aggregate([])
        m = g.join(g, keys="o", join_type="inner",
                   left_suffix="_a", right_suffix="_b")
        m = m.filter(pc.less(m.column("p_a"), m.column("p_b")))
        part = m.group_by(["p_a", "p_b"]).aggregate([("o", "count")])
        pa_a = part.column("p_a").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pa_b = part.column("p_b").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pa_n = pc.cast(part.column("o_count"), pa.int64()).to_numpy(
            zero_copy_only=False)
        cnt = g.group_by("p").aggregate([("o", "count")])
        ip = np.concatenate(
            [cnt.column("p").to_numpy(
                zero_copy_only=False).astype(np.int64), [-1]])
        inn = np.concatenate(
            [pc.cast(cnt.column("o_count"), pa.int64()).to_numpy(
                zero_copy_only=False),
             [pc.count_distinct(g.column("o")).as_py()]])
        kb = np.concatenate([
            ((pa_a * np.int64(2654435761) + pa_b) % n_buckets)
            .astype(np.int32),
            (n_buckets + ip % n_buckets).astype(np.int32),
        ])
        return pa.table({
            "kb": pa.array(kb),
            "tag": pa.array(np.concatenate(
                [np.zeros(len(pa_a), dtype=np.int32),
                 np.ones(len(ip), dtype=np.int32)])),
            "a": pa.array(np.concatenate([pa_a, ip])),
            "b": pa.array(np.concatenate(
                [pa_b, np.zeros(len(ip), dtype=np.int64)])),
            "n": pa.array(np.concatenate([pa_n, inn])),
        })

    def kb_fold(t: pa.Table) -> pa.Table:
        # a kb bucket holds exactly one tag by construction
        if t.column("tag")[0].as_py() == 0:
            g = (t.select(["a", "b", "n"]).group_by(["a", "b"])
                 .aggregate([("n", "sum")]).rename_columns(
                     ["a", "b", "n"]))
            g = g.filter(
                pc.greater_equal(g.column("n"), BASKET_MIN_PAIR))
            tag = np.zeros(g.num_rows, dtype=np.int32)
        else:
            g0 = (t.select(["a", "n"]).group_by("a")
                  .aggregate([("n", "sum")]).rename_columns(
                      ["a", "n"]))
            g = pa.table({
                "a": g0.column("a"),
                "b": pa.array(np.zeros(g0.num_rows, dtype=np.int64)),
                "n": g0.column("n"),
            })
            tag = np.ones(g.num_rows, dtype=np.int32)
        return pa.table({"tag": pa.array(tag), "a": g.column("a"),
                         "b": g.column("b"), "n": g.column("n")})

    folded = (base.groupby("ob")
              .map_groups(ob_fold, batch_format="pyarrow")
              .groupby("kb").map_groups(kb_fold,
                                        batch_format="pyarrow")
              .materialize())   # support-floored pairs + item counts
    n_orders = int(folded.filter(expr="a == -1").take(1)[0]["n"])

    def as_pairs(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("tag"), 0))
        return pa.table({"part_a": b.column("a"),
                         "part_b": b.column("b"),
                         "n_ab": b.column("n")})

    def as_counts(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.equal(b.column("tag"), 1),
                             pc.greater_equal(b.column("a"), 0)))
        return pa.table({"p": b.column("a"), "n_p": b.column("n")})

    pairs = folded.map_batches(as_pairs, batch_format="pyarrow")
    counts = folded.map_batches(as_counts, batch_format="pyarrow")

    def rename_na(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            [{"n_p": "n_a"}.get(c, c) for c in b.column_names])

    joined = hash_join(
        hash_join(pairs, counts, "inner", "part_a", "p")
        .map_batches(rename_na, batch_format="pyarrow"),
        counts, "inner", "part_b", "p")

    def finish(b: pa.Table) -> pa.Table:
        nab = b.column("n_ab").to_pylist()
        na = b.column("n_a").to_pylist()
        nb = b.column("n_p").to_pylist()
        lift = [float(n_orders * x) / float(a * y)
                for x, a, y in zip(nab, na, nb)]
        supp = [float(x) / n_orders for x in nab]
        return pa.table({
            "part_a": b.column("part_a"),
            "part_b": b.column("part_b"),
            "n_ab": b.column("n_ab"),
            "lift": pa.array(round_half_away(np.array(lift), 4),
                             type=pa.float64()),
            "support": pa.array(round_half_away(np.array(supp), 6),
                                type=pa.float64()),
        })

    return (joined.map_batches(finish, batch_format="pyarrow")
            .sort(["lift", "part_a", "part_b"],
                  descending=[True, False, False])
            .limit(BASKET_TOPK))


def _basket_sql() -> str:
    return f"""
WITH lv AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), n AS (SELECT COUNT(DISTINCT o) AS n_orders FROM lv),
ic AS (SELECT p, COUNT(*) AS n_p FROM lv GROUP BY p),
pr AS (
  SELECT a.p AS part_a, b.p AS part_b, COUNT(*) AS n_ab
  FROM lv a JOIN lv b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p
  HAVING COUNT(*) >= {BASKET_MIN_PAIR}
)
SELECT part_a, part_b, CAST(n_ab AS BIGINT) AS n_ab,
       ROUND(CAST(n.n_orders * n_ab AS DOUBLE)
             / CAST(ia.n_p * ib.n_p AS DOUBLE), 4) AS lift,
       ROUND(CAST(n_ab AS DOUBLE) / n.n_orders, 6) AS support
FROM pr JOIN ic ia ON ia.p = part_a
        JOIN ic ib ON ib.p = part_b
        CROSS JOIN n
ORDER BY lift DESC, part_a, part_b LIMIT {BASKET_TOPK}
"""


TRIPLE_MIN = 2      # support floor: triples co-bought in >= 2 orders
TRIPLE_TOPK = 25


def basket_triples(sf_dir: str):
    """Apriori LEVEL-3: the top-25 part TRIPLES by co-purchase
    support — the itemset step above [[basket-lift]]'s pair level
    (bundle-of-three signals pair lift can't see). Same
    order-co-location discipline: distinct (order, part) rows
    co-locate per order-hash bucket, triple generation is TWO chained
    vectorized self-merges whose blow-up is bounded by the ≤7-lineitem
    schema (≤C(7,3)=35 triples per order), pre-summed in-bucket
    before the triple-hash fold; support floor TRIPLE_MIN applies at
    the fold. Exact integer counts, deterministic
    (n DESC, parts) top-k."""
    n_buckets = _bucket_count(sf_dir, ("lineitem",))
    ds = scan(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def op_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o": b.column("l_orderkey").to_numpy(),
            "p": b.column("l_partkey").to_numpy(),
        }).drop_duplicates()
        return pa.table({
            "o": pa.array(df["o"].to_numpy(), type=pa.int64()),
            "p": pa.array(df["p"].to_numpy(), type=pa.int64()),
            "ob": pa.array((df["o"].to_numpy() % n_buckets)
                           .astype(np.int32)),
        })

    def order_triples(g: pa.Table) -> pa.Table:
        g = g.select(["o", "p"]).group_by(["o", "p"]).aggregate([])
        m = g.join(g, keys="o", join_type="inner",
                   left_suffix="_a", right_suffix="_b")
        m = m.filter(pc.less(m.column("p_a"), m.column("p_b")))
        m3 = m.join(g.rename_columns(["o", "p_c"]), keys="o",
                    join_type="inner")
        m3 = m3.filter(pc.less(m3.column("p_b"), m3.column("p_c")))
        part = (m3.group_by(["p_a", "p_b", "p_c"])
                .aggregate([("o", "count")]))
        p_a = part.column("p_a").to_numpy(
            zero_copy_only=False).astype(np.int64)
        p_b = part.column("p_b").to_numpy(
            zero_copy_only=False).astype(np.int64)
        p_c = part.column("p_c").to_numpy(
            zero_copy_only=False).astype(np.int64)
        tb = ((p_a * np.int64(2654435761) + p_b * np.int64(40503)
               + p_c) % n_buckets).astype(np.int32)
        return pa.table({
            "tb": pa.array(tb),
            "part_a": pa.array(p_a),
            "part_b": pa.array(p_b),
            "part_c": pa.array(p_c),
            "n": pc.cast(part.column("o_count"), pa.int64()),
        })

    def triple_fold(g: pa.Table) -> pa.Table:
        agg = (g.select(["part_a", "part_b", "part_c", "n"])
               .group_by(["part_a", "part_b", "part_c"])
               .aggregate([("n", "sum")]))
        out = pa.table({
            "part_a": pc.cast(agg.column("part_a"), pa.int64()),
            "part_b": pc.cast(agg.column("part_b"), pa.int64()),
            "part_c": pc.cast(agg.column("part_c"), pa.int64()),
            "n_orders": pc.cast(agg.column("n_sum"), pa.int64()),
        })
        return out.filter(pc.greater_equal(out.column("n_orders"),
                                           TRIPLE_MIN))

    out = (ds.map_batches(op_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("ob").map_groups(order_triples,
                                     batch_format="pyarrow")
           .groupby("tb").map_groups(triple_fold,
                                     batch_format="pyarrow"))
    # the support floor can empty the result (sf0.1 does) — Ray drops
    # the schema when every block is empty, so union a typed empty
    # block and short-circuit (the covisitation_pairs discipline)
    empty = pa.table({"part_a": pa.array([], type=pa.int64()),
                      "part_b": pa.array([], type=pa.int64()),
                      "part_c": pa.array([], type=pa.int64()),
                      "n_orders": pa.array([], type=pa.int64())})
    mat = out.union(rd.from_arrow(empty)).materialize()
    if mat.count() == 0:
        return empty
    return (mat.sort(["n_orders", "part_a", "part_b", "part_c"],
                     descending=[True, False, False, False])
            .limit(TRIPLE_TOPK))


def _basket_triples_sql() -> str:
    return f"""
WITH lv AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
)
SELECT a.p AS part_a, b.p AS part_b, c.p AS part_c,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM lv a JOIN lv b ON a.o = b.o AND a.p < b.p
          JOIN lv c ON b.o = c.o AND b.p < c.p
GROUP BY a.p, b.p, c.p
HAVING COUNT(*) >= {TRIPLE_MIN}
ORDER BY n_orders DESC, part_a, part_b, part_c LIMIT {TRIPLE_TOPK}
"""


def _orient_fwd(a: np.ndarray, b: np.ndarray,
                deg_a: np.ndarray, deg_b: np.ndarray) -> np.ndarray:
    """True where the edge keeps its (a → b) direction under the
    (degree, id) total order — i.e. endpoint a is the SMALLER one, so
    a hub's edges all point INTO it and out-degree stays ~√(2E)."""
    return (deg_a < deg_b) | ((deg_a == deg_b) & (a < b))


def triangle_count(sf_dir: str):
    """Exact triangle count over the co-visitation graph — the
    clustering-coefficient / community-density primitive of graph
    analytics, in the degree-oriented wedge-join shape that scales.

    Every edge is oriented from its lower to its higher endpoint under
    the (degree, id) total order; each node then emits the pairs of its
    OUT-neighbors as wedges, and a wedge is a triangle iff the closing
    edge exists. Orientation is the scale discipline: out-degree is
    bounded by ~√(2E) (a hub's edges all point INTO it), so per-node
    wedge generation never blows up quadratically on hot nodes, and
    each triangle is generated exactly once (by its smallest node under
    the order). Wedge generation runs vectorized in bounded u-hash
    bucket groups (the self-merge shape); closure is one hash-join of
    the wedge stream against the undirected edge set; degrees attach by
    two joins of a pre-summed per-batch degree fold. Exact integer
    count — the oracle replays the same orientation."""
    ed = covisitation_pairs(sf_dir)
    # hot-item caps can empty the graph (the sf0.1 world does):
    # covisitation_pairs then returns its typed empty Arrow table, and
    # a groupby on a 0-row dataset never runs its map_groups, so
    # downstream joins would see schema-less blocks — short-circuit
    tri = 0 if isinstance(ed, pa.Table) else _triangles(
        ed.materialize(), _bucket_count(sf_dir, ("events",)))[0]
    return pa.table({"n_triangles": pa.array([tri], type=pa.int64())})


def _triangles(ed, n_buckets: int):
    """:func:`triangle_count` over the materialized pair Dataset ``ed``:
    the count and the per-node degree Dataset ``(node, d)`` it oriented
    the edges with."""
    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = np.concatenate([
            b.column("user_a").to_numpy(zero_copy_only=False),
            b.column("user_b").to_numpy(zero_copy_only=False)])
        g = (pa.table({"node": pa.array(nodes, type=pa.int64())})
             .group_by("node").aggregate([("node", "count")]))
        return pa.table({
            "node": g.column("node"),
            "d": pc.cast(g.column("node_count"), pa.int64()),
            "db": pa.array((g.column("node").to_numpy(zero_copy_only=False)
                            % n_buckets).astype(np.int32)),
        })

    def deg_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["node", "d"]).group_by("node")
             .aggregate([("d", "sum")]))
        return pa.table({"node": g.column("node"),
                         "d": g.column("d_sum")})

    deg = (ed.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("db").map_groups(deg_fold, batch_format="pyarrow")
           .materialize())

    def orient(b: pa.Table) -> pa.Table:
        # the FIRST join (on user_a) produced column "d" = deg(user_a),
        # renamed "d_a" before the second join adds "d" = deg(user_b) —
        # getting this backwards counts the same triangles (the total
        # order is arbitrary for the count) but points every hub's
        # edges OUT of it, restoring the quadratic wedge blow-up the
        # orientation exists to prevent
        a = b.column("user_a").to_numpy(zero_copy_only=False)
        bb = b.column("user_b").to_numpy(zero_copy_only=False)
        da = b.column("d_a").to_numpy(zero_copy_only=False)
        dbn = b.column("d").to_numpy(zero_copy_only=False)
        fwd = _orient_fwd(a, bb, da, dbn)
        u = np.where(fwd, a, bb)
        v = np.where(fwd, bb, a)
        return pa.table({
            "u": pa.array(u, type=pa.int64()),
            "v": pa.array(v, type=pa.int64()),
            "ub": pa.array((u % n_buckets).astype(np.int32)),
        })

    def rename_da(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            [{"d": "d_a"}.get(c, c) for c in b.column_names])

    oriented = hash_join(
        hash_join(ed.select_columns(["user_a", "user_b"]), deg, "inner",
                  "user_a", "node")
        .map_batches(rename_da, batch_format="pyarrow"),
        deg, "inner", "user_b", "node",
    ).map_batches(orient, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        g = g.select(["u", "v"])
        m = g.join(g, keys="u", join_type="inner",
                   left_suffix="_x", right_suffix="_y")
        m = m.filter(pc.less(m.column("v_x"), m.column("v_y")))
        return pa.table({
            "user_a": pc.cast(m.column("v_x"), pa.int64()),
            "user_b": pc.cast(m.column("v_y"), pa.int64()),
        })

    closed = hash_join(
        oriented.groupby("ub").map_groups(wedges, batch_format="pyarrow"),
        ed.select_columns(["user_a", "user_b"]), "inner",
        ["user_a", "user_b"])

    def count_partial(b: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([len(b)], type=pa.int64())})

    folded = closed.map_batches(
        count_partial, batch_format="pyarrow").sum("n") or 0
    return int(folded), deg


def clustering_coefficient(sf_dir: str):
    """Global clustering coefficient (transitivity) of the
    co-visitation graph: 3·triangles / wedges, where the wedge census
    W = Σ_v C(deg(v), 2) — how much of the graph's 2-path structure
    actually closes, the single-number community-density gauge.

    Composes :func:`triangle_count` (degree-oriented wedge join) with a
    wedge census that never materializes wedges: each batch of the
    triangle count's per-node degrees emits ONE Σ d(d−1)/2 partial row,
    and the ratio is the only float step (identical ``3.0·T / W``
    expression on both engines). The pair set is computed once."""
    from ..functions.numeric import round_half_away

    def batch_wedges(b: pa.Table) -> pa.Table:
        d = b.column("d").to_numpy()
        return pa.table({"w": pa.array(
            [int((d * (d - 1) // 2).sum())], type=pa.int64())})

    ed = covisitation_pairs(sf_dir)
    if isinstance(ed, pa.Table):  # hot-item caps emptied the graph
        tri = wedges = 0
    else:
        tri, deg = _triangles(ed.materialize(),
                              _bucket_count(sf_dir, ("events",)))
        wedges = int(deg.map_batches(batch_wedges, batch_format="pyarrow")
                     .sum("w") or 0)

    cc = round_half_away(3.0 * tri / wedges, 6) if wedges else 0.0
    return pa.table({
        "n_triangles": pa.array([tri], type=pa.int64()),
        "n_wedges": pa.array([wedges], type=pa.int64()),
        "global_cc": pa.array([cc], type=pa.float64()),
    })


def _triangle_sql() -> str:
    return f"""
WITH covis AS ({_covis_sql()}),
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT user_a AS node FROM covis
    UNION ALL SELECT user_b FROM covis) GROUP BY node
), oe AS (
  SELECT CASE WHEN da.d < db.d OR (da.d = db.d AND c.user_a < c.user_b)
              THEN c.user_a ELSE c.user_b END AS u,
         CASE WHEN da.d < db.d OR (da.d = db.d AND c.user_a < c.user_b)
              THEN c.user_b ELSE c.user_a END AS v
  FROM covis c
  JOIN deg da ON da.node = c.user_a
  JOIN deg db ON db.node = c.user_b
), wedge AS (
  SELECT o1.v AS x, o2.v AS y
  FROM oe o1 JOIN oe o2 ON o1.u = o2.u AND o1.v < o2.v
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
FROM wedge w JOIN covis e ON e.user_a = w.x AND e.user_b = w.y
"""


def _pagerank_sql(iters: int = _ITERS) -> str:
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(f"""r{i} AS (
  SELECT n.node,
         CAST({_BASE_MASS} + COALESCE(
             SUM((m.mass * {_DAMP_NUM}) // ({_DAMP_DEN} * e.d)), 0)
           AS BIGINT) AS mass
  FROM nodes n
  LEFT JOIN ed e ON e.dst = n.node
  LEFT JOIN r{i - 1} m ON m.node = e.src
  GROUP BY n.node
)""")
    return f"""
WITH ev AS (
  SELECT user_id, ts, event_id,
         CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS k
  FROM events
), pr AS (
  SELECT k AS src,
         LEAD(k) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dst
  FROM ev
), edges AS (
  SELECT DISTINCT src, dst FROM pr WHERE dst IS NOT NULL AND src <> dst
), nodes AS (
  SELECT DISTINCT k AS node FROM ev
), deg AS (
  SELECT src, COUNT(*) AS d FROM edges GROUP BY src
), ed AS (
  SELECT e.src, e.dst, dg.d FROM edges e JOIN deg dg ON dg.src = e.src
), r0 AS (
  SELECT node, CAST({_INIT_MASS} AS BIGINT) AS mass FROM nodes
), {', '.join(rounds)}
SELECT node, mass AS pagerank_mass FROM r{iters}
"""


# --------------------------------------------------------- decayed scores

DECAY_MAX_EXP = 31  # weight = 2^(31 - age_days), floored at age 31d


def decayed_item_scores(sf_dir: str):
    """Recency-weighted item popularity with an EXACT exponential
    decay: weight = 2^(MAX_EXP − age_days) relative to the corpus's
    newest event (half-life = 1 day), floored at age 31 — powers of two
    keep every weight an integer, so the decayed score is an exact
    int64 sum (order-independent, oracle-checkable) instead of the
    usual float `exp(−λ·age)` that no two summation orders agree on.

    Two passes: a tiny column-pruned max-ts reduce (the anchor), then
    per-batch (item, weight) partials folding through one groupby —
    the trending/"hotness" ranking shape at exact-arithmetic rigor."""
    ts_ds = scan(sf_dir, "events", columns=["ts"])

    def ts_max(b: pa.Table) -> pa.Table:
        return pa.table({"m": pa.array(
            [pc.max(b.column("ts")).as_py()], type=pa.timestamp("us"))})

    anchor = None
    for b in ts_ds.map_batches(ts_max, batch_format="pyarrow",
                               batch_size=131072) \
                  .iter_batches(batch_size=4096, batch_format="pyarrow"):
        for v in b.column("m").to_pylist():
            if anchor is None or v > anchor:
                anchor = v
    anchor_us = int(np.datetime64(anchor, "us").astype("int64"))

    _DAY_US = 86_400_000_000

    ds = scan(sf_dir, "events", columns=["ts", "props"])

    def cells(b: pa.Table) -> pa.Table:
        item = _props_k(b.column("props")).to_numpy(zero_copy_only=False)
        ts_us = b.column("ts").to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        age = np.minimum((anchor_us - ts_us) // _DAY_US, DECAY_MAX_EXP)
        w = np.int64(1) << (DECAY_MAX_EXP - age)
        return pa.table({
            "item": pa.array(item, type=pa.int64()),
            "w": pa.array(w, type=pa.int64()),
        })

    return combine(ds, "item", {"decayed_score": ("w", "sum"),
                                "n_events": ("w", "count")}, cells)


_DECAY_SQL = f"""
    WITH mx AS (SELECT MAX(ts) AS m FROM events),
    e AS (
      SELECT CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS item,
             LEAST((epoch_us(mx.m) - epoch_us(ts)) // 86400000000,
                   {DECAY_MAX_EXP}) AS age
      FROM events CROSS JOIN mx
    )
    SELECT item,
           CAST(SUM(CAST(1 AS BIGINT) << ({DECAY_MAX_EXP} - age))
                AS BIGINT) AS decayed_score,
           COUNT(*) AS n_events
    FROM e GROUP BY item
"""


# ------------------------------------------------------ set similarity

def event_type_jaccard(sf_dir: str):
    """Jaccard similarity between event types' USER SETS — the
    audience-overlap / set-similarity shape (|A∩B| / |A∪B| over group
    membership sets).

    Scale shape: the user-set intersection is computed WITHOUT
    materializing any set — distinct (user, type) rows co-locate per
    user inside bounded user-hash bucket groups, each user emits its
    ≤T(T−1)/2 type pairs (T = type vocabulary, small by contract) plus
    one membership row per type, and everything folds through one
    pre-summed groupby. The final assembly touches T² rows on the
    driver. Counts are exact integers; only the jaccard ratio is
    rounded — bit-stable vs the oracle."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "event_type"])

    def distinct_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "u": b.column("user_id").to_numpy(),
            "t": b.column("event_type").to_pylist(),
        }).drop_duplicates()
        return pa.table({
            "u": pa.array(df["u"].to_numpy(), type=pa.int64()),
            "t": pa.array(df["t"], type=pa.string()),
            "ub": pa.array((df["u"].to_numpy() % n_buckets)
                           .astype(np.int32)),
        })

    def user_pairs(g: pa.Table) -> pa.Table:
        # vectorized self-join on user (the minhash bucket_pairs
        # shape): pair rows where ta < tb, plus one membership row
        # (t, "") per (user, type) counting the user toward |A| —
        # blow-up bounded by T(T-1)/2 per user, T = type vocabulary
        g = g.select(["u", "t"]).group_by(["u", "t"]).aggregate([])
        m = g.join(g, keys="u", join_type="inner",
                   left_suffix="_a", right_suffix="_b")
        m = m.filter(pc.less(m.column("t_a"), m.column("t_b")))
        pairs = m.group_by(["t_a", "t_b"]).aggregate([("u", "count")])
        member = g.group_by("t").aggregate([("u", "count")])
        return pa.concat_tables([
            pa.table({
                "ta": pairs.column("t_a").cast(pa.string()),
                "tb": pairs.column("t_b").cast(pa.string()),
                "n": pairs.column("u_count").cast(pa.int64()),
            }),
            pa.table({
                "ta": member.column("t").cast(pa.string()),
                "tb": pa.array([""] * member.num_rows,
                               type=pa.string()),
                "n": member.column("u_count").cast(pa.int64()),
            }),
        ])

    folded = fold(
        ds.map_batches(distinct_partial, batch_format="pyarrow",
                       batch_size=65536)
        .groupby("ub")
        .map_groups(user_pairs, batch_format="pyarrow"),
        ["ta", "tb"], {"n": ("n", "sum")}).to_pandas()

    sizes = folded[folded["tb"] == ""].set_index("ta")["n"]
    pairs = folded[folded["tb"] != ""]
    na = pairs["ta"].map(sizes).to_numpy(dtype=np.int64)
    nb = pairs["tb"].map(sizes).to_numpy(dtype=np.int64)
    inter = pairs["n"].to_numpy(dtype=np.int64)
    from ..functions.numeric import round_half_away
    return pa.table({
        "ta": pa.array(pairs["ta"], type=pa.string()),
        "tb": pa.array(pairs["tb"], type=pa.string()),
        "n_common": pa.array(inter, type=pa.int64()),
        "n_a": pa.array(na, type=pa.int64()),
        "n_b": pa.array(nb, type=pa.int64()),
        "jaccard": pa.array(round_half_away(
            inter / (na + nb - inter), 4), type=pa.float64()),
    })


_JACCARD_SQL = """
    WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
    cnt AS (SELECT event_type, COUNT(*) AS n FROM ut GROUP BY event_type),
    inter AS (
      SELECT a.event_type AS ta, b.event_type AS tb, COUNT(*) AS i
      FROM ut a JOIN ut b
        ON a.user_id = b.user_id AND a.event_type < b.event_type
      GROUP BY ta, tb)
    SELECT ta, tb, i AS n_common, ca.n AS n_a, cb.n AS n_b,
           ROUND(CAST(i AS DOUBLE) / (ca.n + cb.n - i), 4) AS jaccard
    FROM inter
    JOIN cnt ca ON ca.event_type = ta
    JOIN cnt cb ON cb.event_type = tb
"""


# ------------------------------------------------- label propagation

_LPA_ITERS = 3


def lpa_communities(sf_dir: str, iters: int = _LPA_ITERS):
    """Community detection by synchronous LABEL PROPAGATION over the
    undirected click-transition graph — the FIFTH value-checked
    distributed iterative algorithm (after PageRank, k-means, min-label
    components, BPE). Classic LPA breaks ties randomly; here the update
    is the deterministic argmax (neighbor-label count DESC, then label
    ASC), isolated nodes keep their label, and labels start as node
    ids — so the whole recurrence is a pure function of the input and
    the DuckDB oracle replays it as one unrolled CTE chain.

    Scale shape mirrors ``pagerank_mass``: edges are bucketed ONCE by
    ``src % B`` and unioned into every fused step; each step gathers
    the incoming label VOTES for the nodes it owns (pre-summed per
    (node, label) before they ship — one row per distinct pair, never
    per edge), resolves the argmax vectorized, and immediately
    re-scatters the new labels along its co-located edges. One bounded
    exchange per iteration, one lazy DAG, nothing corpus-sized on the
    driver."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ds = scan(sf_dir, "events", columns=["user_id", "ts", "event_id", "props"])

    def add_k_bucket(b: pa.Table) -> pa.Table:
        k = _props_k(b.column("props"))
        bucket = pc.cast(
            b.column("user_id").to_numpy() % n_buckets, pa.int32())
        return pa.table({"user_id": b.column("user_id"),
                         "ts": b.column("ts"),
                         "event_id": b.column("event_id"),
                         "k": k, "bucket": bucket})

    def pairs_and_nodes(g: pa.Table) -> pa.Table:
        g = g.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        k = g.column("k").to_numpy(zero_copy_only=False)
        same = uid[1:] == uid[:-1]
        a, b = k[:-1][same], k[1:][same]
        keep = a != b
        lo = np.minimum(a[keep], b[keep])       # undirected orientation
        hi = np.maximum(a[keep], b[keep])
        e = np.unique(np.stack([lo, hi], axis=1), axis=0)
        nodes = np.unique(k)
        out_src = np.concatenate([e[:, 0], nodes]).astype(np.int64)
        out_dst = np.concatenate(
            [e[:, 1], np.full(len(nodes), -1, dtype=np.int64)])
        tag = np.concatenate([np.ones(len(e), dtype=np.int8),
                              np.zeros(len(nodes), dtype=np.int8)])
        eb = ((out_src * np.int64(2654435761) + out_dst)
              % n_buckets).astype(np.int32)
        return pa.table({"src": pa.array(out_src),
                         "dst": pa.array(out_dst),
                         "tag": pa.array(tag),
                         "ebucket": pa.array(eb)})

    def distinct(g: pa.Table) -> pa.Table:
        return (g.select(["src", "dst", "tag"])
                .group_by(["src", "dst", "tag"]).aggregate([]))

    tagged = (ds.map_batches(add_k_bucket, batch_format="pyarrow")
              .groupby("bucket").map_groups(pairs_and_nodes,
                                            batch_format="pyarrow")
              .groupby("ebucket").map_groups(distinct,
                                             batch_format="pyarrow")
              .materialize())

    def _as_edges(t: pa.Table) -> pa.Table:
        # both orientations: every neighbor votes on every endpoint
        m = t.filter(pc.equal(t.column("tag"), 1))
        src = m.column("src").to_numpy(zero_copy_only=False)
        dst = m.column("dst").to_numpy(zero_copy_only=False)
        s = np.concatenate([src, dst])
        d = np.concatenate([dst, src])
        n = len(s)
        return pa.table({
            "b": pa.array((s % n_buckets).astype(np.int32)),
            "node": pa.nulls(n, type=pa.int64()),
            "lbl": pa.nulls(n, type=pa.int64()),
            "cnt": pa.nulls(n, type=pa.int64()),
            "src": pa.array(s, type=pa.int64()),
            "edst": pa.array(d, type=pa.int64()),
        })

    def _init(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t.column("tag"), 0))
        node = m.column("src").to_numpy(zero_copy_only=False)
        n = len(node)
        return pa.table({
            "b": pa.array((node % n_buckets).astype(np.int32)),
            "node": pa.array(node, type=pa.int64()),
            "lbl": pa.array(node, type=pa.int64()),
            "cnt": pa.array(np.zeros(n, dtype=np.int64)),
            "src": pa.nulls(n, type=pa.int64()),
            "edst": pa.nulls(n, type=pa.int64()),
        })

    def _step(t: pa.Table) -> pa.Table:
        state = t.filter(pc.is_null(t.column("src")))
        keeps = state.filter(pc.equal(state.column("cnt"), 0))
        votes = state.filter(pc.greater(state.column("cnt"), 0))
        node_k = keeps.column("node").to_numpy(zero_copy_only=False)
        new_lbl = keeps.column("lbl").to_numpy(zero_copy_only=False).copy()
        order_k = np.argsort(node_k, kind="stable")
        node_s = node_k[order_k]
        if votes.num_rows:
            g = (pa.table({"node": votes.column("node"),
                           "lbl": votes.column("lbl"),
                           "c": votes.column("cnt")})
                 .group_by(["node", "lbl"]).aggregate([("c", "sum")]))
            vn = g.column("node").to_numpy(zero_copy_only=False)
            vl = g.column("lbl").to_numpy(zero_copy_only=False)
            vc = g.column("c_sum").to_numpy(zero_copy_only=False)
            # argmax per node: count DESC, then label ASC
            order = np.lexsort((vl, -vc, vn))
            vn_s, vl_s = vn[order], vl[order]
            first = np.ones(len(vn_s), dtype=bool)
            first[1:] = vn_s[1:] != vn_s[:-1]
            win_n, win_l = vn_s[first], vl_s[first]
            pos = np.searchsorted(node_s, win_n)
            # votes only target owned nodes; a miss means the bucket
            # routing broke — fail loudly, not with a neighbor's label
            if not (np.all(pos < len(node_s))
                    and np.array_equal(node_s[pos], win_n)):
                raise ValueError("lpa: vote target outside the node set")
            new_lbl[order_k[pos]] = win_l
        out = [pa.table({
            "b": pa.array((node_k % n_buckets).astype(np.int32)),
            "node": pa.array(node_k, type=pa.int64()),
            "lbl": pa.array(new_lbl, type=pa.int64()),
            "cnt": pa.array(np.zeros(len(node_k), dtype=np.int64)),
            "src": pa.nulls(len(node_k), type=pa.int64()),
            "edst": pa.nulls(len(node_k), type=pa.int64()),
        })]
        e = t.filter(pc.is_valid(t.column("src")))
        if e.num_rows:
            src = e.column("src").to_numpy(zero_copy_only=False)
            edst = e.column("edst").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(node_s, src)
            if not (np.all(pos < len(node_s))
                    and np.array_equal(node_s[pos], src)):
                raise ValueError("lpa: edge src outside the node set")
            src_lbl = new_lbl[order_k[pos]]
            g = (pa.table({"node": pa.array(edst, type=pa.int64()),
                           "lbl": pa.array(src_lbl, type=pa.int64()),
                           "c": pa.array(np.ones(len(edst),
                                                 dtype=np.int64))})
                 .group_by(["node", "lbl"]).aggregate([("c", "sum")]))
            vn = g.column("node").to_numpy(zero_copy_only=False)
            n = len(vn)
            out.append(pa.table({
                "b": pa.array((vn % n_buckets).astype(np.int32)),
                "node": g.column("node"),
                "lbl": g.column("lbl"),
                "cnt": g.column("c_sum"),
                "src": pa.nulls(n, type=pa.int64()),
                "edst": pa.nulls(n, type=pa.int64()),
            }))
        return pa.concat_tables(out)

    def _final(t: pa.Table) -> pa.Table:
        keeps = t.filter(
            pc.and_(pc.is_null(t.column("src")),
                    pc.equal(t.column("cnt"), 0)))
        return pa.table({"item": keeps.column("node"),
                         "community": keeps.column("lbl")})

    ed = tagged.map_batches(_as_edges, batch_format="pyarrow")
    state = tagged.map_batches(_init, batch_format="pyarrow")
    # iters+1 fused steps: the first is the bootstrap scatter (no votes
    # in flight yet, labels stay l0), each later step applies update i
    for _ in range(iters + 1):
        state = (ed.union(state)
                 .groupby("b").map_groups(_step, batch_format="pyarrow"))
    return state.groupby("b").map_groups(_final, batch_format="pyarrow")


def _lpa_sql(iters: int = _LPA_ITERS) -> str:
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(f"""v{i} AS (
  SELECT e.dst AS node, l.lbl, CAST(COUNT(*) AS BIGINT) AS c
  FROM edges e JOIN l{i - 1} l ON l.node = e.src
  GROUP BY e.dst, l.lbl
), w{i} AS (
  SELECT node, lbl FROM (
    SELECT node, lbl,
           ROW_NUMBER() OVER (PARTITION BY node
                              ORDER BY c DESC, lbl) AS rn
    FROM v{i}) WHERE rn = 1
), l{i} AS (
  SELECT n.node, COALESCE(w.lbl, p.lbl) AS lbl
  FROM nodes n
  JOIN l{i - 1} p ON p.node = n.node
  LEFT JOIN w{i} w ON w.node = n.node
)""")
    return f"""
WITH ev AS (
  SELECT user_id, ts, event_id,
         CAST(regexp_extract(props, '[0-9]+') AS BIGINT) AS k
  FROM events
), pr AS (
  SELECT k AS a,
         LEAD(k) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS b
  FROM ev
), ue AS (
  SELECT DISTINCT LEAST(a, b) AS u, GREATEST(a, b) AS v
  FROM pr WHERE b IS NOT NULL AND a <> b
), edges AS (
  SELECT u AS src, v AS dst FROM ue
  UNION ALL
  SELECT v AS src, u AS dst FROM ue
), nodes AS (
  SELECT DISTINCT k AS node FROM ev
), l0 AS (
  SELECT node, node AS lbl FROM nodes
), {', '.join(rounds)}
SELECT node AS item, lbl AS community FROM l{iters}
"""


_DEG_POW10 = np.array([10 ** k for k in range(1, 19)], dtype=np.int64)


def degree_distribution(sf_dir: str):
    """Degree distribution of the co-visitation graph, bucketed by
    decimal digit count (1 = deg <10, 2 = <100, …) — the first plot a
    graph pipeline draws: is this power-law (hubs) or flat, and does
    the hub-cap discipline need to change?

    Per-batch (node, count) degree partials fold in bounded node-hash
    buckets (each bucket emits only its ≤19 digit-cells), then one
    ≤19-key fold. Digit bucketing is an integer ``searchsorted``
    against powers of ten — same exactness rule as
    ``interarrival_histogram``."""
    n_buckets = _bucket_count(sf_dir, ("events",))
    ed = covisitation_pairs(sf_dir)
    if isinstance(ed, pa.Table):  # hot-item caps emptied the graph
        return pa.table({"digits": pa.array([], type=pa.int64()),
                         "n_nodes": pa.array([], type=pa.int64())})

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = np.concatenate([
            b.column("user_a").to_numpy(zero_copy_only=False),
            b.column("user_b").to_numpy(zero_copy_only=False)])
        g = (pa.table({"node": pa.array(nodes, type=pa.int64())})
             .group_by("node").aggregate([("node", "count")]))
        return pa.table({
            "node": g.column("node"),
            "d": pc.cast(g.column("node_count"), pa.int64()),
            "db": pa.array(
                (g.column("node").to_numpy(zero_copy_only=False)
                 % n_buckets).astype(np.int32)),
        })

    def bucket_cells(t: pa.Table) -> pa.Table:
        g = (t.select(["node", "d"]).group_by("node")
             .aggregate([("d", "sum")]))
        deg = g.column("d_sum").to_numpy()
        digits = np.searchsorted(_DEG_POW10, deg, side="right") + 1
        counts = np.bincount(digits, minlength=20)
        nz = np.nonzero(counts)[0]
        return pa.table({"digits": pa.array(nz, type=pa.int64()),
                         "n_nodes": pa.array(counts[nz],
                                             type=pa.int64())})

    return fold(ed.map_batches(deg_partial, batch_format="pyarrow")
                .groupby("db").map_groups(bucket_cells,
                                          batch_format="pyarrow"),
                "digits", {"n_nodes": ("n_nodes", "sum")})


def _degree_distribution_sql() -> str:
    return f"""
WITH covis AS ({_covis_sql()}),
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT user_a AS node FROM covis
    UNION ALL SELECT user_b FROM covis) GROUP BY node
)
SELECT CAST(LENGTH(CAST(d AS VARCHAR)) AS BIGINT) AS digits,
       CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY digits
"""


def _clustering_coefficient_sql() -> str:
    return f"""
WITH tri AS ({_triangle_sql()}),
covis AS ({_covis_sql()}),
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT user_a AS node FROM covis
    UNION ALL SELECT user_b FROM covis) GROUP BY node
), w AS (
  SELECT CAST(COALESCE(SUM(d * (d - 1) // 2), 0) AS BIGINT) AS wedges
  FROM deg
)
SELECT tri.n_triangles, w.wedges AS n_wedges,
       CASE WHEN w.wedges > 0
            THEN ROUND(3.0 * tri.n_triangles / w.wedges, 6)
            ELSE 0.0 END AS global_cc
FROM tri CROSS JOIN w
"""


def graph_assortativity(sf_dir: str):
    """Degree assortativity of the co-visitation graph (Newman 2002,
    "Assortative mixing in networks"): the Pearson correlation of
    endpoint degrees over edges — positive means hubs attach to hubs
    (social cores), negative means hub-spoke mixing (web and
    infrastructure graphs). The one-number mixing gauge next to
    ``degree_distribution``'s shape plot: together they say whether
    the hot-key discipline should expect clustered or star skew.

    Exact by the integer-moment discipline (the
    ``price_quantity_corr`` shape on graph data): degrees are exact
    ints from the bounded node-hash bucket fold, two hash-joins put
    (deg_a, deg_b) on every edge, and each batch folds to ONE int64
    row of Newman's edge moments (M, Σ(dₐ+d_b), Σ(dₐ²+d_b²),
    Σ(dₐ·d_b)); the per-block rows stream to the driver where Python
    unbounded ints combine order-independently, and
    r = (4M·Sp − S1²)/(2M·S2 − S1²) divides exact integers ONCE —
    mirroring the oracle's HUGEINT arithmetic term for term."""
    from ..functions.numeric import round_half_away

    n_buckets = _bucket_count(sf_dir, ("events",))
    ed = covisitation_pairs(sf_dir)
    if isinstance(ed, pa.Table):  # hot-item caps emptied the graph
        return pa.table({
            "n_edges": pa.array([0], type=pa.int64()),
            "n_nodes": pa.array([0], type=pa.int64()),
            "assortativity": pa.array([0.0], type=pa.float64()),
        })
    ed = ed.materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = np.concatenate([
            b.column("user_a").to_numpy(zero_copy_only=False),
            b.column("user_b").to_numpy(zero_copy_only=False)])
        g = (pa.table({"node": pa.array(nodes, type=pa.int64())})
             .group_by("node").aggregate([("node", "count")]))
        return pa.table({
            "node": g.column("node"),
            "d": pc.cast(g.column("node_count"), pa.int64()),
            "db": pa.array((g.column("node").to_numpy(zero_copy_only=False)
                            % n_buckets).astype(np.int32)),
        })

    def deg_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["node", "d"]).group_by("node")
             .aggregate([("d", "sum")]))
        return pa.table({"node": g.column("node"),
                         "d": g.column("d_sum")})

    deg = (ed.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("db").map_groups(deg_fold, batch_format="pyarrow")
           .materialize())
    n_nodes = deg.count()

    def rename_da(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            [{"d": "d_a"}.get(c, c) for c in b.column_names])

    joined = hash_join(
        hash_join(ed.select_columns(["user_a", "user_b"]), deg, "inner",
                  "user_a", "node")
        .map_batches(rename_da, batch_format="pyarrow"),
        deg, "inner", "user_b", "node")

    _CELL = 1 << 62

    def _cells(v: int) -> list[int]:
        # split an unbounded int into int64-safe addends (the driver
        # recombines with Python ints) — squared hub degrees can
        # exceed int64 at extreme skew, so no partial may wrap
        out: list[int] = []
        while v >= _CELL or v <= -_CELL:
            step = _CELL if v > 0 else -_CELL
            out.append(step)
            v -= step
        out.append(v)
        return out

    def moments(b: pa.Table) -> pa.Table:
        # object dtype: exact unbounded-int sums (t_closeness
        # discipline) — int64 da*da silently wraps on extreme hubs
        da = b.column("d_a").to_numpy(zero_copy_only=False) \
            .astype(object)
        db_ = b.column("d").to_numpy(zero_copy_only=False) \
            .astype(object)
        cols = {
            "m": [len(da)],
            "s1": _cells(int((da + db_).sum())) if len(da) else [0],
            "s2": _cells(int((da * da + db_ * db_).sum()))
            if len(da) else [0],
            "sp": _cells(int((da * db_).sum())) if len(da) else [0],
        }
        n = max(len(v) for v in cols.values())
        return pa.table({k: pa.array(v + [0] * (n - len(v)),
                                     type=pa.int64())
                         for k, v in cols.items()})

    tot = {k: 0 for k in ("m", "s1", "s2", "sp")}
    for b in joined.map_batches(moments, batch_format="pyarrow") \
                   .iter_batches(batch_size=4096, batch_format="pyarrow"):
        for k in tot:
            tot[k] += sum(b.column(k).to_pylist())  # exact Python ints
    num = 4 * tot["m"] * tot["sp"] - tot["s1"] ** 2
    den = 2 * tot["m"] * tot["s2"] - tot["s1"] ** 2
    r = round_half_away(float(num) / float(den), 4) if den else 0.0
    return pa.table({
        "n_edges": pa.array([tot["m"]], type=pa.int64()),
        "n_nodes": pa.array([n_nodes], type=pa.int64()),
        "assortativity": pa.array([r], type=pa.float64()),
    })


def _assortativity_sql() -> str:
    return f"""
WITH covis AS ({_covis_sql()}),
deg AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT user_a AS node FROM covis
    UNION ALL SELECT user_b FROM covis) GROUP BY node
), ej AS (
  SELECT da.d AS d_a, db.d AS d_b
  FROM covis JOIN deg da ON da.node = covis.user_a
             JOIN deg db ON db.node = covis.user_b
), m AS (
  SELECT COUNT(*) AS m,
         COALESCE(SUM(CAST(d_a + d_b AS HUGEINT)), 0) AS s1,
         COALESCE(SUM(CAST(d_a AS HUGEINT) * d_a
                      + CAST(d_b AS HUGEINT) * d_b), 0) AS s2,
         COALESCE(SUM(CAST(d_a AS HUGEINT) * d_b), 0) AS sp
  FROM ej
), n AS (SELECT COUNT(*) AS n_nodes FROM deg)
SELECT CAST(m.m AS BIGINT) AS n_edges,
       CAST(n.n_nodes AS BIGINT) AS n_nodes,
       CASE WHEN 2 * m.m * s2 - s1 * s1 = 0 THEN 0.0
            ELSE ROUND(CAST(4 * m.m * sp - s1 * s1 AS DOUBLE)
                       / CAST(2 * m.m * s2 - s1 * s1 AS DOUBLE), 4)
       END AS assortativity
FROM m CROSS JOIN n
"""


BFS_ROUNDS = 4
BFS_MIN_PAIR = 2   # same co-purchase support floor as basket_lift


def _copurchase_pair_parts(sf_dir: str, n_buckets: int):
    """Per-pair-bucket partial rows (pb, p_a, p_b, size) of the part
    co-purchase graph — the distinct-(order, part) self-merge shared
    by :func:`copurchase_bfs` and :func:`copurchase_kcore`; callers
    fold the partials per pair bucket and apply the BFS_MIN_PAIR
    support floor. Runs when called; the result is materialized."""
    ds = scan(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def op_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o": b.column("l_orderkey").to_numpy(),
            "p": b.column("l_partkey").to_numpy(),
        }).drop_duplicates()
        return pa.table({
            "o": pa.array(df["o"].to_numpy(), type=pa.int64()),
            "p": pa.array(df["p"].to_numpy(), type=pa.int64()),
            "ob": pa.array((df["o"].to_numpy() % n_buckets)
                           .astype(np.int32)),
        })

    def order_pairs(g: pa.Table) -> pa.Table:
        g = g.select(["o", "p"]).group_by(["o", "p"]).aggregate([])
        m = g.join(g, keys="o", join_type="inner",
                   left_suffix="_a", right_suffix="_b")
        m = m.filter(pc.less(m.column("p_a"), m.column("p_b")))
        part = m.group_by(["p_a", "p_b"]).aggregate([("o", "count")])
        p_a = part.column("p_a").to_numpy(
            zero_copy_only=False).astype(np.int64)
        p_b = part.column("p_b").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pb = ((p_a * np.int64(2654435761) + p_b)
              % n_buckets).astype(np.int32)
        return pa.table({
            "pb": pa.array(pb),
            "p_a": pa.array(p_a), "p_b": pa.array(p_b),
            "size": pc.cast(part.column("o_count"), pa.int64()),
        })

    parts = (ds.map_batches(op_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby("ob").map_groups(order_pairs, batch_format="pyarrow"))
    # the partials come out as wide as the read, and a sort-based
    # map_groups is as wide as its input (the BFS rounds widen by it
    # each round); regrouped into the exchange's byte-sized partitions,
    # the callers' rounds no longer scale with the read's block count.
    # With lineitem read as 8 blocks (sf0.1, 4 CPUs, medians of 7 against
    # the one-block read): copurchase_bfs 3.02 -> 4.63 s without the
    # regroup, 2.62 -> 1.93 s with it
    return exchange([(parts, ["pb"])], _rows)


def _rows(t: pa.Table) -> pa.Table:
    return t


def copurchase_bfs(sf_dir: str):
    """Single-source breadth-first distances over the part
    co-purchase graph (parts linked when ≥BFS_MIN_PAIR orders bought
    both): exact hop distance from the smallest part id, up to
    BFS_ROUNDS hops — the SEVENTH exactly-verified iterative
    algorithm (after PageRank, HITS, k-means, PQ, BPE, LPA), and the
    reachability primitive behind graph-radius and related-item
    expansion queries.

    Scale shape — the fused gather+scatter discipline of
    ``pagerank_mass`` (graph.py:20-27) on a min-fold: edges live in
    bounded node-hash buckets (materialized once, unioned into every
    round); distances and frontier-candidate rows ride the SAME
    bucket key, so each round is ONE ``groupby(bucket)`` exchange
    whose groups (a) min-fold candidates into settled distances and
    (b) scatter dist+1 rows along co-located edges for nodes IMPROVED
    this round only — the frontier, so total scatter work is O(E)
    over the whole run, not O(E·rounds). All-integer min recurrence:
    bit-exact on any cluster and in the oracle, which replays the
    recurrence as an unrolled CTE chain (scatter-from-all-settled in
    SQL is equivalent under the min fold — redundant candidates can
    never beat a settled minimum)."""
    n_buckets = _bucket_count(sf_dir, ("lineitem",))

    def pair_edges(g: pa.Table) -> pa.Table:
        agg = (g.select(["p_a", "p_b", "size"])
               .group_by(["p_a", "p_b"]).aggregate([("size", "sum")]))
        keep = (agg.column("size_sum").to_numpy(zero_copy_only=False)
                >= BFS_MIN_PAIR)
        a = agg.column("p_a").to_numpy(
            zero_copy_only=False)[keep].astype(np.int64)
        b = agg.column("p_b").to_numpy(
            zero_copy_only=False)[keep].astype(np.int64)
        # both directions, tagged kind 0, bucketed by SRC node
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table({
            "k": pa.array(np.zeros(len(u), dtype=np.int64)),
            "a": pa.array(u), "b": pa.array(v),
            "bk": pa.array((u % n_buckets).astype(np.int32)),
        })

    und = (_copurchase_pair_parts(sf_dir, n_buckets)
           .groupby("pb").map_groups(pair_edges, batch_format="pyarrow")
           .materialize())
    empty = pa.table({"node": pa.array([], type=pa.int64()),
                      "dist": pa.array([], type=pa.int64())})
    if und.count() == 0:
        return empty
    src = int(und.min("a"))

    state = rd.from_arrow(pa.table({
        "k": pa.array([2], type=pa.int64()),
        "a": pa.array([src], type=pa.int64()),
        "b": pa.array([0], type=pa.int64()),
        "bk": pa.array([src % n_buckets], type=pa.int32()),
    }))

    def step(g: pa.Table) -> pa.Table:
        kcol = g.column("k")
        e = g.filter(pc.equal(kcol, 0))
        newd = (g.filter(pc.greater(kcol, 0)).select(["a", "b"])
                .group_by("a").aggregate([("b", "min")]))
        old = (g.filter(pc.equal(kcol, 1)).select(["a", "b"])
               .group_by("a").aggregate([("b", "min")])
               .rename_columns(["a", "ob"]))
        mm = newd.join(old, keys="a", join_type="left outer")
        filled = pc.fill_null(
            mm.column("ob"),
            pa.scalar(np.iinfo(np.int64).max, pa.int64()))
        imp = mm.filter(pc.or_kleene(
            pc.is_null(mm.column("ob")),
            pc.less(mm.column("b_min"), filled)))
        na = newd.column("a").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ks = [np.ones(len(na), dtype=np.int64)]
        as_ = [na]
        bs = [newd.column("b_min").to_numpy(
            zero_copy_only=False).astype(np.int64)]
        if imp.num_rows and e.num_rows:
            sc = e.select(["a", "b"]).join(
                imp.select(["a", "b_min"]).rename_columns(["a", "dist"]),
                keys="a", join_type="inner")
            dst = sc.column("b").to_numpy(
                zero_copy_only=False).astype(np.int64)
            ks.append(np.full(len(dst), 2, dtype=np.int64))
            as_.append(dst)
            bs.append(sc.column("dist").to_numpy(
                zero_copy_only=False).astype(np.int64) + 1)
        k = np.concatenate(ks)
        a = np.concatenate(as_)
        bb = np.concatenate(bs)
        return pa.table({
            "k": pa.array(k), "a": pa.array(a), "b": pa.array(bb),
            "bk": pa.array((a % n_buckets).astype(np.int32)),
        })

    for _ in range(BFS_ROUNDS):
        state = (und.union(state).groupby("bk")
                 .map_groups(step, batch_format="pyarrow"))

    def final_fold(g: pa.Table) -> pa.Table:
        s = g.filter(pc.greater(g.column("k"), 0))
        newd = (s.select(["a", "b"]).group_by("a")
                .aggregate([("b", "min")]))
        return pa.table({
            "node": pc.cast(newd.column("a"), pa.int64()),
            "dist": pc.cast(newd.column("b_min"), pa.int64()),
        })

    return (state.groupby("bk")
            .map_groups(final_fold, batch_format="pyarrow"))


KCORE_K = 2
KCORE_ROUNDS = 3


def copurchase_kcore(sf_dir: str, k: int = KCORE_K,
                     rounds: int = KCORE_ROUNDS):
    """Fixed-round k-core PEELING of the part co-purchase graph
    (k=2, 3 rounds) — the EIGHTH exactly-verified iterative
    algorithm: each round drops nodes with degree < k and the edges
    touching them, converging toward the 2-core (the graph's cyclic
    backbone, where co-purchase communities actually live; pendant
    parts peel away). Output: surviving nodes with their residual
    degree after the final round.

    Scale shape: each round is one bounded node-bucket degree fold
    plus TWO hash-partitioned left_semi joins filtering the
    edge set by the keep set — no driver state beyond the loop
    counter; all-integer set semantics, replayed by the oracle as an
    unrolled CTE chain of degree/keep/edge levels."""
    n_buckets = _bucket_count(sf_dir, ("lineitem",))

    def pair_und(g: pa.Table) -> pa.Table:
        agg = (g.select(["p_a", "p_b", "size"])
               .group_by(["p_a", "p_b"]).aggregate([("size", "sum")]))
        keep = (agg.column("size_sum").to_numpy(zero_copy_only=False)
                >= BFS_MIN_PAIR)
        a = agg.column("p_a").to_numpy(
            zero_copy_only=False)[keep].astype(np.int64)
        b = agg.column("p_b").to_numpy(
            zero_copy_only=False)[keep].astype(np.int64)
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table({
            "u": pa.array(u), "v": pa.array(v),
            "ub": pa.array((u % n_buckets).astype(np.int32)),
        })

    edges = (_copurchase_pair_parts(sf_dir, n_buckets)
             .groupby("pb").map_groups(pair_und, batch_format="pyarrow")
             .materialize())
    empty = pa.table({"node": pa.array([], type=pa.int64()),
                      "deg": pa.array([], type=pa.int64())})

    def deg_partial(b: pa.Table) -> pa.Table:
        g = (b.select(["u"]).group_by("u")
             .aggregate([("u", "count")]))
        return pa.table({
            "node": g.column("u"),
            "d": pc.cast(g.column("u_count"), pa.int64()),
            "db": pa.array((g.column("u").to_numpy(zero_copy_only=False)
                            % n_buckets).astype(np.int32)),
        })

    def deg_fold(t: pa.Table) -> pa.Table:
        g = (t.select(["node", "d"]).group_by("node")
             .aggregate([("d", "sum")]))
        return pa.table({"node": g.column("node"),
                         "d": g.column("d_sum")})

    for _ in range(rounds):
        if edges.count() == 0:
            return empty
        deg = (edges.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("db").map_groups(deg_fold,
                                         batch_format="pyarrow"))
        keep = (deg.filter(expr=f"d >= {k}").select_columns(["node"])
                .materialize())
        edges = hash_join(hash_join(edges, keep, "left_semi", "u", "node"),
                          keep, "left_semi", "v", "node")
    if edges.count() == 0:
        return empty
    return (edges.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("db").map_groups(deg_fold, batch_format="pyarrow")
            .map_batches(lambda t: pa.table({
                "node": t.column("node"),
                "deg": t.column("d")}), batch_format="pyarrow"))


def _copurchase_kcore_sql(k: int = KCORE_K,
                          rounds: int = KCORE_ROUNDS) -> str:
    ctes = [
        "lv AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p"
        " FROM lineitem)",
        f"""pr AS (
  SELECT a.p AS pa, b.p AS pb
  FROM lv a JOIN lv b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING COUNT(*) >= {BFS_MIN_PAIR})""",
        "e0 AS (SELECT pa AS u, pb AS v FROM pr"
        " UNION ALL SELECT pb, pa FROM pr)",
    ]
    for i in range(1, rounds + 1):
        ctes.append(f"d{i} AS (SELECT u AS node, COUNT(*) AS d"
                    f" FROM e{i - 1} GROUP BY u)")
        ctes.append(f"k{i} AS (SELECT node FROM d{i} WHERE d >= {k})")
        ctes.append(f"""e{i} AS (
  SELECT e.u, e.v FROM e{i - 1} e
  JOIN k{i} a ON a.node = e.u JOIN k{i} b ON b.node = e.v)""")
    return ("WITH " + ",\n".join(ctes) + f"""
SELECT u AS node, CAST(COUNT(*) AS BIGINT) AS deg
FROM e{rounds} GROUP BY u""")


def _copurchase_bfs_sql(rounds: int = BFS_ROUNDS) -> str:
    ctes = [
        "lv AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p"
        " FROM lineitem)",
        f"""pr AS (
  SELECT a.p AS pa, b.p AS pb
  FROM lv a JOIN lv b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING COUNT(*) >= {BFS_MIN_PAIR})""",
        "und AS (SELECT pa AS u, pb AS v FROM pr"
        " UNION ALL SELECT pb, pa FROM pr)",
        "d0 AS (SELECT MIN(u) AS node, 0 AS dist FROM und)",
    ]
    for i in range(1, rounds + 1):
        ctes.append(f"""d{i} AS (
  SELECT node, MIN(dist) AS dist FROM (
    SELECT node, dist FROM d{i - 1}
    UNION ALL
    SELECT und.v AS node, d{i - 1}.dist + 1 AS dist
    FROM d{i - 1} JOIN und ON und.u = d{i - 1}.node) GROUP BY node)""")
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT node, CAST(dist AS BIGINT) AS dist FROM d{rounds}")


ORACLE_SQL = {
    "lpa_communities": _lpa_sql(),
    "clustering_coefficient": _clustering_coefficient_sql(),
    "degree_distribution": _degree_distribution_sql(),
    "pagerank_clicks": _pagerank_sql(),
    "hits_clicks": _hits_sql(),
    "covisitation_pairs": _covis_sql(),
    "basket_lift": _basket_sql(),
    "basket_triples": _basket_triples_sql(),
    "event_type_jaccard": _JACCARD_SQL,
    "decayed_item_scores": _DECAY_SQL,
    "triangle_count": _triangle_sql(),
    "graph_assortativity": _assortativity_sql(),
    "copurchase_bfs": _copurchase_bfs_sql(),
    "copurchase_kcore": _copurchase_kcore_sql(),
}

QUERIES = {
    "lpa_communities": lpa_communities,
    "pagerank_clicks": pagerank_clicks,
    "hits_clicks": hits_clicks,
    "covisitation_pairs": covisitation_pairs,
    "basket_lift": basket_lift,
    "basket_triples": basket_triples,
    "event_type_jaccard": event_type_jaccard,
    "decayed_item_scores": decayed_item_scores,
    "triangle_count": triangle_count,
    "clustering_coefficient": clustering_coefficient,
    "degree_distribution": degree_distribution,
    "graph_assortativity": graph_assortativity,
    "copurchase_bfs": copurchase_bfs,
    "copurchase_kcore": copurchase_kcore,
}
