"""Unit/property pins for the round-2 additions beyond the DuckDB
parity suite: simhash banding completeness, sequence-pack arithmetic,
mix_sample composition, and the percentile-filter cut rule."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

SF_DIR = "/root/testdata/sf0.001"

_FAST = settings(max_examples=50, deadline=None)


def test_popcount64_matches_python():
    from ragnificent_ray.pipelines.dedup import _popcount64

    rng = np.random.Generator(np.random.PCG64(3))
    xs = rng.integers(0, 1 << 63, size=257, dtype=np.int64).astype(np.uint64)
    got = _popcount64(xs)
    want = [bin(int(x)).count("1") for x in xs]
    assert got.tolist() == want


@_FAST
@given(st.lists(st.integers(0, (1 << 60) - 1), min_size=2, max_size=40,
                unique=True))
def test_simhash_banding_pigeonhole_complete(sigs):
    """Any pair within hamming<=3 shares at least one of the 4 15-bit
    bands — the completeness guarantee simhash_neardup_pairs builds on."""
    from ragnificent_ray.pipelines.dedup import (SIMHASH_BAND_BITS,
                                                 SIMHASH_BANDS,
                                                 SIMHASH_HAMMING_K)

    mask = (1 << SIMHASH_BAND_BITS) - 1
    for i, a in enumerate(sigs):
        for b in sigs[i + 1:]:
            if bin(a ^ b).count("1") <= SIMHASH_HAMMING_K:
                shared = any(
                    (a >> (j * SIMHASH_BAND_BITS)) & mask
                    == (b >> (j * SIMHASH_BAND_BITS)) & mask
                    for j in range(SIMHASH_BANDS))
                assert shared


def test_sequence_pack_invariants(ray_session):
    """Offsets are an exact prefix sum in doc_id order; seq bookkeeping
    is consistent with SEQ_LEN."""
    from ragnificent_ray.pipelines.packing import SEQ_LEN, sequence_pack

    df = sequence_pack(SF_DIR).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    n = df["n_tokens"].to_numpy()
    start = df["start_tok"].to_numpy()
    assert start[0] == 0
    assert (start[1:] == (start[:-1] + n[:-1])).all()
    assert (df["seq_id"].to_numpy() == start // SEQ_LEN).all()
    assert (df["seq_offset"].to_numpy() == start % SEQ_LEN).all()
    nz = n > 0
    end_seq = (start[nz] + n[nz] - 1) // SEQ_LEN
    assert (df["n_seqs"].to_numpy()[nz]
            == end_seq - start[nz] // SEQ_LEN + 1).all()
    # spot-check against a direct tokenization
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t = t.sort_values("doc_id").reset_index(drop=True)
    want = t["text"].map(lambda s: len(s.strip().split())).to_numpy()
    assert (n == want).all()


def test_mix_sample_composition(ray_session):
    """Output composition tracks the target weights: weighted strata
    keep proportionally more, and no stratum exceeds its availability."""
    from ragnificent_ray.pipelines.sampling import MIX_WEIGHTS, mix_sample

    df = mix_sample(SF_DIR).to_pandas()
    total = pq.read_table(f"{SF_DIR}/documents.parquet",
                          columns=["source"]).to_pandas()
    avail = total["source"].value_counts()
    kept = df["source"].value_counts()
    # every kept stratum within availability
    for s, k in kept.items():
        assert k <= avail[s]
    # the heaviest stratum keeps a strictly higher fraction than an
    # unweighted one (Bernoulli noise is bounded well below the 4x gap)
    heavy = max(MIX_WEIGHTS, key=MIX_WEIGHTS.get)
    light = next(s for s in avail.index if s not in MIX_WEIGHTS)
    assert kept.get(heavy, 0) / avail[heavy] \
        > kept.get(light, 0) / avail[light]


def test_quality_percentile_filter_cut(ray_session):
    """Kept set is exactly the top floor(3n/4) by (score desc, doc_id)."""
    from ragnificent_ray.pipelines.textstats import (
        QUALITY_KEEP_DEN, QUALITY_KEEP_NUM,
        quality_percentile_filter, unigram_logprob)

    scores = unigram_logprob(SF_DIR).to_pandas()
    kept = quality_percentile_filter(SF_DIR).to_pandas()
    k = (QUALITY_KEEP_NUM * len(scores)) // QUALITY_KEEP_DEN
    assert len(kept) == k
    ranked = scores.sort_values(
        ["mean_logprob", "doc_id"], ascending=[False, True]).head(k)
    assert set(kept["doc_id"]) == set(ranked["doc_id"])


def test_bloom_probe_never_misses(ray_session):
    """Bloom decontamination has recall 1: every exact hit is a bloom
    hit (n_maybe >= n_hits), and false positives are non-negative."""
    from ragnificent_ray.pipelines.decontam import decontaminate_bloom

    df = decontaminate_bloom(SF_DIR).to_pandas()
    assert (df["n_maybe"] >= df["n_hits"]).all()
    assert (df["n_fp"] == df["n_maybe"] - df["n_hits"]).all()
    assert (df["n_fp"] >= 0).all()


def test_events_funnel_monotone(ray_session):
    """Funnel stage counts can only shrink stage to stage."""
    from ragnificent_ray.pipelines.temporal import events_funnel

    df = events_funnel(SF_DIR).to_pandas()
    ns = df.set_index("stage")["n_users"]
    assert ns["view"] >= ns["click"] >= ns["purchase"]
    assert ((df["conversion"] >= 0) & (df["conversion"] <= 1)).all()


def test_packed_sequences_reconstruct_stream(ray_session):
    """Concatenating the packed sequences in seq order reproduces the
    doc-id-ordered token stream exactly."""
    from ragnificent_ray.pipelines.packing import packed_sequences

    df = packed_sequences(SF_DIR).to_pandas().sort_values(
        "seq_id").reset_index(drop=True)
    got = " ".join(df["text"]).split()
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t = t.sort_values("doc_id")
    want = " ".join(t["text"].map(str.strip)).split()
    assert got == want
    full = df[df["seq_id"] < df["seq_id"].max()]
    assert (full["n_tokens"] == 512).all()


def test_caption_image_align_bounded(ray_session):
    from ragnificent_ray.stages.embed import HashEmbedder
    from ragnificent_ray.stages.multimodal import ImageFeatureStage
    from ragnificent_ray.functions.imaging import png_encode

    import numpy as np

    rng = np.random.Generator(np.random.PCG64(11))
    img = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
    feat = ImageFeatureStage._features(img)
    emb = HashEmbedder(dim=64)._encode(["a caption"])[0]
    cos = float(np.dot(feat.astype(np.float64), emb.astype(np.float64)))
    assert -1.0 <= cos <= 1.0
    # deterministic across calls
    assert np.array_equal(emb, HashEmbedder(dim=64)._encode(["a caption"])[0])


def test_min_label_components_string_ids(ray_session):
    """The generic CC propagation handles string node ids with
    lexicographic-min labels and the changed-count certificate."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.pipelines.dedup import min_label_components

    # two components: {a,b,c,d} chained, {x,y}
    pairs = rd.from_arrow(pa.table({
        "ia": ["b", "c", "a", "x"],
        "ib": ["c", "d", "b", "y"],
    }))
    got = min_label_components(pairs, "ia", "ib",
                               convergence="changed").to_pandas()
    lab = dict(zip(got["node"], got["label"]))
    assert lab == {"a": "a", "b": "a", "c": "a", "d": "a",
                   "x": "x", "y": "x"}


def test_dedup_keep_is_corpus_minus_nonreps(ray_session):
    from ragnificent_ray.pipelines.dedup import dedup_clusters, dedup_keep

    labels = dedup_clusters(SF_DIR).to_pandas()
    kept = dedup_keep(SF_DIR).to_pandas()
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id"]).to_pandas()
    removed = set(labels.loc[labels["component"] < labels["doc_id"],
                             "doc_id"])
    reps = set(labels.loc[labels["component"] == labels["doc_id"],
                          "doc_id"])
    assert set(kept["doc_id"]) == set(docs["doc_id"]) - removed
    flagged = set(kept.loc[kept["in_cluster"] == 1, "doc_id"])
    assert flagged == reps


def test_pagerank_mass_matches_reference_recurrence(ray_session):
    """Integer-mass PageRank core vs a direct python recurrence on a
    hand graph (hub 1 <- 2,3,4; 1 -> 2; 5 dangling-in, no out)."""
    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.pipelines.graph import (_BASE_MASS, _DAMP_DEN,
                                                 _DAMP_NUM, _INIT_MASS,
                                                 pagerank_mass)

    edge_list = [(2, 1), (3, 1), (4, 1), (1, 2), (2, 5)]
    nodes_list = [1, 2, 3, 4, 5]
    edges = rd.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edge_list], type=pa.int64()),
        "dst": pa.array([d for _, d in edge_list], type=pa.int64()),
    }))
    nodes = rd.from_arrow(pa.table({
        "node": pa.array(nodes_list, type=pa.int64())}))
    got = pagerank_mass(edges, nodes, iters=3, buckets=2).to_pandas()
    got = dict(zip(got["node"], got["pagerank_mass"]))

    outdeg = {}
    for s, _ in edge_list:
        outdeg[s] = outdeg.get(s, 0) + 1
    mass = {v: _INIT_MASS for v in nodes_list}
    for _ in range(3):
        nxt = {v: _BASE_MASS for v in nodes_list}
        for s, d in edge_list:
            nxt[d] += (mass[s] * _DAMP_NUM) // (_DAMP_DEN * outdeg[s])
        mass = nxt
    assert got == mass
    # the hub out-ranks leaf contributors; dangling node keeps base+in
    assert got[1] > got[3] == got[4]


def test_pagerank_string_ids_and_links_graph(ray_session):
    """The generic core handles string node ids; pagerank_links builds
    the member-filtered distinct edge set from (url, links) rows."""
    import pyarrow as pa

    from ragnificent_ray.pipelines.graph import (_BASE_MASS, _DAMP_DEN,
                                                 _DAMP_NUM, _INIT_MASS,
                                                 pagerank_links)

    # hub <- a, b, c; hub -> a; links to an uncrawled page are dropped;
    # duplicate outlinks collapse to one edge
    docs = pa.table({
        "url": ["hub", "a", "b", "c"],
        "links": [["a", "gone"], ["hub", "hub"], ["hub"], ["hub", "c"]],
    })
    got = pagerank_links(docs, buckets=2).to_pandas()
    got = dict(zip(got["node"], got["pagerank_mass"]))

    edge_list = [("hub", "a"), ("a", "hub"), ("b", "hub"), ("c", "hub")]
    nodes_list = ["hub", "a", "b", "c"]
    outdeg = {}
    for s, _ in edge_list:
        outdeg[s] = outdeg.get(s, 0) + 1
    mass = {v: _INIT_MASS for v in nodes_list}
    for _ in range(3):
        nxt = {v: _BASE_MASS for v in nodes_list}
        for s, d in edge_list:
            nxt[d] += (mass[s] * _DAMP_NUM) // (_DAMP_DEN * outdeg[s])
        mass = nxt
    assert got == mass
    assert got["hub"] > got["a"] > got["b"] == got["c"]


def test_hll_estimate_tracks_exact(ray_session):
    """HLL estimate lands within 3 standard errors (1.04/sqrt(64) ~ 13%)
    of the exact distinct count for every event_type, and the integer
    register sum is within its structural bounds."""
    from ragnificent_ray.pipelines.relational import (HLL_M, HLL_RHO_MAX,
                                                      hll_users_by_type)

    df = hll_users_by_type(SF_DIR).to_pandas()
    assert len(df) > 0
    # in the small-range regime (n < 2.5m) the raw estimator is biased
    # by design; the reported v_zero lets a consumer apply the standard
    # linear-counting correction — verify THAT tracks the exact count
    small = df["n_exact"] < 2.5 * HLL_M
    lin = HLL_M * np.log(HLL_M / df["v_zero"].where(df["v_zero"] > 0))
    est = np.where(small & (df["v_zero"] > 0), lin, df["est_distinct"])
    rel_err = np.abs(est - df["n_exact"]) / df["n_exact"]
    assert (rel_err < 3 * 1.04 / np.sqrt(HLL_M)).all()
    assert (df["m"] == HLL_M).all()
    assert ((df["v_zero"] >= 0) & (df["v_zero"] <= HLL_M)).all()
    assert (df["s_int"] <= HLL_M * (1 << HLL_RHO_MAX)).all()
    assert (df["s_int"] >= HLL_M).all()


def test_image_dedup_keep_invariants(ray_session):
    """Kept set = harvest minus non-representative phash-cluster
    members; representatives flagged in_cluster=1, singletons 0."""
    import __ray_entry__ as entrymod

    harvest = entrymod._crawl_harvest(SF_DIR)
    lab = entrymod._image_phash_clusters(SF_DIR).to_pandas()
    kept = entrymod._image_dedup_keep(SF_DIR).to_pandas()
    dropped = set(lab.loc[lab["component"] < lab["image_id"], "image_id"])
    reps = set(lab.loc[lab["component"] == lab["image_id"], "image_id"])
    assert len(dropped) > 0                     # planted dupes exercise it
    assert len(kept) == harvest.num_rows - len(dropped)
    assert not dropped & set(kept["image_id"])
    assert set(kept.loc[kept["in_cluster"] == 1, "image_id"]) == reps


def test_countmin_overestimates_only(ray_session):
    """Count-Min point estimates are >= exact (one-sided error), and
    the heavy head is estimated exactly when no hash collisions bite."""
    from ragnificent_ray.pipelines.textstats import CM_TOPK, countmin_tokens

    df = countmin_tokens(SF_DIR).to_pandas()
    assert len(df) == CM_TOPK
    assert (df["est_count"] >= df["exact_count"]).all()
    # min-over-4-rows of 1024 counters: the top token's estimate is
    # within the classic eps*N bound (eps = e/W) with huge margin
    n_total = df["exact_count"].sum() * 50  # loose upper proxy for N
    assert ((df["est_count"] - df["exact_count"]) < n_total).all()


def test_image_dhash_neardup_finds_planted_pairs(ray_session):
    """dHash near-dup pass over the crawl harvest surfaces the planted
    duplicate/near-dup images (exact copies hash identically under ANY
    perceptual hash; hamming 0 pairs must appear), and every pair is
    within the banding threshold."""
    import __ray_entry__ as entrymod

    df = entrymod._image_dhash_neardup(SF_DIR).to_pandas()
    assert len(df) > 0
    assert (df["hamming"] <= 8).all()
    assert (df["image_id_a"] < df["image_id_b"]).all()
    # the exact planted copies are hamming-0 under dhash too
    assert (df["hamming"] == 0).any()


def test_image_patchify_streams_patch_rows(ray_session):
    """Patchify over the harvest: every image contributes
    ceil(h/16)*ceil(w/16) rows and payloads are 16*16*3 bytes."""
    import __ray_entry__ as entrymod

    harvest = entrymod._crawl_harvest(SF_DIR)
    df = entrymod._image_patchify(SF_DIR).to_pandas()
    per_img = df.groupby("image_id").size()
    assert set(per_img.index) == set(harvest.column("image_id").to_pylist())
    df["expect"] = (-(-df["src_h"] // 16)) * (-(-df["src_w"] // 16))
    per = df.groupby("image_id").agg(n=("patch", "size"),
                                     expect=("expect", "first"))
    assert (per["n"] == per["expect"]).all()
    assert (df["patch"].str.len() == 16 * 16 * 3).all()


def test_kmeans_fit_empty_cluster_keeps_seed_and_matches_oracle(
        ray_session, tmp_path):
    """A duplicated seed makes one cluster structurally empty (ties
    break to the lower id); its centroid must stay at the seed, and the
    crafted corner must still match the unrolled-CTE oracle."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ragnificent_ray.pipelines.clustering import (QUERIES,
                                                      _kmeans_fit_sql)

    rng = np.random.Generator(np.random.PCG64(5))
    vecs = rng.normal(0, 0.2, size=(40, 64)).astype(np.float32)
    vecs[3] = vecs[2]          # seed 3 duplicates seed 2 → cluster 3 empty
    t = pa.table({
        "vec_id": pa.array(range(40), type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel(), type=pa.float32()), 64),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))

    df = QUERIES["kmeans_fit"](str(tmp_path)).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    ora = con.execute(_kmeans_fit_sql()).fetchdf() \
        .sort_values("vec_id").reset_index(drop=True)
    assert (df["cluster"].to_numpy() == ora["cluster"].to_numpy()).all()
    assert (df["sq_dist"].to_numpy().astype(np.int64)
            == ora["sq_dist"].to_numpy().astype(np.int64)).all()
    # cluster 3 goes empty in iteration 1 (tie breaks to 2) and must
    # KEEP its seed centroid; with cluster 2's centroid pulled to its
    # members' mean, the preserved seed wins vec 2 back in the final
    # assignment — evidence the empty-cluster fallback actually ran
    # (a zeroed/NULL centroid would put vec 2 elsewhere on both sides
    # only if the oracle made the same mistake, which COALESCE pins).
    assert df.loc[df["vec_id"] == 2, "cluster"].item() == 3
    assert df.loc[df["vec_id"] == 3, "cluster"].item() == 3


def test_image_patch_dedup_finds_shared_tiles(ray_session):
    """Planted duplicate images share ALL their 16x16 tiles, so tile
    hashes with n_images >= 2 must exist; per-tile bookkeeping is
    consistent (occurrences >= images >= 1, duplicates only)."""
    import __ray_entry__ as entrymod

    df = entrymod._image_patch_dedup(SF_DIR).to_pandas()
    assert len(df) > 0
    assert (df["n_occurrences"] >= 2).all()
    assert (df["n_occurrences"] >= df["n_images"]).all()
    assert (df["n_images"] >= 1).all()
    assert (df["n_images"] >= 2).any()   # cross-image shared tiles


def test_pq_training_reduces_residual(ray_session):
    """The trained PQ codebook must beat the seed codebook on summed
    quantization residual (Lloyd iterations can only help here), and
    every vector gets exactly one code per subspace."""
    from ragnificent_ray.pipelines.clustering import (PQ_SUBSPACES,
                                                      pq_encode,
                                                      pq_train_encode)

    trained = pq_train_encode(SF_DIR).to_pandas()
    seeded = pq_encode(SF_DIR).to_pandas()
    assert trained["sq_dist"].sum() < seeded["sq_dist"].sum()
    per_vec = trained.groupby("vec_id").size()
    assert (per_vec == PQ_SUBSPACES).all()
