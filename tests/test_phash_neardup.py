"""D4 phash near-dup operator: planted pairs, thresholds, emptiness."""

from __future__ import annotations

import pyarrow as pa


def _pairs(ray_session, table, max_hamming):
    from ragnificent_ray.pipelines.dedup import phash_neardup_pairs

    df = phash_neardup_pairs(table, max_hamming=max_hamming).to_pandas()
    if "image_id_a" not in df.columns:  # all pairs filtered → schemaless
        assert df.empty
        return set()
    return set(map(tuple, df[["image_id_a", "image_id_b"]].values))


def test_planted_near_dups_found(ray_session):
    t = pa.table({
        "image_id": ["a", "b", "c", "d"],
        "phash": pa.array([0x0123456789ABCDEF, 0x0123456789ABCDEC,
                           -0x7123456789ABCDF0, 0x0123456789ABCDEF],
                          type=pa.int64()),
    })
    assert _pairs(ray_session, t, 8) == {("a", "b"), ("a", "d"), ("b", "d")}


def test_threshold_zero_keeps_only_exact(ray_session):
    t = pa.table({
        "image_id": ["a", "b", "d"],
        "phash": pa.array([0x0123456789ABCDEF, 0x0123456789ABCDEC,
                           0x0123456789ABCDEF], type=pa.int64()),
    })
    assert _pairs(ray_session, t, 0) == {("a", "d")}


def test_distant_hashes_yield_no_pairs(ray_session):
    t = pa.table({
        "image_id": ["a", "b"],
        "phash": pa.array([0, -1], type=pa.int64()),  # hamming 64
    })
    assert _pairs(ray_session, t, 15) == set()


def test_synth_world_planted_pairs_surface_end_to_end(ray_session):
    """The synthetic world's planted near-dup images (every 4th page's
    first image perturbs the previous page's) must produce non-trivial
    pairs from the ground-truth harvest — the D4 end-to-end signal the
    driver sees via harvest_phash_neardup."""
    import pyarrow as pa

    from ragnificent_ray.sources.synth_web import SynthWorld

    w = SynthWorld(n_domains=4, pages_per_domain=8, images_per_page=2)
    rows = w.harvest_truth()
    t = pa.table({
        "image_id": [r["image_id"] for r in rows],
        "phash": pa.array([r["phash"] for r in rows], type=pa.int64()),
    })
    got = _pairs(ray_session, t, 8)

    planted = set()
    for d in range(w.n_domains):
        for pid in range(w.n_pages(d)):
            base = w.neardup_base(d, pid, 0)
            if base is not None:
                a, b = sorted((base, w.image_id(d, pid, 0)))
                planted.add((a, b))
    assert planted, "world must plant pairs"
    assert planted <= got, planted - got


def test_image_dedup_exact_kernel(ray_session):
    """Planted byte-identical payloads collapse to one keeper with the
    right copy count; the Arrow-buffer hash path must honor array
    offsets (exercised via a sliced table)."""
    import pyarrow as pa

    from ragnificent_ray.pipelines.dedup import image_dedup_exact

    payload_a, payload_b = b"\x89PNGfake-a" * 40, b"\x89PNGfake-b" * 40
    t = pa.table({
        "image_id": pa.array(["skip", "img1", "img2", "img3", "img4"]),
        "bytes": pa.array(
            [b"sliced-away", payload_a, payload_b, payload_a, payload_a],
            type=pa.binary()),
    }).slice(1)  # non-zero offset into the offsets/data buffers

    got = image_dedup_exact(t).to_pandas().set_index("keeper")
    assert len(got) == 2
    assert got.loc["img1", "n_copies"] == 3  # img1+img3+img4 identical
    assert got.loc["img2", "n_copies"] == 1
    assert got["n_copies"].sum() == 4


def test_image_curate_keep_composes_phash_and_dhash(ray_session):
    """The composed end-to-end curation query: keep set over the UNION
    of the verified phash and dhash pair graphs. Pins (1) containment —
    every image the phash-only keep drops, the union keep also drops
    (adding a sketch lens can only find MORE dups); (2) the planted
    near-dups actually shrink the corpus; (3) kept rows are a subset of
    the harvest with a clean in_cluster flag; (4) determinism across
    runs (rows-only driver gate)."""
    import pandas as pd

    import __ray_entry__ as entry

    sf = "/root/testdata/sf0.001"
    q = entry.queries()
    harvest_ids = set(
        q["crawl_harvest"](sf).column("image_id").to_pylist())
    ku = q["image_curate_keep"](sf).to_pandas()
    kp = q["image_dedup_keep"](sf).to_pandas()

    assert set(ku["image_id"]) <= harvest_ids
    dropped_union = harvest_ids - set(ku["image_id"])
    dropped_ph = harvest_ids - set(kp["image_id"])
    assert dropped_ph <= dropped_union
    assert dropped_union, "planted near-dups must shrink the corpus"
    assert set(ku["in_cluster"].unique()) <= {0, 1}
    # every multi-image cluster keeps exactly one representative:
    # reps (in_cluster=1) + dropped = the images touched by any pair
    assert len(ku) + len(dropped_union) == len(harvest_ids)

    again = q["image_curate_keep"](sf).to_pandas()
    pd.testing.assert_frame_equal(
        ku.sort_values("image_id").reset_index(drop=True),
        again.sort_values("image_id").reset_index(drop=True))


def test_banded_recall_matches_bruteforce(ray_session):
    """4×16-bit banding is exact only while a shared band is guaranteed
    (hamming ≤ 3, pigeonhole); above that it returns a subset of the
    all-pairs answer. Planted copies flip 1..12 bits at random
    positions, plus one copy with one flipped bit in every band
    (hamming 4, no shared band), which banding must miss."""
    import numpy as np

    rng = np.random.default_rng(7)
    ids, hashes = [], []
    for i in range(40):
        base = int(rng.integers(0, 2**64, dtype=np.uint64))
        ids.append(f"b{i:02d}")
        hashes.append(base)
        for k in range(1, 13):
            flip = 0
            for bit in rng.choice(64, size=k, replace=False):
                flip |= 1 << int(bit)
            ids.append(f"b{i:02d}_{k:02d}")
            hashes.append(base ^ flip)
    spread = (1 << 0) | (1 << 16) | (1 << 32) | (1 << 48)
    ids.append("b00_spread")
    hashes.append(hashes[0] ^ spread)
    t = pa.table({
        "image_id": ids,
        "phash": pa.array(np.asarray(hashes, dtype=np.uint64)
                          .view(np.int64)),
    })

    def brute(max_hamming):
        out = set()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if bin(hashes[i] ^ hashes[j]).count("1") <= max_hamming:
                    out.add(tuple(sorted((ids[i], ids[j]))))
        return out

    for h in (0, 1, 2, 3):
        assert _pairs(ray_session, t, h) == brute(h)
    for h in (4, 8, 15):
        got, want = _pairs(ray_session, t, h), brute(h)
        assert got <= want, got - want
    assert ("b00", "b00_spread") in brute(4)
    assert ("b00", "b00_spread") not in _pairs(ray_session, t, 4)
