"""The one exact order-statistic selector (``pipelines/orderstats.py``)
against numpy's sorted array, on the inputs where bucketed selection is
easiest to get wrong: constant columns, ties across a needed rank,
values at the maximum, tiny groups and large integers."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _ds(cols: dict, n_blocks: int = 3):
    """A multi-block Dataset, so per-block partials really fold."""
    import ray.data as rd

    t = pa.table(cols)
    step = -(-t.num_rows // n_blocks)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def _check_all_ranks(ds, v, nbuckets):
    from ragnificent_ray.pipelines.orderstats import histogram, order_stats

    h = histogram(ds, "v", nbuckets=nbuckets)
    got = order_stats(ds, h, [np.arange(len(v))])[0]
    np.testing.assert_array_equal(got, np.sort(v))
    assert got.dtype == v.dtype
    # alone, the first rank of the top bucket: with every cell fetched a
    # wrong bucket pick can still read the right value from its neighbour
    j = int(h.cum[0, -2])
    if j < len(v):
        assert order_stats(ds, h, [[j]])[0, 0] == np.sort(v)[j]


def _mixed(rng):
    """Random spread plus a tie block straddling the median and a run of
    values exactly at the maximum."""
    spread = np.round(rng.uniform(0, 1000, 600), 2)
    return np.concatenate([spread, np.full(300, 500.25),
                           np.full(50, spread.max())])


@pytest.mark.parametrize("nbuckets", [4, 2048])
def test_ungrouped_matches_sorted(ray_session, nbuckets):
    v = _mixed(np.random.default_rng(1))
    np.random.default_rng(2).shuffle(v)
    _check_all_ranks(_ds({"v": v}), v, nbuckets)


def test_constant_column_uses_width_fallback(ray_session):
    from ragnificent_ray.pipelines.orderstats import histogram

    v = np.full(40, 3.75)
    ds = _ds({"v": v})
    assert histogram(ds, "v").width == 1.0
    _check_all_ranks(ds, v, 2048)


def test_int64_cents_above_2_31(ray_session):
    rng = np.random.default_rng(3)
    v = (2**31 + rng.integers(0, 2**40, 500)).astype(np.int64)
    v[:20] = v[20]  # ties in the int domain too
    _check_all_ranks(_ds({"v": v}), v, 16)


def test_grouped_matches_per_group_sort(ray_session):
    """Groups of 1 and 2 rows beside a large tied group, histogrammed
    together: every rank of every group must come back exact."""
    from ragnificent_ray.pipelines.orderstats import histogram, order_stats

    rng = np.random.default_rng(4)
    big = _mixed(rng)
    vals = {"big": big, "one": np.array([7.5]),
            "two": np.array([9.0, -2.0]), "tied": np.full(5, 1000.0)}
    g = np.concatenate([[k] * len(x) for k, x in vals.items()])
    v = np.concatenate(list(vals.values()))
    perm = rng.permutation(len(v))
    ds = _ds({"g": g[perm], "v": v[perm]})
    h = histogram(ds, "v", key="g", nbuckets=8)
    assert h.groups == sorted(vals)
    # one rank row per group: the smallest, a tie-straddling middle and
    # the largest rank of each
    ranks = [[0, (len(vals[k]) - 1) // 2, len(vals[k]) - 1]
             for k in h.groups]
    got = order_stats(ds, h, ranks)
    for row, k, r in zip(got, h.groups, ranks):
        np.testing.assert_array_equal(row, np.sort(vals[k])[r])


def test_quantiles_interpolate_like_quantile_cont(ray_session):
    from ragnificent_ray.pipelines.orderstats import quantiles

    rng = np.random.default_rng(5)
    v = _mixed(rng)
    g = np.where(rng.random(len(v)) < 0.3, "a", "b")
    qs = (0.0, 0.1, 1.0 / 3, 0.5, 0.9, 0.99, 1.0)

    def ref(x):
        s = np.sort(x)
        out = {}
        for q in qs:
            pos = (len(s) - 1) * q
            k0 = int(pos)
            k1 = min(k0 + 1, len(s) - 1)
            out[q] = s[k0] + (pos - k0) * (s[k1] - s[k0])
        return out

    assert quantiles(_ds({"v": v}), "v", qs) == ref(v)
    assert quantiles(_ds({"g": g, "v": v}), "v", qs, key="g") == {
        k: ref(v[g == k]) for k in ("a", "b")}
