"""Determinism and invariants of the synthetic web (FIXTURES.md §1-3)."""

import numpy as np

from ragnificent_ray.functions import imaging
from ragnificent_ray.sources.synth_web import SynthWorld


def world():
    return SynthWorld(n_domains=4, pages_per_domain=8, images_per_page=2)


def test_fetch_is_deterministic():
    w1, w2 = world(), world()
    for url in [
        "https://site0.test/robots.txt",
        "https://site0.test/sitemap.xml",
        "https://site1.test/page/3",
        w1.image_url(1, 3, 0),
    ]:
        a, b = w1.fetch(url), w2.fetch(url)
        assert a.status == b.status and a.body == b.body


def test_robots_points_to_sitemap():
    r = world().fetch("https://site2.test/robots.txt")
    assert r.status == 200
    assert "Sitemap: https://site2.test/sitemap.xml" in r.body.decode()


def test_sitemap_index_domain_recursion():
    w = world()
    body = w.fetch("https://site3.test/sitemap.xml").body.decode()
    assert "<sitemapindex" in body and "sitemap-a.xml" in body
    child = w.fetch("https://site3.test/sitemap-a.xml").body.decode()
    assert "<urlset" in child and "/page/0" in child


def test_harvest_rows_satisfy_input_hint_invariants():
    w = world()
    rows = w.harvest_truth()
    assert len(rows) == 4 * (8 + 4) * 2
    fmts = [r["fmt"] for r in rows]
    assert 0 < fmts.count("lossy") < len(fmts)
    for r in rows[:12]:
        assert len(r["bytes"]) > 0
        decoded = imaging.decode_image(r["bytes"], r["fmt"])
        assert decoded.shape == (r["h"], r["w"], 3)
        truth = w.image_pixels(r["image_id"])
        if r["fmt"] == "png":
            assert np.array_equal(decoded, truth)
        else:
            assert imaging.psnr(truth, decoded) >= 40.0
        assert r["caption"].startswith(f"caption {r['image_id']}:")
        assert r["phash"] == imaging.phash64(decoded)


def test_page_html_parses_with_expected_structure():
    from ragnificent_ray.functions.htmldom import extract_links, parse_html_to_document

    w = world()
    url = w.page_url(0, 2)
    html = w.fetch(url).body.decode()
    doc = parse_html_to_document(html, url)
    assert doc["title"] == "Page 2 of site0.test"
    # 2 own images + the planted cross-page duplicate of page 1's first
    assert len(doc["images"]) == 3
    assert doc["images"][0]["alt"].startswith("caption img-0000-0002-00")
    assert "img-0000-0001-00" in doc["images"][2]["src"]
    links = extract_links(html, url)
    assert all(not u.startswith("javascript:") for u in links)
    assert links == sorted(set(links))
    # deep page reachable only by link
    assert any("/page/8" in u or "/page/9" in u or "/page/10" in u or "/page/11" in u
               for u in links)


def _all_html(w: SynthWorld) -> list[str]:
    return [w.page_html(d, pid) for d in range(w.n_domains)
            for pid in range(w.n_pages(d))]


def test_zero_image_world_embeds_no_image():
    """With no images per page there is no first image to duplicate,
    so no page may point at one (it would 404 and back the domain off)."""
    w = SynthWorld(n_domains=2, pages_per_domain=4, images_per_page=0)
    assert not any("<img" in html for html in _all_html(w))


def test_image_world_html_is_pinned():
    """Pages with images keep their exact HTML, the cross-page
    duplicate included (md5 over every page of a 3-image world)."""
    import hashlib

    w = SynthWorld(n_domains=2, pages_per_domain=4, images_per_page=3)
    digest = hashlib.md5("".join(_all_html(w)).encode()).hexdigest()
    assert digest == "bbc67668da335c4d0e98ac090f56e6d9"
