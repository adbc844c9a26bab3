"""Reference-API compat facade, links-file source, YAML pipeline, CLI."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

REPO = "/root/repo"


# ------------------------------------------------------------ pure facade

def test_convert_html_matches_engine_functions():
    from ragnificent_ray.compat import convert_html
    from ragnificent_ray.functions.htmldom import parse_html_to_document
    from ragnificent_ray.functions.render import document_to_markdown
    from ragnificent_ray.sources.synth_web import SynthWorld

    w = SynthWorld(n_domains=2, pages_per_domain=4)
    url = "https://site0.test/page/1"
    html = w.fetch(url).body.decode()
    assert convert_html(html, url) == document_to_markdown(
        parse_html_to_document(html, url))
    assert convert_html(html, url, "xml").startswith("<Document>")
    assert convert_html(html, url, "json").startswith("{")


def test_chunk_markdown_shim_matches_chunker():
    from ragnificent_ray.compat import chunk_markdown
    from ragnificent_ray.functions.chunking import create_semantic_chunks

    md = "# T\n\n" + ("word " * 500)
    got = chunk_markdown(md, "https://x.test/")
    want = create_semantic_chunks(md, "https://x.test/")
    assert [c["id"] for c in got] == [c["id"] for c in want]


def test_markdown_scraper_single_page():
    from ragnificent_ray.compat import MarkdownScraper

    s = MarkdownScraper(world_cfg=dict(n_domains=2, pages_per_domain=4))
    md = s.scrape_website("https://site0.test/page/1")
    assert md.startswith("# Page 1 of site0.test")
    chunks = s.create_chunks(md, "https://site0.test/page/1")
    assert chunks and all("id" in c for c in chunks)
    with pytest.raises(RuntimeError):
        s.scrape_website("https://site0.test/page/99999")


# ------------------------------------------------------------- links file

def test_parse_links_lines_reference_semantics():
    from ragnificent_ray.sources.links_file import parse_links_lines

    lines = ["https://a.test/\n", "\n", "# comment\n", "  https://b.test/x \n"]
    assert parse_links_lines(lines) == ["https://a.test/", "https://b.test/x"]


def test_scrape_by_links_file(ray_session, tmp_path):
    from ragnificent_ray.compat import MarkdownScraper

    links = tmp_path / "links.txt"
    links.write_text(
        "# seeds\nhttps://site0.test/page/0\nhttps://site0.test/page/1\n"
        "\nhttps://site1.test/page/0\n")
    s = MarkdownScraper(world_cfg=dict(n_domains=2, pages_per_domain=4),
                        requests_per_second=10000.0)
    tables = s.scrape_by_links_file(str(links), out_dir=str(tmp_path / "out"))
    docs = tables["documents"]
    assert sorted(docs.column("url").to_pylist()) == [
        "https://site0.test/page/0", "https://site0.test/page/1",
        "https://site1.test/page/0",
    ]
    assert tables["chunks"].num_rows > 0
    assert tables["harvest"].num_rows > 0


# ----------------------------------------------------------- yaml pipeline

def test_yaml_pipeline_end_to_end(ray_session, tmp_path):
    from ragnificent_ray.pipelines.yaml_pipeline import YamlPipeline

    cfg = {
        "name": "test",
        "continue_on_error": False,
        "steps": [
            {"name": "scrape", "type": "scrape",
             "config": {"urls": ["https://site0.test"],
                        "format": "markdown",
                        "requests_per_second": 10000.0}},
            {"name": "embed", "type": "embed",
             "config": {"dimension": 64}},
            {"name": "index", "type": "index", "config": {}},
            {"name": "search", "type": "search",
             "config": {"query": "page of site0", "top_k": 3,
                        "rerank": True}},
        ],
    }
    pipe = YamlPipeline(cfg, str(tmp_path / "wd"),
                        world_cfg=dict(n_domains=2, pages_per_domain=4))
    steps = pipe.run()
    assert [s["status"] for s in steps] == ["success"] * 4, [
        {k: s.get(k) for k in ("step_name", "status", "error")}
        for s in steps]
    results = steps[-1]["result"]["results"]
    assert 0 < len(results) <= 3
    assert all(set(r) >= {"id", "content", "source_url", "score"}
               for r in results)
    # rerank ordering is by adjusted score desc
    scores = [r["score"] for r in results]
    assert scores == sorted(scores, reverse=True)


def test_yaml_pipeline_unknown_step_stops():
    from ragnificent_ray.pipelines.yaml_pipeline import YamlPipeline

    pipe = YamlPipeline({"steps": [{"name": "x", "type": "nope"},
                                   {"name": "y", "type": "scrape"}]},
                        "/tmp/yaml_noop")
    steps = pipe.run()
    assert len(steps) == 1 and steps[0]["status"] == "error"


# -------------------------------------------------------------------- CLI

def test_cli_convert_and_chunk(tmp_path):
    from ragnificent_ray.sources.synth_web import SynthWorld

    html = SynthWorld(n_domains=1, pages_per_domain=2) \
        .fetch("https://site0.test/page/0").body.decode()
    f = tmp_path / "page.html"
    f.write_text(html)
    out = subprocess.run(
        [sys.executable, "-m", "ragnificent_ray", "convert",
         "--input", str(f), "--url", "https://site0.test/page/0"],
        capture_output=True, text=True, cwd=REPO, check=True)
    assert out.stdout.startswith("# Page 0 of site0.test")

    md = tmp_path / "doc.md"
    md.write_text("# T\n\n" + ("word " * 500))
    out = subprocess.run(
        [sys.executable, "-m", "ragnificent_ray", "chunk",
         "--input", str(md), "--url", "https://x.test/"],
        capture_output=True, text=True, cwd=REPO, check=True)
    chunks = [json.loads(ln) for ln in out.stdout.splitlines()]
    assert chunks and all("id" in c for c in chunks)


def test_cli_crawl_smoke_and_export(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "ragnificent_ray", "crawl",
         "--out", str(tmp_path / "crawl"),
         "--world", json.dumps(dict(n_domains=2, pages_per_domain=4)),
         "--max-depth", "1", "--rate", "10000", "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, check=True,
        timeout=300)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])
    assert metrics["pages_parsed_total"] > 0

    # S9: export the crawl's rendered tables to per-page files (M18 names)
    out2 = subprocess.run(
        [sys.executable, "-m", "ragnificent_ray", "export",
         "--crawl-out", str(tmp_path / "crawl"),
         "--out", str(tmp_path / "files"), "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, check=True,
        timeout=300)
    rep = json.loads(out2.stdout.strip().splitlines()[-1])
    assert rep["files_written"] == metrics["pages_parsed_total"]
    names = sorted(p.name for p in (tmp_path / "files").iterdir())
    assert names and all(n.endswith(".md") for n in names)
    assert "page_0.md" in names  # URL-path-derived name (M18)


# ------------------------------------------------ S9/M18 file export

def test_filename_from_url_reference_semantics():
    """M18 (core/scraper.py:944-968)."""
    from ragnificent_ray.io.files import filename_from_url

    assert filename_from_url("https://e.test/", "markdown") == "index.md"
    assert filename_from_url("https://e.test/a/b/c", "markdown") == "a_b_c.md"
    # invalid path chars replaced (query strings drop with .path, as in
    # the reference)
    assert filename_from_url("https://e.test/a:b|c", "json") == "a_b_c.json"
    assert filename_from_url("https://e.test/a?x|y", "json") == "a.json"
    # existing extension replaced with the format's
    assert filename_from_url("https://e.test/doc.html", "xml") == "doc.xml"
    assert filename_from_url("https://e.test/doc.md", "markdown") == "doc.md"


def test_export_rendered_and_chunks(ray_session, tmp_path):
    """Both exports, from an Arrow table and streamed from a Dataset (the
    sink instance as a plain task map)."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from ragnificent_ray.io.files import (
        export_chunks,
        export_rendered_files,
    )

    rendered = pa.table({
        "url": pa.array(["https://e.test/p/1", "https://e.test/p/2"]),
        "fmt": pa.array(["markdown", "json"]),
        "content": pa.array(["# P1", '{"t": 2}']),
    })
    chunks = pa.table({
        "id": pa.array(["c1", "c2"]),
        "content": pa.array(["x", "y"]),
    })
    for form, wrap in (("table", lambda t: t), ("dataset", rd.from_arrow)):
        out = tmp_path / form / "files"
        n = export_rendered_files(wrap(rendered), str(out))
        assert n == 2
        assert (out / "p_1.md").read_text() == "# P1"
        assert (out / "p_2.json").read_text() == '{"t": 2}'

        cdir = tmp_path / form / "chunks_json"
        assert export_chunks(wrap(chunks), str(cdir), fmt="json") == 2
        assert json.loads((cdir / "c1.json").read_text())["content"] == "x"
        jdir = tmp_path / form / "chunks_jsonl"
        assert export_chunks(wrap(chunks), str(jdir), fmt="jsonl") == 1
        lines = [json.loads(line) for p in jdir.glob("chunks-*.jsonl")
                 for line in p.read_text().splitlines()]
        assert {r["id"] for r in lines} == {"c1", "c2"}


def test_search_result_cache_semantics():
    """A8 (rag/search.py:100-147): key query:limit, TTL expiry,
    expired-entry sweep past 100 entries."""
    from ragnificent_ray.pipelines.yaml_pipeline import SearchResultCache

    c = SearchResultCache(ttl=10.0)
    assert c.get("q", 5, now=0.0) is None
    c.put("q", 5, ["r1"], now=0.0)
    assert c.get("q", 5, now=5.0) == ["r1"]
    assert c.get("q", 3, now=5.0) is None  # limit is part of the key
    assert c.get("q", 5, now=11.0) is None  # expired (and removed)
    assert c.get("q", 5, now=5.0) is None
    # sweep: >100 entries drops the expired ones
    for i in range(101):
        c.put(f"q{i}", 1, [i], now=0.0 if i < 50 else 100.0)
    assert len(c._cache) <= 101
    assert all(v["timestamp"] == 100.0 for v in c._cache.values())
    # disabled cache is a no-op
    off = SearchResultCache(enabled=False)
    off.put("q", 1, ["x"])
    assert off.get("q", 1) is None
