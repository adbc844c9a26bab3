"""Deterministic synthetic web (seed=42) — the sandbox's "network".

The sandbox has no network (SURVEY §7.6), so fetcher actors resolve URLs
against this deterministic world instead of HTTP. Everything — robots.txt,
sitemaps (urlset + sitemapindex, namespaced and namespace-free), page
HTML (headings/paragraphs/links/images/lists/code/quotes), image bytes,
captions — is a pure function of ``(seed, domain_idx, page_idx, k)``, so
the oracle, the engine, and the ground-truth harvest table all agree
without any shared state.

URL space per domain ``site{d}.test``:

* ``/robots.txt``       → ``Sitemap:`` line (reference `sitemap_utils.py:128-160`)
* ``/sitemap.xml``      → urlset, or a sitemapindex for ``d % 4 == 3``
* ``/page/{pid}``       → HTML page; pids < pages_per_domain are listed in
  the sitemap, higher pids ("deep" pages) are reachable only via links —
  they exercise the BFS depth > 0 rounds.
* ``/img/{image_id}.{png|lossy}`` → encoded image bytes.

Page links deliberately include relative, absolute-same-domain,
cross-domain, ``javascript:`` and ``#fragment`` hrefs to exercise the
outlink-extraction semantics of ``html_parser.rs:80-111``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..functions.hashing import stable_hash64
from ..functions.imaging import encode_image, phash64

_WORDS = (
    "ray data arrow batch actor frontier crawl fetch parse render chunk "
    "embed harvest image caption domain page link sitemap robots token "
    "bucket politeness shard filter stream block shuffle partition skew "
    "lineage checkpoint manifest metric throughput latency vector index "
    "query result schema column table row pipeline stage operator"
).split()

_CHANGEFREQS = ("daily", "weekly", "monthly", None)
_WIDTHS = (32, 64, 96, 128)
_HEIGHTS = (32, 48, 64, 96)


@dataclass(frozen=True)
class FetchResult:
    status: int
    content_type: str
    body: bytes


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment


def _splitmix(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (wrapping)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _stream(key: str, seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n deterministic uint64s for (key, seed) — a counter-mode splitmix64
    stream. Replaces per-call ``np.random.Generator`` construction, which
    dominated synthetic fetch cost (~90 µs/call vs ~4 µs here); the world's
    content changes with this scheme but stays deterministic and seeded."""
    h = np.uint64((seed ^ stable_hash64(key)) & 0xFFFFFFFFFFFFFFFF)
    ctr = np.arange(offset, offset + n, dtype=np.uint64)
    return _splitmix(h + ctr * _SM_GAMMA)


def _words(key: str, lo: int, hi: int, seed: int) -> list[str]:
    n = lo + int(_stream(key, seed, 1)[0] % np.uint64(hi - lo + 1))
    idx = _stream(key, seed, n, offset=1) % np.uint64(len(_WORDS))
    return [_WORDS[i] for i in idx]


class SynthWorld:
    def __init__(
        self,
        n_domains: int = 4,
        pages_per_domain: int = 8,
        images_per_page: int = 2,
        seed: int = 42,
        deep_pages_per_domain: int | None = None,
        fetch_latency: float = 0.0,
    ):
        self.n_domains = n_domains
        self.pages_per_domain = pages_per_domain
        self.images_per_page = images_per_page
        self.seed = seed
        self.deep = (
            deep_pages_per_domain
            if deep_pages_per_domain is not None
            else max(1, pages_per_domain // 2)
        )
        # simulated network RTT per request (seconds): the sandbox's
        # only way to exercise fetch-latency overlap — a real backend
        # at 100-300 ms RTT serializes per-actor throughput to ~1/RTT
        # unless fetches within a batch are pipelined
        self.fetch_latency = fetch_latency

    # ------------------------------------------------------------ naming

    def domain(self, d: int) -> str:
        return f"site{d}.test"

    def base_url(self, d: int) -> str:
        return f"https://{self.domain(d)}"

    def page_url(self, d: int, pid: int) -> str:
        return f"{self.base_url(d)}/page/{pid}"

    def n_pages(self, d: int) -> int:
        return self.pages_per_domain + self.deep

    def image_id(self, d: int, pid: int, k: int) -> str:
        return f"img-{d:04d}-{pid:04d}-{k:02d}"

    def image_fmt(self, d: int, pid: int, k: int) -> str:
        return "lossy" if (pid + k) % 3 == 0 else "png"

    def image_url(self, d: int, pid: int, k: int) -> str:
        ext = self.image_fmt(d, pid, k)
        return f"{self.base_url(d)}/img/{self.image_id(d, pid, k)}.{ext}"

    # ------------------------------------------------------------ images

    def neardup_base(self, d: int, pid: int, k: int) -> str | None:
        """Planted perceptual near-duplicates: every 4th page's first
        image is a lightly-perturbed copy of the previous page's first
        image (same k ⇒ same dimensions), so phash-banding dedup (D4)
        has real pairs to find at every sf tier."""
        if k == 0 and pid >= 2 and pid % 4 == 2:
            return self.image_id(d, pid - 1, 0)
        return None

    def image_pixels(self, image_id: str) -> np.ndarray:
        parts = image_id.split("-")
        d, pid, k = int(parts[1]), int(parts[2]), int(parts[3])
        base = self.neardup_base(d, pid, k)
        if base is not None:
            px = self.image_pixels(base).copy()
            hh, ww = px.shape[:2]
            draws = _stream(f"perturb:{image_id}", self.seed, 20)
            ys = (draws[:4] % np.uint64(hh)).astype(np.int64)
            xs = (draws[4:8] % np.uint64(ww)).astype(np.int64)
            px[ys, xs] = (draws[8:20] % np.uint64(256)) \
                .astype(np.uint8).reshape(4, 3)
            return px
        w = _WIDTHS[k % len(_WIDTHS)]
        h = _HEIGHTS[(k + 1) % len(_HEIGHTS)]
        nbytes = h * w * 3
        raw = _stream(image_id, self.seed, -(-nbytes // 8)).view(np.uint8)
        return raw[:nbytes].reshape(h, w, 3).copy()

    def caption(self, image_id: str) -> str:
        words = _words(f"caption:{image_id}", 3, 8, self.seed)
        return f"caption {image_id}: " + " ".join(words)

    def image_record(self, d: int, pid: int, k: int) -> dict:
        image_id = self.image_id(d, pid, k)
        fmt = self.image_fmt(d, pid, k)
        pixels = self.image_pixels(image_id)
        h, w = pixels.shape[:2]
        data = encode_image(pixels, fmt)
        from ..functions.imaging import decode_image

        decoded = decode_image(data, fmt)
        return {
            "image_id": image_id,
            "bytes": data,
            "w": int(w),
            "h": int(h),
            "fmt": fmt,
            "caption": self.caption(image_id),
            "phash": phash64(decoded),
        }

    def harvest_truth(self) -> list[dict]:
        """Ground-truth harvest rows for every page in the world."""
        rows = []
        for d in range(self.n_domains):
            for pid in range(self.n_pages(d)):
                for k in range(self.images_per_page):
                    rows.append(self.image_record(d, pid, k))
        return rows

    # ------------------------------------------------------------- pages

    def page_status(self, d: int, pid: int) -> int:
        # deterministic minority of dead deep links
        if pid >= self.pages_per_domain and (d * 31 + pid) % 23 == 7:
            return 404
        return 200

    def page_html(self, d: int, pid: int) -> str:
        P, seed = self.pages_per_domain, self.seed
        key = f"page:{d}:{pid}"
        title = f"Page {pid} of {self.domain(d)}"
        paras = [
            " ".join(_words(f"{key}:p{i}", 30, 80, seed))
            for i in range(3 + pid % 3)
        ]
        imgs = "".join(
            f'<img src="/img/{self.image_id(d, pid, k)}.'
            f'{self.image_fmt(d, pid, k)}" '
            f'alt="{self.caption(self.image_id(d, pid, k))}">'
            for k in range(self.images_per_page)
        )
        if 1 <= pid < P and self.images_per_page > 0:
            # cross-page duplicate image URL: sitemap pages also embed
            # the previous page's first image (same alt text), so
            # within-round duplicate image claims are exercised — the
            # claimed set and payload stay deterministic (claims.py).
            dup_id = self.image_id(d, pid - 1, 0)
            imgs += (
                f'<img src="/img/{dup_id}.{self.image_fmt(d, pid - 1, 0)}" '
                f'alt="{self.caption(dup_id)}">'
            )
        if pid < P:
            links = [
                f'<a href="/page/{(pid + 1) % P}">next page</a>',
                f'<a href="{self.base_url(d)}/page/{(pid + 2) % P}">skip</a>',
                f'<a href="/page/{P + (pid % self.deep)}">deep dive</a>',
                f'<a href="https://site{(d + 1) % self.n_domains}.test/page/0">elsewhere</a>',
                '<a href="javascript:void(0)">js</a>',
                '<a href="#frag">anchor</a>',
            ]
        else:
            links = ['<a href="/page/0">home</a>']
        ul = "".join(f"<li>item {w}</li>" for w in _words(f"{key}:ul", 2, 4, seed))
        ol = "".join(f"<li>step {w}</li>" for w in _words(f"{key}:ol", 2, 3, seed))
        code = " ".join(_words(f"{key}:code", 4, 8, seed))
        quote = " ".join(_words(f"{key}:quote", 6, 12, seed))
        h2a = " ".join(_words(f"{key}:h2a", 2, 4, seed))
        h2b = " ".join(_words(f"{key}:h2b", 2, 4, seed))
        h3 = " ".join(_words(f"{key}:h3", 2, 4, seed))
        return (
            f"<html><head><title>{title}</title>"
            f'<meta name="description" content="synthetic {key}">'
            f"</head><body>"
            f"<main><h1>{title}</h1>"
            f"<p>{paras[0]}</p>"
            f"<h2>{h2a}</h2><p>{paras[1]}</p>"
            f"<h3>{h3}</h3>"
            + "".join(f"<p>{p}</p>" for p in paras[2:])
            + f"<h2>{h2b}</h2>"
            f"<ul>{ul}</ul><ol>{ol}</ol>"
            f'<pre><code class="language-python">{code}</code></pre>'
            f"<blockquote>{quote}</blockquote>"
            + "".join(links)
            + imgs
            + "</main></body></html>"
        )

    # ----------------------------------------------------------- sitemaps

    def sitemap_priority(self, pid: int) -> float | None:
        if pid % 5 == 4:
            return None
        return round(1.0 - 0.1 * (pid % 10), 1)

    def sitemap_lastmod(self, pid: int) -> str:
        return f"2025-{1 + pid % 9:02d}-15"

    def _urlset(self, d: int, pids: list[int], namespaced: bool) -> str:
        ns = (
            ' xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"'
            if namespaced
            else ""
        )
        entries = []
        for pid in pids:
            pr = self.sitemap_priority(pid)
            cf = _CHANGEFREQS[pid % len(_CHANGEFREQS)]
            e = f"<url><loc>{self.page_url(d, pid)}</loc>"
            e += f"<lastmod>{self.sitemap_lastmod(pid)}</lastmod>"
            if cf:
                e += f"<changefreq>{cf}</changefreq>"
            if pr is not None:
                e += f"<priority>{pr}</priority>"
            e += "</url>"
            entries.append(e)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            f"<urlset{ns}>" + "".join(entries) + "</urlset>"
        )

    def sitemap_body(self, d: int, path: str) -> str | None:
        P = self.pages_per_domain
        namespaced = d % 2 == 0
        indexed = d % 4 == 3
        if path == "/sitemap.xml":
            if not indexed:
                return self._urlset(d, list(range(P)), namespaced)
            ns = (
                ' xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"'
                if namespaced
                else ""
            )
            return (
                '<?xml version="1.0" encoding="UTF-8"?>'
                f"<sitemapindex{ns}>"
                f"<sitemap><loc>{self.base_url(d)}/sitemap-a.xml</loc></sitemap>"
                f"<sitemap><loc>{self.base_url(d)}/sitemap-b.xml</loc></sitemap>"
                "</sitemapindex>"
            )
        if indexed and path == "/sitemap-a.xml":
            return self._urlset(d, [p for p in range(P) if p % 2 == 0], namespaced)
        if indexed and path == "/sitemap-b.xml":
            return self._urlset(d, [p for p in range(P) if p % 2 == 1], namespaced)
        return None

    # -------------------------------------------------------------- fetch

    def domain_index(self, domain: str) -> int | None:
        if not domain.startswith("site") or not domain.endswith(".test"):
            return None
        try:
            d = int(domain[4 : -len(".test")])
        except ValueError:
            return None
        return d if 0 <= d < self.n_domains else None

    def fetch(self, url: str) -> FetchResult:
        from urllib.parse import urlparse

        if self.fetch_latency > 0.0:
            time.sleep(self.fetch_latency)
        p = urlparse(url)
        d = self.domain_index(p.netloc)
        if d is None:
            return FetchResult(404, "text/plain", b"no such domain")
        path = p.path
        if path == "/robots.txt":
            body = f"User-agent: *\nSitemap: {self.base_url(d)}/sitemap.xml\n"
            return FetchResult(200, "text/plain", body.encode())
        if path.endswith(".xml"):
            body = self.sitemap_body(d, path)
            if body is None:
                return FetchResult(404, "text/plain", b"no such sitemap")
            return FetchResult(200, "application/xml", body.encode())
        if path.startswith("/img/"):
            name = path[len("/img/"):]
            stem, _, ext = name.rpartition(".")
            parts = stem.split("-")
            if len(parts) == 4 and ext in ("png", "lossy"):
                try:
                    dd, pid, k = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError:
                    return FetchResult(404, "text/plain", b"bad image")
                if dd == d and pid < self.n_pages(d) and k < self.images_per_page:
                    # serve bytes only — image_record would also decode,
                    # phash and caption (the ground-truth extras), billing
                    # ~0.1 ms/image of pure waste to the fetch stage.
                    # Pixels key off the CANONICAL id (not the raw URL
                    # stem) so alias spellings return identical bytes.
                    data = encode_image(
                        self.image_pixels(self.image_id(d, pid, k)),
                        self.image_fmt(d, pid, k))
                    ctype = "image/png" if ext == "png" else "application/octet-stream"
                    return FetchResult(200, ctype, data)
            return FetchResult(404, "text/plain", b"no such image")
        if path.startswith("/page/"):
            try:
                pid = int(path[len("/page/"):])
            except ValueError:
                return FetchResult(404, "text/plain", b"bad page")
            if pid >= self.n_pages(d):
                return FetchResult(404, "text/plain", b"no such page")
            status = self.page_status(d, pid)
            if status != 200:
                return FetchResult(status, "text/html", b"gone")
            return FetchResult(200, "text/html", self.page_html(d, pid).encode())
        return FetchResult(404, "text/plain", b"not found")
