"""Stable hashing helpers shared by dedup / chunk-id / cache-key stages.

Reference parity points:
* chunk ids are ``md5(f"{source_url}:{heading_path}")`` etc.
  (``RAGnificent/utils/chunk_utils.py:56-58,106-108``)
* request-cache keys are blake2b-16 of the URL (``core/cache.py:176-178``)
"""

from __future__ import annotations

import hashlib


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def blake2b16_hex(s: str) -> str:
    return hashlib.blake2b(s.encode("utf-8"), digest_size=16).hexdigest()


def stable_hash64(s: str) -> int:
    """Unsigned 64-bit blake2b hash (process-stable, unlike ``hash()``)."""
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
    )
