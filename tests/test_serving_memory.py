"""Serving-memory bounds (VERDICT r2 item 5): LocalSearcher must not hold
O(n_docs) dense arrays — doc lengths come from a pages-on-demand memmap
sidecar and score accumulation uses a fixed-size doc-id window buffer, so
per-query heap tracks the postings touched, not the corpus size."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from bm25_brute import brute_topk

from elasticsearch_data_loader_ray.functions.analyzers import token_count_batch
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index_from_corpus
from elasticsearch_data_loader_ray.index.search import LocalSearcher

NEEDLE_DF = 150  # docs containing the probe term, constant across sizes


def _index(tmp_path, n_docs: int) -> str:
    texts = [
        ("needle beacon " if i < NEEDLE_DF else "")
        + f"w{i % 97} filler{i % 31} pad{i % 7} body text row"
        for i in range(n_docs)
    ]
    t = pa.table({
        "url": pa.array([f"{i:012d}" for i in range(n_docs)], pa.string()),
        "warc_ts": pa.array([0] * n_docs, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n_docs, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    out = str(tmp_path / f"idx_{n_docs}")
    build_index_from_corpus(
        rd.from_arrow(t), out, BuildConfig(docs_per_segment=1000))
    return out


def _query_peak(idx_dir: str) -> tuple[int, np.ndarray]:
    s = LocalSearcher(idx_dir)
    ids0, _ = s.search("needle", 10)  # builds sidecar + warms caches
    tracemalloc.start()
    ids, _sc = s.search("needle", 10)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(ids, ids0)
    return peak, ids


def test_doclen_is_memmap_and_query_heap_is_corpus_independent(tmp_path):
    small = _index(tmp_path, 4_000)
    large = _index(tmp_path, 32_000)

    s_large = LocalSearcher(large)
    dl = s_large._dl_for("text")
    assert isinstance(dl, np.memmap), "doc lengths must be a memmap sidecar"
    assert len(dl) == s_large.n_docs

    peak_small, ids_small = _query_peak(small)
    peak_large, ids_large = _query_peak(large)
    assert len(ids_small) == 10 and len(ids_large) == 10
    # 8x corpus, identical needle df: warm-query heap must not scale with
    # the corpus (allow 2x + slack for allocator noise)
    assert peak_large < 2 * peak_small + (1 << 20), (peak_small, peak_large)


def test_doclen_sidecar_reused_across_searchers(tmp_path):
    idx = _index(tmp_path, 4_000)
    a = LocalSearcher(idx)
    a.search("needle", 5)
    import os

    sidecars = os.listdir(os.path.join(idx, "doclen"))
    assert sidecars, "first search must materialize the doclen sidecar"
    b = LocalSearcher(idx)  # second process-analogue: no rebuild
    ids_a, sc_a = a.search("filler3", 5)
    ids_b, sc_b = b.search("filler3", 5)
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(sc_a, sc_b)
    assert os.listdir(os.path.join(idx, "doclen")) == sidecars


def test_fulldecode_matches_blockmax_after_sparse_union(tmp_path):
    """The exact scorer (block-max bounds on) equals the dense brute
    force over the index's postings."""
    idx = _index(tmp_path, 8_000)
    s = LocalSearcher(idx)
    for q in ["needle beacon", "filler3 pad2 body", "w10 row text"]:
        i1, s1 = s.search(q, 10)
        i2, s2 = brute_topk(idx, q, 10)
        assert i1.tolist() == i2.tolist(), q
        assert s1.tolist() == s2.tolist(), q  # bitwise
