"""Segment boundaries and the build wave's shape: a seeded row sample read
from parquet footers / block metadata (no Ray Data job), and a bucket group
sized so the build wave keeps every CPU busy."""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.functions.analyzers import token_count_batch
from elasticsearch_data_loader_ray.index import build as B
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index,
    build_index_from_corpus,
)
from elasticsearch_data_loader_ray.index.search import search_inprocess


def _doc_table(idx: str) -> pa.Table:
    files = [B.seg_docs_path(idx, s)
             for s in sorted(mf.committed_segments(idx))]
    return pq.read_table(files, columns=["doc_id", "url", "doc_len"]
                         ).sort_by("doc_id")


def _no_ray_data_sample(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("bounds ran a Ray Data job")

    monkeypatch.setattr(rd.Dataset, "random_sample", refuse)
    monkeypatch.setattr(rd.Dataset, "count", refuse)


def test_same_input_same_boundaries(tmp_path, monkeypatch):
    """Two builds of one input freeze identical plan.json boundaries, and
    neither runs a Ray Data count or random_sample to place them."""
    _no_ray_data_sample(monkeypatch)
    src = str(tmp_path / "src")
    fixtures.write_webtext(src, 900, seed=11, rows_per_file=300)
    cfg = BuildConfig(docs_per_segment=150)
    plans = []
    for name in ("a", "b"):
        idx = str(tmp_path / name)
        build_index(src, idx, cfg)
        plans.append(mf.read_json(os.path.join(idx, "plan.json")))
    assert len(plans[0]["boundaries"]) >= 4
    assert plans[0]["boundaries"] == plans[1]["boundaries"]
    assert plans[0]["offsets"] == plans[1]["offsets"]


def test_balanced_segments_on_url_sorted_row_groups(tmp_path):
    """A url-sorted file with many row groups: each segment holds n/S docs
    within 25%. A sample of whole row groups would put every cut inside the
    few url ranges those groups cover."""
    n = 3000
    texts = [f"doc {i} alpha beta" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"https://site{i:06d}.example/" for i in range(n)]),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(corpus, str(src / "sorted.parquet"), row_group_size=200)
    cfg = BuildConfig(docs_per_segment=500)
    sources = B._parquet_sources(str(src))
    assert sources == [(str(src / "sorted.parquet"), n)]
    boundaries, n_rows = B._segment_boundaries(sources, B._read_file_urls,
                                               cfg)
    assert n_rows == n and len(boundaries) == 5
    counts = np.bincount(B._bucket_of(corpus["url"].to_numpy(
        zero_copy_only=False), boundaries), minlength=6)
    assert (np.abs(counts - n / 6) <= 0.25 * n / 6).all(), counts

    idx = str(tmp_path / "idx")
    stats = build_index_from_corpus(
        rd.read_parquet(str(src)), idx, cfg)
    per_seg = [s["n_docs"] for s in stats["per_segment"].values()]
    assert len(per_seg) == 6 and sum(per_seg) == n
    assert all(abs(c - n / 6) <= 0.25 * n / 6 for c in per_seg), per_seg


def test_driver_sample_keeps_arrow_pool_size(tmp_path):
    """Sampling parquet files on the driver leaves the driver's Arrow
    thread pool as it was; only worker tasks pin it to their CPU share."""
    src = str(tmp_path / "src")
    fixtures.write_webtext(src, 600, seed=5, rows_per_file=200)
    before = pa.cpu_count()
    pa.set_cpu_count(3)
    try:
        boundaries, _n = B._segment_boundaries(
            B._parquet_sources(src), B._read_file_urls,
            BuildConfig(docs_per_segment=100))
        assert len(boundaries) >= 4
        assert pa.cpu_count() == 3
    finally:
        pa.set_cpu_count(before)


def test_corpus_resume_without_plan_matches_fresh(tmp_path, monkeypatch):
    """build_index_from_corpus crashed after its corpus committed and
    before plan.json: the resume re-samples boundaries from the committed
    corpus files (footers + sampled rows, no Ray Data job) and gives the
    fresh build's doc ids and bitwise scores."""
    _no_ray_data_sample(monkeypatch)
    t = fixtures.generate_webtext(700, seed=19)
    from elasticsearch_data_loader_ray.stages.extract import extract_batch

    corpus = extract_batch(t, errors_dir=str(tmp_path / "errors"))
    cfg = BuildConfig(docs_per_segment=90)
    fresh = str(tmp_path / "fresh")
    want_stats = build_index_from_corpus(rd.from_arrow(corpus), fresh, cfg)
    idx = str(tmp_path / "idx")
    build_index_from_corpus(rd.from_arrow(corpus), idx, cfg)
    for f in ("plan.json", "stats.json"):
        os.unlink(os.path.join(idx, f))
    for sub in ("terms", "docs", "manifests", "term_stats"):
        shutil.rmtree(os.path.join(idx, sub))
    assert os.path.exists(os.path.join(idx, "corpus", "_SUCCESS"))
    # the committed corpus replaces the input: an empty one proves it
    got_stats = build_index_from_corpus(rd.from_arrow(corpus.slice(0, 0)),
                                        idx, cfg)
    assert got_stats["n_docs"] == want_stats["n_docs"]
    assert got_stats["dl_total"] == want_stats["dl_total"]
    assert _doc_table(idx).equals(_doc_table(fresh))
    queries = fixtures.generate_queries()
    got = search_inprocess(idx, queries).to_pandas()
    want = search_inprocess(fresh, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()  # bitwise


@pytest.mark.parametrize("ncpus", [1, 2, 3, 4, 8, 32])
def test_build_group_fills_the_cpus(ncpus):
    """The build wave has at least min(n_buckets, ncpus) tasks, never more
    than one per bucket, and never fewer than BUILD_GROUP allows."""
    for n_buckets in range(1, 400):
        g = B._build_group(n_buckets, ncpus)
        tasks = len(B._group_cuts(n_buckets, g)) - 1
        assert tasks == math.ceil(n_buckets / g)
        assert tasks >= min(n_buckets, ncpus)
        assert math.ceil(n_buckets / B.BUILD_GROUP) <= tasks <= n_buckets
