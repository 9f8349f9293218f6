"""Snapshot/restore (index/snapshot.py): incremental blobs, mutation
isolation, checksum verification, GC."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray.functions.analyzers import (
    token_count_batch,
)
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
)
from elasticsearch_data_loader_ray.index.search import LocalSearcher
from elasticsearch_data_loader_ray.index.snapshot import (
    delete_snapshot,
    list_snapshots,
    restore_index,
    snapshot_index,
)


def _build(tmp, n=60, marker="alpha"):
    texts = [f"doc {marker} number {i} fast data" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([np.datetime64("2024-01-01", "us")] * n,
                            pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp / "idx")
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=16))
    return idx


def test_snapshot_restore_roundtrip_and_isolation(tmp_path, ray_session):
    from elasticsearch_data_loader_ray.index.append import delete_by_query

    idx = _build(tmp_path)
    repo = str(tmp_path / "repo")
    m1 = snapshot_index(idx, repo, "s1")
    # content-addressing may dedup identical files (e.g. empty _SUCCESS
    # markers) even within one snapshot
    assert 0 < m1["n_new_blobs"] <= m1["n_files"]
    before_ids, before_sc = LocalSearcher(idx).search("fast data", k=10)
    # mutate the ORIGINAL after the snapshot
    delete_by_query(idx, "alpha")
    ids_after, _ = LocalSearcher(idx).search("fast data", k=10)
    assert len(ids_after) == 0  # everything matched 'alpha'
    # the snapshot still serves the pre-mutation state, bitwise
    restored = str(tmp_path / "restored")
    restore_index(repo, "s1", restored)
    r_ids, r_sc = LocalSearcher(restored).search("fast data", k=10)
    assert list(r_ids) == list(before_ids)
    assert list(r_sc) == list(before_sc)


def test_snapshot_incremental_blobs(tmp_path, ray_session):
    from elasticsearch_data_loader_ray.index.append import delete_by_query

    idx = _build(tmp_path)
    repo = str(tmp_path / "repo")
    m1 = snapshot_index(idx, repo, "s1")
    m2 = snapshot_index(idx, repo, "s2")
    assert m2["n_new_blobs"] == 0  # unchanged index: pure manifest
    delete_by_query(idx, "number 3")  # small mutation
    m3 = snapshot_index(idx, repo, "s3")
    # only the mutated files (tombstones + stats) upload
    assert 0 < m3["n_new_blobs"] < m1["n_files"]
    assert list_snapshots(repo) == ["s1", "s2", "s3"]
    # duplicate names refused
    with pytest.raises(ValueError):
        snapshot_index(idx, repo, "s1")


def test_restore_detects_corruption_and_refuses_nonempty(tmp_path,
                                                         ray_session):
    idx = _build(tmp_path, n=30)
    repo = str(tmp_path / "repo")
    m = snapshot_index(idx, repo, "s1")
    # corrupt one blob
    blob = os.path.join(repo, "blobs", m["files"][0]["md5"])
    with open(blob, "r+b") as f:
        f.seek(0)
        f.write(b"\xde\xad")
    with pytest.raises(Exception):
        restore_index(repo, "s1", str(tmp_path / "r1"))
    # non-empty target refused
    tgt = tmp_path / "r2"
    tgt.mkdir()
    (tgt / "junk").write_text("x")
    with pytest.raises(ValueError):
        restore_index(repo, "s1", str(tgt))


def test_update_by_query_upserts_and_preserves_scores(tmp_path,
                                                      ray_session):
    from elasticsearch_data_loader_ray.index.aggs import (
        build_doc_values,
        terms_agg,
    )
    from elasticsearch_data_loader_ray.index.append import update_by_query

    idx = _build(tmp_path)  # every doc matches 'alpha', lang='en'
    ids0, sc0 = LocalSearcher(idx).search("fast data", k=10)
    stats = update_by_query(idx, "number 1 fast", {"lang": "xx"})
    # 'number 1 fast' AND-of-nothing: OR mode matches every doc (all
    # contain 'fast' and 'number'); doc "number 1" and all others match
    assert stats["n_deleted"] > 0  # upserts tombstoned old versions
    s = LocalSearcher(idx)
    ids1, _sc1 = s.search("fast data", k=10)
    # doc ids moved to the new generation (old versions tombstoned)
    assert set(ids1).isdisjoint(set(ids0))
    # engine semantics: df/n_docs keep counting tombstoned docs until a
    # REINDEX rebuilds the corpus (the ES expunge-deletes analogue) —
    # reindexing the live docs must restore the exact pre-update scores
    from elasticsearch_data_loader_ray.index.export import reindex_matches

    fresh = str(tmp_path / "fresh")
    reindex_matches(idx, fresh, "fast")  # matches every live doc
    _ids2, sc2 = LocalSearcher(fresh).search("fast data", k=10)
    assert list(np.round(sc2, 6)) == list(np.round(sc0, 6))
    build_doc_values(idx, "lang")
    t = terms_agg(idx, "fast", "lang", size=5)
    assert t["key"].to_pylist() == ["xx"]  # every matched doc updated


def test_delete_snapshot_gc(tmp_path, ray_session):
    from elasticsearch_data_loader_ray.index.append import delete_by_query

    idx = _build(tmp_path, n=30)
    repo = str(tmp_path / "repo")
    snapshot_index(idx, repo, "s1")
    delete_by_query(idx, "number 1")
    snapshot_index(idx, repo, "s2")
    blobs = os.path.join(repo, "blobs")
    n_before = len(os.listdir(blobs))
    removed = delete_snapshot(repo, "s2")
    assert removed > 0  # s2-only blobs GC'd
    assert len(os.listdir(blobs)) == n_before - removed
    # s1 still restores after the GC
    restore_index(repo, "s1", str(tmp_path / "r"))
    assert list_snapshots(repo) == ["s1"]


def test_snapshot_excludes_doclen_memmaps(tmp_path, ray_session):
    """The ``doclen/`` memmaps a search leaves behind are derived: a
    snapshot skips them, and a restored index rebuilds them on its first
    query and scores bitwise like the original."""
    idx = _build(tmp_path)
    want_ids, want_sc = LocalSearcher(idx).search("fast data", k=10)
    assert os.listdir(os.path.join(idx, "doclen"))  # the search made one
    repo = str(tmp_path / "repo")
    m = snapshot_index(idx, repo, "s1")
    assert not [f["rel"] for f in m["files"]
                if f["rel"].startswith("doclen/")]
    restored = str(tmp_path / "restored")
    restore_index(repo, "s1", restored)
    assert not os.path.exists(os.path.join(restored, "doclen"))
    got_ids, got_sc = LocalSearcher(restored).search("fast data", k=10)
    assert got_ids.tolist() == want_ids.tolist()
    assert got_sc.tolist() == want_sc.tolist()
