"""Segment merge: search results must be bit-identical before and after."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.merge import merge_segments
from elasticsearch_data_loader_ray.index.search import search, search_inprocess


@pytest.fixture(scope="module")
def merged_index(tmp_path_factory):
    src = tmp_path_factory.mktemp("mg_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("mg_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    queries = fixtures.generate_queries()
    before = search(out, queries).to_pandas()
    n_before = len(mf.committed_segments(out))
    survivors = merge_segments(out, group_size=3)
    return out, queries, before, n_before, survivors


def test_merge_reduces_segments(merged_index):
    out, _q, _b, n_before, survivors = merged_index
    assert n_before >= 4
    after = mf.committed_segments(out)
    assert len(after) == len(survivors) < n_before
    m = next(m for m in after.values() if "absorbed" in m)
    assert len(m["absorbed"]) >= 2
    assert m["absorbed_buckets"] == sorted(m["absorbed"])  # first-level merge


def test_merge_preserves_search_bitwise(merged_index):
    out, queries, before, _n, _s = merged_index
    after = search(out, queries).to_pandas()
    assert before["doc_id"].tolist() == after["doc_id"].tolist()
    assert before["score"].tolist() == after["score"].tolist()
    local = search_inprocess(out, queries).to_pandas()
    assert local["score"].tolist() == after["score"].tolist()


def test_merge_idempotent_convergence(merged_index):
    out, queries, before, _n, _s = merged_index
    merge_segments(out, group_size=10)
    assert len(mf.committed_segments(out)) <= 2
    final = search(out, queries).to_pandas()
    assert final["score"].tolist() == before["score"].tolist()


def test_build_resume_after_merge_rebuilds_nothing(merged_index, tmp_path_factory):
    """A build resumed on a merged index must not re-index absorbed buckets
    (duplicate docs) — covered_buckets includes absorbed ids."""
    import pyarrow.parquet as pq_

    from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index

    out, queries, before, _n, _s = merged_index
    # simulate a pipeline retry: finalize markers removed, build re-run
    os.unlink(os.path.join(out, "stats.json"))
    os.unlink(os.path.join(out, "term_stats", "_SUCCESS"))
    src = tmp_path_factory.mktemp("mg_resrc")
    pq_.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    stats = build_index(str(src), out, BuildConfig(docs_per_segment=100))
    assert stats["n_segments"] == len(mf.committed_segments(out))
    after = search(out, queries).to_pandas()
    assert after["doc_id"].tolist() == before["doc_id"].tolist()
    assert after["score"].tolist() == before["score"].tolist()


def test_merged_equals_directly_built(tmp_path_factory):
    """Strong invariant: an index built with many segments then merged to
    one holds the SAME decoded postings as an index built as one segment
    directly (block layouts differ, content must not)."""
    import numpy as np

    from elasticsearch_data_loader_ray.index import codec
    from elasticsearch_data_loader_ray.index.build import seg_terms_path

    src = tmp_path_factory.mktemp("inv_src")
    pq.write_table(fixtures.generate_webtext(400), str(src / "p.parquet"))
    many = str(tmp_path_factory.mktemp("inv_many"))
    build_index(str(src), many, BuildConfig(docs_per_segment=60))
    merge_segments(many, group_size=100)  # collapse to one
    one = str(tmp_path_factory.mktemp("inv_one"))
    build_index(str(src), one, BuildConfig(docs_per_segment=10**6))

    def postings_map(idx):
        from elasticsearch_data_loader_ray.index.build import read_segment_terms

        seg = sorted(mf.committed_segments(idx))[0]
        t = read_segment_terms(idx, seg)
        out = {}
        for i in range(t.num_rows):
            key = (t["field"][i].as_py(), t["term"][i].as_py())
            ids, tfs = codec.decode_postings(
                t["doc_ids_enc"][i].as_py(), t["tfs_enc"][i].as_py(),
                int(t["df"][i].as_py()))
            out[key] = (ids.tolist(), tfs.tolist())
        return out

    a, b = postings_map(many), postings_map(one)
    assert set(a) == set(b)
    for k in a:
        assert a[k] == b[k], k


def test_conjunctive_after_merge(merged_index):
    out, _q, _b, _n, _s = merged_index
    q = [{"query_id": 0, "query": "the data", "k": 10, "mode": "and"}]
    dist = search(out, q).to_pandas()
    local = search_inprocess(out, q).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert len(dist) > 0


def test_searcher_epoch_swap_after_merge(tmp_path_factory):
    """A LocalSearcher bound before a merge keeps serving after refresh():
    the committed-segment epoch swap rebinds files and drops caches, and
    results from the merged segments are bitwise-identical (the ES
    refresh analogue)."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("ref_src")
    pq.write_table(fixtures.generate_webtext(500), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("ref_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    lo = LocalSearcher(out)
    before = [lo.search(q, k=10)
              for q in ("the data", "w0042", "index query page web")]
    old_ids = list(lo.seg_ids)
    merge_segments(out, group_size=3)
    assert lo.refresh() is True
    assert lo.seg_ids != old_ids
    assert any(s >= mf.MERGED_ID_BASE for s in lo.seg_ids)
    for q, (ids_b, sc_b) in zip(
            ("the data", "w0042", "index query page web"), before):
        ids_a, sc_a = lo.search(q, k=10)
        assert ids_b.tolist() == ids_a.tolist()
        assert sc_b.tolist() == sc_a.tolist()  # bitwise across the swap
    # idempotent: no further change -> no swap
    assert lo.refresh() is False


def test_searcher_picks_up_merge_without_refresh(tmp_path_factory):
    """A searcher picks up a merge on its next search with no refresh()
    call: every query first checks the stats.json commit point."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("ar_src")
    pq.write_table(fixtures.generate_webtext(400), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("ar_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    lo = LocalSearcher(out)
    ids_b, sc_b = lo.search("the data", k=10)
    merge_segments(out, group_size=10)
    ids_a, sc_a = lo.search("the data", k=10)  # swapped epoch
    assert any(s >= mf.MERGED_ID_BASE for s in lo.seg_ids)
    assert ids_b.tolist() == ids_a.tolist()
    assert sc_b.tolist() == sc_a.tolist()


def test_compact_to_bounds_segment_count(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.merge import compact_to

    src = tmp_path_factory.mktemp("ct_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    src = str(src)
    idx = str(tmp_path_factory.mktemp("idx_compact"))
    stats = build_index(src, idx, BuildConfig(docs_per_segment=60))
    assert stats["n_segments"] >= 8
    queries = fixtures.generate_queries()
    before = search(idx, queries).to_pandas()
    survivors = compact_to(idx, 3)
    assert len(survivors) <= 3
    assert len(mf.committed_segments(idx)) == len(survivors)
    after = search(idx, queries).to_pandas()
    assert before["doc_id"].tolist() == after["doc_id"].tolist()
    assert before["score"].tolist() == after["score"].tolist()


def test_build_merges_at_commit(tmp_path_factory, monkeypatch):
    """A build whose plan has more segments than merge.MAX_SEGMENTS
    leaves at most that many visible segments, with results bitwise-equal
    to the same build under a bound above its segment count; the merge
    time is in phase_secs and the returned stats equal stats.json."""
    from elasticsearch_data_loader_ray.index import merge
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("mc_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    cfg = BuildConfig(docs_per_segment=50)
    plain = str(tmp_path_factory.mktemp("mc_plain"))
    stats_plain = build_index(str(src), plain, cfg)
    assert 3 < stats_plain["n_segments"] <= merge.MAX_SEGMENTS
    assert "compact" not in stats_plain["phase_secs"]

    monkeypatch.setattr(merge, "MAX_SEGMENTS", 3)
    merged = str(tmp_path_factory.mktemp("mc_merged"))
    stats = build_index(str(src), merged, cfg)
    seg_ids = LocalSearcher(merged).seg_ids
    assert len(seg_ids) <= 3
    assert stats["n_segments"] == len(seg_ids)
    assert "compact" in stats["phase_secs"]
    assert stats == mf.read_json(os.path.join(merged, "stats.json"))

    queries = fixtures.generate_queries()
    want = search_inprocess(plain, queries).to_pandas()
    got = search_inprocess(merged, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()
    for q in ("the data", "w0042"):
        ids_w, sc_w = LocalSearcher(plain).search(q, k=10, mode="and")
        ids_g, sc_g = LocalSearcher(merged).search(q, k=10, mode="and")
        assert ids_g.tolist() == ids_w.tolist()
        assert sc_g.tolist() == sc_w.tolist()
