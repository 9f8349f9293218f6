"""Multi-field indexing: per-field analyzer chains, field-scoped search."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.functions.analyzers import analyze
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index,
    seg_terms_path,
)
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    search,
    search_inprocess,
)

N = 400


@pytest.fixture(scope="module")
def multi_index(tmp_path_factory):
    src = tmp_path_factory.mktemp("mf_src")
    pq.write_table(fixtures.generate_webtext(N), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("mf_idx"))
    cfg = BuildConfig(
        docs_per_segment=120,
        fields=(
            ("text_unique", "text", "analyzer_unique_tf"),
            ("text_first", "text", "analyzer_limit_first"),
        ),
    )
    stats = build_index(str(src), out, cfg)
    return out, stats


def test_term_tables_have_all_fields(multi_index):
    idx, stats = multi_index
    segs = sorted(mf.committed_segments(idx))
    tt = pq.read_table(seg_terms_path(idx, segs[0]))
    fields = set(tt["field"].to_pylist())
    assert fields == {"text", "text_unique", "text_first"}
    assert stats["field_analyzers"]["text_unique"] == "analyzer_unique_tf"
    assert stats["per_field"]["text_first"]["avgdl"] <= 1.0 + 1e-9


def test_term_tables_sorted_by_field_and_term(multi_index):
    """``fields`` are declared out of lexicographic order (text_unique
    before text_first); every segment's term table is still sorted by
    (field, term), as a merged segment's is."""
    idx, _ = multi_index
    for seg in sorted(mf.committed_segments(idx)):
        tt = pq.read_table(seg_terms_path(idx, seg), columns=["field", "term"])
        keys = list(zip(tt["field"].to_pylist(), tt["term"].to_pylist()))
        assert keys == sorted(keys), seg
        assert len(set(tt["field"].to_pylist())) == 3


def test_unique_field_tf_is_one(multi_index):
    idx, _ = multi_index
    from elasticsearch_data_loader_ray.index import codec

    segs = sorted(mf.committed_segments(idx))
    import pyarrow.compute as pc

    from elasticsearch_data_loader_ray.index.build import read_segment_terms

    tt = read_segment_terms(idx, segs[0])
    tt = tt.filter(pc.equal(tt["field"], "text_unique"))
    for i in range(min(20, tt.num_rows)):
        _, tfs = codec.decode_postings(
            tt["doc_ids_enc"][i].as_py(), tt["tfs_enc"][i].as_py(),
            int(tt["df"][i].as_py()))
        assert (tfs == 1).all()  # F9 unique filter: one occurrence per doc


def test_field_scoped_search(multi_index):
    idx, stats = multi_index
    q = [{"query_id": 0, "query": "the fast", "k": 10, "field": "text_unique"}]
    dist = search(idx, q).to_pandas()
    local = search_inprocess(idx, q).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()
    assert len(dist) > 0
    # tf=1 everywhere + same analyzer on both sides: brute-force check on the
    # first-token field
    q2 = [{"query_id": 1, "query": "The Quick", "k": 5, "field": "text_first"}]
    r2 = search_inprocess(idx, q2).to_pandas()
    # every hit's first standard token must be 'the'
    import glob

    corpus = pq.read_table(
        glob.glob(str(idx) + "/corpus/*.parquet"),
        columns=["url", "text"]).to_pandas()
    corpus = (corpus.sort_values("url").drop_duplicates("url")
              .reset_index(drop=True))  # doc_id = rank of url post-dedup
    for d in r2["doc_id"]:
        toks = analyze("analyzer_limit_first", corpus.iloc[int(d)]["text"])
        assert toks == ["the"]


def test_default_field_unaffected(multi_index):
    idx, _ = multi_index
    queries = fixtures.generate_queries()
    res = search(idx, queries).to_pandas()
    assert len(res) > 0  # plain text-field search still works


def test_multi_match_most_fields_parity_and_semantics(multi_index):
    """multi_match most_fields: distributed vs local bitwise parity, and
    combined score == sum of the per-field single-field scores for docs
    present in both fields' result sets."""
    idx, _ = multi_index
    q = [{"query_id": 0, "query": "the fast data", "k": 400,
          "fields": ["text", "text_unique"]}]
    dist = search(idx, q).to_pandas()
    local = search_inprocess(idx, q).to_pandas()
    assert len(dist) > 0
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()  # bitwise
    # semantics: sum of the two per-field searches (k large enough to
    # cover every matching doc)
    per = {}
    for f in ["text", "text_unique"]:
        r = search_inprocess(
            idx, [{"query_id": 0, "query": "the fast data", "k": 10**6,
                   "field": f}]).to_pandas()
        per[f] = dict(zip(r["doc_id"], r["score"]))
    for d, s in zip(dist["doc_id"], dist["score"]):
        want = per["text"].get(d, 0.0) + per["text_unique"].get(d, 0.0)
        assert abs(s - want) < 1e-9, (d, s, want)


def test_multi_match_best_fields_parity_and_semantics(multi_index):
    idx, _ = multi_index
    q = [{"query_id": 0, "query": "the fast data", "k": 400,
          "fields": ["text", "text_unique"], "multi_type": "best_fields"}]
    dist = search(idx, q).to_pandas()
    local = search_inprocess(idx, q).to_pandas()
    assert len(dist) > 0
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()
    per = {}
    for f in ["text", "text_unique"]:
        r = search_inprocess(
            idx, [{"query_id": 0, "query": "the fast data", "k": 10**6,
                   "field": f}]).to_pandas()
        per[f] = dict(zip(r["doc_id"], r["score"]))
    for d, s in zip(dist["doc_id"], dist["score"]):
        want = max(per["text"].get(d, 0.0), per["text_unique"].get(d, 0.0))
        assert abs(s - want) < 1e-12, (d, s, want)


def test_multi_match_missing_field_and_bad_type(multi_index):
    idx, _ = multi_index
    # a field with no indexed terms for the query contributes nothing
    r = search_inprocess(idx, [{"query_id": 0, "query": "zzqnowhere",
                                "k": 5, "fields": ["text", "text_unique"]}])
    assert r.num_rows == 0
    import pytest as _pt
    with _pt.raises(ValueError):
        search(idx, [{"query_id": 0, "query": "the", "k": 5,
                      "fields": ["text"], "multi_type": "bogus"}])


def test_multi_match_field_boost(multi_index):
    """ES 'name^boost' syntax: boosted most_fields = sum(boost_f *
    field_score_f); boosted best_fields = max(boost_f * field_score_f);
    local and distributed paths bitwise-identical."""
    idx, _ = multi_index
    per = {}
    for f in ["text", "text_unique"]:
        r = search_inprocess(
            idx, [{"query_id": 0, "query": "the fast data", "k": 10**6,
                   "field": f}]).to_pandas()
        per[f] = dict(zip(r["doc_id"], r["score"]))
    for mtype, comb in [("most_fields", lambda a, b: a + 3.0 * b),
                        ("best_fields", lambda a, b: max(a, 3.0 * b))]:
        q = [{"query_id": 0, "query": "the fast data", "k": 400,
              "fields": ["text", "text_unique^3"], "multi_type": mtype}]
        dist = search(idx, q).to_pandas()
        local = search_inprocess(idx, q).to_pandas()
        assert len(dist) > 0
        assert dist["doc_id"].tolist() == local["doc_id"].tolist()
        assert dist["score"].tolist() == local["score"].tolist()
        for d, s in zip(dist["doc_id"], dist["score"]):
            want = comb(per["text"].get(d, 0.0),
                        per["text_unique"].get(d, 0.0))
            assert abs(s - want) < 1e-9, (mtype, d, s, want)
