"""Statically-pruned postings sidecar (index/pruned.py): the opt-in
approximate dense-OR path. Contract under test:

- keep_frac=1.0 keeps every posting -> pruned results are BITWISE equal
  to the exact path (same float64 accumulation order).
- any keep_frac: a returned doc's pruned score is <= its exact score and
  >= exact - last_pruned_bound; sub-threshold terms stay exact.
- epoch safety: append invalidates the sidecar; the pruned strategy then
  falls back to the exact path wholesale.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.pruned import (
    build_pruned_postings,
    drop_pruned,
)
from elasticsearch_data_loader_ray.index.search import LocalSearcher

QUERIES = ["the", "data search", "index query page web",
           "the of a w0100 w2000", "the w1500", "w0042", "THE DATA"]


@pytest.fixture(scope="module")
def pruned_index(tmp_path_factory):
    src = tmp_path_factory.mktemp("pr_src")
    pq.write_table(fixtures.generate_webtext(3000), str(src / "p.parquet"))
    idx = str(tmp_path_factory.mktemp("pr_idx"))
    build_index(str(src), idx, BuildConfig(docs_per_segment=500))
    return idx


def test_keep_all_is_bitwise_exact(pruned_index):
    n = build_pruned_postings(pruned_index, min_df=50, keep_frac=1.0)
    assert n > 0
    s = LocalSearcher(pruned_index)
    assert s.pruned_files
    for q in QUERIES:
        ids_e, sc_e = s.search(q, k=10, or_strategy="exact")
        ids_p, sc_p = s.search(q, k=10, or_strategy="pruned")
        assert ids_p.tolist() == ids_e.tolist(), q
        assert sc_p.tolist() == sc_e.tolist(), q


def test_pruned_scores_are_bounded_lower_estimates(pruned_index):
    build_pruned_postings(pruned_index, min_df=50, keep_frac=0.3)
    s = LocalSearcher(pruned_index)
    for q in QUERIES:
        ids_e, sc_e = s.search(q, k=1000, or_strategy="exact")
        exact_of = dict(zip(ids_e.tolist(), sc_e.tolist()))
        ids_p, sc_p = s.search(q, k=10, or_strategy="pruned")
        bound = s.last_pruned_bound
        for d, sc in zip(ids_p.tolist(), sc_p.tolist()):
            assert d in exact_of
            assert sc <= exact_of[d] + 1e-12, (q, d)
            assert sc >= exact_of[d] - bound - 1e-12, (q, d)
    # SINGLE-term pruned top-k is exact by construction: the kept set is
    # the per-term top by (contribution desc, doc id asc) — the same
    # ordering the exact path's top-k cut applies — so as long as
    # k <= kept postings the results must match bitwise. (Multi-term
    # fidelity is the documented approximation: flat BM25 impact
    # distributions make winners accumulate MEDIAN per-term contributions,
    # which per-term pruning drops — the committed 3.9M measurement in
    # BASELINE.md quantifies it.)
    ids_e, sc_e = s.search("the", k=10, or_strategy="exact")
    ids_p, sc_p = s.search("the", k=10, or_strategy="pruned")
    assert ids_p.tolist() == ids_e.tolist()
    assert sc_p.tolist() == sc_e.tolist()


def test_below_threshold_terms_stay_exact(pruned_index):
    build_pruned_postings(pruned_index, min_df=10**9, keep_frac=0.1)
    s = LocalSearcher(pruned_index)
    ids_e, sc_e = s.search("data search", k=10, or_strategy="exact")
    ids_p, sc_p = s.search("data search", k=10, or_strategy="pruned")
    assert ids_p.tolist() == ids_e.tolist()
    assert sc_p.tolist() == sc_e.tolist()
    assert s.last_pruned_bound == 0.0


def test_append_invalidates_sidecar(pruned_index, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from elasticsearch_data_loader_ray.functions.analyzers import (
        token_count_batch,
    )
    from elasticsearch_data_loader_ray.index.append import (
        append_index_from_corpus,
    )

    src = tmp_path / "src2"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(1000), str(src / "p.parquet"))
    idx = str(tmp_path / "idx2")
    build_index(str(src), idx, BuildConfig(docs_per_segment=250))
    build_pruned_postings(idx, min_df=50, keep_frac=0.2)
    texts = ["fresh appended doc the data"]
    corpus = pa.table({
        "url": pa.array(["https://pr/new"], pa.string()),
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"], pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    append_index_from_corpus(rd.from_arrow(corpus), idx,
                             BuildConfig(docs_per_segment=250))
    s = LocalSearcher(idx)
    assert s.pruned_files == []  # dropped by the append
    ids_e, sc_e = s.search("the data", k=10, or_strategy="exact")
    ids_p, sc_p = s.search("the data", k=10, or_strategy="pruned")
    assert ids_p.tolist() == ids_e.tolist()
    assert sc_p.tolist() == sc_e.tolist()
    # rebuild for the new epoch serves again
    build_pruned_postings(idx, min_df=50, keep_frac=1.0)
    s2 = LocalSearcher(idx)
    assert s2.pruned_files
    ids_p2, sc_p2 = s2.search("the data", k=10, or_strategy="pruned")
    assert ids_p2.tolist() == ids_e.tolist()
    assert sc_p2.tolist() == sc_e.tolist()
    drop_pruned(idx)
