"""Disjunctive block-max WAND (OR path): bitwise parity with the exhaustive
scorer on every fixture query, plus an actual-skipping assertion on a Zipf
corpus (rare essential term + long common lists -> most common-term blocks
never decode). Reference capability: ES executes OR queries with
block-max WAND (Lucene WANDScorer); repo backlog #2 / VERDICT r1 #6.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.search import LocalSearcher

N_DOCS = 4000


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    src = tmp_path_factory.mktemp("webtext_bm")
    t = fixtures.generate_webtext(N_DOCS)
    pq.write_table(t, str(src / "part-0.parquet"))
    out = str(tmp_path_factory.mktemp("index_bm"))
    build_index(str(src), out, BuildConfig(docs_per_segment=800,
                                           extract_concurrency=2))
    return out


def test_blockmax_bitwise_equals_fulldecode(index_dir):
    lo = LocalSearcher(index_dir)
    for q in fixtures.generate_queries()["query"].to_pylist():
        ids_f, sc_f = lo.search(q, k=10, or_strategy="exact")
        ids_b, sc_b = lo.search(q, k=10, or_strategy="blockmax")
        assert ids_f.tolist() == ids_b.tolist(), q
        assert sc_f.tolist() == sc_b.tolist(), q  # bitwise


def test_blockmax_skips_blocks_on_zipf_corpus(index_dir):
    lo = LocalSearcher(index_dir)
    # rare tail term drives; the head term's postings span many blocks of
    # which only the candidate-bearing ones may decode
    ids, sc = lo.search("the w2000", k=5, or_strategy="blockmax")
    decoded, total = lo.last_block_stats
    assert len(ids) > 0
    assert total > 10
    assert decoded < total, (decoded, total)
    # parity for this query too
    ids_f, sc_f = lo.search("the w2000", k=5, or_strategy="exact")
    assert ids.tolist() == ids_f.tolist()
    assert sc.tolist() == sc_f.tolist()


def test_blockmax_certificate_grows_essential_set(index_dir):
    """A query of equal-frequency common terms defeats pruning: the
    essential set must grow (possibly to all terms) and results stay
    exact — the fallback correctness path."""
    lo = LocalSearcher(index_dir)
    q = "the and of to a in"
    ids_f, sc_f = lo.search(q, k=10, or_strategy="exact")
    ids_b, sc_b = lo.search(q, k=10, or_strategy="blockmax")
    assert ids_f.tolist() == ids_b.tolist()
    assert sc_f.tolist() == sc_b.tolist()


def test_blockmax_k_larger_than_hits(index_dir):
    lo = LocalSearcher(index_dir)
    ids_f, sc_f = lo.search("w2000", k=500, or_strategy="exact")
    ids_b, sc_b = lo.search("w2000", k=500, or_strategy="blockmax")
    assert ids_f.tolist() == ids_b.tolist()
    assert sc_f.tolist() == sc_b.tolist()


def test_auto_strategy_parity_small_index(index_dir):
    """auto on a small index keeps the exhaustive path (volume threshold)
    and must return identical results either way."""
    lo = LocalSearcher(index_dir)
    ids_a, sc_a = lo.search("the w0042", k=10)  # auto
    ids_e, sc_e = lo.search("the w0042", k=10, or_strategy="exact")
    assert ids_a.tolist() == ids_e.tolist()
    assert sc_a.tolist() == sc_e.tolist()


def test_blocked_runs_cached_across_queries(index_dir):
    """The skip paths must serve repeat queries from _blocked_cache: no
    parquet re-read, and per-query block stats report only NEW decodes
    (a fully-memoized repeat decodes zero blocks)."""
    lo = LocalSearcher(index_dir)
    q = "the and of to a in"
    lo.search(q, k=10, or_strategy="blockmax")
    assert lo._blocked_cache, "blocked runs not cached"
    first = lo.last_block_stats
    n_reads = {"n": 0}
    for r in lo._term_readers:
        real = r.lookup

        def counting(*a, _real=real, **kw):
            n_reads["n"] += 1
            return _real(*a, **kw)

        r.lookup = counting
    # this test probes the layer BELOW the exact-request cache (the
    # blocked-reader memos), so drop the request cache to force execution
    lo._request_cache.clear()
    ids1, sc1 = lo.search(q, k=10, or_strategy="blockmax")
    assert n_reads["n"] == 0, "warm blockmax query re-read parquet"
    assert lo.last_block_stats[0] == 0  # all blocks were memoized
    assert lo.last_block_stats[1] == first[1]
    ids2, sc2 = lo.search(q, k=10, or_strategy="exact")
    assert ids1.tolist() == ids2.tolist()
    assert sc1.tolist() == sc2.tolist()


def test_single_term_blockmax_bitwise_parity(index_dir, monkeypatch):
    """Single-term top-k via ranked block decode (the degenerate WAND
    case, normally gated to df > 100k) must be bitwise-identical to the
    exhaustive single-term scorer and must actually skip blocks for a
    head term where k << df."""
    lo = LocalSearcher(index_dir)
    monkeypatch.setattr(LocalSearcher, "_SINGLE_TERM_BLOCKMAX_MIN_DF", 0)
    for term, k in [("the", 5), ("the", 50), ("of", 10),
                    ("w2000", 5), ("w0042", 3)]:
        ids_e, sc_e = lo.search(term, k=k, or_strategy="exact")
        ids_b, sc_b = lo.search(term, k=k, or_strategy="auto")
        assert ids_e.tolist() == ids_b.tolist(), term
        assert sc_e.tolist() == sc_b.tolist(), term  # bitwise
    # head term, tiny k: pruning must engage (most blocks undecoded)
    lo2 = LocalSearcher(index_dir)
    lo2.search("the", k=5, or_strategy="auto")
    decoded, total = lo2.last_block_stats
    assert total > 4
    assert decoded < total, (decoded, total)


def test_single_term_blockmax_k_exceeds_df(index_dir, monkeypatch):
    monkeypatch.setattr(LocalSearcher, "_SINGLE_TERM_BLOCKMAX_MIN_DF", 0)
    lo = LocalSearcher(index_dir)
    ids_e, sc_e = lo.search("w2000", k=10_000, or_strategy="exact")
    ids_b, sc_b = lo.search("w2000", k=10_000, or_strategy="auto")
    assert ids_e.tolist() == ids_b.tolist()
    assert sc_e.tolist() == sc_b.tolist()


def test_impact_cache_bounded_and_bitwise(index_dir, monkeypatch):
    """The per-(field, term) impact cache must not change scores, and its
    byte budget must hold under eviction pressure."""
    lo = LocalSearcher(index_dir)
    baseline = {}
    for q in ["the data", "the and of to a in", "w2000"]:
        ids, sc = lo.search(q, k=10, or_strategy="exact")
        baseline[q] = (ids.tolist(), sc.tolist())
    # tiny budget: every lookup evicts; results must stay bitwise-equal
    monkeypatch.setattr(LocalSearcher, "_CONTRIB_CACHE_CAP", 4096)
    lo2 = LocalSearcher(index_dir)
    for _ in range(2):
        for q, (ids_w, sc_w) in baseline.items():
            ids, sc = lo2.search(q, k=10, or_strategy="exact")
            assert ids.tolist() == ids_w
            assert sc.tolist() == sc_w
    assert lo2._contrib_cache_bytes <= 4096
    # warm cached path (default budget) also bitwise
    lo3 = LocalSearcher(index_dir)
    for q, (ids_w, sc_w) in baseline.items():
        lo3.search(q, k=10, or_strategy="exact")
        ids, sc = lo3.search(q, k=10, or_strategy="exact")
        assert ids.tolist() == ids_w
        assert sc.tolist() == sc_w
    assert lo3._contrib_cache_bytes > 0
