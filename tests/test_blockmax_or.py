"""The exact scorer's block-max bounds (one window loop for OR and AND):
bitwise parity with the webtext oracle and with a dense brute force on a
tombstoned index, plus actual-skipping assertions on a Zipf corpus (a rare
term's bound lifts the k-th score so that most of a head term's blocks
never decode). Reference capability: ES executes OR queries with block-max
WAND / MaxScore (Lucene ``MaxScoreBulkScorer``).
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest
from bm25_brute import brute_topk

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import oracle
from elasticsearch_data_loader_ray.index.append import (
    append_index,
    delete_by_query,
)
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    _Run,
    query_terms,
)

N_DOCS = 4000


@pytest.fixture(scope="module")
def webtext():
    return fixtures.generate_webtext(N_DOCS)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, webtext):
    src = tmp_path_factory.mktemp("webtext_bm")
    pq.write_table(webtext, str(src / "part-0.parquet"))
    out = str(tmp_path_factory.mktemp("index_bm"))
    build_index(str(src), out, BuildConfig(docs_per_segment=800))
    return out


@pytest.fixture(scope="module")
def tombstoned_dir(tmp_path_factory):
    """Base build, a delete_by_query, and three appends of new urls plus
    url upserts: at least 10 segments over four generations, tombstones
    in each, and a global avgdl that moved after the base segments'
    bounds were encoded."""
    t = fixtures.generate_webtext(3400)
    src = tmp_path_factory.mktemp("webtext_ts")
    pq.write_table(t.slice(0, 2000), str(src / "part-0.parquet"))
    out = str(tmp_path_factory.mktemp("index_ts"))
    cfg = BuildConfig(docs_per_segment=400)
    build_index(str(src), out, cfg)
    assert delete_by_query(out, "w0042") > 0
    for i, (upsert, new) in enumerate([((100, 200), (2000, 600)),
                                       ((700, 50), (2600, 400)),
                                       ((1500, 80), (3000, 400))]):
        app = tmp_path_factory.mktemp(f"webtext_ts_app{i}")
        pq.write_table(t.slice(*upsert), str(app / "part-0.parquet"))
        pq.write_table(t.slice(*new), str(app / "part-1.parquet"))
        append_index(str(app), out, cfg)
    assert delete_by_query(out, "w0100") > 0
    return out


def _same(got, want, label):
    assert np.asarray(got[0]).tolist() == np.asarray(want[0]).tolist(), label
    # bitwise: float lists compare exactly
    assert np.asarray(got[1]).tolist() == np.asarray(want[1]).tolist(), label


def _count_term_lookups(lo) -> dict:
    """Count the searcher's term-dictionary lookups from now on."""
    n = {"n": 0}
    for r in lo._term_readers:
        real = r.lookup

        def counting(*a, _real=real, **kw):
            n["n"] += 1
            return _real(*a, **kw)

        r.lookup = counting
    return n


def test_blockmax_bitwise_equals_fulldecode(index_dir, webtext):
    """Every fixture query: the exact scorer equals the webtext oracle."""
    qs = fixtures.generate_queries()
    ref = oracle.bm25_topk(webtext, qs).to_pandas()
    lo = LocalSearcher(index_dir)
    for qid, q in zip(qs["query_id"].to_pylist(), qs["query"].to_pylist()):
        want = ref[ref.query_id == qid].sort_values("rank")
        _same(lo.search(q, k=10),
              (want.doc_id.to_numpy(), want.score.to_numpy()), q)


def test_blockmax_skips_blocks_on_zipf_corpus(index_dir):
    lo = LocalSearcher(index_dir)
    # the rare term's bound lifts theta: the head term's postings span
    # many blocks of which only the candidate-bearing ones may decode
    ids, sc = lo.search("the w2000", k=5)
    decoded, total = lo.last_block_stats
    assert len(ids) > 0
    assert total > 10
    assert decoded < total, (decoded, total)
    _same((ids, sc), brute_topk(index_dir, "the w2000", 5), "the w2000")


def test_blockmax_certificate_grows_essential_set(index_dir):
    """A query of equal-frequency common terms defeats pruning: every term
    stays essential and results stay exact."""
    lo = LocalSearcher(index_dir)
    q = "the and of to a in"
    _same(lo.search(q, k=10), brute_topk(index_dir, q, 10), q)


def test_blockmax_k_larger_than_hits(index_dir):
    lo = LocalSearcher(index_dir)
    ids, sc = lo.search("w2000", k=500)
    assert 0 < len(ids) < 500
    _same((ids, sc), brute_topk(index_dir, "w2000", 500), "w2000")


def test_blocked_runs_cached_across_queries(index_dir):
    """Repeat queries are served from the postings cache (one block
    directory per term over its segment runs) and the impact cache: no
    parquet re-read, and per-query block stats report only NEW decodes.
    The first query decodes blocks lazily, the second caches the terms it
    needs most of, a warm repeat decodes zero blocks."""
    lo = LocalSearcher(index_dir)
    q = "the and of to a in"
    lo.search(q, k=10)
    terms = ["a", "and", "in", "of", "the", "to"]
    for t in terms:
        d = lo._postings_cache[("text", t)]
        assert 1 < len(d.runs) <= len(lo.seg_ids)
        assert d.n_blocks == sum(r.n_blocks for r in d.runs)
        assert (np.diff(d.block_lo) > 0).all()
    first = lo.last_block_stats
    lo._request_cache.clear()
    lo.search(q, k=10)
    n_reads = _count_term_lookups(lo)
    # this test probes the layer BELOW the exact-request cache (the
    # block and impact caches), so drop the request cache to force it
    lo._request_cache.clear()
    ids1, sc1 = lo.search(q, k=10)
    assert n_reads["n"] == 0, "warm query re-read parquet"
    assert lo.last_block_stats[0] == 0  # every term's impacts cached
    assert lo.last_block_stats[1] == first[1]
    assert first[1] == sum(lo._postings_cache[("text", t)].n_blocks
                           for t in terms)
    _same((ids1, sc1), brute_topk(index_dir, q, 10), q)


def test_every_reader_shares_one_postings_read(index_dir):
    """matched_ids, an OR and an AND top-k and explain take a term's
    postings from one cache: after the first of them reads the terms'
    dictionary rows, the others read none, in either order, and every
    answer equals a fresh searcher's."""
    fresh = LocalSearcher(index_dir)
    doc = int(fresh.search("the data", k=1)[0][0])
    calls = [
        ("matched", lambda lo: lo.matched_ids("text", ["data", "the"])),
        ("or", lambda lo: lo.search("the data")),
        ("and", lambda lo: lo.search("the data", mode="and")),
        ("explain", lambda lo: lo.explain("the data", doc)),
    ]
    want = {name: fn(LocalSearcher(index_dir)) for name, fn in calls}
    for order in (calls, calls[::-1]):
        lo = LocalSearcher(index_dir)
        n = None
        for name, fn in order:
            got = fn(lo)
            if n is None:
                n = _count_term_lookups(lo)
            if name == "matched":
                assert got.tolist() == want[name].tolist()
            elif name == "explain":
                assert got == want[name]
            else:
                _same(got, want[name], name)
        assert n["n"] == 0, [name for name, _fn in order]


def test_last_block_stats_follow_every_query(index_dir):
    """Every scored query sets (blocks decoded, blocks total) of its own
    terms; an OR or AND query must not report the block counts of the
    query before it."""
    lo = LocalSearcher(index_dir)

    def n_blocks(terms):
        dirs = lo._load_blocked_runs("text", terms)
        return sum(r.n_blocks for t in terms for r in dirs[t].runs)

    lo.search("the w2000", k=10, mode="and")  # rare-term AND
    assert lo.last_block_stats[1] == n_blocks(["the", "w2000"])
    lo.search("news info site", k=10)
    assert lo.last_block_stats[1] == n_blocks(["info", "news", "site"])
    lo.search("the of", k=10, mode="and")  # head-term AND
    assert lo.last_block_stats[1] == n_blocks(["of", "the"])
    lo.search("zzqmissingzz", k=10)
    assert lo.last_block_stats == (0, 0)


def test_single_term_blockmax_bitwise_parity(index_dir):
    """Single-term top-k equals the brute force and, for a head term
    with k << df, decodes only the blocks whose bound reaches the k-th
    score."""
    lo = LocalSearcher(index_dir)
    for term, k in [("the", 5), ("the", 50), ("of", 10),
                    ("w2000", 5), ("w0042", 3)]:
        _same(lo.search(term, k=k), brute_topk(index_dir, term, k), term)
    lo2 = LocalSearcher(index_dir)
    lo2.search("the", k=5)
    decoded, total = lo2.last_block_stats
    assert total > 4
    assert decoded < total, (decoded, total)


def test_single_term_blockmax_k_exceeds_df(index_dir):
    lo = LocalSearcher(index_dir)
    _same(lo.search("w2000", k=10_000),
          brute_topk(index_dir, "w2000", 10_000), "w2000")


def _runs_blocks(lo, q: str, mode: str) -> int:
    """Blocks of the query's scored terms, summed over their segment
    runs (0 when an AND query has a term absent from the index)."""
    terms = query_terms(q)
    live = [t for t in terms if t in lo._idf("text", terms)]
    if mode == "and" and len(live) < len(terms):
        return 0
    dirs = lo._load_blocked_runs("text", live)
    return sum(r.n_blocks for d in dirs.values() if d is not None
               for r in d.runs)


def test_window_loop_property_on_tombstoned_index(tombstoned_dir,
                                                  monkeypatch):
    """Seeded 1-5-term Zipf queries, OR and AND, k in {1, 10, 100,
    n_docs}, on a >=10-segment index with a window small enough that
    every query crosses many windows, and windows and blocks straddle
    segment runs: bitwise equal to the dense brute force over live docs,
    and ``last_block_stats`` counts every block of the terms' runs."""
    monkeypatch.setattr(LocalSearcher, "_WINDOW", 256)
    rng = np.random.default_rng(13)
    vocab = np.array(fixtures._vocab(), dtype=object)
    probs = fixtures._zipf_probs(len(vocab))
    lo = LocalSearcher(tombstoned_dir)
    assert len(lo.seg_ids) >= 10
    assert not lo._live.all()
    checked = 0
    for _ in range(40):
        q = " ".join(vocab[rng.choice(len(vocab), rng.integers(1, 6),
                                      p=probs)])
        for mode in ("or", "and"):
            for k in (1, 10, 100, lo.n_docs):
                want = brute_topk(tombstoned_dir, q, k, mode)
                lo._request_cache.clear()  # the scorer runs every time
                _same(lo.search(q, k=k, mode=mode), want, (q, mode, k))
                decoded, total = lo.last_block_stats
                assert total == _runs_blocks(lo, q, mode), (q, mode, k)
                assert 0 <= decoded <= total
                checked += len(want[0]) > 0
    assert checked > 100


def test_window_loop_fetches_a_term_once_per_window(tombstoned_dir,
                                                    monkeypatch):
    """A warm OR query reads each term once per window and phase (the
    seed of theta, then the window's essential read or probe), through
    its one block directory, whatever the number of segment runs."""
    lo = LocalSearcher(tombstoned_dir)
    assert len(lo.seg_ids) >= 7
    calls = []
    phase = ["window"]
    fetch, seed = LocalSearcher._fetch, LocalSearcher._seed_theta

    def counting_fetch(self, *a, **kw):
        # (..., run, block ids, window start, ...)
        i = next(i for i, x in enumerate(a) if isinstance(x, _Run))
        calls.append((phase[0], a[i].term, a[i + 2]))
        return fetch(self, *a, **kw)

    def phased_seed(self, *a, **kw):
        phase[0] = "seed"
        try:
            return seed(self, *a, **kw)
        finally:
            phase[0] = "window"

    queries = ["the w2000", "news info site", "the and of to a in", "w0042"]
    for window in (LocalSearcher._WINDOW, 512):
        monkeypatch.setattr(LocalSearcher, "_WINDOW", window)
        for q in queries:
            lo.search(q, k=10)  # warm
            lo._request_cache.clear()
            monkeypatch.setattr(LocalSearcher, "_fetch", counting_fetch)
            monkeypatch.setattr(LocalSearcher, "_seed_theta", phased_seed)
            calls.clear()
            got = lo.search(q, k=10)
            monkeypatch.setattr(LocalSearcher, "_fetch", fetch)
            monkeypatch.setattr(LocalSearcher, "_seed_theta", seed)
            _same(got, brute_topk(tombstoned_dir, q, 10), q)
            assert calls, q
            dup = {c for c in calls if calls.count(c) > 1}
            assert not dup, (q, window, sorted(dup))
            lo._request_cache.clear()


def test_term_postings_held_once(tombstoned_dir):
    """After a warm query a term's decoded postings exist once: every
    segment run's ids/tfs are views of the term's one buffer, and the
    impact cache holds one contribution array per term."""
    lo = LocalSearcher(tombstoned_dir)
    q = "the data news w2000"
    for _ in range(2):
        lo._request_cache.clear()
        lo.search(q, k=lo.n_docs)
    multi = 0
    for t in query_terms(q):
        d = lo._postings_cache[("text", t)]
        assert d.ids is not None and len(d.ids) == d.df
        for r in d.runs:
            assert np.shares_memory(r.ids, d.ids), t
            assert np.shares_memory(r.tfs, d.tfs), t
        multi += len(d.runs) > 1
        con = lo._contrib_cache[("text", t)]
        assert isinstance(con, np.ndarray) and len(con) == d.df, t
    assert multi >= 2


def test_impact_cache_bounded_and_bitwise(index_dir, monkeypatch):
    """The per-(field, term) impact cache must not change scores, and its
    byte budget must hold under eviction pressure."""
    lo = LocalSearcher(index_dir)
    baseline = {}
    for q in ["the data", "the and of to a in", "w2000"]:
        ids, sc = lo.search(q, k=10)
        baseline[q] = (ids.tolist(), sc.tolist())
    # tiny budget: every lookup evicts; results must stay bitwise-equal
    monkeypatch.setattr(LocalSearcher, "_CONTRIB_CACHE_CAP", 4096)
    lo2 = LocalSearcher(index_dir)
    for _ in range(2):
        for q, (ids_w, sc_w) in baseline.items():
            ids, sc = lo2.search(q, k=10)
            assert ids.tolist() == ids_w
            assert sc.tolist() == sc_w
    assert lo2._contrib_cache_bytes <= 4096
    # warm cached path (default budget) also bitwise: a term's impacts
    # are cached when a second query needs most of its blocks
    lo3 = LocalSearcher(index_dir)
    for q, (ids_w, sc_w) in baseline.items():
        lo3.search(q, k=10)
        lo3._request_cache.clear()
        ids, sc = lo3.search(q, k=10)
        assert ids.tolist() == ids_w
        assert sc.tolist() == sc_w
    assert lo3._contrib_cache_bytes > 0
