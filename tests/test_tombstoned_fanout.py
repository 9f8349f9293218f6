"""Aggregations, exports and match-set queries on a tombstoned,
multi-segment-group index.

The index has more segments than the test cluster has CPUs, so every
segment-group task binds several segments. Before checking, a
``delete_by_query`` and an append with url upserts tombstone docs in both
generations; every result must equal a brute force over the live docs
only, with scores compared bitwise against the whole-index exhaustive
scorer or the dense per-term brute force (``bm25_brute``). Queries with a
query-row form run both on a whole-index searcher and through the
segment-group fan-out."""

from __future__ import annotations

import fnmatch
import re
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd
from bm25_brute import brute_topk

from elasticsearch_data_loader_ray.functions.analyzers import (
    analyze,
    token_count_batch,
)
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.aggs import (
    sampler_terms_agg,
    stats_agg,
    terms_agg,
    top_hits_agg,
)
from elasticsearch_data_loader_ray.index.append import (
    append_index_from_corpus,
    delete_by_query,
)
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
    seg_docs_path,
)
from elasticsearch_data_loader_ray.index.export import (
    collapse_matches,
    count_matches,
    sorted_matches,
)
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    _run_query,
    _segment_groups,
    query_terms,
    search,
)

LANGS = ["en", "de", "fr", "es", "it"]
VOCAB = ["data", "query", "scan", "table", "fast", "the", "index", "merge"]
QUERY = "data fast"
QTERMS = {"data", "fast"}


def _corpus(urls: list[str], texts: list[str], langs: list[str]) -> pa.Table:
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(langs, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })


def _texts(rng, n: int, marker_share: float) -> list[str]:
    out = []
    for _ in range(n):
        words = list(rng.choice(VOCAB, rng.integers(2, 12)))
        if rng.random() < marker_share:
            words.append("purge")
        out.append(" ".join(words))
    return out


@pytest.fixture(scope="module")
def live_index(tmp_path_factory):
    """(index dir, live doc id -> (text, lang)) after a delete and an
    upserting append; brute-forced from the inputs, not the index."""
    rng = np.random.default_rng(11)
    n = 480
    urls = [f"u{i:06d}" for i in range(n)]
    texts = _texts(rng, n, 0.25)
    langs = [LANGS[i % len(LANGS)] for i in range(n)]
    idx = str(tmp_path_factory.mktemp("tomb_idx"))
    build_index_from_corpus(rd.from_arrow(_corpus(urls, texts, langs)), idx,
                            BuildConfig(docs_per_segment=40))
    assert delete_by_query(idx, "purge") == sum(
        "purge" in analyze("standard", t) for t in texts)
    # upsert every 7th url (purged or not) and add brand-new urls
    up = list(range(0, n, 7))
    new_urls = [urls[i] for i in up] + [f"v{i:06d}" for i in range(50)]
    new_texts = _texts(rng, len(new_urls), 0.0)
    new_langs = [LANGS[(i * 3) % len(LANGS)] for i in range(len(new_urls))]
    append_index_from_corpus(
        rd.from_arrow(_corpus(new_urls, new_texts, new_langs)), idx,
        BuildConfig(docs_per_segment=40))

    final = {u: (t, g) for u, t, g in zip(urls, texts, langs)
             if "purge" not in analyze("standard", t)}
    final.update(zip(new_urls, zip(new_texts, new_langs)))
    segs = sorted(mf.committed_segments(idx))
    docs = pq.read_table([seg_docs_path(idx, s) for s in segs],
                         columns=["doc_id", "url"])
    newest: dict[str, int] = {}
    for d, u in zip(docs["doc_id"].to_pylist(), docs["url"].to_pylist()):
        newest[u] = max(d, newest.get(u, -1))  # appends get higher ids
    live = {newest[u]: final[u] for u in final}
    return idx, live, len(segs)


def _matched(live: dict, mode: str = "or") -> list[int]:
    ok = (lambda tk: QTERMS <= tk) if mode == "and" else \
        (lambda tk: bool(QTERMS & tk))
    return sorted(d for d, (t, _g) in live.items()
                  if ok(set(analyze("standard", t))))


def _exact_scores(idx: str) -> dict[int, float]:
    s = LocalSearcher(idx)
    ids, sc = s.search(QUERY, k=s.n_docs)
    return dict(zip(ids.tolist(), np.round(sc, 6).tolist()))


def _dl(live: dict, d: int) -> int:
    return len(analyze("standard", live[d][0]))


def check_terms_agg(idx, live):
    got = terms_agg(idx, QUERY, "lang", size=10, metric_field="text")
    cnt = Counter(live[d][1] for d in _matched(live))
    sums = defaultdict(int)
    for d in _matched(live):
        sums[live[d][1]] += _dl(live, d)
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    assert got["key"].to_pylist() == [k for k, _ in want]
    assert got["doc_count"].to_pylist() == [v for _, v in want]
    assert got["avg_word_count"].to_pylist() == \
        [sums[k] / cnt[k] for k, _ in want]


def check_stats_agg(idx, live):
    got = stats_agg(idx, QUERY).to_pylist()[0]
    dls = [_dl(live, d) for d in _matched(live)]
    assert got == {"doc_count": len(dls), "min_word_count": min(dls),
                   "max_word_count": max(dls), "sum_word_count": sum(dls),
                   "avg_word_count": sum(dls) / len(dls)}


def check_count_matches(idx, live):
    assert count_matches(idx, QUERY) == len(_matched(live))
    assert count_matches(idx, QUERY, mode="and") == \
        len(_matched(live, "and"))


def check_sorted_matches(idx, live):
    for mode in ("or", "and"):
        got = sorted_matches(idx, QUERY, "word_count", k=25, mode=mode)
        want = sorted((-_dl(live, d), d) for d in _matched(live, mode))[:25]
        assert got["doc_id"].to_pylist() == [d for _v, d in want]
        assert got["sort_value"].to_pylist() == [-v for v, _d in want]


def check_collapse_matches(idx, live):
    got = collapse_matches(idx, QUERY, "lang", k=4)
    exact = _exact_scores(idx)
    assert sorted(exact) == _matched(live)
    best = {}
    for d, s in sorted(exact.items(), key=lambda x: (-x[1], x[0])):
        best.setdefault(live[d][1], (d, s))
    want = sorted(best.items(), key=lambda kv: (-kv[1][1], kv[1][0]))[:4]
    assert list(zip(got["key"].to_pylist(), got["doc_id"].to_pylist(),
                    got["score"].to_pylist())) == \
        [(k, d, s) for k, (d, s) in want]


def check_top_hits_agg(idx, live):
    got = top_hits_agg(idx, QUERY, "lang", num_buckets=3, size_per_bucket=4)
    exact = _exact_scores(idx)
    assert sorted(exact) == _matched(live)
    by_key = defaultdict(list)
    for d, s in exact.items():
        by_key[live[d][1]].append((d, s))
    buckets = sorted(((k, len(v)) for k, v in by_key.items()),
                     key=lambda kv: (-kv[1], kv[0]))[:3]
    want = []
    for k, cnt in buckets:
        hits = sorted(by_key[k], key=lambda ds: (-ds[1], ds[0]))[:4]
        want += [(k, cnt, r, d, s) for r, (d, s) in enumerate(hits, 1)]
    assert list(zip(*[got[c].to_pylist() for c in got.column_names])) \
        == want


def check_sampler_terms_agg(idx, live):
    got = sampler_terms_agg(idx, QUERY, "lang", shard_size=30,
                            num_buckets=10)
    exact = _exact_scores(idx)
    sample = sorted(exact.items(), key=lambda x: (-x[1], x[0]))[:30]
    want = Counter(live[d][1] for d, _s in sample)
    assert dict(zip(got["key"].to_pylist(),
                    got["doc_count"].to_pylist())) == dict(want)


def _contrib(idx: str, term: str) -> dict[int, float]:
    """Live doc id -> ``term``'s BM25 contribution (dense brute force)."""
    ids, sc = brute_topk(idx, term, k=1 << 30)
    return dict(zip(ids.tolist(), sc.tolist()))


def _ranked(scores: dict[int, float]) -> tuple[list[int], list[float]]:
    best = sorted(scores.items(), key=lambda x: (-x[1], x[0]))
    return [d for d, _s in best], [s for _d, s in best]


def _served(idx: str, row: dict) -> tuple[list[int], list[float]]:
    """One query row on a whole-index searcher; the segment-group fan-out
    must return the same rows."""
    ids, sc = _run_query(LocalSearcher(idx), row)
    t = search(idx, [{"query_id": 0, **row}])
    assert t["doc_id"].to_pylist() == ids.tolist()
    assert t["score"].to_pylist() == sc.tolist()
    return ids.tolist(), sc.tolist()


def _tokens(live: dict, d: int) -> list[str]:
    return analyze("standard", live[d][0])


BOOL_BODIES = [
    {"must": ["data"], "should": ["fast", "query scan"],
     "must_not": ["merge"], "minimum_should_match": 1,
     "filter": [{"range": {"field": "word_count", "gte": 3, "lte": 9}}]},
    # no must: at least two of three should clauses (the counting path)
    {"should": ["data", "fast", "query scan"], "must_not": ["merge"],
     "minimum_should_match": 2},
]


def check_search_bool(idx, live):
    for bq in BOOL_BODIES:
        clauses = {c: set(query_terms(c)) for key in ("must", "should",
                                                      "must_not")
                   for c in bq.get(key, ())}
        con = {t: _contrib(idx, t) for ts in clauses.values() for t in ts}
        (rng,) = [f["range"] for f in bq.get("filter", [{"range": {}}])]
        want = {}
        for d in live:
            toks = _tokens(live, d)
            tk = set(toks)
            if (not all(clauses[c] & tk for c in bq.get("must", ()))
                    or sum(bool(clauses[c] & tk) for c in bq["should"])
                    < bq["minimum_should_match"]
                    or any(clauses[c] & tk for c in bq["must_not"])
                    or not rng.get("gte", 0) <= len(toks)
                    <= rng.get("lte", 1 << 30)):
                continue
            sc = 0.0  # clause-major, each clause's terms sorted
            for c in (*bq.get("must", ()), *bq["should"]):
                for t in sorted(clauses[c] & tk):
                    sc += con[t][d]
            want[d] = sc
        assert want
        assert _served(idx, {"bool": bq, "k": len(live)}) == _ranked(want)


def check_search_bool_prefix(idx, live):
    con = _contrib(idx, "query")
    want = {}
    for d in live:
        tk = set(_tokens(live, d))
        fixed, prefix = "query" in tk, any(t.startswith("fa") for t in tk)
        if fixed or prefix:
            want[d] = (con[d] if fixed else 0.0) + (1.0 if prefix else 0.0)
    ids, sc = LocalSearcher(idx).search_bool_prefix("query fa", k=len(live))
    assert (ids.tolist(), sc.tolist()) == _ranked(want)


def _check_const_union(idx, live, mode, pattern, matches):
    """A constant-score multi-term query: live docs holding any term that
    ``matches``, first 60 by doc id, score 1.0."""
    want = sorted(d for d in live
                  if any(matches(t) for t in _tokens(live, d)))[:60]
    got = _served(idx, {"mode": mode, "query": pattern, "k": 60})
    assert got == (want, [1.0] * len(want))
    return want


def check_search_wildcard(idx, live):
    assert _check_const_union(idx, live, "wildcard", "*a*",
                              lambda t: fnmatch.fnmatchcase(t, "*a*"))
    # every doc holding "purge" was deleted or superseded
    assert _check_const_union(idx, live, "wildcard", "pu*",
                              lambda t: t.startswith("pu")) == []


def check_search_regexp(idx, live):
    assert _check_const_union(idx, live, "regexp", "(fa|pu).*",
                              lambda t: re.fullmatch("(fa|pu).*", t))


def check_search_boosting(idx, live):
    con = {t: _contrib(idx, t) for t in sorted(QTERMS)}
    want = {}
    for d in live:
        tk = set(_tokens(live, d))
        if not QTERMS & tk:
            continue
        sc = 0.0  # lexicographic, the OR convention
        for t in sorted(QTERMS & tk):
            sc += con[t][d]
        want[d] = sc * 0.5 if "merge" in tk else sc
    row = {"mode": "boosting", "query": QUERY, "negative": "merge",
           "negative_boost": 0.5, "k": len(live)}
    assert _served(idx, row) == _ranked(want)


def check_matched_ids_and(idx, live):
    s = LocalSearcher(idx)
    want = _matched(live, "and")
    assert s.matched_ids("text", sorted(QTERMS), "and").tolist() == want
    got = [d for g in _segment_groups(s.seg_ids)
           for d in LocalSearcher(idx, segments=g).matched_ids(
               "text", sorted(QTERMS), "and").tolist()]
    assert sorted(got) == want


@pytest.mark.parametrize("check", [
    check_terms_agg, check_stats_agg, check_count_matches,
    check_sorted_matches, check_collapse_matches, check_top_hits_agg,
    check_sampler_terms_agg, check_search_bool, check_search_bool_prefix,
    check_search_wildcard, check_search_regexp, check_search_boosting,
    check_matched_ids_and])
def test_live_docs_only_on_multi_segment_groups(live_index, check):
    idx, live, n_segs = live_index
    groups = _segment_groups(list(range(n_segs)))
    assert n_segs > ray.cluster_resources()["CPU"]
    assert all(len(g) > 1 for g in groups)
    check(idx, live)
