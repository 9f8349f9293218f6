"""ES bool query (must / should / must_not / filter / minimum_should_match).

Semantics vs a brute-force in-test oracle over the raw texts, and bitwise
parity between ``search_inprocess`` (one whole-index LocalSearcher) and
``search()`` (LocalSearchers bound to segment groups, merged).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray.functions.analyzers import (
    analyze,
    token_count_batch,
)
from elasticsearch_data_loader_ray.index import codec
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
)
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    search,
    search_inprocess,
)

VOCAB = ["data", "query", "scan", "table", "fast", "slow", "join",
         "hash", "part", "value", "the", "index", "merge"]


def _texts(n: int = 400) -> list[str]:
    rng = np.random.default_rng(7)
    return [" ".join(rng.choice(VOCAB, rng.integers(4, 40)))
            for _ in range(n)]


@pytest.fixture(scope="module")
def bool_index(tmp_path_factory):
    texts = _texts()
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("bool_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    return idx, texts


def brute_bool(texts: list[str], bq: dict, k: int = 10):
    """Independent per-doc reference implementation of the bool contract."""
    toks = [analyze("standard", t) for t in texts]
    tfs = [Counter(tk) for tk in toks]
    dl = np.array([len(tk) for tk in toks], dtype=np.float64)
    avgdl = float(dl.sum() / len(dl))
    df = Counter()
    for c in tfs:
        df.update(c.keys())
    n = len(texts)

    def clause(s):
        return sorted(set(analyze("standard", s)))

    must = [clause(s) for s in bq.get("must", ())]
    should = [clause(s) for s in bq.get("should", ())]
    must_not = [clause(s) for s in bq.get("must_not", ())]
    filters = list(bq.get("filter", ()))
    msm = bq.get("minimum_should_match")
    msm_div = bq.get("minimum_should_match_divisor")
    if msm is None:
        msm = 0 if (must or filters or msm_div) else 1

    def matches(d, cl):
        return any(t in tfs[d] for t in cl)

    hits = []
    for d in range(n):
        if any(not matches(d, cl) for cl in must):
            continue
        if any(matches(d, cl) for cl in must_not):
            continue
        ok = True
        for flt in filters:
            if "term" in flt:
                ok &= flt["term"]["value"] in tfs[d]
            elif "terms" in flt:
                ok &= any(v in tfs[d] for v in flt["terms"]["values"])
            else:
                r = flt["range"]
                ok &= (r.get("gte", -1e18) <= dl[d] <= r.get("lte", 1e18))
        if not ok:
            continue
        if should and sum(matches(d, cl) for cl in should) < msm:
            continue
        if msm_div and should:
            # terms_set: per-doc dynamic minimum_should_match
            req = min(len(should), max(1, int(dl[d]) // msm_div))
            if sum(matches(d, cl) for cl in should) < req:
                continue
        if not must and not should and not filters:
            continue
        s = 0.0
        for cl in (*must, *should):
            for t in cl:
                if t in tfs[d]:
                    s += float(codec.bm25_idf(df[t], n)) * float(
                        codec.bm25_tf_impact(
                            np.array([tfs[d][t]], np.float64),
                            np.array([dl[d]]), avgdl)[0])
        hits.append((d, s))
    hits.sort(key=lambda x: (-x[1], x[0]))
    ids = np.array([h[0] for h in hits[:k]], np.int64)
    sc = np.array([h[1] for h in hits[:k]], np.float64)
    return ids, sc


BOOL_CASES = [
    {"must": ["data query"], "should": ["fast", "scan table"],
     "must_not": ["slow"]},
    {"must": ["the"],
     "filter": [{"range": {"field": "word_count", "gte": 10, "lte": 25}}]},
    {"should": ["query scan", "hash join"], "minimum_should_match": 2},
    {"must": ["data"], "filter": [{"term": {"value": "table"}}]},
    {"must": ["value part"], "must_not": ["merge", "index the"]},
    {"should": ["fast value"]},  # default msm = 1 (no must/filter)
    {"must": ["data", "query", "the"],
     "filter": [{"term": {"value": "join"}},
                {"range": {"gte": 8}}]},
    {"must": ["data"],
     "filter": [{"terms": {"values": ["join", "merge", "zzqnone"]}}]},
    {"filter": [{"terms": {"values": ["fast", "slow"]}}]},
    # terms_set: per-doc dynamic msm — long docs must match more terms
    {"should": ["data", "query", "scan", "table", "fast"],
     "minimum_should_match_divisor": 8},
    {"must": ["the"], "should": ["data", "hash", "join", "merge"],
     "minimum_should_match_divisor": 12},
]


def test_terms_set_dynamic_msm_varies_with_doc_len(bool_index):
    """The dynamic gate must actually bind: with divisor 8 over 4-40
    token docs, some docs match the set >=1 time yet are excluded
    because their length demands more matches (else the case above
    degenerates to a plain OR)."""
    idx, texts = bool_index
    ls = LocalSearcher(idx)
    terms = ["data", "query", "scan", "table", "fast"]
    plain, _ = ls.search_bool({"should": terms}, k=10**6)
    gated, _ = ls.search_bool(
        {"should": terms, "minimum_should_match_divisor": 8}, k=10**6)
    assert 0 < len(gated) < len(plain)


def test_bool_matches_brute_force(bool_index):
    idx, texts = bool_index
    ls = LocalSearcher(idx)
    for bq in BOOL_CASES:
        ids, sc = ls.search_bool(bq, k=12)
        want_ids, want_sc = brute_bool(texts, bq, k=12)
        assert ids.tolist() == want_ids.tolist(), bq
        np.testing.assert_allclose(sc, want_sc, rtol=1e-9)


def test_bool_local_vs_distributed_bitwise(bool_index):
    idx, _texts_ = bool_index
    qs = [{"query_id": i, "bool": bq, "k": 12}
          for i, bq in enumerate(BOOL_CASES)]
    dist = search(idx, qs).to_pandas()
    local = search_inprocess(idx, qs).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()  # bitwise


def test_bool_unmatchable_must_is_empty(bool_index):
    idx, _ = bool_index
    ls = LocalSearcher(idx)
    ids, sc = ls.search_bool({"must": ["zzzmissing"]})
    assert len(ids) == 0
    ids, _sc = ls.search_bool({"must": ["data"],
                               "filter": [{"term": {"value": "zzzgone"}}]})
    assert len(ids) == 0


def test_bool_range_only_constant_score(bool_index):
    idx, texts = bool_index
    ls = LocalSearcher(idx)
    bq = {"filter": [{"range": {"gte": 30}}]}
    ids, sc = ls.search_bool(bq, k=1000)
    toks = [analyze("standard", t) for t in texts]
    want = [d for d, tk in enumerate(toks) if len(tk) >= 30]
    assert ids.tolist() == want[:1000]
    assert np.all(sc == 0.0)  # filter context never scores
    # distributed path agrees
    dist = search(idx, [{"query_id": 0, "bool": bq, "k": 1000}]).to_pandas()
    assert dist["doc_id"].tolist() == ids.tolist()


def test_bool_msm_tightens_result_set(bool_index):
    idx, _ = bool_index
    ls = LocalSearcher(idx)
    loose, _ = ls.search_bool(
        {"should": ["fast", "slow", "merge"], "minimum_should_match": 1},
        k=1000)
    tight, _ = ls.search_bool(
        {"should": ["fast", "slow", "merge"], "minimum_should_match": 3},
        k=1000)
    assert set(tight.tolist()) <= set(loose.tolist())
    assert len(tight) < len(loose)


def test_bool_exists_filter_drops_missing(tmp_path_factory):
    """ES exists query as a bool filter: docs with a null doc-value for
    the column are excluded; scoring/order of the surviving docs is
    untouched; local == distributed bitwise; exists-only queries match
    every non-missing doc."""
    import ray.data as rd

    from elasticsearch_data_loader_ray.functions.analyzers import (
        analyze,
        token_count_batch,
    )
    from elasticsearch_data_loader_ray.index.build import (
        BuildConfig,
        build_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        search,
    )

    rng = np.random.default_rng(7)
    vocab = ["data", "query", "scan", "the", "fast"]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 12)))
             for _ in range(240)]
    lg = [None if i % 5 == 0 else "en" for i in range(240)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(lg, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("exists_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    s = LocalSearcher(idx)
    bq = {"must": ["the data"], "filter": [{"exists": {"field": "lang"}}]}
    ids, sc = s.search_bool(bq, k=1000)
    base_ids, base_sc = s.search_bool({"must": ["the data"]}, k=1000)
    toks = [set(analyze("standard", t)) for t in texts]
    want = [d for d in base_ids.tolist() if lg[d] is not None]
    assert ids.tolist() == want
    assert len(want) < len(base_ids)  # the filter really dropped docs
    # surviving scores identical to the unfiltered query's
    m = {d: v for d, v in zip(base_ids.tolist(), base_sc.tolist())}
    assert sc.tolist() == [m[d] for d in ids.tolist()]
    # distributed path bitwise-identical
    got = search(idx, [{"query_id": 0, "bool": bq, "k": 1000}]).to_pandas()
    assert got["doc_id"].tolist() == ids[:1000].tolist()
    assert got["score"].tolist() == sc[:1000].tolist()
    # exists-only: every doc with a lang, constant candidates via range
    only_bq = {"filter": [{"exists": {"field": "lang"}}]}
    only, only_sc = s.search_bool(only_bq, k=1000)
    assert only.tolist() == [i for i in range(n) if lg[i] is not None]
    # ...and each segment group of search() contributes only its own docs
    got = search(idx, [{"query_id": 0, "bool": only_bq,
                        "k": 1000}]).to_pandas()
    assert got["doc_id"].tolist() == only.tolist()
    assert got["score"].tolist() == only_sc.tolist()


@pytest.mark.parametrize("bq", [
    {"must": ["data"], "filter": [{"range": {"field": "nosuch", "gte": 1}}]},
    {"should": ["data", "query"], "minimum_should_match_divisor": 4,
     "minimum_should_match_source": "nosuch"},
])
def test_bool_unindexed_field_is_clear_error(bool_index, bq):
    """A doc-length-backed bool clause naming a field the index lacks
    fails with a ValueError naming it, locally and through search()."""
    idx, _ = bool_index
    with pytest.raises(ValueError, match="'nosuch'"):
        LocalSearcher(idx).search_bool(bq, k=5)
    with pytest.raises(ValueError, match="'nosuch'"):
        search(idx, [{"query_id": 0, "bool": bq, "k": 5}])


def test_parse_query_string_lowering():
    from elasticsearch_data_loader_ray.index.search import parse_query_string

    bq = parse_query_string("data +query -slow word_count:[30 TO 70]")
    assert bq["must"] == ["query"]
    assert bq["should"] == ["data"]
    assert bq["must_not"] == ["slow"]
    assert bq["minimum_should_match"] == 0  # must present -> optional OR
    assert bq["filter"] == [
        {"range": {"field": "word_count", "gte": 30.0, "lte": 70.0}}]
    # bare terms only: at least one must match (default_operator=OR)
    assert parse_query_string("a b")["minimum_should_match"] == 1
    # open-ended range bounds
    f = parse_query_string("x word_count:[* TO 55]")["filter"][0]["range"]
    assert "gte" not in f and f["lte"] == 55.0


def test_query_string_vs_explicit_bool(bool_index):
    idx, texts = bool_index
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher, parse_query_string)

    s = LocalSearcher(idx)
    got = s.search_bool(parse_query_string("data +query -slow"), k=20)
    want = s.search_bool({"must": ["query"], "should": ["data"],
                          "must_not": ["slow"],
                          "minimum_should_match": 0}, k=20)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_exists_cache_is_epoch_scoped(tmp_path_factory):
    """An append adding docs with null doc-values must be visible to an
    already-bound searcher after refresh() — the null-id cache is
    epoch-scoped, not process-lifetime (regression: getattr-created
    caches survived _bind)."""
    import ray.data as rd

    from elasticsearch_data_loader_ray.functions.analyzers import (
        token_count_batch,
    )
    from elasticsearch_data_loader_ray.index.append import (
        append_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.build import (
        BuildConfig,
        build_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    def corpus(urls, texts, langs):
        ta = pa.array(texts, pa.large_string())
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * len(urls), pa.timestamp("us")),
            "text": ta,
            "lang": pa.array(langs, pa.string()),
            "doc_len": pa.array(token_count_batch(ta), pa.int32()),
        })

    idx = str(tmp_path_factory.mktemp("exists_epoch"))
    base = corpus([f"a{i:04d}" for i in range(40)],
                  ["the data query"] * 40, ["en"] * 40)
    build_index_from_corpus(rd.from_arrow(base), idx,
                            BuildConfig(docs_per_segment=16))
    s = LocalSearcher(idx)
    bq = {"must": ["the data"], "filter": [{"exists": {"field": "lang"}}]}
    n_before = len(s.search_bool(bq, k=1000)[0])
    assert n_before == 40
    # append docs WITHOUT a lang value
    extra = corpus([f"b{i:04d}" for i in range(10)],
                   ["the data query"] * 10, [None] * 10)
    append_index_from_corpus(rd.from_arrow(extra), idx,
                             BuildConfig(docs_per_segment=16))
    assert s.refresh()
    ids, _sc = s.search_bool(bq, k=1000)
    assert len(ids) == 40  # the 10 null-lang appends are filtered out
    all_ids, _ = s.search_bool({"must": ["the data"]}, k=1000)
    assert len(all_ids) == 50  # ...but they are in the unfiltered match
