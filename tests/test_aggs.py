"""ES terms aggregation (doc-values shards + per-segment partials)."""

from __future__ import annotations

import glob
import os
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray.functions.analyzers import (
    analyze,
    token_count_batch,
)
from elasticsearch_data_loader_ray.index.aggs import (
    build_doc_values,
    cardinality_agg,
    histogram_agg,
    percentiles_agg,
    range_agg,
    significant_terms_agg,
    stats_agg,
    terms_agg,
)
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
)

LANGS = ["en", "de", "fr", "es"]
VOCAB = ["data", "query", "scan", "table", "fast", "the"]


@pytest.fixture(scope="module")
def agg_index(tmp_path_factory):
    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(VOCAB, rng.integers(3, 20)))
             for _ in range(400)]
    lg = [LANGS[i % 4] for i in range(400)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(lg, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("agg_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    return idx, texts, lg


def test_terms_agg_matches_brute_force(agg_index):
    idx, texts, lg = agg_index
    got = terms_agg(idx, "the data", "lang", size=10,
                    metric_field="text").to_pandas()
    toks = [set(analyze("standard", t)) for t in texts]
    dls = [len(analyze("standard", t)) for t in texts]
    match = [i for i in range(len(texts)) if {"the", "data"} & toks[i]]
    cnt = Counter(lg[i] for i in match)
    sums = defaultdict(float)
    for i in match:
        sums[lg[i]] += dls[i]
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    assert got["key"].tolist() == [k for k, _ in want]
    assert got["doc_count"].tolist() == [v for _, v in want]
    # integer sums -> the avg is exact, not approximately equal
    assert got["avg_word_count"].tolist() == \
        [sums[k] / cnt[k] for k, _ in want]


def test_terms_agg_size_caps_buckets(agg_index):
    idx, _t, _l = agg_index
    got = terms_agg(idx, "the", "lang", size=2)
    assert got.num_rows == 2
    assert list(got.column_names) == ["key", "doc_count"]


def test_terms_agg_unmatched_query_empty(agg_index):
    idx, _t, _l = agg_index
    got = terms_agg(idx, "zzqnothing", "lang")
    assert got.num_rows == 0


def test_histogram_agg_matches_brute_force(agg_index):
    idx, texts, _l = agg_index
    got = histogram_agg(idx, "the data", 5).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    match = [i for i in range(len(texts))
             if {"the", "data"} & set(toks[i])]
    cnt = Counter((len(toks[i]) // 5) * 5 for i in match)
    want = sorted(cnt.items())
    assert got["key"].tolist() == [k for k, _ in want]
    assert got["doc_count"].tolist() == [v for _, v in want]


def test_stats_agg_matches_brute_force(agg_index):
    idx, texts, _l = agg_index
    got = stats_agg(idx, "the data").to_pandas().iloc[0]
    toks = [analyze("standard", t) for t in texts]
    dls = [len(tk) for i, tk in enumerate(toks)
           if {"the", "data"} & set(tk)]
    assert got["doc_count"] == len(dls)
    assert got["min_word_count"] == min(dls)
    assert got["max_word_count"] == max(dls)
    assert got["sum_word_count"] == sum(dls)
    assert got["avg_word_count"] == sum(dls) / len(dls)


def test_stats_agg_unmatched_is_empty_row(agg_index):
    idx, _t, _l = agg_index
    got = stats_agg(idx, "zzqnothing").to_pandas().iloc[0]
    assert got["doc_count"] == 0


def test_doc_values_shards_idempotent(agg_index):
    idx, _t, _l = agg_index
    build_doc_values(idx, "lang")
    shards = sorted(glob.glob(
        os.path.join(idx, "docvalues", "lang", "segment=*.parquet")))
    assert shards
    mtimes = [os.path.getmtime(s) for s in shards]
    build_doc_values(idx, "lang")  # committed shards are skipped
    assert [os.path.getmtime(s) for s in shards] == mtimes


def test_range_agg_matches_brute_force(agg_index):
    idx, texts, _l = agg_index
    ranges = [(None, 5), (5, 12), (4, 10), (12, None)]  # overlap allowed
    got = range_agg(idx, "the data", ranges).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    dls = [len(tk) for tk in toks
           if {"the", "data"} & set(tk)]
    want = []
    for frm, to in ranges:
        want.append(sum((frm is None or d >= frm)
                        and (to is None or d < to) for d in dls))
    assert got["range_key"].tolist() == ["*-5", "5-12", "4-10", "12-*"]
    assert got["doc_count"].tolist() == want


def test_range_agg_unmatched_returns_zero_buckets(agg_index):
    idx, _t, _l = agg_index
    got = range_agg(idx, "zzqnothing", [(None, 5), (5, None)]).to_pandas()
    assert got["doc_count"].tolist() == [0, 0]


def test_cardinality_agg_exact_below_threshold(agg_index):
    idx, texts, lg = agg_index
    got = cardinality_agg(idx, "the data", "lang").to_pandas().iloc[0]
    toks = [set(analyze("standard", t)) for t in texts]
    want = len({lg[i] for i in range(len(texts))
                if {"the", "data"} & toks[i]})
    assert got["cardinality"] == want
    assert not got["is_approx"]


def test_cardinality_agg_hll_promotion(agg_index):
    idx, texts, lg = agg_index
    # threshold below the true cardinality forces the sketch path; at
    # tiny cardinalities linear counting is exact-or-adjacent
    got = cardinality_agg(idx, "the data", "lang",
                          precision_threshold=2).to_pandas().iloc[0]
    toks = [set(analyze("standard", t)) for t in texts]
    want = len({lg[i] for i in range(len(texts))
                if {"the", "data"} & toks[i]})
    assert got["is_approx"]
    assert abs(got["cardinality"] - want) <= 1


def test_percentiles_agg_matches_numpy(agg_index):
    idx, texts, _l = agg_index
    got = percentiles_agg(idx, "the data", (1, 50, 99)).to_pandas().iloc[0]
    toks = [analyze("standard", t) for t in texts]
    dls = np.array([len(tk) for tk in toks if {"the", "data"} & set(tk)],
                   dtype=np.float64)
    for p in (1, 50, 99):
        want = round(float(np.percentile(dls, p, method="linear")), 4)
        assert got[f"p{p}"] == want


def test_percentiles_agg_unmatched_is_null_row(agg_index):
    idx, _t, _l = agg_index
    got = percentiles_agg(idx, "zzqnothing", (50,)).to_pandas()
    assert len(got) == 1 and got["p50"].isna().all()


def test_significant_terms_matches_brute_force(agg_index):
    idx, texts, _l = agg_index
    got = significant_terms_agg(idx, "the data", size=20).to_pandas()
    toks = [set(analyze("standard", t)) for t in texts]
    hits = [i for i in range(len(texts)) if {"the", "data"} & toks[i]]
    fg_total, n = len(hits), len(texts)
    vocab = sorted({w for tk in toks for w in tk})
    rows = []
    for w in vocab:
        fg = sum(w in toks[i] for i in hits)
        bgc = sum(w in tk for tk in toks)
        if fg == 0:
            continue
        fgp, bgp = fg / fg_total, bgc / n
        score = round((fgp - bgp) * (fgp / bgp), 6)
        if score > 0:
            rows.append((score, w, fg, bgc))
    rows.sort(key=lambda r: (-r[0], r[1]))
    want = rows[:20]
    assert [(r.score, r.term, r.fg_count, r.bg_count)
            for r in got.itertuples()] == want


def test_significant_terms_unmatched_empty(agg_index):
    idx, _t, _l = agg_index
    got = significant_terms_agg(idx, "zzqnothing")
    assert got.num_rows == 0


def test_significant_terms_shard_size_cap(tmp_path_factory):
    """shard_size is a recall bound over high-fg-count candidates: the
    foreground vocabulary here (14 distinct terms) exceeds the cap (4),
    so the per-partial top-N branch actually runs, and the dominant
    signature term survives it."""
    texts = (["plain filler common here"] * 40
             + [f"common zebra n{i:02d}" for i in range(12)])
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("sig_cap_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=16))
    exact = significant_terms_agg(idx, "zebra", size=3).to_pandas()
    assert exact.iloc[0]["term"] == "zebra"
    capped = significant_terms_agg(idx, "zebra", size=3,
                                   shard_size=4).to_pandas()
    # the cap keeps the highest-fg_count candidates: zebra and common
    # (fg_count 12) always survive the per-partial cut; noise terms
    # (fg_count 1) may drop; common's background rate kills its score
    assert len(capped) <= 3
    assert capped.iloc[0]["term"] == "zebra"
    assert set(capped["term"]) <= set(exact["term"]) | {"common"}


def test_terms_agg_skips_null_values(tmp_path_factory):
    """ES terms-agg semantics: docs missing the bucketed field are skipped
    (regression: null dictionary indices cast to float64 NaN and crashed
    np.bincount)."""
    texts = [f"common w{i}" for i in range(60)]
    lg = [None if i % 3 == 0 else LANGS[i % 2] for i in range(60)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(lg, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("agg_null_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=16))
    got = terms_agg(idx, "common", "lang", size=10,
                    metric_field="text").to_pandas()
    want = Counter(v for v in lg if v is not None)
    assert dict(zip(got["key"], got["doc_count"])) == dict(want)
    # metric sub-agg over the same buckets (every doc has 2 tokens)
    assert (got["avg_word_count"] == 2.0).all()


def test_date_histogram_matches_brute_force(tmp_path_factory):
    """ES date_histogram: calendar day/month/hour buckets over matched
    docs' warc_ts; docs with null timestamps are skipped."""
    from collections import Counter as _C

    import numpy as _np

    from elasticsearch_data_loader_ray.index.aggs import date_histogram_agg

    n = 120
    base = _np.datetime64("2024-01-01T00:00:00", "us")
    ts = [None if i % 17 == 0
          else base + _np.timedelta64(i * 7, "h") for i in range(n)]
    texts = ["match me" if i % 3 else "other text" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("dh_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=32))
    for unit, np_unit in (("day", "D"), ("month", "M"), ("hour", "h")):
        got = date_histogram_agg(idx, "match", unit).to_pandas()
        want = _C()
        for i in range(n):
            if i % 3 and ts[i] is not None:
                want[_np.datetime64(ts[i], np_unit)] += 1
        assert len(got) == len(want)
        for k, c in zip(got["key"], got["doc_count"]):
            assert want[_np.datetime64(k.to_datetime64(), np_unit)] == c
    assert list(got["key"]) == sorted(got["key"])  # key-ascending
    # week truncates to ISO Monday (NOT numpy's Thursday-epoch M8[W])
    got = date_histogram_agg(idx, "match", "week").to_pandas()
    want = _C()
    for i in range(n):
        if i % 3 and ts[i] is not None:
            d = ts[i].astype("M8[D]").astype("int64")
            want[_np.datetime64(int(d - (d + 3) % 7), "D")] += 1
    assert len(got) == len(want)
    for k, c in zip(got["key"], got["doc_count"]):
        kd = k.to_datetime64().astype("M8[D]")
        assert (int(kd.astype("int64")) + 3) % 7 == 0  # an ISO Monday
        assert want[kd] == c
    import pytest as _pytest

    with _pytest.raises(ValueError):
        date_histogram_agg(idx, "match", "fortnight")


def test_extended_stats_matches_numpy(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import extended_stats_agg

    idx, texts, _l = agg_index
    got = extended_stats_agg(idx, "the data").to_pandas().iloc[0]
    toks = [analyze("standard", t) for t in texts]
    dls = np.array([len(tk) for tk in toks
                    if {"the", "data"} & set(tk)], dtype=np.int64)
    n, s, sq = len(dls), int(dls.sum()), int((dls * dls).sum())
    assert got["doc_count"] == n
    assert got["min_word_count"] == dls.min()
    assert got["max_word_count"] == dls.max()
    assert got["sum_word_count"] == s
    assert got["sum_of_squares"] == sq
    assert got["avg_word_count"] == s / n
    mean = s / n
    var = max(sq / n - mean * mean, 0.0)
    assert got["variance"] == var  # exact: same expression shape
    assert got["std_deviation"] == np.sqrt(var)
    # cross-check against numpy's population variance (float tolerance)
    assert got["variance"] == pytest.approx(np.var(dls), rel=1e-12)


def test_extended_stats_unmatched_is_empty_row(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import extended_stats_agg

    idx, _t, _l = agg_index
    got = extended_stats_agg(idx, "zzqnothing").to_pandas().iloc[0]
    assert got["doc_count"] == 0
    assert got["sum_of_squares"] == 0


def test_filters_agg_counts_each_bucket_independently(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import filters_agg

    idx, texts, _l = agg_index
    got = filters_agg(idx, {"b_fast": "fast", "a_thedata": "the data",
                            "c_none": "zzqnothing"}).to_pandas()
    toks = [set(analyze("standard", t)) for t in texts]
    want = {
        "a_thedata": sum(1 for tk in toks if {"the", "data"} & tk),
        "b_fast": sum(1 for tk in toks if "fast" in tk),
        "c_none": 0,
    }
    # key-ascending, overlapping buckets each counted independently
    assert got["filter_key"].tolist() == sorted(want)
    assert dict(zip(got["filter_key"], got["doc_count"])) == want


@pytest.fixture(scope="module")
def composite_index(tmp_path_factory):
    rng = np.random.default_rng(11)
    n = 300
    texts = [" ".join(rng.choice(VOCAB, rng.integers(3, 12)))
             for _ in range(n)]
    lg = [None if i % 29 == 0 else LANGS[i % 4] for i in range(n)]
    src = [None if i % 31 == 0 else f"s{i % 5}" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(lg, pa.string()),
        "source": pa.array(src, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("comp_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    return idx, texts, lg, src


def _composite_want(texts, lg, src, query_terms_set):
    toks = [set(analyze("standard", t)) for t in texts]
    cnt = Counter()
    for i in range(len(texts)):
        if query_terms_set & toks[i] and lg[i] is not None \
                and src[i] is not None:
            cnt[(lg[i], src[i])] += 1
    return sorted(cnt.items())


def test_composite_agg_first_page_and_null_skip(composite_index):
    from elasticsearch_data_loader_ray.index.aggs import composite_agg

    idx, texts, lg, src = composite_index
    want = _composite_want(texts, lg, src, {"the", "data"})
    got = composite_agg(idx, "the data", sources=("lang", "source"),
                        size=1000).to_pandas()
    keys = list(zip(got["lang"], got["source"]))
    assert keys == [k for k, _ in want]  # key-ascending, nulls skipped
    assert got["doc_count"].tolist() == [v for _, v in want]


def test_composite_agg_pages_tile_the_bucket_space(composite_index):
    from elasticsearch_data_loader_ray.index.aggs import composite_agg

    idx, texts, lg, src = composite_index
    want = _composite_want(texts, lg, src, {"the", "data"})
    pages, after = [], None
    for _ in range(100):
        page = composite_agg(idx, "the data", sources=("lang", "source"),
                             size=3, after=after).to_pandas()
        if len(page) == 0:
            break
        pages.extend(zip(page["lang"], page["source"],
                         page["doc_count"]))
        after = (page["lang"].iloc[-1], page["source"].iloc[-1])
    assert [(a, b) for a, b, _ in pages] == [k for k, _ in want]
    assert [c for _, _, c in pages] == [v for _, v in want]


def test_date_pipeline_agg_cumsum_and_derivative(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_agg,
        date_histogram_pipeline_agg,
    )

    n = 90
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = [base + np.timedelta64(i * 11, "h") for i in range(n)]
    texts = ["match me" if i % 2 else "other text" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("pipe_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=32))
    base_t = date_histogram_agg(idx, "match", "day").to_pandas()
    got = date_histogram_pipeline_agg(idx, "match", "day").to_pandas()
    assert got["key"].tolist() == base_t["key"].tolist()
    assert got["doc_count"].tolist() == base_t["doc_count"].tolist()
    dc = base_t["doc_count"].to_numpy()
    assert got["cumulative_docs"].tolist() == np.cumsum(dc).tolist()
    assert np.isnan(got["derivative"].iloc[0])  # ES: no first-bucket value
    assert got["derivative"].iloc[1:].tolist() == np.diff(dc).tolist()


def test_normalize_agg_invariants(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_agg,
        date_histogram_normalize_agg,
    )

    n = 90
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = [base + np.timedelta64(i * 11, "h") for i in range(n)]
    texts = ["match me" if i % 3 else "other text" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("norm_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=32))
    base_t = date_histogram_agg(idx, "match", "day").to_pandas()
    got = date_histogram_normalize_agg(idx, "match", "day").to_pandas()
    assert got["key"].tolist() == base_t["key"].tolist()
    dc = got["doc_count"].to_numpy().astype(np.float64)
    # rescale: min -> 0, max -> 1
    assert got["rescale_0_1"].min() == 0.0
    assert got["rescale_0_1"].max() == 1.0
    np.testing.assert_allclose(got["percent_of_sum"].sum(), 1.0, atol=1e-4)
    np.testing.assert_allclose(got["softmax"].sum(), 1.0, atol=1e-4)
    # z-score: mean ~0, population stdev ~1
    np.testing.assert_allclose(got["z_score"].mean(), 0.0, atol=1e-4)
    np.testing.assert_allclose(
        got["z_score"].to_numpy().std(), 1.0, atol=1e-4)
    # monotone with doc_count within each method
    order = np.argsort(dc)
    for col in ("rescale_0_1", "percent_of_sum", "z_score", "softmax"):
        v = got[col].to_numpy()[order]
        assert (np.diff(v) >= 0).all(), col


def test_normalize_agg_unmatched_empty(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_normalize_agg,
    )

    idx, _t, _l = agg_index
    got = date_histogram_normalize_agg(idx, "zzqnothing", "day")
    assert got.num_rows == 0


def test_date_pipeline_agg_unmatched_empty(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_pipeline_agg,
    )

    idx, _t, _l = agg_index
    got = date_histogram_pipeline_agg(idx, "zzqnothing", "day")
    assert got.num_rows == 0
    assert got.column_names == ["key", "doc_count", "cumulative_docs",
                                "derivative"]


def test_bucket_pipeline_aggs_match_numpy(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_agg,
        date_histogram_bucket_pipeline_agg,
    )

    n = 90
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = [base + np.timedelta64(i * 11, "h") for i in range(n)]
    texts = ["match me" if i % 2 else "other text" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("bpipe_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=32))
    w, lag = 3, 2
    base_t = date_histogram_agg(idx, "match", "day").to_pandas()
    got = date_histogram_bucket_pipeline_agg(
        idx, "match", "day", window=w, lag=lag).to_pandas()
    dc = base_t["doc_count"].to_numpy()
    assert got["doc_count"].tolist() == dc.tolist()
    # moving_fn shift=0: unweightedAvg over the w buckets BEFORE i
    assert np.isnan(got["moving_avg"].iloc[0])
    for i in range(1, len(dc)):
        win = dc[max(0, i - w):i]
        assert got["moving_avg"].iloc[i] == win.sum() / len(win)
    # serial_diff: null for the first `lag` buckets
    assert got["serial_diff"].iloc[:lag].isna().all()
    for i in range(lag, len(dc)):
        assert got["serial_diff"].iloc[i] == float(dc[i] - dc[i - lag])
    # sibling aggs are constant columns over the whole bucket list
    assert (got["avg_bucket"] == dc.sum() / len(dc)).all()
    assert (got["min_bucket"] == dc.min()).all()
    assert (got["max_bucket"] == dc.max()).all()
    assert (got["sum_bucket"] == dc.sum()).all()


def test_bucket_select_sort_filters_and_truncates(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_agg,
        date_histogram_bucket_select_agg,
    )

    n = 90
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = [base + np.timedelta64(i * 7, "h") for i in range(n)]
    texts = ["match me" if i % 3 else "other text" for i in range(n)]
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("bsel_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=32))
    base_t = date_histogram_agg(idx, "match", "day").to_pandas()
    dc = base_t["doc_count"].to_numpy()
    thr = int(np.median(dc))
    size = 3
    got = date_histogram_bucket_select_agg(
        idx, "match", "day", min_doc_count=thr, size=size).to_pandas()
    kept = base_t[base_t["doc_count"] >= thr]
    want = kept.sort_values(["doc_count", "key"],
                            ascending=[False, True]).head(size)
    assert got["key"].tolist() == want["key"].tolist()
    assert got["doc_count"].tolist() == want["doc_count"].tolist()
    # bucket_script percent-of-total uses the PRE-selector total
    tot = dc.sum()
    assert got["pct_of_total"].tolist() == [
        c / tot * 100.0 for c in got["doc_count"]]


def test_bucket_pipeline_aggs_unmatched_empty(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import (
        date_histogram_bucket_pipeline_agg,
        date_histogram_bucket_select_agg,
    )

    idx, _t, _l = agg_index
    got = date_histogram_bucket_pipeline_agg(idx, "zzqnothing", "day")
    assert got.num_rows == 0
    assert got.column_names == ["key", "doc_count", "moving_avg",
                                "serial_diff", "avg_bucket", "min_bucket",
                                "max_bucket", "sum_bucket"]
    sel = date_histogram_bucket_select_agg(idx, "zzqnothing", "day")
    assert sel.num_rows == 0


def test_sampler_terms_agg_matches_brute_force(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import sampler_terms_agg
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _texts, lg = agg_index
    n_sample = 7
    got = sampler_terms_agg(idx, "the data", "lang",
                            shard_size=n_sample, num_buckets=10)
    # brute force: exact global top-n_sample by (score desc, id asc),
    # then count their lang values
    s = LocalSearcher(idx)
    ids, _sc = s.search("the data", k=n_sample)
    want = Counter(lg[i] for i in ids if lg[i] is not None)
    got_map = dict(zip(got["key"].to_pylist(),
                       got["doc_count"].to_pylist()))
    assert got_map == dict(want)
    # the sample bound is respected
    assert sum(got_map.values()) <= n_sample


def test_significant_text_filters_duplicate_text(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        significant_terms_agg,
        significant_text_agg,
    )

    # 1 original + 5 byte-identical copies carrying a marker term, plus
    # background docs; with dedup the marker's fg support drops to 1
    dup = "zebra quokka signal text here"
    bg = ["plain filler words body text", "more plain filler body words",
          "other ordinary text body here", "quokka appears once more here"]
    texts = [dup] * 6 + bg * 6
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(
            [np.datetime64("2024-01-01", "us")] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("sigtext_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=8))
    raw = significant_terms_agg(idx, "quokka", size=20).to_pandas()
    ded = significant_text_agg(idx, "quokka", size=20).to_pandas()
    raw_fg = dict(zip(raw["term"], raw["fg_count"]))
    ded_fg = dict(zip(ded["term"], ded["fg_count"]))
    assert raw_fg["zebra"] == 6    # every copy counted
    assert ded_fg["zebra"] == 1    # copies collapse to one
    # the repeated background doc is byte-identical too: its 6 copies
    # also collapse, so quokka keeps 1 dup + 1 bg representative
    assert raw_fg["quokka"] == 12
    assert ded_fg["quokka"] == 2
    # disabled filter reproduces significant_terms exactly
    off = significant_text_agg(idx, "quokka", size=20,
                               filter_duplicate_text=False).to_pandas()
    assert off.equals(raw)


def test_auto_date_histogram_ladder(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.aggs import (
        auto_date_histogram_agg,
        date_histogram_agg,
    )

    n = 60
    base = np.datetime64("2024-03-01T00:00:00", "us")
    # span ~27 days: hour (~660 buckets) and day (28) fail target 10,
    # week (5) fits
    ts = [base + np.timedelta64(i * 11, "h") for i in range(n)]
    texts = ["match me"] * n
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("auto_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=16))
    got = auto_date_histogram_agg(idx, "match", target_buckets=10)
    assert set(got["interval"].to_pylist()) == {"week"}
    want = date_histogram_agg(idx, "match", "week")
    assert got["key"].to_pylist() == want["key"].to_pylist()
    assert got["doc_count"].to_pylist() == want["doc_count"].to_pylist()
    # a generous target picks the finest rung
    fine = auto_date_histogram_agg(idx, "match", target_buckets=100000)
    assert set(fine["interval"].to_pylist()) == {"hour"}
    # unmatched query: empty with the interval column present
    nothing = auto_date_histogram_agg(idx, "zzqnothing")
    assert nothing.num_rows == 0
    assert nothing.column_names == ["key", "doc_count", "interval"]


def test_top_hits_agg_matches_brute_force(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import top_hits_agg
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, texts, lg = agg_index
    got = top_hits_agg(idx, "the data", "lang", num_buckets=3,
                       size_per_bucket=2).to_pandas()
    s = LocalSearcher(idx)
    full_ids, full_sc = s.search("the data", k=s.n_docs)
    r = np.round(full_sc, 6)
    # brute: bucket matched docs by lang, count, top-3 buckets, top-2 hits
    by_key = defaultdict(list)
    for d, sc in zip(full_ids.tolist(), r.tolist()):
        by_key[lg[d]].append((d, sc))
    buckets = sorted(((k, len(v)) for k, v in by_key.items()),
                     key=lambda kv: (-kv[1], kv[0]))[:3]
    want = []
    for k, cnt in buckets:
        hits = sorted(by_key[k], key=lambda ds: (-ds[1], ds[0]))[:2]
        for rank, (d, sc) in enumerate(hits, start=1):
            want.append((k, cnt, rank, d, sc))
    assert list(map(tuple, got.itertuples(index=False))) == want


def test_top_hits_agg_unmatched_empty(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import top_hits_agg

    idx, _t, _l = agg_index
    got = top_hits_agg(idx, "zzqnothing", "lang")
    assert got.num_rows == 0
    assert got.column_names == ["key", "doc_count", "hit_rank",
                                "doc_id", "score"]


def test_missing_agg_counts_null_values(composite_index):
    from elasticsearch_data_loader_ray.index.aggs import missing_agg

    idx, texts, lg, _src = composite_index
    got = missing_agg(idx, "the data", "lang").to_pandas().iloc[0]
    toks = [set(analyze("standard", t)) for t in texts]
    want = sum(1 for i in range(len(texts))
               if {"the", "data"} & toks[i] and lg[i] is None)
    assert want > 0  # fixture must exercise the null branch
    assert got["doc_count"] == want
    # unmatched query -> zero missing
    z = missing_agg(idx, "zzqnothing", "lang").to_pandas().iloc[0]
    assert z["doc_count"] == 0


def test_percentile_ranks_matches_numpy(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import percentile_ranks_agg

    idx, texts, _l = agg_index
    got = percentile_ranks_agg(idx, "the data",
                               values=(5, 10, 100)).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    dls = np.array([len(tk) for tk in toks
                    if {"the", "data"} & set(tk)], dtype=np.int64)
    for v, r in zip(got["value"], got["rank_pct"]):
        assert r == 100.0 * int((dls <= v).sum()) / len(dls)
    assert got["rank_pct"].iloc[-1] == 100.0  # everything <= 100
    z = percentile_ranks_agg(idx, "zzqnothing").to_pandas()
    assert z["rank_pct"].isna().all()


def test_rare_terms_agg_matches_brute(agg_index):
    from elasticsearch_data_loader_ray.index.aggs import rare_terms_agg

    idx, texts, lg = agg_index
    got = rare_terms_agg(idx, "the data", "lang",
                         max_doc_count=200).to_pandas()
    toks = [set(analyze("standard", t)) for t in texts]
    cnt = Counter(lg[i] for i in range(len(texts))
                  if {"the", "data"} & toks[i])
    want = sorted((k, v) for k, v in cnt.items() if v <= 200)
    assert want  # threshold must actually keep some buckets
    assert list(zip(got["key"], got["doc_count"])) == want
    # a tight threshold cuts everything
    none = rare_terms_agg(idx, "the data", "lang", max_doc_count=0)
    assert none.num_rows == 0
