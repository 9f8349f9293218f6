"""Matched-doc export (scroll parity) and field-sorted retrieval."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray.functions.analyzers import (
    analyze,
    token_count_batch,
)
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
)
from elasticsearch_data_loader_ray.index.export import (
    export_matches,
    snippet_matches,
    sorted_matches,
)

LANGS = ["en", "de", "fr", "es"]
VOCAB = ["data", "query", "scan", "table", "fast", "the"]


@pytest.fixture(scope="module")
def exp_index(tmp_path_factory):
    rng = np.random.default_rng(11)
    texts = [" ".join(rng.choice(VOCAB, rng.integers(3, 20)))
             for _ in range(300)]
    lg = [LANGS[i % 4] for i in range(300)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(lg, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("exp_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64,
                                        index_positions=True))
    return idx, texts, lg


def test_export_or_matches_brute_force(exp_index):
    idx, texts, lg = exp_index
    got = export_matches(idx, "the data",
                         stored_columns=("lang",)).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    want = {i for i in range(len(texts)) if {"the", "data"} & set(toks[i])}
    assert set(got["doc_id"]) == want
    by_id = got.set_index("doc_id")
    for i in sorted(want)[:50]:
        assert by_id.loc[i, "lang"] == lg[i]
        assert by_id.loc[i, "word_count"] == len(toks[i])


def test_export_and_mode_intersects(exp_index):
    idx, texts, _l = exp_index
    got = export_matches(idx, "the data", mode="and").to_pandas()
    toks = [set(analyze("standard", t)) for t in texts]
    want = {i for i in range(len(texts)) if {"the", "data"} <= toks[i]}
    assert set(got["doc_id"]) == want


def test_export_unmatched_is_empty_with_schema(exp_index):
    idx, _t, _l = exp_index
    ds = export_matches(idx, "zzqnothing", stored_columns=("lang",))
    # Dataset-level schema is the contract (Ray's to_pandas drops columns
    # on a fully-empty dataset)
    assert ds.schema().names == ["doc_id", "url", "word_count", "lang"]
    assert len(ds.to_pandas()) == 0


def test_export_streams_to_parquet(exp_index, tmp_path):
    idx, texts, _l = exp_index
    out = str(tmp_path / "export_out")
    export_matches(idx, "the data").write_parquet(out)
    back = rd.read_parquet(out)
    toks = [analyze("standard", t) for t in texts]
    want = {i for i in range(len(texts)) if {"the", "data"} & set(toks[i])}
    assert back.count() == len(want)


def test_sorted_matches_desc_with_ties(exp_index):
    idx, texts, _l = exp_index
    got = sorted_matches(idx, "the data", "word_count", k=15).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    match = [(-len(toks[i]), i) for i in range(len(texts))
             if {"the", "data"} & set(toks[i])]
    want = sorted(match)[:15]
    assert got["doc_id"].tolist() == [i for _v, i in want]
    assert got["sort_value"].tolist() == [-v for v, _i in want]
    assert got["rank"].tolist() == list(range(1, 16))


def test_sorted_matches_asc(exp_index):
    idx, texts, _l = exp_index
    got = sorted_matches(idx, "the data", "word_count", k=7,
                         ascending=True).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    match = [(len(toks[i]), i) for i in range(len(texts))
             if {"the", "data"} & set(toks[i])]
    want = sorted(match)[:7]
    assert got["doc_id"].tolist() == [i for _v, i in want]


def test_sorted_matches_unmatched_empty(exp_index):
    idx, _t, _l = exp_index
    got = sorted_matches(idx, "zzqnothing", "word_count", k=5)
    assert got.num_rows == 0


def test_snippet_matches_brute_force(exp_index):
    idx, texts, _l = exp_index
    W = 2
    got = snippet_matches(idx, "the data", window=W).to_pandas()
    toks = [analyze("standard", t) for t in texts]
    want = {}
    for i, tk in enumerate(toks):
        pos = [j for j, w in enumerate(tk) if w in ("the", "data")]
        if pos:
            p = min(pos)
            want[i] = (p, " ".join(tk[max(0, p - W): p + W + 1]))
    assert {int(r.doc_id): (int(r.anchor_pos), r.snippet)
            for r in got.itertuples()} == want


def test_snippet_requires_positions(tmp_path_factory):
    corpus = pa.table({
        "url": pa.array(["00000001"], pa.string()),
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "text": pa.array(["the data"], pa.large_string()),
        "lang": pa.array(["en"], pa.string()),
        "doc_len": pa.array([2], pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("nopos_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    with pytest.raises(Exception, match="positions"):
        snippet_matches(idx, "the data").to_pandas()


def test_count_matches_brute_force(exp_index):
    from elasticsearch_data_loader_ray.index.export import (
        count_matches,
        count_matches_many,
    )

    idx, texts, _l = exp_index
    toks = [set(analyze("standard", t)) for t in texts]
    want_or = sum(1 for tk in toks if {"the", "data"} & tk)
    want_and = sum(1 for tk in toks if {"the", "data"} <= tk)
    assert count_matches(idx, "the data") == want_or
    assert count_matches(idx, "the data", mode="and") == want_and
    assert count_matches(idx, "zzqmissing") == 0
    many = count_matches_many(idx, ["the data", "zzqmissing", "query"])
    assert many["n_matched"].to_pylist() == [
        want_or, 0, sum(1 for tk in toks if "query" in tk)]


def test_term_vectors_brute_force(exp_index):
    from elasticsearch_data_loader_ray.index.export import term_vectors

    idx, texts, _l = exp_index
    urls = ["00000003", "00000007", "99999999"]  # last one missing
    got = term_vectors(idx, urls).to_pandas()
    want = {}
    for u in urls[:2]:
        tk = analyze("standard", texts[int(u)])
        for j, w in enumerate(tk):
            k = (u, w)
            if k not in want:
                want[k] = [0, j]
            want[k][0] += 1
    assert {(r.url, r.term): [int(r.tf), int(r.first_pos)]
            for r in got.itertuples()} == want


def test_collapse_matches_brute_force(exp_index):
    from elasticsearch_data_loader_ray.index.export import collapse_matches
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, texts, lg = exp_index
    got = collapse_matches(idx, "the data", "lang", k=3).to_pandas()
    # brute: full exact ranking, best per lang, top-3
    lo = LocalSearcher(idx)
    ids, sc = lo.search("the data", k=lo.n_docs)
    r = np.round(sc, 6)
    best = {}
    for d, s in sorted(zip(ids.tolist(), r.tolist()),
                       key=lambda x: (-x[1], x[0])):
        k = lg[d]
        if k not in best:
            best[k] = (d, s)
    want = sorted(best.items(), key=lambda kv: (-kv[1][1], kv[1][0]))[:3]
    assert [(row.key, int(row.doc_id), row.score)
            for row in got.itertuples()] == \
        [(k, d, s) for k, (d, s) in want]
    assert got["rank"].tolist() == [1, 2, 3]


def test_mget_point_lookup_and_upsert_resolution(tmp_path):
    """mget: request-order rows for found urls, no row for misses, and a
    re-ingested url serves its NEWEST generation's text."""
    import pyarrow as pa
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
    from elasticsearch_data_loader_ray.index.export import mget

    def corpus(urls, texts):
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "doc_len": pa.array(token_count_batch(
                pa.array(texts, pa.large_string())), pa.int32()),
        })

    urls = [f"https://m/{i:04d}" for i in range(60)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(corpus(urls, [f"original text {i}" for i in range(60)])),
        idx, BuildConfig(docs_per_segment=16))
    got = mget(idx, [urls[7], "https://m/zz-missing", urls[3], urls[59]])
    assert got["url"].to_pylist() == [urls[7], urls[3], urls[59]]  # req order
    assert got["text"].to_pylist()[0] == "original text 7"
    assert got["word_count"].to_pylist() == [3, 3, 3]

    append_index_from_corpus(
        rd.from_arrow(corpus([urls[7]], ["replacement seven body"])),
        idx, BuildConfig(docs_per_segment=16))
    got2 = mget(idx, [urls[7], urls[8]])
    assert got2["text"].to_pylist() == ["replacement seven body",
                                        "original text 8"]
    assert got2["doc_id"].to_pylist()[0] == 60  # the appended doc's id


def test_mget_url_upserted_twice_returns_newest_doc(tmp_path):
    """A url upserted twice has three docs, two tombstoned: mget returns
    one row, the newest."""
    import pyarrow as pa
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
    from elasticsearch_data_loader_ray.index.export import mget

    def corpus(urls, texts):
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "text": pa.array(texts, pa.large_string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "doc_len": pa.array(token_count_batch(
                pa.array(texts, pa.large_string())), pa.int32()),
        })

    urls = [f"https://g/{i:04d}" for i in range(30)]
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(docs_per_segment=10)
    build_index_from_corpus(
        rd.from_arrow(corpus(urls, [f"original {i}" for i in range(30)])),
        idx, cfg)
    for body in ("first rewrite", "second rewrite here"):
        append_index_from_corpus(rd.from_arrow(corpus([urls[4]], [body])),
                                 idx, cfg)
    got = mget(idx, [urls[4], urls[5]])
    assert got["url"].to_pylist() == [urls[4], urls[5]]
    assert got["doc_id"].to_pylist() == [31, 5]
    assert got["text"].to_pylist() == ["second rewrite here", "original 5"]
    assert got["word_count"].to_pylist() == [3, 2]


def test_mget_after_partial_merge_aligns_stored_text(tmp_path):
    """A partial merge gives the merged run a fresh, larger segment id
    while the unmerged survivor keeps its small id, so segment-id order
    is not doc-id order: mget must still pair each url with its own
    stored text."""
    from elasticsearch_data_loader_ray.index.export import mget
    from elasticsearch_data_loader_ray.index.merge import merge_segments
    from elasticsearch_data_loader_ray.index.search import (
        _load_stats,
        _visible_seg_ids,
    )

    urls = [f"https://p/{i:04d}" for i in range(30)]
    texts = [f"body number {i} " + "word " * (i % 5) for i in range(30)]
    corpus = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([0] * 30, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * 30, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path / "idx")
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=10))
    merge_segments(idx, group_size=2)
    seg_ids, vis = _visible_seg_ids(idx, _load_stats(idx))
    bases = [vis[s]["doc_id_base"] for s in sorted(seg_ids)]
    assert len(bases) == 2 and bases != sorted(bases)  # id order != doc order

    want = [urls[25], urls[3], urls[17], urls[22], urls[0]]
    got = mget(idx, want)
    assert got["url"].to_pylist() == want
    assert got["text"].to_pylist() == [texts[urls.index(u)] for u in want]
    assert got["doc_id"].to_pylist() == [urls.index(u) for u in want]
