"""End-to-end: webtext -> index build -> BM25 search, vs the brute oracle."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index import oracle
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.search import search

N_DOCS = 800


@pytest.fixture(scope="module")
def webtext(tmp_path_factory):
    d = tmp_path_factory.mktemp("webtext")
    t = fixtures.generate_webtext(N_DOCS)
    pq.write_table(t, str(d / "part-0.parquet"))
    return t, str(d)


@pytest.fixture(scope="module")
def index_dir(webtext, tmp_path_factory):
    _, src = webtext
    out = str(tmp_path_factory.mktemp("index"))
    cfg = BuildConfig(docs_per_segment=150)
    stats = build_index(src, out, cfg)
    return out, stats


def test_build_stats(webtext, index_dir):
    t, _ = webtext
    _, stats = index_dir
    urls = t["url"].to_pylist()
    texts = t["text"].to_pylist()
    kept = {u for u, x in zip(urls, texts) if x}  # non-null non-empty
    assert stats["n_docs"] == len(kept)
    assert stats["n_segments"] >= 3
    assert stats["rejects"]["missing_payload"] == sum(
        x is None for x in t["html"].to_pylist())
    assert stats["rejects"]["empty_text"] == sum(x == "" for x in texts)
    n_dup_rows = len([u for u, x in zip(urls, texts) if x]) - len(kept)
    assert stats["n_duplicates"] == n_dup_rows
    assert stats["n_postings"] > 0 and stats["avgdl"] > 0


def test_corpus_byte_identical(webtext, index_dir):
    t, _ = webtext
    idx, _ = index_dir
    corpus = pq.read_table(os.path.join(idx, "corpus"))
    golden = {u: x for u, x in zip(t["url"].to_pylist(), t["text"].to_pylist())}
    for u, x in zip(corpus["url"].to_pylist(), corpus["text"].to_pylist()):
        assert x == golden[u]


def test_doc_ids_dense_and_url_sorted(index_dir):
    idx, stats = index_dir
    from elasticsearch_data_loader_ray.index.build import seg_docs_path

    segs = sorted(mf.committed_segments(idx))
    all_ids, all_urls = [], []
    for s in segs:
        d = pq.read_table(seg_docs_path(idx, s))
        all_ids.extend(d["doc_id"].to_pylist())
        all_urls.extend(d["url"].to_pylist())
    assert all_ids == list(range(stats["n_docs"]))
    assert all_urls == sorted(all_urls)


def test_search_matches_oracle_bitwise(webtext, index_dir):
    t, _ = webtext
    idx, _ = index_dir
    queries = fixtures.generate_queries()
    got = search(idx, queries).to_pandas()
    want = oracle.bm25_topk(t, queries).to_pandas()
    # map oracle doc positions to the engine's ids: both are url-rank — equal
    assert len(got) == len(want)
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    # bitwise float64 equality (same accumulation order by construction)
    assert got["score"].tolist() == want["score"].tolist()


def test_search_inprocess_matches_distributed(webtext, index_dir):
    from elasticsearch_data_loader_ray.index.search import search_inprocess

    idx, _ = index_dir
    queries = fixtures.generate_queries()
    dist = search(idx, queries).to_pandas()
    local = search_inprocess(idx, queries).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()  # bitwise


def test_search_fans_out_over_segment_groups(index_dir):
    """search() splits the visible segments into >= 2 contiguous groups
    here (4 CPUs, >= 3 segments) that cover every segment once."""
    from elasticsearch_data_loader_ray.index.search import (
        _segment_groups,
        _visible_seg_ids,
    )

    idx, stats = index_dir
    seg_ids, _ = _visible_seg_ids(idx, stats)
    groups = _segment_groups(seg_ids)
    assert len(groups) >= 2
    assert [s for g in groups for s in g] == seg_ids


def test_unknown_mode_raises_on_every_path(index_dir):
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        search_inprocess,
    )

    idx, _ = index_dir
    q = [{"query_id": 0, "query": "the data", "k": 5, "mode": "bogus"}]
    with pytest.raises(ValueError, match="bogus"):
        search_inprocess(idx, q)
    with pytest.raises(ValueError, match="bogus"):
        search(idx, q)
    with pytest.raises(ValueError, match="bogus"):
        LocalSearcher(idx).search("the data", k=5, mode="bogus")


def test_first_search_writes_whole_doclen_sidecar(webtext, tmp_path_factory):
    """The group tasks of a first search() on a fresh index each bind a
    segment subset, yet the shared doc-length sidecar they publish must
    hold every doc's length."""
    from elasticsearch_data_loader_ray.index.build import seg_docs_path

    _, src = webtext
    out = str(tmp_path_factory.mktemp("idx_doclen"))
    stats = build_index(src, out, BuildConfig(docs_per_segment=150))
    n = stats["n_docs"]
    path = os.path.join(out, "doclen", f"text.{n}.f64")
    assert not os.path.exists(path)
    assert search(out, [{"query_id": 0, "query": "the data",
                         "k": 5}]).num_rows == 5
    want = np.zeros(n)
    for s in mf.committed_segments(out):
        d = pq.read_table(seg_docs_path(out, s), columns=["doc_id", "doc_len"])
        want[d["doc_id"].to_numpy()] = d["doc_len"].to_numpy()
    got = np.fromfile(path, dtype=np.float64)
    assert got.tolist() == want.tolist()


def test_conjunctive_matches_and_semantics(webtext, index_dir):
    from elasticsearch_data_loader_ray.functions.analyzers import analyze
    from elasticsearch_data_loader_ray.index.search import search_inprocess

    t, _ = webtext
    idx, _ = index_dir
    q = [{"query_id": 0, "query": "the data search", "k": 50, "mode": "and"}]
    dist = search(idx, q).to_pandas()
    local = search_inprocess(idx, q).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()
    # every hit contains ALL terms; verify against the raw corpus
    urls, toks = oracle.corpus_from_webtext(t)
    for d in dist["doc_id"]:
        terms = set(toks[int(d)])
        assert {"the", "data", "search"} <= terms
    # and no non-hit doc with all terms scores higher than the k-th hit
    have_all = [i for i, tk in enumerate(toks)
                if {"the", "data", "search"} <= set(tk)]
    assert len(dist) == min(50, len(have_all))


def test_absent_term_returns_empty(index_dir):
    idx, _ = index_dir
    import pyarrow as pa

    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "query": pa.array(["zzqmissingzz"], pa.string()),
                  "k": pa.array([10], pa.int64())})
    got = search(idx, q)
    assert got.num_rows == 0


def test_resume_skips_committed_segments(webtext, tmp_path_factory):
    _, src = webtext
    out = str(tmp_path_factory.mktemp("index_resume"))
    cfg = BuildConfig(docs_per_segment=200)
    stats1 = build_index(src, out, cfg)
    segs = sorted(mf.committed_segments(out))
    # drop one manifest + its segment dir -> only that segment rebuilds
    from elasticsearch_data_loader_ray.index.build import seg_terms_path

    victim = segs[1]
    os.unlink(mf.manifest_path(out, victim))
    mtimes = {s: os.path.getmtime(seg_terms_path(out, s))
              for s in segs if s != victim}
    os.unlink(os.path.join(out, "stats.json"))
    os.unlink(os.path.join(out, "term_stats", "_SUCCESS"))
    stats2 = build_index(src, out, cfg)
    assert stats2["n_docs"] == stats1["n_docs"]
    assert sorted(mf.committed_segments(out)) == segs
    for s, m in mtimes.items():
        assert os.path.getmtime(seg_terms_path(out, s)) == m


def test_search_after_pagination_tiles_ranking(index_dir):
    """Keyset pages concatenate to exactly the full top-k ranking."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _ = index_dir
    s = LocalSearcher(idx)
    full_ids, full_sc = s.search("the data search", k=30)
    pages_ids, pages_sc = [], []
    cursor = None
    for _ in range(3):
        ids, sc = s.search_after("the data search", cursor, k=10)
        if len(ids) == 0:
            break
        pages_ids.extend(ids.tolist())
        pages_sc.extend(sc.tolist())
        cursor = (float(sc[-1]), int(ids[-1]))
    assert pages_ids == full_ids.tolist()
    assert pages_sc == full_sc.tolist()
    # cursor beyond the last hit -> empty page
    ids, _sc = s.search_after("zzqmissingzz", None, k=5)
    assert len(ids) == 0


def test_explain_matches_search_score(index_dir):
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _ = index_dir
    s = LocalSearcher(idx)
    q = "the data search"
    ids, sc = s.search(q, k=5)
    for d, expected in zip(ids[:3], sc[:3]):
        ex = s.explain(q, int(d))
        assert ex["score"] == float(expected)  # bitwise (same order)
        assert sum(p["contribution"] for p in ex["terms"]) == ex["score"]
        assert any(p["tf"] > 0 for p in ex["terms"])
    # doc matching nothing explains to zero
    ex0 = s.explain("zzqmissingzz", int(ids[0]))
    assert ex0["score"] == 0.0


def test_head_term_skew_spread(index_dir):
    """Skew design evidence: the Zipf head term's postings are spread across
    every doc-range segment (no hot partition) with df proportional to
    segment size — the url-range shuffle key is term-frequency-oblivious."""
    import numpy as np

    from elasticsearch_data_loader_ray.index.build import seg_terms_path

    idx, stats = index_dir
    segs = sorted(mf.committed_segments(idx))
    assert len(segs) >= 3
    dfs, sizes = [], []
    for s in segs:
        t = pq.read_table(seg_terms_path(idx, s),
                          filters=[("term", "==", "the")])
        assert t.num_rows == 1, f"head term missing from segment {s}"
        dfs.append(t["df"][0].as_py())
        sizes.append(mf.read_manifest(idx, s)["n_docs"])
    ratio = np.array(dfs) / np.array(sizes)
    # df/segment_size is near-constant across segments (head term ~everywhere)
    assert ratio.min() > 0.8
    assert ratio.max() - ratio.min() < 0.2


def test_manifest_lineage_fields(index_dir):
    idx, _ = index_dir
    m = next(iter(mf.committed_segments(idx).values()))
    for field in ("n_docs", "n_postings", "url_checksum", "doc_id_base",
                  "build_secs", "status"):
        assert field in m


def test_search_after_windowed_path_tiles(index_dir, monkeypatch):
    """Cursor filter composes with the exact scorer's per-window cut
    (page-2 hits all score below the page-1 kth), across many windows."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _ = index_dir
    s = LocalSearcher(idx)
    monkeypatch.setattr(LocalSearcher, "_WINDOW", 256)
    full_ids, full_sc = s.search("the data search", k=30)
    pages_ids, pages_sc, cursor = [], [], None
    for _ in range(3):
        ids, sc = s.search_after("the data search", cursor, k=10)
        if len(ids) == 0:
            break
        pages_ids.extend(ids.tolist())
        pages_sc.extend(sc.tolist())
        cursor = (float(sc[-1]), int(ids[-1]))
    assert pages_ids == full_ids.tolist()
    assert pages_sc == full_sc.tolist()


def test_function_score_modifier_applied_before_cut(index_dir, monkeypatch):
    """Top-k under the multiplied score == modify-then-sort of the FULL
    exact ranking (the factor reorders docs, so a post-cut modifier would
    be wrong); one window and many windows agree bitwise."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _ = index_dir
    s = LocalSearcher(idx)
    full_ids, full_sc = s.search("the data search", k=s.n_docs)
    dl = s._dl_for("text")
    want_sc = full_sc * np.log(1.0 + dl[full_ids])
    order = np.lexsort((full_ids, -want_sc))[:10]
    got_ids, got_sc = s.search_function_score("the data search", k=10)
    assert got_ids.tolist() == full_ids[order].tolist()
    assert got_sc.tolist() == want_sc[order].tolist()
    # the modifier must actually reorder at least once on this corpus for
    # the test to be meaningful
    assert got_ids.tolist() != full_ids[:10].tolist()
    monkeypatch.setattr(LocalSearcher, "_WINDOW", 256)
    got2_ids, got2_sc = s.search_function_score("the data search", k=10)
    assert got2_ids.tolist() == got_ids.tolist()
    assert got2_sc.tolist() == got_sc.tolist()


def test_boosting_query_demotes_before_cut(index_dir, monkeypatch):
    """ES boosting query: top-k under positive-BM25 * negative_boost (for
    docs matching the negative query) == demote-then-sort of the FULL
    exact ranking; docs are demoted, never excluded; one window and many
    windows agree bitwise."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, _ = index_dir
    s = LocalSearcher(idx)
    full_ids, full_sc = s.search("the data search", k=s.n_docs)
    neg_ids, _ = s.search("news", k=s.n_docs)
    neg = set(neg_ids.tolist())
    want_sc = full_sc.copy()
    hit = np.array([int(d) in neg for d in full_ids])
    want_sc[hit] *= 0.3
    order = np.lexsort((full_ids, -want_sc))[:10]
    got_ids, got_sc = s.search_boosting("the data search", "news",
                                        negative_boost=0.3, k=10)
    assert got_ids.tolist() == full_ids[order].tolist()
    assert got_sc.tolist() == want_sc[order].tolist()
    # the demotion must actually reorder (not exclude): some demoted doc
    # stays in the full ranking with a scaled score
    assert hit.any()
    assert got_ids.tolist() != full_ids[:10].tolist()
    monkeypatch.setattr(LocalSearcher, "_WINDOW", 256)
    got2_ids, got2_sc = s.search_boosting("the data search", "news",
                                          negative_boost=0.3, k=10)
    assert got2_ids.tolist() == got_ids.tolist()
    assert got2_sc.tolist() == got_sc.tolist()
    # no-negative-match degenerates to plain BM25 ranking
    g3_ids, g3_sc = s.search_boosting("the data search", "zzqmissing",
                                      negative_boost=0.3, k=10)
    assert g3_ids.tolist() == full_ids[:10].tolist()
    assert g3_sc.tolist() == full_sc[:10].tolist()


def test_function_score_distributed_matches_local(index_dir):
    """mode='function_score' query rows route per-segment; the merged
    distributed top-k must be bitwise-identical to LocalSearcher's."""
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        search,
        search_inprocess,
    )

    idx, _ = index_dir
    lo = LocalSearcher(idx)
    for q, mod in [("the data search", "log1p"), ("data", "sqrt"),
                   ("the", "none")]:
        want_ids, want_sc = lo.search_function_score(q, k=10, modifier=mod)
        rows = [{"query_id": 0, "query": q, "k": 10,
                 "mode": "function_score", "modifier": mod}]
        got = search(idx, rows).to_pandas()
        assert got["doc_id"].tolist() == want_ids.tolist()
        assert got["score"].tolist() == want_sc.tolist()
        inp = search_inprocess(idx, rows).to_pandas()
        assert inp["doc_id"].tolist() == want_ids.tolist()
        assert inp["score"].tolist() == want_sc.tolist()


def test_boosting_distributed_matches_local(index_dir):
    """mode='boosting' query rows route per-segment (demotion applied
    before each segment's cut); the merged distributed top-k must be
    bitwise-identical to LocalSearcher's."""
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        search,
        search_inprocess,
    )

    idx, _ = index_dir
    lo = LocalSearcher(idx)
    for pos, neg, nb in [("the data search", "news", 0.3),
                         ("data", "the", 0.5),
                         ("query page", "zzqmissing", 0.1)]:
        want_ids, want_sc = lo.search_boosting(pos, neg, nb, k=10)
        q = [{"query_id": 0, "query": pos, "negative": neg,
              "negative_boost": nb, "k": 10, "mode": "boosting"}]
        got = search(idx, q).to_pandas()
        assert got["doc_id"].tolist() == want_ids.tolist()
        assert got["score"].tolist() == want_sc.tolist()
        inp = search_inprocess(idx, q).to_pandas()
        assert inp["doc_id"].tolist() == want_ids.tolist()
        assert inp["score"].tolist() == want_sc.tolist()


def _file_md5s(root):
    """Digest of every data file + manifest CONTENT (timing fields — the
    only run-dependent values — dropped)."""
    import hashlib

    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            rel = os.path.relpath(p, root)
            if rel.startswith(("errors", "term_stats")) or f == "stats.json":
                continue
            if rel.startswith("manifests"):
                m = {k: v for k, v in json.load(open(p)).items()
                     if k not in ("build_secs", "docs_per_sec")}
                out[rel] = json.dumps(m, sort_keys=True)
                continue
            with open(p, "rb") as fh:
                out[rel] = hashlib.md5(fh.read()).hexdigest()
    return out


def test_fused_resume_bitwise_after_build_crash(webtext, tmp_path_factory):
    """Crash DURING the build wave (plan + corpus committed, one segment
    missing): the fused resume must rebuild only that bucket and produce a
    byte-identical index (VERDICT r3 #8)."""
    _, src = webtext
    cfg = BuildConfig(docs_per_segment=200)
    clean = str(tmp_path_factory.mktemp("idx_clean"))
    build_index(src, clean, cfg)
    want = _file_md5s(clean)

    out = str(tmp_path_factory.mktemp("idx_crash_build"))
    build_index(src, out, cfg)
    segs = sorted(mf.committed_segments(out))
    victim = segs[2]
    import shutil

    from elasticsearch_data_loader_ray.index.build import (
        seg_docs_path,
        seg_terms_path,
    )

    os.unlink(mf.manifest_path(out, victim))
    for p in (seg_terms_path(out, victim), seg_docs_path(out, victim)):
        shutil.rmtree(os.path.dirname(p))
    os.unlink(os.path.join(out, "stats.json"))
    shutil.rmtree(os.path.join(out, "term_stats"))
    stats = build_index(src, out, cfg)  # fused resume (plan.json present)
    assert stats["n_docs"] > 0
    assert _file_md5s(out) == want


def test_fused_resume_bitwise_after_corpus_crash(webtext, tmp_path_factory):
    """Crash BEFORE the corpus committed (plan.json written, _SUCCESS
    absent, some segments built): resume re-extracts with the FROZEN plan
    and still produces a byte-identical index."""
    _, src = webtext
    cfg = BuildConfig(docs_per_segment=200)
    clean = str(tmp_path_factory.mktemp("idx_clean2"))
    build_index(src, clean, cfg)
    want = _file_md5s(clean)

    out = str(tmp_path_factory.mktemp("idx_crash_corpus"))
    build_index(src, out, cfg)
    segs = sorted(mf.committed_segments(out))
    import shutil

    from elasticsearch_data_loader_ray.index.build import (
        seg_docs_path,
        seg_terms_path,
    )

    for victim in segs[1:3]:
        os.unlink(mf.manifest_path(out, victim))
        for p in (seg_terms_path(out, victim), seg_docs_path(out, victim)):
            shutil.rmtree(os.path.dirname(p))
    os.unlink(os.path.join(out, "corpus", "_SUCCESS"))
    os.unlink(os.path.join(out, "stats.json"))
    shutil.rmtree(os.path.join(out, "term_stats"))
    stats = build_index(src, out, cfg)
    assert stats["n_docs"] > 0
    assert _file_md5s(out) == want


def test_request_cache_hits_and_epoch_invalidation(webtext, tmp_path_factory):
    """The request cache returns the identical result object on repeat and
    drops wholesale when an append epoch-swaps the searcher."""
    import pyarrow as pa_
    import ray.data as rd_

    from elasticsearch_data_loader_ray.functions.analyzers import (
        token_count_batch,
    )
    from elasticsearch_data_loader_ray.index.append import (
        append_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    _, src = webtext
    out = str(tmp_path_factory.mktemp("idx_reqcache"))
    cfg = BuildConfig(docs_per_segment=200)
    build_index(src, out, cfg)
    s = LocalSearcher(out)
    i1, s1 = s.search("the data", k=10)
    i2, s2 = s.search("the data", k=10)
    assert i1 is i2 and s1 is s2  # served verbatim from the cache
    texts = ["zzqreqcache fresh doc the data"]
    append_index_from_corpus(
        rd_.from_arrow(pa_.table({
            "url": pa_.array(["https://rc/new"], pa_.string()),
            "warc_ts": pa_.array([0], pa_.timestamp("us")),
            "text": pa_.array(texts, pa_.large_string()),
            "lang": pa_.array(["en"], pa_.string()),
            "doc_len": pa_.array(token_count_batch(
                pa_.array(texts, pa_.large_string())), pa_.int32()),
        })), out, cfg)
    assert s.refresh() is True
    i3, _s3 = s.search("zzqreqcache", k=5)
    assert len(i3) == 1  # new epoch serves the appended doc
    i4, s4 = s.search("the data", k=10)
    assert i4 is not i1  # old cached result was dropped with the epoch
