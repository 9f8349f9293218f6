"""Multi-seed end-to-end fuzz: random corpora, engine must equal the oracle
bitwise, across different segment sizes and parallelism-independent configs."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import oracle
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.search import search_inprocess


@pytest.mark.parametrize("seed,n_docs,dps", [
    (7, 250, 40), (101, 333, 97), (2024, 180, 1000),
])
def test_random_corpus_engine_equals_oracle(tmp_path, seed, n_docs, dps):
    t = fixtures.generate_webtext(n_docs, seed=seed)
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, BuildConfig(docs_per_segment=dps))
    queries = fixtures.generate_queries()
    got = search_inprocess(idx, queries).to_pandas()
    want = oracle.bm25_topk(t, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()  # bitwise


def test_resume_cleans_crash_leftovers(tmp_path):
    """A crash between segment-file rename and manifest commit leaves an
    uncommitted segment dir and possibly a .tmp dir; a resumed build must
    overwrite both and produce a correct index."""
    import shutil

    from elasticsearch_data_loader_ray.index import manifest as mf
    from elasticsearch_data_loader_ray.index.build import seg_terms_path

    t = fixtures.generate_webtext(300)
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(docs_per_segment=100)
    build_index(str(src), idx, cfg)
    segs = sorted(mf.committed_segments(idx))
    victim = segs[0]
    # simulate the crash: manifest gone, files half-written + stale tmp dir
    os.unlink(mf.manifest_path(idx, victim))
    seg_dir = os.path.dirname(seg_terms_path(idx, victim))
    with open(os.path.join(seg_dir, "part-0.parquet"), "wb") as f:
        f.write(b"garbage not parquet")
    os.makedirs(seg_dir + ".tmp-deadbeef", exist_ok=True)
    os.unlink(os.path.join(idx, "stats.json"))
    os.unlink(os.path.join(idx, "term_stats", "_SUCCESS"))
    stats = build_index(str(src), idx, cfg)
    assert sorted(mf.committed_segments(idx)) == segs
    queries = fixtures.generate_queries()
    got = search_inprocess(idx, queries).to_pandas()
    want = oracle.bm25_topk(t, queries).to_pandas()
    assert got["score"].tolist() == want["score"].tolist()
    assert stats["n_docs"] == want["doc_id"].nunique() or stats["n_docs"] > 0


@pytest.mark.parametrize("seed", [11, 42])
def test_unicode_corpus_engine_equals_oracle(tmp_path, seed):
    """Corpora mixing ASCII with CJK / emoji / case-expanding codepoints
    drive the byte-tokenizer's RE2 fallback and the extractor's scalar
    routes through the WHOLE pipeline; engine must still equal the brute
    oracle bitwise."""
    import numpy as np
    import pyarrow as pa

    from datetime import datetime, timedelta

    rng = np.random.default_rng(seed)
    exotic = ["中文", "分词", "東京", "İstanbul", "ÇÖĞÜŞ", "µmetre", "Σσς",
              "🎉party", "naïve", "№42", "ñandú", "ß", "ＦＵＬＬ", "ﬁligree"]
    ascii_w = ["alpha", "beta", "gamma", "delta", "data", "search", "the"]
    rows = []
    base = datetime(2024, 1, 1)
    for i in range(160):
        k = int(rng.integers(3, 40))
        words = [str(rng.choice(exotic if rng.random() < 0.3 else ascii_w))
                 for _ in range(k)]
        paras = [" ".join(words[j:j + 8]) for j in range(0, len(words), 8)]
        text = "\n\n".join(paras)
        rows.append((f"https://u{seed}.example/{i:04d}", base + timedelta(seconds=i),
                     fixtures._render_html(text, i), text, "mix"))
    t = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary()),
        "text": pa.array([r[3] for r in rows], pa.large_string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
    })
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, BuildConfig(docs_per_segment=50))
    queries = pa.table({
        "query_id": pa.array(list(range(4)), pa.int64()),
        "query": pa.array(["中文 data", "µmetre search", "istanbul the",
                           "σσς alpha"], pa.string()),
        "k": pa.array([10] * 4, pa.int64()),
    })
    got = search_inprocess(idx, queries).to_pandas()
    want = oracle.bm25_topk(t, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()  # bitwise


@pytest.mark.parametrize("seed", [13])
def test_unicode_serving_apis_equal_brute(tmp_path, seed):
    """The stored-text serving APIs (highlight anchors, snippets, term
    vectors, counts, export word counts) must agree with a brute oracle
    on corpora that force the tokenizer's unicode fallback — the risk is
    positional drift between index-time tokens and re-tokenized stored
    text."""
    from datetime import datetime, timedelta

    import numpy as np
    import pyarrow as pa

    from elasticsearch_data_loader_ray.functions.analyzers import analyze
    from elasticsearch_data_loader_ray.index.export import (
        count_matches,
        export_matches,
        snippet_matches,
        term_vectors,
    )
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    rng = np.random.default_rng(seed)
    exotic = ["中文", "分词", "東京", "İstanbul", "µmetre", "Σσς",
              "🎉party", "naïve", "ñandú", "ß", "ＦＵＬＬ", "ﬁligree"]
    ascii_w = ["alpha", "beta", "data", "search", "the"]
    rows = []
    base = datetime(2024, 1, 1)
    for i in range(120):
        k = int(rng.integers(3, 30))
        words = [str(rng.choice(exotic if rng.random() < 0.35 else ascii_w))
                 for _ in range(k)]
        text = " ".join(words)
        rows.append((f"https://s{seed}.example/{i:04d}",
                     base + timedelta(seconds=i),
                     fixtures._render_html(text, i), text, "mix"))
    t = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary()),
        "text": pa.array([r[3] for r in rows], pa.large_string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
    })
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx,
                BuildConfig(docs_per_segment=40, index_positions=True))
    url_of = {}
    import pyarrow.parquet as pq_
    from elasticsearch_data_loader_ray.index import manifest as mf
    from elasticsearch_data_loader_ray.index.build import seg_docs_path
    for s in sorted(mf.committed_segments(idx)):
        d = pq_.read_table(seg_docs_path(idx, s), columns=["doc_id", "url"])
        url_of.update(zip(d["doc_id"].to_pylist(), d["url"].to_pylist()))
    text_of = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    toks_of = {u: analyze("standard", x) for u, x in text_of.items()}

    q = "中文 data σσς"
    qterms = set(analyze("standard", q))
    # highlight anchors
    got = LocalSearcher(idx).highlight(q).to_pandas()
    want = {}
    for d, u in url_of.items():
        for w in qterms:
            if w in toks_of[u]:
                want[(d, w)] = toks_of[u].index(w)
    assert {(int(r.doc_id), r.term): int(r.first_pos)
            for r in got.itertuples()} == want
    # snippets (window 2, earliest anchor)
    sn = snippet_matches(idx, q, window=2).to_pandas()
    want_sn = {}
    for d, u in url_of.items():
        pos = [j for j, w in enumerate(toks_of[u]) if w in qterms]
        if pos:
            p = min(pos)
            want_sn[d] = (p, " ".join(toks_of[u][max(0, p - 2): p + 3]))
    assert {int(r.doc_id): (int(r.anchor_pos), r.snippet)
            for r in sn.itertuples()} == want_sn
    # counts + export word counts
    assert count_matches(idx, q) == len(want_sn)
    exp = export_matches(idx, q).to_pandas()
    assert {int(r.doc_id): int(r.word_count) for r in exp.itertuples()} \
        == {d: len(toks_of[url_of[d]]) for d in want_sn}
    # term vectors for a few docs
    some = list(url_of.values())[:5]
    tv = term_vectors(idx, some).to_pandas()
    for u in some:
        rows_u = tv[tv["url"] == u]
        want_tf = {}
        for j, w in enumerate(toks_of[u]):
            want_tf.setdefault(w, [0, j])[0] += 1
        assert {r.term: [int(r.tf), int(r.first_pos)]
                for r in rows_u.itertuples()} == want_tf
