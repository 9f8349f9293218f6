"""Positional index + phrase queries vs a brute-force oracle."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.functions.analyzers import analyze
from elasticsearch_data_loader_ray.index import codec
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.oracle import corpus_from_webtext
from elasticsearch_data_loader_ray.index.search import LocalSearcher

N = 700

# fixture terms for the seeded cases: head terms occur in most docs, so
# phrases and spans over them match; the mid-df ones keep the product in
# ``brute_intervals`` small for 3-4 clauses
HEAD_TERMS = ["the", "and", "of", "to", "a", "in", "is", "data", "search"]
MID_TERMS = ["for", "on", "with", "as", "by", "at", "from", "this", "that",
             "are", "be", "or", "an", "it", "index", "query", "page", "web"]


def _draw(seed: int, pool: list[str], repeat: bool) -> list[str]:
    """2-4 terms drawn from ``pool`` with a fixed seed; ``repeat`` draws
    with replacement and makes the last term repeat an earlier one."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    terms = [str(t) for t in rng.choice(pool, n, replace=repeat)]
    if repeat:
        terms[-1] = terms[int(rng.integers(n - 1))]
    return terms


SEEDS = range(6)


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    src = tmp_path_factory.mktemp("ph_src")
    t = fixtures.generate_webtext(N)
    pq.write_table(t, str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("ph_idx"))
    build_index(str(src), out,
                BuildConfig(docs_per_segment=150, index_positions=True))
    return out, t


def brute_phrase(t, phrase: str):
    """(doc_id, phrase_freq) via direct token-sequence scan, + scores."""
    urls, toks = corpus_from_webtext(t)
    seq = analyze("standard", phrase)
    dl = np.array([len(x) for x in toks], dtype=np.float64)
    avgdl = float(dl.mean())
    n = len(toks)
    uniq = sorted(set(seq))
    dfs = {u: sum(u in set(tk) for tk in toks) for u in uniq}
    idf_sum = float(sum(codec.bm25_idf(dfs[u], n) for u in uniq))
    out = {}
    for d, tk in enumerate(toks):
        c = sum(1 for i in range(len(tk) - len(seq) + 1)
                if tk[i:i + len(seq)] == seq)
        if c:
            out[d] = (c, idf_sum * float(codec.bm25_tf_impact(
                np.array([c], dtype=np.float64),
                np.array([dl[d]]), avgdl)[0]))
    return out


@pytest.mark.parametrize("phrase", ["the data", "data search", "the the",
                                    "acme limited", "zzq missing"] + [
    " ".join(_draw(s, HEAD_TERMS, repeat=s % 2 == 0)) for s in SEEDS])
def test_phrase_matches_brute(pos_index, phrase):
    idx, t = pos_index
    lo = LocalSearcher(idx)
    ids, scores, freqs = lo.search_phrase(phrase, k=1000)
    want = brute_phrase(t, phrase)
    got = {int(d): (int(f), float(s)) for d, s, f in zip(ids, scores, freqs)}
    assert set(got) == set(want), (phrase, len(got), len(want))
    for d in got:
        assert got[d][0] == want[d][0], (phrase, d)
        assert got[d][1] == pytest.approx(want[d][1], rel=1e-12)


def test_phrase_rank_order(pos_index):
    idx, _ = pos_index
    lo = LocalSearcher(idx)
    ids, scores, _ = lo.search_phrase("the data", k=10)
    assert len(ids) <= 10
    assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))


def test_phrase_requires_positions(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(120), str(src / "p.parquet"))
    out = str(tmp_path / "idx")
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    lo = LocalSearcher(out)
    with pytest.raises(ValueError, match="without positions"):
        lo.search_phrase("the data", k=5)


def test_distributed_phrase_matches_local(pos_index):
    from elasticsearch_data_loader_ray.index.search import search

    idx, _t = pos_index
    local = LocalSearcher(idx)
    for phrase in ["the data", "data search", "the the"]:
        ids, scores, _ = local.search_phrase(phrase, k=25)
        dist = search(idx, [{"query_id": 0, "query": phrase, "k": 25,
                             "mode": "phrase"}]).to_pandas()
        assert dist["doc_id"].tolist() == ids.tolist()
        assert dist["score"].tolist() == scores.tolist()  # bitwise


def test_phrase_survives_merge(pos_index, tmp_path_factory):
    from elasticsearch_data_loader_ray.index.merge import merge_segments

    idx, t = pos_index
    lo = LocalSearcher(idx)
    before = lo.search_phrase("the data", k=50)
    merge_segments(idx, group_size=3)
    after = LocalSearcher(idx).search_phrase("the data", k=50)
    assert before[0].tolist() == after[0].tolist()
    assert before[1].tolist() == after[1].tolist()


def test_phrase_on_multifield(tmp_path_factory):
    """index_positions covers EVERY text field: phrase search on a
    non-default field (simple analyzer -> letters-only token stream)
    matches a brute token-sequence scan over that field's analyzer."""
    src = tmp_path_factory.mktemp("phmf_src")
    t = fixtures.generate_webtext(300)
    pq.write_table(t, str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("phmf_idx"))
    stats = build_index(str(src), out, BuildConfig(
        docs_per_segment=80, index_positions=True,
        fields=(("text_simple", "text", "simple"),),
    ))
    # brute: engine dedup rule, then the field's own analyzer stream
    rows = [(u, ts, x) for u, ts, x in zip(t["url"].to_pylist(),
                                           t["warc_ts"].to_pylist(),
                                           t["text"].to_pylist()) if x]
    rows.sort(key=lambda r: (r[0], r[1]))
    seen = {}
    for u, _ts, x in rows:
        seen.setdefault(u, x)
    toks = [analyze("simple", seen[u]) for u in sorted(seen)]
    phrase = "the data"
    seq = analyze("simple", phrase)
    dl = np.array([len(x) for x in toks], dtype=np.float64)
    avgdl = float(stats["per_field"]["text_simple"]["avgdl"])
    assert avgdl == pytest.approx(dl.mean())
    uniq = sorted(set(seq))
    dfs = {u: sum(u in set(tk) for tk in toks) for u in uniq}
    idf_sum = float(sum(codec.bm25_idf(dfs[u], len(toks)) for u in uniq))
    want = {}
    for d, tk in enumerate(toks):
        c = sum(1 for i in range(len(tk) - len(seq) + 1)
                if tk[i:i + len(seq)] == seq)
        if c:
            want[d] = (c, idf_sum * float(codec.bm25_tf_impact(
                np.array([c], dtype=np.float64), np.array([dl[d]]), avgdl)[0]))
    lo = LocalSearcher(out)
    ids, scores, freqs = lo.search_phrase(phrase, k=1000,
                                          field="text_simple")
    got = {int(d): (int(f), float(s)) for d, s, f in zip(ids, scores, freqs)}
    assert set(got) == set(want)
    for d in got:
        assert got[d][0] == want[d][0]
        assert got[d][1] == pytest.approx(want[d][1], rel=1e-12)
    # distributed path agrees on the multi-field phrase
    from elasticsearch_data_loader_ray.index.search import search as dsearch

    dist = dsearch(out, [{"query_id": 0, "query": phrase, "k": 20,
                          "mode": "phrase", "field": "text_simple"}]).to_pandas()
    loc_ids, loc_sc, _ = lo.search_phrase(phrase, k=20, field="text_simple")
    assert dist["doc_id"].tolist() == loc_ids.tolist()
    assert dist["score"].tolist() == loc_sc.tolist()


def brute_prefix(t, phrase: str, max_expansions: int = 50):
    """match_phrase_prefix oracle: fixed tokens consecutive, then any
    vocabulary term with the last token as prefix (term-order expansion
    cap), with the documented score convention."""
    urls, toks = corpus_from_webtext(t)
    seq = analyze("standard", phrase)
    fixed, prefix = seq[:-1], seq[-1]
    vocab = sorted({w for tk in toks for w in tk})
    exps = [w for w in vocab if w.startswith(prefix)][:max_expansions]
    if not exps:
        return {}
    eset = set(exps)
    dl = np.array([len(x) for x in toks], dtype=np.float64)
    avgdl = float(dl.mean())
    n = len(toks)
    uniq_fixed = sorted(set(fixed))
    dfs = {u: sum(u in set(tk) for tk in toks) for u in uniq_fixed}
    if any(dfs[u] == 0 for u in uniq_fixed):
        return {}
    idf_fixed = float(sum(codec.bm25_idf(dfs[u], n) for u in uniq_fixed))
    exp_df = min(n, sum(sum(e in set(tk) for tk in toks) for e in exps))
    idf_slot = float(codec.bm25_idf(exp_df, n))
    out = {}
    for d, tk in enumerate(toks):
        c = sum(1 for i in range(len(tk) - len(seq) + 1)
                if tk[i:i + len(fixed)] == fixed
                and tk[i + len(fixed)] in eset)
        if c:
            out[d] = (c, (idf_fixed + idf_slot) * float(
                codec.bm25_tf_impact(np.array([c], dtype=np.float64),
                                     np.array([dl[d]]), avgdl)[0]))
    return out


@pytest.mark.parametrize("phrase", ["the da", "data s", "s", "the data s",
                                    "zzq missing pre"] + [
    " ".join(ts[:-1] + [ts[-1][:1 + s % 2]])
    for s in SEEDS for ts in [_draw(10 + s, HEAD_TERMS, repeat=s % 2 == 0)]])
def test_match_phrase_prefix_matches_brute(pos_index, phrase):
    idx, t = pos_index
    lo = LocalSearcher(idx)
    ids, scores, freqs = lo.search_phrase_prefix(phrase, k=100000)
    want = brute_prefix(t, phrase)
    got = {int(d): (int(f), float(s)) for d, s, f in zip(ids, scores, freqs)}
    assert set(got) == set(want), (phrase, len(got), len(want))
    for d in got:
        assert got[d][0] == want[d][0], (phrase, d)
        assert got[d][1] == pytest.approx(want[d][1], rel=1e-12)


def test_match_phrase_prefix_expansion_cap(pos_index):
    idx, t = pos_index
    lo = LocalSearcher(idx)
    ids1, _s1, _f1 = lo.search_phrase_prefix("the s", k=100000,
                                             max_expansions=1)
    want = brute_prefix(t, "the s", max_expansions=1)
    assert set(int(d) for d in ids1) == set(want)


def test_highlight_first_positions_match_brute(pos_index):
    idx, t = pos_index
    got = LocalSearcher(idx).highlight("the data search").to_pandas()
    urls, toks = corpus_from_webtext(t)
    want = {}
    for d, tk in enumerate(toks):
        for q in ("the", "data", "search"):
            if q in tk:
                want[(d, q)] = tk.index(q)
    assert {(int(r.doc_id), r.term): int(r.first_pos)
            for r in got.itertuples()} == want
    # deterministic order
    assert got.sort_values(["doc_id", "term"]).reset_index(drop=True).equals(
        got.reset_index(drop=True))


def test_rescore_combines_primary_and_phrase(pos_index):
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    idx, t = pos_index
    lo = LocalSearcher(idx)
    W, QW, RW = 15, 1.0, 2.0
    ids, sc = lo.rescore("the data search", "the data", k=10,
                         window_size=W, query_weight=QW, rescore_weight=RW)
    # brute: rounded-score window cut over the exact primary ranking,
    # then the documented combination
    p_ids, p_sc = lo.search("the data search", k=W + 20)
    cut = np.lexsort((p_ids, -np.round(p_sc, 6)))[:W]
    w_ids, w_sc = p_ids[cut], p_sc[cut]
    ph = brute_phrase(t, "the data")
    new = QW * w_sc + RW * np.array(
        [ph.get(int(d), (0, 0.0))[1] for d in w_ids])
    order = np.lexsort((w_ids, -new))[:10]
    assert ids.tolist() == w_ids[order].tolist()
    assert np.allclose(sc, new[order], rtol=1e-12)
    # the phrase must actually reorder the window for the test to bite
    assert ids.tolist() != w_ids[:10].tolist()
    with pytest.raises(ValueError, match="window"):
        lo.rescore("the data", k=20, window_size=10)


def brute_span_near(t, clauses: list[str], slop: int) -> list[int]:
    """In-order span_near oracle: exists p1<...<pn with total gap <= slop."""
    _urls, toks = corpus_from_webtext(t)
    seq = [analyze("standard", c)[0] for c in clauses]
    hits = []
    for d, tk in enumerate(toks):
        pos = [[i for i, w in enumerate(tk) if w == s] for s in seq]
        if any(not p for p in pos):
            continue
        # exhaustive min-total-gap (test-sized docs)
        best = {p: 0 for p in pos[0]}
        for layer in pos[1:]:
            nxt = {}
            for q in layer:
                cands = [c + (q - p - 1) for p, c in best.items() if p < q]
                if cands:
                    nxt[q] = min(cands)
            best = nxt
            if not best:
                break
        if best and min(best.values()) <= slop:
            hits.append(d)
    return hits


@pytest.mark.parametrize("clauses,slop", [
    (["data", "query"], 0),
    (["data", "query"], 2),
    (["the", "data", "query"], 1),
    (["fast", "scan"], 5),
    (["the", "the"], 0),  # repeated term: strict position ordering
] + [(_draw(20 + s, HEAD_TERMS, repeat=s % 2 == 0), 2 * s % 7)
      for s in SEEDS])
def test_span_near_matches_brute(pos_index, clauses, slop):
    out, t = pos_index
    lo = LocalSearcher(out)
    got = lo.span_near(clauses, slop=slop)
    assert got.tolist() == brute_span_near(t, clauses, slop)


def test_span_near_slop0_equals_phrase(pos_index):
    out, _t = pos_index
    lo = LocalSearcher(out)
    ids, _sc, _fq = lo.search_phrase("data query", k=10**9)
    assert lo.span_near(["data", "query"], slop=0).tolist() == sorted(
        ids.tolist())


def brute_intervals(t, terms: list[str], max_gaps: int) -> list[int]:
    """Unordered all_of oracle: exhaustive choice of one position per
    term, window width - k <= max_gaps (test-sized docs)."""
    import itertools

    _urls, toks = corpus_from_webtext(t)
    seq = [analyze("standard", c)[0] for c in terms]
    k = len(seq)
    hits = []
    for d, tk in enumerate(toks):
        pos = [[i for i, w in enumerate(tk) if w == s] for s in seq]
        if any(not p for p in pos):
            continue
        ok = any(max(ch) - min(ch) + 1 - k <= max_gaps
                 for ch in itertools.product(*pos))
        if ok:
            hits.append(d)
    return hits


@pytest.mark.parametrize("terms,gaps", [
    (["data", "query"], 0),
    (["data", "query"], 2),
    (["the", "data", "query"], 1),
    (["fast", "scan"], 4),
    (["slow", "merge", "page"], 6),
] + [(_draw(30 + s, HEAD_TERMS if s % 3 == 0 else MID_TERMS, repeat=False),
      (2 * s + 1) % 7) for s in SEEDS])
def test_intervals_unordered_matches_brute(pos_index, terms, gaps):
    out, t = pos_index
    lo = LocalSearcher(out)
    got = lo.intervals_all_of(terms, max_gaps=gaps)
    assert got.tolist() == brute_intervals(t, terms, gaps)


def test_intervals_ordered_delegates_to_span_near(pos_index):
    out, _t = pos_index
    lo = LocalSearcher(out)
    a = lo.intervals_all_of(["data", "query"], max_gaps=2, ordered=True)
    b = lo.span_near(["data", "query"], slop=2)
    assert a.tolist() == b.tolist()


def test_intervals_unordered_superset_of_ordered(pos_index):
    out, _t = pos_index
    lo = LocalSearcher(out)
    uo = set(lo.intervals_all_of(["data", "query"], max_gaps=1).tolist())
    o = set(lo.intervals_all_of(["data", "query"], max_gaps=1,
                                ordered=True).tolist())
    assert o <= uo


def _corpus_text(t) -> dict[str, str]:
    """url -> text under the engine's corpus rule (see
    ``oracle.corpus_from_webtext``)."""
    rows = sorted((u, ts, x) for u, ts, x in zip(t["url"].to_pylist(),
                                                 t["warc_ts"].to_pylist(),
                                                 t["text"].to_pylist())
                  if x)
    out: dict[str, str] = {}
    for u, _ts, x in rows:
        out.setdefault(u, x)
    return out


def test_positional_queries_after_append_update_delete(tmp_path):
    """An append and an update_by_query without a ``cfg`` keep the
    index's positions layout. After a delete_by_query on top, every
    positional query matches the brute oracles over the live docs, and
    the OR scorer answers bitwise the same in process and distributed."""
    import os
    from datetime import datetime

    import pyarrow as pa

    from elasticsearch_data_loader_ray.index import manifest as mf
    from elasticsearch_data_loader_ray.index.append import (
        append_index,
        delete_by_query,
        update_by_query,
    )
    from elasticsearch_data_loader_ray.index.build import seg_docs_path
    from elasticsearch_data_loader_ray.index.search import search

    base = fixtures.generate_webtext(300)
    batch = fixtures.generate_webtext(100, seed=7, start=250)  # upserts
    for name, part in (("a", base), ("b", batch)):
        (tmp_path / name).mkdir()
        pq.write_table(part, str(tmp_path / name / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "a"), idx,
                BuildConfig(docs_per_segment=80, index_positions=True))
    assert append_index(str(tmp_path / "b"), idx)["n_deleted"] > 0
    new_text = "Fresh data query: the data scan."
    update_by_query(idx, "w0042", {"text": new_text})
    n_del = delete_by_query(idx, "w0011")
    assert mf.read_json(os.path.join(idx, "stats.json"))["index_positions"]

    # the live corpus: the batch replaces its urls, the update rewrites
    # the w0042 docs, the delete drops the w0011 docs
    live = {**_corpus_text(base), **_corpus_text(batch)}
    for u, x in live.items():
        if "w0042" in analyze("standard", x):
            live[u] = new_text
    gone = [u for u, x in live.items() if "w0011" in analyze("standard", x)]
    assert 0 < len(gone) == n_del
    for u in gone:
        del live[u]
    urls = sorted(live)
    t_live = pa.table({"url": urls,
                       "warc_ts": [datetime(2024, 1, 1)] * len(urls),
                       "text": [live[u] for u in urls]})
    url_of = {}
    for s in mf.committed_segments(idx):
        d = pq.read_table(seg_docs_path(idx, s), columns=["doc_id", "url"])
        url_of.update(zip(d["doc_id"].to_pylist(), d["url"].to_pylist()))

    def to_urls(ids) -> set[str]:
        return {url_of[int(d)] for d in ids}

    lo = LocalSearcher(idx)
    ids, _sc, freqs = lo.search_phrase("the data", k=10**9)
    want = brute_phrase(t_live, "the data")
    assert {url_of[int(d)]: int(f) for d, f in zip(ids, freqs)} == {
        urls[d]: c for d, (c, _s) in want.items()}
    ids, _sc, _fq = lo.search_phrase_prefix("the d", k=10**9)
    assert to_urls(ids) == {urls[d] for d in brute_prefix(t_live, "the d")}
    assert to_urls(lo.span_near(["the", "data"], slop=3)) == {
        urls[d] for d in brute_span_near(t_live, ["the", "data"], 3)}
    assert to_urls(lo.intervals_all_of(["data", "the"], max_gaps=1)) == {
        urls[d] for d in brute_intervals(t_live, ["data", "the"], 1)}
    hl = lo.highlight("the data search").to_pandas()
    _u, toks = corpus_from_webtext(t_live)
    assert {(url_of[int(r.doc_id)], r.term): int(r.first_pos)
            for r in hl.itertuples()} == {
        (urls[d], q): tk.index(q) for d, tk in enumerate(toks)
        for q in ("the", "data", "search") if q in tk}
    ids, sc = lo.search("the data", k=25)
    assert len(ids) == 25 and to_urls(ids) <= set(urls)
    dist = search(idx, [{"query_id": 0, "query": "the data",
                         "k": 25}]).to_pandas()
    assert dist["doc_id"].tolist() == ids.tolist()
    assert dist["score"].tolist() == sc.tolist()  # bitwise


def test_positional_matches_stay_inside_one_doc(tmp_path):
    """The kernels match every candidate at once, so a match must never
    join the end of one candidate to the start of the next. Each
    boundary doc ends with ``alpha`` and starts with ``beta`` (far
    apart), next to each other in doc-id order within a segment, across
    segments, and across a doc tombstoned between them. Only the one doc
    that really holds ``alpha beta`` matches."""
    from datetime import datetime, timedelta

    import pyarrow as pa

    from elasticsearch_data_loader_ray import schema
    from elasticsearch_data_loader_ray.index import manifest as mf
    from elasticsearch_data_loader_ray.index.append import (
        append_index,
        delete_by_query,
    )
    from elasticsearch_data_loader_ray.index.build import seg_docs_path

    edge = "beta " + "gamma " * 6 + "alpha"  # positions 0-7
    gens = {"a": {"a0": edge, "a1": edge, "a2": edge},
            "b": {"b0": "alpha beta zeta", "b1": edge},
            "c": {"c0": edge, "c1": "delta alpha beta", "c2": edge}}
    for i, (g, docs) in enumerate(gens.items()):
        urls = [f"https://edge.example/{u}" for u in docs]
        ts = datetime(2024, 1, 1) + timedelta(seconds=i)
        (tmp_path / g).mkdir()
        pq.write_table(pa.table({
            "url": urls,
            "warc_ts": [ts] * len(urls),
            "html": [f"<p>{x}</p>".encode() for x in docs.values()],
            "text": list(docs.values()),
            "lang": ["en"] * len(urls)}, schema=schema.WEBTEXT),
            str(tmp_path / g / "p.parquet"))
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(docs_per_segment=4, index_positions=True)
    build_index(str(tmp_path / "a"), idx, cfg)
    append_index(str(tmp_path / "b"), idx, cfg)
    append_index(str(tmp_path / "c"), idx, cfg)
    assert len(mf.committed_segments(idx)) >= 3
    url_of = {}
    for s in mf.committed_segments(idx):
        d = pq.read_table(seg_docs_path(idx, s), columns=["doc_id", "url"])
        url_of.update(zip(d["doc_id"].to_pylist(), d["url"].to_pylist()))

    def names(ids) -> list[str]:
        return sorted(url_of[int(d)].rsplit("/", 1)[1] for d in ids)

    lo = LocalSearcher(idx)
    assert names(lo.span_near(["alpha", "beta"], slop=0)) == ["b0", "c1"]
    assert delete_by_query(idx, "zeta") == 1  # b0, between a2 and b1
    ids, _sc, freqs = lo.search_phrase("alpha beta", k=10**9)
    assert names(ids) == ["c1"] and freqs.tolist() == [1]
    ids, _sc, freqs = lo.search_phrase_prefix("alpha be", k=10**9)
    assert names(ids) == ["c1"] and freqs.tolist() == [1]
    assert names(lo.span_near(["alpha", "beta"], slop=5)) == ["c1"]
    assert names(lo.intervals_all_of(["alpha", "beta"], max_gaps=5)) == [
        "c1"]
    # a boundary doc's own window spans 6 gaps
    assert names(lo.intervals_all_of(["beta", "alpha"], max_gaps=5)) == [
        "c1"]
    assert names(lo.intervals_all_of(["beta", "alpha"], max_gaps=6)) == [
        "a0", "a1", "a2", "b1", "c0", "c1", "c2"]
    for got in (lo.search_phrase("alpha gamma", k=10),
                lo.search_phrase_prefix("alpha ga", k=10)):
        assert [(len(a), a.dtype) for a in got] == [
            (0, np.int64), (0, np.float64), (0, np.int64)]
    for got in (lo.span_near(["alpha", "gamma"], slop=5),
                lo.intervals_all_of(["alpha", "zeta"], max_gaps=5)):
        assert len(got) == 0 and got.dtype == np.int64
