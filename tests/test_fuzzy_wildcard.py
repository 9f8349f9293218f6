"""Fuzzy (term-dictionary expansion) and wildcard (constant_score) queries."""

from __future__ import annotations

import re

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
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    _auto_fuzziness,
    levenshtein_vec,
    search,
    search_inprocess,
)

VOCAB = ["data", "date", "dates", "query", "queries", "scan", "scans",
         "table", "stable", "stream", "steam", "the", "join", "joins"]


def _ref_lev(a: str, b: str) -> int:
    m, n = len(a), len(b)
    dp = list(range(n + 1))
    for i in range(1, m + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, n + 1):
            cur = min(dp[j] + 1, dp[j - 1] + 1,
                      prev + (a[i - 1] != b[j - 1]))
            prev, dp[j] = dp[j], cur
    return dp[n]


def test_levenshtein_vec_matches_reference():
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("abcde"), rng.integers(0, 9)))
             for _ in range(500)]
    for q in ("", "a", "cab", "abcde", "edcba"):
        got = levenshtein_vec(q, pa.array(words))
        assert got.tolist() == [_ref_lev(q, w) for w in words], q


def test_auto_fuzziness_es_boundaries():
    assert [_auto_fuzziness(t) for t in ("ab", "abc", "abcde", "abcdef")] \
        == [0, 1, 1, 2]


@pytest.fixture(scope="module")
def fz_index(tmp_path_factory):
    rng = np.random.default_rng(11)
    texts = [" ".join(rng.choice(VOCAB, rng.integers(3, 25)))
             for _ in range(300)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path_factory.mktemp("fz_idx"))
    build_index_from_corpus(rd.from_arrow(corpus), idx,
                            BuildConfig(docs_per_segment=64))
    return idx, texts


def test_expand_fuzzy_semantics(fz_index):
    idx, _ = fz_index
    ls = LocalSearcher(idx)
    # distance<=1, shared first char: date/dates(2? no: distance 2)...
    got = ls.expand_fuzzy("text", "date", fuzziness=1, prefix_length=1)
    assert set(got) == {"data", "date", "dates"}
    # exact term always included at distance 0
    assert "query" in ls.expand_fuzzy("text", "query", fuzziness=0)
    # max_expansions caps by df desc then term asc
    all_d = ls.expand_fuzzy("text", "date", fuzziness=1, prefix_length=1)
    one = ls.expand_fuzzy("text", "date", fuzziness=1, prefix_length=1,
                          max_expansions=1)
    assert len(one) == 1 and one[0] in all_d
    # prefix_length=0 widens to different-first-letter matches
    wide = ls.expand_fuzzy("text", "steam", fuzziness=1, prefix_length=0)
    assert "steam" in wide and "stream" in wide


def test_expand_wildcard_patterns(fz_index):
    idx, _ = fz_index
    ls = LocalSearcher(idx)
    assert ls.expand_wildcard("text", "quer*") == ["queries", "query"]
    assert ls.expand_wildcard("text", "s?an") == ["scan"]
    assert ls.expand_wildcard("text", "*s") == \
        sorted(t for t in VOCAB if t.endswith("s"))
    assert ls.expand_wildcard("text", "zz*") == []


def test_fuzzy_scores_match_expanded_or_query(fz_index):
    idx, _ = fz_index
    ls = LocalSearcher(idx)
    exp = ls.expand_fuzzy("text", "quer", fuzziness=1, prefix_length=1)
    ids_f, sc_f = ls.search_fuzzy("quer", k=20, fuzziness=1)
    ids_o, sc_o = ls.search(" ".join(exp), k=20)
    assert ids_f.tolist() == ids_o.tolist()
    assert sc_f.tolist() == sc_o.tolist()  # bitwise


def test_fuzzy_wildcard_local_vs_distributed(fz_index):
    idx, _ = fz_index
    qs = [{"query_id": 0, "query": "quer", "mode": "fuzzy", "k": 15},
          {"query_id": 1, "query": "steam tble", "mode": "fuzzy",
           "fuzziness": 2, "k": 15},
          {"query_id": 2, "query": "dat*", "mode": "wildcard", "k": 15},
          {"query_id": 3, "query": "*s", "mode": "wildcard", "k": 15}]
    dist = search(idx, qs).to_pandas()
    local = search_inprocess(idx, qs).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert dist["score"].tolist() == local["score"].tolist()


def test_wildcard_constant_score_doc_order(fz_index):
    idx, texts = fz_index
    ls = LocalSearcher(idx)
    ids, sc = ls.search_wildcard("dat*", k=10_000)
    toks = [set(analyze("standard", t)) for t in texts]
    want = [d for d, tk in enumerate(toks)
            if any(t.startswith("dat") for t in tk)]
    assert ids.tolist() == want
    assert np.all(sc == 1.0)


def test_suggest_terms_matches_brute(fz_index):
    idx, texts = fz_index
    toks = [analyze("standard", t) for t in texts]
    vocab: dict[str, int] = {}
    for tk in toks:
        for w in set(tk):
            vocab[w] = vocab.get(w, 0) + 1
    got = LocalSearcher(idx).suggest_terms(["quer", "dtae", "zzz"]).to_pandas()
    for inp in ("quer", "dtae"):
        rows = got[got["input"] == inp]
        cand = [(w, _ref_lev(inp, w), df) for w, df in vocab.items()
                if w[0] == inp[0] and 1 <= _ref_lev(inp, w) <= 2]
        cand.sort(key=lambda r: (r[1], -r[2], r[0]))
        want = cand[:5]
        assert [(r.suggestion, int(r.distance), int(r.df))
                for r in rows.itertuples()] == want
    assert (got["input"] == "zzz").sum() == 0


def test_phrase_suggester_slots_and_assembly(fz_index):
    idx, _ = fz_index
    got = LocalSearcher(idx).suggest_phrase("teh data zzzzqqq").to_pandas()
    assert got["slot"].tolist() == [0, 1, 2]
    # correctly-spelled token keeps itself at distance 0
    row1 = got.iloc[1]
    assert row1["input_token"] == "data"
    assert row1["suggestion"] == "data" and row1["distance"] == 0
    # misspelling resolves to a distance>=1 dictionary term
    row0 = got.iloc[0]
    assert row0["distance"] >= 1 and row0["suggestion"] != "teh"
    # hopeless token (no candidate within 2 edits) survives as-is
    row2 = got.iloc[2]
    assert row2["suggestion"] == "zzzzqqq"
    assert row2["distance"] == -1 and row2["df"] == 0
    # the assembled phrase is the per-slot winners in order
    want = " ".join(got["suggestion"])
    assert (got["phrase"] == want).all()


@pytest.mark.parametrize("pattern", ["zz(", "d("])
def test_invalid_regexp_raises_on_every_slice(fz_index, pattern):
    """An invalid regexp fails the same way whether its literal-prefix
    slice of the dictionary is empty ("zz") or holds terms ("d")."""
    idx, _ = fz_index
    ls = LocalSearcher(idx)
    assert bool(ls.expand_prefix("text", pattern[:-1], 1 << 30)) == \
        (pattern == "d(")
    with pytest.raises(ValueError, match=re.escape(repr(pattern))):
        ls.expand_regexp("text", pattern)
    with pytest.raises(ValueError, match=re.escape(repr(pattern))):
        ls.search_regexp(pattern, k=5)


def test_regexp_expansion_is_anchored_and_local_matches_distributed(fz_index):
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        search,
        search_inprocess,
    )

    idx, texts = fz_index
    lo = LocalSearcher(idx)
    # anchored whole-term semantics: "dat." matches date/data, NOT dates
    exp = lo.expand_regexp("text", "dat.")
    assert "dates" not in exp and set(exp) >= {"data", "date"}
    # Lucene implicit anchors: a bare literal matches only itself
    assert lo.expand_regexp("text", "quer") == []
    q = [{"query_id": 0, "query": "d(ata|ate)", "k": 25, "mode": "regexp"}]
    want_ids, want_sc = lo.search_regexp("d(ata|ate)", k=25)
    got = search(idx, q).to_pandas()
    assert got["doc_id"].tolist() == want_ids.tolist()
    assert (got["score"] == 1.0).all() and (want_sc == 1.0).all()
    inp = search_inprocess(idx, q).to_pandas()
    assert inp["doc_id"].tolist() == want_ids.tolist()
    # brute: every returned doc contains data or date
    from elasticsearch_data_loader_ray.functions.analyzers import analyze
    toks = [set(analyze("standard", t)) for t in texts]
    have = sorted(i for i, tk in enumerate(toks)
                  if {"data", "date"} & tk)[:25]
    assert want_ids.tolist() == have


def test_match_bool_prefix_brute_parity(fz_index):
    """search_bool_prefix == per-doc brute force: BM25 sum of the fixed
    terms + 1.0 when any doc token carries the prefix."""
    from collections import Counter

    from elasticsearch_data_loader_ray.index import codec

    idx, texts = fz_index
    lo = LocalSearcher(idx)
    toks = [analyze("standard", t) for t in texts]
    tfs = [Counter(tk) for tk in toks]
    dl = np.array([len(tk) for tk in toks], np.float64)
    avgdl = float(dl.mean())
    df = Counter()
    for c in tfs:
        df.update(c.keys())
    n = len(texts)
    for q in ("data quer", "the jo", "st", "scan tab", "zzqnone"):
        seq = analyze("standard", q)
        fixed, prefix = sorted(set(seq[:-1])), seq[-1]
        hits = []
        for d in range(n):
            pref_hit = any(t.startswith(prefix) for t in tfs[d])
            s = 0.0
            for t in fixed:
                if t in tfs[d]:
                    s += float(codec.bm25_idf(df[t], n)) * float(
                        codec.bm25_tf_impact(
                            np.array([tfs[d][t]], np.float64),
                            np.array([dl[d]]), avgdl)[0])
            if s > 0.0 or pref_hit:
                hits.append((d, s + (1.0 if pref_hit else 0.0)))
        hits.sort(key=lambda x: (-x[1], x[0]))
        ids, sc = lo.search_bool_prefix(q, k=15)
        assert ids.tolist() == [h[0] for h in hits[:15]], q
        np.testing.assert_allclose(sc, [h[1] for h in hits[:15]],
                                   rtol=1e-9)


ASTRAL = "\U0001d49c"  # MATHEMATICAL SCRIPT CAPITAL A
UNI_WORDS = ["ÿ", "ÿes", "ÿz", "¿x", "¿", "é", "éx", "ê", "êa", ASTRAL,
             ASTRAL + "b", "\uffff", "\uffffa", "y", "data", "zz"]


def test_prefix_upper_code_points():
    from elasticsearch_data_loader_ray.index.search import _prefix_upper

    assert _prefix_upper("ÿ") == "Ā"
    assert _prefix_upper("caf¿") == "cafÀ"
    assert _prefix_upper("\uffff") == "\U00010000"
    assert _prefix_upper("a\ud7ff") == "a\ue000"  # past the surrogates
    assert _prefix_upper("a\U0010ffff\U0010ffff") == "b"
    assert _prefix_upper("\U0010ffff") is None
    assert _prefix_upper("") is None


def test_unicode_prefix_expansions_match_brute(tmp_path):
    """Prefixes whose last character's UTF-8 ends in byte 0xBF (``ÿ``,
    ``¿``, U+FFFF), an accented and an astral one: prefix, wildcard and
    fuzzy (``prefix_length=1``) expansions equal a brute ``startswith``
    filter over the field's vocabulary. A whitespace-analyzed field keeps
    the punctuation and noncharacter terms the standard one drops; 4-row
    term_stats groups make the ranges cross row groups."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(UNI_WORDS, 6)) for _ in range(40)]
    n = len(texts)
    corpus = pa.table({
        "url": pa.array([f"{i:08d}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })
    idx = str(tmp_path / "uni_idx")
    build_index_from_corpus(rd.from_arrow(corpus), idx, BuildConfig(
        docs_per_segment=16, index_block_rows=4,
        fields=(("ws", "text", "analyzer_whitespace_token"),)))
    ts = pq.read_table(str(tmp_path / "uni_idx" / "term_stats"))
    vocab = sorted(ts.filter(pc.equal(ts["field"], "ws"))["term"]
                   .to_pylist())
    assert {"ÿ", "ÿes", "¿x", "é", "ê", ASTRAL, "\uffff"} <= set(vocab)
    ls = LocalSearcher(idx)
    for p in ("ÿ", "¿", "é", "\uffff", ASTRAL):
        want = [t for t in vocab if t.startswith(p)]
        assert want, p
        assert ls.expand_prefix("ws", p, 1 << 30) == want, p
        assert ls.expand_wildcard("ws", p + "*") == want, p
        fz = [t for t in want
              if _ref_lev(p.encode(), t.encode()) <= 2]  # byte domain
        assert sorted(ls.expand_fuzzy("ws", p, fuzziness=2,
                                      prefix_length=1,
                                      max_expansions=1 << 30)) == fz, p
