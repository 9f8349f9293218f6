"""Readers against commits: a ``LocalSearcher`` bound before an append,
delete or merge serves the NEW epoch as a whole on its next query.

Every public query method first compares ``stats.json`` (the atomic
commit point of every mutation) with the signature it bound, and rebinds
when it moved. A merge deletes its absorbed segments' files as soon as it
commits, so a reader that kept serving its old epoch would read deleted
files; one that mixed fresh global df (term_stats is rewritten in place)
with its old segment set would match neither epoch.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.functions.analyzers import token_count_batch
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index import merge
from elasticsearch_data_loader_ray.index.append import (
    append_index,
    append_index_from_corpus,
    delete_by_query,
)
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.merge import merge_segments
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    SortedTermFile,
)

CFG = BuildConfig(docs_per_segment=50)


def _corpus_table(urls: list[str], texts: list[str]) -> pa.Table:
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })


def _build(tmp_path, n_docs: int, seed: int = fixtures.SEED) -> str:
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(n_docs, seed=seed),
                   str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, CFG)
    return idx


def _append(idx: str, url: str, text: str) -> dict:
    return append_index_from_corpus(
        rd.from_arrow(_corpus_table([url], [text])), idx, CFG)


def _assert_same(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_reader_bound_before_merge_reads_new_epoch(tmp_path):
    """A merge deletes the absorbed segments' files at its commit. A
    reader bound before it must not read them on its next cold read:
    neither the term files (AND query, cold terms) nor the postings blobs
    (OR query after its postings caches were dropped)."""
    idx = _build(tmp_path, 600)
    s = LocalSearcher(idx)
    s.search("the data")
    merge_segments(idx, 3)
    _assert_same(s.search("the data", mode="and"),
                 LocalSearcher(idx).search("the data", mode="and"))

    s = LocalSearcher(idx)
    s.search("the data")
    for cache in (s._postings_cache, s._contrib_cache, s._request_cache):
        cache.clear()
    merge_segments(idx, 3)
    _assert_same(s.search("the data"), LocalSearcher(idx).search("the data"))


@pytest.fixture()
def low_bound(monkeypatch):
    """Appends merge at commit: the bound sits below the build's 8."""
    monkeypatch.setattr(merge, "MAX_SEGMENTS", 4)


def test_old_epoch_reader_serves_new_epoch_after_append(tmp_path, low_bound):
    idx = _build(tmp_path, 400)
    s = LocalSearcher(idx)
    old_segs = list(s.seg_ids)
    s.search("the data", k=10)  # warm: request, idf and postings caches
    out = _append(idx, "https://ep/new1", "zzznovelterm the data the data")
    assert "compact" in out["phase_secs"]  # the append merged at commit
    fresh = LocalSearcher(idx)
    _assert_same(s.search("the data", k=10), fresh.search("the data", k=10))
    assert s.seg_ids == fresh.seg_ids != old_segs
    assert len(s.seg_ids) <= merge.MAX_SEGMENTS
    assert len(s.search("zzznovelterm", k=10)[0]) == 1


def test_reader_under_merge_append_loop_equals_fresh(tmp_path, low_bound):
    """Interleaved merges, appends (merging at commit) and a delete: after
    every commit the long-lived reader's next answers equal a fresh
    searcher's on the current epoch, with no refresh() call."""
    idx = _build(tmp_path, 400)
    reader = LocalSearcher(idx)
    queries = [("the data", "or"), ("the data", "and"), ("w0042", "or")]

    def check():
        fresh = LocalSearcher(idx)
        for q, mode in queries:
            _assert_same(reader.search(q, k=10, mode=mode),
                         fresh.search(q, k=10, mode=mode))
        assert reader.seg_ids == fresh.seg_ids

    check()
    merge_segments(idx, group_size=3)
    check()
    for i in range(3):
        _append(idx, f"https://ep/loop{i}", f"loopdoc{i} the data")
        assert len(mf.committed_segments(idx)) <= merge.MAX_SEGMENTS
        check()
    assert delete_by_query(idx, "loopdoc1") == 1
    check()
    merge_segments(idx, group_size=4)
    check()


def test_bound_reader_keeps_its_epoch_idf(tmp_path):
    """A cold idf lookup scores with the epoch the searcher bound, even
    when a commit lands before it: term_stats is opened at bind (the open
    file outlives the append's rewrite of the directory) and idf uses the
    bound ``n_docs``, so a query never mixes two epochs' idf."""
    idx = _build(tmp_path, 600, seed=3)
    s = LocalSearcher(idx)
    want = LocalSearcher(idx)._idf("text", ["data"])
    more = tmp_path / "more"
    more.mkdir()
    pq.write_table(fixtures.generate_webtext(300, seed=3, start=600),
                   str(more / "p.parquet"))
    append_index(str(more), idx, CFG)
    assert LocalSearcher(idx)._idf("text", ["data"]) != want
    assert s._idf("text", ["data"]) == want  # cold on s: no refresh ran


def test_bound_dictionary_keeps_its_epoch_terms(tmp_path):
    """The dictionary read behind every expansion and suggester
    (``_term_dict``, which the public methods call after their refresh)
    reads the epoch the searcher bound: terms that an append commits
    stay out of it until the next refresh."""
    idx = _build(tmp_path, 300)
    s = LocalSearcher(idx)
    _append(idx, "https://ep/dict", "zzzdict zzzdictb the data")
    assert s._term_dict("text", "zzzdict").num_rows == 0
    want = ["zzzdict", "zzzdictb"]
    assert LocalSearcher(idx).expand_prefix("text", "zzzdict") == want
    assert s.expand_prefix("text", "zzzdict") == want  # refreshed


def _positions_index(tmp_path) -> str:
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(300, seed=5),
                   str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx,
                BuildConfig(docs_per_segment=50, index_positions=True))
    return idx


def test_multi_term_searches_refresh_once(tmp_path):
    """A multi-term search refreshes once, before it reads anything: its
    expansions run on the epoch it bound, so a commit landing mid-query
    cannot rebind the searcher halfway (part of the query on the old
    epoch's files, the rest on the new)."""
    s = LocalSearcher(_positions_index(tmp_path))
    n = []
    refresh = s.refresh
    s.refresh = lambda: n.append(1) or refresh()
    for query in (lambda: s.search_fuzzy("dta serch tehm", k=20),
                  lambda: s.search_wildcard("th*", k=50),
                  lambda: s.search_regexp("w0[0-9]+", k=50),
                  lambda: s.search_bool_prefix("the da", k=20),
                  lambda: s.search_phrase_prefix("the da", k=20)):
        n.clear()
        assert len(query()[0])
        assert len(n) == 1


def test_expansions_read_the_bound_term_stats(tmp_path, monkeypatch):
    """Every expansion and suggester reads the term_stats readers the
    searcher bound: with ``term_stats/`` renamed away and ``stats.json``
    untouched (no commit, so no rebind), each answers as before, read
    through the open files (no row group stays cached). A fresh bind in
    that state still fails: binding lists the directory."""
    import os

    monkeypatch.setattr(SortedTermFile, "_RG_CACHE_CAP", 0)
    idx = _positions_index(tmp_path)
    s = LocalSearcher(idx)
    calls = [
        lambda: s.search_fuzzy("dta serch", k=20),
        lambda: s.search_wildcard("th*", k=50),
        lambda: s.search_regexp("w0[0-9]+", k=50),
        lambda: s.search_bool_prefix("the da", k=20),
        lambda: s.search_phrase_prefix("the da", k=20),
        lambda: s.suggest_terms(["teh", "dtaa"]).to_pydict(),
        lambda: s.suggest_phrase("teh dtaa").to_pydict(),
        lambda: s.suggest_completions(["th", "w0"]).to_pydict(),
    ]

    def run():
        return [[a.tolist() for a in r] if isinstance(r, tuple) else r
                for r in (c() for c in calls)]

    want = run()
    assert all(r[0] if isinstance(r, list) else r["suggestion"]
               for r in want)  # every call finds something
    ts = os.path.join(idx, "term_stats")
    os.rename(ts, ts + ".away")
    try:
        assert not any(r._rgs for r in s._stats_readers)
        assert run() == want
        with pytest.raises(FileNotFoundError):
            LocalSearcher(idx)
    finally:
        os.rename(ts + ".away", ts)


def test_refresh_reuses_readers_of_unchanged_files(tmp_path):
    """An epoch swap keeps the reader object, footer bounds and cached
    row groups of every file it did not change: after an append the old
    segments' readers carry over and term_stats (rewritten) gets a new
    one; after a merge the absorbed segments' readers are gone and
    term_stats' carries over. Answers equal a fresh searcher's bitwise."""
    idx = _build(tmp_path, 400)
    s = LocalSearcher(idx)
    queries = [("the data", "or"), ("the data", "and"), ("w0042 web", "or")]

    def check():
        fresh = LocalSearcher(idx)
        for q, mode in queries:
            _assert_same(s.search(q, k=10, mode=mode),
                         fresh.search(q, k=10, mode=mode))

    check()
    before = {r.path: r for r in s._term_readers}
    cached = {p: dict(r._rgs) for p, r in before.items()}
    assert all(cached.values())  # every segment served a lookup
    old_stats = list(s._stats_readers)
    _append(idx, "https://ep/reuse", "zzzreuse the data")
    assert s.refresh()
    assert len(s._term_readers) == len(before) + 1
    for r in s._term_readers:
        if r.path in before:
            assert r is before[r.path]
            assert all(r._rgs[g] is t for g, t in cached[r.path].items())
    assert not {id(r) for r in s._stats_readers} & {id(r) for r in old_stats}
    check()

    before = {r.path: r for r in s._term_readers}
    stats_readers = list(s._stats_readers)
    merge_segments(idx, group_size=4)  # 9 segments: runs 4, 4 and 1
    assert s.refresh()
    paths = {r.path for r in s._term_readers}
    assert paths == set(s.term_files)
    assert len(set(before) - paths) == 8  # absorbed: readers dropped
    kept = set(before) & paths
    assert len(kept) == 1
    assert all(r is before[r.path] for r in s._term_readers
               if r.path in kept)
    assert s._stats_readers == stats_readers  # merge leaves term_stats
    check()
