"""SortedTermFile: footer-bounded lookups over one (field, term)-sorted
parquet file, with its per-file row-group cache."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray.index.search import SortedTermFile


def _table() -> pa.Table:
    """Grouped by field in index order (``text`` before ``name``, as a
    build lays out its fields), ascending by term within each field."""
    fields = ["text"] * 900 + ["name"] * 300
    terms = [f"t{i:04d}" for i in range(0, 1800, 2)] + \
        [f"t{i:04d}" for i in range(300)]
    return pa.table({
        "field": pa.array(fields, pa.string()),
        "term": pa.array(terms, pa.string()),
        "df": pa.array(np.arange(1200, dtype=np.int64)),
        "payload": pa.array([b"x" * 8] * 1200, pa.binary()),
    })


def _want(tbl: pa.Table, by_field: dict, cols: list[str]) -> pa.Table:
    mask = None
    for f, ts in by_field.items():
        m = pc.and_(pc.equal(tbl["field"], f),
                    pc.is_in(tbl["term"], value_set=pa.array(ts)))
        mask = m if mask is None else pc.or_(mask, m)
    return tbl.filter(mask).select(cols)


@pytest.mark.parametrize("stats", [True, False])
def test_lookup_matches_filter(tmp_path, stats):
    """Lookups equal a filter over the whole table, with footer
    statistics (a few row groups decoded) and without (every row group
    read); binary columns stay out of the cache."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=100, write_statistics=stats)
    r = SortedTermFile(path)
    assert (r.bounds is not None) == stats
    assert "payload" not in r._cols
    by_field = {"text": ["t0002", "t0003", "t1798", "t0002"],
                "name": ["t0299"]}
    got = r.lookup(by_field, ["field", "term", "df"])
    assert got.equals(_want(tbl, by_field, ["field", "term", "df"]))
    assert r.rg_reads == (3 if stats else 12)
    assert r.lookup({"text": ["zzz", "t0001"]}, ["df"]) is None
    reads = r.rg_reads
    assert r.lookup(by_field, ["df"]).equals(
        _want(tbl, by_field, ["df"]))
    assert r.rg_reads == reads  # a repeat is served from the cache


@pytest.mark.parametrize("stats,rg_size", [(True, 100), (False, 100),
                                           (True, 64)])
def test_many_pair_lookup_matches_filter(tmp_path, stats, rg_size):
    """One lookup of 600 pairs (hits and misses in both fields) spread
    over every row group equals a filter over the whole table: each row
    group takes its slice of the sorted pairs from its bounds, also in
    the row group that mixes the two fields (``row_group_size=64``)."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=rg_size, write_statistics=stats)
    r = SortedTermFile(path)
    rng = np.random.default_rng(0)
    by_field = {
        "text": [f"t{i:04d}" for i in rng.choice(1800, 450, replace=False)],
        "name": [f"t{i:04d}" for i in rng.choice(400, 150, replace=False)]}
    pairs = sorted((f, t) for f, ts in by_field.items() for t in ts)
    assert len(r.row_groups(pairs)) >= 10
    got = r.lookup(by_field, ["field", "term", "df"])
    assert got.equals(_want(tbl, by_field, ["field", "term", "df"]))


def test_unsorted_row_group_is_refused(tmp_path):
    """Lookups binary-search each field's run of a row group, so a file
    whose terms are not ascending within a field raises instead of
    missing keys."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl.take(np.arange(1199, -1, -1)), path,
                   write_statistics=False)
    with pytest.raises(ValueError, match="not sorted"):
        SortedTermFile(path).lookup({"text": ["t0002"]}, ["df"])


def test_concurrent_lookups_keep_cache_accounting(tmp_path, monkeypatch):
    """More threads than cores look up through one reader whose budget
    holds 3 row groups: every answer equals the reference, and the cache
    never loses an insert or eviction from its byte count."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=64)  # one mixes the fields
    r = SortedTermFile(path)
    rg_bytes = max(r._load(g)[-1] for g in range(r.n_row_groups))
    monkeypatch.setattr(SortedTermFile, "_RG_CACHE_CAP", 3 * rg_bytes)
    errors: list[str] = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(200):
            ts = [f"t{i:04d}" for i in rng.integers(0, 1800, 3)]
            by_field = {"text": ts, "name": ts[:1]}
            got = r.lookup(by_field, ["field", "term", "df"])
            want = _want(tbl, by_field, ["field", "term", "df"])
            if not (got.equals(want) if got is not None
                    else want.num_rows == 0):
                errors.append(f"seed {seed}: {ts}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert r.cached_bytes == sum(e[-1] for e in r._rgs.values())
    assert 0 < r.cached_bytes <= SortedTermFile._RG_CACHE_CAP


def _range_want(tbl: pa.Table, field: str, lo: str, hi) -> pa.Table:
    m = pc.and_(pc.equal(tbl["field"], field),
                pc.greater_equal(tbl["term"], lo))
    if hi is not None:
        m = pc.and_(m, pc.less(tbl["term"], hi))
    return tbl.filter(m).select(["term", "df"])


@pytest.mark.parametrize("stats,rg_size", [(True, 100), (False, 100),
                                           (True, 64)])
def test_range_matches_filter(tmp_path, stats, rg_size):
    """A range equals a filter over the whole table: inside one row
    group, across several, empty, open above, a whole field, and in the
    ``name`` field that follows ``text`` in the file (grouped by field,
    not sorted by it; ``row_group_size=64`` mixes the two in one group).
    Without statistics every row group is read."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=rg_size, write_statistics=stats)
    r = SortedTermFile(path)
    cases = [("text", "t0010", "t0050"), ("text", "t0300", "t1000"),
             ("text", "t0001", "t0002"), ("text", "t0500", "t0500"),
             ("text", "t1700", None), ("text", "", None),
             ("name", "t0250", None), ("name", "", "t0003"),
             ("other", "", None)]
    for field, lo, hi in cases:
        assert r.range(field, lo, hi).equals(
            _range_want(tbl, field, lo, hi)), (field, lo, hi)
    assert 499 // rg_size - 150 // rg_size + 1 >= 3  # t0300-t0998
    fresh = SortedTermFile(path)
    fresh.range("text", "t0010", "t0050")  # rows 5-24: row group 0
    # with bounds, row group 0 and (at 64 rows) the one mixing the fields
    assert fresh.rg_reads == ((1 if rg_size == 100 else 2) if stats
                              else r.n_row_groups)


def test_repeat_range_reads_nothing(tmp_path):
    """A warm reader serves a repeat range from its cached row groups."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=100)
    r = SortedTermFile(path)
    want = _range_want(tbl, "text", "t0100", "t0900")
    assert r.range("text", "t0100", "t0900").equals(want)
    reads = r.rg_reads
    assert reads >= 3
    assert r.range("text", "t0100", "t0900").equals(want)
    assert r.rg_reads == reads


def test_range_never_evicts_lookup_groups(tmp_path, monkeypatch):
    """A whole-field range caches its row groups only in free room and
    first in line for eviction: the groups lookups keep warm survive it,
    and the next lookup that needs room pushes out a range group."""
    tbl = _table()
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, row_group_size=100)
    r = SortedTermFile(path)
    rg_bytes = max(r._load(g)[-1] for g in range(r.n_row_groups))
    monkeypatch.setattr(SortedTermFile, "_RG_CACHE_CAP", 3 * rg_bytes)
    cols = ["field", "term", "df"]
    r.lookup({"text": ["t0000", "t1000"]}, cols)
    warm = set(r._rgs)
    assert len(warm) == 2
    assert r.range("text", "", None).equals(_range_want(tbl, "text", "", None))
    assert warm < set(r._rgs)
    reads = r.rg_reads
    r.lookup({"text": ["t0000", "t1000"]}, cols)
    assert r.rg_reads == reads
    r.lookup({"text": ["t1600"]}, cols)  # a third group: one must go
    assert r.rg_reads == reads + 1 and warm < set(r._rgs)
    assert r.cached_bytes == sum(e[-1] for e in r._rgs.values())
