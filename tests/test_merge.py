"""Segment merge: search results must be bit-identical before and after."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import codec
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.merge import (_merge_term_tables,
                                                       merge_segments)
from elasticsearch_data_loader_ray.index.search import search, search_inprocess


@pytest.fixture(scope="module")
def merged_index(tmp_path_factory):
    src = tmp_path_factory.mktemp("mg_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("mg_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    queries = fixtures.generate_queries()
    before = search(out, queries).to_pandas()
    n_before = len(mf.committed_segments(out))
    survivors = merge_segments(out, group_size=3)
    return out, queries, before, n_before, survivors


def test_merge_reduces_segments(merged_index):
    out, _q, _b, n_before, survivors = merged_index
    assert n_before >= 4
    after = mf.committed_segments(out)
    assert len(after) == len(survivors) < n_before
    m = next(m for m in after.values() if "absorbed" in m)
    assert len(m["absorbed"]) >= 2
    assert m["absorbed_buckets"] == sorted(m["absorbed"])  # first-level merge


def test_merge_preserves_search_bitwise(merged_index):
    out, queries, before, _n, _s = merged_index
    after = search(out, queries).to_pandas()
    assert before["doc_id"].tolist() == after["doc_id"].tolist()
    assert before["score"].tolist() == after["score"].tolist()
    local = search_inprocess(out, queries).to_pandas()
    assert local["score"].tolist() == after["score"].tolist()


def test_merge_idempotent_convergence(merged_index):
    out, queries, before, _n, _s = merged_index
    merge_segments(out, group_size=10)
    assert len(mf.committed_segments(out)) <= 2
    final = search(out, queries).to_pandas()
    assert final["score"].tolist() == before["score"].tolist()


def test_build_resume_after_merge_rebuilds_nothing(merged_index, tmp_path_factory):
    """A build resumed on a merged index must not re-index absorbed buckets
    (duplicate docs) — covered_buckets includes absorbed ids."""
    import pyarrow.parquet as pq_

    from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index

    out, queries, before, _n, _s = merged_index
    # simulate a pipeline retry: finalize markers removed, build re-run
    os.unlink(os.path.join(out, "stats.json"))
    os.unlink(os.path.join(out, "term_stats", "_SUCCESS"))
    src = tmp_path_factory.mktemp("mg_resrc")
    pq_.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    stats = build_index(str(src), out, BuildConfig(docs_per_segment=100))
    assert stats["n_segments"] == len(mf.committed_segments(out))
    after = search(out, queries).to_pandas()
    assert after["doc_id"].tolist() == before["doc_id"].tolist()
    assert after["score"].tolist() == before["score"].tolist()


def test_merged_equals_directly_built(tmp_path_factory):
    """Strong invariant: an index built with many segments then merged to
    one holds the SAME decoded postings as an index built as one segment
    directly (block layouts differ, content must not)."""
    src = tmp_path_factory.mktemp("inv_src")
    pq.write_table(fixtures.generate_webtext(400), str(src / "p.parquet"))
    many = str(tmp_path_factory.mktemp("inv_many"))
    build_index(str(src), many, BuildConfig(docs_per_segment=60))
    merge_segments(many, group_size=100)  # collapse to one
    one = str(tmp_path_factory.mktemp("inv_one"))
    build_index(str(src), one, BuildConfig(docs_per_segment=10**6))

    def postings_map(idx):
        from elasticsearch_data_loader_ray.index.build import read_segment_terms

        seg = sorted(mf.committed_segments(idx))[0]
        t = read_segment_terms(idx, seg)
        out = {}
        for i in range(t.num_rows):
            key = (t["field"][i].as_py(), t["term"][i].as_py())
            ids, tfs = codec.decode_postings(
                t["doc_ids_enc"][i].as_py(), t["tfs_enc"][i].as_py(),
                int(t["df"][i].as_py()))
            out[key] = (ids.tolist(), tfs.tolist())
        return out

    a, b = postings_map(many), postings_map(one)
    assert set(a) == set(b)
    for k in a:
        assert a[k] == b[k], k


def _varint(v: int) -> bytes:
    out = bytearray()
    while True:
        byte, v = v & 0x7F, v >> 7
        out.append(byte | (0x80 if v else 0))
        if not v:
            return bytes(out)


def _segment_terms(rng, base: int, span: int) -> pa.Table:
    """One segment's term table over doc ids ``[base, base + span)``, in
    the column order ``read_segment_terms`` gives: two fields, ``text``
    with position streams and ``title`` with null ones."""
    tables = []
    for field in ("text", "title"):
        terms, ids, tfs = [], [], []
        for t in range(12):
            df = int(rng.integers(1, min(span, 400)))
            if rng.random() < 0.25:  # terms missing from some segments
                continue
            got = np.sort(rng.choice(span, df, replace=False)) + base
            terms += [f"t{t:02d}"] * df
            ids.append(got)
            tfs.append(rng.integers(1, 300, df))
        ids, tfs = np.concatenate(ids), np.concatenate(tfs)
        tbl = codec.build_posting_table(
            np.array(terms, dtype=object), ids, tfs,
            rng.integers(5, 50, len(ids)), 20.0)
        offs = pa.array(tbl["block_offsets"].astype(np.int32))
        n = len(tbl["term"])
        pos = ([rng.bytes(int(rng.integers(1, 60))) for _ in range(n)]
               if field == "text" else [None] * n)
        tables.append(pa.table({
            "field": pa.array([field] * n, pa.string()),
            "term": pa.array(tbl["term"], pa.string()),
            "df": pa.array(tbl["df"], pa.int64()),
            "doc_ids_enc": pa.array(list(tbl["doc_ids_enc"]), pa.binary()),
            "tfs_enc": pa.array(list(tbl["tfs_enc"]), pa.binary()),
            "block_last_doc": pa.ListArray.from_arrays(
                offs, pa.array(tbl["block_last_flat"])),
            "block_max_impact": pa.ListArray.from_arrays(
                offs, pa.array(tbl["block_max_flat"])),
            "block_doc_byte_off": pa.ListArray.from_arrays(
                offs, pa.array(tbl["block_doc_off_flat"])),
            "block_tf_byte_off": pa.ListArray.from_arrays(
                offs, pa.array(tbl["block_tf_off_flat"])),
            "max_impact": pa.array(tbl["max_impact"], pa.float64()),
            "positions_enc": pa.array(pos, pa.binary()),
        }))
    return pa.concat_tables(tables)


def _reference_merge(parts: list[pa.Table]) -> list[dict]:
    """The merge written one row at a time: per (field, term), rows in
    segment order; a later row's leading absolute doc id becomes a gap
    from the previous row's last doc id, its block doc-byte offsets move
    by its prefix in the merged stream plus the length change, and its
    tf offsets by the tf prefix. A term's positions are null only when
    every row's are."""
    by_key: dict[tuple, list[dict]] = {}
    for part in parts:
        for r in part.to_pylist():
            by_key.setdefault((r["field"], r["term"]), []).append(r)
    out = []
    for key in sorted(by_key):
        rows = by_key[key]
        doc, tf, pos = b"", b"", None
        blast, bmax, bdoc, btf = [], [], [], []
        prev_last = None
        for r in rows:
            enc = r["doc_ids_enc"]
            shift = 0
            if prev_last is not None:
                v, n = 0, 0
                while True:
                    v |= (enc[n] & 0x7F) << (7 * n)
                    n += 1
                    if not enc[n - 1] & 0x80:
                        break
                gap = _varint(v - prev_last)
                enc, shift = gap + enc[n:], len(gap) - n
            offs = [0] + [o + shift for o in r["block_doc_byte_off"][1:]]
            bdoc += [o + len(doc) for o in offs]
            btf += [o + len(tf) for o in r["block_tf_byte_off"]]
            blast += r["block_last_doc"]
            bmax += r["block_max_impact"]
            doc, tf = doc + enc, tf + r["tfs_enc"]
            if r["positions_enc"] is not None:
                pos = (pos or b"") + r["positions_enc"]
            prev_last = r["block_last_doc"][-1]
        out.append({
            "field": key[0], "term": key[1],
            "df": sum(r["df"] for r in rows),
            "doc_ids_enc": doc, "tfs_enc": tf,
            "block_last_doc": blast, "block_max_impact": bmax,
            "block_doc_byte_off": bdoc, "block_tf_byte_off": btf,
            "max_impact": max(r["max_impact"] for r in rows),
            "positions_enc": pos,
        })
    return out


def test_merge_term_tables_matches_reference_loop():
    """_merge_term_tables gives the per-row reference merge: positions, a
    null-positions field, single-segment terms, and boundary gaps both
    below 128 and of 128 or more (a multi-byte varint shrinking or
    staying multi-byte). The merged streams decode to the segments'
    postings, and every block's byte offset starts that block."""
    rng = np.random.default_rng(5)
    spans = [(0, 600), (600, 900), (1500, 3000), (4500, 700)]
    parts = [_segment_terms(rng, b, n) for b, n in spans]
    # a two-chunk input with an offset slice: the merge reads views
    parts[1] = pa.concat_tables([parts[1].slice(0, 5), parts[1].slice(5)])
    got = _merge_term_tables(parts)
    want = _reference_merge(parts)
    assert got.column_names == list(want[0])
    assert got.to_pylist() == want
    for r in want:
        ids, _tfs = codec.decode_postings(r["doc_ids_enc"], r["tfs_enc"],
                                          r["df"])
        assert (np.diff(ids) > 0).all() and ids[-1] == r["block_last_doc"][-1]
        prev = [-1, *r["block_last_doc"][:-1]]
        for b, at in enumerate(r["block_doc_byte_off"]):
            first = int(ids[np.searchsorted(ids, prev[b], "right")])
            v = codec.varint_decode(np.frombuffer(
                r["doc_ids_enc"][at:at + 10], np.uint8))[0]
            assert int(v) == first - max(prev[b], 0)
    rows: dict[tuple, list[dict]] = {}
    for part in parts:
        for r in part.to_pylist():
            rows.setdefault((r["field"], r["term"]), []).append(r)
    boundary = [codec.decode_postings(b["doc_ids_enc"], b["tfs_enc"],
                                      b["df"])[0][0] - a["block_last_doc"][-1]
                for rs in rows.values() for a, b in zip(rs, rs[1:])]
    assert max(boundary) >= 128 and min(boundary) < 128
    assert any(r["positions_enc"] is None for r in want)
    assert any(r["positions_enc"] is not None for r in want)


def test_conjunctive_after_merge(merged_index):
    out, _q, _b, _n, _s = merged_index
    q = [{"query_id": 0, "query": "the data", "k": 10, "mode": "and"}]
    dist = search(out, q).to_pandas()
    local = search_inprocess(out, q).to_pandas()
    assert dist["doc_id"].tolist() == local["doc_id"].tolist()
    assert len(dist) > 0


def test_searcher_epoch_swap_after_merge(tmp_path_factory):
    """A LocalSearcher bound before a merge keeps serving after refresh():
    the committed-segment epoch swap rebinds files and drops caches, and
    results from the merged segments are bitwise-identical (the ES
    refresh analogue)."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("ref_src")
    pq.write_table(fixtures.generate_webtext(500), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("ref_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    lo = LocalSearcher(out)
    before = [lo.search(q, k=10)
              for q in ("the data", "w0042", "index query page web")]
    old_ids = list(lo.seg_ids)
    merge_segments(out, group_size=3)
    assert lo.refresh() is True
    assert lo.seg_ids != old_ids
    assert any(s >= mf.MERGED_ID_BASE for s in lo.seg_ids)
    for q, (ids_b, sc_b) in zip(
            ("the data", "w0042", "index query page web"), before):
        ids_a, sc_a = lo.search(q, k=10)
        assert ids_b.tolist() == ids_a.tolist()
        assert sc_b.tolist() == sc_a.tolist()  # bitwise across the swap
    # idempotent: no further change -> no swap
    assert lo.refresh() is False


def test_searcher_picks_up_merge_without_refresh(tmp_path_factory):
    """A searcher picks up a merge on its next search with no refresh()
    call: every query first checks the stats.json commit point."""
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("ar_src")
    pq.write_table(fixtures.generate_webtext(400), str(src / "p.parquet"))
    out = str(tmp_path_factory.mktemp("ar_idx"))
    build_index(str(src), out, BuildConfig(docs_per_segment=100))
    lo = LocalSearcher(out)
    ids_b, sc_b = lo.search("the data", k=10)
    merge_segments(out, group_size=10)
    ids_a, sc_a = lo.search("the data", k=10)  # swapped epoch
    assert any(s >= mf.MERGED_ID_BASE for s in lo.seg_ids)
    assert ids_b.tolist() == ids_a.tolist()
    assert sc_b.tolist() == sc_a.tolist()


def test_compact_to_bounds_segment_count(tmp_path_factory):
    from elasticsearch_data_loader_ray.index.merge import compact_to

    src = tmp_path_factory.mktemp("ct_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    src = str(src)
    idx = str(tmp_path_factory.mktemp("idx_compact"))
    stats = build_index(src, idx, BuildConfig(docs_per_segment=60))
    assert stats["n_segments"] >= 8
    queries = fixtures.generate_queries()
    before = search(idx, queries).to_pandas()
    survivors = compact_to(idx, 3)
    assert len(survivors) <= 3
    assert len(mf.committed_segments(idx)) == len(survivors)
    after = search(idx, queries).to_pandas()
    assert before["doc_id"].tolist() == after["doc_id"].tolist()
    assert before["score"].tolist() == after["score"].tolist()


def test_build_merges_at_commit(tmp_path_factory, monkeypatch):
    """A build whose plan has more segments than merge.MAX_SEGMENTS
    leaves at most that many visible segments, with results bitwise-equal
    to the same build under a bound above its segment count; the merge
    time is in phase_secs and the returned stats equal stats.json."""
    from elasticsearch_data_loader_ray.index import merge
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    src = tmp_path_factory.mktemp("mc_src")
    pq.write_table(fixtures.generate_webtext(600), str(src / "p.parquet"))
    cfg = BuildConfig(docs_per_segment=50)
    plain = str(tmp_path_factory.mktemp("mc_plain"))
    stats_plain = build_index(str(src), plain, cfg)
    assert 3 < stats_plain["n_segments"] <= merge.MAX_SEGMENTS
    assert "compact" not in stats_plain["phase_secs"]

    monkeypatch.setattr(merge, "MAX_SEGMENTS", 3)
    merged = str(tmp_path_factory.mktemp("mc_merged"))
    stats = build_index(str(src), merged, cfg)
    seg_ids = LocalSearcher(merged).seg_ids
    assert len(seg_ids) <= 3
    assert stats["n_segments"] == len(seg_ids)
    assert "compact" in stats["phase_secs"]
    assert stats == mf.read_json(os.path.join(merged, "stats.json"))

    queries = fixtures.generate_queries()
    want = search_inprocess(plain, queries).to_pandas()
    got = search_inprocess(merged, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()
    for q in ("the data", "w0042"):
        ids_w, sc_w = LocalSearcher(plain).search(q, k=10, mode="and")
        ids_g, sc_g = LocalSearcher(merged).search(q, k=10, mode="and")
        assert ids_g.tolist() == ids_w.tolist()
        assert sc_g.tolist() == sc_w.tolist()
