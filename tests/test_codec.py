"""Round-trip and property tests for the posting-list codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elasticsearch_data_loader_ray.index import codec


def test_varint_roundtrip_simple():
    vals = np.array([0, 1, 127, 128, 300, 2**21, 2**35, 2**63], dtype=np.uint64)
    buf, lens = codec.varint_encode(vals)
    assert lens.tolist() == [1, 1, 1, 2, 2, 4, 6, 10]
    out = codec.varint_decode(buf, len(vals))
    assert out.tolist() == vals.tolist()


def test_varint_empty():
    buf, lens = codec.varint_encode(np.empty(0, dtype=np.uint64))
    assert len(buf) == 0
    assert len(codec.varint_decode(buf)) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63), max_size=200))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    buf, _ = codec.varint_encode(vals)
    assert codec.varint_decode(buf).tolist() == xs


def test_delta_runs():
    ids = np.array([5, 9, 20, 3, 4, 100], dtype=np.uint64)
    starts = np.array([0, 3])
    gaps = codec.delta_encode_runs(ids, starts)
    assert gaps.tolist() == [5, 4, 11, 3, 1, 96]
    assert codec.delta_decode(gaps[:3]).tolist() == [5, 9, 20]
    assert codec.delta_decode(gaps[3:]).tolist() == [3, 4, 100]


def _brute_posting_table(terms, doc_ids, tfs, dls, avgdl):
    """Scalar-Python reference for build_posting_table."""
    from collections import defaultdict

    per_term = defaultdict(list)
    for t, d, f, dl in zip(terms, doc_ids, tfs, dls):
        per_term[t].append((d, f, dl))
    out = {}
    for t, posts in per_term.items():
        posts.sort()
        ids = [p[0] for p in posts]
        fs = [p[1] for p in posts]
        imp = [
            f * (codec.BM25_K1 + 1) / (f + codec.BM25_K1 * (1 - codec.BM25_B + codec.BM25_B * dl / avgdl))
            for _, f, dl in posts
        ]
        blocks_last, blocks_max = [], []
        for i in range(0, len(posts), codec.BLOCK_SIZE):
            blocks_last.append(max(ids[i : i + codec.BLOCK_SIZE]))
            blocks_max.append(max(imp[i : i + codec.BLOCK_SIZE]))
        out[t] = (ids, fs, blocks_last, blocks_max, max(imp))
    return out


def test_build_posting_table_matches_brute():
    rng = np.random.default_rng(7)
    n_docs, n_posts = 50, 600
    terms = rng.choice(np.array(["the", "cat", "hat", "zebra", "q"], dtype=object), n_posts)
    doc_ids = rng.choice(n_docs, n_posts, replace=True).astype(np.int64)
    # dedupe (term, doc) pairs: keep first
    _, first = np.unique(np.char.add(terms.astype(str), doc_ids.astype(str)), return_index=True)
    terms, doc_ids = terms[first], doc_ids[first]
    tfs = rng.integers(1, 9, len(terms)).astype(np.int64)
    dls = (doc_ids % 17 + 5).astype(np.int64)
    avgdl = 11.3

    order = np.lexsort((doc_ids, terms.astype(str)))
    table = codec.build_posting_table(
        terms[order], doc_ids[order], tfs[order], dls[order], avgdl
    )
    brute = _brute_posting_table(terms, doc_ids, tfs, dls, avgdl)
    assert sorted(table["term"].tolist()) == sorted(brute)
    blast, bmax = codec.block_lists(table)
    for i, t in enumerate(table["term"]):
        ids, fs = codec.decode_postings(
            table["doc_ids_enc"][i], table["tfs_enc"][i], int(table["df"][i])
        )
        b_ids, b_fs, b_last, b_max, b_term_max = brute[t]
        assert ids.tolist() == b_ids
        assert fs.tolist() == b_fs
        assert blast[i] == b_last
        assert bmax[i] == pytest.approx(b_max)
        assert table["max_impact"][i] == pytest.approx(b_term_max)


def test_block_boundaries_multi_block():
    # one term with 300 postings -> 3 blocks of 128/128/44
    n = 300
    terms = np.array(["t"] * n, dtype=object)
    ids = np.arange(0, 2 * n, 2, dtype=np.int64)
    tfs = np.ones(n, dtype=np.int64)
    dls = np.full(n, 10, dtype=np.int64)
    table = codec.build_posting_table(terms, ids, tfs, dls, 10.0)
    assert table["df"].tolist() == [n]
    blast, _ = codec.block_lists(table)
    assert len(blast[0]) == 3
    assert blast[0] == [2 * 127, 2 * 255, 2 * 299]
    out_ids, _ = codec.decode_postings(table["doc_ids_enc"][0], table["tfs_enc"][0], n)
    assert out_ids.tolist() == ids.tolist()


def test_blocked_run_lazy_decode():
    """A term's block directory over three runs (segments of disjoint
    ascending doc ranges, read in another order) decodes only the blocks
    asked for, across run boundaries, and the whole term equals the
    reference decode of every run, in one buffer that the runs view."""
    from elasticsearch_data_loader_ray.index.search import _term_dirs

    runs = []  # (ids, tfs, encoded table, block meta) per segment
    for base, n in ((9000, 300), (0, 700), (5000, 130)):
        ids = np.arange(base + 3, base + 3 + 5 * n, 5, dtype=np.int64)
        tfs = (np.arange(n) % 7 + 1).astype(np.int64)
        table = codec.build_posting_table(
            np.array(["t"] * n, dtype=object), ids, tfs,
            np.full(n, 10, dtype=np.int64), 10.0)
        last = np.asarray(table["block_last_flat"], np.int64)
        meta = np.stack([
            last, table["block_doc_off_flat"], table["block_tf_off_flat"],
            table["block_max_flat"].view(np.int64), np.r_[base, last[:-1] + 1],
        ]).astype(np.int64)
        runs.append((ids, tfs, table, meta))

    def directory():
        nbs = [m.shape[1] for _i, _t, _tb, m in runs]
        return _term_dirs(
            ["t"] * 3, [len(i) for i, *_r in runs],
            [tb["doc_ids_enc"][0] for _i, _t, tb, _m in runs],
            [tb["tfs_enc"][0] for _i, _t, tb, _m in runs],
            np.r_[0, np.cumsum(nbs)],
            np.concatenate([m for *_r, m in runs], axis=1))["t"]

    want_ids = np.concatenate([runs[j][0] for j in (1, 2, 0)])
    want_tfs = np.concatenate([runs[j][1] for j in (1, 2, 0)])
    # postings per block: 128 per block, each run's last one short
    sizes = [min(codec.BLOCK_SIZE, n - s) for n in (700, 130, 300)
             for s in range(0, n, codec.BLOCK_SIZE)]
    edges = np.r_[0, np.cumsum(sizes)]
    d = directory()
    assert [r.n_blocks for r in d.runs] == [6, 2, 3]
    assert d.n_blocks == len(sizes) == 11
    assert d.block_last.tolist() == want_ids[edges[1:] - 1].tolist()
    assert (np.diff(d.block_lo) > 0).all()  # sorted over every run
    # every block decodes to the right slice
    for b in range(d.n_blocks):
        got_ids, got_tfs = d.get(np.array([b]))
        assert got_ids.tolist() == want_ids[edges[b]:edges[b + 1]].tolist()
        assert got_tfs.tolist() == want_tfs[edges[b]:edges[b + 1]].tolist()
    # a one-block read of a later run's first block decodes that block
    # only; a read across a run boundary returns both runs' postings
    d2 = directory()
    got_ids, _ = d2.get(np.array([6]))
    assert got_ids.tolist() == want_ids[edges[6]:edges[7]].tolist()
    assert d2.blocks_decoded == 1
    got_ids, got_tfs = d2.get(np.array([5, 6, 7]))
    assert got_ids.tolist() == want_ids[edges[5]:edges[8]].tolist()
    assert got_tfs.tolist() == want_tfs[edges[5]:edges[8]].tolist()
    assert d2.blocks_decoded == 3
    # the whole term equals the reference decode, read out as is once
    # whole; each run's postings are views of the one buffer
    for dd in (d, d2, directory()):
        w_ids, w_tfs = dd.whole()
        assert w_ids.tolist() == want_ids.tolist()
        assert w_tfs.tolist() == want_tfs.tolist()
        assert dd.blocks_decoded == dd.n_blocks
        assert dd.whole()[0] is w_ids
        for r, j in zip(dd.runs, (1, 2, 0)):
            assert np.shares_memory(r.ids, w_ids)
            assert np.shares_memory(r.tfs, w_tfs)
            ref = codec.decode_postings(runs[j][2]["doc_ids_enc"][0],
                                        runs[j][2]["tfs_enc"][0], r.df)
            assert r.ids.tolist() == ref[0].tolist()
            assert r.tfs.tolist() == ref[1].tolist()


def test_bm25_idf():
    assert codec.bm25_idf(1, 2) == pytest.approx(np.log(1 + 1.5 / 1.5))
    assert float(codec.bm25_idf(10, 10)) == pytest.approx(np.log(1 + 0.5 / 10.5))
