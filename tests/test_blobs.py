"""Postings blob sidecar (index/blobs.py): the Lucene terms-dict/.doc
layout — encoded postings in a consolidated per-segment binary, byte-range
columns in the terms parquet. These tests pin (a) split/materialize
round-trip fidelity, (b) that builds write the sidecar layout, (c)
ranged-read coalescing correctness, and (d) fd-cache revalidation. Search
over the layout is checked against brute force by the phrase and e2e
oracle tests."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray.functions.analyzers import token_count_batch
from elasticsearch_data_loader_ray.index import blobs
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig, build_index_from_corpus, seg_terms_path)


def _corpus(n_docs: int, phrase_every: int = 7) -> pa.Table:
    texts = [
        (f"alpha beta gamma d{i % 13} " if i % phrase_every == 0 else "")
        + f"w{i % 97} common filler{i % 31} body row {i % 5}"
        for i in range(n_docs)
    ]
    return pa.table({
        "url": pa.array([f"{i:012d}" for i in range(n_docs)], pa.string()),
        "warc_ts": pa.array([0] * n_docs, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n_docs, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })


def _build(tmp_path, name: str, corpus: pa.Table) -> str:
    out = str(tmp_path / name)
    build_index_from_corpus(rd.from_arrow(corpus), out,
                            BuildConfig(docs_per_segment=500))
    return out


def _reference_blob(terms: pa.Table) -> tuple[bytes, list[int]]:
    """The sidecar layout written one term at a time: ``doc | tf | pos? |
    block_last | block_max | bdoc | btf`` per row, a null position stream
    contributing no bytes. Returns (blob, row start offsets)."""
    rows = terms.to_pylist()
    parts, offs, at = [], [], 0
    for r in rows:
        row = r["doc_ids_enc"] + r["tfs_enc"] + (r.get("positions_enc") or b"")
        for c, dt in zip(blobs.BLOCK_COLUMNS, blobs._BLOCK_DTYPES):
            if c in r:
                row += np.asarray(r[c], dtype=dt).tobytes()
        offs.append(at)
        at += len(row)
        parts.append(row)
    return b"".join(parts), offs


def _logical_terms(rng, n: int, with_pos: bool = True,
                   with_blocks: bool = True) -> pa.Table:
    doc = [rng.bytes(int(rng.integers(1, 400))) for _ in range(n)]
    tf = [rng.bytes(int(rng.integers(1, 200))) for _ in range(n)]
    cols = {
        "field": pa.array(["text"] * n),
        "term": pa.array([f"t{i:04d}" for i in range(n)]),
        "df": pa.array([1] * n, pa.int64()),
        "doc_ids_enc": pa.array(doc, pa.binary()),
        "tfs_enc": pa.array(tf, pa.binary()),
    }
    if with_pos:
        cols["positions_enc"] = pa.array(
            [None if i % 5 == 0 else rng.bytes(int(rng.integers(0, 300)))
             for i in range(n)], pa.binary())
    if with_blocks:
        nb = rng.integers(1, 4, n)
        for c, typ in zip(blobs.BLOCK_COLUMNS, (pa.int64(), pa.float64(),
                                                 pa.int64(), pa.int64())):
            cols[c] = pa.array(
                [(rng.random(k) * 1e6).astype(
                    np.float64 if typ == pa.float64() else np.int64).tolist()
                 for k in nb], pa.list_(typ))
    cols["segment_id"] = pa.array([3] * n, pa.int32())
    return pa.table(cols)


def test_split_materialize_roundtrip():
    """split_for_write gives the reference loop's blob and ranges, and
    materialize_enc reads every column back: with and without positions
    (null streams included) and block lists, and for an empty table."""
    rng = np.random.default_rng(7)
    for n, with_pos, with_blocks in ((50, True, True), (50, True, False),
                                     (50, False, True), (0, True, True)):
        t = _logical_terms(rng, n, with_pos, with_blocks)
        # several chunks, one of them an offset slice: split reads views
        t = pa.concat_tables([t.slice(0, n // 3), t.slice(n // 3)])
        phys, blob = blobs.split_for_write(t)
        assert not any(c in phys.column_names for c in blobs.ENC_COLUMNS)
        assert not any(c in phys.column_names for c in blobs.BLOCK_COLUMNS)
        assert all(c in phys.column_names for c in blobs.RANGE_COLUMNS[:3])
        ref_blob, ref_offs = _reference_blob(t)
        assert bytes(blob) == ref_blob
        assert phys["blob_off"].to_pylist() == ref_offs
        rows = t.to_pylist()
        assert phys["doc_nbytes"].to_pylist() == [len(r["doc_ids_enc"])
                                                  for r in rows]
        if with_pos:
            assert phys["pos_nbytes"].to_pylist() == [
                -1 if r["positions_enc"] is None else len(r["positions_enc"])
                for r in rows]
        if with_blocks:
            assert phys["blk_n"].to_pylist() == [len(r["block_last_doc"])
                                                 for r in rows]

        # stage the blob where materialize_enc will look for it
        with tempfile.TemporaryDirectory() as d:
            terms_path = os.path.join(d, "part-0.parquet")
            with open(blobs.blob_path(terms_path), "wb") as f:
                f.write(blob)
            # subset in scrambled order exercises the unsorted-ranges path
            idx = [i for i in (41, 3, 17, 0, 49, 25, 5) if i < n]
            out = blobs.materialize_enc(phys.take(pa.array(idx, pa.int64())),
                                        lambda _s: terms_path,
                                        want_positions=True,
                                        want_blocks=True)
            want = t.take(pa.array(idx, pa.int64()))
            for c in [*blobs.ENC_COLUMNS, *blobs.BLOCK_COLUMNS]:
                if c in t.column_names:
                    assert out[c].to_pylist() == want[c].to_pylist(), c


def test_read_ranges_coalescing(tmp_path):
    rng = np.random.default_rng(11)
    payload = rng.bytes(1 << 20)
    p = str(tmp_path / "blob.bin")
    with open(p, "wb") as f:
        f.write(payload)
    # adjacent, gapped-under-threshold, gapped-over-threshold, duplicate,
    # and out-of-order ranges
    starts = np.array([0, 100, 100, 5000, 900_000, 65, 0], dtype=np.int64)
    ends = np.array([100, 165, 165, 5600, 1 << 20, 100, 50], dtype=np.int64)
    got = blobs._read_ranges(p, starts, ends)
    for g, s, e in zip(got, starts, ends):
        assert g == payload[s:e]
    # whole-file fast path: spans covering most of the file
    starts2 = np.array([0], dtype=np.int64)
    ends2 = np.array([len(payload)], dtype=np.int64)
    assert blobs._read_ranges(p, starts2, ends2)[0] == payload


def test_sidecar_layout_written(tmp_path):
    idx_s = _build(tmp_path, "side", _corpus(800))
    seg = sorted(mf.committed_segments(idx_s))[0]
    schema_s = pq.read_schema(seg_terms_path(idx_s, seg))
    assert all(c in schema_s.names for c in blobs.RANGE_COLUMNS[:3])
    assert not any(c in schema_s.names for c in blobs.ENC_COLUMNS)
    assert os.path.exists(blobs.blob_path(seg_terms_path(idx_s, seg)))


def test_fd_cache_detects_inode_change(tmp_path):
    """An in-place rebuild reusing a segment path replaces the inode; the
    fd cache must not keep serving the deleted old file's bytes."""
    p = str(tmp_path / "seg.bin")
    with open(p, "wb") as f:
        f.write(b"OLD_BYTES_" * 10)
    starts = np.array([0], dtype=np.int64)
    ends = np.array([9], dtype=np.int64)
    assert blobs._read_ranges(p, starts, ends)[0] == b"OLD_BYTES"
    # replace via tmp+rename (new inode), the build's atomic publish rule
    q = str(tmp_path / "seg.bin.tmp")
    with open(q, "wb") as f:
        f.write(b"NEW_BYTES_" * 10)
    os.replace(q, p)
    assert blobs._read_ranges(p, starts, ends)[0] == b"NEW_BYTES"
