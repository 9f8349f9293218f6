"""Posting-list codec: delta-gap + LEB128 varint, block-max metadata.

The reference delegates posting-list storage to ElasticSearch/Lucene
(``/root/reference/config/search_scheme.json`` declares the fields; Lucene
compresses postings). This engine owns that layer: doc_ids are delta-gap
encoded then LEB128-varint packed; term frequencies are varint packed; every
posting list carries block-max metadata (per BLOCK_SIZE postings: last doc_id
and the max BM25 tf/dl impact) for block-max WAND / MaxScore pruning at query
time.

Everything here is numpy-vectorized: the encoder loops over *byte positions*
(<= 10) and the segment builder loops over nothing — per-term slicing is done
with offset arithmetic so one call encodes an entire segment's postings.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128
BM25_K1 = 1.2
BM25_B = 0.75


# --- varint (LEB128) ------------------------------------------------------

def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Bytes each value needs under LEB128 (1..10 for uint64).

    One comparison over the full array; the (usually tiny) multi-byte
    subset iterates further — values < 128 are the overwhelming common
    case for tf streams and dense gap lists."""
    v = values.astype(np.uint64, copy=False)
    lens = np.ones(len(v), dtype=np.int64)
    big = np.flatnonzero(v >= np.uint64(128))
    k = 1
    while len(big):
        lens[big] += 1
        k += 1
        if k >= 10:  # uint64 ceiling: 7*10 bits covers all values
            break
        big = big[v[big] >= np.uint64(1) << np.uint64(7 * k)]
    return lens


def varint_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode uint values -> (bytes: uint8 array, per-value byte lengths).

    Vectorized: byte 0 of every value is ONE scatter; bytes 1+ iterate
    only over the (rare) multi-byte subset. All-1-byte streams return the
    cast directly."""
    v = values.astype(np.uint64, copy=False)
    lens = varint_byte_lengths(v)
    if len(v) == 0:
        return np.zeros(0, dtype=np.uint8), lens
    if int(lens.max()) == 1:  # pure 1-byte stream: bytes ARE the values
        return v.astype(np.uint8), lens
    ends = np.cumsum(lens)
    starts = ends - lens
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    multi = lens > 1
    out[starts] = ((v & np.uint64(0x7F)).astype(np.uint8)
                   | (multi.astype(np.uint8) << 7))
    rest = np.flatnonzero(multi)
    j = 1
    while len(rest):
        chunk = ((v[rest] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = ((lens[rest] - 1 > j).astype(np.uint8)) << 7
        out[starts[rest] + j] = chunk | cont
        j += 1
        rest = rest[lens[rest] > j]
    return out, lens


def varint_decode(buf: np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a uint8 LEB128 stream -> uint64 values (vectorized).

    Fast path: a stream with no continuation bits (every value < 128 — the
    common case for dense head-term gap lists) IS the value array. General
    path uses buffered np.add.reduceat over per-value byte groups.
    """
    b = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, bytearray)) else buf
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    cont = b & np.uint8(0x80)
    if not cont.any():
        vals = b.astype(np.uint64)
        if count is not None:
            assert len(vals) == count, (len(vals), count)
        return vals
    # mostly-1-byte path: first bytes give every value's low 7 bits; only
    # values with continuation bytes (typically a handful per run — e.g.
    # the absolute first doc id of a gap list) loop, vectorized over the
    # shrinking multi-byte set. O(n + n_multi * maxlen) with no
    # searchsorted/reduceat over the whole stream.
    ends = np.flatnonzero(cont == 0)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    vals = b[starts].astype(np.uint64) & np.uint64(0x7F)
    rest = np.flatnonzero(lens > 1)
    j = 1
    while len(rest):
        vals[rest] |= ((b[starts[rest] + j].astype(np.uint64)
                        & np.uint64(0x7F)) << np.uint64(7 * j))
        j += 1
        rest = rest[lens[rest] > j]
    if count is not None:
        assert len(vals) == count, (len(vals), count)
    return vals


# --- delta-gap ------------------------------------------------------------

def delta_encode_runs(sorted_ids: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """Delta-gap encode concatenated ascending runs.

    ``sorted_ids`` is the concatenation of per-term ascending doc_id lists;
    ``run_starts`` marks each run's first index. Within a run the first value
    is stored absolute and the rest as gaps (id[i] - id[i-1]).
    """
    gaps = np.empty_like(sorted_ids)
    if len(sorted_ids) == 0:
        return gaps
    gaps[0] = sorted_ids[0]
    gaps[1:] = sorted_ids[1:] - sorted_ids[:-1]
    gaps[run_starts] = sorted_ids[run_starts]
    return gaps


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    """Inverse of a single-run delta encode: cumulative sum."""
    return np.cumsum(gaps.astype(np.int64, copy=False))


def delta_decode_runs(gaps: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode_runs`: per-run cumulative sums,
    vectorized via one global cumsum minus each run's prefix."""
    n = len(gaps)
    if n == 0:
        return np.empty(0, np.int64)
    c = np.cumsum(gaps.astype(np.int64, copy=False))
    prev = np.r_[0, c[run_starts[1:] - 1]] if len(run_starts) > 1 else np.array([0])
    counts = np.diff(np.r_[run_starts, n])
    return c - np.repeat(prev, counts)


# --- BM25 impact ----------------------------------------------------------

def bm25_tf_impact(tf: np.ndarray, dl: np.ndarray, avgdl: float | None,
                   k1: float = BM25_K1, b: float = BM25_B) -> np.ndarray:
    """Per-posting BM25 term factor  tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)).

    Multiplied by idf(term) this is the posting's score contribution; the
    per-block max of it is the block-max bound used for pruning.

    ``avgdl=None`` gives the avgdl-free UPPER BOUND (the dl/avgdl -> 0
    limit) — used when encoding fields whose global avgdl is not yet known;
    always >= the true impact, so pruning stays correct.
    """
    tf = tf.astype(np.float64, copy=False)
    if avgdl is None:
        return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b))
    dl = dl.astype(np.float64, copy=False)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / float(avgdl)))


def bm25_idf(df: np.ndarray | int, n_docs: int) -> np.ndarray | float:
    """ES/Lucene BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    df_f = np.asarray(df, dtype=np.float64)
    return np.log(1.0 + (n_docs - df_f + 0.5) / (df_f + 0.5))


# --- segment posting-table builder ---------------------------------------

def byte_runs(stream: np.ndarray, ends: np.ndarray) -> pa.Array:
    """Consecutive byte runs of one contiguous uint8 ``stream`` (run ``i``
    ends at ``ends[i]``, the first starts at 0) as one ``large_binary``
    array: the stream is its data buffer and the ends its offsets, so no
    per-run ``bytes`` object is made."""
    offsets = np.zeros(len(ends) + 1, dtype=np.int64)
    offsets[1:] = ends
    return pa.Array.from_buffers(
        pa.large_binary(), len(ends),
        [None, pa.py_buffer(offsets), pa.py_buffer(stream)])


class ByteRuns(Sequence):
    """One term's encoded bytes per item. ``arrow`` is the
    :func:`byte_runs` array the segment build consumes; indexing yields a
    term's ``bytes`` (tests and probes)."""

    def __init__(self, stream: np.ndarray, ends: np.ndarray):
        self.arrow = byte_runs(stream, ends)

    def __len__(self) -> int:
        return len(self.arrow)

    def __getitem__(self, i: int) -> bytes:
        return self.arrow[i].as_py()


def build_posting_table(
    terms_sorted: np.ndarray,
    doc_ids_sorted: np.ndarray,
    tfs_sorted: np.ndarray,
    dls_sorted: np.ndarray,
    avgdl: float,
) -> dict[str, np.ndarray | list]:
    """Build an entire segment's encoded posting table in one vectorized pass.

    Inputs are the segment's postings lex-sorted by (term, doc_id):
    ``terms_sorted`` (object/str array), parallel ``doc_ids_sorted`` (int64),
    ``tfs_sorted`` (int), ``dls_sorted`` (doc length of each posting's doc).

    Returns columns for the segment's term table:
      term, df, doc_ids_enc / tfs_enc (:class:`ByteRuns`, one term each),
      block_last_doc (list<int64>), block_max_impact (list<float64>),
      max_impact (float64 per term).
    """
    n = len(terms_sorted)
    if n == 0:
        return {
            "term": np.empty(0, object), "df": np.empty(0, np.int64),
            "doc_ids_enc": ByteRuns(np.zeros(0, np.uint8), []),
            "tfs_enc": ByteRuns(np.zeros(0, np.uint8), []),
            "block_last_flat": np.empty(0, np.int64),
            "block_max_flat": np.empty(0, np.float64),
            "block_doc_off_flat": np.empty(0, np.int64),
            "block_tf_off_flat": np.empty(0, np.int64),
            "block_offsets": np.zeros(1, np.int64),
            "max_impact": np.empty(0, np.float64),
        }
    # term run boundaries over the sorted term column
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = terms_sorted[1:] != terms_sorted[:-1]
    run_starts = np.flatnonzero(change)
    run_ends = np.r_[run_starts[1:], n]
    dfs = run_ends - run_starts
    uniq_terms = terms_sorted[run_starts]

    # delta + varint over the whole concatenated stream; per-term byte runs
    gaps = delta_encode_runs(doc_ids_sorted.astype(np.uint64, copy=False), run_starts)
    id_bytes, id_lens = varint_encode(gaps)
    tf_bytes, tf_lens = varint_encode(tfs_sorted.astype(np.uint64, copy=False))
    id_byte_ends = np.cumsum(id_lens)
    tf_byte_ends = np.cumsum(tf_lens)

    # block-max metadata per term, BLOCK_SIZE postings per block; the flat
    # block index is non-decreasing over the (term, doc)-sorted stream, so
    # buffered reduceat reductions apply (ufunc.at would be 10-100x slower)
    impact = bm25_tf_impact(tfs_sorted, dls_sorted, avgdl)
    posting_pos = np.arange(n, dtype=np.int64) - np.repeat(run_starts, dfs)
    block_of_posting = posting_pos // BLOCK_SIZE
    n_blocks = (dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_base = np.r_[0, np.cumsum(n_blocks)[:-1]]
    flat_block = block_base[np.repeat(np.arange(len(dfs)), dfs)] + block_of_posting
    blk_starts = np.flatnonzero(np.r_[True, flat_block[1:] != flat_block[:-1]])
    blk_max = np.maximum.reduceat(impact, blk_starts)
    # doc ids ascend within a block: the last element is the block max
    blk_last = doc_ids_sorted[np.r_[blk_starts[1:] - 1, n - 1]].astype(np.int64)
    term_max = np.maximum.reduceat(blk_max, block_base)

    # per-block byte offsets RELATIVE to each term's slice start, for both
    # streams — enables lazy per-block decode (block-max WAND skipping)
    id_byte_starts = np.r_[0, id_byte_ends[:-1]]
    tf_byte_starts = np.r_[0, tf_byte_ends[:-1]]
    term_of_block = np.repeat(np.arange(len(dfs)), n_blocks)
    term_id_base = np.r_[0, id_byte_ends[run_ends - 1][:-1]]
    term_tf_base = np.r_[0, tf_byte_ends[run_ends - 1][:-1]]
    blk_doc_off = (id_byte_starts[blk_starts]
                   - term_id_base[term_of_block]).astype(np.int64)
    blk_tf_off = (tf_byte_starts[blk_starts]
                  - term_tf_base[term_of_block]).astype(np.int64)

    # flat block arrays + per-term offsets (zero-copy Arrow ListArray later)
    block_offsets = np.r_[0, np.cumsum(n_blocks)]

    return {
        "term": uniq_terms,
        "df": dfs.astype(np.int64),
        "doc_ids_enc": ByteRuns(id_bytes, id_byte_ends[run_ends - 1]),
        "tfs_enc": ByteRuns(tf_bytes, tf_byte_ends[run_ends - 1]),
        "block_last_flat": blk_last,
        "block_max_flat": blk_max,
        "block_doc_off_flat": blk_doc_off,
        "block_tf_off_flat": blk_tf_off,
        "block_offsets": block_offsets,
        "max_impact": term_max,
    }


def block_lists(table: dict) -> tuple[list[list[int]], list[list[float]]]:
    """Per-term block metadata as Python lists (test/debug convenience)."""
    offs = table["block_offsets"]
    last = [table["block_last_flat"][int(s):int(e)].tolist()
            for s, e in zip(offs[:-1], offs[1:])]
    mx = [table["block_max_flat"][int(s):int(e)].tolist()
          for s, e in zip(offs[:-1], offs[1:])]
    return last, mx


def decode_postings(doc_ids_enc: bytes, tfs_enc: bytes, df: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode one term's postings -> (doc_ids int64 ascending, tfs int64)."""
    gaps = varint_decode(np.frombuffer(doc_ids_enc, dtype=np.uint8), df)
    tfs = varint_decode(np.frombuffer(tfs_enc, dtype=np.uint8), df)
    return delta_decode(gaps), tfs.astype(np.int64)
