"""Postings blob sidecar — byte-range reads for cold term lookups.

The reference delegates posting storage to Lucene, whose terms dictionary
points at byte ranges in a separate ``.doc`` postings file. This module is
that layout for the Ray engine: each segment's big encoded-postings byte
columns (``doc_ids_enc`` / ``tfs_enc`` / ``positions_enc``) move out of the
terms parquet into one consolidated sidecar binary
(``terms/segment=K/postings-0.bin``); the parquet keeps only the small
dictionary columns plus ``(blob_off, doc_nbytes, tf_nbytes, pos_nbytes)``
byte ranges, laid out ROW-MAJOR (``doc | tf | pos`` contiguous per term) so
one ranged read per term fetches everything a scorer needs.

Why: parquet predicate pushdown prunes ROW GROUPS, but a surviving row
group materializes its whole projected column chunk — a 2-term cold query
against a 10k-row group decompressed megabytes of other terms' postings
(measured ~0.7 ms/file x segments of pure overhead at 4M docs). With the
sidecar, the dictionary read touches only small columns and the postings
cost is exactly the bytes asked for, served by ``os.pread`` (or one
whole-file read when the request covers most of it). On an object store
this maps to ranged GETs — the layout a 100-TB index needs.

This is the only terms layout: builds, appends and merges all write it, and
every reader materializes postings from the sidecar (``materialize_enc``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BLOB_NAME = "postings-0.bin"
ENC_COLUMNS = ("doc_ids_enc", "tfs_enc", "positions_enc")
RANGE_COLUMNS = ("blob_off", "doc_nbytes", "tf_nbytes", "pos_nbytes")
# per-term block metadata (block-max skipping): variable-length numeric
# lists, moved into the blob as raw little-endian arrays so the terms
# parquet stays pure fixed-width (a filtered dictionary read materializes
# whole row groups — with these lists inline that measured 3x the scalar
# read cost at 4M docs). blk_n in the parquet gives each list's length;
# each array occupies 8*blk_n bytes, in this order after the postings.
BLOCK_COLUMNS = ("block_last_doc", "block_max_impact",
                 "block_doc_byte_off", "block_tf_byte_off")
_BLOCK_DTYPES = (np.int64, np.float64, np.int64, np.int64)
# coalesce ranged reads whose gap is under this many bytes: one pread of a
# slightly larger span beats two seeks (and two object-store GETs)
COALESCE_GAP = 1 << 16


def blob_path(terms_parquet_path: str) -> str:
    return os.path.join(os.path.dirname(terms_parquet_path), BLOB_NAME)


def has_positions(schema: pa.Schema) -> bool:
    """True when the index records positions."""
    return "pos_nbytes" in schema.names


def _list_views(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) numpy views of a list column (one combined
    chunk). values dtype follows the column's element type."""
    arr = col.combine_chunks()
    offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = arr.values.to_numpy(zero_copy_only=False)
    return offs, vals


def _list_bytes(col: pa.ChunkedArray, dtype) -> pa.Array:
    """A list column's per-row values as raw little-endian bytes: one
    ``large_binary`` view whose data buffer is the values (cast to
    ``dtype``) and whose offsets are the list offsets in bytes."""
    offs, vals = _list_views(col)
    vals = np.ascontiguousarray(vals.astype(dtype, copy=False))
    return pa.Array.from_buffers(
        pa.large_binary(), len(offs) - 1,
        [None, pa.py_buffer(offs * vals.itemsize), pa.py_buffer(vals)])


def _large(col: pa.ChunkedArray) -> pa.Array:
    return col.combine_chunks().cast(pa.large_binary())


def split_for_write(terms: pa.Table) -> tuple[pa.Table, pa.Buffer]:
    """Logical terms table (with enc + block-list columns) -> (physical
    fixed-width dict table with byte-range columns, sidecar blob).

    Per-term row payload, contiguous:
    ``doc | tf | pos? | block_last(8n) | block_max(8n) | bdoc(8n) | btf(8n)``
    so one ranged read serves scoring (prefix) and a second tiny read (or
    the same coalesced one) serves block-max metadata. The blob is one
    ``binary_join_element_wise`` over ``large_binary`` views of those
    columns, row-major; a null ``positions_enc`` joins as ``b""`` and
    records ``pos_nbytes = -1``."""
    pieces = [_large(terms["doc_ids_enc"]), _large(terms["tfs_enc"])]
    doc_n, tf_n = (pc.binary_length(p).to_numpy() for p in pieces)
    with_pos = "positions_enc" in terms.column_names
    if with_pos:
        pos = _large(terms["positions_enc"])
        pos_n = pc.binary_length(pos).fill_null(-1).to_numpy()
        pieces.append(pos.fill_null(b""))
    with_blocks = all(c in terms.column_names for c in BLOCK_COLUMNS)
    if with_blocks:
        blk = [_list_bytes(terms[c], dt)
               for c, dt in zip(BLOCK_COLUMNS, _BLOCK_DTYPES)]
        blk_n = pc.binary_length(blk[0]).to_numpy() // 8
        pieces += blk
    joined = pc.binary_join_element_wise(
        *pieces, pa.scalar(b"", pa.large_binary()))
    _valid, offs_buf, data = joined.buffers()
    row_offs = np.frombuffer(offs_buf, np.int64)[
        joined.offset:joined.offset + len(joined) + 1]
    blob = (data.slice(int(row_offs[0]), int(row_offs[-1] - row_offs[0]))
            if data is not None else pa.py_buffer(b""))
    drop = [c for c in ENC_COLUMNS if c in terms.column_names]
    if with_blocks:
        drop += list(BLOCK_COLUMNS)
    phys = terms.drop_columns(drop)
    phys = phys.append_column(
        "blob_off", pa.array(row_offs[:-1] - row_offs[0], pa.int64()))
    phys = phys.append_column("doc_nbytes", pa.array(doc_n, pa.int64()))
    phys = phys.append_column("tf_nbytes", pa.array(tf_n, pa.int64()))
    if with_pos:
        phys = phys.append_column("pos_nbytes", pa.array(pos_n, pa.int64()))
    if with_blocks:
        phys = phys.append_column(
            "blk_n", pa.array(blk_n.astype(np.int32), pa.int32()))
    return phys, blob


class _FdCache:
    """Tiny keep-open fd cache for sidecar files. POSIX semantics make a
    cached fd safe across merges (the old file stays readable until the fd
    closes; new segments live at new paths). Rebuilds that REUSE a segment
    path (build --wipe into the same index_dir, crash-resume overwriting an
    uncommitted segment dir) replace the inode, so each hit revalidates with
    one stat and reopens when the inode changed — a long-lived searcher must
    never serve stale postings through a deleted file's fd."""

    def __init__(self, cap: int = 128):
        self.cap = cap
        self._fds: dict[str, tuple[int, int]] = {}  # path -> (fd, st_ino)

    def get(self, path: str) -> int:
        hit = self._fds.get(path)
        if hit is not None:
            fd, ino = hit
            try:
                if os.stat(path).st_ino == ino:
                    return fd
            except OSError:
                pass
            os.close(self._fds.pop(path)[0])
        fd = os.open(path, os.O_RDONLY)
        while len(self._fds) >= self.cap:  # FIFO eviction
            os.close(self._fds.pop(next(iter(self._fds)))[0])
        self._fds[path] = (fd, os.fstat(fd).st_ino)
        return fd


_FDS = _FdCache()


def _read_ranges(path: str, starts: np.ndarray,
                 ends: np.ndarray) -> list[bytes]:
    """Fetch [start, end) byte ranges (any order) from ``path``.

    Ranges are sorted and coalesced (gap < COALESCE_GAP) into few preads;
    when the coalesced spans cover most of the file, one whole-file read
    wins (the merge/compaction access pattern)."""
    k = len(starts)
    if k == 0:
        return []
    order = np.argsort(starts, kind="stable")
    s_s, e_s = starts[order], ends[order]
    # coalesced spans
    brk = np.r_[True, s_s[1:] > (np.maximum.accumulate(e_s)[:-1] + COALESCE_GAP)]
    span_ids = np.cumsum(brk) - 1
    span_starts = s_s[brk]
    span_ends = np.maximum.reduceat(e_s, np.flatnonzero(brk))
    fd = _FDS.get(path)
    total_span = int((span_ends - span_starts).sum())
    fsize = os.fstat(fd).st_size
    if total_span >= fsize // 2:
        whole = os.pread(fd, fsize, 0)
        out_sorted = [whole[int(s):int(e)] for s, e in zip(s_s, e_s)]
    else:
        bufs = [os.pread(fd, int(e - s), int(s))
                for s, e in zip(span_starts, span_ends)]
        out_sorted = []
        for i in range(k):
            sp = int(span_ids[i])
            rel = int(s_s[i] - span_starts[sp])
            out_sorted.append(bufs[sp][rel:rel + int(e_s[i] - s_s[i])])
    out: list[bytes] = [b""] * k
    for j, i in enumerate(order):
        out[int(i)] = out_sorted[j]
    return out


def materialize_enc(tbl: pa.Table, path_of_segment,
                    want_positions: bool = False,
                    want_blocks: bool = False) -> pa.Table:
    """Append ``doc_ids_enc`` / ``tfs_enc`` (and ``positions_enc``,
    ``block_*``) columns to a dictionary table by ranged sidecar reads.

    ``tbl`` must carry ``segment_id``, ``blob_off``, ``doc_nbytes`` and
    ``tf_nbytes`` (plus ``pos_nbytes`` for positions and ``blk_n`` for
    blocks); ``path_of_segment(seg_id) -> terms parquet path`` locates each
    blob. Scoring bytes (doc|tf|pos prefix) and block metadata (fixed 32
    bytes x blk_n tail) fetch as separate ranges so an OR query on a
    positioned index doesn't read the (large) positions stream; the reader
    coalesces them when the gap is small."""
    n = tbl.num_rows
    segs = tbl["segment_id"].to_numpy()
    offs = tbl["blob_off"].to_numpy()
    doc_n = tbl["doc_nbytes"].to_numpy()
    tf_n = tbl["tf_nbytes"].to_numpy()
    has_pos = "pos_nbytes" in tbl.column_names
    want_positions = want_positions and has_pos
    pos_n = (tbl["pos_nbytes"].to_numpy() if has_pos
             else np.zeros(n, dtype=np.int64))
    want_blocks = want_blocks and "blk_n" in tbl.column_names
    blk_n = (tbl["blk_n"].to_numpy().astype(np.int64) if want_blocks
             else np.zeros(n, dtype=np.int64))
    # main range: the doc|tf(|pos) prefix the scorer needs
    main_ends = offs + doc_n + tf_n + (np.maximum(pos_n, 0)
                                       if want_positions else 0)
    # block range: the fixed-width metadata tail
    blk_starts = offs + doc_n + tf_n + np.maximum(pos_n, 0)
    blk_ends = blk_starts + 32 * blk_n
    doc_encs: list[bytes | None] = [None] * n
    tf_encs: list[bytes | None] = [None] * n
    pos_encs: list[bytes | None] = [None] * n
    blk_bufs: list[bytes] = [b""] * n
    for sid in np.unique(segs):
        rows = np.flatnonzero(segs == sid)
        path = blob_path(path_of_segment(int(sid)))
        starts = offs[rows]
        ends = main_ends[rows]
        if want_blocks:
            starts = np.concatenate([starts, blk_starts[rows]])
            ends = np.concatenate([ends, blk_ends[rows]])
        chunks = _read_ranges(path, starts, ends)
        for j, r in enumerate(rows):
            buf = chunks[j]
            dn, tn = int(doc_n[r]), int(tf_n[r])
            doc_encs[r] = buf[:dn]
            tf_encs[r] = buf[dn:dn + tn]
            if want_positions:
                pn = int(pos_n[r])
                pos_encs[r] = buf[dn + tn:dn + tn + pn] if pn >= 0 else None
            if want_blocks:
                blk_bufs[r] = chunks[len(rows) + j]
    out = tbl.append_column("doc_ids_enc", pa.array(doc_encs, pa.binary()))
    out = out.append_column("tfs_enc", pa.array(tf_encs, pa.binary()))
    if want_positions:
        out = out.append_column("positions_enc",
                                pa.array(pos_encs, pa.binary()))
    if want_blocks:
        list_offs = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(blk_n, out=list_offs[1:])
        for ci, (cname, dt) in enumerate(zip(BLOCK_COLUMNS, _BLOCK_DTYPES)):
            vals = np.frombuffer(
                b"".join(buf[ci * 8 * int(k):(ci + 1) * 8 * int(k)]
                         for buf, k in zip(blk_bufs, blk_n)), dtype=dt)
            out = out.append_column(cname, pa.ListArray.from_arrays(
                pa.array(list_offs, pa.int32()), pa.array(vals)))
    return out
