"""Segment merge / compaction (the Lucene-merge analogue).

Segments hold contiguous, disjoint doc-id ranges in url order, and every
posting list stores its first doc id absolute + the rest as gaps. Merging
two ADJACENT segments therefore never re-encodes posting bodies: for a term
in both, the merged stream is ``enc_A ++ enc_B`` with only B's first varint
rewritten from absolute to a gap from A's last doc id — O(1) bytes touched
per term, and one vectorized pass for all of them. Block-max metadata
concatenates (a short boundary block keeps valid bounds); df adds;
max_impact maxes.

``merge_segments(index_dir, group_size)`` compacts runs of adjacent
visible segments, publishing each merged segment atomically (files first,
then a combined manifest replacing the inputs' manifests) and refreshing
``stats.json``. Search is oblivious: it discovers segments from manifests.

The merge policy is one bound, :data:`MAX_SEGMENTS`, held by the writer
(the Lucene TieredMergePolicy shape: writers merge, readers never do).
Build and append call :func:`merge_at_commit` after their commit, which
runs :func:`compact_to` whenever the commit left more visible segments
than the bound. A searcher bound before the merge rebinds on its next
query (the merge rewrites ``stats.json``).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from . import codec
from . import manifest as mf
from .build import (BuildConfig, _write_segment_files, pin_worker_threads,
                    read_segment_terms, seg_docs_path, seg_terms_path)
from .search import _load_stats, _ranges, _visible_seg_ids

#: the one segment-count bound: a commit (build or append) that leaves more
#: visible segments merges down to it. It served cold and warm OR queries
#: faster than bounds of 32 and 64 (97k docs) and than the removed
#: term-dictionary sidecar (97k and 1M docs): ROADMAP, Direction 8.
MAX_SEGMENTS = 16


def _taken(col: pa.ChunkedArray, order: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A binary column's rows in ``order`` as one contiguous stream (Arrow
    ``take``; a null row holds no bytes): (row offsets from 0, uint8 data,
    validity)."""
    arr = col.combine_chunks().cast(pa.large_binary()).take(pa.array(order))
    _valid, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int64)[arr.offset:arr.offset + len(arr) + 1]
    data = (np.frombuffer(data, np.uint8)[offs[0]:offs[-1]]
            if data is not None else np.zeros(0, np.uint8))
    return offs - offs[0], data, arr.is_valid().to_numpy(zero_copy_only=False)


def _list_column(values: np.ndarray, counts: np.ndarray) -> pa.Array:
    offs = np.zeros(len(counts) + 1, np.int32)
    np.cumsum(counts, out=offs[1:])
    return pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                    pa.array(values))


def _merge_term_tables(parts: list[pa.Table]) -> pa.Table:
    """Merge per-segment term tables (each sorted by field, term).

    Vectorized: numpy run detection over the stably-sorted concatenation
    (a run is one term's rows, in segment order), then every output column
    is one take or gather in that order. A run's rows after its first
    (the boundary rows) start with an absolute doc id: their leading
    varints are decoded in one :func:`codec.varint_decode` call and
    rewritten, with one :func:`codec.varint_encode` call, as gaps from the
    previous row's last doc id; their block doc-byte offsets shift by the
    length change.
    """
    allt = pa.concat_tables(parts).combine_chunks()
    n = allt.num_rows
    fields = np.asarray(allt["field"].to_numpy(zero_copy_only=False), dtype=object)
    terms = np.asarray(allt["term"].to_numpy(zero_copy_only=False), dtype=object)
    # lexsort is stable and handles object arrays directly (no fixed-width
    # str copies); ties keep concat order == segment order
    order = np.lexsort((terms, fields))
    f_s, t_s = fields[order], terms[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (f_s[1:] != f_s[:-1]) | (t_s[1:] != t_s[:-1])
    run_starts = np.flatnonzero(first)
    run_ends = np.r_[run_starts[1:], n]
    run_of = np.cumsum(first) - 1  # each sorted row's run
    bnd = np.flatnonzero(~first)  # sorted positions of boundary rows

    # block lists, gathered in sorted order
    blast_col = allt["block_last_doc"].combine_chunks()
    bl_off = np.asarray(blast_col.offsets, dtype=np.int64)
    bl_off = bl_off - bl_off[0]

    def flat(name: str) -> np.ndarray:  # every block list has bl_off
        return np.asarray(allt[name].combine_chunks().flatten())

    blast_flat = flat("block_last_doc")
    n_blk = np.diff(bl_off)[order]
    gidx = _ranges(bl_off[:-1][order], bl_off[1:][order])
    row_last = blast_flat[bl_off[1:] - 1][order]  # last doc id per row

    # doc-id streams: each boundary row's leading varint becomes a gap
    d_off, d_data, _ = _taken(allt["doc_ids_enc"], order)
    b_lo = d_off[bnd]
    win = d_data[np.minimum(b_lo[:, None] + np.arange(10), len(d_data) - 1)]
    v_len = np.argmax(win < 0x80, axis=1) + 1  # first byte w/o continuation
    lead = _ranges(b_lo, b_lo + v_len)
    first_ids = codec.varint_decode(d_data[lead], len(bnd)).astype(np.int64)
    gap_bytes, gap_len = codec.varint_encode(first_ids - row_last[bnd - 1])
    keep = np.ones(len(d_data), bool)
    keep[lead] = False
    doc_stream = np.insert(  # each gap where its varint was
        d_data[keep], np.repeat(b_lo - np.cumsum(v_len) + v_len, gap_len),
        gap_bytes)
    delta = np.zeros(n, np.int64)
    delta[bnd] = gap_len - v_len
    doc_off = np.r_[0, np.cumsum(np.diff(d_off) + delta)]
    doc_pre = doc_off[:-1] - doc_off[run_starts][run_of]  # offset in run

    t_off, t_data, _ = _taken(allt["tfs_enc"], order)
    tf_pre = t_off[:-1] - t_off[run_starts][run_of]

    # block doc-byte offsets: +the row's prefix in its run, and +delta
    # after a rewritten first varint (a boundary row's block 0 starts at 0)
    row_of_blk = np.repeat(np.arange(n), n_blk)
    bdoc = flat("block_doc_byte_off")[gidx]
    blk0 = np.cumsum(n_blk) - n_blk
    bdoc = bdoc + delta[row_of_blk]
    bdoc[blk0[bnd]] = 0
    bdoc += doc_pre[row_of_blk]
    btf = flat("block_tf_byte_off")[gidx] + tf_pre[row_of_blk]
    blk_counts = np.add.reduceat(n_blk, run_starts)

    cols = {
        "field": pa.array(f_s[run_starts], pa.string()),
        "term": pa.array(t_s[run_starts], pa.string()),
        "df": pa.array(np.add.reduceat(
            allt["df"].to_numpy()[order], run_starts), pa.int64()),
        "doc_ids_enc": codec.byte_runs(doc_stream, doc_off[run_ends]),
        "tfs_enc": codec.byte_runs(t_data, t_off[run_ends]),
        "block_last_doc": _list_column(blast_flat[gidx], blk_counts),
        "block_max_impact": _list_column(flat("block_max_impact")[gidx],
                                         blk_counts),
        "block_doc_byte_off": _list_column(bdoc, blk_counts),
        "block_tf_byte_off": _list_column(btf, blk_counts),
        "max_impact": pa.array(np.maximum.reduceat(
            allt["max_impact"].to_numpy()[order], run_starts), pa.float64()),
    }
    if "positions_enc" in allt.column_names:
        # all-null runs stay null (fields indexed without positions keep
        # raising the positional queries' guard instead of matching
        # nothing on an empty stream)
        q_off, q_data, q_valid = _taken(allt["positions_enc"], order)
        runs = codec.byte_runs(q_data, q_off[run_ends])
        valid = np.logical_or.reduceat(q_valid, run_starts)
        cols["positions_enc"] = pc.if_else(
            pa.array(valid), runs, pa.scalar(None, pa.large_binary()))
    return pa.table(cols)


@ray.remote
def _merge_run(index_dir: str, run: list[int], new_id: int,
               manifests: dict[int, dict], cfg: BuildConfig) -> int:
    """Task: merge one run of adjacent segments into ``new_id``.

    Publishes under the FRESH id: the old segments stay intact and live
    until the combined manifest (the atomic commit point) lands; absorbed
    manifests/files removal afterwards is cleanup that may lag a crash."""
    pin_worker_threads()
    t0 = time.perf_counter()
    term_parts = [read_segment_terms(index_dir, s) for s in run]
    doc_parts = [pq.read_table(seg_docs_path(index_dir, s)) for s in run]
    merged_terms = _merge_term_tables(term_parts)
    merged_docs = pa.concat_tables(doc_parts).combine_chunks()
    _write_segment_files(index_dir, new_id, merged_terms, merged_docs,
                         cfg.index_block_rows)
    secs = time.perf_counter() - t0
    absorbed_buckets = sorted({
        b for s in run
        for b in (manifests[s].get("absorbed_buckets", [])
                  or ([s] if s < mf.MERGED_ID_BASE else []))
    })
    enc_avgdls = [m_ for s in run
                  if (m_ := manifests[s].get("encode_avgdl")) is not None]
    combined = {
        # min over inputs: the CONSERVATIVE bound base — searchers scale
        # stored block-max bounds by avgdl_now/encode_avgdl after appends
        **({"encode_avgdl": float(min(enc_avgdls))} if enc_avgdls else {}),
        "n_input_rows": sum(manifests[s]["n_input_rows"] for s in run),
        "n_docs": sum(manifests[s]["n_docs"] for s in run),
        "n_duplicates": sum(manifests[s]["n_duplicates"] for s in run),
        "n_terms": merged_terms.num_rows,
        "n_postings": sum(manifests[s]["n_postings"] for s in run),
        "field_dl_sums": {
            k: sum(manifests[s].get("field_dl_sums", {}).get(k, 0)
                   for s in run)
            for k in manifests[run[0]].get("field_dl_sums", {})
        },
        "doc_id_base": manifests[run[0]]["doc_id_base"],
        "url_checksum": "+".join(manifests[s]["url_checksum"] for s in run),
        "build_secs": round(secs, 4),
        "docs_per_sec": None,
        "absorbed": list(run),
        "absorbed_buckets": absorbed_buckets,
    }
    mf.write_manifest(index_dir, new_id, combined)  # <- commit point
    import shutil

    for s in run:
        p = mf.manifest_path(index_dir, s)
        if os.path.exists(p):
            os.unlink(p)
        for q in (seg_terms_path(index_dir, s), seg_docs_path(index_dir, s)):
            d = os.path.dirname(q)
            if os.path.isdir(d):
                shutil.rmtree(d)
    return new_id


def merge_segments(index_dir: str, group_size: int = 2,
                   cfg: BuildConfig | None = None) -> list[int]:
    """Compact adjacent visible segments in runs of ``group_size``.

    Returns the surviving segment ids. Doc ids are untouched (ranges stay
    contiguous); term_stats and global stats are unaffected except
    ``n_segments``/``per_segment`` (visible segments only) which are
    refreshed in stats.json.
    """
    cfg = cfg or BuildConfig()
    # VISIBLE segments only: a crashed append can leave committed-but-
    # invisible segments (doc range beyond stats.n_docs, swept lazily by
    # append_index). Merging one of those with a visible segment would push
    # the merged doc_id_base + n_docs past the visibility point and hide
    # previously-visible docs — input files are deleted after the merge
    # commit, so the loss would be permanent.
    _ids, manifests = _visible_seg_ids(index_dir, _load_stats(index_dir))
    # id allocation must see EVERY committed manifest — including those
    # invisible orphans — or a fresh merge id can collide with an orphan
    # and overwrite its files while append's orphan sweep races to rmtree
    # the same dir
    all_committed_ids = set(mf.committed_segments(index_dir))
    # adjacency is by DOC RANGE, not id: merged segments get fresh ids, so
    # sorted ids need not follow doc order after partial merges
    seg_ids = sorted(manifests, key=lambda s: manifests[s]["doc_id_base"])
    next_id = max([mf.MERGED_ID_BASE - 1, *all_committed_ids]) + 1
    survivors: list[int] = []
    t_all = time.perf_counter()
    # runs are disjoint segment sets with pre-assigned fresh ids, so they
    # merge as INDEPENDENT Ray tasks (each run's manifest write is its own
    # atomic commit point; a crash leaves some runs merged and some not —
    # the next merge_segments call simply picks up the survivors). The
    # serial driver loop took 159 s for 500 -> 62 segments at 4M docs.
    tasks = []
    for i in range(0, len(seg_ids), group_size):
        run = seg_ids[i:i + group_size]
        if len(run) == 1:
            survivors.append(run[0])
            continue
        new_id = next_id
        next_id += 1
        tasks.append(_merge_run.remote(
            index_dir, run, new_id, {s: manifests[s] for s in run}, cfg))
    survivors.extend(ray.get(tasks))
    stats = _load_stats(index_dir)
    _ids, vis = _visible_seg_ids(index_dir, stats)
    stats["n_segments"] = len(vis)
    stats["per_segment"] = {
        str(k): {"n_docs": m["n_docs"], "build_secs": m["build_secs"],
                 "docs_per_sec": m.get("docs_per_sec")}
        for k, m in sorted(vis.items())
    }
    stats.setdefault("merges", []).append(
        {"group_size": group_size, "secs": round(time.perf_counter() - t_all, 3)})
    mf.write_json_atomic(os.path.join(index_dir, "stats.json"), stats)
    return survivors


def compact_to(index_dir: str, max_segments: int,
               cfg: BuildConfig | None = None) -> list[int]:
    """Merge adjacent runs of visible segments until at most
    ``max_segments`` remain; returns the survivors. One pass: the run
    length is ``ceil(visible / max_segments)``, so every segment is
    rewritten (no size tiers). :func:`merge_at_commit` calls it with
    :data:`MAX_SEGMENTS`; a smaller bound can be asked for by hand (CLI
    ``compact --max-segments``)."""
    survivors, _vis = _visible_seg_ids(index_dir, _load_stats(index_dir))
    while len(survivors) > max_segments:
        group = math.ceil(len(survivors) / max_segments)
        survivors = merge_segments(index_dir, group_size=group, cfg=cfg)
    return survivors


def merge_at_commit(index_dir: str, stats: dict, cfg: BuildConfig) -> dict:
    """The merge policy, run by the writer right after a commit whose
    stats.json content is ``stats``: when more than :data:`MAX_SEGMENTS`
    segments are visible, :func:`compact_to` merges them down to it and
    its seconds land in ``phase_secs["compact"]``. Returns the committed
    stats.json content."""
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if len(seg_ids) <= MAX_SEGMENTS:
        return stats
    t0 = time.perf_counter()
    compact_to(index_dir, MAX_SEGMENTS, cfg)
    stats = _load_stats(index_dir)
    stats.setdefault("phase_secs", {})["compact"] = round(
        time.perf_counter() - t0, 3)
    mf.write_json_atomic(os.path.join(index_dir, "stats.json"), stats)
    return stats
