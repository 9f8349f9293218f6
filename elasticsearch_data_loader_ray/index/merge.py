"""Segment merge / compaction (the Lucene-merge analogue).

Segments hold contiguous, disjoint doc-id ranges in url order, and every
posting list stores its first doc id absolute + the rest as gaps. Merging
two ADJACENT segments therefore never re-encodes posting bodies: for a term
in both, the merged stream is ``enc_A ++ reencode_first(enc_B)`` where only
B's first varint is rewritten from absolute to a gap from A's last doc id —
O(1) bytes touched per term. Block-max metadata concatenates (a short
boundary block keeps valid bounds); df adds; max_impact maxes.

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
import pyarrow.parquet as pq
import ray

from . import codec
from . import manifest as mf
from .build import (BuildConfig, _write_segment_files, pin_worker_threads,
                    read_segment_terms, seg_docs_path, seg_terms_path)
from .search import _load_stats, _visible_seg_ids

#: the one segment-count bound: a commit (build or append) that leaves more
#: visible segments merges down to it. It served cold and warm OR queries
#: faster than bounds of 32 and 64 (97k docs) and than the removed
#: term-dictionary sidecar (97k and 1M docs): ROADMAP, Direction 8.
MAX_SEGMENTS = 16


def _reencode_first(enc: bytes, prev_last: int) -> tuple[bytes, int]:
    """Rewrite the leading absolute-doc varint as a gap from prev_last.

    Returns (new_bytes, length_delta) — the delta shifts this part's
    stored block byte offsets when rebasing them into the merged stream.
    """
    v, L = 0, 0
    while True:  # decode only the first varint (<=10 bytes)
        byte = enc[L]
        v |= (byte & 0x7F) << (7 * L)
        L += 1
        if not byte & 0x80:
            break
    gap_bytes, _ = codec.varint_encode(np.array([v - prev_last], dtype=np.uint64))
    gb = gap_bytes.tobytes()
    return gb + enc[L:], len(gb) - L


def _merge_term_tables(parts: list[pa.Table]) -> pa.Table:
    """Merge per-segment term tables (each sorted by field, term).

    Vectorized: numpy run detection over the stably-sorted concatenation,
    zero-copy binary slices from the Arrow buffers; the only per-row work is
    the boundary re-encode of non-first runs' first varints.
    """
    allt = pa.concat_tables(parts).combine_chunks()
    has_positions = "positions_enc" in allt.column_names
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

    def bin_col(name: str) -> list:
        col = allt[name].combine_chunks()
        return col.to_pylist()  # zero-copy bytes objects

    doc_encs = bin_col("doc_ids_enc")
    tf_encs = bin_col("tfs_enc")
    pos_encs = bin_col("positions_enc") if has_positions else None
    dfs = allt["df"].to_numpy()
    mxs = allt["max_impact"].to_numpy()
    blast_col = allt["block_last_doc"].combine_chunks()
    bmax_col = allt["block_max_impact"].combine_chunks()
    bdoc_col = allt["block_doc_byte_off"].combine_chunks()
    btf_col = allt["block_tf_byte_off"].combine_chunks()
    blast_flat = np.asarray(blast_col.values)
    bmax_flat = np.asarray(bmax_col.values)
    bdoc_flat = np.asarray(bdoc_col.values)
    btf_flat = np.asarray(btf_col.values)
    bl_off = np.asarray(blast_col.offsets)
    # last doc id of each input row's posting list (for boundary re-encode)
    row_last = blast_flat[bl_off[1:] - 1]

    out_rows = len(run_starts)
    o_field, o_term = f_s[run_starts], t_s[run_starts]
    o_df = np.zeros(out_rows, dtype=np.int64)
    o_mx = np.zeros(out_rows, dtype=np.float64)
    o_doc, o_tf, o_pos = [], [], []
    o_blast, o_bmax, o_bdoc, o_btf = [], [], [], []
    for r, (s, e) in enumerate(zip(run_starts, run_ends)):
        idxs = order[s:e]
        o_df[r] = dfs[idxs].sum()
        o_mx[r] = mxs[idxs].max()
        if e - s == 1:
            i = int(idxs[0])
            o_doc.append(doc_encs[i])
            o_tf.append(tf_encs[i])
            if has_positions:
                o_pos.append(pos_encs[i])
            o_blast.append(blast_flat[bl_off[i]:bl_off[i + 1]].tolist())
            o_bmax.append(bmax_flat[bl_off[i]:bl_off[i + 1]].tolist())
            o_bdoc.append(bdoc_flat[bl_off[i]:bl_off[i + 1]].tolist())
            o_btf.append(btf_flat[bl_off[i]:bl_off[i + 1]].tolist())
            continue
        i0 = int(idxs[0])
        doc_parts = [doc_encs[i0]]
        tf_parts = [tf_encs[i0]]
        pos_parts = ([pos_encs[i0]] if has_positions and
                     pos_encs[i0] is not None else [])
        bl = [blast_flat[bl_off[i0]:bl_off[i0 + 1]]]
        bm = [bmax_flat[bl_off[i0]:bl_off[i0 + 1]]]
        bd = [bdoc_flat[bl_off[i0]:bl_off[i0 + 1]]]
        bt = [btf_flat[bl_off[i0]:bl_off[i0 + 1]]]
        prev_last = int(row_last[i0])
        doc_prefix = len(doc_encs[i0])
        tf_prefix = len(tf_encs[i0])
        for i in (int(x) for x in idxs[1:]):
            new_enc, delta = _reencode_first(doc_encs[i], prev_last)
            doc_parts.append(new_enc)
            tf_parts.append(tf_encs[i])
            if has_positions and pos_encs[i] is not None:
                pos_parts.append(pos_encs[i])
            bl.append(blast_flat[bl_off[i]:bl_off[i + 1]])
            bm.append(bmax_flat[bl_off[i]:bl_off[i + 1]])
            # rebase this part's block byte offsets into the merged stream:
            # +prefix, and +delta for blocks after the rewritten first varint
            part_bdoc = bdoc_flat[bl_off[i]:bl_off[i + 1]].copy()
            part_bdoc[0] = 0
            part_bdoc[1:] += delta
            bd.append(part_bdoc + doc_prefix)
            bt.append(btf_flat[bl_off[i]:bl_off[i + 1]] + tf_prefix)
            prev_last = int(row_last[i])
            doc_prefix += len(new_enc)
            tf_prefix += len(tf_encs[i])
        o_doc.append(b"".join(doc_parts))
        o_tf.append(b"".join(tf_parts))
        if has_positions:
            # all-null runs stay null (fields indexed without positions keep
            # raising the positional queries' guard instead of matching
            # nothing on an empty stream)
            o_pos.append(b"".join(pos_parts) if pos_parts else None)
        o_blast.append(np.concatenate(bl).tolist())
        o_bmax.append(np.concatenate(bm).tolist())
        o_bdoc.append(np.concatenate(bd).tolist())
        o_btf.append(np.concatenate(bt).tolist())

    cols = {
        "field": pa.array(o_field, pa.string()),
        "term": pa.array(o_term, pa.string()),
        "df": pa.array(o_df, pa.int64()),
        "doc_ids_enc": pa.array(o_doc, pa.binary()),
        "tfs_enc": pa.array(o_tf, pa.binary()),
        "block_last_doc": pa.array(o_blast, pa.list_(pa.int64())),
        "block_max_impact": pa.array(o_bmax, pa.list_(pa.float64())),
        "block_doc_byte_off": pa.array(o_bdoc, pa.list_(pa.int64())),
        "block_tf_byte_off": pa.array(o_btf, pa.list_(pa.int64())),
        "max_impact": pa.array(o_mx, pa.float64()),
    }
    if has_positions:
        cols["positions_enc"] = pa.array(o_pos, pa.binary())
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
    from .pruned import drop_pruned

    drop_pruned(index_dir)  # stale epoch; rebuilt on demand, not eagerly
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
