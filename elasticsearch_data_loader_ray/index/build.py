"""Index build pipeline — Ray-Data-native, one resumable exchange.

Replaces the reference's load path (Mongo cursor -> enrich -> transform ->
ES ``_bulk``, reference ``companybindex/main.go:105-279``) plus the
index construction ES performs from ``config/search_scheme.json``. Shape:

  bounds:   url-range segment boundaries from a seeded row sample of the
            input: row counts from parquet footers or block metadata, only
            the sampled rows' urls read, no Ray Data job (placement only
            affects segment membership, never doc ids).
  exchange: ONE streaming pass over the extracted source (``_run_exchange``,
            also the append path), blocks sized to the CPUs: one task per
            block writes its corpus parquet part and partitions it into
            per-bucket-group slices; a count wave over
            (url, warc_ts, doc_len) minis gives exact post-dedup per-segment
            doc counts -> prefix-sum doc-id offsets + global avgdl ->
            plan.json; a build wave runs one vectorized segment build per
            bucket: dedup-by-url (D1), dense doc_id = offset + rank,
            tokenize, tf, encode postings (delta+varint+block-max), atomic
            segment write + lineage manifest.
  finalize: global term stats (term -> df) for BM25 idf; stats.json.
  merge:    a commit that leaves more than ``merge.MAX_SEGMENTS`` visible
            segments merges adjacent runs down to that bound
            (``merge.merge_at_commit``, also run by append).

Skew design: the shuffle key is the url-range bucket — uniform by
construction — so Zipf-head terms never concentrate on one worker; a head
term simply appears in every segment (the ES 3-shard analogue,
``search_scheme.json:4-5``). Doc ids are global-rank-of-url: invariant to
boundary placement, parallelism and retries (SURVEY.md §7 hard part (a)).

Resumability: ``plan.json`` freezes boundaries and doc-id offsets; each
segment commits one manifest (atomic tmp+rename) and a resumed build ships
no rows for committed buckets; ``corpus/_SUCCESS`` lets a resume read the
committed corpus instead of re-extracting; ``stats.json`` is the last commit.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import shutil
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..functions.analyzers import standard_tokenize_batch
from ..stages.extract import count_rejects, extract_batch
from . import blobs, codec, manifest as mf


def seg_terms_path(index_dir: str, seg_id: int) -> str:
    return os.path.join(index_dir, "terms", f"segment={seg_id:06d}", "part-0.parquet")


def seg_docs_path(index_dir: str, seg_id: int) -> str:
    return os.path.join(index_dir, "docs", f"segment={seg_id:06d}", "part-0.parquet")


@dataclass
class BuildConfig:
    # None -> auto: n_docs / (2 * num_cpus), clamped to [4_000, 200_000] so
    # segments outnumber workers (parallel build wave) but one segment's text
    # still fits a worker's heap at web scale.
    docs_per_segment: int | None = None
    extract_batch_size: int = 1024
    boundary_sample_per_segment: int = 200
    seed: int = 42
    # parquet row-group size for term tables: term lookups read whole row
    # groups (min/max pruning over the term-sorted file), so smaller groups
    # => less read amplification per query term
    index_block_rows: int = 1024
    # extra indexed fields beyond the main ("text", standard-analyzer) one:
    # (field_name, source_column, analyzer_name) — the ES multi-field
    # analogue (search_scheme.json:140-198); analyzer_name from
    # functions.analyzers.ANALYZERS
    fields: tuple = ()
    # index token positions for the main text field (enables phrase
    # queries; ES index_options=positions default on text fields —
    # 'docs'-only variants per search_scheme.json:167-170 are the default
    # here for compactness)
    index_positions: bool = False
    # quarantine html payloads larger than this to errors/oversize_payload
    # instead of extracting them (web-scale poison guard); None = unlimited
    max_doc_bytes: int | None = None
    # D1 create-conflict parity: the reference treats a duplicate _id as
    # FATAL (companybindex/main.go:216-222 aborts the load on a bulk item
    # create conflict). Default off — the engine's default semantics
    # (keep-first dedup + counted duplicates in manifests/stats) are
    # strictly more useful for web crawls; True fails the build with
    # example urls before any segment is committed.
    strict_duplicates: bool = False


class DuplicateUrlError(ValueError):
    """Raised by strict_duplicates builds when the input has >1 row per url
    (the reference's bulk-create-conflict fatal, main.go:216-222)."""

    def __init__(self, n_duplicates: int, examples: list[str]):
        self.n_duplicates = n_duplicates
        self.examples = examples
        super().__init__(
            f"{n_duplicates} duplicate url(s) in input "
            f"(strict_duplicates=True); examples: {examples[:5]}")


def _ncpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def pin_worker_threads() -> None:
    """Cap pyarrow's internal thread pool to this task's CPU share.

    Arrow sizes its pool once, when it is first used: from
    OMP_NUM_THREADS if set (pyarrow 16.1 reports ``pa.cpu_count()`` 1
    under ``OMP_NUM_THREADS=1``), else from the hardware concurrency (4 on
    a 4-CPU host). A pool sized before Ray set the worker's
    OMP_NUM_THREADS, or resized by other code, keeps its size, and N
    workers x N arrow threads thrashes the node (measured 10-17x slowdown
    in segment builds). This re-applies the task's share explicitly.
    Call at the top of every arrow-heavy worker function; idempotent.
    """
    want = max(1, int(os.environ.get("OMP_NUM_THREADS", "1")))
    if pa.cpu_count() != want:
        pa.set_cpu_count(want)


# --- source + boundaries ---------------------------------------------------

def _clear_errors_dir(errors_dir: str) -> None:
    """Remove a previous attempt's reject side-writes before a fresh
    extract pass. Retries ENOTEMPTY/EBUSY: a concurrent process building
    into the same index dir (two bench runs sharing a scratch path, or a
    straggler task from a killed build) can land a side-write file between
    rmtree's scan and rmdir. Cleanup must not kill the build — after the
    retries, leftover files only over-count rejects, so warn and proceed."""
    for _ in range(3):
        try:
            shutil.rmtree(errors_dir)
            return
        except FileNotFoundError:
            return
        except OSError:
            time.sleep(0.2)
    shutil.rmtree(errors_dir, ignore_errors=True)
    if os.path.exists(errors_dir):
        logging.warning("could not clear %s; reject counts may include a "
                        "previous attempt's side-writes", errors_dir)


def _source_blocks(n_rows: int) -> int:
    """Blocks an exchange source is read in: 2 per CPU, and more when rows
    demand it (~125k docs / ~300MB of text per block) so one block + its
    partition copy stays a small fraction of a worker heap. Every block
    costs one partition task (with its corpus part) and one slice per
    bucket group, so there is no floor beyond the CPUs."""
    return max(2 * _ncpus(), math.ceil(n_rows / 125_000))


def _extract_source(input_path: str, errors_dir: str, n_est: int,
                    cfg: BuildConfig) -> rd.Dataset:
    """Streaming read -> extract of raw webtext (rejects side-write into
    ``errors_dir``), read in :func:`_source_blocks` blocks. Stateless
    tasks, not an actor pool: a pool sized to the node starves the read
    operator of CPU slots."""
    return rd.read_parquet(
        input_path, override_num_blocks=_source_blocks(n_est)
    ).map_batches(
        extract_batch,
        fn_kwargs={"errors_dir": errors_dir,
                   "max_doc_bytes": cfg.max_doc_bytes},
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )


def _docs_per_segment(cfg: BuildConfig, n_est: int) -> int:
    if cfg.docs_per_segment:
        return cfg.docs_per_segment
    # ~2 segments per CPU for parallelism; >=4000 docs so per-segment fixed
    # costs (parquet writes, manifest) stay a small fraction; <=200k so one
    # segment's text fits a worker heap at web scale
    return int(min(200_000, max(4_000, math.ceil(n_est / (2 * _ncpus())))))


def _file_urls(path: str, rows: np.ndarray) -> list[str]:
    """The ``url`` values at ascending row numbers ``rows`` of one parquet
    file; only the row groups holding those rows are read."""
    pf = pq.ParquetFile(path)
    rg_rows = np.array([pf.metadata.row_group(i).num_rows
                        for i in range(pf.num_row_groups)], dtype=np.int64)
    rg_start = np.r_[0, np.cumsum(rg_rows)]
    rg_of = np.searchsorted(rg_start, rows, side="right") - 1
    rgs = np.unique(rg_of)
    # where each read row group starts inside the concatenated read
    read_start = np.r_[0, np.cumsum(rg_rows[rgs])]
    pos = read_start[np.searchsorted(rgs, rg_of)] + rows - rg_start[rg_of]
    col = pf.read_row_groups(rgs.tolist(), columns=["url"])["url"]
    return col.take(pa.array(pos)).to_pylist()


@ray.remote
def _block_urls(block, rows: np.ndarray) -> list[str]:
    """The ``url`` values at row numbers ``rows`` of one Dataset block,
    read where the block lives."""
    from ray.data.block import BlockAccessor

    pin_worker_threads()
    col = BlockAccessor.for_block(block).to_arrow()["url"]
    return col.take(pa.array(rows)).to_pylist()


def _read_file_urls(picks: list[tuple[str, np.ndarray]]) -> list[list[str]]:
    """Sampled urls of parquet files, read on the driver: a url column
    reads in milliseconds, where the first Ray task of a fresh cluster
    waits ~0.5 s for a worker to import the package."""
    return [_file_urls(path, rows) for path, rows in picks]


def _read_block_urls(picks: list[tuple]) -> list[list[str]]:
    """Sampled urls of Dataset blocks, one Ray task per block."""
    return ray.get([_block_urls.remote(ref, rows) for ref, rows in picks])


def _parquet_sources(path: str) -> list[tuple[str, int]]:
    """(file, footer row count) of every parquet file under ``path``, in
    path order; no data page is read."""
    import pyarrow.dataset as pads

    files = sorted(pads.dataset(path, format="parquet").files)
    return [(f, pq.read_metadata(f).num_rows) for f in files]


def _block_sources(ds: rd.Dataset) -> list[tuple]:
    """(block ref, row count) of a materialized Dataset, from its block
    metadata; nothing executes."""
    return [(ref, meta.num_rows) for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks]


def _segment_boundaries(sources: list[tuple], read_urls,
                        cfg: BuildConfig) -> tuple[list[str], int]:
    """(S-1 range cut points, row count) from seeded-sample url quantiles.

    ``sources`` are (source, row count) pairs: parquet files
    (:func:`_parquet_sources`, read by :func:`_read_file_urls`) or Dataset
    blocks (:func:`_block_sources`, read by :func:`_read_block_urls`);
    ``read_urls`` maps (source, row numbers) picks to their urls. The
    sample is a seeded choice of row numbers over the whole input, uniform
    over rows (sampling whole row groups would put every cut of a
    url-sorted file in one range); only those rows' urls are read. Boundary placement
    affects only segment membership, never doc ids (global url rank)."""
    sizes = np.array([n for _s, n in sources], dtype=np.int64)
    n_rows = int(sizes.sum())
    n_segments = max(1, math.ceil(n_rows / _docs_per_segment(cfg, n_rows)))
    if n_segments == 1:
        return [], n_rows
    want = min(n_rows, n_segments * cfg.boundary_sample_per_segment)
    rows = np.sort(np.random.default_rng(cfg.seed).choice(
        n_rows, size=want, replace=False))
    starts = np.r_[0, np.cumsum(sizes)]
    src_of = np.searchsorted(starts, rows, side="right") - 1
    picks = [(sources[i][0], rows[src_of == i] - starts[i])
             for i in np.unique(src_of)]
    urls = sorted(u for part in read_urls(picks) for u in part)
    cuts = [urls[k * want // n_segments] for k in range(1, n_segments)]
    return sorted(set(cuts)), n_rows


def _bucket_of(urls: np.ndarray, boundaries: list[str]) -> np.ndarray:
    if not boundaries:
        return np.zeros(len(urls), dtype=np.int32)
    return np.searchsorted(np.array(boundaries, dtype=object), urls,
                           side="right").astype(np.int32)


# --- segment build --------------------------------------------------------

def doc_idx_positions(doc_idx: np.ndarray) -> np.ndarray:
    """Within-doc token positions from an ascending doc-index stream."""
    n = len(doc_idx)
    if n == 0:
        return np.empty(0, np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = doc_idx[1:] != doc_idx[:-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(np.r_[starts, n])
    return np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)


def _write_segment_files(index_dir: str, seg_id: int, terms: pa.Table,
                         docs: pa.Table, row_group_size: int) -> None:
    """Atomic segment publish: write each table into a tmp dir and rename.

    Layout is hive-partitioned per table (``terms/segment=K/``,
    ``docs/segment=K/``) so a whole-index read is ONE threaded
    pyarrow/Ray read with partition+predicate pushdown. The manifest written
    after both renames is the commit point (crash between renames leaves an
    uncommitted dir that the next build overwrites).

    Terms layout: the encoded-postings byte columns and block lists split
    into a consolidated sidecar binary (``postings-0.bin``) with byte-range
    columns in the parquet — the Lucene terms-dict/.doc shape; cold queries
    range-read exactly the postings they touch (see ``blobs.py``).
    """
    if "segment_id" not in terms.column_names:
        terms = terms.append_column(
            "segment_id",
            pa.array(np.full(terms.num_rows, seg_id, dtype=np.int32)))
    terms, blob = blobs.split_for_write(terms)
    for sub, tbl, rgs in (("terms", terms, row_group_size),
                          ("docs", docs, 1 << 20)):
        final_dir = os.path.join(index_dir, sub, f"segment={seg_id:06d}")
        tmp_dir = final_dir + f".tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp_dir, exist_ok=True)
        pq.write_table(tbl, os.path.join(tmp_dir, "part-0.parquet"),
                       row_group_size=rgs, compression="snappy")
        if sub == "terms":
            with open(os.path.join(tmp_dir, blobs.BLOB_NAME), "wb") as f:
                f.write(blob)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)  # uncommitted leftover from a crash
        os.replace(tmp_dir, final_dir)


def read_segment_terms(index_dir: str, seg_id: int) -> pa.Table:
    """Full logical terms table for one segment (enc columns and block
    lists materialized from the sidecar), in canonical column order."""
    path = seg_terms_path(index_dir, seg_id)
    tbl = pq.read_table(path)
    tbl = blobs.materialize_enc(
        tbl, lambda _s: path,
        want_positions="pos_nbytes" in tbl.column_names,
        want_blocks=True)
    order = ["field", "term", "df", "doc_ids_enc", "tfs_enc",
             "block_last_doc", "block_max_impact", "block_doc_byte_off",
             "block_tf_byte_off", "max_impact", "positions_enc"]
    return tbl.select([c for c in order if c in tbl.column_names])


def _corpus_columns(cfg: BuildConfig) -> list[str]:
    """Columns the segment build actually needs: shuffle nothing else."""
    cols = ["url", "warc_ts", "text", "doc_len"]
    for _fname, src_col, _an in cfg.fields:
        if src_col not in cols:
            cols.append(src_col)
    return cols


def _build_segment(group: pa.Table, index_dir: str, seg_id: int,
                   base: int, avgdl: float, cfg: BuildConfig) -> None:
    """Vectorized per-segment build of one bucket's raw doc rows: dedup,
    doc ids ``base + url rank``, tokenize, encode, commit. ``avgdl`` is the
    global text-field avgdl the block-max bounds are encoded under."""
    pin_worker_threads()
    t0 = time.perf_counter()
    n_input = group.num_rows
    # groups arrive as many zero-copy slices of shuffle outputs; every kernel
    # below is much faster over contiguous buffers
    group = group.combine_chunks()
    group = group.sort_by([("url", "ascending"), ("warc_ts", "ascending")])
    urls = np.asarray(group["url"].to_numpy(zero_copy_only=False), dtype=object)
    first = np.ones(len(urls), dtype=bool)
    first[1:] = urls[1:] != urls[:-1]
    deduped = group.filter(pa.array(first))
    n_docs = deduped.num_rows
    n_dups = n_input - n_docs
    doc_ids = base + np.arange(n_docs, dtype=np.int64)
    doc_len = deduped["doc_len"].to_numpy().astype(np.int64)

    import pyarrow.compute as pc

    def encode_field(field: str, doc_idx: np.ndarray, tokens: pa.Array,
                     dls_per_doc: np.ndarray, avgdl: float | None
                     ) -> pa.Table:
        """Posting table for one field. Integer term ids end to end:
        dictionary-encode the flat token column (one C++ hash pass), rank
        the (small) vocab lexicographically, then a single np.unique over
        rank*n_docs+doc yields tf per posting already sorted by
        (term, doc). No per-posting Python string objects — the object path
        was superlinear in segment size (allocator + compare cost)."""
        enc = tokens.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        tids = enc.indices.to_numpy().astype(np.int64)
        vocab = enc.dictionary
        vocab_order = pc.sort_indices(vocab).to_numpy().astype(np.int64)
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[vocab_order] = np.arange(len(vocab), dtype=np.int64)
        key = rank[tids] * np.int64(max(n_docs, 1)) + doc_idx
        uk, tfs_s = np.unique(key, return_counts=True)
        rank_s = uk // max(n_docs, 1)
        d_s = (uk % max(n_docs, 1)).astype(np.int64)
        table = codec.build_posting_table(
            rank_s, doc_ids[d_s], tfs_s.astype(np.int64), dls_per_doc[d_s],
            avgdl,
        )
        vocab_sorted = vocab.take(pa.array(vocab_order))
        term_strings = vocab_sorted.take(
            pa.array(table["term"].astype(np.int64)))
        offs = pa.array(table["block_offsets"].astype(np.int32), pa.int32())
        nt = len(table["term"])
        cols = {
            "field": pa.array([field] * nt, pa.string()),
            "term": pc.cast(term_strings, pa.string()),
            "df": pa.array(table["df"], pa.int64()),
            "doc_ids_enc": table["doc_ids_enc"].arrow,
            "tfs_enc": table["tfs_enc"].arrow,
            "block_last_doc": pa.ListArray.from_arrays(
                offs, pa.array(table["block_last_flat"], pa.int64())),
            "block_max_impact": pa.ListArray.from_arrays(
                offs, pa.array(table["block_max_flat"], pa.float64())),
            "block_doc_byte_off": pa.ListArray.from_arrays(
                offs, pa.array(table["block_doc_off_flat"], pa.int64())),
            "block_tf_byte_off": pa.ListArray.from_arrays(
                offs, pa.array(table["block_tf_off_flat"], pa.int64())),
            "max_impact": pa.array(table["max_impact"], pa.float64()),
        }
        if cfg.index_positions and len(rank_s) == 0:
            cols["positions_enc"] = pa.array([], pa.large_binary())
        elif cfg.index_positions:
            # token stream is (doc asc, position asc); a stable sort by term
            # rank groups it into (term, doc) runs with positions ascending —
            # the same (term, doc) order np.unique produced above.
            positions = doc_idx_positions(doc_idx)
            stable = np.argsort(rank[tids], kind="stable")
            pos_sorted = positions[stable]
            posting_starts = np.r_[0, np.cumsum(tfs_s)[:-1]]
            gaps = codec.delta_encode_runs(
                pos_sorted.astype(np.uint64), posting_starts)
            pos_bytes, pos_lens = codec.varint_encode(gaps)
            # per-term byte runs: term boundary = last posting's last byte
            run_change = np.empty(len(rank_s), dtype=bool)
            run_change[0] = True
            run_change[1:] = rank_s[1:] != rank_s[:-1]
            term_starts = np.flatnonzero(run_change)
            term_ends = np.r_[term_starts[1:], len(rank_s)]
            byte_ends = np.cumsum(pos_lens)
            post_ends = np.cumsum(tfs_s)
            cols["positions_enc"] = codec.byte_runs(
                pos_bytes, byte_ends[post_ends[term_ends - 1] - 1])
        return pa.table(cols)

    doc_idx, tokens, _dl = standard_tokenize_batch(deduped["text"])
    field_tables = [encode_field("text", doc_idx, tokens, doc_len, avgdl)]
    docs_cols = {
        "doc_id": pa.array(doc_ids, pa.int64()),
        "url": deduped["url"],
        "doc_len": pa.array(doc_len.astype(np.int32), pa.int32()),
        "segment_id": pa.array(np.full(n_docs, seg_id, dtype=np.int32)),
    }
    field_dl_sums: dict[str, int] = {}
    from ..functions.analyzers import analyze_column

    for fname, src_col, analyzer_name in cfg.fields:
        f_idx, f_toks, f_dl = analyze_column(deduped[src_col], analyzer_name)
        f_dl64 = f_dl.astype(np.int64)
        # global avgdl for extra fields is unknown at encode time: block-max
        # bounds use the avgdl-free upper bound (see codec.bm25_tf_impact);
        # exact scoring uses stats.json per-field avgdl at query time.
        # index_positions applies to EVERY text field (ES records positions
        # on all text fields by default, search_scheme.json:140-198), so
        # phrase queries work on multi-fields too.
        field_tables.append(encode_field(fname, f_idx, f_toks, f_dl64, None))
        docs_cols[f"doc_len_{fname}"] = pa.array(f_dl, pa.int32())
        field_dl_sums[fname] = int(f_dl64.sum())

    if len(field_tables) > 1:
        # each table is one field, ascending by term: ordered by field
        # name, the segment is (field, term)-sorted like a merged one, so
        # its row groups' (field, term) bounds stay narrow
        field_tables.sort(key=lambda t: t["field"][0].as_py()
                          if t.num_rows else "")
    terms_out = pa.concat_tables(field_tables).combine_chunks()
    docs_out = pa.table(docs_cols)
    _write_segment_files(index_dir, seg_id, terms_out, docs_out,
                         cfg.index_block_rows)

    secs = time.perf_counter() - t0
    checksum = hashlib.md5("\n".join(urls[first].tolist()).encode()).hexdigest()
    n_postings = int(pc.sum(terms_out["df"]).as_py() or 0)
    mf.write_manifest(
        index_dir, seg_id,
        {
            # avgdl the text-field block-max bounds were encoded under:
            # after appends move the global avgdl, searchers scale stored
            # bounds by max(1, avgdl_now/encode_avgdl) to stay admissible
            "encode_avgdl": avgdl,
            "n_input_rows": int(n_input),
            "n_docs": int(n_docs),
            "n_duplicates": int(n_dups),
            "n_terms": terms_out.num_rows,
            "n_postings": n_postings,
            "field_dl_sums": field_dl_sums,
            "doc_id_base": base,
            "url_checksum": checksum,
            "build_secs": round(secs, 4),
            "docs_per_sec": round(n_docs / secs, 2) if secs > 0 else None,
        },
    )


# --- the exchange (partition -> count -> build) ----------------------------
#
# Builds and appends both run this one plan over a streaming source (the
# extract output, a clean corpus Dataset, or the committed corpus):
#
#   1. ONE streaming pass, ONE task per source block (blocks sized to the
#      CPUs, ``_source_blocks``): the task (a) writes the block's corpus
#      parquet part (resumability; aggs/export read stored fields from it)
#      and (b) partitions it into per-bucket-GROUP slices returned as
#      separate driver-owned objects (ceil(n/g) zstd-packed data slices,
#      g = _build_group(n, cpus) <= BUILD_GROUP, + ceil(n/STATS_GROUP)
#      (url, warc_ts, doc_len) count minis, each with an int32 bucket
#      column for local re-split) — ref fan-out per block is O(buckets/g),
#      and a ray.wait throttle on unfinished partition tasks backpressures
#      the streaming source so the exchange holds ~1x corpus (the slices)
#      + a bounded block window; corpus ``_SUCCESS`` waits on every
#      partition task;
#   2. fixed-range count wave over the minis (~5% of corpus bytes): exact
#      post-dedup counts -> prefix-sum doc-id offsets -> the plan file;
#   3. fixed-range build wave, at least min(n, cpus) tasks wide: each task
#      concatenates its bucket range's slices, re-splits on the bucket
#      column and runs the vectorized ``_build_segment`` (dedup, dense ids,
#      tokenize, encode, atomic manifest commit) per bucket.
#
# The exchange is raw Ray tasks because the Dataset API cannot express a
# range-partition by *known* boundaries without a sort: every object is
# owned by the driver (lineage-reconstructible), data crosses the object
# store exactly once, and there is no sample/sort/fragment machinery.
# A resumed build re-runs the same exchange under its committed plan.json
# (see _resume_state): boundaries and offsets are frozen, so resumed doc
# ids are bitwise-identical, and committed buckets ship no rows.

def _resume_state(index_dir: str) -> tuple[dict | None, str | None]:
    """(committed plan, committed corpus dir) a build attempt resumes
    from; either is None when absent. A corpus with no plan (crash before
    the count wave) re-samples boundaries from the corpus. Committed
    segments with no plan have no recorded doc-id plan to resume under, so
    that state is refused instead of rebuilt over."""
    plan_path = os.path.join(index_dir, "plan.json")
    plan = mf.read_json(plan_path) if os.path.exists(plan_path) else None
    if plan is None and mf.committed_segments(index_dir):
        raise ValueError(
            f"{index_dir}: committed segment manifests but no plan.json; "
            "their doc ids have no recorded plan to resume under — remove "
            "the index directory and rebuild")
    corpus_dir = os.path.join(index_dir, "corpus")
    if os.path.exists(os.path.join(corpus_dir, "_SUCCESS")):
        return plan, corpus_dir
    return plan, None


def _read_corpus(corpus_dir: str, sources: list[tuple[str, int]]
                 ) -> rd.Dataset:
    """The committed corpus (``sources`` from :func:`_parquet_sources`) as
    an exchange source."""
    return rd.read_parquet(corpus_dir, override_num_blocks=_source_blocks(
        sum(n for _f, n in sources)))


_MINI_COLS = ["url", "warc_ts", "doc_len"]

# buckets per stats task / most segments per build task: grouping
# amortizes the per-task scheduling + arg-serialization cost (485
# one-bucket tasks cost ~4s of driver time regardless of CPU count — pure
# Amdahl overhead). The build wave's group shrinks below BUILD_GROUP when
# that would leave CPUs idle (see _build_group).
STATS_GROUP = 16
BUILD_GROUP = 4

# max unfinished partition tasks (one per source block) before the bundle
# loop blocks on ray.wait: bounds how many source blocks sit in the object
# store awaiting their partition task (backpressure propagates up through
# the streaming source), so exchange residency stays ~1x corpus (the
# bucket slices) + this window instead of 2x.
EXCHANGE_INFLIGHT = max(2 * os.cpu_count() if os.cpu_count() else 16, 16)

# data-slice compression: packing each (block, bucket-group) slice into one
# zstd Arrow-IPC payload halves the exchange's object-store residency —
# measured at 8M docs / 8 cpus this removed a 63% per-task compute
# inflation under plasma residency (22.5k vs 14.0k docs/task-sec) and cut
# the build 124.6 -> 106.6 s, neutral at 100k docs and at 2 cpus; it is
# also the multi-node network-shuffle shape (ship compressed bytes).
SLICE_CODEC = "zstd"

# finalize's in-process cutoff: (field, term, df) rows are ~50 B each, so 50M
# rows is ~2.5 GB — one threaded read + C++ group_by beats a distributed
# sort-shuffle by ~10x well past this point (measured: 29M rows in seconds
# vs 70s+ distributed at 8M docs). Above it, the Ray groupby path takes
# over.
FINALIZE_CUTOFF = 50_000_000


def _build_group(n_buckets: int, ncpus: int) -> int:
    """Buckets per build task: as many as BUILD_GROUP allows while the
    build wave still has at least ``min(n_buckets, ncpus)`` tasks (the
    auto layout makes ~2 segments per CPU, so a fixed group of 4 left half
    the CPUs idle)."""
    return max(1, min(BUILD_GROUP, n_buckets // max(1, ncpus)))


def _group_cuts(n_buckets: int, group: int) -> np.ndarray:
    """Bucket-group boundaries: groups are FIXED ranges
    [g*group, (g+1)*group) so group membership never depends on which
    buckets happen to be live — every block's slice g covers the same
    bucket range and can be concatenated downstream."""
    return np.r_[np.arange(0, n_buckets, group, dtype=np.int64), n_buckets]


def _pack_cell(sub: pa.Table) -> bytes:
    """One (block x bucket-group) slice -> a compressed Arrow IPC payload."""
    sink = pa.BufferOutputStream()
    opts = pa.ipc.IpcWriteOptions(compression=SLICE_CODEC)
    with pa.ipc.new_stream(sink, sub.schema, options=opts) as w:
        w.write_table(sub)
    return sink.getvalue().to_pybytes()


@ray.remote
def _partition_block(tbl: pa.Table, boundaries: list[str], n_buckets: int,
                     build_group: int, cols: list[str], skip: frozenset[int],
                     corpus_path: str | None):
    """One source block -> its corpus part at ``corpus_path`` (None: no
    corpus write) and per-bucket-GROUP driver-owned objects:
    ``ceil(n/build_group)`` packed data slices (columns ``cols`` + an int32
    ``bucket`` column, rows bucket-sorted), then ``ceil(n/STATS_GROUP)``
    count minis (``_MINI_COLS`` + ``bucket``), then the block's row count:
    a small object that is ready once the task, corpus write included, has
    finished. Grouped returns bound the driver's ref fan-out at
    O(blocks x buckets / build_group) — the
    per-(block, bucket) shape was the first thing to break at 8M+ docs
    (object metadata + residency). Buckets in ``skip`` (resume: already
    committed) ship no rows. Minis stay unpacked: they are ~6% of corpus
    and packing them just adds a decode to the low-parallelism count wave."""
    pin_worker_threads()
    if corpus_path is not None:
        pq.write_table(tbl, corpus_path)
    t = tbl.select(cols).combine_chunks()
    urls = np.asarray(t["url"].to_numpy(zero_copy_only=False), dtype=object)
    b = _bucket_of(urls, boundaries)
    if skip:
        keep = ~np.isin(b, np.fromiter(skip, dtype=np.int32))
        t = t.filter(pa.array(keep))
        b = b[keep]
    t = t.append_column("bucket", pa.array(b.astype(np.int32)))
    order = np.argsort(b, kind="stable")
    ts = t.take(pa.array(order))
    bs = b[order]
    mini_cols = [*_MINI_COLS, "bucket"]
    d_cuts = _group_cuts(n_buckets, build_group)
    s_cuts = _group_cuts(n_buckets, STATS_GROUP)
    d_pos = np.searchsorted(bs, d_cuts)
    s_pos = np.searchsorted(bs, s_cuts)
    datas = [_pack_cell(ts.slice(int(d_pos[i]), int(d_pos[i + 1] - d_pos[i])))
             for i in range(len(d_cuts) - 1)]
    minis = [ts.select(mini_cols).slice(int(s_pos[i]),
                                        int(s_pos[i + 1] - s_pos[i]))
             for i in range(len(s_cuts) - 1)]
    return (*datas, *minis, tbl.num_rows)


@ray.remote
def _bucket_stats_group(bucket_lo: int, n_in_group: int,
                        *minis: pa.Table) -> list[tuple]:
    """Stats for one FIXED bucket range [bucket_lo, bucket_lo+n): per-bucket
    (n_docs, dl_sum, n_dups, dup_examples) after keep-first dedup by
    (url asc, warc_ts asc) — the exact segment-build rule, vectorized across
    the whole group via the carried ``bucket`` column."""
    pin_worker_threads()
    tabs = [m for m in minis if m.num_rows]
    if not tabs:
        return [(0, 0, 0, [])] * n_in_group
    t = pa.concat_tables(tabs).combine_chunks().sort_by(
        [("bucket", "ascending"), ("url", "ascending"),
         ("warc_ts", "ascending")])
    urls = np.asarray(t["url"].to_numpy(zero_copy_only=False), dtype=object)
    bk = t["bucket"].to_numpy().astype(np.int64)
    first = np.ones(len(urls), dtype=bool)
    first[1:] = (urls[1:] != urls[:-1]) | (bk[1:] != bk[:-1])
    dl = t["doc_len"].to_numpy()
    rel = bk - bucket_lo
    n_docs = np.bincount(rel[first], minlength=n_in_group)
    dl_sum = np.bincount(rel[first], weights=dl[first].astype(np.float64),
                         minlength=n_in_group)
    n_dups = np.bincount(rel[~first], minlength=n_in_group)
    examples: dict[int, list[str]] = {}
    for i in np.flatnonzero(~first)[:3 * n_in_group]:
        ex = examples.setdefault(int(rel[i]), [])
        if len(ex) < 3:
            ex.append(urls[i])
    return [(int(n_docs[g]), int(dl_sum[g]), int(n_dups[g]),
             examples.get(g, [])) for g in range(n_in_group)]


@ray.remote
def _build_bucket_group(index_dir: str, seg_base: int, plan: dict,
                        cfg: BuildConfig, *parts: bytes) -> list[int]:
    """Build the segments of one FIXED bucket range sequentially in one
    task; ``parts`` are that range's packed data slices from every block
    (rows bucket-sorted). Bucket ``b`` becomes segment ``seg_base + b``
    with doc ids from ``plan["offsets"][b]``. Empty buckets (or
    resume-skipped ones, which ship no rows) build nothing."""
    pin_worker_threads()
    tabs = [t for t in (pa.ipc.open_stream(pa.BufferReader(p)).read_all()
                        for p in parts) if t.num_rows]
    if not tabs:
        return []
    g = pa.concat_tables(tabs).combine_chunks()
    bk = g["bucket"].to_numpy()
    order = np.argsort(bk, kind="stable")
    gs = g.take(pa.array(order))
    bs = bk[order]
    built: list[int] = []
    starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
    ends = np.r_[starts[1:], len(bs)]
    for s, e in zip(starts, ends):
        b = int(bs[s])
        _build_segment(gs.slice(int(s), int(e - s)), index_dir, seg_base + b,
                       int(plan["offsets"][b]), float(plan["avgdl"]), cfg)
        built.append(seg_base + b)
    return built


def _run_exchange(source: rd.Dataset, index_dir: str, cfg: BuildConfig,
                  timings: dict[str, float], boundaries: list[str], *,
                  corpus_dir: str | None, plan_path: str,
                  seg_base: int = 0, doc_base: int = 0, dl_base: int = 0,
                  plan: dict | None = None) -> dict:
    """Run the exchange over ``source`` and build its segments; returns the
    plan. See the section comment above.

    ``corpus_dir``: each source block's partition task also writes it
    there as a corpus part; ``_SUCCESS`` follows once every partition task
    has finished. None when ``source`` is the committed corpus.
    ``plan_path``: where the counted plan commits before any segment builds.
    ``seg_base`` / ``doc_base`` / ``dl_base``: bucket ``b`` becomes segment
    ``seg_base + b``, doc ids continue at ``doc_base`` and the encoded
    avgdl counts ``dl_base`` existing doc-length tokens — all 0 for a build;
    the next generation block and the live ``n_docs`` / ``dl_total`` for an
    append. ``plan``: a committed plan to resume under (the count wave is
    skipped and already-committed buckets ship no rows)."""
    if corpus_dir is not None:
        if os.path.isdir(corpus_dir):
            shutil.rmtree(corpus_dir)
        os.makedirs(corpus_dir, exist_ok=True)
    n_buckets = len(boundaries) + 1
    skip = (frozenset(mf.covered_buckets(index_dir)) if plan is not None
            else frozenset())
    cols = _corpus_columns(cfg)
    build_group = _build_group(n_buckets, _ncpus())
    d_cuts = _group_cuts(n_buckets, build_group)
    s_cuts = _group_cuts(n_buckets, STATS_GROUP)
    n_dg, n_sg = len(d_cuts) - 1, len(s_cuts) - 1
    part_task = _partition_block.options(num_returns=n_dg + n_sg + 1)
    t0 = time.perf_counter()
    data_refs: list[list] = []   # [block][data_group]
    mini_refs: list[list] = []   # [block][stats_group]
    done_refs: list = []         # [block] row count: its task finished
    pending: list = []           # in-flight partition tasks, for throttling
    i = 0
    for bundle in source.iter_internal_ref_bundles():
        for block_ref, bmeta in bundle.blocks:
            # Ray Data normalizes all-empty blocks to ZERO-column tables
            # (schema lost), which would KeyError in the partitioner —
            # and an empty block contributes nothing anyway. Seen when a
            # lazy source (e.g. reindex of a heavily-tombstoned index)
            # yields fully-filtered upstream blocks.
            if bmeta.num_rows == 0:
                continue
            part = (None if corpus_dir is None else
                    os.path.join(corpus_dir, f"part-{i:06d}.parquet"))
            rets = part_task.remote(block_ref, boundaries, n_buckets,
                                    build_group, cols, skip, part)
            data_refs.append(list(rets[:n_dg]))
            mini_refs.append(list(rets[n_dg:-1]))
            done_refs.append(rets[-1])
            pending.append(rets[-1])
            i += 1
            # bound source-block residency: a block stays pinned only by
            # its partition task's args; throttling that backlog
            # backpressures the streaming source
            if len(pending) > EXCHANGE_INFLIGHT:
                done, pending = ray.wait(
                    pending, num_returns=len(pending) - EXCHANGE_INFLIGHT // 2)
    timings["corpus"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    if plan is None:
        gtasks = [_bucket_stats_group.remote(
            int(s_cuts[g]), int(s_cuts[g + 1] - s_cuts[g]),
            *[blk[g] for blk in mini_refs])
            for g in range(n_sg)] if mini_refs else []
        stats_per_bucket = [t for res in ray.get(gtasks) for t in res]
        per_bucket = np.zeros(n_buckets, dtype=np.int64)
        per_bucket[:len(stats_per_bucket)] = [s[0] for s in stats_per_bucket]
        new_dl = sum(s[1] for s in stats_per_bucket)
        n_dups = sum(s[2] for s in stats_per_bucket)
        if cfg.strict_duplicates and n_dups:
            ray.get(done_refs)  # settle corpus writes: callers may discard
            raise DuplicateUrlError(
                n_dups, [u for s in stats_per_bucket for u in s[3]][:5])
        n_docs = doc_base + int(per_bucket.sum())
        dl_total = dl_base + int(new_dl)
        plan = {
            "boundaries": boundaries,
            "segment_id_base": seg_base,
            "offsets": (doc_base
                        + np.r_[0, np.cumsum(per_bucket)[:-1]]).tolist(),
            "per_segment_docs": per_bucket.tolist(),
            "n_docs": n_docs,
            "n_duplicates": n_dups,
            "avgdl": (dl_total / n_docs) if n_docs else 0.0,
            "dl_total": dl_total,
            "n_segments": int((per_bucket > 0).sum()),
            "seed": cfg.seed,
        }
        mf.write_json_atomic(plan_path, plan)
    del mini_refs  # minis free as soon as their stats tasks finish
    timings["plan"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    per_bucket = plan["per_segment_docs"]
    plan_ref = ray.put(plan)
    build_refs = []
    for g in range(n_dg):
        lo, hi = int(d_cuts[g]), int(d_cuts[g + 1])
        if any(per_bucket[b] > 0 and b not in skip for b in range(lo, hi)):
            build_refs.append(_build_bucket_group.remote(
                index_dir, seg_base, plan_ref, cfg,
                *[blk[g] for blk in data_refs]))
    # drop the driver's slice refs NOW: each slice stays pinned only by
    # its pending build task's args, so store memory frees group by
    # group as the build wave progresses instead of all-at-once at the end
    del data_refs
    ray.get(build_refs)
    timings["segments"] = round(time.perf_counter() - t0, 3)

    # a resume may leave a block's slices with no consumer: wait on every
    # partition task (and its corpus part) before the corpus commits
    ray.get(done_refs)
    if corpus_dir is not None:
        with open(os.path.join(corpus_dir, "_SUCCESS"), "w") as f:
            f.write("")
    return plan


# --- finalize ---------------------------------------------------------------

def _finalize(index_dir: str, plan: dict, cfg: BuildConfig,
              timings: dict[str, float], extra: dict | None = None) -> dict:
    """``extra`` keys are merged into stats.json before the atomic write —
    the append path uses this so visibility (n_docs), tombstone file list
    and generation lineage land in ONE atomic commit. Records its own
    ``timings["finalize"]`` before the write, so stats.json carries it."""
    t0 = time.perf_counter()
    stats_path = os.path.join(index_dir, "stats.json")
    manifests = mf.committed_segments(index_dir)
    term_files = [seg_terms_path(index_dir, s) for s in sorted(manifests)]
    term_stats_dir = os.path.join(index_dir, "term_stats")
    if not os.path.exists(os.path.join(term_stats_dir, "_SUCCESS")):
        if os.path.isdir(term_stats_dir):
            shutil.rmtree(term_stats_dir)
        os.makedirs(term_stats_dir, exist_ok=True)
        total_terms = sum(m["n_terms"] for m in manifests.values())
        if plan["n_docs"] > 0 and term_files:
            if total_terms <= FINALIZE_CUTOFF:
                # small vocab: one threaded read + C++ group_by on the driver
                # beats three distributed stages of overhead
                tt = pq.read_table(term_files, columns=["field", "term", "df"])
                agg = (tt.group_by(["field", "term"]).aggregate([("df", "sum")])
                       .rename_columns(["field", "term", "df"])
                       .sort_by([("field", "ascending"), ("term", "ascending")]))
                pq.write_table(agg, os.path.join(term_stats_dir, "part-0.parquet"),
                               row_group_size=cfg.index_block_rows)
            else:
                (
                    rd.read_parquet(term_files, columns=["field", "term", "df"])
                    .groupby(["field", "term"])
                    .aggregate(Sum("df", alias_name="df"))
                    .sort(["field", "term"])
                    .write_parquet(term_stats_dir)
                )
        with open(os.path.join(term_stats_dir, "_SUCCESS"), "w") as f:
            f.write("")
    rejects = count_rejects(os.path.join(index_dir, "errors"))
    n_docs = plan["n_docs"]
    per_field: dict[str, dict[str, float]] = {
        "text": {"avgdl": plan["avgdl"]}}
    for fname, _src, _an in cfg.fields:
        dl_sum = sum(m.get("field_dl_sums", {}).get(fname, 0)
                     for m in manifests.values())
        per_field[fname] = {"avgdl": (dl_sum / n_docs) if n_docs else 0.0}
    stats = {
        "n_docs": plan["n_docs"],
        "avgdl": plan["avgdl"],
        # integer doc-length total: appends add to it exactly, so the
        # recomputed avgdl matches a from-scratch build bit-for-bit
        "dl_total": int(plan.get(
            "dl_total", round(plan["avgdl"] * plan["n_docs"]))),
        "per_field": per_field,
        "field_analyzers": {"text": "standard",
                            **{f: a for f, _s, a in cfg.fields}},
        "index_positions": cfg.index_positions,
        "n_segments": len(manifests),
        "n_duplicates": sum(m["n_duplicates"] for m in manifests.values()),
        "n_postings": sum(m["n_postings"] for m in manifests.values()),
        "rejects": rejects,
        "bm25": {"k1": codec.BM25_K1, "b": codec.BM25_B},
        "per_segment": {
            str(k): {
                "n_docs": m["n_docs"],
                "build_secs": m["build_secs"],
                "docs_per_sec": m["docs_per_sec"],
            }
            for k, m in sorted(manifests.items())
        },
        "phase_secs": timings,
    }
    if extra:
        stats.update(extra)
    timings["finalize"] = round(time.perf_counter() - t0, 3)
    mf.write_json_atomic(stats_path, stats)
    return stats


# --- entry ----------------------------------------------------------------

def _build(source: rd.Dataset, index_dir: str, cfg: BuildConfig,
           timings: dict[str, float], boundaries: list[str],
           plan: dict | None, write_corpus: bool) -> dict:
    plan = _run_exchange(
        source, index_dir, cfg, timings, boundaries,
        corpus_dir=os.path.join(index_dir, "corpus") if write_corpus else None,
        plan_path=os.path.join(index_dir, "plan.json"), plan=plan)
    from .merge import merge_at_commit

    return merge_at_commit(index_dir, _finalize(index_dir, plan, cfg, timings),
                           cfg)


def _plan_boundaries(plan: dict | None, sources: list[tuple], read_urls,
                     cfg: BuildConfig) -> list[str]:
    if plan is not None:
        return list(plan["boundaries"])
    return _segment_boundaries(sources, read_urls, cfg)[0]


def build_index_from_corpus(corpus: rd.Dataset, index_dir: str,
                            cfg: BuildConfig | None = None) -> dict:
    """Build an index from an already-cleaned corpus Dataset (columns
    url, warc_ts, text, lang, doc_len) — the exchange writes it as the
    corpus. Used when the input is a text table rather than raw HTML
    webtext. Resumes like :func:`build_index`."""
    cfg = cfg or BuildConfig()
    os.makedirs(index_dir, exist_ok=True)
    timings: dict[str, float] = {}
    plan, corpus_dir = _resume_state(index_dir)
    if corpus_dir is not None:  # a committed corpus replaces the input
        t = time.perf_counter()
        sources = _parquet_sources(corpus_dir)
        source, read_urls = _read_corpus(corpus_dir, sources), _read_file_urls
    else:
        source = corpus.materialize()  # the caller's pipeline runs here
        t = time.perf_counter()
        sources, read_urls = _block_sources(source), _read_block_urls
    boundaries = _plan_boundaries(plan, sources, read_urls, cfg)
    timings["bounds"] = round(time.perf_counter() - t, 3)
    return _build(source, index_dir, cfg, timings, boundaries, plan,
                  write_corpus=corpus_dir is None)


def build_index(input_path: str, index_dir: str,
                cfg: BuildConfig | None = None) -> dict:
    """Build (or resume) the full inverted index; returns stats.json content.

    One exchange (see the exchange section comment) runs over the streaming
    extract of ``input_path``. A resumed build keeps what survived: a
    committed plan.json freezes boundaries and doc-id offsets (committed
    segments ship no rows), and a committed corpus replaces the extract."""
    cfg = cfg or BuildConfig()
    os.makedirs(index_dir, exist_ok=True)
    timings: dict[str, float] = {}
    t = time.perf_counter()
    plan, corpus_dir = _resume_state(index_dir)
    if corpus_dir is not None:
        sources = _parquet_sources(corpus_dir)
        boundaries = _plan_boundaries(plan, sources, _read_file_urls, cfg)
        timings["bounds"] = round(time.perf_counter() - t, 3)
        return _build(_read_corpus(corpus_dir, sources), index_dir, cfg,
                      timings, boundaries, plan, write_corpus=False)
    errors_dir = os.path.join(index_dir, "errors")
    if plan is None:
        if os.path.isdir(errors_dir):
            _clear_errors_dir(errors_dir)  # resume keeps retry-safe sinks
        # boundary sample over the INPUT's url column only: reject rows
        # shift quantiles negligibly and never affect doc ids
        boundaries, n_est = _segment_boundaries(
            _parquet_sources(input_path), _read_file_urls, cfg)
    else:
        # corpus never committed: re-extract, but keep the FROZEN
        # boundaries/offsets so resumed doc ids are bitwise-identical
        boundaries, n_est = list(plan["boundaries"]), int(plan["n_docs"])
    timings["bounds"] = round(time.perf_counter() - t, 3)
    return _build(_extract_source(input_path, errors_dir, n_est, cfg),
                  index_dir, cfg, timings, boundaries, plan,
                  write_corpus=True)
