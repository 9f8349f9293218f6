"""Incremental append — generation segments + url upserts (beyond the
reference, whose only refresh story is delete + full reload,
``/root/reference/run-elastic-search.sh:84-104``).

Semantics
---------
* ``append_index(input_path, index_dir, cfg)`` extracts and cleans the new
  batch, dedups it WITHIN the batch (keep-first by ``(url, warc_ts)`` — the
  build rule), and builds NEW segments whose doc ids continue at the current
  ``stats.n_docs``; segment ids live in the next free million-block (the
  same id namespace discipline as merge's ``MERGED_ID_BASE``).
* Cross-generation identity is URL UPSERT: an appended url that already
  exists in the index supersedes the old document — the old GLOBAL doc id
  is recorded in ``tombstones/gen-<base>.json`` and every search path drops
  tombstoned ids before top-k selection. Like Lucene deleted docs, the
  superseded docs still count in df / avgdl until a full rebuild (scores of
  surviving docs shift by at most the deleted docs' statistical weight —
  the exact ES behavior between merges).
* The upsert probe is one driver-side :func:`..search.url_rows` lookup of
  the batch's urls over the committed segments: a segment whose footer
  url range misses the batch is skipped, every other one costs one url
  column read and one Arrow hash probe.
* ``strict_duplicates=True`` treats BOTH intra-batch duplicates and
  cross-generation upserts as fatal create conflicts (D1 parity). The
  upsert probe reads the urls of the generation's built segments, so a
  rejected append discards that still-invisible generation.
* The new batch runs the build's exchange (``build._run_exchange``) with
  segment ids from the generation block and doc ids from ``stats.n_docs``;
  only the upsert probe, tombstones and the generation record are
  append-specific.

Commit protocol / crash safety
------------------------------
Segment files + manifests commit first but stay INVISIBLE: searchers only
serve segments whose ``doc_id_base + n_docs <= stats.n_docs``. The atomic
``stats.json`` rewrite (new ``n_docs``, ``dl_total``, ``tombstone_files``,
``generations``) is the single visibility point — a crash mid-append leaves
a consistent old index plus invisible garbage that the next append sweeps.
A ``LocalSearcher`` picks the commit up on its next query. When the commit
leaves more than ``merge.MAX_SEGMENTS`` visible segments, the append
merges down to that bound (``merge.merge_at_commit``) before it returns.

Exactness: ``dl_total`` is carried as an integer, so after appending
disjoint batches the recomputed ``avgdl`` (and therefore every BM25 score)
is bit-identical to a from-scratch build over the union — the basis of the
``incremental_append`` driver gate entry.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from . import manifest as mf
from .build import (
    BuildConfig,
    DuplicateUrlError,
    _block_sources,
    _extract_source,
    _finalize,
    _parquet_sources,
    _read_block_urls,
    _read_file_urls,
    _run_exchange,
    _segment_boundaries,
    seg_docs_path,
    seg_terms_path,
)

APPEND_ID_BASE = 2_000_000


def _next_gen_base(committed: dict[int, dict]) -> int:
    top = max([APPEND_ID_BASE - 1, *committed.keys()])
    return (top // 1_000_000 + 1) * 1_000_000


def sweep_invisible_segments(index_dir: str, n_docs_visible: int) -> list[int]:
    """Remove committed-but-invisible segments (doc range beyond the stats
    visibility point) left by a crashed append. Returns swept ids."""
    swept = []
    for sid, m in mf.committed_segments(index_dir).items():
        if int(m["doc_id_base"]) >= n_docs_visible and sid >= APPEND_ID_BASE:
            for p in (seg_terms_path(index_dir, sid),
                      seg_docs_path(index_dir, sid)):
                d = os.path.dirname(p)
                if os.path.isdir(d):
                    shutil.rmtree(d)
            mp = mf.manifest_path(index_dir, sid)
            if os.path.exists(mp):
                os.unlink(mp)
            swept.append(sid)
    return swept


def _discard_generation(index_dir: str, gen_base: int,
                        n_docs_visible: int) -> None:
    """Remove everything a rejected append wrote: its invisible segments,
    its corpus (read_resolved would otherwise serve stored fields from it)
    and its generation record."""
    sweep_invisible_segments(index_dir, n_docs_visible)
    gen_corpus = os.path.join(index_dir, "corpus_gen", f"gen-{gen_base}")
    if os.path.isdir(gen_corpus):
        shutil.rmtree(gen_corpus)
    record = os.path.join(index_dir, "generations", f"gen-{gen_base}.json")
    if os.path.exists(record):
        os.unlink(record)


def _upsert_probe(index_dir: str, stats: dict, committed: dict[int, dict],
                  new_segs: list[int]) -> tuple[np.ndarray, list[str]]:
    """Existing docs that the new segments' urls supersede: (sorted global
    doc ids not yet tombstoned, their urls). One driver-side
    :func:`..search.url_rows` lookup over the committed segments: an
    Arrow hash probe per segment whose footer url range overlaps the
    batch. The new urls come from the built segments (driver memory: one
    pointer-sized row per appended unique url; shard giant appends into
    multiple calls)."""
    if not new_segs or not committed:
        return np.empty(0, np.int64), []
    from .search import _in_sorted, _load_deleted, url_rows

    new_urls = pq.read_table(
        [seg_docs_path(index_dir, s) for s in new_segs], columns=["url"]
    )["url"]
    hits = url_rows(index_dir, sorted(committed), new_urls, ["doc_id"])
    ids, first = np.unique(hits["doc_id"].to_numpy(), return_index=True)
    urls = hits["url"].take(pa.array(first, pa.int64()))
    if len(ids):
        # a url re-ingested a SECOND time matches its original doc id
        # again; without this filter n_deleted / n_upserts inflate
        # (search is unaffected — _load_deleted dedupes)
        keep = ~_in_sorted(_load_deleted(index_dir, stats), ids)
        ids, urls = ids[keep], urls.filter(pa.array(keep))
    return ids, urls.to_pylist()


def append_index(input_path: str, index_dir: str,
                 cfg: BuildConfig | None = None) -> dict:
    """Append raw webtext at ``input_path`` to an existing index."""
    cfg = cfg or BuildConfig()
    t0 = time.perf_counter()
    boundaries, n_est = _segment_boundaries(_parquet_sources(input_path),
                                            _read_file_urls, cfg)
    timings = {"bounds": round(time.perf_counter() - t0, 3)}
    src = _extract_source(input_path, os.path.join(index_dir, "errors"),
                          n_est, cfg)
    return _run_append(src, index_dir, cfg, boundaries, timings)


def append_index_from_corpus(corpus: rd.Dataset, index_dir: str,
                             cfg: BuildConfig | None = None) -> dict:
    """Append an already-cleaned corpus Dataset (columns url, warc_ts,
    text, lang, doc_len) to an existing index."""
    cfg = cfg or BuildConfig()
    mat = corpus.materialize()  # the sample reads its block metadata
    t0 = time.perf_counter()
    boundaries, _n = _segment_boundaries(_block_sources(mat),
                                         _read_block_urls, cfg)
    timings = {"bounds": round(time.perf_counter() - t0, 3)}
    return _run_append(mat, index_dir, cfg, boundaries, timings)


def _run_append(source: rd.Dataset, index_dir: str, cfg: BuildConfig,
                boundaries: list[str], timings: dict[str, float]) -> dict:
    stats_path = os.path.join(index_dir, "stats.json")
    if not os.path.exists(stats_path):
        raise FileNotFoundError(
            f"append requires an existing index at {index_dir}")
    stats = mf.read_json(stats_path)
    want_analyzers = {"text": "standard", **{f: a for f, _s, a in cfg.fields}}
    if stats.get("field_analyzers", {"text": "standard"}) != want_analyzers:
        raise ValueError(
            "append field/analyzer config must match the index: "
            f"{stats.get('field_analyzers')} vs {want_analyzers}")
    # new segments keep the index's positions layout: a segment without
    # them would leave every term table with a schema the others lack
    cfg = dataclasses.replace(cfg, index_positions=bool(
        stats.get("index_positions", cfg.index_positions)))
    base_docs = int(stats["n_docs"])
    if "dl_total" not in stats:
        raise ValueError("index predates dl_total tracking; rebuild before "
                         "appending (avgdl exactness requires integer sums)")
    sweep_invisible_segments(index_dir, base_docs)
    committed = mf.committed_segments(index_dir)
    gen_base = _next_gen_base(committed)
    try:
        # the generation's segments commit INVISIBLE (doc ids from
        # base_docs on); stats.json below is the visibility point
        plan = _run_exchange(
            source, index_dir, cfg, timings, boundaries,
            corpus_dir=os.path.join(index_dir, "corpus_gen",
                                    f"gen-{gen_base}"),
            plan_path=os.path.join(index_dir, "generations",
                                   f"gen-{gen_base}.json"),
            seg_base=gen_base, doc_base=base_docs,
            dl_base=int(stats["dl_total"]))
        t0 = time.perf_counter()
        new_segs = [gen_base + b
                    for b, n in enumerate(plan["per_segment_docs"]) if n]
        deleted_new, upsert_urls = _upsert_probe(index_dir, stats, committed,
                                                 new_segs)
        if cfg.strict_duplicates and len(deleted_new):
            raise DuplicateUrlError(len(deleted_new), upsert_urls[:5])
        timings["probe"] = round(time.perf_counter() - t0, 3)
    except DuplicateUrlError:
        _discard_generation(index_dir, gen_base, base_docs)
        raise

    tombstone_files = list(stats.get("tombstone_files", []))
    if len(deleted_new):
        tpath = os.path.join("tombstones", f"gen-{gen_base}.json")
        mf.write_json_atomic(
            os.path.join(index_dir, tpath),
            {"generation": gen_base,
             "deleted_doc_ids": [int(d) for d in deleted_new]})
        tombstone_files.append(tpath)
    # term_stats must cover the new generation: force a rebuild
    ts_dir = os.path.join(index_dir, "term_stats")
    if os.path.isdir(ts_dir):
        shutil.rmtree(ts_dir)
    from .merge import merge_at_commit

    out = _finalize(index_dir, plan, cfg, timings, extra={
        "tombstone_files": tombstone_files,
        "n_deleted": int(stats.get("n_deleted", 0)) + int(len(deleted_new)),
        "generations": [*stats.get("generations", []), {
            "generation": gen_base,
            "n_docs": plan["n_docs"] - base_docs,
            "n_upserts": int(len(deleted_new)),
            "doc_id_base": base_docs,
        }],
    })
    return merge_at_commit(index_dir, out, cfg)


def _delete_partial(searcher, field: str, terms: list[str], mode: str,
                    qhash: str) -> list[tuple[str, int]]:
    """Group partial: the tombstone writer for one query.

    Writes ``tombstones/dbq-<qhash>-seg<K>.json`` per segment with live
    matches, atomically and under a DETERMINISTIC name, so task retries
    overwrite the same payload and re-running the same delete is
    idempotent. Files are inert until the driver's stats.json rewrite
    lists them (the single visibility point). The searcher's matched set
    already excludes tombstoned docs, so they are not counted again.
    Returns one (path, count) per file written."""
    out = []
    ids = searcher.matched_ids(field, terms, mode)
    for seg_id, seg_ids in searcher.split_by_segment(ids):
        rel = os.path.join(
            "tombstones", f"dbq-{qhash}-seg{seg_id:06d}.json")
        mf.write_json_atomic(
            os.path.join(searcher.index_dir, rel),
            {"query_hash": qhash, "segment_id": seg_id,
             "deleted_doc_ids": [int(d) for d in seg_ids]})
        out.append((rel, len(seg_ids)))
    return out


def delete_by_query(index_dir: str, query: str, field: str | None = None,
                    mode: str = "or") -> int:
    """ES ``_delete_by_query``: tombstone every currently-visible doc
    matching the match query (``mode`` "or" or "and"; anything else
    raises ``ValueError`` before any file is written). Each segment group
    task (:func:`..search.map_segment_groups`) writes one tombstone file
    per touched segment (nothing matched-set-sized reaches the driver);
    one atomic ``stats.json`` rewrite makes them visible — a crash
    beforehand leaves the index unchanged with inert orphan files. Lucene
    deletion semantics: df / avgdl keep counting the deleted docs;
    segment merges carry tombstones through unchanged (global term_stats
    cannot shrink per-merge), and the expunge-deletes analogue is a
    REINDEX of the live docs (``export.reindex_matches`` — tested in
    ``test_snapshot.py``). Every search / agg / export path drops
    tombstoned ids. Returns the number of docs deleted."""
    import hashlib

    from .search import DEFAULT_FIELD, _field_analyzer, _load_stats, \
        _visible_seg_ids, check_match_mode, map_segment_groups, query_terms

    check_match_mode(mode)
    field = field or DEFAULT_FIELD
    stats = _load_stats(index_dir)
    terms = sorted(set(query_terms(query, _field_analyzer(stats, field))))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return 0
    qhash = hashlib.md5(
        f"{field}:{mode}:{' '.join(terms)}".encode()).hexdigest()[:12]
    written = [w for part in map_segment_groups(
        index_dir, seg_ids, _delete_partial, field, terms, mode, qhash)
        for w in part]
    if not written:
        return 0
    n_deleted = sum(n for _p, n in written)
    listed = list(stats.get("tombstone_files", []))
    listed += [p for p, _n in written if p not in listed]
    stats["tombstone_files"] = listed
    stats["n_deleted"] = int(stats.get("n_deleted", 0)) + n_deleted
    mf.write_json_atomic(os.path.join(index_dir, "stats.json"), stats)
    return n_deleted


def update_by_query(index_dir: str, query: str, set_columns: dict[str, str],
                    field: str | None = None, mode: str = "or",
                    cfg: BuildConfig | None = None) -> dict:
    """ES ``_update_by_query``: every currently-visible doc matching the
    match query gets the ``set_columns`` literal overrides (the
    ``ctx._source.X = v`` script shape) and is re-ingested as an upsert
    generation — the url identity tombstones the old versions atomically
    (the same machinery as append), so a crash mid-update leaves the old
    docs visible, never a mix. Matched docs stream from the scroll path
    into the append builder; nothing matched-set-sized reaches the
    driver. Returns the append stats (n_upserts == matched count)."""
    import pyarrow.compute as _pc

    from ..functions.analyzers import token_count_batch
    from .export import export_matches
    from .search import DEFAULT_FIELD

    field = field or DEFAULT_FIELD
    bad = set(set_columns) - {"lang", "text"}
    if bad:
        raise ValueError(f"update_by_query can set lang/text, got {bad}")
    ds = export_matches(index_dir, query, field=field, mode=mode,
                        stored_columns=("text", "lang", "warc_ts"))

    def to_corpus(t: pa.Table) -> pa.Table:
        n = t.num_rows
        text = _pc.cast(t["text"], pa.large_string())
        lang = t["lang"]
        if "text" in set_columns:
            text = pa.array([set_columns["text"]] * n, pa.large_string())
        if "lang" in set_columns:
            lang = pa.array([set_columns["lang"]] * n, pa.string())
        return pa.table({
            "url": t["url"],
            "warc_ts": _pc.cast(t["warc_ts"], pa.timestamp("us")),
            "text": text,
            "lang": lang,
            "doc_len": pa.array(token_count_batch(text), pa.int32()),
        })

    return append_index_from_corpus(
        ds.map_batches(to_corpus, batch_format="pyarrow"), index_dir,
        cfg or BuildConfig())
