"""Search-time aggregations (ES ``aggs`` analogue) over the segment index.

ES pairs a query with aggregations computed over ALL matching documents
(not the top-k page): ``terms`` buckets a keyword field by doc count,
optionally carrying metric sub-aggregations. The reference delegates this
to ElasticSearch; here it is a Ray Data job shaped like Lucene's per-shard
global-ordinals pattern:

* **doc-values / stored-field shards**
  (``docvalues/<column>/segment=K.parquet``): one (doc_id, value) file
  per segment, built once per (index, column). A whole generation's
  shards come from ONE range-partition exchange over its corpus (rows
  routed to segments by the build's own url boundaries, joined to each
  segment's docs table) — corpus files span the full url keyspace, so
  per-segment filtered reads would each scan the whole corpus. The
  Lucene doc-values / stored-fields analogue, and the piece that makes
  aggregation, export and snippeting segment-local.
* **partials**: one task per segment unions the query terms' postings
  (the match's doc set within the segment), drops tombstoned docs, and
  bincounts the matched docs' dictionary-encoded values — emitting
  (key, doc_count, metric_sum) rows bounded by the segment's distinct
  values, never its doc count.
* **merge**: a ``groupby(key).sum`` over the tiny partials, then the
  top-``size`` buckets by (doc_count desc, key asc).

Reference parity: the ES index the reference loads serves exactly such
facet queries over its keyword fields (config/search_scheme.json).
"""

from __future__ import annotations

import glob
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from . import blobs, codec
from .build import seg_docs_path, seg_terms_path
from functools import lru_cache

from .search import (
    DEFAULT_FIELD,
    _dl_column,
    _drop_deleted,
    _field_analyzer,
    _load_deleted,
    _load_stats,
    _term_filters,
    _visible_seg_ids,
    query_terms,
)


@lru_cache(maxsize=64)
def _state_cached(index_dir: str, stats_mtime_ns: int):
    stats = _load_stats(index_dir)
    return stats, _load_deleted(index_dir, stats)


def worker_state(index_dir: str):
    """(stats, tombstones) cached per worker PROCESS, keyed by stats.json
    mtime so a delete/append invalidates it. This is what lets the
    per-segment stages run as plain TASKS instead of actor pools:
    re-loading trivial state per task is nearly free, while the per-call
    actor-pool spawn dominated agg latency (measured 4.3s -> 0.35s for a
    warm 1M-doc histogram agg)."""
    mt = os.stat(os.path.join(index_dir, "stats.json")).st_mtime_ns
    return _state_cached(index_dir, mt)


def _corpus_files(index_dir: str) -> list[str]:
    """Every corpus parquet across the base build and append generations."""
    files = sorted(glob.glob(os.path.join(index_dir, "corpus", "*.parquet")))
    files += sorted(glob.glob(os.path.join(
        index_dir, "corpus_gen", "**", "*.parquet"), recursive=True))
    return files


def _dv_path(index_dir: str, column: str, seg_id: int) -> str:
    return os.path.join(index_dir, "docvalues", column,
                        f"segment={seg_id:06d}.parquet")


def _generation_files(index_dir: str) -> list[tuple[int, list[str]]]:
    """[(generation segment-id block, corpus files)] oldest-first: the
    base build (block 0) then each append generation in commit order."""
    out = [(0, sorted(glob.glob(
        os.path.join(index_dir, "corpus", "*.parquet"))))]
    gen_root = os.path.join(index_dir, "corpus_gen")
    if os.path.isdir(gen_root):
        # NUMERIC order: lexicographic listdir would put gen-10000000
        # before gen-2000000 and flip newest-wins resolution
        for d in sorted(os.listdir(gen_root),
                        key=lambda d: int(d.split("-")[-1])):
            files = sorted(glob.glob(os.path.join(gen_root, d,
                                                  "*.parquet")))
            if files:
                out.append((int(d.split("-")[-1]), files))
    return out


def _keep_first_by_url_ts(t: pa.Table) -> pa.Table:
    """The build's intra-generation dedup rule: sort (url asc, warc_ts
    asc), keep the first row per url — so a duplicated url resolves to
    exactly the document the index kept."""
    t = t.sort_by([("url", "ascending"), ("warc_ts", "ascending")])
    u = np.asarray(t["url"])
    _uniq, first = np.unique(u, return_index=True)
    if len(_uniq) != t.num_rows:
        t = t.take(pa.array(np.sort(first)))
    return t


def read_resolved(index_dir: str, columns: list[str],
                  filters) -> pa.Table:
    """Corpus read that resolves each url to its VISIBLE document's row.

    The single place that owns the two resolution invariants every corpus
    consumer needs (doc-values, export, snippets, term vectors,
    significant_terms):

    * within a generation: the build keeps the FIRST row by (url asc,
      warc_ts asc) when an input duplicates a url — the stored fields
      must come from that same row;
    * across generations: an append upserts the url, so the NEWEST
      generation containing it wins (the older doc is tombstoned).

    Reads each generation's files separately (generation identity is the
    directory, not a column), applies the intra-generation rule, then
    keeps the last occurrence across the oldest-first concatenation.
    ``url`` comes back as plain string, ``warc_ts`` is dropped.
    """
    read_cols = ["url", "warc_ts"] + [c for c in columns
                                      if c not in ("url", "warc_ts")]
    per_gen = []
    for _base, files in _generation_files(index_dir):
        if not files:
            continue
        t = pq.read_table(files, columns=read_cols, filters=filters)
        if t.num_rows == 0:
            continue
        t = t.set_column(0, "url", pc.cast(t["url"], pa.string()))
        per_gen.append(_keep_first_by_url_ts(t))
    if not per_gen:
        sch = pq.read_schema(_corpus_files(index_dir)[0])
        return pa.schema([pa.field("url", pa.string())]
                         + [sch.field(c) for c in columns]).empty_table()
    cat = pa.concat_tables(per_gen, promote_options="default")
    u = np.asarray(cat["url"])
    uniq, first_rev = np.unique(u[::-1], return_index=True)
    if len(uniq) != cat.num_rows:
        keep = (len(u) - 1) - first_rev  # newest generation wins
        cat = cat.take(pa.array(np.sort(keep)))
    if "warc_ts" not in columns:
        cat = cat.drop_columns(["warc_ts"])
    return cat


def corpus_slice_for(index_dir: str, urls, columns: list[str]) -> pa.Table:
    """URL-range-pruned resolved corpus read (see :func:`read_resolved`)
    for a url set, ONE row per url."""
    mm = pc.min_max(urls)
    return read_resolved(
        index_dir, columns,
        [("url", ">=", mm["min"].as_py()),
         ("url", "<=", mm["max"].as_py())])


def _build_dv_shard(index_dir: str, seg_id: int, column: str) -> None:
    """(doc_id, value) shard for one segment: url-range-pruned corpus read
    joined to the segment's docs; atomic tmp+rename (idempotent under
    retries, committed shards skipped)."""
    out = _dv_path(index_dir, column, seg_id)
    if os.path.exists(out):
        return
    docs = pq.read_table(seg_docs_path(index_dir, seg_id),
                         columns=["doc_id", "url"])
    if docs.num_rows == 0:
        return
    sl = corpus_slice_for(index_dir, docs["url"], [column])
    docs = docs.set_column(docs.column_names.index("url"), "url",
                           pc.cast(docs["url"], pa.string()))
    j = docs.join(sl, keys="url", join_type="left outer")
    j = j.sort_by("doc_id").select(["doc_id", column])
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = f"{out}.tmp-{uuid.uuid4().hex}"
    pq.write_table(j, tmp)
    os.replace(tmp, out)


def _url_min_of_segment(index_dir: str, seg_id: int) -> str:
    """Lower url bound of a segment: its FIRST docs row. Doc ids are
    global url ranks, so the docs table's doc_id order IS url order —
    exact, and immune to missing/truncated parquet column statistics."""
    f = pq.ParquetFile(seg_docs_path(index_dir, seg_id))
    t = f.read_row_group(0, columns=["url"])
    return str(t["url"][0].as_py())


def _build_dv_shards_onepass(index_dir: str, column: str,
                             files: list[str], segs: list[int]) -> None:
    """All of one generation's missing shards from ONE corpus pass.

    Corpus files are written in extract-stream order, so their url
    min/max spans the whole keyspace and per-segment range-filtered reads
    degrade to a full corpus scan PER SEGMENT (measured 2.2 s/segment for
    a 1M-doc index = O(S x corpus) total). Instead: read the generation's
    corpus once, range-partition rows to segments by the segments' url
    lower bounds (the same boundaries the build used), and write each
    shard from its group — one exchange, O(corpus) total. Rows of
    already-built segments ride along and are dropped by the per-group
    docs join."""
    bounds = sorted((_url_min_of_segment(index_dir, s), s) for s in segs)
    mins = np.array([b[0] for b in bounds], dtype=object)
    seg_arr = np.array([b[1] for b in bounds], dtype=np.int64)
    want = set(int(s) for s in segs)

    def assign(t: pa.Table) -> pa.Table:
        from .build import pin_worker_threads

        pin_worker_threads()
        u = np.asarray(pc.cast(t["url"], pa.string()))
        b = np.clip(np.searchsorted(mins, u, side="right") - 1,
                    0, len(seg_arr) - 1)
        return t.append_column("segment_id",
                               pa.array(seg_arr[b], pa.int64()))

    def write_group(g: pa.Table) -> pa.Table:
        from .build import pin_worker_threads

        pin_worker_threads()
        g = g.combine_chunks()
        seg_id = int(g["segment_id"][0].as_py())
        if seg_id not in want:
            return pa.table({"segment_id": pa.array([seg_id], pa.int64())})
        out = _dv_path(index_dir, column, seg_id)
        if not os.path.exists(out):
            g = g.set_column(g.column_names.index("url"), "url",
                             pc.cast(g["url"], pa.string()))
            g = _keep_first_by_url_ts(g)
            docs = pq.read_table(seg_docs_path(index_dir, seg_id),
                                 columns=["doc_id", "url"])
            docs = docs.set_column(docs.column_names.index("url"), "url",
                                   pc.cast(docs["url"], pa.string()))
            j = docs.join(g.select(["url", column]), keys="url",
                          join_type="left outer")
            j = j.sort_by("doc_id").select(["doc_id", column])
            os.makedirs(os.path.dirname(out), exist_ok=True)
            tmp = f"{out}.tmp-{uuid.uuid4().hex}"
            pq.write_table(j, tmp)
            os.replace(tmp, out)
        return pa.table({"segment_id": pa.array([seg_id], pa.int64())})

    from .build import _ncpus

    read_cols = (["url", "warc_ts"]
                 + ([column] if column not in ("url", "warc_ts") else []))
    # block count sized to the CPU budget, NOT the segment count: the
    # sort-shuffle's sample/sort/fragment cost grows with upstream block
    # count (measured 11s -> 146s at 1M -> 4M docs with blocks =
    # n_segments); map_groups still yields every segment's group inside
    # the fewer reduce tasks
    (rd.read_parquet(files, columns=read_cols,
                     override_num_blocks=2 * _ncpus())
     .map_batches(assign, batch_format="pyarrow")
     .groupby("segment_id")
     .map_groups(write_group, batch_format="pyarrow")
     .materialize())


def build_doc_values(index_dir: str, column: str) -> None:
    """Materialize doc-values / stored-field shards for every visible
    segment that lacks one. Whole-generation groups build from ONE corpus
    pass (range-partition exchange, see _build_dv_shards_onepass); merged
    segments (which may span generations) and stragglers fall back to a
    per-segment resolved range read."""
    stats = _load_stats(index_dir)
    seg_ids, vis = _visible_seg_ids(index_dir, stats)
    missing = [s for s in seg_ids
               if not os.path.exists(_dv_path(index_dir, column, s))]
    if not missing:
        return
    # map each segment to its generation by DOC RANGE containment (ids
    # are not usable: a merge after an append allocates the merged
    # segment's id inside the newest generation's id block). A segment
    # whose doc range crosses a generation boundary (cross-generation
    # merge) sources rows from several corpora -> per-segment fallback.
    gen_files = dict(_generation_files(index_dir))
    gens = sorted(stats.get("generations", []),
                  key=lambda g: int(g["doc_id_base"]))
    base_hi = (int(gens[0]["doc_id_base"]) if gens
               else int(stats.get("n_docs", 0)))
    ranges = [(0, 0, base_hi)] + [
        (int(g["generation"]), int(g["doc_id_base"]),
         int(g["doc_id_base"]) + int(g["n_docs"])) for g in gens]

    def gen_of(seg_id: int) -> int | None:
        m = vis.get(seg_id, {})
        lo = int(m.get("doc_id_base", -1))
        hi = lo + int(m.get("n_docs", 0))
        for gen, glo, ghi in ranges:
            if glo <= lo and hi <= ghi:
                return gen
        return None

    by_gen: dict[int, list[int]] = {}
    fallback: list[int] = []
    for sid in missing:
        g = gen_of(sid)
        if g is None:
            fallback.append(sid)
        else:
            by_gen.setdefault(g, []).append(sid)
    for gen, segs in sorted(by_gen.items()):
        files = gen_files.get(gen)
        if files is None or len(segs) <= 2:
            fallback.extend(segs)
            continue
        _build_dv_shards_onepass(index_dir, column, files, segs)
    if not fallback:
        return

    def _one(batch: pa.Table) -> pa.Table:
        for s in batch["segment_id"].to_pylist():
            _build_dv_shard(index_dir, int(s), column)
        return pa.table({"segment_id": batch["segment_id"]})

    (rd.from_items([{"segment_id": s} for s in fallback])
     .map_batches(_one, batch_format="pyarrow", batch_size=1)
     .materialize())


def _segment_postings(index_dir: str, seg_id: int, field: str,
                      terms: list[str],
                      with_tf: bool = False) -> dict[str, list]:
    """term -> decoded doc-id runs for one segment, ONE filtered read for
    the whole term list (callers with many queries union their term lists
    and share this read instead of re-opening the file per query)."""
    filters = _term_filters({field: terms})
    if filters is None:
        return {}
    path = seg_terms_path(index_dir, seg_id)
    tt = pq.read_table(path, columns=["field", "term", "df", "segment_id",
                                      "blob_off", "doc_nbytes", "tf_nbytes"],
                       filters=filters)
    tt = blobs.materialize_enc(tt, lambda _s: path)
    out: dict[str, list] = {}
    for i in range(tt.num_rows):
        ids, tfs = codec.decode_postings(
            tt["doc_ids_enc"][i].as_py(), tt["tfs_enc"][i].as_py(),
            int(tt["df"][i].as_py()))
        out.setdefault(tt["term"][i].as_py(), []).append(
            (ids, tfs) if with_tf else ids)
    return out


def _ids_from_runs(runs_by_term: dict[str, list[np.ndarray]],
                   terms: list[str], mode: str) -> np.ndarray:
    """Combine a term subset's runs: union (``or``) or intersection
    (``and`` — a term absent from the segment empties it)."""
    runs = [r for t in set(terms) for r in runs_by_term.get(t, [])]
    if mode == "and":
        if len(runs) < len(set(terms)):
            return np.empty(0, np.int64)
        out = runs[0]
        for r in runs[1:]:
            out = np.intersect1d(out, r, assume_unique=True)
            if len(out) == 0:
                break
        return out
    if not runs:
        return np.empty(0, np.int64)
    return runs[0] if len(runs) == 1 else np.unique(np.concatenate(runs))


def _matched_ids(index_dir: str, seg_id: int, field: str,
                 terms: list[str], mode: str = "or") -> np.ndarray:
    """Sorted doc ids in the segment matching the query terms — union for
    ``mode="or"`` (ES match default), intersection for ``mode="and"``
    (match with operator=and). Aggregations and exports consume the full
    matched set, not top-k."""
    return _ids_from_runs(
        _segment_postings(index_dir, seg_id, field, terms), terms, mode)


def _terms_agg_partials(batch: pa.Table, *, index_dir: str,
                        column: str, field: str, terms: list[str],
                        metric_field: str | None) -> pa.Table:
    """Task: per-segment terms-agg partials for one broadcast query."""
    _stats, deleted = worker_state(index_dir)
    keys, counts, msums = [], [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dvp = _dv_path(index_dir, column, seg_id)
        dv = pq.read_table(dvp, columns=["doc_id", column])
        dv_ids = dv["doc_id"].to_numpy()
        pos = np.searchsorted(dv_ids, ids)
        vals = dv[column].combine_chunks().take(pa.array(pos))
        enc = pc.dictionary_encode(vals)
        # ES terms-agg semantics: docs missing the field are SKIPPED. The
        # dv shard is a left-outer join so nulls are reachable; a null
        # dictionary index would cast to float64 NaN and crash bincount,
        # so nulls get a sentinel code whose bucket is dropped (mirrors
        # export._collapse_partials).
        null_code = len(enc.dictionary)
        codes = np.asarray(pc.fill_null(enc.indices, null_code),
                           dtype=np.int64)
        nbuck = len(enc.dictionary)
        cnt = np.bincount(codes, minlength=nbuck + 1)[:nbuck]
        if metric_field is not None:
            docs = pq.read_table(
                seg_docs_path(index_dir, seg_id),
                columns=["doc_id", _dl_column(metric_field)])
            dlv = docs[_dl_column(metric_field)].to_numpy()
            base = int(docs["doc_id"][0].as_py())
            msum = np.bincount(codes, weights=dlv[ids - base],
                               minlength=nbuck + 1)[:nbuck]
        else:
            msum = np.zeros(nbuck)
        keys.extend(enc.dictionary.to_pylist())
        counts.extend(cnt.tolist())
        msums.extend(msum.tolist())
    return pa.table({
        "key": pa.array([str(k) for k in keys], pa.string()),
        "doc_count": pa.array(counts, pa.int64()),
        "metric_sum": pa.array(msums, pa.float64()),
    })


def _dl_agg_partials(batch: pa.Table, *, index_dir: str, field: str,
                     terms: list[str], metric_field: str,
                     interval: int | None,
                     ranges: list[tuple] | None = None) -> pa.Table:
    """Task: per-segment partials over the matched docs' token counts —
    histogram buckets when ``interval`` is set, range-bucket counts when
    ``ranges`` is set, else running (count, min, max, sum) stats. Doc
    lengths come from the segment's docs table, so no doc-values shard is
    needed."""
    _stats, deleted = worker_state(index_dir)
    hist: dict[int, int] = {}
    rcnt = np.zeros(len(ranges or ()), dtype=np.int64)
    cnt, mn, mx, sm, sq = 0, None, None, 0, 0
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", _dl_column(metric_field)])
        dlv = docs[_dl_column(metric_field)].to_numpy()
        base = int(docs["doc_id"][0].as_py())
        v = dlv[ids - base].astype(np.int64)
        if ranges is not None:
            # ES range agg: from inclusive, to exclusive, ends
            # optional, ranges may overlap (each counted independently)
            for ri, (frm, to) in enumerate(ranges):
                ok = np.ones(len(v), dtype=bool)
                if frm is not None:
                    ok &= v >= frm
                if to is not None:
                    ok &= v < to
                rcnt[ri] += int(ok.sum())
        elif interval is not None:
            keys = (v // interval) * interval
            uk, uc = np.unique(keys, return_counts=True)
            for kk, cc in zip(uk.tolist(), uc.tolist()):
                hist[kk] = hist.get(kk, 0) + cc
        else:
            cnt += len(v)
            sm += int(v.sum())
            sq += int((v * v).sum())
            mn = int(v.min()) if mn is None else min(mn, int(v.min()))
            mx = int(v.max()) if mx is None else max(mx, int(v.max()))
    if ranges is not None:
        return pa.table({
            "range_idx": pa.array(range(len(rcnt)), pa.int64()),
            "doc_count": pa.array(rcnt, pa.int64()),
        })
    if interval is not None:
        ks = sorted(hist)
        return pa.table({
            "key": pa.array(ks, pa.int64()),
            "doc_count": pa.array([hist[kk] for kk in ks], pa.int64()),
        })
    if cnt == 0:
        return pa.table({"doc_count": pa.array([], pa.int64()),
                         "min_v": pa.array([], pa.int64()),
                         "max_v": pa.array([], pa.int64()),
                         "sum_v": pa.array([], pa.int64()),
                         "sum_sq": pa.array([], pa.int64())})
    return pa.table({"doc_count": pa.array([cnt], pa.int64()),
                     "min_v": pa.array([mn], pa.int64()),
                     "max_v": pa.array([mx], pa.int64()),
                     "sum_v": pa.array([sm], pa.int64()),
                     "sum_sq": pa.array([sq], pa.int64())})


def histogram_agg(index_dir: str, query: str, interval: int,
                  field: str = DEFAULT_FIELD,
                  metric_field: str | None = None,
                  concurrency: int | None = None) -> pa.Table:
    """ES ``histogram`` aggregation over the matching docs' token counts:
    buckets keyed ``floor(v / interval) * interval``, key-ascending.
    ``min_doc_count=1`` semantics — only non-empty buckets are returned
    (ES's default 0 would interpolate empties). Per-segment partials are
    bounded by the bucket count, merged with a small groupby-sum."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.int64()),
                      "doc_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _dl_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "metric_field": metric_field or field,
                "interval": int(interval)},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
    )
    merged = per_seg.groupby("key").aggregate(Sum("doc_count")).to_pandas()
    if len(merged) == 0:
        return empty
    merged = merged.rename(columns={"sum(doc_count)": "doc_count"})
    merged = merged.sort_values("key")
    return pa.table({
        "key": pa.array(merged["key"].to_numpy(), pa.int64()),
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


# "week" is NOT a numpy cast: M8[W] weeks are Thursday-epoch (1970-01-01)
# while the ES/SQL convention is ISO Monday — the sentinel makes the
# partials truncate via day-number arithmetic instead
_ISO_WEEK = "isoweek"
_CAL_UNITS = {"hour": "h", "day": "D", "week": _ISO_WEEK, "month": "M",
              "year": "Y"}


def _date_hist_partials(batch: pa.Table, *, index_dir: str, column: str,
                        field: str, terms: list[str], unit: str) -> pa.Table:
    """Task: per-segment date_histogram partials — matched docs' ``column``
    timestamps truncated to the calendar unit (numpy datetime64 cast),
    bucket counts bounded by distinct buckets. Docs with a null timestamp
    are skipped (ES skip-missing)."""
    _stats, deleted = worker_state(index_dir)
    keys, counts = [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                           columns=["doc_id", column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        vals = dv[column].combine_chunks().take(pa.array(pos))
        arr = vals.to_numpy(zero_copy_only=False)  # datetime64[us] w/ NaT
        arr = arr[~np.isnat(arr)]
        if len(arr) == 0:
            continue
        if unit == _ISO_WEEK:
            # ISO-Monday truncation: 1970-01-01 is a Thursday, so day
            # number d has Monday-based weekday (d + 3) % 7
            days = arr.astype("M8[D]").astype(np.int64)
            days -= (days + 3) % 7
            tr = days.astype("M8[D]").astype("M8[us]").astype(np.int64)
        else:
            tr = arr.astype(f"M8[{unit}]").astype("M8[us]").astype(np.int64)
        u, c = np.unique(tr, return_counts=True)
        keys.extend(u.tolist())
        counts.extend(c.tolist())
    return pa.table({"key_us": pa.array(keys, pa.int64()),
                     "doc_count": pa.array(counts, pa.int64())})


def date_histogram_agg(index_dir: str, query: str,
                       calendar_interval: str = "day",
                       column: str = "warc_ts",
                       field: str = DEFAULT_FIELD,
                       concurrency: int | None = None) -> pa.Table:
    """ES ``date_histogram`` (calendar_interval hour/day/week/month/year)
    over the matching docs' ``column`` timestamps: buckets keyed by the
    truncated calendar boundary, key-ascending, ``min_doc_count=1``
    semantics. Distributed as per-segment partials (bounded by distinct
    buckets) merged with a small groupby-sum — the terms/histogram shape."""
    from ray.data.aggregate import Sum

    if calendar_interval not in _CAL_UNITS:
        raise ValueError(f"unsupported calendar_interval "
                         f"{calendar_interval!r} (have {list(_CAL_UNITS)})")
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.timestamp("us")),
                      "doc_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, column)
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _date_hist_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": terms, "unit": _CAL_UNITS[calendar_interval]},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
    )
    merged = per_seg.groupby("key_us").aggregate(Sum("doc_count")).to_pandas()
    if len(merged) == 0:
        return empty
    merged = merged.rename(columns={"sum(doc_count)": "doc_count"})
    merged = merged.sort_values("key_us")
    return pa.table({
        "key": pa.array(merged["key_us"].to_numpy().astype("M8[us]"),
                        pa.timestamp("us")),
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


def _ts_minmax_partials(batch: pa.Table, *, index_dir: str, column: str,
                        field: str, terms: list[str]) -> pa.Table:
    """Task: per-segment (min, max) of the matched docs' non-null
    ``column`` timestamps — two int64 microsecond values per segment."""
    _stats, deleted = worker_state(index_dir)
    mns, mxs = [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                           columns=["doc_id", column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        arr = dv[column].combine_chunks().take(pa.array(pos)).to_numpy(
            zero_copy_only=False)
        arr = arr[~np.isnat(arr)]
        if len(arr) == 0:
            continue
        mns.append(int(arr.min().astype("M8[us]").astype(np.int64)))
        mxs.append(int(arr.max().astype("M8[us]").astype(np.int64)))
    return pa.table({"mn": pa.array(mns, pa.int64()),
                     "mx": pa.array(mxs, pa.int64())})


# auto_date_histogram ladder, finest first. ES's real ladder also has
# sub-unit multiples (5m, 3h, ...); this engine's calendar units are the
# supported rungs — documented simplification, mirrored by the oracle.
_AUTO_LADDER = ("hour", "day", "week", "month", "year")


def _span_buckets(mn_us: int, mx_us: int, unit: str) -> int:
    """Bucket count the span would produce at ``unit`` (inclusive of
    both truncated endpoints) — the ladder decision input."""
    mn = np.datetime64(mn_us, "us")
    mx = np.datetime64(mx_us, "us")
    if unit == "week":
        d0, d1 = (np.array([mn, mx]).astype("M8[D]").astype(np.int64))
        d0 -= (d0 + 3) % 7
        d1 -= (d1 + 3) % 7
        return int((d1 - d0) // 7) + 1
    code = _CAL_UNITS[unit]
    a, b = np.array([mn, mx]).astype(f"M8[{code}]").astype(np.int64)
    return int(b - a) + 1


def auto_date_histogram_agg(index_dir: str, query: str,
                            target_buckets: int = 10,
                            column: str = "warc_ts",
                            field: str = DEFAULT_FIELD,
                            concurrency: int | None = None) -> pa.Table:
    """ES ``auto_date_histogram``: pick the finest calendar interval
    from the ladder (hour → day → week → month → year) whose
    span-implied bucket count fits ``target_buckets``, then histogram
    at that interval; the chosen interval is returned as a constant
    column (ES returns it in the agg metadata). The decision needs only
    the matched span — one tiny per-segment (min, max) partials job —
    never a trial histogram per rung."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.timestamp("us")),
                      "doc_count": pa.array([], pa.int64()),
                      "interval": pa.array([], pa.string())})
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, column)
    mm = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _ts_minmax_partials,
            fn_kwargs={"index_dir": index_dir, "column": column,
                       "field": field, "terms": terms},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()  # one row per segment
    )
    if len(mm) == 0:
        return empty
    mn, mx = int(mm["mn"].min()), int(mm["mx"].max())
    unit = _AUTO_LADDER[-1]
    for cand in _AUTO_LADDER:
        if _span_buckets(mn, mx, cand) <= target_buckets:
            unit = cand
            break
    base = date_histogram_agg(index_dir, query, unit, column=column,
                              field=field, concurrency=concurrency)
    return base.append_column(
        "interval", pa.array([unit] * base.num_rows, pa.string()))


def stats_agg(index_dir: str, query: str, field: str = DEFAULT_FIELD,
              metric_field: str | None = None,
              concurrency: int | None = None) -> pa.Table:
    """ES ``stats`` aggregation over the matching docs' token counts:
    one row (doc_count, min, max, sum, avg). Partials are integer
    (count, min, max, sum) per segment — the merge and the final avg are
    exact."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"doc_count": pa.array([0], pa.int64()),
                      "min_word_count": pa.array([None], pa.int64()),
                      "max_word_count": pa.array([None], pa.int64()),
                      "sum_word_count": pa.array([0], pa.int64()),
                      "avg_word_count": pa.array([None], pa.float64())})
    if not terms or not seg_ids:
        return empty
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _dl_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "metric_field": metric_field or field,
                "interval": None},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()
    )
    if len(per_seg) == 0 or per_seg["doc_count"].sum() == 0:
        return empty
    cnt = int(per_seg["doc_count"].sum())
    sm = int(per_seg["sum_v"].sum())
    return pa.table({
        "doc_count": pa.array([cnt], pa.int64()),
        "min_word_count": pa.array([int(per_seg["min_v"].min())], pa.int64()),
        "max_word_count": pa.array([int(per_seg["max_v"].max())], pa.int64()),
        "sum_word_count": pa.array([sm], pa.int64()),
        "avg_word_count": pa.array([sm / cnt], pa.float64()),
    })


def extended_stats_agg(index_dir: str, query: str,
                       field: str = DEFAULT_FIELD,
                       metric_field: str | None = None,
                       concurrency: int | None = None) -> pa.Table:
    """ES ``extended_stats`` aggregation over the matching docs' token
    counts: stats plus sum_of_squares, (population) variance and
    std_deviation, Lucene's ExtendedStats reduce. Partials stay integer
    (count, min, max, sum, sum of squares) per segment, so the merge is
    exact; only the final moments are float, computed with one fixed
    expression shape (``sq/n - (s/n)*(s/n)``) mirrored by the SQL oracle
    so the hash compare is bitwise-stable."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"doc_count": pa.array([0], pa.int64()),
                      "min_word_count": pa.array([None], pa.int64()),
                      "max_word_count": pa.array([None], pa.int64()),
                      "sum_word_count": pa.array([0], pa.int64()),
                      "sum_of_squares": pa.array([0], pa.int64()),
                      "avg_word_count": pa.array([None], pa.float64()),
                      "variance": pa.array([None], pa.float64()),
                      "std_deviation": pa.array([None], pa.float64())})
    if not terms or not seg_ids:
        return empty
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _dl_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "metric_field": metric_field or field,
                "interval": None},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()
    )
    if len(per_seg) == 0 or per_seg["doc_count"].sum() == 0:
        return empty
    cnt = int(per_seg["doc_count"].sum())
    sm = int(per_seg["sum_v"].sum())
    sq = int(per_seg["sum_sq"].sum())
    mean = sm / cnt
    # population variance, clamped at 0 against FP cancellation — the SQL
    # oracle uses the identical expression (greatest(..., 0))
    var = max(sq / cnt - mean * mean, 0.0)
    return pa.table({
        "doc_count": pa.array([cnt], pa.int64()),
        "min_word_count": pa.array([int(per_seg["min_v"].min())], pa.int64()),
        "max_word_count": pa.array([int(per_seg["max_v"].max())], pa.int64()),
        "sum_word_count": pa.array([sm], pa.int64()),
        "sum_of_squares": pa.array([sq], pa.int64()),
        "avg_word_count": pa.array([mean], pa.float64()),
        "variance": pa.array([var], pa.float64()),
        "std_deviation": pa.array([float(np.sqrt(var))], pa.float64()),
    })


def filters_agg(index_dir: str, filters: dict[str, str],
                field: str = DEFAULT_FIELD, mode: str = "or",
                concurrency: int | None = None) -> pa.Table:
    """ES ``filters`` aggregation: one named bucket per filter query,
    each counting its own matching docs independently (buckets may
    overlap, exactly like ES). All filters share ONE Dataset job — the
    per-segment partials union every filter's terms into a single
    postings read (:func:`..export.count_matches_many`). Output is
    key-ascending for determinism (ES returns insertion order; callers
    that need it can reorder the small result)."""
    from .export import count_matches_many

    names = sorted(filters)
    t = count_matches_many(index_dir, [filters[n] for n in names],
                           field=field, mode=mode, concurrency=concurrency)
    return pa.table({
        "filter_key": pa.array(names, pa.string()),
        "doc_count": t["n_matched"],
    })


def _composite_partials(batch: pa.Table, *, index_dir: str,
                        columns: list[str], field: str,
                        terms: list[str]) -> pa.Table:
    """Task: per-segment composite-agg partials — the matched docs'
    (col1, col2, ...) tuples pre-aggregated to (keys..., doc_count) rows
    bounded by the segment's distinct tuple count."""
    _stats, deleted = worker_state(index_dir)
    parts = []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        cols = {}
        for column in columns:
            dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                               columns=["doc_id", column])
            pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
            cols[column] = dv[column].combine_chunks().take(pa.array(pos))
        seg_t = pa.table(cols)
        # ES composite default (missing_bucket=false): docs missing any
        # source value are skipped
        mask = None
        for column in columns:
            valid = pc.is_valid(seg_t[column])
            mask = valid if mask is None else pc.and_(mask, valid)
        seg_t = seg_t.filter(mask)
        if len(seg_t) == 0:
            continue
        agg = seg_t.group_by(columns).aggregate([([], "count_all")])
        agg = agg.rename_columns(list(columns) + ["doc_count"])
        parts.append(agg)
    if not parts:
        return pa.table(
            {**{c: pa.array([], pa.string()) for c in columns},
             "doc_count": pa.array([], pa.int64())})
    return pa.concat_tables(parts)


def composite_agg(index_dir: str, query: str,
                  sources: tuple[str, ...] = ("lang", "source"),
                  size: int = 10, after: tuple | None = None,
                  field: str = DEFAULT_FIELD,
                  concurrency: int | None = None) -> pa.Table:
    """ES ``composite`` aggregation: every (sources...) value tuple of
    the matching docs as a bucket, key-ascending, paginated with an
    exclusive ``after`` key — the scroll-safe agg ES offers for full
    bucket enumeration. Per-segment partials are bounded by distinct
    tuples; the merge is a multi-key ``groupby().sum`` over partials,
    and the page cut (after-filter + size) happens on the reduced bucket
    list, exactly like ES's coordinate-node reduce."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    srcs = list(sources)
    empty = pa.table({**{c: pa.array([], pa.string()) for c in srcs},
                      "doc_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    for c in srcs:
        build_doc_values(index_dir, c)
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _composite_partials,
            fn_kwargs={
                "index_dir": index_dir, "columns": srcs, "field": field,
                "terms": terms},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby(srcs)
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    if len(merged) == 0:
        return empty
    merged = merged.sort_values(srcs).reset_index(drop=True)
    if after is not None:
        aft = tuple(after)
        keep = [tuple(row) > aft
                for row in merged[srcs].itertuples(index=False)]
        merged = merged[keep]
    merged = merged.head(size)
    return pa.table({
        **{c: pa.array(merged[c].astype(str), pa.string()) for c in srcs},
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


def date_histogram_pipeline_agg(index_dir: str, query: str,
                                calendar_interval: str = "day",
                                column: str = "warc_ts",
                                field: str = DEFAULT_FIELD,
                                concurrency: int | None = None) -> pa.Table:
    """ES pipeline aggregations (``cumulative_sum`` + ``derivative``)
    over a date_histogram: computed on the REDUCED bucket list — exactly
    where ES computes pipeline aggs (coordinator-side, after the shard
    merge), so the driver-side numpy here is the scale-correct shape,
    not a shortcut. The first bucket's derivative is null (ES emits no
    value for it)."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field,
                              concurrency=concurrency)
    dc = base["doc_count"].to_numpy()
    cum = np.cumsum(dc)
    deriv = np.full(len(dc), np.nan)
    if len(dc) > 1:
        deriv[1:] = np.diff(dc).astype(np.float64)
    return pa.table({
        "key": base["key"],
        "doc_count": base["doc_count"],
        "cumulative_docs": pa.array(cum, pa.int64()),
        "derivative": pa.array(
            [None if np.isnan(d) else float(d) for d in deriv],
            pa.float64()),
    })


def date_histogram_bucket_pipeline_agg(
        index_dir: str, query: str, calendar_interval: str = "day",
        window: int = 7, lag: int = 7, column: str = "warc_ts",
        field: str = DEFAULT_FIELD,
        concurrency: int | None = None) -> pa.Table:
    """The remaining ES pipeline-agg family over a date_histogram:

    * ``moving_fn`` (``MovingFunctions.unweightedAvg``, ``shift=0``):
      the window is the ``window`` buckets strictly BEFORE the current
      one (ES's default shift excludes the current bucket); shorter
      head windows average what exists; the first bucket is null.
    * ``serial_diff`` (``lag``): ``doc_count[i] - doc_count[i-lag]``,
      null for the first ``lag`` buckets.
    * sibling aggs ``avg_bucket`` / ``min_bucket`` / ``max_bucket`` /
      ``sum_bucket`` over the whole bucket list (constant columns —
      the shape ES returns them in, one value beside the histogram).

    Like cumulative_sum/derivative these are computed on the REDUCED
    bucket list — ES computes every pipeline agg coordinator-side after
    the shard merge, so driver-side numpy here is the scale-correct
    shape (bucket count is bounded, never corpus-sized)."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field,
                              concurrency=concurrency)
    dc = base["doc_count"].to_numpy().astype(np.int64)
    n = len(dc)
    csum = np.concatenate([[0], np.cumsum(dc)])
    idx = np.arange(n)
    lo = np.maximum(0, idx - window)
    cnt = idx - lo  # window end is exclusive of the current bucket
    mov = np.divide(csum[idx] - csum[lo], np.maximum(cnt, 1),
                    dtype=np.float64)
    mov_col = pa.array([None if cnt[i] == 0 else float(mov[i])
                        for i in range(n)], pa.float64())
    sd = [None] * n
    for i in range(lag, n):
        sd[i] = float(dc[i] - dc[i - lag])
    tot = int(dc.sum()) if n else 0
    return pa.table({
        "key": base["key"],
        "doc_count": base["doc_count"],
        "moving_avg": mov_col,
        "serial_diff": pa.array(sd, pa.float64()),
        "avg_bucket": pa.array([tot / n if n else None] * n, pa.float64()),
        "min_bucket": pa.array([int(dc.min()) if n else None] * n,
                               pa.int64()),
        "max_bucket": pa.array([int(dc.max()) if n else None] * n,
                               pa.int64()),
        "sum_bucket": pa.array([tot] * n, pa.int64()),
    })


def date_histogram_normalize_agg(
        index_dir: str, query: str, calendar_interval: str = "day",
        column: str = "warc_ts", field: str = DEFAULT_FIELD,
        concurrency: int | None = None) -> pa.Table:
    """ES ``normalize`` pipeline agg over a date_histogram — the four
    methods with distinct shapes (``bucket_script`` already covers
    plain ratios):

    * ``rescale_0_1``: (x - min) / (max - min); 0 when max == min.
    * ``percent_of_sum``: x / sum.
    * ``z-score``: (x - mean) / population stdev, computed as
      (n*x - s1) / sqrt(n*s2 - s1^2) so numerator and radicand are
      EXACT integers (matches the SQL oracle bit-for-bit pre-round).
    * ``softmax``: exp(x) / sum(exp(x)), max-shifted for stability
      (mathematically identical, never overflows at any bucket count).

    Computed on the REDUCED bucket list like every ES pipeline agg —
    coordinator-side after the shard merge, bucket count bounded."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field,
                              concurrency=concurrency)
    dc = base["doc_count"].to_numpy().astype(np.int64)
    n = len(dc)
    if n == 0:
        f = pa.array([], pa.float64())
        return pa.table({"key": base["key"], "doc_count": base["doc_count"],
                         "rescale_0_1": f, "percent_of_sum": f,
                         "z_score": f, "softmax": f})
    mn, mx = int(dc.min()), int(dc.max())
    s1 = int(dc.sum())
    s2 = int((dc * dc).sum())
    resc = (np.zeros(n, np.float64) if mx == mn
            else (dc - mn) / np.float64(mx - mn))
    pos = dc / np.float64(s1)
    rad = n * s2 - s1 * s1
    z = (np.zeros(n, np.float64) if rad == 0
         else (n * dc - s1) / np.sqrt(np.float64(rad)))
    ex = np.exp((dc - mx).astype(np.float64))
    sm = ex / ex.sum()
    return pa.table({
        "key": base["key"],
        "doc_count": base["doc_count"],
        "rescale_0_1": pa.array(np.round(resc, 6), pa.float64()),
        "percent_of_sum": pa.array(np.round(pos, 6), pa.float64()),
        "z_score": pa.array(np.round(z, 6), pa.float64()),
        "softmax": pa.array(np.round(sm, 6), pa.float64()),
    })


def date_histogram_bucket_select_agg(
        index_dir: str, query: str, calendar_interval: str = "day",
        min_doc_count: int = 1, size: int = 10, column: str = "warc_ts",
        field: str = DEFAULT_FIELD,
        concurrency: int | None = None) -> pa.Table:
    """ES ``bucket_script`` + ``bucket_selector`` + ``bucket_sort`` over
    a date_histogram: a derived per-bucket metric (percent of total
    matched docs), a predicate dropping buckets below ``min_doc_count``,
    then a sort (doc_count desc, key asc) truncated to ``size`` — the
    three bucket-mutating pipeline aggs ES applies coordinator-side in
    exactly this order. Bounded by bucket count, never doc count."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field,
                              concurrency=concurrency)
    dc = base["doc_count"].to_numpy().astype(np.int64)
    tot = int(dc.sum()) if len(dc) else 0
    # bucket_script: params.count / params.total * 100
    pct = (dc / tot * 100.0) if tot else np.zeros(len(dc))
    t = base.append_column("pct_of_total", pa.array(pct, pa.float64()))
    keep = dc >= min_doc_count  # bucket_selector
    t = t.filter(pa.array(keep))
    order = pc.sort_indices(t, sort_keys=[("doc_count", "descending"),
                                          ("key", "ascending")])
    return t.take(order[:size])  # bucket_sort: sort + from/size truncate


def _missing_partials(batch: pa.Table, *, index_dir: str, column: str,
                      field: str, terms: list[str]) -> pa.Table:
    """Task: per-segment count of matched docs whose ``column``
    doc-value is null — one int per segment."""
    _stats, deleted = worker_state(index_dir)
    n_missing = 0
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                           columns=["doc_id", column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        vals = dv[column].combine_chunks().take(pa.array(pos))
        n_missing += int(pc.sum(pc.cast(pc.is_null(vals),
                                        pa.int64())).as_py() or 0)
    return pa.table({"n_missing": pa.array([n_missing], pa.int64())})


def missing_agg(index_dir: str, query: str, column: str,
                field: str = DEFAULT_FIELD,
                concurrency: int | None = None) -> pa.Table:
    """ES ``missing`` aggregation: how many of the matching docs lack a
    value for ``column`` — the complement bucket the terms agg skips.
    One integer partial per segment, summed on the driver."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return pa.table({"doc_count": pa.array([0], pa.int64())})
    build_doc_values(index_dir, column)
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _missing_partials,
            fn_kwargs={"index_dir": index_dir, "column": column,
                       "field": field, "terms": terms},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()
    )
    return pa.table({"doc_count": pa.array(
        [int(per_seg["n_missing"].sum())], pa.int64())})


def _top_hits_partials(batch: pa.Table, *, index_dir: str, column: str,
                       field: str, terms: list[str], idf: dict,
                       avgdl: float, n_per_key: int) -> pa.Table:
    """Task: per-segment top-``n_per_key`` hits per bucket value for one
    OR query, plus the segment's full per-key matched-doc count — rows
    bounded by (keys x n_per_key) per segment, never its doc count.
    Scoring is the global-idf BM25 convention (term-major lexicographic
    accumulation, rounded to 6 dp), identical to the serving paths."""
    from . import codec

    _stats, deleted = worker_state(index_dir)
    out_s, out_k, out_d, out_sc, out_c = [], [], [], [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        runs = _segment_postings(index_dir, seg_id, field, terms,
                                 with_tf=True)
        if not runs:
            continue
        all_ids = [ids for rs in runs.values() for ids, _tfs in rs]
        loc = np.unique(np.concatenate(all_ids))
        docs = pq.read_table(seg_docs_path(index_dir, seg_id),
                             columns=["doc_id", _dl_column(field)])
        base = int(docs["doc_id"][0].as_py())
        dl = docs[_dl_column(field)].to_numpy().astype(np.float64)
        sc = np.zeros(len(loc), dtype=np.float64)
        for t in terms:  # lexicographic accumulation order
            for ids, tfs in runs.get(t, []):
                sc[np.searchsorted(loc, ids)] += idf[t] * \
                    codec.bm25_tf_impact(tfs.astype(np.float64),
                                         dl[ids - base], avgdl)
        if len(deleted):
            keep = _drop_deleted(deleted, loc)
            loc, sc = loc[keep], sc[keep]
        if len(loc) == 0:
            continue
        r = np.round(sc, 6)
        dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                           columns=["doc_id", column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), loc)
        vals = dv[column].combine_chunks().take(pa.array(pos))
        enc = pc.dictionary_encode(vals)
        # ES terms-agg semantics: docs missing the bucket field are
        # skipped (null sentinel code, bucket dropped below)
        null_code = len(enc.dictionary)
        codes = np.asarray(pc.fill_null(enc.indices, null_code),
                           dtype=np.int64)
        valid = codes != null_code
        loc, r, codes = loc[valid], r[valid], codes[valid]
        if len(loc) == 0:
            continue
        cnts = np.bincount(codes, minlength=len(enc.dictionary))
        order = np.lexsort((loc, -r))  # (score desc, doc_id asc)
        oc = codes[order]
        o2 = np.argsort(oc, kind="stable")  # group keys, keep score order
        soc = oc[o2]
        starts = np.flatnonzero(np.r_[True, soc[1:] != soc[:-1]])
        sizes = np.diff(np.r_[starts, len(soc)])
        within = np.arange(len(soc)) - np.repeat(starts, sizes)
        sel = order[o2[within < n_per_key]]
        names = enc.dictionary.to_pylist()
        out_s.extend([seg_id] * len(sel))
        out_k.extend(str(names[c]) for c in codes[sel].tolist())
        out_d.extend(loc[sel].tolist())
        out_sc.extend(r[sel].tolist())
        out_c.extend(cnts[codes[sel]].tolist())
    return pa.table({"segment_id": pa.array(out_s, pa.int64()),
                     "key": pa.array(out_k, pa.string()),
                     "doc_id": pa.array(out_d, pa.int64()),
                     "score": pa.array(out_sc, pa.float64()),
                     "seg_count": pa.array(out_c, pa.int64())})


def top_hits_agg(index_dir: str, query: str, column: str,
                 num_buckets: int = 10, size_per_bucket: int = 3,
                 field: str = DEFAULT_FIELD,
                 concurrency: int | None = None) -> pa.Table:
    """ES ``terms`` aggregation with a ``top_hits`` sub-aggregation: the
    top-``num_buckets`` values of ``column`` by matched-doc count, each
    carrying its ``size_per_bucket`` best-scoring hits. Per-segment
    partials are bounded by (keys x size_per_bucket); the driver merge
    re-ranks the tiny partial set — the ES coordinator reduce shape.
    Returns (key, doc_count, hit_rank, doc_id, score) ordered
    (doc_count desc, key asc, hit_rank asc)."""
    from .search import _avgdl, load_global_idf

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.string()),
                      "doc_count": pa.array([], pa.int64()),
                      "hit_rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not terms or not seg_ids:
        return empty
    idf_map, _dfs, _n = load_global_idf(index_dir, {field: terms})
    idf = {t: v for (f, t), v in idf_map.items() if f == field}
    terms = [t for t in terms if t in idf]
    if not terms:
        return empty
    build_doc_values(index_dir, column)
    parts = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _top_hits_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": terms, "idf": idf, "avgdl": _avgdl(stats, field),
                "n_per_key": int(size_per_bucket)},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()  # <= keys x n x segments rows
    )
    if len(parts) == 0:
        return empty
    counts = (parts.drop_duplicates(["segment_id", "key"])
              .groupby("key")["seg_count"].sum())
    top_keys = counts.reset_index().sort_values(
        ["seg_count", "key"], ascending=[False, True]
    ).head(num_buckets)
    rows = []
    for key, cnt in zip(top_keys["key"], top_keys["seg_count"]):
        hits = (parts[parts["key"] == key]
                .sort_values(["score", "doc_id"], ascending=[False, True])
                .head(size_per_bucket))
        for rank, (_i, h) in enumerate(hits.iterrows(), start=1):
            rows.append((key, int(cnt), rank, int(h["doc_id"]),
                         float(h["score"])))
    return pa.table({
        "key": pa.array([r[0] for r in rows], pa.string()),
        "doc_count": pa.array([r[1] for r in rows], pa.int64()),
        "hit_rank": pa.array([r[2] for r in rows], pa.int64()),
        "doc_id": pa.array([r[3] for r in rows], pa.int64()),
        "score": pa.array([r[4] for r in rows], pa.float64()),
    })


def terms_agg(index_dir: str, query: str, column: str, size: int = 10,
              field: str = DEFAULT_FIELD,
              metric_field: str | None = None,
              concurrency: int | None = None) -> pa.Table:
    """ES ``terms`` aggregation over the docs matching an OR match query:
    top-``size`` values of ``column`` by (doc_count desc, key asc).
    ``metric_field`` adds an ``avg_word_count``-style metric sub-agg (the
    mean token count of the bucket's matching docs, from the index's
    per-field doc lengths). Distributed: segment partials bounded by
    distinct values, merged with a small ``groupby().sum``."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    empty = pa.table({"key": pa.array([], pa.string()),
                      "doc_count": pa.array([], pa.int64())})
    if metric_field is not None:
        empty = empty.append_column(
            "avg_word_count", pa.array([], pa.float64()))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, column)
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _terms_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": terms, "metric_field": metric_field,
            },
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
    )
    merged = (per_seg.groupby("key")
              .aggregate(Sum("doc_count"), Sum("metric_sum"))
              .to_pandas())
    if len(merged) == 0:
        return empty
    merged = merged.rename(columns={"sum(doc_count)": "doc_count",
                                    "sum(metric_sum)": "metric_sum"})
    merged = merged.sort_values(["doc_count", "key"],
                                ascending=[False, True]).head(size)
    out = {"key": pa.array(merged["key"], pa.string()),
           "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64())}
    if metric_field is not None:
        out["avg_word_count"] = pa.array(
            merged["metric_sum"].to_numpy()
            / merged["doc_count"].to_numpy(), pa.float64())
    return pa.table(out)


def _sig_terms_partials(batch: pa.Table, *, index_dir: str,
                        field: str, terms: list[str],
                        shard_size: int | None = None,
                        drop_ref=None) -> pa.Table:
    """Task: per-segment foreground doc-frequency partials — the matched
    docs' stored text re-tokenized, one (term, fg_count) row per distinct
    term. Work is O(matched docs' tokens), not O(segment vocabulary):
    texts come positionally from the segment's stored-field shard, so a
    query matching a sliver of a 100-TB corpus tokenizes only that
    sliver. ``drop_ref`` (significant_text's duplicate-text filter) is a
    ``ray.put`` sorted int64 array of doc ids to exclude."""
    import ray as _ray

    _stats, deleted = worker_state(index_dir)
    from ..functions import analyzers as an

    drop = _ray.get(drop_ref) if drop_ref is not None else None
    outs = []
    n_matched = 0
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if drop is not None and len(drop) and len(ids):
            pos = np.searchsorted(drop, ids)
            pos[pos == len(drop)] = 0
            ids = ids[drop[pos] != ids]
        if len(ids) == 0:
            continue
        n_matched += len(ids)
        dv = pq.read_table(_dv_path(index_dir, "text", seg_id),
                           columns=["doc_id", "text"])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        texts = dv["text"].combine_chunks().take(pa.array(pos))
        doc_idx, tokens, _dl = an.standard_tokenize_batch(texts)
        if len(doc_idx) == 0:
            continue
        # distinct (doc, term): doc frequency, not term frequency
        enc = pc.dictionary_encode(tokens.combine_chunks()
                                   if isinstance(tokens,
                                                 pa.ChunkedArray)
                                   else tokens)
        codes = np.asarray(enc.indices, dtype=np.int64)
        pair = np.unique(doc_idx.astype(np.int64)
                         * len(enc.dictionary) + codes)
        term_code = pair % len(enc.dictionary)
        cnt = np.bincount(term_code, minlength=len(enc.dictionary))
        nz = np.flatnonzero(cnt)
        if shard_size is not None and len(nz) > shard_size:
            # ES shard_size semantics: each shard ships only its top
            # candidates (fg_count desc, term asc) — the documented
            # approximation bound for huge foreground vocabularies
            tnames = np.array(enc.dictionary.take(pa.array(nz))
                              .to_pylist(), dtype=object)
            order = np.lexsort((tnames, -cnt[nz]))[:shard_size]
            nz = nz[order]
        outs.append(pa.table({
            "term": pc.cast(enc.dictionary.take(pa.array(nz)),
                            pa.string()),
            "fg_count": pa.array(cnt[nz], pa.int64()),
            "fg_docs": pa.array([0] * len(nz), pa.int64()),
        }))
    tot = pa.table({"term": pa.array([""], pa.string()),
                    "fg_count": pa.array([0], pa.int64()),
                    "fg_docs": pa.array([n_matched], pa.int64())})
    outs.append(tot)
    return pa.concat_tables(outs)


def significant_terms_agg(index_dir: str, query: str, size: int = 10,
                          field: str = DEFAULT_FIELD,
                          shard_size: int | None = None,
                          concurrency: int | None = None,
                          drop_ref=None) -> pa.Table:
    """ES ``significant_terms`` aggregation: terms over-represented in the
    docs matching an OR match query vs the whole corpus, scored with the
    JLH heuristic ``(fg% - bg%) * (fg% / bg%)`` (ES's default), positive
    scores only, top-``size`` by (score desc, term asc). Foreground doc
    frequencies come from re-tokenizing the matched slice; background doc
    frequencies from the global term dictionary (read only for the
    foreground's terms). Scores are rounded to 6 dp so the ordering is
    reproducible cross-engine. ``shard_size`` (ES semantics) caps each
    partial's candidate terms by fg_count — None is exact; set it when a
    broad query's foreground vocabulary would swamp the merge. It is a
    RECALL bound over high-fg-count candidates: reliable when the
    foreground's signature terms appear in most of its docs (the
    cluster-analysis / decontamination case), lossy for terms that are
    significant despite low foreground frequency — the same trade ES's
    default shard_size makes."""
    from ray.data.aggregate import Sum

    from .search import _read_term_dict

    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    if analyzer != "standard":
        raise ValueError(
            f"significant_terms re-tokenizes stored text and requires "
            f"the standard analyzer on {field!r}, got {analyzer!r}")
    terms = query_terms(query, analyzer)
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"term": pa.array([], pa.string()),
                      "fg_count": pa.array([], pa.int64()),
                      "bg_count": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, "text")  # stored-field shards, built once
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _sig_terms_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "terms": sorted(set(terms)),
                "shard_size": shard_size,
                "drop_ref": drop_ref},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby("term")
        .aggregate(Sum("fg_count", alias_name="fg_count"),
                   Sum("fg_docs", alias_name="fg_docs"))
        .to_pandas()  # bounded by the matched slice's vocabulary
    )
    fg_total = int(merged["fg_docs"].sum())
    merged = merged[merged["fg_count"] > 0]
    if fg_total == 0 or len(merged) == 0:
        return empty
    n_docs = int(stats["n_docs"])
    # background df for exactly the foreground terms. Small foregrounds
    # read via equality OR-chains (pyarrow prunes row groups for those but
    # NOT for isin); a large foreground vocabulary reads the dictionary
    # once and filters in memory.
    fg_terms = merged["term"].tolist()
    bg: dict[str, int] = {}
    if len(fg_terms) <= 1000:
        ts_dir = os.path.join(index_dir, "term_stats")
        files = [os.path.join(ts_dir, f)
                 for f in sorted(os.listdir(ts_dir))
                 if f.endswith(".parquet")]
        CH = 200
        for i in range(0, len(fg_terms), CH):
            flt = _term_filters({field: fg_terms[i:i + CH]})
            sel = pq.read_table(files, columns=["term", "df"],
                                filters=flt)
            for t, d in zip(sel["term"].to_pylist(),
                            sel["df"].to_pylist()):
                bg[t] = bg.get(t, 0) + int(d)
    else:
        td = _read_term_dict(index_dir, field)
        sel = td.filter(pc.is_in(td["term"], pa.array(fg_terms)))
        for t, d in zip(sel["term"].to_pylist(), sel["df"].to_pylist()):
            bg[t] = bg.get(t, 0) + int(d)
    fg_cnt = merged["fg_count"].to_numpy(dtype=np.float64)
    bg_cnt = np.array([bg.get(t, 0) for t in fg_terms], dtype=np.float64)
    fg_pct = fg_cnt / fg_total
    bg_pct = np.where(bg_cnt > 0, bg_cnt / n_docs, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(bg_pct > 0,
                         (fg_pct - bg_pct) * (fg_pct / bg_pct), 0.0)
    score = np.round(score, 6)
    keep = score > 0
    out = pd.DataFrame({"term": np.array(fg_terms, dtype=object)[keep],
                        "fg_count": fg_cnt[keep].astype(np.int64),
                        "bg_count": bg_cnt[keep].astype(np.int64),
                        "score": score[keep]})
    out = out.sort_values(["score", "term"],
                          ascending=[False, True]).head(size)
    return pa.table({
        "term": pa.array(out["term"].tolist(), pa.string()),
        "fg_count": pa.array(out["fg_count"].to_numpy(), pa.int64()),
        "bg_count": pa.array(out["bg_count"].to_numpy(), pa.int64()),
        "score": pa.array(out["score"].to_numpy(), pa.float64()),
    })


def _sampler_partials(batch: pa.Table, *, index_dir: str, column: str,
                      field: str, terms: list[str], idf: dict,
                      avgdl: float, shard_size: int) -> pa.Table:
    """Task: per-segment top-``shard_size`` matched docs by BM25 (the
    serving-path scoring convention) with their ``column`` doc-values —
    rows bounded by shard_size per segment."""
    from . import codec

    _stats, deleted = worker_state(index_dir)
    out_d, out_sc, out_v = [], [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        runs = _segment_postings(index_dir, seg_id, field, terms,
                                 with_tf=True)
        if not runs:
            continue
        all_ids = [ids for rs in runs.values() for ids, _tfs in rs]
        loc = np.unique(np.concatenate(all_ids))
        docs = pq.read_table(seg_docs_path(index_dir, seg_id),
                             columns=["doc_id", _dl_column(field)])
        base = int(docs["doc_id"][0].as_py())
        dl = docs[_dl_column(field)].to_numpy().astype(np.float64)
        sc = np.zeros(len(loc), dtype=np.float64)
        for t in terms:  # lexicographic accumulation order
            for ids, tfs in runs.get(t, []):
                sc[np.searchsorted(loc, ids)] += idf[t] * \
                    codec.bm25_tf_impact(tfs.astype(np.float64),
                                         dl[ids - base], avgdl)
        if len(deleted):
            keep = _drop_deleted(deleted, loc)
            loc, sc = loc[keep], sc[keep]
        if len(loc) == 0:
            continue
        r = np.round(sc, 6)
        sel = np.lexsort((loc, -r))[:shard_size]
        loc, r = loc[sel], r[sel]
        dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                           columns=["doc_id", column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), loc)
        vals = dv[column].combine_chunks().take(pa.array(pos))
        out_d.extend(loc.tolist())
        out_sc.extend(r.tolist())
        out_v.append(vals)
    return pa.table({
        "doc_id": pa.array(out_d, pa.int64()),
        "score": pa.array(out_sc, pa.float64()),
        "value": (pc.cast(pa.concat_arrays(
            [v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
             for v in out_v]), pa.string())
            if out_v else pa.array([], pa.string())),
    })


def sampler_terms_agg(index_dir: str, query: str, column: str,
                      shard_size: int = 100, num_buckets: int = 10,
                      field: str = DEFAULT_FIELD,
                      concurrency: int | None = None) -> pa.Table:
    """ES ``sampler`` aggregation with a ``terms`` sub-aggregation: the
    sub-agg sees only the top-``shard_size`` matched docs by relevance.
    This index is one logical shard, so the sample is the exact GLOBAL
    top-``shard_size`` (score desc, doc_id asc) — per-segment
    top-shard_size partials merged on the driver (bounded by
    segments x shard_size, never doc count), then one bincount over the
    <= shard_size sampled values. ES's per-shard sampling is the
    multi-shard generalization of the same partials."""
    from .search import _avgdl, load_global_idf

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.string()),
                      "doc_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    idf_map, _dfs, _n = load_global_idf(index_dir, {field: terms})
    idf = {t: v for (f, t), v in idf_map.items() if f == field}
    terms = [t for t in terms if t in idf]
    if not terms:
        return empty
    build_doc_values(index_dir, column)
    parts = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _sampler_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": sorted(set(terms)), "idf": idf,
                "avgdl": _avgdl(stats, field),
                "shard_size": int(shard_size)},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()  # <= segments x shard_size rows
    )
    if len(parts) == 0:
        return empty
    parts = parts.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(shard_size)
    counts = (parts.dropna(subset=["value"]).groupby("value").size()
              .reset_index(name="doc_count")
              .sort_values(["doc_count", "value"],
                           ascending=[False, True]).head(num_buckets))
    return pa.table({
        "key": pa.array(counts["value"].tolist(), pa.string()),
        "doc_count": pa.array(counts["doc_count"].to_numpy(), pa.int64()),
    })


def _text_hash_partials(batch: pa.Table, *, index_dir: str, field: str,
                        terms: list[str]) -> pa.Table:
    """Task: (md5(text), doc_id) for each matched doc in the segment —
    the duplicate-text probe for significant_text."""
    import hashlib

    _stats, deleted = worker_state(index_dir)
    out_h, out_d = [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dv = pq.read_table(_dv_path(index_dir, "text", seg_id),
                           columns=["doc_id", "text"])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        texts = dv["text"].combine_chunks().take(pa.array(pos))
        out_h.extend(hashlib.md5(
            (x or "").encode()).hexdigest() for x in texts.to_pylist())
        out_d.extend(ids.tolist())
    return pa.table({"h": pa.array(out_h, pa.string()),
                     "doc_id": pa.array(out_d, pa.int64())})


def significant_text_agg(index_dir: str, query: str, size: int = 10,
                         field: str = DEFAULT_FIELD,
                         filter_duplicate_text: bool = True,
                         concurrency: int | None = None) -> pa.Table:
    """ES ``significant_text`` aggregation: significant_terms computed
    directly from the matched docs' stored text (which is exactly how
    this engine's significant_terms already gets its foreground), plus
    ES's ``filter_duplicate_text`` — duplicate docs (same text bytes)
    are counted ONCE, keeping the lowest doc_id, so boilerplate/mirror
    pages cannot manufacture significance. Doc-level hash dedup is the
    documented simplification of ES's paragraph-level near-dup filter.

    The drop set is found by a per-segment (md5, doc_id) probe over the
    matched slice merged through one groupby — O(matched docs), the
    exact_dedup shape — and shipped to the fg partials via ``ray.put``
    (bounded by the number of duplicate docs)."""
    import ray as _ray

    if not filter_duplicate_text:
        return significant_terms_agg(index_dir, query, size, field=field,
                                     concurrency=concurrency)
    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    terms = query_terms(query, analyzer)
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"term": pa.array([], pa.string()),
                      "fg_count": pa.array([], pa.int64()),
                      "bg_count": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, "text")

    def _dups(df: pd.DataFrame) -> pd.DataFrame:
        # all but the lowest doc_id of each identical-text group
        return df[df["doc_id"] != df["doc_id"].min()][["doc_id"]]

    drops = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _text_hash_partials,
            fn_kwargs={"index_dir": index_dir, "field": field,
                       "terms": sorted(set(terms))},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby("h")
        .map_groups(_dups, batch_format="pandas")
        .to_pandas()  # bounded by the number of DUPLICATE docs
    )
    drop_ids = (np.sort(drops["doc_id"].to_numpy(np.int64))
                if len(drops) and "doc_id" in drops.columns
                else np.empty(0, np.int64))
    drop_ref = _ray.put(drop_ids)
    return significant_terms_agg(index_dir, query, size, field=field,
                                 concurrency=concurrency,
                                 drop_ref=drop_ref)


def _range_key(frm, to) -> str:
    """ES range-bucket key: ``*-10``, ``10-20``, ``20-*``."""
    lo = "*" if frm is None else str(int(frm))
    hi = "*" if to is None else str(int(to))
    return f"{lo}-{hi}"


def range_agg(index_dir: str, query: str, ranges: list[tuple],
              field: str = DEFAULT_FIELD,
              metric_field: str | None = None,
              concurrency: int | None = None) -> pa.Table:
    """ES ``range`` aggregation over the matching docs' token counts:
    explicit buckets ``[from, to)`` (either end open, overlaps allowed —
    each range counts independently, exactly like ES). Every requested
    bucket is returned, zero or not, in the requested order. Per-segment
    partials are one int per range; the merge is a groupby-sum over
    ``len(ranges)`` keys."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    norm = [(None if frm is None else int(frm),
             None if to is None else int(to)) for frm, to in ranges]
    keys = pa.array([_range_key(f, t) for f, t in norm], pa.string())
    if not terms or not seg_ids:
        return pa.table({"range_key": keys,
                         "doc_count": pa.array([0] * len(norm), pa.int64())})
    per_seg = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _dl_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "metric_field": metric_field or field,
                "interval": None, "ranges": norm},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
    )
    merged = (per_seg.groupby("range_idx").aggregate(Sum("doc_count"))
              .to_pandas().rename(columns={"sum(doc_count)": "doc_count"}))
    counts = np.zeros(len(norm), dtype=np.int64)
    counts[merged["range_idx"].to_numpy()] = merged["doc_count"].to_numpy()
    return pa.table({"range_key": keys,
                     "doc_count": pa.array(counts, pa.int64())})


def percentiles_agg(index_dir: str, query: str,
                    percents: tuple = (1, 5, 25, 50, 75, 95, 99),
                    field: str = DEFAULT_FIELD,
                    metric_field: str | None = None,
                    concurrency: int | None = None) -> pa.Table:
    """ES ``percentiles`` aggregation over the matching docs' token
    counts (default percents match ES). ES approximates with TDigest;
    token counts are integers, so the interval-1 histogram partials are a
    LOSSLESS compression of the full distribution and the interpolated
    quantiles are exact (quantile_cont convention: linear between order
    statistics — same convention as the quality_percentiles entry)."""
    hist = histogram_agg(index_dir, query, 1, field, metric_field,
                         concurrency).to_pandas()
    cols = {f"p{int(p)}": [None] for p in percents}
    if len(hist) == 0:
        return pa.table({k: pa.array(v, pa.float64())
                         for k, v in cols.items()})
    vals = hist["key"].to_numpy(dtype=np.float64)
    cnts = hist["doc_count"].to_numpy(dtype=np.int64)
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    out = {}
    for p in percents:
        h = (n - 1) * (p / 100.0)
        lo_i = int(np.searchsorted(cum, np.floor(h) + 1, side="left"))
        hi_i = int(np.searchsorted(cum, np.floor(h) + 2, side="left"))
        lo_v = vals[lo_i]
        hi_v = vals[min(hi_i, len(vals) - 1)]
        v = lo_v + (h - np.floor(h)) * (hi_v - lo_v)
        out[f"p{int(p)}"] = pa.array([round(float(v), 4)], pa.float64())
    return pa.table(out)


def rare_terms_agg(index_dir: str, query: str, column: str,
                   max_doc_count: int = 3,
                   field: str = DEFAULT_FIELD,
                   concurrency: int | None = None) -> pa.Table:
    """ES ``rare_terms`` aggregation: the long tail the terms agg's
    size-cut hides — bucket values of ``column`` whose matched-doc count
    is <= ``max_doc_count``, key-ascending. Same per-segment partials as
    terms_agg (bounded by distinct values); the rarity cut happens after
    the exact groupby-sum merge, so there is no false-negative risk (ES
    itself approximates with a CuckooFilter at scale; the exact merge is
    this engine's equivalent of `precision` at its max)."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    empty = pa.table({"key": pa.array([], pa.string()),
                      "doc_count": pa.array([], pa.int64())})
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, column)
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _terms_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": terms, "metric_field": None},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby("key")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    if len(merged) == 0:
        return empty
    merged = merged[merged["doc_count"] <= int(max_doc_count)]
    merged = merged.sort_values("key")
    return pa.table({
        "key": pa.array(merged["key"], pa.string()),
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


def percentile_ranks_agg(index_dir: str, query: str,
                         values: tuple = (8, 16, 32),
                         field: str = DEFAULT_FIELD,
                         metric_field: str | None = None,
                         concurrency: int | None = None) -> pa.Table:
    """ES ``percentile_ranks`` aggregation: for each requested value, the
    percentage of the matching docs' token counts that are <= it —
    the inverse of percentiles. Same interval-1 histogram partials
    (lossless for integer values), so the ranks are exact:
    ``100 * count(v <= x) / n`` with one fixed float expression shape
    mirrored by the SQL oracle."""
    hist = histogram_agg(index_dir, query, 1, field, metric_field,
                         concurrency).to_pandas()
    if len(hist) == 0:
        return pa.table({"value": pa.array([int(v) for v in values],
                                           pa.int64()),
                         "rank_pct": pa.array([None] * len(values),
                                              pa.float64())})
    keys = hist["key"].to_numpy(dtype=np.int64)
    cnts = hist["doc_count"].to_numpy(dtype=np.int64)
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    ranks = []
    for v in values:
        i = int(np.searchsorted(keys, int(v), side="right"))
        le = int(cum[i - 1]) if i > 0 else 0
        ranks.append(100.0 * le / n)
    return pa.table({
        "value": pa.array([int(v) for v in values], pa.int64()),
        "rank_pct": pa.array(ranks, pa.float64()),
    })


def _card_agg_partials(batch: pa.Table, *, index_dir: str,
                       column: str, field: str, terms: list[str],
                       threshold: int) -> pa.Table:
    """Task: per-segment cardinality partials for one broadcast query.

    ES ``cardinality`` semantics: exact below ``precision_threshold``,
    HyperLogLog above. A segment whose matched-distinct count fits the
    threshold emits its distinct values verbatim (bounded rows); a bigger
    one emits a single 16 KiB HLL register row. The merge promotes to the
    sketch only if the union outgrows the threshold — like ES's
    sparse-to-dense HLL++ promotion, the answer is exact whenever the true
    cardinality is under the threshold."""
    _stats, deleted = worker_state(index_dir)
    from ..functions.hll import fnv64_strings, hll_partial

    vals: list[str] = []
    regs = None
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        dvp = _dv_path(index_dir, column, seg_id)
        dv = pq.read_table(dvp, columns=["doc_id", column])
        dv_ids = dv["doc_id"].to_numpy()
        pos = np.searchsorted(dv_ids, ids)
        seg_vals = dv[column].combine_chunks().take(pa.array(pos))
        # ES cardinality ignores missing values; dropping nulls here
        # also keeps the exact and sketch paths' identities consistent
        distinct = pc.drop_null(pc.unique(seg_vals))
        if len(distinct) <= threshold:
            vals.extend(str(v) for v in distinct.to_pylist())
        else:
            part = hll_partial(fnv64_strings(distinct))
            regs = part if regs is None else np.maximum(regs, part)
    rows_v = sorted(set(vals))
    out_regs: list = [None] * len(rows_v)
    if regs is not None:
        rows_v.append(None)
        out_regs.append(regs.tolist())
    return pa.table({
        "value": pa.array(rows_v, pa.string()),
        "regs": pa.array(out_regs, pa.list_(pa.int64())),
    })


def cardinality_agg(index_dir: str, query: str, column: str,
                    precision_threshold: int = 3000,
                    field: str = DEFAULT_FIELD,
                    concurrency: int | None = None) -> pa.Table:
    """ES ``cardinality`` aggregation: distinct ``column`` values among the
    docs matching an OR match query. Exact when the true cardinality is
    <= ``precision_threshold`` (ES default 3000, max 40000); otherwise a
    HyperLogLog estimate (p=14, ~0.8% error). Returns one row
    (cardinality, is_approx)."""
    from ..functions.hll import fnv64_strings, hll_estimate, hll_partial

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return pa.table({"cardinality": pa.array([0], pa.int64()),
                         "is_approx": pa.array([False], pa.bool_())})
    build_doc_values(index_dir, column)
    parts = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _card_agg_partials,
            fn_kwargs={
                "index_dir": index_dir, "column": column, "field": field,
                "terms": terms,
                "threshold": int(precision_threshold)},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .take_all()  # bounded: <= threshold values or one register row
    )
    exact: set = set()
    regs = None
    for row in parts:
        if row["value"] is not None:
            exact.add(row["value"])
        else:
            r = np.asarray(row["regs"], dtype=np.int64)
            regs = r if regs is None else np.maximum(regs, r)
    if regs is None and len(exact) <= precision_threshold:
        return pa.table({
            "cardinality": pa.array([len(exact)], pa.int64()),
            "is_approx": pa.array([False], pa.bool_())})
    # promote: fold the exact values into the sketch and estimate
    if exact:
        part = hll_partial(fnv64_strings(
            pa.array(sorted(exact), pa.string())))
        regs = part if regs is None else np.maximum(regs, part)
    return pa.table({
        "cardinality": pa.array([round(hll_estimate(regs))], pa.int64()),
        "is_approx": pa.array([True], pa.bool_())})


def multi_terms_agg(index_dir: str, query: str,
                    columns: tuple[str, ...] = ("lang", "source"),
                    size: int = 10, field: str = DEFAULT_FIELD,
                    concurrency: int | None = None) -> pa.Table:
    """ES ``multi_terms`` aggregation: buckets are VALUE TUPLES of the
    source columns (``["lang", "source"]``-style terms list), ordered by
    (doc_count desc, keys asc), top ``size`` — the non-paginated sibling
    of :func:`composite_agg`. Per-segment partials are the composite
    partials (bounded by distinct tuples per segment); the merge is a
    multi-key ``groupby().sum`` and the order-by + cut happens on the
    reduced bucket list, exactly where ES's coordinator does it. Docs
    missing ANY source value are skipped (ES multi_terms semantics)."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    srcs = list(columns)
    empty = pa.table({**{c: pa.array([], pa.string()) for c in srcs},
                      "doc_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    for c in srcs:
        build_doc_values(index_dir, c)
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _composite_partials,
            fn_kwargs={
                "index_dir": index_dir, "columns": srcs, "field": field,
                "terms": terms},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby(srcs)
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    if len(merged) == 0:
        return empty
    merged = merged.sort_values(
        ["doc_count", *srcs], ascending=[False] + [True] * len(srcs)
    ).head(size)
    return pa.table({
        **{c: pa.array(merged[c].astype(str), pa.string()) for c in srcs},
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


def _weighted_avg_partials(batch: pa.Table, *, index_dir: str, field: str,
                           terms: list[str], weight_column: str) -> pa.Table:
    """Task: per-segment weighted_avg partials — integer sums of
    (weight * value) and weight over the matched docs, so the final
    division is the only float op (bitwise-stable across partitionings).
    Value = the field's per-doc token count (docs table); weight = the
    doc's ``weight_column`` timestamp in whole hours since the Unix epoch
    (doc-values shard). Docs with a null weight are skipped (ES
    weighted_avg skip-missing)."""
    _stats, deleted = worker_state(index_dir)
    swv, sw, n = 0, 0, 0
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field, terms)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", _dl_column(field)])
        dlv = docs[_dl_column(field)].to_numpy()
        base = int(docs["doc_id"][0].as_py())
        v = dlv[ids - base].astype(np.int64)
        dv = pq.read_table(_dv_path(index_dir, weight_column, seg_id),
                           columns=["doc_id", weight_column])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
        wcol = dv[weight_column].combine_chunks().take(pa.array(pos))
        ok = np.asarray(pc.is_valid(wcol))
        # timestamp[us] -> whole hours since epoch; integer floordiv
        # BEFORE any float conversion (raw microseconds exceed float64's
        # exact-integer range for far-future dates)
        w = np.asarray(pc.fill_null(wcol.cast(pa.int64()), 0),
                       dtype=np.int64) // 3_600_000_000
        w = w[ok]
        v = v[ok]
        swv += int((w * v).sum())
        sw += int(w.sum())
        n += len(v)
    return pa.table({"sum_wv": pa.array([swv], pa.int64()),
                     "sum_w": pa.array([sw], pa.int64()),
                     "n": pa.array([n], pa.int64())})


def weighted_avg_agg(index_dir: str, query: str,
                     weight_column: str = "warc_ts",
                     field: str = DEFAULT_FIELD,
                     concurrency: int | None = None) -> pa.Table:
    """ES ``weighted_avg`` aggregation over the matching docs:
    ``sum(weight * value) / sum(weight)`` with value = the doc's token
    count and weight = its ``weight_column`` timestamp in whole hours
    since the Unix epoch (a deterministic numeric doc-value; real users
    plug a ratings/votes column the same way). Per-segment partials are
    two INTEGER sums, so the single final division is the only float op
    — exact at any partitioning."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"weighted_avg": pa.array([], pa.float64()),
                      "value_count": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    build_doc_values(index_dir, weight_column)
    parts = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _weighted_avg_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "weight_column": weight_column},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()  # bounded: one 3-int row per task
    )
    sw = int(parts["sum_w"].sum())
    n = int(parts["n"].sum())
    if n == 0 or sw == 0:
        return empty
    wavg = round(float(parts["sum_wv"].sum()) / float(sw), 6)
    return pa.table({"weighted_avg": pa.array([wavg], pa.float64()),
                     "value_count": pa.array([n], pa.int64())})


def _adjacency_partials(batch: pa.Table, *, index_dir: str, field: str,
                        named_terms: list[tuple[str, list[str]]]
                        ) -> pa.Table:
    """Task: per-segment adjacency_matrix partials — matched-id sets per
    named filter, then every single and pairwise-intersection count.
    Output is bounded by ``n_filters^2`` rows per segment batch."""
    _stats, deleted = worker_state(index_dir)
    agg: dict[str, int] = {}
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        sets = []
        for name, terms in named_terms:
            ids = _matched_ids(index_dir, seg_id, field, terms)
            if len(deleted) and len(ids):
                ids = ids[_drop_deleted(deleted, ids)]
            sets.append((name, ids))
        for i, (na, ia) in enumerate(sets):
            if len(ia):
                agg[na] = agg.get(na, 0) + len(ia)
            for nb, ib in sets[i + 1:]:
                both = len(np.intersect1d(ia, ib, assume_unique=True))
                if both:
                    key = f"{na}&{nb}"
                    agg[key] = agg.get(key, 0) + both
    ks = sorted(agg)
    return pa.table({"key": pa.array(ks, pa.string()),
                     "doc_count": pa.array([agg[k] for k in ks], pa.int64())})


def adjacency_matrix_agg(index_dir: str, filters: dict[str, str],
                         field: str = DEFAULT_FIELD,
                         concurrency: int | None = None) -> pa.Table:
    """ES ``adjacency_matrix`` aggregation: one bucket per named filter
    plus one per PAIR intersection (key ``"a&b"``, names in sorted order
    — ES's separator), counting docs matching both. Only non-empty
    buckets are returned (ES semantics), key-ascending. Per-segment
    partials compute the intersections locally on sorted id arrays
    (doc ids never leave the task), merged with a tiny groupby-sum —
    O(filters^2) rows total regardless of corpus size."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    named_terms = [(name, query_terms(filters[name], analyzer))
                   for name in sorted(filters)]
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"key": pa.array([], pa.string()),
                      "doc_count": pa.array([], pa.int64())})
    if not seg_ids or not named_terms:
        return empty
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _adjacency_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "named_terms": named_terms},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby("key")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    if len(merged) == 0:
        return empty
    merged = merged.sort_values("key")
    return pa.table({
        "key": pa.array(merged["key"], pa.string()),
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })
