"""Search-time aggregations (ES ``aggs`` analogue) over the segment index.

ES pairs a query with aggregations computed over ALL matching documents
(not the top-k page): ``terms`` buckets a keyword field by doc count,
optionally carrying metric sub-aggregations. The reference delegates this
to ElasticSearch; here it is Lucene's per-shard global-ordinals pattern on
the segment fan-out that serves search:

* **doc-values / stored-field shards**
  (``docvalues/<column>/segment=K.parquet``): one (doc_id, value) file
  per segment, built once per (index, column). A whole generation's
  shards come from ONE range-partition exchange over its corpus (rows
  routed to segments by the build's own url boundaries, joined to each
  segment's docs table) — corpus files span the full url keyspace, so
  per-segment filtered reads would each scan the whole corpus. The
  Lucene doc-values / stored-fields analogue, and the piece that makes
  aggregation, export and snippeting segment-local.
* **partials**: :func:`..search.map_segment_groups` runs one Ray task per
  contiguous segment group, on a ``LocalSearcher`` bound to the group.
  The task takes the matched docs from ``LocalSearcher.matched_ids``
  (tombstoned docs already dropped) — or the scored ones from its
  exhaustive OR scorer — reads their values segment by segment, and
  reduces them to a partial bounded by the bucket count (or k x groups),
  never by the doc count.
* **merge**: the driver concatenates the groups' partials and reduces
  them with pandas/numpy (a per-key sum for bucket aggs), then cuts the
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

from .build import seg_docs_path
from .search import (
    DEFAULT_FIELD,
    _avgdl,
    _field_analyzer,
    SortedTermFile,
    _global_df,
    _load_stats,
    _term_stats_paths,
    _visible_seg_ids,
    map_segment_groups,
    query_terms,
)


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

    map_segment_groups(index_dir, fallback, _build_dv_shards, column)


def _build_dv_shards(searcher, column: str) -> None:
    for seg_id in searcher.seg_ids:
        _build_dv_shard(searcher.index_dir, seg_id, column)


def _dv_take(index_dir: str, column: str, seg_id: int,
             ids: np.ndarray) -> pa.Array:
    """``column`` doc-values of the sorted ``ids`` of one segment (the
    shard is positionally aligned to the segment's doc ids)."""
    dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                       columns=["doc_id", column])
    pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
    return dv[column].combine_chunks().take(pa.array(pos))


def _dv_values(searcher, column: str, ids: np.ndarray) -> pa.Array:
    """``column`` doc-values of the sorted, non-empty ``ids`` (all in the
    searcher's segments), read segment by segment."""
    parts = [_dv_take(searcher.index_dir, column, seg_id, seg_ids)
             for seg_id, seg_ids in searcher.split_by_segment(ids)]
    # shards of different generations may type a column differently
    # (string vs large_string, from each corpus's schema)
    return pa.concat_arrays([p.cast(parts[0].type) for p in parts])


def _str_keys(vals: pa.Array) -> np.ndarray:
    """Object array of ``str(value)`` per row, None for nulls (``str``
    runs once per distinct value)."""
    enc = pc.dictionary_encode(vals)
    names = np.array([str(v) for v in enc.dictionary.to_pylist()] + [None],
                     dtype=object)
    return names[np.asarray(pc.fill_null(enc.indices, len(enc.dictionary)),
                            dtype=np.int64)]


def _scored(searcher, field: str, terms: list[str]
            ) -> tuple[np.ndarray, np.ndarray]:
    """(doc ids ascending, scores rounded to 6 dp) of every live doc
    matching the OR query: the searcher's exhaustive scorer, uncut, so
    scores are the serving path's bitwise."""
    idf = searcher._idf(field, terms)
    terms = [t for t in sorted(set(terms)) if t in idf]
    if not terms or not searcher.term_files:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    ids, sc = searcher._search_exact(
        field, terms, max(searcher.n_docs, 1), idf,
        searcher._dl_for(field), _avgdl(searcher.stats, field))
    order = np.argsort(ids)
    return ids[order], np.round(sc[order], 6)


def _run_partials(index_dir: str, query: str, field: str, fn, *args,
                  columns: tuple = ()) -> list:
    """Analyze ``query`` with ``field``'s analyzer, build ``columns``'
    doc-values, then run ``fn(searcher, field, terms, *args)`` on every
    segment group -> the groups' partials, ``None`` ones dropped; ``[]``
    when the query has no terms or the index no visible segment."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not terms or not seg_ids:
        return []
    for c in columns:
        build_doc_values(index_dir, c)
    return [p for p in map_segment_groups(index_dir, seg_ids, fn, field,
                                          terms, *args) if p is not None]


def _sum_by(parts: list[pd.DataFrame], keys) -> pd.DataFrame:
    """The driver merge of bucket partials: rows summed per key, sorted
    by key."""
    return (pd.concat(parts, ignore_index=True)
            .groupby(keys, as_index=False, sort=True).sum())


def _hist_partial(searcher, field: str, terms: list[str],
                  metric_field: str, interval: int):
    """Group partial: histogram bucket counts of the matched docs'
    ``metric_field`` token counts."""
    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    v = searcher._dl_for(metric_field)[ids].astype(np.int64)
    key, count = np.unique((v // interval) * interval, return_counts=True)
    return pd.DataFrame({"key": key, "doc_count": count})


def histogram_agg(index_dir: str, query: str, interval: int,
                  field: str = DEFAULT_FIELD,
                  metric_field: str | None = None) -> pa.Table:
    """ES ``histogram`` aggregation over the matching docs' token counts:
    buckets keyed ``floor(v / interval) * interval``, key-ascending.
    ``min_doc_count=1`` semantics — only non-empty buckets are returned
    (ES's default 0 would interpolate empties). Group partials are
    bounded by the bucket count, merged with a per-key sum."""
    parts = _run_partials(index_dir, query, field, _hist_partial,
                          metric_field or field, int(interval))
    merged = (_sum_by(parts, "key") if parts
              else pd.DataFrame({"key": [], "doc_count": []}))
    return pa.table({
        "key": pa.array(merged["key"].to_numpy(np.int64), pa.int64()),
        "doc_count": pa.array(merged["doc_count"].to_numpy(np.int64),
                              pa.int64()),
    })


def _dl_moments(index_dir: str, query: str, field: str,
                metric_field: str | None) -> tuple | None:
    """Exact integer (count, min, max, sum, sum of squares) of the
    matching docs' token counts, from the interval-1 histogram (a lossless
    compression of integer values); None when nothing matches."""
    hist = histogram_agg(index_dir, query, 1, field, metric_field)
    if hist.num_rows == 0:
        return None
    k = hist["key"].to_numpy()
    c = hist["doc_count"].to_numpy()
    return (int(c.sum()), int(k[0]), int(k[-1]), int((k * c).sum()),
            int((k * k * c).sum()))


# "week" is NOT a numpy cast: M8[W] weeks are Thursday-epoch (1970-01-01)
# while the ES/SQL convention is ISO Monday — the sentinel makes the
# partials truncate via day-number arithmetic instead
_ISO_WEEK = "isoweek"
_CAL_UNITS = {"hour": "h", "day": "D", "week": _ISO_WEEK, "month": "M",
              "year": "Y"}


def _matched_ts(searcher, field: str, terms: list[str],
                column: str) -> np.ndarray:
    """The matched docs' non-null ``column`` timestamps (datetime64)."""
    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return np.empty(0, "M8[us]")
    arr = _dv_values(searcher, column, ids).to_numpy(zero_copy_only=False)
    return arr[~np.isnat(arr)]


def _date_hist_partial(searcher, field: str, terms: list[str],
                       column: str, unit: str):
    """Group partial: date_histogram bucket counts — the matched docs'
    ``column`` timestamps truncated to the calendar unit. Docs with a
    null timestamp are skipped (ES skip-missing)."""
    arr = _matched_ts(searcher, field, terms, column)
    if len(arr) == 0:
        return None
    if unit == _ISO_WEEK:
        # ISO-Monday truncation: 1970-01-01 is a Thursday, so day
        # number d has Monday-based weekday (d + 3) % 7
        days = arr.astype("M8[D]").astype(np.int64)
        days -= (days + 3) % 7
        tr = days.astype("M8[D]").astype("M8[us]").astype(np.int64)
    else:
        tr = arr.astype(f"M8[{unit}]").astype("M8[us]").astype(np.int64)
    key, count = np.unique(tr, return_counts=True)
    return pd.DataFrame({"key_us": key, "doc_count": count})


def date_histogram_agg(index_dir: str, query: str,
                       calendar_interval: str = "day",
                       column: str = "warc_ts",
                       field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``date_histogram`` (calendar_interval hour/day/week/month/year)
    over the matching docs' ``column`` timestamps: buckets keyed by the
    truncated calendar boundary, key-ascending, ``min_doc_count=1``
    semantics. Group partials are bounded by distinct buckets, merged
    with a per-key sum — the terms/histogram shape."""
    if calendar_interval not in _CAL_UNITS:
        raise ValueError(f"unsupported calendar_interval "
                         f"{calendar_interval!r} (have {list(_CAL_UNITS)})")
    parts = _run_partials(index_dir, query, field, _date_hist_partial,
                          column, _CAL_UNITS[calendar_interval],
                          columns=(column,))
    merged = (_sum_by(parts, "key_us") if parts
              else pd.DataFrame({"key_us": [], "doc_count": []}))
    return pa.table({
        "key": pa.array(merged["key_us"].to_numpy(np.int64).astype("M8[us]"),
                        pa.timestamp("us")),
        "doc_count": pa.array(merged["doc_count"].to_numpy(np.int64),
                              pa.int64()),
    })


def _ts_span_partial(searcher, field: str, terms: list[str], column: str):
    """Group partial: (min, max) of the matched docs' non-null ``column``
    timestamps, as int64 microseconds."""
    arr = _matched_ts(searcher, field, terms, column)
    if len(arr) == 0:
        return None
    us = arr.astype("M8[us]").astype(np.int64)
    return int(us.min()), int(us.max())


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
                            field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``auto_date_histogram``: pick the finest calendar interval
    from the ladder (hour → day → week → month → year) whose
    span-implied bucket count fits ``target_buckets``, then histogram
    at that interval; the chosen interval is returned as a constant
    column (ES returns it in the agg metadata). The decision needs only
    the matched span — one (min, max) pair per segment group — never a
    trial histogram per rung."""
    spans = _run_partials(index_dir, query, field, _ts_span_partial, column,
                          columns=(column,))
    if not spans:
        return pa.table({"key": pa.array([], pa.timestamp("us")),
                         "doc_count": pa.array([], pa.int64()),
                         "interval": pa.array([], pa.string())})
    mn = min(s[0] for s in spans)
    mx = max(s[1] for s in spans)
    unit = _AUTO_LADDER[-1]
    for cand in _AUTO_LADDER:
        if _span_buckets(mn, mx, cand) <= target_buckets:
            unit = cand
            break
    base = date_histogram_agg(index_dir, query, unit, column=column,
                              field=field)
    return base.append_column(
        "interval", pa.array([unit] * base.num_rows, pa.string()))


def stats_agg(index_dir: str, query: str, field: str = DEFAULT_FIELD,
              metric_field: str | None = None) -> pa.Table:
    """ES ``stats`` aggregation over the matching docs' token counts:
    one row (doc_count, min, max, sum, avg). The moments are exact
    integers (see :func:`_dl_moments`), so only the final avg is float."""
    m = _dl_moments(index_dir, query, field, metric_field)
    if m is None:
        return pa.table({"doc_count": pa.array([0], pa.int64()),
                         "min_word_count": pa.array([None], pa.int64()),
                         "max_word_count": pa.array([None], pa.int64()),
                         "sum_word_count": pa.array([0], pa.int64()),
                         "avg_word_count": pa.array([None], pa.float64())})
    cnt, mn, mx, sm, _sq = m
    return pa.table({
        "doc_count": pa.array([cnt], pa.int64()),
        "min_word_count": pa.array([mn], pa.int64()),
        "max_word_count": pa.array([mx], pa.int64()),
        "sum_word_count": pa.array([sm], pa.int64()),
        "avg_word_count": pa.array([sm / cnt], pa.float64()),
    })


def extended_stats_agg(index_dir: str, query: str,
                       field: str = DEFAULT_FIELD,
                       metric_field: str | None = None) -> pa.Table:
    """ES ``extended_stats`` aggregation over the matching docs' token
    counts: stats plus sum_of_squares, (population) variance and
    std_deviation, Lucene's ExtendedStats reduce. The moments are exact
    integers (count, min, max, sum, sum of squares); only the final
    moments are float, computed with one fixed expression shape
    (``sq/n - (s/n)*(s/n)``) mirrored by the SQL oracle so the hash
    compare is bitwise-stable."""
    m = _dl_moments(index_dir, query, field, metric_field)
    if m is None:
        return pa.table({"doc_count": pa.array([0], pa.int64()),
                         "min_word_count": pa.array([None], pa.int64()),
                         "max_word_count": pa.array([None], pa.int64()),
                         "sum_word_count": pa.array([0], pa.int64()),
                         "sum_of_squares": pa.array([0], pa.int64()),
                         "avg_word_count": pa.array([None], pa.float64()),
                         "variance": pa.array([None], pa.float64()),
                         "std_deviation": pa.array([None], pa.float64())})
    cnt, mn, mx, sm, sq = m
    mean = sm / cnt
    # population variance, clamped at 0 against FP cancellation — the SQL
    # oracle uses the identical expression (greatest(..., 0))
    var = max(sq / cnt - mean * mean, 0.0)
    return pa.table({
        "doc_count": pa.array([cnt], pa.int64()),
        "min_word_count": pa.array([mn], pa.int64()),
        "max_word_count": pa.array([mx], pa.int64()),
        "sum_word_count": pa.array([sm], pa.int64()),
        "sum_of_squares": pa.array([sq], pa.int64()),
        "avg_word_count": pa.array([mean], pa.float64()),
        "variance": pa.array([var], pa.float64()),
        "std_deviation": pa.array([float(np.sqrt(var))], pa.float64()),
    })


def filters_agg(index_dir: str, filters: dict[str, str],
                field: str = DEFAULT_FIELD, mode: str = "or") -> pa.Table:
    """ES ``filters`` aggregation: one named bucket per filter query,
    each counting its own matching docs independently (buckets may
    overlap, exactly like ES). All filters share ONE fan-out — each
    group reads the union of every filter's terms once
    (:func:`..export.count_matches_many`). Output is key-ascending for
    determinism (ES returns insertion order; callers that need it can
    reorder the small result)."""
    from .export import count_matches_many

    names = sorted(filters)
    t = count_matches_many(index_dir, [filters[n] for n in names],
                           field=field, mode=mode)
    return pa.table({
        "filter_key": pa.array(names, pa.string()),
        "doc_count": t["n_matched"],
    })


def _composite_partial(searcher, field: str, terms: list[str],
                       columns: list[str]):
    """Group partial: the matched docs' (col1, col2, ...) tuples counted
    per distinct tuple. ES composite default (missing_bucket=false):
    docs missing any source value are skipped."""
    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    t = pa.table({c: _dv_values(searcher, c, ids) for c in columns})
    agg = t.drop_null().group_by(columns).aggregate([([], "count_all")])
    return agg.rename_columns(list(columns) + ["doc_count"]).to_pandas()


def _tuple_buckets(index_dir: str, query: str, columns, field: str
                   ) -> pd.DataFrame | None:
    """(columns..., doc_count) per distinct value tuple of the matching
    docs, sorted by the tuple; None when nothing matches."""
    srcs = list(columns)
    parts = _run_partials(index_dir, query, field, _composite_partial,
                          srcs, columns=tuple(srcs))
    return _sum_by(parts, srcs) if parts else None


def _tuple_table(merged: pd.DataFrame | None, srcs: list[str]) -> pa.Table:
    if merged is None:
        return pa.table({**{c: pa.array([], pa.string()) for c in srcs},
                         "doc_count": pa.array([], pa.int64())})
    return pa.table({
        **{c: pa.array(merged[c].astype(str), pa.string()) for c in srcs},
        "doc_count": pa.array(merged["doc_count"].to_numpy(), pa.int64()),
    })


def composite_agg(index_dir: str, query: str,
                  sources: tuple[str, ...] = ("lang", "source"),
                  size: int = 10, after: tuple | None = None,
                  field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``composite`` aggregation: every (sources...) value tuple of
    the matching docs as a bucket, key-ascending, paginated with an
    exclusive ``after`` key — the scroll-safe agg ES offers for full
    bucket enumeration. Group partials are bounded by distinct tuples;
    the merge is a multi-key sum over partials, and the page cut
    (after-filter + size) happens on the reduced bucket list, exactly
    like ES's coordinate-node reduce."""
    srcs = list(sources)
    merged = _tuple_buckets(index_dir, query, srcs, field)
    if merged is not None and after is not None:
        aft = tuple(after)
        merged = merged[[tuple(row) > aft
                         for row in merged[srcs].itertuples(index=False)]]
    return _tuple_table(None if merged is None else merged.head(size), srcs)


def date_histogram_pipeline_agg(index_dir: str, query: str,
                                calendar_interval: str = "day",
                                column: str = "warc_ts",
                                field: str = DEFAULT_FIELD) -> pa.Table:
    """ES pipeline aggregations (``cumulative_sum`` + ``derivative``)
    over a date_histogram: computed on the REDUCED bucket list — exactly
    where ES computes pipeline aggs (coordinator-side, after the shard
    merge), so the driver-side numpy here is the scale-correct shape,
    not a shortcut. The first bucket's derivative is null (ES emits no
    value for it)."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field)
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
        field: str = DEFAULT_FIELD) -> pa.Table:
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
                              column=column, field=field)
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
        column: str = "warc_ts", field: str = DEFAULT_FIELD) -> pa.Table:
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
                              column=column, field=field)
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
        field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``bucket_script`` + ``bucket_selector`` + ``bucket_sort`` over
    a date_histogram: a derived per-bucket metric (percent of total
    matched docs), a predicate dropping buckets below ``min_doc_count``,
    then a sort (doc_count desc, key asc) truncated to ``size`` — the
    three bucket-mutating pipeline aggs ES applies coordinator-side in
    exactly this order. Bounded by bucket count, never doc count."""
    base = date_histogram_agg(index_dir, query, calendar_interval,
                              column=column, field=field)
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


def _missing_partial(searcher, field: str, terms: list[str], column: str):
    """Group partial: how many matched docs have a null ``column``."""
    ids = searcher.matched_ids(field, terms)
    return _dv_values(searcher, column, ids).null_count if len(ids) else 0


def missing_agg(index_dir: str, query: str, column: str,
                field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``missing`` aggregation: how many of the matching docs lack a
    value for ``column`` — the complement bucket the terms agg skips.
    One integer partial per segment group, summed on the driver."""
    parts = _run_partials(index_dir, query, field, _missing_partial, column,
                          columns=(column,))
    return pa.table({"doc_count": pa.array([sum(parts)], pa.int64())})


def _top_hits_partial(searcher, field: str, terms: list[str],
                      column: str, n_per_key: int):
    """Group partial: per non-null ``column`` value, its matched-doc
    count and its ``n_per_key`` best hits by (score desc, doc_id asc) —
    rows bounded by keys x n_per_key. ES terms-agg semantics: docs
    missing the bucket field are skipped."""
    ids, sc = _scored(searcher, field, terms)
    if len(ids) == 0:
        return None
    df = pd.DataFrame({"key": _str_keys(_dv_values(searcher, column, ids)),
                       "doc_id": ids, "score": sc}).dropna(subset=["key"])
    hits = (df.sort_values(["score", "doc_id"], ascending=[False, True])
            .groupby("key").head(n_per_key))
    return df.groupby("key").size(), hits


def top_hits_agg(index_dir: str, query: str, column: str,
                 num_buckets: int = 10, size_per_bucket: int = 3,
                 field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``terms`` aggregation with a ``top_hits`` sub-aggregation: the
    top-``num_buckets`` values of ``column`` by matched-doc count, each
    carrying its ``size_per_bucket`` best-scoring hits. Scores are the
    serving path's BM25, rounded to 6 dp. Group partials are bounded by
    (keys x size_per_bucket); the driver merge re-ranks the tiny partial
    set — the ES coordinator reduce shape. Returns (key, doc_count,
    hit_rank, doc_id, score) ordered (doc_count desc, key asc, hit_rank
    asc)."""
    parts = _run_partials(index_dir, query, field, _top_hits_partial,
                          column, int(size_per_bucket), columns=(column,))
    rows = []
    if parts:
        counts = pd.concat([c for c, _h in parts]).groupby(level=0).sum()
        top = sorted(counts.items(), key=lambda kc: (-kc[1], kc[0]))
        hits = (pd.concat([h for _c, h in parts])
                .sort_values(["score", "doc_id"], ascending=[False, True]))
        for key, cnt in top[:num_buckets]:
            best = hits[hits["key"] == key].head(size_per_bucket)
            for rank, (d, s) in enumerate(zip(best["doc_id"], best["score"]),
                                          start=1):
                rows.append((key, int(cnt), rank, int(d), float(s)))
    return pa.table({
        "key": pa.array([r[0] for r in rows], pa.string()),
        "doc_count": pa.array([r[1] for r in rows], pa.int64()),
        "hit_rank": pa.array([r[2] for r in rows], pa.int64()),
        "doc_id": pa.array([r[3] for r in rows], pa.int64()),
        "score": pa.array([r[4] for r in rows], pa.float64()),
    })


def _terms_partial(searcher, field: str, terms: list[str], column: str,
                   metric_field: str | None):
    """Group partial: (key, doc_count, metric_sum) per non-null ``column``
    value of the matched docs — rows bounded by distinct values. ES
    terms-agg semantics: docs missing the field are skipped."""
    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    metric = (searcher._dl_for(metric_field)[ids].astype(np.int64)
              if metric_field is not None else 0)
    df = pd.DataFrame({"key": _str_keys(_dv_values(searcher, column, ids)),
                       "metric_sum": metric})
    return df.groupby("key", as_index=False).agg(
        doc_count=("metric_sum", "size"), metric_sum=("metric_sum", "sum"))


def _key_counts(index_dir: str, query: str, column: str, field: str,
                metric_field: str | None = None) -> pd.DataFrame:
    """(key, doc_count, metric_sum) per ``column`` value over the
    matching docs, key-ascending (empty frame when nothing matches)."""
    parts = _run_partials(index_dir, query, field, _terms_partial, column,
                          metric_field, columns=(column,))
    return (_sum_by(parts, "key") if parts else
            pd.DataFrame({"key": pd.Series([], dtype=object),
                          "doc_count": [], "metric_sum": []}))


def terms_agg(index_dir: str, query: str, column: str, size: int = 10,
              field: str = DEFAULT_FIELD,
              metric_field: str | None = None) -> pa.Table:
    """ES ``terms`` aggregation over the docs matching an OR match query:
    top-``size`` values of ``column`` by (doc_count desc, key asc).
    ``metric_field`` adds an ``avg_word_count``-style metric sub-agg (the
    mean token count of the bucket's matching docs, from the index's
    per-field doc lengths). Group partials are bounded by distinct
    values, merged with a per-key sum."""
    merged = _key_counts(index_dir, query, column, field, metric_field)
    merged = merged.sort_values(["doc_count", "key"],
                                ascending=[False, True]).head(size)
    dc = merged["doc_count"].to_numpy(np.int64)
    out = {"key": pa.array(merged["key"], pa.string()),
           "doc_count": pa.array(dc, pa.int64())}
    if metric_field is not None:
        out["avg_word_count"] = pa.array(
            merged["metric_sum"].to_numpy(np.int64) / dc, pa.float64())
    return pa.table(out)


def _sig_terms_partial(searcher, field: str, terms: list[str],
                       shard_size: int | None, drop_ids: np.ndarray | None):
    """Group partial: the matched docs' foreground doc frequencies
    ((term, fg_count) rows, one per distinct term) and the matched-doc
    count. The stored text is re-tokenized segment by segment, so work
    is O(matched docs' tokens), never O(segment vocabulary)."""
    from ..functions import analyzers as an

    ids = searcher.matched_ids(field, terms)
    if drop_ids is not None and len(drop_ids):
        ids = ids[~np.isin(ids, drop_ids)]
    if len(ids) == 0:
        return None
    fg = []
    for seg_id, seg_ids in searcher.split_by_segment(ids):
        texts = _dv_take(searcher.index_dir, "text", seg_id, seg_ids)
        doc_idx, tokens, _dl = an.standard_tokenize_batch(texts)
        if len(doc_idx) == 0:
            continue
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        enc = pc.dictionary_encode(tokens)
        nv = len(enc.dictionary)
        # distinct (doc, term): doc frequency, not term frequency
        pair = np.unique(doc_idx.astype(np.int64) * nv
                         + np.asarray(enc.indices, dtype=np.int64))
        cnt = np.bincount(pair % nv, minlength=nv)
        nz = np.flatnonzero(cnt)
        fg.append(pd.DataFrame({
            "term": enc.dictionary.take(pa.array(nz)).to_pylist(),
            "fg_count": cnt[nz]}))
    if not fg:
        return pd.DataFrame({"term": [], "fg_count": []}), len(ids)
    fg = _sum_by(fg, "term")
    if shard_size is not None and len(fg) > shard_size:
        # ES shard_size semantics: each shard (here: segment group)
        # ships only its top candidates (fg_count desc, term asc)
        fg = fg.sort_values(["fg_count", "term"],
                            ascending=[False, True]).head(shard_size)
    return fg, len(ids)


def significant_terms_agg(index_dir: str, query: str, size: int = 10,
                          field: str = DEFAULT_FIELD,
                          shard_size: int | None = None,
                          drop_ids: np.ndarray | None = None) -> pa.Table:
    """ES ``significant_terms`` aggregation: terms over-represented in the
    docs matching an OR match query vs the whole corpus, scored with the
    JLH heuristic ``(fg% - bg%) * (fg% / bg%)`` (ES's default), positive
    scores only, top-``size`` by (score desc, term asc). Foreground doc
    frequencies come from re-tokenizing the matched slice; background doc
    frequencies from the global ``term_stats`` (one lookup of the
    foreground's terms per part, summed across parts, whatever the
    foreground's size). Scores are rounded to 6 dp so the ordering is
    reproducible cross-engine. ``shard_size`` (ES semantics) caps each
    segment group's candidate terms by fg_count — None is exact; set it
    when a broad query's foreground vocabulary would swamp the merge. It
    is a RECALL bound over high-fg-count candidates: reliable when the
    foreground's signature terms appear in most of its docs (the
    cluster-analysis / decontamination case), lossy for terms that are
    significant despite low foreground frequency — the same trade ES's
    default shard_size makes. ``drop_ids`` (significant_text's
    duplicate-text filter): doc ids left out of the foreground."""
    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    if analyzer != "standard":
        raise ValueError(
            f"significant_terms re-tokenizes stored text and requires "
            f"the standard analyzer on {field!r}, got {analyzer!r}")
    empty = pa.table({"term": pa.array([], pa.string()),
                      "fg_count": pa.array([], pa.int64()),
                      "bg_count": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    # stored-field shards, built once
    parts = _run_partials(index_dir, query, field, _sig_terms_partial,
                          shard_size, drop_ids, columns=("text",))
    fg_total = sum(n for _fg, n in parts)
    if fg_total == 0:
        return empty
    merged = _sum_by([fg for fg, _n in parts], "term")
    merged = merged[merged["fg_count"] > 0]
    if len(merged) == 0:
        return empty
    n_docs = int(stats["n_docs"])
    # background df for exactly the foreground terms: one lookup in each
    # term_stats part, whatever the foreground's size
    fg_terms = merged["term"].tolist()
    bg = _global_df([SortedTermFile(p) for p in _term_stats_paths(index_dir)],
                    {field: fg_terms})
    at = pc.index_in(pa.array(fg_terms, pa.string()),
                     value_set=bg["term"].combine_chunks())
    fg_cnt = merged["fg_count"].to_numpy(dtype=np.float64)
    bg_cnt = pc.fill_null(bg["df"].take(at), 0).to_numpy().astype(np.float64)
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


def _sampler_partial(searcher, field: str, terms: list[str], column: str,
                     shard_size: int):
    """Group partial: the group's top-``shard_size`` matched docs by
    (score desc, doc_id asc) with their ``column`` values — rows bounded
    by shard_size."""
    ids, sc = _scored(searcher, field, terms)
    if len(ids) == 0:
        return None
    top = np.sort(np.lexsort((ids, -sc))[:shard_size])  # doc-id order
    return pd.DataFrame({
        "doc_id": ids[top], "score": sc[top],
        "value": _str_keys(_dv_values(searcher, column, ids[top]))})


def sampler_terms_agg(index_dir: str, query: str, column: str,
                      shard_size: int = 100, num_buckets: int = 10,
                      field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``sampler`` aggregation with a ``terms`` sub-aggregation: the
    sub-agg sees only the top-``shard_size`` matched docs by relevance.
    This index is one logical shard, so the sample is the exact GLOBAL
    top-``shard_size`` (score desc, doc_id asc) — per-group
    top-shard_size partials merged on the driver (bounded by
    groups x shard_size, never doc count), then one count over the
    <= shard_size sampled values. ES's per-shard sampling is the
    multi-shard generalization of the same partials."""
    parts = _run_partials(index_dir, query, field, _sampler_partial, column,
                          int(shard_size), columns=(column,))
    if not parts:
        return pa.table({"key": pa.array([], pa.string()),
                         "doc_count": pa.array([], pa.int64())})
    sample = (pd.concat(parts, ignore_index=True)
              .sort_values(["score", "doc_id"], ascending=[False, True])
              .head(shard_size))
    counts = (sample.dropna(subset=["value"]).groupby("value").size()
              .reset_index(name="doc_count")
              .sort_values(["doc_count", "value"],
                           ascending=[False, True]).head(num_buckets))
    return pa.table({
        "key": pa.array(counts["value"].tolist(), pa.string()),
        "doc_count": pa.array(counts["doc_count"].to_numpy(), pa.int64()),
    })


def _text_hash_partial(searcher, field: str, terms: list[str]):
    """Group partial of significant_text's duplicate-text probe: one
    (md5(text), min doc_id) row per distinct matched text, plus the ids
    of the group's other docs with an already-seen text (the group's own
    drops). Rows are bounded by the group's distinct matched texts."""
    import hashlib

    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    h = []
    for seg_id, seg_ids in searcher.split_by_segment(ids):
        texts = _dv_take(searcher.index_dir, "text", seg_id, seg_ids)
        h.extend(hashlib.md5((x or "").encode()).hexdigest()
                 for x in texts.to_pylist())
    df = pd.DataFrame({"h": h, "doc_id": ids})
    dup = df.duplicated("h").to_numpy()  # ids ascend: first = min doc_id
    return df[~dup], ids[dup]


def significant_text_agg(index_dir: str, query: str, size: int = 10,
                         field: str = DEFAULT_FIELD,
                         filter_duplicate_text: bool = True) -> pa.Table:
    """ES ``significant_text`` aggregation: significant_terms computed
    directly from the matched docs' stored text (which is exactly how
    this engine's significant_terms already gets its foreground), plus
    ES's ``filter_duplicate_text`` — duplicate docs (same text bytes)
    are counted ONCE, keeping the lowest doc_id, so boilerplate/mirror
    pages cannot manufacture significance. Doc-level hash dedup is the
    documented simplification of ES's paragraph-level near-dup filter.

    The drop set comes from a duplicate-text probe over the matched
    slice: each segment group pre-reduces to one (md5, min doc_id) row
    per distinct text plus its own drops (see
    :func:`_text_hash_partial`), so the driver holds O(distinct matched
    texts) rows; a text first seen in several groups keeps only its
    lowest doc_id."""
    if not filter_duplicate_text:
        return significant_terms_agg(index_dir, query, size, field=field)
    parts = _run_partials(index_dir, query, field, _text_hash_partial,
                          columns=("text",))
    drops = [d for _f, d in parts]
    if parts:
        firsts = (pd.concat([f for f, _d in parts], ignore_index=True)
                  .sort_values("doc_id"))
        drops.append(firsts["doc_id"].to_numpy()[
            firsts.duplicated("h").to_numpy()])
    drop_ids = (np.sort(np.concatenate(drops)).astype(np.int64) if drops
                else np.empty(0, np.int64))
    return significant_terms_agg(index_dir, query, size, field=field,
                                 drop_ids=drop_ids)


def _range_key(frm, to) -> str:
    """ES range-bucket key: ``*-10``, ``10-20``, ``20-*``."""
    lo = "*" if frm is None else str(int(frm))
    hi = "*" if to is None else str(int(to))
    return f"{lo}-{hi}"


def range_agg(index_dir: str, query: str, ranges: list[tuple],
              field: str = DEFAULT_FIELD,
              metric_field: str | None = None) -> pa.Table:
    """ES ``range`` aggregation over the matching docs' token counts:
    explicit buckets ``[from, to)`` (either end open, overlaps allowed —
    each range counts independently, exactly like ES). Every requested
    bucket is returned, zero or not, in the requested order. Counted on
    the driver from the interval-1 histogram (lossless for integer token
    counts)."""
    norm = [(None if frm is None else int(frm),
             None if to is None else int(to)) for frm, to in ranges]
    hist = histogram_agg(index_dir, query, 1, field, metric_field)
    v = hist["key"].to_numpy()
    c = hist["doc_count"].to_numpy()
    counts = []
    for frm, to in norm:
        ok = np.ones(len(v), dtype=bool)
        if frm is not None:
            ok &= v >= frm
        if to is not None:
            ok &= v < to
        counts.append(int(c[ok].sum()))
    return pa.table({
        "range_key": pa.array([_range_key(f, t) for f, t in norm],
                              pa.string()),
        "doc_count": pa.array(counts, pa.int64())})


def percentiles_agg(index_dir: str, query: str,
                    percents: tuple = (1, 5, 25, 50, 75, 95, 99),
                    field: str = DEFAULT_FIELD,
                    metric_field: str | None = None) -> pa.Table:
    """ES ``percentiles`` aggregation over the matching docs' token
    counts (default percents match ES). ES approximates with TDigest;
    token counts are integers, so the interval-1 histogram partials are a
    LOSSLESS compression of the full distribution and the interpolated
    quantiles are exact (quantile_cont convention: linear between order
    statistics — same convention as the quality_percentiles entry)."""
    hist = histogram_agg(index_dir, query, 1, field,
                         metric_field).to_pandas()
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
                   field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``rare_terms`` aggregation: the long tail the terms agg's
    size-cut hides — bucket values of ``column`` whose matched-doc count
    is <= ``max_doc_count``, key-ascending. Same group partials as
    terms_agg (bounded by distinct values); the rarity cut happens after
    the exact per-key sum, so there is no false-negative risk (ES
    itself approximates with a CuckooFilter at scale; the exact merge is
    this engine's equivalent of `precision` at its max)."""
    merged = _key_counts(index_dir, query, column, field)
    merged = merged[merged["doc_count"] <= int(max_doc_count)]
    return pa.table({
        "key": pa.array(merged["key"], pa.string()),
        "doc_count": pa.array(merged["doc_count"].to_numpy(np.int64),
                              pa.int64()),
    })


def percentile_ranks_agg(index_dir: str, query: str,
                         values: tuple = (8, 16, 32),
                         field: str = DEFAULT_FIELD,
                         metric_field: str | None = None) -> pa.Table:
    """ES ``percentile_ranks`` aggregation: for each requested value, the
    percentage of the matching docs' token counts that are <= it —
    the inverse of percentiles. Same interval-1 histogram partials
    (lossless for integer values), so the ranks are exact:
    ``100 * count(v <= x) / n`` with one fixed float expression shape
    mirrored by the SQL oracle."""
    hist = histogram_agg(index_dir, query, 1, field,
                         metric_field).to_pandas()
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


def _card_partial(searcher, field: str, terms: list[str], column: str,
                  threshold: int):
    """Group partial of ES ``cardinality`` (exact below
    ``precision_threshold``, HyperLogLog above): a group whose
    matched-distinct count fits the threshold ships its distinct values
    verbatim; a bigger one ships a single 16 KiB HLL register array. The
    merge promotes to the sketch only if the union outgrows the
    threshold — like ES's sparse-to-dense HLL++ promotion, the answer is
    exact whenever the true cardinality is under the threshold."""
    from ..functions.hll import fnv64_strings, hll_partial

    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    # ES cardinality ignores missing values; dropping nulls here also
    # keeps the exact and sketch paths' identities consistent
    distinct = pc.drop_null(pc.unique(_dv_values(searcher, column, ids)))
    if len(distinct) <= threshold:
        return {str(v) for v in distinct.to_pylist()}, None
    return set(), hll_partial(fnv64_strings(distinct))


def cardinality_agg(index_dir: str, query: str, column: str,
                    precision_threshold: int = 3000,
                    field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``cardinality`` aggregation: distinct ``column`` values among the
    docs matching an OR match query. Exact when the true cardinality is
    <= ``precision_threshold`` (ES default 3000, max 40000); otherwise a
    HyperLogLog estimate (p=14, ~0.8% error). Returns one row
    (cardinality, is_approx)."""
    from ..functions.hll import fnv64_strings, hll_estimate, hll_partial

    parts = _run_partials(index_dir, query, field, _card_partial, column,
                          int(precision_threshold), columns=(column,))
    exact: set = set().union(*(vals for vals, _r in parts))
    regs = None
    for _vals, r in parts:
        if r is not None:
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
                    size: int = 10, field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``multi_terms`` aggregation: buckets are VALUE TUPLES of the
    source columns (``["lang", "source"]``-style terms list), ordered by
    (doc_count desc, keys asc), top ``size`` — the non-paginated sibling
    of :func:`composite_agg`. Group partials are the composite partials
    (bounded by distinct tuples); the merge is a multi-key sum and the
    order-by + cut happens on the reduced bucket list, exactly where
    ES's coordinator does it. Docs missing ANY source value are skipped
    (ES multi_terms semantics)."""
    srcs = list(columns)
    merged = _tuple_buckets(index_dir, query, srcs, field)
    if merged is not None:
        merged = merged.sort_values(
            ["doc_count", *srcs], ascending=[False] + [True] * len(srcs)
        ).head(size)
    return _tuple_table(merged, srcs)


def _weighted_avg_partial(searcher, field: str, terms: list[str],
                          weight_column: str):
    """Group partial: integer sums of (weight * value) and weight, and the
    count, over the matched docs, so the final division is the only
    float op (bitwise-stable across partitionings). Value = the field's
    per-doc token count; weight = the doc's ``weight_column`` timestamp
    in whole hours since the Unix epoch. Docs with a null weight are
    skipped (ES weighted_avg skip-missing)."""
    ids = searcher.matched_ids(field, terms)
    if len(ids) == 0:
        return None
    wcol = _dv_values(searcher, weight_column, ids)
    ok = np.asarray(pc.is_valid(wcol))
    v = searcher._dl_for(field)[ids].astype(np.int64)[ok]
    # timestamp[us] -> whole hours since epoch; integer floordiv BEFORE
    # any float conversion (raw microseconds exceed float64's
    # exact-integer range for far-future dates)
    w = (np.asarray(pc.fill_null(wcol.cast(pa.int64()), 0),
                    dtype=np.int64) // 3_600_000_000)[ok]
    return int((w * v).sum()), int(w.sum()), len(v)


def weighted_avg_agg(index_dir: str, query: str,
                     weight_column: str = "warc_ts",
                     field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``weighted_avg`` aggregation over the matching docs:
    ``sum(weight * value) / sum(weight)`` with value = the doc's token
    count and weight = its ``weight_column`` timestamp in whole hours
    since the Unix epoch (a deterministic numeric doc-value; real users
    plug a ratings/votes column the same way). Group partials are two
    INTEGER sums, so the single final division is the only float op
    — exact at any partitioning."""
    parts = _run_partials(index_dir, query, field, _weighted_avg_partial,
                          weight_column, columns=(weight_column,))
    swv, sw, n = (sum(x) for x in zip(*parts)) if parts else (0, 0, 0)
    if n == 0 or sw == 0:
        return pa.table({"weighted_avg": pa.array([], pa.float64()),
                         "value_count": pa.array([], pa.int64())})
    wavg = round(float(swv) / float(sw), 6)
    return pa.table({"weighted_avg": pa.array([wavg], pa.float64()),
                     "value_count": pa.array([n], pa.int64())})


def _adjacency_partial(searcher, field: str,
                       named_terms: list[tuple[str, list[str]]]) -> dict:
    """Group partial of adjacency_matrix: each named filter's matched
    count and every pairwise-intersection count (key ``"a&b"``) —
    n_filters^2 ints; doc ids never leave the task."""
    sets = [(name, searcher.matched_ids(field, terms))
            for name, terms in named_terms]
    out = {}
    for i, (na, ia) in enumerate(sets):
        out[na] = len(ia)
        for nb, ib in sets[i + 1:]:
            out[f"{na}&{nb}"] = len(np.intersect1d(ia, ib,
                                                   assume_unique=True))
    return out


def adjacency_matrix_agg(index_dir: str, filters: dict[str, str],
                         field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``adjacency_matrix`` aggregation: one bucket per named filter
    plus one per PAIR intersection (key ``"a&b"``, names in sorted order
    — ES's separator), counting docs matching both. Only non-empty
    buckets are returned (ES semantics), key-ascending. Group partials
    compute the intersections locally on sorted id arrays, summed on the
    driver — O(filters^2) values regardless of corpus size."""
    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    named_terms = [(name, query_terms(filters[name], analyzer))
                   for name in sorted(filters)]
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    total: dict[str, int] = {}
    if seg_ids and named_terms:
        for part in map_segment_groups(index_dir, seg_ids,
                                       _adjacency_partial, field,
                                       named_terms):
            for key, n in part.items():
                total[key] = total.get(key, 0) + n
    keys = sorted(k for k, n in total.items() if n)
    return pa.table({"key": pa.array(keys, pa.string()),
                     "doc_count": pa.array([total[k] for k in keys],
                                           pa.int64())})
