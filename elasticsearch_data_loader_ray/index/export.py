"""Matched-document export and field-sorted retrieval.

ES consumers page whole result sets out of the cluster with ``scroll`` /
``search_after`` (the reference's index exists to serve exactly such
downstream extractions), and sort hits by document fields
(``sort: [{f: desc}]``) instead of relevance. Ray-Data-native shapes:

* **export_matches**: the inverted index acts as a pushdown FILTER over
  the corpus — one task per segment unions (or intersects) the query
  terms' postings, drops tombstoned docs, slices the segment's docs
  table positionally, and reads stored fields from the segment's
  stored-field shard (Lucene layout; built once per column by a single
  range-partition pass). The result is a streaming ``ray.data.Dataset`` —
  nothing materializes on the driver; consumers ``write_parquet`` /
  ``iter_batches`` the full matched set with backpressure. At 100 TB
  this is the "extract every doc mentioning X" pipeline.
* **sorted_matches**: ES field sort. Per-segment top-k over the matched
  docs' numeric field (doc lengths come straight from the docs table;
  other fields from doc-values shards), then a k×S-bounded driver merge
  — the same partial-top-k shape as the BM25 path, so no segment ships
  more than k rows.

Reference parity: the ES queries the loaded index serves include
filtered extractions and field-sorted listings over the keyword/numeric
fields declared in config/search_scheme.json.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .aggs import (
    _dv_path,
    _matched_ids,
    build_doc_values,
    worker_state,
)
from .build import seg_docs_path
from .search import (
    DEFAULT_FIELD,
    _dl_column,
    _drop_deleted,
    _field_analyzer,
    _load_stats,
    _term_filters,
    _visible_seg_ids,
    query_terms,
)


def _export_schema(stored_columns: tuple[str, ...]) -> pa.Schema:
    fields = [pa.field("doc_id", pa.int64()),
              pa.field("url", pa.string()),
              pa.field("word_count", pa.int64())]
    fields += [pa.field(c, pa.string()) for c in stored_columns]
    return pa.schema(fields)


def _stored_values(index_dir: str, column: str, seg_id: int,
                   ids: np.ndarray) -> pa.Array:
    """Matched docs' stored values from the segment's doc-values shard
    (built once per (index, column); positionally aligned to doc ids)."""
    dv = pq.read_table(_dv_path(index_dir, column, seg_id),
                       columns=["doc_id", column])
    pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
    return dv[column].combine_chunks().take(pa.array(pos))


def _export_rows(batch: pa.Table, *, index_dir: str, field: str,
                 terms: list[str], mode: str,
                 stored: tuple) -> pa.Table:
    """Task: one segment per batch -> that segment's matched doc rows.
    Stored fields come from the per-segment shards (Lucene stored-fields
    layout) — no corpus scan on the serving path."""
    _stats, deleted = worker_state(index_dir)
    schema = _export_schema(tuple(stored))
    outs = []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms, mode)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", "url", _dl_column(field)])
        base = int(docs["doc_id"][0].as_py())
        rows = docs.take(pa.array(ids - base))
        cols = {
            "doc_id": rows["doc_id"],
            "url": pc.cast(rows["url"], pa.string()),
            "word_count": pc.cast(rows[_dl_column(field)],
                                  pa.int64()),
        }
        for c in stored:
            cols[c] = pc.cast(_stored_values(index_dir, c, seg_id, ids),
                              pa.string())
        outs.append(pa.table(cols).cast(schema))
    if not outs:
        return schema.empty_table()
    return pa.concat_tables(outs)


def mget(index_dir: str, urls: list[str],
         stored: tuple[str, ...] = ("text",),
         field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``_mget``/GET-by-id analogue: point lookups by url (the document
    identity key). Returns one row per FOUND url — (url, doc_id,
    word_count, *stored) — in request order; missing urls yield no row.

    Segments hold contiguous url ranges (docs are globally url-sorted
    within a generation), so candidate segments come from parquet footer
    url min/max per segment, and each candidate read is a row-group-pruned
    range read — O(requested urls) work, never a corpus scan. Upserts
    resolve exactly like search: tombstoned doc ids are dropped, so the
    newest visible generation's doc survives."""
    from .search import _load_deleted

    stats = _load_stats(index_dir)
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    schema = _export_schema(tuple(stored))
    want = sorted(set(urls))
    if not want or not seg_ids:
        return schema.empty_table()
    deleted = _load_deleted(index_dir, stats)
    for c in stored:
        build_doc_values(index_dir, c)
    hits: dict[str, dict] = {}
    for seg_id in seg_ids:
        path = seg_docs_path(index_dir, seg_id)
        md = pq.ParquetFile(path).metadata
        rg0 = md.row_group(0)
        ci = next(i for i in range(rg0.num_columns)
                  if rg0.column(i).path_in_schema == "url")
        st_lo = md.row_group(0).column(ci).statistics
        st_hi = md.row_group(md.num_row_groups - 1).column(ci).statistics
        if (st_lo is None or st_hi is None
                or not st_lo.has_min_max or not st_hi.has_min_max):
            mine = want  # no stats: check all (pruned read still bounds it)
        else:
            lo, hi = st_lo.min, st_hi.max
            a = int(np.searchsorted(np.array(want, dtype=object), lo))
            b = int(np.searchsorted(np.array(want, dtype=object), hi,
                                    side="right"))
            mine = want[a:b]
        if not mine:
            continue
        docs = pq.read_table(
            path, columns=["doc_id", "url", _dl_column(field)],
            filters=[("url", ">=", mine[0]), ("url", "<=", mine[-1])])
        mask = np.isin(np.asarray(docs["url"].to_numpy(zero_copy_only=False),
                                  dtype=object), np.array(mine, dtype=object))
        docs = docs.filter(pa.array(mask))
        if docs.num_rows == 0:
            continue
        ids = docs["doc_id"].to_numpy()
        if len(deleted):
            keep = _drop_deleted(deleted, ids)
            docs, ids = docs.filter(pa.array(keep)), ids[keep]
        if docs.num_rows == 0:
            continue
        svals = {c: _stored_values(index_dir, c, seg_id, ids)
                 for c in stored}
        for i in range(docs.num_rows):
            row = {"doc_id": int(ids[i]),
                   "word_count": int(docs[_dl_column(field)][i].as_py())}
            for c in stored:
                row[c] = svals[c][i].as_py()
            hits[docs["url"][i].as_py()] = row
    out_rows = [(u, hits[u]) for u in urls if u in hits]
    if not out_rows:
        return schema.empty_table()
    cols = {
        "doc_id": pa.array([r["doc_id"] for _u, r in out_rows], pa.int64()),
        "url": pa.array([u for u, _r in out_rows], pa.string()),
        "word_count": pa.array([r["word_count"] for _u, r in out_rows],
                               pa.int64()),
    }
    for c in stored:
        cols[c] = pa.array([r[c] for _u, r in out_rows], pa.string())
    return pa.table(cols).cast(schema)


def export_matches(index_dir: str, query: str, field: str = DEFAULT_FIELD,
                   mode: str = "or",
                   stored_columns: tuple[str, ...] = (),
                   concurrency: int | None = None) -> rd.Dataset:
    """Stream EVERY doc matching ``query`` as a Dataset of
    (doc_id, url, word_count, *stored_columns) — the ES scroll analogue.
    ``mode``: "or" (match default) or "and" (operator=and). Lazy: the
    returned Dataset executes segment-by-segment with backpressure."""
    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    schema = _export_schema(tuple(stored_columns))
    if not terms or not seg_ids:
        return rd.from_arrow(schema.empty_table())
    for c in stored_columns:  # one corpus pass per column, then reused
        build_doc_values(index_dir, c)
    return (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _export_rows,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "terms": sorted(set(terms)), "mode": mode,
                "stored": tuple(stored_columns)},
            batch_format="pyarrow", batch_size=1,
            concurrency=concurrency)
    )


def _count_partials(batch: pa.Table, *, index_dir: str, field: str,
                    term_lists: list, mode: str) -> pa.Table:
    """Task: per-segment matched-doc counts for a broadcast query LIST
    (one postings pass per (segment, query); all queries share the pool
    and the segment loop, so N queries cost one Dataset job)."""
    _stats, deleted = worker_state(index_dir)
    from .aggs import _ids_from_runs, _segment_postings

    union = sorted({t for ts in term_lists for t in ts})
    ns = np.zeros(len(term_lists), dtype=np.int64)
    for seg_id in batch["segment_id"].to_pylist():
        # ONE filtered read per segment covers every query's terms
        runs = _segment_postings(index_dir, int(seg_id),
                                 field, union)
        for qi, terms in enumerate(term_lists):
            if not terms:
                continue
            ids = _ids_from_runs(runs, terms, mode)
            if len(deleted) and len(ids):
                ids = ids[_drop_deleted(deleted, ids)]
            ns[qi] += len(ids)
    return pa.table({
        "query_id": pa.array(range(len(ns)), pa.int64()),
        "n": pa.array(ns, pa.int64()),
    })


def count_matches_many(index_dir: str, queries: list[str],
                       field: str = DEFAULT_FIELD, mode: str = "or",
                       concurrency: int | None = None) -> pa.Table:
    """ES ``_count`` API over a batch of queries: (query_id, n_matched)
    without scoring or retrieval — per-segment posting-length partials,
    all queries in one Dataset job."""
    from ray.data.aggregate import Sum

    stats = _load_stats(index_dir)
    term_lists = [sorted(set(query_terms(q, _field_analyzer(stats, field))))
                  for q in queries]
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    zero = pa.table({
        "query_id": pa.array(range(len(queries)), pa.int64()),
        "n_matched": pa.array([0] * len(queries), pa.int64())})
    if not seg_ids or not any(term_lists):
        return zero
    merged = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _count_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "term_lists": term_lists, "mode": mode},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .groupby("query_id")
        .aggregate(Sum("n", alias_name="n_matched"))
        .to_pandas()
        .set_index("query_id")["n_matched"]
    )
    return pa.table({
        "query_id": pa.array(range(len(queries)), pa.int64()),
        "n_matched": pa.array(
            [int(merged.get(i, 0)) for i in range(len(queries))],
            pa.int64()),
    })


def count_matches(index_dir: str, query: str, field: str = DEFAULT_FIELD,
                  mode: str = "or",
                  concurrency: int | None = None) -> int:
    """Single-query ES ``_count``: see :func:`count_matches_many`."""
    t = count_matches_many(index_dir, [query], field, mode, concurrency)
    return int(t["n_matched"][0].as_py())


def _collapse_partials(batch: pa.Table, *, index_dir: str, field: str,
                       terms: list[str], collapse: str, idf: dict,
                       avgdl: float) -> pa.Table:
    """Task: per-segment best hit per collapse-key for one OR query.

    Scores the segment's matched docs with the global-idf BM25 convention
    (term-major lexicographic accumulation — identical to the serving
    paths), rounds to 6 dp (the repo-wide determinism convention), looks
    the collapse values up in the segment's doc-values shard, and emits
    ONE row per distinct key: partials are bounded by the segment's key
    cardinality, never its doc count."""
    from . import codec
    from .aggs import _segment_postings

    _stats, deleted = worker_state(index_dir)
    out_k, out_d, out_s = [], [], []
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
                contrib = idf[t] * codec.bm25_tf_impact(
                    tfs.astype(np.float64), dl[ids - base], avgdl)
                sc[np.searchsorted(loc, ids)] += contrib
        if len(deleted):
            keep = _drop_deleted(deleted, loc)
            loc, sc = loc[keep], sc[keep]
        if len(loc) == 0:
            continue
        r = np.round(sc, 6)
        dv = pq.read_table(_dv_path(index_dir, collapse, seg_id),
                           columns=["doc_id", collapse])
        pos = np.searchsorted(dv["doc_id"].to_numpy(), loc)
        vals = dv[collapse].combine_chunks().take(pa.array(pos))
        enc = pc.dictionary_encode(vals)
        # ES collapse semantics: docs missing the field share ONE null
        # bucket. Null dictionary indices would cast to int64 garbage, so
        # they get an explicit synthetic code past the dictionary.
        null_code = len(enc.dictionary)
        codes = np.asarray(pc.fill_null(enc.indices, null_code),
                           dtype=np.int64)
        order = np.lexsort((loc, -r))  # best first per key
        _u, first = np.unique(codes[order], return_index=True)
        keep = order[np.sort(first)]
        kc = codes[keep]
        names = enc.dictionary.to_pylist()
        out_k.extend(None if c == null_code else str(names[c])
                     for c in kc.tolist())
        out_d.extend(loc[keep].tolist())
        out_s.extend(r[keep].tolist())
    return pa.table({"key": pa.array(out_k, pa.string()),
                     "doc_id": pa.array(out_d, pa.int64()),
                     "score": pa.array(out_s, pa.float64())})


def collapse_matches(index_dir: str, query: str, collapse: str,
                     k: int = 10, field: str = DEFAULT_FIELD,
                     concurrency: int | None = None) -> pa.Table:
    """ES field collapsing: the top-``k`` hits of an OR match query with
    at most ONE hit (the best-scoring) per value of ``collapse`` —
    per-segment best-per-key partials (bounded by key cardinality), then
    a keys-by-segments driver merge. Returns (rank, key, doc_id, score),
    ordered (score desc, doc_id asc)."""
    from .search import _avgdl, load_global_idf

    stats = _load_stats(index_dir)
    terms = sorted(set(query_terms(query, _field_analyzer(stats, field))))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"rank": pa.array([], pa.int64()),
                      "key": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not terms or not seg_ids:
        return empty
    idf_map, _dfs, _n = load_global_idf(index_dir, {field: terms})
    idf = {t: v for (f, t), v in idf_map.items() if f == field}
    terms = [t for t in terms if t in idf]
    if not terms:
        return empty
    build_doc_values(index_dir, collapse)
    parts = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _collapse_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field, "terms": terms,
                "collapse": collapse, "idf": idf,
                "avgdl": _avgdl(stats, field)},
            batch_format="pyarrow", batch_size=8,
            concurrency=concurrency)
        .to_pandas()  # keys x segments rows
    )
    if len(parts) == 0:
        return empty
    best = (parts.sort_values(["score", "doc_id"],
                              ascending=[False, True])
            .drop_duplicates("key", keep="first")
            .head(k))
    return pa.table({
        "rank": pa.array(range(1, len(best) + 1), pa.int64()),
        "key": pa.array(best["key"].tolist(), pa.string()),
        "doc_id": pa.array(best["doc_id"].to_numpy(), pa.int64()),
        "score": pa.array(best["score"].to_numpy(), pa.float64()),
    })


def term_vectors(index_dir: str, urls: list[str],
                 field: str = DEFAULT_FIELD) -> pa.Table:
    """ES ``_termvectors`` analogue: per requested doc (by url key), each
    term with its term frequency and first position — computed by
    re-tokenizing the stored text (ES does the same for non-stored term
    vectors). The corpus read is an equality OR-chain on url, so row
    groups prune. Returns (url, term, tf, first_pos) sorted by
    (url, term)."""
    from ..functions import analyzers as an

    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    if analyzer != "standard":
        raise ValueError(
            f"term_vectors re-tokenizes stored text and requires the "
            f"standard analyzer on {field!r}, got {analyzer!r}")
    empty = pa.table({"url": pa.array([], pa.string()),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64()),
                      "first_pos": pa.array([], pa.int64())})
    if not urls:
        return empty
    import functools
    import operator

    import pyarrow.dataset as pads

    from .aggs import read_resolved

    flt = functools.reduce(operator.or_,
                           [pads.field("url") == u for u in urls])
    sl = read_resolved(index_dir, ["text"], flt)
    if sl.num_rows == 0:
        return empty
    doc_idx, tokens, _dl = an.standard_tokenize_batch(sl["text"])
    if len(doc_idx) == 0:
        return empty
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    enc = pc.dictionary_encode(tokens)
    codes = np.asarray(enc.indices, dtype=np.int64)
    nv = len(enc.dictionary)
    pair = doc_idx.astype(np.int64) * nv + codes
    # positions within each doc: ordinal minus the doc's first ordinal
    dstarts = np.r_[0, np.cumsum(np.bincount(doc_idx.astype(np.int64)))]
    pos = np.arange(len(codes), dtype=np.int64) \
        - dstarts[doc_idx.astype(np.int64)]
    uniq, inv = np.unique(pair, return_inverse=True)
    tf = np.bincount(inv)
    firsts = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(firsts, inv, pos)
    u_doc = (uniq // nv).astype(np.int64)
    u_code = (uniq % nv).astype(np.int64)
    url_arr = pc.cast(sl["url"], pa.string()).combine_chunks() \
        if isinstance(sl["url"], pa.ChunkedArray) \
        else pc.cast(sl["url"], pa.string())
    out = pa.table({
        "url": url_arr.take(pa.array(u_doc)),
        "term": pc.cast(enc.dictionary.take(pa.array(u_code)), pa.string()),
        "tf": pa.array(tf, pa.int64()),
        "first_pos": pa.array(firsts, pa.int64()),
    })
    return out.sort_by([("url", "ascending"), ("term", "ascending")])


def _segment_anchors(index_dir: str, field: str, terms: list[str],
                     seg_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted matched doc ids, per-doc min first-position)."""
    from . import blobs, codec
    from .build import seg_terms_path

    filters = _term_filters({field: terms})
    path = seg_terms_path(index_dir, seg_id)
    if "pos_nbytes" not in pq.read_schema(path).names:
        raise ValueError(
            "index was built without positions "
            "(BuildConfig.index_positions=True required)")
    tt = pq.read_table(path, columns=["field", "term", "df", "segment_id",
                                      *blobs.RANGE_COLUMNS],
                       filters=filters)
    tt = blobs.materialize_enc(tt, lambda _s: path, want_positions=True)
    all_ids, all_firsts = [], []
    for i in range(tt.num_rows):
        enc_pos = tt["positions_enc"][i].as_py()
        if enc_pos is None:
            raise ValueError(
                "index was built without positions "
                "(BuildConfig.index_positions=True required)")
        ids, tfs = codec.decode_postings(
            tt["doc_ids_enc"][i].as_py(), tt["tfs_enc"][i].as_py(),
            int(tt["df"][i].as_py()))
        starts = np.r_[0, np.cumsum(tfs)[:-1]].astype(np.int64)
        vals = codec.varint_decode(
            np.frombuffer(enc_pos, dtype=np.uint8), int(tfs.sum()))
        all_ids.append(ids)
        all_firsts.append(vals[starts])
    if not all_ids:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ids = np.concatenate(all_ids)
    firsts = np.concatenate(all_firsts).astype(np.int64)
    uniq, inv = np.unique(ids, return_inverse=True)
    anchor = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(anchor, inv, firsts)
    return uniq, anchor


def _sort_values(index_dir: str, sort_field: str, stats: dict,
                 seg_id: int, ids: np.ndarray) -> np.ndarray:
    fields = set(stats.get("field_analyzers",
                           {DEFAULT_FIELD: "standard"})) | {"word_count"}
    if sort_field in fields:  # doc-length-backed
        src = (DEFAULT_FIELD if sort_field == "word_count"
               else sort_field)
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", _dl_column(src)])
        base = int(docs["doc_id"][0].as_py())
        return docs[_dl_column(src)].to_numpy()[ids - base]             .astype(np.int64)
    dv = pq.read_table(_dv_path(index_dir, sort_field, seg_id),
                       columns=["doc_id", sort_field])
    pos = np.searchsorted(dv["doc_id"].to_numpy(), ids)
    return np.asarray(dv[sort_field].take(pa.array(pos)))         .astype(np.int64)


def _snippet_rows(batch: pa.Table, *, index_dir: str, field: str,
                  terms: list[str], window: int) -> pa.Table:
    """Task: one segment per batch -> (doc_id, anchor_pos, snippet).

    ES unified-highlighter analogue with a documented deterministic
    convention: the fragment anchors on the EARLIEST occurrence of any
    query term in the doc (min over the terms' first positions, decoded
    as positions_stream[run_starts] — each run's first value is stored
    absolute, so no full position decode), and the snippet is the
    ``window``-token neighbourhood re-tokenized from the stored-field
    shard's text. Segment-local end to end: postings, positions, docs
    slice and the text shard all stay within the segment."""
    _stats, deleted = worker_state(index_dir)
    from ..functions import analyzers as an

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "url": pa.array([], pa.string()),
                      "anchor_pos": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string())})
    outs = []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids, anchor = _segment_anchors(index_dir, field, terms, seg_id)
        if len(deleted) and len(ids):
            keep = _drop_deleted(deleted, ids)
            ids, anchor = ids[keep], anchor[keep]
        if len(ids) == 0:
            continue
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", "url"])
        base = int(docs["doc_id"][0].as_py())
        rows = docs.take(pa.array(ids - base))
        j = pa.table({"url": pc.cast(rows["url"], pa.string()),
                      "doc_id": rows["doc_id"],
                      "anchor_pos": pa.array(anchor, pa.int64()),
                      "text": _stored_values(index_dir, "text", seg_id,
                                             ids)})
        doc_idx, tokens, dl = an.standard_tokenize_batch(j["text"])
        dl64 = dl.astype(np.int64)
        tstarts = np.r_[0, np.cumsum(dl64)].astype(np.int64)
        p = j["anchor_pos"].to_numpy()
        w = window
        s = tstarts[:-1] + np.maximum(0, p - w)
        e = tstarts[:-1] + np.minimum(dl64, p + w + 1)
        lens = np.maximum(0, e - s)
        loffs = np.r_[0, np.cumsum(lens)].astype(np.int64)
        flat_idx = (np.repeat(s, lens)
                    + np.arange(int(lens.sum()), dtype=np.int64)
                    - np.repeat(loffs[:-1], lens))
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        kept = tokens.take(pa.array(flat_idx))
        lst = pa.ListArray.from_arrays(
            pa.array(loffs.astype(np.int32), pa.int32()),
            pc.cast(kept, pa.string()))
        snip = pc.binary_join(lst, " ")
        outs.append(pa.table({
            "doc_id": j["doc_id"],
            "url": pc.cast(j["url"], pa.string()),
            "anchor_pos": j["anchor_pos"],
            "snippet": pc.cast(snip, pa.string()),
        }))
    return pa.concat_tables(outs) if outs else empty


def snippet_matches(index_dir: str, query: str, window: int = 2,
                    field: str = DEFAULT_FIELD,
                    concurrency: int | None = None) -> rd.Dataset:
    """Stream (doc_id, anchor_pos, snippet) for every doc matching the OR
    match query: the ``window``-token neighbourhood of the earliest query
    term occurrence, re-tokenized from stored text. Lazy Dataset — the ES
    highlight analogue as a batch extraction."""
    stats = _load_stats(index_dir)
    analyzer = _field_analyzer(stats, field)
    if analyzer != "standard":
        raise ValueError(
            f"snippet_matches re-tokenizes stored text and requires "
            f"the standard analyzer on {field!r}, got {analyzer!r}")
    terms = query_terms(query, analyzer)
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "url": pa.array([], pa.string()),
                      "anchor_pos": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string())})
    if not terms or not seg_ids:
        return rd.from_arrow(empty)
    build_doc_values(index_dir, "text")  # stored-field shards, built once
    return (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _snippet_rows,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "terms": sorted(set(terms)), "window": int(window)},
            batch_format="pyarrow", batch_size=1,
            concurrency=concurrency)
    )


def _sort_partials(batch: pa.Table, *, index_dir: str, field: str,
                   terms: list[str], mode: str, sort_field: str,
                   k: int, ascending: bool) -> pa.Table:
    """Task: per-segment top-k of the matched docs by a numeric field."""
    _stats, deleted = worker_state(index_dir)
    out_ids, out_vals = [], []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = _matched_ids(index_dir, seg_id, field,
                           terms, mode)
        if len(deleted) and len(ids):
            ids = ids[_drop_deleted(deleted, ids)]
        if len(ids) == 0:
            continue
        v = _sort_values(index_dir, sort_field, _stats, seg_id, ids)
        sv = v if ascending else -v
        # stable top-k with doc_id-asc ties: ids are ascending, so a
        # stable sort on the value keeps the tie order
        order = np.argsort(sv, kind="stable")[:k]
        out_ids.append(ids[order])
        out_vals.append(v[order])
    if not out_ids:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "sort_value": pa.array([], pa.int64())})
    return pa.table({
        "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
        "sort_value": pa.array(np.concatenate(out_vals), pa.int64()),
    })


def sorted_matches(index_dir: str, query: str, sort_field: str,
                   k: int = 10, ascending: bool = False,
                   field: str = DEFAULT_FIELD, mode: str = "or",
                   concurrency: int | None = None) -> pa.Table:
    """ES field sort: the top-``k`` docs matching ``query`` ordered by a
    numeric field (desc by default), ties broken doc_id-asc. Doc-length
    fields (any indexed field name, or ``word_count`` for the default
    field) read straight from the docs tables; any other column is served
    from its doc-values shards (built on demand). Each segment ships at
    most k rows; the final merge is k×S-bounded."""
    stats = _load_stats(index_dir)
    terms = query_terms(query, _field_analyzer(stats, field))
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    empty = pa.table({"rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "sort_value": pa.array([], pa.int64())})
    if not terms or not seg_ids:
        return empty
    known = set(stats.get("field_analyzers",
                          {DEFAULT_FIELD: "standard"})) | {"word_count"}
    if sort_field not in known:
        build_doc_values(index_dir, sort_field)
    partials = (
        rd.from_items([{"segment_id": s} for s in seg_ids])
        .map_batches(
            _sort_partials,
            fn_kwargs={
                "index_dir": index_dir, "field": field,
                "terms": sorted(set(terms)), "mode": mode,
                "sort_field": sort_field, "k": int(k),
                "ascending": bool(ascending)},
            batch_format="pyarrow", batch_size=4,
            concurrency=concurrency)
        .to_arrow_refs()
    )
    import ray as _ray

    t = pa.concat_tables([x for x in _ray.get(partials)
                          if x.num_rows > 0] or [empty.select(
                              ["doc_id", "sort_value"])])
    if t.num_rows == 0:
        return empty
    v = t["sort_value"].to_numpy()
    ids = t["doc_id"].to_numpy()
    order = np.lexsort((ids, v if ascending else -v))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        "sort_value": pa.array(v[order], pa.int64()),
    })


def reindex_matches(index_dir: str, dest_dir: str, query: str,
                    mode: str = "or", field: str = DEFAULT_FIELD,
                    docs_per_segment: int | None = None,
                    concurrency: int | None = None) -> dict:
    """ES ``_reindex`` with a query filter: stream every matching doc's
    stored source out of ``index_dir`` (the scroll path) and build a
    FRESH index at ``dest_dir`` from that sub-corpus — df/avgdl/idf are
    recomputed over the subset, exactly like ES reindex-then-search.
    The copy never materializes: ``export_matches`` is a lazy Dataset
    and the builder consumes it segment-stream-wise. Returns the new
    index's build stats."""
    import pyarrow.compute as _pc

    from ..functions.analyzers import token_count_batch
    from .build import BuildConfig, build_index_from_corpus

    ds = export_matches(index_dir, query, field=field, mode=mode,
                        stored_columns=("text", "lang", "warc_ts"),
                        concurrency=concurrency)

    def to_corpus(t: pa.Table) -> pa.Table:
        text = _pc.cast(t["text"], pa.large_string())
        return pa.table({
            "url": t["url"],
            "warc_ts": _pc.cast(t["warc_ts"], pa.timestamp("us")),
            "text": text,
            "lang": t["lang"],
            "doc_len": pa.array(token_count_batch(text), pa.int32()),
        })

    cfg = BuildConfig(docs_per_segment=docs_per_segment) \
        if docs_per_segment else BuildConfig()
    return build_index_from_corpus(
        ds.map_batches(to_corpus, batch_format="pyarrow"), dest_dir, cfg)
