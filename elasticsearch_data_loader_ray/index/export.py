"""Matched-document export and field-sorted retrieval.

ES consumers page whole result sets out of the cluster with ``scroll`` /
``search_after`` (the reference's index exists to serve exactly such
downstream extractions), and sort hits by document fields
(``sort: [{f: desc}]``) instead of relevance. Ray-Data-native shapes:

* **export_matches** / **snippet_matches**: the inverted index acts as a
  pushdown FILTER over the corpus — one row-function call per segment
  binds ``LocalSearcher(segments=[seg_id])``, takes its matched set
  (``LocalSearcher.matched_ids``, or ``LocalSearcher.highlight`` where
  snippets need positions; tombstoned docs dropped), slices the
  segment's docs table positionally, and reads stored fields from the
  segment's stored-field shard (Lucene layout; built once per column by
  a single range-partition pass). These two stay on Ray Data: the
  result is a lazy, streaming ``ray.data.Dataset`` — nothing
  materializes on the driver; consumers (``update_by_query``,
  ``reindex_matches``, ``write_parquet``) take the full matched set with
  backpressure. At 100 TB this is the "extract every doc mentioning X"
  pipeline.
* **count, sort and collapse**: bounded partials on the segment fan-out
  that serves search (:func:`..search.map_segment_groups`, one Ray task
  per segment group), merged on the driver. ``sorted_matches`` is ES
  field sort: per-group top-k over the matched docs' numeric field (doc
  lengths from the searcher, other fields from doc-values shards), then a
  k x groups-bounded driver merge — the same partial-top-k shape as the
  BM25 path.

Reference parity: the ES queries the loaded index serves include
filtered extractions and field-sorted listings over the keyword/numeric
fields declared in config/search_scheme.json.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .aggs import (
    _dv_take,
    _dv_values,
    _run_partials,
    _scored,
    _str_keys,
    build_doc_values,
)
from .build import seg_docs_path
from .search import (
    DEFAULT_FIELD,
    LocalSearcher,
    _dl_column,
    _field_analyzer,
    _load_stats,
    _visible_seg_ids,
    check_match_mode,
    map_segment_groups,
    query_terms,
    url_rows,
)


def _export_schema(stored_columns: tuple[str, ...]) -> pa.Schema:
    fields = [pa.field("doc_id", pa.int64()),
              pa.field("url", pa.string()),
              pa.field("word_count", pa.int64())]
    fields += [pa.field(c, pa.string()) for c in stored_columns]
    return pa.schema(fields)


def _export_rows(batch: pa.Table, *, index_dir: str, field: str,
                 terms: list[str], mode: str,
                 stored: tuple) -> pa.Table:
    """Row function: one segment per batch -> that segment's matched doc
    rows, on a searcher bound to the segment. Stored fields come from the
    per-segment shards (Lucene stored-fields layout) — no corpus scan on
    the serving path."""
    schema = _export_schema(tuple(stored))
    outs = []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        ids = LocalSearcher(index_dir, segments=[seg_id]).matched_ids(
            field, terms, mode)
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
            cols[c] = pc.cast(_dv_take(index_dir, c, seg_id, ids),
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

    The docs rows come from :func:`..search.url_rows`: segments whose
    footer url range holds no requested url are skipped, the rest cost
    one Arrow hash probe each — never a corpus scan. Upserts resolve
    exactly like search: tombstoned doc ids are dropped, so the newest
    visible generation's doc survives. Stored fields are read through a
    whole-index searcher's doc-ordered segment split (``_dv_values``),
    which also supplies the epoch's segments and tombstones."""
    searcher = LocalSearcher(index_dir)
    schema = _export_schema(tuple(stored))
    if not urls or not searcher.seg_ids:
        return schema.empty_table()
    docs = url_rows(index_dir, searcher.seg_ids, pa.array(urls, pa.string()),
                    ["doc_id", _dl_column(field)])
    docs = docs.filter(pa.array(searcher._live[docs["doc_id"].to_numpy()]))
    if docs.num_rows == 0:
        return schema.empty_table()
    docs = docs.sort_by("doc_id")
    ids = docs["doc_id"].to_numpy()
    # a url with several live docs serves its newest (highest doc id)
    row_of = {u: i for i, u in enumerate(docs["url"].to_pylist())}
    take = pa.array([row_of[u] for u in urls if u in row_of], pa.int64())
    cols = {"doc_id": docs["doc_id"].take(take),
            "url": docs["url"].take(take),
            "word_count": docs[_dl_column(field)].take(take)}
    for c in stored:
        build_doc_values(index_dir, c)
        cols[c] = _dv_values(searcher, c, ids).take(take)
    return pa.table(cols).cast(schema)


def export_matches(index_dir: str, query: str, field: str = DEFAULT_FIELD,
                   mode: str = "or",
                   stored_columns: tuple[str, ...] = ()) -> rd.Dataset:
    """Stream EVERY doc matching ``query`` as a Dataset of
    (doc_id, url, word_count, *stored_columns) — the ES scroll analogue.
    ``mode``: "or" (match default) or "and" (operator=and). Lazy: the
    returned Dataset executes segment-by-segment with backpressure."""
    check_match_mode(mode)
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
            batch_format="pyarrow", batch_size=1)
    )


def _count_partial(searcher: LocalSearcher, field: str,
                   term_lists: list[list[str]], mode: str) -> np.ndarray:
    """Group partial: matched-doc count per query. ONE postings read over
    the union of every query's terms fills the searcher's cache; each
    query's matched set then comes from it."""
    searcher._postings_for(field, sorted({t for ts in term_lists
                                          for t in ts}))
    return np.array([len(searcher.matched_ids(field, ts, mode))
                     for ts in term_lists], dtype=np.int64)


def count_matches_many(index_dir: str, queries: list[str],
                       field: str = DEFAULT_FIELD,
                       mode: str = "or") -> pa.Table:
    """ES ``_count`` API over a batch of queries: (query_id, n_matched)
    without scoring or retrieval — one fan-out for all queries, group
    partials summed on the driver."""
    check_match_mode(mode)
    stats = _load_stats(index_dir)
    term_lists = [sorted(set(query_terms(q, _field_analyzer(stats, field))))
                  for q in queries]
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    n = np.zeros(len(queries), dtype=np.int64)
    if seg_ids and any(term_lists):
        n += np.sum(map_segment_groups(index_dir, seg_ids, _count_partial,
                                       field, term_lists, mode), axis=0)
    return pa.table({
        "query_id": pa.array(range(len(queries)), pa.int64()),
        "n_matched": pa.array(n, pa.int64()),
    })


def count_matches(index_dir: str, query: str, field: str = DEFAULT_FIELD,
                  mode: str = "or") -> int:
    """Single-query ES ``_count``: see :func:`count_matches_many`."""
    t = count_matches_many(index_dir, [query], field, mode)
    return int(t["n_matched"][0].as_py())


def _collapse_partial(searcher: LocalSearcher, field: str,
                      terms: list[str], collapse: str):
    """Group partial: the best hit per ``collapse`` value for one OR
    query — scores from the searcher's exhaustive scorer, rounded to 6 dp
    (the repo-wide determinism convention); ONE row per distinct key, so
    partials are bounded by key cardinality, never doc count. ES collapse
    semantics: docs missing the field share ONE null bucket."""
    ids, sc = _scored(searcher, field, terms)
    if len(ids) == 0:
        return None
    df = pd.DataFrame({"key": _str_keys(_dv_values(searcher, collapse, ids)),
                       "doc_id": ids, "score": sc})
    return (df.sort_values(["score", "doc_id"], ascending=[False, True])
            .drop_duplicates("key"))


def collapse_matches(index_dir: str, query: str, collapse: str,
                     k: int = 10, field: str = DEFAULT_FIELD) -> pa.Table:
    """ES field collapsing: the top-``k`` hits of an OR match query with
    at most ONE hit (the best-scoring) per value of ``collapse`` —
    per-group best-per-key partials (bounded by key cardinality), then
    a keys-by-groups driver merge. Returns (rank, key, doc_id, score),
    ordered (score desc, doc_id asc)."""
    parts = _run_partials(index_dir, query, field, _collapse_partial,
                          collapse, columns=(collapse,))
    best = (pd.concat(parts, ignore_index=True)
            .sort_values(["score", "doc_id"], ascending=[False, True])
            .drop_duplicates("key").head(k) if parts
            else pd.DataFrame({"key": [], "doc_id": [], "score": []}))
    return pa.table({
        "rank": pa.array(range(1, len(best) + 1), pa.int64()),
        "key": pa.array(best["key"].tolist(), pa.string()),
        "doc_id": pa.array(best["doc_id"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(best["score"].to_numpy(np.float64), pa.float64()),
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


def _snippet_rows(batch: pa.Table, *, index_dir: str, field: str,
                  query: str, window: int) -> pa.Table:
    """Row function: one segment per batch -> (doc_id, anchor_pos,
    snippet), on a searcher bound to the segment.

    ES unified-highlighter analogue with a documented deterministic
    convention: the fragment anchors on the EARLIEST occurrence of any
    query term in the doc (min over the terms' first positions from
    :meth:`..search.LocalSearcher.highlight`, which drops tombstoned docs), and
    the snippet is the ``window``-token neighbourhood re-tokenized from
    the stored-field shard's text. Segment-local end to end: postings,
    positions, docs slice and the text shard all stay within the
    segment."""
    from ..functions import analyzers as an

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "url": pa.array([], pa.string()),
                      "anchor_pos": pa.array([], pa.int64()),
                      "snippet": pa.array([], pa.string())})
    outs = []
    for seg_id in batch["segment_id"].to_pylist():
        seg_id = int(seg_id)
        hl = LocalSearcher(index_dir, segments=[seg_id]).highlight(
            query, field)
        if hl.num_rows == 0:
            continue
        # rows sorted by (doc_id, term): each doc's min first position
        ids, starts = np.unique(hl["doc_id"].to_numpy(), return_index=True)
        anchor = np.minimum.reduceat(hl["first_pos"].to_numpy(), starts)
        docs = pq.read_table(
            seg_docs_path(index_dir, seg_id),
            columns=["doc_id", "url"])
        base = int(docs["doc_id"][0].as_py())
        rows = docs.take(pa.array(ids - base))
        j = pa.table({"url": pc.cast(rows["url"], pa.string()),
                      "doc_id": rows["doc_id"],
                      "anchor_pos": pa.array(anchor, pa.int64()),
                      "text": _dv_take(index_dir, "text", seg_id, ids)})
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
                    field: str = DEFAULT_FIELD) -> rd.Dataset:
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
                "query": query, "window": int(window)},
            batch_format="pyarrow", batch_size=1)
    )


def _sort_partial(searcher: LocalSearcher, field: str, terms: list[str],
                  mode: str, sort_field: str, k: int, ascending: bool):
    """Group partial: top-k of the matched docs by a numeric field."""
    ids = searcher.matched_ids(field, terms, mode)
    if len(ids) == 0:
        return None
    fields = set(searcher.stats.get("field_analyzers",
                                    {DEFAULT_FIELD: "standard"}))
    if sort_field in fields | {"word_count"}:  # doc-length-backed
        src = DEFAULT_FIELD if sort_field == "word_count" else sort_field
        v = searcher._dl_for(src)[ids].astype(np.int64)
    else:
        v = np.asarray(_dv_values(searcher, sort_field, ids)).astype(np.int64)
    # stable top-k with doc_id-asc ties: ids are ascending, so a stable
    # sort on the value keeps the tie order
    order = np.argsort(v if ascending else -v, kind="stable")[:k]
    return ids[order], v[order]


def sorted_matches(index_dir: str, query: str, sort_field: str,
                   k: int = 10, ascending: bool = False,
                   field: str = DEFAULT_FIELD, mode: str = "or") -> pa.Table:
    """ES field sort: the top-``k`` docs matching ``query`` ordered by a
    numeric field (desc by default), ties broken doc_id-asc. Doc-length
    fields (any indexed field name, or ``word_count`` for the default
    field) come from the searcher's doc lengths; any other column is
    served from its doc-values shards (built on demand). Each segment
    group ships at most k rows; the final merge is k x groups-bounded."""
    check_match_mode(mode)
    known = set(_load_stats(index_dir).get(
        "field_analyzers", {DEFAULT_FIELD: "standard"})) | {"word_count"}
    parts = _run_partials(
        index_dir, query, field, _sort_partial, mode, sort_field, int(k),
        bool(ascending),
        columns=() if sort_field in known else (sort_field,))
    ids = np.concatenate([p[0] for p in parts] or [np.empty(0, np.int64)])
    v = np.concatenate([p[1] for p in parts] or [np.empty(0, np.int64)])
    order = np.lexsort((ids, v if ascending else -v))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        "sort_value": pa.array(v[order], pa.int64()),
    })


def reindex_matches(index_dir: str, dest_dir: str, query: str,
                    mode: str = "or", field: str = DEFAULT_FIELD,
                    docs_per_segment: int | None = None) -> dict:
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
                        stored_columns=("text", "lang", "warc_ts"))

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
