"""Statically-pruned postings sidecar — the opt-in fast path for the
dense-OR tail (VERDICT r4 #2).

Round-4 profiling pinned the cold-serving p95 to all-common-term OR
queries whose EXACT scoring is memory-bandwidth over the full posting
volume (~75 ns/posting; BASELINE.md round-4 serving), and committed the
negative result for impact-ordered early termination (BM25 tf-saturation
makes per-term impact distributions flat, so upper bounds never certify).
What remains is the classic static index pruning of Carmel et al. (SIGIR
2001): keep, per high-df term, only the postings with the LARGEST exact
BM25 contribution, precomputed at build time.

Layout: one consolidated parquet (``pruned/part-0.parquet`` + meta.json +
_SUCCESS, epoch-validated: ``meta.json`` records the visible segment set,
and readers ignore a sidecar whose set no longer matches). One row per (field, term, segment), sorted by
(field, term, doc_base) so a query term's rows sit in 1-2 row groups and
the per-segment runs concatenate into ascending global doc ids. Cells
store raw little-endian arrays: ``doc_ids`` int64 and ``contribs``
float64 — the contribution is the FINAL idf x tf-impact value, so the
query path is scatter-add + top-k with no decode and no dl gather.

Rank contract (documented, opt-in via ``search(..., or_strategy=
"pruned")``, never chosen by "auto"): for any returned doc, the reported
score is a LOWER bound of its exact score, exact when every query-term
posting of that doc was kept (same float64 accumulation order as the
exact path). A doc absent from every kept list can be missed even if its
true score would rank; the per-term error is bounded by the row's ``eps``
(max pruned-away contribution), so any doc's true score is within
``sum(eps_t over query terms missing it)`` of its reported/0 score.
``LocalSearcher.last_pruned_bound`` exposes that sum per query.

Scale shape: one Ray task per segment (pruned reads of only the hot
terms' dictionary rows + blob byte ranges), consolidation via driver
concat below EDLR_FINALIZE_CUTOFF rows and a Ray Data sort above it —
the same split ``build._finalize`` uses for term stats. The sidecar is tiny relative to the
index (keep_frac of the head terms only), so serving reads stay O(query).

No counterpart in the reference repo (it delegates serving to
ElasticSearch/Lucene); public-literature technique.
"""

from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from . import codec
from . import manifest as mf
from .blobs import materialize_enc
from .build import BuildConfig, seg_docs_path, seg_terms_path

PRUNED_DIR = "pruned"


def _pruned_dir(index_dir: str) -> str:
    return os.path.join(index_dir, PRUNED_DIR)


def _hot_terms(index_dir: str, min_df: int) -> pa.Table:
    """(field, term, df) rows from term_stats with df >= min_df."""
    ts_dir = os.path.join(index_dir, "term_stats")
    files = [os.path.join(ts_dir, f) for f in sorted(os.listdir(ts_dir))
             if f.endswith(".parquet")]
    if not files:
        return pa.table({"field": pa.array([], pa.string()),
                         "term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    import pyarrow.dataset as pads

    return (pads.dataset(files)
            .to_table(columns=["field", "term", "df"],
                      filter=pads.field("df") >= min_df))


@ray.remote
def _prune_segment(index_dir: str, seg_id: int, doc_base: int,
                   hot: dict[str, list[str]], idf: dict[tuple, float],
                   avgdl_of: dict[str, float], keep_frac: float,
                   out_dir: str, row_group_rows: int) -> str | None:
    """Decode the hot terms' postings of ONE segment, keep the top
    ``keep_frac`` by exact BM25 contribution (ties -> lower doc id), and
    write a part file named by doc range so sorted filenames concatenate
    into ascending global doc ids."""
    import pyarrow.dataset as pads

    tpath = seg_terms_path(index_dir, seg_id)
    flt = None
    for f, ts in hot.items():
        c = (pads.field("field") == f) & pads.field("term").isin(ts)
        flt = c if flt is None else (flt | c)
    cols = ["field", "term", "df", "segment_id", "blob_off", "doc_nbytes",
            "tf_nbytes"]
    tt = pads.dataset(tpath).to_table(columns=cols, filter=flt)
    if tt.num_rows == 0:
        return None
    tt = materialize_enc(tt, lambda s: seg_terms_path(index_dir, s))
    # per-doc lengths for this segment's doc range, by field
    dl_by_field: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    dpath = seg_docs_path(index_dir, seg_id)
    dschema = pq.ParquetFile(dpath).schema_arrow
    rows = {"field": [], "term": [], "doc_base": [], "df_kept": [],
            "eps": [], "doc_ids": [], "contribs": []}
    for i in range(tt.num_rows):
        f = tt["field"][i].as_py()
        t = tt["term"][i].as_py()
        ids, tfs = codec.decode_postings(
            tt["doc_ids_enc"][i].as_py(), tt["tfs_enc"][i].as_py(),
            int(tt["df"][i].as_py()))
        if f not in dl_by_field:
            dlc = f"doc_len_{f}" if f"doc_len_{f}" in dschema.names \
                else "doc_len"
            dt = pq.read_table(dpath, columns=["doc_id", dlc])
            dl_by_field[f] = (dt["doc_id"].to_numpy(),
                              dt[dlc].to_numpy().astype(np.int64))
        dids, dls = dl_by_field[f]
        dl = dls[np.searchsorted(dids, ids)]
        contrib = idf[(f, t)] * codec.bm25_tf_impact(tfs, dl, avgdl_of[f])
        n_keep = max(1, int(np.ceil(keep_frac * len(ids))))
        if n_keep >= len(ids):
            keep = np.arange(len(ids))
            eps = 0.0
        else:
            # stable selection: (-contrib, doc_id) so equal contributions
            # keep the LOWER doc ids deterministically
            order = np.lexsort((ids, -contrib))
            keep = np.sort(order[:n_keep])
            eps = float(contrib[order[n_keep:]].max())
        rows["field"].append(f)
        rows["term"].append(t)
        rows["doc_base"].append(doc_base)
        rows["df_kept"].append(len(keep))
        rows["eps"].append(eps)
        rows["doc_ids"].append(ids[keep].astype(np.int64).tobytes())
        rows["contribs"].append(contrib[keep].tobytes())
    part = pa.table({
        "field": pa.array(rows["field"], pa.string()),
        "term": pa.array(rows["term"], pa.string()),
        "doc_base": pa.array(rows["doc_base"], pa.int64()),
        "df_kept": pa.array(rows["df_kept"], pa.int64()),
        "eps": pa.array(rows["eps"], pa.float64()),
        "doc_ids": pa.array(rows["doc_ids"], pa.large_binary()),
        "contribs": pa.array(rows["contribs"], pa.large_binary()),
    })
    path = os.path.join(out_dir, f"seg-{doc_base:014d}.parquet")
    tmp = path + f".tmp-{uuid.uuid4().hex}"
    pq.write_table(part, tmp, row_group_size=row_group_rows)
    os.replace(tmp, path)
    return path


def build_pruned_postings(index_dir: str, min_df: int = 100_000,
                          keep_frac: float = 0.1,
                          cfg: BuildConfig | None = None) -> int:
    """Build (or refresh) the pruned-postings sidecar for the index's
    current visible segment set. Returns the number of (field, term) lists
    pruned. Idempotent per epoch; dropped by merge/append/compact (any
    epoch mismatch makes readers ignore it)."""
    from .search import _load_stats, _visible_seg_ids, _avgdl

    cfg = cfg or BuildConfig()
    stats = _load_stats(index_dir)
    seg_ids, vis = _visible_seg_ids(index_dir, stats)
    want_meta = {"seg_ids": [int(s) for s in seg_ids],
                 "min_df": int(min_df), "keep_frac": float(keep_frac)}
    pdir = _pruned_dir(index_dir)
    if os.path.exists(os.path.join(pdir, "_SUCCESS")):
        try:
            have = mf.read_json(os.path.join(pdir, "meta.json"))
        except (OSError, ValueError):
            have = {}
        if {k: have.get(k) for k in want_meta} == want_meta:
            return int(have.get("n_lists", 0))
    if os.path.isdir(pdir):
        shutil.rmtree(pdir)
    hot_tbl = _hot_terms(index_dir, min_df)
    n_docs = int(stats["n_docs"])
    if hot_tbl.num_rows == 0 or not seg_ids or not n_docs:
        os.makedirs(pdir, exist_ok=True)
        mf.write_json_atomic(os.path.join(pdir, "meta.json"),
                             dict(want_meta, n_lists=0))
        with open(os.path.join(pdir, "_SUCCESS"), "w") as f:
            f.write("")
        return 0
    hot: dict[str, list[str]] = {}
    idf: dict[tuple, float] = {}
    for f, t, df in zip(hot_tbl["field"].to_pylist(),
                        hot_tbl["term"].to_pylist(),
                        hot_tbl["df"].to_pylist()):
        hot.setdefault(f, []).append(t)
        idf[(f, t)] = float(codec.bm25_idf(int(df), n_docs))
    avgdl_of = {f: _avgdl(stats, f) for f in hot}
    tmp_parts = os.path.join(pdir, "_parts")
    os.makedirs(tmp_parts, exist_ok=True)
    hot_ref = ray.put(hot)
    idf_ref = ray.put(idf)
    tasks = [
        _prune_segment.remote(index_dir, s, int(vis[s]["doc_id_base"]),
                              hot_ref, idf_ref, avgdl_of, keep_frac,
                              tmp_parts, 32)
        for s in seg_ids
    ]
    parts = [p for p in ray.get(tasks) if p]
    n_lists = 0
    if parts:
        total = sum(pq.ParquetFile(p).metadata.num_rows for p in parts)
        out = os.path.join(pdir, "part-0.parquet")
        if total <= int(os.environ.get("EDLR_FINALIZE_CUTOFF", "50000000")):
            tbl = pq.read_table(sorted(parts))
            tbl = tbl.sort_by([("field", "ascending"),
                               ("term", "ascending"),
                               ("doc_base", "ascending")])
            tmp = out + f".tmp-{uuid.uuid4().hex}"
            pq.write_table(tbl, tmp, row_group_size=32)
            os.replace(tmp, out)
        else:  # scale path: distributed sort, multiple parts
            import ray.data as rd

            (rd.read_parquet(sorted(parts))
             .sort(["field", "term", "doc_base"])
             .write_parquet(pdir))
        n_lists = hot_tbl.num_rows
    shutil.rmtree(tmp_parts, ignore_errors=True)
    mf.write_json_atomic(os.path.join(pdir, "meta.json"),
                         dict(want_meta, n_lists=int(n_lists)))
    with open(os.path.join(pdir, "_SUCCESS"), "w") as f:
        f.write("")
    return int(n_lists)


def drop_pruned(index_dir: str) -> None:
    """Remove the sidecar (stale after merge/append/compact — readers also
    epoch-check meta.json, this just reclaims the space eagerly)."""
    pdir = _pruned_dir(index_dir)
    if os.path.isdir(pdir):
        shutil.rmtree(pdir)
