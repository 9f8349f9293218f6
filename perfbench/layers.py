"""Per-layer metrics of a traced run.

Each layer is measured from outside the package, by timing its public
calls: the calls the workload already made (builds, appends, deletes,
compactions, binds, refreshes, queries — spans in the recorder) and, after
the workload's measured window and checks, probes that call one layer at a
time on the run's own inputs and index. The probes run only in traced runs,
so they never touch an end-to-end number.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs

PHASES = ("bounds", "corpus", "plan", "segments", "finalize")
IDF_PROBE_QUERIES = 300
RANGE_PROBE_QUERIES = 200
TERMS_PROBE_QUERIES = 1000


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _probe_extract(run, src: str) -> tuple[list[pa.Table], dict]:
    """``extract_batch`` over the input's record batches."""
    from elasticsearch_data_loader_ray.stages.extract import extract_batch

    html = rows_in = rows_out = 0
    secs = 0.0
    out = []
    for name in sorted(os.listdir(src)):
        pf = pq.ParquetFile(os.path.join(src, name))
        for batch in pf.iter_batches(batch_size=1024):
            tbl = pa.Table.from_batches([batch])
            html += int(pa.compute.sum(
                pa.compute.binary_length(tbl["html"])).as_py() or 0)
            with run.rec.span("probe.extract_batch") as t:
                got = extract_batch(tbl)
            secs += t.secs
            rows_in += tbl.num_rows
            rows_out += got.num_rows
            out.append(got)
    return out, {
        "extract.html_mb_per_s": (html / 1e6 / secs, "MB/s"),
        "extract.reject_share": (1 - rows_out / rows_in, "ratio"),
    }


def _probe_analyzers(run, corpus: list[pa.Table]) -> dict:
    from elasticsearch_data_loader_ray.functions.analyzers import \
        analyze_column
    from elasticsearch_data_loader_ray.index.search import query_terms

    text = pa.chunked_array([t["text"] for t in corpus])
    with run.rec.span("probe.analyze_column") as t:
        _doc_idx, tokens, _dl = analyze_column(text, "standard")
    us = []
    for q, _m in run.sent[:TERMS_PROBE_QUERIES]:
        with run.rec.span("probe.query_terms") as tq:
            query_terms(q)
        us.append(tq.secs * 1e6)
    return {
        "analyzers.tokens_per_s": (len(tokens) / t.secs, "tokens/s"),
        "analyzers.query_terms_us": (_median(us), "us"),
    }


def _probe_from_corpus(run, corpus: list[pa.Table]) -> dict:
    """``build_index_from_corpus`` on a materialized extracted corpus, which
    separates the build from extraction."""
    import ray.data as rd

    from elasticsearch_data_loader_ray.index.build import \
        build_index_from_corpus

    ds = rd.from_arrow(corpus).materialize()
    out = run.index_dir("probe-from-corpus")
    shutil.rmtree(out, ignore_errors=True)
    with run.rec.span("probe.build_index_from_corpus") as t:
        build_index_from_corpus(ds, out)
    shutil.rmtree(out, ignore_errors=True)
    return {"build.from_corpus_s": (t.secs, "s")}


def _probe_codec(run, index_dir: str) -> dict:
    """``decode_postings`` over one segment's ``read_segment_terms`` rows,
    then ``build_posting_table`` re-encoding the decoded postings."""
    from elasticsearch_data_loader_ray.index import codec
    from elasticsearch_data_loader_ray.index import manifest as mf
    from elasticsearch_data_loader_ray.index.build import (
        read_segment_terms, seg_docs_path)
    from elasticsearch_data_loader_ray.index.search import _load_stats

    segs = mf.committed_segments(index_dir)
    seg = max(segs, key=lambda s: int(segs[s]["n_docs"]))
    terms = read_segment_terms(index_dir, seg)
    terms = terms.filter(pa.compute.equal(terms["field"], "text"))
    encs = list(zip(terms["doc_ids_enc"].to_pylist(),
                    terms["tfs_enc"].to_pylist(),
                    terms["df"].to_pylist()))
    with run.rec.span("probe.decode_postings") as td:
        decoded = [codec.decode_postings(d, f, n) for d, f, n in encs]
    n_post = sum(n for _d, _f, n in encs)
    docs = pq.read_table(seg_docs_path(index_dir, seg),
                         columns=["doc_id", "doc_len"]).sort_by("doc_id")
    doc_ids = np.concatenate([d for d, _t in decoded])
    tfs = np.concatenate([t for _d, t in decoded])
    term_col = np.repeat(np.asarray(terms["term"].to_pylist(), dtype=object),
                         terms["df"].to_numpy())
    dls = docs["doc_len"].to_numpy()[
        np.searchsorted(docs["doc_id"].to_numpy(), doc_ids)]
    avgdl = float(_load_stats(index_dir)["avgdl"])
    with run.rec.span("probe.build_posting_table") as te:
        table = codec.build_posting_table(term_col, doc_ids, tfs, dls, avgdl)
    enc_bytes = (sum(len(b) for b in table["doc_ids_enc"])
                 + sum(len(b) for b in table["tfs_enc"]))
    return {
        "codec.encode_postings_per_s": (n_post / te.secs, "postings/s"),
        "codec.bytes_per_posting": (enc_bytes / n_post, "B"),
        "codec.decode_postings_per_s": (n_post / td.secs, "postings/s"),
    }


def _probe_blobs(run, index_dir: str) -> dict:
    """``materialize_enc`` range reads of the query terms' postings."""
    from elasticsearch_data_loader_ray.index import blobs
    from elasticsearch_data_loader_ray.index.build import seg_terms_path
    from elasticsearch_data_loader_ray.index.search import (
        _load_stats, _visible_seg_ids, query_terms)

    seg_ids, _vis = _visible_seg_ids(index_dir, _load_stats(index_dir))
    files = [seg_terms_path(index_dir, s) for s in seg_ids]
    cols = ["segment_id", "field", "term", *blobs.RANGE_COLUMNS[:3]]
    nbytes, secs = 0, 0.0
    for q, _m in run.sent[:RANGE_PROBE_QUERIES]:
        terms = query_terms(q)
        tbl = pq.read_table(files, columns=cols,
                            filters=[("field", "=", "text"),
                                     ("term", "in", terms)])
        if tbl.num_rows == 0:
            continue
        with run.rec.span("probe.materialize_enc") as t:
            blobs.materialize_enc(
                tbl, lambda sid: seg_terms_path(index_dir, sid))
        secs += t.secs
        nbytes += int(pa.compute.sum(tbl["doc_nbytes"]).as_py()
                      + pa.compute.sum(tbl["tf_nbytes"]).as_py())
    return {"blobs.range_read_mb_per_s": (nbytes / 1e6 / max(secs, 1e-9),
                                          "MB/s")}


def _probe_idf(run, index_dir: str) -> dict:
    from elasticsearch_data_loader_ray.index.search import (load_global_idf,
                                                            query_terms)

    ms, postings = [], []
    for q, _m in run.sent[:IDF_PROBE_QUERIES]:
        with run.rec.span("probe.load_global_idf") as t:
            _idf, dfs, _n = load_global_idf(index_dir,
                                            {"text": query_terms(q)})
        ms.append(t.secs * 1000)
        postings.append(sum(dfs.values()))
    return {
        "search.idf_ms": (_median(ms), "ms"),
        "search.postings_per_query": (_median(postings), "count"),
    }


def per_layer(run) -> dict:
    """Every per-layer metric of BENCHMARK.json, from a traced run."""
    idx = run.final_index
    src = inputs.base_table(run.cache_dir, run.seed)
    t_probe = time.perf_counter()
    # write-side probes the workload did not already exercise
    if not run.deletes:
        run.delete(idx, inputs.delete_terms(run.seed, 1)[0])
    if not run.compactions:
        from elasticsearch_data_loader_ray.index import manifest as mf

        run.compact(idx, max(1, len(mf.committed_segments(idx)) // 2))
    corpus, out = _probe_extract(run, src)
    out.update(_probe_analyzers(run, corpus))
    out.update(_probe_from_corpus(run, corpus))
    out.update(_probe_codec(run, idx))
    out.update(_probe_blobs(run, idx))
    out.update(_probe_idf(run, idx))
    for ph in PHASES:
        out[f"build.phase.{ph}_s"] = (
            _median([b["phase_secs"].get(ph, 0.0) for b in run.builds]), "s")
    app = run.appends
    out.update({
        "search.bind_ms": (_median(run.binds) * 1000, "ms"),
        "search.refresh_ms": (_median(run.refreshes) * 1000, "ms"),
        "search.repeat_query_share": (inputs.repeat_share(run.sent), "ratio"),
        "append.docs_per_s": (_median([a["rows"] / a["secs"] for a in app]),
                              "docs/s"),
        "append.upsert_share": (sum(a["upserts"] for a in app)
                                / sum(a["rows"] for a in app), "ratio"),
        "append.delete_ms": (_median(run.deletes) * 1000, "ms"),
        "append.bytes_rewritten_per_new_byte": (
            sum(a["bytes_written"] for a in app)
            / sum(a["text_bytes"] for a in app), "ratio"),
        "merge.compact_s": (_median([c["secs"] for c in run.compactions]),
                            "s"),
        "merge.bytes_rewritten": (
            _median([c["bytes_written"] for c in run.compactions]), "B"),
        "merge.segments_before": (
            _median([c["segments_before"] for c in run.compactions]),
            "count"),
        "merge.segments_after": (
            _median([c["segments_after"] for c in run.compactions]),
            "count"),
    })
    run.facts["probe_s"] = round(time.perf_counter() - t_probe, 3)
    # the recorder's own bookkeeping, as a share of the run's wall time
    wall = time.perf_counter() - run.rec.t0
    out["trace.overhead_pct"] = (100 * run.rec.overhead_s / wall, "%")
    out["trace.spans"] = (float(len(run.rec.spans)), "count")
    return out
