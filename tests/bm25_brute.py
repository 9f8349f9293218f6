"""Dense brute-force BM25 top-k over an index's own postings, the reference
the exact scorer is checked against on indexes the webtext oracle does not
cover (appended generations, tombstones)."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

from elasticsearch_data_loader_ray.index import codec
from elasticsearch_data_loader_ray.index.build import seg_docs_path
from elasticsearch_data_loader_ray.index.search import (
    LocalSearcher,
    _load_deleted,
    query_terms,
)


def brute_topk(index_dir: str, query: str, k: int, mode: str = "or"
               ) -> tuple[np.ndarray, np.ndarray]:
    """Every visible segment's postings of the query terms decoded with
    ``codec.decode_postings``; per doc, contributions summed into a dense
    array in lexicographic term order; tombstoned docs dropped (``and``:
    docs missing a term too); cut by (score desc, doc id asc)."""
    s = LocalSearcher(index_dir)
    n = s.n_docs
    avgdl = float(s.stats["per_field"]["text"]["avgdl"])
    dl = np.zeros(n)
    for seg in s.seg_ids:
        d = pq.read_table(seg_docs_path(index_dir, seg),
                          columns=["doc_id", "doc_len"])
        dl[d["doc_id"].to_numpy()] = d["doc_len"].to_numpy()
    terms = query_terms(query)
    tt = s._read_terms(["term", "df"], {"text": terms})
    runs: dict[str, list] = {}
    for i in range(tt.num_rows):
        runs.setdefault(tt["term"][i].as_py(), []).append(
            codec.decode_postings(tt["doc_ids_enc"][i].as_py(),
                                  tt["tfs_enc"][i].as_py(),
                                  int(tt["df"][i].as_py())))
    scores = np.zeros(n)
    hits = np.zeros(n, np.int64)
    for t in terms:  # lexicographic (query_terms sorts)
        if t not in runs:
            continue
        idf = float(codec.bm25_idf(sum(len(ids) for ids, _ in runs[t]), n))
        for ids, tfs in runs[t]:
            scores[ids] += idf * codec.bm25_tf_impact(tfs, dl[ids], avgdl)
            hits[ids] += 1
    match = hits == len(terms) if mode == "and" else hits > 0
    match[_load_deleted(index_dir, s.stats)] = False
    cand = np.flatnonzero(match)
    order = np.lexsort((cand, -scores[cand]))[:k]
    return cand[order], scores[cand][order]
