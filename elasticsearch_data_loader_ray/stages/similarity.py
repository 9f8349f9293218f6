"""Similarity search over embedding columns.

Baseline: brute-force cosine top-k (numpy matmul per batch against a
broadcast query matrix) — ``pipelines/catalog.q_embedding_topk``.

Scale path (this module): random-hyperplane LSH bucketing. Vectors are
assigned a ``n_planes``-bit signature bucket in one ``map_batches`` pass.
Two serving shapes:

* :func:`ann_topk` — one-shot: signatures computed in-pipeline, candidate
  filter is a mask (no index on disk);
* :func:`lsh_build` + :func:`lsh_topk` — the 10^12-scale shape, mirroring
  ``ivf.py``: the bucketed table is written hive-partitioned by bucket, so
  a query's multi-probe reads ONLY its buckets' files (partition-pruned
  pyarrow dataset filter; ``lsh_topk.last_buckets_read`` observability).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

N_PLANES = 12
LSH_SEED = 777


def vec_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a ``list<float>`` / ``fixed_size_list``
    Arrow column WITHOUT per-row Python lists: uniform-width lists reshape
    the flat values buffer (zero-copy until the float64 cast)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        vals = col.values.to_numpy(zero_copy_only=False)
        off = col.offset * dim
        return np.asarray(vals[off:off + len(col) * dim],
                          dtype=np.float64).reshape(len(col), dim)
    offs = np.asarray(col.offsets)
    widths = np.diff(offs)
    if len(widths) and (widths == widths[0]).all() and widths[0] > 0:
        dim = int(widths[0])
        vals = col.values.to_numpy(zero_copy_only=False)
        start = int(offs[0])
        return np.asarray(vals[start:start + len(col) * dim],
                          dtype=np.float64).reshape(len(col), dim)
    # ragged fallback (not expected for embedding columns)
    return np.stack([np.asarray(v, dtype=np.float64) for v in col.to_pylist()])


def _planes(dim: int, n_planes: int = N_PLANES) -> np.ndarray:
    rng = np.random.default_rng(LSH_SEED)
    p = rng.standard_normal((dim, n_planes))
    return p / np.linalg.norm(p, axis=0, keepdims=True)


def signature(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket id per row: sign bits of vecs @ planes packed to uint32."""
    bits = (vecs @ planes) > 0
    weights = (1 << np.arange(planes.shape[1], dtype=np.uint32))
    return (bits.astype(np.uint32) @ weights).astype(np.int64)


def probe_buckets(q_sig: int, n_probes: int, n_planes: int = N_PLANES) -> list[int]:
    """The query's bucket plus its Hamming-1 neighbors (multi-probe LSH)."""
    out = [int(q_sig)]
    for b in range(min(n_probes, n_planes)):
        out.append(int(q_sig) ^ (1 << b))
    return out


def ann_topk(emb_path: str, query_vec_ids: list[int], k: int = 10,
             n_probes: int = 6, id_col: str = "vec_id",
             embedding_col: str = "embedding") -> pa.Table:
    """Multi-probe LSH ANN: returns (query_vec_id, rank, vec_id, cos_sim).

    Exactness caveat (by design — this is the approximate scale path):
    recall depends on n_probes/n_planes; the pytest gate asserts recall@k
    against the brute-force baseline.
    """
    import pyarrow.parquet as pq

    qt = pq.read_table(emb_path, filters=[(id_col, "in", query_vec_ids)])
    dim = len(qt[embedding_col][0].as_py())
    planes = _planes(dim)
    q_ids = qt[id_col].to_pylist()
    q_mat = vec_matrix(qt[embedding_col])
    q_norm = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    q_sigs = signature(q_mat, planes)
    wanted: dict[int, list[int]] = {}
    for qi, sig in zip(q_ids, q_sigs):
        for b in probe_buckets(int(sig), n_probes):
            wanted.setdefault(b, []).append(qi)
    wanted_ref = ray.put(wanted)
    q_ref = ray.put((q_ids, q_norm))
    planes_ref = ray.put(planes)

    def score(t: pa.Table) -> pa.Table:
        want = ray.get(wanted_ref)
        ids_q, qm = ray.get(q_ref)
        pl = ray.get(planes_ref)
        vecs = vec_matrix(t[embedding_col])
        sigs = signature(vecs, pl)
        mask = np.isin(sigs, np.fromiter(want.keys(), dtype=np.int64))
        if not mask.any():
            return pa.table({"query_vec_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        vecs, sigs = vecs[mask], sigs[mask]
        vids = t[id_col].to_numpy()[mask]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vn = vecs / norms
        out_q, out_v, out_s = [], [], []
        for c, qid in enumerate(ids_q):
            cand = np.isin(sigs, np.fromiter(
                (b for b, qs in want.items() if qid in qs), dtype=np.int64))
            if not cand.any():
                continue
            sims = vn[cand] @ qm[c]
            take = min(k + 5, len(sims))
            if len(sims) > take:
                kth = np.partition(sims, -take)[-take]
                part = np.flatnonzero(sims >= kth)  # keep boundary ties
            else:
                part = np.arange(len(sims))
            out_q.extend([qid] * len(part))
            out_v.extend(vids[cand][part].tolist())
            out_s.extend(sims[part].tolist())
        return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "cos_sim": pa.array(out_s, pa.float64())})

    parts = (rd.read_parquet(emb_path, columns=[id_col, embedding_col])
             .map_batches(score, batch_format="pyarrow").to_pandas())
    parts["cos_sim"] = np.round(parts["cos_sim"].to_numpy(dtype=np.float64), 6)
    parts = parts.sort_values(["query_vec_id", "cos_sim", "vec_id"],
                              ascending=[True, False, True])
    parts["rank"] = parts.groupby("query_vec_id").cumcount() + 1
    parts = parts[parts["rank"] <= k]
    return pa.Table.from_pandas(
        parts[["query_vec_id", "rank", "vec_id", "cos_sim"]].reset_index(drop=True))


def lsh_build(emb_path: str, out_dir: str, n_planes: int = N_PLANES,
              id_col: str = "vec_id",
              embedding_col: str = "embedding") -> str:
    """Build the persistent LSH index: planes.json + vectors written
    hive-partitioned by signature bucket (the ``ivf_build`` twin). A probe
    then reads only its buckets' files — the layout the module docstring
    promises for 10^12-scale corpora."""
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    import pyarrow.parquet as pq

    dim = None
    pf = pq.ParquetFile(emb_path)
    for batch in pf.iter_batches(columns=[embedding_col], batch_size=1):
        if len(batch):
            dim = vec_matrix(pa.Table.from_batches([batch])[embedding_col]).shape[1]
        break
    if dim is None:
        raise ValueError(f"empty embeddings table: {emb_path}")
    planes = _planes(dim, n_planes)
    with open(os.path.join(out_dir, "planes.json"), "w") as f:
        json.dump({"n_planes": n_planes, "dim": dim,
                   "planes": planes.tolist()}, f)
    planes_ref = ray.put(planes)

    def assign(t: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        return t.append_column(
            "lsh_bucket",
            pa.array(signature(vec_matrix(t[embedding_col]), pl), pa.int64()))

    (rd.read_parquet(emb_path, columns=[id_col, embedding_col])
     .map_batches(assign, batch_format="pyarrow")
     .write_parquet(os.path.join(out_dir, "buckets"),
                    partition_cols=["lsh_bucket"]))
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write("")
    return out_dir


def lsh_topk(out_dir: str, query_vecs: np.ndarray, query_ids: list[int],
             k: int = 10, n_probes: int = 6, id_col: str = "vec_id",
             embedding_col: str = "embedding") -> pa.Table:
    """Multi-probe top-k over a :func:`lsh_build` index. Reads ONLY the
    probed buckets' partitions (equality OR-chain filter -> hive partition
    pruning); ``lsh_topk.last_buckets_read`` records them. Output contract
    matches :func:`ann_topk` (same buckets probed -> same candidates)."""
    import functools
    import operator

    import pyarrow.dataset as pads

    with open(os.path.join(out_dir, "planes.json")) as f:
        meta = json.load(f)
    planes = np.array(meta["planes"], dtype=np.float64)
    q_sigs = signature(query_vecs, planes)
    probe_of: dict[int, set[int]] = {}
    for qid, sig in zip(query_ids, q_sigs):
        probe_of[int(qid)] = set(
            probe_buckets(int(sig), n_probes, meta["n_planes"]))
    wanted = sorted(set().union(*probe_of.values())) if probe_of else []
    lsh_topk.last_buckets_read = wanted
    empty = pa.table({"query_vec_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})
    if not wanted:  # no queries -> no buckets; reduce() would raise
        return empty
    ds = pads.dataset(os.path.join(out_dir, "buckets"), partitioning="hive")
    flt = functools.reduce(operator.or_,
                           [pads.field("lsh_bucket") == w for w in wanted])
    t = ds.to_table(columns=[id_col, embedding_col, "lsh_bucket"], filter=flt)
    if t.num_rows == 0:
        return empty
    vecs = vec_matrix(t[embedding_col])
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    vn = vecs / norms
    vids = t[id_col].to_numpy()
    buckets = t["lsh_bucket"].to_numpy().astype(np.int64)
    qnorms = np.linalg.norm(query_vecs, axis=1, keepdims=True)
    qnorms[qnorms == 0] = 1.0
    qn = query_vecs / qnorms
    out_q, out_r, out_v, out_s = [], [], [], []
    for qi, qid in enumerate(query_ids):
        mask = np.isin(buckets, np.fromiter(probe_of[int(qid)],
                                            dtype=np.int64))
        if not mask.any():
            continue
        sims = np.round(vn[mask] @ qn[qi], 6)
        cand_ids = vids[mask]
        order = np.lexsort((cand_ids, -sims))[:k]
        for r, j in enumerate(order, start=1):
            out_q.append(int(qid)); out_r.append(r)
            out_v.append(int(cand_ids[j])); out_s.append(float(sims[j]))
    return pa.table({
        "query_vec_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "cos_sim": pa.array(out_s, pa.float64()),
    })
