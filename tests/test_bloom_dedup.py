"""Bloom-filter incremental dedup: no false negatives, bounded false
positives, distributed build == single-pass reference."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from elasticsearch_data_loader_ray.functions.hll import fnv64_strings
from elasticsearch_data_loader_ray.stages.bloomdedup import (
    bloom_contains,
    bloom_partial,
    build_bloom,
    probe_seen,
)


def _keys(n: int, seed: int) -> pa.Array:
    rng = np.random.default_rng(seed)
    return pa.array([f"key-{seed}-{i}-{rng.integers(1 << 30)}"
                     for i in range(n)], pa.string())


def test_no_false_negatives():
    ks = fnv64_strings(_keys(5000, 1))
    words = bloom_partial(ks, 1 << 18, 8)
    assert bloom_contains(words, ks, 8).all()


def test_false_positive_rate_bounded():
    m, k, n = 1 << 18, 8, 20000
    words = bloom_partial(fnv64_strings(_keys(n, 2)), m, k)
    probes = fnv64_strings(_keys(50000, 3))  # disjoint key space
    fp = bloom_contains(words, probes, k).mean()
    bound = (1 - np.exp(-k * n / m)) ** k  # ~0.0019 at these params
    assert fp <= 3 * bound, (fp, bound)


def test_distributed_build_matches_reference(ray_session):
    arr = _keys(3000, 4)
    t = pa.table({"text": arr})
    ds = rd.from_arrow(t).repartition(7)
    words = build_bloom(ds, "text", 1 << 16, 6)
    ref = bloom_partial(fnv64_strings(arr), 1 << 16, 6)
    assert (words == ref).all()


def test_probe_seen_end_to_end(ray_session):
    import ray

    base = _keys(1000, 5)
    inc_new = _keys(200, 6)
    # incoming = 100 true duplicates + 200 fresh keys
    inc = pa.concat_arrays([base.slice(0, 100), inc_new])
    words = build_bloom(rd.from_arrow(pa.table({"text": base})), "text",
                        1 << 20, 8)
    out = (probe_seen(rd.from_arrow(pa.table({"text": inc})),
                      ray.put(words), "text", 8)
           .to_pandas())
    seen = out["seen"].to_numpy()
    assert seen[:100].all()          # every true dup flagged
    assert seen[100:].sum() <= 2     # FP odds ~1e-13/probe at 1 Mbit


def test_bloom_dedup_null_text_matches_sql_oracle(ray_session, tmp_path):
    """Null text matches nothing on either split, as in the SQL oracle's
    ``b.text = i.text``: a null incoming doc is not seen, whether the base
    split holds null or empty text."""
    import duckdb
    import pyarrow.parquet as pq

    from elasticsearch_data_loader_ray.pipelines import catalog

    n = 45
    texts = [f"unique text {i}" for i in range(n)]
    for i in (4, 8, 6, 21):   # null in base (4, 8) and incoming (6, 21)
        texts[i] = None
    texts[5] = texts[9] = ""  # empty text is a value: 9 is seen
    texts[7] = texts[12] = "shared body"  # a real cross-split duplicate
    pq.write_table(pa.table({"doc_id": pa.array(range(n), pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   str(tmp_path / "documents.parquet"))
    got = catalog.q_bloom_dedup(str(tmp_path))["doc_id"].to_pylist()
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"'{tmp_path}/documents.parquet'")
    want = con.sql(catalog.SQL_BLOOM_DEDUP).df()["doc_id"].tolist()
    assert got == want
    assert 9 in want and 12 in want and 6 not in want and 21 not in want
