"""A ``pruned/`` directory left by an older version (the removed
approximate pruned-postings sidecar: a parquet part, ``meta.json`` and
``_SUCCESS``) is inert: search, append, merge and snapshot/restore give
the same results, bitwise, as on a copy of the index without it."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.append import append_index
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.merge import compact_to
from elasticsearch_data_loader_ray.index.search import LocalSearcher
from elasticsearch_data_loader_ray.index.snapshot import (restore_index,
                                                          snapshot_index)

QUERIES = ("the data", "the of a", "w0042", "index query page web")


def _write_pruned_dir(idx: str) -> None:
    """The old sidecar's layout, matching the bound segment set, with
    contributions that would change every ranking if anything read them."""
    d = os.path.join(idx, "pruned")
    os.makedirs(d)
    ids = np.arange(5, dtype=np.int64)
    pq.write_table(pa.table({
        "field": ["text", "text"],
        "term": ["data", "the"],
        "doc_base": pa.array([0, 0], pa.int64()),
        "doc_ids": pa.array([ids.tobytes()] * 2, pa.binary()),
        "contribs": pa.array([np.full(5, 1e6).tobytes()] * 2, pa.binary()),
        "eps": [0.0, 0.0],
    }), os.path.join(d, "part-0.parquet"))
    with open(os.path.join(d, "meta.json"), "w") as f:
        json.dump({"seg_ids": sorted(int(s) for s in
                                     mf.committed_segments(idx)),
                   "min_df": 1, "keep_frac": 0.1}, f)
    open(os.path.join(d, "_SUCCESS"), "w").close()


def _results(idx: str) -> list:
    s = LocalSearcher(idx)
    return [(ids.tolist(), sc.tolist())
            for q in QUERIES for mode in ("or", "and")
            for ids, sc in [s.search(q, k=20, mode=mode)]]


def test_leftover_pruned_dir_is_inert(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(700), str(src / "p.parquet"))
    extra = tmp_path / "extra"
    extra.mkdir()
    # 100 of the appended urls are upserts of indexed ones
    pq.write_table(fixtures.generate_webtext(200, seed=9, start=600),
                   str(extra / "p.parquet"))
    cfg = BuildConfig(docs_per_segment=150)
    plain = str(tmp_path / "plain")
    build_index(str(src), plain, cfg)
    legacy = str(tmp_path / "legacy")
    shutil.copytree(plain, legacy)
    _write_pruned_dir(legacy)

    for step in ("build", "append", "merge", "restore"):
        if step == "append":
            for idx in (plain, legacy):
                append_index(str(extra), idx, cfg)
        elif step == "merge":
            for idx in (plain, legacy):
                compact_to(idx, 1)
        elif step == "restore":
            for name in ("plain", "legacy"):
                repo = str(tmp_path / f"repo_{name}")
                snapshot_index(str(tmp_path / name), repo, "s1")
                restore_index(repo, "s1", str(tmp_path / f"{name}_restored"))
            plain = str(tmp_path / "plain_restored")
            legacy = str(tmp_path / "legacy_restored")
        assert _results(legacy) == _results(plain), step
        assert (sorted(mf.committed_segments(legacy))
                == sorted(mf.committed_segments(plain))), step
