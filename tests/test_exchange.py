"""The exchange's source side: one partition task per source block, which
also writes that block's corpus part. The segment files must not depend on
how the source is cut into blocks, and the corpus commits only after every
block's task has finished, also on a resume that builds nothing."""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import build as B
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    build_index_from_corpus,
)
from elasticsearch_data_loader_ray.stages.extract import extract_batch

CFG = BuildConfig(docs_per_segment=120, index_positions=True)


def _corpus(tmp_path) -> pa.Table:
    t = fixtures.generate_webtext(700, seed=23)
    return extract_batch(t, errors_dir=str(tmp_path / "errors"))


def _blocks(corpus: pa.Table, n: int) -> rd.Dataset:
    step = -(-corpus.num_rows // n)
    return rd.from_arrow([corpus.slice(i, step)
                          for i in range(0, corpus.num_rows, step)])


def _index_md5s(idx: str) -> dict[str, str]:
    """Digest of every segment file, term_stats part, plan and manifest
    (timings dropped); the corpus is compared by rows, not files."""
    out = {}
    for sub in ("terms", "docs", "term_stats", "manifests"):
        for dirpath, _dirs, files in os.walk(os.path.join(idx, sub)):
            for f in files:
                p = os.path.join(dirpath, f)
                rel = os.path.relpath(p, idx)
                if sub == "manifests":
                    m = {k: v for k, v in json.load(open(p)).items()
                         if k not in ("build_secs", "docs_per_sec")}
                    out[rel] = json.dumps(m, sort_keys=True)
                else:
                    with open(p, "rb") as fh:
                        out[rel] = hashlib.md5(fh.read()).hexdigest()
    out["plan.json"] = json.dumps(mf.read_json(os.path.join(idx, "plan.json")),
                                  sort_keys=True)
    return out


def _corpus_rows(idx: str) -> pa.Table:
    return pq.read_table(os.path.join(idx, "corpus")).sort_by(
        [("url", "ascending"), ("warc_ts", "ascending")])


def _parts(idx: str) -> list[str]:
    return sorted(f for f in os.listdir(os.path.join(idx, "corpus"))
                  if f.endswith(".parquet"))


def test_block_count_invariance(tmp_path):
    """One source block or seven: byte-identical segment files and
    term_stats, and the same corpus rows in one part per block."""
    corpus = _corpus(tmp_path)
    one, seven = str(tmp_path / "one"), str(tmp_path / "seven")
    build_index_from_corpus(_blocks(corpus, 1), one, CFG)
    build_index_from_corpus(_blocks(corpus, 7), seven, CFG)
    assert len(mf.committed_segments(one)) >= 4
    assert (len(_parts(one)), len(_parts(seven))) == (1, 7)
    assert _index_md5s(seven) == _index_md5s(one)
    assert _corpus_rows(seven).equals(_corpus_rows(one))


def test_resume_with_every_segment_committed(tmp_path, monkeypatch):
    """A crash after every segment committed but before the corpus did:
    the resume ships no rows to any build task, yet ``corpus/_SUCCESS``
    is written only once every block's part is on disk, and the index is
    md5-equal to a clean build."""
    corpus = _corpus(tmp_path)
    clean = str(tmp_path / "clean")
    build_index_from_corpus(_blocks(corpus, 7), clean, CFG)
    idx = str(tmp_path / "idx")
    build_index_from_corpus(_blocks(corpus, 7), idx, CFG)
    os.unlink(os.path.join(idx, "corpus", "_SUCCESS"))
    os.unlink(os.path.join(idx, "stats.json"))
    shutil.rmtree(os.path.join(idx, "term_stats"))

    parts_at_commit = []

    def watching_open(path, *a, **k):
        if str(path) == os.path.join(idx, "corpus", "_SUCCESS"):
            parts_at_commit.append(len(_parts(idx)))
        return builtins.open(path, *a, **k)

    monkeypatch.setattr(B, "open", watching_open, raising=False)
    stats = build_index_from_corpus(_blocks(corpus, 7), idx, CFG)
    assert parts_at_commit == [7]
    assert stats["n_docs"] == mf.read_json(
        os.path.join(clean, "stats.json"))["n_docs"]
    assert _index_md5s(idx) == _index_md5s(clean)
    assert _corpus_rows(idx).equals(_corpus_rows(clean))
