"""S5 error side-sinks: per-stage failure quarantine (extract_error,
oversize_payload), retry-safe deterministic side-write names, and
reject-count stability across corpus-phase restarts.

Reference semantics: a failing record lands in a per-kind error sink with
a reason and the run continues (/root/reference/write/write.go:45-131).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.stages import extract as ex


def _mini_batch() -> pa.Table:
    import datetime

    ts = datetime.datetime(2024, 1, 1)
    return pa.table({
        "url": pa.array([f"https://x/{i}" for i in range(4)], pa.string()),
        "warc_ts": pa.array([ts] * 4, pa.timestamp("us")),
        "html": pa.array([b"<p>fine one</p>", b"POISON", b"<p>ok two</p>",
                          None], pa.binary()),
        "text": pa.array(["fine one", None, "ok two", None], pa.large_string()),
        "lang": pa.array(["en"] * 4, pa.string()),
    })


def test_poison_row_quarantined_partition_completes(tmp_path, monkeypatch):
    real = ex.extract_text

    def poisoned(payload, pattern=None):
        if payload == b"POISON":
            raise ValueError("simulated tokenizer explosion")
        return real(payload, pattern)

    def batch_poisoned(html_col):
        # the vectorized kernel dies on the whole batch -> extract_batch
        # must drop to the per-row loop and quarantine only the poison row
        raise ValueError("simulated batch kernel explosion")

    monkeypatch.setattr(ex, "extract_text", poisoned)
    monkeypatch.setattr(ex, "extract_text_batch", batch_poisoned)
    errors_dir = str(tmp_path / "errors")
    out = ex.extract_batch(_mini_batch(), errors_dir=errors_dir)
    # partition completed: the two good rows survive, poison + null dropped
    assert out.num_rows == 2
    assert out["text"].to_pylist() == ["fine one", "ok two"]
    q = pq.read_table(os.path.join(errors_dir, ex.REJECT_STAGE_ERROR))
    assert q.num_rows == 1
    assert q["url"][0].as_py() == "https://x/1"
    assert "simulated tokenizer explosion" in q["error"][0].as_py()
    counts = ex.count_rejects(errors_dir)
    assert counts[ex.REJECT_STAGE_ERROR] == 1
    assert counts[ex.REJECT_MISSING_PAYLOAD] == 1


def test_retry_overwrites_side_write_not_appends(tmp_path):
    errors_dir = str(tmp_path / "errors")
    b = _mini_batch()
    ex.extract_batch(b, errors_dir=errors_dir)
    ex.extract_batch(b, errors_dir=errors_dir)  # simulated Ray task retry
    d = os.path.join(errors_dir, ex.REJECT_MISSING_PAYLOAD)
    assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 1
    assert ex.count_rejects(errors_dir)[ex.REJECT_MISSING_PAYLOAD] == 1


def test_oversize_payload_quarantined(tmp_path):
    errors_dir = str(tmp_path / "errors")
    out = ex.extract_batch(_mini_batch(), errors_dir=errors_dir,
                           max_doc_bytes=10)
    # "POISON" (6B) is under the limit and extracts to empty -> empty_text;
    # both <p> payloads exceed 10B -> oversize
    counts = ex.count_rejects(errors_dir)
    assert counts[ex.REJECT_OVERSIZE] == 2
    assert out.num_rows == 0


def test_build_with_oversize_guard_e2e(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    t = fixtures.generate_webtext(300)
    pq.write_table(t, str(src / "part-0.parquet"))
    idx = str(tmp_path / "idx")
    limit = 2500
    n_over = sum(1 for h in t["html"].to_pylist()
                 if h is not None and len(h) > limit)
    assert n_over > 0  # fixture long docs exceed the limit
    stats = build_index(str(src), idx, BuildConfig(
        docs_per_segment=100, max_doc_bytes=limit))
    assert stats["rejects"][ex.REJECT_OVERSIZE] == n_over
    # corpus keeps duplicate rows (dedup happens in phase C), so every input
    # row is either in the corpus or in exactly one reject sink
    corpus = pq.read_table(os.path.join(idx, "corpus"))
    assert corpus.num_rows + sum(stats["rejects"].values()) == t.num_rows


def test_corpus_restart_resets_reject_counts(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    t = fixtures.generate_webtext(250)
    pq.write_table(t, str(src / "part-0.parquet"))
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(docs_per_segment=100)
    s1 = build_index(str(src), idx, cfg)
    # simulate a crash mid-corpus-phase: _SUCCESS missing, stale side-writes
    os.remove(os.path.join(idx, "corpus", "_SUCCESS"))
    os.remove(os.path.join(idx, "plan.json"))
    os.remove(os.path.join(idx, "stats.json"))
    import shutil

    shutil.rmtree(os.path.join(idx, "term_stats"))
    for sub in ("terms", "docs", "manifests"):
        shutil.rmtree(os.path.join(idx, sub))
    s2 = build_index(str(src), idx, cfg)
    assert s2["rejects"] == s1["rejects"]  # not inflated by the restart


def test_clear_errors_dir_retries_transient_enotempty(tmp_path, monkeypatch):
    """A concurrent writer landing a side-write mid-rmtree (ENOTEMPTY)
    must not fail the build: cleanup retries, then degrades to
    best-effort instead of raising."""
    import shutil

    from elasticsearch_data_loader_ray.index.build import _clear_errors_dir

    d = tmp_path / "errors"
    (d / "missing_payload").mkdir(parents=True)
    (d / "missing_payload" / "b0.parquet").write_bytes(b"x")

    real_rmtree = shutil.rmtree
    calls = {"n": 0}

    def flaky_rmtree(path, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError(39, "Directory not empty", str(path))
        return real_rmtree(path, **kw)

    monkeypatch.setattr(shutil, "rmtree", flaky_rmtree)
    _clear_errors_dir(str(d))
    assert not d.exists()
    assert calls["n"] == 2  # one transient failure, one successful retry

    # missing dir is a silent no-op (fresh index, nothing to clear)
    monkeypatch.setattr(shutil, "rmtree", real_rmtree)
    _clear_errors_dir(str(tmp_path / "never_existed"))


def test_clear_errors_dir_warns_when_dir_survives(tmp_path, monkeypatch,
                                                  caplog):
    """An rmtree that always fails must not raise, but must not be silent
    either: the surviving side-writes would over-count rejects."""
    import logging
    import shutil

    from elasticsearch_data_loader_ray.index.build import _clear_errors_dir

    d = tmp_path / "errors"
    (d / "missing_payload").mkdir(parents=True)
    (d / "missing_payload" / "b0.parquet").write_bytes(b"x")

    def failing_rmtree(path, ignore_errors=False, **kw):
        if not ignore_errors:
            raise OSError(39, "Directory not empty", str(path))

    monkeypatch.setattr(shutil, "rmtree", failing_rmtree)
    monkeypatch.setattr("time.sleep", lambda _s: None)
    with caplog.at_level(logging.WARNING):
        _clear_errors_dir(str(d))
    assert d.exists()
    assert any(str(d) in r.getMessage() and r.levelno == logging.WARNING
               for r in caplog.records)
