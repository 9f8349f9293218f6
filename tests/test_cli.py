"""CLI end-to-end (subprocess — owns its own Ray session)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_cli_build_search_stats(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(200), str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO)

    r = subprocess.run(
        [sys.executable, "-m", "elasticsearch_data_loader_ray", "--num-cpus", "2",
         "build", str(src), idx],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    built = json.loads(r.stdout.strip().splitlines()[-1])
    assert built["n_docs"] > 150

    r = subprocess.run(
        [sys.executable, "-m", "elasticsearch_data_loader_ray", "search", idx,
         "the data", "-k", "3"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    rows = [json.loads(x) for x in r.stdout.strip().splitlines()]
    assert len(rows) == 3 and rows[0]["rank"] == 1

    r = subprocess.run(
        [sys.executable, "-m", "elasticsearch_data_loader_ray", "stats", idx],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=60)
    assert json.loads(r.stdout)["n_docs"] == built["n_docs"]


@pytest.mark.slow
def test_cli_compact_preserves_search(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(fixtures.generate_webtext(300), str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO)

    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "elasticsearch_data_loader_ray", *args],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
        assert r.returncode == 0, r.stderr[-800:]
        return [json.loads(x) for x in r.stdout.strip().splitlines()
                if x.startswith("{")]

    run("--num-cpus", "2", "build", str(src), idx,
        "--docs-per-segment", "60")
    before = run("search", idx, "the data", "-k", "5")
    res = run("compact", idx, "--max-segments", "2")[0]
    assert res["segments_after"] <= 2 < res["segments_before"]
    after = run("search", idx, "the data", "-k", "5")
    assert before == after  # identical ranking + rounded scores
