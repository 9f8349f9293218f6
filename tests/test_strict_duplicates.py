"""D1 create-conflict parity (VERDICT r2 item 10): the reference aborts the
load on a duplicate _id (companybindex/main.go:216-222). Default engine
semantics keep-first-dedup and count; ``strict_duplicates=True`` must fail
the build with the offending urls before committing anything."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    DuplicateUrlError,
    build_index,
)


def _write_src(tmp_path, n=400):
    src = tmp_path / "src"
    os.makedirs(src)
    pq.write_table(fixtures.generate_webtext(n), str(src / "p.parquet"))
    return str(src)


def test_strict_duplicates_fails_with_examples(tmp_path):
    src = _write_src(tmp_path)  # fixture mixes exact-dup rows in (i%101==19)
    with pytest.raises(DuplicateUrlError) as ei:
        build_index(src, str(tmp_path / "idx"), BuildConfig(
            docs_per_segment=100, strict_duplicates=True))
    assert ei.value.n_duplicates > 0
    assert ei.value.examples and all("://" in u for u in ei.value.examples)
    # nothing committed: no segment manifests, no plan
    assert not os.path.exists(tmp_path / "idx" / "plan.json")
    assert not os.path.isdir(tmp_path / "idx" / "manifests")


def test_default_build_counts_duplicates(tmp_path):
    src = _write_src(tmp_path)
    stats = build_index(src, str(tmp_path / "idx3"),
                        BuildConfig(docs_per_segment=100))
    assert stats["n_duplicates"] > 0  # default: dedup + count, not fatal
