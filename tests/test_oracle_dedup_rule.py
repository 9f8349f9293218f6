"""Adversarial dedup inputs: duplicate urls with DIFFERING payloads and
timestamps. The engine's rule is reject-filter first, then keep the
min-(url, warc_ts) row per url; the oracle must implement exactly that
(ADVICE r1: first-occurrence-in-input dedup diverges on these inputs).
"""

from __future__ import annotations

import datetime

import pyarrow as pa
import pyarrow.parquet as pq

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.index import oracle
from elasticsearch_data_loader_ray.index.build import BuildConfig, build_index
from elasticsearch_data_loader_ray.index.search import search
from elasticsearch_data_loader_ray.schema import WEBTEXT


def _html(text: str) -> bytes:
    return f"<html><body><p>{text}</p></body></html>".encode()


def _adversarial_webtext() -> pa.Table:
    ts = datetime.datetime(2024, 1, 1)
    base = fixtures.generate_webtext(120)
    rows = {
        "url": [], "warc_ts": [], "html": [], "text": [], "lang": [],
    }

    def add(url, dt, text):
        rows["url"].append(url)
        rows["warc_ts"].append(ts + datetime.timedelta(seconds=dt))
        rows["html"].append(_html(text) if text is not None else None)
        rows["text"].append(text)
        rows["lang"].append("en")

    # url A: earliest row is an EMPTY reject, later row is valid ->
    # the engine indexes the valid payload (old oracle dropped the url)
    add("https://adv.example/a", 0, "")
    add("https://adv.example/a", 5, "zebra quagga unique tokens")
    # url B: valid rows arrive out of timestamp order with different texts
    # -> min warc_ts wins regardless of input position
    add("https://adv.example/b", 9, "late wrong version of b")
    add("https://adv.example/b", 2, "early canonical b zebra")
    # url C: NULL-payload row first, then valid
    add("https://adv.example/c", 0, None)
    add("https://adv.example/c", 1, "c document zebra text")
    extra = pa.table(rows, schema=WEBTEXT)
    return pa.concat_tables([base, extra]).combine_chunks()


def test_engine_matches_oracle_on_adversarial_duplicates(tmp_path):
    t = _adversarial_webtext()
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, BuildConfig(docs_per_segment=40))
    # the oracle corpus carries the min-ts payloads
    urls, toks = oracle.corpus_from_webtext(t)
    assert "https://adv.example/a" in urls
    d_b = urls.index("https://adv.example/b")
    assert "canonical" in toks[d_b]
    assert "late" not in toks[d_b]
    # full rank+score parity on a query hitting the adversarial docs
    queries = pa.table({
        "query_id": pa.array([0, 1], pa.int64()),
        "query": pa.array(["zebra", "canonical b"], pa.string()),
        "k": pa.array([10, 10], pa.int64()),
    })
    got = search(idx, queries).to_pandas()
    want = oracle.bm25_topk(t, queries).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["score"].tolist() == want["score"].tolist()  # bitwise
    # and the planted docs actually rank for "zebra"
    z = got[got["query_id"] == 0]
    assert len(z) >= 3
