"""Serving-latency protocol at multi-million-doc scale (BASELINE.md).

Reproduces the round-4 serving measurement end-to-end:

  build 3.875M synthetic webtext docs (500 x 8k-doc segments, merged at
  commit down to merge.MAX_SEGMENTS; cached under /tmp) -> fresh
  searcher -> 24-query mix (fixture queries + head-term ORs +
  needle+haystack + a miss): cold pass then 2 warm passes per class.
  The mix's multi-term queries also run as conjunctions (``mode="and"``,
  reported under ``"and"``) with the same passes. Per class it reports
  latency percentiles over all passes, each query's cold latency and warm
  median, and the mean of the warm medians (a percentile over 48 warm
  samples of 24 queries falls between query classes and moves between
  runs of the same code).

Usage: python tools/serve_bench.py            # prints one JSON line
Env: EDLR_SERVE_DOCS (3875000), EDLR_SERVE_SEGDOCS (8000)
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_DOCS = int(os.environ.get("EDLR_SERVE_DOCS", "3875000"))
SEG_DOCS = int(os.environ.get("EDLR_SERVE_SEGDOCS", "8000"))
ROOT = f"/tmp/edlr_serve/{N_DOCS}_{SEG_DOCS}"

EXTRA_QUERIES = [
    "the of a",                  # 3 head terms
    "the of a and to in",        # 6 head terms
    "the of a with for",         # 5 head terms
    "index query page web site", # 5 mid-df terms
    "data web page",
    "page",
    "the w1500",                 # needle + haystack
    "w2000 w0042",               # two needles
]


def query_mix() -> list[str]:
    from elasticsearch_data_loader_ray import fixtures

    qs = fixtures.generate_queries()["query"].to_pylist()
    return qs + EXTRA_QUERIES  # 16 + 8 = 24


def main_impl(ray) -> None:
    from elasticsearch_data_loader_ray import fixtures
    from elasticsearch_data_loader_ray.index.build import (
        BuildConfig,
        build_index,
    )
    from elasticsearch_data_loader_ray.index.search import (
        LocalSearcher,
        query_terms,
    )

    src = os.path.join(ROOT, "src")
    idx = os.path.join(ROOT, "index")
    timings: dict[str, float] = {}
    if not os.path.exists(os.path.join(src, "_COMPLETE")):
        import shutil

        shutil.rmtree(src, ignore_errors=True)
        fixtures.write_webtext(src, N_DOCS)
        open(os.path.join(src, "_COMPLETE"), "w").close()
    if not os.path.exists(os.path.join(idx, "_BUILT")):
        import shutil

        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.perf_counter()
        stats = build_index(src, idx, BuildConfig(docs_per_segment=SEG_DOCS))
        # build_secs includes the merge at commit; compact_secs is its part
        timings["build_secs"] = round(time.perf_counter() - t0, 1)
        timings["compact_secs"] = stats["phase_secs"].get("compact", 0.0)
        open(os.path.join(idx, "_BUILT"), "w").close()
    from elasticsearch_data_loader_ray.index import manifest as mf

    timings["n_segments"] = len(mf.committed_segments(idx))

    qs = query_mix()
    out: dict = {"n_docs": N_DOCS, "seg_docs": SEG_DOCS, "queries": len(qs),
                 **timings}
    and_qs = [q for q in qs if len(query_terms(q)) > 1]
    for label, mode, mix in (("exact", "or", qs), ("and", "and", and_qs)):
        s = LocalSearcher(idx)  # fresh bind per class: cold caches
        lat_cold, lat_warm = [], []
        per_q = {}
        warm_q: dict[str, list[float]] = {q: [] for q in mix}
        for rnd in range(3):
            s._request_cache.clear()
            for q in mix:
                t0 = time.perf_counter()
                s.search(q, k=10, mode=mode)
                dt = time.perf_counter() - t0
                (lat_cold if rnd == 0 else lat_warm).append(dt)
                if rnd == 0:
                    per_q[q] = round(dt * 1000, 1)
                else:
                    warm_q[q].append(dt * 1000)
        lat_cold.sort()
        lat_warm.sort()
        warm_med = {q: round(statistics.median(v), 2)
                    for q, v in warm_q.items()}
        out[label] = {
            "cold_p50_ms": round(1000 * lat_cold[len(lat_cold) // 2], 1),
            "cold_p95_ms": round(
                1000 * lat_cold[int(0.95 * len(lat_cold)) - 1], 1),
            "warm_p50_ms": round(1000 * lat_warm[len(lat_warm) // 2], 1),
            "warm_p95_ms": round(
                1000 * lat_warm[int(0.95 * len(lat_warm)) - 1], 1),
            "cold_worst_ms": round(1000 * lat_cold[-1], 1),
            "cold_per_query_ms": per_q,
            "warm_per_query_median_ms": warm_med,
            "warm_median_mean_ms": round(
                statistics.mean(warm_med.values()), 2),
        }
    print(json.dumps(out))
    import ray as _ray

    _ray.shutdown()


if __name__ == "__main__":
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    main_impl(ray)
