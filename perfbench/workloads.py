"""One benchmark run, in a fresh process: ``python -m perfbench.workloads``.

``perfbench/run.py`` starts this module once per run with a private run
directory and reads the JSON it leaves in ``--out``. The load generator is
this one process with one client thread; Ray starts inside it with a fixed
``NUM_CPUS`` (the index layout depends on it: auto-sized segments hold
``max(4000, n / (2 * cpus))`` docs).

Each workload runs its set-up, then its measured phases, then its output
checks; no check runs inside a timed operation. An operation that raises,
or whose output fails a check, is counted as failed with its message and
the run goes on; only a failure during set-up ends the run without a
result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # "process start" for setup_s

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from itertools import islice  # noqa: E402

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from . import inputs  # noqa: E402
from .trace import Recorder  # noqa: E402

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
TIMED_BUILDS = 5               # fresh builds timed after the warm-up
SERVE_APPENDS = 4
SERVE_WARM_QUERIES = 200
WARM_GROUP_TERMS = 40
SERVE_STREAM_QUERIES = 6000    # upper bound on one serve window
SERVE_SLICES = 5
CHURN_CYCLES = 4
CHURN_BURST = 300              # queries after every churn cycle's swap
CHURN_COMPACT_ABOVE = 5        # compact_to(CHURN_COMPACT_TO) past this
CHURN_COMPACT_TO = 3
CHECK_QUERIES = 8              # sampled queries per live-vs-fresh check


# --- helpers ---------------------------------------------------------------

def _cpu_snap() -> list[int]:
    with open("/proc/stat") as f:
        return list(map(int, f.readline().split()[1:]))


def _steal_pct(before: list[int], after: list[int]) -> float:
    """Host CPU-steal percentage over a window (as bench.py computes it)."""
    d = [y - x for x, y in zip(before, after)]
    return round(100 * d[7] / max(1, sum(d)), 2)


def _dir_state(path: str) -> dict[str, tuple[int, int]]:
    """relative path -> (size, mtime_ns) of every file under ``path``."""
    out = {}
    for root, _dirs, files in os.walk(path):
        for fn in files:
            p = os.path.join(root, fn)
            try:
                st = os.lstat(p)
            except OSError:
                continue
            out[os.path.relpath(p, path)] = (st.st_size, st.st_mtime_ns)
    return out


def _dir_bytes(path: str) -> int:
    return sum(size for size, _m in _dir_state(path).values())


def _bytes_written(before: dict, after: dict) -> int:
    """Bytes of files created or modified between two :func:`_dir_state`."""
    return sum(v[0] for k, v in after.items() if before.get(k) != v)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: list[float]) -> float:
    return float(np.median(values))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _same(a: tuple, b: tuple) -> bool:
    """Bitwise equality of two (ids, scores) search results."""
    return (np.array_equal(np.asarray(a[0]), np.asarray(b[0]))
            and np.asarray(a[1], np.float64).tobytes()
            == np.asarray(b[1], np.float64).tobytes())


def _tombstoned(index_dir: str) -> np.ndarray:
    """Doc ids the committed stats.json lists as deleted (sorted)."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    ids = []
    for rel in stats.get("tombstone_files", []):
        with open(os.path.join(index_dir, rel)) as f:
            ids.extend(json.load(f)["deleted_doc_ids"])
    return np.unique(np.asarray(ids, dtype=np.int64))


# --- one run ---------------------------------------------------------------

class Run:
    """State of one run: op counters, failures, timings and conditions."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 run_dir: str, cache_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rec = Recorder(trace, T_START)
        self.run_dir = run_dir
        self.cache_dir = cache_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.excluded_s = 0.0      # input generation + checks inside set-up
        self.steal: dict[str, list[float]] = {}
        self.facts: dict = {}
        self.builds: list[dict] = []    # {"secs", "n_docs", "phase_secs"}
        self.appends: list[dict] = []   # {"secs", "rows", "text_bytes", ...}
        self.deletes: list[float] = []
        self.compactions: list[dict] = []
        # query latencies, one list per closed-loop slice: a serve window
        # is cut into SERVE_SLICES slices, a churn burst is one slice
        self.slices: list[tuple[list[float], float]] = []
        self.n_queries = 0
        self.sent: list[tuple[str, str]] = []
        self.binds: list[float] = []
        self.refreshes: list[float] = []
        self.swap_cache_entries: list[int] = []
        self.rss_mb = 0.0
        self.index_ratio = 0.0
        self.setup_s = 0.0
        self.final_index = ""

    # failures ---------------------------------------------------------------
    def fail(self, what: str, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {msg}"[:300])

    def op(self, name: str, fn, *args, rid: int | None = None, **kw):
        """Run one timed operation; returns (result or None, seconds)."""
        self.attempted += 1
        with self.rec.span(name, rid) as t:
            try:
                res = fn(*args, **kw)
            except Exception as e:  # counted, the run goes on
                res = None
                self.fail(name, f"{type(e).__name__}: {e}")
        return res, t.secs

    @contextmanager
    def setup_step(self):
        """Count a preparation step after the first timed operation (a
        warm-up) into set-up time, less any excluded time inside it."""
        t, excluded = time.perf_counter(), self.excluded_s
        try:
            yield
        finally:
            self.setup_s += (time.perf_counter() - t
                             - (self.excluded_s - excluded))

    def untimed(self, fn, *args, **kw):
        """Call ``fn`` and exclude its wall time from set-up time."""
        t = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.excluded_s += time.perf_counter() - t

    # paths ------------------------------------------------------------------
    def index_dir(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    # engine operations ------------------------------------------------------
    def build(self, src: str, index_dir: str, record: bool = True):
        from elasticsearch_data_loader_ray.index.build import build_index

        shutil.rmtree(index_dir, ignore_errors=True)
        stats, secs = self.op("index.build", build_index, src, index_dir)
        if stats is not None and record:
            self.builds.append({"secs": secs, "n_docs": int(stats["n_docs"]),
                                "phase_secs": dict(stats["phase_secs"])})
        return stats

    def bind(self, index_dir: str):
        from elasticsearch_data_loader_ray.index.search import LocalSearcher

        s, secs = self.op("search.bind", LocalSearcher, index_dir)
        if s is not None:
            self.binds.append(secs)
        return s

    def append(self, src: str, index_dir: str, record: bool = True):
        from elasticsearch_data_loader_ray.index.append import append_index

        before = _dir_state(index_dir)
        stats, secs = self.op("index.append", append_index, src, index_dir)
        if stats is not None and record:
            gen = stats["generations"][-1]
            rows = pq.ParquetDataset(src).read(columns=["url"]).num_rows
            tb = inputs.text_bytes(src)
            self.appends.append({
                "secs": secs, "rows": rows, "text_bytes": tb,
                "upserts": int(gen["n_upserts"]),
                "bytes_written": _bytes_written(before,
                                                _dir_state(index_dir))})
        return stats

    def refresh(self, searcher) -> bool:
        swapped, secs = self.op("search.refresh", searcher.refresh)
        self.refreshes.append(secs)
        if swapped:  # cache-fit fact: what an epoch swap leaves cached
            self.swap_cache_entries.append(len(searcher._postings_cache))
        return bool(swapped)

    def delete(self, index_dir: str, term: str) -> int:
        from elasticsearch_data_loader_ray.index.append import delete_by_query

        n, secs = self.op("index.delete_by_query", delete_by_query,
                          index_dir, term)
        if n is not None:
            self.deletes.append(secs)
        return int(n or 0)

    def compact(self, index_dir: str, target: int) -> None:
        from elasticsearch_data_loader_ray.index.merge import compact_to
        from elasticsearch_data_loader_ray.index import manifest as mf

        before_state = _dir_state(index_dir)
        n_before = len(mf.committed_segments(index_dir))
        survivors, secs = self.op("index.compact_to", compact_to,
                                  index_dir, target)
        if survivors is not None:
            self.compactions.append({
                "secs": secs, "segments_before": n_before,
                "segments_after": len(survivors),
                "bytes_written": _bytes_written(before_state,
                                                _dir_state(index_dir))})

    def query(self, searcher, q: str, mode: str, rid: int,
              out: list[float]):
        res, secs = self.op("search.query", searcher.search, q,
                            inputs.QUERY_K, mode=mode, rid=rid)
        if res is not None:
            out.append(secs)
            self.sent.append((q, mode))
        return res

    def query_loop(self, searcher, stream, deadline: float | None = None
                   ) -> None:
        """Closed loop over the iterator ``stream`` until it ends or
        ``deadline`` passes: the next query goes out when the previous
        returns. One loop is one slice of the query metrics."""
        lat: list[float] = []
        with self.steal_window("queries"):
            t0 = time.perf_counter()
            while deadline is None or time.perf_counter() < deadline:
                req = next(stream, None)
                if req is None:
                    break
                self.query(searcher, *req, rid=self.n_queries, out=lat)
                self.n_queries += 1
            if lat:
                self.slices.append((lat, time.perf_counter() - t0))

    # checks -----------------------------------------------------------------
    def check_live(self, searcher, index_dir: str, probes: list[tuple]):
        """After a commit and ``refresh()``: ``probes`` on the live searcher
        must equal a freshly bound searcher bitwise, and no returned doc may
        be tombstoned."""
        from elasticsearch_data_loader_ray.index.search import LocalSearcher

        t = time.perf_counter()
        fresh = LocalSearcher(index_dir)
        dead = _tombstoned(index_dir)
        for q, mode in probes:
            self.attempted += 1
            try:
                got = searcher.search(q, inputs.QUERY_K, mode=mode)
                want = fresh.search(q, inputs.QUERY_K, mode=mode)
            except Exception as e:
                self.fail("check.live", f"{q!r}: {type(e).__name__}: {e}")
                continue
            stale = np.intersect1d(np.asarray(got[0], np.int64), dead)
            if not _same(got, want) or len(stale):
                self.fail("check.live",
                          f"{q!r} ({mode}): live {list(got[0][:5])} fresh "
                          f"{list(want[0][:5])}, {len(stale)} tombstoned "
                          f"doc(s) returned")
        self.facts["check_s"] = self.facts.get("check_s", 0.0) + (
            time.perf_counter() - t)

    @contextmanager
    def steal_window(self, name: str):
        """Record the host steal % over the enclosed timed window."""
        snap = _cpu_snap()
        try:
            yield
        finally:
            self.steal.setdefault(name, []).append(
                _steal_pct(snap, _cpu_snap()))


# --- correctness references -------------------------------------------------

def _cached_reference(run: Run, kind: str, compute):
    """``compute()``'s parquet table, cached per (seed, size, hash of
    index/oracle.py) in the cache directory."""
    from elasticsearch_data_loader_ray.index import oracle

    with open(oracle.__file__, "rb") as f:
        tag = hashlib.sha256(f.read()).hexdigest()[:12]
    path = os.path.join(run.cache_dir, f"{kind}-s{run.seed}-"
                        f"n{inputs.BASE_DOCS}-{tag}.parquet")
    if not os.path.exists(path):
        tmp = f"{path}.tmp{os.getpid()}"
        pq.write_table(compute(), tmp)
        os.replace(tmp, path)
    return pq.read_table(path)


def _expected_n_docs(run: Run, src: str) -> int:
    """Doc count from ``oracle.corpus_from_webtext``."""
    from elasticsearch_data_loader_ray.index import oracle

    def compute() -> pa.Table:
        tbl = pq.read_table(src, columns=["url", "warc_ts", "text"])
        return pa.table({"n_docs": [len(oracle.corpus_from_webtext(tbl)[0])]})

    return int(_cached_reference(run, "ndocs", compute)["n_docs"][0].as_py())


def _oracle_topk(run: Run, src: str) -> pa.Table:
    """``oracle.bm25_topk`` of the fixture query set over the base table."""
    from elasticsearch_data_loader_ray import fixtures
    from elasticsearch_data_loader_ray.index import oracle

    return _cached_reference(run, "oracle", lambda: oracle.bm25_topk(
        pq.read_table(src), fixtures.generate_queries()))


def check_ingest(run: Run, src: str, index_dir: str) -> None:
    """Extracted text is byte-identical to the input text per url, and every
    build indexed the oracle's doc count."""
    run.attempted += 1
    inp = pq.read_table(src, columns=["url", "text"])
    want = {u: t for u, t in zip(inp["url"].to_pylist(),
                                 inp["text"].to_pylist()) if t}
    corpus = pq.read_table(os.path.join(index_dir, "corpus"),
                           columns=["url", "text"])
    urls = corpus["url"].to_pylist()
    bad = [u for u, t in zip(urls, corpus["text"].to_pylist())
           if want.get(u) != t]
    missing = len(want.keys() - set(urls))
    if bad or missing:
        run.fail("check.extract", f"{len(bad)} url(s) with changed text, "
                 f"{missing} input url(s) not extracted; e.g. {bad[:3]}")
    n_want = _expected_n_docs(run, src)
    for b in run.builds:
        run.attempted += 1
        if b["n_docs"] != n_want:
            run.fail("check.n_docs", f"build indexed {b['n_docs']} docs, "
                     f"oracle counts {n_want}")


def check_fixture_queries(run: Run, src: str, results: list[tuple]) -> None:
    """Fixture query results (taken on the fresh build) equal the oracle's
    ids and scores bitwise."""
    from elasticsearch_data_loader_ray import fixtures

    ref = _oracle_topk(run, src)
    qs = fixtures.generate_queries().to_pylist()
    for row, got in zip(qs, results):
        run.attempted += 1
        sel = ref.filter(pa.compute.equal(ref["query_id"], row["query_id"]))
        sel = sel.sort_by("rank")
        want = (sel["doc_id"].to_numpy(), sel["score"].to_numpy())
        if got is None or not _same(got, want):
            run.fail("check.oracle", f"{row['query']!r}: engine "
                     f"{None if got is None else list(got[0][:5])} oracle "
                     f"{list(want[0][:5])}")


# --- workloads --------------------------------------------------------------

def _gen_inputs(run: Run, n_batches: int) -> tuple[str, list[str]]:
    base = run.untimed(inputs.base_table, run.cache_dir, run.seed)
    batches = [run.untimed(inputs.append_batch, run.cache_dir, run.seed, b)
               for b in range(n_batches)]
    return base, batches


def _build_phase(run: Run, base: str) -> str:
    """The ingest part of every workload: one warm-up build (set-up), then
    ``TIMED_BUILDS`` fresh builds of the base table with the read path
    idle. Returns the directory of the last successful build."""
    with run.rec.span("setup"):
        if run.build(base, run.index_dir("warmup"), record=False) is None:
            raise RuntimeError("warm-up build failed")
        shutil.rmtree(run.index_dir("warmup"), ignore_errors=True)
    run.setup_s = time.perf_counter() - T_START - run.excluded_s
    last = None
    with run.rec.span("builds"), run.steal_window("builds"):
        for i in range(TIMED_BUILDS):
            idx = run.index_dir(f"build{i}")
            if run.build(base, idx) is None:
                continue
            if last is not None:
                shutil.rmtree(last, ignore_errors=True)
            last = idx
    if last is None:
        raise RuntimeError("no timed build succeeded")
    return last


def workload_serve(run: Run) -> None:
    """Builds, then the cache-resident read path: three appends commit new
    generations, one searcher is refreshed after each, its caches are
    loaded with every vocabulary term and a separate seeded stream, then a
    closed loop of seeded queries runs for ``seconds`` with no build code
    in the window."""
    from elasticsearch_data_loader_ray import fixtures
    from elasticsearch_data_loader_ray.index.search import LocalSearcher

    base, batches = _gen_inputs(run, SERVE_APPENDS)
    checks = inputs.check_stream(run.seed, CHECK_QUERIES)
    idx = _build_phase(run, base)
    searcher = run.bind(idx)
    if searcher is None:
        raise RuntimeError("bind failed")
    # fixture results on the fresh build, for the oracle check
    fixture = run.untimed(lambda: [
        searcher.search(q, int(k)) for q, k in zip(
            *[fixtures.generate_queries()[c].to_pylist()
              for c in ("query", "k")])])
    with run.rec.span("appends"):
        for batch in batches:
            run.append(batch, idx)
            run.refresh(searcher)
            run.check_live(searcher, idx, checks)
    warm = inputs.warm_stream(run.seed, SERVE_WARM_QUERIES)
    with run.rec.span("setup"), run.setup_step():
        # load every vocabulary term's postings, impacts and idf into the
        # searcher's caches, with k+1 so no request-cache entry is shared
        # with the stream; then the seeded warm stream. AND queries' block
        # readers stay lazily loaded: warming them costs ~10 s a run.
        for q in inputs.vocabulary_groups(WARM_GROUP_TERMS):
            searcher.search(q, inputs.QUERY_K + 1)
        for q, mode in warm:
            searcher.search(q, inputs.QUERY_K, mode=mode)
    stream = iter(inputs.query_stream(run.seed, SERVE_STREAM_QUERIES))
    with run.rec.span("window"):
        end = time.perf_counter() + run.seconds
        for k in range(SERVE_SLICES, 0, -1):
            now = time.perf_counter()
            run.query_loop(searcher, stream, deadline=now + (end - now) / k)
    run.rss_mb = _peak_rss_mb()
    run.index_ratio = _dir_bytes(idx) / sum(
        inputs.text_bytes(p) for p in [base, *batches])
    ws = inputs.term_working_set(warm + run.sent)
    run.facts["cache_fit"] = {
        "term_working_set": ws,
        "postings_cache_entries": searcher._postings_cache_cap,
        "request_cache_entries": LocalSearcher._REQUEST_CACHE_CAP,
        "impact_cache_mb": LocalSearcher._CONTRIB_CACHE_CAP >> 20,
        "postings_cache_fits": ws <= searcher._postings_cache_cap,
        "postings_cache_used": len(searcher._postings_cache),
    }
    check_ingest(run, base, idx)
    check_fixture_queries(run, base, fixture)
    run.final_index = idx


def workload_churn(run: Run) -> None:
    """Builds, then writes beside reads: per cycle a ``delete_by_query``
    commit and an append (new urls + upserts), then ``refresh()``, a
    live-vs-fresh check and a query burst; compaction past a segment-count
    threshold. Every epoch swap drops the searcher's caches, so reads run
    cold.

    ``refresh()`` only notices a change of the visible segment set, so a
    delete-only commit is never refreshed on its own: the append that
    follows it adds a segment and the swap rebinds the tombstones too."""
    base, batches = _gen_inputs(run, CHURN_CYCLES + 1)
    terms = inputs.delete_terms(run.seed, CHURN_CYCLES)
    checks = inputs.check_stream(run.seed, CHECK_QUERIES)
    stream = iter(inputs.query_stream(run.seed, CHURN_CYCLES * CHURN_BURST))
    idx = _build_phase(run, base)
    searcher = run.bind(idx)
    if searcher is None:
        raise RuntimeError("bind failed")
    with run.rec.span("setup"), run.setup_step():
        if run.append(batches[0], idx, record=False) is None:
            raise RuntimeError("warm-up append failed")
        run.refresh(searcher)
    run.check_live(searcher, idx, checks)
    with run.rec.span("window"), run.steal_window("churn"):
        for c in range(1, CHURN_CYCLES + 1):
            # the delete target is probed first, so no tombstoned doc of
            # this cycle's delete may come back
            probes = [(terms[c - 1], "or"), *checks]
            with run.rec.span("cycle"):
                run.delete(idx, terms[c - 1])
                run.append(batches[c], idx)
                run.refresh(searcher)
                run.check_live(searcher, idx, probes)
                run.query_loop(searcher, islice(stream, CHURN_BURST))
                if len(searcher.seg_ids) > CHURN_COMPACT_ABOVE:
                    run.compact(idx, CHURN_COMPACT_TO)
                    run.refresh(searcher)
                    run.check_live(searcher, idx, checks)
    run.rss_mb = _peak_rss_mb()
    run.index_ratio = _dir_bytes(idx) / sum(
        inputs.text_bytes(p) for p in [base, *batches])
    check_ingest(run, base, idx)
    run.final_index = idx


WORKLOADS = {"serve": workload_serve, "churn": workload_churn}


# --- metrics ----------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    """The BENCHMARK.json end-to-end metrics. Rates and the median latency
    are medians over repeated units (builds, appends, query slices), so a
    host-steal burst that hits a minority of them does not move the
    figure; p99 pools every query of the run."""
    if not run.slices or not run.appends:
        raise RuntimeError("no successful query or append to measure")
    lat_ms = [s * 1000 for lat, _w in run.slices for s in lat]
    return {
        "setup_s": (run.setup_s, "s"),
        "build_docs_per_s": (_median(
            [b["n_docs"] / b["secs"] for b in run.builds]), "docs/s"),
        "append_docs_per_s": (_median(
            [a["rows"] / a["secs"] for a in run.appends]), "docs/s"),
        "query_p50_ms": (_median(
            [_pct(lat, 50) * 1000 for lat, _w in run.slices]), "ms"),
        "query_p99_ms": (_pct(lat_ms, 99), "ms"),
        "query_qps": (_median(
            [len(lat) / wall for lat, wall in run.slices]), "1/s"),
        "index_bytes_per_input_byte": (run.index_ratio, "ratio"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--ray-temp-dir", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file", default=None)
    a = ap.parse_args(argv)

    import ray

    pa.set_cpu_count(NUM_CPUS)
    pa.set_io_thread_count(NUM_CPUS)
    run = Run(a.workload, a.seed, a.seconds, bool(a.trace), a.run_dir,
              a.cache_dir)
    result: dict = {}
    try:
        with run.rec.span("ray.init"):
            ray.init(address="local", num_cpus=NUM_CPUS,
                     object_store_memory=OBJECT_STORE_BYTES,
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False, _temp_dir=a.ray_temp_dir)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        WORKLOADS[a.workload](run)
        metrics = end_to_end(run)
        if run.rec.trace:
            from .layers import per_layer

            traced_e2e = {k: v for k, (v, _u) in metrics.items()}
            metrics = per_layer(run)
            run.facts["traced_end_to_end"] = traced_e2e
        result = {
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()},
            "attempted": run.attempted, "failed": run.failed,
            "errors": run.errors,
            "conditions": conditions(run, ray.__version__),
        }
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ray.shutdown()
    if run.rec.trace and a.trace_file:
        run.rec.dump(a.trace_file, {k: result[k] for k in
                                    ("metrics", "conditions", "errors")})
    with open(a.out + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(a.out + ".tmp", a.out)
    return 0


def conditions(run: Run, ray_version: str) -> dict:
    n_queries = sum(len(lat) for lat, _w in run.slices)
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True).stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = None
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "num_cpus": NUM_CPUS, "nproc": nproc,
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_version": ray_version,
        "python": sys.version.split()[0],
        "host_steal_pct": run.steal,
        "base_docs": inputs.BASE_DOCS,
        "append_rows": [a["rows"] for a in run.appends],
        "indexed_docs": [b["n_docs"] for b in run.builds],
        "timed_builds": len(run.builds),
        "build_secs": [round(b["secs"], 3) for b in run.builds],
        "queries": n_queries,
        "slice_p50_ms": [round(_pct(lat, 50) * 1000, 3)
                         for lat, _w in run.slices],
        "p99_samples_beyond": n_queries - int(np.ceil(0.99 * n_queries)),
        "repeat_query_share": round(inputs.repeat_share(run.sent), 4),
        "setup_excluded_s": round(run.excluded_s, 3),
        "epoch_swaps": len(run.swap_cache_entries),
        "postings_cache_entries_after_swap": run.swap_cache_entries,
        **run.facts,
    }


if __name__ == "__main__":
    sys.exit(main())
