"""Seeded benchmark inputs: the base webtext table, append batches and query
streams.

Everything here is a pure function of ``seed`` (plus fixed sizes), so the
same seed gives byte-identical inputs. Generated tables are cached per
(seed, size) under the benchmark's work directory; a cache entry is
written to a temporary name and renamed into place, so a crashed or
concurrent writer never leaves a half-written entry behind. Generation is
never inside a timed window.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from elasticsearch_data_loader_ray import fixtures

# Sizes. The base table and the query mix are fixed by the benchmark; only
# the seed varies between runs.
BASE_DOCS = 12_000
APPEND_NEW_DOCS = 2_400
APPEND_UPSERT_DOCS = 240       # ~10% of an append re-ingests existing urls
UPSERT_BLOCK = 10              # upserted urls come in runs of adjacent rows
QUERY_K = 10
AND_SHARE = 0.2                # share of queries sent with mode="and"
MAX_QUERY_TERMS = 5

# Stream tags keep the independent random streams of one seed apart.
_TAG_WARM, _TAG_MAIN, _TAG_CHECK, _TAG_DELETE = 1, 2, 3, 4


def _cached_dir(cache_root: str, name: str, write) -> str:
    """Return ``cache_root/name``, calling ``write(tmp_path)`` first when the
    entry is missing. ``write`` fills a fresh directory."""
    final = os.path.join(cache_root, name)
    if os.path.isdir(final):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write(tmp)
    try:
        os.rename(tmp, final)
    except OSError:  # another run published the same entry first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def base_table(cache_root: str, seed: int) -> str:
    """Parquet directory holding the seeded ``BASE_DOCS``-row webtext table."""
    return _cached_dir(cache_root, f"base-s{seed}-n{BASE_DOCS}",
                       lambda p: fixtures.write_webtext(p, BASE_DOCS, seed))


def _batch_seed(seed: int, batch: int) -> int:
    ss = np.random.SeedSequence([seed, 7919, batch])
    return int(ss.generate_state(1)[0])


def append_batch(cache_root: str, seed: int, batch: int) -> str:
    """Parquet directory of append batch ``batch`` (0, 1, ...).

    ``APPEND_NEW_DOCS`` rows carry urls no earlier batch used (global row
    indices continue after the base table and the previous batches), and
    ``APPEND_UPSERT_DOCS`` rows re-ingest urls of the base table with new
    text, in runs of ``UPSERT_BLOCK`` adjacent rows, so the append
    supersedes (tombstones) their old versions."""
    def write(path: str) -> None:
        bseed = _batch_seed(seed, batch)
        start = BASE_DOCS + batch * APPEND_NEW_DOCS
        new = fixtures.generate_webtext(APPEND_NEW_DOCS, seed=bseed,
                                        start=start)
        rng = np.random.default_rng(bseed)
        blocks = rng.choice(BASE_DOCS // UPSERT_BLOCK,
                            size=APPEND_UPSERT_DOCS // UPSERT_BLOCK,
                            replace=False)
        ups = [fixtures.generate_webtext(UPSERT_BLOCK, seed=bseed + j,
                                         start=int(b) * UPSERT_BLOCK)
               for j, b in enumerate(np.sort(blocks))]
        pq.write_table(pa.concat_tables([new, *ups]),
                       os.path.join(path, "part-00000.parquet"),
                       row_group_size=1024)

    return _cached_dir(cache_root,
                       f"append-s{seed}-b{batch}-n{APPEND_NEW_DOCS}"
                       f"-u{APPEND_UPSERT_DOCS}x{UPSERT_BLOCK}", write)


def text_bytes(path: str) -> int:
    """UTF-8 bytes of the non-null ``text`` column of a webtext table."""
    col = pq.read_table(path, columns=["text"])["text"]
    return int(pc.sum(pc.binary_length(col)).as_py() or 0)


def _zipf_vocab() -> tuple[np.ndarray, np.ndarray]:
    """The fixture vocabulary and the Zipf weights the generator draws
    document terms with, so query terms follow the corpus term frequencies."""
    vocab = np.array(fixtures._vocab(), dtype=object)
    return vocab, fixtures._zipf_probs(len(vocab))


def query_stream(seed: int, n: int, tag: int = _TAG_MAIN
                 ) -> list[tuple[str, str]]:
    """``n`` seeded ``(query, mode)`` pairs: 1..MAX_QUERY_TERMS Zipf-drawn
    fixture terms each, ``AND_SHARE`` of them in mode "and"."""
    rng = np.random.default_rng([seed, tag])
    vocab, probs = _zipf_vocab()
    n_terms = rng.integers(1, MAX_QUERY_TERMS + 1, size=n)
    is_and = rng.random(n) < AND_SHARE
    out = []
    for i in range(n):
        terms = vocab[rng.choice(len(vocab), size=int(n_terms[i]), p=probs)]
        out.append((" ".join(terms), "and" if is_and[i] else "or"))
    return out


def vocabulary_groups(size: int) -> list[str]:
    """Every fixture term, in queries of ``size`` terms that each span the
    Zipf ranks (group g holds ranks g, g + n/size, ...), so one query
    loads postings of head and tail terms alike."""
    vocab, _ = _zipf_vocab()
    n_groups = -(-len(vocab) // size)
    return [" ".join(vocab[g::n_groups]) for g in range(n_groups)]


def warm_stream(seed: int, n: int) -> list[tuple[str, str]]:
    return query_stream(seed, n, _TAG_WARM)


def check_stream(seed: int, n: int) -> list[tuple[str, str]]:
    return query_stream(seed, n, _TAG_CHECK)


def delete_terms(seed: int, n: int) -> list[str]:
    """``n`` distinct tail terms of the fixture vocabulary (Zipf ranks
    2000..3900), the targets of the churn workload's delete commits."""
    rng = np.random.default_rng([seed, _TAG_DELETE])
    ranks = rng.choice(np.arange(2000, 3900), size=n, replace=False)
    vocab, _ = _zipf_vocab()
    return [str(vocab[r]) for r in ranks]


def repeat_share(stream: list[tuple[str, str]]) -> float:
    """Share of requests that exactly repeat an earlier one — an upper bound
    on the searcher's request-cache hit rate."""
    seen: set[tuple[str, str]] = set()
    repeats = 0
    for req in stream:
        repeats += req in seen
        seen.add(req)
    return repeats / max(1, len(stream))


def term_working_set(stream: list[tuple[str, str]]) -> int:
    """Distinct analyzed terms the stream touches (cache-fit fact)."""
    from elasticsearch_data_loader_ray.index.search import query_terms

    return len({t for q, _m in stream for t in query_terms(q)})
