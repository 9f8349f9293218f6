"""Bloom-filter incremental dedup: probe an incoming stream against an
existing corpus WITHOUT a shuffle join.

The exact-dedup operator (hash-key groupby) is the right shape when both
sides are new data, but re-ingesting against an already-indexed 100-TB
corpus must not re-shuffle the corpus. This stage builds a fixed-size
Bloom filter over the existing side ONCE (per-block bit-array partials
inside ``map_batches``, OR-merged through a bounded fan-in level, exactly
the HLL register pattern), broadcasts it with ``ray.put``, and probes
each incoming batch vectorized — one pass over each side, constant
driver memory, no all-to-all.

Guarantees: false negatives are impossible (every true duplicate is
flagged); false positives are bounded by the standard Bloom bound
``(1 - e^(-k n / m))^k`` and measured in ``tests/test_bloom_dedup.py``.
Size ``m_bits`` to the existing-corpus cardinality — at 10^10 docs and
the same 16 bits/doc used here, the filter is ~20 GB and should shard
by content-hash prefix (one filter per prefix bucket, probed by the
matching slice of each batch); the single-filter path below is the
per-shard kernel of that layout.

Hashing is double hashing (Kirsch–Mitzenmacher): two 64-bit values
derive all ``k`` probe positions; ``h2`` is forced odd so every probe
sequence has full period over the power-of-two bit space.

Null keys follow SQL equality: a null equals nothing, so nulls are left
out of the filter and a null probe is never ``seen``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hll import fnv64_strings

_SPLITMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_2 = np.uint64(0x94D049BB133111EB)


def _probe_hashes(h1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) with h2 an odd splitmix64-style remix of h1."""
    h = h1.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= _SPLITMIX_1
    h ^= h >> np.uint64(27)
    h *= _SPLITMIX_2
    h ^= h >> np.uint64(31)
    return h1.astype(np.uint64), h | np.uint64(1)


def bloom_partial(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """Bit-array partial (uint64 words) with every key's k bits set."""
    words = np.zeros(m_bits >> 6, dtype=np.uint64)
    if len(keys) == 0:
        return words
    h1, h2 = _probe_hashes(keys)
    mask = np.uint64(m_bits - 1)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) & mask
        np.bitwise_or.at(words, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return words


def bloom_contains(words: np.ndarray, keys: np.ndarray,
                   k: int) -> np.ndarray:
    """Vectorized membership mask; m_bits implied by len(words)*64."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    h1, h2 = _probe_hashes(keys)
    mask = np.uint64(len(words) * 64 - 1)
    out = np.ones(len(keys), dtype=bool)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) & mask
        bit = (words[(idx >> np.uint64(6)).astype(np.int64)]
               >> (idx & np.uint64(63))) & np.uint64(1)
        out &= bit.astype(bool)
    return out


def build_bloom(ds, column: str = "text", m_bits: int = 1 << 24,
                k: int = 8) -> np.ndarray:
    """One pass over ``ds``: per-block partials, fan-in OR merge (each
    merge task folds up to 64 partials), tiny driver OR over survivors.
    Driver memory is O(m_bits), independent of input size."""
    if m_bits & (m_bits - 1) or m_bits < 64:
        raise ValueError("m_bits must be a power of two >= 64")

    def part(t: pa.Table) -> pa.Table:
        words = bloom_partial(fnv64_strings(pc.drop_null(t[column])),
                              m_bits, k)
        return pa.table({"words": pa.array([words.view(np.int64).tolist()],
                                           pa.list_(pa.int64()))})

    def merge(t: pa.Table) -> pa.Table:
        col = t["words"].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.int64).reshape(
            t.num_rows, m_bits >> 6)
        acc = np.bitwise_or.reduce(flat, axis=0)
        return pa.table({"words": pa.array([acc.tolist()],
                                           pa.list_(pa.int64()))})

    parts = (ds.map_batches(part, batch_format="pyarrow")
             .map_batches(merge, batch_format="pyarrow", batch_size=64)
             .take_all())
    words = np.zeros(m_bits >> 6, dtype=np.int64)
    for p in parts:
        words |= np.asarray(p["words"], dtype=np.int64)
    return words.view(np.uint64)


def probe_seen(ds, words_ref, column: str = "text", k: int = 8):
    """Append a ``seen`` bool column: content already in the filter.
    ``words_ref`` is a ``ray.put`` ObjectRef of the merged filter —
    fetched once per actor, shared zero-copy across its batches."""
    import ray

    class Probe:
        def __init__(self):
            self.words = np.asarray(ray.get(words_ref)).view(np.uint64)

        def __call__(self, t: pa.Table) -> pa.Table:
            col = t[column]
            seen = bloom_contains(self.words, fnv64_strings(col), k)
            seen &= pc.is_valid(col).to_numpy(zero_copy_only=False)
            return t.append_column("seen", pa.array(seen, pa.bool_()))

    return ds.map_batches(Probe, batch_format="pyarrow", concurrency=(1, 8))
