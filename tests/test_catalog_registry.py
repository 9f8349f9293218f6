"""The catalog registry: every SQL oracle names a catalog entry, and the
entries with no oracle are exactly the rows-only ones, each gated by its
own pytest instead. Reads the registry only; runs no query."""

from __future__ import annotations

import __ray_entry__ as entry

#: entries with no SQL oracle by nature (goldens, recall bounds or
#: round-trips in pytest; COVERAGE.md)
ROWS_ONLY = {"ann_ivf_topk", "ann_lsh_topk", "ann_pq_topk", "audio_features",
             "distinct_count_hll", "multimodal_features", "simhash"}


def test_every_oracle_names_an_entry_and_rows_only_is_pinned():
    qs, sqls = entry.queries(), entry.oracle_sql()
    assert sorted(set(sqls) - set(qs)) == []
    assert set(qs) - set(sqls) == ROWS_ONLY
    assert all(callable(q) for q in qs.values())
    assert all(isinstance(s, str) and s.strip() for s in sqls.values())
