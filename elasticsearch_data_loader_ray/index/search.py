"""BM25 top-k query engine over the segment index.

Reproduces the query capability the reference delegates to ElasticSearch
(``/root/reference/config/search_scheme.json`` text fields; ES 7 default BM25
k1=1.2, b=0.75): analyze the query with the target field's analyzer, look up
postings per (field, term) (J2), score BM25 with **global** df/avgdl, return
top-k by (score desc, doc_id asc). Multi-fields (different analyzer chains
over the same source column, ``search_scheme.json:140-198``) are separate
``field`` values in the term tables; each query targets one field
(default ``text``).

Execution: one scorer, :class:`LocalSearcher`. A query row (plain, bool,
multi_match, fuzzy, wildcard, regexp, phrase, function_score, boosting)
maps to one ``LocalSearcher`` method in :func:`_run_query`, which both
entry points share. :func:`search_inprocess` runs it on one whole-index
searcher; :func:`search` runs it in Ray tasks, each on a searcher bound to
one contiguous group of visible segments, and merges the groups' top-k per
query by (score desc, doc_id asc). The merge is exact: a doc's postings
live in one segment, and every group scores with the global idf, avgdl and
doc lengths, so each group's top-k is bitwise the whole index's restricted
to its docs. The aggregation, export and delete partials run on the same
fan-out (:func:`map_segment_groups`), taking their matched sets from
:meth:`LocalSearcher.matched_ids`.

Scoring: one exact scorer, :meth:`LocalSearcher._score_windows`, serves
OR and AND top-k. It scatter-adds each term's postings into a reused
buffer one doc-id window at a time, in lexicographic term order, so scores
are bitwise the brute-force oracle's; block-max bounds skip every window
and block that cannot reach the running k-th score (Lucene's
``MaxScoreBulkScorer`` shape), and a skipped block is never decoded.
Every reader of a term's postings (the loop, matched sets, bool,
multi_match, boosting, prefix, wildcard/regexp and explain) takes them
from one per-(field, term) cache of :class:`_TermDir` s: a term's block
directory over its :class:`_Blocked` segment runs, in doc-id order, and
one decoded buffer per term. So a term's dictionary rows and bytes are
read once per epoch, a block is decoded once, and the loop takes one
block span and one decode call per term and window, whatever the
segment count.

Matched sets and tombstones: which docs match is decided in one place,
:meth:`LocalSearcher._match_set` (Lucene's ``BooleanQuery`` over the
live-docs bitset): the sorted live doc ids found in at least ``need`` of
a list of clauses, each clause any of some sorted doc-id arrays.
``matched_ids``, bool (must, filters, should against
``minimum_should_match``, must_not), bool_prefix, wildcard/regexp,
multi_match, boosting's negative set and the positional candidates all
take their sets from it; the sparse scorers then score the candidates
with :meth:`LocalSearcher._sparse_scores`, in each query's fixed term
order. Tombstones (``stats.json``'s ``tombstone_files``, written by url
upserts and ``delete_by_query``) become one read-only ``bool`` mask over
``[0, n_docs)`` per epoch, ``LocalSearcher._live``, and every tombstone
filter, in the match sets, the window loop and the url lookups, is
``ids[live[ids]]``. A listed tombstone file that is missing fails the
bind rather than serve its deleted docs.

Positional queries (index built with ``BuildConfig(index_positions=True)``)
are ``LocalSearcher`` methods too: :meth:`~LocalSearcher.search_phrase`,
:meth:`~LocalSearcher.search_phrase_prefix`,
:meth:`~LocalSearcher.span_near`, :meth:`~LocalSearcher.intervals_all_of`
and :meth:`~LocalSearcher.highlight`. Each takes its terms' positions from
one read (:meth:`~LocalSearcher._read_positions`, a :class:`_Positions`
per term) and its live candidates from one all-clauses match set
(:meth:`~LocalSearcher._match_set`). The four matchers share one kernel: a
term's positions in every candidate become one ascending key array
``(candidate index << 32) | position`` (:meth:`_Positions.keys`), and a
match advances all candidates together, one ``searchsorted`` per query
term (the shape of Lucene's ``ExactPhraseMatcher``), with no loop over
candidates or positions.

Term dictionary: idf (:meth:`SortedTermFile.lookup`), every expansion and
the suggesters (:meth:`SortedTermFile.range`) read the global
``term_stats`` through the bound epoch's :class:`SortedTermFile` readers.
"""

from __future__ import annotations

import bisect
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.analyzers import analyze
from . import blobs, codec
from . import manifest as mf
from .build import seg_docs_path, seg_terms_path

DEFAULT_FIELD = "text"


def _dl_column(field: str) -> str:
    return "doc_len" if field == DEFAULT_FIELD else f"doc_len_{field}"


def query_terms(query: str, analyzer: str = "standard") -> list[str]:
    """Analyzer terms, deduplicated, lexicographically sorted.

    Duplicate query terms count once (documented choice; the oracle and the
    DuckDB SQL use the same rule), and sorted order fixes the float64
    accumulation order for bitwise reproducibility.
    """
    return sorted(set(analyze(analyzer, query)))


def _load_stats(index_dir: str) -> dict:
    return mf.read_json(os.path.join(index_dir, "stats.json"))


def _file_sig(path: str) -> tuple[int, int, int] | None:
    """(inode, mtime_ns, size) epoch fingerprint of an atomically-replaced
    file; None when absent. mf.write_json_atomic always os.replace()s a
    fresh file, so any committed mutation changes the signature."""
    try:
        st = os.stat(path)
        return (st.st_ino, st.st_mtime_ns, st.st_size)
    except OSError:
        return None


def _visible_seg_ids(index_dir: str, stats: dict) -> tuple[list[int], dict]:
    """Committed segments whose doc range is covered by ``stats.n_docs`` —
    the append visibility gate: an append commits segment files/manifests
    first, and the atomic stats.json rewrite is the visibility point, so a
    searcher must never serve a segment whose doc ids reach past it."""
    ms = mf.committed_segments(index_dir)
    n = int(stats.get("n_docs", 0))
    vis = {s: m for s, m in ms.items()
           if int(m["doc_id_base"]) + int(m["n_docs"]) <= n}
    return sorted(vis), vis


def _load_deleted(index_dir: str, stats: dict) -> np.ndarray:
    """Sorted global doc ids tombstoned by url upserts (appends) and
    deletes. A listed file that is missing raises ``FileNotFoundError``:
    serving without it would bring its deleted docs back."""
    out = [np.empty(0, np.int64)]
    for rel in stats.get("tombstone_files", []):
        p = os.path.join(index_dir, rel)
        if not os.path.exists(p):
            raise FileNotFoundError(
                f"tombstone file {p} listed in stats.json is missing")
        out.append(np.asarray(mf.read_json(p)["deleted_doc_ids"],
                              dtype=np.int64))
    return np.unique(np.concatenate(out))


def _url_range(md: pq.FileMetaData) -> tuple[str, str] | None:
    """(min, max) url of one docs table from its footer statistics; None
    when a row group lacks them. Taken over every row group: a merge
    concatenates url ranges, so row groups need not be in url order."""
    col = md.schema.names.index("url")
    los, his = [], []
    for g in range(md.num_row_groups):
        st = md.row_group(g).column(col).statistics
        if st is None or not st.has_min_max:
            return None
        los.append(st.min)
        his.append(st.max)
    return (min(los), max(his)) if los else None


def url_rows(index_dir: str, seg_ids: list[int],
             urls: pa.Array | pa.ChunkedArray,
             columns: list[str]) -> pa.Table:
    """Rows (``columns`` plus ``url``) of the listed, non-empty
    ``seg_ids``' docs tables whose url is in the string array ``urls`` —
    the one url lookup behind the upsert probe, ``export.mget`` and
    ``more_like_this``. Tombstoned rows are included; callers drop them.
    A segment whose footer url range holds none of ``urls`` is skipped
    unread; the others cost one column read and one Arrow hash probe
    (``pc.is_in``) each, one segment at a time, so the driver holds at
    most one segment's url column."""
    want = pc.unique(urls)
    cols = list(dict.fromkeys([*columns, "url"]))
    outs = []
    for seg in seg_ids:
        with pq.ParquetFile(seg_docs_path(index_dir, seg)) as pf:
            empty = pf.schema_arrow.empty_table().select(cols)
            rng = _url_range(pf.metadata)
            if rng is not None and not pc.any(pc.and_(
                    pc.greater_equal(want, rng[0]),
                    pc.less_equal(want, rng[1]))).as_py():
                continue
            t = pf.read(columns=cols)
        t = t.filter(pc.is_in(t["url"], value_set=want.cast(t["url"].type)))
        if t.num_rows:
            outs.append(t)
    if not outs:
        return empty
    # generations may type url string or large_string (each corpus's
    # schema): promote rather than fail
    return pa.concat_tables(outs, promote_options="permissive")


def check_match_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` is a matched-set mode of
    :meth:`LocalSearcher.matched_ids` (driver-side callers check before
    any task runs or file is written)."""
    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")


def _top_k(ids: np.ndarray, sc: np.ndarray, k: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """The top ``k`` of (``ids``, ``sc``) by (score desc, doc id asc): a
    partition to the k-th score, then a lexsort of what reaches it."""
    if len(ids) > k:
        kth = np.partition(sc, -k)[-k]
        keep = sc >= kth
        ids, sc = ids[keep], sc[keep]
    order = np.lexsort((ids, -sc))[:k]
    return ids[order].astype(np.int64), sc[order]


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, e)`` over the pairs, in one pass."""
    lens = ends - starts
    return (np.repeat(ends - np.cumsum(lens), lens)
            + np.arange(int(lens.sum()), dtype=np.int64))


def _decode_blocks(d: "_TermDir", bs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(doc ids, tfs) of the ascending directory blocks ``bs`` of ``d``,
    decoded in one vectorized pass over every run; a block's first gap is
    relative to the previous block's last id in its run (``block_last``),
    a run's first block's to 0, so blocks decode independently."""
    nb = d.n_blocks
    nxt = np.minimum(bs + 1, nb - 1)
    d_lo = d.doc_offs[bs]
    d_hi = np.where(bs + 1 < nb, d.doc_offs[nxt], len(d.doc_enc))
    t_lo = d.tf_offs[bs]
    t_hi = np.where(bs + 1 < nb, d.tf_offs[nxt], len(d.tf_enc))
    doc = d.doc_enc[_ranges(d_lo, d_hi)]
    tfb = d.tf_enc[_ranges(t_lo, t_hi)]
    gaps = codec.varint_decode(doc).astype(np.int64)
    tfs = codec.varint_decode(tfb, len(gaps)).astype(np.int64)
    # postings per block: one value ends at each byte without the
    # continuation bit
    ends = np.cumsum(doc < 0x80)[np.cumsum(d_hi - d_lo) - 1]
    starts = np.r_[0, ends[:-1]]
    gaps[starts] += np.where(d.blk[bs] > 0,
                             d.block_last[np.maximum(bs - 1, 0)], 0)
    return codec.delta_decode_runs(gaps, starts), tfs


class _Blocked:
    """One term's run in one segment, as its :class:`_TermDir` holds it:
    ``df`` postings, its blocks' columns of the directory's ``meta`` and,
    once the term's buffer exists, its postings as views ``ids``/``tfs``
    of it, so decoded postings are held once per term."""

    __slots__ = ("df", "meta", "ids", "tfs")

    def __init__(self, df: int, meta: np.ndarray):
        self.df, self.meta = df, meta
        self.ids = self.tfs = None

    n_blocks = property(lambda self: self.meta.shape[1])


class _TermDir:
    """One term's postings in the bound segments: the block directory of
    its :class:`_Blocked` runs, and their encoded streams joined, both in
    doc-id order (segments hold disjoint ascending doc-id ranges, so the
    directory is sorted). Per block (columns of ``meta``): its last doc
    id, byte offsets into the joined streams, max tf impact (as float64
    bits), smallest possible doc id and its index in its run. The blocks
    decoded so far sit in one per-term buffer (``ids``/``tfs`` at the
    postings' offsets ``start``, ``have`` per block), kept across queries;
    each run's postings are views of it."""

    __slots__ = ("runs", "meta", "doc_enc", "tf_enc", "df", "run_start",
                 "blocks_decoded", "start", "have", "ids", "tfs")

    def __init__(self, meta: np.ndarray, doc_enc: bytes, tf_enc: bytes,
                 run_df: list[int]):
        self.meta = meta
        self.doc_enc = np.frombuffer(doc_enc, np.uint8)
        self.tf_enc = np.frombuffer(tf_enc, np.uint8)
        self.run_start = np.r_[0, np.cumsum(run_df)]
        self.df = int(self.run_start[-1])
        b0 = np.r_[np.flatnonzero(self.blk == 0), self.n_blocks]
        self.runs = [_Blocked(df, meta[:, a:b])
                     for df, a, b in zip(run_df, b0[:-1], b0[1:])]
        self.blocks_decoded = 0
        self.start = self.have = self.ids = self.tfs = None

    block_last = property(lambda self: self.meta[0])
    doc_offs = property(lambda self: self.meta[1])
    tf_offs = property(lambda self: self.meta[2])
    bmax = property(lambda self: self.meta[3].view(np.float64))
    block_lo = property(lambda self: self.meta[4])
    blk = property(lambda self: self.meta[5])
    n_blocks = property(lambda self: self.meta.shape[1])

    def _hold(self, ids: np.ndarray, tfs: np.ndarray) -> None:
        """Make (``ids``, ``tfs``) the term's buffer, the runs' views."""
        self.ids, self.tfs = ids, tfs
        for r, a, b in zip(self.runs, self.run_start[:-1],
                           self.run_start[1:]):
            r.ids, r.tfs = ids[a:b], tfs[a:b]

    def whole(self) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, tfs) of the whole term, decoded once; a whole term
        (``blocks_decoded`` counts each block once) comes back as is."""
        if self.blocks_decoded < self.n_blocks:
            self.get(np.arange(self.n_blocks))
        return self.ids, self.tfs

    def get(self, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, tfs) of the ascending blocks ``bs``, of any runs,
        decoding the missing ones together. A fully decoded span from
        ``bs[0]`` to ``bs[-1]`` comes back whole, as views: the blocks
        between only add true contributions."""
        if len(bs) == self.n_blocks and (self.have is None
                                         or not self.have.all()):
            # the whole term: one pass (re-decoding the few blocks decoded
            # before beats gathering around them)
            self.blocks_decoded += self.n_blocks - (
                0 if self.have is None else int(self.have.sum()))
            gaps = codec.varint_decode(self.doc_enc, self.df)
            self._hold(codec.delta_decode_runs(gaps, self.run_start[:-1]),
                       codec.varint_decode(self.tf_enc, self.df)
                       .astype(np.int64))
            self.have = np.ones(self.n_blocks, dtype=bool)
            self.start = None
            return self.ids, self.tfs
        if self.have is None:
            # postings per block: its bytes without the continuation bit
            n = np.add.reduceat(self.doc_enc < 0x80, self.doc_offs,
                                dtype=np.int64)
            self.start = np.concatenate(([0], np.cumsum(n)))
            self.have = np.zeros(self.n_blocks, dtype=bool)
            self._hold(np.empty(self.df, np.int64),
                       np.empty(self.df, np.int64))
        if self.start is None:
            self.start = np.concatenate(
                ([0], np.searchsorted(self.ids, self.block_last, "right")))
        st = self.start
        miss = bs[~self.have[bs]]
        if len(miss):
            idx = _ranges(st[miss], st[miss + 1])
            self.ids[idx], self.tfs[idx] = _decode_blocks(self, miss)
            self.blocks_decoded += len(miss)
            self.have[miss] = True
        if self.have[bs[0]:bs[-1] + 1].all():
            a, b = st[bs[0]], st[bs[-1] + 1]
            return self.ids[a:b], self.tfs[a:b]
        idx = _ranges(st[bs], st[bs + 1])
        return self.ids[idx], self.tfs[idx]


def _term_dirs(terms: list[str], dfs: list[int], doc_encs: list[bytes],
               tf_encs: list[bytes], offs: np.ndarray, meta: np.ndarray
               ) -> dict[str, _TermDir]:
    """A :class:`_TermDir` per distinct term of the dictionary rows
    (``terms``, ``dfs``, encoded streams; row ``i``'s blocks are columns
    ``offs[i]:offs[i + 1]`` of ``meta``: last doc id, doc and tf byte
    offsets in the row's streams, max impact bits, smallest doc id). The
    rows are put term-major, each term's runs in doc-id order, in one
    gather; the offsets move into the joined streams."""
    n = len(terms)
    first = meta[4, offs[:-1]].tolist()
    order = sorted(range(n), key=lambda i: (terms[i], first[i]))
    o = np.asarray(order, dtype=np.int64)
    nb = np.diff(offs)[o]
    meta = meta[:, _ranges(offs[:-1][o], offs[1:][o])]
    ts = [terms[i] for i in order]
    # each row's first block and its term's first row, in the new order
    row_b0 = np.r_[0, np.cumsum(nb)[:-1]]
    new = [0] + [j for j in range(1, n) if ts[j] != ts[j - 1]]
    grp = np.zeros(n, np.int64)
    grp[new] = new
    grp = np.maximum.accumulate(grp)
    row_of = np.repeat(np.arange(n), nb)
    for r, enc in ((1, doc_encs), (2, tf_encs)):
        nbytes = np.array([len(enc[i]) for i in order], np.int64)
        base = np.cumsum(nbytes) - nbytes
        meta[r] += (base - base[grp])[row_of]
    meta = np.vstack([meta, np.arange(len(row_of)) - row_b0[row_of]])
    out = {}
    for a, b in zip(new, [*new[1:], n]):
        rows = order[a:b]
        out[ts[a]] = _TermDir(
            meta[:, row_b0[a]:row_b0[b - 1] + nb[b - 1]],
            b"".join(doc_encs[i] for i in rows),
            b"".join(tf_encs[i] for i in rows), [dfs[i] for i in rows])
    return out


def _drain(buf: np.ndarray, pos: list[np.ndarray],
           cnt: np.ndarray | None = None, n_terms: int = 0
           ) -> tuple[np.ndarray, np.ndarray]:
    """(positions, sums) of the docs scattered into ``buf`` at the ``pos``
    arrays (with ``cnt``: only docs hit ``n_terms`` times), re-zeroing the
    buffers: a scan when there is a posting per 8 docs or more, else the
    sorted positions, so a sparse window costs its postings (sorting n
    positions costs about what scanning 8n buffer slots does)."""
    if 8 * sum(len(p) for p in pos) >= len(buf):
        nz = np.flatnonzero(cnt == n_terms if cnt is not None
                            else buf > 0.0)  # BM25 contributions are > 0
        out = nz, buf[nz]
        buf[:] = 0.0
        if cnt is not None:
            cnt[:] = 0
        return out
    nz = np.unique(np.concatenate(pos)) if pos else np.empty(0, np.int64)
    sc = buf[nz]
    buf[nz] = 0.0
    if cnt is not None:
        keep = cnt[nz] == n_terms
        cnt[nz] = 0
        nz, sc = nz[keep], sc[keep]
    return nz, sc


class _Run:
    """A term's :class:`_TermDir` (``blk``) as one query scores it: block
    ``b`` of the directory holds doc ids in ``[lo_id[b], last[b]]`` and
    adds at most ``ub[b]`` to a score. ``ids``/``con`` (contributions)
    are the whole term's, set while its impacts are cached; ``wa``/``wb``
    are each window's first and past-last overlapping block."""

    __slots__ = ("term", "lo_id", "last", "ub", "blk", "ids", "con", "wa",
                 "wb")

    def __init__(self, term, lo_id, last, ub, blk):
        self.term, self.lo_id, self.last, self.ub = term, lo_id, last, ub
        self.blk = blk
        self.ids = self.con = None


class _Positions:
    """One term's postings with positions in a searcher's bound segments,
    its runs joined in doc-id order: ``ids`` ascending, per-doc offsets
    ``off`` into the positions (a cumsum of the tfs, ``len(ids) + 1`` of
    them) and the varint-decoded position ``gaps``, each doc's first one
    absolute (codec.delta_encode_runs). ``flat``, the absolute positions,
    is delta-decoded on first use; :meth:`keys` gathers them for a whole
    candidate set at once."""

    __slots__ = ("ids", "off", "gaps", "_flat")

    def __init__(self, ids: np.ndarray, off: np.ndarray, gaps: np.ndarray):
        self.ids, self.off, self.gaps = ids, off, gaps
        self._flat = None

    @property
    def flat(self) -> np.ndarray:
        if self._flat is None:
            self._flat = codec.delta_decode_runs(self.gaps, self.off[:-1])
        return self._flat

    def keys(self, cand: np.ndarray) -> np.ndarray:
        """The term's positions in the docs of the sorted ``cand``, as one
        ascending int64 array of keys ``(i << 32) | position`` for the
        position's doc ``cand[i]``: one ``np.repeat`` and one gather over
        ``flat``. A position plus a small offset keeps its doc bits, so
        key arithmetic never crosses from one candidate into the next.
        The term's ids are located in ``cand`` (``searchsorted`` and an
        equality mask): a rare term costs its df, not the candidates."""
        if not len(cand):
            return np.empty(0, np.int64)
        j = np.minimum(np.searchsorted(cand, self.ids), len(cand) - 1)
        hit = np.flatnonzero(cand[j] == self.ids)
        ci, s, e = j[hit], self.off[hit], self.off[hit + 1]
        doc = np.repeat(ci.astype(np.int64) << 32, e - s)
        return doc | self.flat[_ranges(s, e)]


def _phrase_freqs(slots: list[np.ndarray], n: int) -> np.ndarray:
    """Phrase freq of each of ``n`` candidates, from one key array
    (:meth:`_Positions.keys`) per phrase slot: the keys of ``slots[0]``
    whose successor ``key + i`` is in ``slots[i]`` for every ``i``,
    counted per candidate (``key >> 32``)."""
    ok = slots[0]
    for i in range(1, len(slots)):
        ok = ok[_in_sorted(slots[i], ok + i)]
    return np.bincount(ok >> 32, minlength=n)


def _bound_scale(vis_manifests: dict, stats: dict) -> float:
    """Admissibility factor for stored text-field block-max bounds.

    Bounds were encoded under each segment's build-time avgdl
    (``encode_avgdl`` in its manifest); after appends move the global
    avgdl UP, the true impact can exceed the stored bound by at most
    ``avgdl_now / encode_avgdl`` (denominator-term scaling), so pruning
    multiplies bounds by the max such ratio. Fresh builds: exactly 1.0."""
    avg = float(stats.get("avgdl", 0.0) or 0.0)
    scale = 1.0
    for m in vis_manifests.values():
        enc = float(m.get("encode_avgdl", 0.0) or 0.0)
        if enc > 0 and avg > enc:
            scale = max(scale, avg / enc)
    return scale


def _field_analyzer(stats: dict, field: str) -> str:
    return stats.get("field_analyzers", {}).get(field, "standard")


def _avgdl(stats: dict, field: str) -> float:
    pf = stats.get("per_field", {})
    if field in pf:
        return float(pf[field]["avgdl"])
    return float(stats["avgdl"])


def load_global_idf(index_dir: str,
                    by_field: dict[str, list[str]]) -> tuple[dict, dict, int]:
    """Global df per (field, term) from the index's current term_stats ->
    (idf map, df map, n_docs), both maps keyed (field, term). A searcher
    looks idf up through the term_stats readers of its bound epoch
    instead (``LocalSearcher._idf``)."""
    n_docs = int(_load_stats(index_dir)["n_docs"])
    idf, dfs = _global_idf(
        [SortedTermFile(p) for p in _term_stats_paths(index_dir)],
        by_field, n_docs)
    return idf, dfs, n_docs


def _parse_boosted_fields(fields) -> tuple:
    """ES ``"name^boost"`` field syntax -> ((name, boost), ...)."""
    out = []
    for f in fields:
        name, _, bs = str(f).partition("^")
        out.append((name, float(bs) if bs else 1.0))
    return tuple(out)


def _in_sorted(sorted_ids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Boolean membership mask of ``vals`` in an ascending-sorted array."""
    if len(sorted_ids) == 0 or len(vals) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.searchsorted(sorted_ids, vals)
    np.minimum(pos, len(sorted_ids) - 1, out=pos)
    return sorted_ids[pos] == vals


def _range_dl_field(rf: str) -> str:
    """Range-filter field name -> the indexed field whose per-doc token
    count backs it. ``word_count`` is the ES ``token_count`` sub-field the
    reference declares on the name field (search_scheme.json:171-174); it
    equals the default field's doc length under its analyzer."""
    return DEFAULT_FIELD if rf == "word_count" else rf


from functools import lru_cache as _lru


@_lru(maxsize=4096)
def _null_dv_ids_segment_impl(index_dir: str, seg_id: int, column: str,
                              _mtime_ns: int) -> np.ndarray:
    import pyarrow.parquet as _pq

    from .aggs import _dv_path

    t = _pq.read_table(_dv_path(index_dir, column, seg_id),
                       columns=["doc_id", column])
    nulls = t.filter(pc.is_null(t[column]))["doc_id"].to_numpy()
    return np.sort(nulls.astype(np.int64))


def _null_dv_ids_segment(index_dir: str, seg_id: int, column: str
                         ) -> np.ndarray:
    """Sorted GLOBAL doc ids with a null ``column`` doc-value in the
    segment — O(missing docs) memory, never O(segment). Cached per
    (segment shard file, mtime)."""
    from .aggs import _dv_path

    p = _dv_path(index_dir, column, seg_id)
    return _null_dv_ids_segment_impl(index_dir, int(seg_id), column,
                                     os.stat(p).st_mtime_ns)


_QS_RANGE_RE = re.compile(
    r"(\w+):\[\s*(\*|-?\d+(?:\.\d+)?)\s+TO\s+(\*|-?\d+(?:\.\d+)?)\s*\]")


def parse_query_string(q: str) -> dict:
    """Lucene-classic ``query_string``-lite parser -> ES ``bool`` body.

    Supported syntax (the flat subset; no parens/boosts/phrases):

    * bare terms — optional OR clauses (``should``, one clause per
      whitespace token, ``minimum_should_match=1`` like Lucene's
      default_operator=OR);
    * ``+term`` — required (``must``);
    * ``-term`` — prohibited (``must_not``);
    * ``word_count:[lo TO hi]`` — non-scoring range filter on the
      per-doc token count (either end ``*`` for open).

    The output feeds :func:`prepare_bool_spec` unchanged, so every
    serving path and the DuckDB oracle share one lowering.
    """
    must: list[str] = []
    should: list[str] = []
    must_not: list[str] = []
    filters: list[dict] = []

    def _range(m: re.Match) -> str:
        r: dict = {"field": m.group(1)}
        if m.group(2) != "*":
            r["gte"] = float(m.group(2))
        if m.group(3) != "*":
            r["lte"] = float(m.group(3))
        filters.append({"range": r})
        return " "

    rest = _QS_RANGE_RE.sub(_range, q)
    for tok in rest.split():
        if tok.startswith("+") and len(tok) > 1:
            must.append(tok[1:])
        elif tok.startswith("-") and len(tok) > 1:
            must_not.append(tok[1:])
        else:
            should.append(tok)
    bq: dict = {}
    if must:
        bq["must"] = must
    if should:
        bq["should"] = should
        # documented convention: bare terms are optional-OR, but at
        # least one must match unless required (+) clauses exist —
        # Lucene default_operator=OR. Range syntax lowers to REQUIRED
        # non-scoring filter context (ES bool filter), so a doc
        # matching only the range never matches the bare terms' clause.
        bq["minimum_should_match"] = 0 if must else 1
    if must_not:
        bq["must_not"] = must_not
    if filters:
        bq["filter"] = filters
    return bq


def prepare_bool_spec(bq: dict, field: str, analyzer: str) -> dict:
    """Normalize an ES ``bool`` query body into analyzed term lists.

    Clause semantics (ES bool query / Lucene BooleanQuery, coord-free):

    * ``must``: list of match-query strings; every clause must match (>=1
      of its analyzed terms present) and contributes its matching terms'
      BM25 sum to the score.
    * ``should``: optional match clauses; matching ones add to the score.
      At least ``minimum_should_match`` must match — ES default 1 when the
      query has no must/filter context, else 0.
    * ``must_not``: match clauses; a doc containing ANY of their terms is
      excluded. Never scored.
    * ``filter``: non-scoring required context. Supported shapes:
      ``{"term": {"field": f, "value": tok}}`` — raw (unanalyzed) token
      present in field ``f`` (defaults to the query field);
      ``{"terms": {"field": f, "values": [...]}}`` — ANY of the raw
      tokens present (the ES terms query); and
      ``{"range": {"field": "word_count", "gte": x, "lte": y}}`` — per-doc
      token count bounds (both ends optional); and
      ``{"exists": {"field": f}}`` — the doc must have a non-null value
      for doc-value column ``f`` (ES exists query; resolved against the
      column's doc-values shards, null ids only, so the filter costs
      O(missing docs), not O(corpus)).

    The returned spec carries per-clause term lists (``query_terms``
    order: deduped, sorted — fixes float accumulation order)."""
    must = [query_terms(s, analyzer) for s in bq.get("must", ())]
    should = [query_terms(s, analyzer) for s in bq.get("should", ())]
    must_not = [query_terms(s, analyzer) for s in bq.get("must_not", ())]
    filter_terms: list[tuple[str, str]] = []
    range_dl: list[tuple[str, float, float]] = []
    filter_any: list[tuple[str, list[str]]] = []
    exists: list[str] = []
    for flt in bq.get("filter", ()):
        if "term" in flt:
            f = flt["term"].get("field", field)
            filter_terms.append((f, str(flt["term"]["value"])))
        elif "terms" in flt:
            # ES terms query: the doc must contain ANY of the raw tokens
            f = flt["terms"].get("field", field)
            filter_any.append((f, sorted({str(v) for v in
                                          flt["terms"]["values"]})))
        elif "range" in flt:
            r = dict(flt["range"])
            range_dl.append((str(r.get("field", "word_count")),
                             float(r.get("gte", float("-inf"))),
                             float(r.get("lte", float("inf")))))
        elif "exists" in flt:
            exists.append(str(flt["exists"]["field"]))
        else:
            raise ValueError(f"unsupported bool filter clause {flt!r}")
    # terms_set analogue: per-doc dynamic minimum_should_match (ES
    # minimum_should_match_script ``min(params.num_terms,
    # max(1, doc[source].value / divisor))``) — `should` clauses are the
    # term set, `source` a token_count-backed doc-value (word_count).
    msm_div = bq.get("minimum_should_match_divisor")
    msm_src = str(bq.get("minimum_should_match_source", "word_count"))
    msm = bq.get("minimum_should_match")
    if msm is None:
        msm = 0 if (must or filter_terms or filter_any or range_dl
                    or exists or msm_div) else 1
    return {"field": field, "must": must, "should": should,
            "must_not": must_not, "filter_terms": filter_terms,
            "filter_any": filter_any, "exists": exists,
            "range_dl": range_dl, "msm": int(msm),
            "msm_div": int(msm_div) if msm_div else 0, "msm_src": msm_src}


def _auto_fuzziness(term: str) -> int:
    """ES ``AUTO`` fuzziness: 0 for terms under 3 chars, 1 for 3-5, 2
    for longer."""
    n = len(term)
    return 0 if n < 3 else (1 if n <= 5 else 2)


def _flat_bytes(terms: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """String array -> (N x maxlen uint8 matrix zero-padded, byte lengths),
    built from the Arrow buffers — no per-row Python."""
    a = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
    if not pa.types.is_large_string(a.type) and not pa.types.is_large_binary(a.type):
        a = pc.cast(a, pa.large_binary())
    elif pa.types.is_large_string(a.type):
        a = pc.cast(a, pa.large_binary())
    n = len(a)
    off = np.frombuffer(a.buffers()[1], np.int64)[a.offset:a.offset + n + 1]
    data = np.frombuffer(a.buffers()[2], np.uint8)
    lens = np.diff(off)
    if n == 0:
        return np.zeros((0, 1), np.uint8), lens
    L = max(int(lens.max()), 1)
    col = np.arange(L)
    mask = col < lens[:, None]
    src = off[:-1, None] + col
    mat = np.zeros((n, L), np.uint8)
    mat[mask] = data[src[mask]]
    return mat, lens


def levenshtein_vec(query: str, terms: pa.Array) -> np.ndarray:
    """Classic Levenshtein distance from ``query`` to every candidate
    term, vectorized across candidates: DP rows over the query's bytes;
    the within-row insertion recurrence is resolved closed-form with a
    prefix-min (``cur[j] = j + min_{l<=j}(t[l] - l)``), so each query
    char is O(1) numpy passes over the candidate matrix. Byte-domain
    (utf-8) — identical to character distance for ASCII terms (the
    DuckDB ``levenshtein`` oracle is character-based)."""
    mat, lens = _flat_bytes(terms)
    n, L = mat.shape
    if n == 0:
        return np.empty(0, np.int32)
    q = np.frombuffer(query.encode(), np.uint8)
    jr = np.arange(L + 1, dtype=np.int32)
    prev = np.tile(jr, (n, 1))
    for i, qc in enumerate(q, 1):
        t = np.minimum(prev[:, 1:] + 1,
                       prev[:, :-1] + (mat != qc).astype(np.int32))
        u = np.concatenate(
            [np.full((n, 1), i, np.int32), t], axis=1)
        u -= jr
        np.minimum.accumulate(u, axis=1, out=u)
        prev = u + jr
    return prev[np.arange(n), lens]


def _prefix_upper(p: str) -> str | None:
    """Smallest string greater than every string with prefix ``p``, in
    code-point order (that of ``str``, numpy object arrays and UTF-8
    bytes alike): the last character stepped up one code point, past the
    surrogate block, after dropping trailing U+10FFFF; None when nothing
    is left (every string with the prefix is then unbounded above)."""
    while p and p[-1] == "\U0010ffff":
        p = p[:-1]
    if not p:
        return None
    c = ord(p[-1]) + 1
    return p[:-1] + chr(0xE000 if 0xD800 <= c < 0xE000 else c)


class SortedTermFile:
    """Reader of one immutable parquet file of (field, term)-sorted rows:
    a segment's term table or a ``term_stats`` part — Lucene's terms
    index, which stays open for a segment's life. Lookups need only each
    field's rows ascending by term. Two reads serve every caller:
    :meth:`lookup` of exact (field, term) keys and :meth:`range` of one
    field's terms in ``[lo, hi)``, the read behind every term expansion
    and suggester (Lucene's ``seekExact`` and ``intersect`` over one terms
    index).

    The file is opened once; the open handle keeps reading this file's
    bytes after its path is replaced or unlinked. The footer's per row
    group (field, term) min/max bounds are parsed once, so a lookup
    decodes only the 1-2 row groups that can hold each key, and a range
    only the row groups that overlap it. Parquet
    string statistics may be truncated, but truncation keeps them
    conservative (min a prefix <= true min, max >= true max); a file
    without usable statistics reads every row group. Row groups a lookup
    read stay cached, non-binary columns only, with their terms as a
    numpy object array, least recently used out first beyond
    ``_RG_CACHE_CAP`` bytes (a range's groups only fill free room): a
    repeat or neighbouring lookup decodes
    nothing, and finds its rows by one ``np.searchsorted`` per field run
    of a row group and one ``take``. ``sig`` is the file's (inode,
    mtime_ns, size): a searcher hands the reader to its next epoch while
    the path still carries it (see ``LocalSearcher._bind``)."""

    # per-file byte budget of cached row groups (class attr so tests can
    # shrink it)
    _RG_CACHE_CAP = 16 << 20

    def __init__(self, path: str):
        import threading
        from collections import OrderedDict

        self.path = path
        while True:  # the sig must name the file the handle opened
            sig = _file_sig(path)
            self.pf = pq.ParquetFile(path)
            self.sig = _file_sig(path)
            if sig == self.sig:
                break
        self.schema = self.pf.schema_arrow
        self._cols = [f.name for f in self.schema
                      if not (pa.types.is_binary(f.type)
                              or pa.types.is_large_binary(f.type))]
        md = self.pf.metadata
        self.n_row_groups = md.num_row_groups
        self.bounds = self._parse_bounds(md)
        self._rgs: "OrderedDict[int, tuple]" = OrderedDict()
        self.cached_bytes = 0
        self.rg_reads = 0  # row groups decoded from the file
        self._lock = threading.Lock()

    @staticmethod
    def _parse_bounds(md) -> list[tuple] | None:
        """``[(fmin, tmin, fmax, tmax)]`` per row group, or None when a
        row group lacks min/max statistics."""
        if md.num_row_groups == 0:
            return []
        rg0 = md.row_group(0)
        ci_of = {rg0.column(ci).path_in_schema: ci
                 for ci in range(rg0.num_columns)}
        bounds = []
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            fs = rg.column(ci_of["field"]).statistics
            ts = rg.column(ci_of["term"]).statistics
            if (fs is None or ts is None or not fs.has_min_max
                    or not ts.has_min_max):
                return None
            bounds.append((fs.min, ts.min, fs.max, ts.max))
        return bounds

    def _spans(self, pairs: list[tuple[str, str]]) -> list[tuple]:
        """``(g, lo, hi)`` per row group ``g`` that can hold any of the
        sorted (field, term) ``pairs``: ``pairs[lo:hi]`` lie inside its
        bounds. A row's pair lies between ``(fmin, tmin)`` and ``(fmax,
        tmax)`` even in a file grouped by field but not (field,
        term)-sorted, so two bisections per group find its slice."""
        if self.bounds is None:
            return ([(g, 0, len(pairs)) for g in range(self.n_row_groups)]
                    if pairs else [])
        out = []
        for g, (fmin, tmin, fmax, tmax) in enumerate(self.bounds):
            lo = bisect.bisect_left(pairs, (fmin, tmin))
            hi = bisect.bisect_right(pairs, (fmax, tmax), lo)
            if lo < hi:
                out.append((g, lo, hi))
        return out

    def row_groups(self, pairs: list[tuple[str, str]]) -> list[int]:
        """Ascending ids of the row groups that can hold any of the sorted
        (field, term) ``pairs``."""
        return [g for g, _lo, _hi in self._spans(pairs)]

    def _load(self, g: int) -> tuple[pa.Table, np.ndarray, dict, int]:
        """Row group ``g``: (non-binary columns, its terms, {field: [(lo,
        hi) row runs]}, bytes held). Raises ``ValueError`` when a run's
        terms are not strictly ascending: lookups binary-search them."""
        # use_threads off: per-call pool spin-up costs more than it saves
        # on ~1000-row groups
        t = self.pf.read_row_group(g, columns=self._cols, use_threads=False)
        # via numpy: Array.to_pylist builds a scalar per row, ~15x slower
        terms = t["term"].to_numpy(zero_copy_only=False)
        fields = t["field"].combine_chunks()
        n = len(terms)
        # a field run starts at row 0 and wherever the field changes
        changed = pc.not_equal(fields.slice(1), fields.slice(0, n - 1)) \
            if n > 1 else pa.array([], pa.bool_())
        starts = ([0] if n else []) + (
            np.flatnonzero(np.asarray(changed)) + 1).tolist()
        runs: dict[str, list[tuple[int, int]]] = {}
        for lo, hi in zip(starts, [*starts[1:], n]):
            if not (terms[lo:hi - 1] < terms[lo + 1:hi]).all():
                raise ValueError(f"{self.path}: row group {g} is not sorted "
                                 "by term within a field")
            runs.setdefault(fields[lo].as_py(), []).append((lo, hi))
        # each term str: ~49 B of header plus its bytes, and an array slot
        nbytes = t.nbytes + t["term"].nbytes + 57 * n
        return t, terms, runs, nbytes

    def _groups(self, groups: list[int], scan: bool = False) -> list[tuple]:
        """:meth:`_load` of each of ``groups``, through the cache. A
        ``scan`` (:meth:`range`) caches only into free room, at the cold
        end: it never evicts the groups that lookups keep warm."""
        with self._lock:
            got = [self._rgs.get(g) for g in groups]
            for g, e in zip(groups, got):
                if e is not None:
                    self._rgs.move_to_end(g)
        for j, g in enumerate(groups):
            if got[j] is not None:
                continue
            e = got[j] = self._load(g)
            with self._lock:
                self.rg_reads += 1
                room = self._RG_CACHE_CAP - (self.cached_bytes if scan else 0)
                if g not in self._rgs and e[-1] <= room:
                    self._rgs[g] = e
                    self._rgs.move_to_end(g, last=not scan)
                    self.cached_bytes += e[-1]
                while self.cached_bytes > self._RG_CACHE_CAP:
                    _g, old = self._rgs.popitem(last=False)
                    self.cached_bytes -= old[-1]
        return got

    def lookup(self, terms_by_field: dict[str, list[str]],
               cols: list[str]) -> pa.Table | None:
        """Rows whose (field, term) is looked up, projected on ``cols``
        (non-binary columns), in file order; None when no row matches.
        A row group's rows of a field's looked-up terms come from one
        ``np.searchsorted`` per field run over its cached terms."""
        by_f = {f: sorted(set(ts)) for f, ts in sorted(terms_by_field.items())}
        pairs = [(f, t) for f, ts in by_f.items() for t in ts]
        keys = np.array([t for _f, t in pairs], dtype=object)
        f_end = np.cumsum([len(ts) for ts in by_f.values()]).tolist()
        f_at = list(zip(by_f, [0, *f_end[:-1]], f_end))
        spans = self._spans(pairs)
        parts = []
        for (_g, p_lo, p_hi), (t, terms, runs, _nb) in zip(
                spans, self._groups([g for g, _lo, _hi in spans])):
            rows = []
            for f, a, b in f_at:
                a, b = max(a, p_lo), min(b, p_hi)
                for lo, hi in runs.get(f, ()) if a < b else ():
                    i = np.minimum(lo + np.searchsorted(terms[lo:hi],
                                                        keys[a:b]), hi - 1)
                    rows.append(i[terms[i] == keys[a:b]])
            rows = np.sort(np.concatenate(rows)) if rows else ()
            if len(rows):
                parts.append(t.select(cols).take(rows))
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    def range(self, field: str, lo: str, hi: str | None) -> pa.Table:
        """(term, df) rows of ``field`` with ``lo <= term < hi`` (``hi``
        None: no upper end), in file order, so ascending by term. Only the
        row groups whose footer bounds overlap ``[(field, lo), (field,
        hi))`` load, through the cache as a scan (:meth:`_groups`); each
        field run of them yields one slice found by two
        ``np.searchsorted``."""
        groups = list(range(self.n_row_groups))
        if self.bounds is not None:
            groups = [g for g, (fmin, tmin, fmax, tmax) in
                      enumerate(self.bounds) if (fmax, tmax) >= (field, lo)
                      and (fmin <= field if hi is None
                           else (fmin, tmin) < (field, hi))]
        parts = []
        for t, terms, runs, _nb in self._groups(groups, scan=True):
            for a, b in runs.get(field, ()):
                i = a + np.searchsorted(terms[a:b], lo)
                j = b if hi is None else a + np.searchsorted(terms[a:b], hi)
                if i < j:
                    parts.append(t.select(["term", "df"]).slice(i, j - i))
        if not parts:
            return self.schema.empty_table().select(["term", "df"])
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)


def _term_stats_paths(index_dir: str) -> list[str]:
    ts_dir = os.path.join(index_dir, "term_stats")
    return [os.path.join(ts_dir, f) for f in sorted(os.listdir(ts_dir))
            if f.endswith(".parquet")]


def _global_df(readers: list[SortedTermFile],
               by_field: dict[str, list[str]]) -> pa.Table:
    """(field, term, df) rows of the looked-up terms present in the
    ``term_stats`` parts ``readers``, each pair's df summed across the
    parts by one Arrow ``group_by`` (skipped for one part: its lookup holds
    each pair once, and the sum costs more than a cold query's lookup)."""
    cols = ["field", "term", "df"]
    parts = [t for r in readers if (t := r.lookup(by_field, cols)) is not None]
    if not parts:
        return pa.table({"field": pa.array([], pa.string()),
                         "term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    if len(parts) == 1:
        return parts[0]
    return (pa.concat_tables(parts).group_by(["field", "term"],
                                             use_threads=False)
            .aggregate([("df", "sum")]).rename_columns(cols))


def _global_idf(readers: list[SortedTermFile],
                by_field: dict[str, list[str]], n_docs: int
                ) -> tuple[dict, dict]:
    """(idf map, df map) keyed (field, term) for the looked-up terms
    present in the ``term_stats`` parts ``readers`` (:func:`_global_df`)."""
    if not n_docs:
        return {}, {}
    t = _global_df(readers, by_field)
    dfs = dict(zip(zip(t["field"].to_pylist(), t["term"].to_pylist()),
                   t["df"].to_pylist()))
    return {k: float(codec.bm25_idf(df, n_docs))
            for k, df in dfs.items()}, dfs


class LocalSearcher:
    """The one scorer: global doc-length arrays loaded once, per-query
    dictionary rows looked up through one :class:`SortedTermFile` per
    bound segment term table (footer row-group bounds, cached row
    groups) and postings read as byte ranges of the segments' blobs;
    idf comes from the bound epoch's ``term_stats`` readers. Accumulation
    is per term in lexicographic order, so a searcher bound to a segment
    subset (``segments=``, the :func:`search` fan-out) scores its docs
    bitwise-identically to a whole-index searcher.
    """

    def __init__(self, index_dir: str, segments: list[int] | None = None):
        """``segments``: bind only these visible segment ids (None = every
        visible segment). Hits come from their docs only; idf, avgdl and
        doc lengths stay global, so scores equal the whole-index ones.
        Binding fails with ``ValueError`` when a listed segment is not
        visible.

        A searcher never writes segments or manifests. Every public query
        method first checks whether ``stats.json`` (the commit point of
        every append, delete and merge) moved, and rebinds onto the new
        epoch before it reads anything (see :meth:`refresh`)."""
        self.index_dir = index_dir
        self._segments = None if segments is None else sorted(
            int(s) for s in segments)
        self._bind()

    def _bind(self) -> None:
        """Bind this searcher to the CURRENT committed segment set."""
        index_dir = self.index_dir
        # epoch fingerprint, taken BEFORE the stats read: if stats.json is
        # replaced between the two, the sig is older than the loaded stats
        # and the next query harmlessly re-binds once more
        self._stats_sig = _file_sig(os.path.join(index_dir, "stats.json"))
        self.stats = _load_stats(index_dir)
        self.n_docs = int(self.stats["n_docs"])
        self.seg_ids, vis = self._visible(self.stats)
        self._doc_ranges = sorted((int(m["doc_id_base"]), int(m["n_docs"]),
                                   int(s)) for s, m in vis.items())
        # the live-docs mask over [0, n_docs): False at each tombstone;
        # every tombstone filter is ``ids[self._live[ids]]``
        live = np.ones(self.n_docs, bool)
        live[_load_deleted(index_dir, self.stats)] = False
        live.setflags(write=False)
        self._live = live
        self._bscale = _bound_scale(vis, self.stats)
        self.term_files = [seg_terms_path(index_dir, s) for s in self.seg_ids]
        # one reader per immutable file, opened now: term_stats stays this
        # epoch's even when a later append replaces it. A reader whose
        # file is unchanged (same sig) carries over from the last epoch
        # with its footer bounds and cached row groups; readers of files
        # that left the epoch are dropped with it.
        prev = {r.path: r for r in (*getattr(self, "_term_readers", ()),
                                    *getattr(self, "_stats_readers", ()))}
        paths = [*self.term_files, *_term_stats_paths(index_dir)]
        readers = []
        for path in paths:
            r = prev.get(path)
            readers.append(r if r is not None and r.sig == _file_sig(path)
                           else SortedTermFile(path))
        n = len(self.term_files)
        self._term_readers, self._stats_readers = readers[:n], readers[n:]
        self.term_schema = readers[0].schema if n else None
        self._dl: dict[str, np.ndarray] = {}
        self._idf_cache: dict[tuple[str, str], float | None] = {}
        # the one postings store: per (field, term) its _TermDir (block
        # directory over the _Blocked segment runs, joined encoded bytes,
        # the blocks decoded so far) or None, FIFO-evicted; every reader
        # of a term's postings goes through _load_blocked_runs, so a term
        # is read and each block decoded once per epoch
        self._postings_cache: dict[tuple[str, str], _TermDir | None] = {}
        self._postings_cache_cap = 8192
        # impact cache: per-(field, term) BM25 contribution array
        # (idf * tf-impact per posting) — query-INDEPENDENT, so warm
        # hot-term OR queries reduce to scatter-add + top-k (the dl
        # gather + kernel were ~half the warm cost for stopword queries).
        # Byte-budgeted LRU; idf/dl/avgdl are fixed per epoch, so entries
        # never go stale within a bind.
        from collections import OrderedDict
        self._contrib_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._contrib_cache_bytes = 0
        # exact-request result cache (see search()); per-epoch by
        # construction — _bind recreates it on every swap
        self._request_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # per-column doc-value caches (exists-filter null ids, numeric
        # decay values) — epoch-scoped like every cache above: an append
        # adds docs whose null/value rows the old entries don't carry
        self._null_dv_cache: dict[str, np.ndarray] = {}
        self._dv_num_cache: dict[str, np.ndarray] = {}
        self.last_block_stats = (0, 0)  # (decoded, total) of last query

    def _visible(self, stats: dict) -> tuple[list[int], dict]:
        """Bound segment ids and their manifests: every visible segment,
        or the ``segments`` subset, which must all be visible."""
        seg_ids, vis = _visible_seg_ids(self.index_dir, stats)
        if self._segments is None:
            return seg_ids, vis
        gone = sorted(set(self._segments) - set(seg_ids))
        if gone:
            raise ValueError(f"segments {gone} are not visible in "
                             f"{self.index_dir}")
        return list(self._segments), {s: vis[s] for s in self._segments}

    def _read_terms(self, dict_cols: list[str], terms_by_field: dict,
                    positions: bool = False) -> pa.Table:
        """Term-dictionary rows of the bound segments WITH encoded postings
        materialized: the small fixed-width columns come from each term
        file's reader (row groups located by footer bounds, kept cached),
        postings (and the block-metadata columns in ``dict_cols``) from
        coalesced ``pread`` s of exactly the needed sidecar ranges — the
        cold-query path never pays for a dataset scan or a whole binary
        column chunk."""
        want_blocks = any(c in blobs.BLOCK_COLUMNS for c in dict_cols)
        cols = [c for c in dict_cols if c not in blobs.BLOCK_COLUMNS]
        cols += ["segment_id", "blob_off", "doc_nbytes", "tf_nbytes"]
        if want_blocks:
            cols.append("blk_n")
        if ((positions or want_blocks)
                and "pos_nbytes" in self.term_schema.names):
            cols.append("pos_nbytes")  # also locates the block tail
        # serial: a cached lookup is a few hash probes and one take, and
        # a cold one mostly builds its row-group index in Python; a thread
        # pool measured up to 4x slower on 16 files (GIL contention)
        out = [t for r in self._term_readers
               if (t := r.lookup(terms_by_field, cols)) is not None]
        tt = (pa.concat_tables(out) if out else
              pa.table({c: pa.array([], self.term_schema.field(c).type)
                        for c in cols}))
        return blobs.materialize_enc(
            tt, lambda sid: seg_terms_path(self.index_dir, sid),
            want_positions=positions, want_blocks=want_blocks)

    def refresh(self) -> bool:
        """Epoch swap: when ``stats.json`` (the atomic commit point of
        every append, delete and merge) was replaced since the last bind,
        rebind files and drop every derived cache. Returns True when a
        swap happened. Every public query method calls this first, so a
        query never reads files of an epoch that a later commit deleted:
        a merge removes its absorbed segments' files as soon as it
        commits. A query already running when a commit lands is not
        protected."""
        if _file_sig(os.path.join(self.index_dir, "stats.json")) \
                == self._stats_sig:
            return False
        self._bind()
        return True

    def _dl_for(self, field: str) -> np.ndarray:
        """Doc-length lookup array for ``field`` — a read-only float64
        memmap over a flat sidecar file (``doclen/<field>.<n_docs>.f64``),
        built once per index from the docs tables and shared by every
        process serving it. Fancy indexing touches only the pages holding
        the looked-up doc ids, so per-query resident memory tracks the
        query's postings, not the corpus (the Lucene norms-file shape);
        values are small integers, exactly representable, so scores are
        bitwise-identical to the previous dense in-heap array."""
        if field not in self._dl:
            self._dl[field] = self._doclen_map(field)
        return self._dl[field]

    def _doclen_map(self, field: str) -> np.ndarray:
        import uuid as _uuid

        n = self.n_docs
        if n == 0 or not self.seg_ids:
            return np.zeros(max(n, 1), dtype=np.float64)
        path = os.path.join(self.index_dir, "doclen", f"{field}.{n}.f64")
        if not os.path.exists(path):
            # the sidecar is shared by every reader of the index, so it is
            # filled from EVERY visible segment, whatever this one binds
            doc_files = [seg_docs_path(self.index_dir, s) for s in
                         _visible_seg_ids(self.index_dir, self.stats)[0]]
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = f"{path}.tmp-{_uuid.uuid4().hex}"
                arr = np.memmap(tmp, dtype=np.float64, mode="w+", shape=(n,))
                for f in doc_files:
                    dt = pq.read_table(f, columns=["doc_id", _dl_column(field)])
                    arr[dt["doc_id"].to_numpy()] = \
                        dt[_dl_column(field)].to_numpy()
                arr.flush()
                del arr
                os.replace(tmp, path)  # atomic: concurrent builders race safely
            except OSError:  # read-only index dir: dense in-heap fallback
                arr = np.zeros(n, dtype=np.float64)
                dt = pq.read_table(doc_files,
                                   columns=["doc_id", _dl_column(field)])
                arr[dt["doc_id"].to_numpy()] = dt[_dl_column(field)].to_numpy()
                return arr
        return np.memmap(path, dtype=np.float64, mode="r", shape=(n,))

    def _dv_hours(self, column: str) -> np.ndarray:
        """Per-doc numeric doc-value lookup for a timestamp ``column`` in
        WHOLE HOURS since the Unix epoch — a read-only float64 memmap
        sidecar (``doclen/dv.<column>.<n_docs>.f64``) built once from the
        column's doc-values shards, same page-touch behavior as
        :meth:`_dl_for` (per-query residency tracks the candidates, not
        the corpus). Hours keep the values exactly representable in
        float64 (raw microseconds would not be); docs with a null value
        get NaN (decay treats them as non-matching the function, ES
        skip-missing)."""
        cache = self._dv_num_cache
        if column in cache:
            return cache[column]
        import uuid as _uuid

        from .aggs import _dv_path, build_doc_values

        n = self.n_docs
        if n == 0:
            return np.zeros(max(n, 1), dtype=np.float64)
        path = os.path.join(self.index_dir, "doclen",
                            f"dv.{column}.{n}.f64")
        if not os.path.exists(path):
            build_doc_values(self.index_dir, column)

            def fill(arr):  # every visible segment, as in _doclen_map
                for s in _visible_seg_ids(self.index_dir, self.stats)[0]:
                    dt = pq.read_table(_dv_path(self.index_dir, column,
                                                int(s)),
                                       columns=["doc_id", column])
                    col = dt[column].cast(pa.int64())
                    ok = np.asarray(pc.is_valid(col))
                    # integer floordiv BEFORE the float cast: raw
                    # microseconds exceed float64's exact-integer range
                    iv = np.asarray(pc.fill_null(col, 0),
                                    dtype=np.int64) // 3_600_000_000
                    v = iv.astype(np.float64)
                    v[~ok] = np.nan
                    arr[dt["doc_id"].to_numpy()] = v

            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = f"{path}.tmp-{_uuid.uuid4().hex}"
                arr = np.memmap(tmp, dtype=np.float64, mode="w+",
                                shape=(n,))
                arr[:] = np.nan
                fill(arr)
                arr.flush()
                del arr
                os.replace(tmp, path)
            except OSError:  # read-only index dir: dense in-heap fallback
                arr = np.full(n, np.nan, dtype=np.float64)
                fill(arr)
                cache[column] = arr
                return arr
        out = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
        cache[column] = out
        return out

    def search_decay(self, query: str, k: int = 10,
                     field: str = DEFAULT_FIELD, column: str = "warc_ts",
                     origin_hours: float = 0.0, scale_hours: float = 240.0,
                     offset_hours: float = 0.0, decay: float = 0.5,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``function_score`` with a ``gauss`` decay on a timestamp
        doc-value: ``score = BM25 * exp(-max(0, |x - origin| - offset)^2
        / (2 sigma^2))`` with ``sigma^2 = scale^2 / (2 ln(1/decay))`` —
        the value at ``origin±(offset+scale)`` is exactly ``decay``.
        All distances in whole hours (exactly representable, see
        :meth:`_dv_hours`). The multiplicative factor breaks block-max
        admissibility, so the exact scorer runs with no bound and the
        modifier applied before the top-k cut — the same shape as
        ``search_function_score``. Docs missing the doc-value score 0
        for the function (dropped from the top-k unless k exceeds the
        matched set)."""
        self.refresh()
        all_terms = query_terms(query, _field_analyzer(self.stats, field))
        idf = self._idf(field, all_terms)
        terms = [t for t in all_terms if t in idf]
        if not terms or not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        hours = self._dv_hours(column)
        sigma2 = (scale_hours * scale_hours) / (2.0 * np.log(1.0 / decay))

        def mod(sc, loc):
            d = np.abs(hours[loc] - origin_hours) - offset_hours
            d = np.maximum(d, 0.0)
            g = np.exp(-(d * d) / (2.0 * sigma2))
            return sc * np.where(np.isnan(g), 0.0, g)

        dl = self._dl_for(field)
        return self._search_exact(
            field, terms, k, idf, dl, _avgdl(self.stats, field),
            score_mod=mod)

    def _idf(self, field: str, terms: list[str]) -> dict[str, float]:
        """idf of the looked-up ``terms`` present in the bound epoch's
        term_stats (global df, the bound ``n_docs``), cached per epoch
        (None for an absent term)."""
        missing = [t for t in terms if (field, t) not in self._idf_cache]
        if missing:
            got, _dfs = _global_idf(self._stats_readers, {field: missing},
                                    self.n_docs)
            for t in missing:
                self._idf_cache[(field, t)] = got.get((field, t))
        return {t: v for t in terms
                if (v := self._idf_cache.get((field, t))) is not None}

    def _load_blocked_runs(self, field: str, terms: list[str]
                           ) -> dict[str, _TermDir | None]:
        """:class:`_TermDir` per term (None for a term absent from the
        bound segments), from ``_postings_cache``: only terms not yet
        cached read their dictionary rows and postings bytes, and decoded
        blocks stay with their term."""
        missing = [t for t in terms if (field, t) not in self._postings_cache]
        if missing:
            tt = self._read_terms(
                ["term", "df", "block_last_doc", "block_max_impact",
                 "block_doc_byte_off", "block_tf_byte_off"],
                {field: missing},
            )
            fresh: dict[str, _TermDir] = {}
            if tt.num_rows:
                # the block columns share their list offsets: one (5,
                # blocks) array per read
                views = [blobs._list_views(tt[c]) for c in (
                    "block_last_doc", "block_doc_byte_off",
                    "block_tf_byte_off", "block_max_impact")]
                offs = views[0][0]
                meta = np.stack(
                    [v.astype(np.int64, copy=False) for _o, v in views[:3]]
                    + [views[3][1].astype(np.float64).view(np.int64),
                       np.empty(offs[-1], np.int64)])
                # smallest doc id per block: one past the previous block's
                # last, the segment's first doc id for a run's first block
                base = {s: b for b, _n, s in self._doc_ranges}
                segs = tt["segment_id"].to_pylist()
                meta[4, 1:] = meta[0, :-1] + 1
                meta[4, offs[:-1]] = [base[s] for s in segs]
                fresh = _term_dirs(
                    tt["term"].to_pylist(), tt["df"].to_pylist(),
                    tt["doc_ids_enc"].to_pylist(),
                    tt["tfs_enc"].to_pylist(), offs, meta)
            for t in missing:
                while len(self._postings_cache) >= self._postings_cache_cap:
                    self._postings_cache.pop(next(iter(self._postings_cache)))
                self._postings_cache[(field, t)] = fresh.get(t)
        return {t: self._postings_cache[(field, t)] for t in terms}

    #: doc ids per window of the exact scorer (a 2 MiB float64 buffer)
    _WINDOW = 1 << 18
    #: bounds summed in another order than a score differ from the same
    #: sum in its order by under 2n ulp for n terms
    _BOUND_SLACK = 1.0 + 1e-9

    def _search_exact(self, field: str, terms: list[str], k: int,
                      idf: dict[str, float], dl: np.ndarray, avgdl: float,
                      mode: str = "or",
                      after: tuple[float, int] | None = None,
                      score_mod=None) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of the OR or AND query ``terms`` (sorted, each with
        an idf) by :meth:`_score_windows`."""
        runs = self._bounded_runs(field, terms, idf)
        return self._score_windows(field, terms, runs, k, idf, dl, avgdl,
                                   mode, after, score_mod)

    def _bounded_runs(self, field: str, terms: list[str], idf: dict
                      ) -> dict[str, _Run]:
        """term -> its :class:`_Run`, each block bounded by ``idf * bscale
        * block_max_impact`` (``bscale``: appended indexes); terms absent
        from the bound segments are left out."""
        dirs = self._load_blocked_runs(field, terms)
        return {t: _Run(t, d.block_lo, d.block_last,
                        idf[t] * self._bscale * d.bmax, d)
                for t, d in dirs.items() if d is not None}

    def _warm(self, field: str, r: _Run, idf: dict, dl: np.ndarray,
              avgdl: float) -> None:
        """Set ``r`` warm: postings decoded whole, impacts through the
        impact cache."""
        post = r.blk.whole()
        r.ids = post[0]
        r.con = self._contribs_for(field, [r.term], {r.term: post}, idf, dl,
                                   avgdl)[r.term]

    def _fetch(self, field: str, r: _Run, bs: np.ndarray, lo: int, hi: int,
               n_span: int, idf: dict, dl: np.ndarray, avgdl: float,
               at: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(doc id - ``lo``, contribution) of the postings in blocks ``bs``
        (ascending) of ``r`` with ids in ``[lo, hi)`` — only those at the
        sorted positions ``at`` when given. Asking for all ``n_span``
        blocks that overlap ``[lo, hi)``, or for any block of a term
        decoded whole, makes the term warm (:meth:`_warm`); a head term of
        which queries need a few blocks stays lazy."""
        if r.ids is None and (len(bs) == n_span or r.blk.blocks_decoded
                              == r.blk.n_blocks):
            self._warm(field, r, idf, dl, avgdl)
        if r.ids is None:
            ids, val = r.blk.get(bs)
        elif 2 * len(bs) >= bs[-1] - bs[0] + 1:
            # mostly consecutive: one slice (the blocks between add
            # postings that are cheaper to scatter than to gather around)
            a, b = np.searchsorted(r.ids, (max(lo, int(r.lo_id[bs[0]])),
                                           min(hi, int(r.last[bs[-1]]) + 1)))
            ids, val = r.ids[a:b], r.con[a:b]
        else:
            idx = _ranges(np.searchsorted(r.ids, r.lo_id[bs]),
                          np.searchsorted(r.ids, r.last[bs], "right"))
            ids, val = r.ids[idx], r.con[idx]
        if not len(ids):
            keep = slice(None)
        elif at is not None:
            want = at + lo
            j = np.minimum(np.searchsorted(ids, want), len(ids) - 1)
            keep = j[ids[j] == want]
        elif ids[0] < lo or ids[-1] >= hi:  # blocks straddling the window
            keep = (ids >= lo) & (ids < hi)
        else:
            keep = slice(None)
        ids, val = ids[keep], val[keep]
        if r.ids is None:  # val holds tfs
            val = idf[r.term] * codec.bm25_tf_impact(val, dl[ids], avgdl)
        return ids - lo, val

    def _seed_theta(self, field: str, terms: list[str], runs: dict, k: int,
                    idf: dict, dl: np.ndarray, avgdl: float) -> float:
        """A lower bound of the k-th score: the k-th largest live
        contribution in the top-``k`` blocks of the highest-bound term
        (distinct docs; a score is at least any one contribution of it),
        or ``-inf``."""
        r = runs[max(terms, key=lambda t: (float(runs[t].ub.max()), t))]
        n = min(k, len(r.ub))
        top = np.sort(np.argpartition(-r.ub, n - 1)[:n])
        ids, con = self._fetch(field, r, top, 0, self.n_docs, len(r.ub), idf,
                               dl, avgdl)
        con = con[self._live[ids]]
        return float(np.partition(con, -k)[-k]) if len(con) >= k \
            else -np.inf

    def _score_windows(self, field: str, terms: list[str], runs: dict,
                       k: int, idf: dict, dl: np.ndarray, avgdl: float,
                       mode: str = "or",
                       after: tuple[float, int] | None = None,
                       score_mod=None) -> tuple[np.ndarray, np.ndarray]:
        """The exact scorer (Lucene's ``MaxScoreBulkScorer`` shape): top-k
        of ``terms`` over ``runs`` (term -> its :class:`_Run`, one block
        directory over all bound segments), one doc-id window at a time.
        Each window scatter-adds its postings' scores into a reused buffer
        in lexicographic term order, so scores are the oracle's bitwise
        (``mode="and"`` also counts hits), then keeps its top-k
        (tombstones and the ``after`` cursor dropped, ``score_mod`` applied
        first), raising ``theta``, the running k-th score (seeded for OR by
        :meth:`_seed_theta`). A doc whose bound is strictly below ``theta``
        cannot tie into the top-k, so the loop skips a window whose bounds
        sum below it, and an essential term's block whose bound plus the
        other terms' window bounds does. The non-essential terms
        (MaxScore: the lowest bounds summing below ``theta``; for AND all
        but the term with the fewest blocks) are probed only at the
        essential terms' docs whose partial score plus bounds reaches
        ``theta``. Per term and window there is one block span, one
        :meth:`_fetch` and one decode call, whatever the segment count. A
        skipped block is never decoded; a doc that misses one may read
        out with part of its score, below ``theta``. With ``score_mod``
        there is no bound. Sets ``last_block_stats`` to (blocks decoded,
        blocks total)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        n_terms = len(terms)
        terms = [t for t in terms if t in runs]
        readers = [runs[t].blk for t in terms]
        dec0 = sum(rd.blocks_decoded for rd in readers)
        total = sum(rd.n_blocks for rd in readers)
        self.last_block_stats = (0, total)
        if not terms or (mode == "and" and len(terms) < n_terms):
            return empty
        for t in terms:  # cached impacts: the windows slice them
            if (field, t) in self._contrib_cache and runs[t].ids is None:
                self._warm(field, runs[t], idf, dl, avgdl)
        theta = -np.inf
        if score_mod is None and after is None and mode == "or" and k > 0:
            theta = self._seed_theta(field, terms, runs, k, idf, dl, avgdl)
        slack = self._BOUND_SLACK
        W = self._WINDOW
        span_lo = min(int(runs[t].lo_id[0]) for t in terms)
        span_hi = max(int(runs[t].last[-1]) for t in terms) + 1
        edges = np.arange(span_lo, span_hi + W, W, dtype=np.int64)
        edges[-1] = span_hi
        for t in terms:  # each window's overlapping blocks [wa, wb)
            r = runs[t]
            r.wa = np.searchsorted(r.last, edges[:-1]).tolist()
            r.wb = np.searchsorted(r.lo_id, edges[1:]).tolist()
        width = min(W, span_hi - span_lo)
        buf = np.zeros(width)
        cnt = np.zeros(width, np.int16) if mode == "and" else None
        top = np.empty(0, np.float64)
        out_loc: list[np.ndarray] = []
        out_sc: list[np.ndarray] = []
        for w in range(len(edges) - 1):
            lo, hi = int(edges[w]), int(edges[w + 1])
            live = sorted(t for t in terms if runs[t].wa[w] < runs[t].wb[w])
            if not live or (mode == "and" and len(live) < n_terms):
                continue
            ab = [(runs[t].wa[w], runs[t].wb[w]) for t in live]
            wmax = np.array([float(runs[t].ub[a:b].max())
                             for t, (a, b) in zip(live, ab)])
            if wmax.sum() * slack < theta:
                continue
            # other terms' bounds per term, summed without cancellation
            cs = np.cumsum(wmax)
            others = np.r_[0.0, cs[:-1]] + np.r_[
                np.cumsum(wmax[::-1])[::-1][1:], 0.0]
            if mode == "and":
                ess = {min(range(len(live)),
                           key=lambda i: (ab[i][1] - ab[i][0], live[i]))}
            else:
                order = np.argsort(wmax, kind="stable")
                n_non = int((np.cumsum(wmax[order]) * slack < theta).sum())
                ess = set(order[n_non:].tolist())
            got: dict[str, tuple] = {}
            for i in sorted(ess):  # got keeps the live order
                r, (a, b) = runs[live[i]], ab[i]
                if theta == -np.inf:
                    bs = np.arange(a, b)
                else:
                    bs = a + np.flatnonzero(
                        (r.ub[a:b] + others[i]) * slack >= theta)
                if len(bs):
                    got[live[i]] = self._fetch(field, r, bs, lo, hi, b - a,
                                               idf, dl, avgdl)
            if not got:
                continue
            non = sorted((i for i in range(len(live)) if i not in ess),
                         key=lambda i: (-wmax[i], live[i]))
            n_ess = sum(len(pos) for pos, _con in got.values())
            n_non = codec.BLOCK_SIZE * sum(ab[i][1] - ab[i][0] for i in non)
            if non and 8 * n_ess >= n_non:
                # probing costs a few passes over the candidates: unless
                # the non-essential postings are far more, they hold an
                # essential posting in nearly every block anyway
                for i in non:
                    a, b = ab[i]
                    got[live[i]] = self._fetch(field, runs[live[i]],
                                               np.arange(a, b), lo, hi, b - a,
                                               idf, dl, avgdl)
                non = []
            if non:
                # candidates: the essential terms' docs with their partial
                # scores (summed in any order: they only prune)
                for pos, con in got.values():
                    buf[pos] += con
                cand, partial = _drain(buf, [pos for pos, _c in got.values()])
                rest_bounds = np.r_[np.cumsum(wmax[non][::-1])[::-1][1:], 0.0]
            for i, rest in zip(non, rest_bounds if non else ()):
                # a candidate is probed in the block holding it unless its
                # bound cannot reach theta; only those blocks are fetched
                r, (a, b) = runs[live[i]], ab[i]
                doc = cand + lo
                bi = np.minimum(np.searchsorted(r.last[a:b], doc), b - a - 1)
                inside = (r.lo_id[a:b][bi] <= doc) & (r.last[a:b][bi] >= doc)
                keep = (inside.copy() if mode == "and"
                        else np.ones(len(cand), bool))
                if theta > -np.inf:
                    keep &= (partial + np.where(inside, r.ub[a:b][bi], 0.0)
                             + rest) * slack >= theta
                cand, partial = cand[keep], partial[keep]
                need = np.unique(bi[keep & inside])
                if not len(cand) or not len(need):
                    if mode == "and":
                        cand = cand[:0]
                    continue
                # the postings at the candidates only: a doc off the
                # candidates cannot reach theta
                pos, con = got[live[i]] = self._fetch(
                    field, r, a + need, lo, hi, b - a, idf, dl, avgdl,
                    at=cand)
                j = np.searchsorted(cand, pos)
                partial[j] += con
                if mode == "and":
                    hit = np.zeros(len(cand), bool)
                    hit[j] = True
                    cand, partial = cand[hit], partial[hit]
            for t in live:  # lexicographic accumulation order
                if t in got:
                    pos, con = got[t]
                    buf[pos] += con
                    if cnt is not None:
                        cnt[pos] += 1
            pos_w, sc_w = _drain(buf, [got[t][0] for t in live if t in got],
                                 cnt, n_terms)
            loc_w = pos_w + lo
            if score_mod is not None:
                # modify BEFORE the per-window cut: the cut must rank by
                # the FINAL score or a top-k member could be dropped
                sc_w = score_mod(sc_w, loc_w)
            if after is not None:  # keyset cursor: strictly-after rows
                a_s, a_d = float(after[0]), int(after[1])
                keep = (sc_w < a_s) | ((sc_w == a_s) & (loc_w > a_d))
                loc_w, sc_w = loc_w[keep], sc_w[keep]
            if theta > -np.inf:  # below the k-th score so far: out
                keep = sc_w >= theta
                loc_w, sc_w = loc_w[keep], sc_w[keep]
            # before the cut: a tombstone must not displace a hit
            keep = self._live[loc_w]
            loc_w, sc_w = loc_w[keep], sc_w[keep]
            if len(loc_w) > k:
                kth = np.partition(sc_w, -k)[-k]
                keep = sc_w >= kth
                loc_w, sc_w = loc_w[keep], sc_w[keep]
            out_loc.append(loc_w)
            out_sc.append(sc_w)
            if score_mod is None and k > 0:
                top = np.concatenate([top, sc_w])
                if len(top) >= k:
                    top = np.partition(top, -k)[-k:]
                    theta = max(theta, float(top[0]))
        self.last_block_stats = (
            sum(rd.blocks_decoded for rd in readers) - dec0, total)
        if not out_loc:
            return empty
        loc, sc = np.concatenate(out_loc), np.concatenate(out_sc)
        return _top_k(loc, sc, k)

    def _postings_for(self, field: str, terms: list[str]
                      ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(doc ids, tfs) of each term present in the bound segments, in
        doc-id order: its per-term buffer in the postings cache, decoded
        whole."""
        dirs = self._load_blocked_runs(field, terms)
        return {t: d.whole() for t, d in dirs.items() if d is not None}

    def _match_set(self, clauses: list[list[np.ndarray]],
                   need: int | None = None) -> np.ndarray:
        """The one match-set evaluator (Lucene's ``BooleanQuery`` over the
        live-docs bitset): sorted live doc ids found in at least ``need``
        of ``clauses`` (default: every clause). A clause is a list of
        sorted unique doc-id arrays, and a doc is in it when any array
        holds it. ``need == 1`` is one union, ``need == len(clauses)`` an
        intersection chain from the smallest clause, and anything between
        counts each doc's clauses; each op is the fastest numpy one for its
        case. The result is always a new array: a postings buffer stays the
        cache's."""
        need = len(clauses) if need is None else need
        if not 1 <= need <= len(clauses):
            return np.empty(0, np.int64)
        if need == 1:  # one union
            clauses = [[ids for cl in clauses for ids in cl]]
        sets = sorted((cl[0] if len(cl) == 1 else np.unique(
            np.concatenate([np.empty(0, np.int64), *cl])) for cl in clauses),
            key=len)
        if need < len(sets):  # count each doc's clauses
            out, cnt = np.unique(np.concatenate(sets), return_counts=True)
            out = out[cnt >= need]
        else:  # every clause: an intersection chain from the smallest
            out = sets[0]
            for ids in sets[1:]:
                if not len(out):
                    break
                out = np.intersect1d(out, ids, assume_unique=True)
        return out[self._live[out]]

    def matched_ids(self, field: str, terms: list[str], mode: str = "or"
                    ) -> np.ndarray:
        """Sorted live doc ids in the bound segments matching ``terms``,
        from :meth:`_match_set`: for ``mode="or"`` (ES match default) one
        clause holding every term, for ``"and"`` (operator=and) one clause
        per term, all required. The whole matched set, unscored and uncut,
        as aggregations, exports and deletes consume it. Postings come
        decoded whole from the postings cache (:meth:`_postings_for`),
        shared with every scorer."""
        check_match_mode(mode)
        self.refresh()
        uniq = sorted(set(terms))
        if not uniq or not self.term_files:
            return np.empty(0, np.int64)
        by_term = self._postings_for(field, uniq)
        if mode == "or":
            clauses = [[ids for ids, _tfs in by_term.values()]]
        else:
            clauses = [[by_term[t][0]] if t in by_term else [] for t in uniq]
        return self._match_set(clauses).astype(np.int64, copy=False)

    def split_by_segment(self, ids: np.ndarray):
        """``(seg_id, ids in it)`` per bound segment holding any of the
        sorted global ``ids``, in doc-id order, so per-segment reads
        (doc-values shards, docs tables) concatenate aligned with
        ``ids``."""
        for base, n, seg_id in self._doc_ranges:
            a, b = np.searchsorted(ids, (base, base + n))
            if a < b:
                yield seg_id, ids[a:b]

    # impact-cache byte budget (class attr so tests can shrink it)
    _CONTRIB_CACHE_CAP = 256 << 20

    def _contribs_for(self, field: str, terms: list[str], by_term: dict,
                      idf: dict[str, float], dl: np.ndarray, avgdl: float
                      ) -> dict[str, np.ndarray]:
        """Per-term BM25 contribution arrays (``idf[t] * tf_impact``),
        parallel to ``by_term``'s (ids, tfs), through the byte-budgeted
        LRU; terms absent from ``by_term`` are left out. Values are exactly
        what the inline computation produced — caching changes nothing
        bitwise."""
        out: dict[str, np.ndarray] = {}
        for t in terms:
            key = (field, t)
            got = self._contrib_cache.get(key)
            if got is None:
                if t not in by_term:
                    continue
                ids, tfs = by_term[t]
                got = idf[t] * codec.bm25_tf_impact(tfs, dl[ids], avgdl)
                if got.nbytes <= self._CONTRIB_CACHE_CAP:
                    self._contrib_cache[key] = got
                    self._contrib_cache_bytes += got.nbytes
                    while (self._contrib_cache_bytes
                           > self._CONTRIB_CACHE_CAP):
                        _k, v = self._contrib_cache.popitem(last=False)
                        self._contrib_cache_bytes -= v.nbytes
            else:
                self._contrib_cache.move_to_end(key)
            out[t] = got
        return out

    def _sparse_scores(self, field: str, cand: np.ndarray, terms: list[str],
                       by_term: dict, idf: dict[str, float],
                       out: np.ndarray | None = None) -> np.ndarray:
        """BM25 sum of ``terms`` at each of the sorted candidates ``cand``,
        added term by term in the given order (a repeated term adds
        again), from :meth:`_contribs_for`; terms absent from ``by_term``
        add nothing. Each candidate gets the same additions in the same
        order whichever side is searched, so scores are bitwise fixed by
        the term order. ``out``: add into it instead of a zero vector."""
        con = self._contribs_for(field, list(dict.fromkeys(terms)), by_term,
                                 idf, self._dl_for(field),
                                 _avgdl(self.stats, field))
        sc = np.zeros(len(cand)) if out is None else out
        for t in terms:
            if t not in con:
                continue
            ids = by_term[t][0]
            if len(ids) > len(cand):  # probe the term at the candidates
                pos = np.minimum(np.searchsorted(ids, cand), len(ids) - 1)
                hit = ids[pos] == cand
                sc[hit] += con[t][pos[hit]]
            else:  # scatter the term's postings that are candidates
                pos = np.minimum(np.searchsorted(cand, ids), len(cand) - 1)
                hit = cand[pos] == ids
                if hit.all():
                    sc[pos] += con[t]
                else:
                    sc[pos[hit]] += con[t][hit]
        return sc

    def more_like_this(self, doc_url: str, k: int = 10,
                       field: str = DEFAULT_FIELD,
                       max_query_terms: int = 5,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """ES more_like_this: find docs similar to one document. The
        source doc's terms are ranked by ``round(tf * idf, 6)`` (ties:
        term asc — rounding makes the selection reproducible across
        engines), the top ``max_query_terms`` become a standard BM25 OR
        query, and the source doc itself is excluded from the hits
        (Lucene MLT semantics). The source is the url's live doc, found
        by :func:`url_rows` minus tombstones: after an upsert that is the
        newest version, not the superseded one."""
        from .export import term_vectors

        self.refresh()
        tv = term_vectors(self.index_dir, [doc_url], field)
        if tv.num_rows == 0 or not self.seg_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        terms = tv["term"].to_pylist()
        tfs = tv["tf"].to_numpy().astype(np.float64)
        idf = self._idf(field, terms)
        sel_score = np.round(
            tfs * np.array([idf.get(t, 0.0) for t in terms]), 6)
        t_arr = np.array(terms, dtype=object)
        order = np.lexsort((t_arr, -sel_score))[:max_query_terms]
        selected = sorted(t_arr[order].tolist())
        # the source's live doc id: an upsert leaves the url's older,
        # tombstoned docs in the index too
        src = url_rows(self.index_dir, self.seg_ids,
                       pa.array([doc_url], pa.string()),
                       ["doc_id"])["doc_id"].to_numpy()
        src = src[self._live[src]]
        ids, sc = self.search(" ".join(selected), k=k + 1, field=field)
        keep = ~np.isin(ids, src)
        return ids[keep][:k], sc[keep][:k]

    def rescore(self, query: str, phrase: str | None = None,
                k: int = 10, window_size: int = 50,
                query_weight: float = 1.0, rescore_weight: float = 2.0,
                field: str = DEFAULT_FIELD,
                ) -> tuple[np.ndarray, np.ndarray]:
        """ES rescore API: re-rank the top ``window_size`` docs of the
        BM25 ranking with a phrase query —
        ``new = query_weight * bm25 + rescore_weight * phrase_score``
        (phrase_score 0 when the phrase doesn't occur; the documented
        :meth:`search_phrase` convention otherwise). ``phrase`` defaults to the
        query itself (ES's common usage). With non-negative weights and
        k <= window_size the global top-k provably lives inside the
        window, so nothing outside it is scored twice."""
        if k > window_size:
            raise ValueError("rescore requires k <= window_size")
        self.refresh()
        # the window cut uses ROUNDED primary scores (6 dp) with doc-id
        # tie-break — the repo-wide determinism convention, so the window
        # membership is reproducible across engines and runs
        ids, sc = self.search(query, k=window_size + 20, field=field)
        if len(ids) == 0:
            return ids, sc
        cut = np.lexsort((ids, -np.round(sc, 6)))[:window_size]
        ids, sc = ids[cut], sc[cut]
        p_ids, p_sc, _fq = self.search_phrase(
            phrase or query, k=window_size, field=field,
            within=np.sort(ids))
        ph = dict(zip(p_ids.tolist(), p_sc.tolist()))
        new = (query_weight * sc
               + rescore_weight * np.array([ph.get(int(d), 0.0)
                                            for d in ids]))
        order = np.lexsort((ids, -new))[:k]
        return ids[order], new[order]

    def explain(self, query: str, doc_id: int,
                field: str = DEFAULT_FIELD) -> dict:
        """ES ``_explain`` analogue: per-term BM25 contribution breakdown
        for one document. Sum of contributions == the search score bitwise
        (same accumulation order)."""
        self.refresh()
        terms = query_terms(query, _field_analyzer(self.stats, field))
        idf = self._idf(field, terms)
        dl = self._dl_for(field)
        avgdl = _avgdl(self.stats, field)
        parts = []
        total = 0.0
        live = [t for t in terms if t in idf]
        by_term = self._postings_for(field, live)
        for t in live:
            ids, tfs = by_term.get(t, (np.empty(0, np.int64),) * 2)
            j = int(np.searchsorted(ids, doc_id))
            tf = int(tfs[j]) if j < len(ids) and int(ids[j]) == doc_id else 0
            impact = float(codec.bm25_tf_impact(
                np.array([tf], dtype=np.float64),
                np.array([dl[doc_id]]), avgdl)[0]) if tf else 0.0
            contrib = idf[t] * impact
            total += contrib
            # global df — the postings span all visible generations, so
            # their length is the scoring df (Lucene keeps df through
            # tombstones until compaction, as the scorer does)
            df_t = len(ids)
            parts.append({"term": t, "tf": tf, "df": df_t, "idf": idf[t],
                          "dl": float(dl[doc_id]), "avgdl": avgdl,
                          "contribution": contrib})
        return {"doc_id": int(doc_id), "score": total, "terms": parts,
                "bm25": {"k1": codec.BM25_K1, "b": codec.BM25_B}}

    def search_after(self, query: str, after: tuple[float, int] | None,
                     k: int = 10, field: str = DEFAULT_FIELD,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Keyset pagination over the BM25 ranking (ES search_after
        analogue): return the next ``k`` hits strictly after the
        ``(score, doc_id)`` cursor in (score desc, doc_id asc) order.
        ``after=None`` is the first page. Deterministic: the cursor is the
        last row of the previous page.

        Routed through the exact scorer with the cursor applied before
        each window's top-k cut (its bounds stay on), so a page-2+ request
        costs about what page 1 does (no full ranking, candidate memory
        bounded by the window loop) and scores are bitwise-identical to
        ``search()``'s."""
        self.refresh()
        if after is None:
            return self.search(query, k=k, field=field)
        all_terms = query_terms(query, _field_analyzer(self.stats, field))
        idf = self._idf(field, all_terms)
        terms = [t for t in all_terms if t in idf]
        if not terms or not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return self._search_exact(
            field, terms, k, idf, self._dl_for(field),
            _avgdl(self.stats, field),
            after=(float(after[0]), int(after[1])))

    def search_function_score(self, query: str, k: int = 10,
                              field: str = DEFAULT_FIELD,
                              modifier: str = "log1p",
                              factor_field: str | None = None,
                              ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``function_score`` with a ``field_value_factor`` over the
        per-doc token count: ``score = BM25 * modifier(word_count)``
        (modifier: ``log1p`` -> ln(1 + v), ``sqrt``, ``none``). The
        multiplicative factor breaks block-max upper-bound admissibility,
        so the exact scorer runs with no bound and the modifier applied
        BEFORE each window's top-k cut. ``factor_field`` defaults to the scored field's own
        doc length."""
        self.refresh()
        all_terms = query_terms(query, _field_analyzer(self.stats, field))
        idf = self._idf(field, all_terms)
        terms = [t for t in all_terms if t in idf]
        if not terms or not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        dl = self._dl_for(field)
        fv = (dl if factor_field in (None, field, "word_count")
              else self._dl_for(factor_field))
        if modifier == "log1p":
            def mod(sc, loc):
                return sc * np.log(1.0 + fv[loc])
        elif modifier == "sqrt":
            def mod(sc, loc):
                return sc * np.sqrt(fv[loc])
        elif modifier == "none":
            def mod(sc, loc):
                return sc * fv[loc]
        else:
            raise ValueError(f"unknown modifier {modifier!r}")
        return self._search_exact(
            field, terms, k, idf, dl, _avgdl(self.stats, field),
            score_mod=mod)

    def search_boosting(self, positive: str, negative: str,
                        negative_boost: float = 0.5, k: int = 10,
                        field: str = DEFAULT_FIELD,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``boosting`` query: rank by the positive query's BM25
        score, demoting (NOT excluding — that is must_not) any doc that
        also matches the negative query by ``negative_boost``
        (``0 < negative_boost < 1`` demotes; ES allows >1 too).

        Like function_score, the multiplicative demotion breaks
        block-max upper-bound admissibility, so the exact scorer runs
        with no bound and the demotion applied BEFORE each window's top-k
        cut via the ``score_mod`` hook. The negative match set is the
        negative terms' union (:meth:`_match_set`) — one sorted-membership
        test per candidate batch, no per-row work."""
        self.refresh()
        analyzer = _field_analyzer(self.stats, field)
        pos_terms = query_terms(positive, analyzer)
        idf = self._idf(field, pos_terms)
        terms = [t for t in pos_terms if t in idf]
        if not terms or not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        neg_terms = sorted(set(query_terms(negative, analyzer)))
        neg_by = (self._postings_for(field, neg_terms)
                  if neg_terms else {})
        neg_ids = self._match_set([[ids for ids, _tfs in neg_by.values()]])
        nb = float(negative_boost)

        def mod(sc, loc):
            out = sc.copy()
            out[_in_sorted(neg_ids, loc)] *= nb
            return out

        dl = self._dl_for(field)
        return self._search_exact(
            field, terms, k, idf, dl, _avgdl(self.stats, field),
            score_mod=mod)

    def _null_dv_ids(self, column: str) -> np.ndarray:
        """Sorted global doc ids with a null ``column`` doc-value across
        all bound segments (exists-filter support) — built lazily once
        per column (ensures the doc-values shards exist), O(missing
        docs) memory."""
        cache = self._null_dv_cache
        if column not in cache:
            from .aggs import build_doc_values

            build_doc_values(self.index_dir, column)
            parts = [_null_dv_ids_segment(self.index_dir, int(s), column)
                     for s in self.seg_ids]
            cache[column] = (np.sort(np.concatenate(parts))
                             if parts else np.empty(0, np.int64))
        return cache[column]

    def search_bool(self, bq: dict, k: int = 10,
                    field: str = DEFAULT_FIELD
                    ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``bool`` query analogue — see ``prepare_bool_spec`` for the
        clause semantics (must / should / must_not / filter term + range,
        ``minimum_should_match``). The candidates are one
        :meth:`_match_set` over the required clauses: each must clause,
        each term and terms filter, and the docs in at least
        ``minimum_should_match`` should clauses (at least one without a
        must clause); the range and exists filters, the must_not set and
        terms_set's per-doc minimum then narrow them. Score
        (:meth:`_sparse_scores`) = sum of BM25 contributions of every
        matching must/should clause term (clause-major, analyzed term
        order; a term in two clauses adds twice), so a segment-subset
        searcher scores its docs bitwise as the whole-index one does. A
        range filter or ``minimum_should_match_source`` naming a field the
        index does not hold raises ``ValueError`` before anything is
        read."""
        self.refresh()
        spec = prepare_bool_spec(bq, field,
                                 _field_analyzer(self.stats, field))
        indexed = self.stats.get("field_analyzers",
                                 {DEFAULT_FIELD: "standard"})
        dl_fields = [rf for rf, _lo, _hi in spec["range_dl"]]
        if spec["msm_div"]:
            dl_fields.append(spec["msm_src"])
        for rf in dl_fields:
            if _range_dl_field(rf) not in indexed:
                raise ValueError(f"bool query field {rf!r} is not an "
                                 f"indexed field of {self.index_dir}")
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if self.n_docs == 0:
            return empty
        sc_terms = sorted({t for cl in (*spec["must"], *spec["should"])
                           for t in cl})
        idf = self._idf(field, sc_terms)
        by_term = (self._postings_for(
            field, [t for t in sc_terms if t in idf])
            if self.term_files else {})
        mn_terms = sorted({t for cl in spec["must_not"] for t in cl})
        mn_by = (self._postings_for(field, mn_terms)
                 if mn_terms and self.term_files else {})

        def clause(terms, by) -> list[np.ndarray]:
            return [by[t][0] for t in terms if t in by]

        def filter_by(f, terms) -> dict:
            return self._postings_for(f, terms) if self.term_files else {}

        should = [clause(cl, by_term) for cl in spec["should"]]
        # without must, a doc must match at least one should clause
        msm = spec["msm"] if spec["must"] else max(spec["msm"], 1)
        required = [clause(cl, by_term) for cl in spec["must"]]
        required += [clause([t], filter_by(f, [t]))
                     for f, t in spec["filter_terms"]]
        required += [clause(vs, filter_by(f, vs))
                     for f, vs in spec["filter_any"]]
        if should and msm > 0:
            required.append([self._match_set(should, msm)])
        if required:
            cand = self._match_set(required)
        else:  # range-/exists-only filter context: every bound live doc
            cand = np.concatenate(
                [b + np.flatnonzero(self._live[b:b + n])
                 for b, n, _s in self._doc_ranges] or [np.empty(0, np.int64)])
        for rf, lo, hi in spec["range_dl"]:
            v = self._dl_for(_range_dl_field(rf))[cand]
            cand = cand[(v >= lo) & (v <= hi)]
        for col in spec["exists"]:
            cand = cand[~_in_sorted(self._null_dv_ids(col), cand)]
        if mn_by:
            cand = cand[~_in_sorted(self._match_set(
                [[ids for ids, _tfs in mn_by.values()]]), cand)]
        if spec["msm_div"] and should and len(cand):
            # terms_set: required(doc) = min(n_clauses,
            # max(1, floor(dl_src / divisor))) — per-doc dynamic msm
            src = self._dl_for(_range_dl_field(spec["msm_src"]))
            req = np.minimum(len(should), np.maximum(
                1, src[cand].astype(np.int64) // spec["msm_div"]))
            ok = np.zeros(len(cand), bool)
            for r in np.unique(req).tolist():
                at = req == r
                ok[at] = _in_sorted(self._match_set(should, r), cand[at])
            cand = cand[ok]
        if len(cand) == 0:
            return empty
        scores = self._sparse_scores(
            field, cand, [t for cl in (*spec["must"], *spec["should"])
                          for t in cl], by_term, idf)
        return _top_k(cand, scores, k)

    def _term_dict(self, field: str, prefix: str = "") -> pa.Table:
        """(term, df) rows of the bound epoch's global term dictionary for
        ``field`` whose term starts with the literal ``prefix``: one
        :meth:`SortedTermFile.range` per ``term_stats`` part, so a prefix
        reads only the row groups of its slice and a repeat reads none.
        Search methods call the ``_expand_*`` bodies, not the refreshing
        ``expand_*``: one query never rebinds halfway through."""
        hi = _prefix_upper(prefix)
        parts = [r.range(field, prefix, hi) for r in self._stats_readers]
        if not parts:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    def _fuzzy_candidates(self, field: str, q: str, max_dist: int,
                          prefix_length: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dictionary terms within classic Levenshtein ``max_dist`` of ``q``
        sharing its first ``prefix_length`` chars — the candidate step
        shared by fuzzy expansion and the term suggester. Returns (terms,
        dfs, distances); the prefix narrows the dictionary read and a
        byte-length prefilter skips the Levenshtein for hopeless rows.
        Distances are byte-domain (like levenshtein_vec — see its
        docstring caveat)."""
        tbl = self._term_dict(field, q[:prefix_length])
        lens = pc.binary_length(tbl["term"]).to_numpy()
        tbl = tbl.filter(pa.array(np.abs(lens - len(q.encode())) <= max_dist))
        d = levenshtein_vec(q, tbl["term"])
        ok = d <= max_dist
        sel = tbl.filter(pa.array(ok))
        return (np.array(sel["term"].to_pylist(), dtype=object),
                sel["df"].to_numpy(), d[ok])

    def expand_fuzzy(self, field: str, qterm: str, fuzziness="AUTO",
                     prefix_length: int = 1,
                     max_expansions: int = 50) -> list[str]:
        """ES fuzzy term expansion over the bound global term dictionary:
        terms sharing the first ``prefix_length`` chars within Levenshtein
        distance ``fuzziness`` (``"AUTO"`` = ES length-scaled), ranked by
        (df desc, term asc) and capped at ``max_expansions`` — the Lucene
        top-terms-by-frequency rewrite. Transpositions count 2 (classic
        distance, matching the DuckDB oracle), unlike ES's default
        Damerau variant. ``prefix_length`` defaults to 1 (ES default is
        0) so the dictionary read narrows to one prefix slice; pass 0 for
        the full-vocabulary scan."""
        self.refresh()
        return self._expand_fuzzy(field, qterm, fuzziness, prefix_length,
                                  max_expansions)

    def _expand_fuzzy(self, field: str, qterm: str, fuzziness,
                      prefix_length: int, max_expansions: int) -> list[str]:
        f = (_auto_fuzziness(qterm)
             if str(fuzziness).upper() == "AUTO" else int(fuzziness))
        if f == 0:
            tbl = self._term_dict(field, qterm[:prefix_length])
            return tbl.filter(pc.equal(tbl["term"], qterm))["term"].to_pylist()
        terms, dfs, _d = self._fuzzy_candidates(field, qterm, f,
                                                prefix_length)
        order = np.lexsort((terms, -dfs))[:max_expansions]
        return terms[order].tolist()

    def expand_wildcard(self, field: str, pattern: str) -> list[str]:
        """ES wildcard-query term expansion: dictionary terms matching the
        pattern (``*`` = any run, ``?`` = one char), sorted. The literal
        prefix before the first wildcard narrows the dictionary read; the
        match itself is one vectorized ``match_like`` kernel. Literal
        ``%`` and ``_`` in the pattern are escaped before the LIKE
        translation."""
        self.refresh()
        return self._expand_pattern(field, pattern, regexp=False)

    def expand_regexp(self, field: str, pattern: str) -> list[str]:
        """ES regexp-query term expansion: dictionary terms whose ENTIRE
        text matches the pattern (Lucene anchors regexp queries
        implicitly), sorted. Any literal prefix of the pattern narrows the
        dictionary read; the match is one vectorized RE2 kernel — the
        same engine the DuckDB oracle uses, so expansion semantics are
        bit-identical."""
        self.refresh()
        return self._expand_pattern(field, pattern, regexp=True)

    def _expand_pattern(self, field: str, pattern: str,
                        regexp: bool) -> list[str]:
        # the literal prefix before any metacharacter narrows the read
        meta = ".?*+()[]{}|^$\\" if regexp else "*?"
        cut = next((i for i, ch in enumerate(pattern) if ch in meta),
                   len(pattern))
        tbl = self._term_dict(field, pattern[:cut])
        if regexp:
            rx = f"^(?:{pattern})$"
            try:
                # RE2 compiles only on a non-empty input: a one-row
                # probe makes an invalid pattern fail on every slice
                pc.match_substring_regex(pa.array([""]), rx)
            except pa.ArrowInvalid as e:
                raise ValueError(
                    f"invalid regexp {pattern!r}: {e}") from None
            m = pc.match_substring_regex(tbl["term"], rx)
        else:
            m = pc.match_like(tbl["term"], pattern.replace("\\", "\\\\")
                              .replace("%", "\\%").replace("_", "\\_")
                              .replace("*", "%").replace("?", "_"))
        return sorted(tbl.filter(m)["term"].to_pylist())

    def expand_prefix(self, field: str, prefix: str,
                      max_expansions: int = 50) -> list[str]:
        """ES prefix / match_phrase_prefix term expansion: dictionary
        terms with the literal prefix, in term order, capped at
        ``max_expansions`` (Lucene collects prefix terms in term order and
        stops at the cap). The prefix narrows the read to one range."""
        self.refresh()
        return self._expand_prefix(field, prefix, max_expansions)

    def _expand_prefix(self, field: str, prefix: str,
                       max_expansions: int) -> list[str]:
        tbl = self._term_dict(field, prefix)
        return sorted(set(tbl["term"].to_pylist()))[:max_expansions]

    def suggest_completions(self, prefixes: list[str],
                            field: str = DEFAULT_FIELD,
                            size: int = 5) -> pa.Table:
        """ES completion suggester (search-as-you-type): for each prefix,
        the top dictionary terms carrying it, ranked by weight — here the
        term's document frequency, ES's default when no explicit weights
        are indexed — then term-ascending. Each prefix reads only its
        dictionary range, so cost tracks the prefix's vocabulary slice,
        not the corpus. Returns (prefix, suggestion, weight) rows."""
        self.refresh()
        out_p, out_s, out_w = [], [], []
        for p in prefixes:
            p = p.lower()
            tbl = self._term_dict(field, p)
            if tbl.num_rows == 0:
                continue
            # duplicate (term) rows across term_stats parts sum their dfs
            agg = tbl.group_by("term").aggregate([("df", "sum")])
            terms = np.asarray(agg["term"].to_pylist())
            dfs = agg["df_sum"].to_numpy()
            order = np.lexsort((terms, -dfs))[:size]
            out_p.extend([p] * len(order))
            out_s.extend(terms[order].tolist())
            out_w.extend(dfs[order].tolist())
        return pa.table({
            "prefix": pa.array(out_p, pa.string()),
            "suggestion": pa.array(out_s, pa.string()),
            "weight": pa.array(out_w, pa.int64()),
        })

    def suggest_terms(self, inputs: list[str], field: str = DEFAULT_FIELD,
                      max_edits: int = 2, prefix_length: int = 1,
                      size: int = 5) -> pa.Table:
        """ES term suggester (did-you-mean): for each input token,
        dictionary terms within ``max_edits`` classic Levenshtein
        (transpositions count 2, matching the DuckDB oracle) sharing the
        first ``prefix_length`` chars, ranked (distance asc, df desc, term
        asc), top ``size``. Distance-0 hits are excluded (the input itself
        needs no suggestion). Each input reads only its prefix's
        dictionary slice."""
        self.refresh()
        out_i, out_s, out_d, out_f = [], [], [], []
        for q in inputs:
            q = q.lower()
            terms, dfs, dd = self._fuzzy_candidates(field, q, max_edits,
                                                    prefix_length)
            keep = dd >= 1  # the input itself needs no suggestion
            terms, dfs, dd = terms[keep], dfs[keep], dd[keep]
            if len(terms) == 0:
                continue
            order = np.lexsort((terms, -dfs, dd))[:size]
            out_i.extend([q] * len(order))
            out_s.extend(terms[order].tolist())
            out_d.extend(dd[order].tolist())
            out_f.extend(dfs[order].tolist())
        return pa.table({
            "input": pa.array(out_i, pa.string()),
            "suggestion": pa.array(out_s, pa.string()),
            "distance": pa.array(out_d, pa.int64()),
            "df": pa.array(out_f, pa.int64()),
        })

    def suggest_phrase(self, text: str, field: str = DEFAULT_FIELD,
                       max_edits: int = 2,
                       prefix_length: int = 1) -> pa.Table:
        """ES phrase suggester (documented simplification: unigram-df LM
        in place of ES's bigram stupid-backoff — per-doc positions exist
        but corpus bigram counts are not materialized). Per analyzed token
        the candidate set is the dictionary slice within ``max_edits``
        classic Levenshtein sharing the first ``prefix_length`` chars,
        INCLUDING the token itself at distance 0 (a correctly-spelled
        token keeps itself: distance-ascending rank puts d=0 first); each
        slot's winner is ranked (distance asc, df desc, term asc), and the
        whole-phrase suggestion is the per-slot winners joined in order.
        A slot with no candidates keeps its input token (distance -1, df
        0). Returns one row per slot plus the assembled ``phrase`` on
        every row."""
        self.refresh()
        tokens = list(analyze(_field_analyzer(self.stats, field), text))
        out = {"slot": [], "input_token": [], "suggestion": [],
               "distance": [], "df": []}
        chosen = []
        for slot, tok in enumerate(tokens):
            terms, dfs, dd = self._fuzzy_candidates(field, tok, max_edits,
                                                    prefix_length)
            if len(terms) == 0:
                pick, dist, dfv = tok, -1, 0
            else:
                b = np.lexsort((terms, -dfs, dd))[0]
                pick, dist, dfv = str(terms[b]), int(dd[b]), int(dfs[b])
            chosen.append(pick)
            out["slot"].append(slot)
            out["input_token"].append(tok)
            out["suggestion"].append(pick)
            out["distance"].append(dist)
            out["df"].append(dfv)
        phrase = " ".join(chosen)
        return pa.table({
            "slot": pa.array(out["slot"], pa.int64()),
            "input_token": pa.array(out["input_token"], pa.string()),
            "suggestion": pa.array(out["suggestion"], pa.string()),
            "distance": pa.array(out["distance"], pa.int64()),
            "df": pa.array(out["df"], pa.int64()),
            "phrase": pa.array([phrase] * len(chosen), pa.string()),
        })

    def search_bool_prefix(self, query: str, k: int = 10,
                           field: str = DEFAULT_FIELD
                           ) -> tuple[np.ndarray, np.ndarray]:
        """ES ``match_bool_prefix``: every analyzed term but the last is
        a scored term clause in a bool ``should``; the LAST term is a
        PREFIX query — constant_score rewrite, +1.0 per matching doc (the
        same convention as the wildcard/regexp tail). msm=1: a doc
        matches on any full term OR any dictionary expansion of the
        prefix. Expansion is UNBOUNDED (Lucene prefix queries build a
        bitset over every matching term — no max_expansions cap), pruned
        to one dictionary range by :meth:`expand_prefix`."""
        self.refresh()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        seq = list(analyze(_field_analyzer(self.stats, field), query))
        if not seq or not self.term_files:
            return empty
        fixed, prefix = seq[:-1], seq[-1]
        exps = self._expand_prefix(field, prefix, 1 << 30)
        uniq_fixed = sorted(set(fixed))
        idf = self._idf(field, uniq_fixed)
        live = [t for t in uniq_fixed if t in idf]
        by = self._postings_for(field, live) if live else {}
        exp_by = self._postings_for(field, exps) if exps else {}
        exp_ids = [ids for ids, _tfs in exp_by.values()]
        cand = self._match_set(
            [[ids for ids, _tfs in by.values()] + exp_ids])
        if len(cand) == 0:
            return empty
        # lexicographic accumulation, the OR convention
        scores = self._sparse_scores(field, cand, live, by, idf)
        if exp_ids:
            scores[_in_sorted(self._match_set([exp_ids]), cand)] += 1.0
        return _top_k(cand, scores, k)

    def search_fuzzy(self, query: str, k: int = 10,
                     field: str = DEFAULT_FIELD, fuzziness="AUTO",
                     prefix_length: int = 1, max_expansions: int = 50
                     ) -> tuple[np.ndarray, np.ndarray]:
        """ES match-with-fuzziness analogue: each analyzed query term
        expands against the term dictionary (:meth:`expand_fuzzy`:
        shared prefix, Levenshtein <= fuzziness, top-df cap), then the
        union of expansions is scored as a plain OR query (each expanded
        term with its own df/idf). Expansion reads the bound epoch's
        global ``term_stats``, so every segment group of ``search()``
        expands identically."""
        self.refresh()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not self.term_files:
            return empty
        qterms = query_terms(query, _field_analyzer(self.stats, field))
        exp = sorted({e for t in qterms
                      for e in self._expand_fuzzy(field, t, fuzziness,
                                                  prefix_length,
                                                  max_expansions)})
        idf = self._idf(field, exp)
        terms = [t for t in exp if t in idf]
        if not terms:
            return empty
        return self._search_exact(field, terms, k, idf,
                                          self._dl_for(field),
                                          _avgdl(self.stats, field))

    def search_wildcard(self, pattern: str, k: int = 10,
                        field: str = DEFAULT_FIELD
                        ) -> tuple[np.ndarray, np.ndarray]:
        """ES wildcard query analogue (``*`` any run, ``?`` one char):
        dictionary terms matching the raw (unanalyzed) pattern, docs
        containing any of them, constant score 1.0, doc_id order — the
        Lucene constant_score multi-term rewrite."""
        self.refresh()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not self.term_files:
            return empty
        exp = self._expand_pattern(field, pattern, regexp=False)
        return self._union_const_topk(field, exp, k)

    def _union_const_topk(self, field: str, exp: list[str], k: int
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Shared constant_score multi-term tail: the live union of the
        expanded terms' postings (:meth:`_match_set`), first-k by
        doc_id."""
        by = self._postings_for(field, exp) if exp else {}
        ids = self._match_set([[ids for ids, _tfs in by.values()]])[:k]
        return ids.astype(np.int64), np.ones(len(ids), np.float64)

    def search_regexp(self, pattern: str, k: int = 10,
                      field: str = DEFAULT_FIELD
                      ) -> tuple[np.ndarray, np.ndarray]:
        """ES regexp query analogue: dictionary terms whose entire text
        matches the (unanalyzed, implicitly anchored) RE2 pattern, docs
        containing any of them, constant score 1.0, doc_id order — the
        same Lucene constant_score multi-term rewrite as wildcard."""
        self.refresh()
        if not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        exp = self._expand_pattern(field, pattern, regexp=True)
        return self._union_const_topk(field, exp, k)

    #: request-cache capacity (ES shard-request-cache analogue): exact
    #: (mode, field, query, k) top-k results, LRU, dropped on epoch swap
    _REQUEST_CACHE_CAP = 1024

    #: ``search`` modes; any other mode raises ValueError
    SEARCH_MODES = ("or", "and", "phrase", "fuzzy", "wildcard")

    def search(self, query: str, k: int = 10,
               field: str = DEFAULT_FIELD,
               mode: str = "or") -> tuple[np.ndarray, np.ndarray]:
        """``mode``: one of :attr:`SEARCH_MODES` (fuzzy and wildcard with
        their default parameters). OR and AND score with the exact scorer
        (:meth:`_score_windows`: block-max bounds skip what cannot reach
        the top-k; scores are the oracle's bitwise).

        Repeated identical requests are served from an exact result cache
        (the ES shard-request-cache analogue): keyed on the full request,
        holding the returned (ids, scores) verbatim, dropped wholesale on
        any epoch swap (refresh/merge/append) — a hit changes nothing but
        latency."""
        if mode not in self.SEARCH_MODES:
            raise ValueError(f"unknown search mode {mode!r}")
        self.refresh()
        rq_key = (mode, field, query, int(k))
        hit = self._request_cache.get(rq_key)
        if hit is not None:
            self._request_cache.move_to_end(rq_key)
            return hit
        res = self._search_uncached(query, k, field, mode)
        # freeze before caching: the same array objects are handed to every
        # future hit, so an in-place mutation by one caller must not poison
        # the cache (the ES request cache is safe because it stores bytes)
        for arr in res:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        self._request_cache[rq_key] = res
        while len(self._request_cache) > self._REQUEST_CACHE_CAP:
            self._request_cache.popitem(last=False)
        return res

    def _search_uncached(self, query: str, k: int, field: str, mode: str
                         ) -> tuple[np.ndarray, np.ndarray]:
        self.last_block_stats = (0, 0)  # set by the block-reading paths
        if mode == "fuzzy":
            return self.search_fuzzy(query, k, field)
        if mode == "wildcard":
            return self.search_wildcard(query, k, field)
        all_terms = query_terms(query, _field_analyzer(self.stats, field))
        idf = self._idf(field, all_terms)
        terms = [t for t in all_terms if t in idf]
        if mode == "phrase":
            ids, sc, _fq = self.search_phrase(query, k, field)
            return ids, sc
        if mode == "and":
            if (len(terms) != len(all_terms) or not terms
                    or not self.term_files):
                return np.empty(0, np.int64), np.empty(0, np.float64)
            return self._search_exact(
                field, terms, k, idf, self._dl_for(field),
                _avgdl(self.stats, field), mode="and")
        if not terms or not self.term_files:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return self._search_exact(field, terms, k, idf, self._dl_for(field),
                                  _avgdl(self.stats, field))

    def search_multi(self, query: str, k: int = 10,
                     fields: tuple = (DEFAULT_FIELD,),
                     combine: str = "most_fields"
                     ) -> tuple[np.ndarray, np.ndarray]:
        """ES multi_match analogue across indexed fields.

        ``most_fields``: per-field (boost x) BM25 scores (each field's own
        analyzer, df, dl, avgdl; idf over the global doc count) SUMMED; a
        doc matching in any field is a candidate. ``best_fields``: the MAX
        boosted per-field score (dis_max, tie_breaker=0). ``fields``
        entries accept the ES ``"name^boost"`` syntax. Tie-break (score
        desc, doc_id asc). The candidates are the live union of every
        field's terms (:meth:`_match_set`); each field's scores come from
        :meth:`_sparse_scores`, (field, term)-major (unboosted most_fields
        adds every field into one vector), so a segment-subset searcher
        scores its docs bitwise as the whole-index one does."""
        if combine not in ("most_fields", "best_fields"):
            raise ValueError(f"unknown multi_type {combine!r}")
        self.refresh()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not self.term_files:
            return empty
        parsed = _parse_boosted_fields(fields)
        field_runs = []  # (field, boost, terms, by_term, idf)
        for f, boost in parsed:
            all_terms = query_terms(query, _field_analyzer(self.stats, f))
            idf = self._idf(f, all_terms)
            terms = [t for t in all_terms if t in idf]
            if terms:
                field_runs.append(
                    (f, boost, terms, self._postings_for(f, terms), idf))
        cand = self._match_set([[ids for *_h, bt, _idf in field_runs
                                 for ids, _tfs in bt.values()]])
        if not len(cand):
            return empty
        plain_sum = (combine == "most_fields"
                     and all(b == 1.0 for _f, b in parsed))
        sc = np.zeros(len(cand))
        for f, boost, terms, by_term, idf in field_runs:
            # (field, term)-major accumulation order
            if plain_sum:
                self._sparse_scores(f, cand, terms, by_term, idf, out=sc)
                continue
            fsc = self._sparse_scores(f, cand, terms, by_term, idf)
            if combine == "best_fields":
                np.maximum(sc, boost * fsc, out=sc)
            else:
                sc += boost * fsc
        return _top_k(cand, sc, k)

    # -- positional queries: one read (_read_positions) -------------------

    def _require_positions(self) -> None:
        """:meth:`refresh`, then ``ValueError`` unless the bound segments
        record positions (``BuildConfig(index_positions=True)``)."""
        self.refresh()
        if self.term_files and not blobs.has_positions(self.term_schema):
            raise ValueError("index was built without positions "
                             "(BuildConfig.index_positions=True required)")

    def _read_positions(self, field: str, terms: list[str]
                        ) -> dict[str, _Positions]:
        """Each of ``terms``' postings with positions in the bound
        segments, from one dictionary read: its runs sorted by first doc
        id and joined (empty for a term without postings here)."""
        tt = self._read_terms(["term", "df"], {field: terms}, positions=True)
        if tt["positions_enc"].null_count:
            raise ValueError(f"field {field!r} was indexed without positions")
        runs: dict[str, list[tuple]] = {t: [] for t in terms}
        for t, d, f, p, df in zip(*(tt[c].to_pylist() for c in (
                "term", "doc_ids_enc", "tfs_enc", "positions_enc", "df"))):
            runs[t].append((*codec.decode_postings(d, f, df), p))
        out = {}
        for t, rs in runs.items():
            rs.sort(key=lambda r: int(r[0][0]))
            ids = np.concatenate([r[0] for r in rs] or [np.empty(0, np.int64)])
            off = np.zeros(len(ids) + 1, np.int64)
            np.cumsum(np.concatenate([r[1] for r in rs] or [off[:0]]),
                      out=off[1:])
            gaps = codec.varint_decode(
                np.frombuffer(b"".join(r[2] for r in rs), np.uint8),
                int(off[-1]))
            out[t] = _Positions(ids, off, gaps)
        return out

    def _clause_terms(self, clauses: list[str], field: str, what: str
                      ) -> list[str]:
        """The one analyzed term of each clause (span_term)."""
        analyzer = _field_analyzer(self.stats, field)
        seq = []
        for c in clauses:
            toks = list(analyze(analyzer, c))
            if len(toks) != 1:
                raise ValueError(
                    f"{what} clause {c!r} must analyze to one term")
            seq.append(toks[0])
        return seq

    def _phrase_top(self, field: str, cand: np.ndarray, fqs: list[int],
                    idf_sum: float, k: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc ids, scores, phrase freqs) of the top ``k`` of the
        candidates whose freq ``fqs`` is positive, scored ``idf_sum *
        bm25_tf_impact(freq, dl, avgdl)``; tie-break (score desc, doc_id
        asc)."""
        fqs = np.array(fqs, np.int64)
        hit = fqs > 0
        if not hit.any():
            return (np.empty(0, np.int64), np.empty(0, np.float64),
                    np.empty(0, np.int64))
        hits_a = cand[hit]
        freqs_a = fqs[hit].astype(np.float64)
        scores = idf_sum * codec.bm25_tf_impact(
            freqs_a, self._dl_for(field)[hits_a], _avgdl(self.stats, field))
        order = np.lexsort((hits_a, -scores))[:k]
        return hits_a[order], scores[order], freqs_a[order].astype(np.int64)

    def search_phrase(self, query: str, k: int = 10,
                      field: str = DEFAULT_FIELD,
                      within: np.ndarray | None = None,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phrase (match_phrase analogue) search: (doc ids, scores, phrase
        freqs). Scoring (documented convention, mirrored by the pytest
        oracle): docs where the exact token sequence occurs, scored
        ``sum(idf of unique terms, lex order) * bm25_tf_impact(phrase_freq,
        dl, avgdl)``; tie-break (score desc, doc_id asc). ``within``: an
        optional sorted doc-id array restricting the candidates (the
        rescore window)."""
        self._require_positions()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64),
                 np.empty(0, np.int64))
        seq = list(analyze(_field_analyzer(self.stats, field), query))
        if not seq:
            return empty
        uniq = sorted(set(seq))
        idf = self._idf(field, uniq)
        if len(idf) != len(uniq):  # a term absent anywhere -> no phrase
            return empty
        pos = self._read_positions(field, uniq)
        cand = self._match_set([[pos[t].ids] for t in uniq]
                               + ([] if within is None else [[within]]))
        keys = {t: pos[t].keys(cand) for t in uniq}
        fqs = _phrase_freqs([keys[t] for t in seq], len(cand))
        return self._phrase_top(field, cand, fqs,
                                float(sum(idf[t] for t in uniq)), k)

    def search_phrase_prefix(self, query: str, k: int = 10,
                             field: str = DEFAULT_FIELD,
                             max_expansions: int = 50,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ES ``match_phrase_prefix`` analogue: the analyzed query's last
        token is a PREFIX — the phrase matches wherever the fixed tokens
        occur consecutively followed by any dictionary term carrying the
        prefix (first ``max_expansions`` in term order, the Lucene
        rewrite). Scoring convention (documented, mirrored by tests):
        ``(sum(idf of unique fixed terms, lex order) + idf(min(n, sum df
        of matched expansions)))  * bm25_tf_impact(freq, dl, avgdl)``
        where freq counts positions completing the phrase with ANY
        expansion; tie-break (score desc, doc_id asc)."""
        self._require_positions()
        empty = (np.empty(0, np.int64), np.empty(0, np.float64),
                 np.empty(0, np.int64))
        seq = list(analyze(_field_analyzer(self.stats, field), query))
        if not seq:
            return empty
        fixed, prefix = seq[:-1], seq[-1]
        exps = self._expand_prefix(field, prefix, max_expansions)
        if not exps:
            return empty
        uniq_fixed = sorted(set(fixed))
        idf = self._idf(field, uniq_fixed)
        if len(idf) != len(uniq_fixed):
            return empty
        pos = self._read_positions(field, sorted(set(uniq_fixed) | set(exps)))
        # the fixed terms and one clause for any expansion, all required
        cand = self._match_set([[pos[t].ids] for t in uniq_fixed]
                               + [[pos[t].ids for t in exps]])
        n = int(self.stats["n_docs"])
        idf_fixed = float(sum(idf[t] for t in uniq_fixed))
        idf_slot = float(codec.bm25_idf(
            min(n, sum(len(pos[t].ids) for t in exps)), n))
        keys = {t: pos[t].keys(cand) for t in uniq_fixed}
        # one position holds one term, so the expansions' keys are disjoint
        last = np.sort(np.concatenate([pos[t].keys(cand) for t in exps]))
        fqs = _phrase_freqs([keys[t] for t in fixed] + [last], len(cand))
        return self._phrase_top(field, cand, fqs, idf_fixed + idf_slot, k)

    def span_near(self, clauses: list[str], slop: int = 0,
                  field: str = DEFAULT_FIELD) -> np.ndarray:
        """ES ``span_near`` with ``in_order=true``: docs where the clause
        terms occur in order with at most ``slop`` total intervening
        positions (``slop=0`` = exact adjacency = phrase). Returns the
        sorted matching doc ids (span queries are match predicates here;
        callers score the matched set as ES does with sloppy-freq — the
        doc set is the oracle-checkable contract).

        A min-gap DP over every candidate at once, on the clauses'
        position keys (:meth:`_Positions.keys`): the minimal total gap of
        an in-order span ending at key ``q`` is ``q - 1 - max_{p<q}(p -
        cost(p))`` over the previous clause's keys ``p`` in the same doc,
        so each clause is one ``searchsorted`` and one prefix max over the
        whole key array. The prefix max cannot reach into an earlier doc:
        ``p - cost(p)`` is at least the doc's first key, above every key
        of the docs before it. Each clause is a single analyzed term
        (span_term)."""
        self._require_positions()
        seq = self._clause_terms(clauses, field, "span_near")
        if not seq:
            return np.empty(0, np.int64)
        uniq = sorted(set(seq))
        pos = self._read_positions(field, uniq)
        cand = self._match_set([[pos[t].ids] for t in uniq])
        keys = {t: pos[t].keys(cand) for t in uniq}
        prev = keys[seq[0]]
        cost = np.zeros(len(prev), np.int64)
        for t in seq[1:]:
            q = keys[t]
            idx = np.searchsorted(prev, q) - 1  # the last key before q
            ok = idx >= 0
            ok[ok] = prev[idx[ok]] >> 32 == q[ok] >> 32
            prefmax = np.maximum.accumulate(prev - cost)
            prev, idx = q[ok], idx[ok]
            cost = prev - 1 - prefmax[idx]
        return cand[np.unique(prev[cost <= slop] >> 32)]

    def intervals_all_of(self, clauses: list[str], max_gaps: int = 0,
                         ordered: bool = False,
                         field: str = DEFAULT_FIELD) -> np.ndarray:
        """ES ``intervals`` query, ``all_of`` source: docs where every
        clause term occurs inside one window with at most ``max_gaps``
        non-matching positions between the chosen occurrences.

        ``ordered=true`` is exactly the span_near DP (total in-order
        gap budget), so it delegates. ``ordered=false`` is the minimal
        covering window over k position lists, for every candidate at
        once on the clauses' position keys (:meth:`_Positions.keys`):
        the smallest window ending at a merged key spans back to the
        earliest of each clause's last key at or before it in the same
        doc (one ``searchsorted`` per clause), and a doc matches iff one
        of its windows has width - k <= max_gaps. Clause terms must be
        distinct single tokens (the span_term restriction shared with
        span_near)."""
        if ordered:
            return self.span_near(clauses, slop=max_gaps, field=field)
        self._require_positions()
        seq = self._clause_terms(clauses, field, "intervals")
        if len(set(seq)) != len(seq):
            raise ValueError("intervals all_of clauses must be distinct")
        if not seq:
            return np.empty(0, np.int64)
        pos = self._read_positions(field, sorted(seq))
        cand = self._match_set([[pos[t].ids] for t in seq])
        keys = [pos[t].keys(cand) for t in seq]
        end = np.sort(np.concatenate(keys))
        start = end.copy()
        ok = np.ones(len(end), bool)
        for ks in keys:
            j = np.searchsorted(ks, end, "right") - 1
            ok &= (j >= 0) & (ks[j] >> 32 == end >> 32)
            np.minimum(start, ks[j], out=start)
        win = end - start + 1
        return cand[np.unique(end[ok & (win - len(seq) <= max_gaps)] >> 32)]

    def highlight(self, query: str, field: str = DEFAULT_FIELD) -> pa.Table:
        """ES highlighter primitive: for every live doc matching an OR
        match query, the FIRST occurrence position (token index) of each
        query term present — the fragment anchor an ES unified-highlighter
        builds snippets around. We anchor on token positions from the
        positional index rather than re-analyzed character offsets (the
        index stores positions, not offsets; a snippet stage joins the
        stored text by doc range, as ``export_matches`` does).

        Each doc's first position is stored absolute, so it is
        ``gaps[off[:-1]]`` of the term's :class:`_Positions`: no per-doc
        loop and no delta decode.

        Returns (doc_id, term, first_pos) sorted by (doc_id, term).
        """
        self._require_positions()
        terms = sorted(set(analyze(_field_analyzer(self.stats, field),
                                   query)))
        pos = self._read_positions(field, terms) if terms else {}
        out_d, out_t, out_p = [], [], []
        for t, ps in pos.items():
            keep = self._live[ps.ids]
            out_d.append(ps.ids[keep])
            out_p.append(ps.gaps[ps.off[:-1]][keep])
            out_t.extend([t] * int(keep.sum()))
        d = np.concatenate(out_d or [np.empty(0, np.int64)])
        p = np.concatenate(out_p or [np.empty(0, np.int64)]).astype(np.int64)
        t = np.array(out_t, dtype=object)
        order = np.lexsort((t, d))
        return pa.table({"doc_id": pa.array(d[order], pa.int64()),
                         "term": pa.array(t[order].tolist(), pa.string()),
                         "first_pos": pa.array(p[order], pa.int64())})


#: query-row ``mode`` values; a row with ``bool`` or ``fields`` ignores it
QUERY_MODES = ("or", "and", "phrase", "fuzzy", "wildcard", "regexp",
               "function_score", "boosting")


def _query_kind(q: dict) -> str:
    """A query row's dispatch key: ``"bool"``, ``"multi"`` (multi_match)
    or its ``mode`` (default ``"or"``); an unknown mode raises."""
    if q.get("bool") is not None:
        return "bool"
    if q.get("fields"):
        return "multi"
    mode = q.get("mode") or "or"
    if mode not in QUERY_MODES:
        raise ValueError(f"unknown query mode {mode!r}; expected one of "
                         f"{QUERY_MODES}")
    return mode


def _bool_body(q: dict) -> dict:
    """A bool row's ES body (a dict, or its JSON text)."""
    import json

    bq = q["bool"]
    return json.loads(bq) if isinstance(bq, str) else bq


def _run_query(searcher: LocalSearcher, q: dict
               ) -> tuple[np.ndarray, np.ndarray]:
    """Run one query row on ``searcher`` -> (doc ids, scores), ranked by
    (score desc, doc_id asc): the one dispatch behind both entry points."""
    kind = _query_kind(q)
    k = int(q.get("k", 10))
    field = q.get("field") or DEFAULT_FIELD
    if kind == "bool":
        return searcher.search_bool(_bool_body(q), k, field)
    if kind == "multi":
        return searcher.search_multi(q["query"], k, tuple(q["fields"]),
                                     q.get("multi_type", "most_fields"))
    if kind == "fuzzy":
        return searcher.search_fuzzy(
            q["query"], k, field, q.get("fuzziness", "AUTO"),
            int(q.get("prefix_length", 1)), int(q.get("max_expansions", 50)))
    if kind == "regexp":
        return searcher.search_regexp(q["query"], k, field)
    if kind == "function_score":
        return searcher.search_function_score(
            q["query"], k, field, q.get("modifier", "log1p"))
    if kind == "boosting":
        return searcher.search_boosting(
            q["query"], q.get("negative", ""),
            float(q.get("negative_boost", 0.5)), k, field)
    return searcher.search(q["query"], k, field, kind)


def _query_rows(queries: pa.Table | list[dict]) -> list[dict]:
    return (queries.to_pylist() if isinstance(queries, pa.Table)
            else list(queries))


def _result_table(qids: list[int], hits: list[tuple]) -> pa.Table:
    """(query_id, rank, doc_id, score) rows, ranks from 1 per query."""
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid, (ids, sc) in zip(qids, hits):
        out_q.extend([qid] * len(ids))
        out_r.extend(range(1, len(ids) + 1))
        out_d.extend(int(i) for i in ids)
        out_s.extend(float(x) for x in sc)
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "score": pa.array(out_s, pa.float64()),
    })


def search_inprocess(index_dir: str, queries: pa.Table | list[dict],
                     searcher: LocalSearcher | None = None) -> pa.Table:
    """Single-process query path over a (reusable) whole-index
    LocalSearcher -> (query_id, rank, doc_id, score), in row order."""
    qrows = _query_rows(queries)
    searcher = searcher or LocalSearcher(index_dir)
    return _result_table([int(q["query_id"]) for q in qrows],
                         [_run_query(searcher, q) for q in qrows])


def _segment_groups(seg_ids: list[int]) -> list[list[int]]:
    """Contiguous runs of ``seg_ids``, one per cluster CPU (at most one
    per segment) — the fan-out of :func:`map_segment_groups`, so of
    :func:`search`, the ``aggs``/``export`` partials and
    ``append.delete_by_query``."""
    n_cpus = int(ray.cluster_resources().get("CPU", 1))
    n = max(1, min(len(seg_ids), n_cpus))
    return [g.tolist() for g in np.array_split(np.asarray(seg_ids), n)]


@ray.remote
def _group_task(index_dir: str, seg_ids: list[int], fn, args: tuple):
    return fn(LocalSearcher(index_dir, segments=seg_ids), *args)


def map_segment_groups(index_dir: str, seg_ids: list[int], fn,
                       *args) -> list:
    """Run ``fn(LocalSearcher(index_dir, segments=group), *args)`` in one
    Ray task per :func:`_segment_groups` group of ``seg_ids`` -> the
    per-group results, in group order. ``args`` ship once; a failing task
    re-raises its own exception, not the task wrapper. The one segment
    fan-out: :func:`search`, every ``aggs``/``export`` partial and
    ``append.delete_by_query`` run on it and merge on the driver
    (``export_matches``/``snippet_matches`` stream per segment on Ray
    Data instead)."""
    args_ref = ray.put(args)
    refs = [_group_task.remote(index_dir, g, fn, args_ref)
            for g in _segment_groups(seg_ids)]
    try:
        return ray.get(refs)
    except ray.exceptions.RayTaskError as e:
        raise e.cause from e


def _run_rows(searcher: LocalSearcher, qrows: list[dict]) -> list[tuple]:
    return [_run_query(searcher, q) for q in qrows]


def search(index_dir: str, queries: pa.Table | list[dict]) -> pa.Table:
    """Run BM25 top-k for a query table -> (query_id, rank, doc_id, score),
    ordered by (query_id, rank).

    ``queries`` rows: query_id, query, k (schema.QUERIES), plus the
    optional keys :func:`_run_query` reads (``field``, ``mode``, ``bool``,
    ``fields`` ...). :func:`map_segment_groups` runs every row on a
    LocalSearcher bound to each segment group; the driver keeps each
    query's k best rows of the groups' top-k by (score desc, doc_id asc)
    — exact, see the module docstring.
    """
    qrows = _query_rows(queries)
    stats = _load_stats(index_dir)
    # exists filters read doc-values shards; build them once here so the
    # group tasks never race on (or nest Ray Data jobs for) their creation
    exists_cols = set()
    for q in qrows:  # _query_kind: unknown modes fail before any task
        if _query_kind(q) == "bool":
            field = q.get("field") or DEFAULT_FIELD
            exists_cols.update(prepare_bool_spec(
                _bool_body(q), field, _field_analyzer(stats, field))["exists"])
    seg_ids, _vis = _visible_seg_ids(index_dir, stats)
    if not seg_ids or not qrows:
        return _result_table([], [])
    if exists_cols:
        from .aggs import build_doc_values

        for col in sorted(exists_cols):
            build_doc_values(index_dir, col)
    parts = map_segment_groups(index_dir, seg_ids, _run_rows, qrows)
    hits = []
    for i, q in enumerate(qrows):
        ids = np.concatenate([p[i][0] for p in parts])
        sc = np.concatenate([p[i][1] for p in parts])
        order = np.lexsort((ids, -sc))[:int(q.get("k", 10))]
        hits.append((ids[order], sc[order]))
    qids = [int(q["query_id"]) for q in qrows]
    by_qid = sorted(range(len(qrows)), key=lambda i: qids[i])
    return _result_table([qids[i] for i in by_qid], [hits[i] for i in by_qid])
