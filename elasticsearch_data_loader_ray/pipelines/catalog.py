"""Driver-contract query catalog: Ray-Data pipelines + DuckDB oracle SQL.

One entry per operator family from SURVEY.md §2 plus the training-data
operations (dedup, similarity search, text analysis). Every Ray callable
takes ``sf_dir`` and returns a Dataset / pyarrow Table; the paired SQL string
computes the same result over the pre-registered DuckDB views. Column names
and float rounding are kept identical on both sides (the driver hashes
values after sorting columns by name).

Float convention: any column whose value depends on float arithmetic order
is rounded (ROUND(x, 6) / np.round(x, 6)) on BOTH sides so cross-engine
last-ulp differences cannot flip the comparison.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions import analyzers as an
from ..functions.alphakey import ordered_alpha_key, same_as_alpha_key
from ..functions.hll import HLL_P
from ..functions.hll import hll_estimate as _hll_estimate
from ..functions.hll import hll_partial as _hll_partial
from ..functions.suffix import COMPANY_NAME_ENDINGS, split_company_name_endings
from ..index import codec
from ..index.build import BuildConfig, _ncpus, build_index_from_corpus
from ..index.search import search

TOKEN_RE_SQL = r"[\p{L}\p{N}]+"
STOPWORDS = ["the", "and", "of", "a", "in", "to", "is"]

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

# Constructed "company name" over documents rows: exercises suffix match,
# trailing-punctuation strip, and the no-match path (see suffix.py).
NAME_EXPR_SQL = (
    "upper(substr(text, 1, 20)) || ' ' || "
    "CASE (doc_id % 4) WHEN 0 THEN 'LIMITED' WHEN 1 THEN 'PLC' "
    "WHEN 2 THEN 'LTD.' ELSE 'HOLDINGS' END"
)


def _name_expr_py(text: str | None, doc_id: int) -> str | None:
    if text is None:
        return None  # SQL side: NULL || ... -> NULL
    suf = ["LIMITED", "PLC", "LTD.", "HOLDINGS"][doc_id % 4]
    return text[:20].upper() + " " + suf


def _suffix_split_case_sql(name: str, stripped: str) -> str:
    """Generate the 72-branch first-match CASE for name_start (format.go
    declaration-order semantics; see functions/suffix.py)."""
    whens = []
    for cne in COMPANY_NAME_ENDINGS:
        lit = cne.replace("'", "''")
        whens.append(
            f"WHEN ends_with({stripped}, '{lit}') THEN "
            f"CASE WHEN ends_with({stripped}, ' {lit}') THEN "
            f"left({stripped}, length({stripped}) - {len(cne) + 1}) "
            f"ELSE {stripped} END"
        )
    return "CASE " + " ".join(whens) + f" ELSE {name} END"


def _alpha_key_sql(expr: str) -> str:
    return f"regexp_replace(replace(upper({expr}), '&', 'AND'), '[^A-Z0-9]', '', 'g')"


# ---------------------------------------------------------------------------
# M2/M3 — validity filter
# ---------------------------------------------------------------------------

def q_validity_filter(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(t["text"].is_valid(), pc.not_equal(t["text"], ""))
        ).select(["doc_id", "lang", "n_chars"]),
        batch_format="pyarrow",
    )


SQL_VALIDITY = (
    "SELECT doc_id, lang, n_chars FROM documents "
    "WHERE text IS NOT NULL AND text <> ''"
)


# ---------------------------------------------------------------------------
# M5 — record transform (constants, self link, composite key)
# ---------------------------------------------------------------------------

def q_record_transform(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "source"])

    def xf(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        link = pa.array([f"/doc/{i}" for i in ids], pa.string())
        comp = pa.array([f"{s}:{i}" for s, i in
                         zip(t["source"].to_pylist(), ids)], pa.string())
        n = t.num_rows
        return pa.table({
            "doc_id": t["doc_id"],
            "kind": pa.array(["searchresults#document"] * n, pa.string()),
            "record_type": pa.array(["documents"] * n, pa.string()),
            "self_link": link,
            "source_key_with_id": comp,
        })

    return ds.map_batches(xf, batch_format="pyarrow")


SQL_RECORD_TRANSFORM = (
    "SELECT doc_id, 'searchresults#document' AS kind, "
    "'documents' AS record_type, "
    "'/doc/' || CAST(doc_id AS VARCHAR) AS self_link, "
    "source || ':' || CAST(doc_id AS VARCHAR) AS source_key_with_id "
    "FROM documents"
)


# ---------------------------------------------------------------------------
# M6/F15 — suffix split, and S6 alpha keys
# ---------------------------------------------------------------------------

def q_suffix_split(sf_dir: str):
    from ..functions.suffix import split_company_name_endings_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        names = pa.array(
            [_name_expr_py(x, i) for x, i in
             zip(t["text"].to_pylist(), t["doc_id"].to_pylist())],
            pa.string())
        split = split_company_name_endings_batch(names)
        return pa.table({
            "doc_id": t["doc_id"],
            "name": names,
            "name_start": split["name_start"],
            "name_ending": split["name_ending"],
        })

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_suffix_split() -> str:
    return (
        f"WITH named AS (SELECT doc_id, {NAME_EXPR_SQL} AS name FROM documents), "
        "stripped AS (SELECT doc_id, name, "
        "regexp_replace(name, '[^A-Za-z0-9_]+$', '') AS s FROM named), "
        "split AS (SELECT doc_id, name, "
        + _suffix_split_case_sql("name", "s")
        + " AS name_start FROM stripped) "
        "SELECT doc_id, name, name_start, "
        "substr(name, length(name_start) + 1) AS name_ending FROM split"
    )


def q_alpha_keys(sf_dir: str):
    from ..functions.alphakey import (
        ordered_alpha_key_batch,
        same_as_alpha_key_batch,
    )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        names = pa.array(
            [_name_expr_py(x, i) for x, i in
             zip(t["text"].to_pylist(), t["doc_id"].to_pylist())],
            pa.string())
        return pa.table({
            "doc_id": t["doc_id"],
            "same_as_alpha_key": same_as_alpha_key_batch(names),
            "ordered_alpha_key": ordered_alpha_key_batch(names),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_alpha_keys() -> str:
    return (
        f"WITH named AS (SELECT doc_id, {NAME_EXPR_SQL} AS name FROM documents), "
        "stripped AS (SELECT doc_id, name, "
        "regexp_replace(name, '[^A-Za-z0-9_]+$', '') AS s FROM named), "
        "split AS (SELECT doc_id, name, "
        + _suffix_split_case_sql("name", "s")
        + " AS name_start FROM stripped) "
        "SELECT doc_id, "
        + _alpha_key_sql("name") + " AS same_as_alpha_key, "
        + _alpha_key_sql("name_start") + " AS ordered_alpha_key FROM split"
    )


# ---------------------------------------------------------------------------
# F14/A3 — token counts; doc-length stats
# ---------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(
                an.token_count_batch(t["text"]).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


SQL_TOKEN_COUNTS = (
    "SELECT doc_id, CAST(len(regexp_extract_all(lower(coalesce(text, '')), "
    f"'{TOKEN_RE_SQL}')) AS BIGINT) AS n_tokens FROM documents"
)


# Lookahead-free GPT-2-style pretokenizer (contraction suffixes, optional
# space + letter/digit/punct runs, whitespace runs) — valid RE2, so one
# pyarrow count_substring_regex scan == DuckDB regexp_extract_all length.
BPE_RE = (r"'s|'t|'re|'ve|'m|'ll|'d"
          r"| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+")


def q_bpe_token_counts(sf_dir: str):
    """Training-data token accounting: whitespace tokens and BPE-ish
    pretokenizer tokens per document — the two quick corpus-size estimates
    an LLM-pipeline budget pass needs (exact BPE merges are
    tokenizer-specific; the pretokenizer count is the standard proxy)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t["text"], "")
        ws = pc.count_substring_regex(txt, r"\S+")
        bpe = pc.count_substring_regex(txt, BPE_RE)
        return pa.table({
            "doc_id": t["doc_id"],
            "ws_tokens": pc.cast(ws, pa.int64()),
            "bpe_tokens": pc.cast(bpe, pa.int64()),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


SQL_BPE_TOKEN_COUNTS = (
    "SELECT doc_id, "
    "CAST(len(regexp_extract_all(coalesce(text, ''), '\\S+')) AS BIGINT)"
    " AS ws_tokens, "
    "CAST(len(regexp_extract_all(coalesce(text, ''), "
    f"'{BPE_RE.replace(chr(39), chr(39) * 2)}')) AS BIGINT)"
    " AS bpe_tokens FROM documents"
)


def q_doc_len_stats(sf_dir: str):
    ds = q_token_counts(sf_dir)
    # partial per-batch sums -> tiny global aggregate (pre-aggregation pattern)
    partials = ds.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([pc.sum(t["n_tokens"]).as_py() or 0], pa.int64()),
        }),
        batch_format="pyarrow",
    ).to_pandas()
    n, s = int(partials["n"].sum()), int(partials["s"].sum())
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "total_tokens": pa.array([s], pa.int64()),
        "avgdl": pa.array([round(s / n, 6) if n else 0.0], pa.float64()),
    })


SQL_DOC_LEN_STATS = (
    "WITH tc AS (" + SQL_TOKEN_COUNTS + ") "
    "SELECT count(*) AS n_docs, CAST(sum(n_tokens) AS BIGINT) AS total_tokens, "
    "round(sum(n_tokens)::DOUBLE / count(*), 6) AS avgdl FROM tc"
)


# ---------------------------------------------------------------------------
# A2 — term document frequencies (the index build aggregation)
# ---------------------------------------------------------------------------

def _term_doc_tf(sf_dir: str) -> rd.Dataset:
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, _ = an.standard_tokenize_batch(t["text"])
        ids = t["doc_id"].to_numpy()[idx]
        g = (pa.table({"term": toks, "doc_id": pa.array(ids)})
             .group_by(["term", "doc_id"]).aggregate([("doc_id", "count")]))
        return pa.table({"term": g["term"], "doc_id": g["doc_id"],
                         "tf": g["doc_id_count"]})

    return ds.map_batches(xf, batch_format="pyarrow")


def q_term_df(sf_dir: str):
    from ray.data.aggregate import Sum

    # A doc never spans batches, so per-batch (term, df, cf) partials are
    # exact: df = #docs in this batch containing term, cf = total tf.
    # Shuffling the tiny partials instead of ~(term, doc, tf) posting rows
    # cuts the all-to-all exchange by ~avg_df per term.
    def partial(t: pa.Table) -> pa.Table:
        g = (t.group_by("term")
             .aggregate([("doc_id", "count"), ("tf", "sum")]))
        return pa.table({"term": g["term"],
                         "df": pc.cast(g["doc_id_count"], pa.int64()),
                         "cf": pc.cast(g["tf_sum"], pa.int64())})

    return (
        _term_doc_tf(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
    )


SQL_TERM_DF = (
    f"WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), "
    f"'{TOKEN_RE_SQL}')) AS term FROM documents), "
    "tf AS (SELECT term, doc_id, count(*) AS tf FROM toks GROUP BY 1, 2) "
    "SELECT term, CAST(count(*) AS BIGINT) AS df, "
    "CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term"
)


TFIDF_TOP = 3


def q_tfidf_keywords(sf_dir: str):
    """Per-document keyword extraction: the top-3 terms by TF-IDF
    (tf * ln(N / df), rounded to 6 dp, ties term-ascending) — the
    classic salience operator a training-data pipeline uses for topic
    tagging / filtering.

    Two passes: (1) the distributed df aggregation (per-batch exact
    partials, tiny shuffle — q_term_df's plan), collected into a
    vocabulary-bounded df map broadcast ONCE via ray.put (the 100-TB
    variant reads df from the index's term_stats instead of re-counting;
    the map is vocabulary-, not corpus-, sized either way); (2) a
    streaming map_batches that tokenizes, computes per-doc tf via Arrow
    hash group-by, scores against the broadcast map, and keeps the top-3
    per doc with a vectorized group-rank — no Python loop over rows."""
    import pyarrow.parquet as pq_

    df_t = q_term_df(sf_dir).to_pandas()
    dfm = dict(zip(df_t["term"], df_t["df"].astype(int)))
    n_docs = float(pq_.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows)
    ref = ray.put(dfm)

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, _ = an.standard_tokenize_batch(t["text"])
        ids = t["doc_id"].to_numpy()[idx]
        g = (pa.table({"term": toks, "doc_id": pa.array(ids)})
             .group_by(["term", "doc_id"]).aggregate([("doc_id", "count")]))
        if g.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "kw_rank": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "score": pa.array([], pa.float64())})
        dfm_ = ray.get(ref)
        terms = np.asarray(g["term"].to_numpy(zero_copy_only=False),
                           dtype=object)
        df = pd.Series(terms).map(dfm_).to_numpy(dtype=np.float64)
        tf = g["doc_id_count"].to_numpy().astype(np.float64)
        did = g["doc_id"].to_numpy()
        score = np.round(tf * np.log(n_docs / df), 6)
        tstr = terms.astype("U")
        order = np.lexsort((tstr, -score, did))  # doc, score desc, term
        sd = did[order]
        starts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
        sizes = np.diff(np.r_[starts, len(sd)])
        within = np.arange(len(sd)) - np.repeat(starts, sizes)
        sel = order[within < TFIDF_TOP]
        ranks = (within[within < TFIDF_TOP] + 1)
        return pa.table({
            "doc_id": pa.array(did[sel], pa.int64()),
            "kw_rank": pa.array(ranks.astype(np.int64), pa.int64()),
            "term": pa.array(terms[sel].tolist(), pa.string()),
            "score": pa.array(score[sel], pa.float64()),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_tfidf_keywords() -> str:
    return (
        f"WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
        f"lower(text), '{TOKEN_RE_SQL}')) AS term FROM documents), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks "
        "GROUP BY 1, 2), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        "n AS (SELECT count(*)::DOUBLE AS n FROM documents), "
        "scored AS (SELECT tf.doc_id, tf.term, "
        "round(tf.tf * ln(n.n / df.df), 6) AS score "
        "FROM tf JOIN df USING (term) CROSS JOIN n) "
        "SELECT doc_id, kw_rank, term, score FROM ("
        "SELECT doc_id, term, score, row_number() OVER ("
        "PARTITION BY doc_id ORDER BY score DESC, term ASC) AS kw_rank "
        f"FROM scored) WHERE kw_rank <= {TFIDF_TOP}"
    )


def q_top_terms(sf_dir: str):
    return q_term_df(sf_dir).sort(["cf", "term"], descending=[True, False]).limit(20)


SQL_TOP_TERMS = SQL_TERM_DF + " ORDER BY cf DESC, term ASC LIMIT 20"


# ---------------------------------------------------------------------------
# F4/F10 — first-token edge n-grams (O2 + edge_ngram analyzer surface)
# ---------------------------------------------------------------------------

def q_first_token_edge_ngrams(sf_dir: str):
    """Edge n-grams (2..20) of each doc's first standard token — vectorized:
    one batch tokenize, run-start selection for the first token per doc,
    then one ``utf8_slice_codeunits`` kernel per gram length (<= 19 calls
    per batch, no per-row Python)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "gram": pa.array([], pa.string())})

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        if len(idx) == 0:
            return empty
        # analyzer_limit_first == standard tokenize + lowercase + limit 1:
        # batch tokens are already lowercased; take each doc's first token
        first_pos = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        firsts = toks.take(pa.array(first_pos))
        doc_ids = t["doc_id"].to_numpy()[idx[first_pos]]
        lens = np.asarray(pc.utf8_length(firsts))
        out_ids, out_grams = [], []
        for g in range(an.EDGE_NGRAM_MIN, an.EDGE_NGRAM_MAX + 1):
            m = lens >= g
            if not m.any():
                break
            out_ids.append(doc_ids[m])
            out_grams.append(pc.utf8_slice_codeunits(
                firsts.filter(pa.array(m)), 0, g))
        if not out_ids:
            return empty
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
            "gram": pc.cast(pa.concat_arrays(
                [g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
                 for g in out_grams]), pa.string()),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


SQL_FIRST_TOKEN_EDGE_NGRAMS = (
    f"WITH ft AS (SELECT doc_id, lower(regexp_extract(text, '{TOKEN_RE_SQL}')) "
    "AS tok FROM documents WHERE regexp_extract(text, '" + TOKEN_RE_SQL + "') <> ''), "
    "g AS (SELECT doc_id, tok, unnest(generate_series(2, least(20, length(tok)))) "
    "AS n FROM ft WHERE length(tok) >= 2) "
    "SELECT doc_id, substr(tok, 1, CAST(n AS INT)) AS gram FROM g"
)


# ---------------------------------------------------------------------------
# D1 — exact dedup (content hash; min doc_id wins)
# ---------------------------------------------------------------------------

def _md5_batch(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized md5 over an Arrow string column — DuckDB's C++ kernel on
    a zero-copy replacement scan (order-preserving; DuckDB keeps insertion
    order for plain projections). md5 itself has no numpy/pyarrow kernel,
    and the oracle contract pins the digest, so this is the only per-row-
    loop-free route; ~2x the hashlib comprehension warm."""
    import duckdb

    tv = pa.table({"t": texts})  # noqa: F841 — replacement-scanned
    return duckdb.execute(
        "SELECT md5(coalesce(t, '')) AS h FROM tv").arrow()["h"].combine_chunks()


def _hex_prefix_frac(hexes: pa.Array) -> np.ndarray:
    """``int(h[:6], 16) / 16**6`` per md5 hex digest, without a per-row
    loop: the six leading hex digits through a byte lookup table."""
    lut = np.zeros(256, np.int64)
    lut[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)
    digits = np.frombuffer(
        hexes.to_numpy(zero_copy_only=False).astype("S32").tobytes(),
        np.uint8).reshape(-1, 32)[:, :6]
    return lut[digits] @ (16 ** np.arange(5, -1, -1)) / 16777216.0


def q_exact_dedup(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "h": _md5_batch(t["text"])})

    from ray.data.aggregate import Count, Min

    res = (ds.map_batches(add_hash, batch_format="pyarrow")
           .groupby("h").aggregate(Min("doc_id"), Count())
           .map_batches(
               lambda t: pa.table({
                   "doc_id": pc.cast(t["min(doc_id)"], pa.int64()),
                   "n_copies": pc.cast(t["count()"], pa.int64()),
               }),
               batch_format="pyarrow"))
    return res


SQL_EXACT_DEDUP = (
    "SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_copies "
    "FROM documents GROUP BY md5(coalesce(text, ''))"
)


BLOOM_M_BITS = 1 << 24
BLOOM_K = 8


def _bloom_inject(t: pa.Table, incoming: bool) -> pa.Table:
    """Split selection + deterministic row-local duplicate injection (the
    sf tables carry almost no cross-split dups): incoming = doc_id%3==0,
    base = the rest; base docs with doc_id%15==1 and incoming docs with
    doc_id%15==0 share the content key ``synthetic duplicate doc_id//15``
    — each injected incoming doc has exactly one base partner. Mirrored
    verbatim in the SQL oracle; null text stays null (it matches nothing,
    as ``b.text = i.text`` does in SQL)."""
    ids = t["doc_id"].to_numpy()
    t = t.filter(pa.array((ids % 3 == 0) == incoming))
    ids = t["doc_id"].to_numpy()
    hit = ids % 15 == (0 if incoming else 1)
    txt = t["text"].to_pandas()
    txt[hit] = [f"synthetic duplicate {g}" for g in ids[hit] // 15]
    return pa.table({"doc_id": t["doc_id"],
                     "text": pa.array(txt, pa.string())})


def q_bloom_dedup(sf_dir: str):
    """Incremental ingest dedup WITHOUT a shuffle join: a Bloom filter
    (m=2^24 bits, k=8) built over the 'existing corpus' split
    (doc_id%3!=0) in one pass — per-block bit-array partials OR-merged
    through a bounded fan-in — then broadcast once via ``ray.put`` and
    probed vectorized by the 'incoming' split (doc_id%3==0). Output:
    incoming doc_ids whose content was already ingested. SQL-oracled
    exactly: at 16 bits/element the FP odds per probe are ~2e-13, so
    the filter answers the EXISTS query deterministically at gate scale;
    false negatives are impossible by construction."""
    from ..stages.bloomdedup import build_bloom, probe_seen

    cols = ["doc_id", "text"]
    base = (rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
            .map_batches(lambda t: _bloom_inject(t, incoming=False),
                         batch_format="pyarrow"))
    words = build_bloom(base, "text", BLOOM_M_BITS, BLOOM_K)
    words_ref = ray.put(words)
    inc = (rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
           .map_batches(lambda t: _bloom_inject(t, incoming=True),
                        batch_format="pyarrow"))
    seen = (probe_seen(inc, words_ref, "text", BLOOM_K)
            .map_batches(lambda t: t.filter(t["seen"]).select(["doc_id"]),
                         batch_format="pyarrow")
            .to_pandas())
    return pa.table({"doc_id": pa.array(
        np.sort(seen["doc_id"].to_numpy().astype(np.int64)), pa.int64())})


SQL_BLOOM_DEDUP = (
    "WITH base AS (SELECT CASE WHEN doc_id % 15 = 1 THEN "
    "'synthetic duplicate ' || (doc_id // 15) ELSE text END AS text "
    "FROM documents WHERE doc_id % 3 != 0), "
    "inc AS (SELECT doc_id, CASE WHEN doc_id % 15 = 0 THEN "
    "'synthetic duplicate ' || (doc_id // 15) ELSE text END AS text "
    "FROM documents WHERE doc_id % 3 = 0) "
    "SELECT i.doc_id FROM inc i "
    "WHERE EXISTS (SELECT 1 FROM base b WHERE b.text = i.text) "
    "ORDER BY i.doc_id"
)


# ---------------------------------------------------------------------------
# Near-dup: exact n-gram Jaccard (SQL oracle), MinHash-LSH (scale path),
# SimHash (rows-only)
# ---------------------------------------------------------------------------

SHINGLE_K = 3
JACCARD_T = 0.8


def _shingles(tokens: list[str], k: int = SHINGLE_K) -> set[str]:
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def _doc_shingles_ds(sf_dir: str) -> rd.Dataset:
    """(doc_id, shingle, n) rows — ``n`` is the doc's DISTINCT shingle count,
    computed inside the batch (each doc lives in one batch), so set sizes
    ride along with the shingle rows instead of a driver-side dict.

    Vectorized: one batch tokenize, k-gram strings assembled with Arrow
    ``take`` + ``binary_join_element_wise`` over the flat token array, and
    the per-doc DISTINCT via an Arrow hash group-by — no per-row Python
    (identity-tested against the scalar :func:`_shingles` in pytest)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    # fixed large_string so empty and populated batches agree on schema
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "shingle": pa.array([], pa.large_string()),
                      "n": pa.array([], pa.int64())})

    def xf(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        _doc_idx, tokens, dl = an.standard_tokenize_batch(t["text"])
        dl = dl.astype(np.int64)
        offs = np.r_[0, np.cumsum(dl)]
        # shingle count per doc: k-grams when dl >= k, ONE whole-doc join
        # when 0 < dl < k (mirrors _shingles), none when empty
        nsh = np.where(dl >= SHINGLE_K, dl - SHINGLE_K + 1,
                       (dl > 0).astype(np.int64))
        total = int(nsh.sum())
        if total == 0:
            return empty
        doc_rep = np.repeat(np.arange(len(dl)), nsh)
        within = np.arange(total) - np.repeat(
            np.r_[0, np.cumsum(nsh)[:-1]], nsh)
        start = offs[doc_rep] + within
        full = dl[doc_rep] >= SHINGLE_K
        out_ids, out_sh = [], []
        if full.any():
            fs = start[full]
            parts = [tokens.take(pa.array(fs + j))
                     for j in range(SHINGLE_K)]
            out_ids.append(ids[doc_rep[full]])
            out_sh.append(pc.binary_join_element_wise(
                *parts, pa.scalar(" ", type=tokens.type)))
        short = ~full
        if short.any():
            ss = start[short]
            sdl = dl[doc_rep[short]]  # 1 .. SHINGLE_K-1 tokens, join all
            joined = tokens.take(pa.array(ss))
            for j in range(1, SHINGLE_K - 1):
                nxt = tokens.take(pa.array(ss + np.minimum(j, sdl - 1)))
                joined = pc.if_else(pa.array(sdl > j),
                                    pc.binary_join_element_wise(
                                        joined, nxt,
                                        pa.scalar(" ", type=tokens.type)),
                                    joined)
            out_ids.append(ids[doc_rep[short]])
            out_sh.append(joined)
        tbl = pa.table({
            "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
            "shingle": pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                 for a in out_sh]),
        })
        dedup = tbl.group_by(["doc_id", "shingle"]).aggregate([])
        d = dedup["doc_id"].to_numpy()
        _u, inv, cnt = np.unique(d, return_inverse=True, return_counts=True)
        return pa.table({"doc_id": dedup["doc_id"],
                         "shingle": pc.cast(dedup["shingle"],
                                            pa.large_string()),
                         "n": pa.array(cnt[inv], pa.int64())})

    return ds.map_batches(xf, batch_format="pyarrow")


def q_ngram_jaccard_pairs(sf_dir: str):
    """Exact all-pairs n-gram Jaccard >= 0.8 via a shingle-join (no LSH).

    Scale note: this is the *oracle-checkable* exact variant; the scale path
    is q_minhash_lsh_pairs (candidates via banding, then exact verify). No
    driver-side state: shingle-set sizes travel with the shingle rows and
    reduce through the pair groupby (Min over a per-doc constant).
    """
    sh = _doc_shingles_ds(sf_dir)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates("doc_id").sort_values("doc_id")
        ids = df["doc_id"].to_numpy()
        ns = df["n"].to_numpy()
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib],
                             "na": ns[ia], "nb": ns[ib]})

    from ray.data.aggregate import Count, Min

    inter = (
        sh.groupby("shingle")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="i"),
                   Min("na", alias_name="na"), Min("nb", alias_name="nb"))
    )

    def jac(df: pd.DataFrame) -> pd.DataFrame:
        inter_n = df["i"].to_numpy(dtype=np.float64)
        na = df["na"].to_numpy(dtype=np.float64)
        nb = df["nb"].to_numpy(dtype=np.float64)
        j = inter_n / (na + nb - inter_n)
        out = pd.DataFrame({"doc_a": df["doc_a"], "doc_b": df["doc_b"],
                            "jaccard": np.round(j, 6)})
        return out[j >= JACCARD_T]

    return inter.map_batches(jac, batch_format="pandas")


SQL_NGRAM_JACCARD_PAIRS = (
    f"WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), "
    f"'{TOKEN_RE_SQL}') AS ts FROM documents), "
    "sh AS (SELECT doc_id, unnest(list_distinct(CASE WHEN len(ts) < 3 THEN "
    "[array_to_string(ts, ' ')] ELSE "
    "list_transform(generate_series(1, len(ts) - 2), "
    "i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) END)) AS shingle "
    "FROM toks WHERE len(ts) > 0), "
    "sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1), "
    "inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i "
    "FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id "
    "GROUP BY 1, 2) "
    "SELECT doc_a, doc_b, round(i::DOUBLE / (sa.n + sb.n - i), 6) AS jaccard "
    "FROM inter JOIN sizes sa ON sa.doc_id = doc_a "
    "JOIN sizes sb ON sb.doc_id = doc_b "
    "WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.8"
)

N_PERM = 128
N_BANDS = 32  # 4 rows per band
_MERSENNE = (1 << 61) - 1
_FNV_OFF = np.uint64(1469598103934665603)
_FNV_P = np.uint64(1099511628211)
# Driver fast-path cutoffs (same pattern as build._finalize):
# below these sizes a Ray shuffle's fixed overhead dwarfs the work, so the
# driver handles it; above, the distributed plan runs.
_MINHASH_DRIVER_ROWS = 2_000_000   # band rows (3 int64 cols ~ 48 MB)
_VERIFY_DOCS_PER_BLOCK = 20_000    # candidate docs per shingle-set block


@ray.remote
def _block_shingle_sets(path: str, ids: np.ndarray):
    """Task: per-doc DISTINCT shingle-hash sets for one contiguous doc-id
    block, as a CSR triple ``(uniq_docs, offsets, sorted hashes)``. The
    parquet read is row-group-pruned by the block's doc range; shingle
    hashing is the same vectorized kernel the signatures use."""
    from ..index.build import pin_worker_threads

    pin_worker_threads()
    import pyarrow.parquet as pq_

    t = pq_.read_table(path, columns=["doc_id", "text"],
                       filters=[("doc_id", ">=", int(ids[0])),
                                ("doc_id", "<=", int(ids[-1]))])
    t = t.filter(pa.array(np.isin(t["doc_id"].to_numpy(), ids)))
    sh_idx, sh = _shingle_hash_batch(t["text"].combine_chunks())
    doc = t["doc_id"].to_numpy()[sh_idx]
    if len(doc) == 0:
        return (np.empty(0, np.int64), np.zeros(1, np.int64),
                np.empty(0, np.uint64))
    order = np.lexsort((sh, doc))
    doc, sh = doc[order], sh[order]
    keep = np.r_[True, (doc[1:] != doc[:-1]) | (sh[1:] != sh[:-1])]
    doc, sh = doc[keep], sh[keep]
    starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
    return (doc[starts], np.r_[starts, len(doc)].astype(np.int64), sh)


@ray.remote
def _verify_pair_block(blk_a, blk_b, da: np.ndarray, db: np.ndarray):
    """Task: exact-Jaccard verify of the candidate pairs whose docs live
    in shingle blocks ``(blk_a, blk_b)`` — per-pair cost bounded by the
    two docs' set sizes, parallel across block pairs."""
    ud_a, off_a, sh_a = blk_a
    ud_b, off_b, sh_b = blk_b
    ia = np.searchsorted(ud_a, da)
    ib = np.searchsorted(ud_b, db)
    oa, ob, oj = [], [], []
    for k in range(len(da)):
        p, q = int(ia[k]), int(ib[k])
        if (p >= len(ud_a) or ud_a[p] != da[k]
                or q >= len(ud_b) or ud_b[q] != db[k]):
            continue  # candidate doc had no shingles (degenerate text)
        sa = sh_a[off_a[p]:off_a[p + 1]]
        sb = sh_b[off_b[q]:off_b[q + 1]]
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        j = inter / (sa.size + sb.size - inter)
        if j >= JACCARD_T:
            oa.append(int(da[k]))
            ob.append(int(db[k]))
            oj.append(round(j, 6))
    return (np.asarray(oa, np.int64), np.asarray(ob, np.int64),
            np.asarray(oj, np.float64))


def _verify_candidates(doc_path: str, da: np.ndarray,
                       db: np.ndarray) -> pa.Table:
    """Distributed exact-Jaccard verification of candidate pairs.

    No O(candidates) driver structure beyond the pair ids themselves (two
    int64 per pair — the same order as the returned output): candidate
    docs are range-partitioned into blocks, one task per OCCUPIED block
    builds its docs' shingle sets from a pruned parquet read, and one task
    per occupied block PAIR verifies its pairs against the two block
    objects. Shingle sets never land on the driver (the round-3 verify
    collected a {doc_id: shingles} dict and looped pairs driver-side —
    O(dup_fraction x corpus) memory at web-crawl dup rates)."""
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    if len(da) == 0:
        return empty
    need = np.unique(np.concatenate([da, db]))
    n_blocks = max(1, min(
        4 * _ncpus(),
        (len(need) + _VERIFY_DOCS_PER_BLOCK - 1) // _VERIFY_DOCS_PER_BLOCK))
    cuts = np.linspace(0, len(need), n_blocks + 1).astype(np.int64)
    bounds = need[cuts[1:-1]] if n_blocks > 1 else np.empty(0, np.int64)
    blk_a = np.searchsorted(bounds, da, side="right")
    blk_b = np.searchsorted(bounds, db, side="right")
    used = np.unique(np.concatenate([blk_a, blk_b]))
    refs = {int(i): _block_shingle_sets.remote(
        doc_path, need[cuts[i]:cuts[i + 1]]) for i in used}
    order = np.lexsort((blk_b, blk_a))
    da_s, db_s = da[order], db[order]
    ka, kb = blk_a[order], blk_b[order]
    starts = np.flatnonzero(
        np.r_[True, (ka[1:] != ka[:-1]) | (kb[1:] != kb[:-1])])
    ends = np.r_[starts[1:], len(da_s)]
    parts = ray.get([
        _verify_pair_block.remote(refs[int(ka[s])], refs[int(kb[s])],
                                  da_s[s:e], db_s[s:e])
        for s, e in zip(starts, ends)])
    oa = np.concatenate([p[0] for p in parts]) if parts else np.empty(0)
    if len(oa) == 0:
        return empty
    ob = np.concatenate([p[1] for p in parts])
    oj = np.concatenate([p[2] for p in parts])
    fin = np.lexsort((ob, oa))
    return pa.table({
        "doc_a": pa.array(oa[fin], pa.int64()),
        "doc_b": pa.array(ob[fin], pa.int64()),
        "jaccard": pa.array(oj[fin], pa.float64()),
    })


def _minhash_params():
    rng = np.random.default_rng(1234)
    a = rng.integers(1, _MERSENNE, N_PERM, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, N_PERM, dtype=np.int64).astype(np.uint64)
    return a, b


def _hash_tokens_u64(toks: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash per token (vectorized, C-speed)."""
    obj = np.asarray(toks.to_numpy(zero_copy_only=False), dtype=object)
    return pd.util.hash_array(obj)  # uint64, fixed default hash key


def _shingle_hash_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """``(doc_index, shingle_hash_u64)`` for SHINGLE_K-token shingles.

    Shingle identity is an FNV-style mix of per-token 64-bit hashes —
    no shingle *strings* are ever materialized, so the whole batch is
    numpy array arithmetic. Docs with 0 < n_tokens < K contribute one
    shingle over all their tokens (mirrors :func:`_shingles`); duplicate
    shingles within a doc are NOT removed here (min over duplicates ==
    min over the set, and the verify path np.unique's per doc).
    Output is sorted by doc_index.
    """
    tok_idx, toks, dl = an.standard_tokenize_batch(texts)
    th = _hash_tokens_u64(toks)
    k = SHINGLE_K
    n = len(th)
    if n >= k:
        h = np.full(n - k + 1, _FNV_OFF, dtype=np.uint64)
        for j in range(k):
            h = (h ^ th[j:n - k + 1 + j]) * _FNV_P
        valid = tok_idx[:n - k + 1] == tok_idx[k - 1:]
        sh_idx = tok_idx[:n - k + 1][valid]
        sh = h[valid]
    else:
        sh_idx = np.empty(0, dtype=np.int64)
        sh = np.empty(0, dtype=np.uint64)
    short = np.flatnonzero((dl > 0) & (dl < k))
    if len(short):
        starts = np.concatenate(([0], np.cumsum(dl)))
        extra_idx, extra_h = [], []
        for d in short:
            hh = _FNV_OFF
            for v in th[starts[d]:starts[d] + dl[d]]:
                hh = (hh ^ v) * _FNV_P
            extra_idx.append(d)
            extra_h.append(hh)
        sh_idx = np.concatenate([sh_idx, np.asarray(extra_idx, dtype=np.int64)])
        sh = np.concatenate([sh, np.asarray(extra_h, dtype=np.uint64)])
        order = np.argsort(sh_idx, kind="stable")
        sh_idx, sh = sh_idx[order], sh[order]
    return sh_idx, sh


def _minhash_band_table(t: pa.Table, a_p: np.ndarray, b_p: np.ndarray) -> pa.Table:
    """(doc_id, band, bh) LSH band rows for one Arrow batch — fully
    vectorized: token-hash shingles, per-doc min via np.minimum.reduceat,
    FNV band fold. Permutations run in chunks to bound the (n_shingles x
    n_perm) temporary."""
    sh_idx, sh = _shingle_hash_batch(t["text"])
    if len(sh) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "band": pa.array([], pa.int32()),
                         "bh": pa.array([], pa.int64())})
    uniq_rows, starts = np.unique(sh_idx, return_index=True)
    m = np.uint64(_MERSENNE)
    sig = np.empty((len(uniq_rows), N_PERM), dtype=np.uint64)
    for c0 in range(0, N_PERM, 32):  # bound temp at n_shingles x 32 x 8B
        block = (sh[:, None] * a_p[None, c0:c0 + 32]
                 + b_p[None, c0:c0 + 32]) % m
        sig[:, c0:c0 + 32] = np.minimum.reduceat(block, starts, axis=0)
    rows_per_band = N_PERM // N_BANDS
    bands = sig.reshape(len(uniq_rows), N_BANDS, rows_per_band)
    bh = np.full(bands.shape[:2], _FNV_OFF, dtype=np.uint64)
    for j in range(rows_per_band):
        bh = (bh ^ bands[:, :, j]) * _FNV_P
    doc_ids = t["doc_id"].to_numpy()[uniq_rows]
    return pa.table({
        "doc_id": pa.array(np.repeat(doc_ids, N_BANDS), pa.int64()),
        "band": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32),
                                 len(uniq_rows)), pa.int32()),
        "bh": pa.array(bh.reshape(-1).view(np.int64), pa.int64()),
    })


def q_minhash_lsh_pairs(sf_dir: str):
    """MinHash(128) + LSH(32 bands x 4 rows) candidates, exact-Jaccard
    verified at >= 0.8 — the scale path for near-dup detection.

    Scale shape: signatures are numpy-vectorized per batch (no per-doc
    Python, no shingle strings); candidate pairs come from a groupby over
    tiny (band, bh) buckets; the exact-verify step touches ONLY candidate
    docs — their ids are range+`np.isin`-filtered at the parquet read, and
    shingle sets are built distributedly (never `to_pandas()` on the
    corpus). Oracle: identical output contract to the exact all-pairs SQL
    (32x4 banding FN probability at J>=0.8 is ~5e-8 per pair).
    """
    a_p, b_p = _minhash_params()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(set(df["doc_id"].tolist()))
        a, b = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a.append(ids[i]); b.append(ids[j])
        return pd.DataFrame({"doc_a": a, "doc_b": b})

    # Band rows are ~all singleton buckets, so bucket-level work must not
    # pay per-group Python. Two plans behind an explicit size cutoff (the
    # same driver-fast-path pattern as build._finalize):
    #  - small band table (<= _MINHASH_DRIVER_ROWS rows of 3 int64 cols):
    #    pull the integer columns and pair-generate with numpy run-length
    #    logic — one Ray pipeline total, no shuffle.
    #  - large: Count-aggregate to find buckets with >= 2 docs, broadcast
    #    those keys, filter band rows to them, pair-generate distributedly.
    band_ds = ds.map_batches(lambda t: _minhash_band_table(t, a_p, b_p),
                             batch_format="pyarrow", batch_size=1024
                             ).materialize()
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    n_band_rows = band_ds.count()
    if n_band_rows <= _MINHASH_DRIVER_ROWS:
        pdf = band_ds.to_pandas()
        key = (pdf["bh"].to_numpy().view(np.uint64) * _FNV_P) ^ \
            pdf["band"].to_numpy().astype(np.uint64)
        order = np.argsort(key, kind="stable")
        key, docs = key[order], pdf["doc_id"].to_numpy()[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        lens = np.diff(np.concatenate((starts, [len(key)])))
        pa_l, pb_l = [], []
        for s, ln in zip(starts[lens >= 2], lens[lens >= 2]):
            ids = np.unique(docs[s:s + ln])
            if len(ids) < 2:
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            pa_l.append(ids[ia]); pb_l.append(ids[ib])
        if not pa_l:
            return empty
        cand = pd.DataFrame({"doc_a": np.concatenate(pa_l),
                             "doc_b": np.concatenate(pb_l)}).drop_duplicates()
    else:
        from ray.data.aggregate import Count

        hot = (band_ds.groupby(["band", "bh"])
               .aggregate(Count(alias_name="n"))
               .map_batches(lambda t: t.filter(pc.greater_equal(t["n"], 2)),
                            batch_format="pyarrow")
               .to_pandas())  # buckets holding any near-dup candidate
        if len(hot) == 0:
            return empty
        # combined bucket key; xor-mix collisions only admit extra singleton
        # buckets (harmless — they generate no pairs)
        hot_keys = (hot["bh"].to_numpy().view(np.uint64) * _FNV_P) ^ \
            hot["band"].to_numpy().astype(np.uint64)
        hot_ref = ray.put(np.unique(hot_keys))

        def only_hot(t: pa.Table) -> pa.Table:
            k = (t["bh"].to_numpy().view(np.uint64) * _FNV_P) ^ \
                t["band"].to_numpy().astype(np.uint64)
            return t.filter(pa.array(np.isin(k, ray.get(hot_ref))))

        cand = (
            band_ds.map_batches(only_hot, batch_format="pyarrow")
            .groupby(["band", "bh"]).map_groups(pairs, batch_format="pandas")
            .groupby(["doc_a", "doc_b"]).count()
        ).to_pandas()  # candidate PAIRS only — small by construction
    if len(cand) == 0:
        return empty
    # Exact verification over candidate docs only (never the corpus),
    # fully off-driver — see _verify_candidates.
    return _verify_candidates(f"{sf_dir}/documents.parquet",
                              cand["doc_a"].to_numpy().astype(np.int64),
                              cand["doc_b"].to_numpy().astype(np.int64))


# LSH has no SQL analogue, but the verified OUTPUT contract is exactly the
# all-pairs result, so the exact SQL doubles as this entry's oracle.
SQL_MINHASH_LSH_PAIRS = SQL_NGRAM_JACCARD_PAIRS


DUP_CLUSTER_UNIONFIND_MAX = 5_000_000  # pairs; above this, star rounds


def q_duplicate_clusters(sf_dir: str):
    """Near-dup connected components: docs in any >=0.8-Jaccard pair get a
    cluster_id = min doc_id of their component.

    The pair graph comes from the MinHash+LSH pipeline — the SCALE path
    (banding candidates + exact verify), not the quadratic all-pairs
    shingle join; both produce the identical verified-pair contract, so the
    recursive-CTE oracle is unchanged. The closure runs as union-find over
    the collected pairs while the pair set is driver-sized, and switches to
    the DISTRIBUTED alternating large/small-star rounds
    (`stages/components.py`, tested equivalent) above
    ``DUP_CLUSTER_UNIONFIND_MAX``.
    """
    pairs = q_minhash_lsh_pairs(sf_dir)
    pdf = pairs.to_pandas() if hasattr(pairs, "to_pandas") else pairs
    if len(pdf) > DUP_CLUSTER_UNIONFIND_MAX:  # scale path
        from ..stages.components import connected_components

        edges = rd.from_arrow(pa.table({
            "u": pa.array(pdf["doc_a"].astype("int64")),
            "v": pa.array(pdf["doc_b"].astype("int64"))}))
        cc = connected_components(edges)
        return pa.table({"doc_id": cc["node"], "cluster_id": cc["component"]})
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pdf["doc_a"], pdf["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    members = sorted(set(pdf["doc_a"]) | set(pdf["doc_b"]))
    return pa.table({
        "doc_id": pa.array([int(m) for m in members], pa.int64()),
        "cluster_id": pa.array([find(int(m)) for m in members], pa.int64()),
    })


SQL_DUPLICATE_CLUSTERS = (
    "WITH RECURSIVE pairs AS (" + SQL_NGRAM_JACCARD_PAIRS + "), "
    "edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs "
    "UNION SELECT doc_b, doc_a FROM pairs), "
    "reach(node, root) AS ("
    "SELECT a, a FROM edges UNION SELECT b, b FROM edges "
    "UNION SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node) "
    "SELECT node AS doc_id, CAST(min(root) AS BIGINT) AS cluster_id "
    "FROM reach GROUP BY node"
)


def q_simhash(sf_dir: str):
    """64-bit SimHash per document (tf-weighted token hashes) — rows-only.

    Vectorized: one token-hash pass, bit expansion via uint64 shifts, and
    per-doc bit sums with np.add.reduceat — no per-row Python. Summing
    +/-1 over token OCCURRENCES equals the classic tf-weighted sum over
    unique tokens. Empty/None docs hash to 0.
    """
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        n = t.num_rows
        tok_idx, toks, dl = an.standard_tokenize_batch(t["text"])
        out = np.zeros(n, dtype=np.uint64)
        if len(tok_idx):
            th = _hash_tokens_u64(toks)
            # bits (n_toks, 64): bit j of each hash, as +/-1
            shifts = np.arange(64, dtype=np.uint64)
            bits = ((th[:, None] >> shifts[None, :]) & np.uint64(1)
                    ).astype(np.int64) * 2 - 1
            nz = np.flatnonzero(dl > 0)
            starts = np.concatenate(([0], np.cumsum(dl)))[nz]
            acc = np.add.reduceat(bits, starts, axis=0)  # (n_nz_docs, 64)
            hv = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(
                axis=1, dtype=np.uint64)
            out[nz] = hv
        return pa.table({"doc_id": t["doc_id"],
                         "simhash": pa.array(out.view(np.int64), pa.int64())})

    return ds.map_batches(xf, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Text analysis: language id + quality, fingerprint
# ---------------------------------------------------------------------------

def q_langid_quality(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    stop = set(STOPWORDS)

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, dl = an.standard_tokenize_batch(t["text"])
        toks_np = np.asarray(toks.to_numpy(zero_copy_only=False), dtype=object)
        is_stop = np.fromiter((x in stop for x in toks_np), dtype=np.int64,
                              count=len(toks_np))
        stop_cnt = np.bincount(idx, weights=is_stop, minlength=t.num_rows)
        dl = dl.astype(np.float64)
        ratio = np.divide(stop_cnt, dl, out=np.zeros_like(dl), where=dl > 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(dl.astype(np.int64), pa.int64()),
            "stopword_ratio": pa.array(np.round(ratio, 6), pa.float64()),
            "lang_pred": pa.array(
                np.where(ratio >= 0.05, "en", "unknown"), pa.string()),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


_STOP_SQL = "[" + ", ".join(f"'{w}'" for w in STOPWORDS) + "]"
SQL_LANGID_QUALITY = (
    f"WITH tc AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), "
    f"'{TOKEN_RE_SQL}') AS ts FROM documents) "
    "SELECT doc_id, CAST(len(ts) AS BIGINT) AS n_tokens, "
    "round(CASE WHEN len(ts) = 0 THEN 0.0 ELSE "
    f"len(list_filter(ts, x -> list_contains({_STOP_SQL}, x)))::DOUBLE / len(ts) "
    "END, 6) AS stopword_ratio, "
    "CASE WHEN (CASE WHEN len(ts) = 0 THEN 0.0 ELSE "
    f"len(list_filter(ts, x -> list_contains({_STOP_SQL}, x)))::DOUBLE / len(ts) "
    "END) >= 0.05 THEN 'en' ELSE 'unknown' END AS lang_pred FROM tc"
)


SPAN_W = 5          # duplicated-span window, tokens
SPAN_TOP = 20


def q_dup_spans(sf_dir: str):
    """Exact duplicated-span mining (the Lee et al. exact-substring-dedup
    signal): every ``SPAN_W``-token window in the corpus, ranked by how
    many DISTINCT docs repeat it — the spans a substring-level dedup pass
    would cut. One vectorized pass: windows materialize as joined string
    columns from shifted Arrow slices (no row loop), per-batch partial
    dfs are exact (a doc never spans batches), the merge is a
    groupby-sum, and the top cut is a distributed sort+limit — the
    driver never sees more than ``SPAN_TOP`` rows."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    w = SPAN_W

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        n = len(toks)
        empty = pa.table({"span": pa.array([], pa.string()),
                          "df": pa.array([], pa.int64())})
        if n < w:
            return empty
        ok = idx[w - 1:] == idx[:n - w + 1]  # window stays in one doc
        starts = np.flatnonzero(ok)
        if len(starts) == 0:
            return empty
        sa = pa.array(starts)
        shifted = [pc.take(toks, pc.add(sa, k)) for k in range(w)]
        spans = pc.binary_join_element_wise(*shifted, " ")
        did = t["doc_id"].to_numpy()[idx[starts]]
        g = (pa.table({"span": spans, "doc_id": pa.array(did)})
             .group_by(["span", "doc_id"]).aggregate([([], "count_all")])
             .group_by("span").aggregate([("doc_id", "count")]))
        return pa.table({"span": g["span"],
                         "df": pc.cast(g["doc_id_count"], pa.int64())})

    return (
        ds.map_batches(xf, batch_format="pyarrow")
        .groupby("span").aggregate(Sum("df", alias_name="df"))
        .map_batches(lambda t: t.filter(pc.greater(t["df"], 1)),
                     batch_format="pyarrow")
        .sort(["df", "span"], descending=[True, False])
        .limit(SPAN_TOP)
    )


def _sql_dup_spans() -> str:
    return (
        f"WITH tc AS (SELECT doc_id, regexp_extract_all("
        f"lower(coalesce(text, '')), '{TOKEN_RE_SQL}') AS ts "
        "FROM documents), "
        "pos AS (SELECT doc_id, ts, unnest(range(1, greatest(len(ts) - "
        f"{SPAN_W - 2}, 1))) AS i FROM tc), "
        f"spans AS (SELECT doc_id, array_to_string(ts[i:i+{SPAN_W - 1}], "
        "' ') AS span FROM pos), "
        "sd AS (SELECT span, count(DISTINCT doc_id) AS df FROM spans "
        "GROUP BY 1) "
        "SELECT span, df::BIGINT AS df FROM sd WHERE df > 1 "
        f"ORDER BY df DESC, span ASC LIMIT {SPAN_TOP}"
    )


# Gopher-style quality rules (Rain et al.'s public heuristics, thresholds
# scaled to this corpus's 3-120-token docs): word count in [10, 80], mean
# word length in [3, 10], >= 0.8 alphabetic-word fraction, >= 2 stopword
# hits. A doc passes when every rule holds.
GOPHER_MIN_WORDS, GOPHER_MAX_WORDS = 10, 80
GOPHER_MIN_MWL, GOPHER_MAX_MWL = 3.0, 10.0
GOPHER_MIN_ALPHA_FRAC = 0.8
GOPHER_MIN_STOP_HITS = 2


def q_gopher_rules(sf_dir: str):
    """Gopher-rules quality filter: the standard pretraining heuristic
    bundle evaluated per doc in one vectorized pass — word count bounds,
    mean word length bounds, alphabetic-word fraction, stopword-hit
    minimum — emitting each signal plus the final pass flag, so the
    downstream filter and its audit trail come from the same scan."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    stop = set(STOPWORDS)

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, dl = an.standard_tokenize_batch(t["text"])
        n = t.num_rows
        tok_len = pc.utf8_length(toks).to_numpy(zero_copy_only=False
                                                ).astype(np.float64)
        len_sum = np.bincount(idx, weights=tok_len, minlength=n)
        has_alpha = np.asarray(
            pc.cast(pc.match_substring_regex(toks, "[a-zA-Z]"), pa.int64())
            .to_numpy(zero_copy_only=False), dtype=np.float64)
        alpha_cnt = np.bincount(idx, weights=has_alpha, minlength=n)
        toks_np = np.asarray(toks.to_numpy(zero_copy_only=False),
                             dtype=object)
        is_stop = np.fromiter((x in stop for x in toks_np),
                              dtype=np.int64, count=len(toks_np))
        stop_cnt = np.bincount(idx, weights=is_stop, minlength=n
                               ).astype(np.int64)
        dlf = dl.astype(np.float64)
        safe = np.maximum(dlf, 1.0)
        mwl = np.round(len_sum / safe, 6)
        af = np.round(alpha_cnt / safe, 6)
        nw = dl.astype(np.int64)
        passes = ((nw >= GOPHER_MIN_WORDS) & (nw <= GOPHER_MAX_WORDS)
                  & (mwl >= GOPHER_MIN_MWL) & (mwl <= GOPHER_MAX_MWL)
                  & (af >= GOPHER_MIN_ALPHA_FRAC)
                  & (stop_cnt >= GOPHER_MIN_STOP_HITS))
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(nw, pa.int64()),
            "mean_word_len": pa.array(mwl, pa.float64()),
            "alpha_frac": pa.array(af, pa.float64()),
            "stop_hits": pa.array(stop_cnt, pa.int64()),
            "passes": pa.array(passes, pa.bool_()),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_gopher_rules() -> str:
    return (
        f"WITH tc AS (SELECT doc_id, regexp_extract_all("
        f"lower(coalesce(text, '')), '{TOKEN_RE_SQL}') AS ts "
        "FROM documents), "
        "base AS (SELECT doc_id, CAST(len(ts) AS BIGINT) AS n_words, "
        "round(coalesce(list_sum(list_transform(ts, x -> len(x))), 0)"
        "::DOUBLE / greatest(len(ts), 1), 6) AS mean_word_len, "
        "round(len(list_filter(ts, x -> regexp_matches(x, '[a-zA-Z]')))"
        "::DOUBLE / greatest(len(ts), 1), 6) AS alpha_frac, "
        f"CAST(len(list_filter(ts, x -> list_contains({_STOP_SQL}, x))) "
        "AS BIGINT) AS stop_hits FROM tc) "
        "SELECT doc_id, n_words, mean_word_len, alpha_frac, stop_hits, "
        f"(n_words >= {GOPHER_MIN_WORDS} AND n_words <= {GOPHER_MAX_WORDS} "
        f"AND mean_word_len >= {GOPHER_MIN_MWL} "
        f"AND mean_word_len <= {GOPHER_MAX_MWL} "
        f"AND alpha_frac >= {GOPHER_MIN_ALPHA_FRAC} "
        f"AND stop_hits >= {GOPHER_MIN_STOP_HITS}) AS passes FROM base"
    )


# C4 entry injection knobs: chunk the analyzed tokens into 6-word lines,
# then deterministically violate each rule on a doc_id-derived schedule
C4_CHUNK = 6
C4_JS_MOD = 17      # (doc_id + line) % -> line gains the word 'javascript'
C4_NOPUNCT_MOD = 4  # (doc_id + line) % == 0 -> line keeps no terminal '.'
C4_SHORT_MOD = 5    # doc gains a 2-word line (fails the >=5-words rule)
C4_LOREM_MOD = 97   # doc gains a 'lorem ipsum' line (page dropped)
C4_BRACE_MOD = 89   # doc gains a '{' line (page dropped)


def q_c4_filters(sf_dir: str):
    """C4-style cleaning (Raffel et al.'s public line rules — terminal
    punctuation, >=5 words/line, no 'javascript' lines; page-level
    lorem-ipsum / curly-brace / <3-surviving-lines drops), vectorized in
    ``stages/c4.py`` (one split + one RE2 scan per rule + offsets
    regroup; no row loop).

    The synthetic corpus is single-line prose, so the entry first
    BUILDS a deterministic multi-line page per doc (6-token lines from
    the doc's own analyzed tokens, rule violations injected on
    doc_id-derived schedules — same expression in the SQL oracle), then
    cleans it; the oracle verifies line counts, the page-keep decision
    AND the cleaned text md5-exactly."""
    from ..stages.c4 import c4_clean

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        idx, toks, dl = an.standard_tokenize_batch(t["text"])
        did = t["doc_id"].to_numpy()
        n = t.num_rows
        nl = (dl // C4_CHUNK).astype(np.int64)
        parent = np.repeat(np.arange(n), nl)
        cum = np.concatenate([[0], np.cumsum(nl)])[:-1]
        li = np.arange(int(nl.sum())) - np.repeat(cum, nl)
        tok_off = np.concatenate([[0], np.cumsum(dl)])[:-1]
        starts = tok_off[parent] + C4_CHUNK * li
        sa = pa.array(starts)
        shifted = [pc.take(toks, pc.add(sa, k)) for k in range(C4_CHUNK)]
        ln = pc.binary_join_element_wise(*shifted, " ")
        key = did[parent] + li
        ln = pc.binary_join_element_wise(
            pc.cast(ln, pa.large_string()),
            pc.cast(pa.array(np.where(key % C4_JS_MOD == 0,
                                      " javascript", "")),
                    pa.large_string()),
            pc.cast(pa.array(np.where(key % C4_NOPUNCT_MOD != 0, ".", "")),
                    pa.large_string()),
            pa.scalar("", pa.large_string()))
        # per-doc extra lines on their schedules, ordered after chunks
        ex_parent, ex_li, ex_txt = [], [], []
        for mod, off, txt in (
                (C4_SHORT_MOD, 0, "too short."),
                (C4_LOREM_MOD, 1, "we sprinkle some lorem ipsum in here."),
                (C4_BRACE_MOD, 2, "this page has a { brace inside it.")):
            hit = np.flatnonzero(did % mod == 0)
            ex_parent.append(hit)
            ex_li.append(np.full(len(hit), 1_000_000 + off))
            ex_txt.extend([txt] * len(hit))
        all_parent = np.concatenate([parent, *ex_parent])
        all_li = np.concatenate([li, *ex_li])
        all_ln = pa.concat_arrays([
            pc.cast(ln, pa.large_string()).combine_chunks()
            if isinstance(ln, pa.ChunkedArray)
            else pc.cast(ln, pa.large_string()),
            pa.array(ex_txt, pa.large_string())])
        order = np.lexsort((all_li, all_parent))
        counts = np.bincount(all_parent, minlength=n)
        offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        pages = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()),
                                          all_ln.take(pa.array(order))),
            pa.scalar("\n", pa.large_string()))
        out = c4_clean(pages)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_lines": out["n_lines"],
            "n_kept": out["n_kept"],
            "keep": out["keep"],
            "cleaned_md5": _md5_batch(out["cleaned"]),
        })

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_c4_filters() -> str:
    wc = "len(regexp_extract_all(trim(x), '\\S+'))"
    line_ok = (f"regexp_matches(x, '[.!?\"]$') AND NOT "
               f"regexp_matches(x, '(?i)\\bjavascript\\b') AND {wc} >= 5")
    return (
        f"WITH tc AS (SELECT doc_id, regexp_extract_all("
        f"lower(coalesce(text, '')), '{TOKEN_RE_SQL}') AS ts "
        "FROM documents), "
        f"pos AS (SELECT doc_id, ts, unnest(range(1, len(ts) + 1, "
        f"{C4_CHUNK})) AS i FROM tc), "
        f"chunks AS (SELECT doc_id, (i - 1) // {C4_CHUNK} AS li, "
        f"array_to_string(ts[i:i+{C4_CHUNK - 1}], ' ') "
        f"|| CASE WHEN (doc_id + (i - 1) // {C4_CHUNK}) % {C4_JS_MOD} = 0 "
        "THEN ' javascript' ELSE '' END "
        f"|| CASE WHEN (doc_id + (i - 1) // {C4_CHUNK}) % {C4_NOPUNCT_MOD} "
        "<> 0 THEN '.' ELSE '' END AS ln "
        f"FROM pos WHERE i + {C4_CHUNK - 1} <= len(ts)), "
        "extras AS ("
        f"SELECT doc_id, 1000000 AS li, 'too short.' AS ln FROM tc "
        f"WHERE doc_id % {C4_SHORT_MOD} = 0 UNION ALL "
        f"SELECT doc_id, 1000001, "
        f"'we sprinkle some lorem ipsum in here.' FROM tc "
        f"WHERE doc_id % {C4_LOREM_MOD} = 0 UNION ALL "
        f"SELECT doc_id, 1000002, "
        "'this page has a { brace inside it.' FROM tc "
        f"WHERE doc_id % {C4_BRACE_MOD} = 0), "
        "pages AS (SELECT doc_id, string_agg(ln, chr(10) ORDER BY li) "
        "AS page FROM (SELECT * FROM chunks UNION ALL "
        "SELECT * FROM extras) GROUP BY 1), "
        # split of the empty page yields one empty line — same as the
        # Ray side's split_pattern("") — so counts line up for docs
        # that produced no lines at all
        "rules AS (SELECT t.doc_id, "
        "string_split(coalesce(p.page, ''), chr(10)) AS lines, "
        "coalesce(p.page, '') AS page FROM tc t "
        "LEFT JOIN pages p USING (doc_id)), "
        "scored AS (SELECT doc_id, len(lines) AS n_lines, "
        f"len(list_filter(lines, x -> {line_ok})) AS n_kept, page, "
        f"array_to_string(list_filter(lines, x -> {line_ok}), chr(10)) "
        "AS cleaned FROM rules) "
        "SELECT doc_id, n_lines::BIGINT AS n_lines, "
        "n_kept::BIGINT AS n_kept, "
        "(NOT regexp_matches(page, '(?i)lorem ipsum') "
        "AND NOT contains(page, '{') AND n_kept >= 3) AS keep, "
        "md5(CASE WHEN (NOT regexp_matches(page, '(?i)lorem ipsum') "
        "AND NOT contains(page, '{') AND n_kept >= 3) "
        "THEN cleaned ELSE '' END) AS cleaned_md5 FROM scored"
    )


def q_bigram_lm_quality(sf_dir: str):
    """CCNet-style language-model quality scoring: per-doc mean negative
    log-likelihood of its token bigrams under an add-one-smoothed bigram
    model TRAINED ON THE CORPUS ITSELF —
    ``-mean(ln((c2(w1,w2)+1) / (c1(w1)+V)))`` with V the unigram
    vocabulary size. Low scores = predictable (fluent/repetitive) text,
    high = noise; the standard perplexity-filter signal for web-crawl
    curation.

    Scale shape: pass 1 builds the count tables with per-batch partial
    counts shuffled by gram (exchange bounded by bigram vocabulary, not
    corpus size) and broadcasts them once via ``ray.put``; pass 2 scores
    each batch vectorized (pandas hash-map gather + one bincount per
    batch). At open-web vocabulary sizes the broadcast becomes the
    pruned-model route (count-min sketch or top-K model — the standard
    KenLM-filter deployment); the full-count path here is the exactness
    oracle for it."""
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"

    def gram_parts(t: pa.Table) -> pa.Table:
        _idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        idx = _idx
        if len(toks) == 0:
            return pa.table({"gram": pa.array([], pa.string()),
                             "kind": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        uni = (pa.table({"gram": toks})
               .group_by("gram").aggregate([([], "count_all")]))
        parts = [pa.table({"gram": uni["gram"],
                           "kind": pa.array(["u"] * len(uni), pa.string()),
                           "cnt": pc.cast(uni["count_all"], pa.int64())})]
        if len(toks) >= 2:
            same = np.flatnonzero(idx[1:] == idx[:-1])
            if len(same):
                t1 = toks.take(pa.array(same))
                t2 = toks.take(pa.array(same + 1))
                key = pc.binary_join_element_wise(t1, t2, "\x00")
                bi = (pa.table({"gram": key})
                      .group_by("gram").aggregate([([], "count_all")]))
                parts.append(pa.table({
                    "gram": bi["gram"],
                    "kind": pa.array(["b"] * len(bi), pa.string()),
                    "cnt": pc.cast(bi["count_all"], pa.int64())}))
        return pa.concat_tables(parts)

    counts = (rd.read_parquet(path, columns=["text"])
              .map_batches(gram_parts, batch_format="pyarrow")
              .groupby(["gram", "kind"])
              .aggregate(Sum("cnt", alias_name="cnt"))
              .to_arrow_refs())
    c1: dict[str, int] = {}
    c2: dict[str, int] = {}
    for ref in counts:  # bounded by vocabulary, not corpus
        t = ray.get(ref)
        for g, k, c in zip(t["gram"].to_pylist(), t["kind"].to_pylist(),
                           t["cnt"].to_pylist()):
            (c1 if k == "u" else c2)[g] = int(c)
    v = float(len(c1))
    model_ref = ray.put((c1, c2, v))

    def score(t: pa.Table) -> pa.Table:
        m1, m2, vv = ray.get(model_ref)
        idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_bigrams": pa.array([], pa.int64()),
                          "lm_score": pa.array([], pa.float64())})
        if len(toks) < 2:
            return empty
        same = np.flatnonzero(idx[1:] == idx[:-1])
        if len(same) == 0:
            return empty
        t1 = toks.take(pa.array(same))
        key = pc.binary_join_element_wise(
            t1, toks.take(pa.array(same + 1)), "\x00")
        cb = pd.Series(key.to_pandas()).map(m2).to_numpy(np.float64)
        cu = pd.Series(t1.to_pandas()).map(m1).to_numpy(np.float64)
        nll = -np.log((cb + 1.0) / (cu + vv))
        rows = idx[same]  # batch row of each bigram
        nb = np.bincount(rows, minlength=t.num_rows)
        sums = np.bincount(rows, weights=nll, minlength=t.num_rows)
        keep = np.flatnonzero(nb > 0)
        return pa.table({
            "doc_id": t["doc_id"].take(pa.array(keep)),
            "n_bigrams": pa.array(nb[keep], pa.int64()),
            "lm_score": pa.array(np.round(sums[keep] / nb[keep], 6),
                                 pa.float64()),
        })

    return rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


SQL_BIGRAM_LM = (
    "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
    f"'{TOKEN_RE_SQL}') AS l FROM documents), "
    "pos AS (SELECT doc_id, unnest(l) AS term, "
    "unnest(range(1, len(l) + 1)) AS p FROM docs), "
    "big AS (SELECT doc_id, term AS w1, lead(term) OVER ("
    "PARTITION BY doc_id ORDER BY p) AS w2 FROM pos), "
    "c2 AS (SELECT w1, w2, count(*) AS c FROM big "
    "WHERE w2 IS NOT NULL GROUP BY 1, 2), "
    "c1 AS (SELECT term, count(*) AS c FROM pos GROUP BY 1), "
    "v AS (SELECT count(*)::DOUBLE AS v FROM c1), "
    "sc AS (SELECT b.doc_id, -ln((c2.c + 1) / (c1.c + v.v)) AS nll "
    "FROM big b JOIN c2 ON c2.w1 = b.w1 AND c2.w2 = b.w2 "
    "JOIN c1 ON c1.term = b.w1 CROSS JOIN v WHERE b.w2 IS NOT NULL) "
    "SELECT doc_id, count(*)::BIGINT AS n_bigrams, "
    "round(avg(nll), 6) AS lm_score FROM sc GROUP BY 1"
)


DSIR_BUCKETS = 1024
DSIR_TARGET_LANG = "en"


def _md5_bucket(grams: list[str], n_buckets: int | None = None) -> np.ndarray:
    """md5-derived feature bucket: first 6 hex chars as an integer,
    mod ``n_buckets`` (default ``DSIR_BUCKETS``) — cheap, stable, and
    expressible in the DuckDB oracle (hex-digit polynomial over
    ``md5(gram)``)."""
    import hashlib

    B = DSIR_BUCKETS if n_buckets is None else n_buckets
    return np.fromiter(
        (int(hashlib.md5(g.encode()).hexdigest()[:6], 16) % B
         for g in grams), dtype=np.int64, count=len(grams))


def _sql_md5_bucket(expr: str, n_buckets: int | None = None) -> str:
    B = DSIR_BUCKETS if n_buckets is None else n_buckets
    terms = " + ".join(
        f"(strpos('0123456789abcdef', substr(md5({expr}), {i + 1}, 1)) - 1)"
        f"::BIGINT * {16 ** (5 - i)}" for i in range(6))
    return f"(({terms}) % {B})"


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): per-doc log importance
    weight ``sum_f c_f * (ln p_f - ln q_f)`` over HASHED unigram+bigram
    features, where ``p`` is the target distribution (here docs with
    ``lang='en'``) and ``q`` the raw-pool distribution, both add-one
    smoothed over ``DSIR_BUCKETS`` buckets. High-weight docs are the
    ones importance resampling would keep.

    Scale shape: hashing is THE scale mechanism (the feature space is
    fixed at B buckets regardless of corpus vocabulary); pass 1 reduces
    per-batch bucket partials through a groupby-sum bounded by B and
    broadcasts the B-sized log-ratio vector once via ``ray.put``; pass 2
    scores each batch with a factorize + gather + bincount — no Python
    in the per-instance path (md5 runs once per DISTINCT gram per
    batch)."""
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    B = DSIR_BUCKETS

    def gram_keys(t: pa.Table):
        idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        if len(toks) == 0:
            return None
        parts = [toks]
        rows = [idx]
        same = np.flatnonzero(idx[1:] == idx[:-1])
        if len(same):
            parts.append(pc.binary_join_element_wise(
                toks.take(pa.array(same)), toks.take(pa.array(same + 1)),
                " "))
            rows.append(idx[same])
        grams = pa.concat_arrays([pc.cast(p, pa.string()) for p in parts])
        return np.concatenate(rows), grams

    def bucket_of(grams: pa.Array) -> np.ndarray:
        codes, uniq = pd.factorize(grams.to_pandas())
        return _md5_bucket(list(uniq))[codes]

    def bucket_parts(t: pa.Table) -> pa.Table:
        gk = gram_keys(t)
        if gk is None:
            return pa.table({"b": pa.array([], pa.int64()),
                             "ct": pa.array([], pa.int64()),
                             "cs": pa.array([], pa.int64())})
        rows, grams = gk
        b = bucket_of(grams)
        is_tgt = np.asarray(pc.equal(
            pc.fill_null(t["lang"], ""), DSIR_TARGET_LANG))[rows]
        cs = np.bincount(b, minlength=B)
        ct = np.bincount(b[is_tgt], minlength=B)
        keep = np.flatnonzero(cs)
        return pa.table({"b": pa.array(keep, pa.int64()),
                         "ct": pa.array(ct[keep], pa.int64()),
                         "cs": pa.array(cs[keep], pa.int64())})

    parts = (rd.read_parquet(path, columns=["text", "lang"])
             .map_batches(bucket_parts, batch_format="pyarrow")
             .groupby("b")
             .aggregate(Sum("ct", alias_name="ct"),
                        Sum("cs", alias_name="cs"))
             .to_pandas())  # bounded by B buckets, never corpus-sized
    ct = np.zeros(B, np.int64)
    cs = np.zeros(B, np.int64)
    ct[parts["b"].to_numpy()] = parts["ct"].to_numpy()
    cs[parts["b"].to_numpy()] = parts["cs"].to_numpy()
    tt, ts = int(ct.sum()), int(cs.sum())
    lam = (np.log((ct + 1.0) / (tt + B)) - np.log((cs + 1.0) / (ts + B)))
    lam_ref = ray.put(lam)

    def score(t: pa.Table) -> pa.Table:
        lam_v = ray.get(lam_ref)
        gk = gram_keys(t)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_feats": pa.array([], pa.int64()),
                          "log_weight": pa.array([], pa.float64())})
        if gk is None:
            return empty
        rows, grams = gk
        w = lam_v[bucket_of(grams)]
        nf = np.bincount(rows, minlength=t.num_rows)
        sums = np.bincount(rows, weights=w, minlength=t.num_rows)
        keep = np.flatnonzero(nf > 0)
        return pa.table({
            "doc_id": t["doc_id"].take(pa.array(keep)),
            "n_feats": pa.array(nf[keep], pa.int64()),
            "log_weight": pa.array(np.round(sums[keep], 6), pa.float64()),
        })

    return rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


def _sql_dsir_weights() -> str:
    B = DSIR_BUCKETS
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS l FROM documents), "
        "pos AS (SELECT doc_id, unnest(l) AS term, "
        "unnest(range(1, len(l) + 1)) AS p FROM docs), "
        "big AS (SELECT doc_id, term AS w1, lead(term) OVER ("
        "PARTITION BY doc_id ORDER BY p) AS w2 FROM pos), "
        "grams AS (SELECT doc_id, term AS gram FROM pos UNION ALL "
        "SELECT doc_id, w1 || ' ' || w2 FROM big WHERE w2 IS NOT NULL), "
        f"bk AS (SELECT doc_id, {_sql_md5_bucket('gram')} AS b "
        "FROM grams), "
        "tgt AS (SELECT doc_id FROM documents "
        f"WHERE lang = '{DSIR_TARGET_LANG}'), "
        "cnts AS (SELECT b, count(*)::BIGINT AS cs, "
        "count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM tgt))"
        "::BIGINT AS ct FROM bk GROUP BY 1), "
        "tot AS (SELECT sum(cs)::BIGINT AS ts, sum(ct)::BIGINT AS tt "
        "FROM cnts), "
        f"lam AS (SELECT b, ln((ct + 1)::DOUBLE / (tt + {B})) "
        f"- ln((cs + 1)::DOUBLE / (ts + {B})) AS lam "
        "FROM cnts CROSS JOIN tot) "
        "SELECT bk.doc_id, count(*)::BIGINT AS n_feats, "
        "round(sum(lam.lam), 6) AS log_weight "
        "FROM bk JOIN lam USING (b) GROUP BY 1"
    )


RRF_K = 60          # ES rank_constant default
RRF_WINDOW = 50     # ES rank_window_size per ranking
RRF_DIM = 64        # hashed-BoW vector dimension
RRF_TOPK = 10
RRF_QUERY = "the fast data"


def q_rrf_hybrid(sf_dir: str):
    """ES 8 hybrid retrieval with reciprocal rank fusion: a lexical
    BM25 ranking and a "vector" ranking (cosine over hashed
    bag-of-words doc vectors — the deterministic stand-in for a dense
    embedding model, same hash as the DSIR features) each produce their
    top-``RRF_WINDOW``; fused score = sum over rankings of
    ``1 / (RRF_K + rank)`` (missing -> 0), top-``RRF_TOPK`` by (fused
    desc, doc_id asc) — exactly ES's rrf retriever reduce.

    Scale shape: ranking A is the ordinary distributed BM25 search;
    ranking B is one map_batches pass emitting per-block top-W cosine
    partials (query vector broadcast inline — RRF_DIM ints); the fuse
    runs on 2 x RRF_WINDOW rows."""
    from ..index.search import query_terms

    idx = _ensure_doc_index(sf_dir)
    # ranking A: BM25 top-W
    queries = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "query": pa.array([RRF_QUERY], pa.string()),
        "k": pa.array([RRF_WINDOW + 20], pa.int64()),
    })
    res = search(idx, queries).to_pandas()
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    ranked_a = _round_rerank(res, RRF_WINDOW, "query_id", "score",
                             "doc_id").to_pandas()
    rank_a = dict(zip(ranked_a["doc_id"].astype(int),
                      ranked_a["rank"].astype(int)))
    # ranking B: hashed-BoW cosine top-W (distributed partials)
    q_terms = query_terms(RRF_QUERY)
    qv = np.bincount(_md5_bucket(q_terms, RRF_DIM),
                     minlength=RRF_DIM).astype(np.int64)
    nb = float(np.sqrt((qv ** 2).sum()))

    def bow_topw(t: pa.Table) -> pa.Table:
        idx_, toks, _dl = an.standard_tokenize_batch(t["text"])
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "cos": pa.array([], pa.float64())})
        if len(toks) == 0:
            return empty
        codes, uniq = pd.factorize(toks.to_pandas())
        bk = _md5_bucket(list(uniq), RRF_DIM)[codes]
        rows = idx_.astype(np.int64)
        pair, cnt = np.unique(rows * RRF_DIM + bk, return_counts=True)
        prow = (pair // RRF_DIM).astype(np.int64)
        pbkt = (pair % RRF_DIM).astype(np.int64)
        n = t.num_rows
        dot = np.zeros(n, np.int64)
        na = np.zeros(n, np.int64)
        np.add.at(dot, prow, cnt * qv[pbkt])
        np.add.at(na, prow, cnt * cnt)
        keep = np.flatnonzero(dot > 0)
        if len(keep) == 0:
            return empty
        cos = np.round(dot[keep]
                       / (np.sqrt(na[keep].astype(np.float64)) * nb), 6)
        did = t["doc_id"].to_numpy()[keep]
        sel = np.lexsort((did, -cos))[:RRF_WINDOW]
        return pa.table({"doc_id": pa.array(did[sel], pa.int64()),
                         "cos": pa.array(cos[sel], pa.float64())})

    parts = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])
             .map_batches(bow_topw, batch_format="pyarrow")
             .to_pandas())  # <= W x blocks rows
    parts = parts.sort_values(["cos", "doc_id"],
                              ascending=[False, True]).head(RRF_WINDOW)
    rank_b = {int(d): r for r, d in enumerate(parts["doc_id"], start=1)}
    # fuse
    fused = []
    for d in set(rank_a) | set(rank_b):
        s = 0.0
        if d in rank_a:
            s += 1.0 / (RRF_K + rank_a[d])
        if d in rank_b:
            s += 1.0 / (RRF_K + rank_b[d])
        fused.append((d, round(s, 6)))
    fused.sort(key=lambda x: (-x[1], x[0]))
    fused = fused[:RRF_TOPK]
    return pa.table({
        "rank": pa.array(range(1, len(fused) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in fused], pa.int64()),
        "rrf_score": pa.array([s for _, s in fused], pa.float64()),
    })


def _sql_rrf_hybrid() -> str:
    from ..index.search import query_terms

    terms = query_terms(RRF_QUERY)
    vals = ", ".join(f"('{t}')" for t in terms)
    qv = np.bincount(_md5_bucket(terms, RRF_DIM),
                     minlength=RRF_DIM).astype(np.int64)
    nz = np.flatnonzero(qv)
    qvals = ", ".join(f"({int(b)}, {int(qv[b])})" for b in nz)
    nb_sq = int((qv ** 2).sum())
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "scored AS (SELECT tf.doc_id, "
        "round(sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))), 6) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1), "
        "ranked_a AS (SELECT doc_id, row_number() OVER "
        "(ORDER BY score DESC, doc_id ASC) AS ra FROM scored "
        f"ORDER BY score DESC, doc_id ASC LIMIT {RRF_WINDOW}), "
        # hashed-BoW cosine ranking (same md5-bucket hash as DSIR)
        f"bk AS (SELECT doc_id, {_sql_md5_bucket('term', RRF_DIM)} AS b, "
        "count(*) AS c FROM toks GROUP BY 1, 2), "
        f"qv(b, qc) AS (VALUES {qvals}), "
        "dotna AS (SELECT bk.doc_id, "
        "sum(bk.c * coalesce(qv.qc, 0))::BIGINT AS dot, "
        "sum(bk.c * bk.c)::BIGINT AS na "
        "FROM bk LEFT JOIN qv USING (b) GROUP BY 1), "
        "cosd AS (SELECT doc_id, round(dot / (sqrt(na) * "
        f"sqrt({nb_sq})), 6) AS cos FROM dotna WHERE dot > 0), "
        "ranked_b AS (SELECT doc_id, row_number() OVER "
        "(ORDER BY cos DESC, doc_id ASC) AS rb FROM cosd "
        f"ORDER BY cos DESC, doc_id ASC LIMIT {RRF_WINDOW}), "
        "fused AS (SELECT coalesce(a.doc_id, b.doc_id) AS doc_id, "
        f"round(coalesce(1.0 / ({RRF_K} + a.ra), 0) "
        f"+ coalesce(1.0 / ({RRF_K} + b.rb), 0), 6) AS rrf_score "
        "FROM ranked_a a FULL OUTER JOIN ranked_b b USING (doc_id)) "
        "SELECT row_number() OVER (ORDER BY rrf_score DESC, doc_id ASC)"
        "::BIGINT AS rank, doc_id, rrf_score FROM fused "
        f"ORDER BY rrf_score DESC, doc_id ASC LIMIT {RRF_TOPK}"
    )


CHUNK_W = 64


def q_token_chunks(sf_dir: str):
    """Context-window chunking — the standard LLM-pretraining packing
    op: split every document into fixed ``CHUNK_W``-token windows
    (non-overlapping; the last window keeps the remainder) and emit one
    row per chunk with its token count and an md5 fingerprint of the
    space-joined tokens (the dedup/lineage key downstream packers use).
    Flat-map shape: one vectorized tokenize per batch, numpy position
    arithmetic for the chunk ids; the per-chunk join+hash is
    output-row-bounded work, exactly like the sample/fingerprint
    entries."""
    path = f"{sf_dir}/documents.parquet"

    def chunks(t: pa.Table) -> pa.Table:
        idx, toks, dls = an.standard_tokenize_batch(t["text"])
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "chunk_id": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "chunk_hash": pa.array([], pa.string())})
        if len(toks) == 0:
            return empty
        starts = np.concatenate(([0], np.cumsum(dls)[:-1]))
        pos = np.arange(len(toks)) - np.repeat(starts, dls)
        df = pd.DataFrame({"row": idx, "chunk_id": pos // CHUNK_W,
                           "tok": toks.to_pandas()})
        g = (df.groupby(["row", "chunk_id"], sort=True)["tok"]
             .agg([("joined", " ".join), ("n_tokens", "size")])
             .reset_index())
        ids = t["doc_id"].to_numpy()
        return pa.table({
            "doc_id": pa.array(ids[g["row"].to_numpy()], pa.int64()),
            "chunk_id": pa.array(g["chunk_id"].to_numpy(), pa.int64()),
            "n_tokens": pa.array(g["n_tokens"].to_numpy(), pa.int64()),
            "chunk_hash": pa.array(
                [hashlib.md5(s.encode()).hexdigest()
                 for s in g["joined"]], pa.string()),
        })

    return rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        chunks, batch_format="pyarrow")


SQL_TOKEN_CHUNKS = (
    "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
    f"'{TOKEN_RE_SQL}') AS l FROM documents), "
    "pos AS (SELECT doc_id, unnest(l) AS term, "
    "unnest(range(0, len(l))) AS p FROM docs) "
    f"SELECT doc_id, (p // {CHUNK_W})::BIGINT AS chunk_id, "
    "count(*)::BIGINT AS n_tokens, "
    "md5(string_agg(term, ' ' ORDER BY p)) AS chunk_hash "
    f"FROM pos GROUP BY doc_id, p // {CHUNK_W}"
)


PERC_QUERIES = [
    (0, "data query", "or"),
    (1, "hash join", "and"),
    (2, "slow scan", "or"),
    (3, "the data query", "and"),
    (4, "stream", "or"),
]


def q_percolate_match(sf_dir: str):
    """ES percolator (reverse search): STORED queries are matched
    against a stream of documents — the alerting/classification shape.
    The analyzed query term sets broadcast once via ``ray.put``; each
    batch tokenizes its docs once and answers every stored query with
    set-membership tests on the flat (row, token) arrays: OR = any
    query term present, AND = all present (distinct matched terms per
    row counted with one np.unique pass per query). Emits
    (query_id, doc_id) matches."""
    path = f"{sf_dir}/documents.parquet"
    specs = [(qid, sorted({t for t in
                           an.analyze("standard", q)}), kind)
             for qid, q, kind in PERC_QUERIES]
    specs_ref = ray.put(specs)

    def perc(t: pa.Table) -> pa.Table:
        sp = ray.get(specs_ref)
        idx, toks, _dl = an.standard_tokenize_batch(t["text"])
        ids = t["doc_id"].to_numpy()
        out_q, out_d = [], []
        if len(toks):
            tok_pd = toks.to_pandas()
            for qid, terms, kind in sp:
                mask = tok_pd.isin(terms).to_numpy()
                rows = idx[mask]
                if kind == "or":
                    docs = np.unique(rows)
                else:
                    mt = tok_pd.to_numpy()[mask]
                    pairs = np.unique(
                        np.stack([rows, pd.factorize(mt)[0]], axis=1),
                        axis=0)
                    r, cnt = np.unique(pairs[:, 0], return_counts=True)
                    docs = r[cnt == len(terms)]
                out_q.extend([qid] * len(docs))
                out_d.extend(ids[docs].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "doc_id": pa.array(out_d, pa.int64())})

    return rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        perc, batch_format="pyarrow")


def _sql_percolate_match() -> str:
    parts = []
    for qid, q, kind in PERC_QUERIES:
        from ..functions.analyzers import analyze

        terms = sorted({t for t in analyze("standard", q)})
        inlist = ", ".join(f"'{t}'" for t in terms)
        if kind == "or":
            parts.append(
                f"SELECT {qid} AS query_id, doc_id FROM toks "
                f"WHERE term IN ({inlist}) GROUP BY 1, 2")
        else:
            parts.append(
                f"SELECT {qid} AS query_id, doc_id FROM toks "
                f"WHERE term IN ({inlist}) GROUP BY 1, 2 "
                f"HAVING count(DISTINCT term) = {len(terms)}")
    return (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
        f"lower(text), '{TOKEN_RE_SQL}')) AS term FROM documents) "
        + " UNION ALL ".join(parts)
    )


def q_fingerprint(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        # explicit ASCII whitespace class: RE2 \s is ASCII-only while the
        # old Python-loop \s was Unicode-wide — the class keeps the
        # normalization identical to the SQL oracle's regexp_replace
        norm = pc.utf8_trim(
            pc.replace_substring_regex(
                pc.utf8_lower(pc.fill_null(t["text"], "")),
                pattern=r"[ \t\n\r\f\v]+", replacement=" "),
            characters=" ")
        return pa.table({"doc_id": t["doc_id"],
                         "fingerprint": _md5_batch(norm)})

    return ds.map_batches(xf, batch_format="pyarrow")


SQL_FINGERPRINT = (
    "SELECT doc_id, md5(trim(regexp_replace(lower(coalesce(text, '')), "
    "'[ \\t\\n\\r\\f\\v]+', ' ', 'g'))) AS fingerprint FROM documents"
)


def q_pii_redact(sf_dir: str):
    """PII detection + redaction (emails / IPv4s / phone numbers) — the
    pretraining-hygiene scrub, fully vectorized (one RE2 scan per
    pattern via pyarrow.compute, no row loop; ``stages/pii.py``).

    The synthetic corpus carries no PII, so the entry first INJECTS
    deterministic doc_id-derived PII spans (same expression in the SQL
    oracle), then counts matches on the injected text and md5-hashes the
    redacted output — the oracle verifies both detection and redaction
    byte-exactly."""
    from ..stages.pii import pii_counts, pii_redact

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def xf(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        ids = did.astype("U20")
        em = np.where(
            did % 7 == 0,
            np.char.add(np.char.add(" contact user", ids), "@example.com"),
            "")
        ip = np.where(
            did % 11 == 0,
            np.char.add(np.char.add(np.char.add(
                " from 10.0.", (did % 250).astype("U3")), "."),
                ((did // 250) % 250).astype("U3")),
            "")
        ph = np.where(
            did % 13 == 0,
            np.char.add(np.char.add(np.char.add(np.char.add(np.char.add(
                " call ", (100 + did % 900).astype("U3")), "-"),
                np.char.zfill((did % 1000).astype("U4"), 3)), "-"),
                np.char.zfill((did % 10000).astype("U5"), 4)),
            "")
        inj = np.char.add(np.char.add(em, ip), ph)
        t2 = pc.binary_join_element_wise(
            pc.fill_null(t["text"], ""), pa.array(inj, pa.string()), "")
        out = {"doc_id": t["doc_id"]}
        out.update(pii_counts(t2))
        out["redacted_md5"] = _md5_batch(pii_redact(t2))
        return pa.table(out)

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_pii_redact() -> str:
    from ..stages.pii import PII_PATTERNS

    pats = {name: pat for name, pat, _rep in PII_PATTERNS}
    red = "t2"
    for name, pat, rep in PII_PATTERNS:
        red = f"regexp_replace({red}, '{pat}', '{rep}', 'g')"
    return (
        "WITH base AS (SELECT doc_id, coalesce(text, '') || "
        "CASE WHEN doc_id % 7 = 0 THEN ' contact user' || doc_id || "
        "'@example.com' ELSE '' END || "
        "CASE WHEN doc_id % 11 = 0 THEN ' from 10.0.' || (doc_id % 250) "
        "|| '.' || ((doc_id // 250) % 250) ELSE '' END || "
        "CASE WHEN doc_id % 13 = 0 THEN ' call ' || (100 + doc_id % 900) "
        "|| '-' || lpad((doc_id % 1000)::VARCHAR, 3, '0') || '-' || "
        "lpad((doc_id % 10000)::VARCHAR, 4, '0') ELSE '' END AS t2 "
        "FROM documents) "
        "SELECT doc_id, "
        f"len(regexp_extract_all(t2, '{pats['email']}'))::BIGINT AS n_email, "
        f"len(regexp_extract_all(t2, '{pats['ipv4']}'))::BIGINT AS n_ipv4, "
        f"len(regexp_extract_all(t2, '{pats['phone']}'))::BIGINT AS n_phone, "
        f"md5({red}) AS redacted_md5 FROM base"
    )


# ---------------------------------------------------------------------------
# Flagship: BM25 top-k over the documents table
# ---------------------------------------------------------------------------

DOC_QUERIES = [
    "query scan", "the fast join", "window agg", "hash",
    "customer order line", "zzqmissing", "table part value",
    "slow filter the data",
]
DOC_K = 10


def _code_fingerprint() -> str:
    """Version tag for cached catalog indexes: package version + git HEAD
    (best effort), so caches from an older code state are rebuilt."""
    from .. import __version__

    tag = __version__
    try:
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        head = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=5)
        if head.returncode == 0:
            tag += "+" + head.stdout.strip()
    except Exception:
        pass
    return tag


# 2024-01-01T00:00:00Z in epoch microseconds (see _docs_to_corpus)
_WARC_EPOCH_US = 1_704_067_200_000_000


def _docs_to_corpus(t: pa.Table) -> pa.Table:
    """documents batch -> corpus schema; doc ids are preserved by using the
    zero-padded doc_id as the url (doc_id rank == url rank for the dense ids
    of the fixture tables)."""
    keep = pc.and_(t["text"].is_valid(), pc.not_equal(t["text"], ""))
    t = t.filter(keep)
    urls = pc.utf8_lpad(pc.cast(t["doc_id"], pa.string()), 15, "0")
    n = t.num_rows
    # deterministic crawl timestamp: epoch 2024-01-01 + doc_id hours — the
    # date_histogram serving agg needs a real warc_ts, and the SQL oracle
    # reproduces the same synthesis (documents.parquet has no timestamp)
    ts_us = (_WARC_EPOCH_US
             + t["doc_id"].to_numpy().astype(np.int64) * 3_600_000_000)
    return pa.table({
        "url": urls,
        "warc_ts": pa.array(ts_us, pa.timestamp("us")),
        "text": pc.cast(t["text"], pa.large_string()),
        "lang": t["lang"],
        "source": t["source"],
        "doc_len": pa.array(an.token_count_batch(
            pc.cast(t["text"], pa.large_string())), pa.int32()),
    })


def _ensure_doc_index(sf_dir: str, positions: bool = False) -> str:
    """Build (once per process per sf_dir x code state) the BM25 index over
    the documents table; ``positions=True`` builds the phrase-capable
    variant in a separate cache dir."""
    tag = _code_fingerprint()
    key = hashlib.md5(sf_dir.encode()).hexdigest()[:12]
    kind = "phrase_docs" if positions else "bm25_docs"
    idx = f"/tmp/edlr_cache/{kind}_{key}"
    marker = os.path.join(idx, "_CATALOG_OK")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == tag:  # stale-format guard across rounds
                return idx
    shutil.rmtree(idx, ignore_errors=True)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"])
    corpus = ds.map_batches(_docs_to_corpus, batch_format="pyarrow")
    build_index_from_corpus(corpus, idx,
                            BuildConfig(docs_per_segment=2000,
                                        index_positions=positions))
    with open(marker, "w") as f:
        f.write(tag)
    return idx


_DOCID_MAPS: dict[str, np.ndarray] = {}


def _docid_map(idx: str) -> np.ndarray:
    """engine doc_id (rank of url) -> ORIGINAL documents.doc_id.

    The corpus url is the zero-padded original doc_id, so the docs tables
    carry the mapping; relying on rank == original id would silently shift
    every result after one invalid-text row or any gap in doc_id density
    (ADVICE r1). Cached per index dir (tiny: one int per doc).
    """
    got = _DOCID_MAPS.get(idx)
    if got is not None:
        return got
    import pyarrow.parquet as pq_

    from ..index import manifest as mfmod
    from ..index.build import seg_docs_path

    segs = sorted(mfmod.committed_segments(idx))
    t = pq_.read_table([seg_docs_path(idx, s) for s in segs],
                       columns=["doc_id", "url"])
    arr = np.full(t.num_rows, -1, dtype=np.int64)
    arr[t["doc_id"].to_numpy()] = np.asarray(
        [int(u) for u in t["url"].to_pylist()], dtype=np.int64)
    _DOCID_MAPS[idx] = arr
    return arr


def _round_rerank(res, k: int, group_col: str, score_col: str,
                  id_col: str) -> pa.Table:
    """Round scores to 6dp, re-rank within each group by (rounded desc,
    id asc), keep top k — the shared oracle-parity post-processing."""
    res[score_col] = np.round(res[score_col].to_numpy(), 6)
    res = res.sort_values([group_col, score_col, id_col],
                          ascending=[True, False, True])
    res["rank"] = res.groupby(group_col).cumcount() + 1
    res = res[res["rank"] <= k]
    return pa.Table.from_pandas(
        res[[group_col, "rank", id_col, score_col]].reset_index(drop=True))


def q_bm25_topk(sf_dir: str):
    """Full engine path: documents -> corpus -> segment index -> BM25 top-k."""
    idx = _ensure_doc_index(sf_dir)

    queries = pa.table({
        "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
        "query": pa.array(DOC_QUERIES, pa.string()),
        "k": pa.array([DOC_K + 20] * len(DOC_QUERIES), pa.int64()),
    })
    res = search(idx, queries).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


UBQ_FILTER = "spark"
UBQ_LANG = "upd"


def q_update_by_query(sf_dir: str):
    """ES _update_by_query (index/append.py::update_by_query): docs
    matching the filter get ``lang='upd'`` and re-ingest as an upsert
    generation (url identity tombstones the old versions atomically),
    then a terms agg over the UPDATED index shows the moved buckets —
    per-generation doc-value resolution must serve the new lang for
    updated docs and the old one for everything else. Runs on a COPY of
    the cached index (updates mutate)."""
    import tempfile as _tf

    from ..index.aggs import terms_agg
    from ..index.append import update_by_query

    src = _ensure_doc_index(sf_dir)
    work = _tf.mkdtemp(prefix="edlr_ubq_")
    idx = os.path.join(work, "idx")
    shutil.copytree(src, idx)
    update_by_query(idx, UBQ_FILTER, {"lang": UBQ_LANG})
    out = terms_agg(idx, TERMS_AGG_QUERY, "lang", size=10,
                    metric_field="text")
    shutil.rmtree(work, ignore_errors=True)
    return out


def _sql_update_by_query() -> str:
    from ..index.search import query_terms

    fvals = ", ".join(f"('{t}')" for t in query_terms(UBQ_FILTER))
    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"fq(term) AS (VALUES {fvals}), "
        "updd AS (SELECT DISTINCT toks.doc_id FROM toks "
        "JOIN fq USING (term)), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "keyed AS (SELECT h.doc_id, CASE WHEN u.doc_id IS NOT NULL "
        f"THEN '{UBQ_LANG}' ELSE d.lang END AS key FROM hits h "
        "JOIN docs d USING (doc_id) "
        "LEFT JOIN updd u ON u.doc_id = h.doc_id) "
        "SELECT key, doc_count, avg_word_count FROM ("
        "SELECT k.key, count(*)::BIGINT AS doc_count, "
        "sum(coalesce(dl.dl, 0))::DOUBLE / count(*) AS avg_word_count "
        "FROM keyed k LEFT JOIN dl USING (doc_id) "
        "WHERE k.key IS NOT NULL GROUP BY 1) "
        "ORDER BY doc_count DESC, key ASC LIMIT 10"
    )


REINDEX_FILTER = "spark"
REINDEX_SEARCH = "the data"
REINDEX_K = 10


def q_reindex_filtered(sf_dir: str):
    """ES _reindex with a query filter (index/export.py::
    reindex_matches): stream the docs matching ``REINDEX_FILTER`` out
    of the source index (lazy scroll Dataset) into a FRESH index, then
    BM25-search the destination — df/avgdl recomputed over the
    sub-corpus, which the oracle mirrors by scoring over the filtered
    doc set only."""
    import tempfile as _tf

    from ..index.export import reindex_matches

    idx = _ensure_doc_index(sf_dir)
    dest = _tf.mkdtemp(prefix="edlr_reindex_")
    shutil.rmtree(dest, ignore_errors=True)
    reindex_matches(idx, dest, REINDEX_FILTER)
    queries = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "query": pa.array([REINDEX_SEARCH], pa.string()),
        "k": pa.array([REINDEX_K + 20], pa.int64()),
    })
    res = search(dest, queries).to_pandas()
    res["doc_id"] = _docid_map(dest)[res["doc_id"].to_numpy()]
    out = _round_rerank(res, REINDEX_K, "query_id", "score", "doc_id")
    shutil.rmtree(dest, ignore_errors=True)
    return out


def _sql_reindex_filtered() -> str:
    from ..index.search import query_terms

    fvals = ", ".join(f"('{t}')" for t in query_terms(REINDEX_FILTER))
    svals = ", ".join(f"('{t}')" for t in query_terms(REINDEX_SEARCH))
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs0 AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks0 AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs0), "
        f"fq(term) AS (VALUES {fvals}), "
        # the reindexed sub-corpus: docs matching the filter query
        "docs AS (SELECT DISTINCT toks0.doc_id FROM toks0 "
        "JOIN fq USING (term)), "
        "toks AS (SELECT toks0.doc_id, term FROM toks0 "
        "JOIN docs USING (doc_id)), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {svals}), "
        "scored AS (SELECT tf.doc_id, "
        "round(sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))), 6) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1) "
        "SELECT 0::BIGINT AS query_id, row_number() OVER "
        "(ORDER BY score DESC, doc_id ASC)::BIGINT AS rank, doc_id, score "
        f"FROM scored ORDER BY score DESC, doc_id ASC LIMIT {REINDEX_K}"
    )


def q_snapshot_restore(sf_dir: str):
    """ES _snapshot/_restore parity (index/snapshot.py): snapshot the
    built index into a content-addressed repo (incremental blobs, one
    Ray Data hashing/upload pass), restore into a FRESH directory with
    every blob checksum-verified, then serve the standard BM25 queries
    from the RESTORED index — the oracle is the ordinary bm25 SQL, so
    restore correctness is value-hash-gated, not just file-count-gated.
    A second snapshot of the unchanged index must create zero new
    blobs (the ES incremental contract), asserted inline."""
    import tempfile as _tf

    from ..index.snapshot import restore_index, snapshot_index

    idx = _ensure_doc_index(sf_dir)
    work = _tf.mkdtemp(prefix="edlr_snap_")
    repo = os.path.join(work, "repo")
    m1 = snapshot_index(idx, repo, "s1")
    m2 = snapshot_index(idx, repo, "s2")  # incremental: nothing changed
    assert m2["n_new_blobs"] == 0, m2
    restored = os.path.join(work, "restored")
    restore_index(repo, "s1", restored)
    queries = pa.table({
        "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
        "query": pa.array(DOC_QUERIES, pa.string()),
        "k": pa.array([DOC_K + 20] * len(DOC_QUERIES), pa.int64()),
    })
    res = search(restored, queries).to_pandas()
    res["doc_id"] = _docid_map(restored)[res["doc_id"].to_numpy()]
    out = _round_rerank(res, DOC_K, "query_id", "score", "doc_id")
    shutil.rmtree(work, ignore_errors=True)
    return out


EXPLAIN_K = 3


def q_explain_score(sf_dir: str):
    """ES _explain API: per-term BM25 breakdown (tf, df, idf,
    contribution) for each of the top-3 docs of the first three bm25
    queries — the sum of a doc's contributions is exactly its search
    score (same float64 pieces, LocalSearcher.explain)."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    inv = {int(o): e for e, o in enumerate(dmap.tolist()) if o >= 0}
    out = []
    for qid, q in enumerate(DOC_QUERIES[:3]):
        ids, sc = lo.search(q, k=DOC_K + 20)
        if len(ids) == 0:
            continue
        res = pd.DataFrame({"query_id": qid,
                            "doc_id": dmap[ids],
                            "score": sc})
        top = _round_rerank(res, EXPLAIN_K, "query_id", "score",
                            "doc_id").to_pandas()
        for orig in top["doc_id"].tolist():
            ex = lo.explain(q, inv[int(orig)])
            for r in ex["terms"]:
                if r["tf"] == 0:  # ES lists non-matching terms; the
                    continue      # oracle-checked rows are the matches
                out.append((qid, int(orig), r["term"], int(r["tf"]),
                            int(r["df"]), round(r["idf"], 6),
                            round(r["contribution"], 6)))
    if not out:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64()),
                         "idf": pa.array([], pa.float64()),
                         "contribution": pa.array([], pa.float64())})
    out.sort()
    return pa.table({
        "query_id": pa.array([r[0] for r in out], pa.int64()),
        "doc_id": pa.array([r[1] for r in out], pa.int64()),
        "term": pa.array([r[2] for r in out], pa.string()),
        "tf": pa.array([r[3] for r in out], pa.int64()),
        "df": pa.array([r[4] for r in out], pa.int64()),
        "idf": pa.array([r[5] for r in out], pa.float64()),
        "contribution": pa.array([r[6] for r in out], pa.float64()),
    })


def _sql_explain_score() -> str:
    from ..index.search import query_terms

    values = []
    for qid, q in enumerate(DOC_QUERIES[:3]):
        for t in query_terms(q):
            values.append(f"({qid}, '{t}')")
    vals = ", ".join(values)
    k1, b = codec.BM25_K1, codec.BM25_B
    contrib = (
        "ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        "s.avgdl))"
    )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {vals}), "
        "parts AS (SELECT q.query_id, tf.doc_id, q.term, tf.tf, df.df, "
        "round(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)), 6) AS idf, "
        f"round({contrib}, 6) AS contribution, {contrib} AS raw "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s), "
        "scored AS (SELECT query_id, doc_id, round(sum(raw), 6) AS score "
        "FROM parts GROUP BY 1, 2), "
        "ranked AS (SELECT query_id, doc_id, row_number() OVER ("
        "PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank "
        "FROM scored) "
        "SELECT p.query_id, p.doc_id, p.term, p.tf::BIGINT AS tf, "
        "p.df::BIGINT AS df, p.idf, p.contribution "
        "FROM parts p JOIN ranked r ON r.query_id = p.query_id "
        f"AND r.doc_id = p.doc_id WHERE r.rank <= {EXPLAIN_K} "
        "ORDER BY 1, 2, 3"
    )


def _ensure_append_index(sf_dir: str) -> str:
    """Half-build + half-append index over the documents table: docs below
    the median doc_id are built, the rest APPENDED as a second generation
    (disjoint urls -> no upserts). dl_total is integer-exact, so avgdl and
    every BM25 score match a from-scratch full build bit-for-bit — the
    full-corpus SQL is this entry's oracle."""
    from ..index.append import append_index_from_corpus

    tag = _code_fingerprint()
    key = hashlib.md5(sf_dir.encode()).hexdigest()[:12]
    idx = f"/tmp/edlr_cache/append_docs_{key}"
    marker = os.path.join(idx, "_CATALOG_OK")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == tag:
                return idx
    shutil.rmtree(idx, ignore_errors=True)
    import pyarrow.parquet as pq_

    ids = pq_.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    median = int(np.median(ids["doc_id"].to_numpy()))

    def half(lo: bool):
        ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text", "lang", "source"])
        op = (pc.less_equal if lo else pc.greater)

        def f(t: pa.Table) -> pa.Table:
            return _docs_to_corpus(t.filter(op(t["doc_id"], median)))

        return ds.map_batches(f, batch_format="pyarrow")

    cfg = BuildConfig(docs_per_segment=2000)
    build_index_from_corpus(half(True), idx, cfg)
    append_index_from_corpus(half(False), idx, cfg)
    with open(marker, "w") as f:
        f.write(tag)
    return idx


def q_incremental_append(sf_dir: str):
    """build(A) + append(B) over the documents table, then BM25 top-k —
    must equal the full-corpus build (and the full-corpus SQL oracle)
    exactly: same df (term_stats rebuilt over both generations), same
    avgdl (integer dl_total), rank ties broken on the original doc_id."""
    idx = _ensure_append_index(sf_dir)
    queries = pa.table({
        "query_id": pa.array(range(len(DOC_QUERIES)), pa.int64()),
        "query": pa.array(DOC_QUERIES, pa.string()),
        "k": pa.array([DOC_K + 20] * len(DOC_QUERIES), pa.int64()),
    })
    res = search(idx, queries).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_bm25_topk() -> str:
    from ..index.search import query_terms

    values = []
    for qid, q in enumerate(DOC_QUERIES):
        for t in query_terms(q):
            values.append(f"({qid}, '{t}')")
    vals = ", ".join(values) if values else "(NULL, NULL)"
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, '{TOKEN_RE_SQL}')) "
        "AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d LEFT JOIN "
        "(SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {vals}), "
        "scored AS (SELECT q.query_id, tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / s.avgdl))"
        ") AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


def q_function_score_topk(sf_dir: str):
    """ES function_score (field_value_factor, log1p modifier): BM25 score
    scaled by ln(1 + word_count), modifier applied before the top-k cut
    (exhaustive accumulation; the factor breaks block-max bounds)."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        ids, sc = lo.search_function_score(q, k=DOC_K + 20)
        for d, s in zip(ids, sc):
            rows.append((qid, int(dmap[int(d)]), float(s)))
    res = pd.DataFrame(rows, columns=["query_id", "doc_id", "score"])
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_function_score_topk() -> str:
    base = _sql_bm25_topk()
    old = ") AS score "
    assert old in base
    return base.replace(old, ") * ln(1 + max(dl.dl)) AS score ", 1)


BOOSTING_POS = "the data search"
BOOSTING_NEG = "slow"
BOOSTING_NB = 0.3


RANDOM_SCORE_SEED = 7
RANDOM_SCORE_QUERY = "data"


def q_random_score_topk(sf_dir: str):
    """ES function_score random_score with a fixed seed (boost_mode=
    replace): the matched docs ranked by a deterministic per-doc hash —
    ES's seeded random ordering is exactly this (a hash of seed + doc
    identity), so the result is stable across runs, machines and
    partitionings. Hash = md5('<seed>:<url>') over the doc's stable url
    key (the engine's doc ids are internal); top-10 ascending."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    ids, _sc = lo.search(RANDOM_SCORE_QUERY, k=10**9)
    orig = dmap[ids]
    hs = [hashlib.md5(f"{RANDOM_SCORE_SEED}:{o:015d}".encode()).hexdigest()
          for o in orig.tolist()]
    order = sorted(range(len(hs)), key=lambda i: (hs[i], int(orig[i])))
    top = order[:DOC_K]
    return pa.table({
        "rank": pa.array(range(1, len(top) + 1), pa.int64()),
        "doc_id": pa.array([int(orig[i]) for i in top], pa.int64()),
        "rnd_hash": pa.array([hs[i] for i in top], pa.string()),
    })


def _sql_random_score_topk() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(RANDOM_SCORE_QUERY))
    return (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
        f"lower(text), '{TOKEN_RE_SQL}')) AS term FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        f"h AS (SELECT doc_id, md5('{RANDOM_SCORE_SEED}:' || "
        "lpad(doc_id::VARCHAR, 15, '0')) AS rnd_hash FROM hits) "
        "SELECT row_number() OVER (ORDER BY rnd_hash ASC, doc_id ASC) "
        "AS rank, doc_id, rnd_hash FROM h "
        f"ORDER BY rnd_hash ASC, doc_id ASC LIMIT {DOC_K}"
    )


STRAT_N = 5


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sampling: the N pseudo-random docs per
    ``lang`` stratum, chosen by content-independent hash order
    (md5 of the doc's stable key) — the standard recipe for balanced
    eval/holdout splits over skewed corpora. Local-top-N-per-stratum
    partials per batch, merged once: the same bounded-partials shape as
    ``top_docs_per_source``, never a full sort."""
    path = f"{sf_dir}/documents.parquet"

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        hs = [hashlib.md5(f"s:{i:015d}".encode()).hexdigest()
              for i in ids.tolist()]
        df = pd.DataFrame({"lang": t["lang"].to_pandas(), "doc_id": ids,
                           "rnd_hash": hs})
        df = df[df["lang"].notna()]
        df = df.sort_values(["lang", "rnd_hash", "doc_id"])
        return pa.Table.from_pandas(
            df.groupby("lang", sort=True).head(STRAT_N),
            preserve_index=False)

    parts = (rd.read_parquet(path, columns=["doc_id", "lang"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())  # bounded: n_batches x strata x N rows
    parts = parts.sort_values(["lang", "rnd_hash", "doc_id"])
    out = parts.groupby("lang", sort=True).head(STRAT_N)
    out = out.reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


SQL_STRATIFIED_SAMPLE = (
    "WITH h AS (SELECT lang, doc_id, "
    "md5('s:' || lpad(doc_id::VARCHAR, 15, '0')) AS rnd_hash "
    "FROM documents WHERE lang IS NOT NULL) "
    "SELECT lang, doc_id, rnd_hash FROM ("
    "SELECT *, row_number() OVER (PARTITION BY lang "
    "ORDER BY rnd_hash ASC, doc_id ASC) AS rn FROM h) "
    f"WHERE rn <= {STRAT_N}"
)


DECAY_ORIGIN_H = 473352 + 500  # warc_ts synthesis epoch (2024-01-01) + 500h
DECAY_SCALE_H = 240.0
DECAY_OFFSET_H = 24.0
DECAY_DECAY = 0.5
_DECAY_SIGMA2 = (DECAY_SCALE_H * DECAY_SCALE_H) / (
    2.0 * math.log(1.0 / DECAY_DECAY))


def q_decay_score_topk(sf_dir: str):
    """ES function_score with a gauss decay on the warc_ts doc-value:
    score = BM25 * exp(-max(0, |t-origin|-offset)^2 / (2 sigma^2)) with
    distances in whole hours (exactly representable — see
    LocalSearcher._dv_hours, a memmap sidecar like the doc-length
    norms). Multiplicative factor -> exhaustive accumulation with the
    modifier applied before the top-k cut."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        ids, sc = lo.search_decay(
            q, k=DOC_K + 20, origin_hours=DECAY_ORIGIN_H,
            scale_hours=DECAY_SCALE_H, offset_hours=DECAY_OFFSET_H,
            decay=DECAY_DECAY)
        for d, s in zip(ids.tolist(), sc.tolist()):
            rows.append((qid, d, s))
    if not rows:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res = pd.DataFrame(rows, columns=["query_id", "doc_id", "score"])
    res["doc_id"] = dmap[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_decay_score_topk() -> str:
    from ..index.search import query_terms

    values = []
    for qid, q in enumerate(DOC_QUERIES):
        for t in query_terms(q):
            values.append(f"({qid}, '{t}')")
    vals = ", ".join(values)
    k1, b = codec.BM25_K1, codec.BM25_B
    # hours since the Unix epoch of the synthesized warc_ts
    hrs = ("date_diff('hour', TIMESTAMP '1970-01-01', "
           "TIMESTAMP '2024-01-01' + to_hours(tf.doc_id))::DOUBLE")
    gauss = (f"exp(-pow(greatest(abs({hrs} - {DECAY_ORIGIN_H!r}) - "
             f"{DECAY_OFFSET_H!r}, 0), 2) / {2.0 * _DECAY_SIGMA2!r})")
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {vals}), "
        "scored AS (SELECT q.query_id, tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        f"s.avgdl))) * any_value({gauss}) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


def q_boosting_topk(sf_dir: str):
    """ES boosting query: positive BM25 ranking with docs matching the
    negative query demoted by negative_boost (0.3) — demotion applied
    before the top-k cut (exhaustive accumulation; the multiplicative
    factor breaks block-max bounds, same routing as function_score)."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    ids, sc = lo.search_boosting(BOOSTING_POS, BOOSTING_NEG,
                                 negative_boost=BOOSTING_NB,
                                 k=DOC_K + 20)
    r = np.round(sc, 6)
    order = np.lexsort((ids, -r))[:DOC_K]
    return pa.table({
        "rank": pa.array(range(1, len(order) + 1), pa.int64()),
        "doc_id": pa.array(dmap[ids[order]], pa.int64()),
        "score": pa.array(r[order], pa.float64()),
    })


def _sql_boosting_topk() -> str:
    from ..index.search import query_terms

    pos_vals = ", ".join(f"('{t}')" for t in query_terms(BOOSTING_POS))
    neg_vals = ", ".join(f"('{t}')" for t in query_terms(BOOSTING_NEG))
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {pos_vals}), "
        f"neg AS (SELECT DISTINCT doc_id FROM toks "
        f"WHERE term IN (VALUES {neg_vals})), "
        "scored AS (SELECT tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1) "
        "SELECT rank, doc_id, score FROM ("
        "SELECT doc_id, round(score * CASE WHEN doc_id IN "
        f"(SELECT doc_id FROM neg) THEN {BOOSTING_NB} ELSE 1.0 END, 6) "
        "AS score, row_number() OVER (ORDER BY round(score * CASE WHEN "
        f"doc_id IN (SELECT doc_id FROM neg) THEN {BOOSTING_NB} ELSE 1.0 "
        "END, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


RESCORE_QUERY = "the data search"
RESCORE_PHRASE = "data search"  # 2 tokens, no border -> clean SQL oracle
RESCORE_WINDOW = 20
RESCORE_QW, RESCORE_RW = 1.0, 2.0


def q_rescore_topk(sf_dir: str):
    """ES rescore API: the top-window BM25 docs re-ranked by
    query_weight * bm25 + rescore_weight * phrase_score (phrase score 0
    when absent) — window membership cut on rounded primary scores."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    # fetch the whole window, then rank on ROUNDED final scores (the
    # repo-wide determinism convention) before cutting to k
    ids, sc = lo.rescore(RESCORE_QUERY, RESCORE_PHRASE, k=RESCORE_WINDOW,
                         window_size=RESCORE_WINDOW,
                         query_weight=RESCORE_QW,
                         rescore_weight=RESCORE_RW)
    r = np.round(sc, 6)
    order = np.lexsort((ids, -r))[:DOC_K]
    return pa.table({
        "rank": pa.array(range(1, len(order) + 1), pa.int64()),
        "doc_id": pa.array(dmap[ids[order]], pa.int64()),
        "score": pa.array(r[order], pa.float64()),
    })


def _sql_rescore_topk() -> str:
    from ..functions.analyzers import analyze
    from ..index.search import query_terms

    k1, b = codec.BM25_K1, codec.BM25_B
    idf = "ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))"
    qvals = ", ".join(f"('{t}')" for t in query_terms(RESCORE_QUERY))
    p1, p2 = analyze("standard", RESCORE_PHRASE)
    phr_idf = (
        f"((SELECT {idf} FROM df CROSS JOIN stats st WHERE term = '{p1}')"
        f" + (SELECT {idf} FROM df CROSS JOIN stats st "
        f"WHERE term = '{p2}'))")
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "ptoks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term, "
        "unnest(generate_series(1, len(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')))) AS pos FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM ptoks "
        "GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM ptoks GROUP BY 1) "
        "c USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {qvals}), "
        "prim AS (SELECT tf.doc_id, "
        f"sum({idf} * tf.tf * {k1 + 1.0} / "
        f"(tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl))) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats st "
        "GROUP BY 1), "
        "win AS (SELECT doc_id, score FROM ("
        "SELECT doc_id, score, row_number() OVER ("
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rn FROM prim) "
        f"WHERE rn <= {RESCORE_WINDOW}), "
        "pf AS (SELECT a.doc_id, count(*) AS freq FROM ptoks a "
        "JOIN ptoks b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1 "
        f"WHERE a.term = '{p1}' AND b.term = '{p2}' GROUP BY 1), "
        "ph AS (SELECT pf.doc_id, "
        f"{phr_idf} * freq * {k1 + 1.0} / "
        f"(freq + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl)) AS pscore "
        "FROM pf JOIN dl ON dl.doc_id = pf.doc_id CROSS JOIN stats st) "
        "SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC)"
        "::BIGINT AS rank, doc_id, score FROM ("
        f"SELECT w.doc_id, round({RESCORE_QW} * w.score + {RESCORE_RW} * "
        "coalesce(ph.pscore, 0), 6) AS score "
        "FROM win w LEFT JOIN ph USING (doc_id)) "
        f"ORDER BY rank LIMIT {DOC_K}"
    )


COLLAPSE_QUERY = "the data"
COLLAPSE_K = 10


def q_collapse_topk(sf_dir: str):
    """ES field collapsing: top-k hits with at most ONE (best-scoring)
    hit per source — per-segment best-per-key partials bounded by key
    cardinality, keys-by-segments driver merge."""
    from ..index.export import collapse_matches

    idx = _ensure_doc_index(sf_dir)
    t = collapse_matches(idx, COLLAPSE_QUERY, "source", k=COLLAPSE_K)
    ids = (_docid_map(idx)[t["doc_id"].to_numpy()]
           if t.num_rows else np.empty(0, np.int64))
    return pa.table({"rank": t["rank"],
                     "key": t["key"],
                     "doc_id": pa.array(ids, pa.int64()),
                     "score": t["score"]})


def _sql_collapse_topk() -> str:
    from ..index.search import query_terms

    k1, b = codec.BM25_K1, codec.BM25_B
    idf = "ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))"
    vals = ", ".join(f"('{t}')" for t in query_terms(COLLAPSE_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, source, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks "
        "GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) "
        "c USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "scored AS (SELECT tf.doc_id, "
        f"round(sum({idf} * tf.tf * {k1 + 1.0} / "
        f"(tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl))), 6) "
        "AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats st "
        "GROUP BY 1), "
        "best AS (SELECT * FROM ("
        "SELECT d.source AS key, s.doc_id, s.score, "
        "row_number() OVER (PARTITION BY d.source "
        "ORDER BY s.score DESC, s.doc_id ASC) AS rn "
        "FROM scored s JOIN docs d USING (doc_id)) WHERE rn = 1) "
        "SELECT row_number() OVER (ORDER BY score DESC, doc_id ASC)"
        "::BIGINT AS rank, key, doc_id, score FROM best "
        f"ORDER BY rank LIMIT {COLLAPSE_K}"
    )


MLT_DOC_IDS = [7, 123, 321]
MLT_TERMS = 5


def q_more_like_this(sf_dir: str):
    """ES more_like_this: per source doc, the top tf*idf terms (rounded
    selection, ties term-asc) become a BM25 OR query; the source doc is
    excluded from the hits."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    rows = []
    for qid, orig in enumerate(MLT_DOC_IDS):
        ids, sc = lo.more_like_this(f"{orig:015d}", k=DOC_K + 20,
                                    max_query_terms=MLT_TERMS)
        for d, s in zip(ids, sc):
            rows.append((qid, int(dmap[int(d)]), float(s)))
    res = pd.DataFrame(rows, columns=["query_id", "doc_id", "score"])
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_more_like_this() -> str:
    src_vals = ", ".join(f"({i}, {d})" for i, d in enumerate(MLT_DOC_IDS))
    k1, b = codec.BM25_K1, codec.BM25_B
    idf = "ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5))"
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"src(query_id, src_doc) AS (VALUES {src_vals}), "
        "sel AS (SELECT query_id, src_doc, term FROM ("
        "SELECT s.query_id, s.src_doc, tf.term, "
        f"row_number() OVER (PARTITION BY s.query_id ORDER BY "
        f"round(tf.tf * {idf}, 6) DESC, tf.term ASC) AS rn "
        "FROM src s JOIN tf ON tf.doc_id = s.src_doc "
        "JOIN df ON df.term = tf.term CROSS JOIN stats st) "
        f"WHERE rn <= {MLT_TERMS}), "
        "scored AS (SELECT sel.query_id, tf.doc_id, "
        f"sum({idf} * tf.tf * {k1 + 1.0} / "
        f"(tf.tf + {k1} * (1 - {b} + {b} * dl.dl / st.avgdl))) AS score "
        "FROM sel JOIN tf ON tf.term = sel.term "
        "JOIN df ON df.term = sel.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats st "
        "WHERE tf.doc_id <> sel.src_doc GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


def q_search_after_page(sf_dir: str):
    """ES search_after keyset pagination: page 2 of the BM25 ranking.
    Page 1 (k=10) supplies the (score, doc_id) cursor — its own last row —
    and search_after returns the next 10 strictly after it. Raw-score
    cursor == raw rank 11..20; the oracle's rounded re-rank agrees because
    6-dp rounding never merges distinct scores on integer tf/dl corpora
    (same convention every bm25 entry relies on)."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    out_q, out_d, out_s = [], [], []
    for qid, q in enumerate(DOC_QUERIES):
        ids1, sc1 = lo.search(q, k=DOC_K)
        if len(ids1) == 0:
            continue
        after = (float(sc1[-1]), int(ids1[-1]))
        ids2, sc2 = lo.search_after(q, after, k=DOC_K)
        out_q.extend([qid] * len(ids2))
        out_d.extend(dmap[ids2].tolist())
        out_s.extend(np.round(sc2, 6).tolist())
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64()),
                     "score": pa.array(out_s, pa.float64())})


def q_index_stats(sf_dir: str):
    """ES ``_stats`` API + index-integrity gate: the index's OWN
    metadata — n_docs, total token count and postings count from
    ``stats.json``, distinct-term count from the term dictionary —
    checked against SQL ground truth recomputed from the raw table.
    Nothing is recomputed engine-side: a build bug that dropped or
    duplicated postings would fail this entry even if every query
    entry happened to still agree."""
    import json as _json

    import pyarrow.parquet as pq_

    idx = _ensure_doc_index(sf_dir)
    with open(os.path.join(idx, "stats.json")) as f:
        st = _json.load(f)
    ts_files = [f for f in sorted(
        os.listdir(os.path.join(idx, "term_stats")))
        if f.endswith(".parquet")]
    tt = pq_.read_table([os.path.join(idx, "term_stats", f)
                         for f in ts_files], columns=["field", "term"])
    n_terms = int(pc.sum(pc.cast(pc.equal(tt["field"], "text"),
                                 pa.int64())).as_py() or 0)
    return pa.table({
        "n_docs": pa.array([int(st["n_docs"])], pa.int64()),
        "dl_total": pa.array([int(st["dl_total"])], pa.int64()),
        "n_terms": pa.array([n_terms], pa.int64()),
        "n_postings": pa.array([int(st["n_postings"])], pa.int64()),
    })


SQL_INDEX_STATS = (
    "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
    "WHERE text IS NOT NULL AND text <> ''), "
    f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
    f"'{TOKEN_RE_SQL}')) AS term FROM docs) "
    "SELECT (SELECT count(*) FROM docs)::BIGINT AS n_docs, "
    "(SELECT count(*) FROM toks)::BIGINT AS dl_total, "
    "(SELECT count(DISTINCT term) FROM toks)::BIGINT AS n_terms, "
    "(SELECT count(*) FROM (SELECT DISTINCT doc_id, term FROM toks))"
    "::BIGINT AS n_postings"
)


def _sql_search_after_page() -> str:
    base = _sql_bm25_topk()
    # same scored CTE, ranks (K, 2K] instead of [1, K]
    old_tail = f"WHERE rank <= {DOC_K}"
    assert base.endswith(old_tail)
    base = base.replace(
        "SELECT query_id, rank, doc_id, score FROM (",
        "SELECT query_id, doc_id, score FROM (", 1)
    return base[: -len(old_tail)] + (
        f"WHERE rank > {DOC_K} AND rank <= {2 * DOC_K}")


DOC_AND_QUERIES = ["query scan", "the data", "table part value",
                   "fast slow", "w0042 the", "zzqmissing data"]


def q_bm25_and_topk(sf_dir: str):
    """Conjunctive (AND / bool-must) BM25 top-k via posting intersections."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "query": q, "k": DOC_K + 20, "mode": "and"}
          for i, q in enumerate(DOC_AND_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_bm25_and_topk() -> str:
    from ..index.search import query_terms

    values = []
    for qid, q in enumerate(DOC_AND_QUERIES):
        for t in query_terms(q):
            values.append(f"({qid}, '{t}')")
    vals = ", ".join(values) if values else "(NULL, NULL)"
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, '{TOKEN_RE_SQL}')) "
        "AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d LEFT JOIN "
        "(SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {vals}), "
        "qn AS (SELECT query_id, count(*) AS n_terms FROM q GROUP BY 1), "
        "scored AS (SELECT q.query_id, tf.doc_id, count(*) AS n_matched, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / s.avgdl))"
        ") AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT sc.query_id, sc.doc_id, round(sc.score, 6) AS score, "
        "row_number() OVER (PARTITION BY sc.query_id "
        "ORDER BY round(sc.score, 6) DESC, sc.doc_id ASC) AS rank "
        "FROM scored sc JOIN qn USING (query_id) "
        "WHERE sc.n_matched = qn.n_terms) "
        f"WHERE rank <= {DOC_K}"
    )


DOC_BOOL_QUERIES = [
    {"must": ["data query"], "should": ["fast", "scan table"],
     "must_not": ["slow"]},
    {"must": ["the"], "filter": [{"range": {"gte": 30, "lte": 70}}]},
    {"should": ["query scan", "hash join"], "minimum_should_match": 2},
    {"must": ["data"], "filter": [{"term": {"value": "table"}}]},
    {"must": ["table part value"], "must_not": ["stream", "window agg"]},
    {"filter": [{"term": {"value": "spark"}},
                {"range": {"gte": 20, "lte": 60}}]},
    {"must": ["data"],
     "filter": [{"terms": {"values": ["vector", "window", "stream"]}}]},
]


EXISTS_BOOL = {"must": ["the data"],
               "filter": [{"exists": {"field": "lang"}}]}


def q_bool_exists_topk(sf_dir: str):
    """ES exists query as a bool filter: the match clause's BM25 top-k
    restricted to docs with a non-null ``lang`` doc-value — resolved
    from per-segment null-id lists (O(missing docs), never a corpus
    scan). The sf tables carry no null langs, so the oracle verifies the
    plumbing end-to-end as a no-op filter; the null-dropping semantics
    are pinned by ``test_bool_query.py``'s null-fixture test."""
    idx = _ensure_doc_index(sf_dir)
    res = search(idx, [{"query_id": 0, "bool": EXISTS_BOOL,
                        "k": DOC_K + 20}]).to_pandas()
    if len(res) == 0:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    out = _round_rerank(res, DOC_K, "query_id", "score", "doc_id")
    return out.drop_columns(["query_id"]) if "query_id" in \
        out.column_names else out


def _sql_bool_exists_topk() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')"
                     for t in query_terms(EXISTS_BOOL["must"][0]))
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "scored AS (SELECT tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE tf.doc_id IN (SELECT doc_id FROM docs "
        "WHERE lang IS NOT NULL) GROUP BY 1) "
        "SELECT rank, doc_id, score FROM ("
        "SELECT doc_id, round(score, 6) AS score, row_number() OVER ("
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


def q_bm25_bool_topk(sf_dir: str):
    """ES bool queries over the documents index: must / should / must_not
    match clauses, non-scoring filter context (raw term + word_count
    range) and minimum_should_match — distributed segment-parallel path
    (see ``prepare_bool_spec`` for the clause contract)."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "bool": bq, "k": DOC_K + 20}
          for i, bq in enumerate(DOC_BOOL_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_bm25_bool_topk() -> str:
    return _sql_bool_queries(DOC_BOOL_QUERIES)


def _sql_bool_queries(bool_queries: list[dict]) -> str:
    """Shared DuckDB lowering of a list of ES bool bodies (the
    ``DOC_BOOL_QUERIES`` shapes) — also the oracle for every surface
    that lowers INTO bool (query_string)."""
    from ..index.search import query_terms

    crows, rrows, mrows = [], [], []
    for qid, bq in enumerate(bool_queries):
        cid = 0
        for kind in ("must", "should", "must_not"):
            for s in bq.get(kind, ()):
                for t in query_terms(s):
                    crows.append(f"({qid}, '{kind}', {cid}, '{t}')")
                cid += 1
        lo, hi = -1e18, 1e18
        for flt in bq.get("filter", ()):
            if "term" in flt:
                crows.append(
                    f"({qid}, 'filter', {cid}, '{flt['term']['value']}')")
                cid += 1
            elif "terms" in flt:
                # one clause id, many values: the cm distinct-(cid, doc)
                # join counts the clause matched if ANY value is present
                for v in flt["terms"]["values"]:
                    crows.append(f"({qid}, 'filter', {cid}, '{v}')")
                cid += 1
            else:
                r = flt["range"]
                lo = max(lo, float(r.get("gte", -1e18)))
                hi = min(hi, float(r.get("lte", 1e18)))
        rrows.append(f"({qid}, {lo}, {hi})")
        msm = bq.get("minimum_should_match")
        if msm is None:
            msm = 0 if (bq.get("must") or bq.get("filter")) else 1
        mrows.append(f"({qid}, {msm})")
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"c(query_id, kind, cid, term) AS (VALUES {', '.join(crows)}), "
        f"rng(query_id, lo, hi) AS (VALUES {', '.join(rrows)}), "
        f"msm(query_id, m) AS (VALUES {', '.join(mrows)}), "
        "cm AS (SELECT DISTINCT c.query_id, c.kind, c.cid, tf.doc_id "
        "FROM c JOIN tf ON tf.term = c.term), "
        "agg AS (SELECT query_id, doc_id, "
        "count(DISTINCT CASE WHEN kind = 'must' THEN cid END) AS nm, "
        "count(DISTINCT CASE WHEN kind = 'should' THEN cid END) AS ns, "
        "count(DISTINCT CASE WHEN kind = 'filter' THEN cid END) AS nf, "
        "count(DISTINCT CASE WHEN kind = 'must_not' THEN cid END) AS nn "
        "FROM cm GROUP BY 1, 2), "
        "req AS (SELECT query_id, "
        "count(DISTINCT CASE WHEN kind = 'must' THEN cid END) AS rm, "
        "count(DISTINCT CASE WHEN kind = 'filter' THEN cid END) AS rf "
        "FROM c GROUP BY 1), "
        "elig AS (SELECT a.query_id, a.doc_id FROM agg a "
        "JOIN req USING (query_id) JOIN msm USING (query_id) "
        "JOIN rng USING (query_id) JOIN dl ON dl.doc_id = a.doc_id "
        "WHERE a.nm = req.rm AND a.nf = req.rf AND a.nn = 0 "
        "AND a.ns >= msm.m AND dl.dl >= rng.lo AND dl.dl <= rng.hi), "
        "scored AS (SELECT c.query_id, tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        "s.avgdl))) AS score "
        "FROM c JOIN tf ON tf.term = c.term JOIN df ON df.term = c.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE c.kind IN ('must', 'should') GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT e.query_id, e.doc_id, "
        "round(coalesce(sc.score, 0), 6) AS score, "
        "row_number() OVER (PARTITION BY e.query_id "
        "ORDER BY round(coalesce(sc.score, 0), 6) DESC, e.doc_id ASC) "
        "AS rank FROM elig e LEFT JOIN scored sc "
        "ON sc.query_id = e.query_id AND sc.doc_id = e.doc_id) "
        f"WHERE rank <= {DOC_K}"
    )


TERMS_SET_QUERIES = [
    ["merge", "window", "sort", "batch", "scan"],
    ["table", "value", "part", "hash"],
    ["spark", "stream", "agg", "line", "key", "row"],
]
TERMS_SET_DIV = 16


def q_terms_set_topk(sf_dir: str):
    """ES ``terms_set`` query: per-doc DYNAMIC minimum_should_match —
    required(doc) = min(num_terms, max(1, word_count / divisor)), the
    ``minimum_should_match_script`` shape backed by the token_count
    doc-value (the constant-msm bool engine can't express this; see
    ``prepare_bool_spec`` ``msm_div``). Long docs must match more of the
    term set than short ones. Score = BM25 sum of the matched set terms.
    Distributed segment-parallel path; doc-length doc-values resolve
    per segment, so the dynamic gate runs where the postings live."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "k": DOC_K + 20,
           "bool": {"should": terms,
                    "minimum_should_match_divisor": TERMS_SET_DIV}}
          for i, terms in enumerate(TERMS_SET_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_terms_set_topk() -> str:
    values = []
    for qid, terms in enumerate(TERMS_SET_QUERIES):
        for t in terms:
            values.append(f"({qid}, '{t}', {len(terms)})")
    vals = ", ".join(values)
    k1, b = codec.BM25_K1, codec.BM25_B
    D = TERMS_SET_DIV
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term, nt) AS (VALUES {vals}), "
        "scored AS (SELECT q.query_id, tf.doc_id, "
        "count(*) AS matched, max(q.nt) AS nt, max(dl.dl) AS dl, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        "s.avgdl))) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1, 2), "
        f"elig AS (SELECT * FROM scored WHERE matched >= "
        f"least(nt, greatest(1, dl // {D}))) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM elig) "
        f"WHERE rank <= {DOC_K}"
    )


DOC_QS_QUERIES = [
    "data +query -slow",
    "+table +part",
    "scan hash join",
    "data word_count:[30 TO 70]",
    "+stream -window agg",
    "filter word_count:[* TO 55]",
]


def q_query_string_topk(sf_dir: str):
    """ES ``query_string``-lite: Lucene-classic syntax (`bare` OR terms,
    ``+must``, ``-must_not``, ``field:[lo TO hi]`` range filters) parsed
    by ``search.parse_query_string`` and lowered onto the bool-query
    engine — one parser feeding both serving paths and the SQL oracle,
    distributed segment-parallel top-k."""
    from ..index.search import parse_query_string

    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "bool": parse_query_string(q), "k": DOC_K + 20}
          for i, q in enumerate(DOC_QS_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_query_string_topk() -> str:
    from ..index.search import parse_query_string

    return _sql_bool_queries([parse_query_string(q)
                              for q in DOC_QS_QUERIES])


DOC_FUZZY_QUERIES = ["quer", "scann tabl", "strem", "windoq agr", "joinn"]
FUZZY_PLEN = 1
FUZZY_MAXEXP = 50


def q_bm25_fuzzy_topk(sf_dir: str):
    """ES match-with-fuzziness (AUTO): every analyzed query term expands
    against the global term dictionary (shared first char, Levenshtein
    distance <= AUTO(len), top-50 by df), and the expanded union is
    BM25-scored as a plain OR query — distributed rewrite path."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "query": q, "k": DOC_K + 20, "mode": "fuzzy",
           "fuzziness": "AUTO", "prefix_length": FUZZY_PLEN,
           "max_expansions": FUZZY_MAXEXP}
          for i, q in enumerate(DOC_FUZZY_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_bm25_fuzzy_topk() -> str:
    from ..index.search import _auto_fuzziness, query_terms

    qrows = []
    for qid, q in enumerate(DOC_FUZZY_QUERIES):
        for t in query_terms(q):
            qrows.append(f"({qid}, '{t}', {_auto_fuzziness(t)})")
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, qterm, f) AS (VALUES {', '.join(qrows)}), "
        "exp AS (SELECT query_id, term FROM ("
        "SELECT q.query_id, df.term, "
        "row_number() OVER (PARTITION BY q.query_id, q.qterm "
        "ORDER BY df.df DESC, df.term ASC) AS rn "
        "FROM q JOIN df ON "
        f"substr(df.term, 1, {FUZZY_PLEN}) = substr(q.qterm, 1, {FUZZY_PLEN}) "
        "AND levenshtein(df.term, q.qterm) <= q.f) "
        f"WHERE rn <= {FUZZY_MAXEXP}), "
        "expd AS (SELECT DISTINCT query_id, term FROM exp), "
        "scored AS (SELECT e.query_id, tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        "s.avgdl))) AS score "
        "FROM expd e JOIN tf ON tf.term = e.term "
        "JOIN df ON df.term = e.term JOIN dl ON dl.doc_id = tf.doc_id "
        "CROSS JOIN stats s GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM scored) "
        f"WHERE rank <= {DOC_K}"
    )


DOC_WILDCARD_PATTERNS = ["qu*", "*am", "sc?n", "d*a"]
WILDCARD_K = 15


def q_wildcard_term_search(sf_dir: str):
    """ES wildcard query (constant_score rewrite): dictionary terms
    matching the raw pattern (``*`` any run, ``?`` one char), docs
    containing any of them, score 1.0, doc_id order."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "query": p, "k": WILDCARD_K, "mode": "wildcard"}
          for i, p in enumerate(DOC_WILDCARD_PATTERNS)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    res = res.sort_values(["query_id", "doc_id"])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    return pa.Table.from_pandas(
        res[["query_id", "rank", "doc_id", "score"]].reset_index(drop=True))


def _sql_wildcard_term_search() -> str:
    vals = ", ".join(
        f"({qid}, '{p.replace('*', '%').replace('?', '_')}')"
        for qid, p in enumerate(DOC_WILDCARD_PATTERNS))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT DISTINCT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"w(query_id, pat) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT w.query_id, toks.doc_id "
        "FROM w JOIN toks ON toks.term LIKE w.pat) "
        "SELECT query_id, rank, doc_id, 1.0 AS score FROM ("
        "SELECT query_id, doc_id, row_number() OVER ("
        "PARTITION BY query_id ORDER BY doc_id ASC) AS rank FROM hits) "
        f"WHERE rank <= {WILDCARD_K}"
    )


DOC_REGEXP_PATTERNS = ["s(can|ort|low)", "qu.*y", "[kh].sh?", "da?ta"]
REGEXP_K = 15


def q_regexp_term_search(sf_dir: str):
    """ES regexp query (constant_score rewrite): dictionary terms whose
    ENTIRE text matches the raw RE2 pattern (Lucene's implicit anchors),
    docs containing any of them, score 1.0, doc_id order. Expansion runs
    once against the prefix-pruned term dictionary."""
    idx = _ensure_doc_index(sf_dir)
    qs = [{"query_id": i, "query": p, "k": REGEXP_K, "mode": "regexp"}
          for i, p in enumerate(DOC_REGEXP_PATTERNS)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    res = res.sort_values(["query_id", "doc_id"])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    return pa.Table.from_pandas(
        res[["query_id", "rank", "doc_id", "score"]].reset_index(drop=True))


def _sql_regexp_term_search() -> str:
    vals = ", ".join(f"({qid}, '^(?:{p})$')"
                     for qid, p in enumerate(DOC_REGEXP_PATTERNS))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT DISTINCT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"w(query_id, pat) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT w.query_id, toks.doc_id "
        "FROM w JOIN toks ON regexp_matches(toks.term, w.pat)) "
        "SELECT query_id, rank, doc_id, 1.0 AS score FROM ("
        "SELECT query_id, doc_id, row_number() OVER ("
        "PARTITION BY query_id ORDER BY doc_id ASC) AS rank FROM hits) "
        f"WHERE rank <= {REGEXP_K}"
    )


TERMS_AGG_QUERY = "the data"


def q_terms_agg_match(sf_dir: str):
    """ES terms aggregation with an avg metric sub-agg: bucket the docs
    matching an OR match query by ``lang``, top buckets by (doc_count
    desc, key asc), each with the bucket's mean token count. Distributed
    per-segment partials over doc-values shards (``index/aggs.py``);
    exact: integer doc-length sums make the avg bitwise-stable."""
    from ..index.aggs import terms_agg

    idx = _ensure_doc_index(sf_dir)
    return terms_agg(idx, TERMS_AGG_QUERY, "lang", size=10,
                     metric_field="text")


def _sql_terms_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT key, doc_count, avg_word_count FROM ("
        "SELECT d.lang AS key, count(*)::BIGINT AS doc_count, "
        "sum(coalesce(dl.dl, 0))::DOUBLE / count(*) AS avg_word_count "
        "FROM hits h JOIN docs d USING (doc_id) "
        "LEFT JOIN dl USING (doc_id) GROUP BY 1) "
        "ORDER BY doc_count DESC, key ASC LIMIT 10"
    )


HIST_INTERVAL = 10


def q_histogram_agg_match(sf_dir: str):
    """ES histogram aggregation: word_count buckets (interval 10,
    min_doc_count=1) over the docs matching an OR match query —
    per-segment partials from the index's doc lengths, key-ascending."""
    from ..index.aggs import histogram_agg

    idx = _ensure_doc_index(sf_dir)
    return histogram_agg(idx, TERMS_AGG_QUERY, HIST_INTERVAL)


def _sql_histogram_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        f"SELECT (coalesce(dl.dl, 0) // {HIST_INTERVAL} * {HIST_INTERVAL}"
        ")::BIGINT AS key, "
        "count(*)::BIGINT AS doc_count "
        "FROM hits h LEFT JOIN dl USING (doc_id) "
        "GROUP BY 1 ORDER BY key ASC"
    )


MGET_DOC_IDS = [3, 17, 42, 123, 404, 99_999_999]  # last one: a miss


def q_mget_docs(sf_dir: str):
    """ES _mget / GET-by-id analogue: point lookups by url (the identity
    key) via per-segment parquet-footer url ranges + one Arrow hash probe
    per candidate segment — never a corpus scan. The missing id yields no
    row (ES found=false)."""
    from ..index.export import mget

    idx = _ensure_doc_index(sf_dir)
    urls = [f"{i:015d}" for i in MGET_DOC_IDS]
    return mget(idx, urls, stored=("text",))


def _sql_mget_docs() -> str:
    ids = ", ".join(str(i) for i in MGET_DOC_IDS)
    return (
        "SELECT doc_id, lpad(CAST(doc_id AS VARCHAR), 15, '0') AS url, "
        "CAST(len(regexp_extract_all(lower(coalesce(text, '')), "
        f"'{TOKEN_RE_SQL}')) AS BIGINT) AS word_count, text "
        f"FROM documents WHERE doc_id IN ({ids}) "
        "AND text IS NOT NULL AND text <> '' ORDER BY doc_id"
    )


def q_date_histogram_match(sf_dir: str):
    """ES date_histogram aggregation (calendar_interval=day) over the
    matching docs' warc_ts — per-segment doc-values partials truncated
    with a datetime64 cast, merged with a small groupby-sum."""
    from ..index.aggs import date_histogram_agg

    idx = _ensure_doc_index(sf_dir)
    return date_histogram_agg(idx, TERMS_AGG_QUERY, "day")


def _sql_date_histogram_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT date_trunc('day', TIMESTAMP '2024-01-01' "
        "+ to_hours(doc_id)) AS key, "
        "count(*)::BIGINT AS doc_count "
        "FROM hits GROUP BY 1 ORDER BY key ASC"
    )


TOP_HITS_BUCKETS = 5
TOP_HITS_SIZE = 3


def q_top_hits_agg(sf_dir: str):
    """ES terms agg + top_hits sub-agg: top-5 ``lang`` buckets of the
    docs matching an OR match query by doc count, each with its 3
    best-scoring hits (global-idf BM25, rounded to 6 dp). Per-segment
    partials bounded by keys x 3; coordinator-shape driver merge."""
    from ..index.aggs import top_hits_agg

    idx = _ensure_doc_index(sf_dir)
    dmap = _docid_map(idx)
    t = top_hits_agg(idx, TERMS_AGG_QUERY, "lang",
                     num_buckets=TOP_HITS_BUCKETS,
                     size_per_bucket=TOP_HITS_SIZE)
    return pa.table({
        "key": t["key"],
        "doc_count": t["doc_count"],
        "hit_rank": t["hit_rank"],
        "doc_id": pa.array(dmap[t["doc_id"].to_numpy()], pa.int64()),
        "score": t["score"],
    })


def _sql_top_hits_agg() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "scored AS (SELECT tf.doc_id, "
        "round(sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))), 6) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1), "
        "keyed AS (SELECT d.lang AS key, s.doc_id, s.score FROM scored s "
        "JOIN docs d USING (doc_id) WHERE d.lang IS NOT NULL), "
        "buckets AS (SELECT key, count(*)::BIGINT AS doc_count FROM keyed "
        f"GROUP BY 1 ORDER BY doc_count DESC, key ASC "
        f"LIMIT {TOP_HITS_BUCKETS}), "
        "ranked AS (SELECT key, doc_id, score, row_number() OVER ("
        "PARTITION BY key ORDER BY score DESC, doc_id ASC) AS hit_rank "
        "FROM keyed) "
        "SELECT b.key AS key, b.doc_count, r.hit_rank, r.doc_id, r.score "
        "FROM buckets b JOIN ranked r USING (key) "
        f"WHERE r.hit_rank <= {TOP_HITS_SIZE} "
        "ORDER BY b.doc_count DESC, b.key ASC, r.hit_rank ASC"
    )


def q_date_pipeline_agg(sf_dir: str):
    """ES pipeline aggs (cumulative_sum + derivative) over a day
    date_histogram of the matching docs — buckets from the distributed
    partial merge, pipeline values computed on the reduced bucket list
    (the coordinator-side shape ES itself uses)."""
    from ..index.aggs import date_histogram_pipeline_agg

    idx = _ensure_doc_index(sf_dir)
    return date_histogram_pipeline_agg(idx, TERMS_AGG_QUERY, "day")


def _sql_date_pipeline_agg() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "hist AS (SELECT date_trunc('day', TIMESTAMP '2024-01-01' "
        "+ to_hours(doc_id)) AS key, count(*)::BIGINT AS doc_count "
        "FROM hits GROUP BY 1) "
        "SELECT key, doc_count, "
        "sum(doc_count) OVER (ORDER BY key)::BIGINT AS cumulative_docs, "
        "CAST(doc_count - lag(doc_count) OVER (ORDER BY key) AS DOUBLE) "
        "AS derivative FROM hist ORDER BY key ASC"
    )


def q_bucket_pipeline_aggs(sf_dir: str):
    """ES moving_fn (unweightedAvg, shift=0), serial_diff, and the
    sibling avg/min/max/sum_bucket aggs over a day date_histogram —
    pipeline values computed on the reduced bucket list (the ES
    coordinator shape), windows exact-integer-summed."""
    from ..index.aggs import date_histogram_bucket_pipeline_agg

    idx = _ensure_doc_index(sf_dir)
    return date_histogram_bucket_pipeline_agg(
        idx, TERMS_AGG_QUERY, "day", window=7, lag=7)


def _sql_bucket_pipeline_aggs() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "hist AS (SELECT date_trunc('day', TIMESTAMP '2024-01-01' "
        "+ to_hours(doc_id)) AS key, count(*)::BIGINT AS doc_count "
        "FROM hits GROUP BY 1) "
        "SELECT key, doc_count, "
        # exact integer window sum, ONE double division (bitwise-stable
        # vs the numpy csum-diff divide)
        "CAST(sum(doc_count) OVER mw AS DOUBLE) "
        "/ count(doc_count) OVER mw AS moving_avg, "
        "CAST(doc_count - lag(doc_count, 7) OVER (ORDER BY key) AS DOUBLE) "
        "AS serial_diff, "
        "CAST(sum(doc_count) OVER () AS DOUBLE) / count(*) OVER () "
        "AS avg_bucket, "
        "min(doc_count) OVER ()::BIGINT AS min_bucket, "
        "max(doc_count) OVER ()::BIGINT AS max_bucket, "
        "sum(doc_count) OVER ()::BIGINT AS sum_bucket "
        "FROM hist WINDOW mw AS (ORDER BY key "
        "ROWS BETWEEN 7 PRECEDING AND 1 PRECEDING) ORDER BY key ASC"
    )


def q_normalize_agg(sf_dir: str):
    """ES ``normalize`` pipeline agg (rescale_0_1 / percent_of_sum /
    z-score / softmax) over the day date_histogram of matching docs —
    see ``date_histogram_normalize_agg`` for the exact-integer z-score
    and max-shifted softmax forms shared with the oracle."""
    from ..index.aggs import date_histogram_normalize_agg

    idx = _ensure_doc_index(sf_dir)
    return date_histogram_normalize_agg(idx, TERMS_AGG_QUERY, "day")


def _sql_normalize_agg() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "hist AS (SELECT date_trunc('day', TIMESTAMP '2024-01-01' "
        "+ to_hours(doc_id)) AS key, count(*)::BIGINT AS doc_count "
        "FROM hits GROUP BY 1), "
        "st AS (SELECT count(*)::BIGINT AS n, sum(doc_count)::BIGINT AS s1, "
        "sum(doc_count * doc_count)::BIGINT AS s2, "
        "min(doc_count)::BIGINT AS mn, max(doc_count)::BIGINT AS mx "
        "FROM hist) "
        "SELECT key, doc_count, "
        "round(CASE WHEN mx = mn THEN 0.0 ELSE "
        "(doc_count - mn)::DOUBLE / (mx - mn) END, 6) AS rescale_0_1, "
        "round(doc_count::DOUBLE / s1, 6) AS percent_of_sum, "
        "round(CASE WHEN n * s2 = s1 * s1 THEN 0.0 ELSE "
        "(n * doc_count - s1)::DOUBLE / sqrt((n * s2 - s1 * s1)::DOUBLE) "
        "END, 6) AS z_score, "
        "round(exp((doc_count - mx)::DOUBLE) / "
        "sum(exp((doc_count - mx)::DOUBLE)) OVER (), 6) AS softmax "
        "FROM hist CROSS JOIN st ORDER BY key ASC"
    )


AUTO_HIST_TARGET = 10


def q_auto_date_hist(sf_dir: str):
    """ES auto_date_histogram: the engine picks the finest calendar
    interval (hour→day→week→month→year) whose span-implied bucket count
    fits the target, from one tiny per-segment (min, max) partials job,
    then runs the ordinary distributed date_histogram at that interval.
    The chosen interval is a verified output column."""
    from ..index.aggs import auto_date_histogram_agg

    idx = _ensure_doc_index(sf_dir)
    return auto_date_histogram_agg(idx, TERMS_AGG_QUERY,
                                   target_buckets=AUTO_HIST_TARGET)


def _sql_auto_date_hist() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    T = AUTO_HIST_TARGET
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "ts AS (SELECT TIMESTAMP '2024-01-01' + to_hours(doc_id) AS t "
        "FROM hits), "
        "mm AS (SELECT min(t) AS mn, max(t) AS mx FROM ts), "
        "spans AS (SELECT "
        "date_diff('hour', date_trunc('hour', mn), date_trunc('hour', mx)) "
        "+ 1 AS nh, "
        "date_diff('day', date_trunc('day', mn), date_trunc('day', mx)) "
        "+ 1 AS nd, "
        "date_diff('day', date_trunc('week', mn), date_trunc('week', mx)) "
        "// 7 + 1 AS nw, "
        "date_diff('month', date_trunc('month', mn), "
        "date_trunc('month', mx)) + 1 AS nm FROM mm), "
        f"u AS (SELECT CASE WHEN nh <= {T} THEN 'hour' "
        f"WHEN nd <= {T} THEN 'day' WHEN nw <= {T} THEN 'week' "
        f"WHEN nm <= {T} THEN 'month' ELSE 'year' END AS unit "
        "FROM spans) "
        "SELECT CASE u.unit WHEN 'hour' THEN date_trunc('hour', t) "
        "WHEN 'day' THEN date_trunc('day', t) "
        "WHEN 'week' THEN date_trunc('week', t) "
        "WHEN 'month' THEN date_trunc('month', t) "
        "ELSE date_trunc('year', t) END AS key, "
        "count(*)::BIGINT AS doc_count, u.unit AS interval "
        "FROM ts CROSS JOIN u GROUP BY 1, 3 ORDER BY key ASC"
    )


BUCKET_SELECT_MIN_DOCS = 22
BUCKET_SELECT_SIZE = 5


def q_bucket_select_sort(sf_dir: str):
    """ES bucket_script (percent-of-total) + bucket_selector
    (doc_count >= threshold) + bucket_sort (doc_count desc, size cut)
    over a day date_histogram — the three bucket-mutating pipeline aggs
    applied coordinator-side in ES's order."""
    from ..index.aggs import date_histogram_bucket_select_agg

    idx = _ensure_doc_index(sf_dir)
    return date_histogram_bucket_select_agg(
        idx, TERMS_AGG_QUERY, "day",
        min_doc_count=BUCKET_SELECT_MIN_DOCS, size=BUCKET_SELECT_SIZE)


def _sql_bucket_select_sort() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "hist AS (SELECT date_trunc('day', TIMESTAMP '2024-01-01' "
        "+ to_hours(doc_id)) AS key, count(*)::BIGINT AS doc_count "
        "FROM hits GROUP BY 1), "
        "scripted AS (SELECT key, doc_count, "
        "CAST(doc_count AS DOUBLE) / (sum(doc_count) OVER ()) * 100.0 "
        "AS pct_of_total FROM hist) "
        f"SELECT key, doc_count, pct_of_total FROM scripted "
        f"WHERE doc_count >= {BUCKET_SELECT_MIN_DOCS} "
        f"ORDER BY doc_count DESC, key ASC LIMIT {BUCKET_SELECT_SIZE}"
    )


# ES filters agg: named buckets, each independently counting its own
# query's matches (buckets overlap); one includes a zero-hit filter
FILTERS_AGG = {
    "f_common": "the data",
    "f_hash": "hash",
    "f_join": "the fast join",
    "f_none": "zzqmissing",
}


def q_filters_agg_match(sf_dir: str):
    """ES filters aggregation: one named bucket per filter query, all
    filters sharing a single Dataset job (per-segment partials union the
    filters' terms into one postings read). Key-ascending output."""
    from ..index.aggs import filters_agg

    idx = _ensure_doc_index(sf_dir)
    return filters_agg(idx, FILTERS_AGG)


def _sql_filters_agg_match() -> str:
    from ..index.search import query_terms

    parts = []
    for name in sorted(FILTERS_AGG):
        terms = query_terms(FILTERS_AGG[name])
        vals = ", ".join(f"('{t}')" for t in terms)
        parts.append(
            f"SELECT '{name}' AS filter_key, "
            f"count(DISTINCT doc_id)::BIGINT AS doc_count "
            f"FROM toks WHERE term IN (VALUES {vals})"
        )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs) "
        "SELECT * FROM (" + " UNION ALL ".join(parts) +
        ") ORDER BY filter_key ASC"
    )


COMPOSITE_SIZE = 7
COMPOSITE_AFTER = ("en", "src15")


def q_composite_agg_page(sf_dir: str):
    """ES composite aggregation, page 2: (lang, source) buckets of the
    matching docs, key-ascending, resumed after an exclusive after-key —
    the scroll-safe full-bucket-enumeration agg. Per-segment partials
    bounded by distinct tuples; multi-key groupby merge; page cut on the
    reduced buckets."""
    from ..index.aggs import composite_agg

    idx = _ensure_doc_index(sf_dir)
    return composite_agg(idx, TERMS_AGG_QUERY,
                         sources=("lang", "source"),
                         size=COMPOSITE_SIZE, after=COMPOSITE_AFTER)


def _sql_composite_agg_page() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    a0, a1 = COMPOSITE_AFTER
    return (
        "WITH docs AS (SELECT doc_id, lang, source, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT d.lang AS lang, d.source AS source, "
        "count(*)::BIGINT AS doc_count "
        "FROM hits h JOIN docs d USING (doc_id) "
        "WHERE d.lang IS NOT NULL AND d.source IS NOT NULL "
        f"AND (d.lang, d.source) > ('{a0}', '{a1}') "
        f"GROUP BY 1, 2 ORDER BY lang ASC, source ASC "
        f"LIMIT {COMPOSITE_SIZE}"
    )


MULTI_TERMS_SIZE = 10


def q_multi_terms_agg(sf_dir: str):
    """ES multi_terms aggregation: (lang, source) value-tuple buckets of
    the docs matching an OR match query, top-10 by (doc_count desc, keys
    asc) — the non-paginated sibling of composite. Per-segment partials
    bounded by distinct tuples; multi-key groupby merge; order + cut on
    the reduced bucket list (the ES coordinator shape)."""
    from ..index.aggs import multi_terms_agg

    idx = _ensure_doc_index(sf_dir)
    return multi_terms_agg(idx, TERMS_AGG_QUERY,
                           columns=("lang", "source"),
                           size=MULTI_TERMS_SIZE)


def _sql_multi_terms_agg() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lang, source, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT d.lang AS lang, d.source AS source, "
        "count(*)::BIGINT AS doc_count "
        "FROM hits h JOIN docs d USING (doc_id) "
        "WHERE d.lang IS NOT NULL AND d.source IS NOT NULL "
        "GROUP BY 1, 2 ORDER BY doc_count DESC, lang ASC, source ASC "
        f"LIMIT {MULTI_TERMS_SIZE}"
    )


def q_weighted_avg_agg(sf_dir: str):
    """ES weighted_avg aggregation over the matching docs: value = the
    doc's token count, weight = its warc_ts in whole hours since the
    Unix epoch (a deterministic numeric doc-value standing in for the
    ratings/votes column real users plug in). Per-segment partials are
    two INTEGER sums, so the one final division is the only float op."""
    from ..index.aggs import weighted_avg_agg

    idx = _ensure_doc_index(sf_dir)
    return weighted_avg_agg(idx, TERMS_AGG_QUERY, weight_column="warc_ts")


def _sql_weighted_avg_agg() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        # weight mirrors the corpus synthesis: warc_ts = 2024-01-01 +
        # doc_id hours -> whole hours since the Unix epoch
        "w AS (SELECT h.doc_id, date_diff('hour', TIMESTAMP '1970-01-01', "
        "TIMESTAMP '2024-01-01' + to_hours(h.doc_id))::BIGINT AS w, "
        "dl.dl AS v FROM hits h JOIN dl USING (doc_id)) "
        "SELECT round(sum(w * v)::DOUBLE / sum(w)::DOUBLE, 6) "
        "AS weighted_avg, count(*)::BIGINT AS value_count FROM w"
    )


ADJ_FILTERS = {"grp_data": "data query", "grp_fast": "fast scan",
               "grp_slow": "slow"}


def q_adjacency_matrix_agg(sf_dir: str):
    """ES adjacency_matrix aggregation: a bucket per named filter plus
    one per pair intersection (key "a&b", sorted names — ES's
    separator), non-empty buckets only, key-ascending. Intersections are
    computed per segment on sorted id arrays (ids never leave the
    task); the merge is O(filters^2) rows."""
    from ..index.aggs import adjacency_matrix_agg

    idx = _ensure_doc_index(sf_dir)
    return adjacency_matrix_agg(idx, ADJ_FILTERS)


def _sql_adjacency_matrix_agg() -> str:
    from ..index.search import query_terms

    names = sorted(ADJ_FILTERS)
    rows = []
    for name in names:
        for t in query_terms(ADJ_FILTERS[name]):
            rows.append(f"('{name}', '{t}')")
    singles = (
        "SELECT f.name AS key, count(DISTINCT toks.doc_id)::BIGINT AS "
        "doc_count FROM f JOIN toks USING (term) GROUP BY 1"
    )
    pair_parts = []
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            pair_parts.append(
                f"SELECT '{na}&{nb}' AS key, count(*)::BIGINT AS doc_count "
                "FROM (SELECT DISTINCT toks.doc_id FROM f JOIN toks "
                f"USING (term) WHERE f.name = '{na}') a "
                "JOIN (SELECT DISTINCT toks.doc_id FROM f JOIN toks "
                f"USING (term) WHERE f.name = '{nb}') b USING (doc_id)"
            )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"f(name, term) AS (VALUES {', '.join(rows)}), "
        "allb AS (" + singles + " UNION ALL "
        + " UNION ALL ".join(pair_parts) + ") "
        "SELECT key, doc_count FROM allb WHERE doc_count > 0 "
        "ORDER BY key ASC"
    )


def q_extended_stats_match(sf_dir: str):
    """ES extended_stats aggregation: stats plus sum_of_squares,
    population variance and std_deviation of word_count over the docs
    matching an OR match query — integer partials per segment, exact
    merge, one fixed float expression shape for the moments (mirrored
    by the oracle)."""
    from ..index.aggs import extended_stats_agg

    idx = _ensure_doc_index(sf_dir)
    return extended_stats_agg(idx, TERMS_AGG_QUERY)


def _sql_extended_stats_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    var = ("greatest(sum_of_squares::DOUBLE / doc_count - "
           "(sum_word_count::DOUBLE / doc_count) * "
           "(sum_word_count::DOUBLE / doc_count), 0.0)")
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "base AS (SELECT count(*)::BIGINT AS doc_count, "
        "min(coalesce(dl.dl, 0))::BIGINT AS min_word_count, "
        "max(coalesce(dl.dl, 0))::BIGINT AS max_word_count, "
        "sum(coalesce(dl.dl, 0))::BIGINT AS sum_word_count, "
        "sum(coalesce(dl.dl, 0) * coalesce(dl.dl, 0))::BIGINT "
        "AS sum_of_squares "
        "FROM hits h LEFT JOIN dl USING (doc_id)) "
        "SELECT doc_count, min_word_count, max_word_count, "
        "sum_word_count, sum_of_squares, "
        "sum_word_count::DOUBLE / doc_count AS avg_word_count, "
        f"{var} AS variance, sqrt({var}) AS std_deviation FROM base"
    )


def q_stats_agg_match(sf_dir: str):
    """ES stats aggregation: (doc_count, min, max, sum, avg) of
    word_count over the docs matching an OR match query — exact integer
    partials per segment."""
    from ..index.aggs import stats_agg

    idx = _ensure_doc_index(sf_dir)
    return stats_agg(idx, TERMS_AGG_QUERY)


def _sql_stats_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT count(*)::BIGINT AS doc_count, "
        "min(coalesce(dl.dl, 0))::BIGINT AS min_word_count, "
        "max(coalesce(dl.dl, 0))::BIGINT AS max_word_count, "
        "sum(coalesce(dl.dl, 0))::BIGINT AS sum_word_count, "
        "sum(coalesce(dl.dl, 0))::DOUBLE / count(*) AS avg_word_count "
        "FROM hits h LEFT JOIN dl USING (doc_id)"
    )


AGG_RANGES = [(None, 8), (8, 16), (16, 32), (32, None)]


def q_range_agg_match(sf_dir: str):
    """ES range aggregation: explicit word_count buckets [from, to) over
    the docs matching an OR match query — one int per range per segment,
    every requested bucket returned (zero or not)."""
    from ..index.aggs import range_agg

    idx = _ensure_doc_index(sf_dir)
    return range_agg(idx, TERMS_AGG_QUERY, AGG_RANGES)


def _sql_range_agg_match() -> str:
    from ..index.aggs import _range_key
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    parts = []
    for frm, to in AGG_RANGES:
        conds = []
        if frm is not None:
            conds.append(f"coalesce(dl.dl, 0) >= {int(frm)}")
        if to is not None:
            conds.append(f"coalesce(dl.dl, 0) < {int(to)}")
        where = f"WHERE {' AND '.join(conds)}" if conds else ""
        parts.append(
            f"SELECT '{_range_key(frm, to)}' AS range_key, "
            f"count(*)::BIGINT AS doc_count "
            f"FROM hits h LEFT JOIN dl USING (doc_id) {where}"
        )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        + " UNION ALL ".join(parts)
    )


def q_match_count(sf_dir: str):
    """ES _count API: matched-doc counts per query (OR semantics), no
    scoring or retrieval — per-segment posting-length partials."""
    from ..index.export import count_matches_many

    idx = _ensure_doc_index(sf_dir)
    return count_matches_many(idx, DOC_QUERIES)


def _sql_match_count() -> str:
    from ..index.search import query_terms

    parts = []
    for qid, q in enumerate(DOC_QUERIES):
        terms = query_terms(q)
        if not terms:
            parts.append(f"SELECT {qid} AS query_id, 0::BIGINT AS n_matched")
            continue
        vals = ", ".join(f"('{t}')" for t in terms)
        parts.append(
            f"SELECT {qid} AS query_id, count(DISTINCT doc_id)::BIGINT "
            f"AS n_matched FROM toks WHERE term IN (VALUES {vals})"
        )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs) "
        + " UNION ALL ".join(parts)
    )


TV_DOC_IDS = [3, 57, 101, 202, 404]


def q_term_vectors(sf_dir: str):
    """ES _termvectors: per requested doc, (term, tf, first_pos) from
    re-tokenized stored text (url-OR-chain-pruned corpus read)."""
    from ..index.export import term_vectors

    idx = _ensure_doc_index(sf_dir)
    urls = [f"{i:015d}" for i in TV_DOC_IDS]
    t = term_vectors(idx, urls)
    return pa.table({
        "doc_id": pc.cast(t["url"], pa.int64()),
        "term": t["term"],
        "tf": t["tf"],
        "first_pos": t["first_pos"],
    })


def _sql_term_vectors() -> str:
    ids = ", ".join(str(i) for i in TV_DOC_IDS)
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS arr FROM documents "
        f"WHERE doc_id IN ({ids}) AND text IS NOT NULL AND text <> ''), "
        "toks AS (SELECT doc_id, unnest(arr) AS term, "
        "unnest(generate_series(0, len(arr) - 1)) AS pos FROM docs) "
        "SELECT doc_id, term, count(*)::BIGINT AS tf, "
        "min(pos)::BIGINT AS first_pos FROM toks GROUP BY 1, 2"
    )


DBQ_DELETE_QUERY = "dup"
DBQ_CHECK_QUERY = "the data"


def _ensure_dbq_index(sf_dir: str) -> str:
    """Copy of the cached docs index with delete_by_query applied once
    (ES _delete_by_query parity: tombstones, not a rebuild)."""
    from ..index.append import delete_by_query

    tag = _code_fingerprint()
    key = hashlib.md5(sf_dir.encode()).hexdigest()[:12]
    idx = f"/tmp/edlr_cache/dbq_docs_{key}"
    marker = os.path.join(idx, "_CATALOG_OK")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == tag:
                return idx
    src = _ensure_doc_index(sf_dir)
    shutil.rmtree(idx, ignore_errors=True)
    shutil.copytree(src, idx)
    os.unlink(os.path.join(idx, "_CATALOG_OK"))
    delete_by_query(idx, DBQ_DELETE_QUERY)
    with open(marker, "w") as f:
        f.write(tag)
    return idx


def q_delete_by_query(sf_dir: str):
    """ES _delete_by_query: tombstone every doc matching one query, then
    stream the docs matching another — deleted docs must be gone from
    every read path (per-segment tombstone files, one atomic stats.json
    visibility rewrite, Lucene df/avgdl semantics until compaction)."""
    from ..index.export import export_matches

    idx = _ensure_dbq_index(sf_dir)
    ds = export_matches(idx, DBQ_CHECK_QUERY)

    def _proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["url"], pa.int64()),
            "word_count": t["word_count"],
        })

    return ds.map_batches(_proj, batch_format="pyarrow")


def _sql_delete_by_query() -> str:
    from ..index.search import query_terms

    cvals = ", ".join(f"('{t}')" for t in query_terms(DBQ_CHECK_QUERY))
    dvals = ", ".join(f"('{t}')" for t in query_terms(DBQ_DELETE_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"qc(term) AS (VALUES {cvals}), "
        f"qd(term) AS (VALUES {dvals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks "
        "JOIN qc USING (term)), "
        "gone AS (SELECT DISTINCT toks.doc_id FROM toks "
        "JOIN qd USING (term)) "
        "SELECT h.doc_id, coalesce(dl.dl, 0)::BIGINT AS word_count "
        "FROM hits h LEFT JOIN dl USING (doc_id) "
        "WHERE h.doc_id NOT IN (SELECT doc_id FROM gone)"
    )


SUGGEST_INPUTS = ["qery", "scna", "tabel", "merg", "xylophone"]


def q_term_suggest(sf_dir: str):
    """ES term suggester: per misspelled input, dictionary terms within
    edit distance 2 sharing the first char, ranked (distance asc, df
    desc, term asc) — vectorized Levenshtein over prefix-pruned
    dictionary slices."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    return LocalSearcher(idx).suggest_terms(SUGGEST_INPUTS)


def _sql_term_suggest() -> str:
    vals = ", ".join(f"('{t}')" for t in SUGGEST_INPUTS)
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks "
        "GROUP BY 1), "
        f"inp(input) AS (VALUES {vals}), "
        "cand AS (SELECT input, term, levenshtein(input, term) AS d, df "
        "FROM inp JOIN df ON substr(term, 1, 1) = substr(input, 1, 1)) "
        "SELECT input, term AS suggestion, d::BIGINT AS distance, "
        "df::BIGINT AS df FROM ("
        "SELECT *, row_number() OVER (PARTITION BY input "
        "ORDER BY d ASC, df DESC, term ASC) AS rn FROM cand "
        "WHERE d BETWEEN 1 AND 2) WHERE rn <= 5"
    )


PHRASE_SUGGEST_INPUT = "qery the tabel scna"  # 3 misspellings + 1 exact


def q_phrase_suggest(sf_dir: str):
    """ES phrase suggester (documented unigram-df simplification): per
    analyzed slot, the best dictionary candidate within edit distance 2
    (the token itself at distance 0 wins when correctly spelled), the
    whole corrected phrase assembled per row."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    return LocalSearcher(idx).suggest_phrase(PHRASE_SUGGEST_INPUT)


def _sql_phrase_suggest() -> str:
    from ..functions.analyzers import analyze

    toks = list(analyze("standard", PHRASE_SUGGEST_INPUT))
    vals = ", ".join(f"({i}, '{t}')" for i, t in enumerate(toks))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks "
        "GROUP BY 1), "
        f"inp(slot, tok) AS (VALUES {vals}), "
        "cand AS (SELECT slot, tok, term, levenshtein(tok, term) AS d, df "
        "FROM inp JOIN df ON substr(term, 1, 1) = substr(tok, 1, 1) "
        "WHERE levenshtein(tok, term) <= 2), "
        "best AS (SELECT slot, tok, term, d, df FROM ("
        "SELECT *, row_number() OVER (PARTITION BY slot "
        "ORDER BY d ASC, df DESC, term ASC) AS rn FROM cand) "
        "WHERE rn = 1) "
        "SELECT slot::BIGINT AS slot, tok AS input_token, "
        "term AS suggestion, d::BIGINT AS distance, df::BIGINT AS df, "
        "(SELECT string_agg(term, ' ' ORDER BY slot) FROM best) AS phrase "
        "FROM best ORDER BY slot ASC"
    )


SIG_QUERY = "dup"  # the duplicate-cluster docs: a skewed foreground
SIG_SIZE = 10


ANALYZE_DOC_IDS = [3, 57, 101, 202]


COMPLETION_PREFIXES = ["da", "sc", "qu", "t", "filt"]
COMPLETION_SIZE = 5


def q_completion_suggest(sf_dir: str):
    """ES completion suggester: top dictionary terms per prefix ranked
    by document frequency (ES's default weight), term-ascending ties —
    each prefix reads only its term-dictionary range."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    return LocalSearcher(idx).suggest_completions(COMPLETION_PREFIXES,
                                                  size=COMPLETION_SIZE)


def _sql_completion_suggest() -> str:
    parts = []
    for p in COMPLETION_PREFIXES:
        parts.append(
            f"SELECT '{p}' AS prefix, term AS suggestion, df AS weight, "
            "row_number() OVER (ORDER BY df DESC, term ASC) AS rn "
            f"FROM dict WHERE term LIKE '{p}%'")
    return (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
        f"lower(text), '{TOKEN_RE_SQL}')) AS term FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "dict AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df "
        "FROM toks GROUP BY 1) "
        "SELECT prefix, suggestion, weight FROM ("
        + " UNION ALL ".join(f"({p})" for p in parts)
        + f") WHERE rn <= {COMPLETION_SIZE}"
    )


def q_analyze_api(sf_dir: str):
    """ES ``_analyze`` API: the standard-chain token stream (token +
    0-based position) for a requested set of docs — the
    what-would-the-indexer-see debugging endpoint. Row-filtered read,
    one vectorized tokenize, positions from a group-offset subtraction
    (no row loop)."""
    import pyarrow.parquet as pq_

    t = pq_.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text"],
                       filters=[("doc_id", "in", ANALYZE_DOC_IDS)])
    idx, toks, _dl = an.standard_tokenize_batch(t["text"])
    if len(toks) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "pos": pa.array([], pa.int64()),
                         "token": pa.array([], pa.string())})
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    sizes = np.diff(np.r_[starts, len(idx)])
    pos = np.arange(len(idx)) - np.repeat(starts, sizes)
    return pa.table({
        "doc_id": pa.array(t["doc_id"].to_numpy()[idx], pa.int64()),
        "pos": pa.array(pos.astype(np.int64), pa.int64()),
        "token": pc.cast(toks, pa.string()),
    })


def _sql_analyze_api() -> str:
    ids = ", ".join(str(i) for i in ANALYZE_DOC_IDS)
    return (
        f"WITH tc AS (SELECT doc_id, regexp_extract_all("
        f"lower(coalesce(text, '')), '{TOKEN_RE_SQL}') AS ts "
        f"FROM documents WHERE doc_id IN ({ids})) "
        "SELECT doc_id, unnest(range(0, len(ts)))::BIGINT AS pos, "
        "unnest(ts) AS token FROM tc"
    )


RARE_QUERY = "dup"
RARE_MAX_DC = 8


def q_rare_terms_match(sf_dir: str):
    """ES rare_terms aggregation: ``source`` values appearing in at most
    8 of the docs matching a low-df term query — the long-tail
    complement of the terms agg, exact via the full groupby-sum merge
    (ES approximates with a CuckooFilter)."""
    from ..index.aggs import rare_terms_agg

    idx = _ensure_doc_index(sf_dir)
    return rare_terms_agg(idx, RARE_QUERY, "source",
                          max_doc_count=RARE_MAX_DC)


def _sql_rare_terms_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(RARE_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, source, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT d.source AS key, count(*)::BIGINT AS doc_count "
        "FROM hits h JOIN docs d USING (doc_id) "
        "WHERE d.source IS NOT NULL GROUP BY 1 "
        f"HAVING count(*) <= {RARE_MAX_DC} ORDER BY key ASC"
    )


PCT_RANK_VALUES = (8, 16, 32)


def q_percentile_ranks_match(sf_dir: str):
    """ES percentile_ranks aggregation: % of matching docs' word counts
    <= each requested value — interval-1 histogram partials (lossless
    for integers), exact ranks."""
    from ..index.aggs import percentile_ranks_agg

    idx = _ensure_doc_index(sf_dir)
    return percentile_ranks_agg(idx, TERMS_AGG_QUERY, PCT_RANK_VALUES)


def _sql_percentile_ranks_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    parts = []
    for v in PCT_RANK_VALUES:
        parts.append(
            f"SELECT {int(v)}::BIGINT AS value, "
            f"100.0 * sum(CASE WHEN coalesce(dl.dl, 0) <= {int(v)} "
            "THEN 1 ELSE 0 END)::BIGINT / count(*) AS rank_pct "
            "FROM hits h LEFT JOIN dl USING (doc_id)"
        )
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT * FROM (" + " UNION ALL ".join(parts) +
        ") ORDER BY value ASC"
    )


SAMPLER_SHARD_SIZE = 50
SAMPLER_BUCKETS = 5


def q_sampler_agg_match(sf_dir: str):
    """ES sampler aggregation + terms sub-agg: the sub-agg counts lang
    over only the top-``SAMPLER_SHARD_SIZE`` matched docs by BM25.
    Single-logical-shard semantics: the sample is the exact global
    top-N from per-segment top-N partials (bounded by segments x N)."""
    from ..index.aggs import sampler_terms_agg

    idx = _ensure_doc_index(sf_dir)
    return sampler_terms_agg(idx, TERMS_AGG_QUERY, "lang",
                             shard_size=SAMPLER_SHARD_SIZE,
                             num_buckets=SAMPLER_BUCKETS)


def _sql_sampler_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "scored AS (SELECT tf.doc_id, "
        "round(sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl "
        "/ s.avgdl))), 6) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY 1), "
        "top AS (SELECT doc_id FROM scored ORDER BY score DESC, doc_id ASC "
        f"LIMIT {SAMPLER_SHARD_SIZE}) "
        "SELECT d.lang AS key, count(*)::BIGINT AS doc_count "
        "FROM top JOIN docs d USING (doc_id) WHERE d.lang IS NOT NULL "
        f"GROUP BY 1 ORDER BY doc_count DESC, key ASC "
        f"LIMIT {SAMPLER_BUCKETS}"
    )


def q_significant_text_match(sf_dir: str):
    """ES significant_text aggregation with filter_duplicate_text:
    significant_terms computed from the matched docs' stored text with
    duplicate-text docs counted once (doc-level md5 dedup keeping the
    lowest doc_id — the documented simplification of ES's
    paragraph-level filter). The drop set comes from a distributed
    (md5, doc_id) probe and ships via ray.put."""
    from ..index.aggs import significant_text_agg

    idx = _ensure_doc_index(sf_dir)
    return significant_text_agg(idx, SIG_QUERY, size=SIG_SIZE)


def _sql_significant_text_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(SIG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, text, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits0 AS (SELECT DISTINCT toks.doc_id FROM toks "
        "JOIN q USING (term)), "
        # filter_duplicate_text: one representative (lowest doc_id) per
        # identical text among the matched docs
        "hits AS (SELECT min(h.doc_id) AS doc_id FROM hits0 h "
        "JOIN docs d USING (doc_id) GROUP BY md5(d.text)), "
        "n AS (SELECT count(*)::DOUBLE AS n_docs FROM docs), "
        "fgt AS (SELECT count(*)::DOUBLE AS fg_total FROM hits), "
        "fg AS (SELECT term, count(DISTINCT toks.doc_id)::BIGINT AS fg_count "
        "FROM toks JOIN hits h ON toks.doc_id = h.doc_id GROUP BY 1), "
        "bg AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS bg_count "
        "FROM toks GROUP BY 1), "
        "scored AS (SELECT fg.term, fg_count, bg_count, "
        "round(((fg_count / fg_total) - (bg_count / n_docs)) * "
        "((fg_count / fg_total) / (bg_count / n_docs)), 6) AS score "
        "FROM fg JOIN bg USING (term) CROSS JOIN n CROSS JOIN fgt) "
        "SELECT term, fg_count, bg_count, score FROM scored "
        f"WHERE score > 0 ORDER BY score DESC, term ASC LIMIT {SIG_SIZE}"
    )


def q_significant_terms_match(sf_dir: str):
    """ES significant_terms aggregation: terms over-represented in the
    matched docs vs the corpus (JLH score, ES default heuristic) —
    foreground df from re-tokenizing the matched slice, background df
    from the global term dictionary."""
    from ..index.aggs import significant_terms_agg

    idx = _ensure_doc_index(sf_dir)
    return significant_terms_agg(idx, SIG_QUERY, size=SIG_SIZE)


def _sql_significant_terms_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(SIG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)), "
        "n AS (SELECT count(*)::DOUBLE AS n_docs FROM docs), "
        "fgt AS (SELECT count(*)::DOUBLE AS fg_total FROM hits), "
        "fg AS (SELECT term, count(DISTINCT toks.doc_id)::BIGINT AS fg_count "
        "FROM toks JOIN hits h ON toks.doc_id = h.doc_id GROUP BY 1), "
        "bg AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS bg_count "
        "FROM toks GROUP BY 1), "
        "scored AS (SELECT fg.term, fg_count, bg_count, "
        "round(((fg_count / fg_total) - (bg_count / n_docs)) * "
        "((fg_count / fg_total) / (bg_count / n_docs)), 6) AS score "
        "FROM fg JOIN bg USING (term) CROSS JOIN n CROSS JOIN fgt) "
        "SELECT term, fg_count, bg_count, score FROM scored "
        f"WHERE score > 0 ORDER BY score DESC, term ASC LIMIT {SIG_SIZE}"
    )


AGG_PERCENTS = (1, 5, 25, 50, 75, 95, 99)  # ES percentiles-agg defaults


def q_percentiles_agg_match(sf_dir: str):
    """ES percentiles aggregation: word_count quantiles over the docs
    matching an OR match query — integer-exact via interval-1 histogram
    partials (ES approximates with TDigest; the lossless histogram is
    strictly better at integer metrics)."""
    from ..index.aggs import percentiles_agg

    idx = _ensure_doc_index(sf_dir)
    return percentiles_agg(idx, TERMS_AGG_QUERY, AGG_PERCENTS)


def _sql_percentiles_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    sel = ", ".join(
        f"round(quantile_cont(coalesce(dl.dl, 0), {p / 100.0}), 4) "
        f"AS p{int(p)}" for p in AGG_PERCENTS)
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        f"SELECT {sel} FROM hits h LEFT JOIN dl USING (doc_id)"
    )


def q_cardinality_agg_match(sf_dir: str):
    """ES cardinality aggregation: distinct ``source`` values among the
    docs matching an OR match query. The gate exercises the EXACT path
    (true cardinality far below ES's default precision_threshold=3000);
    above the threshold the same call returns a HyperLogLog estimate
    (pytest-gated instead, like distinct_count_hll)."""
    from ..index.aggs import cardinality_agg

    idx = _ensure_doc_index(sf_dir)
    t = cardinality_agg(idx, TERMS_AGG_QUERY, "source")
    return t.select(["cardinality"])


def _sql_cardinality_agg_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, source, lower(text) AS t "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT count(DISTINCT d.source)::BIGINT AS cardinality "
        "FROM hits h JOIN docs d USING (doc_id)"
    )


EXPORT_QUERY = "hash join"
SORT_K = 20


def q_match_export(sf_dir: str):
    """ES scroll parity: EVERY doc matching an OR match query, streamed as
    a Ray Dataset — the inverted index acts as a pushdown filter over the
    corpus; stored fields (lang) join from a url-range-pruned corpus read
    per segment. Returns the lazy Dataset (no driver materialization)."""
    from ..index.export import export_matches

    idx = _ensure_doc_index(sf_dir)
    ds = export_matches(idx, EXPORT_QUERY, stored_columns=("lang",))

    def _proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["url"], pa.int64()),
            "lang": t["lang"],
            "word_count": t["word_count"],
        })

    return ds.map_batches(_proj, batch_format="pyarrow")


def _sql_match_export() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(EXPORT_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lang, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT d.doc_id, d.lang, coalesce(dl.dl, 0)::BIGINT AS word_count "
        "FROM hits h JOIN docs d USING (doc_id) LEFT JOIN dl USING (doc_id)"
    )


def q_sorted_match_topk(sf_dir: str):
    """ES field sort: top-k matching docs ordered by word_count desc
    (ties doc_id asc) — per-segment partial top-k, k x segments driver
    merge. Engine url rank preserves original doc_id order, so the
    engine's tie-break maps 1:1 onto the oracle's."""
    from ..index.export import sorted_matches

    idx = _ensure_doc_index(sf_dir)
    t = sorted_matches(idx, TERMS_AGG_QUERY, "word_count", k=SORT_K)
    ids = _docid_map(idx)[t["doc_id"].to_numpy()] if t.num_rows else \
        np.empty(0, np.int64)
    return pa.table({"rank": t["rank"],
                     "doc_id": pa.array(ids, pa.int64()),
                     "word_count": t["sort_value"]})


def _sql_sorted_match_topk() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(TERMS_AGG_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1), "
        f"q(term) AS (VALUES {vals}), "
        "hits AS (SELECT DISTINCT toks.doc_id FROM toks JOIN q USING (term)) "
        "SELECT row_number() OVER (ORDER BY coalesce(dl.dl, 0) DESC, "
        "doc_id ASC)::BIGINT AS rank, doc_id, "
        "coalesce(dl.dl, 0)::BIGINT AS word_count "
        "FROM hits h LEFT JOIN dl USING (doc_id) "
        f"ORDER BY rank LIMIT {SORT_K}"
    )


DOC_MULTI_QUERIES = ["query scan", "the fast join", "customer order line",
                     "slow filter the data", "hash part value"]


def _docs_to_corpus_mf(t: pa.Table) -> pa.Table:
    """Corpus schema + a derived ``title`` column: the doc's first 8
    standard-analyzer tokens joined by spaces (a deterministic stand-in
    for a real title field; re-analyzing with 'standard' reproduces
    exactly those tokens). Vectorized: one batch tokenize, ordinal mask,
    Arrow list binary_join — no per-row Python."""
    base = _docs_to_corpus(t)
    doc_idx, tokens, dl = an.standard_tokenize_batch(base["text"])
    dl64 = dl.astype(np.int64)
    starts = np.r_[0, np.cumsum(dl64)].astype(np.int64)
    ordinal = np.arange(len(doc_idx), dtype=np.int64) - starts[doc_idx]
    keep = ordinal < 8
    offs = np.r_[0, np.cumsum(np.minimum(dl64, 8))].astype(np.int32)
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    kept = tokens.filter(pa.array(keep)) if len(doc_idx) else tokens
    lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                   pc.cast(kept, pa.string()))
    title = pc.binary_join(lst, " ")
    return base.append_column("title", pc.cast(title, pa.large_string()))


def _ensure_mf_doc_index(sf_dir: str) -> str:
    """Multi-field variant of the cached documents index: main ``text``
    field plus a ``title`` field (first 8 tokens, standard analyzer) for
    multi_match queries."""
    tag = _code_fingerprint()
    key = hashlib.md5(sf_dir.encode()).hexdigest()[:12]
    idx = f"/tmp/edlr_cache/mf_docs_{key}"
    marker = os.path.join(idx, "_CATALOG_OK")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == tag:
                return idx
    shutil.rmtree(idx, ignore_errors=True)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"])
    corpus = ds.map_batches(_docs_to_corpus_mf, batch_format="pyarrow")
    build_index_from_corpus(
        corpus, idx, BuildConfig(docs_per_segment=2000,
                                 fields=(("title", "title", "standard"),)))
    with open(marker, "w") as f:
        f.write(tag)
    return idx


def q_bm25_multi_topk(sf_dir: str):
    """multi_match (ES most_fields analogue): BM25 over the main text
    field AND a derived title field (first 8 tokens), per-field df/avgdl,
    combined score = sum of per-field scores — title hits effectively
    double-weight lead tokens. Distributed segment-parallel path."""
    idx = _ensure_mf_doc_index(sf_dir)
    qs = [{"query_id": i, "query": q, "k": DOC_K + 20,
           "fields": ["text", "title"], "multi_type": "most_fields"}
          for i, q in enumerate(DOC_MULTI_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_multi_field(queries: list[str], agg: str,
                     boost_text: float = 1.0,
                     boost_title: float = 1.0) -> str:
    """Shared multi_match oracle: per-field BM25 (text + first-8-token
    title), per-field boost applied to the FIELD SUM (engine order:
    ``boost * fsc``), combined by ``agg`` ('sum' = most_fields, 'max' =
    best_fields / dis_max)."""
    from ..index.search import query_terms

    values = []
    for qid, q in enumerate(queries):
        for t in query_terms(q):
            values.append(f"({qid}, '{t}')")
    vals = ", ".join(values) if values else "(NULL, NULL)"
    k1, b = codec.BM25_K1, codec.BM25_B

    def scored(tf: str, df: str, dl: str, avgdl_expr: str,
               boost: float) -> str:
        return (
            f"SELECT q.query_id, {tf}.doc_id, "
            f"{boost!r} * sum(ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * "
            f"{tf}.tf * {k1 + 1.0} / ({tf}.tf + {k1} * "
            f"(1 - {b} + {b} * {dl}.dl / {avgdl_expr})))"
            " AS score "
            f"FROM q JOIN {tf} ON {tf}.term = q.term "
            f"JOIN {df} d ON d.term = q.term "
            f"JOIN {dl} ON {dl}.doc_id = {tf}.doc_id "
            "CROSS JOIN stats s GROUP BY 1, 2")

    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, '{TOKEN_RE_SQL}')) "
        "AS term FROM docs), "
        "ttoks AS (SELECT doc_id, unnest(list_slice("
        f"regexp_extract_all(t, '{TOKEN_RE_SQL}'), 1, 8)) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "ttf AS (SELECT doc_id, term, count(*) AS tf FROM ttoks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d LEFT JOIN "
        "(SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c USING (doc_id)), "
        "tdl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d LEFT JOIN "
        "(SELECT doc_id, count(*) AS cnt FROM ttoks GROUP BY 1) c USING (doc_id)), "
        # idf n is the GLOBAL doc count for every field (engine convention);
        # avgdl is per-field over all docs
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl, "
        "(SELECT avg(dl)::DOUBLE FROM tdl) AS tavgdl FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        "tdf AS (SELECT term, count(*) AS df FROM ttf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {vals}), "
        f"sc_text AS ({scored('tf', 'df', 'dl', 's.avgdl', boost_text)}), "
        f"sc_title AS ({scored('ttf', 'tdf', 'tdl', 's.tavgdl', boost_title)}), "
        f"combined AS (SELECT query_id, doc_id, {agg}(score) AS score FROM "
        "(SELECT * FROM sc_text UNION ALL SELECT * FROM sc_title) "
        "GROUP BY 1, 2) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM combined) "
        f"WHERE rank <= {DOC_K}"
    )


def _sql_bm25_multi_topk() -> str:
    return _sql_multi_field(DOC_MULTI_QUERIES, "sum")


DOC_DISMAX_QUERIES = ["query scan", "the fast join", "slow filter the data",
                      "hash part value", "data page"]


def q_bm25_dismax_topk(sf_dir: str):
    """multi_match best_fields with a field boost (ES dis_max analogue,
    ``fields=["text", "title^2"]``): combined score = max(text score,
    2 x title score) — boosted-title docs win when their lead tokens
    match. Distributed segment-parallel path."""
    idx = _ensure_mf_doc_index(sf_dir)
    qs = [{"query_id": i, "query": q, "k": DOC_K + 20,
           "fields": ["text", "title^2"], "multi_type": "best_fields"}
          for i, q in enumerate(DOC_DISMAX_QUERIES)]
    res = search(idx, qs).to_pandas()
    if len(res) == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    res["doc_id"] = _docid_map(idx)[res["doc_id"].to_numpy()]
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_bm25_dismax_topk() -> str:
    return _sql_multi_field(DOC_DISMAX_QUERIES, "max",
                            boost_text=1.0, boost_title=2.0)


DOC_PHRASES = ["the data", "data search", "query scan", "the the",
               "zzq missing"]

# benchmark-holdout probes for the decontamination scan (mix of present
# and absent n-grams; non-self-overlapping so occurrence semantics agree)
CONTAM_PROBES = ["the data search", "query scan", "hash join the",
                 "slow filter", "zzq absent probe"]


def q_contamination_scan(sf_dir: str):
    """Decontamination scan: exact phrase-probe check (the standard
    n-gram holdout test run before training) — distributed phrase match
    per probe over the positional index, per-probe contaminated-doc
    counts and corpus fractions. At 100 TB this is one positions-enabled
    index pass per probe batch instead of a full-corpus regex scan."""
    from ..index.search import _load_stats

    idx = _ensure_doc_index(sf_dir, positions=True)
    qs = [{"query_id": i, "query": p, "k": 10**9, "mode": "phrase"}
          for i, p in enumerate(CONTAM_PROBES)]
    res = search(idx, qs).to_pandas()
    n_docs = int(_load_stats(idx)["n_docs"])
    counts = res.groupby("query_id").size() if len(res) else {}
    n = [int(counts.get(i, 0)) for i in range(len(CONTAM_PROBES))]
    return pa.table({
        "probe_id": pa.array(range(len(CONTAM_PROBES)), pa.int64()),
        "n_contaminated": pa.array(n, pa.int64()),
        "frac": pa.array([round(c / n_docs, 6) for c in n], pa.float64()),
    })


def _sql_contamination_scan() -> str:
    parts = []
    for pid, probe in enumerate(CONTAM_PROBES):
        from ..functions.analyzers import analyze

        toks = " ".join(analyze("standard", probe))
        parts.append(
            f"SELECT {pid} AS probe_id, "
            f"count(*)::BIGINT AS n_contaminated, "
            f"round(count(*) / (SELECT n FROM n), 6) AS frac "
            f"FROM s WHERE txt LIKE '% {toks} %'"
        )
    return (
        "WITH s AS (SELECT doc_id, ' ' || array_to_string("
        f"regexp_extract_all(lower(text), '{TOKEN_RE_SQL}'), ' ') || ' ' "
        "AS txt FROM documents WHERE text IS NOT NULL AND text <> ''), "
        "n AS (SELECT count(*)::DOUBLE AS n FROM s) "
        + " UNION ALL ".join(parts)
    )


GOPHER_TOP_FRAC = 0.2


def q_repetition_quality(sf_dir: str):
    """Gopher-style repetition filter: per doc, the most-frequent token's
    share of the doc (top_tf / word_count); docs above the threshold are
    flagged as repetitive. Fully vectorized per batch: one tokenize, one
    dictionary-encode, one np.unique over combined (doc, term) keys, one
    scatter-max — no per-row Python."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        keep = pc.and_(t["text"].is_valid(), pc.not_equal(t["text"], ""))
        t = t.filter(keep)
        doc_idx, tokens, dl = an.standard_tokenize_batch(
            pc.cast(t["text"], pa.large_string()))
        dl64 = dl.astype(np.int64)
        has = np.flatnonzero(dl64 > 0)
        if len(has) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "word_count": pa.array([], pa.int64()),
                             "top_tf": pa.array([], pa.int64()),
                             "top_frac": pa.array([], pa.float64()),
                             "flagged": pa.array([], pa.bool_())})
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        codes = np.asarray(pc.dictionary_encode(tokens).indices,
                           dtype=np.int64)
        nv = int(codes.max()) + 1
        pair, cnt = np.unique(doc_idx.astype(np.int64) * nv + codes,
                              return_counts=True)
        top = np.zeros(t.num_rows, dtype=np.int64)
        np.maximum.at(top, (pair // nv).astype(np.int64), cnt)
        frac = top[has] / dl64[has]
        return pa.table({
            "doc_id": t["doc_id"].take(pa.array(has)),
            "word_count": pa.array(dl64[has], pa.int64()),
            "top_tf": pa.array(top[has], pa.int64()),
            "top_frac": pa.array(np.round(frac, 6), pa.float64()),
            "flagged": pa.array(frac > GOPHER_TOP_FRAC, pa.bool_()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


SQL_REPETITION_QUALITY = (
    "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
    "WHERE text IS NOT NULL AND text <> ''), "
    f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
    f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
    "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
    "agg AS (SELECT doc_id, sum(tf) AS dl, max(tf) AS top_tf FROM tf "
    "GROUP BY 1) "
    "SELECT doc_id, dl::BIGINT AS word_count, top_tf::BIGINT AS top_tf, "
    "round(top_tf::DOUBLE / dl, 6) AS top_frac, "
    f"(top_tf::DOUBLE / dl) > {GOPHER_TOP_FRAC} AS flagged FROM agg"
)


def q_url_canonicalize(sf_dir: str):
    """URL canonicalization (the RefinedWeb/CCNet normalization that
    precedes url-keyed crawl dedup): lowercase scheme+host, strip
    default ports, drop fragments and tracking params (utm_*/fbclid/
    gclid), sort surviving params, trim trailing slashes — vectorized
    in ``stages/urltools.py``. The synthetic corpus has no URL column,
    so the entry builds deterministic messy URLs from doc_id (4 variants
    exercising every rule; same expression in the SQL oracle) and the
    oracle compares the canonical strings byte-exactly."""
    from ..stages.urltools import canonicalize_urls

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])

    def xf(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        ids = did.astype("U20")
        mod = (did % 50).astype("U3")
        v = did % 4

        def cat(*parts):
            out = np.full(len(did), "", dtype="U120")
            for p in parts:
                out = np.char.add(out, p)
            return out

        u = np.where(
            v == 0,
            cat("https://WWW.Example", mod, ".com:443/path/", ids,
                "/?utm_source=x&b=2&a=1#frag"),
            np.where(
                v == 1,
                cat("http://example", mod, ".org:80/a/b", ids,
                    "?fbclid=abc&z=9"),
                np.where(
                    v == 2,
                    cat("https://sub.site", mod, ".net/p", ids, "//"),
                    cat("http://Mixed.Case", mod, ".com/x", ids,
                        "?z=1&y=2&utm_campaign=c"))))
        urls = pa.array(u, pa.string())
        return pa.table({"doc_id": t["doc_id"], "url": urls,
                         "canon_url": canonicalize_urls(urls)})

    return ds.map_batches(xf, batch_format="pyarrow")


def _sql_url_canonicalize() -> str:
    return (
        "WITH base AS (SELECT doc_id, CASE doc_id % 4 "
        "WHEN 0 THEN 'https://WWW.Example' || (doc_id % 50) "
        "|| '.com:443/path/' || doc_id || '/?utm_source=x&b=2&a=1#frag' "
        "WHEN 1 THEN 'http://example' || (doc_id % 50) || '.org:80/a/b' "
        "|| doc_id || '?fbclid=abc&z=9' "
        "WHEN 2 THEN 'https://sub.site' || (doc_id % 50) || '.net/p' "
        "|| doc_id || '//' "
        "ELSE 'http://Mixed.Case' || (doc_id % 50) || '.com/x' || doc_id "
        "|| '?z=1&y=2&utm_campaign=c' END AS url FROM documents), "
        "parts AS (SELECT doc_id, url, "
        "lower(regexp_extract(url, '^([a-zA-Z][a-zA-Z0-9+.\\-]*)://', 1)) "
        "AS scheme, "
        "lower(regexp_extract(url, '^[^:]+://([^/?#]*)', 1)) AS hostport, "
        "regexp_extract(url, '^[^:]+://[^/?#]*([^?#]*)', 1) AS path, "
        "regexp_extract(url, '\\?([^#]*)', 1) AS query FROM base), "
        "p2 AS (SELECT doc_id, url, scheme, "
        "CASE WHEN scheme = 'http' AND hostport LIKE '%:80' "
        "THEN left(hostport, len(hostport) - 3) "
        "WHEN scheme = 'https' AND hostport LIKE '%:443' "
        "THEN left(hostport, len(hostport) - 4) ELSE hostport END AS host, "
        "regexp_replace(path, '(.+?)/+$', '\\1') AS path, query "
        "FROM parts), "
        "prm AS (SELECT doc_id, array_to_string(list_sort(list_filter("
        "string_split(query, '&'), x -> x <> '' AND NOT regexp_matches(x, "
        "'^(utm_[^=]*|fbclid|gclid)='))), '&') AS q FROM p2) "
        "SELECT p2.doc_id, p2.url, p2.scheme || '://' || p2.host || p2.path "
        "|| CASE WHEN prm.q <> '' THEN '?' || prm.q ELSE '' END "
        "AS canon_url FROM p2 JOIN prm USING (doc_id)"
    )


GOPHER_DUP2_FRAC = 0.4  # Gopher thresholds (token-level adaptation)
GOPHER_TOP2_FRAC = 0.2


def q_ngram_repetition(sf_dir: str):
    """Gopher's n-gram repetition signals (token-level adaptation of the
    character fractions): per doc and per n in {2, 3} — the share of
    tokens covered by the single most frequent n-gram
    (``n * top_count / word_count``) and by ALL duplicated n-grams
    (``n * sum(count | count > 1) / word_count``), plus a pass flag at
    the Gopher-style thresholds. One tokenize per batch; n-gram
    instances from shifted Arrow takes; per-(doc, gram) counts from one
    np.unique; scatter-max/-add for the fractions — no row loop."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        keep = pc.and_(t["text"].is_valid(), pc.not_equal(t["text"], ""))
        t = t.filter(keep)
        idx, toks, dl = an.standard_tokenize_batch(
            pc.cast(t["text"], pa.large_string()))
        dl64 = dl.astype(np.int64)
        n_rows = t.num_rows
        cols = {"doc_id": None, "word_count": None}
        tops, dups = {}, {}
        if isinstance(toks, pa.ChunkedArray):
            toks = pc.cast(toks.combine_chunks(), pa.large_string())
        else:
            toks = pc.cast(toks, pa.large_string())
        for n in (2, 3):
            top = np.zeros(n_rows, np.int64)
            dup = np.zeros(n_rows, np.int64)
            if len(toks) >= n:
                ok = idx[n - 1:] == idx[:len(toks) - n + 1]
                starts = np.flatnonzero(ok)
                if len(starts):
                    sa = pa.array(starts)
                    grams = pc.binary_join_element_wise(
                        *[pc.take(toks, pc.add(sa, j)) for j in range(n)],
                        pa.scalar(" ", pa.large_string()))
                    codes = np.asarray(pc.dictionary_encode(grams).indices,
                                       dtype=np.int64)
                    nv = int(codes.max()) + 1
                    rows = idx[starts].astype(np.int64)
                    pair, cnt = np.unique(rows * nv + codes,
                                          return_counts=True)
                    prow = (pair // nv).astype(np.int64)
                    np.maximum.at(top, prow, cnt)
                    d = np.where(cnt > 1, cnt, 0)
                    np.add.at(dup, prow, d)
            tops[n], dups[n] = top, dup
        has = np.flatnonzero(dl64 > 0)
        safe = dl64[has].astype(np.float64)
        out = {"doc_id": t["doc_id"].take(pa.array(has)),
               "word_count": pa.array(dl64[has], pa.int64())}
        for n in (2, 3):
            out[f"top{n}_frac"] = pa.array(
                np.round(n * tops[n][has] / safe, 6), pa.float64())
            out[f"dup{n}_frac"] = pa.array(
                np.round(n * dups[n][has] / safe, 6), pa.float64())
        passes = ((2 * tops[2][has] / safe <= GOPHER_TOP2_FRAC)
                  & (2 * dups[2][has] / safe <= GOPHER_DUP2_FRAC))
        out["passes"] = pa.array(passes, pa.bool_())
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow")


def _sql_ngram_repetition() -> str:
    def gram_cte(n: int) -> str:
        return (
            f"g{n} AS (SELECT doc_id, array_to_string(ts[i:i+{n - 1}], ' ') "
            "AS gram FROM (SELECT doc_id, ts, unnest(range(1, "
            f"greatest(len(ts) - {n - 2}, 1))) AS i FROM tc) "
            f"WHERE i + {n - 1} <= len(ts)), "
            f"c{n} AS (SELECT doc_id, count(*) AS c FROM g{n} "
            "GROUP BY doc_id, gram), "
            f"a{n} AS (SELECT doc_id, max(c) AS top{n}, "
            f"coalesce(sum(c) FILTER (WHERE c > 1), 0) AS dup{n} "
            f"FROM c{n} GROUP BY 1)")

    return (
        f"WITH tc AS (SELECT doc_id, regexp_extract_all("
        f"lower(coalesce(text, '')), '{TOKEN_RE_SQL}') AS ts "
        "FROM documents WHERE text IS NOT NULL AND text <> ''), "
        f"{gram_cte(2)}, {gram_cte(3)}, "
        "base AS (SELECT doc_id, len(ts)::BIGINT AS word_count FROM tc "
        "WHERE len(ts) > 0) "
        "SELECT b.doc_id, b.word_count, "
        "round(2 * coalesce(a2.top2, 0)::DOUBLE / b.word_count, 6) "
        "AS top2_frac, "
        "round(2 * coalesce(a2.dup2, 0)::DOUBLE / b.word_count, 6) "
        "AS dup2_frac, "
        "round(3 * coalesce(a3.top3, 0)::DOUBLE / b.word_count, 6) "
        "AS top3_frac, "
        "round(3 * coalesce(a3.dup3, 0)::DOUBLE / b.word_count, 6) "
        "AS dup3_frac, "
        f"(2 * coalesce(a2.top2, 0)::DOUBLE / b.word_count "
        f"<= {GOPHER_TOP2_FRAC} AND "
        f"2 * coalesce(a2.dup2, 0)::DOUBLE / b.word_count "
        f"<= {GOPHER_DUP2_FRAC}) AS passes "
        "FROM base b LEFT JOIN a2 USING (doc_id) "
        "LEFT JOIN a3 USING (doc_id)"
    )


def q_phrase_match(sf_dir: str):
    """Phrase (match_phrase) queries via the positional index: matching doc
    set per phrase. Requires index_positions=True (separate cached index)."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    out_q, out_d = [], []
    for qid, phrase in enumerate(DOC_PHRASES):
        ids, _sc, _fq = lo.search_phrase(phrase, k=10**9)
        out_q.extend([qid] * len(ids))
        out_d.extend(sorted(int(dmap[i]) for i in ids))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64())})


def _sql_phrase_match() -> str:
    parts = []
    for qid, phrase in enumerate(DOC_PHRASES):
        from ..functions.analyzers import analyze

        toks = " ".join(analyze("standard", phrase))
        parts.append(
            f"SELECT {qid} AS query_id, doc_id FROM toks "
            f"WHERE s LIKE '% {toks} %'"
        )
    return (
        "WITH toks AS (SELECT doc_id, ' ' || array_to_string("
        f"regexp_extract_all(lower(text), '{TOKEN_RE_SQL}'), ' ') || ' ' AS s "
        "FROM documents WHERE text IS NOT NULL AND text <> '') "
        + " UNION ALL ".join(parts)
    )


SPAN_NEAR_QUERIES = [
    ("data", "query", 2),
    ("hash", "join", 1),
    ("slow", "scan", 3),
    ("the", "table", 0),
    ("fast", "data", 4),
]


def q_span_near_match(sf_dir: str):
    """ES span_near (in_order=true): docs where the two span_term
    clauses occur in order with at most ``slop`` intervening positions —
    positional-index DP (one searchsorted + prefix-max per clause step,
    O(positions) per doc). slop=0 degenerates to exact phrase."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    out_q, out_d = [], []
    for qid, (a, b, slop) in enumerate(SPAN_NEAR_QUERIES):
        ids = lo.span_near([a, b], slop=slop)
        out_q.extend([qid] * len(ids))
        out_d.extend(sorted(int(dmap[i]) for i in ids))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64())})


def _sql_span_near_match() -> str:
    parts = []
    for qid, (a, b, slop) in enumerate(SPAN_NEAR_QUERIES):
        parts.append(
            f"SELECT {qid} AS query_id, a.doc_id FROM pos a JOIN pos b "
            f"ON b.doc_id = a.doc_id AND a.term = '{a}' AND "
            f"b.term = '{b}' AND b.p > a.p AND b.p - a.p - 1 <= {slop} "
            "GROUP BY 1, 2"
        )
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS toks FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        # zipped unnests: (term, position) pairs per doc
        "pos AS (SELECT doc_id, unnest(toks) AS term, "
        "unnest(range(1, len(toks) + 1)) AS p FROM docs) "
        + " UNION ALL ".join(parts)
    )


# (terms, max_gaps) — unordered all_of interval sources
INTERVALS_QUERIES = [
    (("data", "query"), 0),
    (("hash", "join"), 2),
    (("slow", "filter"), 1),
    (("table", "window", "part"), 3),
]


def q_intervals_match(sf_dir: str):
    """ES intervals query (all_of, ordered=false, max_gaps): docs where
    every clause term occurs in one window with <= max_gaps intervening
    positions, any order — minimal-covering-window sweep over the
    positional index (``LocalSearcher.intervals_all_of``); ordered=true
    delegates to the span_near DP."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    out_q, out_d = [], []
    for qid, (terms, gaps) in enumerate(INTERVALS_QUERIES):
        ids = lo.intervals_all_of(list(terms), max_gaps=gaps)
        out_q.extend([qid] * len(ids))
        out_d.extend(sorted(int(dmap[i]) for i in ids))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64())})


def _sql_intervals_match() -> str:
    parts = []
    for qid, (terms, gaps) in enumerate(INTERVALS_QUERIES):
        k = len(terms)
        als = [chr(ord("a") + i) for i in range(k)]
        joins = " JOIN ".join(
            f"pos {al}" + ("" if i == 0 else
                           f" ON {al}.doc_id = a.doc_id")
            for i, al in enumerate(als))
        conds = " AND ".join(f"{al}.term = '{t}'"
                             for al, t in zip(als, terms))
        ps = ", ".join(f"{al}.p" for al in als)
        parts.append(
            f"SELECT {qid} AS query_id, a.doc_id FROM {joins} "
            f"WHERE {conds} AND "
            f"greatest({ps}) - least({ps}) + 1 - {k} <= {gaps} "
            "GROUP BY 1, 2"
        )
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS toks FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "pos AS (SELECT doc_id, unnest(toks) AS term, "
        "unnest(range(1, len(toks) + 1)) AS p FROM docs) "
        + " UNION ALL ".join(parts)
    )


# phrases whose LAST token is a prefix; expansions stay under ES's
# max_expansions=50 cap on this vocabulary, so engine and oracle agree
DOC_PREFIX_PHRASES = ["query s", "hash jo", "the da", "v", "fast fil"]


BOOL_PREFIX_QUERIES = ["data qu", "hash jo", "the scan ta",
                       "merge wind", "sp"]


def q_match_bool_prefix(sf_dir: str):
    """ES match_bool_prefix: all-but-last analyzed terms are scored term
    clauses in a bool should, the last is a constant_score PREFIX clause
    (+1.0 per matching doc, unbounded dictionary expansion) — see
    ``LocalSearcher.search_bool_prefix``. Top-k per query."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    rows = []
    for qid, q in enumerate(BOOL_PREFIX_QUERIES):
        ids, sc = lo.search_bool_prefix(q, k=DOC_K + 20)
        for d, s in zip(ids, sc):
            rows.append((qid, int(dmap[int(d)]), float(s)))
    res = pd.DataFrame(rows, columns=["query_id", "doc_id", "score"])
    return _round_rerank(res, DOC_K, "query_id", "score", "doc_id")


def _sql_match_bool_prefix() -> str:
    from ..functions.analyzers import analyze

    crows, prows = [], []
    for qid, q in enumerate(BOOL_PREFIX_QUERIES):
        seq = analyze("standard", q)
        for t in sorted(set(seq[:-1])):
            crows.append(f"({qid}, '{t}')")
        prows.append(f"({qid}, '{seq[-1]}')")
    cvals = ", ".join(crows) if crows else "(NULL, NULL)"
    pvals = ", ".join(prows)
    k1, b = codec.BM25_K1, codec.BM25_B
    return (
        "WITH docs AS (SELECT doc_id, lower(text) AS t FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        f"toks AS (SELECT doc_id, unnest(regexp_extract_all(t, "
        f"'{TOKEN_RE_SQL}')) AS term FROM docs), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2), "
        "dl AS (SELECT d.doc_id, coalesce(c.cnt, 0) AS dl FROM docs d "
        "LEFT JOIN (SELECT doc_id, count(*) AS cnt FROM toks GROUP BY 1) c "
        "USING (doc_id)), "
        "stats AS (SELECT count(*)::DOUBLE AS n, avg(dl)::DOUBLE AS avgdl "
        "FROM dl), "
        "df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1), "
        f"q(query_id, term) AS (VALUES {cvals}), "
        f"p(query_id, prefix) AS (VALUES {pvals}), "
        "scored_f AS (SELECT q.query_id, tf.doc_id, "
        "sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5)) * "
        f"tf.tf * {k1 + 1.0} / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / "
        "s.avgdl))) AS score "
        "FROM q JOIN tf ON tf.term = q.term JOIN df ON df.term = q.term "
        "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        "WHERE q.term IS NOT NULL GROUP BY 1, 2), "
        "pref AS (SELECT DISTINCT p.query_id, tf.doc_id FROM p "
        "JOIN tf ON tf.term LIKE p.prefix || '%'), "
        "combined AS (SELECT coalesce(f.query_id, pr.query_id) AS query_id, "
        "coalesce(f.doc_id, pr.doc_id) AS doc_id, "
        "coalesce(f.score, 0) + CASE WHEN pr.doc_id IS NOT NULL "
        "THEN 1.0 ELSE 0.0 END AS score "
        "FROM scored_f f FULL OUTER JOIN pref pr "
        "ON pr.query_id = f.query_id AND pr.doc_id = f.doc_id) "
        "SELECT query_id, rank, doc_id, score FROM ("
        "SELECT query_id, doc_id, round(score, 6) AS score, "
        "row_number() OVER (PARTITION BY query_id "
        "ORDER BY round(score, 6) DESC, doc_id ASC) AS rank FROM combined) "
        f"WHERE rank <= {DOC_K}"
    )


def q_match_phrase_prefix(sf_dir: str):
    """ES match_phrase_prefix: the fixed tokens followed by any term
    carrying the last token as a prefix (term-dictionary expansion in term
    order, Lucene's rewrite) — matching doc set per query via the
    positional index."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    lo = LocalSearcher(idx)
    dmap = _docid_map(idx)
    out_q, out_d = [], []
    for qid, phrase in enumerate(DOC_PREFIX_PHRASES):
        ids, _sc, _fq = lo.search_phrase_prefix(phrase, k=10**9)
        out_q.extend([qid] * len(ids))
        out_d.extend(sorted(int(dmap[i]) for i in ids))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64())})


def _sql_match_phrase_prefix() -> str:
    parts = []
    for qid, phrase in enumerate(DOC_PREFIX_PHRASES):
        from ..functions.analyzers import analyze

        toks = " ".join(analyze("standard", phrase))
        # no trailing space: the last token is a prefix of the next token
        parts.append(
            f"SELECT {qid} AS query_id, doc_id FROM toks "
            f"WHERE s LIKE '% {toks}%'"
        )
    return (
        "WITH toks AS (SELECT doc_id, ' ' || array_to_string("
        f"regexp_extract_all(lower(text), '{TOKEN_RE_SQL}'), ' ') || ' ' AS s "
        "FROM documents WHERE text IS NOT NULL AND text <> '') "
        + " UNION ALL ".join(parts)
    )


HIGHLIGHT_QUERY = "slow filter data"
SNIPPET_WINDOW = 2


def q_snippet_match(sf_dir: str):
    """ES highlight fragments: the window-token neighbourhood of the
    earliest query-term occurrence per matched doc, re-tokenized from
    stored text — streamed as a lazy Dataset (segment-local postings,
    positions and corpus reads)."""
    from ..index.export import snippet_matches

    idx = _ensure_doc_index(sf_dir, positions=True)
    ds = snippet_matches(idx, HIGHLIGHT_QUERY, window=SNIPPET_WINDOW)

    def _proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["url"], pa.int64()),
            "anchor_pos": t["anchor_pos"],
            "snippet": t["snippet"],
        })

    return ds.map_batches(_proj, batch_format="pyarrow")


def _sql_snippet_match() -> str:
    from ..index.search import query_terms

    w = SNIPPET_WINDOW
    vals = ", ".join(f"('{t}')" for t in query_terms(HIGHLIGHT_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS arr FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "toks AS (SELECT doc_id, unnest(arr) AS term, "
        "unnest(generate_series(0, len(arr) - 1)) AS pos FROM docs), "
        f"q(term) AS (VALUES {vals}), "
        "anchor AS (SELECT doc_id, min(pos) AS p FROM toks "
        "JOIN q USING (term) GROUP BY 1) "
        "SELECT a.doc_id, p::BIGINT AS anchor_pos, "
        f"array_to_string(arr[greatest(1, p - {w} + 1) : p + {w} + 1], ' ') "
        "AS snippet FROM anchor a JOIN docs USING (doc_id)"
    )


def q_highlight_match(sf_dir: str):
    """ES highlight anchor: (doc_id, term, first_pos) for every doc
    matching the OR match query — the first token position of each query
    term present, decoded as positions_stream[run_starts] (each run's
    first position is stored absolute), no full position decode."""
    from ..index.search import LocalSearcher

    idx = _ensure_doc_index(sf_dir, positions=True)
    t = LocalSearcher(idx).highlight(HIGHLIGHT_QUERY)
    ids = (_docid_map(idx)[t["doc_id"].to_numpy()]
           if t.num_rows else np.empty(0, np.int64))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "term": t["term"],
                     "first_pos": t["first_pos"]})


def _sql_highlight_match() -> str:
    from ..index.search import query_terms

    vals = ", ".join(f"('{t}')" for t in query_terms(HIGHLIGHT_QUERY))
    return (
        "WITH docs AS (SELECT doc_id, regexp_extract_all(lower(text), "
        f"'{TOKEN_RE_SQL}') AS arr FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "toks AS (SELECT doc_id, unnest(arr) AS term, "
        "unnest(generate_series(0, len(arr) - 1)) AS pos FROM docs), "
        f"q(term) AS (VALUES {vals}) "
        "SELECT doc_id, toks.term, min(pos)::BIGINT AS first_pos "
        "FROM toks JOIN q USING (term) GROUP BY 1, 2"
    )


# ---------------------------------------------------------------------------
# Similarity search: brute-force cosine top-k over embeddings
# ---------------------------------------------------------------------------

EMB_QUERY_IDS = [0, 1, 2]
EMB_K = 10


def q_embedding_topk(sf_dir: str):
    """Brute-force cosine top-k per query vector (numpy matmul per batch
    against a broadcast query matrix), then a tiny global merge — the
    baseline ANN path; see stages/similarity.py for the LSH-bucketed variant.
    """
    emb_path = f"{sf_dir}/embeddings.parquet"
    import pyarrow.parquet as pq

    from ..stages.similarity import vec_matrix

    qt = pq.read_table(emb_path, filters=[("vec_id", "in", EMB_QUERY_IDS)])
    q_ids = qt["vec_id"].to_pylist()
    q_mat = vec_matrix(qt["embedding"])
    q_mat = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, q_mat))

    def score(t: pa.Table) -> pa.Table:
        from ..stages.similarity import vec_matrix as _vm

        ids_q, qm = ray.get(q_ref)
        vecs = _vm(t["embedding"])
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (vecs / norms) @ qm.T  # (batch, n_q)
        vids = t["vec_id"].to_numpy()
        out_q, out_v, out_s = [], [], []
        for c, qid in enumerate(ids_q):
            s = sims[:, c]
            k = min(EMB_K + 10, len(s))
            if len(s) > k:
                kth = np.partition(s, -k)[-k]
                part = np.flatnonzero(s >= kth)  # keep ALL boundary ties
            else:
                part = np.arange(len(s))
            out_q.extend([qid] * len(part))
            out_v.extend(vids[part].tolist())
            out_s.extend(s[part].tolist())
        return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "cos_sim": pa.array(out_s, pa.float64())})

    parts = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
             .map_batches(score, batch_format="pyarrow").to_pandas())
    return _round_rerank(parts, EMB_K, "query_vec_id", "cos_sim", "vec_id")


EMB_NEARDUP_T = 0.40  # cosine threshold: ~0.05% densest tail of all pairs


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs: every (a, b), a < b, with
    round(cos, 6) >= EMB_NEARDUP_T — the exact all-pairs baseline of the
    dedup family (exact hash / MinHash-LSH / SimHash / n-gram Jaccard /
    embedding cosine).

    Scale shape: vectors are L2-normalized per block once, blocks live in
    the object store, and ONE RAY TASK PER BLOCK PAIR (upper triangle) does
    a dense (b x b) float64 matmul — O(B^2) independent tasks, no driver
    materialization and no shuffle. At 100 TB the exact cartesian is
    replaced by the IVF/LSH candidate route (stages/ivf.py, similarity.py)
    feeding the same verify kernel; this entry is the exactness oracle for
    that path.
    """
    emb_path = f"{sf_dir}/embeddings.parquet"

    def norm_block(t: pa.Table) -> pa.Table:
        from ..stages.similarity import vec_matrix as _vm

        m = _vm(t["embedding"]).astype(np.float64)
        nrm = np.linalg.norm(m, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        m = m / nrm
        return pa.table({
            "vec_id": t["vec_id"],
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(m.reshape(-1), pa.float64()), m.shape[1]),
        })

    nblocks = max(4, _ncpus() // 2)
    ds = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"],
                          override_num_blocks=nblocks)
          .map_batches(norm_block, batch_format="pyarrow"))
    refs = ds.to_arrow_refs()
    pairs = [{"i": i, "j": j}
             for i in range(len(refs)) for j in range(i, len(refs))]
    refs_list = list(refs)  # tiny: one ObjectRef per block

    def pair_sims(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_s = [], [], []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ta, tb = ray.get(refs_list[i]), ray.get(refs_list[j])
            ids_a = ta["vec_id"].to_numpy()
            ids_b = tb["vec_id"].to_numpy()
            ma = np.asarray(ta["vec"].combine_chunks().values).reshape(
                len(ids_a), -1)
            mb = np.asarray(tb["vec"].combine_chunks().values).reshape(
                len(ids_b), -1)
            sims = np.round(ma @ mb.T, 6)
            ra, cb = np.nonzero(sims >= EMB_NEARDUP_T)
            if i == j:  # diagonal block: upper triangle only (one pair each)
                m = ra < cb
                ra, cb = ra[m], cb[m]
            a_ids, b_ids = ids_a[ra], ids_b[cb]
            lo = np.minimum(a_ids, b_ids)  # cross-block: order by id
            hi = np.maximum(a_ids, b_ids)
            out_a.append(lo)
            out_b.append(hi)
            out_s.append(sims[ra, cb])
        return pa.table({
            "vec_id_a": pa.array(np.concatenate(out_a), pa.int64()),
            "vec_id_b": pa.array(np.concatenate(out_b), pa.int64()),
            "cos_sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

    res = (rd.from_items(pairs)
           .map_batches(pair_sims, batch_format="pyarrow", batch_size=1)
           .to_pandas())
    return res.sort_values(["vec_id_a", "vec_id_b"]).reset_index(drop=True)


SQL_EMBEDDING_NEARDUP = (
    "SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b, "
    "round(list_cosine_similarity(a.embedding::DOUBLE[], "
    "b.embedding::DOUBLE[]), 6) AS cos_sim "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE round(list_cosine_similarity(a.embedding::DOUBLE[], "
    f"b.embedding::DOUBLE[]), 6) >= {EMB_NEARDUP_T}"
)


_EMB_IDS_SQL = ", ".join(str(i) for i in EMB_QUERY_IDS)
SQL_EMBEDDING_TOPK = (
    f"WITH q AS (SELECT vec_id AS qid, embedding::DOUBLE[] AS qe FROM embeddings "
    f"WHERE vec_id IN ({_EMB_IDS_SQL})), "
    "s AS (SELECT q.qid AS query_vec_id, e.vec_id, "
    "round(list_cosine_similarity(e.embedding::DOUBLE[], q.qe), 6) AS cos_sim "
    "FROM embeddings e CROSS JOIN q) "
    "SELECT query_vec_id, rank, vec_id, cos_sim FROM ("
    "SELECT *, row_number() OVER (PARTITION BY query_vec_id "
    "ORDER BY cos_sim DESC, vec_id ASC) AS rank FROM s) "
    f"WHERE rank <= {EMB_K}"
)


KMEANS_K = 8


def q_embedding_kmeans(sf_dir: str):
    """Distributed k-means ASSIGNMENT step over the embedding column —
    the inner loop of IVF training (stages/ivf.py runs the full Lloyd
    iteration on a bounded sample; this entry oracle-checks one exact
    assignment pass over the whole table). Centroids (the first k
    vectors, k=8) are broadcast once via ``ray.put``; each batch does a
    vectorized squared-L2 argmin — integer-only output, so the oracle
    compare is exact (ties break to the lowest centroid id, matching
    the SQL's (dist, cid) ordering)."""
    emb_path = f"{sf_dir}/embeddings.parquet"
    import pyarrow.parquet as pq

    from ..stages.similarity import vec_matrix

    ct = pq.read_table(emb_path, filters=[("vec_id", "<", KMEANS_K)])
    order = np.argsort(ct["vec_id"].to_numpy())
    cents = vec_matrix(ct["embedding"]).astype(np.float64)[order]
    c_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        from ..stages.similarity import vec_matrix as _vm

        c = ray.get(c_ref)
        x = _vm(t["embedding"]).astype(np.float64)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        cl = d2.argmin(axis=1)  # first (= lowest cid) wins ties
        return pa.table({
            "vec_id": t["vec_id"],
            "cluster": pa.array(cl.astype(np.int64), pa.int64()),
        })

    return rd.read_parquet(emb_path).map_batches(
        assign, batch_format="pyarrow")


SQL_EMBEDDING_KMEANS = (
    f"WITH cents AS (SELECT vec_id AS cid, embedding::DOUBLE[] AS c "
    f"FROM embeddings WHERE vec_id < {KMEANS_K}), "
    "d AS (SELECT e.vec_id, c.cid, "
    "list_distance(e.embedding::DOUBLE[], c.c) AS dist "
    "FROM embeddings e CROSS JOIN cents c) "
    "SELECT vec_id, cid::BIGINT AS cluster FROM ("
    "SELECT vec_id, cid, row_number() OVER (PARTITION BY vec_id "
    "ORDER BY dist ASC, cid ASC) AS rn FROM d) WHERE rn = 1"
)


SEMDEDUP_T = 0.35


def q_semdedup_pairs(sf_dir: str):
    """SemDeDup-style semantic near-dup candidates: k-means-assign every
    embedding to a cluster (broadcast centroids, vectorized argmin —
    the same assignment as ``embedding_kmeans``), then emit all
    WITHIN-CLUSTER pairs with round(cos, 6) >= threshold. The clustering
    prunes the candidate space from O(n^2) to sum of per-cluster
    squares — the standard embedding-dedup shape at corpus scale; the
    exact all-pairs baseline (``embedding_neardup``) is its oracle for
    recall. Per-cluster pairing runs as ``groupby(cluster).map_groups``
    (one task per cluster, dense matmul inside)."""
    emb_path = f"{sf_dir}/embeddings.parquet"
    import pyarrow.parquet as pq

    from ..stages.similarity import vec_matrix

    ct = pq.read_table(emb_path, filters=[("vec_id", "<", KMEANS_K)])
    order = np.argsort(ct["vec_id"].to_numpy())
    cents = vec_matrix(ct["embedding"]).astype(np.float64)[order]
    c_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        from ..stages.similarity import vec_matrix as _vm

        c = ray.get(c_ref)
        x = _vm(t["embedding"]).astype(np.float64)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        nrm = np.linalg.norm(x, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        xn = x / nrm
        return pa.table({
            "vec_id": t["vec_id"],
            "cluster": pa.array(d2.argmin(axis=1).astype(np.int64)),
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(xn.reshape(-1), pa.float64()), x.shape[1]),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        o = np.argsort(ids)
        ids = ids[o]
        m = np.stack(g["vec"].to_numpy()[o])
        sims = np.round(m @ m.T, 6)
        ra, cb = np.nonzero(sims >= SEMDEDUP_T)
        keep = ra < cb
        ra, cb = ra[keep], cb[keep]
        return pd.DataFrame({
            "cluster": g["cluster"].iloc[0],
            "vec_id_a": ids[ra], "vec_id_b": ids[cb],
            "cos_sim": sims[ra, cb]})

    res = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
           .map_batches(assign, batch_format="pyarrow")
           .groupby("cluster")
           .map_groups(pairs, batch_format="pandas")
           .to_pandas())
    return pa.Table.from_pandas(
        res.sort_values(["vec_id_a", "vec_id_b"]).reset_index(drop=True),
        preserve_index=False)


SQL_SEMDEDUP_PAIRS = (
    f"WITH cents AS (SELECT vec_id AS cid, embedding::DOUBLE[] AS c "
    f"FROM embeddings WHERE vec_id < {KMEANS_K}), "
    "d AS (SELECT e.vec_id, c.cid, "
    "list_distance(e.embedding::DOUBLE[], c.c) AS dist "
    "FROM embeddings e CROSS JOIN cents c), "
    "asg AS (SELECT vec_id, cid FROM (SELECT vec_id, cid, row_number() "
    "OVER (PARTITION BY vec_id ORDER BY dist ASC, cid ASC) AS rn FROM d) "
    "WHERE rn = 1) "
    "SELECT aa.cid::BIGINT AS cluster, a.vec_id AS vec_id_a, "
    "b.vec_id AS vec_id_b, "
    "round(list_cosine_similarity(a.embedding::DOUBLE[], "
    "b.embedding::DOUBLE[]), 6) AS cos_sim "
    "FROM embeddings a JOIN asg aa ON aa.vec_id = a.vec_id "
    "JOIN embeddings b ON b.vec_id > a.vec_id "
    "JOIN asg bb ON bb.vec_id = b.vec_id AND bb.cid = aa.cid "
    "WHERE round(list_cosine_similarity(a.embedding::DOUBLE[], "
    f"b.embedding::DOUBLE[]), 6) >= {SEMDEDUP_T}"
)


KNN_FILTER_LABEL = 2


def q_knn_filtered_topk(sf_dir: str):
    """ES 8 filtered kNN: cosine top-k per query vector restricted to
    docs passing a filter (label == 2) — the filter applies DURING the
    search (per-batch mask before scoring), not as a post-filter, so
    the result always has k hits when the filtered corpus allows (ES
    kNN-filter semantics, unlike post-filtering which can return
    fewer)."""
    emb_path = f"{sf_dir}/embeddings.parquet"
    import pyarrow.parquet as pq

    from ..stages.similarity import vec_matrix

    qt = pq.read_table(emb_path, filters=[("vec_id", "in", EMB_QUERY_IDS)])
    q_ids = qt["vec_id"].to_pylist()
    q_mat = vec_matrix(qt["embedding"])
    q_mat = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, q_mat))

    def score(t: pa.Table) -> pa.Table:
        from ..stages.similarity import vec_matrix as _vm

        t = t.filter(pc.equal(t["label"], KNN_FILTER_LABEL))
        if t.num_rows == 0:
            return pa.table({"query_vec_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        ids_q, qm = ray.get(q_ref)
        vecs = _vm(t["embedding"])
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (vecs / norms) @ qm.T
        vids = t["vec_id"].to_numpy()
        out_q, out_v, out_s = [], [], []
        for c, qid in enumerate(ids_q):
            s = sims[:, c]
            k = min(EMB_K + 10, len(s))
            if len(s) > k:
                kth = np.partition(s, -k)[-k]
                part = np.flatnonzero(s >= kth)
            else:
                part = np.arange(len(s))
            out_q.extend([qid] * len(part))
            out_v.extend(vids[part].tolist())
            out_s.extend(s[part].tolist())
        return pa.table({"query_vec_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "cos_sim": pa.array(out_s, pa.float64())})

    parts = (rd.read_parquet(emb_path,
                             columns=["vec_id", "embedding", "label"])
             .map_batches(score, batch_format="pyarrow").to_pandas())
    return _round_rerank(parts, EMB_K, "query_vec_id", "cos_sim", "vec_id")


SQL_KNN_FILTERED = (
    f"WITH q AS (SELECT vec_id AS qid, embedding::DOUBLE[] AS qe "
    f"FROM embeddings WHERE vec_id IN ({_EMB_IDS_SQL})), "
    "s AS (SELECT q.qid AS query_vec_id, e.vec_id, "
    "round(list_cosine_similarity(e.embedding::DOUBLE[], q.qe), 6) "
    "AS cos_sim FROM embeddings e CROSS JOIN q "
    f"WHERE e.label = {KNN_FILTER_LABEL}) "
    "SELECT query_vec_id, rank, vec_id, cos_sim FROM ("
    "SELECT *, row_number() OVER (PARTITION BY query_vec_id "
    "ORDER BY cos_sim DESC, vec_id ASC) AS rank FROM s) "
    f"WHERE rank <= {EMB_K}"
)


# ---------------------------------------------------------------------------
# Relational breadth: pricing summary (pre-aggregation pattern), windowed agg
# ---------------------------------------------------------------------------

def q_lineitem_pricing_summary(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(
            pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("rev", rev)
        g = (t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("rev", "sum"), ("l_quantity", "count")]))
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "s_qty", "s_price", "s_rev", "n"])

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("s_qty", alias_name="sum_qty"),
                   Sum("s_price", alias_name="sum_base_price"),
                   Sum("s_rev", alias_name="sum_disc_price"),
                   Sum("n", alias_name="count_order"))
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[c] = np.round(out[c].to_numpy(dtype=np.float64), 2)
    return pa.Table.from_pandas(out.reset_index(drop=True))


SQL_LINEITEM_PRICING = (
    "SELECT l_returnflag, l_linestatus, "
    "round(sum(l_quantity), 2) AS sum_qty, "
    "round(sum(l_extendedprice), 2) AS sum_base_price, "
    "round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
    "count(*) AS count_order "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus"
)


def q_events_tumbling(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def win(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64()).to_numpy()  # microseconds
        w = (epoch // 3_600_000_000) * 3_600_000_000  # floor division (SQL floor parity for pre-epoch ts)
        return pa.table({"event_type": t["event_type"],
                         "window_us": pa.array(w, pa.int64()),
                         "value": t["value"]})

    out = (
        ds.map_batches(win, batch_format="pyarrow")
        .groupby(["event_type", "window_us"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = np.round(out["sum_value"].to_numpy(dtype=np.float64), 4)
    return pa.Table.from_pandas(out.reset_index(drop=True))


SQL_EVENTS_TUMBLING = (
    "SELECT event_type, "
    "CAST(floor(epoch_us(ts) / 3600000000) * 3600000000 AS BIGINT) AS window_us, "
    "count(*) AS n_events, round(sum(value), 4) AS sum_value "
    "FROM events GROUP BY 1, 2"
)


# ---------------------------------------------------------------------------
# M5 full transform + alphabetical-search index (the reference's product API)
# ---------------------------------------------------------------------------

_TITLE_EXPR_SQL = "substr(split_part(text, chr(10) || chr(10), 1), 1, 120)"


def q_es_doc_transform(sf_dir: str):
    from ..stages.transform import transform_records

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    return ds.map_batches(
        transform_records, batch_format="pyarrow",
        fn_kwargs={"id_column": "doc_id"},
    ).select_columns([
        "id", "kind", "record_type", "lang", "links_self", "title",
        "title_start", "title_ending", "alpha_key", "ordered_alpha_key",
        "ordered_alpha_key_with_id", "title_stripped_len", "word_count",
    ])


def _sql_es_doc_transform() -> str:
    return (
        "WITH named AS (SELECT CAST(doc_id AS VARCHAR) AS id, lang, "
        f"{_TITLE_EXPR_SQL} AS title FROM documents "
        "WHERE text IS NOT NULL AND text <> ''), "
        "stripped AS (SELECT *, "
        "regexp_replace(title, '[^A-Za-z0-9_]+$', '') AS s FROM named), "
        "split AS (SELECT *, "
        + _suffix_split_case_sql("title", "s")
        + " AS title_start FROM stripped) "
        "SELECT id, 'searchresults#document' AS kind, "
        "'documents' AS record_type, lang, '/doc/' || id AS links_self, "
        "title, title_start, "
        "substr(title, length(title_start) + 1) AS title_ending, "
        + _alpha_key_sql("title") + " AS alpha_key, "
        + _alpha_key_sql("title_start") + " AS ordered_alpha_key, "
        + _alpha_key_sql("title_start") + " || ':' || id "
        "AS ordered_alpha_key_with_id, "
        # ES-declared integer computed fields (search_scheme.json:119-128
        # corporate_stripped_len; :171-174 word_count token_count sub-field)
        "CAST(length(title_start) AS BIGINT) AS title_stripped_len, "
        f"CAST(len(regexp_extract_all(title, '{TOKEN_RE_SQL}')) AS BIGINT) "
        "AS word_count FROM split"
    )


ALPHA_PREFIX = "TH"
ALPHA_LIMIT = 20


def q_alpha_prefix_search(sf_dir: str):
    from ..pipelines.alpha_index import alpha_prefix_search, build_alpha_index

    key = hashlib.md5(sf_dir.encode()).hexdigest()[:12]
    out = f"/tmp/edlr_cache/alpha_{key}"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])

    def to_corpus(t: pa.Table) -> pa.Table:
        return pa.table({
            "url": pc.cast(t["doc_id"], pa.string()),
            "text": t["text"], "lang": t["lang"],
        })

    build_alpha_index(ds.map_batches(to_corpus, batch_format="pyarrow"), out)
    t = alpha_prefix_search(out, ALPHA_PREFIX, limit=ALPHA_LIMIT)
    return t.select(["id", "ordered_alpha_key_with_id", "title"])


def _sql_alpha_prefix_search() -> str:
    return (
        "WITH t AS (" + _sql_es_doc_transform() + ") "
        "SELECT id, ordered_alpha_key_with_id, title FROM t "
        f"WHERE ordered_alpha_key_with_id LIKE '{ALPHA_PREFIX}%' "
        "ORDER BY ordered_alpha_key_with_id, id "
        f"LIMIT {ALPHA_LIMIT}"
    )


# ---------------------------------------------------------------------------
# ANN scale path + multimodal plumbing (rows-only: approximate / stubbed)
# ---------------------------------------------------------------------------

def q_ann_lsh_topk(sf_dir: str):
    """Hive-partitioned multi-probe LSH ANN: the index is written
    partitioned by signature bucket (cached per sf_dir+code version, like
    the IVF entry) and each query reads only its probed buckets' files —
    rows-only; pytest gates recall and partition pruning."""
    import pyarrow.parquet as pq_

    from ..stages.similarity import lsh_build, lsh_topk, vec_matrix

    key = hashlib.md5((sf_dir + _code_fingerprint()).encode()).hexdigest()[:12]
    out = f"/tmp/edlr_cache/lsh_{key}"
    emb = f"{sf_dir}/embeddings.parquet"
    lsh_build(emb, out)
    qt = pq_.read_table(emb, filters=[("vec_id", "in", EMB_QUERY_IDS)])
    return lsh_topk(out, vec_matrix(qt["embedding"]),
                    qt["vec_id"].to_pylist(), k=EMB_K, n_probes=8)


def q_ann_ivf_topk(sf_dir: str):
    """IVF ANN over embeddings (coarse k-means quantizer, probe-limited
    reads) — rows-only; pytest gates recall on planted near-dups."""
    import pyarrow.parquet as pq_

    from ..stages.ivf import ivf_build, ivf_topk

    key = hashlib.md5((sf_dir + _code_fingerprint()).encode()).hexdigest()[:12]
    out = f"/tmp/edlr_cache/ivf_{key}"
    emb = f"{sf_dir}/embeddings.parquet"
    ivf_build(emb, out, n_centroids=16)
    qt = pq_.read_table(emb, filters=[("vec_id", "in", EMB_QUERY_IDS)])
    q_ids = qt["vec_id"].to_pylist()
    q_mat = np.stack([np.asarray(v, dtype=np.float64)
                      for v in qt["embedding"].to_pylist()])
    return ivf_topk(out, q_mat, q_ids, k=EMB_K, n_probe=6)


def q_ann_pq_topk(sf_dir: str):
    """PQ (product-quantization) ANN over embeddings: 64-dim float32
    vectors compressed 32x to 8 uint8 codes (seeded per-subspace
    k-means codebooks), queried via ADC lookup-table scans — rows-only;
    pytest gates recall vs brute-force and reconstruction error."""
    import pyarrow.parquet as pq_

    from ..stages.pq import pq_build, pq_topk

    key = hashlib.md5((sf_dir + _code_fingerprint()).encode()).hexdigest()[:12]
    out = f"/tmp/edlr_cache/pq_{key}"
    emb = f"{sf_dir}/embeddings.parquet"
    pq_build(emb, out, m=8, k=16)
    qt = pq_.read_table(emb, filters=[("vec_id", "in", EMB_QUERY_IDS)])
    q_ids = qt["vec_id"].to_pylist()
    q_mat = np.stack([np.asarray(v, dtype=np.float64)
                      for v in qt["embedding"].to_pylist()])
    return pq_topk(out, q_mat, q_ids, k=EMB_K)


def q_multimodal_features(sf_dir: str):
    """Media pipeline over documents rendered as REAL P6 netpbm images
    (text bytes -> RGB raster), decoded with the pure-numpy netpbm decoder
    in stages/multimodal.py — actor-pool decode + feature extraction with
    genuine bytes-in, and a rows-only gate (features aren't
    SQL-expressible)."""
    from ..stages.multimodal import encode_ppm, image_features_batch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(t: pa.Table) -> pa.Table:
        w = 32
        payloads = []
        for x in t["text"].to_pylist():
            if not x:
                payloads.append(None)
                continue
            b = np.frombuffer(x.encode()[:w * 48 * 3], dtype=np.uint8)
            h = max(1, math.ceil(len(b) / (w * 3)))
            img = np.zeros(w * h * 3, dtype=np.uint8)
            img[:len(b)] = b
            payloads.append(encode_ppm(img.reshape(h, w, 3)))
        n = t.num_rows
        return pa.table({
            "media_id": pc.cast(t["doc_id"], pa.string()),
            "media_type": pa.array(["image/x-portable-pixmap"] * n,
                                   pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array([w] * n, pa.int32()),
            "height": pa.array([48] * n, pa.int32()),
        })

    # task stage, not an actor pool: feature state is an import probe and
    # a fresh pool per map_batches call cost more than the whole entry
    # (VERDICT r3 #5); the callable-class form stays for heavy-state use
    feats = ds.map_batches(to_media, batch_format="pyarrow").map_batches(
        image_features_batch, batch_format="pyarrow", batch_size=64)

    def summarize(t: pa.Table) -> pa.Table:
        # scalar summary columns (list columns don't survive generic
        # driver-side sorting/hashing)
        lists = t["features"].to_pylist()
        return pa.table({
            "media_id": t["media_id"],
            "decoded": t["decoded"],
            "feature_dim": pa.array([len(x) for x in lists], pa.int64()),
            "feature_sum": pa.array(
                [round(float(sum(x)), 5) for x in lists], pa.float64()),
        })

    return feats.map_batches(summarize, batch_format="pyarrow")


def q_audio_features(sf_dir: str):
    """Audio pipeline: deterministic PCM16 WAV clips (tone keyed by doc_id)
    -> actor-pool decode + DSP features (duration/rms/zero-cross/spectral
    centroid) via the pure-numpy RIFF decoder. Rows-only gate; the centroid
    column doubles as a self-check (must track the synthesized tone)."""
    from ..stages.multimodal import audio_features_batch, encode_wav

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])

    def to_wav(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        payloads = []
        for i, nc in zip(ids, t["n_chars"].to_numpy()):
            f0 = 100.0 + (int(i) % 40) * 20.0  # 100..880 Hz, deterministic
            n = 800 + int(nc) % 800
            tt = np.arange(n) / 8000.0
            payloads.append(encode_wav(
                (0.4 * np.sin(2 * np.pi * f0 * tt)).astype(np.float32), 8000))
        return pa.table({
            "media_id": pa.array([str(i) for i in ids], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })

    feats = (ds.map_batches(to_wav, batch_format="pyarrow")
             .map_batches(audio_features_batch, batch_format="pyarrow",
                          batch_size=128))

    def summarize(t: pa.Table) -> pa.Table:
        lists = t["features"].to_pylist()
        return pa.table({
            "media_id": t["media_id"],
            "decoded": t["decoded"],
            "duration_secs": pa.array(
                [round(x[0], 6) if x else 0.0 for x in lists], pa.float64()),
            "spectral_centroid_hz": pa.array(
                [round(x[3], 1) if x else 0.0 for x in lists], pa.float64()),
        })

    return feats.map_batches(summarize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Sliding + session windows over events (streaming-shaped ops)
# ---------------------------------------------------------------------------

_WIN_US = 3_600_000_000  # 1h window
_SLIDE_US = 1_800_000_000  # 30min slide -> every event in 2 windows


def q_events_sliding(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def explode(t: pa.Table) -> pa.Table:
        epoch = pc.cast(pc.cast(t["ts"], pa.int64()), pa.int64()).to_numpy()
        slot = epoch // _SLIDE_US
        starts = np.concatenate([slot * _SLIDE_US, (slot - 1) * _SLIDE_US])
        types = np.concatenate([t["event_type"].to_numpy(zero_copy_only=False)] * 2)
        vals = np.concatenate([t["value"].to_numpy()] * 2)
        return pa.table({"event_type": pa.array(types),
                         "window_start_us": pa.array(starts, pa.int64()),
                         "value": pa.array(vals, pa.float64())})

    out = (ds.map_batches(explode, batch_format="pyarrow")
           .groupby(["event_type", "window_start_us"])
           .aggregate(Count(alias_name="n_events"),
                      Sum("value", alias_name="sum_value"))
           .to_pandas())
    out["sum_value"] = np.round(out["sum_value"].to_numpy(dtype=np.float64), 4)
    return pa.Table.from_pandas(out.reset_index(drop=True))


SQL_EVENTS_SLIDING = (
    "WITH e AS (SELECT event_type, value, "
    f"CAST(floor(epoch_us(ts) / {_SLIDE_US}) AS BIGINT) AS slot FROM events), "
    "x AS (SELECT event_type, value, unnest([slot, slot - 1]) AS wslot FROM e) "
    f"SELECT event_type, wslot * {_SLIDE_US} AS window_start_us, "
    "count(*) AS n_events, round(sum(value), 4) AS sum_value "
    "FROM x GROUP BY 1, 2"
)

_SESSION_GAP_US = 1_800_000_000  # 30 min


def q_events_sessions(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(df["ts"].astype("int64").to_numpy())
        gaps = np.diff(ts)
        n_sessions = 1 + int((gaps > _SESSION_GAP_US).sum())
        return pd.DataFrame({"user_id": [int(df["user_id"].iloc[0])],
                             "n_sessions": [n_sessions],
                             "n_events": [len(ts)]})

    return ds.groupby("user_id").map_groups(sessions, batch_format="pandas")


SQL_EVENTS_SESSIONS = (
    "WITH e AS (SELECT user_id, epoch_us(ts) AS t, "
    "lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY epoch_us(ts)) AS pt "
    "FROM events) "
    "SELECT user_id, CAST(sum(CASE WHEN pt IS NULL OR t - pt > "
    f"{_SESSION_GAP_US} THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions, "
    "count(*) AS n_events FROM e GROUP BY user_id"
)


# ---------------------------------------------------------------------------
# Relational breadth: per-key top-k, distinct, broadcast hash join
# ---------------------------------------------------------------------------

PCTS = [0.5, 0.9, 0.99]


def q_quality_percentiles(sf_dir: str):
    """Per-lang doc-length percentiles (quality-threshold selection — e.g.
    'drop the bottom decile').

    Bounded-memory EXACT quantiles: n_chars is integer-valued, so the full
    distribution compresses losslessly to per-(lang, n_chars) counts —
    per-batch partial counts shuffle, then the driver interpolates
    percentiles from the tiny merged histogram. No worker ever holds a
    language's rows (the r1 `map_groups(np.percentile)` shape put the
    whole `en` group in one task). Interpolation matches SQL quantile_cont
    (linear between order statistics)."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])

    def partial_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return pa.table({"lang": g["lang"], "n_chars": g["n_chars"],
                         "cnt": pc.cast(g["n_chars_count"], pa.int64())})

    hist = (ds.map_batches(partial_counts, batch_format="pyarrow")
            .groupby(["lang", "n_chars"])
            .aggregate(Sum("cnt", alias_name="cnt"))
            .to_pandas())  # <= n_langs x distinct lengths rows — tiny
    rows = []
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy(dtype=np.float64)
        cnts = g["cnt"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        row = {"lang": lang, "n_docs": n}
        for p in PCTS:
            h = (n - 1) * p  # quantile_cont rank
            lo_i = int(np.searchsorted(cum, np.floor(h) + 1, side="left"))
            hi_i = int(np.searchsorted(cum, np.floor(h) + 2, side="left"))
            lo_v = vals[lo_i]
            hi_v = vals[min(hi_i, len(vals) - 1)]
            v = lo_v + (h - np.floor(h)) * (hi_v - lo_v)
            row[f"p{int(p * 100)}"] = round(float(v), 4)
        rows.append(row)
    out = pd.DataFrame(rows)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


SQL_QUALITY_PERCENTILES = (
    "SELECT lang, count(*) AS n_docs, "
    + ", ".join(
        f"round(quantile_cont(n_chars, {p}), 4) AS p{int(p * 100)}"
        for p in PCTS)
    + " FROM documents GROUP BY lang"
)


def q_top_docs_per_source(sf_dir: str):
    """Grouped top-k (window-function analogue): 3 longest docs per source.

    Per-batch LOCAL top-3 per source first, so the shuffle moves <= 3 rows
    per (source, batch) and the final per-source merge group is bounded by
    3 x n_blocks rows — a hot source never materializes in one worker
    (the r1 shape shipped every row of a source to one map_groups task)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source", "n_chars"])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        return df.groupby("source", sort=False).head(3)

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(3)
        df = df.reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["source", "rank", "doc_id", "n_chars"]]

    return (ds.map_batches(local_topk, batch_format="pandas")
            .groupby("source").map_groups(merge_topk, batch_format="pandas"))


SQL_TOP_DOCS_PER_SOURCE = (
    "SELECT source, rank, doc_id, n_chars FROM ("
    "SELECT source, doc_id, n_chars, row_number() OVER ("
    "PARTITION BY source ORDER BY n_chars DESC, doc_id ASC) AS rank "
    "FROM documents) WHERE rank <= 3"
)


def q_distinct_sources(sf_dir: str):
    """Distinct values (ds.unique analogue) with counts."""
    from ray.data.aggregate import Count

    return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["source", "lang"])
            .groupby(["source", "lang"]).aggregate(Count(alias_name="n_docs")))


SQL_DISTINCT_SOURCES = (
    "SELECT source, lang, count(*) AS n_docs FROM documents GROUP BY 1, 2"
)


SAMPLE_HEX_THRESHOLD = "0d"  # md5(text) hex prefix < '0d' ~ 5.1% of docs


# training-mixture weights: repeat factor per lang (epochs over that
# slice). >1 up-samples with integer epochs + a deterministic fractional
# epoch; <1 down-samples; 0 drops the source entirely.
MIX_WEIGHTS = {"en": 2.25, "de": 1.75, "zh": 1.0, "es": 0.5, "fr": 0.0}


def q_data_mixture(sf_dir: str):
    """Training-data mixture construction (the Pile/Llama-style recipe):
    each corpus slice gets a repeat factor — doc appears ``floor(w)``
    times (epochs 0..floor(w)-1) plus one more epoch with probability
    ``frac(w)``, decided by a deterministic per-doc md5 threshold, so
    the same mixture materializes bit-identically on any partitioning /
    any cluster size. Emits the mixture manifest (doc_id, lang, epoch);
    one vectorized pass (np.repeat for integer epochs, one hash compare
    for the fractional one), no shuffle."""
    path = f"{sf_dir}/documents.parquet"

    def xf(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_pandas().fillna("")
        w = lang.map(MIX_WEIGHTS).fillna(0.0).to_numpy(np.float64)
        ids = t["doc_id"].to_numpy()
        base = np.floor(w).astype(np.int64)
        frac = w - base
        keys = pc.binary_join_element_wise(
            "m:", pc.utf8_lpad(pc.cast(t["doc_id"], pa.string()), 15, "0"),
            "")
        hf = _hex_prefix_frac(_md5_batch(keys))
        reps = base + (hf < frac)
        rows = np.repeat(np.arange(len(ids)), reps)
        counts_cum = np.concatenate([[0], np.cumsum(reps)])[:-1]
        epoch = np.arange(int(reps.sum())) - np.repeat(counts_cum, reps)
        return pa.table({
            "doc_id": pa.array(ids[rows], pa.int64()),
            "lang": pa.array(lang.to_numpy(dtype=object)[rows],
                             pa.string()),
            "epoch": pa.array(epoch, pa.int64()),
        })

    return rd.read_parquet(path, columns=["doc_id", "lang"]).map_batches(
        xf, batch_format="pyarrow")


def _sql_data_mixture() -> str:
    wcase = " ".join(f"WHEN '{k}' THEN {v}" for k, v in
                     sorted(MIX_WEIGHTS.items()))
    hexpr = " + ".join(
        "(strpos('0123456789abcdef', substr(h, %d, 1)) - 1)::BIGINT * %d"
        % (i + 1, 16 ** (5 - i)) for i in range(6))
    return (
        "WITH base AS (SELECT doc_id, coalesce(lang, '') AS lang, "
        f"CASE coalesce(lang, '') {wcase} ELSE 0.0 END AS w, "
        "md5('m:' || lpad(doc_id::VARCHAR, 15, '0')) AS h "
        "FROM documents), "
        f"hv AS (SELECT doc_id, lang, w, ({hexpr}) / 16777216.0 AS hf "
        "FROM base), "
        "reps AS (SELECT doc_id, lang, (floor(w)::BIGINT + "
        "CASE WHEN hf < w - floor(w) THEN 1 ELSE 0 END) AS n FROM hv) "
        "SELECT doc_id, lang, unnest(range(n)) AS epoch FROM reps "
        "WHERE n > 0"
    )


def q_deterministic_sample(sf_dir: str):
    """Reproducible corpus subsampling: keep documents whose content-hash
    falls below a fixed threshold (md5 hex < '0d' ~ 5%). Hash-threshold
    sampling is the training-data standard because membership is a pure
    function of content — stable across runs, machines and partitionings,
    and composable (a 1% sample is a subset of the 5% one). Embarrassingly
    parallel map_batches filter; SQL-exact oracle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def pick(t: pa.Table) -> pa.Table:
        hs = pc.cast(_md5_batch(t["text"]), pa.string())
        keep = pc.less(hs, SAMPLE_HEX_THRESHOLD)
        return pa.table({"doc_id": t["doc_id"].filter(keep),
                         "content_hash": hs.filter(keep)})

    return ds.map_batches(pick, batch_format="pyarrow")


SQL_DETERMINISTIC_SAMPLE = (
    "SELECT doc_id, md5(coalesce(text, '')) AS content_hash FROM documents "
    f"WHERE md5(coalesce(text, '')) < '{SAMPLE_HEX_THRESHOLD}'"
)


def q_distinct_count_hll(sf_dir: str):
    """Cardinality sketch: HyperLogLog (p=14) over lineitem order keys —
    per-batch register partials in map_batches, a distributed fan-in level
    (each task elementwise-maxes up to 1024 partials into one), then one
    driver max over the few survivors (no shuffle, constant driver memory
    regardless of input size: the 100-TB count-distinct shape — 1M input
    batches reach the driver as ~1k 16 KiB rows). Rows-only gate
    (estimates aren't SQL-reproducible); the pytest bound asserts
    <2% error vs exact."""
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        regs = _hll_partial(t["l_orderkey"].to_numpy().astype(np.uint64))
        return pa.table({"regs": pa.array([regs.tolist()],
                                          pa.list_(pa.int64()))})

    def merge_regs(t: pa.Table) -> pa.Table:
        col = t["regs"].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.int64).reshape(
            t.num_rows, 1 << HLL_P)
        return pa.table({"regs": pa.array([flat.max(axis=0).tolist()],
                                          pa.list_(pa.int64()))})

    parts = (ds.map_batches(part, batch_format="pyarrow")
             .map_batches(merge_regs, batch_format="pyarrow",
                          batch_size=1024)
             .take_all())
    regs = np.zeros(1 << HLL_P, dtype=np.int64)
    for p in parts:
        regs = np.maximum(regs, np.asarray(p["regs"], dtype=np.int64))
    return pa.table({
        "column": pa.array(["l_orderkey"], pa.string()),
        "estimate": pa.array([round(_hll_estimate(regs))], pa.int64()),
        "precision_p": pa.array([HLL_P], pa.int64()),
    })


def q_events_asof_join(sf_dir: str):
    """As-of join: each event matched to the user's most recent order date
    (o_orderdate <= ts) — an operator Ray Data lacks natively, built as the
    canonical distributed shape: tag both sides, UNION, hash-partition by
    key with ONE groupby, and merge within each key group via sorted
    searchsorted. Partitioning assumption: a single user's events+orders
    fit one worker (keys are users — naturally bounded); no broadcast, so
    both sides may be arbitrarily large. Oracle: DuckDB ASOF LEFT JOIN
    (order dates deduped for determinism)."""
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderdate"])

    def tag_events(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["user_id"], "t": t["ts"], "event_id": t["event_id"],
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    def tag_orders(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["o_custkey"],
            "t": pc.cast(t["o_orderdate"], pa.timestamp("us")),
            "event_id": pa.array(np.full(t.num_rows, -1, np.int64)),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    both = (ev.map_batches(tag_events, batch_format="pyarrow")
            .union(od.map_batches(tag_orders, batch_format="pyarrow")))

    def asof_group(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["side"].to_numpy()
        ts = g["t"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ev_m = side == 0
        e_ts = ts[ev_m]
        e_ids = g["event_id"].to_numpy()[ev_m]
        o_ts = np.unique(ts[~ev_m])  # sorted + deduped order dates
        pos = np.searchsorted(o_ts, e_ts, side="right") - 1
        matched = pos >= 0
        out_dates = np.full(len(e_ts), np.datetime64("NaT", "us"))
        if matched.any():
            out_dates[matched] = o_ts[pos[matched]].astype("datetime64[us]")
        return pa.table({
            "event_id": pa.array(e_ids, pa.int64()),
            "user_id": pa.array(
                np.full(len(e_ts), int(g["key"][0].as_py()), np.int64)),
            "last_order_date": pa.array(out_dates, pa.timestamp("us")),
        })

    return both.groupby("key").map_groups(asof_group, batch_format="pyarrow")


SQL_EVENTS_ASOF_JOIN = (
    "SELECT e.event_id, e.user_id, o.o_orderdate AS last_order_date "
    "FROM events e ASOF LEFT JOIN "
    "(SELECT DISTINCT o_custkey, o_orderdate FROM orders) o "
    "ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate"
)


def q_lineitem_orders_join(sf_dir: str):
    """Broadcast hash join (small side via ray.put, no shuffle): revenue per
    order priority — the guide's broadcast-join pattern over the TPC-H pair.
    """
    import pyarrow.parquet as pq_

    orders = pq_.read_table(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_orderpriority"]
                            ).combine_chunks()
    # broadcast the small side ONCE as Arrow arrays; probe is vectorized
    # (pc.index_in + take), not a per-row dict.get loop. An empty orders
    # table combines to zero chunks, so materialize via pc.list-safe casts
    # rather than chunk(0) (ADVICE r2).
    def _one(col: pa.ChunkedArray) -> pa.Array:
        return (col.chunk(0) if col.num_chunks == 1
                else col.combine_chunks()
                if col.num_chunks else pa.array([], col.type))

    lookup_ref = ray.put((_one(orders["o_orderkey"]),
                          _one(orders["o_orderpriority"])))

    def join(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(lookup_ref)
        idx = pc.index_in(t["l_orderkey"], value_set=keys)
        prio = pc.take(vals, idx)  # null where no match
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        out = pa.table({"o_orderpriority": prio, "rev": rev})
        return out.filter(out["o_orderpriority"].is_valid())

    from ray.data.aggregate import Count, Sum

    out = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_extendedprice", "l_discount"])
           .map_batches(join, batch_format="pyarrow")
           .groupby("o_orderpriority")
           .aggregate(Count(alias_name="n_items"),
                      Sum("rev", alias_name="revenue"))
           .to_pandas())
    out["revenue"] = np.round(out["revenue"].to_numpy(dtype=np.float64), 2)
    return pa.Table.from_pandas(out.reset_index(drop=True))


SQL_LINEITEM_ORDERS_JOIN = (
    "SELECT o.o_orderpriority, count(*) AS n_items, "
    "round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue "
    "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "GROUP BY 1"
)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def queries() -> dict:
    return {
        "validity_filter": q_validity_filter,
        "record_transform": q_record_transform,
        "suffix_split": q_suffix_split,
        "alpha_keys": q_alpha_keys,
        "token_counts": q_token_counts,
        "bpe_token_counts": q_bpe_token_counts,
        "tfidf_keywords": q_tfidf_keywords,
        "doc_len_stats": q_doc_len_stats,
        "term_df": q_term_df,
        "top_terms": q_top_terms,
        "first_token_edge_ngrams": q_first_token_edge_ngrams,
        "exact_dedup": q_exact_dedup,
        "bloom_dedup": q_bloom_dedup,
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "duplicate_clusters": q_duplicate_clusters,
        "minhash_lsh_pairs": q_minhash_lsh_pairs,
        "simhash": q_simhash,
        "langid_quality": q_langid_quality,
        "gopher_rules": q_gopher_rules,
        "bigram_lm_quality": q_bigram_lm_quality,
        "token_chunks": q_token_chunks,
        "percolate_match": q_percolate_match,
        "index_stats": q_index_stats,
        "fingerprint": q_fingerprint,
        "dup_spans": q_dup_spans,
        "bm25_topk": q_bm25_topk,
        "explain_score": q_explain_score,
        "search_after_page": q_search_after_page,
        "function_score_topk": q_function_score_topk,
        "random_score_topk": q_random_score_topk,
        "decay_score_topk": q_decay_score_topk,
        "boosting_topk": q_boosting_topk,
        "more_like_this": q_more_like_this,
        "collapse_topk": q_collapse_topk,
        "rescore_topk": q_rescore_topk,
        "incremental_append": q_incremental_append,
        "bm25_and_topk": q_bm25_and_topk,
        "bm25_bool_topk": q_bm25_bool_topk,
        "terms_set_topk": q_terms_set_topk,
        "bool_exists_topk": q_bool_exists_topk,
        "query_string_topk": q_query_string_topk,
        "bm25_fuzzy_topk": q_bm25_fuzzy_topk,
        "wildcard_term_search": q_wildcard_term_search,
        "regexp_term_search": q_regexp_term_search,
        "terms_agg_match": q_terms_agg_match,
        "histogram_agg_match": q_histogram_agg_match,
        "date_histogram_match": q_date_histogram_match,
        "date_pipeline_agg": q_date_pipeline_agg,
        "bucket_pipeline_aggs": q_bucket_pipeline_aggs,
        "normalize_agg": q_normalize_agg,
        "bucket_select_sort": q_bucket_select_sort,
        "c4_filters": q_c4_filters,
        "dsir_weights": q_dsir_weights,
        "auto_date_hist": q_auto_date_hist,
        "sampler_agg_match": q_sampler_agg_match,
        "significant_text_match": q_significant_text_match,
        "ann_pq_topk": q_ann_pq_topk,
        "ngram_repetition": q_ngram_repetition,
        "url_canonicalize": q_url_canonicalize,
        "rrf_hybrid": q_rrf_hybrid,
        "snapshot_restore": q_snapshot_restore,
        "reindex_filtered": q_reindex_filtered,
        "data_mixture": q_data_mixture,
        "update_by_query": q_update_by_query,
        "top_hits_agg": q_top_hits_agg,
        "filters_agg_match": q_filters_agg_match,
        "composite_agg_page": q_composite_agg_page,
        "multi_terms_agg": q_multi_terms_agg,
        "weighted_avg_agg": q_weighted_avg_agg,
        "adjacency_matrix_agg": q_adjacency_matrix_agg,
        "extended_stats_match": q_extended_stats_match,
        "mget_docs": q_mget_docs,
        "stats_agg_match": q_stats_agg_match,
        "range_agg_match": q_range_agg_match,
        "cardinality_agg_match": q_cardinality_agg_match,
        "percentiles_agg_match": q_percentiles_agg_match,
        "percentile_ranks_match": q_percentile_ranks_match,
        "rare_terms_match": q_rare_terms_match,
        "significant_terms_match": q_significant_terms_match,
        "match_count": q_match_count,
        "term_vectors": q_term_vectors,
        "analyze_api": q_analyze_api,
        "term_suggest": q_term_suggest,
        "phrase_suggest": q_phrase_suggest,
        "completion_suggest": q_completion_suggest,
        "delete_by_query": q_delete_by_query,
        "match_export": q_match_export,
        "sorted_match_topk": q_sorted_match_topk,
        "bm25_multi_topk": q_bm25_multi_topk,
        "bm25_dismax_topk": q_bm25_dismax_topk,
        "phrase_match": q_phrase_match,
        "span_near_match": q_span_near_match,
        "intervals_match": q_intervals_match,
        "contamination_scan": q_contamination_scan,
        "repetition_quality": q_repetition_quality,
        "match_phrase_prefix": q_match_phrase_prefix,
        "match_bool_prefix": q_match_bool_prefix,
        "highlight_match": q_highlight_match,
        "snippet_match": q_snippet_match,
        "embedding_topk": q_embedding_topk,
        "embedding_neardup": q_embedding_neardup,
        "embedding_kmeans": q_embedding_kmeans,
        "semdedup_pairs": q_semdedup_pairs,
        "knn_filtered_topk": q_knn_filtered_topk,
        "pii_redact": q_pii_redact,
        "lineitem_pricing_summary": q_lineitem_pricing_summary,
        "events_tumbling": q_events_tumbling,
        "es_doc_transform": q_es_doc_transform,
        "alpha_prefix_search": q_alpha_prefix_search,
        "ann_lsh_topk": q_ann_lsh_topk,
        "ann_ivf_topk": q_ann_ivf_topk,
        "multimodal_features": q_multimodal_features,
        "audio_features": q_audio_features,
        "events_sliding": q_events_sliding,
        "events_sessions": q_events_sessions,
        "quality_percentiles": q_quality_percentiles,
        "top_docs_per_source": q_top_docs_per_source,
        "distinct_sources": q_distinct_sources,
        "lineitem_orders_join": q_lineitem_orders_join,
        "events_asof_join": q_events_asof_join,
        "distinct_count_hll": q_distinct_count_hll,
        "deterministic_sample": q_deterministic_sample,
        "stratified_sample": q_stratified_sample,
    }


def oracle_sql() -> dict:
    return {
        "validity_filter": SQL_VALIDITY,
        "record_transform": SQL_RECORD_TRANSFORM,
        "suffix_split": _sql_suffix_split(),
        "alpha_keys": _sql_alpha_keys(),
        "token_counts": SQL_TOKEN_COUNTS,
        "bpe_token_counts": SQL_BPE_TOKEN_COUNTS,
        "tfidf_keywords": _sql_tfidf_keywords(),
        "doc_len_stats": SQL_DOC_LEN_STATS,
        "term_df": SQL_TERM_DF,
        "top_terms": SQL_TOP_TERMS,
        "first_token_edge_ngrams": SQL_FIRST_TOKEN_EDGE_NGRAMS,
        "exact_dedup": SQL_EXACT_DEDUP,
        "bloom_dedup": SQL_BLOOM_DEDUP,
        "ngram_jaccard_pairs": SQL_NGRAM_JACCARD_PAIRS,
        "duplicate_clusters": SQL_DUPLICATE_CLUSTERS,
        # minhash oracle match is probabilistic, not exact-by-construction:
        # the engine verifies Jaccard over 64-bit FNV shingle hashes and
        # 32x4 LSH banding (combined FN/collision odds ~5e-8 per qualifying
        # pair at J>=0.8) — an unlucky corpus could flip a row (ADVICE r2)
        "minhash_lsh_pairs": SQL_MINHASH_LSH_PAIRS,
        # simhash: rows-only (hash values are not SQL-expressible)
        "langid_quality": SQL_LANGID_QUALITY,
        "gopher_rules": _sql_gopher_rules(),
        "bigram_lm_quality": SQL_BIGRAM_LM,
        "token_chunks": SQL_TOKEN_CHUNKS,
        "percolate_match": _sql_percolate_match(),
        "index_stats": SQL_INDEX_STATS,
        "fingerprint": SQL_FINGERPRINT,
        "dup_spans": _sql_dup_spans(),
        "bm25_topk": _sql_bm25_topk(),
        "explain_score": _sql_explain_score(),
        "search_after_page": _sql_search_after_page(),
        "function_score_topk": _sql_function_score_topk(),
        "random_score_topk": _sql_random_score_topk(),
        "decay_score_topk": _sql_decay_score_topk(),
        "boosting_topk": _sql_boosting_topk(),
        "more_like_this": _sql_more_like_this(),
        "collapse_topk": _sql_collapse_topk(),
        "rescore_topk": _sql_rescore_topk(),
        # append gate: build(first half) + append(second half) must equal
        # the FULL-corpus BM25 — the same SQL is the oracle by construction
        "incremental_append": _sql_bm25_topk(),
        "bm25_and_topk": _sql_bm25_and_topk(),
        "bm25_bool_topk": _sql_bm25_bool_topk(),
        "terms_set_topk": _sql_terms_set_topk(),
        "bool_exists_topk": _sql_bool_exists_topk(),
        "query_string_topk": _sql_query_string_topk(),
        "bm25_fuzzy_topk": _sql_bm25_fuzzy_topk(),
        "wildcard_term_search": _sql_wildcard_term_search(),
        "regexp_term_search": _sql_regexp_term_search(),
        "terms_agg_match": _sql_terms_agg_match(),
        "histogram_agg_match": _sql_histogram_agg_match(),
        "date_histogram_match": _sql_date_histogram_match(),
        "date_pipeline_agg": _sql_date_pipeline_agg(),
        "bucket_pipeline_aggs": _sql_bucket_pipeline_aggs(),
        "normalize_agg": _sql_normalize_agg(),
        "bucket_select_sort": _sql_bucket_select_sort(),
        "c4_filters": _sql_c4_filters(),
        "dsir_weights": _sql_dsir_weights(),
        "auto_date_hist": _sql_auto_date_hist(),
        "sampler_agg_match": _sql_sampler_agg_match(),
        "significant_text_match": _sql_significant_text_match(),
        "ngram_repetition": _sql_ngram_repetition(),
        "url_canonicalize": _sql_url_canonicalize(),
        "rrf_hybrid": _sql_rrf_hybrid(),
        # restore correctness gates on the ordinary bm25 oracle: the
        # restored index must serve value-identical results
        "snapshot_restore": _sql_bm25_topk(),
        "reindex_filtered": _sql_reindex_filtered(),
        "data_mixture": _sql_data_mixture(),
        "update_by_query": _sql_update_by_query(),
        "top_hits_agg": _sql_top_hits_agg(),
        "filters_agg_match": _sql_filters_agg_match(),
        "composite_agg_page": _sql_composite_agg_page(),
        "multi_terms_agg": _sql_multi_terms_agg(),
        "weighted_avg_agg": _sql_weighted_avg_agg(),
        "adjacency_matrix_agg": _sql_adjacency_matrix_agg(),
        "extended_stats_match": _sql_extended_stats_match(),
        "mget_docs": _sql_mget_docs(),
        "stats_agg_match": _sql_stats_agg_match(),
        "range_agg_match": _sql_range_agg_match(),
        "cardinality_agg_match": _sql_cardinality_agg_match(),
        "percentiles_agg_match": _sql_percentiles_agg_match(),
        "percentile_ranks_match": _sql_percentile_ranks_match(),
        "rare_terms_match": _sql_rare_terms_match(),
        "significant_terms_match": _sql_significant_terms_match(),
        "match_count": _sql_match_count(),
        "term_vectors": _sql_term_vectors(),
        "analyze_api": _sql_analyze_api(),
        "term_suggest": _sql_term_suggest(),
        "phrase_suggest": _sql_phrase_suggest(),
        "completion_suggest": _sql_completion_suggest(),
        "delete_by_query": _sql_delete_by_query(),
        "match_export": _sql_match_export(),
        "sorted_match_topk": _sql_sorted_match_topk(),
        "bm25_multi_topk": _sql_bm25_multi_topk(),
        "bm25_dismax_topk": _sql_bm25_dismax_topk(),
        "phrase_match": _sql_phrase_match(),
        "span_near_match": _sql_span_near_match(),
        "intervals_match": _sql_intervals_match(),
        "contamination_scan": _sql_contamination_scan(),
        "repetition_quality": SQL_REPETITION_QUALITY,
        "match_phrase_prefix": _sql_match_phrase_prefix(),
        "match_bool_prefix": _sql_match_bool_prefix(),
        "highlight_match": _sql_highlight_match(),
        "snippet_match": _sql_snippet_match(),
        "embedding_topk": SQL_EMBEDDING_TOPK,
        "embedding_neardup": SQL_EMBEDDING_NEARDUP,
        "embedding_kmeans": SQL_EMBEDDING_KMEANS,
        "semdedup_pairs": SQL_SEMDEDUP_PAIRS,
        "knn_filtered_topk": SQL_KNN_FILTERED,
        "pii_redact": _sql_pii_redact(),
        "lineitem_pricing_summary": SQL_LINEITEM_PRICING,
        "events_tumbling": SQL_EVENTS_TUMBLING,
        "es_doc_transform": _sql_es_doc_transform(),
        "alpha_prefix_search": _sql_alpha_prefix_search(),
        # ann_lsh_topk, multimodal_features: rows-only (approximate / stubbed)
        "events_sliding": SQL_EVENTS_SLIDING,
        "events_sessions": SQL_EVENTS_SESSIONS,
        "quality_percentiles": SQL_QUALITY_PERCENTILES,
        "top_docs_per_source": SQL_TOP_DOCS_PER_SOURCE,
        "distinct_sources": SQL_DISTINCT_SOURCES,
        "lineitem_orders_join": SQL_LINEITEM_ORDERS_JOIN,
        "events_asof_join": SQL_EVENTS_ASOF_JOIN,
        "deterministic_sample": SQL_DETERMINISTIC_SAMPLE,
        "stratified_sample": SQL_STRATIFIED_SAMPLE,
    }
