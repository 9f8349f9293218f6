"""Arrow schema constants for the engine's tables.

``WEBTEXT`` is the authoritative input shape from BASELINE.json
``input_hint``: Common-Crawl-style web pages. The reference's analogous
source shape is the Mongo BSON document (``datastructures/mongo.go:4-21``);
its nullable ``data`` pointer maps to NULL ``html``/``text`` here
(FIXTURES.md §2 reject rows).
"""

from __future__ import annotations

import pyarrow as pa

WEBTEXT = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.large_string()),
        pa.field("lang", pa.string()),
    ]
)

# Cleaned-corpus artifact written by phase A of the index build.
CORPUS = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("text", pa.large_string()),
        pa.field("lang", pa.string()),
        pa.field("doc_len", pa.int32()),
    ]
)

# Per-segment doc-stats table (doc_id is the global dense id).
DOC_STATS = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("url", pa.string()),
        pa.field("doc_len", pa.int32()),
        pa.field("segment_id", pa.int32()),
    ]
)

# Per-segment posting (term) table — the LOGICAL schema. On disk the *_enc
# byte columns and block lists live in a per-segment sidecar binary; the
# parquet stores (segment_id, blob_off, doc_nbytes, tf_nbytes[, pos_nbytes],
# blk_n) byte ranges instead (index/blobs.py), and readers materialize them.
SEGMENT_TERMS = pa.schema(
    [
        pa.field("field", pa.string()),
        pa.field("term", pa.string()),
        pa.field("df", pa.int64()),
        pa.field("doc_ids_enc", pa.binary()),
        pa.field("tfs_enc", pa.binary()),
        pa.field("block_last_doc", pa.list_(pa.int64())),
        pa.field("block_max_impact", pa.list_(pa.float64())),
        pa.field("block_doc_byte_off", pa.list_(pa.int64())),
        pa.field("block_tf_byte_off", pa.list_(pa.int64())),
        pa.field("max_impact", pa.float64()),
    ]
)

QUERIES = pa.schema(
    [
        pa.field("query_id", pa.int64()),
        pa.field("query", pa.string()),
        pa.field("k", pa.int64()),
    ]
)

SEARCH_RESULT = pa.schema(
    [
        pa.field("query_id", pa.int64()),
        pa.field("rank", pa.int64()),
        pa.field("doc_id", pa.int64()),
        pa.field("score", pa.float64()),
    ]
)
