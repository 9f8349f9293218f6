"""elasticsearch_data_loader_ray — a Ray-Data-native full-text indexing engine.

A from-scratch re-expression of the capabilities of
companieshouse/elasticsearch-data-loader (a Go MongoDB -> ElasticSearch bulk
loader whose search semantics live in its ES index scheme,
``/root/reference/config/search_scheme.json``): record transforms and analyzer
chains as vectorized ``map_batches`` stages over Arrow batches, the inverted
index build as a doc-range-partitioned ``groupby`` shuffle producing
delta-gap + varint compressed posting-list segments with block-max metadata,
and BM25 (k1=1.2, b=0.75) top-k retrieval over those segments.

Nothing here is a port of the Go code; semantics parity is established by
golden tests citing the reference (see SURVEY.md / FIXTURES.md).
"""

__version__ = "0.1.0"

__all__ = [
    "BuildConfig", "build_index", "build_index_from_corpus",
    "append_index", "append_index_from_corpus",
    "search", "search_inprocess", "LocalSearcher", "merge_segments",
]


def __getattr__(name):  # lazy public API (avoid importing ray at package import)
    if name in ("BuildConfig", "build_index", "build_index_from_corpus"):
        from .index import build as _b

        return getattr(_b, name)
    if name in ("append_index", "append_index_from_corpus"):
        from .index import append as _a

        return getattr(_a, name)
    if name in ("search", "search_inprocess", "LocalSearcher"):
        from .index import search as _s

        return getattr(_s, name)
    if name == "merge_segments":
        from .index.merge import merge_segments

        return merge_segments
    raise AttributeError(name)
