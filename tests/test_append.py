"""Incremental append (generation segments + url upserts).

Gate property: build(A) + append(B) over disjoint urls must equal a
from-scratch build over A∪B — same hit urls and BITWISE-identical scores
(integer dl_total -> identical avgdl; term_stats rebuilt over both
generations -> identical idf). Upserts tombstone the superseded doc."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.functions.analyzers import token_count_batch
from elasticsearch_data_loader_ray.index import manifest as mf
from elasticsearch_data_loader_ray.index.append import (
    append_index,
    append_index_from_corpus,
    sweep_invisible_segments,
)
from elasticsearch_data_loader_ray.index.build import (
    BuildConfig,
    DuplicateUrlError,
    build_index,
    build_index_from_corpus,
    seg_docs_path,
)
from elasticsearch_data_loader_ray.index.search import LocalSearcher


def _corpus_table(urls: list[str], texts: list[str]) -> pa.Table:
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_len": pa.array(token_count_batch(
            pa.array(texts, pa.large_string())), pa.int32()),
    })


def _url_of(idx_dir: str) -> dict[int, str]:
    segs = sorted(mf.committed_segments(idx_dir))
    t = pq.read_table([seg_docs_path(idx_dir, s) for s in segs],
                      columns=["doc_id", "url"])
    return dict(zip(t["doc_id"].to_pylist(), t["url"].to_pylist()))


def test_append_equals_full_build(tmp_path):
    t = fixtures.generate_webtext(1200)
    a, b = t.slice(0, 600), t.slice(600)
    src_a, src_b, src_all = (tmp_path / n for n in ("a", "b", "all"))
    for d in (src_a, src_b, src_all):
        d.mkdir()
    pq.write_table(a, str(src_a / "p.parquet"))
    pq.write_table(b, str(src_b / "p.parquet"))
    pq.write_table(t, str(src_all / "p.parquet"))

    cfg = BuildConfig(docs_per_segment=150)
    full = build_index(str(src_all), str(tmp_path / "idx_full"), cfg)
    part = build_index(str(src_a), str(tmp_path / "idx_inc"), cfg)
    inc = append_index(str(src_b), str(tmp_path / "idx_inc"), cfg)

    assert inc["n_docs"] == full["n_docs"]
    assert inc["dl_total"] == full["dl_total"]
    assert inc["avgdl"] == full["avgdl"]  # bitwise via integer dl_total
    assert inc["n_postings"] == full["n_postings"]
    assert inc.get("n_deleted", 0) == 0  # disjoint urls: no upserts

    url_full = _url_of(str(tmp_path / "idx_full"))
    url_inc = _url_of(str(tmp_path / "idx_inc"))
    sf = LocalSearcher(str(tmp_path / "idx_full"))
    si = LocalSearcher(str(tmp_path / "idx_inc"))
    # compare the FULL scored set (k = corpus): top-k boundaries can differ
    # between the two indexes only by doc_id tie order (doc ids are
    # assigned per-index), so url->score over ALL hits is the equivalence
    for row in fixtures.generate_queries().to_pylist():
        i1, s1 = sf.search(row["query"], full["n_docs"])
        i2, s2 = si.search(row["query"], inc["n_docs"])
        by_url_1 = sorted(zip((url_full[int(d)] for d in i1), s1))
        by_url_2 = sorted(zip((url_inc[int(d)] for d in i2), s2))
        assert [u for u, _ in by_url_1] == [u for u, _ in by_url_2]
        assert [s for _, s in by_url_1] == [s for _, s in by_url_2]  # bitwise


def test_append_upsert_tombstones_old_doc(tmp_path):
    urls = [f"https://u/{i:04d}" for i in range(80)]
    texts = [f"alpha common w{i}" for i in range(80)]
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)),
                            str(tmp_path / "idx"),
                            BuildConfig(docs_per_segment=20))
    # re-ingest url 50 with new content, plus one brand-new url
    up = _corpus_table([urls[50], "https://u/9999"],
                       ["bravo fresh w50", "bravo common extra"])
    stats = append_index_from_corpus(rd.from_arrow(up), str(tmp_path / "idx"),
                                     BuildConfig(docs_per_segment=20))
    assert stats["n_deleted"] == 1
    assert stats["n_docs"] == 82  # deleted doc keeps its (dense) id slot
    s = LocalSearcher(str(tmp_path / "idx"))
    url_of = _url_of(str(tmp_path / "idx"))
    ids_a, _ = s.search("alpha", k=100)
    assert urls[50] not in {url_of[int(d)] for d in ids_a}
    ids_b, _ = s.search("bravo", k=10)
    assert urls[50] in {url_of[int(d)] for d in ids_b}
    # conjunctive path drops the tombstoned doc too
    ids_and, _ = s.search("alpha w50", k=10, mode="and")
    assert urls[50] not in {url_of[int(d)] for d in ids_and}


def test_append_visible_via_refresh(tmp_path):
    urls = [f"https://r/{i:04d}" for i in range(40)]
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, ["base text"] * 40)),
        str(tmp_path / "idx"), BuildConfig(docs_per_segment=20))
    s = LocalSearcher(str(tmp_path / "idx"))
    assert len(s.search("newcomer", k=5)[0]) == 0
    append_index_from_corpus(
        rd.from_arrow(_corpus_table(["https://r/z1"], ["newcomer text"])),
        str(tmp_path / "idx"), BuildConfig(docs_per_segment=20))
    assert s.refresh() is True
    assert len(s.search("newcomer", k=5)[0]) == 1


def test_append_strict_duplicates_rejects_upsert(tmp_path):
    from elasticsearch_data_loader_ray.index.append import _next_gen_base

    urls = [f"https://s/{i:04d}" for i in range(30)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, ["text one"] * 30)),
        idx, BuildConfig(docs_per_segment=10))
    gen_base = _next_gen_base(mf.committed_segments(idx))
    with open(os.path.join(idx, "stats.json"), "rb") as f:
        stats_before = f.read()
    with pytest.raises(DuplicateUrlError) as ei:
        append_index_from_corpus(
            rd.from_arrow(_corpus_table([urls[3], "https://s/new"],
                                        ["conflict", "fresh"])),
            idx, BuildConfig(docs_per_segment=10, strict_duplicates=True))
    assert ei.value.examples == [urls[3]]
    # the rejection commits nothing and leaves no invisible generation
    with open(os.path.join(idx, "stats.json"), "rb") as f:
        assert f.read() == stats_before
    assert not [s for s in mf.committed_segments(idx) if s >= gen_base]
    assert not os.path.exists(os.path.join(idx, "corpus_gen",
                                           f"gen-{gen_base}"))


def test_invisible_segment_sweep_and_gating(tmp_path):
    urls = [f"https://v/{i:04d}" for i in range(30)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, ["gated text"] * 30)),
        idx, BuildConfig(docs_per_segment=10))
    # simulate a crashed append: a committed manifest whose doc range lies
    # beyond stats.n_docs (files present, never became visible)
    import os

    fake_id = 2_000_000
    for sub in ("terms", "docs"):
        os.makedirs(os.path.join(idx, sub, f"segment={fake_id:06d}"))
    mf.write_manifest(idx, fake_id, {
        "doc_id_base": 30, "n_docs": 5, "n_input_rows": 5, "n_duplicates": 0,
        "n_terms": 1, "n_postings": 1, "url_checksum": "x",
        "build_secs": 0.0, "docs_per_sec": None})
    s = LocalSearcher(idx)
    assert fake_id not in s.seg_ids  # gated out
    swept = sweep_invisible_segments(idx, 30)
    assert swept == [fake_id]
    assert fake_id not in mf.committed_segments(idx)


def test_append_auto_compact_bounds_segments(tmp_path, monkeypatch):
    """merge.MAX_SEGMENTS: an append whose commit leaves more segments
    merges down to the bound, and search results stay identical to the
    unmerged index (tombstoned upserts must survive the merge)."""
    from elasticsearch_data_loader_ray.index import merge

    t = fixtures.generate_webtext(900)
    a, b = t.slice(0, 600), t.slice(600)
    for name, part in [("a", a), ("b", b)]:
        d = tmp_path / name
        d.mkdir()
        pq.write_table(part, str(d / "p.parquet"))
    cfg = BuildConfig(docs_per_segment=100)
    idx1, idx2 = str(tmp_path / "i1"), str(tmp_path / "i2")
    build_index(str(tmp_path / "a"), idx1, cfg)
    append_index(str(tmp_path / "b"), idx1, cfg)
    assert len(mf.committed_segments(idx1)) > 4  # under the default bound
    build_index(str(tmp_path / "a"), idx2, cfg)
    monkeypatch.setattr(merge, "MAX_SEGMENTS", 4)
    out = append_index(str(tmp_path / "b"), idx2, cfg)
    segs = sorted(mf.committed_segments(idx2))
    assert len(segs) <= 4
    assert out["n_segments"] == len(segs)
    assert "compact" in out["phase_secs"]
    assert out == mf.read_json(os.path.join(idx2, "stats.json"))
    u1, u2 = _url_of(idx1), _url_of(idx2)
    s1, s2 = LocalSearcher(idx1), LocalSearcher(idx2)
    for q in ["the data", "query scan", "w0042", "fast join table"]:
        ids1, sc1 = s1.search(q, k=20)
        ids2, sc2 = s2.search(q, k=20)
        assert [u1[int(i)] for i in ids1] == [u2[int(i)] for i in ids2], q
        assert sc1.tolist() == sc2.tolist(), q


def test_delete_by_query_tombstones_matches(tmp_path):
    from elasticsearch_data_loader_ray.index.append import delete_by_query
    from elasticsearch_data_loader_ray.index.export import count_matches

    texts = (["alpha beta gamma"] * 5 + ["alpha delta"] * 4
             + ["epsilon zeta"] * 3)
    urls = [f"{i:08d}" for i in range(len(texts))]
    idx = str(tmp_path / "dbq_idx")
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)), idx,
                            BuildConfig(docs_per_segment=4))
    assert count_matches(idx, "beta") == 5
    n = delete_by_query(idx, "beta")
    assert n == 5
    # every read path drops the tombstoned docs
    assert count_matches(idx, "beta") == 0
    assert count_matches(idx, "alpha") == 4  # the delta docs survive
    s = LocalSearcher(idx)
    ids, _sc = s.search("alpha", k=100)
    umap = _url_of(idx)
    assert all("delta" in texts[int(umap[int(d)])] or
               texts[int(umap[int(d)])].startswith("alpha delta")
               for d in ids)
    # idempotent rerun: nothing new to delete
    assert delete_by_query(idx, "beta") == 0
    # unrelated second delete stacks
    assert delete_by_query(idx, "zeta") == 3
    assert count_matches(idx, "epsilon") == 0


def test_refresh_sees_delete_only_commit(tmp_path):
    """A delete_by_query commit changes no segment, only the tombstone
    list; a live searcher's refresh() must still swap and stop serving
    the deleted docs."""
    from elasticsearch_data_loader_ray.index.append import delete_by_query

    texts = ["alpha beta"] * 6 + ["alpha gamma"] * 6
    urls = [f"{i:08d}" for i in range(len(texts))]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)), idx,
                            BuildConfig(docs_per_segment=5))
    s = LocalSearcher(idx)
    assert len(s.search("beta", k=20)[0]) == 6
    assert s.refresh() is False  # nothing committed yet
    assert delete_by_query(idx, "beta") == 6
    assert s.refresh() is True
    assert len(s.search("beta", k=20)[0]) == 0
    ids, _sc = s.search("alpha", k=20)
    umap = _url_of(idx)
    assert sorted(umap[int(d)] for d in ids) == urls[6:]
    assert s.refresh() is False


def test_missing_tombstone_file_fails_loudly(tmp_path):
    """A tombstone file listed in stats.json but gone from disk must fail
    the bind with FileNotFoundError naming it, not serve its deleted docs
    again."""
    from elasticsearch_data_loader_ray.index.append import delete_by_query

    texts = [("alpha " if i % 3 == 0 else "") + f"body w{i}"
             for i in range(60)]
    urls = [f"{i:08d}" for i in range(60)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)), idx,
                            BuildConfig(docs_per_segment=20))
    assert delete_by_query(idx, "alpha") == 20
    assert len(LocalSearcher(idx).matched_ids("text", ["alpha"])) == 0
    stats = mf.read_json(os.path.join(idx, "stats.json"))
    gone = stats["tombstone_files"][0]
    os.unlink(os.path.join(idx, gone))
    with pytest.raises(FileNotFoundError, match=os.path.basename(gone)):
        LocalSearcher(idx)


def test_export_serves_newest_generation_after_upsert(tmp_path):
    """Corpus-backed reads (export stored fields, term vectors) must
    resolve an upserted url to the NEW generation's text, not the
    tombstoned original (keep-LAST corpus dedup)."""
    from elasticsearch_data_loader_ray.index.append import (
        append_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.export import (
        export_matches,
        term_vectors,
    )

    idx = str(tmp_path / "gen_idx")
    urls = [f"{i:08d}" for i in range(6)]
    old_texts = ["alpha beta"] * 6
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, old_texts)),
                            idx, BuildConfig(docs_per_segment=4))
    # upsert url 2 with new text (old doc tombstoned, new doc appended)
    append_index_from_corpus(
        rd.from_arrow(_corpus_table([urls[2]], ["gamma delta epsilon"])),
        idx, BuildConfig(docs_per_segment=4))
    got = export_matches(idx, "gamma", stored_columns=("text",)).to_pandas()
    assert len(got) == 1
    assert got.iloc[0]["text"] == "gamma delta epsilon"
    assert got.iloc[0]["word_count"] == 3
    tv = term_vectors(idx, [urls[2]]).to_pandas()
    assert set(tv["term"]) == {"gamma", "delta", "epsilon"}
    # non-upserted urls still export their original text
    got2 = export_matches(idx, "alpha", stored_columns=("text",)).to_pandas()
    assert len(got2) == 5 and (got2["text"] == "alpha beta").all()


def test_stored_shards_after_cross_generation_merge(tmp_path):
    """A merge after an append produces segments whose ids land in the
    newest generation's id block and whose doc ranges span generations —
    shard building must source each doc's text from the right corpus
    (doc-range generation mapping + per-segment fallback), never nulls."""
    from elasticsearch_data_loader_ray.index.append import (
        append_index_from_corpus,
    )
    from elasticsearch_data_loader_ray.index.export import export_matches
    from elasticsearch_data_loader_ray.index.merge import compact_to

    idx = str(tmp_path / "xgen_idx")
    urls = [f"{i:08d}" for i in range(8)]
    texts = [f"alpha base{i}" for i in range(8)]
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)), idx,
                            BuildConfig(docs_per_segment=2))
    new_urls = [f"{i:08d}" for i in range(8, 12)]
    new_texts = [f"alpha gen{i}" for i in range(8, 12)]
    append_index_from_corpus(
        rd.from_arrow(_corpus_table(new_urls, new_texts)), idx,
        BuildConfig(docs_per_segment=2))
    compact_to(idx, 2)  # merged ids allocate above the append block
    got = export_matches(idx, "alpha",
                         stored_columns=("text",)).to_pandas()
    assert len(got) == 12
    assert got["text"].notna().all()
    by_url = got.set_index("url")["text"]
    for i in range(8):
        assert by_url[urls[i]] == f"alpha base{i}"
    for i, u in enumerate(new_urls):
        assert by_url[u] == f"alpha gen{8 + i}"


def test_stored_shard_warc_ts_column(tmp_path):
    """warc_ts is both the dedup key and a storable column."""
    from elasticsearch_data_loader_ray.index.aggs import (
        build_doc_values,
        _dv_path,
    )

    idx = str(tmp_path / "ts_idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table([f"{i:04d}" for i in range(6)],
                                    ["alpha beta"] * 6)),
        idx, BuildConfig(docs_per_segment=3))
    build_doc_values(idx, "warc_ts")
    shard = pq.read_table(_dv_path(idx, "warc_ts", 0))
    assert shard.num_rows == 3 and "warc_ts" in shard.column_names


def test_upsert_reingest_same_url_counts_once(tmp_path):
    """Re-ingesting a url a SECOND time must not re-count the original doc
    id in n_deleted / the generation's n_upserts (regression: the upsert
    probe did not exclude already-tombstoned ids)."""
    urls = [f"https://t/{i:04d}" for i in range(40)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, [f"base w{i}" for i in range(40)])),
        idx, BuildConfig(docs_per_segment=10))
    cfg = BuildConfig(docs_per_segment=10)
    s1 = append_index_from_corpus(
        rd.from_arrow(_corpus_table([urls[7]], ["first rewrite"])), idx, cfg)
    assert s1["n_deleted"] == 1
    s2 = append_index_from_corpus(
        rd.from_arrow(_corpus_table([urls[7]], ["second rewrite"])), idx, cfg)
    # gen 2 tombstones the gen-1 doc only; the base doc is already dead
    assert s2["n_deleted"] == 2
    assert s2["generations"][-1]["n_upserts"] == 1
    s = LocalSearcher(idx)
    url_of = _url_of(idx)
    ids, _ = s.search("rewrite", k=10)
    assert [url_of[int(d)] for d in ids] == [urls[7]]
    ids, _ = s.search("second", k=10)
    assert [url_of[int(d)] for d in ids] == [urls[7]]


def test_merge_excludes_invisible_segments(tmp_path):
    """Merging a visible segment with a committed-but-invisible orphan
    (crashed append) would push the merged range past stats.n_docs and
    permanently hide previously-visible docs — merge must filter to
    visible segments (regression)."""
    from elasticsearch_data_loader_ray.index.merge import merge_segments

    urls = [f"https://m/{i:04d}" for i in range(30)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, [f"visible w{i}" for i in range(30)])),
        idx, BuildConfig(docs_per_segment=10))
    append_index_from_corpus(
        rd.from_arrow(_corpus_table(["https://m/z1"], ["orphan text"])),
        idx, BuildConfig(docs_per_segment=10))
    # simulate the append having crashed before its stats.json rewrite:
    # roll visibility back to the base build
    sp = os.path.join(idx, "stats.json")
    st = mf.read_json(sp)
    st["n_docs"] = 30
    st["generations"] = []
    mf.write_json_atomic(sp, st)
    before = LocalSearcher(idx)
    assert len(before.search("visible", k=100)[0]) == 30

    survivors = merge_segments(idx, group_size=10)
    ms = mf.committed_segments(idx)
    for sid in survivors:
        m = ms[sid]
        assert int(m["doc_id_base"]) + int(m["n_docs"]) <= 30
    after = LocalSearcher(idx)
    assert len(after.search("visible", k=100)[0]) == 30
    assert len(after.search("orphan", k=10)[0]) == 0


def test_merge_counts_only_visible_segments(tmp_path):
    """stats.json after a merge counts VISIBLE segments only: a committed
    manifest of a crashed append (doc range past stats.n_docs) is neither
    merged nor counted in n_segments / per_segment (regression)."""
    from elasticsearch_data_loader_ray.index.merge import compact_to

    urls = [f"https://c/{i:04d}" for i in range(30)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, ["counted text"] * 30)),
        idx, BuildConfig(docs_per_segment=10))
    fake_id = 2_000_000
    for sub in ("terms", "docs"):
        os.makedirs(os.path.join(idx, sub, f"segment={fake_id:06d}"))
    mf.write_manifest(idx, fake_id, {
        "doc_id_base": 30, "n_docs": 5, "n_input_rows": 5, "n_duplicates": 0,
        "n_terms": 1, "n_postings": 1, "url_checksum": "x",
        "build_secs": 0.0, "docs_per_sec": None})
    survivors = compact_to(idx, 1)
    stats = mf.read_json(os.path.join(idx, "stats.json"))
    visible = LocalSearcher(idx).seg_ids
    assert fake_id in mf.committed_segments(idx)  # still on disk
    assert survivors == visible and len(visible) == 1
    assert stats["n_segments"] == len(visible)
    assert sorted(int(k) for k in stats["per_segment"]) == visible


def test_merge_next_id_skips_invisible_orphan_ids(tmp_path):
    """The merge id allocator must see EVERY committed manifest — including
    committed-but-invisible crashed-append orphans — or a fresh merged id
    collides with the orphan and overwrites its segment files while the
    orphan sweep races to rmtree the same dir (regression, ADVICE r4)."""
    from elasticsearch_data_loader_ray.index.merge import merge_segments

    urls = [f"https://o/{i:04d}" for i in range(20)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(urls, [f"visible w{i}" for i in range(20)])),
        idx, BuildConfig(docs_per_segment=10))
    # append #1: stays visible (id APPEND_ID_BASE)
    append_index_from_corpus(
        rd.from_arrow(_corpus_table(["https://o/a1"], ["alive text"])),
        idx, BuildConfig(docs_per_segment=10))
    sp = os.path.join(idx, "stats.json")
    n_vis = int(mf.read_json(sp)["n_docs"])
    # append #2: crashed before its stats.json commit -> orphan with the
    # NEXT append id, right above the visible append
    append_index_from_corpus(
        rd.from_arrow(_corpus_table(["https://o/z1"], ["orphan text"])),
        idx, BuildConfig(docs_per_segment=10))
    st = mf.read_json(sp)
    gens = st.get("generations", [])
    st["n_docs"] = n_vis
    st["generations"] = gens[:-1]
    mf.write_json_atomic(sp, st)
    pre_ids = set(mf.committed_segments(idx).keys())
    orphan_ids = {s for s, m in mf.committed_segments(idx).items()
                  if int(m["doc_id_base"]) + int(m["n_docs"]) > n_vis}
    assert orphan_ids, "test setup: expected a committed-but-invisible orphan"

    survivors = merge_segments(idx, group_size=10)
    fresh = set(survivors) - pre_ids
    assert fresh, "merge should have produced at least one fresh segment id"
    assert not (fresh & orphan_ids), (
        f"merged ids {fresh} collided with orphan ids {orphan_ids}")
    after = LocalSearcher(idx)
    assert len(after.search("visible", k=100)[0]) == 20
    assert len(after.search("alive", k=10)[0]) == 1
    assert len(after.search("orphan", k=10)[0]) == 0


@pytest.mark.parametrize("mode", ["AND", "bogus", ""])
def test_unknown_match_mode_raises_before_any_write(tmp_path, mode):
    """An unknown ``mode`` used to fall through to OR: delete_by_query
    tombstoned the OR set. It must raise on the driver and leave
    stats.json and tombstones/ byte-identical."""
    from elasticsearch_data_loader_ray.index.append import delete_by_query
    from elasticsearch_data_loader_ray.index.export import (
        count_matches,
        count_matches_many,
        sorted_matches,
    )

    texts = ["alpha beta"] * 6 + ["alpha gamma"] * 6 + ["delta"] * 3
    urls = [f"{i:08d}" for i in range(len(texts))]
    idx = tmp_path / "idx"
    build_index_from_corpus(rd.from_arrow(_corpus_table(urls, texts)),
                            str(idx), BuildConfig(docs_per_segment=4))
    assert delete_by_query(str(idx), "delta") == 3

    def snapshot() -> dict:
        files = [idx / "stats.json", *sorted((idx / "tombstones").iterdir())]
        return {f.name: f.read_bytes() for f in files}

    before = snapshot()
    with pytest.raises(ValueError, match="mode"):
        delete_by_query(str(idx), "alpha beta", mode=mode)
    assert snapshot() == before
    with pytest.raises(ValueError, match="mode"):
        count_matches(str(idx), "alpha beta", mode=mode)
    with pytest.raises(ValueError, match="mode"):
        count_matches_many(str(idx), ["alpha", "beta"], mode=mode)
    with pytest.raises(ValueError, match="mode"):
        sorted_matches(str(idx), "alpha", "word_count", mode=mode)
    assert count_matches(str(idx), "alpha beta") == 12
    assert count_matches(str(idx), "alpha beta", mode="and") == 6


def test_more_like_this_skips_upserted_source(tmp_path):
    """more_like_this excludes the source url's LIVE doc: after an upsert
    the url's tombstoned original sits in an earlier segment, and the
    lookup must not stop there (the new version would come back as its
    own best match)."""
    urls = [f"https://m/{i:04d}" for i in range(60)]
    idx = str(tmp_path / "idx")
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(
            urls, [f"base body w{i} w{i + 1}" for i in range(60)])),
        idx, BuildConfig(docs_per_segment=20))
    append_index_from_corpus(
        rd.from_arrow(_corpus_table([urls[10]], ["fresh w11 w12 w13"])),
        idx, BuildConfig(docs_per_segment=20))
    url_of = _url_of(idx)
    new_id = next(d for d, u in url_of.items() if u == urls[10] and d >= 60)
    ids, _sc = LocalSearcher(idx).more_like_this(urls[10], k=5)
    assert new_id not in ids.tolist() and 10 not in ids.tolist()
    assert {11, 12} <= set(ids.tolist())


def _brute_upserts(idx: str, batch_urls: set[str]) -> list[int]:
    """Every visible, not-yet-tombstoned doc whose url is in the batch."""
    from elasticsearch_data_loader_ray.index.search import (
        _load_deleted,
        _load_stats,
        _visible_seg_ids,
    )

    stats = _load_stats(idx)
    segs, _vis = _visible_seg_ids(idx, stats)
    dead = set(_load_deleted(idx, stats).tolist())
    t = pq.read_table([seg_docs_path(idx, s) for s in segs],
                      columns=["doc_id", "url"])
    return sorted(d for d, u in zip(t["doc_id"].to_pylist(),
                                    t["url"].to_pylist())
                  if u in batch_urls and d not in dead)


def test_upsert_probe_matches_brute_force(tmp_path):
    """The upsert probe's n_upserts and tombstone file equal a brute-force
    scan across merged and unmerged segments, urls re-ingested twice
    within a batch and across appends, and non-ASCII urls; strict mode
    still rejects with the conflicting urls as examples."""
    from elasticsearch_data_loader_ray.index.merge import compact_to
    from elasticsearch_data_loader_ray.index.search import _visible_seg_ids

    rng = np.random.default_rng(19)
    base = [f"https://p/{i:04d}" for i in range(100)] + \
        [f"https://ü/é-{i}" for i in range(20)]
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(docs_per_segment=15)
    build_index_from_corpus(
        rd.from_arrow(_corpus_table(base, [f"base w{i}" for i in
                                           range(len(base))])), idx, cfg)
    stats = mf.read_json(os.path.join(idx, "stats.json"))
    assert len(_visible_seg_ids(idx, stats)[0]) >= 6
    compact_to(idx, 5, cfg)
    seen: list[str] = []
    for gen in range(3):
        old = [str(u) for u in rng.choice(base, 12, replace=False)]
        old += ["https://ü/é-1", *seen[:3]]  # non-ASCII; earlier upserts
        batch = [*old, old[0], f"https://new/{gen}-a", f"https://new/{gen}-b"]
        want = _brute_upserts(idx, set(batch))
        assert want, gen
        out = append_index_from_corpus(
            rd.from_arrow(_corpus_table(batch, [f"gen{gen} v{i}" for i in
                                                range(len(batch))])),
            idx, cfg)
        rec = out["generations"][-1]
        assert rec["n_upserts"] == len(want), gen
        tomb = mf.read_json(os.path.join(
            idx, "tombstones", f"gen-{rec['generation']}.json"))
        assert tomb["deleted_doc_ids"] == want, gen
        seen = old
        if gen == 0:
            compact_to(idx, 5, cfg)  # a merge across the generation edge
    conflict = ["https://p/0003", "https://ü/é-2", "https://p/0090"]
    want = _brute_upserts(idx, set(conflict))
    assert len(want) == 3
    url_of = _url_of(idx)
    with pytest.raises(DuplicateUrlError) as ei:
        append_index_from_corpus(
            rd.from_arrow(_corpus_table([*conflict, "https://new/z"],
                                        ["c0", "c1", "c2", "fresh"])),
            idx, BuildConfig(docs_per_segment=15, strict_duplicates=True))
    assert ei.value.examples == [url_of[d] for d in want]
