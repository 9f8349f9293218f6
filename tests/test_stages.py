"""Tests: record transform (M5), alpha index (O1/O3), LSH ANN, multimodal
plumbing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from elasticsearch_data_loader_ray import fixtures
from elasticsearch_data_loader_ray.stages.transform import (
    IGNORE_ABOVE,
    doc_title,
    transform_records,
)


def _corpus_table(n=120):
    t = fixtures.generate_webtext(n)
    import pyarrow.compute as pc

    return t.filter(pc.and_(t["text"].is_valid(), pc.not_equal(t["text"], "")))


def test_transform_records_fields():
    t = _corpus_table()
    out = transform_records(t)
    assert out.num_rows == t.num_rows
    row = out.slice(0, 1).to_pylist()[0]
    assert row["kind"] == "searchresults#document"
    assert row["record_type"] == "documents"
    assert row["links_self"] == f"/doc/{row['id']}"
    assert row["ordered_alpha_key_with_id"] == (
        row["ordered_alpha_key"] + ":" + row["id"])
    assert row["title"] == doc_title(t["text"][0].as_py())
    # suffix-split invariant (transform.go:62-63): start+ending == title when
    # a suffix matched within the title bytes
    assert (row["title_start"] + row["title_ending"]).startswith(
        row["title_start"])


def test_transform_ignore_above_keyword_mask():
    long_title = "X" * 300
    t = pa.table({
        "url": pa.array(["u1", "u2"]),
        "text": pa.array([long_title + "\n\nbody", "short title\n\nbody"],
                         pa.large_string()),
        "lang": pa.array(["en", "en"]),
    })
    out = transform_records(t)
    # 300-char title exceeds TITLE_MAX=120, so check alpha-key-with-id mask
    okw = out["ordered_alpha_key_with_id_keyword"].to_pylist()
    kw = out["title_keyword"].to_pylist()
    assert all(v is None or len(v) <= IGNORE_ABOVE for v in okw)
    assert kw[1] == "short title"


def test_transform_drops_invalid():
    t = pa.table({
        "url": pa.array(["a", "b", "c"]),
        "text": pa.array(["ok\n\nbody", None, ""], pa.large_string()),
        "lang": pa.array(["en", "en", "en"]),
    })
    assert transform_records(t).num_rows == 1


def test_alpha_index_prefix_and_paging(tmp_path):
    from elasticsearch_data_loader_ray.pipelines.alpha_index import (
        KEY,
        alpha_page_after,
        alpha_prefix_search,
        build_alpha_index,
    )

    t = _corpus_table(300)
    ds = rd.from_arrow(t.select(["url", "text", "lang"]))
    out = str(tmp_path / "alpha")
    build_alpha_index(ds, out)
    full = transform_records(t)
    keys = sorted(full[KEY].to_pylist())
    prefix = keys[len(keys) // 2][:2]
    got = alpha_prefix_search(out, prefix, limit=10)
    want = sorted(k for k in keys if k.startswith(prefix))[:10]
    assert got[KEY].to_pylist() == want
    # keyset paging walks the whole index in order without overlap
    after = keys[10]
    page = alpha_page_after(out, after, size=5)
    assert page[KEY].to_pylist() == [k for k in keys if k > after][:5]


def test_lsh_ann_finds_planted_near_dups(tmp_path):
    """LSH is the near-dup scale path: recall is measured on PLANTED
    high-cosine neighbors (random vectors have no meaningful neighbors —
    hyperplane LSH collision probability vanishes at cos~0.4)."""
    from elasticsearch_data_loader_ray.stages.similarity import ann_topk

    rng = np.random.default_rng(99)
    base = rng.standard_normal((400, 32)).astype(np.float32)
    n_q = 20
    jitter = base[:n_q] + 0.05 * rng.standard_normal((n_q, 32)).astype(np.float32)
    vecs = np.vstack([base, jitter])  # planted pair: i <-> 400+i, cos ~0.999
    path = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }), path)
    got = ann_topk(path, list(range(n_q)), k=5, n_probes=12).to_pandas()
    hits = 0
    for qid in range(n_q):
        found = set(got[got["query_vec_id"] == qid]["vec_id"])
        assert qid in found  # self-match always in the query's own bucket
        hits += (400 + qid) in found
    assert hits / n_q >= 0.7, hits


def test_lsh_ann_embeddings_schema():
    from elasticsearch_data_loader_ray.stages.similarity import ann_topk

    got = ann_topk("/root/testdata/sf0.001/embeddings.parquet", [0, 1], k=5,
                   n_probes=4)
    assert got.column_names == ["query_vec_id", "rank", "vec_id", "cos_sim"]
    for qid in (0, 1):
        sub = got.filter(pa.compute.equal(got["query_vec_id"], qid))
        assert sub["vec_id"].to_pylist()[0] == qid  # rank 1 = self, cos 1.0


def test_ivf_ann_planted_near_dups(tmp_path):
    """IVF: planted high-cosine neighbors recalled; only probed lists read."""
    from elasticsearch_data_loader_ray.stages.ivf import ivf_build, ivf_topk

    rng = np.random.default_rng(5)
    base = rng.standard_normal((400, 32)).astype(np.float32)
    n_q = 15
    jitter = base[:n_q] + 0.05 * rng.standard_normal((n_q, 32)).astype(np.float32)
    vecs = np.vstack([base, jitter])
    path = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    }), path)
    out = str(tmp_path / "ivf")
    ivf_build(path, out, n_centroids=8)
    q = vecs[:n_q].astype(np.float64)
    got = ivf_topk(out, q, list(range(n_q)), k=5, n_probe=3).to_pandas()
    hits = 0
    for qid in range(n_q):
        found = set(got[got["query_vec_id"] == qid]["vec_id"])
        assert qid in found  # self-match
        hits += (400 + qid) in found
    assert hits / n_q >= 0.8, hits
    assert len(ivf_topk.last_lists_read) <= 8  # partition-pruned read


def test_multimodal_feature_stage_plumbing():
    from elasticsearch_data_loader_ray.stages.multimodal import (
        FEATURE_DIM,
        ImageFeatureStage,
        synth_media_table,
    )

    t = synth_media_table(60)
    ds = rd.from_arrow(t)
    out = ds.map_batches(ImageFeatureStage, batch_format="pyarrow",
                         batch_size=16, concurrency=2).to_pandas()
    assert len(out) == 60
    ok = out[out["decoded"]]
    assert len(ok) == sum(p is not None for p in t["payload"].to_pylist())
    feat = ok.iloc[0]["features"]
    assert len(feat) == FEATURE_DIM
    assert abs(sum(feat) - 1.0) < 1e-5  # histogram normalized
    # determinism: same payload -> same features
    out2 = rd.from_arrow(t).map_batches(
        ImageFeatureStage, batch_format="pyarrow", batch_size=16,
        concurrency=2).to_pandas()
    assert ok.iloc[0]["features"] == pytest.approx(
        out2[out2["decoded"]].iloc[0]["features"])


def test_multimodal_strict_raises_for_codec_formats_only():
    """strict mode: netpbm decodes for real; codec formats (no decoder in
    this container) raise instead of silently faking."""
    import numpy as np

    from elasticsearch_data_loader_ray.stages.multimodal import (
        ImageFeatureStage, encode_ppm)

    stage = ImageFeatureStage(strict=True)
    img = np.full((4, 5, 3), 9, dtype=np.uint8)
    plane = stage._decode(encode_ppm(img), "image/x-portable-pixmap", 5, 4)
    assert plane.shape == (4, 5)
    with pytest.raises(NotImplementedError):
        stage._decode(b"\x89PNG....", "image/png", 5, 4)


def test_netpbm_roundtrip_and_wav_features():
    import numpy as np

    from elasticsearch_data_loader_ray.stages.multimodal import (
        AudioFeatureStage, decode_ppm, decode_wav, encode_ppm, encode_wav)

    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, size=(11, 13, 3), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(rgb)), rgb)
    gray = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
    assert np.array_equal(decode_ppm(encode_ppm(gray)), gray)
    # netpbm with comments + multi-whitespace header
    manual = b"P5 # comment\n 3\n2 255\n" + bytes(range(6))
    assert decode_ppm(manual).shape == (2, 3)

    # WAV roundtrip + spectral centroid lands near the tone frequency
    t = np.arange(8000) / 8000.0
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    dec, rate = decode_wav(encode_wav(x, 8000))
    assert rate == 8000 and dec.shape == (8000, 1)
    assert np.max(np.abs(dec[:, 0] - x)) < 2e-4  # 16-bit quantization
    batch = pa.table({
        "media_id": pa.array(["a", "b"]),
        "payload": pa.array([encode_wav(x, 8000), b"not a wav"], pa.binary()),
    })
    out = AudioFeatureStage()(batch)
    assert out["decoded"].to_pylist() == [True, False]
    dur, rms, zc, cent = out["features"][0].as_py()
    assert abs(dur - 1.0) < 1e-6
    assert abs(rms - 0.5 / np.sqrt(2)) < 1e-3
    assert 400 < cent < 480  # pure 440 Hz tone


def test_frame_sample():
    from elasticsearch_data_loader_ray.stages.multimodal import (
        frame_sample,
        synth_media_table,
    )

    t = synth_media_table(10)
    out = frame_sample(t, frame_bytes=512, every_nth=2)
    assert out.num_rows > 0
    assert all(len(f) <= 512 for f in out["frame"].to_pylist())
    assert all(i % 2 == 0 for i in out["frame_index"].to_pylist())


def test_lsh_partitioned_index_prunes_and_recalls(tmp_path):
    """lsh_build writes hive-partitioned buckets; lsh_topk reads ONLY the
    probed buckets' files (mirrors the IVF layout) and matches the
    in-pipeline ann_topk on the same planted-neighbor corpus."""
    import os

    from elasticsearch_data_loader_ray.stages.similarity import (
        ann_topk, lsh_build, lsh_topk, vec_matrix)

    rng = np.random.default_rng(99)
    base = rng.standard_normal((400, 32)).astype(np.float32)
    n_q = 20
    jitter = base[:n_q] + 0.05 * rng.standard_normal((n_q, 32)).astype(np.float32)
    vecs = np.vstack([base, jitter])
    path = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }), path)
    out = str(tmp_path / "lsh")
    lsh_build(path, out)
    qt = pq.read_table(path, filters=[("vec_id", "in", list(range(n_q)))])
    q_mat = vec_matrix(qt["embedding"])
    got = lsh_topk(out, q_mat, qt["vec_id"].to_pylist(),
                   k=5, n_probes=12).to_pandas()
    # recall on planted pairs — same gate as the in-pipeline variant
    hits = 0
    for qid in range(n_q):
        found = set(got[got["query_vec_id"] == qid]["vec_id"])
        assert qid in found
        hits += (400 + qid) in found
    assert hits / n_q >= 0.7, hits
    # partition pruning: probed buckets are a strict subset of on-disk ones
    bucket_dirs = [d for d in os.listdir(os.path.join(out, "buckets"))
                   if d.startswith("lsh_bucket=")]
    probed = lsh_topk.last_buckets_read
    assert len(probed) < len(bucket_dirs), (len(probed), len(bucket_dirs))
    # identical output to the one-shot in-pipeline path (same buckets probed)
    ref = ann_topk(path, list(range(n_q)), k=5, n_probes=12).to_pandas()
    got_s = got.sort_values(["query_vec_id", "rank"]).reset_index(drop=True)
    ref_s = ref.sort_values(["query_vec_id", "rank"]).reset_index(drop=True)
    assert got_s["vec_id"].tolist() == ref_s["vec_id"].tolist()
    assert got_s["cos_sim"].tolist() == ref_s["cos_sim"].tolist()


def test_embedding_neardup_matches_brute():
    """Block-pair cartesian near-dup == single-matrix brute force: every
    (a<b) pair exactly once with round(cos,6) >= threshold."""
    import numpy as np
    import pyarrow.parquet as pq

    from elasticsearch_data_loader_ray.pipelines.catalog import (
        EMB_NEARDUP_T, q_embedding_neardup)
    from elasticsearch_data_loader_ray.stages.similarity import vec_matrix

    sf = "/root/testdata/sf0.001"
    got = q_embedding_neardup(sf)
    t = pq.read_table(f"{sf}/embeddings.parquet")
    m = vec_matrix(t["embedding"]).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = t["vec_id"].to_numpy()
    S = np.round(m @ m.T, 6)
    ra, cb = np.nonzero(np.triu(S >= EMB_NEARDUP_T, 1))
    want = sorted(zip(np.minimum(ids[ra], ids[cb]).tolist(),
                      np.maximum(ids[ra], ids[cb]).tolist(),
                      S[ra, cb].tolist()))
    have = sorted(zip(got["vec_id_a"], got["vec_id_b"], got["cos_sim"]))
    assert have == want
    assert len(got) == len(set(zip(got["vec_id_a"], got["vec_id_b"])))
    assert (got["vec_id_a"] < got["vec_id_b"]).all()


def test_hll_distinct_count_within_error_bound():
    import duckdb
    import numpy as np

    from elasticsearch_data_loader_ray.pipelines.catalog import (
        _hll_estimate, _hll_partial, q_distinct_count_hll)

    # merged partials == single-pass registers, and error < 2% at p=14
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**63, 500_000).astype(np.uint64)
    dup = np.concatenate([keys, keys[:100_000]])
    whole = _hll_partial(dup)
    merged = np.maximum(_hll_partial(dup[:300_000]), _hll_partial(dup[300_000:]))
    assert np.array_equal(whole, merged)
    exact = len(np.unique(dup))
    est = _hll_estimate(whole)
    assert abs(est - exact) / exact < 0.02

    got = q_distinct_count_hll("/root/testdata/sf0.001")
    est = got["estimate"][0].as_py()
    exact = duckdb.sql(
        "SELECT count(DISTINCT l_orderkey) FROM "
        "read_parquet('/root/testdata/sf0.001/lineitem.parquet')").fetchone()[0]
    assert abs(est - exact) / max(exact, 1) < 0.02


def test_resize_plane_and_stage():
    import numpy as np

    from elasticsearch_data_loader_ray.stages.multimodal import (
        ImageResizeStage, decode_ppm, encode_ppm, resize_plane,
        synth_media_table)

    # identity resize is exact; 2x nearest upsample repeats pixels
    img = np.arange(24, dtype=np.uint8).reshape(4, 6)
    assert np.array_equal(resize_plane(img, 4, 6, "nearest"), img)
    assert np.array_equal(resize_plane(img, 4, 6, "bilinear"), img)
    up = resize_plane(img, 8, 12, "nearest")
    assert np.array_equal(up[::2, ::2], img)
    # constant image stays constant under bilinear at any size
    const = np.full((5, 7, 3), 200, dtype=np.uint8)
    assert (resize_plane(const, 9, 4, "bilinear") == 200).all()
    # downsample of a horizontal gradient stays monotone
    grad = np.tile(np.arange(0, 240, 10, dtype=np.uint8), (6, 1))
    small = resize_plane(grad, 3, 6, "bilinear")
    assert (np.diff(small.astype(int), axis=1) >= 0).all()

    t = synth_media_table(40)
    out = ImageResizeStage(out_h=8, out_w=8)(t)
    ok = [i for i, r in enumerate(out["resized"].to_pylist()) if r]
    assert ok, "no netpbm rows resized"
    for i in ok[:5]:
        dec = decode_ppm(out["payload"][i].as_py())
        assert dec.shape[:2] == (8, 8)


def test_pii_counts_and_redaction():
    from elasticsearch_data_loader_ray.stages.pii import (
        pii_counts,
        pii_redact,
        pii_scan_batch,
    )

    texts = pa.array([
        "mail a.b+c@ex-am.co or ops@sub.domain.io, host 10.0.3.250",
        "call 555-012-3456 and 555-999-0000 today",
        None,
        "clean text with no pii at all",
        "v4 256.1.1.1 still matches the shape 1.2.3.4",
    ])
    c = pii_counts(texts)
    assert c["n_email"].to_pylist() == [2, 0, 0, 0, 0]
    assert c["n_ipv4"].to_pylist() == [1, 0, 0, 0, 2]
    assert c["n_phone"].to_pylist() == [0, 2, 0, 0, 0]
    red = pii_redact(texts).to_pylist()
    assert red[0] == "mail [EMAIL] or [EMAIL], host [IP]"
    assert red[1] == "call [PHONE] and [PHONE] today"
    assert red[2] == ""  # null -> empty, not null
    assert red[3] == "clean text with no pii at all"
    # batch kernel appends counts + redacted column, keeps inputs
    out = pii_scan_batch(pa.table({"doc_id": [1, 2], "text": [
        "x@y.io", "nothing"]}))
    assert out.column_names == ["doc_id", "text", "n_email", "n_ipv4",
                                "n_phone", "text_redacted"]
    assert out["text_redacted"].to_pylist() == ["[EMAIL]", "nothing"]


def test_pii_redaction_order_and_tld_contract():
    """The email pattern requires an alphabetic TLD, so an IP-host
    address is NOT an email (its IP still gets redacted); a dotted
    alpha-TLD email is consumed whole by the email pass (declared
    order) before the IP pass runs."""
    from elasticsearch_data_loader_ray.stages.pii import pii_redact

    red = pii_redact(pa.array(["u@10.0.0.1 plus bare 10.0.0.2",
                               "u@sub.ex.co stays one token"]))
    assert red.to_pylist() == ["u@[IP] plus bare [IP]",
                               "[EMAIL] stays one token"]


def test_embedding_kmeans_assignment_matches_brute(tmp_path):
    from elasticsearch_data_loader_ray.pipelines.catalog import (
        KMEANS_K,
        q_embedding_kmeans,
    )

    rng = np.random.default_rng(3)
    n, d = 200, 16
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array([0] * n, pa.int32()),
    })
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    got = q_embedding_kmeans(str(tmp_path)).to_pandas()
    got = got.sort_values("vec_id").reset_index(drop=True)
    c = vecs[:KMEANS_K].astype(np.float64)
    x = vecs.astype(np.float64)
    want = ((x[:, None, :] - c[None, :, :]) ** 2).sum(-1).argmin(1)
    assert got["cluster"].to_numpy().tolist() == want.tolist()
    # the first k vectors are their own centroids
    assert got["cluster"].iloc[:KMEANS_K].tolist() == list(range(KMEANS_K))
