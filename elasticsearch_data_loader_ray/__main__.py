"""CLI — the run-elastic-search.sh orchestration analogue (S7).

Commands:

  python -m elasticsearch_data_loader_ray build  INPUT INDEX_DIR [--wipe] [--docs-per-segment N]
  python -m elasticsearch_data_loader_ray append INPUT INDEX_DIR [--docs-per-segment N]
  python -m elasticsearch_data_loader_ray search INDEX_DIR QUERY [-k K] [--field F] [--mode or|and]
  python -m elasticsearch_data_loader_ray stats  INDEX_DIR
  python -m elasticsearch_data_loader_ray compact INDEX_DIR [--max-segments N]

``append`` goes beyond the reference (whose only refresh story is a full
reload): new documents land as a fresh segment generation, re-ingested urls
upsert (old doc tombstoned), and a serving ``LocalSearcher`` picks the
commit up on its next query. ``build`` and ``append`` both merge down to
``merge.MAX_SEGMENTS`` segments when their commit leaves more; ``compact``
merges further by hand.

The reference wraps its loader in a shell script that optionally deletes and
re-creates the index before exec-ing the Go binary
(``/root/reference/run-elastic-search.sh:84-133``); ``build --wipe`` is the
delete+create, plain ``build`` resumes from committed segment manifests.
This CLI owns the Ray session (library code never calls ``ray.init``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="elasticsearch_data_loader_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("input")
    b.add_argument("index_dir")
    b.add_argument("--wipe", action="store_true",
                   help="delete the index dir first (full reload, S7 STEP 1)")
    b.add_argument("--docs-per-segment", type=int, default=None)
    b.add_argument("--format", default="parquet",
                   choices=["parquet", "json", "jsonl", "csv"])

    ap = sub.add_parser("append")
    ap.add_argument("input")
    ap.add_argument("index_dir")
    ap.add_argument("--docs-per-segment", type=int, default=None)

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--field", default="text")
    s.add_argument("--mode", default="or", choices=["or", "and"])

    st = sub.add_parser("stats")
    st.add_argument("index_dir")

    cp = sub.add_parser("compact")
    cp.add_argument("index_dir")
    cp.add_argument("--max-segments", type=int, default=8,
                    help="merge adjacent runs until at most N segments "
                         "remain (cold-query fan-out bound)")

    sn = sub.add_parser("snapshot",
                        help="snapshot an index into a content-addressed "
                             "repo (incremental at the file level)")
    sn.add_argument("index_dir")
    sn.add_argument("repo")
    sn.add_argument("name")

    rs = sub.add_parser("restore",
                        help="restore a snapshot into a fresh index dir "
                             "(every blob checksum-verified)")
    rs.add_argument("repo")
    rs.add_argument("name")
    rs.add_argument("dest_dir")

    dq = sub.add_parser("delete-by-query")
    dq.add_argument("index_dir")
    dq.add_argument("query")
    dq.add_argument("--field", default=None)
    dq.add_argument("--mode", default="or", choices=["or", "and"])

    args = p.parse_args(argv)

    if args.cmd == "stats":
        from .index import manifest as mf

        print(json.dumps(mf.read_json(f"{args.index_dir}/stats.json"), indent=1))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    try:
        if args.cmd == "build":
            from .index.build import BuildConfig, build_index, build_index_from_corpus
            from .sources.webtext import read_webtext
            from .stages.extract import extract_batch

            if args.wipe:
                shutil.rmtree(args.index_dir, ignore_errors=True)
            cfg = BuildConfig(docs_per_segment=args.docs_per_segment)
            if args.format == "parquet":
                stats = build_index(args.input, args.index_dir, cfg)
            else:
                corpus = read_webtext(args.input, format=args.format).map_batches(
                    extract_batch, batch_format="pyarrow")
                stats = build_index_from_corpus(corpus, args.index_dir, cfg)
            print(json.dumps({k: stats[k] for k in
                              ("n_docs", "n_segments", "n_postings",
                               "n_duplicates", "rejects", "phase_secs")}))
        elif args.cmd == "append":
            from .index.append import append_index
            from .index.build import BuildConfig

            stats = append_index(args.input, args.index_dir,
                                 BuildConfig(
                                     docs_per_segment=args.docs_per_segment))
            print(json.dumps({k: stats.get(k) for k in
                              ("n_docs", "n_segments", "n_postings",
                               "n_deleted", "generations", "phase_secs")}))
        elif args.cmd == "compact":
            from .index import manifest as mf
            from .index.merge import compact_to

            before = len(mf.committed_segments(args.index_dir))
            survivors = compact_to(args.index_dir, args.max_segments)
            print(json.dumps({"segments_before": before,
                              "segments_after": len(survivors)}))
        elif args.cmd == "snapshot":
            from .index.snapshot import snapshot_index

            m = snapshot_index(args.index_dir, args.repo, args.name)
            print(json.dumps({k: m[k] for k in
                              ("name", "n_files", "n_new_blobs",
                               "total_bytes")}))
        elif args.cmd == "restore":
            from .index.snapshot import restore_index

            m = restore_index(args.repo, args.name, args.dest_dir)
            print(json.dumps({"name": m["name"],
                              "n_files": m["n_files"]}))
        elif args.cmd == "delete-by-query":
            from .index.append import delete_by_query

            n = delete_by_query(args.index_dir, args.query,
                                field=args.field, mode=args.mode)
            print(json.dumps({"deleted": n}))
        elif args.cmd == "search":
            from .index.search import LocalSearcher

            searcher = LocalSearcher(args.index_dir)
            ids, scores = searcher.search(args.query, args.k, args.field,
                                          args.mode)
            for r, (d, sc) in enumerate(zip(ids, scores), start=1):
                print(json.dumps({"rank": r, "doc_id": int(d),
                                  "score": round(float(sc), 6)}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
