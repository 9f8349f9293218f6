"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf_dir and compare against its oracle_sql() via DuckDB
(row count, column names, order-insensitive values).

Usage: python tools/check_oracles.py [--json OUT] [sf_dir] [name ...]

``--json OUT`` additionally writes a per-entry artifact (the committed
CORRECTNESS_full_rN evidence): verdict, mode (sql-oracled / rows-only),
row count and wall seconds per entry.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        try:
            return res.to_pandas()
        except TypeError:
            return res.to_pandas()
    return res


def kinds(df: pd.DataFrame) -> dict:
    """Dtype kind per column ('i' int, 'f' float, 'O' object, ...).

    The driver's value hash distinguishes int64 7 from float64 7.0 (DuckDB
    HUGEINT -> fetchdf float64 broke term_df/top_terms/doc_len_stats in r1),
    so a float-vs-int kind mismatch must FAIL here even when values compare
    equal numerically. Width differences within a kind are tolerated.
    """
    return {c: df[c].dtype.kind for c in df.columns}


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    args = sys.argv[1:]
    json_out = None
    if "--json" in args:
        i = args.index("--json")
        json_out = args[i + 1]
        del args[i:i + 2]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])
    report: dict[str, dict] = {}
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    qs, sqls = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: ray raised {type(e).__name__}: {e}")
            report[name] = {"verdict": "fail",
                            "err": f"{type(e).__name__}: {e}"}
            n_fail += 1
            continue
        secs = time.perf_counter() - t0
        if name not in sqls:
            print(f"ROWS-ONLY {name}: {len(got)} rows in {secs:.2f}s")
            report[name] = {"verdict": "rows_only", "rows": len(got),
                            "secs": round(secs, 3)}
            n_pass += 1
            continue
        try:
            want = normalize(con.sql(sqls[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle SQL raised {type(e).__name__}: {e}")
            report[name] = {"verdict": "fail",
                            "err": f"oracle: {type(e).__name__}: {e}"}
            n_fail += 1
            continue
        ok = list(got.columns) == list(want.columns) and len(got) == len(want)
        msg = ""
        if ok and kinds(got) != kinds(want):
            ok = False
            msg = (f"dtype-kind mismatch (driver hash would differ): "
                   f"got {kinds(got)} want {kinds(want)}")
        if ok:
            try:
                pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                              rtol=0, atol=0)
            except AssertionError as e:
                ok = False
                msg = str(e).splitlines()[0]
        if ok:
            print(f"PASS {name}: {len(got)} rows in {secs:.2f}s")
            report[name] = {"verdict": "pass", "rows": len(got),
                            "secs": round(secs, 3)}
            n_pass += 1
        else:
            print(f"FAIL {name}: got cols={list(got.columns)} rows={len(got)}; "
                  f"want cols={list(want.columns)} rows={len(want)}")
            if list(got.columns) == list(want.columns) and len(got) == len(want):
                print(f"  value mismatch: {msg}")
                merged = got.compare(want) if got.shape == want.shape else None
                if merged is not None and len(merged):
                    print(merged.head(5))
            report[name] = {
                "verdict": "fail", "rows": len(got),
                "got_cols": list(got.columns),
                "want_cols": list(want.columns), "detail": msg}
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    if json_out:
        import json as _json

        payload = {
            "sf_dir": sf_dir,
            "n_entries": len(report),
            "n_pass": n_pass,
            "n_fail": n_fail,
            "n_sql_oracled": sum(1 for v in report.values()
                                 if v["verdict"] == "pass"),
            "n_rows_only": sum(1 for v in report.values()
                               if v["verdict"] == "rows_only"),
            "entries": report,
        }
        with open(json_out, "w") as f:
            _json.dump(payload, f, indent=1, sort_keys=True)
        print(f"wrote {json_out}")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
