"""Benchmark entry point.

    python3 perfbench/run.py --workload {serve,churn} --seed N \\
        --seconds S --trace {0,1}

Runs one workload in a fresh child process (``perfbench/workloads.py``)
with a private run directory under ``.perfbench_work/`` at the repository
root, waits for it (killing it and anything it started if it overruns),
and prints two lines: a JSON object with the run conditions (host steal,
CPU counts, Ray version, sample counts, cache-fit facts, failures), then
the result, always last:

    {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, and the spans of the run
are written to ``.perfbench_work/traces/``. Inputs and oracle results are
cached per seed under ``.perfbench_work/cache/``. It exits non-zero without
printing a result when the run could not produce one, e.g. when the
``elasticsearch_data_loader_ray`` package is not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
PACKAGE = "elasticsearch_data_loader_ray"
CHILD_TIMEOUT_S = 160
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<timestamp>_<pid>/sockets/<name>, up to ~65 bytes below the
# temp root, so a deeper checkout uses Ray's default temp root instead.
RAY_TEMP_MAX_LEN = 40


def _session_pids(sid: int) -> list[int]:
    """Running processes in session ``sid`` (the child and what it
    started)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        state, _ppid, _pgrp, psid = stat.rsplit(")", 1)[1].split()[:4]
        if int(psid) == sid and state != "Z":  # a zombie has already ended
            pids.append(int(name))
    return pids


def _stop_session(sid: int) -> None:
    """SIGKILL every process left in ``sid`` and wait until all are gone."""
    deadline = time.monotonic() + 10
    while True:
        pids = [p for p in _session_pids(sid) if p != os.getpid()]
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} outlived the run")
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("serve", "churn"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"{PACKAGE} not found under {ROOT}", file=sys.stderr)
        return 2
    tag = f"{a.workload}-s{a.seed}-t{a.trace}"
    run_dir = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    cache_dir = os.path.join(WORK, "cache")
    trace_dir = os.path.join(WORK, "traces")
    for d in (run_dir, cache_dir, trace_dir):
        os.makedirs(d, exist_ok=True)
    ray_tmp = os.path.join(WORK, "ray")
    if len(ray_tmp) > RAY_TEMP_MAX_LEN:
        ray_tmp = None
    out = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "child.log")
    env = dict(os.environ)
    # Ray workers import the package: they inherit PYTHONPATH from here
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, *filter(None, [os.environ.get("PYTHONPATH")])])
    cmd = [sys.executable, "-m", "perfbench.workloads",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", run_dir, "--cache-dir", cache_dir, "--out", out,
           "--trace-file", os.path.join(trace_dir, f"{tag}.json")]
    if ray_tmp:
        cmd += ["--ray-temp-dir", ray_tmp]
    # a SIGTERM to this process unwinds through the finally below, so the
    # child's processes are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rc = None
    with open(log_path, "w") as log:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                 stderr=subprocess.STDOUT,
                                 start_new_session=True)
        try:
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run exceeded {CHILD_TIMEOUT_S}s; stopped",
                  file=sys.stderr)
        finally:
            _stop_session(child.pid)
            child.wait()
    result = None
    if rc == 0 and os.path.exists(out):
        with open(out) as f:
            result = json.load(f)
    if result is None:
        with open(log_path, errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"run failed (exit {rc}); log kept at {log_path}",
              file=sys.stderr)
        return 1
    shutil.rmtree(run_dir, ignore_errors=True)
    cond = result["conditions"]
    cond["failed_op_share"] = result["failed"] / max(1, result["attempted"])
    cond["errors"] = result["errors"]
    print(json.dumps({"conditions": cond}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
