"""ES-style snapshot / restore for segment indexes.

ES snapshots are INCREMENTAL at the segment-file level: a repository
stores immutable blobs once, and each snapshot's manifest references
the blobs it needs, so re-snapshotting an index whose segments mostly
didn't change copies only the new files. This module reproduces that
with a content-addressed repository:

```
repo/
  blobs/<md5>                  # file contents, stored once
  snapshots/<name>.json        # manifest: [(relpath, size, md5)], atomic
```

What is snapshotted: the index's AUTHORITATIVE state — ``stats.json``,
``manifests/``, ``docs/``, ``terms/``, ``term_stats/``, the corpus and
generation corpora, ``plan.json``, tombstones. Derived caches
(``docvalues/`` and the ``doclen/`` doc-length and doc-value memmaps)
are excluded: they rebuild on demand and would bloat the repo (same
reasoning as ES not snapshotting field-data caches).

Hashing + blob upload run as one Ray Data pass over the file list
(``map_batches`` tasks), so a 10k-segment snapshot parallelizes; the
manifest write is the atomic commit point (temp + rename), and a crash
mid-snapshot leaves only unreferenced blobs (swept by ``delete``'s GC).

Reference parity: the reference deletes + full-reloads its index
(run-elastic-search.sh); ES itself provides _snapshot — this is the
engine-side equivalent the north rule's resumability story extends to.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import pyarrow as pa
import ray.data as rd

from .manifest import write_json_atomic

# derived, rebuild-on-demand state that must NOT be snapshotted
_EXCLUDE_DIRS = {"docvalues", "doclen"}


def _index_files(index_dir: str) -> list[str]:
    out: list[str] = []
    for root, dirs, files in os.walk(index_dir):
        rel_root = os.path.relpath(root, index_dir)
        top = rel_root.split(os.sep)[0]
        if top in _EXCLUDE_DIRS:
            dirs[:] = []
            continue
        for f in files:
            if f.endswith(".tmp"):
                continue
            out.append(os.path.normpath(os.path.join(rel_root, f)))
    return sorted(out)


def _md5_file(path: str) -> str:
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def snapshot_index(index_dir: str, repo: str, name: str,
                   concurrency: int | None = None) -> dict:
    """Snapshot ``index_dir`` into ``repo`` as ``name``. Returns the
    manifest. Incremental: blobs already in the repo are not re-copied
    (checked by content hash)."""
    blobs = os.path.join(repo, "blobs")
    snaps = os.path.join(repo, "snapshots")
    os.makedirs(blobs, exist_ok=True)
    os.makedirs(snaps, exist_ok=True)
    mpath = os.path.join(snaps, f"{name}.json")
    if os.path.exists(mpath):
        raise ValueError(f"snapshot {name!r} already exists in {repo}")
    files = _index_files(index_dir)

    def upload(t: pa.Table) -> pa.Table:
        rels, md5s, sizes, reused = [], [], [], []
        for rel in t["rel"].to_pylist():
            src = os.path.join(index_dir, rel)
            h = _md5_file(src)
            dst = os.path.join(blobs, h)
            was = os.path.exists(dst)
            if not was:
                fd, tmp = tempfile.mkstemp(dir=blobs, suffix=".tmp")
                os.close(fd)
                shutil.copyfile(src, tmp)
                os.replace(tmp, dst)  # atomic, content-addressed
            rels.append(rel)
            md5s.append(h)
            sizes.append(os.path.getsize(src))
            reused.append(was)
        return pa.table({"rel": pa.array(rels, pa.string()),
                         "md5": pa.array(md5s, pa.string()),
                         "size": pa.array(sizes, pa.int64()),
                         "reused": pa.array(reused, pa.bool_())})

    done = (rd.from_items([{"rel": r} for r in files])
            .map_batches(upload, batch_format="pyarrow", batch_size=64,
                         concurrency=concurrency)
            .to_pandas())
    manifest = {
        "name": name,
        "files": [{"rel": r, "md5": m, "size": int(s)}
                  for r, m, s in zip(done["rel"], done["md5"],
                                     done["size"])],
        "n_files": int(len(done)),
        "n_new_blobs": int((~done["reused"]).sum()),
        "total_bytes": int(done["size"].sum()),
    }
    write_json_atomic(mpath, manifest)  # atomic commit point
    return manifest


def list_snapshots(repo: str) -> list[str]:
    d = os.path.join(repo, "snapshots")
    if not os.path.isdir(d):
        return []
    return sorted(f[:-5] for f in os.listdir(d) if f.endswith(".json"))


def restore_index(repo: str, name: str, dest_dir: str,
                  concurrency: int | None = None) -> dict:
    """Restore snapshot ``name`` into ``dest_dir`` (must not exist or be
    empty). Every blob is re-hashed on the way out — a corrupt repo
    fails loudly instead of serving wrong postings."""
    mpath = os.path.join(repo, "snapshots", f"{name}.json")
    with open(mpath) as f:
        manifest = json.load(f)
    if os.path.exists(dest_dir) and os.listdir(dest_dir):
        raise ValueError(f"restore target {dest_dir} is not empty")
    os.makedirs(dest_dir, exist_ok=True)
    blobs = os.path.join(repo, "blobs")

    def download(t: pa.Table) -> pa.Table:
        oks = []
        for rel, md5 in zip(t["rel"].to_pylist(), t["md5"].to_pylist()):
            src = os.path.join(blobs, md5)
            if _md5_file(src) != md5:
                raise IOError(f"snapshot blob {md5} corrupt (for {rel})")
            dst = os.path.join(dest_dir, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            tmp = dst + ".tmp"
            shutil.copyfile(src, tmp)
            os.replace(tmp, dst)
            oks.append(rel)
        return pa.table({"rel": pa.array(oks, pa.string())})

    n = (rd.from_items([{"rel": f["rel"], "md5": f["md5"]}
                        for f in manifest["files"]])
         .map_batches(download, batch_format="pyarrow", batch_size=64,
                      concurrency=concurrency)
         .count())
    if n != manifest["n_files"]:
        raise IOError(f"restore incomplete: {n}/{manifest['n_files']}")
    return manifest


def delete_snapshot(repo: str, name: str) -> int:
    """Delete a snapshot manifest and GC blobs no other snapshot
    references. Returns the number of blobs removed."""
    mpath = os.path.join(repo, "snapshots", f"{name}.json")
    with open(mpath) as f:
        manifest = json.load(f)
    os.unlink(mpath)
    live: set[str] = set()
    for other in list_snapshots(repo):
        with open(os.path.join(repo, "snapshots", f"{other}.json")) as f:
            live.update(x["md5"] for x in json.load(f)["files"])
    removed = 0
    for x in manifest["files"]:
        if x["md5"] not in live:
            p = os.path.join(repo, "blobs", x["md5"])
            if os.path.exists(p):
                os.unlink(p)
                removed += 1
    return removed
