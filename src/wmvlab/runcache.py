"""Run records, the on-disk result cache, and CSV emission.

Cache layout: one JSON file per record under the cache directory, named by
the sha256 of the canonical (op, params) serialization; each file embeds a
checksum of its own payload so corruption is detected, never silently
swallowed.  A manifest records the digest algorithm and the engine version
whose results the directory holds; a directory from another engine version
is refused, because its floats may differ in the last bits from what this
engine computes, and so is one that holds records but no manifest.  Writes
go through a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

CSV_HEADER = ["run_id", "op", "X", "s", "Q", "k", "alpha",
              "value", "err_est", "exact", "wall_seconds"]

# Bump whenever any engine's results can change, even in the last bit.
# 2: torus-grid rows folded by symmetry (float summation order changed).
# 3: eval_f and the fourth-moment identity sum kernel terms with math.fsum
#    (stored bound_values and lemma22_check floats can move in the last bits).
# 4: grid row sums are added with math.fsum instead of a pairwise tree (grid
#    and restricted floats can move in the last bits).
ENGINE_VERSION = 4

_MANIFEST = {"digest_algorithm": "sha256", "engine_version": ENGINE_VERSION,
             "layout": "one-record-per-file", "version": 1}


class CacheCorruption(RuntimeError):
    """A cache file failed its checksum; reported, never ignored."""


class CacheVersionMismatch(RuntimeError):
    """A cache directory from another engine version; refused, never replayed."""


@dataclass(frozen=True)
class RunRecord:
    """One experiment result.  value is a decimal string: exact integer
    counts round-trip losslessly, floats use repr."""

    run_id: str
    op: str
    params: Dict[str, object]
    value: str
    err_est: Optional[float]
    wall_seconds: float
    exact: Optional[bool] = None


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def cache_key(op: str, params: Dict[str, object]) -> str:
    canon = json.dumps({"op": op, "params": params},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _record_path(root: str, op: str, params: Dict[str, object]) -> str:
    return os.path.join(root, cache_key(op, params) + ".json")


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _check_version(root: str) -> bool:
    """Whether root has a manifest; raises CacheVersionMismatch when that
    manifest names another engine version or none."""
    manifest = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest):
        return False
    with open(manifest) as fh:
        found = json.load(fh).get("engine_version", "missing")
    if found != ENGINE_VERSION:
        raise CacheVersionMismatch(
            f"cache directory {root} holds results of engine version {found}, "
            f"not the current {ENGINE_VERSION}; use a fresh --cache-dir")
    return True


def _read_record(path: str) -> Optional[RunRecord]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CacheCorruption(f"unreadable cache file {path}: {exc}") from exc
    payload = blob.get("payload")
    checksum = blob.get("checksum")
    if payload is None or checksum is None:
        raise CacheCorruption(f"cache file {path} missing payload or checksum")
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canon.encode()).hexdigest() != checksum:
        raise CacheCorruption(f"checksum mismatch in cache file {path}")
    return RunRecord(
        run_id=payload["run_id"], op=payload["op"], params=payload["params"],
        value=payload["value"], err_est=payload["err_est"],
        wall_seconds=payload["wall_seconds"], exact=payload.get("exact"))


class ResultCache:
    """The cache in directory `root`, made if missing.  A directory with no
    manifest is stamped with the current one only if it holds no records;
    with records it raises CacheVersionMismatch and is left untouched."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        if not _check_version(root):
            if any(name.endswith(".json") for name in os.listdir(root)):
                raise CacheVersionMismatch(
                    f"cache directory {root} holds records but no manifest, so "
                    f"their engine version is unknown; use a fresh --cache-dir")
            _atomic_write(os.path.join(root, "manifest.json"),
                          json.dumps(_MANIFEST, indent=2) + "\n")

    def lookup(self, op: str, params: Dict[str, object]) -> Optional[RunRecord]:
        """The stored record for exactly these (op, canonical params), else
        None.  Raises CacheCorruption on checksum mismatch."""
        return _read_record(_record_path(self.root, op, params))

    def store(self, record: RunRecord) -> None:
        payload = {
            "run_id": record.run_id, "op": record.op, "params": record.params,
            "value": record.value, "err_est": record.err_est,
            "wall_seconds": record.wall_seconds, "exact": record.exact,
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        blob = {"payload": payload,
                "checksum": hashlib.sha256(canon.encode()).hexdigest()}
        _atomic_write(_record_path(self.root, record.op, record.params),
                      json.dumps(blob, sort_keys=True))


def cache_lookup(op: str, params: Dict[str, object],
                 cache_dir: str) -> Optional[RunRecord]:
    """ResultCache.lookup for a directory path, without writing to it: a
    directory with no manifest holds no records and is left as it is, and
    one from another engine version raises CacheVersionMismatch."""
    if not os.path.isdir(cache_dir) or not _check_version(cache_dir):
        return None
    return _read_record(_record_path(cache_dir, op, params))


def _csv_row(record: RunRecord) -> List[str]:
    p = record.params

    def col(key: str) -> str:
        v = p.get(key, "")
        return "" if v is None else str(v)

    err = "" if record.err_est is None else repr(float(record.err_est))
    exact = "" if record.exact is None else ("true" if record.exact else "false")
    return [record.run_id, record.op, col("X"), col("s"), col("Q"), col("k"),
            col("alpha"), record.value, err, exact,
            format(record.wall_seconds, ".6f")]


def append_records(path: str, records: Sequence[RunRecord]) -> None:
    """Append rows to the CSV, writing the fixed header first on a fresh or
    empty file.  Single-writer discipline is the caller's job."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(_csv_row(rec))
