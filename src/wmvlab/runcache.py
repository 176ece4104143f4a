"""Run records, the on-disk result cache, and CSV emission.

Cache layout: one compact JSON file per group of records computed together,
{"checksum":C,"payload":{"keys":K,"records":[[run_id, value, err_est,
wall_seconds, exact, converged], ...]}}, named by the sha256 of K, the
group's canonical (op, params) key list.  C is the sha256 of the payload's
text as stored, and a lookup checks C and K on that text before it parses
the records once, so corruption is detected, never silently swallowed.  A
manifest records the digest algorithm and the engine version whose results
the directory holds; a directory from another engine version is refused,
because its floats may differ in the last bits from what this engine
computes, and so is one that holds records but no manifest.  The first store
makes the directory and the manifest.  Writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

CSV_HEADER = ["run_id", "op", "X", "s", "Q", "k", "alpha",
              "value", "err_est", "exact", "wall_seconds"]

# Bump whenever any engine's results can change, even in the last bit.
# 2: torus-grid rows folded by symmetry (float summation order changed).
# 3: eval_f and the fourth-moment identity sum kernel terms with math.fsum
#    (stored bound_values and lemma22_check floats can move in the last bits).
# 4: grid row sums are added with math.fsum instead of a pairwise tree (grid
#    and restricted floats can move in the last bits).
# 5: the cache layout changed to one file per record group; no engine value
#    changed, but version-4 directories hold one file per record.
# 6: the doubling ladder starts on the band-limited grid of the next even
#    moment (odd grid-sweep and restricted-sweep floats move in the last
#    bits, and odd err_est changes).
# 7: the ladder keeps Mbeta for even s and steps odd s by 3/2 then 4/3
#    (odd grid-sweep values and err_est move at about 1e-12, restricted-sweep
#    values in their last bits).
# 8: unmasked odd ladders start at 3/4 of the start grid and masked even ones
#    read their start level off the doubled grid (odd grid-sweep values move
#    within tol, about 1e-10 for I9, and their err_est changes;
#    restricted-sweep err_est moves in its last bits, its values do not).
# 9: every grid folds by the mod-6 shifts, masked sums included, and odd
#    ladders step by 4/3 only where 9 | Malpha (odd grid-sweep values move
#    within tol, about 1e-10 for I9, and their spec and err_est change;
#    restricted-sweep values move in their last bits, odd s within tol).
# 10: minor-arc masks act on the Fourier side, through the major-arc
#    kernel K_Q(m) (restricted-sweep values move by up to about 1e-3
#    relative, even s become exact with err_est 0; grid-sweep is unchanged).
# 11: exact even grids are the least whose sides 6 divides, not powers of
#    two (even grid-sweep and restricted-sweep values move in their last
#    bits; odd ones are unchanged).
# 12: a cache file checksums its payload text, which holds the key text once
#    and each record's converged flag (no engine value changed).
ENGINE_VERSION = 12

_MANIFEST = {"digest_algorithm": "sha256", "engine_version": ENGINE_VERSION,
             "layout": "one-group-per-file", "version": 1}

Key = Tuple[str, Dict[str, object]]  # (op, params) of one record


class CacheCorruption(RuntimeError):
    """A cache file failed its checksum or holds another group's records;
    reported, never ignored."""


class CacheVersionMismatch(RuntimeError):
    """A cache directory from another engine version; refused, never replayed."""


@dataclass(frozen=True)
class RunRecord:
    """One experiment result.  value is a decimal string (exact integer counts
    round-trip losslessly, floats use repr); converged is a ladder's, else None."""

    run_id: str
    op: str
    params: Dict[str, object]
    value: str
    err_est: Optional[float]
    wall_seconds: float
    exact: Optional[bool] = None
    converged: Optional[bool] = None


def new_run_id() -> str:
    return os.urandom(6).hex()


def _canon(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def cache_key(keys: Sequence[Key]) -> str:
    """A group's file name: the digest of its (op, params) keys in order."""
    return hashlib.sha256(_canon(list(keys))).hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class ResultCache:
    """The cache in directory `root`.  Constructing one writes nothing, so
    ResultCache(root).lookup(keys) only reads.  A directory whose manifest
    names another engine version or none, or one that holds records but no
    manifest, raises CacheVersionMismatch and is left untouched."""

    def __init__(self, root: str):
        self.root = root
        manifest = os.path.join(root, "manifest.json")
        self._stamped = os.path.exists(manifest)
        if self._stamped:
            with open(manifest) as fh:
                found = json.load(fh).get("engine_version", "missing")
            if found != ENGINE_VERSION:
                raise CacheVersionMismatch(
                    f"cache directory {root} holds results of engine version {found}, "
                    f"not the current {ENGINE_VERSION}; use a fresh --cache-dir")
        elif os.path.isdir(root) and any(n.endswith(".json") for n in os.listdir(root)):
            raise CacheVersionMismatch(
                f"cache directory {root} holds records but no manifest, so "
                f"their engine version is unknown; use a fresh --cache-dir")

    def lookup(self, keys: Sequence[Key]) -> Optional[List[RunRecord]]:
        """The stored group with exactly these (op, params) keys, in key
        order, else None.  Raises CacheCorruption on a file out of layout,
        a checksum mismatch, another group's keys or malformed records."""
        key_text = _canon(list(keys))
        path = os.path.join(self.root, hashlib.sha256(key_text).hexdigest() + ".json")
        try:
            with open(path, "rb") as fh:
                found = re.fullmatch(rb'\{"checksum":"([0-9a-f]{64})","payload":(.*)\}',
                                     fh.read(), re.S)
        except FileNotFoundError:
            return None
        if found is None:
            raise CacheCorruption(f"cache file {path} missing payload or checksum")
        checksum, payload = found.groups()
        if hashlib.sha256(payload).hexdigest().encode() != checksum:
            raise CacheCorruption(f"checksum mismatch in cache file {path}")
        head = b'{"keys":' + key_text + b',"records":'
        if not payload.startswith(head):
            raise CacheCorruption(f"cache file {path} holds another group's records")
        try:
            return [RunRecord(run_id, op, params, *fields) for (op, params), (run_id, *fields)
                    in zip(keys, json.loads(payload[len(head):-1]), strict=True)]
        except (TypeError, ValueError) as exc:
            raise CacheCorruption(f"malformed records in cache file {path}: {exc}") from exc

    def store(self, records: Sequence[RunRecord]) -> None:
        """Write one group as one file; the first store stamps the manifest."""
        if not self._stamped:
            os.makedirs(self.root, exist_ok=True)
            _atomic_write(os.path.join(self.root, "manifest.json"),
                          (json.dumps(_MANIFEST, indent=2) + "\n").encode())
            self._stamped = True
        key_text = _canon([(r.op, r.params) for r in records])
        payload = b'{"keys":%b,"records":%b}' % (key_text, _canon(
            [[r.run_id, r.value, r.err_est, r.wall_seconds, r.exact, r.converged]
             for r in records]))
        _atomic_write(os.path.join(self.root, hashlib.sha256(key_text).hexdigest() + ".json"),
                      b'{"checksum":"%b","payload":%b}'
                      % (hashlib.sha256(payload).hexdigest().encode(), payload))


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
