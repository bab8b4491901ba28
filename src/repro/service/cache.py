"""Disk-backed first-stage artifact and result cache with a JSON index.

One entry per logical job (see :func:`repro.service.keys.job_key`): the
lean first-stage artifact (fitted ``g_nor`` proposal + verified starting
point; Gibbs methods only) and the final estimate's scalars and
convergence trace, with the shard grid it was drawn on.  Per-shard
weights are not stored here: the job's shard ledgers under
``<root>/ledgers`` hold them, and the runner extends those
(:mod:`repro.service.runner`).

Each entry is two files: ``<key>.json`` holds the scalars and the object
structure, ``<key>.npz`` every array.  Objects are rebuilt only from an
allowlist of classes, and numpy's default ``.npz`` loader refuses object
arrays, so reading the cache never executes code.  The human-auditable
``index.json`` carries per-entry metadata (problem, method, seed, sample
counts, hit tallies).

Format safety is loud, never silent: every persisted object is stamped
with :data:`repro.mc.results.SCHEMA_VERSION`, and any mismatch — index
written by a different format, unreadable JSON or ``.npz``, an ``.npz``
that is not the one its JSON names (SHA-256), a version-skewed object or
a class outside the allowlist — raises :class:`CacheSchemaError` naming
the offending file instead of mis-deserialising.  Writes are atomic (tmp
file + ``os.replace``; the ``.npz`` first, the JSON that names it last)
and the cache is thread-safe, since scheduler workers share one instance.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.gibbs.starting_point import StartingPoint
from repro.gibbs.two_stage import FirstStageArtifact
from repro.mc.diagnostics import ChainDiagnostics
from repro.mc.results import SCHEMA_VERSION, ConvergenceTrace, EstimationResult
from repro.stats.mixture import GaussianMixture
from repro.stats.mvnormal import MultivariateNormal


class CacheSchemaError(RuntimeError):
    """A persisted cache object does not match this build's format."""


@dataclass
class CacheEntry:
    """Everything persisted for one logical job.

    Attributes
    ----------
    key:
        The entry's content key (see :func:`repro.service.keys.job_key`).
    config:
        The canonical identity fields the key was hashed from — stored
        for human audit, so an index entry can be traced back to a
        request without reversing the hash.
    result:
        The final estimate: scalars, scalar extras and trace only.
    shard_size:
        The shard grid ``result`` was drawn on; a request is covered by
        ``result`` only on the same grid.
    artifact:
        Lean first-stage artifact (Gibbs methods only): the fitted
        proposal and verified starting point a warm run re-uses with
        zero first-stage simulations.
    """

    key: str
    config: dict
    result: EstimationResult
    shard_size: int
    artifact: Optional[FirstStageArtifact] = None
    schema_version: int = field(default=SCHEMA_VERSION)


#: The only classes an entry may contain, rebuilt from their attributes.
_CLASSES = {
    cls.__name__: cls
    for cls in (
        CacheEntry, EstimationResult, ConvergenceTrace, FirstStageArtifact,
        StartingPoint, ChainDiagnostics, MultivariateNormal, GaussianMixture,
    )
}


def _encode(value, arrays: dict, name: str):
    """JSON form of ``value``; its arrays move into ``arrays`` by name.

    Objects are stored as their attribute dicts, in attribute order, and
    rebuilt without running their constructors: ``GaussianMixture``
    re-normalises its weights on construction, which would move their
    bits — and with them the IS ledger key (a fingerprint of the
    proposal's bytes) and every importance weight.
    """
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        arrays[name] = value
        return {"__array__": name}
    if isinstance(value, np.generic):
        return value.item()
    if _CLASSES.get(type(value).__name__) is type(value):
        return {
            "__class__": type(value).__name__,
            "state": _encode(vars(value), arrays, name),
        }
    if isinstance(value, dict):
        return {
            str(k): _encode(v, arrays, f"{name}.{k}") for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_encode(v, arrays, f"{name}.{i}") for i, v in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cache entries hold arrays, scalars and {sorted(_CLASSES)}; "
        f"got {type(value).__name__} at {name}"
    )


def _decode(node, arrays: dict):
    """Inverse of :func:`_encode`; unknown classes raise ``KeyError``."""
    if isinstance(node, list):
        return [_decode(v, arrays) for v in node]
    if not isinstance(node, dict):
        return node
    if "__array__" in node:
        return arrays[node["__array__"]]
    if "__class__" in node:
        cls = _CLASSES[node["__class__"]]
        obj = cls.__new__(cls)
        vars(obj).update(_decode(node["state"], arrays))
        return obj
    return {k: _decode(v, arrays) for k, v in node.items()}


class ArtifactCache:
    """Thread-safe disk cache: ``index.json``, then JSON + ``.npz`` per key."""

    INDEX_NAME = "index.json"

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Process-lifetime counters (persisted tallies live in the index).
        self.hits = 0
        self.misses = 0
        self.refinements = 0
        self._index = self._load_index()

    # ------------------------------------------------------------ files
    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _load_index(self) -> Dict[str, dict]:
        if not self.index_path.exists():
            return {}
        try:
            payload = json.loads(self.index_path.read_text())
        except (OSError, ValueError) as exc:
            raise CacheSchemaError(
                f"cache index {self.index_path} is unreadable: {exc}; "
                f"delete the cache directory to rebuild"
            ) from exc
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CacheSchemaError(
                f"cache index {self.index_path} has schema_version "
                f"{version!r}, this build persists {SCHEMA_VERSION}; "
                f"refusing to reuse a foreign format (delete the cache "
                f"directory to rebuild)"
            )
        return payload.get("entries", {})

    def _write_index(self) -> None:
        payload = {"schema_version": SCHEMA_VERSION, "entries": self._index}
        self._atomic_write(
            self.index_path, json.dumps(payload, indent=1, sort_keys=True)
        )

    @staticmethod
    def _atomic_write(path: Path, data) -> None:
        tmp = path.with_name(path.name + ".tmp")
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)

    @staticmethod
    def _load_entry(path: Path) -> CacheEntry:
        """Read one entry; missing files raise ``FileNotFoundError``."""
        document = json.loads(path.read_text())
        blob = path.with_suffix(".npz").read_bytes()
        if hashlib.sha256(blob).hexdigest() != document["npz_sha256"]:
            raise ValueError(f"{path.with_suffix('.npz').name} is not the "
                             f"array file this entry was written with")
        with np.load(io.BytesIO(blob)) as npz:
            arrays = {name: npz[name] for name in npz.files}
        entry = _decode(document["entry"], arrays)
        if not isinstance(entry, CacheEntry):
            raise ValueError(f"holds a {type(entry).__name__}, not an entry")
        versions = {entry.schema_version, entry.result.schema_version}
        if entry.artifact is not None:
            versions.add(entry.artifact.schema_version)
        if versions != {SCHEMA_VERSION}:
            raise CacheSchemaError(
                f"cache entry {path} has schema_version {sorted(versions)}, "
                f"this build persists {SCHEMA_VERSION}; refusing to reuse "
                f"a foreign format (delete it to rebuild)"
            )
        return entry

    # -------------------------------------------------------------- api
    def get(self, key: str) -> Optional[CacheEntry]:
        """Load an entry, or ``None`` on a miss.  Mismatched formats raise."""
        with self._lock:
            meta = self._index.get(key)
            if meta is None:
                self.misses += 1
                return None
            path = self._entry_path(key)
            try:
                entry = self._load_entry(path)
            except FileNotFoundError:
                # Index/payload drift (e.g. a crashed put): treat as a
                # miss and drop the dangling row.
                del self._index[key]
                self._write_index()
                self.misses += 1
                return None
            except CacheSchemaError:
                raise
            except Exception as exc:
                raise CacheSchemaError(
                    f"cache entry {path} failed to load ({exc}); it was "
                    f"likely written by a different format — delete it "
                    f"(or the cache directory) to rebuild"
                ) from exc
            self.hits += 1
            meta["hits"] = int(meta.get("hits", 0)) + 1
            meta["last_hit_at"] = time.time()
            self._write_index()
            return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        """Persist an entry atomically and index it."""
        with self._lock:
            path = self._entry_path(key)
            arrays: dict = {}
            document = _encode(entry, arrays, "entry")
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            blob = buffer.getvalue()
            self._atomic_write(path.with_suffix(".npz"), blob)
            self._atomic_write(path, json.dumps({
                "npz_sha256": hashlib.sha256(blob).hexdigest(),
                "entry": document,
            }))
            existing = self._index.get(key, {})
            result = entry.result
            self._index[key] = {
                "problem": entry.config.get("problem"),
                "method": entry.config.get("method"),
                "corner": entry.config.get("corner"),
                "seed": entry.config.get("seed"),
                "n_second_stage": int(result.n_second_stage),
                "n_first_stage_paid": int(
                    getattr(entry.artifact, "n_first_stage", result.n_first_stage)
                ),
                "file": path.name,
                "created_at": existing.get("created_at", time.time()),
                "updated_at": time.time(),
                "hits": int(existing.get("hits", 0)),
                "refinements": int(existing.get("refinements", 0)),
            }
            self._write_index()

    def note_refinement(self, key: str) -> None:
        """Tally a shard-extension refinement against an entry."""
        with self._lock:
            self.refinements += 1
            meta = self._index.get(key)
            if meta is not None:
                meta["refinements"] = int(meta.get("refinements", 0)) + 1
                self._write_index()

    def stats(self) -> dict:
        """Process-lifetime counters plus the persistent entry count."""
        with self._lock:
            return {
                "root": str(self.root),
                "entries": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "refinements": self.refinements,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index
