"""Content-addressed cache of power-quality evaluations.

Every cached entry is addressed by a SHA-256 over the *content* of the
experiment: the application name and parameters, the quality metric, the
dtype and seed (from :class:`~repro.runtime.spec.ExperimentSpec`), and the
canonical serialization of the :class:`~repro.core.IHWConfig`
(:meth:`~repro.core.IHWConfig.cache_key`).  Identical (app, config) pairs —
whether issued by the autotuner, a Pareto sweep, a benchmark, or a sweep
service request — therefore share one entry.

Entries live in a directory tree under one root::

    <key[:2]>/<key>.json   entry document
    <key[:2]>/<key>.npz    output array payload (when present)
    quarantine/            damaged entries moved aside, never served

Writes are crash-safe: every file lands through :func:`atomic_write`, a
temp file private to the writer and ``os.replace``, npz before json, so a
crash mid-write never leaves a half-entry that parses, and concurrent
writers of one entry never share a temp file.  Entries carry a schema
version and an output checksum; anything that fails to load, verify, or
parse is treated as a miss, **quarantined** (moved aside for
post-mortem, never deleted silently), and recomputed — never served.

The npz is written by ``np.savez_compressed`` but read without
``np.load``: the reader accepts only what ``put`` writes — one
deflated ``output.npy`` member, the zip's central directory right after
its deflate stream, and a C-order ``.npy`` header equal to the one numpy
writes for the dtype and shape the entry document records.  It refuses
a second member, a stored member, another member name, a cut stream, a
header that disagrees with the document (dtype, shape, Fortran order),
an object dtype, and a payload that fails the document's sha256.

Environment knobs:

- ``REPRO_CACHE=off`` (also ``0``/``no``/``false``): disable caching.
- ``REPRO_CACHE_DIR=<path>``: relocate the cache root.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.gpu import PowerBreakdown, SavingsReport
from repro.gpu.simulator import KernelTiming

__all__ = [
    "CacheStats",
    "ResultCache",
    "atomic_write",
    "cache_from_env",
    "cache_disabled",
    "entry_key",
    "QUARANTINE_DIRNAME",
    "STALE_TEMP_SECONDS",
]

SCHEMA_VERSION = 1
DEFAULT_CACHE_DIR = ".repro_cache"
QUARANTINE_DIRNAME = "quarantine"

#: Age after which a temp file left by a crashed writer is considered
#: stale and removed.
STALE_TEMP_SECONDS = 300.0

_EXCL_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def atomic_write(path, data: bytes) -> None:
    """Land ``data`` at ``path`` whole, through a temp file and ``os.replace``.

    The temp file is private to the writer: its name carries the pid and
    thread id and it is created ``O_EXCL`` (mode 0o666 less the umask,
    like ``open``), so concurrent writers of one path never share it and
    readers see the old file or the new one, never a mix.  It is removed
    if the write fails; a writer killed before the rename leaves it for
    :meth:`ResultCache.cleanup_stale`.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        fd = os.open(tmp, _EXCL_FLAGS, 0o666)
    except FileExistsError:
        # Only a dead writer that had this pid and thread id left it.
        tmp.unlink()
        fd = os.open(tmp, _EXCL_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def entry_key(spec, config) -> str:
    """The content address of one (experiment, configuration) result.

    Module-level so callers without a store (tests, tooling) compute
    addresses identical to the cache's.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "experiment": spec.canonical(),
        "config": config.cache_key(),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


#: The fields of a zip local file header that :func:`_read_output` checks:
#: signature, compression method, name length, extra-field length.
_ZIP_MEMBER = struct.Struct("<4s4xH16x2H")
_LOCAL_FILE = b"PK\x03\x04"
_CENTRAL_DIRECTORY = b"PK\x01\x02"
_DEFLATED = 8
_MEMBER_NAME = b"output.npy"
_NPY_V1 = b"\x93NUMPY\x01\x00"
_NPY_HEADER = "{'descr': %r, 'fortran_order': False, 'shape': %r, }"


def _read_output(npz: bytes, meta: dict) -> np.ndarray:
    """The output array of one entry's npz, checked against its document.

    ``meta`` is the document's ``output`` record (dtype, shape, sha256).
    The array is rebuilt from the inflated ``.npy`` payload and is
    writeable, like ``np.load``'s.  Anything but one deflated
    ``output.npy`` member, ending where the central directory starts,
    whose header is the one numpy writes for ``meta`` and whose payload
    matches ``meta``'s sha256, raises ``ValueError``.
    """
    signature, method, name_len, extra_len = _ZIP_MEMBER.unpack_from(npz)
    start = _ZIP_MEMBER.size + name_len
    if signature != _LOCAL_FILE or npz[_ZIP_MEMBER.size:start] != _MEMBER_NAME:
        raise ValueError("npz does not start with an output.npy member")
    if method != _DEFLATED:
        raise ValueError("npz member is not deflated")
    inflater = zlib.decompressobj(-15)
    npy = inflater.decompress(memoryview(npz)[start + extra_len:])
    # unused_data stays empty until the stream ends, so this also
    # refuses a cut stream.
    if inflater.unused_data[:4] != _CENTRAL_DIRECTORY:
        raise ValueError("npz member is cut short or not the only one")

    dtype = np.dtype(meta["dtype"])
    if dtype.hasobject or dtype.str != meta["dtype"]:
        raise ValueError(f"output dtype {meta['dtype']!r} is not plain, "
                         "canonical data")
    shape = tuple(meta["shape"])
    (header_len,) = struct.unpack_from("<H", npy, len(_NPY_V1))
    body = len(_NPY_V1) + 2 + header_len
    header = npy[len(_NPY_V1) + 2:body]
    expected = (_NPY_HEADER % (dtype.str, shape)).encode("latin1")
    if (npy[:len(_NPY_V1)] != _NPY_V1 or header[-1:] != b"\n"
            or header[:-1].rstrip(b" ") != expected):
        raise ValueError("npy header disagrees with the entry document")

    payload = memoryview(npy)[body:]
    if hashlib.sha256(payload).hexdigest() != meta["sha256"]:
        raise ValueError("output checksum mismatch")
    return np.frombuffer(bytearray(payload), dtype).reshape(shape)


_OFF_VALUES = ("off", "0", "no", "false", "disabled")


def cache_disabled() -> bool:
    """Whether the ``REPRO_CACHE`` escape hatch turns caching off."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() in _OFF_VALUES


def cache_from_env(root=None):
    """A :class:`ResultCache` honoring the environment, or None when off."""
    if cache_disabled():
        return None
    root = root or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return ResultCache(root)


@dataclass
class CacheStats:
    """Hit/miss/write accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupted / stale entries detected and dropped
    uncacheable: int = 0  # outputs the cache declined to serialize
    quarantined: int = 0  # invalid entries moved aside for post-mortem

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "hit_rate": self.hit_rate}


class ResultCache:
    """Content-addressed store of :class:`~repro.framework.Evaluation` results.

    Parameters
    ----------
    root:
        Cache directory (created on first write).
    """

    def __init__(self, root=None):
        self.root = Path(root or DEFAULT_CACHE_DIR)
        self._root = os.fspath(self.root)
        self.stats = CacheStats()

    @property
    def local_root(self) -> Path:
        """The directory root (the name tooling that reads entry files uses)."""
        return self.root

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def key(self, spec, config) -> str:
        """The content address of one (experiment, configuration) result."""
        return entry_key(spec, config)

    def _stem(self, key: str) -> str:
        """``<root>/<key[:2]>/<key>``: the entry's paths less their suffix."""
        return os.path.join(self._root, key[:2], key)

    def entry_paths(self, spec, config) -> tuple:
        """The (json, npz) paths addressing one result (tooling/tests)."""
        stem = self._stem(self.key(spec, config))
        return Path(stem + ".json"), Path(stem + ".npz")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: str) -> bytes | None:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def get(self, spec, config):
        """The cached :class:`Evaluation`, or None (miss / invalid entry)."""
        key = self.key(spec, config)
        with telemetry.span("cache.get", key=key[:12]):
            stem = self._stem(key)
            json_text = self._read(stem + ".json")
            if json_text is None:
                return self._miss()
            try:
                evaluation = self._load(json_text, stem, config)
            except Exception:
                # Corrupted or stale entry: quarantine it (not a silent
                # delete — the damaged bytes stay inspectable) and let the
                # caller recompute.
                return self._invalid(key)
            self._hit()
            return evaluation

    def document(self, spec, config) -> dict | None:
        """The parsed, config-validated entry document, or None.

        The cheap read path of the sweep service: the document carries
        quality, savings, breakdown, and output *metadata* (dtype, shape,
        checksum) without deserializing the npz payload.  Damage found at
        this level quarantines the entry just like :meth:`get`.
        """
        key = self.key(spec, config)
        json_text = self._read(self._stem(key) + ".json")
        if json_text is None:
            return self._miss()
        try:
            doc = self._parse(json_text, config)
        except Exception:
            return self._invalid(key)
        self._hit()
        return doc

    def _hit(self) -> None:
        self.stats.hits += 1
        telemetry.counter_inc("repro_cache_requests_total", outcome="hit")

    def _miss(self):
        self.stats.misses += 1
        telemetry.counter_inc("repro_cache_requests_total", outcome="miss")
        return None

    def _invalid(self, key: str):
        self._quarantine(key)
        self.stats.invalid += 1
        self.stats.misses += 1
        telemetry.counter_inc("repro_cache_requests_total", outcome="invalid")
        return None

    @staticmethod
    def _parse(json_text: bytes, config) -> dict:
        doc = json.loads(json_text)
        if doc["schema"] != SCHEMA_VERSION:
            raise ValueError(f"schema {doc['schema']} != {SCHEMA_VERSION}")
        if doc["config"] != config.canonical():
            raise ValueError("stored config does not match the request")
        return doc

    def _load(self, json_text: bytes, stem: str, config):
        # The layer map keeps framework out of runtime's module imports.
        from repro.framework import Evaluation

        doc = self._parse(json_text, config)
        out_meta = doc["output"]
        if out_meta["kind"] == "ndarray":
            npz = self._read(stem + ".npz")
            if npz is None:
                raise ValueError(
                    "entry document present but npz payload missing")
            output = _read_output(npz, out_meta)
        else:
            output = out_meta["value"]

        savings = SavingsReport(**doc["savings"])
        breakdown = PowerBreakdown(
            watts=dict(doc["breakdown"]["watts"]),
            timing=KernelTiming(**doc["breakdown"]["timing"]),
            name=doc["breakdown"]["name"],
        )
        return Evaluation(
            config=config,
            quality=float(doc["quality"]),
            savings=savings,
            breakdown=breakdown,
            output=output,
        )

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def _serialize_output(self, output):
        if isinstance(output, np.ndarray):
            array = np.ascontiguousarray(output)
            return {
                "kind": "ndarray",
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            }, array
        if isinstance(output, (bool, int, float, str)) or output is None:
            return {"kind": "json", "value": output}, None
        return None, None

    def _document(self, key, spec, config, evaluation, out_meta,
                  compute_seconds) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "key": key,
            "experiment": spec.canonical(),
            "config": config.canonical(),
            "config_describe": config.describe(),
            "quality": float(evaluation.quality),
            "savings": asdict(evaluation.savings),
            "breakdown": {
                "watts": dict(evaluation.breakdown.watts),
                "timing": asdict(evaluation.breakdown.timing),
                "name": evaluation.breakdown.name,
            },
            "output": out_meta,
            "compute_seconds": float(compute_seconds),
        }

    def put(self, spec, config, evaluation, compute_seconds: float = 0.0) -> bool:
        """Persist one evaluation; returns False for uncacheable outputs."""
        with telemetry.span("cache.put"):
            return self._put(spec, config, evaluation, compute_seconds)

    def _put(self, spec, config, evaluation, compute_seconds: float) -> bool:
        out_meta, array = self._serialize_output(evaluation.output)
        if out_meta is None:
            self.stats.uncacheable += 1
            telemetry.counter_inc("repro_cache_writes_total",
                                  outcome="uncacheable")
            return False

        key = self.key(spec, config)
        doc = self._document(key, spec, config, evaluation, out_meta,
                             compute_seconds)
        stem = self._stem(key)
        json_path, npz_path = stem + ".json", stem + ".npz"
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        # npz first, json last: the json's presence is what makes the
        # entry visible to readers.
        if array is not None:
            buffer = io.BytesIO()
            np.savez_compressed(buffer, output=array)
            atomic_write(npz_path, buffer.getvalue())
        atomic_write(json_path,
                     json.dumps(doc, sort_keys=True, indent=1).encode())
        self.stats.writes += 1
        telemetry.counter_inc("repro_cache_writes_total", outcome="stored")
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _quarantine(self, key: str) -> None:
        """Move a damaged entry's files aside instead of deleting them."""
        quarantine_dir = os.path.join(self._root, QUARANTINE_DIRNAME)
        os.makedirs(quarantine_dir, exist_ok=True)
        moved = False
        stem = self._stem(key)
        for path in (stem + ".json", stem + ".npz"):
            if not os.path.exists(path):
                continue
            try:
                os.replace(path, os.path.join(quarantine_dir,
                                              os.path.basename(path)))
                moved = True
            except OSError:
                Path(path).unlink(missing_ok=True)  # cross-device: drop instead
        if moved:
            self.stats.quarantined += 1
        telemetry.counter_inc("repro_cache_quarantined_total")

    def quarantine_count(self) -> int:
        return sum(1 for _ in (self.root / QUARANTINE_DIRNAME).glob("*.json"))

    def cleanup_stale(self, max_age_seconds: float = STALE_TEMP_SECONDS) -> int:
        """Remove temp files older than ``max_age_seconds``; returns the count.

        They are the remains of writers that died before their rename and
        are never read, so removal is always safe; the age bound spares
        the temp files of live writers.  The runner calls this once, when
        it is constructed.
        """
        removed = 0
        now = time.time()
        for path in self.root.glob("??/*.tmp"):
            try:
                if now - path.stat().st_mtime > max_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # concurrent cleanup or vanished file
        return removed

    def entry_count(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))
