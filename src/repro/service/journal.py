"""Crash-safe queue journal: durable record of admitted cache-miss work.

The coalescing queue holds admitted work in memory; a node that dies
mid-sweep would silently forget every item that had been admitted but not
yet delivered.  :class:`QueueJournal` closes that gap with an append-only
JSONL file, ``<cache dir>/manifests/queue.journal``:

- ``{"op": "admit", "key": ..., "spec": ..., "config": ...}`` is
  appended (write + flush + fsync) the moment the queue admits a
  cache-miss item — the spec and config travel in their canonical JSON
  forms so the record alone can reconstruct the work.
- ``{"op": "done", "key": ...}`` is appended when the item is delivered
  (successfully or with an execution error — either way the queue is
  finished with it).

On restart, :meth:`replay` folds the log: admits without a matching done
are *orphans*.  The server checks each orphan against the result cache —
a key already present was completed before the crash (which hit between
the cache write and the journal append) and is **not** recomputed; the
rest are re-enqueued through the normal admission path.  That gives the
service the runner's zero-recompute guarantee: a killed node recomputes
zero completed configs.

Crash-safety model: appends are single ``write`` calls of one ``\\n``-
terminated line, so the only possible damage is a torn *final* line,
which replay tolerates (unparsable lines are skipped).  Compaction —
dropping the matched admit/done pairs — rewrites the file through the
result cache's :func:`~repro.runtime.cache.atomic_write` (a temp file
private to the writer, then ``os.replace``).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.runtime.cache import atomic_write

__all__ = ["QueueJournal", "JOURNAL_FILENAME", "JOURNAL_VERSION",
           "MANIFEST_DIRNAME"]

JOURNAL_VERSION = 1
JOURNAL_FILENAME = "queue.journal"
#: Directory under the cache root that holds the journal; the name is
#: kept so journals written by earlier releases still replay.
MANIFEST_DIRNAME = "manifests"


class QueueJournal:
    """Append-only admit/done log for one node's sweep queue.

    Parameters
    ----------
    path:
        Journal file location (created on first append).
    compact_every:
        Rewrite the file with only live (admitted, not done) records
        after this many ``done`` appends, bounding growth on long-lived
        nodes.
    """

    def __init__(self, path, compact_every: int = 512):
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.path = Path(path)
        self.compact_every = compact_every
        self._lock = threading.Lock()
        self._handle = None
        self._live: dict = {}  # key -> admit record (not yet done)
        self._dones = 0  # done records since the last compaction

    # ------------------------------------------------------------------
    # Replay (startup)
    # ------------------------------------------------------------------
    def replay(self) -> list:
        """Fold the on-disk log into the list of orphaned admit records.

        Each record is the original admit document (``key``, ``spec``,
        ``config`` in canonical form).  Unparsable lines — at most the
        torn tail of a crashed append — are skipped.  Call before the
        first append; the file itself is untouched (use :meth:`reset`
        once the orphans have been re-admitted or resolved).
        """
        try:
            text = self.path.read_text()
        except OSError:
            return []
        orphans: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail line from a crashed append
            if not isinstance(record, dict):
                continue
            key = record.get("key")
            if not isinstance(key, str) or not key:
                continue
            op = record.get("op")
            if op == "admit":
                orphans[key] = record
            elif op == "done":
                orphans.pop(key, None)
        return list(orphans.values())

    def reset(self) -> None:
        """Atomically truncate the journal (post-replay, pre-re-admission)."""
        with self._lock:
            self._close_handle()
            self._live.clear()
            self._dones = 0
            if self.path.exists():
                atomic_write(self.path, b"")

    # ------------------------------------------------------------------
    # Appends (queue guard sites)
    # ------------------------------------------------------------------
    def admit(self, key: str, spec_doc: dict, config_doc: dict) -> None:
        """Record one admitted cache-miss item (durable before return)."""
        record = {
            "v": JOURNAL_VERSION,
            "op": "admit",
            "key": key,
            "spec": spec_doc,
            "config": config_doc,
        }
        with self._lock:
            self._live[key] = record
            self._append(record)

    def done(self, key: str) -> None:
        """Record one delivered item; compacts periodically."""
        with self._lock:
            self._live.pop(key, None)
            self._append({"v": JOURNAL_VERSION, "op": "done", "key": key})
            self._dones += 1
            if self._dones >= self.compact_every:
                self._compact()

    def close(self) -> None:
        with self._lock:
            self._close_handle()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        """Admitted-but-undelivered record count (queue snapshot)."""
        with self._lock:
            return len(self._live)

    # ------------------------------------------------------------------
    # Internals (call with self._lock held)
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _compact(self) -> None:
        """Rewrite with only live records (atomic), then resume appending."""
        self._close_handle()
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self._live.values()
        ]
        atomic_write(self.path,
                     "".join(line + "\n" for line in lines).encode())
        self._dones = 0

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
