"""The committed correctness table and the checks against it.

``digests.json`` holds, for every (app, params, metric, config) a workload
evaluates, the sha256 of the output array, the quality and the system
savings, and for every characterization the sha256 of its PMF (bins and
probabilities).  Floats are stored as ``repr`` strings and compared
exactly: the reference backend is deterministic, so any difference is a
changed result.

Regenerate (only when a result is meant to change) with
``python3 e2ebench/run.py --record-digests``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DEFAULT_PATH = Path(__file__).with_name("digests.json")


def app_key(spec, config_canonical: dict) -> str:
    """Table key of one evaluation; the spec's seed label is left out."""
    doc = {"app": spec.app, "params": [list(p) for p in spec.params],
           "metric": spec.metric, "dtype": spec.dtype,
           "config": config_canonical}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:24]


def characterize_key(label: str, n_samples: int, seed: int) -> str:
    return f"{label}|n={n_samples}|seed={seed}"


def array_sha256(output) -> str:
    return hashlib.sha256(np.ascontiguousarray(output).tobytes()).hexdigest()


def pmf_sha256(pmf) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(pmf.bins).tobytes())
    digest.update(np.ascontiguousarray(pmf.probabilities).tobytes())
    return digest.hexdigest()


def evaluation_record(evaluation) -> dict:
    return {"sha256": array_sha256(evaluation.output),
            "quality": repr(float(evaluation.quality)),
            "system_savings": repr(float(evaluation.savings.system_savings))}


def document_record(doc: dict) -> dict:
    """The same record read from a cache-entry document (service reply)."""
    return {"sha256": doc["output"]["sha256"],
            "quality": repr(float(doc["quality"])),
            "system_savings": repr(float(doc["savings"]["system_savings"]))}


class DigestTable:
    """Loaded table; each ``check_*`` returns True when the result matches."""

    def __init__(self, path: Path = DEFAULT_PATH):
        doc = json.loads(Path(path).read_text())
        self.apps = doc["apps"]
        self.characterize = doc["characterize"]

    def _matches(self, spec, config_canonical: dict, record: dict) -> bool:
        expected = self.apps.get(app_key(spec, config_canonical))
        return expected is not None and all(
            expected[field] == value for field, value in record.items())

    def check_evaluation(self, spec, config, evaluation) -> bool:
        return self._matches(spec, config.canonical(),
                             evaluation_record(evaluation))

    def check_document(self, spec, doc: dict) -> bool:
        return self._matches(spec, doc["config"], document_record(doc))

    def check_pmf(self, pmf, n_samples: int, seed: int) -> bool:
        key = characterize_key(pmf.label, n_samples, seed)
        return self.characterize.get(key) == pmf_sha256(pmf)
