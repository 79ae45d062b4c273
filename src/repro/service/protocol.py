"""Request/response vocabulary of the sweep service.

One request names an application experiment and a set of imprecise-hardware
configurations; the response carries, per configuration, exactly the
content-addressed cache entry document a warm read would serve (minus the
volatile ``compute_seconds`` timing) — so answers are bit-identical across
instances, across warm/cold paths, and across repeats, and a client can
verify payload integrity from the embedded output checksum.

Configurations are expressed in any of the three vocabularies every other
surface already speaks (all may be combined in one request):

- ``configs``: ``{name: canonical-document}`` —
  :meth:`repro.core.IHWConfig.canonical` round-trip, the lossless form;
- ``config_specs``: ``{name: "add,mul"}`` — the CLI shorthand of
  :func:`repro.core.parse_config_spec` (``all``/``precise``/unit lists);
- ``family``: a named sweep grid from :func:`repro.core.config_family`
  (``units``/``threshold``/``multiplier``).

See ``docs/SERVICE.md`` for the full schema and examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core import IHWConfig, config_family, parse_config_spec
from repro.runtime import ExperimentSpec

__all__ = [
    "DEFAULT_METRICS",
    "ProtocolError",
    "SweepRequest",
    "canonical_json",
    "sanitize_document",
]

#: Per-application default quality metric (everything else defaults to
#: ``mae``), matching ``repro sweep``.
DEFAULT_METRICS = {"raytracing": "ssim"}


class ProtocolError(ValueError):
    """A malformed or over-limit request; ``status`` is the HTTP answer."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def sanitize_document(doc: dict) -> dict:
    """A response-ready copy of a cache entry document.

    Drops ``compute_seconds`` — the only volatile field — so the same
    result serialized by any instance, warm or cold, is byte-identical.
    """
    return {k: v for k, v in doc.items() if k != "compute_seconds"}


def canonical_json(doc) -> str:
    """The one serialization responses use (sorted keys, no whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /v1/sweep`` body."""

    spec: ExperimentSpec
    configs: dict = field(default_factory=dict)  # name -> IHWConfig

    @classmethod
    def from_document(cls, doc, max_configs: int = 0) -> "SweepRequest":
        """Parse and validate a request document (raises ProtocolError).

        ``max_configs`` > 0 bounds the per-request configuration count
        (the backpressure contract's 413 limit).
        """
        if not isinstance(doc, dict):
            raise ProtocolError("request body must be a JSON object")
        known = {
            "app", "metric", "params", "dtype", "seed", "configs",
            "config_specs", "family", "threshold",
        }
        unknown = set(doc) - known
        if unknown:
            raise ProtocolError(f"unknown request fields: {sorted(unknown)}")

        app = doc.get("app")
        if not isinstance(app, str) or not app:
            raise ProtocolError("request must name an 'app'")
        metric = doc.get("metric", DEFAULT_METRICS.get(app, "mae"))
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        try:
            spec = ExperimentSpec.create(
                app, metric=metric,
                dtype=doc.get("dtype", "float32"),
                seed=int(doc.get("seed", 0)),
                **params,
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None

        threshold = doc.get("threshold")
        configs = cls._parse_configs(doc, threshold)
        if not configs:
            raise ProtocolError(
                "request names no configurations; supply 'configs', "
                "'config_specs', or 'family'"
            )
        if max_configs and len(configs) > max_configs:
            raise ProtocolError(
                f"request names {len(configs)} configurations; this "
                f"instance accepts at most {max_configs} per request",
                status=413,
            )
        return cls(spec=spec, configs=configs)

    @staticmethod
    def _parse_configs(doc, threshold) -> dict:
        from repro.core.adder import DEFAULT_THRESHOLD

        th = DEFAULT_THRESHOLD if threshold is None else int(threshold)
        configs: dict = {}

        family = doc.get("family")
        if family is not None:
            try:
                configs.update(config_family(family, th))
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None

        specs = doc.get("config_specs", {})
        if not isinstance(specs, dict):
            raise ProtocolError("'config_specs' must be an object of "
                                "{name: spec-string}")
        for name, text in specs.items():
            if not isinstance(text, str):
                raise ProtocolError(f"config spec {name!r} must be a string")
            try:
                configs[str(name)] = parse_config_spec(text, th)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"bad config spec {name!r}: {exc}") from None

        canonicals = doc.get("configs", {})
        if not isinstance(canonicals, dict):
            raise ProtocolError("'configs' must be an object of "
                                "{name: canonical-document}")
        for name, body in canonicals.items():
            if not isinstance(body, dict):
                raise ProtocolError(f"config {name!r} must be an object")
            try:
                configs[str(name)] = IHWConfig.from_canonical(body)
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"bad config {name!r}: {exc}") from None
        return configs

    def describe(self) -> str:
        return (f"{self.spec.describe()} over "
                f"{len(self.configs)} config(s)")
