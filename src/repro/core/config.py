"""Configuration of which imprecise hardware units are enabled.

The evaluation framework (Figure 10) enables or disables each imprecise
unit individually and exposes the tunable structural parameters: the
adder threshold ``TH``, and the configurable multiplier's datapath and
truncation.  :class:`IHWConfig` captures one such configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .adder import DEFAULT_THRESHOLD
from .backends import backend_names
from .configurable import MultiplierConfig

__all__ = [
    "IHWConfig",
    "UNIT_NAMES",
    "MULTIPLIER_MODES",
    "SFU_MODES",
    "parse_config_spec",
    "config_family",
    "CONFIG_FAMILIES",
]

#: Families :func:`config_family` can expand (the ``repro sweep``
#: ``--family`` choices and the sweep-service grid names).
CONFIG_FAMILIES = ("units", "threshold", "multiplier")

#: Individually switchable imprecise units.
UNIT_NAMES = ("add", "mul", "div", "rcp", "rsqrt", "sqrt", "log2", "fma")

#: Selectable implementations of the imprecise multiplier:
#: - ``table1``: the 1+Ma+Mb multiplier of Table 1 (25% eps_max),
#: - ``mitchell``: the accuracy-configurable Mitchell multiplier
#:   (``multiplier_config`` selects path and truncation),
#: - ``truncated``: the intuitive bit-truncation baseline ``bt_N``
#:   (``multiplier_truncation`` selects N).
MULTIPLIER_MODES = ("table1", "mitchell", "truncated")

#: Approximation order of the imprecise special function units.
SFU_MODES = ("linear", "quadratic")


@dataclass(frozen=True)
class IHWConfig:
    """One point in the imprecise hardware configuration space.

    Attributes
    ----------
    enabled:
        The set of unit names (from :data:`UNIT_NAMES`) replaced by their
        imprecise implementation; everything else stays IEEE-precise.
    adder_threshold:
        Structural parameter ``TH`` of the imprecise adder.
    multiplier_mode:
        Which imprecise multiplier implements the ``mul`` unit
        (see :data:`MULTIPLIER_MODES`).
    multiplier_config:
        Path/truncation of the Mitchell multiplier (``mitchell`` mode).
    multiplier_truncation:
        Truncated bits of the ``bt_N`` baseline (``truncated`` mode).
    multiplier_bt_rounding:
        Whether the ``bt_N`` baseline rounds (variable-correction style) or
        plainly truncates the operand reduction.  The paper's "intuitive bit
        truncation" is plain truncation (default False), whose systematic
        bias is what makes the baseline degrade abruptly in the application
        studies.
    sfu_mode:
        Approximation order of the imprecise SFUs: ``"linear"`` (Table 1,
        default) or ``"quadratic"`` (the higher-accuracy extension point).
    backend:
        Compute backend executing the unit operations (``"reference"``,
        ``"fused"`` or ``"threaded"``), or ``None`` to defer to the
        ``REPRO_BACKEND`` environment variable.
        Backends are contractually bit-identical, so this is a pure
        execution-speed knob: it does not participate in :meth:`canonical`
        or :meth:`cache_key`, and cached results are shared across
        backends.
    backend_threads:
        Thread count for the ``threaded`` backend, or ``None`` to defer to
        the resolution chain in :mod:`repro.core.backends.threads` (worker
        pin, ``REPRO_THREADS``, CPU count).  Like ``backend``, it cannot
        change results and is excluded from the cache key.
    """

    enabled: frozenset = field(default_factory=frozenset)
    adder_threshold: int = DEFAULT_THRESHOLD
    multiplier_mode: str = "table1"
    multiplier_config: MultiplierConfig = field(default_factory=MultiplierConfig)
    multiplier_truncation: int = 0
    multiplier_bt_rounding: bool = False
    sfu_mode: str = "linear"
    backend: str | None = None
    backend_threads: int | None = None

    #: Fields deliberately excluded from :meth:`canonical` / :meth:`cache_key`.
    #: ``backend`` and ``backend_threads`` never change results
    #: (parity-enforced bit equality), so keying on them would only
    #: fragment the cache.
    _CACHE_KEY_EXEMPT = ("backend", "backend_threads")

    def __post_init__(self):
        enabled = frozenset(self.enabled)
        unknown = enabled - set(UNIT_NAMES)
        if unknown:
            raise ValueError(f"unknown unit names: {sorted(unknown)}")
        object.__setattr__(self, "enabled", enabled)
        if self.multiplier_mode not in MULTIPLIER_MODES:
            raise ValueError(
                f"multiplier_mode must be one of {MULTIPLIER_MODES}, "
                f"got {self.multiplier_mode!r}"
            )
        if self.sfu_mode not in SFU_MODES:
            raise ValueError(
                f"sfu_mode must be one of {SFU_MODES}, got {self.sfu_mode!r}"
            )
        if self.backend is not None and self.backend not in backend_names():
            raise ValueError(
                f"backend must be one of {backend_names()} or None, "
                f"got {self.backend!r}"
            )
        if self.backend_threads is not None and self.backend_threads < 1:
            raise ValueError(
                f"backend_threads must be >= 1 or None, "
                f"got {self.backend_threads!r}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def precise(cls) -> "IHWConfig":
        """The reference configuration: every unit IEEE-precise."""
        return cls()

    @classmethod
    def all_imprecise(cls, adder_threshold: int = DEFAULT_THRESHOLD) -> "IHWConfig":
        """All Table-1 units enabled (the HotSpot / SRAD study setting)."""
        return cls(enabled=frozenset(UNIT_NAMES), adder_threshold=adder_threshold)

    @classmethod
    def units(cls, *names: str, **kwargs) -> "IHWConfig":
        """Enable just the named units, e.g. ``IHWConfig.units("rcp", "add", "sqrt")``."""
        return cls(enabled=frozenset(names), **kwargs)

    @classmethod
    def from_canonical(cls, doc: dict) -> "IHWConfig":
        """Reconstruct a configuration from its :meth:`canonical` document.

        The inverse of :meth:`canonical` — round-trips exactly, including
        the cache key — used wherever configurations cross a serialization
        boundary (cached entry documents, sweep-service requests).  Raises
        :class:`ValueError`/:class:`KeyError`/:class:`TypeError` on
        malformed documents; callers at trust boundaries should catch all
        three.
        """
        known = {
            "enabled", "adder_threshold", "multiplier_mode",
            "multiplier_path", "multiplier_path_truncation",
            "multiplier_bt_truncation", "multiplier_bt_rounding", "sfu_mode",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(
            enabled=frozenset(doc.get("enabled", ())),
            adder_threshold=int(doc.get("adder_threshold", DEFAULT_THRESHOLD)),
            multiplier_mode=doc.get("multiplier_mode", "table1"),
            multiplier_config=MultiplierConfig(
                path=doc.get("multiplier_path", "full"),
                truncation=int(doc.get("multiplier_path_truncation", 0)),
            ),
            multiplier_truncation=int(doc.get("multiplier_bt_truncation", 0)),
            multiplier_bt_rounding=bool(doc.get("multiplier_bt_rounding", False)),
            sfu_mode=doc.get("sfu_mode", "linear"),
        )

    # ------------------------------------------------------------------
    # Queries and functional updates
    # ------------------------------------------------------------------
    def is_enabled(self, unit: str) -> bool:
        """Whether ``unit`` runs on imprecise hardware in this configuration."""
        if unit not in UNIT_NAMES:
            raise ValueError(f"unknown unit name: {unit!r}")
        return unit in self.enabled

    def with_units(self, *names: str) -> "IHWConfig":
        """A copy with the named units additionally enabled."""
        return dataclasses.replace(self, enabled=self.enabled | set(names))

    def without_units(self, *names: str) -> "IHWConfig":
        """A copy with the named units disabled (quality-tuning step)."""
        return dataclasses.replace(self, enabled=self.enabled - set(names))

    def with_multiplier(self, mode: str, **kwargs) -> "IHWConfig":
        """A copy using multiplier ``mode`` and enabling the ``mul`` unit.

        Keyword arguments: ``config`` (:class:`MultiplierConfig` or a
        paper-style name such as ``"fp_tr0"``) for ``mitchell`` mode,
        ``truncation`` for ``truncated`` mode.
        """
        updates = {"multiplier_mode": mode, "enabled": self.enabled | {"mul"}}
        if "config" in kwargs:
            cfg = kwargs.pop("config")
            if isinstance(cfg, str):
                cfg = MultiplierConfig.from_name(cfg)
            updates["multiplier_config"] = cfg
        if "truncation" in kwargs:
            updates["multiplier_truncation"] = kwargs.pop("truncation")
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        return dataclasses.replace(self, **updates)

    def with_sfu_mode(self, mode: str) -> "IHWConfig":
        """A copy using the given SFU approximation order."""
        return dataclasses.replace(self, sfu_mode=mode)

    def with_backend(self, name: str | None,
                     threads: int | None = None) -> "IHWConfig":
        """A copy pinned to the given compute backend (``None`` = default)."""
        return dataclasses.replace(self, backend=name,
                                   backend_threads=threads)

    def canonical(self) -> dict:
        """Order-independent JSON-able form covering every switch.

        Two configurations produce the same document iff they compare
        equal; this is what :meth:`cache_key` hashes and what the result
        cache stores for debugging.
        """
        return {
            "enabled": sorted(self.enabled),
            "adder_threshold": int(self.adder_threshold),
            "multiplier_mode": self.multiplier_mode,
            "multiplier_path": self.multiplier_config.path,
            "multiplier_path_truncation": int(self.multiplier_config.truncation),
            "multiplier_bt_truncation": int(self.multiplier_truncation),
            "multiplier_bt_rounding": bool(self.multiplier_bt_rounding),
            "sfu_mode": self.sfu_mode,
        }

    def cache_key(self) -> str:
        """Stable content hash of the configuration (hex SHA-256).

        The key is derived from :meth:`canonical`, so it is independent of
        unit-name ordering and construction path: equal configurations
        always agree and distinct configurations never collide (up to
        SHA-256).  Used by :mod:`repro.runtime` to address cached results.
        """
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def batch_signature(self) -> tuple:
        """Hashable identity of the datapaths a configuration runs.

        Configurations with equal signatures differ only in *structural
        parameters* — the adder threshold and the multiplier's
        path/truncation/rounding.  The unit switches, SFU mode, and
        multiplier mode select *which* datapath runs.  The runner's
        signature-group cache ledger keys on this.
        """
        return (
            tuple(sorted(self.enabled)),
            self.multiplier_mode,
            self.sfu_mode,
        )

    def describe(self) -> str:
        """Human-readable summary, e.g. for experiment logs."""
        if not self.enabled:
            return "precise"
        parts = [",".join(sorted(self.enabled))]
        if self.sfu_mode != "linear" and self.enabled & {
            "rcp", "rsqrt", "sqrt", "log2", "div"
        }:
            parts.append(f"sfu={self.sfu_mode}")
        if "add" in self.enabled or "fma" in self.enabled:
            parts.append(f"TH={self.adder_threshold}")
        if "mul" in self.enabled or "fma" in self.enabled:
            if self.multiplier_mode == "mitchell":
                parts.append(self.multiplier_config.name)
            elif self.multiplier_mode == "truncated":
                parts.append(f"bt_{self.multiplier_truncation}")
            else:
                parts.append("table1")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.backend_threads is not None:
            parts.append(f"threads={self.backend_threads}")
        return " ".join(parts)


def parse_config_spec(spec: str, threshold: int = DEFAULT_THRESHOLD,
                      multiplier: str | None = None,
                      sfu_mode: str = "linear") -> IHWConfig:
    """Build a configuration from the CLI/service shorthand.

    ``spec`` is ``"all"``, ``"precise"``, or a comma-separated unit list
    (``"add,mul"``); ``multiplier`` optionally selects ``bt_N`` (truncated)
    or a Mitchell configuration name such as ``"lp_tr8"``.  Shared by
    ``repro run``/``repro sweep``/``repro call`` and the sweep-service
    request parser, so every surface accepts the same vocabulary.
    """
    if spec == "all":
        config = IHWConfig.all_imprecise(adder_threshold=threshold)
    elif spec == "precise":
        config = IHWConfig.precise()
    else:
        units = tuple(u.strip() for u in spec.split(",") if u.strip())
        config = IHWConfig.units(*units, adder_threshold=threshold)
    if multiplier:
        if multiplier.startswith("bt_"):
            config = config.with_multiplier(
                "truncated", truncation=int(multiplier[3:])
            )
        else:
            config = config.with_multiplier("mitchell", config=multiplier)
    if sfu_mode != "linear":
        config = config.with_sfu_mode(sfu_mode)
    return config


def config_family(family: str, threshold: int = DEFAULT_THRESHOLD) -> dict:
    """Expand a named sweep family into ``{name: IHWConfig}``.

    Families (see :data:`CONFIG_FAMILIES`): ``units`` (precise + each unit
    solo + all), ``threshold`` (all-imprecise across TH), ``multiplier``
    (Mitchell paths/truncations + ``bt_N`` baselines).  Used by ``repro
    sweep --family`` and sweep-service grid requests.
    """
    if family == "units":
        configs = {"precise": IHWConfig.precise()}
        configs.update(
            {u: IHWConfig.units(u, adder_threshold=threshold)
             for u in UNIT_NAMES}
        )
        configs["all"] = IHWConfig.all_imprecise(adder_threshold=threshold)
        return configs
    if family == "threshold":
        return {
            f"th{th}": IHWConfig.all_imprecise(adder_threshold=th)
            for th in (2, 4, 6, 8, 10, 12)
        }
    if family == "multiplier":
        base = IHWConfig.units("mul")
        configs = {}
        for name in ("fp_tr0", "fp_tr8", "fp_tr16",
                     "lp_tr0", "lp_tr8", "lp_tr16"):
            configs[name] = base.with_multiplier("mitchell", config=name)
        for tr in (8, 16):
            configs[f"bt_{tr}"] = base.with_multiplier("truncated",
                                                       truncation=tr)
        return configs
    raise ValueError(
        f"unknown family {family!r}; expected one of {CONFIG_FAMILIES}"
    )

