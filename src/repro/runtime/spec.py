"""Picklable experiment specifications.

A :class:`PowerQualityFramework` is built from closures, which cannot
cross a process boundary.  :class:`ExperimentSpec` is the picklable
equivalent: it *names* an application and a quality metric from small
registries and carries the kernel parameters as plain values, so a worker
process can reconstruct the exact framework, and so the result cache can
derive a stable content address from the experiment identity alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module

__all__ = ["ExperimentSpec", "APP_RUNNERS", "METRIC_NAMES"]

#: Application registry: spec name -> (module, run function attribute).
#: Every entry follows the apps contract ``run(config_or_None, **params)``.
APP_RUNNERS = {
    "hotspot": ("repro.apps.hotspot", "run"),
    "srad": ("repro.apps.srad", "run"),
    "raytracing": ("repro.apps.raytrace", "run"),
    "cp": ("repro.apps.cp", "run"),
    "dct": ("repro.apps.dct", "run"),
    "blackscholes": ("repro.apps.blackscholes", "run"),
}

#: Quality metric registry (resolved lazily from :mod:`repro.quality`).
METRIC_NAMES = ("mae", "mse", "rmse", "psnr", "ssim")

_SCALAR_TYPES = (bool, int, float, str)


def _resolve_metric(name: str):
    from repro import quality

    if name == "ssim":
        # The framework convention for images normalized to [0, 1].
        return lambda out, ref: quality.ssim(out, ref, data_range=1.0)
    return getattr(quality, name)


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one application experiment (everything but the config).

    Attributes
    ----------
    app:
        Application name from :data:`APP_RUNNERS`.
    metric:
        Quality metric name from :data:`METRIC_NAMES`.
    params:
        Kernel parameters as a sorted tuple of ``(key, value)`` pairs of
        JSON-able scalars — part of the cache key, passed verbatim to the
        app's ``run``.  Build specs through :meth:`create`, which sorts
        and validates.
    dtype:
        Operand dtype label ("float32" for the GPU studies); part of the
        cache key.
    seed:
        Input-generation seed label; part of the cache key.  Apps with a
        ``seed`` kernel parameter take it through ``params``.
    """

    app: str
    metric: str
    params: tuple = field(default_factory=tuple)
    dtype: str = "float32"
    seed: int = 0

    @classmethod
    def create(cls, app: str, metric: str, dtype: str = "float32",
               seed: int = 0, **params) -> "ExperimentSpec":
        """Validated constructor: ``ExperimentSpec.create("hotspot", "mae", rows=64)``."""
        if app not in APP_RUNNERS:
            raise ValueError(
                f"unknown app {app!r}; expected one of {sorted(APP_RUNNERS)}"
            )
        if metric not in METRIC_NAMES:
            raise ValueError(
                f"unknown metric {metric!r}; expected one of {sorted(METRIC_NAMES)}"
            )
        for key, value in params.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise TypeError(
                    f"param {key}={value!r} is not a plain scalar; specs must "
                    "be content-addressable (and picklable)"
                )
        return cls(
            app=app,
            metric=metric,
            params=tuple(sorted(params.items())),
            dtype=dtype,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def params_dict(self) -> dict:
        return dict(self.params)

    def canonical(self) -> dict:
        """JSON-able identity document (combined with the config's by the cache)."""
        return {
            "app": self.app,
            "metric": self.metric,
            "params": [[k, v] for k, v in self.params],
            "dtype": self.dtype,
            "seed": self.seed,
        }

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.app}({params}) metric={self.metric}"

    # ------------------------------------------------------------------
    # Reconstruction (parent process or worker)
    # ------------------------------------------------------------------
    def run_app(self, config):
        """Execute the application (``config=None`` -> precise reference)."""
        module_name, attr = APP_RUNNERS[self.app]
        run = getattr(import_module(module_name), attr)
        return run(config, **self.params_dict())

    def quality_metric(self):
        return _resolve_metric(self.metric)

    def framework(self, **kwargs):
        """The :class:`~repro.framework.PowerQualityFramework` this spec names."""
        from repro.framework import PowerQualityFramework

        return PowerQualityFramework(
            run_app=self.run_app,
            quality_metric=self.quality_metric(),
            spec=self,
            **kwargs,
        )
