"""The end-to-end power-quality tradeoff framework (Figure 10).

:class:`PowerQualityFramework` wires the pieces together for one
application: run the precise reference, run the imprecise configuration,
score the output with the application-specific quality metric, derive the
FPU/SFU power shares from the GPUWattch-style model, and estimate the
system-level power savings with the Figure-12 algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import telemetry
from repro.core import IHWConfig
from repro.gpu import (
    FERMI_GTX480,
    GPUConfig,
    GPUPowerModel,
    PowerBreakdown,
    SavingsReport,
    estimate_system_savings,
)
from repro.hardware import HardwareLibrary

__all__ = ["Evaluation", "PowerQualityFramework"]


@dataclass(frozen=True)
class Evaluation:
    """One configuration's quality and power outcome."""

    config: IHWConfig
    quality: float
    savings: SavingsReport
    breakdown: PowerBreakdown
    output: object

    def summary(self) -> str:
        return (
            f"{self.savings.name}: quality={self.quality:.4g}  "
            f"system savings={self.savings.system_savings:.2%}  "
            f"arith savings={self.savings.arithmetic_savings:.2%}  "
            f"(config: {self.config.describe()})"
        )


class PowerQualityFramework:
    """Evaluate IHW configurations for one application.

    Parameters
    ----------
    run_app:
        ``run_app(config_or_None) -> AppResult``; ``None`` must produce the
        precise reference execution.
    quality_metric:
        ``quality_metric(imprecise_output, reference_output) -> float``.
    gpu_config, power_model, library:
        Machine, power, and hardware-metric models (defaults: Fermi
        GTX480-like, calibrated energies, paper 45 nm library).
    spec:
        Optional :class:`~repro.runtime.ExperimentSpec` this framework was
        built from.  Required for parallel/cached ``evaluate_many``: the
        spec is what crosses process boundaries and addresses the cache.
        Prefer :meth:`from_spec` over passing it by hand.
    """

    def __init__(
        self,
        run_app: Callable,
        quality_metric: Callable,
        gpu_config: GPUConfig = FERMI_GTX480,
        power_model: GPUPowerModel | None = None,
        library: HardwareLibrary | None = None,
        spec=None,
    ):
        self._run_app = run_app
        self._quality = quality_metric
        self._gpu_config = gpu_config
        self._power_model = power_model or GPUPowerModel(config=gpu_config)
        self._library = library or HardwareLibrary.paper_45nm()
        self._reference = None
        self._reference_breakdown = None
        self.spec = spec

    @classmethod
    def from_spec(cls, spec, **kwargs) -> "PowerQualityFramework":
        """Build from an :class:`~repro.runtime.ExperimentSpec`.

        Frameworks built this way can hand ``evaluate_many`` an
        :class:`~repro.runtime.ExperimentRunner` for parallel, cached
        sweeps.
        """
        return spec.framework(**kwargs)

    @property
    def reference(self):
        """The precise reference execution (computed once, cached)."""
        if self._reference is None:
            with telemetry.span("kernel", role="reference"):
                self._reference = self._run_app(None)
            self._reference_breakdown = self._power_model.breakdown(
                self._reference.counters
            )
        return self._reference

    @property
    def reference_breakdown(self) -> PowerBreakdown:
        """Component power of the precise execution (Figure-2 data)."""
        _ = self.reference
        return self._reference_breakdown

    def evaluate(self, config: IHWConfig) -> Evaluation:
        """Run one imprecise configuration and report quality + savings."""
        app = self.spec.app if self.spec is not None else None
        with telemetry.span("experiment", app=app, config=config.describe()):
            start = time.perf_counter()
            reference = self.reference
            with telemetry.span("kernel", role="candidate"):
                result = self._run_app(config)
            quality = float(self._quality(result.output, reference.output))
            breakdown = self.reference_breakdown
            savings = estimate_system_savings(
                result.counters,
                config,
                fpu_share=breakdown.fpu_share,
                sfu_share=breakdown.sfu_share,
                library=self._library,
                clock_ghz=self._gpu_config.clock_ghz,
            )
            telemetry.counter_inc(
                "repro_experiments_total", **({"app": app} if app else {})
            )
            telemetry.histogram_observe(
                "repro_experiment_seconds", time.perf_counter() - start,
                **({"app": app} if app else {}),
            )
        return Evaluation(
            config=config,
            quality=quality,
            savings=savings,
            breakdown=breakdown,
            output=result.output,
        )

    def evaluate_many(self, configs: dict, runner=None, client=None) -> dict:
        """Evaluate a named set of configurations (insertion-ordered).

        With ``runner=None`` every configuration is evaluated here,
        sequentially.  Passing an :class:`~repro.runtime.ExperimentRunner`
        routes the sweep through the shared parallel + cached execution
        path; passing a :class:`~repro.service.ServiceClient` as
        ``client`` delegates to a sweep-service instance instead (its
        warm cache and coalescing queue), fetching the full validated
        evaluations back through the instance's cache peer surface.
        Both remote paths require the framework to have been built from
        a spec (:meth:`from_spec`), since closures cannot cross
        processes.
        """
        if runner is not None and client is not None:
            raise ValueError("pass either runner= or client=, not both")
        if runner is None and client is None:
            return {name: self.evaluate(cfg) for name, cfg in configs.items()}
        if self.spec is None:
            raise ValueError(
                "parallel evaluation needs a spec-built framework; "
                "construct it with PowerQualityFramework.from_spec(...)"
            )
        if client is not None:
            names = list(configs)
            evaluations = client.evaluate_many(self.spec,
                                               list(configs.values()))
            return dict(zip(names, evaluations))
        return runner.sweep(self.spec, configs)

    def sweep(self, configs: dict, runner=None) -> dict:
        """Alias of :meth:`evaluate_many` (the historical name)."""
        return self.evaluate_many(configs, runner=runner)

    def quality_evaluator(self) -> Callable:
        """An ``evaluate(config) -> quality`` closure for the tuning loop."""
        return lambda config: self.evaluate(config).quality
