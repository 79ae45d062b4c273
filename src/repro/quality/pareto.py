"""Pareto-front utilities for the power-quality design space.

Figure 14 (and the application studies built on it) are Pareto arguments:
the Mitchell multiplier's configurations dominate intuitive truncation —
at every error level they reduce power more.  These helpers make that
structure first-class: collect (cost, quality-loss) design points, extract
the non-dominated front, and test whether one family dominates another.

Conventions: both axes are "lower is better" (power in mW or any cost, and
quality *loss* such as eps_max, MAE, or 1 - SSIM).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DesignPoint",
    "pareto_front",
    "dominates",
    "family_dominates",
    "sweep_design_points",
]


@dataclass(frozen=True)
class DesignPoint:
    """One configuration in a two-objective (cost, loss) space."""

    name: str
    cost: float
    loss: float

    def __post_init__(self):
        if self.cost < 0 or self.loss < 0:
            raise ValueError(
                f"cost and loss must be non-negative: {self.name} "
                f"({self.cost}, {self.loss})"
            )


def dominates(a: DesignPoint, b: DesignPoint, tolerance: float = 0.0) -> bool:
    """Whether ``a`` is at least as good as ``b`` on both axes and better on one.

    ``tolerance`` is an absolute slack on each axis (useful when losses are
    statistical estimates).
    """
    no_worse = a.cost <= b.cost + tolerance and a.loss <= b.loss + tolerance
    better = a.cost < b.cost - tolerance or a.loss < b.loss - tolerance
    return no_worse and better


def pareto_front(points) -> list:
    """The non-dominated subset, sorted by increasing cost.

    Ties on both axes keep the first-listed point.
    """
    points = list(points)
    if not points:
        return []
    front = []
    for candidate in points:
        if any(dominates(other, candidate) for other in points):
            continue
        if any(f.cost == candidate.cost and f.loss == candidate.loss for f in front):
            continue
        front.append(candidate)
    return sorted(front, key=lambda p: (p.cost, p.loss))


def sweep_design_points(spec, configs, runner=None, cost=None,
                        loss=None) -> list:
    """Evaluate configurations into :class:`DesignPoint`\\ s (both axes clamped at 0).

    The application sweep behind a Figure-14-style Pareto study, routed
    through the shared parallel + cached execution path.

    Parameters
    ----------
    spec:
        :class:`~repro.runtime.ExperimentSpec` naming the application.
    configs:
        ``{name: IHWConfig}``.
    runner:
        :class:`~repro.runtime.ExperimentRunner`; default is a sequential
        runner with environment-controlled caching.
    cost:
        ``cost(evaluation) -> float`` (lower is better).  Default: the
        residual system power fraction ``1 - system_savings``.
    loss:
        ``loss(evaluation) -> float`` (lower is better).  Default: the
        raw quality value — correct for lower-is-better metrics such as
        MAE; pass e.g. ``lambda ev: 1 - ev.quality`` for SSIM.
    """
    from repro.runtime import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner(max_workers=1)
    cost = cost or (lambda ev: 1.0 - ev.savings.system_savings)
    loss = loss or (lambda ev: ev.quality)
    evaluations = runner.sweep(spec, configs)
    return [
        DesignPoint(
            name=name,
            cost=max(0.0, float(cost(ev))),
            loss=max(0.0, float(loss(ev))),
        )
        for name, ev in evaluations.items()
    ]


def family_dominates(winners, losers, tolerance: float = 0.0) -> bool:
    """Whether every point in ``losers`` is dominated by some ``winners`` point.

    The Figure-14 claim shape: "the proposed multiplier dominates intuitive
    truncation across the design space".
    """
    winners = list(winners)
    losers = list(losers)
    if not winners or not losers:
        raise ValueError("both families must be non-empty")
    return all(
        any(dominates(w, loser, tolerance) for w in winners) for loser in losers
    )
