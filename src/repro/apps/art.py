"""179.art — Adaptive Resonance Theory 2 neural network (SPEC2000 substitute).

The SPEC 179.art benchmark trains an ART-2 neural network to recognize
objects (a helicopter and an airplane) in a thermal image and reports the
coordinates of the recognized object plus a confidence of match (the
*vigilance*), which the paper uses as the quality metric (Figure 21a).

This port keeps the numerically dominant structure: F1-layer normalization
of each candidate window and F2-layer resonance — the normalized inner
product between the window and each learned category template — evaluated
over a sliding scan of the image.  The arithmetic is double precision and
almost entirely multiplication (89% of FP ops in Table 6), so the benchmark
isolates the configurable multiplier's accuracy ladder.

The synthetic thermal image plants one of the templates (plus clutter and
sensor noise) at a known location, standing in for SPEC's input scenes.
"""

from __future__ import annotations

import numpy as np

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["make_templates", "make_scene", "run", "reference_run"]

_WINDOW = 16


def make_templates() -> dict:
    """Binary silhouettes of the two SPEC objects on a 16x16 window."""
    airplane = np.zeros((_WINDOW, _WINDOW), dtype=np.float64)
    airplane[7:9, 1:15] = 1.0  # fuselage
    airplane[2:14, 7:9] = 1.0  # wings
    airplane[12:14, 5:11] = 1.0  # tail

    helicopter = np.zeros((_WINDOW, _WINDOW), dtype=np.float64)
    helicopter[8:11, 3:13] = 1.0  # body
    helicopter[9:10, 12:16] = 1.0  # tail boom
    helicopter[3:5, 1:15] = 1.0  # rotor
    helicopter[5:8, 7:9] = 1.0  # mast
    return {"airplane": airplane, "helicopter": helicopter}


def make_scene(
    target: str = "helicopter",
    size: int = 48,
    location: tuple = (20, 12),
    noise: float = 0.15,
    seed: int = 3,
) -> np.ndarray:
    """Thermal image with the target silhouette at ``location`` plus noise."""
    templates = make_templates()
    if target not in templates:
        raise ValueError(f"unknown target {target!r}; expected {sorted(templates)}")
    r0, c0 = location
    if not (0 <= r0 <= size - _WINDOW and 0 <= c0 <= size - _WINDOW):
        raise ValueError(f"location {location} out of bounds for size {size}")
    rng = np.random.default_rng(seed)
    scene = rng.uniform(0.0, noise, (size, size))
    scene[r0 : r0 + _WINDOW, c0 : c0 + _WINDOW] += templates[target] * 0.9
    # Warm clutter blob elsewhere.
    scene[: size // 6, : size // 6] += 0.35
    return np.clip(scene, 0.0, 1.2)


_F1_ITERATIONS = 3
_GAIN_A = 1.08
_GAIN_B = 1.0 / 1.08


def _reduce_sum(ctx, values):
    """Tree reduction with counted adds (power-of-two length)."""
    acc = ctx.add(values[::2], values[1::2])
    while acc.size > 1:
        acc = ctx.add(acc[::2], acc[1::2])
    return float(acc[0])


def _f1_layer(ctx, x):
    """ART-2 F1 gain-control dynamics: iterated gain multiplications.

    The two gains cancel exactly in precise arithmetic; on imprecise
    multipliers their systematic error compounds — the network's internal
    amplification of multiplier bias the paper's vigilance curve exposes.
    """
    u = x
    for _ in range(_F1_ITERATIONS):
        u = ctx.mul(u, np.float64(_GAIN_A))
        u = ctx.mul(u, np.float64(_GAIN_B))
    return u


def _window_confidence(ctx, window, template, template_energy: float):
    """ART-2 resonance: Dice-style match between input and category.

    ``conf = 2 (u.w) / (u.u + |w|^2)`` with the category energy ``|w|^2``
    a learned constant — the bottom-up/top-down resonance test whose value
    is the reported vigilance.
    """
    x = _f1_layer(ctx, window.ravel())
    w = template.ravel()
    num = _reduce_sum(ctx, ctx.mul(x, w))
    energy = _reduce_sum(ctx, ctx.mul(x, x))
    # Scalar confidence normalization, as in the CPU scorer.
    return 2.0 * num / max(energy + template_energy, 1e-30)


def run(
    config: IHWConfig | None = None,
    target: str = "helicopter",
    size: int = 48,
    location: tuple = (20, 12),
    stride: int = 4,
    scene: np.ndarray | None = None,
) -> AppResult:
    """Scan the scene; output ``(best_category, (row, col), vigilance)``."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ctx = make_context(config, dtype=np.float64)
    templates = {k: ctx.array(v) for k, v in make_templates().items()}
    energies = {k: float((np.asarray(v) ** 2).sum()) for k, v in templates.items()}
    if scene is None:
        scene = make_scene(target, size=size, location=location)
    scene = ctx.array(scene)
    size = scene.shape[0]

    best = ("none", (-1, -1), -1.0)
    for r in range(0, size - _WINDOW + 1, stride):
        for c in range(0, size - _WINDOW + 1, stride):
            window = scene[r : r + _WINDOW, c : c + _WINDOW]
            for name, template in templates.items():
                confidence = _window_confidence(ctx, window, template, energies[name])
                if confidence > best[2]:
                    best = (name, (r, c), confidence)

    windows = ((size - _WINDOW) // stride + 1) ** 2
    return finish(
        "179.art",
        best,
        ctx,
        int_ops=windows * _WINDOW * _WINDOW // 2,
        mem_ops=windows * _WINDOW * _WINDOW,
        ctrl_ops=windows * 8,
        threads=windows,
        extras={"target": target, "location": location},
    )


def reference_run(target: str = "helicopter", **kwargs) -> AppResult:
    """The precise baseline scan."""
    return run(None, target=target, **kwargs)
