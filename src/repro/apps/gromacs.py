"""435.gromacs — molecular dynamics benchmark (SPEC2006 substitute).

SPEC's 435.gromacs simulates the protein lysozyme in water; its quality
check compares the reported average potential energy against a reference,
accepting errors within 1.25% because MD trajectories are chaotic.  This
port runs the same numerical core at laptop scale: a Lennard-Jones fluid in
reduced units under velocity-Verlet integration with minimum-image periodic
boundaries, reporting the time-averaged potential energy and temperature.

All pairwise force/energy arithmetic is double precision through the
instrumented context (multiplication dominated, Table 6), so the benchmark
measures how multiplier bias propagates through a chaotic N-body system —
the Figure-21b error-percentage study with its 1.25% acceptance line.
"""

from __future__ import annotations

import numpy as np

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["initial_lattice", "run", "reference_run"]


def initial_lattice(n_side: int = 4, density: float = 0.8, seed: int = 9) -> tuple:
    """FCC-ish cubic lattice positions and small random velocities."""
    if n_side < 2:
        raise ValueError(f"n_side must be >= 2, got {n_side}")
    n = n_side**3
    box = (n / density) ** (1.0 / 3.0)
    spacing = box / n_side
    grid = np.arange(n_side) * spacing
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    positions = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    velocities = rng.normal(0.0, 0.5, (n, 3))
    velocities -= velocities.mean(axis=0)  # zero net momentum
    return positions.astype(np.float64), velocities.astype(np.float64), box


def _pair_terms(ctx, positions, box):
    """LJ potential sum and per-particle forces over all pairs (counted)."""
    n = len(positions)
    iu, ju = np.triu_indices(n, k=1)
    delta = positions[iu] - positions[ju]  # pair deltas
    # Minimum image (host-side box logic, like the neighbor search).
    delta -= box * np.round(delta / box)
    dx = ctx.array(delta[:, 0])
    dy = ctx.array(delta[:, 1])
    dz = ctx.array(delta[:, 2])

    r2 = ctx.add(ctx.add(ctx.mul(dx, dx), ctx.mul(dy, dy)), ctx.mul(dz, dz))
    r2 = np.maximum(r2, np.float64(0.6)).astype(np.float64)  # overlap guard
    inv_r2 = ctx.rcp(r2)
    inv_r6 = ctx.mul(ctx.mul(inv_r2, inv_r2), inv_r2)
    inv_r12 = ctx.mul(inv_r6, inv_r6)

    pair_pot = ctx.mul(np.float64(4.0), ctx.sub(inv_r12, inv_r6))
    # f/r = 24 (2 r^-12 - r^-6) / r^2
    fscale = ctx.mul(
        ctx.mul(np.float64(24.0), ctx.sub(ctx.add(inv_r12, inv_r12), inv_r6)),
        inv_r2,
    )
    fx = ctx.mul(fscale, dx)
    fy = ctx.mul(fscale, dy)
    fz = ctx.mul(fscale, dz)

    forces = np.zeros((n, 3), dtype=np.float64)
    # Scatter-accumulate of per-pair forces onto atoms: the paper's harness
    # performs this reduction on the host, outside the imprecise units.
    np.add.at(forces[:, 0], iu, np.asarray(fx))
    np.add.at(forces[:, 0], ju, -np.asarray(fx))
    np.add.at(forces[:, 1], iu, np.asarray(fy))
    np.add.at(forces[:, 1], ju, -np.asarray(fy))
    np.add.at(forces[:, 2], iu, np.asarray(fz))
    np.add.at(forces[:, 2], ju, -np.asarray(fz))
    potential = float(np.asarray(pair_pot, dtype=np.float64).sum())
    return potential, forces


def run(
    config: IHWConfig | None = None,
    n_side: int = 3,
    steps: int = 60,
    dt: float = 0.004,
    density: float = 0.8,
) -> AppResult:
    """Integrate the fluid; output ``(avg potential energy, avg temperature)``."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ctx = make_context(config, dtype=np.float64)
    positions, velocities, box = initial_lattice(n_side, density)
    n = len(positions)

    potential, forces = _pair_terms(ctx, positions, box)
    pot_history = []
    temp_history = []
    half_dt = 0.5 * dt
    # Velocity-Verlet integration runs on the host (precise), as in the
    # paper's setup: only the pair-force kernel uses the imprecise units.
    for _ in range(steps):
        velocities = velocities + half_dt * forces
        positions = (positions + dt * velocities) % box
        potential, forces = _pair_terms(ctx, positions, box)
        velocities = velocities + half_dt * forces
        kinetic = 0.5 * float((velocities**2).sum())
        pot_history.append(potential / n)
        temp_history.append(2.0 * kinetic / (3.0 * n))

    half = len(pot_history) // 2
    avg_pot = float(np.mean(pot_history[half:]))
    avg_temp = float(np.mean(temp_history[half:]))

    pairs = n * (n - 1) // 2
    return finish(
        "435.gromacs",
        (avg_pot, avg_temp),
        ctx,
        int_ops=pairs * steps * 4,
        mem_ops=pairs * steps * 3,
        ctrl_ops=pairs * steps // 4,
        threads=n,
        extras={"particles": n, "box": box},
    )


def reference_run(n_side: int = 3, steps: int = 60, **kwargs) -> AppResult:
    """The precise baseline trajectory."""
    return run(None, n_side=n_side, steps=steps, **kwargs)
