"""Ray tracing benchmark (ISPASS-2009 RAY port).

A Whitted-style ray tracer over a small sphere scene: per pixel, primary
rays intersect every sphere (dot products, square roots, reciprocals),
shade with a Lambertian term and distance attenuation against a point
light, and bounce up to ``depth`` reflections whose contributions
accumulate.

GPU arithmetic idioms are kept: square roots inside the intersection are
computed as ``x * rsqrt(x)`` (exactly how CUDA evaluates ``sqrtf``), vector
normalization uses the rsqrt unit, and light falloff uses the reciprocal
and sqrt units.  Shading work is gathered per visible sphere so operation
counts reflect the pixels actually shaded.

This is the paper's stress case for imprecise arithmetic: normals and
reflection directions are chains of multiplications whose errors compound
across bounces (Chapter 5.3.1), so

- with only rcp/add/sqrt imprecise the image barely degrades (SSIM ~0.95),
- adding the imprecise rsqrt (intersection roots and normals) drops SSIM
  toward ~0.8,
- the Table-1 multiplier (25% error) destroys the image,
- the improved full-path Mitchell multiplier recovers most of the quality
  while saving more power (Figure 18).

The output is a grayscale irradiance image scored with SSIM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["Sphere", "default_scene", "run", "reference_run"]


@dataclass(frozen=True)
class Sphere:
    """Scene sphere: position, radius, albedo, and mirror reflectivity."""

    center: tuple
    radius: float
    albedo: float
    reflectivity: float = 0.0


def default_scene() -> list:
    """Four shiny spheres over a huge matte floor sphere."""
    return [
        Sphere((0.0, -1004.0, 12.0), 1000.0, 0.6, 0.05),  # floor
        Sphere((0.0, 0.0, 14.0), 3.0, 0.9, 0.5),
        Sphere((-4.5, -1.5, 10.0), 2.0, 0.7, 0.4),
        Sphere((4.5, -1.0, 11.0), 2.5, 0.8, 0.45),
        Sphere((1.5, -2.8, 8.0), 1.0, 1.0, 0.6),
    ]


_LIGHT = (8.0, 12.0, 0.0)
_AMBIENT = 0.08
_DIFFUSE = 0.9
_FALLOFF_LIN = 0.004  # linear attenuation coefficient (uses the sqrt unit)
_FALLOFF_SQ = 0.001  # quadratic attenuation coefficient
_BACKGROUND = 0.12
_FAR = 1.0e8


def _gpu_sqrt(ctx, x):
    """``sqrt(x)`` the way CUDA lowers ``sqrtf``: ``x * rsqrt(x)``."""
    return ctx.mul(x, ctx.rsqrt(x))


def _normalize(ctx, x, y, z):
    """Unit vector via rsqrt of the squared length (the SFU idiom)."""
    len2 = ctx.dot3(x, y, z, x, y, z)
    inv = ctx.rsqrt(len2)
    return ctx.mul(x, inv), ctx.mul(y, inv), ctx.mul(z, inv)


def _intersect(ctx, ox, oy, oz, dx, dy, dz, sphere: Sphere):
    """Ray-sphere hit distance and hit mask."""
    cx, cy, cz = (np.float32(v) for v in sphere.center)
    ocx = ctx.sub(ox, cx)
    ocy = ctx.sub(oy, cy)
    ocz = ctx.sub(oz, cz)
    b = ctx.dot3(ocx, ocy, ocz, dx, dy, dz)
    c2 = ctx.sub(
        ctx.dot3(ocx, ocy, ocz, ocx, ocy, ocz),
        np.float32(sphere.radius * sphere.radius),
    )
    disc = ctx.sub(ctx.mul(b, b), c2)
    hit = disc > 0
    safe_disc = np.where(hit, disc, np.float32(1.0)).astype(np.float32)
    root = _gpu_sqrt(ctx, safe_disc)
    t = ctx.sub(ctx.sub(np.float32(0.0), b), root)
    valid = hit & (t > np.float32(1e-3))
    return np.where(valid, t, np.float32(_FAR)).astype(np.float32), valid


def _trace(ctx, ox, oy, oz, dx, dy, dz, scene, depth: int):
    """Shade one flat batch of rays, recursing into reflections."""
    nearest_t = np.full(ox.shape, _FAR, dtype=np.float32)
    nearest_idx = np.full(ox.shape, -1, dtype=np.int64)
    for i, sphere in enumerate(scene):
        t, valid = _intersect(ctx, ox, oy, oz, dx, dy, dz, sphere)
        closer = valid & (t < nearest_t)
        nearest_t = np.where(closer, t, nearest_t).astype(np.float32)
        nearest_idx = np.where(closer, i, nearest_idx)

    color = np.full(ox.shape, _BACKGROUND, dtype=np.float32)
    lx, ly, lz = (np.float32(v) for v in _LIGHT)
    for i, sphere in enumerate(scene):
        sel = np.flatnonzero(nearest_idx == i)
        if sel.size == 0:
            continue
        t = nearest_t[sel]
        gox, goy, goz = ox[sel], oy[sel], oz[sel]
        gdx, gdy, gdz = dx[sel], dy[sel], dz[sel]

        px = ctx.add(gox, ctx.mul(t, gdx))
        py = ctx.add(goy, ctx.mul(t, gdy))
        pz = ctx.add(goz, ctx.mul(t, gdz))

        cx, cy, cz = (np.float32(v) for v in sphere.center)
        nx, ny, nz = _normalize(ctx, ctx.sub(px, cx), ctx.sub(py, cy), ctx.sub(pz, cz))

        lvx = ctx.sub(lx, px)
        lvy = ctx.sub(ly, py)
        lvz = ctx.sub(lz, pz)
        ldx, ldy, ldz = _normalize(ctx, lvx, lvy, lvz)
        lambert = ctx.dot3(nx, ny, nz, ldx, ldy, ldz)
        lambert = np.maximum(lambert, np.float32(0.0)).astype(np.float32)

        dist2 = ctx.dot3(lvx, lvy, lvz, lvx, lvy, lvz)
        dist = ctx.sqrt(dist2)
        atten = ctx.rcp(
            ctx.add(
                np.float32(1.0),
                ctx.add(
                    ctx.mul(np.float32(_FALLOFF_LIN), dist),
                    ctx.mul(np.float32(_FALLOFF_SQ), dist2),
                ),
            )
        )
        diffuse = ctx.mul(np.float32(_DIFFUSE), ctx.mul(lambert, atten))
        shade = ctx.mul(np.float32(sphere.albedo), ctx.add(np.float32(_AMBIENT), diffuse))

        if depth > 0 and sphere.reflectivity > 0:
            dn = ctx.dot3(gdx, gdy, gdz, nx, ny, nz)
            two_dn = ctx.add(dn, dn)
            rx = ctx.sub(gdx, ctx.mul(two_dn, nx))
            ry = ctx.sub(gdy, ctx.mul(two_dn, ny))
            rz = ctx.sub(gdz, ctx.mul(two_dn, nz))
            # Offset the secondary origin off the surface (standard epsilon
            # against self-intersection, host-side constant).
            eps = np.float32(0.02)
            rox = (np.asarray(px) + eps * np.asarray(nx)).astype(np.float32)
            roy = (np.asarray(py) + eps * np.asarray(ny)).astype(np.float32)
            roz = (np.asarray(pz) + eps * np.asarray(nz)).astype(np.float32)
            reflected = _trace(ctx, rox, roy, roz, rx, ry, rz, scene, depth - 1)
            shade = ctx.add(shade, ctx.mul(np.float32(sphere.reflectivity), reflected))

        color[sel] = shade
    return color


def run(
    config: IHWConfig | None = None,
    width: int = 64,
    height: int = 64,
    depth: int = 2,
    scene: list | None = None,
) -> AppResult:
    """Render the scene and return the grayscale image."""
    if width < 8 or height < 8:
        raise ValueError(f"image too small: {width}x{height}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    ctx = make_context(config)
    if scene is None:
        scene = default_scene()

    # Camera setup is host-side in the CUDA benchmark: primary directions
    # are built and normalized precisely, not on the imprecise units.
    aspect = width / height
    ys, xs = np.mgrid[0:height, 0:width]
    px = (((xs + 0.5) / width * 2.0 - 1.0) * aspect).ravel()
    py = (1.0 - (ys + 0.5) / height * 2.0).ravel()
    norm = np.sqrt(px * px + py * py + 1.0)
    dx = ctx.array(px / norm)
    dy = ctx.array(py / norm)
    dz = ctx.array(1.0 / norm)

    zeros = np.zeros_like(dx)
    image = _trace(ctx, zeros, zeros, zeros, dx, dy, dz, scene, depth)
    image = np.clip(image, 0.0, 1.0).reshape(height, width)

    pixels = width * height
    return finish(
        "raytracing",
        np.asarray(image, dtype=np.float64),
        ctx,
        int_ops=48 * pixels,  # traversal and addressing arithmetic
        mem_ops=36 * pixels,  # scene/framebuffer traffic per pixel
        ctrl_ops=20 * pixels,  # per-sphere and per-bounce branching
        threads=pixels,
    )


def reference_run(width: int = 64, height: int = 64, depth: int = 2) -> AppResult:
    """The precise baseline render."""
    return run(None, width=width, height=height, depth=depth)
