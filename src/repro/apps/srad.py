"""SRAD — Speckle Reducing Anisotropic Diffusion (Rodinia benchmark port).

SRAD [Yu & Acton, IEEE TIP 2002] removes multiplicative speckle noise from
ultrasonic/radar images by anisotropic diffusion: per pixel, a diffusion
coefficient is derived from the local coefficient of variation relative to
the global speckle statistics, then the image is updated with the divergence
of the coefficient-weighted gradients.  The computational kernel is heavy in
FP multiplication, addition, and division (27% of GPU power in FPU+SFU per
Figure 2).

The paper evaluates quality with Pratt's figure of merit between binary edge
maps of the ideal segmentation, the precise SRAD result, and the imprecise
result (Figure 16: FOM 0.20 precise vs 0.23 imprecise — the arithmetic noise
is dwarfed by the image's own speckle).  Lacking the clinical ultrasound
input, :func:`speckle_phantom` generates the standard synthetic phantom for
speckle filters: a dark ellipse on a bright background under multiplicative
speckle — the same statistics the quality comparison depends on.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["speckle_phantom", "ideal_edges", "detect_edges", "run", "reference_run"]


def speckle_phantom(rows: int = 64, cols: int = 64, seed: int = 11,
                    noise: float = 0.35) -> tuple:
    """Synthetic ultrasound phantom: ``(noisy image, clean image)``.

    A dark ellipse (the "cyst") on a brighter tissue background, corrupted
    by multiplicative speckle (gamma-distributed, the standard model).
    """
    if rows < 16 or cols < 16:
        raise ValueError(f"phantom too small: {rows}x{cols}")
    y, x = np.mgrid[0:rows, 0:cols]
    cy, cx = rows / 2.0, cols / 2.0
    ellipse = ((y - cy) / (rows * 0.28)) ** 2 + ((x - cx) / (cols * 0.2)) ** 2 <= 1.0
    clean = np.where(ellipse, 0.25, 0.75).astype(np.float32)
    rng = np.random.default_rng(seed)
    speckle = rng.gamma(shape=1.0 / noise**2, scale=noise**2, size=(rows, cols))
    noisy = np.clip(clean * speckle, 0.02, 2.0).astype(np.float32)
    return noisy, clean


def ideal_edges(rows: int = 64, cols: int = 64) -> np.ndarray:
    """Boundary of the clean phantom ellipse (the ideal segmentation map)."""
    _, clean = speckle_phantom(rows, cols)
    interior = clean < 0.5
    return interior ^ ndimage.binary_erosion(interior)


def detect_edges(image: np.ndarray, percentile: float = 92.0) -> np.ndarray:
    """Binary edge map via gradient-magnitude thresholding."""
    img = np.asarray(image, dtype=np.float64)
    gy, gx = np.gradient(img)
    magnitude = np.hypot(gx, gy)
    threshold = np.percentile(magnitude, percentile)
    return magnitude > threshold


def _neighbors(img):
    north = np.vstack([img[:1, :], img[:-1, :]])
    south = np.vstack([img[1:, :], img[-1:, :]])
    west = np.hstack([img[:, :1], img[:, :-1]])
    east = np.hstack([img[:, 1:], img[:, -1:]])
    return north, south, east, west


def run(
    config: IHWConfig | None = None,
    rows: int = 64,
    cols: int = 64,
    iterations: int = 30,
    lam: float = 0.5,
    image: np.ndarray | None = None,
) -> AppResult:
    """Diffuse the speckled phantom and return the filtered image."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    ctx = make_context(config)
    if image is None:
        image, _ = speckle_phantom(rows, cols)
    else:
        rows, cols = image.shape
    img = ctx.array(image)
    quarter = np.float32(0.25)
    one = np.float32(1.0)
    sixteenth = np.float32(1.0 / 16.0)
    half = np.float32(0.5)
    lam4 = np.float32(lam / 4.0)

    for _ in range(iterations):
        # Global speckle scale q0^2 from image statistics (host-side scalars
        # in the CUDA version's reduction kernel; kept precise like the
        # paper's essential control path).
        mean = float(np.mean(np.asarray(img)))
        var = float(np.var(np.asarray(img)))
        # Floor the speckle scale: a constant (speckle-free) image must not
        # divide by zero — with q0 ~ 0 the coefficient c collapses to ~0 and
        # the image is left untouched, the physically right behavior.
        q0sq = np.float32(max(var / (mean * mean) if mean else 1.0, 1e-12))

        north, south, east, west = _neighbors(img)
        dn = ctx.sub(north, img)
        ds = ctx.sub(south, img)
        dw = ctx.sub(west, img)
        de = ctx.sub(east, img)

        img_inv = ctx.rcp(img)
        g2 = ctx.mul(
            ctx.add(
                ctx.add(ctx.mul(dn, dn), ctx.mul(ds, ds)),
                ctx.add(ctx.mul(dw, dw), ctx.mul(de, de)),
            ),
            ctx.mul(img_inv, img_inv),
        )
        laplacian = ctx.mul(ctx.add(ctx.add(dn, ds), ctx.add(dw, de)), img_inv)

        num = ctx.sub(ctx.mul(half, g2), ctx.mul(sixteenth, ctx.mul(laplacian, laplacian)))
        den_base = ctx.add(one, ctx.mul(quarter, laplacian))
        den = ctx.mul(den_base, den_base)
        qsq = ctx.div(num, den)

        # c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2)))
        scale = np.float32(1.0 / (float(q0sq) * (1.0 + float(q0sq))))
        c = ctx.rcp(ctx.add(one, ctx.mul(ctx.sub(qsq, q0sq), scale)))
        c = np.clip(c, 0.0, 1.0).astype(np.float32)

        c_south = np.vstack([c[1:, :], c[-1:, :]])
        c_east = np.hstack([c[:, 1:], c[:, -1:]])
        divergence = ctx.add(
            ctx.add(ctx.mul(c_south, ds), ctx.mul(c, dn)),
            ctx.add(ctx.mul(c_east, de), ctx.mul(c, dw)),
        )
        img = ctx.add(img, ctx.mul(lam4, divergence))

    cells = rows * cols
    return finish(
        "srad",
        np.asarray(img, dtype=np.float64),
        ctx,
        int_ops=18 * cells * iterations,  # two kernels' index arithmetic
        mem_ops=28 * cells * iterations,  # dN/dS/dW/dE and c staged in global memory
        ctrl_ops=cells * iterations // 8,
        threads=cells,
    )


def reference_run(rows: int = 64, cols: int = 64, iterations: int = 30,
                  image: np.ndarray | None = None) -> AppResult:
    """The precise baseline execution."""
    return run(None, rows=rows, cols=cols, iterations=iterations, image=image)
