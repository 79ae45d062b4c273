"""JPEG-style DCT codec — the Figure-5 motivation study, revisited.

The paper motivates imprecise hardware with a JPEG decompression example
from prior work (Figure 5: an imprecise *integer* adder, minimal quality
loss, 24% EDP gain).  This extension runs the same story on *this* paper's
floating point units: an 8x8 block DCT -> quantization -> IDCT pipeline
whose transform arithmetic (multiply-accumulate against the DCT basis)
routes through the instrumented context.

Quality is PSNR of the decoded image against the precise codec at the same
quantization level, so the metric isolates the arithmetic error from the
(intended) quantization loss.
"""

from __future__ import annotations

import numpy as np

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["dct_basis", "test_image", "run", "reference_run"]

_BLOCK = 8

#: The standard JPEG luminance quantization table.
_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float32,
)


def dct_basis() -> np.ndarray:
    """The orthonormal 8x8 DCT-II basis matrix."""
    k = np.arange(_BLOCK)
    n = np.arange(_BLOCK)
    basis = np.cos((2 * n[None, :] + 1) * k[:, None] * np.pi / (2 * _BLOCK))
    basis *= np.sqrt(2.0 / _BLOCK)
    basis[0, :] *= np.sqrt(0.5)
    return basis.astype(np.float32)


def test_image(size: int = 64, seed: int = 17) -> np.ndarray:
    """Synthetic photographic-statistics test image in [0, 255]."""
    if size % _BLOCK:
        raise ValueError(f"size must be a multiple of {_BLOCK}, got {size}")
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / size
    image = (
        120
        + 70 * np.sin(2 * np.pi * (1.5 * x + 0.5 * y))
        + 40 * np.cos(2 * np.pi * 3.1 * y * x)
    )
    image += rng.normal(0, 4.0, (size, size))  # sensor noise
    image[size // 4 : size // 2, size // 4 : size // 2] += 50  # a bright object
    return np.clip(image, 0, 255).astype(np.float32)


def _blockwise(image: np.ndarray) -> np.ndarray:
    """(n_blocks, 8, 8) view of the image's JPEG blocks."""
    size = image.shape[0]
    blocks = image.reshape(size // _BLOCK, _BLOCK, size // _BLOCK, _BLOCK)
    return blocks.transpose(0, 2, 1, 3).reshape(-1, _BLOCK, _BLOCK)


def _unblock(blocks: np.ndarray, size: int) -> np.ndarray:
    nb = size // _BLOCK
    return (
        blocks.reshape(nb, nb, _BLOCK, _BLOCK).transpose(0, 2, 1, 3).reshape(size, size)
    )


def _matmul(ctx, a, b):
    """Counted batched matrix multiply ``a @ b`` over the instrumented ops.

    ``a`` and ``b`` are ``(..., 8, 8)`` with broadcastable batch dims.  The
    k-loop is unrolled into 8 multiply + 7 add vector steps, exactly the
    MAC structure of the hardware transform.
    """
    acc = ctx.mul(a[..., :, 0:1], b[..., 0:1, :])
    for k in range(1, _BLOCK):
        acc = ctx.add(acc, ctx.mul(a[..., :, k : k + 1], b[..., k : k + 1, :]))
    return acc


def run(
    config: IHWConfig | None = None,
    size: int = 64,
    quality: float = 1.0,
    image: np.ndarray | None = None,
) -> AppResult:
    """Encode + decode the image; returns the reconstructed image.

    ``quality`` scales the quantization table (higher = coarser).
    """
    if quality <= 0:
        raise ValueError(f"quality scale must be positive, got {quality}")
    ctx = make_context(config)
    if image is None:
        image = test_image(size)
    size = image.shape[0]
    if image.shape != (size, size) or size % _BLOCK:
        raise ValueError(f"image must be square with size % 8 == 0, got {image.shape}")

    basis = ctx.array(dct_basis())
    basis_t = ctx.array(dct_basis().T)
    quant = (_QUANT * quality).astype(np.float32)

    blocks = ctx.array(_blockwise(image - 128.0))
    # Forward DCT: C x B x C^T (two counted matmuls per block batch).
    coeffs = _matmul(ctx, _matmul(ctx, basis[None, :, :], blocks), basis_t)
    # Quantize / dequantize (integer rounding is host-side, as in the codec).
    quantized = np.round(np.asarray(coeffs) / quant)
    dequantized = ctx.array(quantized * quant)
    # Inverse DCT: C^T x Q x C.
    recon = _matmul(ctx, _matmul(ctx, basis_t[None, :, :], dequantized), basis)
    # Codec un-bias of the decoded plane.
    decoded = np.clip(_unblock(np.asarray(recon, dtype=np.float64), size) + 128.0, 0, 255)

    pixels = size * size
    return finish(
        "jpeg-dct",
        decoded,
        ctx,
        int_ops=4 * pixels,
        mem_ops=3 * pixels,
        ctrl_ops=pixels // 8,
        threads=pixels // (_BLOCK * _BLOCK),
        extras={"quant_scale": quality},
    )


def reference_run(size: int = 64, quality: float = 1.0,
                  image: np.ndarray | None = None) -> AppResult:
    """The precise codec at the same quantization level."""
    return run(None, size=size, quality=quality, image=image)
