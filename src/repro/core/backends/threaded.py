"""The ``threaded`` backend: fused kernels tiled across a thread pool.

Every hot operation of the :class:`~repro.core.backends.fused.FusedBackend`
is elementwise — each output element depends only on the same-index input
elements — so a large call can be split into contiguous tiles and executed
concurrently.  NumPy's ufuncs release the GIL while they run, which is
where the multi-core win comes from without any compiled dependency.

Design points:

- **one fused shard per tile** — ``FusedBackend`` holds mutable scratch and
  is not thread-safe, so each tile index owns a private instance whose
  scratch pool stays warm across calls (the shards register themselves
  with the global scratch accounting; this wrapper deliberately does not,
  to avoid double counting);
- **tiling threshold** — arrays below :data:`MIN_TILE_ELEMENTS` per tile
  run inline on shard 0; thread dispatch would cost more than it saves;
- **per-call thread pool** — threads are spawned per call instead of kept
  alive on the instance, so a sweep constructing many short-lived contexts
  never accumulates idle pool threads.  Thread start-up is microseconds
  against the multi-millisecond calls that reach the tiled path;
- **bit identity is structural** — tiles see exactly the element values the
  full-array call would, and the fused kernels are contractually
  bit-identical to reference on any operand subset, so concatenated tile
  results equal the untiled result bit for bit (asserted by the parity
  harness with a forced tile width in ``tests/test_parallel.py``).

Thread count comes from :func:`repro.core.backends.threads.resolve_thread_count`:
explicit argument, else 1 inside runner pool workers, else ``REPRO_THREADS``,
else the usable CPU count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..adder import DEFAULT_THRESHOLD
from ..floatops import format_for_dtype
from .base import ComputeBackend
from .fused import FusedBackend
from .threads import resolve_thread_count

__all__ = ["ThreadedFusedBackend", "MIN_TILE_ELEMENTS"]

#: Smallest per-tile element count worth a thread dispatch.
MIN_TILE_ELEMENTS = 1 << 15


class ThreadedFusedBackend(ComputeBackend):
    """Fused kernels tiled over a ``ThreadPoolExecutor``."""

    name = "threaded"

    def __init__(self, threads: int | None = None):
        self.threads = resolve_thread_count(threads)
        self._min_tile = MIN_TILE_ELEMENTS
        self._shards = [FusedBackend()]

    # ------------------------------------------------------------------
    # Scratch accounting (aggregated over shards)
    # ------------------------------------------------------------------
    def scratch_nbytes(self) -> int:
        return sum(shard.scratch_nbytes() for shard in self._shards)

    def release_scratch(self) -> int:
        return sum(shard.release_scratch() for shard in self._shards)

    # ------------------------------------------------------------------
    # Tiling machinery
    # ------------------------------------------------------------------
    def _shard(self, index: int) -> FusedBackend:
        while len(self._shards) <= index:
            self._shards.append(FusedBackend())
        return self._shards[index]

    def _operands(self, arrays, fmt):
        arrays = [np.asarray(x, dtype=fmt.dtype) for x in arrays]
        return np.broadcast_arrays(*arrays) if len(arrays) > 1 else arrays

    def _tile_count(self, n: int) -> int:
        tiles = min(self.threads, n // self._min_tile)
        return tiles if tiles > 1 else 1

    @staticmethod
    def _bounds(n: int, tiles: int) -> list:
        base, rem = divmod(n, tiles)
        bounds = [0]
        for i in range(tiles):
            bounds.append(bounds[-1] + base + (1 if i < rem else 0))
        return bounds

    def _run(self, arrays, fmt, call) -> np.ndarray:
        """Run ``call(shard, tile_arrays) -> tile_result`` over tiles."""
        shape = arrays[0].shape
        n = int(arrays[0].size)
        tiles = self._tile_count(n)
        if tiles == 1:
            return call(self._shard(0), arrays)
        flats = [np.ascontiguousarray(x.reshape(-1)) for x in arrays]
        out = np.empty(n, dtype=fmt.dtype)
        bounds = self._bounds(n, tiles)

        def task(i):
            lo, hi = bounds[i], bounds[i + 1]
            out[lo:hi] = call(self._shard(i), [f[lo:hi] for f in flats])

        with ThreadPoolExecutor(max_workers=tiles) as pool:
            list(pool.map(task, range(tiles)))
        return out.reshape(shape)

    # ------------------------------------------------------------------
    # FPU ops
    # ------------------------------------------------------------------
    def imprecise_add(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_add(
            t[0], t[1], threshold=threshold, dtype=dtype))

    def imprecise_subtract(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                           dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        b = np.asarray(b, dtype=fmt.dtype)
        return self.imprecise_add(a, -b, threshold=threshold, dtype=dtype)

    def imprecise_multiply(self, a, b, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_multiply(
            t[0], t[1], dtype=dtype))

    def configurable_multiply(self, a, b, config, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b), fmt)
        return self._run(ops, fmt, lambda be, t: be.configurable_multiply(
            t[0], t[1], config, dtype=dtype))

    def truncated_multiply(self, a, b, truncation: int = 0, dtype=np.float32,
                           rounding: bool = True) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b), fmt)
        return self._run(ops, fmt, lambda be, t: be.truncated_multiply(
            t[0], t[1], truncation, dtype=dtype, rounding=rounding))

    def imprecise_fma(self, a, b, c, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b, c), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_fma(
            t[0], t[1], t[2], threshold=threshold, dtype=dtype))

    # ------------------------------------------------------------------
    # SFU ops (elementwise: same tiling applies)
    # ------------------------------------------------------------------
    def imprecise_reciprocal(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((x,), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_reciprocal(
            t[0], dtype=dtype))

    def imprecise_rsqrt(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((x,), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_rsqrt(
            t[0], dtype=dtype))

    def imprecise_sqrt(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((x,), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_sqrt(
            t[0], dtype=dtype))

    def imprecise_log2(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((x,), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_log2(
            t[0], dtype=dtype))

    def imprecise_divide(self, a, b, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        ops = self._operands((a, b), fmt)
        return self._run(ops, fmt, lambda be, t: be.imprecise_divide(
            t[0], t[1], dtype=dtype))
