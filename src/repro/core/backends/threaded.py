"""The ``threaded`` backend: fused kernels tiled across a thread pool.

Every hot operation of the :class:`~repro.core.backends.fused.FusedBackend`
is elementwise — each output element depends only on the same-index input
elements — so a large call can be split into contiguous tiles and executed
concurrently.  NumPy's ufuncs release the GIL while they run, which is
where the multi-core win comes from without any compiled dependency.

Design points:

- **one fused shard per tile** — ``FusedBackend`` holds mutable scratch and
  is not thread-safe, so each tile index owns a private instance whose
  scratch pool stays warm across calls and is freed with this backend;
- **tiling threshold** — an op tiles only when every tile gets at least
  :data:`MIN_TILE_ELEMENTS` (2^18) elements, so on two threads ops below
  2^19 elements run untiled: the caller's operands go straight to fused
  shard 0, with no conversion or dispatch.  A one-thread backend (runner
  pool workers, 1-CPU hosts) never tiles.  This one constant is the
  whole policy; it was measured on a 2-CPU host (``cpu_count`` 2),
  fused shard vs 2 tiles, warm scratch, best of 3-30 calls, speed-up
  of tiling:

  ======  =====  =====  =====  =======  =====
  n       add    mul    fma    lp_tr19  rsqrt
  ======  =====  =====  =====  =======  =====
  2^15    0.82x  0.64x  0.81x  0.72x    0.47x
  2^16    0.87x  0.76x  0.87x  0.84x    0.75x
  2^17    1.68x  1.23x  1.51x  1.11x    1.53x
  2^18    1.98x  1.62x  2.08x  1.23x    1.95x
  2^19    1.98x  1.97x  2.04x  1.49x    1.89x
  2^20    2.03x  1.78x  1.85x  1.69x    1.99x
  ======  =====  =====  =====  =======  =====

  Warm ops cross over at 2^17.  Cold ones (a fresh backend, as each
  characterization op gets) gain little or lose, median of 8: the 2^18
  fma 44 ms untiled vs 37 ms tiled, but the 2^18 lp_tr19 9.5 vs 11.3 ms
  and the 2^19 fma 73 vs 86 ms.  A whole Figure 8/9 characterization
  pass at 2^18 samples ran 0.82-0.88 s untiled vs 1.01-1.14 s with
  2^17-element tiles, at the same peak RSS, so the floor keeps
  2^18-element ops untiled.  Direct all-imprecise ``fw.evaluate``: 256^2
  grids run untiled; srad 1024^2 x 2 tiles, 5.86 s at one thread against
  3.08 s at two (1.90x, best of 3, the thread-scaling gate of
  ``benchmarks/test_parallel_backend.py``); hotspot 512^2 x 6 would take
  0.66 s tiled against 1.09 s untiled, the win this floor gives up;
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

#: Smallest tile worth a thread: an op tiles only when every tile gets at
#: least this many elements, so nothing below ``2 * MIN_TILE_ELEMENTS``
#: leaves the calling thread.  Measurements in the module docstring.
MIN_TILE_ELEMENTS = 1 << 18


class ThreadedFusedBackend(ComputeBackend):
    """Fused kernels tiled over a ``ThreadPoolExecutor``."""

    name = "threaded"

    def __init__(self, threads: int | None = None):
        self.threads = resolve_thread_count(threads)
        self._min_tile = MIN_TILE_ELEMENTS
        self._shards = [FusedBackend()]

    # ------------------------------------------------------------------
    # Tiling machinery
    # ------------------------------------------------------------------
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

    def _call(self, op: str, operands: tuple, dtype, **params) -> np.ndarray:
        """Run the fused ``op`` on ``operands``, tiled if it is large enough.

        Untiled calls hand the caller's operands straight to shard 0.
        """
        # One thread never tiles: skip even sizing the broadcast.
        n = np.broadcast(*operands).size if self.threads > 1 else 0
        tiles = self._tile_count(n)
        if tiles == 1:
            return getattr(self._shards[0], op)(*operands, dtype=dtype,
                                                **params)
        fmt = format_for_dtype(dtype)
        arrays = np.broadcast_arrays(
            *(np.asarray(x, dtype=fmt.dtype) for x in operands))
        shape = arrays[0].shape
        flats = [np.ascontiguousarray(x.reshape(-1)) for x in arrays]
        out = np.empty(n, dtype=fmt.dtype)
        bounds = self._bounds(n, tiles)
        while len(self._shards) < tiles:
            self._shards.append(FusedBackend())

        def task(i):
            lo, hi = bounds[i], bounds[i + 1]
            out[lo:hi] = getattr(self._shards[i], op)(
                *(f[lo:hi] for f in flats), dtype=dtype, **params)

        with ThreadPoolExecutor(max_workers=tiles) as pool:
            list(pool.map(task, range(tiles)))
        return out.reshape(shape)

    # ------------------------------------------------------------------
    # FPU ops
    # ------------------------------------------------------------------
    def imprecise_add(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_add", (a, b), dtype, threshold=threshold)

    def imprecise_subtract(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                           dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_subtract", (a, b), dtype,
                          threshold=threshold)

    def imprecise_multiply(self, a, b, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_multiply", (a, b), dtype)

    def configurable_multiply(self, a, b, config, dtype=np.float32) -> np.ndarray:
        return self._call("configurable_multiply", (a, b), dtype,
                          config=config)

    def truncated_multiply(self, a, b, truncation: int = 0, dtype=np.float32,
                           rounding: bool = True) -> np.ndarray:
        return self._call("truncated_multiply", (a, b), dtype,
                          truncation=truncation, rounding=rounding)

    def imprecise_fma(self, a, b, c, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_fma", (a, b, c), dtype,
                          threshold=threshold)

    # ------------------------------------------------------------------
    # SFU ops (elementwise: same tiling applies)
    # ------------------------------------------------------------------
    def imprecise_reciprocal(self, x, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_reciprocal", (x,), dtype)

    def imprecise_rsqrt(self, x, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_rsqrt", (x,), dtype)

    def imprecise_sqrt(self, x, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_sqrt", (x,), dtype)

    def imprecise_log2(self, x, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_log2", (x,), dtype)

    def imprecise_divide(self, a, b, dtype=np.float32) -> np.ndarray:
        return self._call("imprecise_divide", (a, b), dtype)
