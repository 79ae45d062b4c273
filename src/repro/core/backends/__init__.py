"""Pluggable compute backends for the imprecise unit operations.

One semantic contract, two interchangeable execution engines:

- ``reference`` — the original vectorized NumPy units (the parity oracle
  and the runner's fallback target);
- ``threaded`` — the default: the single-pass kernels of
  :class:`~repro.core.backends.fused.FusedBackend` (preallocated scratch,
  in-place ufuncs, lazy special-case handling), with large ops tiled
  across a thread pool.  With one thread (``threads=1``, a runner pool
  worker, ``REPRO_THREADS=1``) or below the tile floor it runs one fused
  kernel untiled.

Only ``threaded`` accepts a thread count (``get_backend("threaded",
threads=N)``); resolution and the runner-worker oversubscription contract
live in :mod:`repro.core.backends.threads`.

Backends are **contractually bit-identical**: the parity harness
(:mod:`repro.core.backends.parity`, run by ``tests/test_backends.py`` and
``tests/test_parallel.py``) sweeps random and adversarial operand vectors
and asserts exact equality against ``reference``.  Because the numbers
cannot differ, the backend choice is deliberately excluded from
:meth:`~repro.core.config.IHWConfig.canonical` — result caches are shared
across backends.

Selection, in priority order:

1. the ``backend=`` argument of :class:`~repro.core.context.ArithmeticContext`;
2. :attr:`IHWConfig.backend <repro.core.config.IHWConfig.backend>`;
3. the ``REPRO_BACKEND`` environment variable;
4. ``threaded`` (:data:`DEFAULT_BACKEND`).
"""

from __future__ import annotations

import os

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "backend_names",
    "backend_accepts_threads",
    "default_backend_name",
    "get_backend",
]

#: Environment variable selecting the process-wide default backend.
ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither the caller, the config nor ``REPRO_BACKEND``
#: selects one.
DEFAULT_BACKEND = "threaded"


def _make_reference():
    from .base import ReferenceBackend

    return ReferenceBackend()


def _make_threaded(threads=None):
    from .threaded import ThreadedFusedBackend

    return ThreadedFusedBackend(threads=threads)


_FACTORIES = {
    "reference": _make_reference,
    "threaded": _make_threaded,
}


def backend_accepts_threads(name: str) -> bool:
    """Whether the named backend's factory takes a thread count."""
    return name == "threaded"


def backend_names() -> tuple:
    """Every registered backend name."""
    return tuple(_FACTORIES)


def default_backend_name() -> str:
    """The backend selected by ``REPRO_BACKEND``, or :data:`DEFAULT_BACKEND`.

    Raises ``ValueError`` for an unknown name so a typo in the environment
    fails loudly instead of silently running the wrong engine.
    """
    name = os.environ.get(ENV_VAR, "").strip().lower()
    if not name:
        return DEFAULT_BACKEND
    if name not in _FACTORIES:
        raise ValueError(
            f"{ENV_VAR}={name!r} is not a registered backend; "
            f"expected one of {backend_names()}"
        )
    return name


def get_backend(name=None, threads=None):
    """Resolve a backend selection to a fresh :class:`ComputeBackend`.

    ``name`` may be a backend name, an existing backend instance (returned
    as-is), or ``None`` for the environment/default resolution.  Each call
    returns a fresh instance because backends may hold per-context scratch
    buffers, which die with the instance.  ``threads`` is forwarded to the
    ``threaded`` factory; requesting threads from a backend without a
    thread pool is an error (``None`` is always accepted and means
    "resolve the default").
    """
    from .base import ComputeBackend

    if isinstance(name, ComputeBackend):
        return name
    if name is None:
        name = default_backend_name()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {backend_names()}"
        )
    if backend_accepts_threads(name):
        return _FACTORIES[name](threads=threads)
    if threads is not None:
        raise ValueError(
            f"backend {name!r} does not take a thread count; "
            "threads applies to 'threaded' only"
        )
    return _FACTORIES[name]()
