"""Op coverage at run time: no kernel arithmetic bypasses ArithmeticContext.

GPGPU-Sim executes every FP instruction of a kernel, so none can run
outside the paper's imprecise-unit model.  The same property is checked
here where the ops run: under :func:`guarded`, every value an
:class:`ArithmeticContext` hands a kernel is a :class:`DeviceArray`,
which refuses the numpy arithmetic a counted unit op stands for.  An op
that escaped the context would stay precise, go uncounted and skew the
power model.  Host-side steps unwrap a device value explicitly with
``np.asarray``, ``.view(np.ndarray)``, ``float()``, ``.item()`` or
``.tolist()``.
"""

from __future__ import annotations

import contextlib
import pickle

import numpy as np
import pytest

from repro.apps import (
    art, blackscholes, cp, dct, gromacs, hotspot, raytrace, sphinx, srad,
)
from repro.apps.base import make_context
from repro.core import ArithmeticContext, IHWConfig

#: Arithmetic a device value may only reach through the context, under
#: every ufunc method (``__call__``, ``at``, ``reduce``, ``accumulate``,
#: ``outer``).  Comparisons, ``maximum``/``minimum``/``clip`` and the
#: sign-bit ops ``negative``/``absolute`` (GPU operand modifiers, not
#: counted unit ops) stay allowed.
REFUSED_UFUNCS = frozenset({
    "add", "subtract", "multiply", "divide", "floor_divide", "remainder",
    "fmod", "power", "float_power", "reciprocal", "sqrt", "cbrt", "square",
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "sin", "cos", "tan", "arctan2", "hypot", "matmul",
})
REFUSED_FUNCTIONS = frozenset({
    "dot", "inner", "outer", "tensordot", "einsum", "cumsum", "cumprod",
})


def _host(value):
    return value.view(np.ndarray) if isinstance(value, DeviceArray) else value


def _device(value):
    """``value`` as a DeviceArray when it holds floats (scalars included)."""
    if isinstance(value, (tuple, list)):
        return type(value)(_device(item) for item in value)
    if isinstance(value, (np.ndarray, np.floating)) and value.dtype.kind == "f":
        return np.asarray(value).view(DeviceArray)
    return value


class DeviceArray(np.ndarray):
    """A context-computed value: numpy arithmetic on it raises TypeError."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc.__name__ in REFUSED_UFUNCS:
            raise TypeError(f"np.{ufunc.__name__}.{method} on a device value "
                            "bypasses ArithmeticContext")
        if "out" in kwargs:
            kwargs["out"] = tuple(_host(out) for out in kwargs["out"])
        inputs = tuple(_host(value) for value in inputs)
        return _device(getattr(ufunc, method)(*inputs, **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        if func.__name__ in REFUSED_FUNCTIONS:
            raise TypeError(f"np.{func.__name__} on a device value "
                            "bypasses ArithmeticContext")
        return _device(super().__array_function__(func, types, args, kwargs))


@contextlib.contextmanager
def guarded():
    """Hand kernels DeviceArrays from every context op and ``ctx.array``."""
    run, array = ArithmeticContext._run, ArithmeticContext.array

    def guarded_run(self, op, precise, operands):
        return _device(run(self, op, precise, tuple(map(_host, operands))))

    def guarded_array(self, values):
        return _device(array(self, _host(values)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArithmeticContext, "_run", guarded_run)
        patch.setattr(ArithmeticContext, "array", guarded_array)
        yield


@pytest.fixture
def guard():
    with guarded():
        yield


# ----------------------------------------------------------------------
# Kernels that bypass the context, and kernels that do not
# ----------------------------------------------------------------------
IMAGE = np.linspace(0.5, 2.0, 16, dtype=np.float32).reshape(4, 4)


def _scale(ctx, image):
    return ctx.mul(image, np.float32(2.0))


def _shift(image, bias):
    return image + bias


class _Kernel:
    def _scale(self, ctx, image):
        return ctx.mul(image, 2.0)

    def run(self, ctx, image):
        return self._scale(ctx, image) * 2


def _inplace(ctx, image):
    total = ctx.add(image, image)
    total += 1.0
    return total


def _rebound(ctx, image):
    c = make_context(IHWConfig.all_imprecise())
    out = c.add(image, image)
    return out * 2


def _good(ctx, image):
    doubled = ctx.add(image, image)
    scaled = ctx.mul(doubled, np.float32(0.5))
    return scaled, float(np.mean(np.asarray(scaled)))


BYPASSES = {
    "raw-add": lambda ctx, image: ctx.array(image) + ctx.array(image),
    "np-sqrt": lambda ctx, image: np.sqrt(ctx.array(image)),
    "inplace-add": _inplace,
    "rebound-context": _rebound,
    "helper-result": lambda ctx, image: np.add(_scale(ctx, image), 1),
    "method-result": lambda ctx, image: _Kernel().run(ctx, image),
    "vstack-result": lambda ctx, image: np.vstack([ctx.array(image)]) * 2,
    "np-dot": lambda ctx, image: np.dot(ctx.array(image), image),
    "reduction": lambda ctx, image: np.mean(ctx.array(image)),
}

CLEAN = {
    "good-kernel": _good,
    "asarray-unwrap": lambda ctx, image: np.asarray(ctx.array(image)) + 128.0,
    "float-extraction": lambda ctx, image: float(
        np.asarray(ctx.add(image, image)).sum()) / 2.0,
    "host-helper": lambda ctx, image: _shift(image, 1.0),
}


@pytest.mark.parametrize("kernel", BYPASSES.values(), ids=BYPASSES.keys())
def test_bypass_is_refused(guard, kernel):
    with pytest.raises(TypeError, match="bypasses ArithmeticContext"):
        kernel(make_context(None), IMAGE)


@pytest.mark.parametrize("kernel", CLEAN.values(), ids=CLEAN.keys())
def test_clean_kernel_runs(guard, kernel):
    kernel(make_context(None), IMAGE)


def test_bypass_runs_without_the_guard():
    for kernel in BYPASSES.values():
        kernel(make_context(None), IMAGE)


# ----------------------------------------------------------------------
# All nine apps under the guard: same bytes, same counts
# ----------------------------------------------------------------------
CONFIGS = {
    "precise": None,
    "all-imprecise": IHWConfig.all_imprecise(),
    "mitchell-fp_tr8": IHWConfig.all_imprecise().with_multiplier(
        "mitchell", config="fp_tr8"),
    "quadratic-sfu": IHWConfig.all_imprecise().with_sfu_mode("quadratic"),
}

APPS = {
    "hotspot": (hotspot.run, dict(rows=16, cols=16, iterations=4)),
    "hotspot-fma": (hotspot.run,
                    dict(rows=16, cols=16, iterations=4, use_fma=True)),
    "srad": (srad.run, dict(rows=16, cols=16, iterations=3)),
    "raytrace": (raytrace.run, dict(width=8, height=8, depth=0)),
    "raytrace-reflections": (raytrace.run, dict(width=8, height=8, depth=2)),
    "cp": (cp.run, dict(grid=8, precise_coordinates=False)),
    "cp-precise-coordinates": (cp.run,
                               dict(grid=8, precise_coordinates=True)),
    "dct": (dct.run, dict(size=16)),
    "blackscholes": (blackscholes.run, dict(n_options=16)),
    "art": (art.run, dict(size=32, location=(8, 8), stride=8)),
    "gromacs": (gromacs.run, dict(n_side=2, steps=3)),
    "sphinx": (sphinx.run, {}),
}


def _run_guarded(run, params, config):
    """``run`` under the guard, with the same bytes and counts as without."""
    plain = run(config, **params)
    with guarded():
        checked = run(config, **params)
    assert pickle.dumps(checked.output) == pickle.dumps(plain.output)
    assert checked.counters == plain.counters
    assert checked.op_counts == plain.op_counts
    return checked


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("app", APPS.values(), ids=APPS.keys())
def test_app_runs_under_guard(app, config):
    run, params = app
    _run_guarded(run, params, config)


def test_raytrace_reflects_under_imprecise_units():
    """The Table-1 multiplier alone keeps an all-imprecise 8² image off
    every sphere, so no ray reflects there; without it, rays reach the
    reflection code under every other imprecise unit."""
    config = IHWConfig.all_imprecise().without_units("mul")
    run, params = APPS["raytrace-reflections"]
    reflected = _run_guarded(run, params, config)
    flat = run(config, **{**params, "depth": 0})
    assert sum(reflected.op_counts.values()) > sum(flat.op_counts.values())
