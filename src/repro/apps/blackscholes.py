"""Black-Scholes option pricing — the negative control.

Chapter 1 scopes the whole approach: "many applications ... do require
extremely high accuracies, such as various models in financial engineering
where a small error would result in millions of dollars difference."  This
app makes that scoping claim measurable: a Black-Scholes European option
pricer (the classic GPU finance kernel) run on the imprecise units, scored
by the dollar error over a book of options.

The expected result — asserted by the tests and the negative-control bench
— is that *no* Table-1 configuration keeps the book repricing error inside
a one-basis-point tolerance, while the error-tolerant applications sail
through the same hardware.  Imprecise hardware is an application-selective
technique, and this is the application that selects it out.
"""

from __future__ import annotations

import numpy as np

from repro.core import IHWConfig

from .base import AppResult, finish, make_context

__all__ = ["option_book", "run", "reference_run"]

_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))


def option_book(n_options: int = 512, seed: int = 23) -> dict:
    """A synthetic book of European calls: spot, strike, vol, rate, expiry."""
    if n_options < 1:
        raise ValueError(f"need at least one option, got {n_options}")
    rng = np.random.default_rng(seed)
    return {
        "spot": rng.uniform(50.0, 150.0, n_options).astype(np.float32),
        "strike": rng.uniform(50.0, 150.0, n_options).astype(np.float32),
        "vol": rng.uniform(0.1, 0.6, n_options).astype(np.float32),
        "rate": rng.uniform(0.0, 0.08, n_options).astype(np.float32),
        "expiry": rng.uniform(0.1, 2.0, n_options).astype(np.float32),
    }


def _erf_poly(ctx, x):
    """Abramowitz-Stegun erf approximation through the counted ops.

    ``erf(x) ~= 1 - (a1 t + a2 t^2 + a3 t^3) exp(-x^2)`` with
    ``t = 1/(1 + p x)`` — the polynomial form GPU math libraries use, so
    the imprecise mul/add/rcp units all participate.
    """
    p = np.float32(0.47047)
    a1, a2, a3 = np.float32(0.3480242), np.float32(-0.0958798), np.float32(0.7478556)
    ax = np.abs(x).astype(ctx.dtype)
    t = ctx.rcp(ctx.add(np.float32(1.0), ctx.mul(p, ax)))
    poly = ctx.mul(
        t, ctx.add(a1, ctx.mul(t, ctx.add(a2, ctx.mul(a3, t))))
    )
    # exp is host-evaluated (the SFU exp unit is outside the paper's set).
    gauss = np.exp(-np.asarray(ax, dtype=np.float64) ** 2).astype(ctx.dtype)
    magnitude = ctx.sub(np.float32(1.0), ctx.mul(poly, gauss))
    return np.where(np.asarray(x) < 0, -magnitude, magnitude).astype(ctx.dtype)


def _norm_cdf(ctx, x):
    """Standard normal CDF via the counted erf."""
    return ctx.mul(
        np.float32(0.5),
        ctx.add(np.float32(1.0), _erf_poly(ctx, ctx.mul(x, _INV_SQRT2))),
    )


def run(
    config: IHWConfig | None = None,
    n_options: int = 512,
    book: dict | None = None,
) -> AppResult:
    """Price the book; returns the per-option call prices (dollars)."""
    ctx = make_context(config)
    if book is None:
        book = option_book(n_options)
    s = ctx.array(book["spot"])
    k = ctx.array(book["strike"])
    v = ctx.array(book["vol"])
    r = ctx.array(book["rate"])
    t = ctx.array(book["expiry"])

    sqrt_t = ctx.sqrt(t)
    vol_sqrt_t = ctx.mul(v, sqrt_t)
    # d1 = [ln(S/K) + (r + v^2/2) t] / (v sqrt(t))
    log_moneyness = ctx.mul(
        np.float32(np.log(2.0)), ctx.log2(ctx.div(s, k))
    )
    drift = ctx.mul(
        ctx.add(r, ctx.mul(np.float32(0.5), ctx.mul(v, v))), t
    )
    d1 = ctx.div(ctx.add(log_moneyness, drift), vol_sqrt_t)
    d2 = ctx.sub(d1, vol_sqrt_t)

    discount = np.exp(
        # float64 discount factor, computed once per batch
        -np.asarray(r, dtype=np.float64) * np.asarray(t, dtype=np.float64)
    ).astype(ctx.dtype)
    price = ctx.sub(
        ctx.mul(s, _norm_cdf(ctx, d1)),
        ctx.mul(ctx.mul(k, discount), _norm_cdf(ctx, d2)),
    )
    prices = np.maximum(np.asarray(price, dtype=np.float64), 0.0)

    n = len(prices)
    return finish(
        "blackscholes",
        prices,
        ctx,
        int_ops=6 * n,
        mem_ops=8 * n,
        ctrl_ops=n,
        threads=n,
    )


def reference_run(n_options: int = 512, book: dict | None = None) -> AppResult:
    """The precise pricing run."""
    return run(None, n_options=n_options, book=book)
