"""Composite-Simpson quadrature helpers shared by the potential and profile code.

Every integral over a potential (the densities, the geodesic transforms and
the transition profiles) takes `PANELS` panels.  Simpson's rule is exact on
cubics, and for the built-in potentials sqrt(W) and sqrt(V) are polynomials
on [0, 1], so there the count moves nothing but rounding.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

PANELS = 4096


def simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate f over [a, b] with `PANELS` Simpson panels (2*PANELS+1 evaluations)."""
    if a == b:
        return 0.0
    x = np.linspace(a, b, 2 * PANELS + 1)
    y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite integrand value in quadrature")
    w = (b - a) / PANELS / 6.0
    return float(w * (y[0:-1:2].sum() + 4.0 * y[1::2].sum() + y[2::2].sum()))


def cumulative_simpson(f: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of f from a, tabulated at the panel edges.

    Returns (nodes, values) with nodes[0] = a, nodes[-1] = b and
    values[k] = integral over [a, nodes[k]]; per-panel Simpson rule.
    """
    x = np.linspace(a, b, 2 * PANELS + 1)
    y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite integrand value in quadrature")
    w = (b - a) / PANELS / 6.0
    panel = w * (y[0:-1:2] + 4.0 * y[1::2] + y[2::2])
    values = np.concatenate(([0.0], np.cumsum(panel)))
    return x[0::2], values
