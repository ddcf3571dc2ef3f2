"""Near-optimal 1D transition profiles and the diffuse embedding of a sharp
configuration.

For a well potential f and regularization lambda > 0, the profile inverse is

    zeta(s) = int_0^s scale / sqrt(lambda + f(t)) dt,

and the transition g(r) is 0 for r < 0, zeta^{-1} on [0, zeta(1)], 1 beyond.
Its derivative satisfies g'(r) = sqrt(lambda + f(g(r))) / scale, which makes
the profile energy computable without numerical differentiation and bounded
by int_0^1 2 sqrt(f) + 2 sqrt(lambda).

`build_recovery` samples a diffuse triplet from the exact distance fields of
a sharp configuration:

    c(x) = g_W(zeta_W(1) - dist(x, A))          (c = 1 on A, layer outside)
    z(x) = g_V(dist(x, M) - lambda*delta)       (z = 0 on a tube around M)
    u(x) = u_sharp(x) * smoothstep(dist(x, M) / (lambda*delta))

When both a phase boundary and a crack are present, the construction confines
the c-transition to the damaged tube only if zeta_W(1) <= eps/sqrt(lambda)
<= lambda*delta (the width condition); the builder enforces it by default and
can be told not to for regimes where only the energy values matter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import cumulative_simpson, simpson
from .energy import DiffuseState
from .fields import Grid, ScalarField, VectorField
from .potentials import PotentialSet

_TABLE_PANELS = 4096


class WidthConditionError(ValueError):
    """The c-transition does not fit inside the damaged tube."""


class ResolutionError(ValueError):
    """A transition profile is thinner than two grid cells."""


@dataclass(frozen=True)
class ProfileParams:
    """Which well to traverse, its regularization floor, and the length scale."""
    f: Callable[[np.ndarray], np.ndarray]
    lam: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie strictly in (0, 1)")
        if self.scale <= 0.0:
            raise ValueError("profile scale must be positive")

    @classmethod
    def from_potentials(cls, P: PotentialSet, which: str, lam: float,
                        scale: float) -> "ProfileParams":
        if which == "W":
            return cls(P.w, lam, scale)
        if which == "V":
            return cls(P.v, lam, scale)
        raise ValueError(f"unknown potential {which!r}; expected 'W' or 'V'")


@dataclass(frozen=True)
class OptimalProfile:
    """Tabulated zeta with monotone piecewise-linear interpolation."""
    params: ProfileParams
    s_nodes: np.ndarray
    zeta_nodes: np.ndarray

    @property
    def width(self) -> float:
        return float(self.zeta_nodes[-1])

    def zeta(self, s) -> np.ndarray | float:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise ValueError("zeta argument outside [0, 1]")
        out = np.interp(s, self.s_nodes, self.zeta_nodes)
        return float(out) if out.ndim == 0 else out

    def g(self, r) -> np.ndarray | float:
        """Monotone inverse of zeta, clamped: 0 below 0, 1 above the width."""
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.zeta_nodes, r, side="right")
        idx = np.clip(idx, 1, len(self.zeta_nodes) - 1)
        z0 = self.zeta_nodes[idx - 1]
        z1 = self.zeta_nodes[idx]
        s0 = self.s_nodes[idx - 1]
        s1 = self.s_nodes[idx]
        out = s0 + (r - z0) / (z1 - z0) * (s1 - s0)
        out = np.clip(out, 0.0, 1.0)
        out = np.where(r <= 0.0, 0.0, np.where(r >= self.width, 1.0, out))
        return float(out) if out.ndim == 0 else out


def build_profile(pp: ProfileParams, panels: int = _TABLE_PANELS) -> OptimalProfile:
    s, zeta_vals = cumulative_simpson(
        lambda t: pp.scale / np.sqrt(pp.lam + np.maximum(pp.f(t), 0.0)),
        0.0, 1.0, panels)
    if not np.all(np.diff(zeta_vals) > 0.0):
        raise ValueError("zeta tabulation is not strictly increasing")
    width_cap = pp.scale / np.sqrt(pp.lam)
    if zeta_vals[-1] > width_cap * (1.0 + 1e-12):
        raise ValueError("profile width exceeds scale/sqrt(lambda)")
    return OptimalProfile(pp, s, zeta_vals)


def profile_energy_1d(pp: ProfileParams) -> float:
    """Energy int_0^{zeta(1)} (f(g)/scale + scale g'^2) dr of one transition.

    Using g' = sqrt(lambda + f(g))/scale, the integrand in the s-variable is
    (2 f + lambda)/sqrt(lambda + f); the value is at most
    int_0^1 2 sqrt(f) ds + 2 sqrt(lambda).
    """
    return simpson(
        lambda s: (2.0 * np.maximum(pp.f(s), 0.0) + pp.lam)
        / np.sqrt(pp.lam + np.maximum(pp.f(s), 0.0)),
        0.0, 1.0, _TABLE_PANELS)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Cubic 3t^2 - 2t^3 clamped to [0, 1]; slope bounded by 3/2."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def build_recovery(geometry, eps: float, delta: float, lam: float, grid: Grid,
                   P: PotentialSet, enforce_width: bool = True) -> DiffuseState:
    """Sample the diffuse embedding of a sharp configuration on a grid.

    Raises WidthConditionError when the configuration has both a phase
    boundary and a crack but eps/sqrt(lam) > lam*delta (the c-transition then
    leaks out of the damaged tube; pass enforce_width=False to build anyway,
    e.g. for energy sweeps in the asymptotic regime).  Raises ResolutionError
    when a needed transition is thinner than two cells.
    """
    if grid.dim != geometry.dim:
        raise ValueError("grid and geometry dimensions differ")
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    has_phase = geometry.has_phase()
    has_crack = geometry.has_crack()
    if enforce_width and has_phase and has_crack:
        if eps / np.sqrt(lam) > lam * delta * (1.0 + 1e-12):
            raise WidthConditionError(
                f"eps/sqrt(lambda) = {eps / np.sqrt(lam):.3e} exceeds "
                f"lambda*delta = {lam * delta:.3e}")

    pts = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=-1)
    hmax = max(grid.spacing)

    if has_phase:
        prof_w = build_profile(ProfileParams.from_potentials(P, "W", lam, eps))
        if prof_w.width < 2.0 * hmax:
            raise ResolutionError(
                f"c-transition width {prof_w.width:.3e} needs spacing < "
                f"{prof_w.width / 2:.3e}; refine the grid")
        c_vals = prof_w.g(prof_w.width - geometry.phase_distance(pts))
    else:
        c_vals = np.zeros(pts.shape[0])

    if has_crack:
        prof_v = build_profile(ProfileParams.from_potentials(P, "V", lam, delta))
        if prof_v.width < 2.0 * hmax:
            raise ResolutionError(
                f"z-transition width {prof_v.width:.3e} needs spacing < "
                f"{prof_v.width / 2:.3e}; refine the grid")
        crack_dist = geometry.crack_distance(pts)
        z_vals = prof_v.g(crack_dist - lam * delta)
        u_vals = geometry.u_values(pts) * smoothstep(crack_dist / (lam * delta))[:, None]
    else:
        z_vals = np.ones(pts.shape[0])
        u_vals = geometry.u_values(pts)

    d = grid.dim
    return DiffuseState(
        c=ScalarField(grid, c_vals.reshape(grid.cells)),
        u=VectorField(grid, u_vals.reshape(grid.cells + (d,))),
        z=ScalarField(grid, z_vals.reshape(grid.cells)),
        eps=eps, delta=delta)
