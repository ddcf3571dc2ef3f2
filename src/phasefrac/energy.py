"""Diffuse energy of a (c, u, z) triplet and its exact discrete gradients.

The energy is the midpoint-rule evaluation of

    E = int phi_delta(z) (W(c)/eps + eps |grad c|^2)
      + int (psi(z) + eta(delta)) C(e(u) - c e0)
      + int (V(z)/delta + delta |grad z|^2)

with C the isotropic quadratic form C(xi) = lambda tr(xi)^2 + 2 mu |xi|^2 and
psi the stiffness degradation (default psi(z) = z^2, eta = delta^2, which is
the plain (z^2 + delta^2) weight).  Gradients are derivatives of the discrete
energy with respect to nodal values (discretize-then-differentiate), so the
solver's descent property holds exactly; they are validated against central
finite differences in the test suite.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (Grid, ScalarField, VectorField, gradient, gradient_adjoint,
                     integrate, sym_gradient, sym_gradient_adjoint)
from .potentials import PotentialSet


def _psi_quadratic(z):
    return np.asarray(z) ** 2


def _dpsi_quadratic(z):
    return 2.0 * np.asarray(z)


def _psi_linear(z):
    return np.asarray(z) * 1.0


def _dpsi_linear(z):
    return np.ones_like(np.asarray(z, dtype=float))


def _eta_delta_squared(delta: float) -> float:
    return delta * delta


def _eta_delta_cubed(delta: float) -> float:
    return delta ** 3


# by name: the degradation psi with its derivative, and the rule delta -> eta
DEGRADATIONS = {"quadratic": (_psi_quadratic, _dpsi_quadratic),
                "linear": (_psi_linear, _dpsi_linear)}
ETA_RULES = {"delta_squared": _eta_delta_squared, "delta_cubed": _eta_delta_cubed}


@dataclass(frozen=True)
class ElasticModel:
    """Isotropic elasticity with lattice-misfit strain and damage degradation."""
    lame_lambda: float = 0.0
    lame_mu: float = 0.5
    e0: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))
    psi: Callable = _psi_quadratic
    dpsi: Callable = _dpsi_quadratic
    eta_rule: Callable[[float], float] = _eta_delta_squared

    def __post_init__(self):
        object.__setattr__(self, "e0", np.asarray(self.e0, dtype=float))
        if self.lame_mu <= 0 or self.lame_lambda < 0:
            raise ValueError("need mu > 0 and lambda >= 0")
        if self.e0.ndim != 2 or self.e0.shape[0] != self.e0.shape[1]:
            raise ValueError("e0 must be a square matrix")
        if not np.allclose(self.e0, self.e0.T, atol=1e-14):
            raise ValueError("e0 must be symmetric")
        if abs(float(self.psi(1.0)) - 1.0) > 1e-12 or abs(float(self.psi(0.0))) > 1e-12:
            raise ValueError("degradation must satisfy psi(0) = 0, psi(1) = 1")

    def form(self, xi: np.ndarray) -> np.ndarray:
        """Quadratic form C(xi) per cell; xi has shape cells + (d, d), symmetric."""
        tr = np.trace(xi, axis1=-2, axis2=-1)
        return self.lame_lambda * tr * tr + 2.0 * self.lame_mu * np.sum(xi * xi, axis=(-2, -1))

    def dform(self, xi: np.ndarray) -> np.ndarray:
        """Derivative of the form: dC(xi) = 2 lambda tr(xi) I + 4 mu xi."""
        d = xi.shape[-1]
        tr = np.trace(xi, axis1=-2, axis2=-1)
        return (2.0 * self.lame_lambda * tr[..., None, None] * np.eye(d)
                + 4.0 * self.lame_mu * xi)

    def eta(self, delta: float) -> float:
        val = float(self.eta_rule(delta))
        if val <= 0:
            raise ValueError("eta(delta) must be positive")
        return val


@dataclass(frozen=True)
class DiffuseState:
    """The triplet (c, u, z) with its regularization lengths (eps, delta).

    z is stored as given; energy evaluation clamps degradation arguments to
    [0, 1] and counts the clamped cells, the solver keeps z in the box by
    projection.
    """
    c: ScalarField
    u: VectorField
    z: ScalarField
    eps: float
    delta: float

    def __post_init__(self):
        if self.eps <= 0 or self.delta <= 0:
            raise ValueError("eps and delta must be positive")
        if self.c.grid != self.u.grid or self.c.grid != self.z.grid:
            raise ValueError("c, u, z must share one grid")

    @property
    def grid(self) -> Grid:
        return self.c.grid

    def replace(self, **kw) -> "DiffuseState":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component values plus evaluation metadata (clamp audit, tube bound)."""
    e_phase: float
    e_elastic: float
    e_crack: float
    clamped_cells: int = 0
    excluded_bound: float = 0.0

    def __post_init__(self):
        for name in ("e_phase", "e_elastic", "e_crack"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def e_total(self) -> float:
        return self.e_phase + self.e_elastic + self.e_crack


def _raise_nonfinite(density: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(density)):
        idx = np.unravel_index(int(np.argmax(~np.isfinite(density))), density.shape)
        raise ValueError(f"non-finite {label} density at cell {tuple(int(i) for i in idx)}")


def _integral(density: np.ndarray, label: str, vol: float) -> float:
    _raise_nonfinite(density, label)
    return float(vol * density.sum())


def _stress_divergence(grid: Grid, M: ElasticModel, weight: np.ndarray,
                       xi: np.ndarray) -> np.ndarray:
    """vol * e*^T[weight dC(xi)], linear in xi: dE/du at the misfit
    xi = e(u) - c e0, the u-step's operator at e(u) and its right side at c e0."""
    return grid.cell_volume * sym_gradient_adjoint(
        weight[..., None, None] * M.dform(xi), grid.spacing)


def evaluate(s: DiffuseState, P: PotentialSet, M: ElasticModel,
             blocks: str = "") -> tuple[EnergyBreakdown, dict[str, np.ndarray]]:
    """The energy plus the nodal gradients of the named blocks of "cuz", in
    one pass: `blocks="cz"` returns {"c": dE/dc, "z": dE/dz} as plain arrays
    shaped like the block's values.  A gradient is the derivative of the
    discrete energy with respect to nodal values, not an L2 representative.
    The clamp, grad c, grad z and the misfit are formed once."""
    grid = s.grid
    h, vol = grid.spacing, grid.cell_volume
    c, z = s.c.values, s.z.values
    outside = (z < 0.0) | (z > 1.0)
    zc = np.clip(z, 0.0, 1.0)
    phase_weight = P.phi(zc) + P.c_delta(s.delta)
    elastic_weight = M.psi(zc) + M.eta(s.delta)
    gc = gradient(c, h)
    gz = gradient(z, h)
    xi = sym_gradient(s.u.values, h) - c[..., None, None] * M.e0
    phase_raw = P.w(c) / s.eps + s.eps * np.sum(gc * gc, axis=-1)
    form = M.form(xi)
    energy = EnergyBreakdown(
        _integral(phase_weight * phase_raw, "interfacial", vol),
        _integral(elastic_weight * form, "elastic", vol),
        _integral(P.v(zc) / s.delta + s.delta * np.sum(gz * gz, axis=-1), "crack", vol),
        int(np.count_nonzero(outside)))
    grads = {}
    if "c" in blocks:
        out = phase_weight * P.dw(c) / s.eps
        out += 2.0 * s.eps * gradient_adjoint(phase_weight[..., None] * gc, h)
        out -= elastic_weight * np.sum(M.dform(xi) * M.e0, axis=(-2, -1))
        grads["c"] = vol * out
    if "u" in blocks:
        grads["u"] = _stress_divergence(grid, M, elastic_weight, xi)
    if "z" in blocks:
        # chain rule of the clamp: zero derivative strictly outside the box,
        # the inside value on the faces (defaults have zero slope there anyway)
        mask = np.where(outside, 0.0, 1.0)
        out = mask * P.dphi(zc) * phase_raw
        out += mask * M.dpsi(zc) * form
        out += mask * P.dv(zc) / s.delta
        out += 2.0 * s.delta * gradient_adjoint(gz, h)
        grads["z"] = vol * out
    return energy, grads


def diffuse_energy(s: DiffuseState, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    return evaluate(s, P, M)[0]


def mass(c: ScalarField) -> float:
    """Mean concentration over the domain."""
    vol = float(np.prod(c.grid.extent))
    return integrate(c) / vol


def project_mass(c: ScalarField, mu0: float) -> ScalarField:
    """Shift c by a constant so its mean equals mu0 exactly."""
    return ScalarField(c.grid, c.values + (mu0 - mass(c)))
