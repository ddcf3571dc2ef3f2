"""Scalar potentials for the coupled phase-separation / fracture energy.

Houses the double well W (phase concentration), the single well V (damage),
the interfacial degradation weight phi with its vanishing offset C_delta,
the geodesic transforms d_f(t) = 2*int_0^t sqrt(min(f, M)) ds, and the
energy densities alpha_surf = 2*int_0^1 sqrt(W), alpha_frac = 4*int_0^1 sqrt(V).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import cumulative_simpson, simpson

Scalar = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PotentialSet:
    """A full set of admissible potentials and the coercivity constant C.

    All callables are vectorized over numpy arrays. Derivatives are required
    so the energy gradients are available without numerical differentiation.
    `theta` is the residual interfacial weight on fully damaged material:
    phi(0) = theta, phi(1) = 1.  `c_delta_scale` is the positive slope of
    the vanishing offset C_delta = c_delta_scale * delta.  The caps
    `m_cap_w`, `m_cap_v` (sup of W and V on [0, 1]) are derived from `w` and
    `v`, so `dataclasses.replace` recomputes them.  `coercivity` is the C
    of the growth condition W(s) >= |s|/C that `check_admissibility` tests.
    Every integral over the potentials takes `_quad.PANELS` Simpson panels.
    """
    w: Scalar
    dw: Scalar
    v: Scalar
    dv: Scalar
    phi: Scalar
    dphi: Scalar
    c_delta_scale: float
    theta: float
    coercivity: float
    m_cap_w: float = field(init=False)
    m_cap_v: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.coercivity < np.inf:
            raise ValueError(f"coercivity must be positive and finite, got {self.coercivity}")
        if not 0.0 < self.c_delta_scale < np.inf:
            raise ValueError(f"c_delta_scale must be positive and finite, "
                             f"got {self.c_delta_scale}")
        s = np.linspace(0.0, 1.0, 4097)
        object.__setattr__(self, "m_cap_w", float(np.max(self.w(s))))
        object.__setattr__(self, "m_cap_v", float(np.max(self.v(s))))

    def c_delta(self, delta: float) -> float:
        return self.c_delta_scale * delta


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple[ConditionCheck, ...]
    m_samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"admissibility at {self.m_samples} samples: "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{status}] {c.name:<24} margin={c.margin:+.6e}{extra}")
        return "\n".join(lines)


def make_default_potentials(theta: float = 0.0,
                            w_scale: float = 1.0,
                            v_scale: float = 1.0,
                            c_delta_scale: float = 1.0,
                            coercivity: float = 4.0) -> PotentialSet:
    """Default admissible set: W(s)=s^2(1-s)^2, V(s)=(1-s)^2, phi(m)=2m-m^2.

    phi is the normalized partial fracture integral int_0^m sqrt(V) / int_0^1 sqrt(V),
    the canonical choice that satisfies the mixing bound with margin >= 0 at every m.
    C_delta = c_delta_scale * delta.  The set's phi is theta + (1-theta)*phi; at
    theta = 0 that is phi up to the sign of the zero at -0.0, which no caller
    sees, since each adds C_delta > 0.  This is the one builder of a
    `PotentialSet`, and the one source of its defaults.
    """
    def w(s):
        s = np.asarray(s, dtype=float)
        return w_scale * (s * (1.0 - s)) ** 2

    def dw(s):
        s = np.asarray(s, dtype=float)
        return w_scale * 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def v(s):
        s = np.asarray(s, dtype=float)
        return v_scale * (1.0 - s) ** 2

    def dv(s):
        s = np.asarray(s, dtype=float)
        return v_scale * (-2.0) * (1.0 - s)

    def phi(m):
        m = np.asarray(m, dtype=float)
        return theta + (1.0 - theta) * (2.0 * m - m * m)

    def dphi(m):
        m = np.asarray(m, dtype=float)
        return (1.0 - theta) * (2.0 - 2.0 * m)

    return PotentialSet(w=w, dw=dw, v=v, dv=dv, phi=phi, dphi=dphi,
                        c_delta_scale=c_delta_scale,
                        theta=theta, coercivity=coercivity)


def surface_density(P: PotentialSet) -> float:
    """alpha_surf = 2 * int_0^1 sqrt(W(s)) ds."""
    val = 2.0 * simpson(lambda s: np.sqrt(np.maximum(P.w(s), 0.0)), 0.0, 1.0)
    if val <= 0:
        raise ValueError("surface density must be positive")
    return val


def fracture_density(P: PotentialSet) -> float:
    """alpha_frac = 4 * int_0^1 sqrt(V(s)) ds."""
    val = 4.0 * simpson(lambda s: np.sqrt(np.maximum(P.v(s), 0.0)), 0.0, 1.0)
    if val <= 0:
        raise ValueError("fracture density must be positive")
    return val


def _capped_sqrt(f: Scalar, cap: float) -> Scalar:
    def g(s):
        return np.sqrt(np.minimum(np.maximum(f(s), 0.0), cap))
    return g


def geodesic_transform(which: str, P: PotentialSet, t: float) -> float:
    """d_f(t) = 2 * int_0^t sqrt(min(f(s), M)) ds with M the sup of f on [0, 1].

    Strictly increasing and Lipschitz with constant 2*sqrt(M); d_f(0) = 0.
    """
    f, cap = _resolve_potential(which, P)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0.0:
        return 0.0
    return 2.0 * simpson(_capped_sqrt(f, cap), 0.0, float(t))


def geodesic_table(which: str, P: PotentialSet, lo: float,
                   hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate d_f on [lo, hi] (anchored at d_f(0) = 0) for vectorized composition."""
    f, cap = _resolve_potential(which, P)
    nodes, cum = cumulative_simpson(_capped_sqrt(f, cap), lo, hi)
    anchor = geodesic_transform(which, P, lo)
    return nodes, anchor + 2.0 * cum


def _resolve_potential(which: str, P: PotentialSet) -> tuple[Scalar, float]:
    if which == "W":
        return P.w, P.m_cap_w
    if which == "V":
        return P.v, P.m_cap_v
    raise ValueError(f"unknown potential {which!r}; expected 'W' or 'V'")


def phi_delta(P: PotentialSet, delta: float, z):
    """Degraded interfacial weight phi(z) + C_delta; defined for z in [0, 1] only."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("phi_delta argument outside [0, 1]")
    out = P.phi(z) + P.c_delta(delta)
    return float(out) if out.ndim == 0 else out


def check_admissibility(P: PotentialSet, m_samples: int = 10001) -> AdmissibilityReport:
    """Sampled falsifier for the structural conditions on (W, V, phi).

    Continuous-range conditions are checked on grids of m_samples nodes; a pass
    means "not falsified at this density", not a proof. Non-finite potential
    values are reported as failed conditions rather than raised.
    """
    if m_samples < 2:
        raise ValueError("m_samples must be >= 2")
    checks: list[ConditionCheck] = []
    exact_tol = 1e-12
    quad_tol = 1e-9

    def run(name: str, fn) -> None:
        try:
            margin, detail = fn()
        except (ValueError, FloatingPointError, OverflowError) as exc:
            checks.append(ConditionCheck(name, False, float("-inf"), f"evaluation failed: {exc}"))
            return
        if not np.isfinite(margin):
            checks.append(ConditionCheck(name, False, float(margin), "non-finite margin"))
            return
        checks.append(ConditionCheck(name, bool(margin >= 0.0), float(margin), detail))

    spacing = 3.0 / (m_samples - 1)

    def w_wells():
        vals = np.abs(np.asarray([P.w(np.array(0.0)), P.w(np.array(1.0))]))
        return exact_tol - float(np.max(vals)), "W vanishes at 0 and 1"

    def w_positive():
        s = np.linspace(-1.0, 2.0, m_samples)
        keep = (np.abs(s) > spacing) & (np.abs(s - 1.0) > spacing)
        vals = P.w(s[keep])
        if not np.all(np.isfinite(vals)):
            return float("-inf"), "non-finite W values"
        return float(np.min(vals)) - 1e-30, "W > 0 away from the wells"

    def w_coercive():
        c = P.coercivity
        s = np.concatenate([np.linspace(-4 * c, -c, m_samples // 2 + 1),
                            np.linspace(c, 4 * c, m_samples // 2 + 1)])
        vals = P.w(s) - np.abs(s) / c
        if not np.all(np.isfinite(vals)):
            return float("-inf"), "non-finite W values"
        return float(np.min(vals)), f"W(s) >= |s|/{c:g} for |s| >= {c:g}"

    def v_well():
        return exact_tol - abs(float(P.v(np.array(1.0)))), "V vanishes at 1"

    def v_positive():
        s = np.linspace(0.0, 1.0, m_samples)[:-1]
        vals = P.v(s)
        if not np.all(np.isfinite(vals)):
            return float("-inf"), "non-finite V values"
        return float(np.min(vals)) - 1e-30, "V > 0 on [0, 1)"

    def v_monotone():
        s = np.linspace(0.0, 1.0, m_samples)
        rises = np.diff(P.v(s))
        return exact_tol - float(np.max(rises)), "V nonincreasing on [0, 1]"

    def phi_endpoints():
        err = max(abs(float(P.phi(np.array(0.0))) - P.theta),
                  abs(float(P.phi(np.array(1.0))) - 1.0))
        return exact_tol - err, f"phi(0) = {P.theta:g}, phi(1) = 1"

    def phi_monotone():
        s = np.linspace(0.0, 1.0, m_samples)
        drops = -np.diff(P.phi(s))
        return exact_tol - float(np.max(drops)), "phi nondecreasing"

    def phi_positive():
        s = np.linspace(0.0, 1.0, m_samples)[1:]
        return float(np.min(P.phi(s))) - 1e-30, "phi > 0 on (0, 1]"

    # int_0^1 sqrt(W) = alpha_surf / 2 and 2 int_0^1 sqrt(V) = alpha_frac / 2;
    # halving is exact, so the margins equal those of the bare integrals
    def surface_le_fracture():
        return fracture_density(P) / 2 - surface_density(P) / 2 + quad_tol, \
            "int sqrt(W) <= 2 int sqrt(V)"

    def mixing_bound():
        # 2*int_m^1 sqrt(V) + phi(m)*int_0^1 sqrt(W) >= int_0^1 sqrt(W) at every node m.
        sqrt_w_mass = surface_density(P) / 2
        nodes, cum = cumulative_simpson(
            lambda s: np.sqrt(np.maximum(P.v(s), 0.0)), 0.0, 1.0)
        total = cum[-1]
        m = np.linspace(0.0, 1.0, m_samples)
        tails = total - np.interp(m, nodes, cum)
        margins = 2.0 * tails + P.phi(m) * sqrt_w_mass - sqrt_w_mass
        if not np.all(np.isfinite(margins)):
            return float("-inf"), "non-finite margin values"
        return float(np.min(margins)) + quad_tol, \
            f"damage/phase mixing bound at {m_samples} nodes"

    run("w_wells", w_wells)
    run("w_positive", w_positive)
    run("w_coercive", w_coercive)
    run("v_well", v_well)
    run("v_positive", v_positive)
    run("v_monotone", v_monotone)
    run("phi_endpoints", phi_endpoints)
    run("phi_monotone", phi_monotone)
    run("phi_positive", phi_positive)
    run("surface_le_fracture", surface_le_fracture)
    run("mixing_bound", mixing_bound)
    return AdmissibilityReport(conditions=tuple(checks), m_samples=m_samples)
