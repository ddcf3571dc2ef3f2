"""Convergence experiments and diagnostics over the diffuse/sharp energy pair.

`gamma_sweep` drives the diffuse embedding of a fixed sharp configuration
through a decreasing schedule of interface widths and reports the energy gap
row by row.  The remaining checks probe the machinery the convergence
statement rests on: the geodesic-transform inequality
|D[d_f o w]| <= int (f(w)/eps + eps |w'|^2), the level-set perimeter
selection for nearly damaged fields, and the identity
d/dt <u(y + t xi), xi> = <e(u) xi, xi> along sliced lines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._philox import uniforms
from .energy import ElasticModel, EnergyBreakdown, diffuse_energy
from .fields import Grid, ScalarField, VectorField, slice_extract
from .potentials import (PotentialSet, _resolve_potential, geodesic_table,
                         geodesic_transform)
from .recovery import RecoveryBands
from .sharp import DisplacementSpec, sharp_energy

CSV_HEADER = "eps,delta,e_phase,e_elastic,e_crack,e_total,e_sharp,rel_err,status"

# delta rule name -> delta(eps) at scale 1; scaled_two_thirds is a second name
# for two_thirds, kept for configs that spell the scale out
_DELTA_RULES = {"sqrt": lambda e: e ** 0.5,
                "two_thirds": lambda e: e ** (2.0 / 3.0),
                "scaled_two_thirds": lambda e: e ** (2.0 / 3.0)}
# threshold levels the level-set diagnostic tries in (1/4, 3/4), and the share
# by which the chosen level's face-count perimeter may exceed its bound
_LEVELSET_THRESHOLDS = 31
_LEVELSET_GRID_SLACK = 0.2
# random draws allowed per requested line before the slicing check gives up
_DRAWS_PER_LINE = 100


class DiagnosticError(ValueError):
    """A diagnostic whose inequality or sampling requirement does not hold."""


def resolve_delta_rule(name: str, scale: float = 1.0):
    """Named width schedules delta(eps) = scale * rule(eps); all keep eps/delta
    decreasing to 0."""
    if name not in _DELTA_RULES:
        raise ValueError(
            f"unknown delta rule {name!r} (choose from {tuple(_DELTA_RULES)}); "
            "the schedule must keep eps/delta decreasing toward 0")
    rule = _DELTA_RULES[name]
    return lambda e: scale * rule(float(e))


@dataclass(frozen=True)
class SweepPlan:
    geometry: object
    eps_schedule: tuple[float, ...]
    delta_rule: str = "two_thirds"
    delta_scale: float = 1.0
    lam: float = 1e-4
    cells: tuple[int, ...] = (4096,)
    enforce_width: bool = False

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", eps)
        if not eps or not all(0.0 < e < np.inf for e in eps):
            raise ValueError("eps schedule must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if not 0.0 < self.delta_scale < np.inf:
            raise ValueError(f"delta_scale must be positive and finite, got {self.delta_scale}")
        ratios = [e / d for e, d in zip(eps, self.deltas())]
        if any(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:])):
            raise ValueError("eps/delta must decrease along the schedule")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")

    def deltas(self) -> tuple[float, ...]:
        rule = resolve_delta_rule(self.delta_rule, self.delta_scale)
        return tuple(rule(e) for e in self.eps_schedule)

    def grid(self) -> Grid:
        return self.geometry.grid(self.cells)


@dataclass(frozen=True)
class SweepRow:
    eps: float
    delta: float
    energy: Optional[EnergyBreakdown]
    e_sharp: float
    rel_err: float
    status: str = "ok"
    message: str = ""  # a failed row's error message


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    e_sharp: float

    def rel_errs(self) -> np.ndarray:
        return np.array([r.rel_err for r in self.rows])

    def to_csv(self) -> str:
        """One line per row, each number in `%.17g`; a failed row's energies
        and rel_err are nan, which that format writes as `nan`."""
        lines = [CSV_HEADER]
        for r in self.rows:
            e = r.energy
            terms = (np.nan,) * 4 if e is None else (e.e_phase, e.e_elastic, e.e_crack,
                                                     e.e_total)
            nums = (r.eps, r.delta, *terms, r.e_sharp, r.rel_err)
            lines.append(",".join([f"{x:.17g}" for x in nums] + [r.status]))
        return "\n".join(lines) + "\n"


def gamma_sweep(plan: SweepPlan, P: PotentialSet, M: ElasticModel) -> SweepTable:
    """Embed the configuration at each width, compare energies to the sharp value.

    rel_err = (e_total - e_sharp) / max(e_sharp, 1e-12).  Failures of single
    rows (unresolvable profiles, width violations under enforce_width, a
    non-finite density) are recorded with an error status, the exception's
    type, and its message, and the sweep continues.  A row's energy is
    `diffuse_energy` of `build_recovery`'s state, bit for bit, but its slab
    source is a `recovery.RecoveryBands` that never builds the state: the
    slabs its bounds prove plateaus are never built or read, and the others
    are built in bands of at most one row of tiles as the energy's slab pass
    reaches them, each dropped once the pass has left it, so a row holds
    about one band of c, z and u and slab-sized temporaries, whatever the
    grid size, and its time goes on the rows of its layers.
    """
    sharp = sharp_energy(plan.geometry, P, M)
    e_sharp = sharp.e_total
    grid = plan.grid()
    rows: list[SweepRow] = []
    for eps, delta in zip(plan.eps_schedule, plan.deltas()):
        try:
            # the row's recovery is proved flat or built band by band inside
            # the energy's slab pass, so no cells-sized c, z or u is ever held
            energy = diffuse_energy(RecoveryBands(plan.geometry, eps, delta, plan.lam, grid, P,
                                                  enforce_width=plan.enforce_width), P, M)
        except (ValueError, ArithmeticError) as exc:
            rows.append(SweepRow(eps, delta, None, e_sharp, float("nan"),
                                 status=f"error:{type(exc).__name__}", message=str(exc)))
            continue
        rel = (energy.e_total - e_sharp) / max(e_sharp, 1e-12)
        rows.append(SweepRow(eps, delta, energy, e_sharp, rel))
    return SweepTable(tuple(rows), e_sharp)


def face_total_variation(f: ScalarField) -> float:
    """Sum of |neighbor differences| times the face measure h^{d-1}.

    The natural grid analogue of the total variation |Df|(domain); a
    lower-biased estimator of the continuum value.  On a 0/1 field it is the
    face-count perimeter of the set {f = 1}, exactly: the sums are integers.
    """
    g = f.grid
    v = f.values
    total = 0.0
    for axis in range(g.dim):
        face = np.prod([h for a, h in enumerate(g.spacing) if a != axis])
        d = np.abs(np.diff(v, axis=axis))
        total += float(face) * float(d.sum())
    return total


def geodesic_inequality_check(w: ScalarField, which: str, eps: float,
                              P: PotentialSet) -> tuple[float, float, float]:
    """Discrete form of |D[d_f o w]| <= int (f(w)/eps + eps |w'|^2) on a 1D field.

    Both sides are assembled on cell faces; the potential on a face takes the
    larger endpoint value, which keeps the per-face Young inequality exact for
    resolved fields.  Returns (lhs, rhs, slack); raises DiagnosticError when
    slack < -1e-10.
    """
    if w.grid.dim != 1:
        raise ValueError("geodesic inequality check expects a 1D field")
    vals = w.values
    h = w.grid.spacing[0]
    lo = float(vals.min()) - 1e-9
    hi = float(vals.max()) + 1e-9
    nodes, dtab = geodesic_table(which, P, lo, hi)
    dw = np.interp(vals, nodes, dtab)
    lhs = float(np.abs(np.diff(dw)).sum())

    f, _ = _resolve_potential(which, P)
    fvals = np.maximum(f(vals), 0.0)
    f_face = np.maximum(fvals[:-1], fvals[1:])
    jumps = np.diff(vals)
    rhs = float(np.sum(h * f_face / eps + eps * jumps * jumps / h))
    slack = rhs - lhs
    if slack < -1e-10:
        raise DiagnosticError(f"geodesic inequality violated: slack={slack:.3e}")
    return lhs, rhs, slack


def compactness_levelset_diagnostic(z: ScalarField, P: PotentialSet) -> tuple[float, float, float]:
    """Select the level of z in (1/4, 3/4), among `_LEVELSET_THRESHOLDS`
    equispaced ones, with the smallest discrete perimeter.

    The selection bound is TV(d_V o z) / (d_V(3/4) - d_V(1/4)); the face-count
    perimeter at the chosen level must not exceed it by more than the share
    `_LEVELSET_GRID_SLACK`, else DiagnosticError is raised.  Returns (t_star,
    perimeter_estimate, bound).
    """
    if np.any(z.values < 0.0) or np.any(z.values > 1.0):
        raise ValueError("z values must lie in [0, 1]")
    nodes, dtab = geodesic_table("V", P, 0.0, 1.0)
    dz = ScalarField(z.grid, np.interp(z.values, nodes, dtab))
    denom = geodesic_transform("V", P, 0.75) - geodesic_transform("V", P, 0.25)
    bound = face_total_variation(dz) / denom
    ts = np.linspace(0.25, 0.75, _LEVELSET_THRESHOLDS + 2)[1:-1]
    perims = np.array([face_total_variation(ScalarField(z.grid, z.values > t))
                       for t in ts])
    k = int(np.argmin(perims))
    t_star, est = float(ts[k]), float(perims[k])
    if not est <= bound * (1.0 + _LEVELSET_GRID_SLACK) + 1e-12:
        raise DiagnosticError(f"level-set perimeter {est:.4g} exceeds bound "
                              f"{bound:.4g} (+{_LEVELSET_GRID_SLACK:.0%})")
    return t_star, est, bound


@dataclass(frozen=True)
class SlicingReport:
    max_error: float
    spacing: float

    @property
    def error_constant(self) -> float:
        return self.max_error / self.spacing


def slicing_identity_check(u_spec: DisplacementSpec, grid: Grid, directions: int,
                           seed: int = 0) -> SlicingReport:
    """Compare the sliced finite-difference derivative with <e(u) xi, xi>.

    For `directions` seeded random lines, samples <u(y + t xi), xi> along the
    clipped line, differentiates by central differences (step ~ 2h), and
    returns the largest error relative to the strain scale.  Only lines with
    samples farther than 2h from the boundary count; DiagnosticError is raised
    when `directions` such lines are not found in 100 draws per line, and
    ValueError when `directions` is not positive: with no line compared, the
    max error would read 0 and pass any bound.  The angles and points equal
    numpy's `Generator(Philox(seed)).uniform` draws bit for bit, without
    loading numpy's random package (see `_philox`).
    """
    if directions <= 0:
        raise ValueError(f"need at least one direction, got {directions}")
    u = VectorField(grid, u_spec.u_at(*grid.meshgrid()))
    draws = uniforms(seed)
    h = max(grid.spacing)
    worst = 0.0
    found = 0
    for _ in range(_DRAWS_PER_LINE * directions):
        if found == directions:
            break
        angle = 2.0 * np.pi * next(draws)  # Generator.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(angle), np.sin(angle)])
        interior = np.array([o + (0.25 + 0.5 * next(draws)) * e
                             for o, e in zip(grid.origin, grid.extent)])
        y = interior - (interior @ xi) * xi
        span = np.linalg.norm(grid.extent) * 2
        samples = max(int(span / (2.0 * h)), 8)
        sl = slice_extract(u, xi, y, samples)
        if sl.t.size < 5:
            continue
        dt = sl.t[1] - sl.t[0]
        fd = (sl.values[2:] - sl.values[:-2]) / (2.0 * dt)
        mid_t = sl.t[1:-1]
        margin = 2.0 * h
        coords = [ya + mid_t * xa for ya, xa in zip(y, xi)]
        keep = np.logical_and.reduce([(x > o + margin) & (x < o + e - margin)
                                      for x, o, e in zip(coords, grid.origin, grid.extent)])
        if not np.any(keep):
            continue
        found += 1
        xx, yy, xy = u_spec.e_at(*(x[keep] for x in coords))
        exact = xx * (xi[0] * xi[0]) + 2.0 * xy * (xi[0] * xi[1]) + yy * (xi[1] * xi[1])
        scale = max(float(np.abs(exact).max()), 1.0)
        worst = max(worst, float(np.abs(fd[keep] - exact).max()) / scale)
    if found < directions:
        raise DiagnosticError(f"only {found} of {directions} lines have samples "
                              f"farther than 2h = {2.0 * h:.3g} from the boundary")
    return SlicingReport(worst, h)
