"""Config-file driven command line: check | sweep | minimize | recover | sharp.

The config is line-oriented `key = value` under `[section]` headers
(INI syntax).  `_SCHEMA` is the one place that lists every section and key
and the default an omitted key takes.  Every run writes a manifest
(canonical config echo with those defaults filled in, versions, seed) into
the output directory so it can be reproduced bit for bit with the same
package version.  Exit codes: 0 success, 1 invariant failure, 2 config
error.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .energy import DEGRADATIONS, ETA_RULES, ElasticModel, diffuse_energy
from .fields import Grid, ScalarField, _write_atomic, write_field
from .harness import SweepPlan, gamma_sweep
from .potentials import (PotentialSet, check_admissibility, fracture_density,
                         make_default_potentials, surface_density)
from .recovery import build_recovery
from .sharp import (GeometryError, Polygon, SegmentSet, SharpGeometry1D,
                    SharpGeometry2D, affine_displacement,
                    piecewise_rigid_displacement, sharp_energy, zero_displacement)
from .solver import SolverPlan, alternate, default_state


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


# section -> key -> default text, or None for a key without a default.  The
# manifest echoes these texts byte for byte, so they are not derived from the
# library's dataclass defaults (repr(1e-8) is '1e-08').  The [geometry] keys
# depend on dim; _build_geometry fills them in and the manifest omits them.
_SCHEMA = {
    "run": {"seed": "0", "out": "out", "quiet": "false"},
    "potentials": {"name": "default", "w_scale": "1", "v_scale": "1",
                   "c_delta_scale": "1", "quadrature_nodes": "4096",
                   "coercivity": "4", "m_samples": "10001"},
    "elastic": {"lame_lambda": "0", "lame_mu": "0.5", "e0": "0", "theta": "0",
                "eta_rule": "delta_squared", "psi": "quadratic"},
    "geometry": dict.fromkeys((
        "dim", "domain", "origin", "extent", "cells", "phase_points",
        "crack_points", "c_pieces", "u_slopes", "u_offsets", "polygon",
        "segments", "u_spec", "affine_matrix", "affine_offset", "rigid_point",
        "rigid_dir", "rigid_plus", "rigid_minus", "rigid_omega_plus",
        "rigid_omega_minus")),
    "solver": {"max_outer": "200", "tol_rel_energy": "1e-8", "cg_tol": "1e-10",
               "cg_max_iters": "1000", "step0": "1.0", "backtrack_factor": "0.5",
               "armijo_c": "0.25", "mass": None, "eps": "0.0078125",
               "delta": "auto", "jitter_amplitude": "1e-3"},
    "sweep": {"eps_schedule": None, "delta_rule": "two_thirds", "delta_scale": "1",
              "lambda": "1e-4", "cells": None, "enforce_width": "false",
              "out_csv": None},
}


@dataclass
class RunConfig:
    sections: dict
    seed: int
    out_dir: str
    quiet: bool
    potentials: PotentialSet
    elastic: ElasticModel
    geometry: object
    sweep_plan: Optional[SweepPlan]
    solver_plan: SolverPlan
    solver_eps: float
    solver_delta: float
    solver_cells: tuple[int, ...]
    solver_grid: Grid
    jitter_amplitude: float
    m_samples: int


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _one_of(table: dict):
    """Converter from a name to its entry in `table`."""
    def conv(text: str):
        if text not in table:
            raise ValueError(f"unknown {text!r} ({'|'.join(table)})")
        return table[text]
    return conv


def parse_config(path: str) -> RunConfig:
    """Parse and validate; collects every violation instead of stopping at one."""
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    violations: list[str] = []
    sections = {name: {k: v for k, v in keys.items() if v is not None}
                for name, keys in _SCHEMA.items()}
    for name in cp.sections():
        if name not in _SCHEMA:
            violations.append(f"unknown section [{name}]")
            continue
        for key, value in cp.items(name):
            if key in _SCHEMA[name]:
                sections[name][key] = value.strip()
            else:
                violations.append(f"unknown key {key!r} in [{name}]")

    def take(name: str, key: str, conv):
        """conv of the value, None if unset.  A value conv rejects is a
        violation; parsing goes on with the default, so that every fault is
        listed, or with None where the default is unset or does not convert."""
        raw = sections[name].get(key)
        if raw is None:
            return None
        try:
            return conv(raw)
        except ValueError as exc:
            violations.append(f"[{name}] {key}: {exc}")
        default = _SCHEMA[name][key]
        try:
            return None if default is None else conv(default)
        except ValueError:
            return None

    def grid(name: str, geom, cells: tuple[int, ...]) -> Optional[Grid]:
        try:
            return geom.grid(cells)
        except ValueError as exc:
            violations.append(f"[{name}] cells: {exc}")
            return None

    seed = take("run", "seed", int)
    quiet = take("run", "quiet", _bool)

    theta = take("elastic", "theta", float)
    if not 0.0 <= theta <= 1.0:
        violations.append(f"[elastic] theta must lie in [0, 1], got {theta}")
        theta = 0.0

    pot_name = sections["potentials"]["name"]
    if pot_name != "default":
        violations.append(f"[potentials] unknown built-in {pot_name!r} "
                          "(available: default, with w_scale/v_scale parameters)")
    try:
        potentials = make_default_potentials(
            theta=theta,
            w_scale=take("potentials", "w_scale", float),
            v_scale=take("potentials", "v_scale", float),
            c_delta_scale=take("potentials", "c_delta_scale", float),
            quadrature_nodes=take("potentials", "quadrature_nodes", int),
            coercivity=take("potentials", "coercivity", float))
    except ValueError as exc:
        violations.append(f"[potentials] {exc}")
        potentials = None
    m_samples = take("potentials", "m_samples", int)

    geometry, geo_violations = _build_geometry(sections["geometry"])
    violations.extend(geo_violations)
    dim = geometry.dim if geometry is not None else 1

    elastic, el_violations = _build_elastic(take, dim)
    violations.extend(el_violations)

    geo_cells = take("geometry", "cells", _ints)
    solver_cells = (1024,) if geo_cells is None else tuple(geo_cells)
    solver_grid = grid("geometry", geometry or SharpGeometry1D((0.0, 1.0)), solver_cells)

    sweep_plan = None
    raw_sched = sections["sweep"].get("eps_schedule")
    if raw_sched and geometry is None:
        violations.append("[sweep] requires a [geometry] section")
    elif raw_sched:
        # [sweep] cells, else the [geometry] cells, whose grid is checked above
        own_cells = "cells" in sections["sweep"]
        cells = take("sweep", "cells", _ints) if own_cells else geo_cells
        # taken before eps_schedule converts, so that their faults are listed too
        options = dict(delta_rule=sections["sweep"]["delta_rule"],
                       delta_scale=take("sweep", "delta_scale", float),
                       lam=take("sweep", "lambda", float),
                       cells=(4096,) if cells is None else tuple(cells),
                       enforce_width=take("sweep", "enforce_width", _bool),
                       out_csv=sections["sweep"].get("out_csv"))
        try:
            sweep_plan = SweepPlan(geometry, tuple(_floats(raw_sched)), **options)
        except ValueError as exc:
            violations.append(f"[sweep] {exc}")
        if sweep_plan is not None and own_cells:
            grid("sweep", geometry, sweep_plan.cells)
    if sweep_plan is not None and sweep_plan.enforce_width \
            and geometry.has_phase() and geometry.has_crack():
        lam = sweep_plan.lam
        for eps, delta in zip(sweep_plan.eps_schedule, sweep_plan.deltas()):
            if eps / np.sqrt(lam) > lam * delta:
                violations.append(
                    f"[sweep] width condition fails at eps={eps:g}: "
                    f"eps/sqrt(lambda)={eps / np.sqrt(lam):g} > lambda*delta="
                    f"{lam * delta:g}")

    try:
        solver_plan = SolverPlan(
            max_outer=take("solver", "max_outer", int),
            tol_rel_energy=take("solver", "tol_rel_energy", float),
            cg_tol=take("solver", "cg_tol", float),
            cg_max_iters=take("solver", "cg_max_iters", int),
            step0=take("solver", "step0", float),
            backtrack_factor=take("solver", "backtrack_factor", float),
            armijo_c=take("solver", "armijo_c", float),
            mass_constraint=take("solver", "mass", float))
    except ValueError as exc:
        violations.append(f"[solver] {exc}")
        solver_plan = None
    solver_eps = take("solver", "eps", float)
    solver_delta = solver_eps ** (2.0 / 3.0) if sections["solver"]["delta"] == "auto" \
        else take("solver", "delta", float)
    jitter_amplitude = take("solver", "jitter_amplitude", float)

    if violations:
        raise ConfigError(violations)
    return RunConfig(sections=sections, seed=seed, out_dir=sections["run"]["out"],
                     quiet=quiet, potentials=potentials, elastic=elastic,
                     geometry=geometry, sweep_plan=sweep_plan, solver_plan=solver_plan,
                     solver_eps=solver_eps, solver_delta=solver_delta,
                     solver_cells=solver_cells, solver_grid=solver_grid,
                     jitter_amplitude=jitter_amplitude, m_samples=m_samples)


def _build_elastic(take, dim: int) -> tuple[Optional[ElasticModel], list[str]]:
    violations: list[str] = []
    e0_vals = take("elastic", "e0", _floats)
    if dim == 1:
        e0 = np.array([[e0_vals[0] if e0_vals else 0.0]])
    elif len(e0_vals) == 1:
        e0 = e0_vals[0] * np.eye(2)
    elif len(e0_vals) == 3:
        a, b, c = e0_vals
        e0 = np.array([[a, b], [b, c]])
    else:
        violations.append("[elastic] 2D e0 needs 1 (isotropic) or 3 "
                          "(a11 a12 a22) components")
        e0 = np.zeros((2, 2))
    psi, dpsi = take("elastic", "psi", _one_of(DEGRADATIONS))
    try:
        model = ElasticModel(lame_lambda=take("elastic", "lame_lambda", float),
                             lame_mu=take("elastic", "lame_mu", float),
                             e0=e0, psi=psi, dpsi=dpsi,
                             eta_rule=take("elastic", "eta_rule", _one_of(ETA_RULES)))
    except ValueError as exc:
        violations.append(f"[elastic] {exc}")
        model = None
    return model, violations


def _build_geometry(sec: dict) -> tuple[object, list[str]]:
    if "dim" not in sec:
        return None, []
    violations: list[str] = []
    try:
        dim = int(sec["dim"])
        if dim == 1:
            dom = _floats(sec.get("domain", "0 1"))
            phase = tuple(_floats(sec.get("phase_points", "")))
            crack = tuple(_floats(sec.get("crack_points", "")))
            c_pieces = tuple(_ints(sec.get("c_pieces", ""))) or ()
            slopes = _floats(sec.get("u_slopes", ""))
            offsets = _floats(sec.get("u_offsets", ""))
            u_pieces = tuple(zip(slopes, offsets)) if slopes else ()
            geom = SharpGeometry1D((dom[0], dom[1]), phase_points=phase,
                                   crack_points=crack, c_pieces=c_pieces,
                                   u_pieces=u_pieces)
        elif dim == 2:
            origin = tuple(_floats(sec.get("origin", "0 0")))
            extent = tuple(_floats(sec.get("extent", "1 1")))
            poly_raw = sec.get("polygon", "none").strip()
            polygon = None
            if poly_raw and poly_raw.lower() != "none":
                pts = _floats(poly_raw)
                polygon = Polygon(np.array(pts).reshape(-1, 2))
            seg_raw = sec.get("segments", "").strip()
            segments = []
            if seg_raw and seg_raw.lower() != "none":
                for chunk in seg_raw.split(";"):
                    vals = _floats(chunk)
                    segments.append([[vals[0], vals[1]], [vals[2], vals[3]]])
            segset = SegmentSet(np.array(segments).reshape(-1, 2, 2)
                                if segments else np.zeros((0, 2, 2)))
            name = sec.get("u_spec", "zero")
            if name == "zero":
                uspec = zero_displacement(2)
            elif name == "affine":
                f = np.array(_floats(sec.get("affine_matrix", "0 0 0 0"))).reshape(2, 2)
                off = np.array(_floats(sec.get("affine_offset", "0 0")))
                uspec = affine_displacement(f, off)
            elif name == "piecewise_rigid":
                uspec = piecewise_rigid_displacement(
                    _floats(sec.get("rigid_point", "0 0")),
                    _floats(sec.get("rigid_dir", "0 1")),
                    _floats(sec.get("rigid_plus", "0 0")),
                    _floats(sec.get("rigid_minus", "0 0")),
                    float(sec.get("rigid_omega_plus", "0")),
                    float(sec.get("rigid_omega_minus", "0")))
            else:
                raise GeometryError(f"unknown u_spec {name!r} "
                                    "(zero|affine|piecewise_rigid)")
            geom = SharpGeometry2D((origin[0], origin[1]), (extent[0], extent[1]),
                                   polygon=polygon, segments=segset, u_spec=uspec)
        else:
            raise GeometryError(f"dim must be 1 or 2, got {dim}")
    except (GeometryError, ValueError, IndexError) as exc:
        violations.append(f"[geometry] {exc}")
        return None, violations
    return geom, violations


def emit_config(cfg: RunConfig) -> str:
    """Canonical INI echo of the effective configuration."""
    lines = []
    for name in _SCHEMA:
        body = cfg.sections[name]
        if not body:
            continue
        lines.append(f"[{name}]")
        for key in sorted(body):
            lines.append(f"{key} = {body[key]}")
        lines.append("")
    return "\n".join(lines)


def _write_manifest(cfg: RunConfig, command: str) -> None:
    _write_atomic(os.path.join(cfg.out_dir, "manifest.txt"),
                  f"command = {command}\n"
                  f"phasefrac = {__version__}\n"
                  f"numpy = {np.__version__}\n"
                  f"python = {sys.version.split()[0]}\n"
                  f"seed = {cfg.seed}\n\n" + emit_config(cfg))


def _emit(cfg: RunConfig, *msg) -> None:
    if not cfg.quiet:
        print(*msg)


def _cmd_check(cfg: RunConfig) -> int:
    report = check_admissibility(cfg.potentials, cfg.m_samples)
    _emit(cfg, report.summary())
    _emit(cfg, f"alpha_surf = {surface_density(cfg.potentials):.12g}")
    _emit(cfg, f"alpha_frac = {fracture_density(cfg.potentials):.12g}")
    _write_atomic(os.path.join(cfg.out_dir, "admissibility.txt"), report.summary() + "\n")
    return 0 if report.passed else 1


def _cmd_sharp(cfg: RunConfig) -> int:
    if cfg.geometry is None:
        print("sharp: no [geometry] section configured", file=sys.stderr)
        return 1
    b = sharp_energy(cfg.geometry, cfg.potentials, cfg.elastic)
    _emit(cfg, f"e_phase   = {b.e_phase:.12g}")
    _emit(cfg, f"e_elastic = {b.e_elastic:.12g}")
    _emit(cfg, f"e_crack   = {b.e_crack:.12g}")
    _emit(cfg, f"e_total   = {b.e_total:.12g}")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_plan is None:
        print("sweep: no [sweep] section with eps_schedule", file=sys.stderr)
        return 1
    table = gamma_sweep(cfg.sweep_plan, cfg.potentials, cfg.elastic)
    name = cfg.sweep_plan.out_csv or "sweep.csv"
    _write_atomic(os.path.join(cfg.out_dir, name), table.to_csv())
    bad = [r for r in table.rows if r.status != "ok"]
    last = table.rows[-1]
    _emit(cfg, f"sweep: {len(table.rows)} rows, e_sharp = {table.e_sharp:.12g}, "
               f"final rel_err = {last.rel_err:.4g}, failures = {len(bad)}")
    return 1 if bad else 0


def _cmd_recover(cfg: RunConfig) -> int:
    if cfg.sweep_plan is None or cfg.geometry is None:
        print("recover: needs [geometry] and [sweep] (takes the final row's widths)",
              file=sys.stderr)
        return 1
    plan = cfg.sweep_plan
    eps = plan.eps_schedule[-1]
    delta = plan.deltas()[-1]
    state = build_recovery(cfg.geometry, eps, delta, plan.lam, plan.grid(),
                           cfg.potentials, enforce_width=plan.enforce_width)
    b = diffuse_energy(state, cfg.potentials, cfg.elastic)
    for fname, fld in (("c", state.c), ("z", state.z)):
        write_field(fld, os.path.join(cfg.out_dir, f"{fname}.field"))
    for a in range(state.grid.dim):
        write_field(ScalarField(state.grid, state.u.values[..., a]),
                    os.path.join(cfg.out_dir, f"u{a}.field"))
    _emit(cfg, f"recover: eps={eps:g} delta={delta:g} e_total={b.e_total:.12g}")
    return 0


def _cmd_minimize(cfg: RunConfig) -> int:
    grid = cfg.solver_grid
    plan = cfg.solver_plan
    c0 = plan.mass_constraint if plan.mass_constraint is not None else 0.5
    s0 = default_state(grid, cfg.solver_eps, cfg.solver_delta, c0=c0,
                       seed=cfg.seed, amplitude=cfg.jitter_amplitude)
    s, traj = alternate(s0, cfg.potentials, cfg.elastic, plan)
    lines = ["sweep,e_phase,e_elastic,e_crack,e_total"]
    for k, e in enumerate(traj.energies):
        lines.append(f"{k},{e.e_phase:.17g},{e.e_elastic:.17g},"
                     f"{e.e_crack:.17g},{e.e_total:.17g}")
    _write_atomic(os.path.join(cfg.out_dir, "trajectory.csv"), "\n".join(lines) + "\n")
    for fname, fld in (("c", s.c), ("z", s.z)):
        write_field(fld, os.path.join(cfg.out_dir, f"{fname}.field"))
    for a in range(grid.dim):
        write_field(ScalarField(grid, s.u.values[..., a]),
                    os.path.join(cfg.out_dir, f"u{a}.field"))
    counts = Counter(f for sweep in traj.flags for f in sweep)
    histogram = " ".join(f"{f}={n}" for f, n in sorted(counts.items())) or "none"
    _emit(cfg, f"minimize: {len(traj.energies) - 1} sweeps ({traj.reason}), "
               f"e_total = {traj.energies[-1].e_total:.12g}, flags: {histogram}")
    monotone = np.all(np.diff(traj.totals) <=
                      10.0 * plan.cg_tol * np.abs(traj.totals[:-1]))
    return 0 if monotone else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasefrac",
        description="diffuse phase-separation/fracture energies: admissibility "
                    "checks, sharp-limit sweeps, recovery states, minimization")
    parser.add_argument("command",
                        choices=["check", "sweep", "minimize", "recover", "sharp"])
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", help="output directory (overrides [run] out)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.out:
        cfg.out_dir = args.out
        cfg.sections["run"]["out"] = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.sections["run"]["seed"] = str(args.seed)
    if args.quiet:
        cfg.quiet = True

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_manifest(cfg, args.command)
    if sys.platform.startswith("linux"):
        # fix glibc's mmap threshold at its largest value, so every array under
        # 32 MiB comes from the heap: by default it rises with each larger block
        # freed, and which arrays got mapped, and so the peak RSS, followed the
        # heap layout (identical 1024^2 sweeps: 228-256 MB, by --out alone)
        ctypes.CDLL(None).mallopt(-3, 32 << 20)  # -3: M_MMAP_THRESHOLD, malloc.h
    handler = {"check": _cmd_check, "sharp": _cmd_sharp, "sweep": _cmd_sweep,
               "recover": _cmd_recover, "minimize": _cmd_minimize}[args.command]
    try:
        return handler(cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
