"""Correctness gates: each workload's outputs are checked independently of the
program's own readers, and every fault is returned as a message, never dropped.

`reference()` derives what a gate compares against from the same generated
config the program ran on (imports phasefrac); `check()` inspects one op's
output directory and returns the list of failures (empty means pass).
"""
from __future__ import annotations

import os

import numpy as np

from workloads import E_SHARP_2D

MASS_DRIFT_MAX = 1e-12       # exact mass constraint
TERMINAL_FACTOR_1D = 1.25    # criterion 07: terminal <= 1.25 x best sharp candidate
E_SHARP_TOL = 1e-10
FINAL_REL_ERR_MAX = 0.10     # criterion 05


class GateError(ValueError):
    """An output file is malformed; the message names the fault."""


def load_field(path: str, dim: int, cells: tuple) -> np.ndarray:
    """Strict reader of the plain-text field format.

    Checks the header against the expected grid, counts the value lines
    itself (rejecting truncated and padded files) and parses every value.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    want = [f"dim {dim}", "cells " + " ".join(str(n) for n in cells)]
    if lines[:2] != want:
        raise GateError(f"{os.path.basename(path)}: header {lines[:2]} != {want}")
    for k, key in ((2, "origin"), (3, "extent")):
        toks = lines[k].split() if len(lines) > k else []
        if len(toks) != dim + 1 or toks[0] != key:
            raise GateError(f"{os.path.basename(path)}: bad {key} line {toks}")
    if lines[-1] != "":
        raise GateError(f"{os.path.basename(path)}: no final newline (truncated)")
    body = lines[4:-1]
    n = int(np.prod(cells))
    if len(body) != n:
        raise GateError(f"{os.path.basename(path)}: {len(body)} value lines, "
                        f"header says {n}")
    try:
        values = np.array(body, dtype=float)
    except ValueError as exc:
        raise GateError(f"{os.path.basename(path)}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise GateError(f"{os.path.basename(path)}: non-finite values")
    return values.reshape(cells)


def load_csv(path: str, header: str) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise GateError(f"{os.path.basename(path)}: header "
                        f"{lines[:1]} != [{header!r}]")
    keys = header.split(",")
    rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
    if any(len(r) != len(keys) for r in rows):
        raise GateError(f"{os.path.basename(path)}: ragged rows")
    return rows


TRAJECTORY_HEADER = "sweep,e_phase,e_elastic,e_crack,e_total"
SWEEP_HEADER = "eps,delta,e_phase,e_elastic,e_crack,e_total,e_sharp,rel_err,status"


def trajectory_totals(out_dir: str) -> np.ndarray:
    rows = load_csv(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_HEADER)
    if len(rows) < 2:
        raise GateError("trajectory.csv: fewer than one sweep")
    return np.array([float(r["e_total"]) for r in rows])


def reference(name: str, cfg) -> dict:
    """What the gates of workload `name` compare against, from the parsed config."""
    if name in ("minimize_1d", "minimize_2d"):
        dim = cfg.geometry.dim
        # the generated configs give one cell count, used on every axis
        ref = {"cg_tol": cfg.solver_plan.cg_tol, "mass": cfg.solver_plan.mass_constraint,
               "max_outer": cfg.solver_plan.max_outer, "dim": dim,
               "cells": (cfg.solver_cells[0],) * dim}
        if name == "minimize_1d":
            ref["best_sharp"] = _best_sharp_1d(cfg)
        return ref
    plan = cfg.sweep_plan
    grid = plan.grid()
    ref = {"rows": len(plan.eps_schedule), "dim": grid.dim, "cells": grid.cells}
    if name == "recover_2d":
        from phasefrac.energy import diffuse_energy
        from phasefrac.recovery import build_recovery
        state = build_recovery(cfg.geometry, plan.eps_schedule[-1], plan.deltas()[-1],
                               plan.lam, grid, cfg.potentials,
                               enforce_width=plan.enforce_width)
        ref["e_total"] = diffuse_energy(state, cfg.potentials, cfg.elastic).e_total
        ref["fields"] = {"c": state.c.values, "z": state.z.values}
        for a in range(grid.dim):
            ref["fields"][f"u{a}"] = np.ascontiguousarray(state.u.values[..., a])
    return ref


def _best_sharp_1d(cfg) -> float:
    # criterion 07's two candidates: one phase boundary at the midpoint with
    # matched misfit strain, without and with a crack on it
    from phasefrac.sharp import SharpGeometry1D, sharp_energy_1d
    a, b = cfg.geometry.domain
    mid = 0.5 * (a + b)
    pieces = ((0.0, 0.0), (1.0, -mid))
    cands = (SharpGeometry1D((a, b), phase_points=(mid,), c_pieces=(0, 1), u_pieces=pieces),
             SharpGeometry1D((a, b), phase_points=(mid,), crack_points=(mid,),
                             c_pieces=(0, 1), u_pieces=pieces))
    return min(sharp_energy_1d(g, cfg.potentials, cfg.elastic).e_total for g in cands)


def check(name: str, out_dir: str, ref: dict) -> list[str]:
    """Failures of one op's outputs; an unreadable output is a failure too."""
    try:
        if name in ("minimize_1d", "minimize_2d"):
            return _check_minimize(name, out_dir, ref)
        if name == "sweep_2d":
            return _check_sweep(out_dir, ref)
        return _check_recover(out_dir, ref)
    except (GateError, OSError, ValueError, KeyError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _check_minimize(name: str, out_dir: str, ref: dict) -> list[str]:
    fails = []
    tot = trajectory_totals(out_dir)
    rises = np.flatnonzero(tot[1:] > tot[:-1] + 10.0 * ref["cg_tol"] * np.abs(tot[:-1]))
    if rises.size:
        fails.append(f"trajectory not monotone: energy rises at sweep {rises[0] + 1}")
    c = load_field(os.path.join(out_dir, "c.field"), ref["dim"], ref["cells"])
    drift = abs(float(np.mean(c)) - ref["mass"])
    if drift > MASS_DRIFT_MAX:
        fails.append(f"mass drift {drift:.2e} > {MASS_DRIFT_MAX:g}")
    if name == "minimize_2d" and len(tot) - 1 != ref["max_outer"]:
        # wall_s is the time of a fixed amount of work: every sweep must run
        fails.append(f"{len(tot) - 1} sweeps, not the fixed budget of {ref['max_outer']}")
    if name == "minimize_1d":
        if len(tot) - 1 >= ref["max_outer"]:
            fails.append(f"no convergence within {ref['max_outer']} sweeps")
        if tot[-1] > TERMINAL_FACTOR_1D * ref["best_sharp"]:
            fails.append(f"terminal {tot[-1]:.6f} > {TERMINAL_FACTOR_1D} x best sharp "
                         f"{ref['best_sharp']:.6f}")
    return fails


def _check_sweep(out_dir: str, ref: dict) -> list[str]:
    rows = load_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER)
    fails = []
    if len(rows) != ref["rows"]:
        fails.append(f"{len(rows)} sweep rows, expected {ref['rows']}")
    bad = [r["eps"] for r in rows if r["status"] != "ok"]
    if bad:
        fails.append(f"rows not ok at eps {bad}")
    if rows:
        e_sharp = float(rows[-1]["e_sharp"])
        if abs(e_sharp - E_SHARP_2D) > E_SHARP_TOL:
            fails.append(f"e_sharp {e_sharp!r} != 7/6")
        rel = float(rows[-1]["rel_err"])
        if not abs(rel) <= FINAL_REL_ERR_MAX:
            fails.append(f"final |rel_err| {abs(rel):.4f} > {FINAL_REL_ERR_MAX}")
    return fails


def _check_recover(out_dir: str, ref: dict) -> list[str]:
    fails = []
    for stem, want in ref["fields"].items():
        got = load_field(os.path.join(out_dir, f"{stem}.field"), ref["dim"], ref["cells"])
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            diff = int(np.count_nonzero(got != want))
            fails.append(f"{stem}.field differs from a direct build_recovery "
                         f"in {diff} cells")
    return fails


def energy_gap(name: str, out_dir: str, ref: dict) -> float:
    """The workload's accuracy figure (lower is better), from its outputs."""
    if name == "minimize_1d":
        return float(trajectory_totals(out_dir)[-1] / ref["best_sharp"] - 1.0)
    if name == "minimize_2d":
        tot = trajectory_totals(out_dir)
        return float(tot[-1] / tot[0])
    if name == "sweep_2d":
        rows = load_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER)
        return abs(float(rows[-1]["rel_err"]))
    # check() has shown the dumped fields equal the reference state bit for bit
    return abs(ref["e_total"] - E_SHARP_2D) / E_SHARP_2D
