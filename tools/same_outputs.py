"""Check that another source tree gives byte-identical CLI outputs on the
benchmark workloads.

    python3 tools/same_outputs.py OTHER_TREE

For each workload of perfbench/workloads.py at seeds 0 and 1, the phasefrac
CLI runs the workload's command, and then `check` and `sharp`, on the same
generated config.  It also runs `sharp` on AFFINE_SHARP, the one config with
a nonzero sharp elastic term, `recover` on AFFINE_RECOVER, whose affine
displacement dumps fields with no two equal neighbours, `recover` on
PARTIAL_RECOVER, whose grid ends in partial recovery tiles, and `sweep` on
those two: `sweep` writes the energies to 17 digits where `recover` prints
12, so these compare the energy pass on a grid with no flat slab and on one
whose last slab is cut short.  `recover` and `sweep` on SLANTED_RECOVER, a
non-convex polygon with slanted edges and a slanted crack, compare the
inside test and the distances where no edge is axis-aligned.  `recover` and
`sweep` on SIGNED_ZERO_RIGID, whose rigid maps hold -0.0 and 0.0 on a grid
whose tiles all lie on one side of the supporting line, compare the signs
of u's zeros, and `sweep` on FLAT_OFF_SPLITS, the same geometry on 600 x 500
cells, whose flat slabs repeat one pattern in two slab shapes over band
seams, so the energy reuses one flat sum per value and shape across slabs
and bands.  `sweep` and `recover` on ZERO_SWEEP,
criterion 05's polygon and segment with u = 0, compare the rows and the
recovery whose plateau slabs, c = 0 and c = 1, are proved flat through the
zero displacement, and the read-back of that recovery's dumps.  `sweep`
and `recover` on CRACK_ONLY_RIGID, a crack with no phase set whose rigid
maps differ on the two sides, compare the energy where proved slabs share
their c and z but not their u.  Then
`sweep` on SWEEP_1D, a 1D sweep on a grid of several energy slabs,
`sweep` and `recover` on SWEEP_1D_PIECES, a 1D geometry of several pieces
whose dumps read back through 64 KiB blocks that
are one line repeated, blocks with a leading or trailing run and blocks of
distinct lines, and `minimize` on MINIMIZE_FREE, a 1D run
without a mass constraint, and on MINIMIZE_WIDE_SEED, the same run with a
jitter seed of three 32-bit words.  Each run goes once
with this tree's src/ and once with OTHER_TREE's src/, both with the same
--out path.  After each run, a subprocess with the same tree's src/ reads
back every `*.field` the run dumped with that tree's `fields.read_field`,
and gives a sha256 of the grid and of `values.tobytes()`, or the fault it
raised; so a reader that returns other bits from the same dump differs too.
After each `sharp` run, a subprocess with the same tree's src/ gives
`float.hex` of each term of `sharp_energy` on the parsed config, since the
CLI prints them to 12 digits only.  Every output file, stdout, stderr and
the exit code, and each read-back and sharp digest with its subprocess's
stderr and exit code, are compared byte for byte; each difference is named,
and a differing text is shown as a unified diff from the other tree (`-`)
to this one (`+`), cut after DIFF_LINES lines.  A differing CSV whose lines
and fields match and differ only in finite numbers also names its largest
move: the column and line, both values as `float.hex`, and their distance
in ulps.
Exit code 0 when all are equal, 1 otherwise.
Standard library only; perfbench/ is read, never written.
"""
from __future__ import annotations

import difflib
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1)
DIFF_LINES = 20
# a 2D affine strain with off-diagonal terms, a full e0 and lambda > 0, so that
# every strain plane and the trace term reach the sharp elastic energy
AFFINE_SHARP = """[elastic]
lame_lambda = 0.3
lame_mu = 0.7
e0 = 0.8 0.1 -0.2

[geometry]
dim = 2
polygon = 0.5 0  1 0  1 1  0.5 1
segments = 0.5 0.25 0.5 0.75
u_spec = affine
affine_matrix = 0.3 -0.7 0.45 0.1
affine_offset = 0.1 -0.2
"""

# AFFINE_SHARP's geometry recovered on 96^2 cells, more than one chunk of
# `fields._CHUNK` values: u0 and u1 are affine, so each of their values
# differs from the one before and the dump formats no run of equal values
AFFINE_RECOVER = AFFINE_SHARP + """
[sweep]
cells = 96 96
eps_schedule = 0.03125
"""

# a 2D recovery on 300 x 200 cells, which 128-cell tiles (isqrt of
# `fields._BLOCK`) do not divide on either axis, with both crack tips inside
# the domain: the benchmark grids (512^2, 1024^2) never cut a tile short
PARTIAL_RECOVER = """[elastic]
e0 = 0.2

[geometry]
dim = 2
origin = 0 0
extent = 1.5 1
polygon = 1 0  1.5 0  1.5 1  1 1
segments = 0.3 0.3 0.9 0.7
u_spec = piecewise_rigid
rigid_point = 0.3 0.3
rigid_dir = 0.6 0.4
rigid_plus = 0.002 0.001
rigid_minus = -0.002 0
rigid_omega_plus = 0.01
rigid_omega_minus = -0.02

[sweep]
cells = 300 200
eps_schedule = 0.015625
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
"""

# a non-convex polygon whose edges are all slanted, crossed by a slanted crack,
# on 200 x 150 cells, which 128-cell tiles divide on neither axis: every
# polygon above is axis-aligned, so only this run reaches the slanted-edge
# crossing of `Polygon.contains` and distances to slanted edges
SLANTED_RECOVER = """[elastic]
e0 = 0.3 0.05 0.1

[geometry]
dim = 2
origin = 0 0
extent = 1 0.75
polygon = 0.1 0.1  0.55 0.2  0.9 0.05  0.75 0.6  0.45 0.4  0.2 0.65
segments = 0.3 0.15 0.8 0.55
u_spec = piecewise_rigid
rigid_point = 0.3 0.15
rigid_dir = 0.5 0.4
rigid_plus = 0.002 0.001
rigid_minus = -0.002 0
rigid_omega_plus = 0.01
rigid_omega_minus = -0.02

[sweep]
cells = 200 150
eps_schedule = 0.015625
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
"""

# the README's 1D geometry on 2^16 cells, four slabs of `fields._BLOCK`
# cells, so the energy's slab loop runs along the one axis
SWEEP_1D = """[geometry]
dim = 1
domain = 0 1
phase_points = 0.5
crack_points = 0.5
c_pieces = 0 1
u_slopes = 0 0
u_offsets = 0 0.01

[sweep]
cells = 65536
eps_schedule = 0.00390625 0.001953125
delta_scale = 8
"""

# a 1D geometry of seven pieces on 2^18 cells, sixteen recovery tiles: two runs
# of c = 1, and two crack points apart from the phase points, one between the
# runs and one inside the second run.  SWEEP_1D's one point, a phase and a
# crack point at once, is the only other 1D geometry here, so this is the run
# whose distances and breakpoints span several pieces and whose tiles
# include plateaus.  Its `recover` dumps 2^18 lines a field: c and z in runs
# that start and end at many block seams of `fields.read_field`, u0 with no
# two equal neighbours
SWEEP_1D_PIECES = """[elastic]
e0 = 0.5

[geometry]
dim = 1
domain = 0 1
phase_points = 0.2 0.35 0.6 0.8
crack_points = 0.45 0.7
c_pieces = 0 1 0 0 1 1 0
u_slopes = 0.02 0.02 0.02 0.02 0.02 0.02 0.02
u_offsets = 0 0 0 0.01 0.01 -0.005 -0.005

[sweep]
cells = 262144
eps_schedule = 0.0078125 0.00390625
"""

# criterion 05's geometry with signed zeros in the rigid maps and no spin, on
# 256 x 200 cells: the supporting line x = 0.5 lies on a seam of 128-cell
# tiles, so every tile takes one side's map (b0 - omega*ry is -0.0 or 0.0 by
# the sign of ry), and the last tiles on the y axis are cut short
SIGNED_ZERO_RIGID = """[elastic]
e0 = 0

[geometry]
dim = 2
origin = 0 0
extent = 1 1
polygon = 0.5 0  1 0  1 1  0.5 1
segments = 0.5 0.25 0.5 0.75
u_spec = piecewise_rigid
rigid_point = 0.5 0.5
rigid_dir = 0 1
rigid_plus = -0.0 0
rigid_minus = 0.0 -0.0

[sweep]
cells = 256 200
eps_schedule = 0.03125
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
"""

# SIGNED_ZERO_RIGID's geometry on 600 x 500 cells, 300,000, at eps = 2^-7: the
# energy pass cuts it into 19 slabs of 32 rows, the last one 24, and the last
# 8, rows 352:600 over the band seams at 384 and 512, are flat in one
# pattern, so the pass takes one flat sum for its seven flat slabs of 32
# rows, in three bands, and one for the last; the other grids off powers of
# two hold no flat slab or two
FLAT_OFF_SPLITS = SIGNED_ZERO_RIGID.replace("cells = 256 200\neps_schedule = 0.03125",
                                            "cells = 600 500\neps_schedule = 0.0078125")

# criterion 05's polygon and segment with u_spec = zero and a misfit, on
# 512 x 256 cells, eight energy slabs of 64 rows: a sweep row, and `recover`,
# prove their plateau slabs, c = 0 and c = 1 alike, from the bounds and the
# zero displacement, where the other 2D runs prove them through a rigid map
# or through none
ZERO_SWEEP = """[elastic]
e0 = 0.2

[geometry]
dim = 2
origin = 0 0
extent = 1 1
polygon = 0.5 0  1 0  1 1  0.5 1
segments = 0.5 0.25 0.5 0.75
u_spec = zero

[sweep]
cells = 512 256
eps_schedule = 0.03125 0.015625
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
"""

# a crack with no phase set, and rigid maps that move the two sides apart
# without spin, on SIGNED_ZERO_RIGID's 256 x 200 cells: the proved slabs on
# either side of the line hold one c and one z but two values of u, so the
# energy forms one plateau for all of them
CRACK_ONLY_RIGID = """[elastic]
e0 = 0

[geometry]
dim = 2
origin = 0 0
extent = 1 1
segments = 0.5 0.25 0.5 0.75
u_spec = piecewise_rigid
rigid_point = 0.5 0.5
rigid_dir = 0 1
rigid_plus = 0.002 0
rigid_minus = -0.002 0

[sweep]
cells = 256 200
eps_schedule = 0.03125
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
"""

# a 1D minimize without [solver] mass: the workloads' minimize runs all set
# one, so this is the run that takes the c-step with no mass projection
MINIMIZE_FREE = """[elastic]
e0 = 1

[geometry]
dim = 1
cells = 128

[solver]
max_outer = 60
tol_rel_energy = 1e-6
eps = 0.03125
"""

# MINIMIZE_FREE at the seed 2^64 + 5, three 32-bit words: the workloads' seeds
# are single words, so this is the run whose jitter draws depend on how a
# seed of several words is mixed into the generator's key
MINIMIZE_WIDE_SEED = """[run]
seed = 18446744073709551621

""" + MINIMIZE_FREE


# the runs beyond the workloads' own: (label, command, config text)
RUNS = [("affine sharp", "sharp", AFFINE_SHARP),
        ("affine recover", "recover", AFFINE_RECOVER),
        ("partial-tile recover", "recover", PARTIAL_RECOVER),
        ("affine sweep", "sweep", AFFINE_RECOVER),
        ("partial-tile sweep", "sweep", PARTIAL_RECOVER),
        ("slanted recover", "recover", SLANTED_RECOVER),
        ("slanted sweep", "sweep", SLANTED_RECOVER),
        ("signed-zero rigid recover", "recover", SIGNED_ZERO_RIGID),
        ("signed-zero rigid sweep", "sweep", SIGNED_ZERO_RIGID),
        ("sweep with a flat run over band seams", "sweep", FLAT_OFF_SPLITS),
        ("zero-displacement sweep", "sweep", ZERO_SWEEP),
        ("zero-displacement recover", "recover", ZERO_SWEEP),
        ("crack-only rigid sweep", "sweep", CRACK_ONLY_RIGID),
        ("crack-only rigid recover", "recover", CRACK_ONLY_RIGID),
        ("1D sweep", "sweep", SWEEP_1D),
        ("1D sweep over several pieces", "sweep", SWEEP_1D_PIECES),
        ("1D recover over several pieces", "recover", SWEEP_1D_PIECES),
        ("1D minimize without mass", "minimize", MINIMIZE_FREE),
        ("1D minimize at seed 2^64 + 5", "minimize", MINIMIZE_WIDE_SEED)]


# run with a tree's src/ first on the path and the run's OUT as the working
# directory: one line per dump named on the command line, the dump's name and
# the sha256 of its grid and values as `read_field` returns them, or its fault
READ_BACK = """
import hashlib, sys
from phasefrac.fields import read_field
for name in sys.argv[1:]:
    try:
        f = read_field(name)
    except ValueError as exc:
        print(f"{name}: {exc}")
        continue
    g = f.grid
    grid = repr((g.origin, g.extent, g.cells)).encode()
    print(f"{name}: sha256 {hashlib.sha256(grid + f.values.tobytes()).hexdigest()}")
"""

# run with a tree's src/ first on the path: one line per term of the sharp
# energy of the config named on the command line, as `float.hex`
SHARP_DIGEST = """
import sys
from phasefrac.cli import parse_config
from phasefrac.sharp import sharp_energy
cfg = parse_config(sys.argv[1])
if cfg.geometry is not None:
    b = sharp_energy(cfg.geometry, cfg.potentials, cfg.elastic)
    for name in ("e_phase", "e_elastic", "e_crack", "excluded_bound"):
        print(f"{name}: {float(getattr(b, name)).hex()}")
"""


def _digests(script: str, args: list[str], env: dict, cwd: str, label: str) -> dict[str, bytes]:
    """Run `script` with `args`; each `<name>: <text>` line it prints, keyed
    by `<name> <label>`, with its exit code and stderr."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, env=env, cwd=cwd)
    found = {}
    for line in proc.stdout.decode(errors="replace").splitlines():
        name, _, text = line.partition(": ")
        found[f"{name} {label}"] = text.encode()
    found[f"{label} exit code"] = str(proc.returncode).encode()
    found[f"{label} stderr"] = proc.stderr
    return found


def run_cli(tree: str, command: str, config: str, out: str) -> dict[str, bytes]:
    """Run `phasefrac COMMAND --config CONFIG --out OUT` from `tree`'s src/ and
    return its exit code, stdout, stderr and every file under OUT, keyed by
    name, and the READ_BACK line of each `*.field` under OUT, keyed by
    `<name> read back`, with the read-back's stderr and exit code; after a
    `sharp` run, the SHARP_DIGEST line of each term, keyed by `<term> sharp
    digest`, likewise.  OUT is removed before and after the run."""
    config, out = os.path.abspath(config), os.path.abspath(out)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "phasefrac.cli", command, "--config", config, "--out", out],
        capture_output=True, env=env, cwd=os.path.dirname(config))
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr}
    for folder, _, names in os.walk(out):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, out)] = fh.read()
    dumps = sorted(name for name in outputs if name.endswith(".field"))
    if dumps:
        outputs.update(_digests(READ_BACK, dumps, env, out, "read back"))
    if command == "sharp":
        outputs.update(_digests(SHARP_DIGEST, [config], env, os.path.dirname(config),
                                "sharp digest"))
    shutil.rmtree(out, ignore_errors=True)
    return outputs


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps in order, both zeros 0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _largest_move(mine: bytes, other: bytes) -> str | None:
    """For two CSV texts with the same lines and fields that differ only in
    fields both read as finite floats: the field that moves the most ulps,
    named by its header column and line, with both values as `float.hex`;
    None for any other pair."""
    a, b = ([line.split(",") for line in text.decode(errors="replace").splitlines()]
            for text in (mine, other))
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return None
    moves = []
    for i, (x, y) in enumerate(zip(a, b)):
        for j, (here, there) in enumerate(zip(x, y)):
            if here == there:
                continue
            try:
                here, there = float(here), float(there)
            except ValueError:
                return None
            if not (math.isfinite(here) and math.isfinite(there)):
                return None
            moves.append((abs(_ordered(here) - _ordered(there)), i, j, here, there))
    if not moves:
        return None
    ulps, i, j, here, there = max(moves, key=lambda move: move[0])
    return (f"largest move {ulps} ulp{'s' * (ulps != 1)}, {a[0][j]} on line {i + 1}: "
            f"{there.hex()} there, {here.hex()} here")


def differences(mine: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """One line per output that differs or that only one side has; a
    differing text names its first differing line, a differing CSV then its
    `_largest_move` where there is one, and its indented unified diff lines
    follow, at most DIFF_LINES of them."""
    found = []
    for key in sorted(mine.keys() | other.keys()):
        if key not in other:
            found.append(f"{key}: only in this tree")
        elif key not in mine:
            found.append(f"{key}: only in the other tree")
        elif mine[key] != other[key]:
            a, b = mine[key].splitlines(), other[key].splitlines()
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            found.append(f"{key}: line {k + 1} differs ({len(a)} lines here, {len(b)} there)")
            move = _largest_move(mine[key], other[key]) if key.endswith(".csv") else None
            if move is not None:
                found.append(f"{key}: {move}")
            diff = list(difflib.unified_diff(
                [line.decode(errors="replace") for line in b],
                [line.decode(errors="replace") for line in a],
                "other tree", "this tree", lineterm=""))
            found += [f"    {line}" for line in diff[:DIFF_LINES]]
            if len(diff) > DIFF_LINES:
                found.append(f"    ... {len(diff) - DIFF_LINES} more diff lines")
    return found


def compare(other_tree: str, command: str, config_text: str) -> list[str]:
    """Run `command` on `config_text` from this tree and from `other_tree`,
    in one scratch directory, and return `differences` of the two."""
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "run.ini")
        with open(config, "w") as fh:
            fh.write(config_text)
        out = os.path.join(work, "out")
        return differences(run_cli(ROOT, command, config, out),
                           run_cli(other_tree, command, config, out))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src", "phasefrac")):
        print("usage: python3 tools/same_outputs.py OTHER_TREE  (a tree holding "
              "src/phasefrac)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, make_config

    runs = [(f"{name} seed {seed} {command}", command, make_config(name, seed))
            for name, workload in WORKLOADS.items()
            for seed in SEEDS for command in (workload.command, "check", "sharp")]
    runs += RUNS
    failed = 0
    for label, command, config_text in runs:
        found = compare(argv[0], command, config_text)
        print(f"{label}: {'same' if not found else 'DIFFERENT'}")
        for line in found:
            print(f"  {line}")
        failed += bool(found)
    print(f"{failed} of {len(runs)} runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
