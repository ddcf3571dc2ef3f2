"""The output comparison in tools/ on a smoke-size workload, against this tree."""
import hashlib
import importlib.util
import itertools
import math
import os
import re
import shutil
import sys

import numpy as np
import pytest

from phasefrac import energy, fields, recovery
from phasefrac.cli import parse_config
from phasefrac.harness import gamma_sweep
from phasefrac.sharp import sharp_energy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402


def test_same_tree_gives_no_differences():
    assert same_outputs.compare(ROOT, "minimize", make_config("minimize_2d", 0, smoke=True)) == []


@pytest.mark.parametrize("name", ["sweep_2d", "recover_2d"])
def test_sweep_and_recover_on_the_smoke_workloads(name, tmp_path):
    # the smoke sweep_2d grid (256^2) spans four 128^2 recovery tiles
    workload, text = WORKLOADS[name], make_config(name, 0, smoke=True)
    config = tmp_path / "run.ini"
    config.write_text(text)
    mine = same_outputs.run_cli(ROOT, workload.command, str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert all(mine[output] for output in workload.outputs)
    assert same_outputs.compare(ROOT, workload.command, text) == []


def test_each_dump_is_read_back_and_digested(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(make_config("recover_2d", 0, smoke=True))
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["read back exit code"] == b"0" and mine["read back stderr"] == b""
    names = sorted(name for name in mine if name.endswith(".field"))
    assert names == ["c.field", "u0.field", "u1.field", "z.field"]
    for name in names:
        path = tmp_path / name
        path.write_bytes(mine[name])
        f = fields.read_field(path)
        grid = repr((f.grid.origin, f.grid.extent, f.grid.cells)).encode()
        digest = hashlib.sha256(grid + f.values.tobytes()).hexdigest()
        assert mine[f"{name} read back"] == f"sha256 {digest}".encode()


def test_a_reader_that_returns_other_bits_is_named(tmp_path):
    # the other tree writes the same dumps, but reads each value back one ulp up
    other = tmp_path / "other"
    shutil.copytree(os.path.join(ROOT, "src", "phasefrac"), other / "src" / "phasefrac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = other / "src" / "phasefrac" / "fields.py"
    text = module.read_text()
    handed = "return ScalarField(grid, _HandOver(values))"
    assert text.count(handed) == 1
    module.write_text(text.replace(handed, handed.replace("(values)", "(np.nextafter(values, 1))")))
    found = same_outputs.compare(str(other), "recover", same_outputs.AFFINE_RECOVER)
    assert [line for line in found if not line.startswith("    ")] == [
        f"{name}.field read back: line 1 differs (1 lines here, 1 there)"
        for name in ("c", "u0", "u1", "z")]


def test_a_sharp_term_one_ulp_up_is_named(tmp_path):
    # the CLI prints the sharp energies to 12 digits, so only the digest sees this
    other = tmp_path / "other"
    shutil.copytree(os.path.join(ROOT, "src", "phasefrac"), other / "src" / "phasefrac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = other / "src" / "phasefrac" / "sharp.py"
    text = module.read_text()
    returned = "return EnergyBreakdown(e_phase, e_el, e_crack, excluded_bound=bound)"
    assert text.count(returned) == 1
    module.write_text(text.replace(returned, returned.replace(
        "e_el,", "float(np.nextafter(e_el, np.inf)),")))
    found = same_outputs.compare(str(other), "sharp", same_outputs.AFFINE_SHARP)
    assert found == ["e_elastic sharp digest: line 1 differs (1 lines here, 1 there)",
                     *found[1:]]
    assert all(line.startswith("    ") for line in found[1:])


def test_sharp_on_a_workload_config(tmp_path):
    text = make_config("sweep_2d", 0, smoke=True)
    config = tmp_path / "run.ini"
    config.write_text(text)
    mine = same_outputs.run_cli(ROOT, "sharp", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and b"e_total   = " in mine["stdout"]
    assert mine["sharp digest exit code"] == b"0" and mine["sharp digest stderr"] == b""
    cfg = parse_config(str(config))
    energy = sharp_energy(cfg.geometry, cfg.potentials, cfg.elastic)
    for term in ("e_phase", "e_elastic", "e_crack", "excluded_bound"):
        assert mine[f"{term} sharp digest"] == float.hex(getattr(energy, term)).encode()
    assert same_outputs.compare(ROOT, "sharp", text) == []


def test_sharp_on_the_affine_config_has_every_term(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.AFFINE_SHARP)
    mine = same_outputs.run_cli(ROOT, "sharp", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    terms = dict(map(str.strip, line.split("=")) for line in mine["stdout"].decode().splitlines())
    assert all(float(terms[name]) > 0.0 for name in ("e_phase", "e_elastic", "e_crack"))
    # the manifest echoes the three-value e0 and the affine displacement
    assert b"e0 = 0.8 0.1 -0.2\n" in mine["manifest.txt"]
    assert b"u_spec = affine\n" in mine["manifest.txt"]
    assert same_outputs.compare(ROOT, "sharp", same_outputs.AFFINE_SHARP) == []


def test_an_altered_or_missing_output_is_named(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(make_config("minimize_2d", 0, smoke=True))
    mine = same_outputs.run_cli(ROOT, "minimize", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and "trajectory.csv" in mine
    assert not (tmp_path / "out").exists()
    other = dict(mine)
    lines = other["c.field"].splitlines(keepends=True)
    lines[6] = b"0.25\n"
    other["c.field"] = b"".join(lines)
    # the diff runs from the other tree to this one, with 3 lines of context
    text = [line.decode() for line in mine["c.field"].splitlines()]
    assert same_outputs.differences(mine, other) == [
        f"c.field: line 7 differs ({len(lines)} lines here, {len(lines)} there)",
        "    --- other tree", "    +++ this tree", "    @@ -4,7 +4,7 @@",
        *(f"     {line}" for line in text[3:6]), "    -0.25", f"    +{text[6]}",
        *(f"     {line}" for line in text[7:10])]
    # a long diff is cut after DIFF_LINES lines, and the rest is counted
    other["c.field"] = b"".join(lines[:4]) + b"0.5\n" * (len(lines) - 4)
    found = same_outputs.differences(mine, other)
    assert len(found) == 2 + same_outputs.DIFF_LINES
    assert found[-1].startswith("    ... ") and found[-1].endswith(" more diff lines")
    del other["c.field"]
    other["extra.csv"] = b""
    assert same_outputs.differences(mine, other) == [
        "c.field: only in this tree", "extra.csv: only in the other tree"]


def test_a_sweep_value_one_ulp_up_is_named_with_its_move(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(make_config("sweep_2d", 0, smoke=True))
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    lines = mine["sweep.csv"].decode().splitlines(keepends=True)
    row = lines[1].split(",")
    column = lines[0].split(",").index("e_elastic")
    value = float(row[column])
    up = float(np.nextafter(value, np.inf))
    row[column] = f"{up:.17g}"
    other = dict(mine)
    other["sweep.csv"] = "".join([lines[0], ",".join(row), *lines[2:]]).encode()
    found = same_outputs.differences(mine, other)
    assert found[:2] == [
        f"sweep.csv: line 2 differs ({len(lines)} lines here, {len(lines)} there)",
        f"sweep.csv: largest move {up - value:.3g}, e_elastic on line 2: {up.hex()} there, "
        f"{value.hex()} here"]
    assert all(line.startswith("    ") for line in found[2:])
    # a field that is not a finite number on both sides names no move
    row[-1] = "error:ValueError\n"
    other["sweep.csv"] = "".join([lines[0], ",".join(row), *lines[2:]]).encode()
    found = same_outputs.differences(mine, other)
    assert found[0] == f"sweep.csv: line 2 differs ({len(lines)} lines here, {len(lines)} there)"
    assert all(line.startswith("    ") for line in found[1:])


def _csv(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()


def test_the_largest_move_is_the_largest_difference_not_the_most_ulps():
    # e_crack moves from 3e-17 to 2e-14, about 10^16 ulps; e_total moves
    # 2e-3 relative, far fewer ulps but the larger move
    header = ("sweep", "e_crack", "e_total")
    other = _csv([header, (1, 3e-17, 0.4921), (2, 1e-17, 0.4920)])
    mine = _csv([header, (1, 2e-14, 0.4921), (2, 1e-17, 0.4930)])
    assert same_outputs._largest_move(mine, other) == (
        f"largest move {0.4930 - 0.4920:.3g}, e_total on line 3: "
        f"{(0.4920).hex()} there, {(0.4930).hex()} here")


def test_csvs_of_different_lengths_are_compared_on_their_common_lines():
    # a trajectory that converges one sweep later has one more line
    header = ("sweep", "e_total")
    other = _csv([header, (1, 0.5), (2, 0.45), (3, 0.41)])
    mine = _csv([header, (1, 0.5), (2, 0.44)])
    assert same_outputs._largest_move(mine, other) == (
        f"largest move {0.45 - 0.44:.3g}, e_total on line 3: {(0.45).hex()} there, "
        f"{(0.44).hex()} here")
    found = same_outputs.differences({"trajectory.csv": mine}, {"trajectory.csv": other})
    assert found[:2] == ["trajectory.csv: line 3 differs (3 lines here, 4 there)",
                         f"trajectory.csv: largest move {0.45 - 0.44:.3g}, e_total on line 3: "
                         f"{(0.45).hex()} there, {(0.44).hex()} here"]
    # a common line of other fields, or a field that is no number, names no move
    assert same_outputs._largest_move(_csv([header, (1, 0.5, 7)]), other) is None
    assert same_outputs._largest_move(_csv([header, (1, "nan")]), other) is None


def test_the_1d_sweep_spans_several_energy_slabs(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.SWEEP_1D)
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    rows = mine["sweep.csv"].decode().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)
    assert b"cells = 65536\n" in mine["manifest.txt"]
    assert 65536 // fields._BLOCK >= 4
    assert same_outputs.compare(ROOT, "sweep", same_outputs.SWEEP_1D) == []


def test_the_1d_pieces_sweep_spans_several_pieces_and_tiles(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.SWEEP_1D_PIECES)
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    rows = [row.split(",") for row in mine["sweep.csv"].decode().splitlines()[1:]]
    assert len(rows) == 2 and all(row[-1] == "ok" for row in rows)
    # four phase points, two crack points and the misfit of c = 1 on a length 0.35
    e_sharp = 4.0 / 3.0 + 4.0 + 0.35 * 0.48 ** 2 + 0.65 * 0.02 ** 2
    assert all(float(row[6]) == pytest.approx(e_sharp, rel=1e-14) for row in rows)
    assert b"cells = 262144\n" in mine["manifest.txt"]
    assert 262144 // fields._BLOCK == 16
    assert same_outputs.compare(ROOT, "sweep", same_outputs.SWEEP_1D_PIECES) == []


def test_the_1d_pieces_recover_reads_back_runs_across_block_seams(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.SWEEP_1D_PIECES)
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert mine["read back exit code"] == b"0" and mine["read back stderr"] == b""
    for name in ("c.field", "z.field", "u0.field"):
        assert mine[f"{name} read back"].startswith(b"sha256 ")
        lines = mine[name].splitlines()[4:]
        assert len(lines) == 262144 and len(mine[name]) > 8 * fields._READ_BLOCK
        longest = max(sum(1 for _ in run) for _, run in itertools.groupby(lines))
        # c and z hold a run over a whole block (a line takes 2 bytes at
        # least); u0 has no two equal neighbours
        assert longest * 2 > fields._READ_BLOCK if name != "u0.field" else longest == 1
    assert same_outputs.differences(mine, same_outputs.run_cli(
        ROOT, "recover", str(config), str(tmp_path / "out"))) == []


def test_the_affine_recover_dumps_fields_with_no_runs(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.AFFINE_RECOVER)
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    for name in ("u0.field", "u1.field"):
        values = mine[name].splitlines()[4:]
        assert len(values) == 96 * 96 > fields._CHUNK
        assert all(a != b for a, b in zip(values, values[1:]))
    assert same_outputs.compare(ROOT, "recover", same_outputs.AFFINE_RECOVER) == []


def test_the_partial_tile_recover_cuts_tiles_short_on_both_axes(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.PARTIAL_RECOVER)
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert b"cells = 300 200\n" in mine["manifest.txt"]
    assert all(n % math.isqrt(fields._BLOCK) for n in (300, 200))
    for name in ("c.field", "z.field", "u0.field", "u1.field"):
        assert len(mine[name].splitlines()[4:]) == 300 * 200
    assert same_outputs.compare(ROOT, "recover", same_outputs.PARTIAL_RECOVER) == []


def test_the_slanted_recover_has_no_axis_aligned_edge(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.SLANTED_RECOVER)
    cfg = parse_config(str(config))
    polygon, (crack,) = cfg.geometry.polygon, cfg.geometry.segments.endpoints
    edges = np.concatenate([polygon.edges, [crack]])
    assert np.all(edges[:, 1] != edges[:, 0])  # slanted: both coordinates move
    # non-convex: the turns of the boundary change sign
    d, e = polygon.edges[:, 1] - polygon.edges[:, 0], np.roll(polygon.edges, -1, 0)
    e = e[:, 1] - e[:, 0]
    turn = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
    assert turn.min() < 0.0 < turn.max()
    assert all(n % math.isqrt(fields._BLOCK) for n in (200, 150))
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert b"cells = 200 150\n" in mine["manifest.txt"]
    c = np.array(mine["c.field"].splitlines()[4:], dtype=float)
    assert c.size == 200 * 150 and 0.0 < c.mean() < 1.0
    assert np.count_nonzero((c > 0.0) & (c < 1.0)) > 0
    assert same_outputs.compare(ROOT, "recover", same_outputs.SLANTED_RECOVER) == []


@pytest.mark.parametrize("name", ["AFFINE_RECOVER", "PARTIAL_RECOVER", "SLANTED_RECOVER"])
def test_sweep_on_the_affine_and_partial_tile_configs(name, tmp_path):
    # sweep.csv holds the energies to 17 digits, where recover prints 12
    text = getattr(same_outputs, name)
    config = tmp_path / "run.ini"
    config.write_text(text)
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    rows = mine["sweep.csv"].decode().splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",ok")
    assert same_outputs.compare(ROOT, "sweep", text) == []


def test_the_free_minimize_runs_the_c_step_without_a_mass(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.MINIMIZE_FREE)
    mine = same_outputs.run_cli(ROOT, "minimize", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert b"mass" not in mine["manifest.txt"]
    rows = mine["trajectory.csv"].decode().splitlines()[1:]
    assert len(rows) == 12  # the start and 11 sweeps, each lower than the one before
    assert b" sweeps (converged)" in mine["stdout"]
    totals = [float(row.split(",")[-1]) for row in rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert same_outputs.compare(ROOT, "minimize", same_outputs.MINIMIZE_FREE) == []


def test_the_2d_minimize_runs_to_convergence_with_cg(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.MINIMIZE_2D_CONVERGED)
    mine = same_outputs.run_cli(ROOT, "minimize", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert re.search(rb" sweeps \(converged\), .*, u_iters=[1-9]\d*, flags: none\n$",
                     mine["stdout"])
    assert {"u0.field", "u1.field"} <= mine.keys()
    assert same_outputs.compare(ROOT, "minimize", same_outputs.MINIMIZE_2D_CONVERGED) == []


def test_the_runs_cover_each_config_and_count_45():
    # three runs per workload and seed, and the runs on the configs above
    assert len(WORKLOADS) * len(same_outputs.SEEDS) * 3 + len(same_outputs.RUNS) == 45
    assert [(command, text) for _, command, text in same_outputs.RUNS
            if text is same_outputs.SIGNED_ZERO_RIGID] == [
        ("recover", same_outputs.SIGNED_ZERO_RIGID), ("sweep", same_outputs.SIGNED_ZERO_RIGID)]
    assert [command for _, command, text in same_outputs.RUNS
            if text is same_outputs.ZERO_SWEEP] == ["sweep", "recover"]
    assert [command for _, command, text in same_outputs.RUNS
            if text is same_outputs.CRACK_ONLY_RIGID] == ["sweep", "recover"]


def test_the_one_row_last_slab_sweep_runs_a_band_to_two_equal_stops(tmp_path):
    # the last two haloed ranges share their stop, and at each width a run of
    # unproved slabs reaches them, so a band is built through both
    text = same_outputs.ONE_ROW_LAST_SLAB
    config = tmp_path / "run.ini"
    config.write_text(text)
    cfg = parse_config(str(config))
    plan = cfg.sweep_plan
    grid = plan.grid()
    halos = [halo for halo, _ in energy._slabs(grid)]
    assert grid.cells == (257, 256) and energy._slab_rows(grid)[-1] == slice(256, 257)
    assert halos[-2].stop == halos[-1].stop == 257
    for eps, delta in zip(plan.eps_schedule, plan.deltas()):
        bands = recovery.RecoveryBands(plan.geometry, eps, delta, plan.lam, grid,
                                       cfg.potentials, enforce_width=False)
        assert bands._prove(halos)[-3:] == [None] * 3
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    rows = mine["sweep.csv"].decode().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)
    assert same_outputs.compare(ROOT, "sweep", text) == []


def test_the_crack_only_rigid_runs_prove_slabs_that_share_c_and_z_but_not_u(tmp_path):
    # the slabs left of the line x = 0.5 take u = (-0.002, 0), those right of
    # it (0.002, 0); all three proved slabs hold c = 0 and z = 1, one key
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.CRACK_ONLY_RIGID)
    cfg = parse_config(str(config))
    plan = cfg.sweep_plan
    assert not plan.geometry.has_phase() and plan.cells == (256, 200)
    (eps,), (delta,) = plan.eps_schedule, plan.deltas()
    bands = recovery.RecoveryBands(plan.geometry, eps, delta, plan.lam, plan.grid(),
                                   cfg.potentials, enforce_width=False)
    halos = [halo for halo, _ in energy._slabs(plan.grid())]
    keys = bands._prove(halos)
    assert [key is not None for key in keys] == [True, False, True, True]
    assert {key for key in keys if key is not None} == {np.array([0.0, 1.0]).tobytes()}
    _, _, u = bands.band(slice(0, plan.cells[0]))
    assert {u[h][..., 0].min() for h, key in zip(halos, keys) if key is not None} == {-0.002, 0.002}


def test_the_zero_displacement_sweep_proves_plateaus_of_both_phases(tmp_path):
    text = same_outputs.ZERO_SWEEP
    config = tmp_path / "run.ini"
    config.write_text(text)
    cfg = parse_config(str(config))
    plan = cfg.sweep_plan
    assert plan.geometry.u_spec.name == "zero" and plan.cells == (512, 256)
    for eps, delta in zip(plan.eps_schedule, plan.deltas()):
        bands = recovery.RecoveryBands(plan.geometry, eps, delta, plan.lam, plan.grid(),
                                       cfg.potentials, enforce_width=False)
        halos = [halo for halo, _ in energy._slabs(plan.grid())]
        keys = [key for key in bands._prove(halos) if key is not None]
        # c = 0 left of the phase set and c = 1 inside it, with z = 1; u = 0,
        # like any constant u, leaves no trace in the key
        assert {np.frombuffer(key)[0] for key in keys} == {0.0, 1.0}
        assert all(np.frombuffer(key).tolist() in ([0.0, 1.0], [1.0, 1.0]) for key in keys)
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    rows = mine["sweep.csv"].decode().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)
    assert same_outputs.compare(ROOT, "sweep", text) == []
    # `recover` proves the same plateaus at the final widths and dumps both
    mine = same_outputs.run_cli(ROOT, "recover", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert {b"0", b"1"} <= set(mine["c.field"].splitlines()[4:])
    assert same_outputs.compare(ROOT, "recover", text) == []


def test_the_sweep_runs_cover_both_kinds_of_band_seam(tmp_path):
    # a sweep row builds its recovery in bands of tile rows inside the energy's
    # slab pass: the runs must hold slabs that cut a band seam (81-row slabs
    # on PARTIAL_RECOVER, 109 on SLANTED_RECOVER) and slabs that divide the
    # band, whose seams fall between slabs and are read only as halo rows
    # (32-row slabs on FLAT_OFF_SPLITS)
    kinds = {}
    for label, command, text in same_outputs.RUNS:
        if command != "sweep":
            continue
        config = tmp_path / "run.ini"
        config.write_text(text)
        cells = parse_config(str(config)).sweep_plan.cells
        band, slab = recovery._side(len(cells)), max(1, fields._BLOCK // math.prod(cells[1:]))
        if cells[0] > band:
            kinds[label] = band % slab != 0
    assert kinds["partial-tile sweep"] and kinds["slanted sweep"]
    assert not kinds["sweep with a flat run over band seams"]
    assert set(kinds.values()) == {False, True}


@pytest.mark.parametrize("command", ["recover", "sweep"])
def test_the_signed_zero_rigid_runs_keep_the_sign_of_u(command, tmp_path):
    text = same_outputs.SIGNED_ZERO_RIGID
    config = tmp_path / "run.ini"
    config.write_text(text)
    cfg = parse_config(str(config))
    # the line x = 0.5, 128 cells in, is a seam of the 128-cell tiles, and
    # 200 cells end in a tile cut short
    side = math.isqrt(fields._BLOCK)
    assert cfg.sweep_plan.cells == (256, 200) and 128 % side == 0 and 200 % side
    mine = same_outputs.run_cli(ROOT, command, str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    if command == "recover":
        # u0 is -0.0 on the right of the line above y = 0.5, and 0.0 elsewhere
        u0 = mine["u0.field"].splitlines()[4:]
        assert len(u0) == 256 * 200 and set(u0) == {b"0", b"-0"}
        assert u0.count(b"-0") == 128 * 100
    else:
        rows = mine["sweep.csv"].decode().splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",ok")
    assert same_outputs.compare(ROOT, command, text) == []


def test_the_off_split_sweep_splits_inside_slabs_and_flat_runs(monkeypatch, tmp_path):
    # FLAT_OFF_SPLITS's row has flat slabs of two shapes in one pattern over
    # band seams: the pass sums a flat piece once per value and shape, for
    # every term, and every later flat slab reuses that sum
    text = same_outputs.FLAT_OFF_SPLITS
    config = tmp_path / "run.ini"
    config.write_text(text)
    cfg = parse_config(str(config))
    assert cfg.sweep_plan.cells == (600, 500) and cfg.sweep_plan.eps_schedule == (2.0 ** -7,)
    layouts, integrals, sums, checked_sum = [], energy._integrals, [], energy._checked_sum

    def seen(slabs, grid, labels):
        # the pass hands each slab's pieces, one per term, to the three sums
        slabs = list(slabs)
        layouts.extend([(p.shape, p.value.tobytes()) if isinstance(p, energy._Flat)
                        else (p.shape, None) for p in term] for term in zip(*slabs))
        return integrals(slabs, grid, labels)

    def counted(values, lo, shape, label):
        sums.append((values.shape, lo // 500))
        return checked_sum(values, lo, shape, label)
    monkeypatch.setattr(energy, "_integrals", seen)
    monkeypatch.setattr(energy, "_checked_sum", counted)
    (row,) = gamma_sweep(cfg.sweep_plan, cfg.potentials, cfg.elastic).rows
    assert row.status == "ok" and len(layouts) == 3
    # 19 slabs of 32 rows, the last cut to 24, the last 8 flat in one pattern
    layout = layouts[0]
    assert all(other == layout for other in layouts)
    assert [n for (n, _), _ in layout] == [32] * 18 + [24]
    assert [key is not None for _, key in layout] == [False] * 11 + [True] * 8
    assert len({key for _, key in layout[11:]}) == 1
    # the flat slabs span rows 352:600, across the band seams at 384 and 512
    band = recovery._side(2)
    assert {r0 // band for r0 in range(352, 600, 32)} == {2, 3, 4}
    # a sum per formed piece and term, and a flat sum per value and shape,
    # taken at the first flat slab of that shape: the three terms' flat
    # values are one, 0.0
    keys = {(shape, key) for term in layouts for shape, key in term if key is not None}
    assert len(keys) == 2
    flat_sums = [s for s in sums if s[1] >= 352]
    assert len(sums) == 3 * 11 + len(flat_sums) and flat_sums == [((32, 500), 352),
                                                                   ((24, 500), 576)]
    monkeypatch.setattr(energy, "_integrals", integrals)
    mine = same_outputs.run_cli(ROOT, "sweep", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert same_outputs.compare(ROOT, "sweep", text) == []
