import gc
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import flat_key
import phasefrac
from phasefrac import cli, energy, harness, recovery
from phasefrac.cli import parse_config
from phasefrac.energy import diffuse_energy
from phasefrac.fields import Grid, ScalarField, VectorField
from phasefrac.harness import (DiagnosticError, SweepPlan,
                               compactness_levelset_diagnostic,
                               face_total_variation, gamma_sweep,
                               geodesic_inequality_check, resolve_delta_rule,
                               slicing_identity_check)
from phasefrac.recovery import (ProfileParams, ResolutionError, WidthConditionError,
                                build_profile, build_recovery)
from phasefrac.sharp import (Polygon, SegmentSet, SharpGeometry1D, SharpGeometry2D,
                             affine_displacement, piecewise_rigid_displacement,
                             quadratic_displacement, skew_affine_displacement,
                             zero_displacement)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

CRACK_1D = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                           u_pieces=((0.0, 0.0), (0.0, 0.1)))


def test_delta_rules():
    assert resolve_delta_rule("sqrt")(0.04) == pytest.approx(0.2)
    assert resolve_delta_rule("two_thirds")(0.001) == pytest.approx(0.01)
    assert resolve_delta_rule("scaled_two_thirds", 3.0)(0.001) == pytest.approx(0.03)
    with pytest.raises(ValueError, match="decreasing"):
        resolve_delta_rule("eps_squared")


@pytest.mark.parametrize("rule,power", [("sqrt", 0.5), ("two_thirds", 2.0 / 3.0),
                                        ("scaled_two_thirds", 2.0 / 3.0)])
def test_delta_scale_scales_every_rule(rule, power):
    plan = SweepPlan(CRACK_1D, (0.04, 0.01), delta_rule=rule, delta_scale=5.0)
    assert plan.deltas() == (5.0 * 0.04 ** power, 5.0 * 0.01 ** power)


def test_sweep_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(CRACK_1D, (0.1, 0.2))  # not decreasing
    with pytest.raises(ValueError):
        SweepPlan(CRACK_1D, (0.1, 0.05), lam=2.0)


@pytest.mark.parametrize("schedule,options", [
    ((np.nan,), {}), ((np.inf, 0.1), {}),
    ((0.1, 0.05), {"delta_scale": np.nan}), ((0.1, 0.05), {"delta_scale": 0.0})])
def test_sweep_plan_rejects_nonfinite(schedule, options):
    with pytest.raises(ValueError, match="positive and finite"):
        SweepPlan(CRACK_1D, schedule, delta_rule="scaled_two_thirds", **options)


def test_sweep_plan_refuses_an_eps_over_delta_that_does_not_fall(monkeypatch):
    # every named rule keeps eps/delta falling; delta = eps holds it at 1
    monkeypatch.setitem(harness._DELTA_RULES, "linear", lambda e: e)
    with pytest.raises(ValueError, match="^eps/delta must decrease along the schedule$"):
        SweepPlan(CRACK_1D, (0.1, 0.05), delta_rule="linear")


def test_sweep_empty_geometry_zero_rows(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0))
    plan = SweepPlan(g, (0.05, 0.025), cells=(512,))
    table = gamma_sweep(plan, P, elastic_1d_free)
    assert table.e_sharp == 0.0
    for row in table.rows:
        assert row.status == "ok"
        assert row.energy.e_total == 0.0


def test_sweep_records_failures_and_continues(P, elastic_1d_free):
    # first width is unresolvable on a coarse grid; later rows still computed
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))
    plan = SweepPlan(g, (2.0 ** -10, 2.0 ** -11), lam=0.25, cells=(128,))
    table = gamma_sweep(plan, P, elastic_1d_free)
    assert table.rows[0].status.startswith("error:")
    assert table.rows[1].status.startswith("error:")


def test_sweep_csv_deterministic(P, elastic_1d_free):
    plan = SweepPlan(CRACK_1D, (0.05, 0.025), cells=(2048,))
    a = gamma_sweep(plan, P, elastic_1d_free).to_csv()
    b = gamma_sweep(plan, P, elastic_1d_free).to_csv()
    assert a == b
    header = a.splitlines()[0]
    assert header == "eps,delta,e_phase,e_elastic,e_crack,e_total,e_sharp,rel_err,status"


def test_sweep_schedule_audit(P, elastic_1d_free):
    plan = SweepPlan(CRACK_1D, (0.05, 0.025, 0.0125), cells=(2048,))
    ratios = [e / d for e, d in zip(plan.eps_schedule, plan.deltas())]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


# criterion 05's geometry: the right half in A, a vertical crack on its edge
CRITERION_05 = SharpGeometry2D(
    (0.0, 0.0), (1.0, 1.0),
    polygon=Polygon([(0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0)]),
    segments=SegmentSet([[[0.5, 0.25], [0.5, 0.75]]]),
    u_spec=piecewise_rigid_displacement((0.5, 0.5), (0.0, 1.0), (0.002, 0.0), (-0.002, 0.0)))


def _criterion_05_plan(eps, cells, **kw):
    return SweepPlan(CRITERION_05, eps, "scaled_two_thirds", delta_scale=0.18, lam=1e-4,
                     cells=cells, **kw)


def _bits(e):
    return e.e_phase.hex(), e.e_elastic.hex(), e.e_crack.hex(), e.clamped_cells


def _same_rows_as_whole_builds(plan, P, M):
    """Each row of `gamma_sweep` against `diffuse_energy` and `evaluate`, the
    whole-array pass, of the whole `build_recovery` state: the bits of each
    term and the clamp count, or the status that the whole build's fault
    gives.  Returns the statuses."""
    rows = gamma_sweep(plan, P, M).rows
    for row, eps, delta in zip(rows, plan.eps_schedule, plan.deltas()):
        try:
            state = build_recovery(plan.geometry, eps, delta, plan.lam, plan.grid(), P,
                                   enforce_width=plan.enforce_width)
            want = diffuse_energy(state, P, M)
        except (ValueError, ArithmeticError) as exc:
            assert row.energy is None and row.status == f"error:{type(exc).__name__}", row
            continue
        assert row.status == "ok" and _bits(row.energy) == _bits(want), (eps, row.status)
        assert _bits(want) == _bits(energy.evaluate(state, P, M)[0]), eps
    return [row.status for row in rows]


@pytest.mark.parametrize("name", ["criterion 05", "SLANTED_RECOVER", "SIGNED_ZERO_RIGID",
                                  "ZERO_SWEEP", "SWEEP_1D_PIECES", "ONE_ROW_LAST_SLAB"])
def test_sweep_rows_are_the_whole_builds_energies_bit_for_bit(P, elastic_2d_free, name,
                                                              tmp_path):
    # the row proves its plateau slabs and builds the others band by band
    # inside the slab pass; each term and the clamp count must keep the bits
    # of the whole build's pass (ZERO_SWEEP's proved slabs hold a misfit;
    # ONE_ROW_LAST_SLAB's 257 rows end in a slab of one row)
    if name == "criterion 05":
        # 384 rows, three bands, in slabs of 16384 // 320 = 51 rows
        plan, P, M = _criterion_05_plan((2.0 ** -5, 2.0 ** -6), (384, 320)), P, elastic_2d_free
    else:
        config = tmp_path / "run.ini"
        config.write_text(getattr(same_outputs, name))
        cfg = parse_config(str(config))
        plan, P, M = cfg.sweep_plan, cfg.potentials, cfg.elastic
    assert plan.grid().cells[0] > recovery._side(plan.grid().dim)
    assert set(_same_rows_as_whole_builds(plan, P, M)) == {"ok"}


def test_sweep_rows_keep_their_bits_with_band_seams_inside_slabs(P, monkeypatch, tmp_path):
    # FLAT_OFF_SPLITS (600 x 500 cells) in slabs of 37 rows, which do not
    # divide the 128-row bands: formed and flat slabs straddle band seams
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.FLAT_OFF_SPLITS)
    cfg = parse_config(str(config))
    monkeypatch.setattr(energy, "_BLOCK", 37 * 500)
    layouts, integrals = [], energy._integrals

    def seen(slabs, grid, labels):
        # the slab passes' three terms; `evaluate` sums each whole density alone
        slabs = list(slabs)
        if len(labels) == 3:
            layouts.append([isinstance(p, energy._Flat) for p, _, _ in slabs])
        return integrals(slabs, grid, labels)
    monkeypatch.setattr(energy, "_integrals", seen)
    assert _same_rows_as_whole_builds(cfg.sweep_plan, cfg.potentials, cfg.elastic) == ["ok"]
    band = recovery._side(2)
    # the row's layout is the whole build's proved one; the whole state's
    # own pass forms every slab
    plan = cfg.sweep_plan
    bands = recovery.RecoveryBands(plan.geometry, plan.eps_schedule[0], plan.deltas()[0],
                                   plan.lam, plan.grid(), cfg.potentials, enforce_width=False)
    halos = [halo for halo, _ in energy._slabs(plan.grid())]
    proved = [key is not None for key in bands._prove(halos)]
    assert 128 % 37 and len(layouts) == 2 and layouts == [proved, [False] * len(proved)]
    starts = range(0, 600, 37)
    straddling = {flat for r0, flat in zip(starts, layouts[0])
                  if r0 // band != (min(r0 + 37, 600) - 1) // band}
    assert straddling == {False, True}


def test_failed_rows_keep_their_status(P, elastic_2d_free):
    # 2^-9 is thinner than two cells of 64: ResolutionError; enforce_width
    # refuses every row of a geometry with a phase boundary and a crack
    statuses = _same_rows_as_whole_builds(_criterion_05_plan((2.0 ** -4, 2.0 ** -9), (64, 64)),
                                          P, elastic_2d_free)
    assert statuses == ["ok", f"error:{ResolutionError.__name__}"]
    statuses = _same_rows_as_whole_builds(
        _criterion_05_plan((2.0 ** -4,), (64, 64), enforce_width=True), P, elastic_2d_free)
    assert statuses == [f"error:{WidthConditionError.__name__}"]


def test_a_nan_displacement_on_one_tile_fails_the_row(P, elastic_2d_free, monkeypatch):
    # the whole build's field check refuses the NaN; a row built band by band
    # holds no field, so the density scan must refuse it
    u_values, plan = SharpGeometry2D.u_values, _criterion_05_plan((2.0 ** -5,), (384, 320))
    # the tile at rows 128:256, columns 0:128
    corner = plan.grid().centers(0)[128], plan.grid().centers(1)[0]

    def nan_on_one_tile(self, x, y):
        u = u_values(self, x, y)
        return np.full_like(u, np.nan) if (x.flat[0], y.flat[0]) == corner else u
    monkeypatch.setattr(SharpGeometry2D, "u_values", nan_on_one_tile)
    with pytest.raises(ValueError, match="non-finite values"):
        build_recovery(CRITERION_05, 2.0 ** -5, plan.deltas()[0], plan.lam, plan.grid(), P,
                       enforce_width=False)
    assert _same_rows_as_whole_builds(plan, P, elastic_2d_free) == ["error:ValueError"]


def test_a_1024_squared_row_holds_less_than_one_cells_sized_array(P, elastic_2d_free):
    # the whole build holds c, z and both u planes, four arrays of 8 MiB at
    # 1024^2; a row built band by band holds about one band of them
    plan = _criterion_05_plan((2.0 ** -7,), (1024, 1024))
    tracemalloc.start()
    try:
        (row,) = gamma_sweep(plan, P, elastic_2d_free).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.status == "ok"
    assert peak < 1024 * 1024 * 8, peak / 2 ** 20


def _slab_proofs(geometry, eps, delta, lam, grid, P, slab_rows=None):
    """For each slab of the energy's pass (or of `slab_rows` rows), the key
    `RecoveryBands` proves for its haloed rows, with `flat_key` of those
    rows as built: [(proved, tested)]."""
    bands = recovery.RecoveryBands(geometry, eps, delta, lam, grid, P, enforce_width=False)
    c, z, u = bands.band(slice(0, grid.cells[0]))
    if slab_rows is None:
        halos = [halo for halo, _ in energy._slabs(grid)]
    else:
        rows = grid.cells[0]
        halos = [energy._haloed(r0, min(r0 + slab_rows, rows), rows)[0]
                 for r0 in range(0, rows, slab_rows)]
    return [(key, flat_key(c[h], z[h], u[h], grid.dim))
            for key, h in zip(bands._prove(halos), halos)]


def _config(text, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(text)
    return parse_config(str(config))


def _on_criterion_05(u_spec):
    """Criterion 05's phase set and crack with the displacement `u_spec`."""
    return SharpGeometry2D((0.0, 0.0), (1.0, 1.0), CRITERION_05.polygon, CRITERION_05.segments,
                           u_spec)


# geometries the proofs are checked on, beside the configs of tools/same_outputs.py
_PROOF_GEOMETRIES = {
    "criterion 05": CRITERION_05,
    "u NaN": CRITERION_05,
    "zero": _on_criterion_05(zero_displacement()),
    "affine F = 0": _on_criterion_05(affine_displacement(np.zeros((2, 2)), (0.1, 0.0))),
    # each u0 = -0.0 + (+-0.0) is 0.0 where x > 0 and y > 0, so slabs are
    # flat, but an offset of -0.0 is never proved
    "affine F = 0, b0 = -0.0": _on_criterion_05(
        affine_displacement(np.array([[0.0, -0.0], [-0.0, 0.0]]), (-0.0, 0.1)))}


@pytest.mark.parametrize("name,proofs", [
    ("criterion 05", True), ("SLANTED_RECOVER", False), ("SIGNED_ZERO_RIGID", True),
    ("FLAT_OFF_SPLITS", True), ("AFFINE_RECOVER", False), ("affine F = 0", True),
    ("affine F = 0, b0 = -0.0", False), ("zero", True), ("SWEEP_1D", True),
    ("SWEEP_1D_PIECES", False), ("u NaN", False)])
def test_every_proved_slab_holds_its_keys_bits(P, monkeypatch, tmp_path, name, proofs):
    # soundness: a key proved from the bounds is `flat_key` of the rows as
    # built, on the energy's slabs and on slabs of 7 and 37 rows
    if name in _PROOF_GEOMETRIES:
        plan = _criterion_05_plan((2.0 ** -5, 2.0 ** -6), (384, 320))
        plan = SweepPlan(_PROOF_GEOMETRIES[name], plan.eps_schedule, plan.delta_rule,
                         plan.delta_scale, plan.lam, plan.cells)
    else:
        plan = _config(getattr(same_outputs, name), tmp_path).sweep_plan
    if name == "SWEEP_1D":
        # at its delta_scale of 8 the z-transition reaches every slab
        plan = SweepPlan(plan.geometry, plan.eps_schedule, plan.delta_rule, 1.0, plan.lam,
                         plan.cells)
    if name == "u NaN":
        u_values = SharpGeometry2D.u_values
        monkeypatch.setattr(SharpGeometry2D, "u_values",
                            lambda self, x, y: u_values(self, x, y) * np.nan)
    seen = []
    for eps, delta in zip(plan.eps_schedule, plan.deltas()):
        for slab_rows in (None, 7, 37):
            found = _slab_proofs(plan.geometry, eps, delta, plan.lam, plan.grid(), P, slab_rows)
            assert all(tested == proved for proved, tested in found if proved is not None)
            seen += found
    assert any(proved is not None for proved, _ in seen) == proofs
    # a refused flat slab shows the proof is not vacuous where it is absent
    assert any(tested is not None for _, tested in seen) == (
        name not in ("SLANTED_RECOVER", "AFFINE_RECOVER", "SWEEP_1D_PIECES"))


def test_the_bounds_prove_every_flat_slab_of_the_1024_squared_rows(P):
    # completeness on the sweep_2d workload's geometry: at 1024^2, 49 of the
    # 64 slabs are flat at eps = 2^-6 and 55 at 2^-7, and each is proved
    plan = _criterion_05_plan((2.0 ** -6, 2.0 ** -7), (1024, 1024))
    counts = []
    for eps, delta in zip(plan.eps_schedule, plan.deltas()):
        found = _slab_proofs(plan.geometry, eps, delta, plan.lam, plan.grid(), P)
        assert [proved for proved, _ in found] == [tested for _, tested in found]
        counts.append(sum(proved is not None for proved, _ in found))
    assert counts == [49, 55]


def test_a_1024_squared_row_never_builds_a_proved_slabs_inner_rows(P, elastic_2d_free,
                                                                   monkeypatch):
    # the rows of a proved slab that no other slab reads as its halo are
    # never handed to `RecoveryBands.band`, and no row is built twice
    plan = _criterion_05_plan((2.0 ** -7,), (1024, 1024))
    built, band = [], recovery.RecoveryBands.band

    def recorded(self, rows):
        built.extend(range(rows.start, rows.stop))
        return band(self, rows)
    monkeypatch.setattr(recovery.RecoveryBands, "band", recorded)
    (row,) = gamma_sweep(plan, P, elastic_2d_free).rows
    assert row.status == "ok" and len(built) == len(set(built))
    bands = recovery.RecoveryBands(CRITERION_05, *plan.eps_schedule, *plan.deltas(), plan.lam,
                                   plan.grid(), P, enforce_width=False)
    halos = [halo for halo, _ in energy._slabs(plan.grid())]
    proved = [(h.start + 2, h.stop - 2) for h, key in zip(halos, bands._prove(halos))
              if key is not None]
    assert len(proved) == 55
    assert not any(a <= r < b for r in built for a, b in proved)
    assert built


@pytest.mark.parametrize("seed", [0, 1])
def test_recover_proves_every_flat_slab_and_keeps_the_bits_of_evaluate(monkeypatch, tmp_path,
                                                                        seed):
    # recover_2d at 512^2: `recover` takes its energy from the RecoveryBands
    # that built its state; its bounds prove all 13 of the 16 slabs that are
    # flat, and the energy is `evaluate` of the dumped state, bit for bit
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import make_config
    config = tmp_path / "run.ini"
    config.write_text(make_config("recover_2d", seed))
    cfg = parse_config(str(config))
    assert cfg.sweep_plan.cells == (512, 512)
    calls, pass_ = [], cli.diffuse_energy

    def recorded(source, P, M):
        calls.append((source, pass_(source, P, M), P, M))
        return calls[-1][1]
    monkeypatch.setattr(cli, "diffuse_energy", recorded)
    assert cli.main(["recover", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    ((bands, got, P, M),) = calls
    # the views of the state that `recover` built through these bands and dumped
    c, z, u = bands._whole
    grid = bands.grid
    state = energy.DiffuseState(ScalarField(grid, c), VectorField(grid, u), ScalarField(grid, z),
                                bands.eps, bands.delta)
    assert _bits(got) == _bits(energy.evaluate(state, P, M)[0])
    halos = [halo for halo, _ in energy._slabs(grid)]
    found = [(key, flat_key(c[h], z[h], u[h], 2)) for key, h in zip(bands._prove(halos), halos)]
    assert [proved for proved, _ in found] == [tested for _, tested in found]
    assert len(found) == 16 and sum(proved is not None for proved, _ in found) == 13


@pytest.mark.parametrize("u_nan", [False, True], ids=["ok_row", "failed_row"])
def test_a_row_keeps_nothing_of_its_bands_alive(P, elastic_2d_free, monkeypatch, u_nan):
    # no reference cycle may hold a row's bands until the collector runs
    made, band = [], recovery.RecoveryBands.band

    def recorded(self, rows):
        arrays = band(self, rows)
        made.extend(weakref.ref(a) for a in arrays)
        return arrays
    monkeypatch.setattr(recovery.RecoveryBands, "band", recorded)
    sources, bands = [], harness.RecoveryBands

    def source(*args, **kw):
        sources.append(bands(*args, **kw))
        return sources[-1]
    monkeypatch.setattr(harness, "RecoveryBands", source)
    if u_nan:
        u_values = SharpGeometry2D.u_values
        monkeypatch.setattr(SharpGeometry2D, "u_values",
                            lambda self, x, y: u_values(self, x, y) * np.nan)
    plan = _criterion_05_plan((2.0 ** -5,), (384, 320))
    gc.disable()
    try:
        (row,) = gamma_sweep(plan, P, elastic_2d_free).rows
        alive = weakref.ref(sources.pop())
        assert row.status == ("error:ValueError" if u_nan else "ok")
        # c, z and u of each band: a NaN u proves no slab, so all 384 rows
        # are built in three bands; the ok row proves its slabs at rows 0:51
        # and 255:384 and builds rows 50:256, the unproved run, in two
        assert len(made) == 3 * (3 if u_nan else 2) and alive() is None
        assert [a for a in made if a() is not None] == []
    finally:
        gc.enable()


def test_geodesic_inequality_constant_field(P):
    g = Grid((0.0,), (1.0,), (256,))
    lhs, rhs, slack = geodesic_inequality_check(ScalarField.full(g, 0.4), "W", 0.1, P)
    assert lhs == 0.0
    assert slack >= 0.0


def test_geodesic_inequality_sine(P):
    g = Grid((0.0,), (1.0,), (1024,))
    w = ScalarField.from_function(g, lambda x: np.sin(8 * np.pi * x))
    lhs, rhs, slack = geodesic_inequality_check(w, "W", 0.05, P)
    assert slack >= 0.0
    assert lhs > 0.5  # many oscillations carry real variation


def test_geodesic_inequality_random_trig_fields(P):
    g = Grid((0.0,), (1.0,), (1024,))
    x = g.centers(0)
    rng = np.random.Generator(np.random.Philox(17))
    worst = np.inf
    for _ in range(100):
        vals = rng.uniform(0, 1) + sum(
            rng.normal(0, 0.4) * np.sin((m + 1) * np.pi * x + rng.uniform(0, 2 * np.pi))
            for m in range(5))
        eps = float(rng.uniform(0.01, 0.2))
        _, _, slack = geodesic_inequality_check(ScalarField(g, vals), "W", eps, P)
        worst = min(worst, slack)
    assert worst >= -1e-10


def test_geodesic_near_equality_on_profile(P):
    # the transition profile makes Young's inequality tight up to the lam floor
    lam, eps = 1e-8, 2.0 ** -5
    prof = build_profile(ProfileParams(P.w, lam, eps))
    g = Grid((0.0,), (1.0,), (2 ** 14,))
    x = g.centers(0)
    w = ScalarField(g, np.asarray(prof.g(x - 0.5 + prof.width / 2)))
    lhs, rhs, slack = geodesic_inequality_check(w, "W", eps, P)
    assert slack <= 1e-3 * rhs
    assert lhs == pytest.approx(1 / 3, abs=1e-6)


def test_geodesic_inequality_refuses_a_2d_field(P):
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(ValueError, match="^geodesic inequality check expects a 1D field$"):
        geodesic_inequality_check(ScalarField.full(g, 0.4), "W", 0.1, P)


def test_face_tv_step():
    g = Grid((0.0,), (1.0,), (64,))
    f = ScalarField.from_function(g, lambda x: (x > 0.5).astype(float))
    assert face_total_variation(f) == pytest.approx(1.0)


def test_levelset_diagnostic_flat(P):
    g = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    t_star, est, bound = compactness_levelset_diagnostic(ScalarField.full(g, 1.0), P)
    assert est == 0.0


def test_levelset_diagnostic_2d_tube(P):
    segs = SegmentSet([[[0.5, 0.25], [0.5, 0.75]]])
    geo = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=segs)
    grid = Grid((0.0, 0.0), (1.0, 1.0), (512, 512))
    st = build_recovery(geo, 2.0 ** -7, 0.02, 1e-4, grid, P, enforce_width=True)
    t_star, est, bound = compactness_levelset_diagnostic(st.z, P)
    assert est == pytest.approx(2 * 0.5, rel=0.2)  # two tube flanks
    assert est <= bound * 1.2


def test_levelset_diagnostic_1d_two_crossings(P):
    grid = Grid((0.0,), (1.0,), (4096,))
    st = build_recovery(CRACK_1D, 2.0 ** -7, 0.02, 1e-4, grid, P, enforce_width=True)
    t_star, est, bound = compactness_levelset_diagnostic(st.z, P)
    assert est == 2.0
    assert est <= bound * 1.2


def test_levelset_diagnostic_refuses_a_perimeter_past_its_bound(P, monkeypatch):
    grid = Grid((0.0,), (1.0,), (4096,))
    z = build_recovery(CRACK_1D, 2.0 ** -7, 0.02, 1e-4, grid, P, enforce_width=True).z
    _, est, bound = compactness_levelset_diagnostic(z, P)
    # a share that puts the bound just below the chosen level's perimeter
    monkeypatch.setattr(harness, "_LEVELSET_GRID_SLACK", est / bound - 1.0 - 1e-6)
    with pytest.raises(DiagnosticError, match=re.escape(
            f"level-set perimeter {est:.4g} exceeds bound {bound:.4g} (")):
        compactness_levelset_diagnostic(z, P)


def test_levelset_rejects_out_of_box(P):
    g = Grid((0.0,), (1.0,), (64,))
    with pytest.raises(ValueError):
        compactness_levelset_diagnostic(ScalarField.full(g, 1.5), P)


def test_slicing_affine_exact():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (256, 256))
    rep = slicing_identity_check(
        affine_displacement(np.array([[0.3, 0.1], [0.0, -0.2]])), grid, 8, seed=5)
    assert rep.max_error <= 1e-10


def test_slicing_skew_both_sides_vanish():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (256, 256))
    rep = slicing_identity_check(skew_affine_displacement(), grid, 8, seed=5)
    assert rep.max_error <= 1e-10


def test_slicing_quadratic_first_order():
    rep_c = slicing_identity_check(quadratic_displacement(),
                                   Grid((0.0, 0.0), (1.0, 1.0), (2 ** 9, 2 ** 9)),
                                   32, seed=5)
    rep_f = slicing_identity_check(quadratic_displacement(),
                                   Grid((0.0, 0.0), (1.0, 1.0), (2 ** 10, 2 ** 10)),
                                   32, seed=5)
    assert rep_c.max_error <= 0.5 * rep_c.spacing  # C well below 1/2 here
    assert rep_c.max_error / rep_f.max_error >= 1.7


@pytest.mark.parametrize("directions", [0, -3])
def test_slicing_refuses_no_directions(directions):
    # with no line compared, max_error read 0.0 and passed any bound
    grid = Grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    with pytest.raises(ValueError, match=f"^need at least one direction, got {directions}$"):
        slicing_identity_check(quadratic_displacement(), grid, directions)


def test_slicing_rejects_grid_without_interior_samples():
    # on 3x3 cells no sample lies farther than 2h from the boundary
    grid = Grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    with pytest.raises(DiagnosticError, match="0 of 4 lines"):
        slicing_identity_check(skew_affine_displacement(), grid, 4, seed=0)


DIAGNOSTIC_VIOLATIONS = """
import numpy as np
from phasefrac import harness
from phasefrac.fields import Grid, ScalarField, VectorField
from phasefrac.harness import (DiagnosticError, compactness_levelset_diagnostic,
                               geodesic_inequality_check)
from phasefrac.potentials import make_default_potentials
P = make_default_potentials()
harness._LEVELSET_GRID_SLACK = -1.0  # no perimeter fits under a negative bound
w = ScalarField(Grid((0.0,), (1.0,), (4,)), np.array([0.0, 0.0, 1.0, 1.0]))
step = ScalarField.from_function(Grid((0.0, 0.0), (1.0, 1.0), (16, 16)),
                                 lambda x, y: (x > 0.5).astype(float))
for call in (lambda: geodesic_inequality_check(w, "W", 0.01, P),
             lambda: compactness_levelset_diagnostic(step, P)):
    try:
        call()
    except DiagnosticError as exc:
        print("raised:", exc)
    else:
        raise SystemExit("diagnostic passed a violation")
"""


def test_diagnostics_raise_under_optimize():
    # the verdicts must survive `python -O`, which strips assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(phasefrac.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", DIAGNOSTIC_VIOLATIONS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("raised:") == 2
