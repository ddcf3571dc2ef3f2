import dataclasses
import gc
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import FlatSlabs, random_state
from phasefrac import energy, fields, solver
from phasefrac.cli import parse_config
from phasefrac.energy import (DEGRADATIONS, ETA_RULES, DiffuseState, ElasticModel,
                              EnergyBreakdown, diffuse_energy, evaluate, evaluate_block,
                              mass, project_mass)
from phasefrac.fields import Grid, ScalarField, VectorField, gradient, gradient_adjoint
from phasefrac.potentials import phi_delta
from phasefrac.recovery import ProfileParams, RecoveryBands, build_profile, build_recovery
from phasefrac.sharp import SharpGeometry1D


def fd_gradient(state, P, M, block, rel_step=1e-6):
    """Central finite differences of the total discrete energy."""
    def total(st):
        return diffuse_energy(st, P, M).e_total

    base = getattr(state, block).values
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for val in it:
        idx = it.multi_index
        step = rel_step * (1.0 + abs(float(val)))
        vp = base.copy()
        vm = base.copy()
        vp[idx] += step
        vm[idx] -= step
        if block == "u":
            sp = state.replace(u=VectorField(state.grid, vp))
            sm = state.replace(u=VectorField(state.grid, vm))
        elif block == "c":
            sp = state.replace(c=ScalarField(state.grid, vp))
            sm = state.replace(c=ScalarField(state.grid, vm))
        else:
            sp = state.replace(z=ScalarField(state.grid, vp))
            sm = state.replace(z=ScalarField(state.grid, vm))
        out[idx] = (total(sp) - total(sm)) / (2.0 * step)
    return out


def test_global_minimizer_zero(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (64,))
    s = DiffuseState(ScalarField.full(g, 0.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    b = diffuse_energy(s, P, elastic_1d_free)
    assert b.e_total == 0.0
    for grad in evaluate(s, P, elastic_1d_free, "cuz")[1].values():
        assert np.abs(grad).max() == 0.0


def test_compatible_state_zero(P, elastic_1d):
    # c = 1, u = e0 x, z = 1: every integrand vanishes
    g = Grid((0.0,), (1.0,), (64,))
    s = DiffuseState(ScalarField.full(g, 1.0),
                     VectorField.from_function(g, lambda x: (x,)),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    b = diffuse_energy(s, P, elastic_1d)
    assert b.e_phase == 0.0 and b.e_elastic == pytest.approx(0.0, abs=1e-25)
    assert b.e_crack == 0.0


def test_profile_phase_energy_band(P, elastic_1d_free):
    # c = near-optimal transition at 1/2 (lam=1e-4, eps=2^-8): e_phase within
    # [alpha_surf * phi_delta(1) * 0.98, (alpha_surf + 2 sqrt(lam)) * phi_delta(1) * 1.02]
    lam, eps, delta = 1e-4, 2.0 ** -8, 2.0 ** -6
    prof = build_profile(ProfileParams(P.w, lam, eps))
    g = Grid((0.0,), (1.0,), (2 ** 12,))
    x = g.centers(0)
    c = ScalarField(g, np.asarray(prof.g(x - 0.5 + prof.width / 2)))
    s = DiffuseState(c, VectorField.full(g, 0.0), ScalarField.full(g, 1.0), eps, delta)
    b = diffuse_energy(s, P, elastic_1d_free)
    pd1 = phi_delta(P, delta, 1.0)
    assert (1 / 3) * pd1 * 0.98 <= b.e_phase <= (1 / 3 + 2 * np.sqrt(lam)) * pd1 * 1.02


@pytest.mark.parametrize("psi,eta_rule", [("quadratic", "delta_squared"),
                                          ("linear", "delta_cubed")])
@pytest.mark.parametrize("block", ["c", "u", "z"])
def test_gradients_match_finite_differences(P, block, psi, eta_rule):
    M = ElasticModel(e0=np.array([[1.0]]), degradation=psi, eta_rule=eta_rule)
    g = Grid((0.0,), (1.0,), (64,))
    s = random_state(g, seed=21)
    fd = fd_gradient(s, P, M, block)
    an = evaluate(s, P, M, block)[1][block]
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(an - fd).max() / scale <= 1e-5


def test_gradients_match_fd_2d(P):
    M = ElasticModel(lame_lambda=0.3, lame_mu=0.7,
                     e0=np.array([[0.8, 0.1], [0.1, -0.2]]))
    g = Grid((0.0, 0.0), (1.0, 1.0), (7, 9))
    s = random_state(g, seed=4)
    grads = evaluate(s, P, M, "cuz")[1]
    for block in ("c", "u", "z"):
        fd = fd_gradient(s, P, M, block)
        an = grads[block]
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(an - fd).max() / scale <= 1e-5


def test_u_gradient_affine_in_u(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (32,))
    s = random_state(g, seed=30)
    rng = np.random.Generator(np.random.Philox(31))
    u1 = rng.normal(size=g.cells + (1,))
    u2 = rng.normal(size=g.cells + (1,))
    def gu(uv):
        return evaluate(s.replace(u=VectorField(g, uv)), P, elastic_1d, "u")[1]["u"]
    lhs = gu(u1 + u2)
    rhs = gu(u1) + gu(u2) - gu(np.zeros_like(u1))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_components_nonnegative_random(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (48,))
    for seed in range(8):
        b = diffuse_energy(random_state(g, seed=seed), P, elastic_1d)
        assert b.e_phase >= 0 and b.e_elastic >= 0 and b.e_crack >= 0
        assert b.e_total == pytest.approx(b.e_phase + b.e_elastic + b.e_crack)


def test_phase_term_monotone_in_z(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (48,))
    for seed in range(5):
        s = random_state(g, seed=100 + seed)
        up = ScalarField(g, np.minimum(s.z.values + 0.1, 1.0))
        assert diffuse_energy(s.replace(z=up), P, elastic_1d).e_phase >= \
            diffuse_energy(s, P, elastic_1d).e_phase


def test_degradation_limit(P):
    # with z = 1 the elastic term equals (1 + eta) times the undegraded energy
    M = ElasticModel(e0=np.array([[1.0]]))
    g = Grid((0.0,), (1.0,), (64,))
    s = random_state(g, seed=44)
    s = s.replace(z=ScalarField.full(g, 1.0))
    eta = M.eta(s.delta)
    b = diffuse_energy(s, P, M)
    undegraded = b.e_elastic / (1.0 + eta)
    s_half = s.replace(delta=s.delta / 2)
    b2 = diffuse_energy(s_half, P, M)
    assert b2.e_elastic / (1.0 + M.eta(s.delta / 2)) == pytest.approx(undegraded, rel=1e-12)


def test_clamp_audit_counter(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (16,))
    z = np.full(g.cells, 0.5)
    z[3] = 1.2
    z[7] = -0.1
    s = DiffuseState(ScalarField.full(g, 0.2), VectorField.full(g, 0.0),
                     ScalarField(g, z), 0.1, 0.1)
    assert diffuse_energy(s, P, elastic_1d).clamped_cells == 2


def _inf_at(value, fn):
    return lambda x: np.where(np.asarray(x) == value, np.inf, fn(x))


def test_nonfinite_names_cell(P, elastic_1d, monkeypatch):
    g = Grid((0.0,), (1.0,), (16,))
    s = DiffuseState(ScalarField.full(g, 0.2), VectorField.full(g, 0.0),
                     ScalarField.full(g, 0.5), 0.1, 0.1)
    psi, dpsi = DEGRADATIONS["quadratic"]
    monkeypatch.setitem(DEGRADATIONS, "inf_at_half", (_inf_at(0.5, psi), dpsi))
    bad = ElasticModel(e0=np.array([[1.0]]), degradation="inf_at_half")
    with pytest.raises(ValueError, match=r"cell \(0,\)"):
        diffuse_energy(s, P, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integral_names_the_first_nonfinite_cell(bad):
    # the sum comes first, and a sum that is not finite sends the scan for
    # the cell; inf against -inf sums to NaN, and is named all the same
    density = np.ones((4, 5))
    density[2, 3], density[3, 1] = bad, -bad
    grid, message = Grid((0.0, 0.0), (1.0, 1.0), (4, 5)), "non-finite crack density at cell (2, 3)"
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=re.escape(message)):
            energy._integral(density, grid, "crack")
        # the slab pass's sums: the whole array as one slab, and as slabs of one row
        for slabs in ([(density,)], [(row,) for row in np.split(density, 4)]):
            with pytest.raises(ValueError, match=re.escape(message)):
                energy._integrals(slabs, grid, ("crack",))


def test_a_finite_density_whose_sum_overflows_is_refused(P, monkeypatch):
    # psi = 1e308 and C(e(u) - c e0) = 1 at every cell: each elastic density
    # is finite, its sum is not, and no cell is named.  Every slab is flat in
    # one pattern, and a source that yields its key (`FlatSlabs`) makes the
    # slab pass reuse the overflowed sum of each slab shape: a whole-grid
    # slab, slabs of 512 cells (one shape) and of 1000 (a short last one)
    monkeypatch.setitem(DEGRADATIONS, "huge", (lambda z: np.full_like(z, 1e308),
                                               DEGRADATIONS["quadratic"][1]))
    M = ElasticModel(e0=np.array([[1.0]]), degradation="huge")
    g = Grid((0.0,), (1.0,), (4096,))
    s = DiffuseState(ScalarField.full(g, 1.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    sums, checked_sum = [], energy._checked_sum

    def counted(values, lo, shape, label):
        sums.append(values.shape)
        return checked_sum(values, lo, shape, label)
    monkeypatch.setattr(energy, "_checked_sum", counted)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="e_elastic must be finite and nonnegative, got inf"):
            evaluate(s, P, M)
        for cells in (energy._BLOCK, 512, 1000):
            monkeypatch.setattr(energy, "_BLOCK", cells)
            sums.clear()
            with pytest.raises(ValueError, match="e_elastic must be finite and nonnegative, "
                                                 "got inf"):
                diffuse_energy(FlatSlabs(s), P, M)
            # each term forms at most one flat sum per distinct slab shape
            shapes = {(rows.stop - rows.start,) for rows in energy._slab_rows(g)}
            assert 0 < len(sums) <= 3 * len(shapes) and set(sums) == shapes, (cells, sums)


def _pieces(rng, shape, slabs):
    """A random array of `shape`, with values over six decades and both
    signs, cut into the ranges of rows `slabs` as pieces for
    `energy._integrals`: each piece formed, or flat, one of four values,
    -0.0 among them, over all its cells; (the pieces, the whole array)."""
    pool = np.append(rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3, 3), -0.0)
    pieces = []
    for rows in slabs:
        cut = (rows.stop - rows.start,) + shape[1:]
        if rng.random() < 0.5:
            pieces.append(energy._Flat(pool[rng.integers(len(pool))], cut))
        else:
            pieces.append(rng.standard_normal(cut) * 10.0 ** rng.uniform(-3, 3, cut))
    return pieces, np.concatenate([np.full(p.shape, p.value) if isinstance(p, energy._Flat)
                                   else p for p in pieces])


@pytest.mark.parametrize("shape", [(300, 200), (256, 200), (777, 333), (513, 511), (1024, 1024),
                                   (64, 64), (1000,), (2 ** 14 + 3,), (256,)])
def test_integral_is_the_sum_of_its_slabs(monkeypatch, shape):
    # an integral is the cell volume times its slabs' `np.sum`s added left
    # to right from the first: the slab pass's pieces, formed or flat, give
    # `_integral` of the joined array bit for bit, under slabs of one row,
    # of 7 rows, the default slabs and one slab for the whole array
    rng = np.random.Generator(np.random.Philox(len(shape) * 7919 + shape[0]))
    grid = Grid((0.0,) * len(shape), tuple(float(n) for n in shape), shape)
    assert grid.cell_volume == 1.0
    row_cells = math.prod(shape[1:])
    kinds, short, orders = set(), set(), set()
    for block in (row_cells, 7 * row_cells, 2 ** 14, math.prod(shape)):
        monkeypatch.setattr(energy, "_BLOCK", block)
        slabs = energy._slab_rows(grid)
        short.add(slabs[-1].stop - slabs[-1].start < slabs[0].stop - slabs[0].start)
        cases = [_pieces(rng, shape, slabs) for _ in range(3)]
        # and flat pieces of -0.0 alone, whose sum takes the sign `np.sum` gives
        zeros = [energy._Flat(np.float64(-0.0), p.shape) for p in cases[0][0]]
        cases.append((zeros, np.full(shape, -0.0)))
        for pieces, whole in cases:
            kinds.update(type(p) for p in pieces)
            want = np.sum(whole[slabs[0]])
            for rows in slabs[1:]:
                want = want + np.sum(whole[rows])
            (got,) = energy._integrals([(p,) for p in pieces], grid, ("test",))
            assert got.hex() == float(want).hex(), block
            assert energy._integral(whole, grid, "test").hex() == got.hex(), block
            if len(slabs) > 1:
                orders.add(want == np.sum(whole))
    assert kinds == {np.ndarray, energy._Flat} and True in short
    # the data tells the slab sums from one `np.sum` of the whole array
    assert False in orders


def _smoke_states(tmp_path):
    """(name, state, P, M) for each state the workloads' smoke configs give
    `diffuse_energy`: each sweep row's recovery, or the solver's start."""
    from workloads import WORKLOADS, make_config
    for name in WORKLOADS:
        config = tmp_path / f"{name}.ini"
        config.write_text(make_config(name, 0, smoke=True))
        cfg = parse_config(str(config))
        plan = cfg.sweep_plan
        if plan is None:
            states = [solver.default_state(cfg.solver_grid, cfg.solver_eps, cfg.solver_delta,
                                           c0=cfg.solver_plan.mass_constraint, seed=cfg.seed)]
        else:
            states = [build_recovery(plan.geometry, eps, delta, plan.lam, plan.grid(),
                                     cfg.potentials, enforce_width=plan.enforce_width)
                      for eps, delta in zip(plan.eps_schedule, plan.deltas())]
        for state in states:
            yield name, state, cfg.potentials, cfg.elastic


def test_the_tree_sum_gives_np_sum_on_every_workloads_densities(monkeypatch, tmp_path):
    # evaluate sums each whole density with `_integral`; the slab pass sums
    # it slab by slab as its pieces come, under default slabs and slabs of
    # 1000 cells, which cut flat runs short; the state's flat slabs come as
    # their keys (`FlatSlabs`), so both kinds of piece are summed
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                             "perfbench"))
    kinds, integrals = set(), energy._integrals

    def seen(slabs, grid, labels):
        slabs = list(slabs)
        kinds.update(type(p) for pieces in slabs for p in pieces)
        return integrals(slabs, grid, labels)
    for name, s, P, M in _smoke_states(tmp_path):
        for cells in (fields._BLOCK, 1000):
            monkeypatch.setattr(energy, "_BLOCK", cells)
            want = evaluate(s, P, M)[0]
            monkeypatch.setattr(energy, "_integrals", seen)
            assert _same_energy(diffuse_energy(FlatSlabs(s), P, M), want), (name, cells)
            monkeypatch.setattr(energy, "_integrals", integrals)
    assert kinds == {np.ndarray, energy._Flat}


@pytest.mark.parametrize("cells", [(64,), (16, 12)])
def test_rigid_translation_of_u_keeps_the_energy(P, cells):
    # e(u) is a difference of u, so u -> u + 1 moves no term beyond rounding
    g = Grid((0.0,) * len(cells), (1.0,) * len(cells), cells)
    e0 = np.array([[0.8]]) if len(cells) == 1 else np.array([[0.8, 0.1], [0.1, -0.2]])
    M = ElasticModel(lame_lambda=0.2, e0=e0)
    for seed in range(4):
        s = random_state(g, seed=seed)
        moved = s.replace(u=VectorField(g, s.u.values + 1.0))
        for a, b in zip(*(dataclasses.astuple(diffuse_energy(t, P, M)) for t in (s, moved))):
            assert abs(a - b) <= 1e-14 * abs(a), seed


def test_mass_and_projection(P):
    g = Grid((0.0,), (1.0,), (256,))
    c = ScalarField.full(g, 0.3)
    assert mass(c) == pytest.approx(0.3, abs=1e-15)
    assert np.abs(project_mass(c, 0.3).values - c.values).max() <= 1e-15
    zero = ScalarField.full(g, 0.0)
    assert np.abs(project_mass(zero, 0.3).values - 0.3).max() < 1e-15
    rng = np.random.Generator(np.random.Philox(3))
    r = ScalarField(g, rng.normal(size=g.cells))
    assert abs(mass(project_mass(r, 0.5)) - 0.5) <= 1e-12


def test_breakdown_validates():
    # nan < 0 is false, so a check written as `< 0` let a NaN term through
    for value in (-1.0, np.nan, np.inf):
        for term in range(3):
            terms = [0.0, 0.0, 0.0]
            terms[term] = value
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                EnergyBreakdown(*terms)


@pytest.mark.parametrize("e0", [[[np.nan]], [[0.0, np.nan], [0.0, 0.0]], [[np.inf, 0.0],
                                                                          [0.0, 0.0]]])
def test_elastic_model_names_a_nonfinite_e0(e0):
    # an asymmetric NaN used to read `e0 must be symmetric`
    with pytest.raises(ValueError, match="e0 must be finite"):
        ElasticModel(e0=np.array(e0))


@pytest.mark.parametrize("off", [1.00001, 1.0 + 1e-12])
def test_elastic_model_refuses_an_asymmetric_e0(off):
    # an off-diagonal pair that numpy's default rtol of 1e-5 calls close
    # would lose its lower entry to `sym_planes`
    with pytest.raises(ValueError, match=re.escape(f"e0 must be symmetric, got [[1.0, {off!r}]")):
        ElasticModel(e0=np.array([[1.0, off], [1.0, 1.0]]))
    ElasticModel(e0=np.array([[1.0, 1.0 + 1e-15], [1.0, 1.0]]))  # within atol


@pytest.mark.parametrize("eps,delta", [(np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1),
                                       (0.1, np.inf), (0.0, 0.1), (0.1, -1.0)])
def test_a_state_and_a_recovery_refuse_lengths_outside_zero_to_inf(P, eps, delta):
    # NaN passed `eps <= 0 or delta <= 0`: a state with eps = NaN failed
    # later as a non-finite interfacial density, and delta = inf built a
    # recovery with no crack layer
    message = re.escape(f"need 0 < eps < inf and 0 < delta < inf, got eps {eps}, "
                        f"delta {delta}")
    g = Grid((0.0,), (1.0,), (64,))
    with pytest.raises(ValueError, match=message):
        DiffuseState(ScalarField.full(g, 0.5), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), eps, delta)
    geometry = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                               u_pieces=((0.0, 0.0), (0.0, 0.1)))
    with pytest.raises(ValueError, match=message):
        RecoveryBands(geometry, eps, delta, 1e-4, g, P, enforce_width=False)


def test_a_state_refuses_fields_on_two_grids():
    g, other = Grid((0.0,), (1.0,), (64,)), Grid((0.0,), (1.0,), (32,))
    for c, u, z in ((other, g, g), (g, other, g), (g, g, other)):
        with pytest.raises(ValueError, match="^c, u, z must share one grid$"):
            DiffuseState(ScalarField.full(c, 0.5), VectorField.full(u, 0.0),
                         ScalarField.full(z, 1.0), 0.1, 0.1)


@pytest.mark.parametrize("lame", [dict(lame_mu=np.nan), dict(lame_mu=np.inf),
                                  dict(lame_lambda=np.nan), dict(lame_lambda=np.inf)])
def test_elastic_model_refuses_nonfinite_moduli(lame):
    with pytest.raises(ValueError, match="need 0 < mu < inf and 0 <= lambda < inf"):
        ElasticModel(**lame)


def test_every_degradation_and_eta_rule_is_admissible():
    # psi(0) = 0, psi(1) = 1, dpsi the derivative of psi, and eta > 0 for
    # delta in [2^-40, 1] (in floating point delta^2 underflows to 0 below
    # about 1e-162): the model takes them by name, so the tables are all it
    # can be given
    z, h = np.linspace(0.05, 0.95, 19), 1e-6
    for name, (psi, dpsi) in DEGRADATIONS.items():
        assert float(psi(0.0)) == 0.0 and float(psi(1.0)) == 1.0, name
        central = (psi(z + h) - psi(z - h)) / (2.0 * h)
        assert np.abs(dpsi(z) - central).max() <= 1e-8, name
    for name, eta in ETA_RULES.items():
        assert all(eta(2.0 ** -k) > 0.0 for k in range(41)), name


def test_elastic_model_resolves_its_rules_by_name():
    for name, (psi, dpsi) in DEGRADATIONS.items():
        M = ElasticModel(degradation=name)
        assert M.psi is psi and M.dpsi is dpsi
    for name, eta in ETA_RULES.items():
        assert ElasticModel(eta_rule=name).eta is eta
    M = ElasticModel(lame_lambda=0.2, degradation="linear", eta_rule="delta_cubed")
    assert M == ElasticModel(lame_lambda=0.2, degradation="linear", eta_rule="delta_cubed")
    assert M != ElasticModel(lame_lambda=0.2, degradation="linear")
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])
    assert ElasticModel(e0=e0) == ElasticModel(e0=e0.copy()) != ElasticModel(e0=e0.T * 2)
    assert ElasticModel(e0=np.eye(1)) != ElasticModel(e0=np.eye(2))
    assert repr(M) == ("ElasticModel(lame_lambda=0.2, lame_mu=0.5, e0=array([[0.]]), "
                       "degradation='linear', eta_rule='delta_cubed')")
    with pytest.raises(ValueError, match=re.escape(
            "unknown degradation 'cubic' (quadratic|linear)")):
        ElasticModel(degradation="cubic")
    with pytest.raises(ValueError, match=re.escape(
            "unknown eta_rule 'delta' (delta_squared|delta_cubed)")):
        ElasticModel(eta_rule="delta")
    with pytest.raises(TypeError):
        ElasticModel(psi=DEGRADATIONS["linear"][0])


def test_e0_is_copied_frozen_and_checked_at_construction():
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])
    M = ElasticModel(e0=e0)
    planes = M.e0_planes(2)
    e0[0, 0] = 7.0
    e0[0, 1] = 5.0  # would also break the symmetry the model checked
    assert M.e0[0, 0] == 0.8 and M.e0[0, 1] == 0.1
    assert M.e0_planes(2) == planes == (0.8, -0.2, 0.1)
    with pytest.raises(ValueError, match="read-only"):
        M.e0[0, 0] = 7.0
    with pytest.raises(ValueError, match=r"e0 must be a 1x1 or 2x2 matrix, got shape \(3, 3\)"):
        ElasticModel(e0=np.eye(3))


def test_e0_cannot_be_made_writable():
    # e0 is a view of the frozen copy, so numpy refuses the flag, and e0 and
    # the planes the energy uses cannot come apart
    M = ElasticModel(e0=np.array([[1.0]]))
    with pytest.raises(ValueError, match="WRITEABLE"):
        M.e0.setflags(write=True)
    assert M.e0[0, 0] == 1.0 and M.e0_planes(1) == (1.0,)


def test_e0_of_another_dimension_is_refused(P):
    # broadcast, a 1x1 e0 would act as the all-ones matrix in 2D (e_elastic
    # 1.01 here instead of 0.505), and a 2x2 e0 would widen the 1D strain to 2x2
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    s = DiffuseState(ScalarField.full(g, 0.5), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    assert diffuse_energy(s, P, ElasticModel(e0=np.eye(2))).e_elastic == \
        pytest.approx(0.505, rel=1e-12)
    g1 = Grid((0.0,), (1.0,), (8,))
    s1 = DiffuseState(ScalarField.full(g1, 0.5), VectorField.full(g1, 0.0),
                      ScalarField.full(g1, 1.0), 0.1, 0.1)
    for state, e0, need in ((s, np.ones((1, 1)), "(2, 2)"), (s1, np.eye(2), "(1, 1)")):
        M = ElasticModel(e0=e0)
        message = re.escape(f"e0 has shape {e0.shape}, but a {state.grid.dim}D grid needs {need}")
        with pytest.raises(ValueError, match=message):
            evaluate(state, P, M, "cuz")
        with pytest.raises(ValueError, match=message):
            solver.minimize_u(state, P, M, solver.SolverPlan(),
                              before=EnergyBreakdown(1.0, 1.0, 1.0))


# The (d, d) formulas that the strain planes replaced, and the stacked
# cells + (d,) gradient that the gradient planes replaced, kept as references:
# evaluate and the u-step must reproduce them bit for bit.

def _stacked_gradient(f, h):
    return np.stack(gradient(f, h), axis=-1)


def _stacked_gradient_adjoint(v, h):
    return gradient_adjoint(tuple(v[..., a] for a in range(len(h))), h)


def _reference_sym_gradient(u, h):
    jac = np.stack([_stacked_gradient(u[..., a], h) for a in range(len(h))], axis=-2)
    return 0.5 * (jac + np.swapaxes(jac, -1, -2))


def _reference_form(M, xi):
    tr = np.trace(xi, axis1=-2, axis2=-1)
    return M.lame_lambda * tr * tr + 2.0 * M.lame_mu * np.sum(xi * xi, axis=(-2, -1))


def _reference_dform(M, xi):
    tr = np.trace(xi, axis1=-2, axis2=-1)
    return (2.0 * M.lame_lambda * tr[..., None, None] * np.eye(xi.shape[-1])
            + 4.0 * M.lame_mu * xi)


def _reference_stress_divergence(grid, M, weight, xi):
    s = weight[..., None, None] * _reference_dform(M, xi)
    h = grid.spacing
    return grid.cell_volume * np.stack(
        [_stacked_gradient_adjoint(s[..., a, :], h) for a in range(len(h))], axis=-1)


def _reference_evaluate(s, P, M):
    """evaluate(s, P, M, "cuz") with the (d, d) strain."""
    grid = s.grid
    h, vol = grid.spacing, grid.cell_volume
    c, z = s.c.values, s.z.values
    outside = (z < 0.0) | (z > 1.0)
    zc = np.clip(z, 0.0, 1.0)
    phase_weight = P.phi(zc) + P.c_delta(s.delta)
    elastic_weight = M.psi(zc) + M.eta(s.delta)
    gc = _stacked_gradient(c, h)
    gz = _stacked_gradient(z, h)
    xi = _reference_sym_gradient(s.u.values, h) - c[..., None, None] * M.e0
    phase_raw = P.w(c) / s.eps + s.eps * np.sum(gc * gc, axis=-1)
    form = _reference_form(M, xi)
    energy = [vol * (phase_weight * phase_raw).sum(), vol * (elastic_weight * form).sum(),
              vol * (P.v(zc) / s.delta + s.delta * np.sum(gz * gz, axis=-1)).sum()]
    gc_out = phase_weight * P.dw(c) / s.eps
    gc_out += 2.0 * s.eps * _stacked_gradient_adjoint(phase_weight[..., None] * gc, h)
    gc_out -= elastic_weight * np.sum(_reference_dform(M, xi) * M.e0, axis=(-2, -1))
    mask = np.where(outside, 0.0, 1.0)
    gz_out = mask * P.dphi(zc) * phase_raw
    gz_out += mask * M.dpsi(zc) * form
    gz_out += mask * P.dv(zc) / s.delta
    gz_out += 2.0 * s.delta * _stacked_gradient_adjoint(gz, h)
    return (np.array(energy), {"c": vol * gc_out, "z": vol * gz_out,
                               "u": _reference_stress_divergence(grid, M, elastic_weight, xi)})


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("zero_u", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_strain_planes_match_the_dd_reference_bitwise(P, dim, zero_u, lam):
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])[:dim, :dim]
    M = ElasticModel(lame_lambda=lam, lame_mu=0.6, e0=e0)
    g = Grid((0.0,) * dim, (1.0,) * dim, (23, 17)[:dim])
    s = random_state(g, seed=50 + dim)
    rng = np.random.Generator(np.random.Philox(7))
    s = s.replace(z=ScalarField(g, rng.uniform(-0.2, 1.2, g.cells)))  # some cells clamp
    if zero_u:
        s = s.replace(u=VectorField.full(g, np.zeros(dim)))
    energy, grads = evaluate(s, P, M, "cuz")
    ref_energy, ref_grads = _reference_evaluate(s, P, M)
    assert energy.clamped_cells > 0
    got = np.array([energy.e_phase, energy.e_elastic, energy.e_crack])
    assert np.array_equal(_bits(got), _bits(ref_energy))
    for block in "cuz":
        assert np.array_equal(_bits(grads[block]), _bits(ref_grads[block])), block
    # one u-step capped at 5 CG iterations (the exact solve in 1D)
    plan = solver.SolverPlan(cg_max_iters=5)
    s2, res = solver.minimize_u(s, P, M, plan)
    assert res.accepted
    weight = M.psi(np.clip(s.z.values, 0.0, 1.0)) + M.eta(s.delta)
    if dim == 1:
        ref_u = solver._solve_u_1d(s.u.values[:, 0], weight, s.c.values * M.e0[0, 0],
                                   g.spacing[0])
    else:
        b = _reference_stress_divergence(g, M, weight, s.c.values[..., None, None] * M.e0)
        ref_u, iters, _ = solver._cg(
            lambda u: _reference_stress_divergence(
                g, M, weight, _reference_sym_gradient(u, g.spacing)),
            solver._fast_diag_preconditioner(g, M, weight), b, s.u.values,
            plan.cg_tol, plan.cg_max_iters)
        assert res.iters == iters == 5
    assert np.array_equal(_bits(s2.u.values), _bits(ref_u))


def _same_energy(a, b):
    """Bit-equal components and the same clamp count."""
    return (np.array_equal(_bits([a.e_phase, a.e_elastic, a.e_crack]),
                           _bits([b.e_phase, b.e_elastic, b.e_crack]))
            and a.clamped_cells == b.clamped_cells)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("mass_constraint", [None, 0.45])
def test_trial_energies_match_a_full_pass_bitwise(P, dim, lam, mass_constraint):
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])[:dim, :dim]
    M = ElasticModel(lame_lambda=lam, lame_mu=0.6, e0=e0)
    g = Grid((0.0,) * dim, (1.0,) * dim, (23, 17)[:dim])
    rng = np.random.Generator(np.random.Philox(11 + dim))
    s = random_state(g, seed=60 + dim)
    s = s.replace(z=ScalarField(g, rng.uniform(-0.2, 1.2, g.cells)))  # some cells clamp
    for block in "czu":
        energy, grad, trial = evaluate_block(s, P, M, block)
        ref_energy, ref_grads = evaluate(s, P, M, block)
        assert _same_energy(energy, ref_energy), block
        assert np.array_equal(_bits(grad), _bits(ref_grads[block])), block
        base = getattr(s, block).values
        clamped = set()
        for t in (1.0, 0.3, 1e-3):  # several trials of one pass, none changes it
            new = base + t * rng.standard_normal(base.shape)
            if block == "c" and mass_constraint is not None:
                new = project_mass(ScalarField(g, new), mass_constraint).values
            field = (VectorField if block == "u" else ScalarField)(g, new)
            want = diffuse_energy(s.replace(**{block: field}), P, M)
            assert _same_energy(trial(new), want), (block, t)
            clamped.add(want.clamped_cells)
        if block == "z":
            assert len(clamped | {energy.clamped_cells}) > 1
    # the solver's steps return the energy of the state they return
    plan = solver.SolverPlan(mass_constraint=mass_constraint)
    for step in (solver.minimize_u, solver.minimize_z, solver.minimize_c):
        s2, res = step(s, P, M, plan)
        assert res.accepted and s2 is not s, res.block
        assert _same_energy(res.energy, diffuse_energy(s2, P, M)), res.block
    if mass_constraint is not None:
        assert mass(s2.c) == pytest.approx(mass_constraint, abs=1e-15)


def _slab_state(dim):
    """A 23-row (2D: 23 x 17) state with some z outside [0, 1], lambda > 0 and
    a full e0."""
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])[:dim, :dim]
    M = ElasticModel(lame_lambda=0.7, lame_mu=0.6, e0=e0)
    g = Grid((0.0,) * dim, (1.0,) * dim, (23, 17)[:dim])
    rng = np.random.Generator(np.random.Philox(70 + dim))
    s = random_state(g, seed=80 + dim)
    return s.replace(z=ScalarField(g, rng.uniform(-0.2, 1.2, g.cells))), M


# cells per slab: one cell, slabs of 5 rows (23 = 4 * 5 + 3), slabs of 22 rows
# (a last slab of one row) and one slab for the whole grid
_SLAB_CELLS = {1: (1, 5, 22, 23, 10 ** 6), 2: (1, 5 * 17, 22 * 17, 23 * 17, 10 ** 6)}


@pytest.mark.parametrize("dim", [1, 2])
def test_slab_pass_matches_the_whole_array_pass_bitwise(P, monkeypatch, dim):
    s, M = _slab_state(dim)
    for cells in _SLAB_CELLS[dim]:
        monkeypatch.setattr(energy, "_BLOCK", cells)
        want = evaluate(s, P, M)[0]
        assert 0 < want.clamped_cells < s.z.values.size and want.e_elastic > 0.0
        assert _same_energy(diffuse_energy(s, P, M), want), cells


def _flat_rows(s, rows, c, z, u):
    """`s` with the given rows set to one value of c, of z and of u."""
    values = [a.copy() for a in (s.c.values, s.z.values, s.u.values)]
    for a, v in zip(values, (c, z, u)):
        a[rows] = v
    return s.replace(c=ScalarField(s.grid, values[0]), z=ScalarField(s.grid, values[1]),
                     u=VectorField(s.grid, values[2]))


def _flat_case(P, case):
    """(state, P, M, the distinct flat patterns among the slabs of 5 rows):
    slabs of 5 rows have their halo rows in 4:11, 9:16, ... of the 23 rows;
    flat slabs that hold the same bits of c and z are formed once between
    them, whatever their u."""
    dim = 1 if case == "1d" else 2
    s, M = _slab_state(dim)
    u = [0.002, -0.001][:dim]
    if case == "halo":  # rows 5:10 are flat, but their halo row 10 is not
        return _flat_rows(s, slice(0, 10), 0.0, 1.0, u), P, M, 1
    if case in ("signed zeros", "zeros apart"):
        w = P.w
        P = dataclasses.replace(P, w=lambda x: w(x) + np.signbit(x))
    if case == "signed zeros":  # one value but both zeros in rows 5:10; w sees the sign
        s = _flat_rows(s, slice(0, 13), 0.0, 1.0, u)
        c = s.c.values.copy()
        c[7, ::3] = -0.0
        return s.replace(c=ScalarField(s.grid, c)), P, M, 1
    if case == "z outside":  # two flat slabs, one pattern
        return _flat_rows(s, slice(0, 13), 1.0, 1.5, u), P, M, 1
    if case == "one u component":  # c, z and u_0 are flat in rows 0:13, u_1 is not
        flat = _flat_rows(s, slice(0, 13), 1.0, 1.0, u)
        mixed = flat.u.values.copy()
        mixed[..., 1] = s.u.values[..., 1]
        return flat.replace(u=VectorField(s.grid, mixed)), P, M, 0
    if case == "two plateaus":  # slabs 0:5 and 5:10 at c = 0, 15:20 and 20:23 at c = 1
        s = _flat_rows(s, slice(0, 11), 0.0, 1.0, u)
        return _flat_rows(s, slice(14, 23), 1.0, 1.0, u), P, M, 2
    if case == "zeros apart":  # the two plateaus differ only by the sign of c's zero
        s = _flat_rows(s, slice(0, 11), 0.0, 1.0, u)
        return _flat_rows(s, slice(14, 23), -0.0, 1.0, u), P, M, 2
    if case == "u apart":  # two plateaus of one c and z, but u differs between them
        s = _flat_rows(s, slice(0, 11), 0.3, 0.7, u)
        return _flat_rows(s, slice(14, 23), 0.3, 0.7, [0.5, 0.25][:dim]), P, M, 1
    if case == "apart":  # slabs 0:5, 15:20 and 20:23 hold one pattern, 5:15 do not
        s = _flat_rows(s, slice(0, 6), 0.3, 0.7, u)
        return _flat_rows(s, slice(14, 23), 0.3, 0.7, u), P, M, 1
    return _flat_rows(s, slice(0, 13), 0.3, 0.7, u), P, M, 1


@pytest.mark.parametrize("case", ["halo", "signed zeros", "z outside", "one u component", "1d",
                                  "two plateaus", "zeros apart", "u apart", "apart"])
def test_slab_pass_on_flat_slabs_matches_the_whole_array_pass_bitwise(P, monkeypatch, case):
    # a slab whose rows and halo rows hold one value of c, z and u, bit for
    # bit, and whose source yields the key of its c and z (`FlatSlabs`),
    # forms its densities on a block of 2 cells a side, unless an earlier
    # flat slab of the same c and z has formed them
    s, P, M, flat_patterns = _flat_case(P, case)
    halo_rows = []

    def recorded(f, h):
        halo_rows.append(len(f))
        return gradient(f, h)
    monkeypatch.setattr(energy, "gradient", recorded)
    rows = len(s.c.values)
    for cells in _SLAB_CELLS[s.grid.dim]:
        monkeypatch.setattr(energy, "_BLOCK", cells)
        want = evaluate(s, P, M)[0]
        if case == "z outside":
            assert want.clamped_cells > 13 * 17
        # the state itself yields its rows and never a key: no slab is flat
        for source, patterns in ((FlatSlabs(s), flat_patterns), (s, 0)):
            halo_rows.clear()
            assert _same_energy(diffuse_energy(source, P, M), want), cells
            if cells == 5 * (s.c.values.size // rows):
                # two gradients, of c and of z, per distinct flat pattern; a
                # plateau's block has 2 rows, any formed slab of 5 rows 4 or
                # more
                assert sum(n <= 3 for n in halo_rows) == 2 * patterns, halo_rows


@pytest.mark.parametrize("case", ["formed", "z outside", "two plateaus"])
def test_each_formed_slab_and_plateau_key_is_clamped_once(P, monkeypatch, case):
    # one `_clamp` of a formed slab's z gives its densities and its count of
    # clamped cells, and one of a plateau's block gives its three numbers
    # and whether the clamp moves its z, once per distinct key
    if case == "formed":
        s, M = _slab_state(2)
        source = s
    else:
        s, P, M, _ = _flat_case(P, case)
        source = FlatSlabs(s)
    monkeypatch.setattr(energy, "_BLOCK", 5 * 17)
    want = evaluate(s, P, M)[0]
    assert want.clamped_cells > 0
    calls, clamp, answers = [], energy._clamp, []

    def counted(z):
        calls.append(z.shape)
        return clamp(z)

    class Recorded:
        grid, eps, delta = s.grid, s.eps, s.delta

        def slabs(self, halos):
            for got in source.slabs(halos):
                answers.append(got if isinstance(got, bytes) else None)
                yield got
    monkeypatch.setattr(energy, "_clamp", counted)
    assert _same_energy(diffuse_energy(Recorded(), P, M), want)
    keys = {key for key in answers if key is not None}
    assert len(answers) == 5 and len(keys) == {"formed": 0, "z outside": 1,
                                               "two plateaus": 2}[case]
    assert len(calls) == answers.count(None) + len(keys)
    assert calls.count((2, 2)) == len(keys)


@pytest.mark.parametrize("label,flat", [(label, flat) for flat in (False, True)
                                        for label in ("interfacial", "elastic", "crack")],
                         ids=["interfacial", "elastic", "crack", "flat_interfacial",
                              "flat_elastic", "flat_crack"])
def test_slab_pass_names_the_same_nonfinite_cell(P, monkeypatch, label, flat):
    s, M = _slab_state(2)
    if flat:  # rows 0:13 hold one value: its slabs of 1 and 5 rows come as keys
        cell = (0, 0)
        s = _flat_rows(s, slice(0, 13), 0.25, 0.5, [0.002, -0.001])
    else:
        cell = (13, 4)
        c, z = s.c.values.copy(), s.z.values.copy()
        c[cell], z[cell] = 0.25, 0.5
        s = s.replace(c=ScalarField(s.grid, c), z=ScalarField(s.grid, z))
    if label == "interfacial":
        P = dataclasses.replace(P, w=_inf_at(0.25, P.w))
    elif label == "elastic":
        monkeypatch.setitem(DEGRADATIONS, "inf_at_half", (_inf_at(0.5, M.psi), M.dpsi))
        M = dataclasses.replace(M, degradation="inf_at_half")
    else:
        P = dataclasses.replace(P, v=_inf_at(0.5, P.v))
    message = f"non-finite {label} density at cell {cell}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate(s, P, M)
    for cells in _SLAB_CELLS[2]:
        monkeypatch.setattr(energy, "_BLOCK", cells)
        with pytest.raises(ValueError, match=re.escape(message)):
            diffuse_energy(FlatSlabs(s) if flat else s, P, M)


@pytest.mark.parametrize("early,late", [("elastic", "interfacial"), ("crack", "elastic"),
                                        ("crack", "interfacial")])
def test_the_earlier_term_is_named_though_a_later_term_fails_first(P, monkeypatch, early, late):
    # the three sums take each slab together: `early`'s density is
    # non-finite in the first slab and `late`'s only in a later one, yet the
    # message names the first failing term in the order interfacial,
    # elastic, crack, as the whole-array pass does
    s, M = _slab_state(2)
    c, z = s.c.values.copy(), s.z.values.copy()
    cells = {early: (2, 4), late: (17, 9)}
    # each term is non-finite where c (interfacial) or z (elastic, crack)
    # takes its value, and only there
    values = {"interfacial": ("c", 0.25), "elastic": ("z", 0.5), "crack": ("z", 0.75)}
    for term, cell in cells.items():
        name, value = values[term]
        (c if name == "c" else z)[cell] = value
    s = s.replace(c=ScalarField(s.grid, c), z=ScalarField(s.grid, z))
    for term in cells:
        if term == "interfacial":
            P = dataclasses.replace(P, w=_inf_at(0.25, P.w))
        elif term == "elastic":
            monkeypatch.setitem(DEGRADATIONS, "inf_at_half", (_inf_at(0.5, M.psi), M.dpsi))
            M = dataclasses.replace(M, degradation="inf_at_half")
        else:
            P = dataclasses.replace(P, v=_inf_at(0.75, P.v))
    name = min(cells, key=("interfacial", "elastic", "crack").index)
    message = f"non-finite {name} density at cell {cells[name]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate(s, P, M)
    for cells_per_slab in _SLAB_CELLS[2][:-1]:
        monkeypatch.setattr(energy, "_BLOCK", cells_per_slab)
        with pytest.raises(ValueError, match=re.escape(message)):
            diffuse_energy(s, P, M)


def test_a_nonfinite_first_term_ends_the_pass(P, monkeypatch):
    # the interfacial density, the first term, is infinite at one cell of
    # slab 0: the error is known to be that term's, so the pass names the
    # cell and asks its source for no later slab
    s, M = _slab_state(2)
    c = s.c.values.copy()
    c[2, 4] = 0.25
    s = s.replace(c=ScalarField(s.grid, c))
    P = dataclasses.replace(P, w=_inf_at(0.25, P.w))
    monkeypatch.setattr(energy, "_BLOCK", 5 * 17)
    yielded = []

    class Counted:
        grid, eps, delta = s.grid, s.eps, s.delta

        def slabs(self, halos):
            for rows in s.slabs(halos):
                yielded.append(len(halos))
                yield rows
    with pytest.raises(ValueError, match=re.escape("non-finite interfacial density at cell "
                                                   "(2, 4)")):
        diffuse_energy(Counted(), P, M)
    assert yielded == [5]


@pytest.mark.parametrize("flat", [False, True])
def test_slab_pass_keeps_nothing_of_the_state_alive(P, monkeypatch, flat):
    # a sweep row's state must be freed as soon as its energy is known, before
    # the next row is built: no reference cycle may wait for the collector
    s, M = _slab_state(2)
    if flat:
        s = _flat_rows(s, slice(0, 13), 0.25, 0.5, [0.002, -0.001])
    monkeypatch.setattr(energy, "_BLOCK", 5 * 17)
    gc.disable()
    try:
        state = weakref.ref(s)
        diffuse_energy(FlatSlabs(s) if flat else s, P, M)
        del s
        assert state() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cells,arrays", [(None, 3.0), (1 << 10, 0.5)],
                         ids=["default_slabs", "slabs_of_1024_cells"])
def test_slab_pass_holds_only_slab_sized_arrays(P, monkeypatch, cells, arrays):
    # at 256^2 the whole-array pass peaks near 15 cells-sized arrays above the
    # state; the slab pass holds no cells-sized array, since it sums each
    # slab's densities as they come and drops them before the next slab,
    # only temporaries that scale with the slab (2^14 cells, a quarter of this
    # grid, by default)
    if cells is not None:
        monkeypatch.setattr(energy, "_BLOCK", cells)
    M = ElasticModel(lame_lambda=0.7, lame_mu=0.6, e0=np.array([[0.8, 0.1], [0.1, -0.2]]))
    g = Grid((0.0, 0.0), (1.0, 1.0), (256, 256))
    s = random_state(g, seed=90)
    want = evaluate(s, P, M)[0]
    tracemalloc.start()
    try:
        got = diffuse_energy(s, P, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_energy(got, want)
    assert peak < arrays * s.c.values.nbytes, peak / s.c.values.nbytes
