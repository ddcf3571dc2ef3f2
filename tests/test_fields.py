import importlib
import io
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from phasefrac import cli, fields
from phasefrac.energy import DiffuseState
from phasefrac.fields import (_CHUNK, _READ_BLOCK, Grid, ScalarField, VectorField, gradient,
                              gradient_adjoint, integrate, read_field, sample_at,
                              slice_extract, sym_gradient, sym_gradient_adjoint,
                              _HandOver, _write_atomic, write_field)


@pytest.fixture()
def g1():
    return Grid((0.0,), (1.0,), (128,))


@pytest.fixture()
def g2():
    return Grid((0.0, 0.0), (1.0, 1.0), (48, 40))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        Grid((0.0,), (-1.0,), (4,))
    with pytest.raises(ValueError):
        Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))


@pytest.mark.parametrize("cells", [(4.5,), (np.float64(8.0),), (8, 2.0), ("8",)])
def test_grid_refuses_a_cell_count_that_is_not_an_integer(cells):
    # 4.5 used to pass, with spacing 0.222, until a field on the grid raised
    # an unnamed TypeError
    with pytest.raises(ValueError, match=re.escape(f"cell counts must be integers, got {cells}")):
        Grid((0.0,) * len(cells), (1.0,) * len(cells), cells)


def test_grid_fixes_its_counts_spacing_and_cell_volume():
    g = Grid((0.0, -1.0), (1.5, 2.0), (np.int64(3), 8))
    assert g.cells == (3, 8) and all(type(n) is int for n in g.cells)
    assert g.spacing == (0.5, 0.25) and g.cell_volume == 0.125
    assert g == Grid((0.0, -1.0), (1.5, 2.0), (3, 8))
    assert ScalarField.full(g, 1.0).values.shape == (3, 8)


def test_grid_keeps_its_origin_and_extent_as_floats():
    # a list or an array used to be kept as given: a list grid was unequal to
    # the same tuple grid and unhashable, and arrays made `==` raise
    g = Grid((0.0,), (1.0,), (4,))
    for same in (Grid([0.0], [1.0], [4]), Grid(np.zeros(1), np.ones(1), np.array([4])),
                 Grid((0,), (np.float64(1.0),), (4,))):
        assert same == g and hash(same) == hash(g)
        assert all(type(x) is float for x in same.origin + same.extent)
    a = Grid(np.array([0.0, -1.0]), np.array([1.5, 2.0]), (3, 8))
    assert a == Grid(np.array([0.0, -1.0]), np.array([1.5, 2.0]), (3, 8))
    assert a != Grid(np.array([0.0, -1.0]), np.array([1.5, 4.0]), (3, 8))
    state = DiffuseState(c=ScalarField.full(Grid([0.0], [1.0], [4]), 0.5),
                         u=VectorField.full(g, 0.0), z=ScalarField.full(g, 1.0),
                         eps=0.1, delta=0.2)
    assert state.c.grid == state.u.grid


@pytest.mark.parametrize("origin,extent", [
    ((0.0,), (np.nan,)), ((0.0,), (np.inf,)), ((np.nan,), (1.0,)),
    ((0.0, -np.inf), (1.0, 1.0))])
def test_grid_rejects_nonfinite_box(origin, extent):
    with pytest.raises(ValueError, match="finite"):
        Grid(origin, extent, (4,) * len(extent))


def test_fields_are_immutable(g1):
    f = ScalarField.full(g1, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    # a writable array is copied and left writable; a frozen one is copied too
    mine = np.zeros(g1.cells)
    assert ScalarField(g1, mine).values is not mine and mine.flags.writeable
    assert ScalarField(g1, f.values).values is not f.values


def test_caller_cannot_change_a_field_through_a_frozen_array(g1):
    # a read-only array that owns its data used to be taken without a copy,
    # so turning its writes back on put a NaN into a validated field
    a = np.zeros(g1.cells)
    a.setflags(write=False)
    f = ScalarField(g1, a)
    a.setflags(write=True)
    a[1] = np.nan
    assert np.all(f.values == 0.0)


def test_field_values_cannot_be_made_writable(g1):
    # the values are a view of the frozen array, so numpy refuses the flag
    for f in (ScalarField(g1, np.zeros(g1.cells)), ScalarField(g1, _HandOver(np.zeros(g1.cells))),
              VectorField.full(g1, 0.0)):
        with pytest.raises(ValueError, match="WRITEABLE"):
            f.values.setflags(write=True)
        assert np.all(f.values == 0.0)


def test_handed_over_array_is_taken_checked_and_frozen(g1):
    a = np.zeros(g1.cells)
    f = ScalarField(g1, _HandOver(a))
    assert f.values.base is a and not a.flags.writeable  # taken without a copy
    bad = np.zeros(g1.cells)
    bad[2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g1, _HandOver(bad))
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g1, _HandOver(np.zeros(3)))


def test_field_rejects_nonfinite(g1):
    vals = np.zeros(g1.cells)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g1, vals)


@pytest.mark.parametrize("signs", ["plus", "mixed"])
def test_field_accepts_finite_values_whose_sum_overflows(signs):
    # the finiteness check sums first: a sum of inf, or of NaN from inf -
    # inf, sends the scan of the values, which finds every one finite
    g = Grid((0.0,), (1.0,), (256,))
    vals = np.full(g.cells, 1e308)
    if signs == "mixed":
        vals[128:] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(vals.sum()) if signs == "plus" else np.isnan(vals.sum())
        f = ScalarField(g, vals)
    assert np.array_equal(f.values, vals)


def grad(f):
    return gradient(f.values, f.grid.spacing)


def sym_grad(u):
    return sym_gradient(u.values, u.grid.spacing)


def test_gradient_constant_and_affine(g1, g2):
    assert all(np.all(p == 0.0) for p in grad(ScalarField.full(g1, 5.0)))
    f = ScalarField.from_function(g1, lambda x: 3.0 * x)
    assert np.abs(grad(f)[0] - 3.0).max() < 1e-13
    f2 = ScalarField.from_function(g2, lambda x, y: 2.0 * x - 7.0 * y)
    gv = grad(f2)
    assert len(gv) == 2 and gv[0].shape == gv[1].shape == g2.cells
    assert np.abs(gv[0] - 2.0).max() < 1e-12
    assert np.abs(gv[1] + 7.0).max() < 1e-12


def test_gradient_quadratic_interior_error(g1):
    # centered differences are exact on quadratics; cubic probes the h^2 term
    f = ScalarField.from_function(g1, lambda x: x * x)
    x = g1.centers(0)
    err = np.abs(grad(f)[0][1:-1] - 2.0 * x[1:-1]).max()
    assert err <= g1.spacing[0] ** 2
    f3 = ScalarField.from_function(g1, lambda x: x ** 3)
    err3 = np.abs(grad(f3)[0][1:-1] - 3.0 * x[1:-1] ** 2).max()
    assert 0 < err3 <= g1.spacing[0] ** 2  # |f'''| h^2 / 6 = h^2


def test_sym_gradient_rigid_motion(g2):
    A = np.array([[0.0, -0.7], [0.7, 0.0]])
    u = VectorField.from_function(g2, lambda x, y: (A[0, 0] * x + A[0, 1] * y,
                                                    A[1, 0] * x + A[1, 1] * y))
    assert np.abs(sym_grad(u)).max() < 1e-12


def test_sym_gradient_symmetric_affine(g2):
    S = np.array([[0.4, 0.1], [0.1, -0.3]])
    u = VectorField.from_function(g2, lambda x, y: (S[0, 0] * x + S[0, 1] * y,
                                                    S[1, 0] * x + S[1, 1] * y))
    for plane, want in zip(sym_grad(u), (S[0, 0], S[1, 1], S[0, 1])):
        assert np.abs(plane - want).max() < 1e-12


def test_sym_gradient_quadratic(g2):
    u = VectorField.from_function(g2, lambda x, y: (x * x, 0.0 * y))
    xx = sym_grad(u)[0]
    x = g2.meshgrid()[0]
    interior = np.abs(xx[1:-1, :] - 2.0 * x[1:-1, :]).max()
    assert interior < 1e-12  # centered differences exact on quadratics


def test_operators_linear(g2):
    rng = np.random.Generator(np.random.Philox(5))
    f = ScalarField(g2, rng.normal(size=g2.cells))
    h = ScalarField(g2, rng.normal(size=g2.cells))
    a, b = 0.7, -2.3
    combo = grad(ScalarField(g2, a * f.values + b * h.values))
    assert max(np.abs(pc - a * pf - b * ph).max()
               for pc, pf, ph in zip(combo, grad(f), grad(h))) < 1e-12


def test_adjointness(g2):
    rng = np.random.Generator(np.random.Philox(6))
    f = ScalarField(g2, rng.normal(size=g2.cells))
    v = VectorField(g2, rng.normal(size=g2.cells + (2,)))
    planes = (v.values[..., 0], v.values[..., 1])
    lhs = float(sum(np.sum(p * q) for p, q in zip(grad(f), planes)))
    rhs = float(np.sum(f.values * gradient_adjoint(planes, g2.spacing)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    u = VectorField(g2, rng.normal(size=g2.cells + (2,)))
    S = tuple(rng.normal(size=g2.cells) for _ in range(3))  # xx, yy, xy
    exx, eyy, exy = sym_grad(u)
    lhs = float(np.sum(exx * S[0] + eyy * S[1] + 2.0 * exy * S[2]))
    rhs = float(np.sum(u.values * sym_gradient_adjoint(S, g2.spacing)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _reference_diff_t(w, axis, h):
    """The scatter form of the transpose of _diff: each row of _diff adds its
    two entries into a zeroed result, one slice update at a time."""
    pre = (slice(None),) * axis
    inner = w[pre + (slice(1, -1),)]
    out = np.zeros_like(w)
    out[pre + (0,)] += -w[pre + (0,)] / h
    out[pre + (1,)] += w[pre + (0,)] / h
    out[pre + (slice(None, -2),)] += -inner / (2.0 * h)
    out[pre + (slice(2, None),)] += inner / (2.0 * h)
    out[pre + (-2,)] += -w[pre + (-1,)] / h
    out[pre + (-1,)] += w[pre + (-1,)] / h
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_adjoints_match_the_scatter_reference_bitwise(n):
    rng = np.random.Generator(np.random.Philox(n))
    h = (0.3, 0.7)
    w1 = rng.normal(size=n)
    ref1 = _reference_diff_t(w1, 0, h[0])
    assert np.array_equal(_bits(gradient_adjoint((w1,), h[:1])), _bits(ref1))
    assert np.array_equal(_bits(sym_gradient_adjoint((w1,), h[:1])), _bits(ref1[:, None]))
    xx, yy, xy = (rng.normal(size=(n, n + 1)) for _ in range(3))
    ref = np.stack((_reference_diff_t(xx, 0, h[0]) + _reference_diff_t(xy, 1, h[1]),
                    _reference_diff_t(xy, 0, h[0]) + _reference_diff_t(yy, 1, h[1])), axis=-1)
    assert np.array_equal(_bits(sym_gradient_adjoint((xx, yy, xy), h)), _bits(ref))
    assert np.array_equal(_bits(gradient_adjoint((xx, yy), h)),
                          _bits(_reference_diff_t(xx, 0, h[0]) + _reference_diff_t(yy, 1, h[1])))


def test_integrate_values():
    g = Grid((0.0,), (1.0,), (1024,))
    assert integrate(ScalarField.full(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(ScalarField.from_function(g, lambda x: x)) == \
        pytest.approx(0.5, abs=1e-13)
    val = integrate(ScalarField.from_function(g, lambda x: x * x))
    h = g.spacing[0]
    assert abs(val - 1.0 / 3.0) <= h * h / 12.0 + 1e-15


def test_integrate_deterministic(g2):
    rng = np.random.Generator(np.random.Philox(8))
    f = ScalarField(g2, rng.normal(size=g2.cells))
    vals = {integrate(f) for _ in range(20)}
    assert len(vals) == 1


def test_slice_extract_scalar_linear(g2):
    f = ScalarField.from_function(g2, lambda x, y: x)
    sl = slice_extract(f, np.array([1.0, 0.0]), np.array([0.0, 0.52]), 200)
    assert sl.t.size == 200
    h = max(g2.spacing)
    keep = (sl.t > 2 * h) & (sl.t < 1 - 2 * h)
    assert np.abs(sl.values[keep] - sl.t[keep]).max() < 1e-12


def test_slice_extract_skew_projection(g2):
    A = np.array([[0.0, -1.3], [1.3, 0.0]])
    u = VectorField.from_function(g2, lambda x, y: (A[0, 1] * y, A[1, 0] * x))
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(5):
        ang = rng.uniform(0, 2 * np.pi)
        xi = np.array([np.cos(ang), np.sin(ang)])
        center = np.array([0.5, 0.5])
        y = center - (center @ xi) * xi
        sl = slice_extract(u, xi, y, 64)
        if not sl.t.size:
            continue
        # <A x, xi> projected along the line has zero slope: <A xi, xi> = 0;
        # skip samples in the boundary clamping margin
        h = max(g2.spacing)
        pts_mid = y[None, :] + (0.5 * (sl.t[1:] + sl.t[:-1]))[:, None] * xi[None, :]
        keep = np.all((pts_mid > 2 * h) & (pts_mid < 1 - 2 * h), axis=1)
        slope = np.diff(sl.values) / np.diff(sl.t)
        assert np.abs(slope[keep]).max() < 1e-9


def test_slice_extract_symmetric_slope(g2):
    S = np.array([[0.4, 0.1], [0.1, -0.3]])
    u = VectorField.from_function(g2, lambda x, y: (S[0, 0] * x + S[0, 1] * y,
                                                    S[1, 0] * x + S[1, 1] * y))
    xi = np.array([np.cos(0.3), np.sin(0.3)])
    y = np.array([0.5, 0.5]) - (np.array([0.5, 0.5]) @ xi) * xi
    sl = slice_extract(u, xi, y, 128)
    slope = np.diff(sl.values) / np.diff(sl.t)
    expected = float(xi @ S @ xi)
    h = max(g2.spacing)
    # interior samples only: boundary clamping is first-order
    pts_mid = y[None, :] + (0.5 * (sl.t[1:] + sl.t[:-1]))[:, None] * xi[None, :]
    keep = np.all((pts_mid > 2 * h) & (pts_mid < 1 - 2 * h), axis=1)
    assert np.abs(slope[keep] - expected).max() <= 10.0 * h


def test_slice_extract_miss_flagged(g2):
    sl = slice_extract(ScalarField.full(g2, 1.0), np.array([1.0, 0.0]),
                       np.array([0.0, 7.0]), 16)
    assert sl.t.size == 0 and sl.values.size == 0


def test_slice_extract_requires_unit_vector(g2):
    with pytest.raises(ValueError):
        slice_extract(ScalarField.full(g2, 1.0), np.array([1.0, 1.0]),
                      np.array([0.0, 0.5]), 16)


def test_sample_at_clamps_at_boundary(g1):
    f = ScalarField.from_function(g1, lambda x: x)
    v = sample_at(f, np.array([-5.0, 5.0]))
    assert v[0] == pytest.approx(g1.centers(0)[0])
    assert v[1] == pytest.approx(g1.centers(0)[-1])


def test_sample_at_broadcasts_over_axes_bitwise(g2):
    # locations are coordinate arrays: sparse axes and their flat twin agree
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-0.1, 1.1, (23, 1)), rng.uniform(-0.1, 1.1, (1, 19))
    dense = [c.reshape(-1) for c in np.broadcast_arrays(x, y)]
    f = ScalarField.from_function(g2, lambda x, y: np.sin(3.0 * x) * y)
    u = VectorField.from_function(g2, lambda x, y: (x * y, x - y))
    for field, tail in ((f, ()), (u, (2,))):
        got = sample_at(field, x, y)
        assert got.shape == (23, 19) + tail
        assert np.array_equal(got.reshape(-1).view(np.uint64),
                              sample_at(field, *dense).reshape(-1).view(np.uint64))


def test_field_dump_roundtrip(tmp_path, g2):
    rng = np.random.Generator(np.random.Philox(10))
    f = ScalarField(g2, rng.normal(size=g2.cells))
    path = tmp_path / "f.field"
    write_field(f, path)
    f2 = read_field(path)
    assert f2.grid == g2
    assert np.array_equal(f.values, f2.values)


def _dump(tmp_path, g, edit):
    path = tmp_path / "f.field"
    write_field(ScalarField.full(g, 0.25), path)
    path.write_text(edit(path.read_text()))
    return path


def test_read_field_rejects_padded_file(tmp_path, g1):
    path = _dump(tmp_path, g1, lambda text: text + "0.5\n")
    with pytest.raises(ValueError, match=r"f\.field: 129 values.* 128 cells"):
        read_field(path)


def test_read_field_rejects_truncated_file(tmp_path, g1):
    path = _dump(tmp_path, g1, lambda text: text[:text.rindex("0.25\n")])
    with pytest.raises(ValueError, match=r"f\.field: 127 values.* 128 cells"):
        read_field(path)


def test_read_field_rejects_nonfinite_extent(tmp_path, g1):
    path = _dump(tmp_path, g1, lambda text: text.replace("extent 1\n", "extent nan\n"))
    with pytest.raises(ValueError, match="finite"):
        read_field(path)


def test_read_field_rejects_short_header(tmp_path, g1):
    path = _dump(tmp_path, g1, lambda text: "".join(text.splitlines(True)[:3]))
    with pytest.raises(ValueError, match=r"f\.field: 3 lines"):
        read_field(path)


@pytest.mark.parametrize("old,new,message", [
    ("dim 1\n", "dims 1\n", r"f\.field: header line 1 'dims 1': expected 'dim'"),
    ("cells 128\n", "\n", r"f\.field: header line 2 '': expected 'cells'"),
    ("cells 128\n", "cells 128 2\n", r"f\.field: header line 2 'cells 128 2': 2 cell count"),
    ("origin 0\n", "origin zero\n", r"f\.field: header line 3 'origin zero': could not"),
])
def test_read_field_header_fault_names_file_and_line(tmp_path, g1, old, new, message):
    path = _dump(tmp_path, g1, lambda text: text.replace(old, new, 1))
    with pytest.raises(ValueError, match=message):
        read_field(path)


@pytest.mark.parametrize("line,text,message", [
    (3, "origin nan", r"f\.field: origin must be finite"),
    (3, "origin 0 1", r"f\.field: origin, extent, cells must have equal length"),
    (5, "abc", r"f\.field: line 5 'abc': could not convert"),
    (77, "0x10", r"f\.field: line 77 '0x10': could not convert"),
    (132, "", r"f\.field: line 132 '': could not convert"),
    (9, "inf", r"f\.field: field contains non-finite values"),
])
def test_read_field_grid_and_value_fault_names_file(tmp_path, g1, line, text, message):
    def edit(dump):
        lines = dump.splitlines(True)
        lines[line - 1] = text + "\n"
        return "".join(lines)

    path = _dump(tmp_path, g1, edit)
    with pytest.raises(ValueError, match=message):
        read_field(path)


@pytest.mark.parametrize("line,text,message", [
    (3, b"origin 0\xff", r"f\.field: header line 3 'origin 0\\\\xff': could not convert"),
    (1, b"\xffdim 1", r"f\.field: header line 1 '\\\\xffdim 1': expected 'dim'"),
    (12, b"0.\xff25", r"f\.field: line 12 '0\.\\\\xff25': could not convert"),
])
def test_read_field_names_file_and_line_of_a_byte_outside_ascii(tmp_path, g1, line, text, message):
    path = _dump(tmp_path, g1, lambda dump: dump)
    lines = path.read_bytes().splitlines(True)
    lines[line - 1] = text + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=message):
        read_field(path)


# the 0-based value line that the first block seam cuts in a dump of "0.25\n"
# lines (5 bytes each): 65536 = 5 * 13107 + 1
_SEAM = _READ_BLOCK // 5


@pytest.mark.parametrize("line", [4 + _CHUNK, 5 + _CHUNK, 5 + _CHUNK + 37,
                                  4 + _SEAM, 5 + _SEAM, 6 + _SEAM])
def test_read_field_names_bad_line_past_chunk_seam(tmp_path, line):
    # the last value line of the first `_CHUNK` and the first and a later one
    # of the second; then the last whole line of the first `_READ_BLOCK`
    # bytes, the line that straddles its seam, and the first line wholly past
    # it ("abc\n" is a byte shorter than "0.25\n", and the lines before the
    # seam do not move)
    g = Grid((0.0,), (1.0,), (2 * _CHUNK,))

    def edit(dump):
        lines = dump.splitlines(True)
        lines[line - 1] = "abc\n"
        return "".join(lines)

    path = _dump(tmp_path, g, edit)
    with pytest.raises(ValueError, match=rf"f\.field: line {line} 'abc': could not convert"):
        read_field(path)


def test_block_seams_fall_where_the_seam_tests_expect(tmp_path):
    g = Grid((0.0,), (1.0,), (2 * _CHUNK,))
    data = _dump(tmp_path, g, lambda dump: dump).read_bytes()
    start = data.index(b"\n", data.index(b"extent")) + 1  # the first value byte
    seam = start + _READ_BLOCK
    # the value line that holds the seam's first byte began before it
    assert data.count(b"\n", start, seam) == _SEAM and data[seam - 1:seam] != b"\n"


def _write_values(path, cells, lines: bytes):
    """A dump of a 1D grid whose value section is `lines` byte for byte."""
    path.write_bytes(f"dim 1\ncells {cells}\norigin 0\nextent 1\n".encode() + lines)
    return path


@pytest.mark.parametrize("bad,at,length", [
    (b"abc", 20000, 1),  # one bad line inside a long run, in the second block
    (b"abc", 20000, 100),  # a run of bad lines: its first is named
    (b"1e", _SEAM - 100, _CHUNK),  # a long bad run over the first seam
])
def test_read_field_names_bad_line_inside_a_long_run(tmp_path, bad, at, length):
    n = 3 * _CHUNK
    lines = [b"0.25\n"] * n
    lines[at:at + length] = [bad + b"\n"] * length
    path = _write_values(tmp_path / "f.field", n, b"".join(lines))
    with pytest.raises(ValueError, match=rf"f\.field: line {at + 5} '{bad.decode()}': "
                                         "could not convert"):
        read_field(path)


@pytest.mark.parametrize("values,cut,crossed", [
    # 16384 lines of "0.5\n" fill the first block exactly: a run that ends at
    # the seam, and one that goes on past it with no line cut
    (lambda: _runs([0.5, 0.75, 0.5], [_READ_BLOCK // 4, 10, 3]), False, False),
    (lambda: _runs([0.5, -0.5], [_READ_BLOCK // 4 + 10, 2]), False, True),
    # a run whose line the seam cuts ("0.25\n" takes 5 bytes, after 12 bytes)
    (lambda: _runs([0.5, 0.25, 0.5], [3, _SEAM, 5]), True, True),
    # one run over three seams ("0.33333333333333331\n" takes 20 bytes)
    (lambda: _runs([1 / 3, 0.1], [3 * _READ_BLOCK // 19, 1]), True, True),
], ids=["ends at the seam", "crosses the seam", "cut by the seam", "over three seams"])
def test_read_field_runs_across_block_seams(tmp_path, values, cut, crossed):
    flat = values()
    f = ScalarField(Grid((0.0,), (1.0,), flat.shape), flat)
    path = tmp_path / "f.field"
    write_field(f, path)
    data = path.read_bytes()
    assert data == _reference_dump(f).encode()
    start = data.index(b"\n", data.index(b"extent")) + 1
    seam = start + _READ_BLOCK
    k = data.count(b"\n", start, seam)  # the value line that holds the seam's first byte
    assert (data[seam - 1:seam] != b"\n") == cut
    assert (flat[k - 1] == flat[k]) == crossed
    assert np.array_equal(read_field(path).values.view(np.uint64), flat.view(np.uint64))


def test_read_field_keeps_adjacent_lines_apart_by_their_bytes(tmp_path):
    # "0" and "-0" are equal as floats but not as bits; "0.25" and "0.250"
    # are equal as floats but are two runs of lines, each parsed
    text = b"0\n-0\n-0\n0\n0.25\n0.250\n0.250\n0.25\n -0\n-0\n"
    back = read_field(_write_values(tmp_path / "f.field", 10, text))
    want = np.array([0.0, -0.0, -0.0, 0.0, 0.25, 0.25, 0.25, 0.25, -0.0, -0.0])
    assert np.array_equal(back.values.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cut,text", [(1, "0.125"), (2, "0.12"), (5, "0")])
def test_read_field_refuses_a_cut_off_last_line(tmp_path, cut, text):
    path = tmp_path / "f.field"
    write_field(ScalarField(Grid((0.0,), (1.0,), (4,)), np.array([0.25, 0.5, 0.75, 0.125])), path)
    data = path.read_bytes()
    assert data.endswith(b"\n0.125\n")
    path.write_bytes(data[:-cut])
    with pytest.raises(ValueError, match=rf"f\.field: line 8 '{text}': no newline at the end"):
        read_field(path)


def test_read_field_counts_a_cut_off_line_before_naming_it(tmp_path):
    # a last line without a newline still counts, so a dump one value short
    # or long is a count fault first
    path = _write_values(tmp_path / "f.field", 3, b"0.5\n0.5")
    with pytest.raises(ValueError, match=r"f\.field: 2 values, but the header declares 3"):
        read_field(path)
    path = _write_values(tmp_path / "f.field", 2, b"0.5\n0.5\n0.5")
    with pytest.raises(ValueError, match=r"f\.field: 3 values, but the header declares 2"):
        read_field(path)


def test_read_field_streams_in_chunks(tmp_path):
    # the 512^2 dump is about 5 MB of text, and 19 MiB as one str per line;
    # the field read back is 2 MiB
    rng = np.random.Generator(np.random.Philox(4))
    f = ScalarField(Grid((0.0, 0.0), (1.0, 1.0), (512, 512)), rng.normal(size=(512, 512)))
    write_field(f, tmp_path / "f.field")
    tracemalloc.start()
    try:
        back = read_field(tmp_path / "f.field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(back.values, f.values)


def test_read_field_streams_short_lines_in_blocks(tmp_path):
    # rows of 0 and 1: lines of 2 bytes with the newline put the most lines,
    # 32768, in one block; the 512 KiB dump split whole would hold a 2 MiB
    # list of lines beside the 2 MiB field
    values = np.repeat(np.arange(512) % 2, 512).reshape(512, 512).astype(float)
    write_field(ScalarField(Grid((0.0, 0.0), (1.0, 1.0), (512, 512)), values), tmp_path / "f.field")
    tracemalloc.start()
    try:
        back = read_field(tmp_path / "f.field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(back.values, values)


def _reference_read(path):
    """The reference for `read_field`: every value line parsed on its own
    with float().  The values, or the fault of the first line that float()
    rejects; the value sections of these tests end in a newline and hold as
    many lines as the header declares."""
    values = []
    for k, line in enumerate(path.read_bytes().split(b"\n")[4:-1], start=5):
        text = line.decode("ascii", "backslashreplace")
        try:
            values.append(float(text))
        except ValueError as exc:
            return f"line {k} {text!r}: {exc}"
    return np.array(values)


def _reads_like_the_reference(path):
    want = _reference_read(path)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            read_field(path)
        return str(info.value) == f"{path}: {want}"
    back = read_field(path).values
    return np.array_equal(back.view(np.uint64), want.view(np.uint64))


# lines of four bytes, such as "0.5\n" or "abc\n", that fill one block
_FULL = _READ_BLOCK // 4


@pytest.mark.parametrize("lines,bad", [
    ([b"abc\n"] * 3 * _FULL, 5),  # every block the one bad line
    ([b"0.5\n"] * _FULL + [b"abc\n"] * 2 * _FULL, _FULL + 5),  # from the second block on
    ([b"0.5\n"] * (_FULL - 3) + [b"1e\n"] * 2 * _FULL, _FULL + 2),  # from 3 lines before the seam
])
def test_read_field_names_the_bad_line_of_a_block_that_repeats_it(tmp_path, lines, bad):
    path = _write_values(tmp_path / "f.field", len(lines), b"".join(lines))
    text = lines[bad - 5].decode().strip()
    with pytest.raises(ValueError, match=rf"f\.field: line {bad} '{text}': could not convert"):
        read_field(path)
    assert _reads_like_the_reference(path)


def test_read_field_keeps_blocks_of_0_and_of_minus_0_apart(tmp_path):
    text = b"0\n" * (_READ_BLOCK // 2) + b"-0\n" * 50000 + b"0\n" * 40000 + b"-0\n" * 3
    path = _write_values(tmp_path / "f.field", text.count(b"\n"), text)
    assert _reads_like_the_reference(path)
    back = read_field(path).values
    assert np.signbit(back).sum() == 50003 and np.signbit(back[_READ_BLOCK // 2])


@pytest.mark.parametrize("last", [b"0.6\n", b"0.\n", b"0.55\n", b"0.5 \n", b"abc\n"])
def test_read_field_on_a_block_of_one_line_but_its_last(tmp_path, last):
    # the block's last line differs by one byte, one byte fewer or one more
    text = b"0.5\n" * (_FULL - 1) + last + b"0.5\n" * 100
    path = _write_values(tmp_path / "f.field", _FULL + 100, text)
    assert _reads_like_the_reference(path)


@pytest.mark.parametrize("before,after", [
    (100, 0), (0, 100), (100, 100), (2, 2),
    (_READ_BLOCK // 2 - 1, 5),  # "11\n" cut by the first seam
    (_READ_BLOCK // 2 - 2, 40000),  # "11\n" ends at the seam
    (40000, _READ_BLOCK // 2)])
def test_read_field_on_runs_of_1_around_an_11(tmp_path, before, after):
    # "1\n" repeated looks like the tail of "11\n" to a byte compare
    text = b"1\n" * before + b"11\n" + b"1\n" * after
    path = _write_values(tmp_path / "f.field", before + after + 1, text)
    assert _reads_like_the_reference(path)
    assert (read_field(path).values == 11.0).sum() == 1


@pytest.mark.parametrize("seam", [1, 2])
@pytest.mark.parametrize("offset", range(-6, 7))
def test_read_field_on_a_run_that_starts_or_ends_at_each_seam_offset(tmp_path, seam, offset):
    # a first line of 2 to 6 bytes puts the end of the run of "0.25\n" (5
    # bytes) `offset` bytes past the seam; "-0.5\n" runs on over the next one
    at = seam * _READ_BLOCK + offset
    pad = 2 + (at - 2) % 5
    head = b"1" + b"0" * (pad - 2) + b"\n"
    text = head + b"0.25\n" * ((at - pad) // 5) + b"-0.5\n" * 30000 + b"0.25\n" * 7
    assert text.index(b"-0.5\n") == at
    path = _write_values(tmp_path / "f.field", text.count(b"\n"), text)
    assert _reads_like_the_reference(path)


# lines for random runs: equal as floats but not as bytes, one the tail of
# another, with blanks, long and tiny; and two that float() rejects, one of
# them empty
_GOOD = [b"0", b"-0", b" -0", b"1", b"11", b"0.25", b"0.250", b"0.33333333333333331",
         b"5e-324", b"-1e308", b"1" * 40 + b".5"]
_BAD = [b"abc", b""]


@pytest.mark.parametrize("seed", range(8))
def test_read_field_on_random_runs_reads_like_float_per_line(tmp_path, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    lines = []
    for _ in range(int(rng.integers(5, 60))):
        pool = _GOOD if rng.random() < 0.99 else _BAD
        line = pool[rng.integers(len(pool))]
        length = int(rng.choice([1, 2, 3, rng.integers(1, 50000)]))
        lines += [line + b"\n"] * length
    path = _write_values(tmp_path / "f.field", len(lines), b"".join(lines))
    assert _reads_like_the_reference(path)


def _blocks(path):
    """The value lines of a dump as `read_field` reads them: blocks of
    `_READ_BLOCK` bytes, each ending at its last newline."""
    data = path.read_bytes()
    start = 0
    for _ in range(4):
        start = data.index(b"\n", start) + 1
    blocks, tail = [], b""
    for k in range(start, len(data), _READ_BLOCK):
        text = tail + data[k:k + _READ_BLOCK]
        end = text.rfind(b"\n") + 1
        if end:
            blocks.append(text[:end].split(b"\n")[:-1])
        tail = text[end:]
    return blocks


def _recover_2d_smoke_dumps(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    workloads = importlib.import_module("workloads")
    config = tmp_path / "run.ini"
    config.write_text(workloads.make_config("recover_2d", 0, smoke=True))
    assert cli.main(["recover", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    return [tmp_path / f"{name}.field" for name in ("c", "z", "u0", "u1")]


def _constant_dump(tmp_path, monkeypatch):
    path = tmp_path / "f.field"
    write_field(ScalarField.full(Grid((0.0, 0.0), (1.0, 1.0), (512, 512)), 1 / 3), path)
    return [path]


def _run_length(lines) -> int:
    return next((k for k, line in enumerate(lines) if line != lines[0]), len(lines))


def _lines_to_parse(block) -> int:
    """A run of two lines or more that starts or ends a block is parsed once;
    the lines between those runs one by one."""
    lead = _run_length(block)
    if lead == len(block):
        return 1
    trail = _run_length(block[::-1])
    return len(block) - sum(n - 1 for n in (lead, trail) if n > 1)


@pytest.mark.parametrize("dumps", [_constant_dump, _recover_2d_smoke_dumps])
def test_read_field_parses_one_line_per_run_that_starts_or_ends_a_block(tmp_path, monkeypatch,
                                                                        dumps):
    # no timing: a reader that parses, splits or compares every line hands
    # `_parse_runs` every line of a block
    handed = []

    def counting(lines, out, first):
        handed.append(len(lines))
        return parse_runs(lines, out, first)
    parse_runs = fields._parse_runs
    monkeypatch.setattr(fields, "_parse_runs", counting)
    for path in dumps(tmp_path, monkeypatch):
        handed.clear()
        back = read_field(path).values
        assert np.array_equal(back.reshape(-1).view(np.uint64),
                              _reference_read(path).view(np.uint64))
        bound = sum(_lines_to_parse(block) for block in _blocks(path))
        assert sum(handed) <= bound < back.size // 4


# float64 values whose shortest text is long, tiny, signed zero or subnormal
AWKWARD = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, 123456789012345678.0, -1e308]


def _reference_dump(f: ScalarField) -> str:
    """The per-value writer that `write_field` replaced, kept as the reference."""
    g = f.grid
    buf = io.StringIO()
    buf.write(f"dim {g.dim}\n")
    buf.write("cells " + " ".join(str(n) for n in g.cells) + "\n")
    buf.write("origin " + " ".join(f"{x:.17g}" for x in g.origin) + "\n")
    buf.write("extent " + " ".join(f"{x:.17g}" for x in g.extent) + "\n")
    for v in f.values.reshape(-1):
        buf.write(f"{v:.17g}\n")
    return buf.getvalue()


@pytest.mark.parametrize("cells", [(_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,),
                                   (2 * _CHUNK + 3,), (300, 250)])
def test_write_field_matches_per_value_reference(tmp_path, cells):
    grid = Grid((0.1,) * len(cells), (1 / 3,) * len(cells), cells)
    rng = np.random.Generator(np.random.Philox(len(cells) * 1000 + cells[0] % 1000))
    flat = (rng.normal(size=cells) * 10.0 ** rng.integers(-300, 300, size=cells)).reshape(-1)
    k = len(AWKWARD)
    flat[:k] = AWKWARD
    flat[-k:] = AWKWARD
    if flat.size > _CHUNK + k:
        flat[_CHUNK - k // 2:_CHUNK + k // 2] = AWKWARD  # straddle the first chunk seam
    f = ScalarField(grid, flat.reshape(cells))
    path = tmp_path / "f.field"
    write_field(f, path)
    assert path.read_bytes() == _reference_dump(f).encode()
    back = read_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def _runs(values, lengths) -> np.ndarray:
    return np.repeat(np.array(values, dtype=float), lengths)


def _ends_single() -> np.ndarray:
    flat = np.full(3 * _CHUNK, 0.25)
    flat[::_CHUNK] = [0.5, 1.5, 2.5]  # the first value of each chunk
    flat[_CHUNK - 1::_CHUNK] = [-0.5, -1.5, -2.5]  # and the last
    return flat


# runs of bit-equal values against the chunks that `write_field` formats
RUNS = {
    "straddles the chunk seam": lambda: _runs([0.1, 1 / 3, 0.1], [_CHUNK - 5, 10, _CHUNK - 5]),
    "fills whole chunks": lambda: _runs([1 / 3, 0.7], [2 * _CHUNK, _CHUNK]),
    "alternating signed zeros": lambda: _runs([0.0, -0.0] * 4,
                                              [1, 2, 3, _CHUNK, 5, 1, _CHUNK - 1, 7]),
    "awkward in runs of 1, 2 and a chunk plus one": lambda: np.concatenate(
        [_runs(AWKWARD, n) for n in (1, 2, _CHUNK + 1)]),
    "a single value at each chunk end": _ends_single,
}


@pytest.mark.parametrize("name", RUNS)
def test_write_field_formats_runs_like_the_per_value_reference(tmp_path, name):
    flat = RUNS[name]()
    f = ScalarField(Grid((0.0,), (1.0,), flat.shape), flat)
    path = tmp_path / "f.field"
    write_field(f, path)
    assert path.read_bytes() == _reference_dump(f).encode()
    assert np.array_equal(read_field(path).values.view(np.uint64), flat.view(np.uint64))


def test_write_field_repeats_a_line_within_one_chunk(tmp_path):
    # one run over a 512^2 field: its 20-byte line repeated over all cells
    # would be 5 MB, so no repeated text may span more than a chunk
    f = ScalarField.full(Grid((0.0, 0.0), (1.0, 1.0), (512, 512)), 1 / 3)
    tracemalloc.start()
    try:
        write_field(f, tmp_path / "f.field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (tmp_path / "f.field").stat().st_size > 5 * 10**6


def test_write_field_streams_in_chunks(tmp_path):
    # the 512^2 dump is about 5 MB of text: holding it whole peaks far above 4 MiB
    rng = np.random.Generator(np.random.Philox(3))
    f = ScalarField(Grid((0.0, 0.0), (1.0, 1.0), (512, 512)), rng.normal(size=(512, 512)))
    tracemalloc.start()
    try:
        write_field(f, tmp_path / "f.field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_write_atomic_failure_removes_partial_and_keeps_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def pieces():
        yield "new text " * 1000
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        _write_atomic(path, pieces())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_removes_partial_when_the_rename_fails(tmp_path):
    # a directory at the path refuses the rename of the written text over it
    path = tmp_path / "out.txt"
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        _write_atomic(path, ["text\n"])
    assert path.is_dir() and [p.name for p in tmp_path.iterdir()] == ["out.txt"]
