"""Grid construction, the solver's axis conditions, divergence, reconstruction, maxima, I/O."""
import struct

import numpy as np
import pytest

from axiswirl.fields import (
    AxisymField,
    Grid,
    SnapshotHistory,
    boundary_max,
    max_rspeed,
    max_speed,
    read_snapshot,
    sample_cartesian,
    write_snapshot,
)
from axiswirl.initial import DataSpec, generate, lamb_oseen_field
from axiswirl.solver import AxisymSolver, SolverConfig, build_divergence_matrix, divergence

from conftest import lamb_oseen_peak, rigid_rotation


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spacings():
    g = Grid(8, 8, 1.0, -0.5, 0.5)
    assert g.dr == 0.125
    assert g.dz == 0.125
    assert g.r[0] == 0.0

    g = Grid(256, 256, 4.0, -4.0, 4.0)
    assert g.dr == 0.015625
    assert g.dz == 0.03125


@pytest.mark.parametrize("args", [
    (4, 8, 1.0, 0.0, 1.0),
    (8, 4, 1.0, 0.0, 1.0),
    (8, 8, -1.0, 0.0, 1.0),
    (8, 8, 1.0, 1.0, 1.0),
])
def test_grid_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        Grid(*args)


def test_grid_nodes_include_axis_and_extents():
    g = Grid(10, 12, 2.5, -1.0, 2.0)
    assert g.r[0] == 0.0 and g.r[-1] == pytest.approx(2.5)
    assert g.z[0] == -1.0 and g.z[-1] == pytest.approx(2.0)
    assert g.shape == (11, 13)


# ---------------------------------------------------------------------------
# the stacked layout
# ---------------------------------------------------------------------------

def test_named_components_write_into_the_stacked_array(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vr[2, 3] = 1.5
    fld.vtheta = np.full(grid16.shape, 2.0)
    fld.vz[:] = 3.0
    fld.vz *= 0.5
    want = np.zeros((3, *grid16.shape))
    want[0, 2, 3], want[1], want[2] = 1.5, 2.0, 1.5
    np.testing.assert_array_equal(fld.v, want)
    for k, name in enumerate(("vr", "vtheta", "vz")):
        assert np.shares_memory(getattr(fld, name), fld.v[k])


def test_copy_shares_no_memory(ring_field):
    dup = ring_field.copy()
    assert not np.shares_memory(dup.v, ring_field.v)
    np.testing.assert_array_equal(dup.v, ring_field.v)
    dup.vtheta[1, 1] += 1.0
    assert dup.vtheta[1, 1] != ring_field.vtheta[1, 1]


# ---------------------------------------------------------------------------
# axis conditions
# ---------------------------------------------------------------------------

def _constructed(fld, boundary):
    """The state a solver starts from: ``fld`` with the boundary conditions, projected."""
    return AxisymSolver(fld, SolverConfig(cfl=0.4, boundary=boundary)).state


def test_axis_conditions_zero_odd_components(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vr[0, :] = 0.3
    fld.vtheta[0, :] = -0.2
    for boundary in ("dirichlet0", "hold"):
        out = _constructed(fld, boundary)
        assert np.all(out.vr[0, :] == 0.0)
        assert np.all(out.vtheta[0, :] == 0.0)


def test_axis_conditions_keep_even_vz(grid16):
    # a z-independent vz is divergence free and, with held far-field values,
    # satisfies every boundary condition: its axis row, which no closure
    # resets, comes back bit for bit
    fld = AxisymField.zeros(grid16)
    fld.vz[:] = np.cos(grid16.r)[:, None]
    np.testing.assert_array_equal(_constructed(fld, "hold").vz, fld.vz)


def test_axis_conditions_preserve_rigid_rotation(grid16):
    want = rigid_rotation(grid16).vtheta
    for boundary, interior in (("dirichlet0", np.s_[1:-1, 1:-1]), ("hold", np.s_[1:, 1:-1])):
        out = _constructed(rigid_rotation(grid16), boundary)
        assert np.all(out.vtheta[0, :] == 0.0)
        np.testing.assert_array_equal(out.vtheta[interior], want[interior])


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def _div(fld):
    return divergence(build_divergence_matrix(fld.grid), fld)


def test_divergence_constant_axial_flow(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vz[:] = 3.0
    np.testing.assert_allclose(_div(fld), 0.0, atol=1e-13)


def test_divergence_linear_annihilation(grid16):
    # vr = r, vz = -2z: d_r vr + vr/r + d_z vz = 1 + 1 - 2 = 0, exactly
    # reproduced by the second-order stencils on linear data
    fld = AxisymField.zeros(grid16)
    fld.vr[:] = grid16.r[:, None] * np.ones(grid16.shape)
    fld.vz[:] = -2.0 * grid16.z[None, :] * np.ones(grid16.shape)
    np.testing.assert_allclose(_div(fld), 0.0, atol=1e-12)


def test_divergence_stream_function_refines_second_order():
    # oracle: the generator's meridional part is analytically divergence free,
    # so the discrete divergence is pure truncation error and must drop by
    # about 4x when both spacings are halved
    sups = []
    for n in (32, 64):
        g = Grid(n, n, 4.0, -4.0, 4.0)
        fld = generate(DataSpec(kind="vortex_ring_swirl", n0=1.0), g)
        sups.append(float(np.max(np.abs(_div(fld)))))
    factor = sups[0] / sups[1]
    assert 3.0 < factor < 5.0


# ---------------------------------------------------------------------------
# cylindrical frame and Cartesian reconstruction
# ---------------------------------------------------------------------------

def _unit_component_fields(grid):
    """Three fields with one unit cylindrical component each: (e_r, e_theta, e_z)."""
    fields = [AxisymField.zeros(grid) for _ in range(3)]
    fields[0].vr[:] = 1.0
    fields[1].vtheta[:] = 1.0
    fields[2].vz[:] = 1.0
    return fields


def _sample(fld, pts):
    """sample_cartesian for one field at points that all lie inside the domain."""
    v, inside = sample_cartesian([fld], pts)
    assert inside.all()
    return v[0]


def test_frame_orthonormality_random_points():
    # the sample of a unit e_r, e_theta or e_z field is that frame vector
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(10_000, 3))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-6]
    grid = Grid(8, 8, 5.0, -3.0, 3.0)
    e = np.stack([_sample(f, pts) for f in _unit_component_fields(grid)], axis=1)
    gram = np.einsum("nij,nkj->nik", e, e)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape), atol=1e-12)


def test_frame_rejects_axis_point():
    # the frame is undefined on the axis: there the horizontal components are
    # dropped, not divided by r = 0, even where the data do not vanish
    grid = Grid(8, 8, 5.0, -3.0, 3.0)
    pts = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 2.0]])
    for k, fld in enumerate(_unit_component_fields(grid)):
        np.testing.assert_array_equal(_sample(fld, pts), [[0.0, 0.0, float(k == 2)]] * 2)


def test_reconstruct_rigid_rotation(grid16):
    fld = rigid_rotation(grid16, omega=0.5)
    v = _sample(fld, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(v, [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0]], atol=1e-12)


def test_reconstruct_constant_axial_flow(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vz[:] = 2.5
    pts = np.array([[0.3, 0.4, 0.2], [0.0, 0.0, -0.5], [1.0, -1.0, 0.9]])
    v = _sample(fld, pts)
    np.testing.assert_allclose(v, [[0.0, 0.0, 2.5]] * 3, atol=1e-12)


def test_reconstruct_masks_points_outside_the_domain(grid16):
    # outside the meridional domain a sample reads 0 and is masked; the far
    # boundary r = r_max, z = z_min and z = z_max belongs to the domain
    fld = AxisymField.zeros(grid16)
    fld.vr[:], fld.vtheta[:], fld.vz[:] = 1.0, 2.0, 3.0
    g = grid16
    pts = np.array([
        [5.0, 0.0, 0.0],  # beyond r_max
        [0.5, 0.0, 3.0],  # above z_max
        [0.5, 0.0, -3.0],  # below z_min
        [0.0, -g.r_max * 1.001, 0.0],  # beyond r_max off the x1 axis
        [g.r_max, 0.0, 0.0],
        [0.0, g.r_max, g.z_min],
        [0.5, 0.0, g.z_max],
    ])
    v, inside = sample_cartesian([fld], pts)
    np.testing.assert_array_equal(inside, [False] * 4 + [True] * 3)
    np.testing.assert_array_equal(v[0, :4], 0.0)
    np.testing.assert_allclose(v[0, 4:], [[1.0, 2.0, 3.0], [-2.0, 1.0, 3.0], [1.0, 2.0, 3.0]],
                               atol=1e-12)


def test_reconstruct_rotation_invariance(ring_field):
    # speed of the sampled 3-vector must not depend on the azimuth of the
    # query point
    rng = np.random.default_rng(3)
    r = rng.uniform(0.2, 3.0, 50)
    z = rng.uniform(-3.0, 3.0, 50)
    phi = rng.uniform(0.0, 2 * np.pi, 50)
    a = np.stack([r, np.zeros(50), z], axis=1)
    b = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    va = _sample(ring_field, a)
    vb = _sample(ring_field, b)
    np.testing.assert_allclose(
        np.linalg.norm(va, axis=1), np.linalg.norm(vb, axis=1), atol=1e-12
    )


def test_reconstruct_many_matches_single(ring_field):
    # each row is vr e_r + vtheta e_theta + vz e_z, built point by point from
    # the components sampled at (r, 0, z), where the frame is the identity
    rng = np.random.default_rng(11)
    pts = np.stack([rng.uniform(0.1, 2.5, 20), rng.uniform(-2.0, 2.0, 20),
                    rng.uniform(-3.0, 3.0, 20)], axis=1)
    many = _sample(ring_field, pts)
    for k, (x1, x2, z) in enumerate(pts):
        r = np.hypot(x1, x2)
        vr, vtheta, vz = _sample(ring_field, [[r, 0.0, z]])[0]
        e_r, e_theta = np.array([x1 / r, x2 / r, 0.0]), np.array([-x2 / r, x1 / r, 0.0])
        expected = vr * e_r + vtheta * e_theta + np.array([0.0, 0.0, vz])
        np.testing.assert_allclose(many[k], expected, atol=1e-12)


def test_reconstruct_k_fields_in_one_call_equals_k_single_calls(ring_field):
    # the shared stencil and frame change no bit of any field's samples
    rng = np.random.default_rng(13)
    fields = [ring_field, rigid_rotation(ring_field.grid, omega=0.3), ring_field.copy()]
    fields[2].vz *= -1.7
    fields[2].vr += 0.25
    pts = np.concatenate([
        np.stack([rng.uniform(-4.5, 4.5, 200), rng.uniform(-4.5, 4.5, 200),
                  rng.uniform(-4.5, 4.5, 200)], axis=1),
        [[0.0, 0.0, 1.0], [ring_field.grid.r_max, 0.0, 0.0]],
    ])
    many, inside = sample_cartesian(fields, pts)
    assert many.shape == (3, len(pts), 3)
    assert 0 < inside.sum() < len(pts)
    for k, fld in enumerate(fields):
        one, inside_one = sample_cartesian([fld], pts)
        np.testing.assert_array_equal(inside_one, inside)
        assert many[k].tobytes() == one[0].tobytes()


def test_bilinear_sample_exact_on_bilinear_data(grid16):
    fld = AxisymField.zeros(grid16)
    fld.vz[:] = 2.0 + 0.5 * grid16.r[:, None] - 0.25 * grid16.z[None, :]
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, grid16.r_max, 100)
    z = rng.uniform(grid16.z_min, grid16.z_max, 100)
    got = _sample(fld, np.stack([r, np.zeros(100), z], axis=1))[:, 2]
    np.testing.assert_allclose(got, 2.0 + 0.5 * r - 0.25 * z, atol=1e-12)


# ---------------------------------------------------------------------------
# maxima scans
# ---------------------------------------------------------------------------

def test_max_speed_zero_field(grid16):
    q, (r0, z0) = max_speed(AxisymField.zeros(grid16))
    assert q == 0.0
    assert (r0, z0) == (0.0, grid16.z_min)


def test_max_speed_rigid_rotation(grid16):
    q, (r0, z0) = max_speed(rigid_rotation(grid16, omega=0.7))
    assert q == pytest.approx(0.7 * grid16.r_max)
    assert (r0, z0) == (grid16.r_max, grid16.z_min)


def test_max_speed_lamb_oseen_matches_scan_oracle():
    nu, t = 1.0, 0.01
    g = Grid(512, 8, 2.0, -0.5, 0.5)
    fld = lamb_oseen_field(1.0, nu, t, g)
    peak_v, peak_r = lamb_oseen_peak(1.0, nu, t)
    q, (r0, _) = max_speed(fld)
    assert q == pytest.approx(peak_v, rel=1e-4)
    assert r0 == pytest.approx(peak_r, abs=2 * g.dr)


def test_max_rspeed_capped_profile(grid16):
    # vtheta = c/r beyond r1, capped inside: r|v| sits on a plateau of height c
    c, r1 = 0.8, 0.5
    fld = AxisymField.zeros(grid16)
    r = grid16.r[:, None]
    fld.vtheta = np.where(r >= r1, c / np.where(r > 0, r, 1.0), c / r1) * np.ones(grid16.shape)
    val, (r0, _) = max_rspeed(fld)
    assert val == pytest.approx(c)
    assert r0 >= r1


def test_max_rspeed_tie_break_smallest_indices(grid16):
    # two nodes with exactly equal r|v| (powers of two): the first in
    # lexicographic (r, z) order wins
    fld = AxisymField.zeros(grid16)
    fld.vtheta[4, 5] = 2.0   # r = 0.5, product exactly 1.0
    fld.vtheta[8, 3] = 1.0   # r = 1.0, product exactly 1.0
    val, (r0, z0) = max_rspeed(fld)
    assert val == 1.0
    assert r0 == 0.5
    assert z0 == pytest.approx(grid16.z[5])


def test_max_rspeed_matches_bruteforce(ring_field):
    val, (r0, z0) = max_rspeed(ring_field)
    g = ring_field.grid
    weighted = g.r[:, None] * ring_field.speed()
    assert val == pytest.approx(float(weighted.max()))
    i, j = np.unravel_index(np.argmax(weighted), weighted.shape)
    assert (r0, z0) == (pytest.approx(g.r[i]), pytest.approx(g.z[j]))


def test_argmax_deterministic(ring_field):
    first = max_speed(ring_field)
    for _ in range(5):
        assert max_speed(ring_field) == first


def test_boundary_max(ring_field):
    sp = ring_field.speed()
    expect = max(sp[-1, :].max(), sp[:, 0].max(), sp[:, -1].max())
    assert boundary_max(ring_field) == pytest.approx(float(expect))


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------

def test_history_requires_increasing_times(grid16):
    h = SnapshotHistory()
    h.push(0.0, AxisymField.zeros(grid16))
    with pytest.raises(ValueError):
        h.push(0.0, AxisymField.zeros(grid16))


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip(tmp_path, ring_field):
    path = tmp_path / "snap.bin"
    p = np.sin(np.arange(ring_field.grid.shape[0]))[:, None] * np.ones(ring_field.grid.shape)
    write_snapshot(path, 0.125, ring_field, p)
    t, fld, pr = read_snapshot(path)
    assert t == 0.125
    assert fld.grid == ring_field.grid
    np.testing.assert_array_equal(fld.vr, ring_field.vr)
    np.testing.assert_array_equal(fld.vtheta, ring_field.vtheta)
    np.testing.assert_array_equal(fld.vz, ring_field.vz)
    np.testing.assert_array_equal(pr, p)


def test_failed_snapshot_write_leaves_previous_file(tmp_path, ring_field):
    path = tmp_path / "snap_00000004.bin"
    p = np.zeros(ring_field.grid.shape)
    write_snapshot(path, 0.5, ring_field, p)
    before = path.read_bytes()
    # the pressure cannot be converted, so the write fails after the velocity
    # arrays have gone out
    bad = np.full(ring_field.grid.shape, "x")
    with pytest.raises(ValueError):
        write_snapshot(path, 0.75, AxisymField.zeros(ring_field.grid), bad)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_snapshot_bad_magic(tmp_path, grid16):
    path = tmp_path / "snap.bin"
    p = np.zeros(grid16.shape)
    write_snapshot(path, 0.0, AxisymField.zeros(grid16), p)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_snapshot_truncation_detected(tmp_path, grid16):
    path = tmp_path / "snap.bin"
    p = np.zeros(grid16.shape)
    write_snapshot(path, 0.0, AxisymField.zeros(grid16), p)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)


def test_read_snapshot_gives_an_owned_stacked_array(tmp_path, ring_field):
    path = tmp_path / "snap.bin"
    write_snapshot(path, 0.0, ring_field, np.zeros(ring_field.grid.shape))
    _, fld, p = read_snapshot(path)
    assert fld.v.shape == (3, *ring_field.grid.shape) and fld.v.dtype == np.float64
    assert fld.v.flags.c_contiguous and fld.v.flags.owndata and fld.v.flags.writeable
    assert not np.shares_memory(fld.v, p)


def _four_by_four(data):
    """Node counts nr = nz = 4, below the minimum, with the file cut to match them."""
    struct.pack_into("<2d", data, 8, 4.0, 4.0)
    del data[56 + 32 * 25:]


@pytest.mark.parametrize("corrupt, message", [
    (lambda data: struct.pack_into("<d", data, 8, 1e13), "truncated"),
    (lambda data: struct.pack_into("<d", data, 8, float("inf")), "node counts"),
    (lambda data: struct.pack_into("<d", data, 8, 16.5), "node counts"),
    (lambda data: data.extend(bytes(100)), "oversized"),
    (lambda data: struct.pack_into("<I", data, 4, 2), "unsupported snapshot version 2"),
    (_four_by_four, "grid counts too small"),
    (lambda data: struct.pack_into("<d", data, 24, float("nan")), "r_max must be positive"),
], ids=["nr=1e13", "nr=inf", "nr=16.5", "trailing-bytes", "version=2", "nr=nz=4", "r_max=nan"])
def test_snapshot_header_is_checked_against_the_file(tmp_path, grid16, corrupt, message):
    # each corruption fails on the header and the file's size, before any
    # array the header asks for is allocated
    path = tmp_path / "snap.bin"
    write_snapshot(path, 0.0, AxisymField.zeros(grid16), np.zeros(grid16.shape))
    data = bytearray(path.read_bytes())
    corrupt(data)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message) as exc:
        read_snapshot(path)
    assert str(path) in str(exc.value)
