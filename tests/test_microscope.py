"""Tests for candidate detection, cube rescaling and closeness-to-constant."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiswirl import microscope
from axiswirl.fields import (
    AxisymField,
    Grid,
    SnapshotHistory,
    read_snapshot,
)
from axiswirl.microscope import (
    CUBE_MAGIC,
    CubeSample,
    InsufficientSamplesError,
    MicroscopeConfig,
    ZoomParameters,
    constant_closeness,
    find_almost_maximal,
    microscope_report,
    rescale_history,
    swirl_smallness,
    write_cube,
)


def _history(grid, fields, times):
    hist = SnapshotHistory()
    for t, fld in zip(times, fields):
        hist.push(t, fld)
    return hist


def _uniform_axial(grid, w):
    fld = AxisymField.zeros(grid)
    fld.vz = w * np.ones(grid.shape)
    return fld


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kw",
    [
        {"epsilon": 0.0},
        {"sigma0": -1.0},
        {"holder_alpha": 1.0},
        {"holder_alpha": 0.0},
        {"ratio_threshold": 1.5},
        {"cube_resolution": 8},
        {"cube_resolution": 3},
        {"cube_time_levels": 2},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        MicroscopeConfig(**kw)


def test_zoom_parameters_alpha_beta():
    z = ZoomParameters(mode="A", t0=0.0, r0=2.0, z0=0.0, q=0.5, ratio=1.0)
    assert z.alpha == pytest.approx(1.0)
    assert z.beta == pytest.approx(2.0 / np.sqrt(1.0))
    assert np.allclose(z.x0, [2.0, 0.0, 0.0])


# ---------------------------------------------------- find_almost_maximal


def test_find_almost_maximal_empty_history():
    with pytest.raises(ValueError, match="empty"):
        find_almost_maximal(SnapshotHistory(), "A")


def test_find_almost_maximal_bad_mode(grid16):
    hist = _history(grid16, [_uniform_axial(grid16, 1.0)], [0.0])
    with pytest.raises(ValueError, match="mode"):
        find_almost_maximal(hist, "C")


def test_growing_amplitude_keeps_every_snapshot_at_ratio_one(grid16):
    fields = [_uniform_axial(grid16, w) for w in (1.0, 2.0, 3.0)]
    hist = _history(grid16, fields, [0.0, 0.1, 0.2])
    cands = find_almost_maximal(hist, "A", ratio_threshold=0.9)
    assert len(cands) == 3
    assert all(c.ratio == 1.0 for c in cands)
    assert [c.q for c in cands] == [1.0, 2.0, 3.0]


def test_decaying_amplitude_filtered_by_threshold(grid16):
    fields = [_uniform_axial(grid16, w) for w in (1.0, 0.5, 0.1)]
    hist = _history(grid16, fields, [0.0, 0.1, 0.2])
    cands = find_almost_maximal(hist, "A", ratio_threshold=0.4)
    assert [c.t0 for c in cands] == [0.0, 0.1]
    # a lower threshold admits a superset of candidates
    more = find_almost_maximal(hist, "A", ratio_threshold=0.05)
    assert len(more) == 3


def test_zero_history_yields_no_candidates(grid16):
    hist = _history(grid16, [AxisymField.zeros(grid16)], [0.0])
    assert find_almost_maximal(hist, "A") == []
    assert find_almost_maximal(hist, "B") == []


def test_mode_b_q_is_speed_not_rspeed(grid32, ring_field):
    hist = _history(grid32, [ring_field], [0.0])
    (c,) = find_almost_maximal(hist, "B", ratio_threshold=0.5)
    sp = ring_field.speed()
    rs = sp * grid32.r[:, None]
    assert c.r0 * c.q == pytest.approx(float(rs.max()), rel=1e-6)
    assert c.q <= float(sp.max()) + 1e-12


# ---------------------------------------------------------------- rescale


def test_rescale_rejects_zero_speed(grid16):
    hist = _history(grid16, [AxisymField.zeros(grid16)], [0.0])
    zoom = ZoomParameters(mode="A", t0=0.0, r0=1.0, z0=0.0, q=0.0, ratio=1.0)
    with pytest.raises(ValueError, match="zero-speed"):
        rescale_history(hist, zoom, MicroscopeConfig())


def test_rescale_constant_axial_flow_center_is_unit(grid32):
    w = 0.37
    hist = _history(grid32, [_uniform_axial(grid32, w)] * 2, [0.0, 0.1])
    zoom = ZoomParameters(mode="A", t0=0.1, r0=2.0, z0=0.0, q=w, ratio=1.0)
    sample = rescale_history(hist, zoom, MicroscopeConfig(sigma0=8.0))
    assert np.linalg.norm(sample.center_value) == pytest.approx(1.0, abs=1e-12)
    # every valid sample of a constant field rescales to the same unit vector
    vals = sample.v[sample.valid]
    assert np.allclose(vals, sample.center_value[None, :], atol=1e-12)


def test_rescale_cap_keeps_cube_off_axis(grid32):
    hist = _history(grid32, [_uniform_axial(grid32, 1.0)] * 2, [0.0, 0.1])
    # nominal L = 1/(sigma0 eps) = 4 but q r0 / 2 = 0.25: cap engages
    zoom = ZoomParameters(mode="A", t0=0.1, r0=0.5, z0=0.0, q=1.0, ratio=1.0)
    sample = rescale_history(hist, zoom, MicroscopeConfig(epsilon=0.25, sigma0=1.0))
    assert sample.capped
    assert sample.length == pytest.approx(0.25)
    # physical cube half-width L/q = 0.25 < r0, so it never touches the axis
    r_phys = np.hypot(sample.phys[..., 0], sample.phys[..., 1])
    assert r_phys.min() > 0.0


def test_rescale_masks_points_outside_domain(grid16):
    hist = _history(grid16, [_uniform_axial(grid16, 1.0)] * 2, [0.0, 0.1])
    # center near the outer rim with a wide cube: part must be masked
    zoom = ZoomParameters(mode="A", t0=0.1, r0=1.9, z0=0.9, q=1.0, ratio=1.0)
    sample = rescale_history(hist, zoom, MicroscopeConfig(epsilon=0.5, sigma0=1.0))
    assert 0.0 < sample.masked_fraction < 1.0
    assert np.all(sample.v[~sample.valid] == 0.0)


def test_rescale_time_levels_before_history_are_masked(grid16):
    hist = _history(grid16, [_uniform_axial(grid16, 1.0)] * 2, [0.0, 1e-4])
    # cube time depth (L/q)^2 extends far before t=0: early levels invalid
    zoom = ZoomParameters(mode="A", t0=1e-4, r0=1.0, z0=0.0, q=1.0, ratio=1.0)
    sample = rescale_history(hist, zoom, MicroscopeConfig(epsilon=0.5, sigma0=1.0))
    per_level = sample.valid.any(axis=(1, 2, 3))
    assert not per_level[0]
    assert per_level[-1]


def test_rescale_scaling_consistency(grid32):
    """Zooming a lambda-dilated constant flow gives the same normalized cube."""
    lam = 2.0
    w = 0.6
    cfg = MicroscopeConfig(sigma0=8.0)
    hist1 = _history(grid32, [_uniform_axial(grid32, w)] * 2, [0.0, 0.2])
    zoom1 = ZoomParameters(mode="A", t0=0.2, r0=2.0, z0=0.0, q=w, ratio=1.0)
    s1 = rescale_history(hist1, zoom1, cfg)
    # dilated flow: velocity lambda*w on the grid shrunk by lambda, times / lambda^2
    g2 = Grid(32, 32, 4.0 / lam, -4.0 / lam, 4.0 / lam)
    hist2 = _history(g2, [_uniform_axial(g2, lam * w)] * 2, [0.0, 0.2 / lam**2])
    zoom2 = ZoomParameters(mode="A", t0=0.2 / lam**2, r0=2.0 / lam, z0=0.0,
                           q=lam * w, ratio=1.0)
    s2 = rescale_history(hist2, zoom2, cfg)
    assert s1.length == pytest.approx(s2.length)
    assert np.allclose(s1.v[s1.valid & s2.valid], s2.v[s1.valid & s2.valid], atol=1e-12)


# ------------------------------------------------------------- closeness


def _constant_sample(grid, w, sigma0=8.0):
    hist = _history(grid, [_uniform_axial(grid, w)] * 3, [0.0, 0.1, 0.2])
    zoom = ZoomParameters(mode="A", t0=0.2, r0=2.0, z0=0.0, q=w, ratio=1.0)
    cfg = MicroscopeConfig(sigma0=sigma0)
    return rescale_history(hist, zoom, cfg), cfg


def test_constant_field_closeness_is_exactly_zero(grid32):
    sample, cfg = _constant_sample(grid32, 0.8)
    rep = constant_closeness(sample, cfg)
    assert rep.total == 0.0
    assert rep.sup_dist == 0.0 and rep.grad_sup == 0.0
    assert rep.hess_sup == 0.0 and rep.dt_sup == 0.0
    assert rep.holder_seminorm == 0.0
    # the zoom divides the velocity by Q = w, so the constant is (0, 0, 1)
    np.testing.assert_array_equal(rep.c_star, [0.0, 0.0, 1.0])


def test_constant_swirl_free_flow_has_zero_swirl_ratio(grid32):
    sample, _ = _constant_sample(grid32, 0.8)
    assert swirl_smallness(sample) == 0.0


def test_linear_shear_closeness_oracle(grid32):
    # vz = w0 + g*z: rescaled field is affine in x3 with slope g/q^2 per unit
    # normalized length, so sup_dist = slope*L, grad_sup = slope, rest = 0
    w0, g = 1.0, 0.05
    fld = AxisymField.zeros(grid32)
    fld.vz = w0 + g * grid32.z[None, :] * np.ones(grid32.shape)
    hist = _history(grid32, [fld.copy(), fld.copy(), fld.copy()], [0.0, 0.1, 0.2])
    q = float(fld.speed().max())
    zoom = ZoomParameters(mode="A", t0=0.2, r0=2.0, z0=0.0, q=q, ratio=1.0)
    cfg = MicroscopeConfig(sigma0=8.0)
    sample = rescale_history(hist, zoom, cfg)
    rep = constant_closeness(sample, cfg)
    slope = g / q**2  # d v_tilde_z / d x3~ = (g / q^2)
    assert rep.grad_sup == pytest.approx(slope, rel=1e-10)
    assert rep.sup_dist == pytest.approx(slope * sample.length, rel=1e-10)
    assert rep.hess_sup == pytest.approx(0.0, abs=1e-10)
    assert rep.dt_sup == 0.0
    assert rep.holder_seminorm == pytest.approx(0.0, abs=1e-9)


def test_closeness_insufficient_samples(grid16):
    hist = _history(grid16, [_uniform_axial(grid16, 1.0)] * 2, [0.0, 1e-6])
    # place the cube center outside all but a sliver of the domain
    zoom = ZoomParameters(mode="A", t0=1e-6, r0=1.95, z0=0.95, q=1.0, ratio=1.0)
    cfg = MicroscopeConfig(epsilon=0.25, sigma0=1.0)
    sample = rescale_history(hist, zoom, cfg)
    with pytest.raises(InsufficientSamplesError):
        constant_closeness(sample, cfg)


def test_a_cube_valid_on_one_plane_has_no_full_stencil():
    # the valid samples form the plane x3~ = 0: no first or second difference
    # reads only valid samples, so the gradient and Hessian sups run over no
    # stencil and read 0; the time derivative and the sup distance do not mind
    rng = np.random.default_rng(3)
    n, nt, length = 9, 5, 1.0
    xs, ts = np.linspace(-length, length, n), np.linspace(-length**2, 0.0, nt)
    valid = np.zeros((nt, n, n, n), bool)
    valid[:, :, :, 4] = True
    zoom = ZoomParameters(mode="A", t0=0.0, r0=2.0, z0=0.0, q=1.0, ratio=1.0)
    phys = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1) + zoom.x0
    sample = CubeSample(zoom=zoom, length=length, xs=xs, ts=ts,
                        v=rng.normal(size=(nt, n, n, n, 3)), valid=valid, phys=phys,
                        capped=False)
    rep = constant_closeness(sample, MicroscopeConfig())
    assert rep.grad_sup == 0.0 and rep.hess_sup == 0.0
    assert rep.sup_dist == 5.070141312232465
    assert rep.dt_sup == 12.894228905633444
    assert rep.holder_seminorm == 38.80323796036801
    assert rep.swirl_ratio == 3.414730404497056


# the difference stencils as (lattice offset, weight) terms, the first of weight 1
_E = np.eye(3, dtype=int)
_FIRST_TERMS = [(2, ((e, 1), (-e, -1))) for e in _E]
_SECOND_TERMS = ([(1, ((e, 1), (0 * e, -2), (-e, 1))) for e in _E]
                 + [(4, ((a + b, 1), (a - b, -1), (b - a, -1), (-a - b, 1)))
                    for a, b in itertools.combinations(_E, 2)])


def _stencils_by_shifted_copies(v, valid, terms, h):
    """Oracle: each row as its first shifted interior plus w times each further
    one, over divisor * h; valid where the centre and every read are."""
    def shifted(a, o):
        return a[(slice(None),) + tuple(slice(1 + k, a.shape[1] - 1 + k) for k in o)]

    rows = []
    for divisor, ((o, _), *rest) in terms:
        x = shifted(v, o)
        for o, w in rest:
            x = x + w * shifted(v, o)
        rows.append(x / (divisor * h))
    reads = [0 * _E[0]] + [o for _, row in terms for o, _ in row]
    return np.stack(rows, axis=-1), np.logical_and.reduce([shifted(valid, o) for o in reads])


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("nt", [3, 5])
def test_stencils_equal_the_weighted_sums_of_shifted_copies_bit_for_bit(n, nt):
    rng = np.random.default_rng(10 * n + nt)
    v = rng.normal(size=(nt, n, n, n, 3))
    u = rng.random(v.shape)
    v[u < 0.15] = 0.0
    v[u > 0.9] = -0.0
    valid = rng.random((nt, n, n, n)) < 0.9
    h = 2.0 / (n - 1)
    for table, terms, step in ((microscope._FIRST, _FIRST_TERMS, h),
                               (microscope._SECOND, _SECOND_TERMS, h**2)):
        got, ok = microscope._stencils(v, valid, table, step)
        want, want_ok = _stencils_by_shifted_copies(v, valid, terms, step)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ok.any() and not ok.all() and np.array_equal(ok, want_ok)


def test_swirl_smallness_rigid_rotation(grid32):
    from conftest import rigid_rotation

    omega = 0.7
    fld = rigid_rotation(grid32, omega)
    hist = _history(grid32, [fld.copy(), fld.copy()], [0.0, 0.1])
    q = float(fld.speed().max())  # omega * r_max
    zoom = ZoomParameters(mode="A", t0=0.1, r0=2.0, z0=0.0, q=q, ratio=1.0)
    cfg = MicroscopeConfig(sigma0=8.0)
    sample = rescale_history(hist, zoom, cfg)
    # swirl speed at the farthest valid sample radius, rescaled by q
    r_phys = np.hypot(sample.phys[..., 0], sample.phys[..., 1])
    r_max_valid = r_phys[sample.valid[-1]].max()
    assert swirl_smallness(sample) == pytest.approx(omega * r_max_valid / q, rel=1e-10)


# ----------------------------------------------------------- Holder oracle


def _pairwise_holder(points, values, alpha, chunk=256):
    """Oracle: max over all pairs of |values(a)-values(b)| / d_P(a,b)^alpha.

    ``points`` is (m, 4) with columns (x1, x2, x3, t); d_P is the parabolic
    distance max(|dx|, sqrt(|dt|)).  A chunked scan over every ordered pair.
    """
    m = len(points)
    if m < 2:
        return 0.0
    best = 0.0
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        dx = points[lo:hi, None, :3] - points[None, :, :3]
        dt = points[lo:hi, None, 3] - points[None, :, 3]
        d = np.maximum(np.linalg.norm(dx, axis=-1), np.sqrt(np.abs(dt)))
        dv = np.linalg.norm(values[lo:hi, None, :] - values[None, :, :], axis=-1)
        mask = d > 1e-12
        if mask.any():
            best = max(best, float((dv[mask] / d[mask] ** alpha).max()))
    return best


def _oracle_holder(ts, xs, values, valid, alpha):
    """The oracle on the valid lattice samples, as a flat point list."""
    n = len(xs)
    space = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    space4 = np.broadcast_to(space, (len(ts),) + space.shape)[valid]
    time4 = np.broadcast_to(ts[:, None, None, None, None], (len(ts), n, n, n, 1))[valid]
    vals = values[valid].reshape(len(space4), -1)
    return _pairwise_holder(np.concatenate([space4, time4], axis=-1), vals, alpha, chunk=64)


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("nt", [3, 5])
@pytest.mark.parametrize("comps", [3, 18])
def test_lattice_holder_equals_all_pairs_oracle(n, nt, comps):
    rng = np.random.default_rng([n, nt, comps])
    length = 0.37  # a capped, non-dyadic half-edge: lattice steps vary in the last ulp
    xs = np.linspace(-length, length, n)
    ts = np.linspace(-length**2, 0.0, nt)
    values = rng.normal(size=(nt, n, n, n, comps))
    random_mask = rng.random((nt, n, n, n)) < 0.8
    # a cube past the domain edge loses slabs across the lattice axes, and one
    # that reaches before the first snapshot loses its early time levels
    slab_mask = np.ones((nt, n, n, n), bool)
    slab_mask[:, : n // 3] = False
    slab_mask[..., -1] = False
    slab_mask[0] = False
    for valid in (random_mask, slab_mask):
        for alpha in (0.1, 0.5, 0.9):
            got = microscope._lattice_holder(ts, xs, values, valid, alpha)
            assert got == _oracle_holder(ts, xs, values, valid, alpha)
            assert got > 0.0


def _holder_case(case):
    """(ts, xs, values, valid, alpha) inputs on which a bound can mislead."""
    rng = np.random.default_rng(list(map(ord, case)))
    if case == "constant_valid_data":
        # masked samples hold other values; no pair of valid ones differs
        xs, ts = np.linspace(-0.37, 0.37, 5), np.linspace(-0.37**2, 0.0, 3)
        valid = rng.random((3, 5, 5, 5)) < 0.7
        values = np.where(valid[..., None], 0.8, rng.normal(size=(3, 5, 5, 5, 3)))
        return ts, xs, values, valid, 0.5
    if case == "large_common_offset":
        # |a|^2 + |b|^2 - 2 a.b is a small difference of large numbers
        xs, ts = np.linspace(-0.37, 0.37, 5), np.linspace(-0.37**2, 0.0, 3)
        values = 1e8 + 1e-4 * rng.normal(size=(3, 5, 5, 5, 3))
        return ts, xs, values, rng.random((3, 5, 5, 5)) < 0.8, 0.5
    if case == "two_pairs_tied":
        # a spike whose only valid neighbours at the smallest distance are two
        # face neighbours: on a dyadic lattice both quotients are equal
        xs, ts = np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 0.0, 3)
        values = np.zeros((3, 5, 5, 5, 3))
        values[1, 2, 2, 2, 0] = 1.0
        valid = np.ones((3, 5, 5, 5), bool)
        valid[1, 1, 2, 2] = valid[1, 2, 3, 2] = valid[1, 2, 2, 1] = valid[1, 2, 2, 3] = False
        return ts, xs, values, valid, 0.5
    if case == "subnormal_squares":
        # differences near 1e-162 square into subnormals, which the exact
        # formula rounds to steps of 2^-1074; seed 5 gives a maximum that a
        # bound without that rounding misses
        rng = np.random.default_rng(5)
        xs, ts = np.linspace(-0.37, 0.37, 4), np.linspace(-0.37**2, 0.0, 2)
        values = 1e-162 * rng.normal(size=(2, 4, 4, 4, 8))
        return ts, xs, values, rng.random((2, 4, 4, 4)) < 0.8, 0.5
    if case == "near_tie":
        # the maximum, at a face diagonal, beats a face neighbour pair by 1e-9
        # relative, less than float32 rounding of its weight 2^-alpha lowers it
        xs, ts = np.linspace(-1.0, 1.0, 3), np.array([0.0])
        values = np.zeros((1, 3, 3, 3, 1))
        values[0, 0, 0, 0] = 1.0
        values[0, 2, 2, 2] = 2.0**0.25 * (1.0 + 1e-9)
        valid = np.ones((1, 3, 3, 3), bool)
        valid[0, 1, 2, 2] = valid[0, 2, 1, 2] = valid[0, 2, 2, 1] = False
        return ts, xs, values, valid, 0.5
    if case == "float32_near_tie":
        # two face-neighbour pairs whose differences, 1 and 1 + 1e-8, round to
        # the same float32 value; the argmax of the bound finds the lesser first
        xs, ts = np.linspace(-1.0, 1.0, 5), np.array([0.0])
        values = np.zeros((1, 5, 5, 5, 2))
        values[0, 1, 0, 0, 0] = 1.0
        values[0, 4, 4, 4, 1] = 1.0 + 1e-8
        valid = np.zeros((1, 5, 5, 5), bool)
        valid[0, 0, 0, 0] = valid[0, 1, 0, 0] = valid[0, 4, 4, 3] = valid[0, 4, 4, 4] = True
        return ts, xs, values, valid, 0.5
    if case == "clusters_far_from_centre":
        # the centre sample lies 1e16 time units (d_P = 1e8) before two clusters
        # that differ by about 1e-6 relative, so centring leaves values of order
        # one whose float32 rounding is a few per cent of the largest difference
        xs, ts = np.linspace(-1.0, 1.0, 3), np.array([-1e16, 0.0])
        cluster = np.arange(3)[:, None, None, None] >= 1
        level = np.array([1.0, 2.0, 3.0]) * (1.0 + 1e-6 * cluster + 1e-8 * rng.normal(size=(3, 3, 3, 1)))
        values = np.stack([np.zeros((3, 3, 3, 3)), level])
        valid = np.ones((2, 3, 3, 3), bool)
        valid[0] = False
        valid[0, 1, 1, 1] = True
        return ts, xs, values, valid, 0.9
    if case == "float32_rounding_shrinks_the_maximum":
        # the float32 cast rounds the largest difference, 2^-10 (1 + 9.1e-5) at
        # level 1, to 2^-10, below a rival at level 2, visited first, whose
        # difference is 2^-10 (1 + 2^-14); the centre sample at level 0 is at
        # d_P >= 2^24; unwidened, the float32 bound of the maximum is exact for
        # the rounded values, and so too low
        xs, ts = np.linspace(-1.0, 1.0, 3), np.linspace(-(2.0**49), 0.0, 3)
        values = np.zeros((3, 3, 3, 3, 1))
        values[1, 1, 1, 0] = 1.0 - 0.99 * 2.0**-25
        values[1, 1, 1, 1] = 1.0 + 2.0**-10 + 0.99 * 2.0**-24
        values[2, 1, 1, 1] = 2.0**-10 + 2.0**-24
        valid = np.zeros((3, 3, 3, 3), bool)
        valid[0, 0, 0, 0] = valid[1, 1, 1, 0] = valid[1, 1, 1, 1] = True
        valid[2, 1, 1, 0] = valid[2, 1, 1, 1] = True
        return ts, xs, values, valid, 0.5
    if case == "float32_flushed_components":
        # next to an order-one component, components that the float32 cast makes
        # subnormal (1e-40) or zero (1e-50)
        xs, ts = np.linspace(-0.37, 0.37, 4), np.linspace(-0.37**2, 0.0, 3)
        values = rng.normal(size=(3, 4, 4, 4, 3)) * np.array([1.0, 1e-40, 1e-50])
        return ts, xs, values, rng.random((3, 4, 4, 4)) < 0.8, 0.5
    if case == "subnormal_squares_at_the_ceiling":
        # two valid neighbours whose difference squares to 5.6 * 2^-1074, which
        # rounds up to 6 * 2^-1074, while the half difference from their midrange
        # squares to 1.4 * 2^-1074, which rounds down to 2^-1074: the quotient
        # exceeds twice the rounded radius by 22 %
        xs, ts = np.linspace(-1.0, 1.0, 3), np.array([0.0])
        values = np.zeros((1, 3, 3, 3, 1))
        values[0, 1, 1, 1] = 5.6**0.5 * 2.0**-537
        valid = np.zeros((1, 3, 3, 3), bool)
        valid[0, 1, 1, 1] = valid[0, 2, 1, 1] = True
        return ts, xs, values, valid, 0.5
    if case == "rounding_above_the_ceiling":
        # two valid neighbours whose rounded quotient is one ulp above twice
        # their rounded radius over the rounded spacing to the alpha
        xs, ts = np.linspace(-1.8592437497248215, 1.8592437497248215, 3), np.array([0.0])
        values = np.zeros((1, 3, 3, 3, 1))
        values[0, 1, 1, 1] = 1.5942448414759975
        valid = np.zeros((1, 3, 3, 3), bool)
        valid[0, 1, 1, 1] = valid[0, 2, 1, 1] = True
        return ts, xs, values, valid, 0.5392624923188806
    raise ValueError(case)


@pytest.mark.parametrize(
    "case", ["constant_valid_data", "large_common_offset", "two_pairs_tied", "subnormal_squares",
             "near_tie", "float32_near_tie", "clusters_far_from_centre",
             "float32_rounding_shrinks_the_maximum", "float32_flushed_components"])
def test_lattice_holder_equals_oracle_where_a_bound_can_mislead(case):
    ts, xs, values, valid, alpha = _holder_case(case)
    got = microscope._lattice_holder(ts, xs, values, valid, alpha)
    assert got == _oracle_holder(ts, xs, values, valid, alpha)
    if case == "constant_valid_data":
        assert got == 0.0
    if case == "two_pairs_tied":
        assert got == 1.0 / 0.5**alpha
    if case == "near_tie":
        assert got > 1.0
    if case == "float32_near_tie":
        assert got == (1.0 + 1e-8) / 0.5**alpha
    if case == "clusters_far_from_centre":
        # the maximum pairs the two clusters, not the centre with either
        assert 2e-6 < got < 1e-5
    if case == "float32_rounding_shrinks_the_maximum":
        assert got == values[1, 1, 1, 1, 0] - values[1, 1, 1, 0, 0] > 2.0**-10 + 2.0**-24


def test_lattice_holder_equals_oracle_on_benchmark_cube_shapes():
    # n-point, 5-level cubes (the benchmark's n = 7 and the default n = 9) with a
    # capped, non-dyadic half-edge, measured as constant_closeness measures
    # them: D2v on the spatial interior, the time derivative on the inner
    # levels; the first level lies before the history
    rng = np.random.default_rng(7)
    length = 0.5 * 1.37 * 1.09
    ts = np.linspace(-length**2, 0.0, 5)
    for n in (7, 9):
        xs = np.linspace(-length, length, n)
        m = n - 2
        hess = rng.normal(size=(5, m, m, m, 18)) + np.linspace(0.0, 3.0, 5)[:, None, None, None, None]
        hess_valid = np.ones((5, m, m, m), bool)
        hess_valid[0] = False
        # the time derivative changes mostly from level to level, so its maximum
        # pairs two levels, where the time step in lattice units matters
        dt = np.arange(3.0)[:, None, None, None, None] + 0.01 * rng.normal(size=(3, n, n, n, 3))
        dt_valid = rng.random((3, n, n, n)) < 0.9
        for args in ((ts, xs[1:-1], hess, hess_valid), (ts[1:-1], xs, dt, dt_valid)):
            got = microscope._lattice_holder(*args, 0.5)
            assert got == _oracle_holder(*args, 0.5) > 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), nt=st.integers(1, 4), comps=st.integers(1, 20),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       length=st.floats(1e-3, 1e3), offset=st.sampled_from([0.0, 1.0, -3e4, 1e8]),
       keep=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_holder_property(n, nt, comps, alpha, length, offset, keep, seed):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-length, length, n)
    ts = np.linspace(-length**2, 0.0, nt)
    values = offset + rng.normal(size=(nt, n, n, n, comps))
    valid = rng.random((nt, n, n, n)) < keep
    valid.flat[seed % valid.size] = True
    got = microscope._lattice_holder(ts, xs, values, valid, alpha)
    assert got == _oracle_holder(ts, xs, values, valid, alpha)


def test_lattice_holder_needs_two_valid_samples():
    xs = np.linspace(-1.0, 1.0, 5)
    ts = np.linspace(-1.0, 0.0, 3)
    valid = np.zeros((3, 5, 5, 5), bool)
    valid[1, 2, 2, 2] = True
    values = np.ones((3, 5, 5, 5, 3))
    assert microscope._lattice_holder(ts, xs, values, valid, 0.5) == 0.0


def _assert_floors(ts, xs, values, valid, alpha):
    """_lattice_holder with a floor below, at and above the oracle is max(floor, oracle)."""
    oracle = _oracle_holder(ts, xs, values, valid, alpha)
    for floor in (0.0, oracle * (1 - 1e-9), np.nextafter(oracle, 0.0), oracle, oracle * (1 + 1e-9)):
        assert microscope._lattice_holder(ts, xs, values, valid, alpha, floor=floor) == \
            max(floor, oracle)


@pytest.mark.parametrize(
    "case", ["constant_valid_data", "large_common_offset", "two_pairs_tied", "subnormal_squares",
             "near_tie", "float32_near_tie", "clusters_far_from_centre",
             "float32_rounding_shrinks_the_maximum", "float32_flushed_components",
             "subnormal_squares_at_the_ceiling", "rounding_above_the_ceiling"])
def test_lattice_holder_floor_where_a_bound_can_mislead(case):
    _assert_floors(*_holder_case(case))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), nt=st.integers(1, 4), comps=st.integers(1, 20),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       length=st.floats(1e-3, 1e3), offset=st.sampled_from([0.0, 1.0, -3e4, 1e8]),
       keep=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_holder_floor_property(n, nt, comps, alpha, length, offset, keep, seed):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-length, length, n)
    ts = np.linspace(-length**2, 0.0, nt)
    values = offset + rng.normal(size=(nt, n, n, n, comps))
    valid = rng.random((nt, n, n, n)) < keep
    valid.flat[seed % valid.size] = True
    _assert_floors(ts, xs, values, valid, alpha)


def test_closeness_holder_equals_oracle_on_ring_cubes(grid32, ring_field, monkeypatch):
    # the Holder column is the larger of the two all-pairs oracles, of D2 and of
    # the time derivative, whether or not the time derivative's search ran: a
    # search builds the lattice weights, and a skipped one does not
    searches = []
    lattice_weights = microscope._lattice_weights

    def counted(*args):
        searches.append(args)
        return lattice_weights(*args)

    monkeypatch.setattr(microscope, "_lattice_weights", counted)
    fields = [ring_field.copy() for _ in range(3)]
    for k, fld in enumerate(fields):
        fld.vr *= 1.0 + 0.5 * k
        fld.vz *= 1.0 + 0.5 * k
    hist = _history(grid32, fields, [0.0, 0.1, 0.2])
    cfg = MicroscopeConfig(sigma0=8.0, cube_resolution=7)
    reports, skipped = 0, 0
    for mode in ("A", "B"):
        for zoom in find_almost_maximal(hist, mode, cfg.ratio_threshold):
            sample = rescale_history(hist, zoom, cfg)
            searches.clear()
            try:
                rep = constant_closeness(sample, cfg)
            except InsufficientSamplesError:
                continue
            reports += 1
            skipped += len(searches) == 1
            v, valid, alpha = sample.v, sample.valid, cfg.holder_alpha
            hx, ht = sample.xs[1] - sample.xs[0], sample.ts[1] - sample.ts[0]
            d2, d2_valid = microscope._stencils(v, valid, microscope._SECOND, hx**2)
            dt1 = (v[2:] - v[:-2]) / (2 * ht)
            dt1_valid = valid[2:] & valid[:-2] & valid[1:-1]
            oracles = (_oracle_holder(sample.ts, sample.xs[1:-1], d2, d2_valid, alpha),
                       _oracle_holder(sample.ts[1:-1], sample.xs, dt1, dt1_valid, alpha))
            assert rep.holder_seminorm == max(oracles) > 0.0
    assert reports >= 2
    assert skipped >= 1


# ---------------------------------------------------------------- report


def test_report_requires_two_snapshots(grid16):
    hist = _history(grid16, [_uniform_axial(grid16, 1.0)], [0.0])
    with pytest.raises(ValueError, match="two snapshots"):
        microscope_report(hist, MicroscopeConfig())


def test_report_zero_flow_is_empty(grid16):
    hist = _history(grid16, [AxisymField.zeros(grid16)] * 3, [0.0, 0.1, 0.2])
    assert microscope_report(hist, MicroscopeConfig()) == []


def test_report_sorted_by_alpha_descending(grid32, ring_field):
    fields = [ring_field.copy() for _ in range(3)]
    for k, fld in enumerate(fields):
        scale = 1.0 - 0.2 * k
        fld.vr *= scale
        fld.vtheta *= scale
        fld.vz *= scale
    hist = _history(grid32, fields, [0.0, 0.1, 0.2])
    rows = microscope_report(hist, MicroscopeConfig(sigma0=8.0))
    assert rows
    alphas = [row[0].alpha for row in rows]
    assert alphas == sorted(alphas, reverse=True)


# ------------------------------------------------------------------ dump


def test_write_cube_magic_and_size(tmp_path, grid32):
    sample, _ = _constant_sample(grid32, 1.0)
    path = tmp_path / "cube.bin"
    write_cube(path, sample)
    raw = path.read_bytes()
    assert raw[:4] == CUBE_MAGIC
    n = len(sample.xs)
    nt = len(sample.ts)
    expect = 4 + 4 + 8 * 8 + 8 * (n + nt + nt * n**3 * 3 + nt * n**3)
    assert len(raw) == expect


def test_failed_cube_write_leaves_previous_file(tmp_path, grid32):
    sample, _ = _constant_sample(grid32, 1.0)
    path = tmp_path / "cube_0000.bin"
    write_cube(path, sample)
    before = path.read_bytes()
    # the validity mask cannot be converted, so the write fails after the
    # velocity samples have gone out
    bad = dataclasses.replace(sample, v=np.zeros_like(sample.v),
                              valid=np.full(sample.valid.shape, "x"))
    with pytest.raises(ValueError):
        write_cube(path, bad)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
