"""Tests for initial-data generators and the analytic swirl profile."""
import numpy as np
import pytest

from axiswirl.checks import check_n0_bounds
from axiswirl.fields import Grid
from axiswirl.initial import (
    DataSpec,
    generate,
    lamb_oseen_field,
    lamb_oseen_profile,
    n0_norms,
    stream_random,
    vortex_ring_swirl,
)
from axiswirl.solver import build_divergence_matrix, divergence

from conftest import lamb_oseen_peak


def test_dataspec_rejects_bad_n0():
    with pytest.raises(ValueError, match="n0"):
        DataSpec(n0=0.0)
    with pytest.raises(ValueError, match="n0"):
        DataSpec(n0=-1.0)


def test_dataspec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        DataSpec(kind="taylor_green")


@pytest.mark.parametrize("seed", range(4))
def test_lamb_oseen_profile_taylor_limit(seed):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.5, 2.0)
    # the profile depends on the viscosity only through nu t: a random nu in
    # [0.5, 2] at t in [0.2, 1] is a unit-viscosity t in [0.1, 2]
    t = rng.uniform(0.5, 2.0) * rng.uniform(0.2, 1.0)
    r = np.array([0.0, 1e-12, 1e-9])
    v = lamb_oseen_profile(r, gamma, t)
    # small-r expansion: v = Gamma r / (8 pi t)
    expect = gamma * r / (8 * np.pi * t)
    assert np.allclose(v, expect, rtol=1e-6, atol=0.0)
    assert v[0] == 0.0


def test_lamb_oseen_profile_far_field_circulation():
    # nu = 0.7 at t = 0.4: the profile reads only nu t
    gamma, t = 1.3, 0.7 * 0.4
    r = np.array([30.0, 50.0])
    v = lamb_oseen_profile(r, gamma, t)
    # far from the core the flow carries the full circulation: r v -> Gamma/(2 pi)
    assert np.allclose(r * v, gamma / (2 * np.pi), rtol=1e-10)


def test_lamb_oseen_profile_continuous_at_switch():
    # compare the slope v/r across the Taylor-branch switch at r = 1e-8
    r = np.array([0.99e-8, 1.01e-8])
    v = lamb_oseen_profile(r, 1.0, 0.5)
    slope = v / r
    assert abs(slope[0] - slope[1]) < 1e-9 * slope[1]


def test_lamb_oseen_field_rejects_nonpositive_time():
    # the data section rejects the time, before any field is sampled
    with pytest.raises(ValueError, match="t_offset"):
        DataSpec(kind="lamb_oseen", t_offset=0.0)


def test_lamb_oseen_field_is_pure_swirl_and_z_independent():
    g = Grid(24, 24, 4.0, -2.0, 2.0)
    fld = lamb_oseen_field(1.0, 0.5, g)
    assert np.all(fld.vr == 0.0)
    assert np.all(fld.vz == 0.0)
    assert np.all(fld.vtheta == fld.vtheta[:, :1])


def test_lamb_oseen_peak_matches_bruteforce_scan():
    gamma, t = 1.0, 0.5
    peak, r_peak = lamb_oseen_peak(gamma, t)
    # independent oracle: the maximiser of (1-exp(-x^2))/x solves
    # (1 + 2 x^2) exp(-x^2) = 1 with x = r / sqrt(4 t); bisection
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (1 + 2 * mid**2) * np.exp(-(mid**2)) > 1.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    r_star = x * np.sqrt(4 * t)
    assert abs(r_peak - r_star) < 1e-3
    assert abs(peak - lamb_oseen_profile(np.array([r_star]), gamma, t)[0]) < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_vortex_ring_bounds_hold_by_construction(seed):
    rng = np.random.default_rng(seed)
    n0 = rng.uniform(0.3, 3.0)
    g = Grid(32, 32, 4.0, -4.0, 4.0)
    spec = DataSpec(kind="vortex_ring_swirl", n0=n0,
                    swirl_amplitude=rng.uniform(0.1, 1.0))
    fld = vortex_ring_swirl(spec, g)
    rep = check_n0_bounds(fld, n0)
    assert rep["pass"]
    # the rescaling saturates the tightest of the three bounds
    assert max(rep["sup"], rep["l2"], rep["rsup"]) == pytest.approx(n0, rel=1e-12)


def test_vortex_ring_rejects_fat_core():
    g = Grid(16, 16, 4.0, -2.0, 2.0)
    with pytest.raises(ValueError, match="core"):
        vortex_ring_swirl(DataSpec(kind="vortex_ring_swirl", ring_r=1.0, core_radius=0.4), g)


def test_vortex_ring_divergence_refines_second_order():
    # analytic stream-function field: discrete divergence is pure truncation error
    norms = []
    for n in (32, 64):
        g = Grid(n, n, 4.0, -4.0, 4.0)
        fld = vortex_ring_swirl(DataSpec(kind="vortex_ring_swirl"), g)
        norms.append(float(np.abs(divergence(build_divergence_matrix(g), fld)).max()))
    assert 3.0 < norms[0] / norms[1] < 5.0


def test_vortex_ring_deterministic():
    g = Grid(24, 24, 4.0, -3.0, 3.0)
    a = vortex_ring_swirl(DataSpec(kind="vortex_ring_swirl"), g)
    b = vortex_ring_swirl(DataSpec(kind="vortex_ring_swirl"), g)
    assert np.array_equal(a.vr, b.vr)
    assert np.array_equal(a.vtheta, b.vtheta)
    assert np.array_equal(a.vz, b.vz)


@pytest.mark.parametrize("seed", range(4))
def test_stream_random_deterministic_and_bounded(seed):
    g = Grid(24, 24, 4.0, -3.0, 3.0)
    spec = DataSpec(kind="stream_random", seed=seed, n0=0.8)
    a = stream_random(spec, g)
    b = stream_random(spec, g)
    assert np.array_equal(a.vr, b.vr)
    assert np.array_equal(a.vtheta, b.vtheta)
    assert np.array_equal(a.vz, b.vz)
    assert check_n0_bounds(a, 0.8)["pass"]


def test_stream_random_seeds_differ():
    g = Grid(24, 24, 4.0, -3.0, 3.0)
    a = stream_random(DataSpec(kind="stream_random", seed=1), g)
    b = stream_random(DataSpec(kind="stream_random", seed=2), g)
    assert not np.array_equal(a.vtheta, b.vtheta)


def test_n0_norms_rigid_rotation_oracle():
    # vtheta = r on r in [0,1]: sup=1, r sup=1, and the weighted L2 integral
    # of r^2 over the cylinder is 2 pi * H * r_max^4 / 4
    g = Grid(64, 16, 1.0, 0.0, 1.0)
    from axiswirl.fields import AxisymField
    fld = AxisymField.zeros(g)
    fld.vtheta = g.r[:, None] * np.ones(g.shape)
    sup, l2, rsup = n0_norms(fld)
    assert sup == pytest.approx(1.0)
    assert rsup == pytest.approx(1.0)
    assert l2 == pytest.approx(np.sqrt(2 * np.pi * 1.0 / 4.0), rel=1e-3)


def test_generate_dispatches_by_kind():
    g = Grid(16, 16, 4.0, -2.0, 2.0)
    lo = generate(DataSpec(kind="lamb_oseen", t_offset=0.5), g)
    assert np.all(lo.vr == 0.0)
    ring = generate(DataSpec(kind="vortex_ring_swirl"), g)
    assert np.abs(ring.vr).max() > 0.0
    rnd = generate(DataSpec(kind="stream_random", seed=3), g)
    assert np.abs(rnd.vr).max() > 0.0
    assert not np.array_equal(ring.vz, rnd.vz)
