"""Almost-maximal point detection, parabolic-cube zooming and closeness-to-constant.

Mode A tracks the running supremum of the speed |v|; mode B tracks the running
supremum of the scale-invariant quantity r|v|.  A candidate point is kept when
its value is at least ``ratio_threshold`` of the supremum over all earlier
times.  The zoom normalizes the center speed to one and samples the rescaled
Cartesian velocity on a normalized space-time cube; the closeness report
measures a discrete parabolic C^{2,1,alpha}-style distance to the center value.
"""
from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .fields import (
    AxisymField,
    SnapshotHistory,
    max_rspeed,
    max_speed,
    sample_cartesian,
    write_atomic,
)

CUBE_MAGIC = b"CUBE"
CUBE_VERSION = 1


class InsufficientSamplesError(ValueError):
    """Too few valid cube samples for the requested measurement."""


@dataclass
class MicroscopeConfig:
    epsilon: float = 0.25
    sigma0: float = 1.0
    holder_alpha: float = 0.5
    ratio_threshold: float = 0.25
    cube_resolution: int = 9
    cube_time_levels: int = 5

    def __post_init__(self):
        if self.epsilon <= 0 or self.sigma0 <= 0:
            raise ValueError("epsilon and sigma0 must be positive")
        if not (0 < self.holder_alpha < 1):
            raise ValueError(f"holder_alpha must lie in (0,1), got {self.holder_alpha}")
        if not (0 < self.ratio_threshold < 1):
            raise ValueError(f"ratio_threshold must lie in (0,1), got {self.ratio_threshold}")
        if self.cube_resolution < 5 or self.cube_resolution % 2 == 0:
            raise ValueError("cube_resolution must be odd and >= 5")
        if self.cube_time_levels < 3:
            raise ValueError("cube_time_levels must be >= 3")


@dataclass
class ZoomParameters:
    mode: str  # "A" | "B"
    t0: float
    r0: float
    z0: float
    q: float  # |v(x0, t0)|
    ratio: float  # maximality ratio against the running supremum

    @property
    def alpha(self) -> float:
        return self.r0 * self.q

    @property
    def beta(self) -> float:
        a = self.alpha
        return float(self.r0 / np.sqrt(a)) if a > 0 else 0.0

    @property
    def x0(self) -> np.ndarray:
        # azimuth fixed to zero; axisymmetry makes the choice immaterial
        return np.array([self.r0, 0.0, self.z0])


@dataclass
class CubeSample:
    zoom: ZoomParameters
    length: float  # normalized cube half-edge L
    xs: np.ndarray  # (n,) normalized spatial ticks
    ts: np.ndarray  # (nt,) normalized times in [-L^2, 0]
    v: np.ndarray  # (nt, n, n, n, 3) rescaled velocity samples
    valid: np.ndarray  # (nt, n, n, n) bool
    phys: np.ndarray  # (n, n, n, 3) physical spatial sample points
    capped: bool

    @property
    def masked_fraction(self) -> float:
        return float(1.0 - np.mean(self.valid))

    @property
    def center_value(self) -> np.ndarray:
        c = len(self.xs) // 2
        return self.v[-1, c, c, c]


@dataclass
class ClosenessReport:
    c_star: np.ndarray
    sup_dist: float
    grad_sup: float
    hess_sup: float
    dt_sup: float
    holder_seminorm: float
    swirl_ratio: float

    @property
    def total(self) -> float:
        return self.sup_dist + self.grad_sup + self.hess_sup + self.dt_sup + self.holder_seminorm


def find_almost_maximal(history: SnapshotHistory, mode: str,
                        ratio_threshold: float = 0.25) -> list[ZoomParameters]:
    """Candidate zoom points: per-snapshot argmax whose value is almost maximal.

    The supremum runs over all snapshots up to and including the candidate time.
    """
    if len(history) == 0:
        raise ValueError("empty history")
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    peak = max_speed if mode == "A" else max_rspeed
    out: list[ZoomParameters] = []
    running = 0.0
    for snap in history:
        val, (r0, z0) = peak(snap.field)
        # mode B's q is |v| at (r0, 0, z0), where the Cartesian components are (vr, vtheta, vz)
        q = val if mode == "A" else float(
            _norm(sample_cartesian([snap.field], [[r0, 0.0, z0]])[0][0, 0]))
        running = max(running, val)
        if val <= 0.0 or running <= 0.0:
            continue
        ratio = val / running
        if ratio >= ratio_threshold:
            out.append(ZoomParameters(mode=mode, t0=snap.t, r0=r0, z0=z0, q=q, ratio=ratio))
    return out


def rescale_history(history: SnapshotHistory, zoom: ZoomParameters,
                    config: MicroscopeConfig) -> CubeSample:
    """Sample the Q-rescaled velocity on the normalized parabolic cube.

    v_tilde(x~, t~) = v(x~/Q + x0, t~/Q^2 + t0) / Q, with the cube half-edge
    L = (sigma0 epsilon)^-1 capped at 0.5 Q r0 so the cube stays off-axis.
    """
    if zoom.q <= 0:
        raise ValueError("cannot rescale a zero-speed candidate")
    if len(history) == 0:
        raise ValueError("empty history")
    L = 1.0 / (config.sigma0 * config.epsilon)
    axis_cap = 0.5 * zoom.q * zoom.r0
    capped = 0 < axis_cap < L
    if capped:
        L = axis_cap

    n, nt = config.cube_resolution, config.cube_time_levels
    xs = np.linspace(-L, L, n)
    ts = np.linspace(-L * L, 0.0, nt)
    phys = np.empty((n, n, n, 3))  # the cube points, xs / q + x0[c] along axis c
    phys[..., 0], phys[..., 1], phys[..., 2] = np.ix_(*(xs / zoom.q + x for x in zoom.x0))

    # a time level inside the history reads the two snapshots that bracket it, the
    # later with its linear weight, or one snapshot at either end
    times = history.times
    levels = []  # (cube level, earlier snapshot, later snapshot or None, its weight)
    for k, t in enumerate(ts / zoom.q**2 + zoom.t0):
        if times[0] - 1e-12 <= t <= times[-1] + 1e-12:
            j = int(np.searchsorted(times, t))
            if 0 < j < len(times):
                levels.append((k, j - 1, j, (t - times[j - 1]) / (times[j] - times[j - 1])))
            else:
                levels.append((k, min(j, len(times) - 1), None, 0.0))
    reads = sorted({i for _, ia, ib, _ in levels for i in (ia, ib) if i is not None})

    v = np.zeros((nt, n, n, n, 3))
    valid = np.zeros((nt, n, n, n), bool)
    if reads:
        samples, inside = sample_cartesian([history.snapshots[i].field for i in reads],
                                           phys.reshape(-1, 3))
        at = dict(zip(reads, samples))
        for k, ia, ib, w in levels:
            va = at[ia]
            # incremental form: bitwise exact when both snapshots agree
            vk = va if ib is None else va + w * (at[ib] - va)
            v[k] = (vk / zoom.q).reshape(n, n, n, 3)
            valid[k] = inside.reshape(n, n, n)

    if not valid.any():
        raise InsufficientSamplesError("cube is fully masked (no history/domain coverage)")
    return CubeSample(zoom=zoom, length=L, xs=xs, ts=ts, v=v, valid=valid, phys=phys,
                      capped=capped)


def swirl_smallness(sample: CubeSample) -> float:
    """Maximum over valid samples of the rescaled swirl magnitude |v_tilde . e_theta|."""
    pts = sample.phys.reshape(-1, 3)
    r = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(r > 0, r, 1.0)
    et = np.stack([-pts[:, 1] / safe, pts[:, 0] / safe, np.zeros(len(pts))], axis=1)
    nt = sample.v.shape[0]
    sw = np.abs(np.einsum("kpc,pc->kp", sample.v.reshape(nt, -1, 3), et))
    return _sup(sw, sample.valid.reshape(nt, -1))


# relative slack of the Holder bound: it covers the float32 weights and ht/hx^2,
# the float32 product with the weights, the last-ulp spread of linspace ticks and
# the rounding of the exact formula and of the threshold in double precision
_BOUND_SLACK = 1e-6
_EPS32 = 2.0**-23  # the float32 machine epsilon
_INVALID = -(2.0**64)  # the squared norm that marks an invalid sample


@functools.lru_cache(maxsize=8)
def _lattice_weights(n: int, nt: int, rho: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """d^(-2 alpha) for the (n^3, n^3) sample pairs m < nt time levels apart, in
    lattice units (spatial step 1, time step rho), as float32, 0 where d = 0; and
    the (n^3, 3) lattice index of each sample."""
    ijk = np.indices((n, n, n)).reshape(3, -1)
    s = sum((g[:, None] - g[None, :]) ** 2 for g in ijk)
    w = np.zeros((nt, n**3, n**3), np.float32)
    for m in range(nt):
        d2 = np.maximum(s, m * rho)
        np.power(d2, -alpha, out=w[m], where=d2 > 0)
    ijk = ijk.T.copy()
    w.setflags(write=False)
    ijk.setflags(write=False)
    return w, ijk


def _float32_below(t: float) -> np.float32:
    """The largest float32 at most t if t >= 2^-100, else -1, which every bound of
    a pair of valid samples exceeds.  A float32 array compares with a Python
    float in float32, where t could round up."""
    if not t >= 2.0**-100:
        return np.float32(-1.0)
    t32 = np.float32(t)
    return np.nextafter(t32, np.float32(0.0)) if float(t32) > t else t32


def _norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) for real x, by the same floating-point operations."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _lattice_holder(ts: np.ndarray, xs: np.ndarray, values: np.ndarray,
                    valid: np.ndarray, alpha: float, floor: float = 0.0) -> float:
    """max(floor, max over pairs of valid samples of |values(a)-values(b)| / d_P(a,b)^alpha).

    The samples sit on the evenly spaced lattice (ts[l], xs[i], xs[j], xs[k]),
    n >= 2: ``values`` is (nt, n, n, n, C) and ``valid`` is (nt, n, n, n).  d_P
    is the parabolic distance max(|dx|, sqrt(|dt|)); pairs closer than 1e-12
    are skipped.  ``floor`` >= 0 is a value the caller already has, such as a
    seminorm of other data that enters the same maximum.

    For a positive floor, first a whole-field ceiling: every quotient is at most
    2 R / d^alpha, with R the largest distance of a valid value from the midrange
    m of the valid values (so |v_a - v_b| <= |v_a - m| + |v_b - m| <= 2 R), and d
    the smallest spacing of xs, or square root of a spacing of ts, but at least
    1e-12 (the rounded d_P of a pair counted is at least d up to rounding, as
    rounding is monotone).  The ceiling is widened by _BOUND_SLACK, which covers
    the relative rounding of R, of the exact formula and of the ceiling, about
    (C + 20) 2^-53, and by C^.5 2^-535: squares below 2^-1022 round to steps of
    2^-1074, which move R and a norm of the exact formula by at most
    (C 2^-1074)^.5 each.  If the ceiling is at most floor, the result is floor
    and no bound is formed.  A ceiling below 2^-1000, whose own rounding may be
    absolute, skips nothing.  The ceiling is positive, so a floor of 0 forms none.

    Otherwise bound, then verify, per pair of time levels, the latest levels
    first, from best = floor.  The values, centred on a valid sample and scaled
    by 2^-e to x with |x_c| < 1, are rounded to float32 values a.  With
    s = fl32(|a|^2 W + 2^-126) and
    W = 1 + 2 (C + 7) eps (eps = 2^-23), one float32 product of the rows
    [a, s, 1] and [-2a, 1, s] gives G >= |x_a - x_b|^2 for every pair of valid
    samples.  An invalid sample gets a = 0 and s = -2^64, so a pair that holds
    one bounds below -1, unless it is a sample with itself (d = 0).  Times the
    cached float32 weights (d / hx)^(-2 alpha), in float32, G gives the bound B.
    The threshold of a quotient q is T(q), the largest float32 at most
    t = (q 2^-e)^2 hx^(2 alpha) / (1 + _BOUND_SLACK), or -1 if t < 2^-100.  A
    level pair whose largest bound is at most T(best), best the largest quotient
    so far, is done after its argmax.  Otherwise its top pair is evaluated, and
    then every pair whose bound exceeds the new T(best), unless that top pair is
    the only one.  Evaluations use the floating-point operations of a direct
    evaluation of the two norms, so the result is exact, bit for bit.

    Why G >= |x_a - x_b|^2, for C <= 2^19 (u = 2^-24, eta = 2^-149; the error
    model of Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sections 2.1 and 3.1, with gradual underflow):

    1. Inputs.  Centring in double, scaling and the cast give |x_c - a_c| <=
       eps |a_c| + eta, where eta covers a component that the cast makes
       subnormal or zero.  So |x_a - x_b| <= |a - b| + eps (|a| + |b|) + 2 C^.5
       eta, and as |a - b| <= |a| + |b| <= 2 C^.5, |x_a - x_b|^2 <= |a - b|^2
       + (4 eps + 2 eps^2)(|a|^2 + |b|^2) + 8 (1 + eps) C eta + 4 C eta^2.
    2. Product.  The K = C + 2 products and their sum, in any order, with or
       without FMA, err by at most gamma_K (|a|^2 + |b|^2 + s_a + s_b) + K
       2^-150 (1 + gamma_K), gamma_K = K u / (1 - K u); -2a is exact.  So G >=
       |a - b|^2 + sum over a and b of [s_a (1 - gamma_K) - |a|^2 (1 + gamma_K)]
       - K 2^-150 (1 + gamma_K).
    3. Widening.  |a|^2 has every square exact in double, and s, at least
       2^-126 up to rounding, rounds in relative terms, so s >= (|a|^2 W +
       2^-126)(1 - u)(1 - C 2^-52).  The factor of |a|^2 in 2. then exceeds
       1 + gamma_K + 4 eps + 2 eps^2: to first order that needs W - 1 >=
       (C + 6.5) eps, and 2 (C + 7) eps leaves (C + 7.5) eps for the
       higher-order terms.  The 2^-126 in s_a and s_b covers the absolute
       terms of 1. and 2., which sum to less than (C + 1) 2^-145.

    Why no pair with q > best is missed, for lattices whose weights with d > 0
    lie in [2^-60, 2^60] (the cubes of constant_closeness have ht / hx^2 =
    (n - 1)^2 / (4 (nt - 1))): as G >= |x_a - x_b|^2, B is at least
    q^2 2^(-2e) hx^(2 alpha) up to relative errors below 2e-7 in all (float32
    weights and ht/hx^2, the float32 product, linspace ticks, the exact
    formula, t in double), which _BOUND_SLACK covers.  So if t >= 2^-100, G w
    > t is a normal float32, and B > t >= T(best).  That needs the exact
    formula to round in relative terms, which it does unless its sum of
    squares is below 2^-1000; for e > -400 such a pair has q so small that
    t < 2^-100 for every best below q.  When t < 2^-100, and always for
    e <= -400, T is -1 and every valid pair is evaluated.
    """
    nt, n = valid.shape[:2]
    size = n**3
    f = values.reshape(nt, size, -1)
    ok = valid.reshape(nt, size)
    if np.count_nonzero(ok) < 2:
        return floor
    if floor > 0:
        fv = f[ok].T.copy()  # (C, valid samples): each reduction runs along a row
        mid = (fv.max(axis=1) + fv.min(axis=1)) / 2
        radius = np.sqrt(((fv - mid[:, None]) ** 2).sum(axis=0).max())
        spacing = np.diff(np.sort(xs)).min()
        if nt > 1:
            spacing = min(spacing, np.sqrt(np.diff(np.sort(ts)).min()))
        ceiling = ((2 * radius + np.sqrt(len(fv)) * 2.0**-535) * (1 + _BOUND_SLACK)
                   / max(spacing, 1e-12) ** alpha)
        if floor >= ceiling > 2.0**-1000:
            return floor

    hx, ht = (xs[-1] - xs[0]) / (n - 1), (ts[-1] - ts[0]) / max(nt - 1, 1)
    weights, ijk = _lattice_weights(n, nt, float(np.float32(ht / hx**2)), alpha)
    coords = xs[ijk]
    g = np.where(ok[..., None], f - f.reshape(nt * size, -1)[ok.argmax()], 0.0)
    span = np.abs(g).max()
    if span == 0.0:  # no two valid samples differ
        return floor
    e = np.frexp(span)[1]
    a = np.ldexp(g, -e).astype(np.float32)
    a64 = a.astype(float)
    widen = 1 + 2 * (a.shape[-1] + 7) * _EPS32
    sq = np.where(ok, np.einsum("lpc,lpc->lp", a64, a64) * widen + 2.0**-126, _INVALID)
    sq = sq.astype(np.float32)[..., None]
    one = np.ones_like(sq)
    lhs = np.concatenate([a, sq, one], axis=-1)
    rhs = np.concatenate([-2 * a, one, sq], axis=-1).transpose(0, 2, 1).copy()
    scale = hx ** (2 * alpha) / (1 + _BOUND_SLACK) if e > -400 else 0.0

    def exact(la: int, lb: int, pairs: np.ndarray) -> float:
        a, b = np.divmod(pairs, size)
        d = np.maximum(_norm(coords[a] - coords[b]), np.sqrt(np.abs(ts[la] - ts[lb])))
        dv = _norm(f[la, a] - f[lb, b])
        keep = d > 1e-12
        return float((dv[keep] / d[keep] ** alpha).max()) if keep.any() else 0.0

    best = floor
    thr = _float32_below(np.ldexp(best, -e) ** 2 * scale)
    bound = np.empty((size, size), np.float32)
    levels = np.flatnonzero(ok.any(axis=1))[::-1]
    for i, lb in enumerate(levels):
        for la in levels[i:]:
            np.matmul(lhs[la], rhs[lb], out=bound)
            np.multiply(bound, weights[lb - la], out=bound)
            top = bound.argmax()
            if bound.flat[top] <= thr:
                continue
            best = max(best, exact(la, lb, np.array([top])))
            thr = _float32_below(np.ldexp(best, -e) ** 2 * scale)
            pairs = np.flatnonzero(bound > thr)
            if len(pairs) == 1 and pairs[0] == top:  # the top pair, just evaluated
                continue
            for k in range(0, len(pairs), 4096):
                best = max(best, exact(la, lb, pairs[k:k + 4096]))
            thr = _float32_below(np.ldexp(best, -e) ** 2 * scale)
    return best


def _sup(x: np.ndarray, ok: np.ndarray) -> float:
    """The maximum of the non-negative x where ok holds, 0 where it holds nowhere."""
    return float(x[ok].max(initial=0.0))


def _table(rows: list) -> tuple[list, list]:
    """Stencil rows of (divisor, (lattice offset, weight) terms) with each offset as the
    index of the spatial interior (axes 1-3) shifted by it; the index of each read."""
    def at(o):
        return (slice(None),) + tuple(slice(1 + k, k - 1 or None) for k in o)
    reads = {tuple(o) for _, terms in rows for o, _ in terms} | {(0, 0, 0)}
    return [(d, [(at(o), w) for o, w in terms]) for d, terms in rows], [at(o) for o in sorted(reads)]


# centred difference stencils on the spatial interior: rows of a divisor, in units
# of the spacing's power, and (lattice offset, weight) terms, the first of weight 1
_E = np.eye(3, dtype=int)
_FIRST = _table([(2, ((e, 1), (-e, -1))) for e in _E])
_SECOND = _table([(1, ((e, 1), (0 * e, -2), (-e, 1))) for e in _E]
                 + [(4, ((a + b, 1), (a - b, -1), (b - a, -1), (-a - b, 1)))
                    for a, b in itertools.combinations(_E, 2)])


def _stencils(v: np.ndarray, valid: np.ndarray, table, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The stencils of ``table`` on v (first term, then + w * term, or - term if w = -1,
    over divisor * h) on a new last axis, and where their centre and reads are valid."""
    rows, reads = table
    d = np.empty(v[reads[0]].shape + (len(rows),))
    for r, (divisor, ((first, _), *rest)) in enumerate(rows):
        x, into = v[first], None
        for at, w in rest:
            op = np.subtract if w == -1 else np.add
            x = into = op(x, v[at] if abs(w) == 1 else w * v[at], out=into)
        np.divide(x, divisor * h, out=d[..., r])
    return d, np.logical_and.reduce([valid[at] for at in reads])


def constant_closeness(sample: CubeSample, config: MicroscopeConfig) -> ClosenessReport:
    """Discrete parabolic closeness of the cube samples to the center constant."""
    n_valid_axis = sample.valid.any(axis=(0, 2, 3)).sum()
    n_valid_t = sample.valid.any(axis=(1, 2, 3)).sum()
    if n_valid_axis < 5 or n_valid_t < 3:
        raise InsufficientSamplesError(
            f"need >=5 valid points per spatial axis and >=3 time levels, "
            f"have {n_valid_axis} and {n_valid_t}"
        )
    v, valid, c_star = sample.v, sample.valid, sample.center_value.copy()
    hx, ht = sample.xs[1] - sample.xs[0], sample.ts[1] - sample.ts[0]

    # first and second spatial derivatives: (nt, n-2, n-2, n-2, 3 components, 3 or 6)
    d1, d1_valid = _stencils(v, valid, _FIRST, hx)
    d2, d2_valid = _stencils(v, valid, _SECOND, hx**2)
    # first time derivative (centered over time levels)
    dt1 = (v[2:] - v[:-2]) / (2 * ht)
    dt1_valid = valid[2:] & valid[:-2] & valid[1:-1]

    # parabolic Holder quotients of D2 and of the time derivative; the time
    # derivative's seminorm is mostly the smaller, so its search starts from
    # D2's and is skipped when its ceiling cannot beat it
    alpha = config.holder_alpha
    holder = _lattice_holder(sample.ts[1:-1], sample.xs, dt1, dt1_valid, alpha,
                             floor=_lattice_holder(sample.ts, sample.xs[1:-1], d2, d2_valid, alpha))

    return ClosenessReport(
        c_star=c_star,
        sup_dist=_sup(_norm(v - c_star), valid),
        grad_sup=_sup(np.sqrt((d1**2).sum(axis=(-2, -1))), d1_valid),
        hess_sup=_sup(np.sqrt((d2**2).sum(axis=(-2, -1))), d2_valid),
        dt_sup=_sup(_norm(dt1), dt1_valid),
        holder_seminorm=holder,
        swirl_ratio=swirl_smallness(sample),
    )


def microscope_report(history: SnapshotHistory,
                      config: MicroscopeConfig) -> list[tuple[ZoomParameters, CubeSample, ClosenessReport]]:
    """Find, zoom and measure candidates in both modes; sorted by alpha descending."""
    if len(history) < 2:
        raise ValueError("history needs at least two snapshots for a space-time cube")
    rows = []
    for mode in ("A", "B"):
        for zoom in find_almost_maximal(history, mode, config.ratio_threshold):
            try:
                sample = rescale_history(history, zoom, config)
                report = constant_closeness(sample, config)
            except InsufficientSamplesError:
                continue
            rows.append((zoom, sample, report))
    rows.sort(key=lambda row: -row[0].alpha)
    return rows


def write_cube(path, sample: CubeSample) -> None:
    """Binary dump of a cube sample (CUBE magic variant of the snapshot format),
    written atomically like a snapshot."""
    z = sample.zoom
    n = len(sample.xs)
    nt = len(sample.ts)
    header = CUBE_MAGIC + struct.pack(
        "<I8d", CUBE_VERSION, float(n), float(nt), sample.length,
        z.t0, z.q, z.r0, z.z0, 1.0 if sample.capped else 0.0,
    )
    write_atomic(path, header, (sample.xs, sample.ts, sample.v, sample.valid))
