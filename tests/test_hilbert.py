import math

import numpy as np
import pytest

from convexcusp import hilbert as hb, projlin as pl
from convexcusp.cusplie import LieAlgElem, group_exp
from convexcusp.domains import BallDomain, DomainD0, DomainDPrime, DomainDt, UnboundedSearchError, VerticalShiftDomain, vt_map
import reference_oracles as ro

BALL = BallDomain()
DP = DomainDPrime()
FAST_Q = hb.QuadratureSpec(sphere_nodes=578)
GRID_Q = hb.QuadratureSpec(sphere_nodes=288)


# ---------------------------------------------------------------------------
# cross ratio


def test_cross_ratio_on_the_line():
    assert abs(ro.cross_ratio(-1.0, 0.0, 0.5, 1.0) - 3.0) < 1e-14


def test_cross_ratio_coincident_middle():
    assert ro.cross_ratio(-1.0, 0.3, 0.3, 1.0) == 1.0


def test_cross_ratio_ideal_endpoint():
    assert abs(ro.cross_ratio(0.0, 1.0, 2.0, None) - 2.0) < 1e-14


def test_cross_ratio_rejects_non_collinear():
    with pytest.raises(ValueError):
        ro.cross_ratio([0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 0, 0])


# ---------------------------------------------------------------------------
# distance


def test_distance_of_equal_points():
    assert hb.hilbert_distance(DP, [2, 1, 0], [2, 1, 0]) == 0.0


@pytest.mark.parametrize("r", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_ball_distance_doubles_hyperbolic(r):
    d = hb.hilbert_distance(BALL, [0, 0, 0], [r, 0, 0])
    assert abs(d - 2 * math.atanh(r)) <= 1e-9


def test_ball_center_half_radius_log3():
    assert abs(hb.hilbert_distance(BALL, [0, 0, 0], [0.5, 0, 0]) - math.log(3)) <= 1e-9


def test_log_domain_vertical_distance():
    # lower chord end at the boundary height 0, upper end ideal
    d = hb.hilbert_distance(DP, [2, 1, 0], [3, 1, 0])
    assert abs(d - math.log(1.5)) <= 1e-10


def test_ball_distance_matches_klein_model_off_axis():
    # fully independent oracle: twice the Klein-model hyperbolic distance
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.uniform(-0.5, 0.5, 3)
        num = 1 - np.dot(x, y)
        den = math.sqrt((1 - np.dot(x, x)) * (1 - np.dot(y, y)))
        expected = 2 * math.acosh(num / den)
        assert abs(hb.hilbert_distance(BALL, x, y) - expected) <= 1e-10


def test_ball_norms_off_center():
    r = 0.4
    assert hb.finsler_norm(BALL, [r, 0, 0], [1, 0, 0]) == pytest.approx(2 / (1 - r * r), abs=1e-9)
    assert hb.finsler_norm(BALL, [r, 0, 0], [0, 1, 0]) == pytest.approx(2 / math.sqrt(1 - r * r), abs=1e-9)


def test_distance_rejects_exterior_ends():
    # an exterior end raises instead of giving nan
    with pytest.raises(ValueError):
        hb.hilbert_distance(DP, (2.0, 1.0, 0.0), (-5.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        hb.hilbert_distance(DP, (-5.0, 1.0, 0.0), (2.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        hb.hilbert_distance_pairs(BALL, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], [[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        hb.hilbert_distance_pairs(BALL, [[1.5, 0.0, 0.0]], [[0.5, 0.0, 0.0]])


EXTERIOR_CASES = {
    "Ball": (BALL, [0.3, -0.2, 0.1], [1.2, 0.0, 0.0]),
    "D0": (DomainD0(), [2.0, 0.5, -0.7], [0.1, 1.0, 0.0]),
    "DPrime": (DP, [2.0, 1.0, 0.0], [-5.0, 1.0, 0.0]),
    "Dt": (DomainDt(0.5), [10.0, 1.0, 0.0], [-10.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("name", list(EXTERIOR_CASES))
def test_non_interior_points_raise_value_error(name):
    # each point is tested once, and a point outside raises ValueError
    # from densities and distances, one point or a batch, in any place
    dom, inside, outside = EXTERIOR_CASES[name]
    batch = [inside, inside, outside]
    with pytest.raises(ValueError):
        hb.busemann_density(dom, np.array(outside), FAST_Q)
    with pytest.raises(ValueError):
        hb.busemann_density(dom, np.array(batch), FAST_Q, check=False)
    with pytest.raises(ValueError):
        hb.hilbert_distance(dom, inside, outside)
    with pytest.raises(ValueError):
        hb.hilbert_distance(dom, outside, inside)
    with pytest.raises(ValueError):
        hb.hilbert_distance_pairs(dom, batch, batch[::-1])
    with pytest.raises(ValueError):
        hb.hilbert_distance_pairs(dom, batch[::-1], inside)


@pytest.mark.parametrize("name", list(EXTERIOR_CASES))
def test_non_finite_density_points_raise_as_chords_do(name):
    # the density's frame solve makes the chord check: a nan or inf
    # coordinate is UnboundedSearchError, as for every chord and distance
    dom, inside, _ = EXTERIOR_CASES[name]
    for bad in (np.nan, np.inf):
        with pytest.raises(UnboundedSearchError):
            hb.busemann_density(dom, np.array([bad, inside[1], inside[2]]), FAST_Q)
        with pytest.raises(UnboundedSearchError):
            hb.hilbert_distance(dom, inside, [bad, inside[1], inside[2]])


def test_distance_symmetry():
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(1, 4, 1000), rng.uniform(0.5, 2, 1000), rng.uniform(-1, 1, 1000)])
    Y = np.column_stack([rng.uniform(1, 4, 1000), rng.uniform(0.5, 2, 1000), rng.uniform(-1, 1, 1000)])
    d1 = hb.hilbert_distance_pairs(DP, X, Y)
    d2 = hb.hilbert_distance_pairs(DP, Y, X)
    assert np.max(np.abs(d1 - d2)) <= 1e-10


def test_triangle_inequality():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(1, 4, 3000), rng.uniform(0.5, 2, 3000), rng.uniform(-1, 1, 3000)])
    X, Y, Z = pts[:1000], pts[1000:2000], pts[2000:]
    dxy = hb.hilbert_distance_pairs(DP, X, Y)
    dyz = hb.hilbert_distance_pairs(DP, Y, Z)
    dxz = hb.hilbert_distance_pairs(DP, X, Z)
    assert np.all(dxy + dyz - dxz >= -1e-9)


def test_projective_invariance():
    rng = np.random.default_rng(2)
    maps = [pl.to_float(group_exp(LieAlgElem("LPrime", (a, b)))) for a, b in ((0.5, 0.0), (0.0, 0.8), (-0.4, 0.3))]
    for _ in range(20):
        x = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        d = hb.hilbert_distance(DP, x, y)
        for g in maps:
            gx = pl.apply_affine_batch(g, x[None])[0]
            gy = pl.apply_affine_batch(g, y[None])[0]
            assert abs(hb.hilbert_distance(DP, gx, gy) - d) <= 1e-9 * max(1.0, d)
    t = 0.5
    dt = DomainDt(t)
    V = pl.to_float(vt_map(t))
    for _ in range(10):
        x = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        d = hb.hilbert_distance(DP, x, y)
        dv = hb.hilbert_distance(dt, pl.apply_affine_batch(V, x[None])[0], pl.apply_affine_batch(V, y[None])[0])
        assert abs(dv - d) <= 1e-9 * max(1.0, d)


def test_nested_domain_comparison():
    # a strictly larger domain shrinks distances
    bigger = VerticalShiftDomain(DP, -0.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(1.5, 3), rng.uniform(0.6, 2), rng.uniform(-0.8, 0.8)])
        assert hb.hilbert_distance(bigger, x, y) <= hb.hilbert_distance(DP, x, y) + 1e-12


# ---------------------------------------------------------------------------
# Finsler norm


def test_norm_of_zero_vector():
    assert hb.finsler_norm(DP, [2, 1, 0], [0, 0, 0]) == 0.0


def test_norm_vertical_closed_form():
    assert abs(hb.finsler_norm(DP, [2, 1, 0], [1, 0, 0]) - 0.5) <= 1e-9


def test_norm_symmetric_closed_form():
    assert abs(hb.finsler_norm(DP, [2, 1, 0], [0, 0, 1]) - 1.0) <= 1e-9


def test_norm_is_derivative_of_distance():
    # symmetric difference through x: chords are geodesics, so
    # d(x - hv, x + hv)/(2h) has only even-order error in h
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(100):
        x = np.array([rng.uniform(1.5, 4), rng.uniform(0.5, 2), rng.uniform(-0.6, 0.6)])
        v = rng.normal(size=3)
        norm = hb.finsler_norm(DP, x, v)
        fd = hb.hilbert_distance(DP, x - h * v, x + h * v) / (2 * h)
        assert abs(fd - norm) <= 1e-6 * max(1.0, norm)


# ---------------------------------------------------------------------------
# unit balls and density


@pytest.mark.parametrize("n", [8, 32, 128, 578, 2312])
def test_sphere_quadrature_is_two_antipodal_halves(n):
    # [H; -H] with equal weights; 578 nodes (17 x 34) put a row on the equator
    U, W = hb.sphere_quadrature(n)
    h = len(U) // 2
    assert len(U) == 2 * h == 2 * round(math.sqrt(n / 2.0)) ** 2
    assert np.array_equal(U[h:], -U[:h]) and np.array_equal(W[h:], W[:h])
    assert (U[:h, 0] >= 0).all() and len(np.unique(U, axis=0)) == len(U)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=0, atol=1e-15)
    assert math.isclose(W.sum(), 4 * math.pi, rel_tol=1e-14)
    assert math.isclose(np.sum(W * U[:, 0] ** 2), 4 * math.pi / 3, rel_tol=1e-14)


def _full_sphere_density(dom, x, n):
    """The density from every node of the sphere quadrature, -H included,
    rescaled in the domain's quadrature frame."""
    U, W = hb.sphere_quadrature(n)
    frame = dom.quadrature_frames(np.asarray(x, dtype=float)[None, :])[0]
    radii = 1.0 / hb.finsler_norm_batch(dom, x, frame)
    r3 = (1.0 / hb.finsler_norm_batch(dom, x, (U * radii) @ frame)) ** 3
    return hb.ALPHA3 / (np.prod(radii) * np.sum(W * r3) / 3.0)


HEMISPHERE_CASES = {
    "Ball": (BALL, [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-0.5, 0.4, 0.2]]),
    "D0": (DomainD0(), [[1.0, 0.0, 0.0], [2.0, 0.5, -0.7], [0.3, 0.6, 0.2]]),
    "DPrime": (DP, [[2.0, 1.0, 0.0], [1.0, 1.5, 0.4], [6.0, 2.5, 1.0]]),
    "Dt(0.2)": (DomainDt(0.2), [[1.0, 0.0, 0.0], [3.0, 1.5, -0.5], [0.5, -0.8, 0.3]]),
    "Dt(2)": (DomainDt(2.0), [[1.0, 0.0, 0.0], [2.0, 1.5, -0.5], [0.6, -0.3, 0.4]]),
    "DPrime + 1": (VerticalShiftDomain(DP, 1.0), [[3.0, 1.0, 0.0], [2.5, 1.5, 0.4], [7.0, 2.5, 1.0]]),
}


@pytest.mark.parametrize("name", list(HEMISPHERE_CASES))
@pytest.mark.parametrize("n", [128, 578, 2312])
def test_hemisphere_density_matches_full_sphere(name, n):
    # one line per orbit against every node; 128 and 2312 nodes have an
    # even polar count, 578 (17 x 34) an odd one, with a ring of lines on
    # the equator that the reflection pairs among themselves.  On the
    # quadrics (Ball, D0) the density is the closed form of the frame
    # radii, which every node of the quadrature reproduces
    dom, pts = HEMISPHERE_CASES[name]
    pts = np.array(pts)
    assert dom.contains_batch(pts).all()
    rho = hb.busemann_density(dom, pts, hb.QuadratureSpec(sphere_nodes=n), check=False)
    full = np.array([_full_sphere_density(dom, x, n) for x in pts])
    assert np.allclose(rho, full, rtol=1e-13, atol=0)


REFLECTION_DOMAINS = {
    "Ball": BALL,
    "D0": DomainD0(),
    "D0 horoball": VerticalShiftDomain(DomainD0(), 0.7),
    "DPrime": DP,
    "Dt(0.2)": DomainDt(0.2),
    "Dt(2)": DomainDt(2.0),
    "Dt(-0.3)": DomainDt(-0.3),
    "horoball": VerticalShiftDomain(DP, 0.7),
}


def _reflections_at(dom, x, frame):
    """Linear parts (as matrices acting on columns) of involutions of the
    domain fixing x, each with the signs it must put on the frame's rows."""
    if dom is BALL:
        # the reflection in the plane of x and f2, which f1 spans with f2
        n = np.cross(frame[0], frame[1])
        return [(np.eye(3) - 2.0 * np.outer(n, n) / (n @ n), [1, 1, -1])]
    # x3 -> -x3, and at t = 0 x2 -> -x2, followed by a translation of D0
    # or LPrime carrying x back to itself
    out = [(np.array([[1.0, 0.0, -2.0 * x[2]], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]), [1, 1, -1])]
    if dom.t == 0:
        out.append((np.array([[1.0, -2.0 * x[1], 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]), [1, -1, 1]))
    return out


@pytest.mark.parametrize("name", list(REFLECTION_DOMAINS))
def test_norm_is_invariant_under_the_reflection_at_x(name):
    # every involution negates the frame row its signs name, keeps the
    # others and leaves the norm at x unchanged; the one that negates f3
    # is the symmetry ``line_quadrature`` relies on
    dom = REFLECTION_DOMAINS[name]
    rng = np.random.default_rng(61)
    if dom is BALL:
        U = rng.normal(size=(8, 3))
        pts = (1.0 - 10 ** rng.uniform(-3, 0, (8, 1))) * U / np.linalg.norm(U, axis=1)[:, None]
        pts[0] = 0.0
    else:
        lo2, hi2 = (0.2, 3.0) if dom.t > 0 else (-3.0, 3.0) if dom.t == 0 else (-3.0, 0.9 / -dom.t)
        b2, b3 = rng.uniform(lo2, hi2, 8), rng.uniform(-1.5, 1.5, 8)
        pts = np.column_stack([dom.boundary_value_batch(b2, b3) + 10 ** rng.uniform(-0.5, 1, 8), b2, b3])
    assert dom.contains_batch(pts).all()
    frames = dom.quadrature_frames(pts)
    assert np.allclose(np.abs(np.linalg.det(frames)), 1.0, rtol=0, atol=1e-15)
    # the ball's frames are orthonormal to rounding, the others exact
    tol = 1e-15 if dom is BALL else 0.0
    for x, frame in zip(pts, frames):
        for L, signs in _reflections_at(dom, x, frame):
            assert np.allclose(frame @ L.T, frame * np.array(signs)[:, None], rtol=0, atol=tol)
            V = rng.normal(size=(500, 3))
            F, FL = hb.finsler_norm_batch(dom, x, V), hb.finsler_norm_batch(dom, x, V @ L.T)
            assert np.all(np.abs(FL - F) <= 1e-13 * F)


@pytest.mark.parametrize("n", [128, 2312])
def test_dprime_density_is_lprime_equivariant(n):
    # every LPrime element g carries the quadrature frame at x onto the
    # one at g x, so rho(g x) = e^-a rho(x) holds to rounding, not only
    # to the quadrature's error
    pts = np.array([[2.0, 1.3, 0.7], [1.0, 0.6, -0.4], [5.0, 2.0, 1.2]])
    q = hb.QuadratureSpec(sphere_nodes=n)
    rho = hb.busemann_density(DP, pts, q, check=False)
    for a, b in ((0.4, -0.6), (-1.1, 2.0), (0.0, 1.5), (2.3, 0.0)):
        g = pl.to_float(group_exp(LieAlgElem("LPrime", (a, b))))
        rho_g = hb.busemann_density(DP, pl.apply_affine_batch(g, pts), q, check=False)
        assert np.allclose(rho_g, math.exp(-a) * rho, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [8, 32, 128, 578, 2312])
def test_line_quadrature_orbits_cover_the_sphere(n):
    # the images of each node under -1 and the reflection u2 -> -u2 are
    # nodes of the sphere quadrature, and together they cover it once,
    # each node carrying its orbit's weight over the orbit's size
    U, W = hb.sphere_quadrature(n)
    seen = []
    for u, w in zip(*hb.line_quadrature(n)):
        images = np.array([u, -u, u * [1, 1, -1], u * [-1, -1, 1]])
        hits = [int(np.argmin(np.linalg.norm(U - v, axis=1))) for v in images]
        assert np.allclose(U[hits], images, rtol=0, atol=1e-15)
        orbit = sorted(set(hits))
        assert np.allclose(W[orbit], w / len(orbit), rtol=1e-14, atol=0)
        seen += orbit
    assert sorted(seen) == list(range(len(U)))
    assert math.isclose(hb.line_quadrature(n)[1].sum(), 4 * math.pi, rel_tol=1e-14)


def test_unit_ball_at_ball_center():
    vol = hb.unit_ball_lebesgue(BALL, [0, 0, 0], hb.QuadratureSpec())
    assert abs(vol - math.pi / 6) <= 1e-3 * math.pi / 6


def test_unit_ball_positive_everywhere():
    for dom, x in ((BALL, [0.3, 0.1, -0.2]), (DP, [2, 1, 0]), (DP, [50, 1, 0.5])):
        assert hb.unit_ball_lebesgue(dom, x, FAST_Q) > 0


def test_unit_ball_growth_beats_power_law():
    # fitted lower-bound constant from the first point
    vols = {x1: hb.unit_ball_lebesgue(DP, [x1, 1, 0], FAST_Q) for x1 in (100.0, 1000.0)}
    C = 0.5 * vols[100.0] / 100.0 ** 1.5
    assert vols[1000.0] > C * 1000.0 ** 1.5


def test_density_at_ball_center_is_one():
    dens = hb.busemann_density(BALL, [0, 0, 0], hb.QuadratureSpec())
    assert abs(dens - 1.0) <= 1e-3


def test_density_decreases_vertically():
    q = FAST_Q
    values = [hb.busemann_density(DP, [x1, 1, 0], q) for x1 in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6])
def test_ball_density_closed_form_off_center(r):
    # the tangent unit ball of the ball domain is an ellipsoid with radial
    # radius (1-r^2)/2 and transverse radii sqrt(1-r^2)/2, so the density
    # is exactly (1-r^2)^(-2)
    dens = hb.busemann_density(BALL, [r, 0, 0], hb.QuadratureSpec())
    assert dens == pytest.approx((1 - r * r) ** -2, rel=1e-10)


def test_ball_box_volume_against_closed_form():
    # integrate the closed-form density over a box and compare the grid
    # and the Monte Carlo oracle against it
    lo, hi = -0.2, 0.25
    region = ro.Region(BALL, (lo, hi), (lo, hi), (lo, hi))
    g, w = ro.gauss_legendre(12, lo, hi)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    expected = float(np.einsum("i,j,k,ijk->", w, w, w, (1 - X * X - Y * Y - Z * Z) ** -2))
    q = hb.QuadratureSpec(sphere_nodes=578)
    grid = ro.grid_volume(region, q, (4, 4, 4))
    assert grid.estimate == pytest.approx(expected, rel=2e-3)
    mc = ro.mc_volume(region, q, samples=4000, seed=3)
    assert abs(mc.estimate - expected) <= 4 * mc.stderr


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_density_conjugation_covariance(t):
    # change-of-variables oracle: the affine chart Jacobian of the
    # coordinate change is 1/t^4
    q = hb.QuadratureSpec(sphere_nodes=1152)
    dt = DomainDt(t)
    V = pl.to_float(vt_map(t))
    jac = 1.0 / t ** 4
    for x in ([2.0, 1.0, 0.0], [3.0, 1.5, 0.4]):
        dens_src = hb.busemann_density(DP, x, q)
        dens_img = hb.busemann_density(dt, pl.apply_affine_batch(V, np.array(x)[None])[0], q)
        assert abs(dens_img * jac - dens_src) <= 1e-3 * dens_src


def test_quadrature_convergence_guard():
    # a count below 1 is the spec's own ValueError, not numpy's from inside the table
    for spec in (dict(sphere_nodes=0), dict(grid_shape=(0, 6)), dict(grid_shape=(8, 0)), dict(grid_shape=(8, 6, 6))):
        with pytest.raises(ValueError, match="^node counts must be positive"):
            hb.QuadratureSpec(**spec)
    with pytest.raises(ValueError):
        hb.unit_ball_lebesgue(DP, [-5, 1, 0], FAST_Q)
    # very close to the boundary the tangent ball is too anisotropic for
    # a coarse quadrature, and the refinement check must say so
    with pytest.raises(hb.QuadratureError):
        hb.unit_ball_lebesgue(DP, [0.05, 1.0, 0.0], hb.QuadratureSpec(sphere_nodes=288))


# ---------------------------------------------------------------------------
# the limit t -> 0: Dt tends to the paraboloid D0, a projective ball

#: paired points on both sides of x2 = 0, from 0.2 to 3.5 above the D0
#: boundary (the benchmark's Dt-against-D0 distance items)
LIMIT_X = np.array([[1.0, 0.3, -0.2], [0.6, -0.5, 0.4], [2.0, 1.0, 0.5], [0.3, 0.2, 0.1]])
LIMIT_Y = np.array([[2.5, -0.4, 0.5], [0.9, 0.1, -0.3], [1.2, 0.4, 1.1], [4.0, -1.5, 0.8]])


def _d0_to_ball(X):
    """The projective map (x1 - 1, sqrt2 x2, sqrt2 x3)/(x1 + 1) of D0 onto the unit ball."""
    X = np.atleast_2d(X)
    return np.column_stack([X[:, 0] - 1.0, math.sqrt(2) * X[:, 1], math.sqrt(2) * X[:, 2]]) / (X[:, 0] + 1.0)[:, None]


def _d0_distance(X, Y):
    """Twice the Klein distance of the images in the unit ball."""
    A, B = _d0_to_ball(X), _d0_to_ball(Y)
    num = 1.0 - np.einsum("ij,ij->i", A, B)
    den = np.sqrt((1.0 - np.einsum("ij,ij->i", A, A)) * (1.0 - np.einsum("ij,ij->i", B, B)))
    return 2.0 * np.arccosh(num / den)


def _d0_density(X):
    """1/(4 u^2) with u = x1 - (x2^2 + x3^2)/2: the ball density (1 - |z|^2)^-2
    times the Jacobian of the projective map."""
    X = np.atleast_2d(X)
    u = X[:, 0] - 0.5 * (X[:, 1] ** 2 + X[:, 2] ** 2)
    return 0.25 / u ** 2


def test_d0_density_and_distance_are_those_of_a_ball():
    rng = np.random.default_rng(12)
    X = np.column_stack([10 ** rng.uniform(-0.5, 0.5, 6), rng.uniform(-1.5, 1.5, 6), rng.uniform(-1.5, 1.5, 6)])
    X[:, 0] += 0.5 * (X[:, 1] ** 2 + X[:, 2] ** 2)
    # the sphere quadrature is good to a few 1e-6 at these tilts
    rho = hb.busemann_density(DomainD0(), X, FAST_Q)
    assert np.all(np.abs(rho - _d0_density(X)) <= 1e-4 * _d0_density(X))
    ref = _d0_distance(X, X[::-1])
    assert np.all(np.abs(hb.hilbert_distance_pairs(DomainD0(), X, X[::-1]) - ref) <= 1e-10 * np.maximum(1.0, ref))


def _quadric_cases(rng, name, n):
    """n points of the quadric ``name``, 1e-4 to 1 from the boundary, with
    the domain and the closed-form densities at them."""
    depth = 10 ** rng.uniform(-4, 0, n)
    if name == "Ball":
        U = rng.normal(size=(n, 3))
        X = (1.0 - depth)[:, None] * U / np.linalg.norm(U, axis=1)[:, None]
        return BALL, X, (1.0 - np.einsum("ij,ij->i", X, X)) ** -2
    shift = 0.0 if name == "D0" else 0.7
    b2, b3 = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
    X = np.column_stack([shift + depth + 0.5 * (b2 ** 2 + b3 ** 2), b2, b3])
    return (DomainD0() if shift == 0 else VerticalShiftDomain(DomainD0(), shift)), X, _d0_density(X - [shift, 0.0, 0.0])


@pytest.mark.parametrize("name", ["Ball", "D0"])
def test_quadric_density_is_exact_at_32_nodes(name):
    # the Hilbert norm of a quadric is quadratic and diagonal in the
    # quadrature frame, so the rescaled unit ball is round and even the
    # 32-node sphere quadrature, called directly, is exact, 1e-4 to 1
    # from the boundary; its coarse pass at 8 nodes agrees with it
    dom, X, ref = _quadric_cases(np.random.default_rng(29), name, 200)
    fine, coarse = hb._unit_ball_volumes(dom, X, hb.QuadratureSpec(sphere_nodes=32))
    assert np.all(np.abs(hb.ALPHA3 / fine - ref) <= 1e-9 * ref)
    assert np.all(np.abs(coarse - fine) <= 1e-9 * fine)


#: the benchmark's two tilted near-boundary density points: D0 1e-3 above
#: its boundary over (0.5, 0.2), and the Ball 1e-4 inside its sphere
TILTED = {"D0": np.array([1e-3 + 0.5 * (0.5 ** 2 + 0.2 ** 2), 0.5, 0.2]), "Ball": (1.0 - 1e-4) * np.ones(3) / math.sqrt(3.0)}


@pytest.mark.parametrize("name", ["Ball", "D0", "D0 horoball"])
def test_quadric_densities_are_their_closed_forms(name):
    # on a quadric the product path measures the unit ball as the
    # ellipsoid on its 3 frame radii: (1 - |x|^2)^-2 on the Ball, and the
    # hyperbolic cusp profile 4 kappa^2 rho = 1 on D0 and its horoballs,
    # kappa the height above the boundary, from 1e-3 to 1e3 over off-axis
    # base points; |x|^2 and kappa are rounded as the membership test
    # rounds them.  check=True has no quadrature to check and never
    # raises, the gap is 0, and the generic quadrature, called directly
    # on the same points, agrees to its own 1e-9
    rng = np.random.default_rng(67)
    dom, X, ref = _quadric_cases(rng, name, 40)
    if name != "Ball":
        # 13 heights over off-axis base points, and 1e-3 over the axis
        kappa = np.append(10.0 ** np.arange(-3.0, 3.5, 0.5), 1e-3)
        b2, b3 = np.append(rng.uniform(-3, 3, 13), 0.0), np.append(rng.uniform(-3, 3, 13), 0.0)
        shift = getattr(dom, "shift", 0.0)
        K = np.column_stack([shift + kappa + 0.5 * (b2 ** 2 + b3 ** 2), b2, b3])
        X, ref = np.vstack([X, K]), np.concatenate([ref, _d0_density(K - [shift, 0.0, 0.0])])
    if name in TILTED:
        x = TILTED[name]
        X = np.vstack([X, x])
        ref = np.append(ref, (1.0 - x @ x) ** -2 if name == "Ball" else _d0_density(x)[0])
    rho, gap = hb.busemann_density(dom, X, return_gap=True)
    assert np.all(np.abs(rho - ref) <= 1e-12 * ref)
    assert not gap.any()
    assert [hb.busemann_density(dom, x) for x in X[-2:]] == rho[-2:].tolist()
    fine, _ = hb._unit_ball_volumes(dom, X, hb.DEFAULT_QUADRATURE)
    assert np.all(np.abs(hb.ALPHA3 / fine - ref) <= 1e-9 * ref)


@pytest.mark.parametrize("t", [10.0 ** -k for k in range(3, 11)])
def test_dt_distance_tends_to_d0(t):
    dt = DomainDt(t)
    ref = _d0_distance(LIMIT_X, LIMIT_Y)
    d = hb.hilbert_distance_pairs(dt, LIMIT_X, LIMIT_Y)
    assert np.all(np.abs(d - ref) <= t * np.maximum(1.0, ref))
    for x, y, r in zip(LIMIT_X, LIMIT_Y, ref):
        assert abs(hb.hilbert_distance(dt, x, y) - r) <= t * max(1.0, r)


@pytest.mark.parametrize("t", [10.0 ** -k for k in range(3, 11)])
def test_dt_density_tends_to_d0(t):
    # the same quadrature on both domains, so only the O(t) change of
    # the geometry is left (about 1.5 t max(1, |x2|) at these points)
    pts = LIMIT_X[:3]
    rho0 = hb.busemann_density(DomainD0(), pts, FAST_Q)
    rho = hb.busemann_density(DomainDt(t), pts, FAST_Q)
    assert np.all(np.abs(rho - rho0) <= 2.0 * t * np.maximum(1.0, np.abs(pts[:, 1])) * rho0)


# ---------------------------------------------------------------------------
# batched densities

BATCH_CASES = {
    "Ball": (BALL, [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-0.5, 0.4, 0.2], [0.1, 0.6, -0.3]]),
    "D0": (DomainD0(), [[1.0, 0.0, 0.0], [2.0, 0.5, -0.7], [1.5, -1.0, 0.3], [4.0, 1.2, 0.8]]),
    "DPrime": (DP, [[2.0, 1.0, 0.0], [1.0, 1.5, 0.4], [3.0, 0.5, -0.6], [6.0, 2.5, 1.0]]),
    "Dt": (DomainDt(0.5), [[10.0, 1.0, 0.0], [12.0, 2.0, 0.4], [16.0, 0.5, -1.0], [20.0, 3.0, 1.5]]),
    "shifted DPrime": (
        VerticalShiftDomain(DP, 0.5),
        [[2.0, 1.0, 0.0], [1.5, 1.5, 0.4], [3.0, 0.5, -0.6], [6.0, 2.5, 1.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batched_density_bit_equal_to_scalar(name):
    dom, pts = BATCH_CASES[name]
    pts = np.array(pts)
    batch = hb.busemann_density(dom, pts, FAST_Q)
    scalar = [hb.busemann_density(dom, p, FAST_Q) for p in pts]
    assert all(isinstance(v, float) for v in scalar)
    assert batch.shape == (len(pts),)
    assert batch.tolist() == scalar
    vols = hb.unit_ball_lebesgue(dom, pts, FAST_Q)
    assert vols.tolist() == [hb.unit_ball_lebesgue(dom, p, FAST_Q) for p in pts]


def test_batched_density_independent_of_chunking(monkeypatch):
    rng = np.random.default_rng(21)
    pts = np.column_stack([rng.uniform(1.0, 5.0, 9), rng.uniform(0.5, 3.0, 9), rng.uniform(-1.0, 1.0, 9)])
    values = []
    for rows in (1, 10 ** 6):
        monkeypatch.setattr(hb, "DENSITY_CHUNK_ROWS", rows)
        values.append(hb.busemann_density(DP, pts, FAST_Q, return_gap=True))
    (rho_a, gap_a), (rho_b, gap_b) = values
    assert rho_a.tolist() == rho_b.tolist()
    assert gap_a.tolist() == gap_b.tolist()


_FRAME_RNG = np.random.default_rng(8)
NODE_DIRECTION_CASES = {
    # Householder frames, the centre and points on two axes among them
    "Ball": (BALL, np.vstack([_FRAME_RNG.uniform(-0.5, 0.5, (12, 3)), [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, -0.2, 0.0]]])),
    # two off-diagonal frame entries, x2 and x3, zero at the last points
    "D0": (DomainD0(), np.vstack([np.column_stack([_FRAME_RNG.uniform(3.0, 9.0, 12), _FRAME_RNG.uniform(-2.0, 2.0, (12, 2))]), [[1.0, 0.0, 0.0], [2.0, 0.0, 0.5]]])),
    "DPrime": (DP, np.vstack([np.column_stack([_FRAME_RNG.uniform(2.0, 90.0, 12), _FRAME_RNG.uniform(0.5, 3.0, 12), _FRAME_RNG.uniform(-2.0, 2.0, 12)]), [[2.0, 1.0, 0.0]]])),
}


@pytest.mark.parametrize("name", sorted(NODE_DIRECTION_CASES))
def test_node_directions_are_the_einsum_of_the_frames(name):
    # the density's node directions are the floats of the einsum they
    # replaced, bit for bit (signed zeros included), at the node sets of
    # the golden table (128 and its coarse 32) and of the defaults
    dom, X = NODE_DIRECTION_CASES[name]
    frames = dom.quadrature_frames(X)
    radii = hb._frame_radii(dom, X, frames)
    for n in (128, 2312):
        nodes = np.concatenate([hb.line_quadrature(n)[0], hb.line_quadrature(max(8, n // 4))[0]])
        reference = np.einsum("kni,kij->knj", nodes[None, :, :] * radii[:, None, :], frames).reshape(-1, 3)
        dirs = hb._node_directions(nodes, radii, frames)
        assert dirs.shape == reference.shape
        assert np.array_equal(dirs.view(np.int64), reference.view(np.int64))


def test_batched_density_checks_every_point():
    # one near-boundary point spoils a batch of good ones under check=True;
    # unchecked, the same batch reports its gaps instead
    pts = np.array([[2.0, 1.0, 0.0], [0.05, 1.0, 0.0], [3.0, 1.5, 0.2]])
    q = hb.QuadratureSpec(sphere_nodes=288)
    with pytest.raises(hb.QuadratureError, match="sphere quadrature not converged"):
        hb.busemann_density(DP, pts, q)
    rho, gap = hb.busemann_density(DP, pts, q, check=False, return_gap=True)
    assert rho.shape == gap.shape == (3,)
    assert gap[1] > 10.0 * hb.QUADRATURE_RTOL > max(gap[0], gap[2])
    with pytest.raises(ValueError):
        hb.busemann_density(DP, np.array([[2.0, 1.0, 0.0], [-5.0, 1.0, 0.0]]), q, check=False)


def _counting(dom):
    """A copy of ``dom`` that counts the rows its membership test sees and
    the rays it solves."""

    class Counting(type(dom)):
        rows = rays = 0

        def contains_batch(self, pts):
            self.rows += len(pts)
            return super().contains_batch(pts)

        def _ray_exit(self, X, V):
            self.rays += len(X)
            return super()._ray_exit(X, V)

    counting = object.__new__(Counting)
    counting.__dict__.update(vars(dom))
    return counting


#: chord lines of one density: the 3 frame lines, and on the domains
#: without a closed form one line per orbit of the fine and the coarse
#: quadrature; the orbits hold two lines of H, or one on the equator of
#: the 17 x 34 grid at 578 nodes
DENSITY_LINES = {2312: 3 + 578 + 145, 578: 3 + 145 + 32}
COUNT_CASES = {
    **{name: BATCH_CASES[name] for name in ("Ball", "D0", "DPrime")},
    "D0 horoball": (VerticalShiftDomain(DomainD0(), 0.5), [[1.5, 0.0, 0.0], [2.5, 0.5, -0.7], [2.0, -1.0, 0.3], [4.5, 1.2, 0.8]]),
}


@pytest.mark.parametrize("name", list(COUNT_CASES))
@pytest.mark.parametrize("q", [hb.DEFAULT_QUADRATURE, FAST_Q], ids=["2312 nodes", "578 nodes"])
def test_density_tests_each_point_once_per_solve(name, q):
    # the density tests each point once, in its frame solve, however the
    # points are chunked; the node solves reuse that test.  It solves
    # both rays of every line it needs: on the quadrics the 3 frame
    # lines alone, whatever the node count; on D' those and the node
    # lines.  No chord tests another point: the Ball has no ideal ends,
    # and D0 and D' probe only rays whose start is clipped to the ideal
    # probe, which none is here (their ideal e1 rays lie in the
    # recession cone)
    dom, pts = COUNT_CASES[name]
    counting = _counting(dom)
    pts = np.array(pts)
    rho = hb.busemann_density(counting, pts, q)
    lines = 3 if dom.quadric else DENSITY_LINES[q.sphere_nodes]
    assert counting.rays == 2 * lines * len(pts)
    assert counting.rows == len(pts)
    assert rho.tolist() == hb.busemann_density(dom, pts, q).tolist()


# ---------------------------------------------------------------------------
# region volume: the grid oracle


def region_box(domain, x1, x2, x3, w=0.25):
    return ro.Region(domain, (x2 - w, x2 + w), (x3 - w, x3 + w), (x1 - w, x1 + w))


def test_empty_region_volume():
    region = ro.Region(DP, (1, 1), (0, 1), (0, 5), floor_level=1.0)
    est = ro.grid_volume(region, FAST_Q, (8, 6, 6))
    assert est.estimate == 0.0 and est.stderr == 0.0


def test_volume_outside_domain_rejected():
    region = ro.Region(DP, (-1.0, 1.0), (0, 1), (0, 5))
    with pytest.raises(ro.RegionError):
        ro.grid_volume(region, GRID_Q, (8, 6, 6))


def test_volume_grid_matches_mc():
    region = region_box(DP, 2.0, 1.0, 0.0)
    grid = ro.grid_volume(region, GRID_Q, (4, 4, 4))
    mc = ro.mc_volume(region, GRID_Q, samples=4000, seed=5)
    assert abs(grid.estimate - mc.estimate) <= 4 * mc.stderr + 1e-9


def test_volume_monotone_in_cutoff():
    region = lambda X: ro.Region(DP, (1.0, 2.0), (0.0, 0.5), (0.0, X), floor_level=0.5)
    vols = [ro.grid_volume(region(X), GRID_Q, (4, 3, 3)).estimate for X in (5.0, 10.0, 20.0, 40.0)]
    assert all(b > a for a, b in zip(vols, vols[1:]))
    increments = [b - a for a, b in zip(vols, vols[1:])]
    assert all(b < a for a, b in zip(increments, increments[1:]))


def test_volume_nested_domain_comparison():
    region = region_box(DP, 2.0, 1.0, 0.0)
    inner = ro.grid_volume(region, GRID_Q, (4, 4, 4)).estimate
    bigger_dom = VerticalShiftDomain(DP, -0.75)
    region_big = ro.Region(bigger_dom, region.x2_range, region.x3_range, region.x1_range)
    outer = ro.grid_volume(region_big, GRID_Q, (4, 4, 4)).estimate
    assert outer < inner


# ---------------------------------------------------------------------------
# covering oracle


def test_oracle_degenerate_region():
    region = ro.Region(BALL, (0, 0), (0, 0), (0, 0))
    assert ro.hausdorff_oracle(BALL, region, 0.05) == 0.0


def test_oracle_matches_volume_at_ball_center():
    region = ro.Region(BALL, (-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1))
    est = ro.hausdorff_oracle(BALL, region, 0.2)
    vol = ro.grid_volume(region, GRID_Q, (3, 3, 3))
    assert abs(est - vol.estimate) <= 0.10 * vol.estimate


def test_oracle_matches_volume_in_log_domain():
    region = ro.Region(DP, (0.9, 1.1), (-0.1, 0.1), (1.9, 2.1))
    est = ro.hausdorff_oracle(DP, region, 0.1)
    vol = ro.grid_volume(region, GRID_Q, (3, 3, 3))
    assert abs(est - vol.estimate) <= 0.10 * vol.estimate


def test_oracle_refinement_stability():
    region = ro.Region(BALL, (-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1))
    a = ro.hausdorff_oracle(BALL, region, 0.2)
    b = ro.hausdorff_oracle(BALL, region, 0.1)
    assert abs(a - b) <= 0.05 * max(a, b)


def test_oracle_refuses_large_region():
    region = ro.Region(BALL, (-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8))
    with pytest.raises(ro.RegionError):
        ro.hausdorff_oracle(BALL, region, 0.2)


def test_oracle_raw_cover_sum_overestimates():
    # the plain cube-cover sum carries the cube/ball shape constant and
    # must exceed the corrected value
    region = ro.Region(BALL, (-0.1, 0.1), (-0.1, 0.1), (-0.1, 0.1))
    details = ro.hausdorff_oracle(BALL, region, 0.2, details=True)
    assert details.raw_cover_sum > 1.5 * details.value


def test_metric_ball_density_agrees():
    for dom, x in ((BALL, [0.0, 0.0, 0.0]), (DP, [2.0, 1.0, 0.0])):
        a = ro.metric_ball_density(dom, np.asarray(x), n_nodes=512)
        b = hb.busemann_density(dom, x, hb.QuadratureSpec(sphere_nodes=1152))
        assert abs(a - b) <= 5e-3 * b


@pytest.mark.parametrize(
    "dom, x",
    [(BALL, [0.1, -0.2, 0.3]), (DP, [2.0, 1.0, 0.0]), (DomainDt(0.2), [1.5, 0.5, -0.25])],
    ids=["Ball", "DPrime", "Dt(0.2)"],
)
def test_metric_ball_density_from_one_hemisphere(dom, x):
    # against the sum over the whole sphere [H; -H], every node solved
    rho, K = 0.02, math.exp(0.02)
    U, W = hb.sphere_quadrature(128)
    tm, tp = dom.chord_taus(x, U)
    with np.errstate(divide="ignore"):
        u = np.where(np.isinf(tm), 0.0, -1.0 / tm)
        w = np.where(np.isinf(tp), 0.0, 1.0 / tp)
    full = hb.ALPHA3 / (np.sum(W * ((K - 1.0) / (u + K * w) / rho) ** 3) / 3.0)
    assert abs(ro.metric_ball_density(dom, np.asarray(x), rho=rho) - full) <= 1e-13 * full

