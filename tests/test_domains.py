import json
import math
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import domains as dm, projlin as pl
from convexcusp.cusplie import LieAlgElem, alg_matrix


@pytest.fixture(scope="module")
def dprime():
    return dm.DomainDPrime()


@pytest.fixture(scope="module")
def d0():
    return dm.DomainD0()


# ---------------------------------------------------------------------------
# membership and boundary values


def test_contains_interior_point(dprime):
    assert dprime.contains([1, 1, 0])


def test_boundary_point_excluded(dprime):
    assert not dprime.contains([0, 1, 0])


def test_contains_witness_ray_point(dprime):
    # [c u : u : 0 : 1] with c = 1, u = 10
    assert dprime.contains([10, 10, 0])


def test_boundary_values(d0, dprime):
    assert d0.boundary_value(2, 0) == 2.0
    assert dprime.boundary_value(1, 0) == 0.0
    assert abs(dprime.boundary_value(math.e, 2) - 1.0) < 1e-12


def test_boundary_value_outside_base(dprime):
    with pytest.raises(ValueError):
        dprime.boundary_value(-1.0, 0.0)


def test_dt_base_violation():
    dt = dm.DomainDt(0.5)
    with pytest.raises(ValueError):
        dt.boundary_value(-3.0, 0.0)


def test_dt_base_for_negative_t():
    # the base 1 + t y2 > 0 is the half plane y2 < -1/t = 2 at t = -1/2
    dt = dm.DomainDt(-0.5)
    with pytest.raises(ValueError):
        dt.boundary_value(3.0, 0.0)
    assert abs(dt.boundary_value(1.0, 0.0) - 4 * (math.log(2) - 0.5)) <= 1e-15
    # (1, 1, 0) pulls back to (3/4, 1/2, 0), inside DPrime
    assert dt.contains([1.0, 1.0, 0.0])
    assert not dt.contains([0.7, 1.0, 0.0])
    assert not dt.contains([100.0, 3.0, 0.0])


# ---------------------------------------------------------------------------
# chords


def test_vertical_chord_of_paraboloid(d0):
    p_minus, p_plus = d0.chord_endpoints([1, 0, 0], [1, 0, 0])
    assert p_plus is None
    assert np.allclose(p_minus, [0, 0, 0], atol=1e-11)


def test_chord_log_direction(dprime):
    p_minus, p_plus = dprime.chord_endpoints([2, 1, 0], [0, 1, 0])
    assert p_plus is None
    assert abs(p_minus[1] - math.exp(-2)) <= 1e-11


def test_chord_symmetric_direction(dprime):
    p_minus, p_plus = dprime.chord_endpoints([2, 1, 0], [0, 0, 1])
    assert abs(p_minus[2] + 2.0) <= 1e-11
    assert abs(p_plus[2] - 2.0) <= 1e-11


def test_chord_requires_interior(dprime):
    with pytest.raises(ValueError):
        dprime.chord_endpoints([-1, 1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        dprime.chord_endpoints([2, 1, 0], [0, 0, 0])


def test_no_complete_line(dprime):
    rng = np.random.default_rng(4)
    pts = np.column_stack(
        [rng.uniform(0.5, 4, 1000), rng.uniform(0.3, 3, 1000), rng.uniform(-1.5, 1.5, 1000)]
    )
    pts[:, 0] += 0.5 * pts[:, 2] ** 2 - np.log(pts[:, 1])
    dirs = rng.normal(size=(1000, 3))
    tm, tp = dprime.chord_taus(pts, dirs)
    assert np.all(np.isfinite(tm) | np.isfinite(tp))


# ---------------------------------------------------------------------------
# the coordinate change


def test_vt_rows_at_one():
    V = dm.vt_map(Fraction(1))
    rows = [[1, 1, 0, -1], [0, 1, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert all(V[i, j] == rows[i][j] for i in range(4) for j in range(4))


def test_vt_maps_base_points():
    V = dm.vt_map(Fraction(1))
    image = V @ pl.from_affine([Fraction(0), Fraction(1), Fraction(0)])
    assert pl.proj_point_equal(image, np.array([0, 0, 0, 1], dtype=object))


@pytest.mark.parametrize("t", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(-2, 3)])
def test_vt_determinant(t):
    assert pl.mat_det(dm.vt_map(t)) * t ** 4 == 1


def test_vt_rejects_zero():
    with pytest.raises(ValueError):
        dm.vt_map(0)
    with pytest.raises(ValueError):
        dm.DomainDt(0)


@pytest.mark.parametrize("t", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_vt_conjugates_algebras(t):
    # numeric disambiguation of the conjugation direction: V_t carries the
    # normal-form algebra onto the deformed one with parameters (a/t, b/t)
    V = dm.vt_map(t)
    Vi = pl.mat_inv(V)
    for a, b in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(2, 3), Fraction(-1, 2))):
        x = alg_matrix(LieAlgElem("LPrime", (a, b)))
        image = V @ x @ Vi
        expected = alg_matrix(LieAlgElem("Lt", (a / t, b / t), t=t))
        assert all(u == v for u, v in zip(image.flat, expected.flat))


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, -0.5])
def test_dt_membership_consistent_with_pullback(t):
    dprime = dm.DomainDPrime()
    dt = dm.DomainDt(t)
    V = pl.to_float(dm.vt_map(t))
    rng = np.random.default_rng(8)
    pts = np.column_stack(
        [rng.uniform(0.2, 4, 200), rng.uniform(0.3, 3, 200), rng.uniform(-1.5, 1.5, 200)]
    )
    inside = dprime.contains_batch(pts)
    mapped = pl.apply_affine_batch(V, pts)
    assert np.array_equal(dt.contains_batch(mapped), inside)


def test_dt_boundary_bisection_matches_closed_form():
    # the pulled-back boundary has the closed form
    # y1 = (F(t y2 + 1, t y3) + t y2) / t^2, an independent oracle for the
    # bisection route
    t = 0.5
    dt = dm.DomainDt(t)
    for y2, y3 in ((0.7, 0.3), (0.0, 0.0), (2.0, -1.0)):
        closed = (0.5 * (t * y3) ** 2 - math.log(t * y2 + 1) + t * y2) / t ** 2
        assert abs(dt.boundary_value(y2, y3) - closed) <= 1e-10


# ---------------------------------------------------------------------------
# convexity and the boundary segment


def test_boundary_function_convexity(d0, dprime):
    rng = np.random.default_rng(11)
    for dom, lo in ((d0, (-4.0, -4.0)), (dprime, (0.05, -4.0))):
        u = rng.uniform(lo, [4, 4], size=(10_000, 2))
        w = rng.uniform(lo, [4, 4], size=(10_000, 2))
        lam = rng.uniform(size=10_000)
        mid = lam[:, None] * u + (1 - lam[:, None]) * w
        hu = dom.boundary_value_batch(u[:, 0], u[:, 1])
        hw = dom.boundary_value_batch(w[:, 0], w[:, 1])
        hm = dom.boundary_value_batch(mid[:, 0], mid[:, 1])
        assert np.all(hm <= lam * hu + (1 - lam) * hw + 1e-12)


def test_dt_boundary_hessian_positive_semidefinite():
    dt = dm.DomainDt(0.5)
    h = 1e-4
    for y2, y3 in ((0.5, 0.2), (1.5, -0.7), (3.0, 1.0)):
        f = lambda a, b: dt.boundary_value(a, b)
        fxx = (f(y2 + h, y3) - 2 * f(y2, y3) + f(y2 - h, y3)) / h ** 2
        fyy = (f(y2, y3 + h) - 2 * f(y2, y3) + f(y2, y3 - h)) / h ** 2
        fxy = (f(y2 + h, y3 + h) - f(y2 + h, y3 - h) - f(y2 - h, y3 + h) + f(y2 - h, y3 - h)) / (4 * h ** 2)
        assert fxx >= -1e-4 and fxx * fyy - fxy ** 2 >= -1e-4


def test_boundary_segment_witness(dprime):
    # interior rays [c u : u : 0 : 1] for u >= 1, whose ideal endpoints
    # [c : 1 : 0 : 0] are collinear in the boundary
    for c in (0.5, 1.0, 2.0):
        for u in (1.0, 10.0, 1e4, 1e8):
            assert dprime.contains([c * u, u, 0.0])
    limits = np.array([[0.5, 1, 0, 0], [1.0, 1, 0, 0], [2.0, 1, 0, 0]])
    assert np.linalg.matrix_rank(limits) == 2


# ---------------------------------------------------------------------------
# horospheres and horoballs


def test_horoball_membership(dprime):
    assert dm.VerticalShiftDomain(dprime, 1.0).contains([2, 1, 0])
    assert not dm.VerticalShiftDomain(dprime, 3.0).contains([2, 1, 0])


def test_horoball_orbit_boundary_point(d0):
    c = 2.5
    assert not dm.VerticalShiftDomain(d0, c).contains([c, 0, 0])


def test_horosphere_is_translate_of_boundary(dprime):
    # group orbits of lifted base points stay on the shifted graph
    from convexcusp.cusplie import group_exp

    kappa = 1.5
    g = pl.to_float(group_exp(LieAlgElem("LPrime", (0.4, -0.6))))
    base = np.array([dprime.boundary_value(1.0, 0.0) + kappa, 1.0, 0.0])
    img = pl.apply_affine_batch(g, base[None, :])[0]
    assert abs(img[0] - (dprime.boundary_value(img[1], img[2]) + kappa)) <= 1e-12


# ---------------------------------------------------------------------------
# descriptors and exports


def test_descriptor_round_trip():
    for desc in ({"family": "D0"}, {"family": "DPrime"}, {"family": "Dt", "t": 0.25}):
        dom = dm.domain_from_descriptor(desc)
        assert dm.descriptor_of(dom) == desc
    with pytest.raises(ValueError):
        dm.domain_from_descriptor({"family": "nope"})


def test_obj_export(tmp_path, dprime):
    path = dm.export_boundary_obj(dprime, tmp_path / "b.obj", (0.5, 2.0), (-1.0, 1.0), n2=6, n3=5)
    text = open(path).read()
    assert text.count("\nv ") + text.startswith("v ") == 30
    assert text.count("\nf ") == 2 * 5 * 4


def test_svg_export(tmp_path, dprime):
    path = dm.export_slice_svg(dprime, tmp_path / "s.svg", x3=0.0, x2_range=(0.5, 2.0), n=32)
    text = open(path).read()
    assert text.startswith("<svg") and "polyline" in text


# ---------------------------------------------------------------------------
# the Newton chord solver against the membership bisection


def _adversarial_rays(dom, rng, n=4000):
    """Seeded hard rays: points from 1e-8 to 1e3 above the boundary,
    nearly horizontal x3 slopes, rays driven into the base edge (steeply
    down in x2 for D0, which has none) and rays whose exit lies near the
    ideal probe."""
    if isinstance(dom, dm.DomainDt):
        # the edge -1/t of the base lies on the side of -t
        lo2, hi2, down = -0.9 / dom.t, 3.0 * np.sign(dom.t), -np.sign(dom.t)
    else:
        lo2, hi2, down = (-3.0, 3.0, -1.0) if isinstance(dom, dm.DomainD0) else (1e-3, 3.0, -1.0)
    near_edge = lo2 * rng.uniform(0.5, 1.0, n) if lo2 < 0 or down > 0 else 10 ** rng.uniform(-3, 0, n)
    b2 = np.where(rng.random(n) < 0.5, rng.uniform(min(lo2, hi2), max(lo2, hi2), n), near_edge)
    b3 = rng.uniform(-2.0, 2.0, n)
    X = np.column_stack([dom.boundary_value_batch(b2, b3) + 10 ** rng.uniform(-8, 3, n), b2, b3])
    V = rng.normal(size=(n, 3))
    kind = rng.integers(0, 4, n)
    flat = kind == 1
    V[flat, 2] = rng.choice([-1.0, 1.0], flat.sum()) * 10 ** rng.uniform(-12, -3, flat.sum())
    edge = kind == 2
    V[edge, 1] = down * (10 * np.abs(V[edge, 1]) + 1.0)
    far = kind == 3
    m = far.sum()
    if isinstance(dom, dm.DomainD0):
        # nearly vertical: the exit lies near 2/slope^2
        V[far] = np.column_stack([np.ones(m), np.zeros(m), 10 ** rng.uniform(-4.7, -3.7, m)])
    else:
        # along the ideal boundary: x2 up, or for t < 0 down at the
        # asymptotic slope 1/|t| of the boundary
        slope = -1.0 / dom.t if isinstance(dom, dm.DomainDt) and dom.t < 0 else 0.0
        V[far] = np.column_stack([np.full(m, slope), np.full(m, -down), 10 ** rng.uniform(-8.5, -7.5, m)])
    return X, V / np.linalg.norm(V, axis=1)[:, None]


@pytest.mark.parametrize(
    "dom",
    [
        dm.DomainDPrime(),
        dm.DomainDt(0.5),
        dm.DomainDt(2.0),
        dm.VerticalShiftDomain(dm.DomainDPrime(), 0.5),
        dm.DomainDt(-0.5),
        dm.DomainD0(),
    ],
    ids=["DPrime", "Dt(0.5)", "Dt(2)", "DPrime+0.5", "Dt(-0.5)", "D0"],
)
def test_newton_exits_match_bisection(dom):
    rng = np.random.default_rng(41)
    X, V = _adversarial_rays(dom, rng)
    assert dom.contains_batch(X).all()
    X, V = np.concatenate([X, X]), np.concatenate([V, -V])
    newton = dom._ray_exit(X, V, dm.CHORD_TOL)
    bisect = dm.ConvexDomain._ray_exit(dom, X, V, dm.CHORD_TOL)
    assert np.array_equal(np.isinf(newton), np.isinf(bisect))
    fin = np.isfinite(bisect)
    assert np.all(np.abs(newton[fin] - bisect[fin]) <= 1e-9 * np.maximum(1.0, bisect[fin]))
    # the set reaches ideal ends, exits near the ideal probe and exits
    # within 1e-6 of the base point
    assert np.isinf(newton).any()
    assert np.any(fin & (newton > 1e8)) and np.any(newton < 1e-6)


def test_newton_rejects_exterior_and_nonfinite_rays(dprime):
    with pytest.raises(ValueError):
        dprime.chord_taus([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        dprime.chord_taus([np.nan, 1.0, 0.0], [[1.0, 0.0, 0.0]])


def test_ball_chords_reject_exterior_and_nonfinite_points():
    # the Ball's bisection would bracket a tiny chord around an exterior point
    ball = dm.BallDomain()
    with pytest.raises(ValueError):
        ball.chord_taus([3.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ball.chord_taus([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        ball.chord_taus([np.nan, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        ball.chord_taus([0.0, 0.0, 0.0], [[np.inf, 0.0, 0.0]])


@pytest.mark.parametrize("t", [10.0 ** -k for k in range(3, 11)])
def test_dt_boundary_tends_to_d0(t):
    # h_t - h_0 = y2^2 (psi(t y2) - 1/2) = -t y2^3/3 + t^2 y2^4/4 - ...
    dt = dm.DomainDt(t)
    y2 = np.array([0.5, -1.5, 3.0, 0.0, 2.0])
    y3 = np.array([0.0, 0.7, -1.0, 2.0, 0.3])
    gap = dt.boundary_value_batch(y2, y3) - dm.DomainD0().boundary_value_batch(y2, y3)
    # slack for the rounding of boundary values up to 5
    assert np.all(np.abs(gap + t * y2 ** 3 / 3) <= t * t * y2 ** 4 + 1e-14)
    assert abs(dt.boundary_value(0.5, 0.0) - 0.125) <= t


def test_dt_boundary_matches_series_across_the_switch():
    # psi(u) = sum (-u)^k / (k + 2); 60 terms are exact to rounding for
    # |u| <= 0.4, and the closed form is good to 2 eps/|u| past the switch
    t = 0.1
    y2 = np.linspace(-4.0, 4.0, 801)
    series = sum((-t * y2) ** k / (k + 2) for k in range(60))
    expected = 0.5 * 0.09 + y2 ** 2 * series
    got = dm.DomainDt(t).boundary_value_batch(y2, np.full_like(y2, 0.3))
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)
