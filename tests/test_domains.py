import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import domains as dm, projlin as pl
from convexcusp.cusplie import LieAlgElem, alg_matrix
from test_projlin import canonical_point


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


def _height(dom, x2, x3):
    """The boundary height over one base point, from a one-point batch."""
    return float(dom.boundary_value_batch(np.array([x2], dtype=float), np.array([x3], dtype=float))[0])


def test_boundary_values(d0, dprime):
    assert _height(d0, 2.0, 0.0) == 2.0
    assert _height(dprime, 1.0, 0.0) == 0.0
    assert abs(_height(dprime, math.e, 2.0) - 1.0) < 1e-12


@pytest.mark.parametrize("dom", [dm.DomainDt(1e-10), dm.DomainDt(0.2), dm.DomainD0()], ids=["Dt(1e-10)", "Dt(0.2)", "D0"])
def test_boundary_value_of_a_0d_point_is_that_of_the_one_point_batch(dom):
    # 0-d input takes the psi series as an array does: at t = 1e-10 the
    # plain quotient read 0.12499991525 at (0.5, 0), 8.5e-8 off 1/8
    for b2, b3 in ((0.5, 0.0), (-1.5, 0.3), (2.0, -1.0), (0.0, 0.0)):
        value = dom.boundary_value_batch(b2, b3)
        assert np.ndim(value) == 0
        assert float(value) == _height(dom, b2, b3)
    if dom.t == 1e-10:
        assert abs(float(dom.boundary_value_batch(0.5, 0.0)) - 0.125) <= 1e-10


def test_boundary_value_outside_base(dprime):
    assert not dprime.base_contains_batch(-1.0, 0.0)


def test_dt_base_violation():
    dt = dm.DomainDt(0.5)
    assert not dt.base_contains_batch(-3.0, 0.0)


def test_dt_base_for_negative_t():
    # the base 1 + t y2 > 0 is the half plane y2 < -1/t = 2 at t = -1/2
    dt = dm.DomainDt(-0.5)
    assert not dt.base_contains_batch(3.0, 0.0)
    assert abs(_height(dt, 1.0, 0.0) - 4 * (math.log(2) - 0.5)) <= 1e-15
    # (1, 1, 0) pulls back to (3/4, 1/2, 0), inside DPrime
    assert dt.contains([1.0, 1.0, 0.0])
    assert not dt.contains([0.7, 1.0, 0.0])
    assert not dt.contains([100.0, 3.0, 0.0])


# ---------------------------------------------------------------------------
# chords


def test_vertical_chord_of_paraboloid(d0):
    (tm,), (tp,) = d0.chord_taus([1, 0, 0], [1, 0, 0])
    assert tp == np.inf
    assert np.allclose(np.array([1, 0, 0]) + tm * np.array([1, 0, 0]), [0, 0, 0], atol=1e-11)


def test_chord_log_direction(dprime):
    (tm,), (tp,) = dprime.chord_taus([2, 1, 0], [0, 1, 0])
    assert tp == np.inf
    assert abs(1 + tm - math.exp(-2)) <= 1e-11


def test_chord_symmetric_direction(dprime):
    (tm,), (tp,) = dprime.chord_taus([2, 1, 0], [0, 0, 1])
    assert abs(tm + 2.0) <= 1e-11
    assert abs(tp - 2.0) <= 1e-11


def test_chord_requires_interior(dprime):
    with pytest.raises(ValueError):
        dprime.chord_taus([-1, 1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        dprime.chord_taus([2, 1, 0], [0, 0, 0])


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
    # the affine point (0, 1, 0) in homogeneous coordinates [0:1:0:1]
    image = V @ np.array([Fraction(0), Fraction(1), Fraction(0), Fraction(1)], dtype=object)
    assert list(canonical_point(image)) == [0, 0, 0, 1]


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
        assert abs(_height(dt, y2, y3) - closed) <= 1e-10


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
        f = lambda a, b: _height(dt, a, b)
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
    base = np.array([_height(dprime, 1.0, 0.0) + kappa, 1.0, 0.0])
    img = pl.apply_affine_batch(g, base[None, :])[0]
    assert abs(img[0] - (_height(dprime, img[1], img[2]) + kappa)) <= 1e-12


# ---------------------------------------------------------------------------
# descriptors and exports


def test_descriptor_round_trip():
    for desc in ({"family": "D0"}, {"family": "DPrime"}, {"family": "Dt", "t": 0.25}):
        dom = dm.domain_from_descriptor(desc)
        assert dom.family == desc["family"] and dom.t == desc.get("t", dom.t)
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
# the chord solvers against the membership bisection

#: the bisection's doubling bracket gives up and declares an end ideal
#: beyond this; the last point it tests is the solvers' ideal probe
IDEAL_CUTOFF = 1e9


def _bisection_exit(dom, X, V, tol):
    """Exit parameters tau > 0 of rays X + tau*V (inf when ideal), by
    geometric bracketing and bisection on ``dom.contains_batch``: the
    reference for the closed-form and Newton exits."""
    n = X.shape[0]
    t_lo = np.zeros(n)
    t_hi = np.ones(n)
    ideal = np.zeros(n, dtype=bool)
    # bracket by doubling
    for _ in range(64):
        pts = X + t_hi[:, None] * V
        if not np.isfinite(pts).all():
            bad = ~np.isfinite(pts).all(axis=1)
            raise dm.UnboundedSearchError(V[np.argmax(bad)])
        inside = dom.contains_batch(pts)
        grow = inside & ~ideal
        if not grow.any():
            break
        t_lo[grow] = t_hi[grow]
        t_hi[grow] *= 2.0
        ideal |= grow & (t_hi >= IDEAL_CUTOFF)
    else:
        raise dm.UnboundedSearchError(V[0])
    active = ~ideal
    # bisect: t_lo inside, t_hi outside
    for _ in range(200):
        width = t_hi - t_lo
        live = active & (width > np.maximum(tol, 4 * np.spacing(t_hi)))
        if not live.any():
            break
        mid = 0.5 * (t_lo + t_hi)
        pts = X + mid[:, None] * V
        inside = dom.contains_batch(pts)
        t_lo = np.where(live & inside, mid, t_lo)
        t_hi = np.where(live & ~inside, mid, t_hi)
    out = 0.5 * (t_lo + t_hi)
    out[ideal] = np.inf
    return out


def _assert_exits_match_bisection(dom, X, V):
    """Both directions of every ray against the bisection, within
    1e-9 max(1, tau); returns the exits."""
    X, V = np.concatenate([X, X]), np.concatenate([V, -V])
    exits = dom._ray_exit(X, V)
    bisect = _bisection_exit(dom, X, V, dm.CHORD_TOL)
    assert np.array_equal(np.isinf(exits), np.isinf(bisect))
    fin = np.isfinite(bisect)
    assert np.all(np.abs(exits[fin] - bisect[fin]) <= 1e-9 * np.maximum(1.0, bisect[fin]))
    return exits


def test_bisection_last_probe_is_the_ideal_probe():
    assert dm.IDEAL_PROBE == 2.0 ** 29 < IDEAL_CUTOFF <= 2.0 * dm.IDEAL_PROBE


def _adversarial_rays(dom, rng, n=4000):
    """Seeded hard rays: points from 1e-8 to 1e3 above the boundary,
    nearly horizontal x3 slopes, rays driven into the base edge (steeply
    down in x2 for D0, which has none) and rays whose exit lies near the
    ideal probe."""
    if isinstance(dom, dm.DomainDt):
        # the edge -1/t of the base lies on the side of -t
        lo2, hi2, down = -0.9 / dom.t, 3.0 * np.sign(dom.t), -np.sign(dom.t)
    else:
        lo2, hi2, down = (-3.0, 3.0, -1.0) if dom.t == 0 else (1e-3, 3.0, -1.0)
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
    if dom.t == 0:
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
        dm.VerticalShiftDomain(dm.DomainD0(), 0.5),
        dm.VerticalShiftDomain(dm.DomainD0(), -0.5),
    ],
    ids=["DPrime", "Dt(0.5)", "Dt(2)", "DPrime+0.5", "Dt(-0.5)", "D0", "D0+0.5", "D0-0.5"],
)
def test_newton_exits_match_bisection(dom):
    rng = np.random.default_rng(41)
    X, V = _adversarial_rays(dom, rng)
    assert dom.contains_batch(X).all()
    exits = _assert_exits_match_bisection(dom, X, V)
    # the set reaches ideal ends, exits near the ideal probe and exits
    # within 1e-6 of the base point
    assert np.isinf(exits).any()
    assert np.any(np.isfinite(exits) & (exits > 1e8)) and np.any(exits < 1e-6)


def _probe_rule_exit(dom, X, V, tol):
    """The exits of ``_ray_exit`` under the ideal rule it replaced: every
    ray is tested at the ideal probe, and one still inside there is
    ideal; the others are solved as ``_ray_exit`` solves them."""
    out = np.full(len(X), np.inf)
    rows = np.flatnonzero(~dom.contains_batch(X + dm.IDEAL_PROBE * V))
    t = float(dom.t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if t == 0:
            (y1, y2, y3), (d1, d2, d3) = dom._to_family(X[rows], V[rows])
            tau = dm._positive_root(y1 - 0.5 * (y2 * y2 + y3 * y3), d1 - (y2 * d2 + y3 * d3), 0.5 * (d2 * d2 + d3 * d3))
            assert np.isfinite(tau).all()
            out[rows] = np.fmin(tau, dm.IDEAL_PROBE)
            return out
        ray, cap = dm._ray_rows(t, *dom._to_family(X[rows], V[rows]))
        tau = dm._ray_start(t, ray, cap)
        for _ in range(dm.NEWTON_MAX_STEPS):
            if not len(rows):
                return out
            step = dm._newton_step(t, ray, tau)
            keep = step > np.maximum(0.5 * tol, dm._four_ulp(tau))
            tau = tau - np.maximum(step, 0.0)
            out[rows] = tau
            rows, tau, ray = rows[keep], tau[keep], [r[keep] for r in ray]
    raise AssertionError("Newton iteration did not converge")


@pytest.mark.parametrize(
    "dom",
    [
        dm.DomainD0(),
        dm.DomainDPrime(),
        dm.DomainDt(0.2),
        dm.DomainDt(2.0),
        dm.DomainDt(-0.3),
        dm.VerticalShiftDomain(dm.DomainDPrime(), 0.7),
        dm.VerticalShiftDomain(dm.DomainD0(), -0.5),
    ],
    ids=["D0", "DPrime", "Dt(0.2)", "Dt(2)", "Dt(-0.3)", "DPrime+0.7", "D0-0.5"],
)
def test_recession_cone_exits_match_the_probe_rule(dom):
    # the recession cone decides the exact ideal directions (e1, and e2
    # and e1 + e2 where the member's t > 0) without a probe, and the
    # probe still decides near-ideal ones, whose start is clipped to it
    rng = np.random.default_rng(67)
    X, _ = _adversarial_rays(dom, rng, n=6000)
    V = rng.normal(size=(6000, 3))
    special = np.array(
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1e-9, 0], [1, 1e-9, 0], [1, 1, 1e-7], [1, 1e-7, 0], [0, 1, 1e-7], [1, 2, 0], [2, 1, 0]]
    )
    V[:2000] = special[rng.integers(0, len(special), 2000)] * rng.choice([-1.0, 1.0], (2000, 1))
    V[2000:4000] *= np.where(rng.random((2000, 3)) < 0.5, 1e-7, 1.0)
    # member directions (1, t (1 + delta), 0) on, just inside and just
    # outside the edge t d1 = d2 of the recession cone
    edge = np.array([[1.0, dom.t * (1.0 + delta), 0.0] for delta in (0.0, -1e-6, 1e-6)])
    if dom.family == "DPrime":
        edge[:, 0] -= edge[:, 1]
    V[4000:4300] = np.repeat(edge, 100, axis=0)
    V /= np.linalg.norm(V, axis=1)[:, None]
    exits = dom._ray_exit(X, V)
    assert np.array_equal(exits, _probe_rule_exit(dom, X, V, dm.CHORD_TOL))
    assert np.isinf(exits[:2000]).any() and np.isinf(exits[2000:]).any() and np.any(np.isfinite(exits) & (exits > 1e8))


@pytest.mark.parametrize("shift", [0.0, 0.5, -0.5])
def test_d0_exits_on_vertical_rays(shift):
    # up is ideal, and down meets the boundary at the shifted height
    dom = dm.VerticalShiftDomain(dm.DomainD0(), shift)
    rng = np.random.default_rng(43)
    b2, b3 = rng.uniform(-3.0, 3.0, (2, 200))
    height = 10 ** rng.uniform(-12, 8, 200)
    X = np.column_stack([dom.boundary_value_batch(b2, b3) + height, b2, b3])
    V = np.tile([1.0, 0.0, 0.0], (200, 1))
    exits = _assert_exits_match_bisection(dom, X, V)
    assert np.isinf(exits[:200]).all()
    assert np.all(np.abs(exits[200:] - height) <= 1e-15 * np.maximum(1.0, X[:, 0]))


def _ball_rays(rng, n=2000):
    """Seeded points from 1e-12 to 1 below the unit sphere with random,
    near-tangent and radial rays; radial rays from the shell have
    b = X.V far above sqrt(c), c = 1 - |X|^2."""
    P = rng.normal(size=(n, 3))
    P /= np.linalg.norm(P, axis=1)[:, None]
    X = P * (1.0 - 10 ** rng.uniform(-12, 0, n))[:, None]
    V = rng.normal(size=(n, 3))
    kind = rng.integers(0, 3, n)
    tangent = kind == 1
    T = np.cross(P[tangent], rng.normal(size=(tangent.sum(), 3)))
    V[tangent] = T / np.linalg.norm(T, axis=1)[:, None] + 10 ** rng.uniform(-12, -3, (tangent.sum(), 1)) * P[tangent]
    V[kind == 2] = P[kind == 2]
    return X, V / np.linalg.norm(V, axis=1)[:, None]


def test_ball_exits_match_bisection():
    ball = dm.BallDomain()
    X, V = _ball_rays(np.random.default_rng(47))
    assert ball.contains_batch(X).all()
    exits = _assert_exits_match_bisection(ball, X, V)
    assert np.isfinite(exits).all()
    # exits within 1e-11 of the base point and across the whole chord
    assert np.any(exits < 1e-11) and np.any(exits > 1.999)
    b = np.einsum("ij,ij->i", X, V)
    assert np.any(b * b > 1e10 * (1.0 - np.einsum("ij,ij->i", X, X)))


def test_ball_exits_do_not_cancel():
    # on an axis at 1 - 2^-k, k <= 26, |x|^2 and c = 1 - |x|^2 are exact, so
    # the exit of a nearly radial ray, about c/2, is accurate to rounding;
    # (sqrt(b^2 + a c) - b)/a would lose about eps/c of it
    rng = np.random.default_rng(53)
    n = 300
    X = np.zeros((n, 3))
    X[np.arange(n), rng.integers(0, 3, n)] = rng.choice([-1.0, 1.0], n) * (1.0 - 2.0 ** -rng.integers(20, 27, n))
    V = X + 10 ** rng.uniform(-6, -2, (n, 1)) * rng.normal(size=(n, 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    exits = dm.BallDomain()._ray_exit(X, V)
    with localcontext() as ctx:
        ctx.prec = 60
        for x, v, tau in zip(X.tolist(), V.tolist(), exits.tolist()):
            x, v = [Decimal(e) for e in x], [Decimal(e) for e in v]
            a, b = sum(e * e for e in v), sum(p * q for p, q in zip(x, v))
            c = 1 - sum(e * e for e in x)
            exact = c / (b + (b * b + a * c).sqrt())
            assert abs(Decimal(tau) - exact) <= Decimal(1e-14) * exact


def test_ball_exits_are_the_closed_form_bit_for_bit():
    # _positive_root(c, -2b, a) scales the root and both branches by 2
    # exactly, so it reads the bits of the closed form it replaced, on rays
    # near the boundary, rays at the centre and rays pointing at it
    rng = np.random.default_rng(71)
    n = 4000
    radius = np.where(rng.random(n) < 0.5, rng.uniform(0, 1, n) ** (1 / 3), 1 - 10.0 ** -rng.integers(1, 17, n))
    X = rng.normal(size=(n, 3))
    X *= (radius / np.linalg.norm(X, axis=1))[:, None]
    X[:100] = 0.0
    V = rng.normal(size=(n, 3)) * 10 ** rng.uniform(-3, 3, (n, 1))
    V[100:400] = -X[100:400] * rng.uniform(0.1, 10, (300, 1))
    inside = dm.BallDomain().contains_batch(X)
    X, V = X[inside], V[inside]
    b, a = np.einsum("ij,ij->i", X, V), np.einsum("ij,ij->i", V, V)
    c = 1.0 - np.einsum("ij,ij->i", X, X)
    root = np.sqrt(b * b + a * c)
    # b + root is 0 on inward rays where a c << b^2, in the branch np.where drops
    with np.errstate(divide="ignore"):
        closed = np.where(b > 0, c / (b + root), (root - b) / a)
    assert np.any((b < 0) & (b + root == 0))
    exits = dm.BallDomain()._ray_exit(X, V)
    assert np.all(np.isfinite(exits)) and np.all(exits > 0) and np.any(b > 0) and np.any(b < 0)
    assert np.array_equal(exits.view(np.int64), closed.view(np.int64))


def _decimal_exit(dom, x, v, tau):
    """The exit of the ray x + s v next to ``tau``, by Newton's method in 60
    digits on the boundary equation of DPrime, x1 - x3^2/2 + log x2 = 0,
    or of the member D_t, y1 - y3^2/2 - (t w - log(1 + t w))/t^2 = 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        (x1, x2, x3), (v1, v2, v3) = [Decimal(e) for e in x], [Decimal(e) for e in v]
        t = Decimal(float(dom.t))

        def g(s):
            z, w = x3 + s * v3, x2 + s * v2
            if dom.family == "DPrime":
                return x1 + s * v1 - z * z / 2 + w.ln(), v1 - z * v3 + v2 / w
            return x1 + s * v1 - z * z / 2 - (t * w - (1 + t * w).ln()) / (t * t), v1 - z * v3 - v2 * w / (1 + t * w)

        s = Decimal(tau)
        for _ in range(30):
            f, df = g(s)
            s -= f / df
            if abs(f / df) <= Decimal(10) ** -50:
                return s
    raise AssertionError(f"no 60-digit root next to {tau}")


@pytest.mark.parametrize("dom", [dm.DomainDPrime(), dm.DomainDt(0.2), dm.DomainDt(2.0)], ids=["DPrime", "Dt(0.2)", "Dt(2)"])
def test_short_newton_exits_against_decimal_roots(dom):
    # y2 = 0 in the family coordinates (x2 = 1 in DPrime, 0 in Dt) puts the
    # boundary at x3^2/2, so these points lie exactly 2^-k above it, and the
    # downward rays from them exit after about 2^-k.  s - 1 is carried, not
    # s, so the exits are accurate relative to themselves (8.5e-16 at
    # worst), on the log branch and on the edge branch (v2 < 0) alike
    x2 = 1.0 if dom.family == "DPrime" else 0.0
    rays = np.array([[-1.0, 0.0, 0.0], [-1.0, 0.5, 0.0], [-1.0, -0.5, 0.25], [-1.0, 0.25, -0.3], [-2.0, -0.125, 0.5]])
    for k in range(20, 41):
        for x3 in (0.0, 0.5, -1.25):
            x = np.array([0.5 * x3 * x3 + 2.0 ** -k, x2, x3])
            for v, tau in zip(rays.tolist(), dom.chord_taus(x, rays)[1].tolist()):
                exact = _decimal_exit(dom, x.tolist(), v, tau)
                assert abs(Decimal(tau) - exact) <= Decimal(1e-14) * exact


@pytest.mark.parametrize("dom", [dm.BallDomain(), dm.DomainD0(), dm.DomainDPrime()], ids=["Ball", "D0", "DPrime"])
def test_chord_taus_shares_each_base_point_with_its_run(dom):
    # m points with N = 3 m directions: the same as each point repeated
    # three times, and N not a multiple of m is refused
    x = np.array([[0.1, 0.2, -0.3], [0.0, 0.5, 0.1]]) + (0.0 if dom.family == "Ball" else [2.0, 1.0, 0.0])
    dirs = np.random.default_rng(49).normal(size=(6, 3))
    runs = dom.chord_taus(x, dirs)
    repeated = dom.chord_taus(np.repeat(x, 3, axis=0), dirs)
    assert all(np.array_equal(a, b) for a, b in zip(runs, repeated))
    with pytest.raises(ValueError):
        dom.chord_taus(x, dirs[:5])
    with pytest.raises(ValueError):
        dom.chord_taus(np.empty((0, 3)), dirs)
    assert all(len(a) == 0 for a in dom.chord_taus(np.empty((0, 3)), np.empty((0, 3))))
    # a non-finite point is reported before a zero direction
    x[1, 0] = np.nan
    dirs[0] = 0.0
    with pytest.raises(dm.UnboundedSearchError):
        dom.chord_taus(x, dirs)


@pytest.mark.parametrize(
    "dom",
    [
        dm.BallDomain(),
        dm.DomainD0(),
        dm.VerticalShiftDomain(dm.DomainD0(), 1.0),
        dm.DomainDPrime(),
        dm.DomainDt(0.2),
        dm.DomainDt(2.0),
        dm.DomainDt(-0.3),
    ],
    ids=["Ball", "D0", "D0+1", "DPrime", "Dt(0.2)", "Dt(2)", "Dt(-0.3)"],
)
def test_chord_taus_solves_both_exits_of_each_line_in_one_call(dom):
    # the stacked solve of (X, U) over (X, -U) gives the bits of the two
    # directions solved apart, at base points 2^-20 above the boundary
    # and with ideal ends (e1 on the parabolic domains) among the rows
    rng = np.random.default_rng(59)
    if dom.family == "Ball":
        P = rng.normal(size=(4, 3))
        x = P / np.linalg.norm(P, axis=1)[:, None] * np.array([0.0, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -20])[:, None]
    else:
        b2 = np.array([1.0, 0.5, 2.0, 0.25])
        b3 = np.array([0.0, -0.5, 0.75, 1.25])
        x = np.column_stack([dom.boundary_value_batch(b2, b3) + np.array([2.0, 1.0, 2.0 ** -20, 2.0 ** -20]), b2, b3])
    dirs = rng.normal(size=(4 * 50, 3)) * 10 ** rng.uniform(-3, 3, (200, 1))
    dirs[::10] = [3.0, 0.0, 0.0]
    tm, tp = dom.chord_taus(x, dirs)
    X = np.repeat(x, 50, axis=0)
    norms = np.linalg.norm(dirs, axis=1)
    U = dirs / norms[:, None]
    assert np.array_equal(tm, -dom._ray_exit(X, -U) / norms)
    assert np.array_equal(tp, dom._ray_exit(X, U) / norms)
    assert np.any(tp < 1e-5) and np.isinf(tp).any() == (dom.family != "Ball")
    for bad in ([np.inf, 0.0, 0.0], [0.0, np.nan, 1.0]):
        with pytest.raises(dm.UnboundedSearchError):
            dom.chord_taus(x[0], [[1.0, 0.0, 0.0], bad])


def test_newton_rejects_exterior_and_nonfinite_rays(dprime):
    with pytest.raises(ValueError):
        dprime.chord_taus([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        dprime.chord_taus([np.nan, 1.0, 0.0], [[1.0, 0.0, 0.0]])


def test_ball_chords_reject_exterior_and_nonfinite_points():
    # at an exterior point c = 1 - |x|^2 < 0 and the closed form has no
    # meaning, so the base point is checked first
    ball = dm.BallDomain()
    with pytest.raises(ValueError):
        ball.chord_taus([3.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ball.chord_taus([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        ball.chord_taus([np.nan, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        ball.chord_taus([0.0, 0.0, 0.0], [[np.inf, 0.0, 0.0]])


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_d0_chords_reject_exterior_and_nonfinite_points(shift):
    d0 = dm.VerticalShiftDomain(dm.DomainD0(), shift)
    with pytest.raises(ValueError):
        d0.chord_taus([shift - 1.0, 0.0, 0.0], [[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        d0.chord_taus([[shift + 1.0, 0.0, 0.0], [shift + 0.5, 1.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        d0.chord_taus([np.nan, 0.0, 0.0], [[0.0, 1.0, 0.0]])
    with pytest.raises(dm.UnboundedSearchError):
        d0.chord_taus([shift + 1.0, 0.0, 0.0], [[0.0, np.inf, 0.0]])


@pytest.mark.parametrize("t", [10.0 ** -k for k in range(3, 11)])
def test_dt_boundary_tends_to_d0(t):
    # h_t - h_0 = y2^2 (psi(t y2) - 1/2) = -t y2^3/3 + t^2 y2^4/4 - ...
    dt = dm.DomainDt(t)
    y2 = np.array([0.5, -1.5, 3.0, 0.0, 2.0])
    y3 = np.array([0.0, 0.7, -1.0, 2.0, 0.3])
    gap = dt.boundary_value_batch(y2, y3) - dm.DomainD0().boundary_value_batch(y2, y3)
    # slack for the rounding of boundary values up to 5
    assert np.all(np.abs(gap + t * y2 ** 3 / 3) <= t * t * y2 ** 4 + 1e-14)
    assert abs(_height(dt, 0.5, 0.0) - 0.125) <= t


def test_dt_boundary_matches_series_across_the_switch():
    # psi(u) = sum (-u)^k / (k + 2); 60 terms are exact to rounding for
    # |u| <= 0.4, and the closed form is good to 2 eps/|u| past the switch
    t = 0.1
    y2 = np.linspace(-4.0, 4.0, 801)
    series = sum((-t * y2) ** k / (k + 2) for k in range(60))
    expected = 0.5 * 0.09 + y2 ** 2 * series
    got = dm.DomainDt(t).boundary_value_batch(y2, np.full_like(y2, 0.3))
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)


@pytest.mark.parametrize("dom", [dm.DomainD0(), dm.VerticalShiftDomain(dm.DomainD0(), 0.75)], ids=["D0", "D0 horoball"])
def test_quadric_boundary_is_the_psi_route_bit_for_bit(dom):
    # at t = 0 the boundary is the closed form b3^2/2 + b2^2 * 0.5, and
    # psi(0 * b2) = 1/2 exactly, so the psi route gives the same floats
    rng = np.random.default_rng(11)
    mags = np.concatenate([[0.0, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e150], np.exp(rng.uniform(-20, 20, 40))])
    b2 = np.concatenate([mags, -mags])
    b2, b3 = np.repeat(b2, len(b2)), np.tile(b2, len(b2))
    psi_route = 0.5 * b3 ** 2 + b2 ** 2 * dm._psi(0.0 * b2)
    if isinstance(dom, dm.VerticalShiftDomain):
        psi_route = psi_route + dom.shift
    got = dom.boundary_value_batch(b2, b3)
    assert got.tobytes() == psi_route.tobytes()


def test_psi_series_horner_matches_polyval_bit_for_bit():
    # the series is summed in np.polyval's order of operations
    u = np.linspace(-0.25, 0.25, 200_001)[1:-1]
    u = np.concatenate([u, [0.0, -0.0, 1e-300, -1e-300, 0.2499999999999999, -0.2499999999999999]])
    r = u / (2.0 + u)
    expected = 0.5 * (1.0 - r) * (1.0 - (1.0 - r) * r * np.polyval(dm._PSI_SERIES, r * r))
    assert dm._psi_series(u).tobytes() == expected.tobytes()
