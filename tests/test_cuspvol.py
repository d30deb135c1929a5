import math
from dataclasses import replace

import numpy as np
import pytest

from convexcusp import cuspvol as cv, fig8, hilbert as hb
from convexcusp.domains import DomainDPrime, VerticalShiftDomain, write_curve_svg

S_REF = math.log(16)
B_REF = S_REF * fig8.meridian_translation(S_REF)
FD_REF = cv.CuspFundamentalDomain(floor=1.0, dilation=S_REF, translation=B_REF)
FAST_Q = hb.QuadratureSpec(sphere_nodes=578, grid_shape=(6, 5, 5))


# ---------------------------------------------------------------------------
# directional norms


def test_direction_norms_at_reference_point():
    n = cv.direction_norms((2.0, 1.0, 0.0))
    assert n.norm_e2 == pytest.approx(1.0 / (1.0 - math.exp(-2)), abs=1e-15)
    assert n.norm_e1 == pytest.approx(0.5, abs=1e-15)
    assert n.norm_e3 == pytest.approx(1.0, abs=1e-15)
    assert (n.k1, n.k2, n.k3) == (math.exp(-2.0), 0.0, 2.0)


def test_direction_norms_vertical_decay():
    values = [cv.direction_norms((x1, 1.0, 0.0)).norm_e1 for x1 in (1e2, 1e3, 1e4)]
    for x1, v in zip((1e2, 1e3, 1e4), values):
        assert v == pytest.approx(1.0 / x1, rel=1e-10)


def test_direction_norms_match_engine():
    dp = DomainDPrime()
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = np.array([rng.uniform(1.0, 5.0), rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)])
        x[0] += max(0.0, 0.5 * x[2] ** 2 - math.log(x[1]))
        n = cv.direction_norms(x)
        for v, ref in ((np.eye(3)[1], n.norm_e2), (np.eye(3)[0], n.norm_e1), (np.eye(3)[2], n.norm_e3)):
            assert hb.finsler_norm(dp, x, v) == pytest.approx(ref, abs=1e-9 * max(1.0, ref))


def test_direction_norms_reject_exterior():
    with pytest.raises(ValueError):
        cv.direction_norms((0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        cv.direction_norms((1.0, -1.0, 0.0))


# ---------------------------------------------------------------------------
# the unit-ball lower bound


def test_proof_threshold_recorded():
    N = cv.proof_threshold(FD_REF)
    assert N in {10.0 ** k for k in range(0, 9)}


def test_lower_bound_requires_height():
    with pytest.raises(ValueError):
        cv.lower_bound_check((5.0, 1.0, 0.0), FAST_Q, threshold=10.0)


@pytest.mark.parametrize("x1", [1e2, 1e3, 1e4])
def test_lower_bound_positive_margin(x1):
    chk = cv.lower_bound_check((x1, 1.0, 0.0), FAST_Q, threshold=10.0)
    assert chk.margin > 0
    assert chk.bound == pytest.approx(chk.constant * x1 ** 1.5)


def test_ball_volume_growth_exponent():
    vols = [
        cv.lower_bound_check((x1, 1.0, 0.0), FAST_Q, threshold=10.0).ball_volume
        for x1 in (1e2, 1e3, 1e4)
    ]
    logs = np.log(vols)
    slope = np.polyfit(np.log([1e2, 1e3, 1e4]), logs, 1)[0]
    assert slope >= 1.4


# ---------------------------------------------------------------------------
# volume tables


def test_volume_table_monotone_with_tail_ratios():
    rows = cv.cusp_volume_table(FD_REF, [10, 20, 40, 80], FAST_Q, method="grid")
    estimates = [r["estimate"] for r in rows]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    ratios = [r["increment_ratio"] for r in rows[2:]]
    assert all(0.5 <= r <= 0.9 for r in ratios)


def test_volume_table_against_profile_reduction():
    # independent route: the density is g(kappa)/x2 along horospheres, so
    # the shell integral reduces to a 1-D profile integral
    q = hb.QuadratureSpec(sphere_nodes=1152)
    dp = DomainDPrime()
    ks = np.geomspace(0.05, 25.0, 120)
    g = np.array([hb.busemann_density(dp, [kv, 1.0, 0.0], q, check=False) for kv in ks])
    from numpy.polynomial.legendre import leggauss

    def reduced_shell(lo_x1, hi_x1, n2=40, n3=16, nu=60):
        x2n, w2 = leggauss(n2)
        x3n, w3 = leggauss(n3)
        un, wu = leggauss(nu)
        lo2, hi2 = FD_REF.x2_range
        lo3, hi3 = FD_REF.x3_range
        x2 = 0.5 * (hi2 - lo2) * x2n + 0.5 * (hi2 + lo2)
        ww2 = 0.5 * (hi2 - lo2) * w2
        x3 = 0.5 * (hi3 - lo3) * x3n + 0.5 * (hi3 + lo3)
        ww3 = 0.5 * (hi3 - lo3) * w3
        total = 0.0
        for a2, wa2 in zip(x2, ww2):
            for a3, wa3 in zip(x3, ww3):
                F = 0.5 * a3 ** 2 - math.log(a2)
                lo = max(lo_x1, F + FD_REF.floor) - F
                hi = hi_x1 - F
                if hi <= lo:
                    continue
                u = 0.5 * (hi - lo) * un + 0.5 * (hi + lo)
                ww = 0.5 * (hi - lo) * wu
                total += wa2 * wa3 * float(np.sum(ww * np.interp(u, ks, g))) / a2
        return total

    rows = cv.cusp_volume_table(FD_REF, [10.0, 20.0], hb.QuadratureSpec(sphere_nodes=578, grid_shape=(10, 8, 8)), method="grid")
    oracle_10 = reduced_shell(0.0, 10.0)
    oracle_20 = oracle_10 + reduced_shell(10.0, 20.0)
    assert rows[0]["estimate"] == pytest.approx(oracle_10, rel=0.02)
    assert rows[1]["estimate"] == pytest.approx(oracle_20, rel=0.02)


def test_volume_table_empty_rectangle():
    empty = cv.CuspFundamentalDomain(floor=1.0, dilation=S_REF, translation=0.0)
    rows = cv.cusp_volume_table(empty, [10, 20], FAST_Q, method="grid")
    assert all(r["estimate"] == 0.0 for r in rows)


def test_volume_tail_bound_consistency():
    rows = cv.cusp_volume_table(FD_REF, [10, 20, 40, 80, 160, 320], FAST_Q, method="grid")
    incs = [r["increment"] for r in rows]
    for i in range(2, 4):
        observed_tail = sum(incs[i:])
        geometric = incs[i] / (1 - 2 ** -0.5)
        assert observed_tail < 3 * geometric


def test_mc_stderr_halves_with_quadrupled_samples():
    fd = cv.CuspFundamentalDomain(floor=1.0, dilation=S_REF, translation=B_REF)
    q1 = hb.QuadratureSpec(sphere_nodes=288, mc_samples=400, seed=2)
    q2 = hb.QuadratureSpec(sphere_nodes=288, mc_samples=1600, seed=2)
    r1 = cv.cusp_volume_table(fd, [8.0], q1, method="mc")[0]
    r2 = cv.cusp_volume_table(fd, [8.0], q2, method="mc")[0]
    ratio = r1["stderr"] / r2["stderr"]
    assert 1.0 <= ratio <= 4.0


def test_volume_comparison_inequality():
    # the same set measured inside a strictly larger ambient domain is smaller
    region = FD_REF.shell(2.0, 6.0)
    inner = hb.busemann_volume(region, FAST_Q, method="grid").estimate
    bigger = VerticalShiftDomain(DomainDPrime(), -0.5)
    region_big = hb.Region(bigger, region.x2_range, region.x3_range, region.x1_range, floor_level=None)
    outer = hb.busemann_volume(region_big, FAST_Q, method="grid").estimate
    assert outer < inner


# ---------------------------------------------------------------------------
# batched integrators against a point-by-point reference


def _scalar_density_and_gap(dom, pt, q):
    fine = hb.unit_ball_lebesgue(dom, pt, q, check=False)
    coarse = hb.unit_ball_lebesgue(dom, pt, replace(q, sphere_nodes=q.sphere_nodes // 4), check=False)
    return hb.busemann_density(dom, pt, q, check=False), abs(fine - coarse) / fine


def _reference_grid(region, q, shape):
    # the grid integrator written out one density at a time
    n1, n2, n3 = shape
    x1n, w1 = np.polynomial.legendre.leggauss(n1)
    x2n, w2 = np.polynomial.legendre.leggauss(n2)
    x3n, w3 = np.polynomial.legendre.leggauss(n3)
    (a2, b2), (a3, b3) = region.x2_range, region.x3_range
    dom = region.domain
    total, gap = 0.0, 0.0
    for y2, v2 in zip(0.5 * (b2 - a2) * x2n + 0.5 * (a2 + b2), 0.5 * (b2 - a2) * w2):
        for y3, v3 in zip(0.5 * (b3 - a3) * x3n + 0.5 * (a3 + b3), 0.5 * (b3 - a3) * w3):
            h = float(dom.boundary_value_batch(np.array([y2]), np.array([y3]))[0])
            lo = max(region.x1_range[0], h + region.floor_level)
            hi = region.x1_range[1]
            if hi <= lo:
                continue
            top = math.log1p(hi - lo)
            for u, vu in zip(0.5 * top * x1n + 0.5 * top, 0.5 * top * w1):
                rho, g = _scalar_density_and_gap(dom, np.array([lo + math.expm1(u), y2, y3]), q)
                total += v2 * v3 * vu * math.exp(u) * rho
                gap = max(gap, g)
    return total, gap


def test_grid_volume_matches_scalar_reference():
    region = FD_REF.shell(2.0, 6.0)
    est = hb.busemann_volume(region, FAST_Q, method="grid")
    fine, fine_gap = _reference_grid(region, FAST_Q, FAST_Q.grid_shape)
    coarse, coarse_gap = _reference_grid(region, FAST_Q, tuple(max(2, s // 2) for s in FAST_Q.grid_shape))
    assert est.estimate == fine
    assert est.stderr == abs(fine - coarse)
    assert est.quad_gap == max(fine_gap, coarse_gap) > 0.0


def test_mc_volume_matches_scalar_reference():
    region = FD_REF.shell(2.0, 6.0)
    q = replace(FAST_Q, mc_samples=60, seed=4)
    est = hb.busemann_volume(region, q, method="mc")
    rng = np.random.Generator(np.random.Philox(q.seed))
    lo = np.array([region.x1_range[0], region.x2_range[0], region.x3_range[0]])
    hi = np.array([region.x1_range[1], region.x2_range[1], region.x3_range[1]])
    pts = lo + rng.random((q.mc_samples, 3)) * (hi - lo)
    vals = np.zeros(q.mc_samples)
    gap = 0.0
    for i in np.flatnonzero(region.mask(pts)):
        vals[i], g = _scalar_density_and_gap(region.domain, pts[i], q)
        gap = max(gap, g)
    box = region.box_volume()
    assert est.estimate == box * float(np.mean(vals))
    assert est.stderr == box * float(np.std(vals) / math.sqrt(q.mc_samples))
    assert est.quad_gap == gap > 0.0


def test_volume_table_reports_worst_quad_gap():
    q = replace(FAST_Q, sphere_nodes=128, grid_shape=(4, 3, 3))
    rows = cv.cusp_volume_table(FD_REF, [4.0, 8.0], q, method="grid")
    shells = [hb.busemann_volume(FD_REF.shell(lo, hi), q, method="grid") for lo, hi in ((0.0, 4.0), (4.0, 8.0))]
    assert rows[0]["quad_gap"] == shells[0].quad_gap
    assert rows[1]["quad_gap"] == max(s.quad_gap for s in shells)


# ---------------------------------------------------------------------------
# displacement profiles


def test_displacement_strictly_decreasing():
    prof = cv.displacement_profile(S_REF, B_REF, [1, 2, 4, 8, 16], ambient_level=0.5)
    assert all(b < a for a, b in zip(prof.displacements, prof.displacements[1:]))


def test_displacement_constancy_along_horosphere():
    prof = cv.displacement_profile(S_REF, B_REF, [1, 2, 4], ambient_level=0.5)
    assert prof.constancy_spread <= 1e-9


def test_displacement_matches_closed_form():
    # independent derivation: the chord through z and its translate exits
    # the shifted boundary where a quadratic vanishes, giving
    # d = 2 log((D+1)/(D-1)), D = sqrt(1 + 8 (level - ambient)/b^2)
    amb = 0.5
    prof = cv.displacement_profile(S_REF, B_REF, [1, 2, 4, 8], ambient_level=amb)
    for lev, d in zip(prof.levels, prof.displacements):
        D = math.sqrt(1 + 8 * (lev - amb) / B_REF ** 2)
        expected = 2 * math.log((D + 1) / (D - 1))
        assert d == pytest.approx(expected, abs=1e-9)


def test_displacement_closed_form_to_rounding():
    # Newton exits are exact to rounding, so the profile and its spread
    # along the horosphere are too (the chord bisection gave 4e-12)
    amb = 0.95
    prof = cv.displacement_profile(S_REF, B_REF, [2.0 ** k for k in range(11)], ambient_level=amb)
    for lev, d in zip(prof.levels, prof.displacements):
        D = math.sqrt(1 + 8 * (lev - amb) / B_REF ** 2)
        assert d == pytest.approx(2 * math.log((D + 1) / (D - 1)), abs=1e-12)
    assert prof.constancy_spread <= 1e-12


def test_displacement_tends_to_zero():
    levels = [2.0 ** k for k in range(11)]
    prof = cv.displacement_profile(S_REF, B_REF, levels, ambient_level=0.95)
    assert prof.displacements[-1] < 0.01 * prof.displacements[0]


def test_displacement_level_ordering_enforced():
    with pytest.raises(ValueError):
        cv.displacement_profile(S_REF, B_REF, [2, 1, 4])
    with pytest.raises(ValueError):
        cv.displacement_profile(S_REF, B_REF, [1, 2], ambient_level=1.5)


def test_displacement_accepts_matrix_meridian():
    from convexcusp.cusplie import LieAlgElem, group_exp
    from convexcusp.projlin import to_float

    mat = to_float(group_exp(LieAlgElem("LPrime", (0.0, B_REF))))
    p1 = cv.displacement_profile(S_REF, mat, [1, 2], ambient_level=0.5)
    p2 = cv.displacement_profile(S_REF, B_REF, [1, 2], ambient_level=0.5)
    assert p1.displacements == pytest.approx(p2.displacements, abs=1e-12)


# ---------------------------------------------------------------------------
# tiling and reports


def test_fundamental_rectangle_tiles_base():
    assert cv.tiling_overlap_fraction(FD_REF, n_samples=10_000, seed=1) < 1e-3


def test_volume_csv_and_svg(tmp_path):
    rows = cv.cusp_volume_table(FD_REF, [10, 20], FAST_Q, method="grid")
    csv_path = cv.write_volume_table_csv(tmp_path / "vol.csv", rows)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "cutoff,estimate,stderr,increment_ratio"
    assert len(lines) == 3
    svg_path = write_curve_svg(tmp_path / "vol.svg", [r["cutoff"] for r in rows], [r["estimate"] for r in rows])
    assert open(svg_path).read().startswith("<svg")


def test_displacement_csv(tmp_path):
    prof = cv.displacement_profile(S_REF, B_REF, [1, 2], ambient_level=0.5)
    path = cv.write_displacement_csv(tmp_path / "d.csv", prof)
    lines = open(path).read().splitlines()
    assert lines[0] == "level,displacement" and len(lines) == 3
