import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cli, cuspvol as cv, fig8, hilbert as hb
from convexcusp.domains import DomainDPrime, VerticalShiftDomain, write_curve_svg
import reference_oracles as ro

S_REF = math.log(16)
B_REF = S_REF * ro.meridian_translation(S_REF)
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
    rows = cv.cusp_volume_table(FD_REF, [10, 20, 40, 80], FAST_Q)
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

    rows = cv.cusp_volume_table(FD_REF, [10.0, 20.0], hb.QuadratureSpec(sphere_nodes=578, grid_shape=(10, 8, 8)))
    oracle_10 = reduced_shell(0.0, 10.0)
    oracle_20 = oracle_10 + reduced_shell(10.0, 20.0)
    # measured 9.2e-4 below the oracle at both rows
    assert rows[0]["estimate"] == pytest.approx(oracle_10, rel=2e-3)
    assert rows[1]["estimate"] == pytest.approx(oracle_20, rel=2e-3)


def test_volume_table_empty_rectangle():
    empty = cv.CuspFundamentalDomain(floor=1.0, dilation=S_REF, translation=0.0)
    rows = cv.cusp_volume_table(empty, [10, 20], FAST_Q)
    assert all(r["estimate"] == 0.0 for r in rows)


def test_volume_tail_bound_consistency():
    rows = cv.cusp_volume_table(FD_REF, [10, 20, 40, 80, 160, 320], FAST_Q)
    incs = [r["increment"] for r in rows]
    for i in range(2, 4):
        observed_tail = sum(incs[i:])
        geometric = incs[i] / (1 - 2 ** -0.5)
        assert observed_tail < 3 * geometric


def test_volume_comparison_inequality():
    # the same set measured inside a strictly larger ambient domain is smaller
    region = FD_REF.shell(2.0, 6.0)
    inner = hb.busemann_volume(region, FAST_Q).estimate
    bigger = VerticalShiftDomain(DomainDPrime(), -0.5)
    region_big = hb.Region(bigger, region.x2_range, region.x3_range, region.x1_range, floor_level=None)
    outer = hb.busemann_volume(region_big, FAST_Q).estimate
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
    est = hb.busemann_volume(region, FAST_Q)
    fine, fine_gap = _reference_grid(region, FAST_Q, FAST_Q.grid_shape)
    coarse, coarse_gap = _reference_grid(region, FAST_Q, tuple(max(2, s // 2) for s in FAST_Q.grid_shape))
    assert est.estimate == fine
    assert est.stderr == abs(fine - coarse)
    assert est.quad_gap == max(fine_gap, coarse_gap) > 0.0


def test_volume_table_reports_worst_quad_gap():
    # the worst gap over the table's own nodes: both rules of every shell
    q = replace(FAST_Q, sphere_nodes=128, grid_shape=(4, 3, 3))
    rows = cv.cusp_volume_table(FD_REF, [4.0, 8.0], q)
    shell_gaps = []
    for lo, hi in ((0.0, 4.0), (4.0, 8.0)):
        pts = np.vstack([cv.dilation_nodes(FD_REF, lo, hi, n1, n3)[0] for n1, n3 in ((4, 3), (2, 2))])
        shell_gaps.append(float(np.max(hb.busemann_density(DomainDPrime(), pts, q, check=False, return_gap=True)[1])))
    assert rows[0]["quad_gap"] == shell_gaps[0] > 0.0
    assert rows[1]["quad_gap"] == max(shell_gaps)


# ---------------------------------------------------------------------------
# the dilation integral


@pytest.mark.parametrize("nodes", [128, 2312])
def test_dilation_moves_the_density_along_its_horosphere(nodes):
    # LPrime(a, 0) keeps levels and scales Lebesgue measure by e^a, so
    # rho(x) x2 = rho(x1 + log x2, 1, x3) at random points of the shells
    rng = np.random.default_rng(29)
    x2, x3 = rng.uniform(1.0, math.exp(S_REF), 200), rng.uniform(0.0, B_REF, 200)
    x1 = 0.5 * x3 ** 2 - np.log(x2) + FD_REF.floor + rng.uniform(0.0, 80.0, 200)
    moved = np.column_stack([x1 + np.log(x2), np.ones(200), x3])
    rho = hb.busemann_density(DomainDPrime(), np.vstack([np.column_stack([x1, x2, x3]), moved]),
                              hb.QuadratureSpec(sphere_nodes=nodes), check=False)
    np.testing.assert_allclose(rho[:200] * x2, rho[200:], rtol=1e-14, atol=0)


@pytest.mark.parametrize("rule", [(8, 6), (4, 3)])
@pytest.mark.parametrize("lo, hi", [(10.0, 20.0), (20.0, 40.0), (40.0, 80.0)])
def test_dilation_weights_measure_a_shell_above_the_floor(rule, lo, hi):
    # with rho = 1 the weights integrate dx1 dx2/x2 dx3 over the box, (hi - lo) a b
    pts, w = cv.dilation_nodes(FD_REF, lo, hi, *rule)
    assert math.fsum(w) == pytest.approx((hi - lo) * S_REF * B_REF, rel=1e-10, abs=0)
    assert np.all(w > 0) and np.all(pts[:, 1] == 1.0)
    assert np.all(pts[:, 0] - 0.5 * pts[:, 2] ** 2 >= FD_REF.floor)


@pytest.mark.parametrize("rule, tol", [((8, 6), 1e-12), ((4, 3), 1e-7)])
@pytest.mark.parametrize("floor", [1.0, 2.0])
def test_dilation_weights_measure_the_floor_shell(rule, tol, floor):
    # the shell 0 <= x1 <= X above the floor k, in the measure dx1 dx2/x2 dx3:
    # X a b less the part under the floor, int_0^b (k + x3^2/2)^2 / 2 dx3,
    # as k + b^2/2 <= a (measured: 0 and 1.6e-8 at k = 1)
    fd = replace(FD_REF, floor=floor)
    X, a, b = 10.0, fd.dilation, fd.translation
    exact = X * a * b - 0.5 * (floor ** 2 * b + floor * b ** 3 / 3 + b ** 5 / 20)
    assert math.fsum(cv.dilation_nodes(fd, 0.0, X, *rule)[1]) == pytest.approx(exact, rel=tol, abs=0)


def test_dilation_nodes_of_empty_shells():
    assert cv.dilation_nodes(replace(FD_REF, floor=100.0), 0.0, 10.0, 8, 6)[0].shape == (0, 3)
    assert cv.dilation_nodes(replace(FD_REF, translation=0.0), 0.0, 10.0, 8, 6)[0].shape == (0, 3)
    assert cv.dilation_nodes(FD_REF, 10.0, 10.0, 8, 6)[0].shape == (0, 3)


@pytest.mark.parametrize("s", [S_REF, -0.7])
@pytest.mark.parametrize("floor", [1.0, 2.0])
def test_volume_table_within_the_grid_integrators_stderr(s, floor):
    # each shell of the table against the 3-D grid of busemann_volume on the
    # same sphere quadrature, within that grid's own stderr
    u, b = fig8.peripheral_lattice(Fraction(fig8.t_of_s(s)))
    fd = cv.CuspFundamentalDomain(floor=floor, dilation=abs(u), translation=b)
    q = hb.QuadratureSpec(sphere_nodes=128)
    rows = cv.cusp_volume_table(fd, [10, 20, 40, 80], q)
    for lo, row in zip([0.0, 10.0, 20.0, 40.0], rows):
        grid = hb.busemann_volume(fd.shell(lo, row["cutoff"]), q)
        assert abs(row["increment"] - grid.estimate) <= grid.stderr
        assert row["stderr"] < grid.stderr


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


def test_displacement_beyond_float_resolution_names_b_and_the_level():
    # x1 near b^2/2 = 1.85e16 has float spacing 4, against the height 0.75
    # of level 2 above the ambient horoball: its translate is the first outside
    b = 1.92e8
    with pytest.raises(ValueError, match=r"^translation b = 1\.92e\+08 is beyond float resolution at level 2: .* "
                                         r"floats are 4 apart, against the level's height 0\.75 above"):
        cv.displacement_profile(140.0, b, [2.0, 3.0], ambient_level=1.25)


def test_displacement_level_ordering_enforced():
    with pytest.raises(ValueError):
        cv.displacement_profile(S_REF, B_REF, [2, 1, 4])
    with pytest.raises(ValueError):
        cv.displacement_profile(S_REF, B_REF, [1, 2], ambient_level=1.5)


# ---------------------------------------------------------------------------
# tiling and reports


def test_fundamental_rectangle_tiles_base():
    assert ro.tiling_overlap_fraction(FD_REF, n_samples=10_000, seed=1) < 1e-3


def test_volume_csv_and_svg(tmp_path):
    rows = cv.cusp_volume_table(FD_REF, [10, 20], FAST_Q)
    columns = ("cutoff", "estimate", "stderr", "increment_ratio")
    csv_path = cli._write_csv(tmp_path / "vol.csv", columns, ([r[c] for c in columns] for r in rows))
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "cutoff,estimate,stderr,increment_ratio"
    assert len(lines) == 3 and lines[1] == f"10,{rows[0]['estimate']:.12g},{rows[0]['stderr']:.12g},nan"
    svg_path = write_curve_svg(tmp_path / "vol.svg", [r["cutoff"] for r in rows], [r["estimate"] for r in rows])
    assert open(svg_path).read().startswith("<svg")


def test_displacement_csv(tmp_path):
    prof = cv.displacement_profile(S_REF, B_REF, [1, 2], ambient_level=0.5)
    path = cli._write_csv(tmp_path / "d.csv", ("level", "displacement"), zip(prof.levels, prof.displacements))
    lines = open(path).read().splitlines()
    assert lines[0] == "level,displacement" and len(lines) == 3
