"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (visible under ``pytest -s`` or on failure).

Tolerances are pinned here and nowhere else; quadrature settings are
chosen inside each criterion's stated runtime budget.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cusplie, cuspvol, fig8, hilbert, projlin as pl
from convexcusp.cusplie import LieAlgElem
from convexcusp.domains import BallDomain, DomainDPrime

S_REF = math.log(16)
B_REF = S_REF * fig8.meridian_translation(S_REF)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_exact_relation():
    rng = random.Random(101)
    count = 0
    for _ in range(20):
        t = Fraction(rng.randint(1, 97), rng.randint(98, 301))
        assert 0 < t < 1
        resid = fig8.relation_residual(t)
        assert all(v == 0 for v in resid.flat), f"nonzero residual at t = {t}"
        count += 1
    report(1, f"group relation exactly zero for {count} random rational parameters")


def test_criterion_02_unipotency_dichotomy():
    assert not fig8.obstruction_at_t(Fraction(1, 2))
    assert pl.real_spectrum(fig8.longitude(Fraction(1, 2))) == [(1, 4)]
    rng = random.Random(202)
    checked = 0
    for _ in range(10):
        t = Fraction(rng.randint(1, 23), rng.randint(24, 60))
        spec = dict(fig8.longitude_spectrum(t))
        assert spec == {2 * t: 3, 1 / (8 * t ** 3): 1}, f"spectrum mismatch at t = {t}"
        # consistency with the rescaled spectrum {1, 1, 1, e^s}
        assert (1 / (8 * t ** 3)) / (2 * t) == 1 / (16 * t ** 4)
        assert t == Fraction(1, 2) or fig8.obstruction_at_t(t)
        checked += 1
    report(2, f"longitude unipotent only at t = 1/2; spectrum {{2t x3, 1/(8t^3)}} for {checked} parameters")


def test_criterion_03_cusp_shape():
    m, l = fig8.limit_elements()
    shape = cusplie.cusp_shape(m, l)
    err = abs(shape.raw_omega - complex(0.0, -2 * math.sqrt(3)))
    assert err <= 1e-12
    # the translation/dilation-limit form: parameters (0, mu) and (nu, 0)
    # give exactly -i nu / mu
    mu, nu = Fraction(1, 7), Fraction(3, 5)
    s2 = cusplie.cusp_shape(LieAlgElem("L0", (0, mu)), LieAlgElem("L0", (nu, 0)))
    assert s2.raw_omega == complex(0.0, -float(nu / mu))
    report(3, f"limit cusp shape -2*sqrt(3)i to {err:.2e}; pure-imaginary form reproduced")


def test_criterion_04_metric_oracle():
    ball = BallDomain()
    worst = 0.0
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        d = hilbert.hilbert_distance(ball, [0, 0, 0], [r, 0, 0])
        worst = max(worst, abs(d - 2 * math.atanh(r)))
        assert abs(d - 2 * math.atanh(r)) <= 1e-9
    dens = hilbert.busemann_density(ball, [0, 0, 0], hilbert.QuadratureSpec())
    assert abs(dens - 1.0) <= 1e-3
    report(4, f"ball distances within {worst:.2e} of 2*artanh(r); centre density {dens:.6f}")


def test_criterion_05_closed_form_norms():
    dp = DomainDPrime()
    k = 1.0
    xs2 = np.linspace(1.0, math.exp(S_REF), 10)
    xs3 = np.linspace(0.0, B_REF, 10)
    worst = 0.0
    for x2 in xs2:
        for x3 in xs3:
            floor = 0.5 * x3 ** 2 - math.log(x2) + k
            for x1 in np.linspace(max(floor, 0.0) + 0.25, max(floor, 0.0) + 10.0, 10):
                x = np.array([x1, x2, x3])
                n = cuspvol.direction_norms(x)
                dirs = np.eye(3)
                engine = hilbert.finsler_norm_batch(dp, x, dirs)
                for eng, ref in zip(engine, (n.norm_e1, n.norm_e2, n.norm_e3)):
                    err = abs(eng - ref) / max(1.0, ref)
                    worst = max(worst, err)
                    assert err <= 1e-9
    rng = np.random.default_rng(404)
    h = 1e-5
    worst_fd = 0.0
    for _ in range(100):
        x = np.array([rng.uniform(1.5, 4), rng.uniform(0.6, 2), rng.uniform(-0.6, 0.6)])
        v = rng.normal(size=3)
        norm = hilbert.finsler_norm(dp, x, v)
        fd = hilbert.hilbert_distance(dp, x - h * v, x + h * v) / (2 * h)
        err = abs(fd - norm) / max(1.0, norm)
        worst_fd = max(worst_fd, err)
        assert err <= 1e-6
    report(5, f"closed forms match engine to {worst:.2e} on a 10x10x10 grid; derivative check to {worst_fd:.2e}")


def test_criterion_06_volume_finiteness():
    q = hilbert.QuadratureSpec(sphere_nodes=578, grid_shape=(6, 5, 5))
    fd = cuspvol.CuspFundamentalDomain(floor=1.0, dilation=S_REF, translation=B_REF)
    rows = cuspvol.cusp_volume_table(fd, [10, 20, 40, 80], q, method="grid")
    estimates = [r["estimate"] for r in rows]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    ratios = [r["increment_ratio"] for r in rows[2:]]
    assert all(0.5 <= r <= 0.9 for r in ratios), f"tail ratios {ratios}"
    threshold = cuspvol.proof_threshold(fd)
    vols = []
    for x1 in (1e2, 1e3, 1e4):
        chk = cuspvol.lower_bound_check((x1, 1.0, 0.0), q, threshold=threshold)
        assert chk.margin > 0
        vols.append(chk.ball_volume)
    slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(vols), 1)[0]
    assert slope >= 1.4
    report(
        6,
        f"volumes increasing with tail ratios {[round(r, 3) for r in ratios]}; "
        f"bound margins positive, growth exponent {slope:.3f}",
    )


def test_criterion_07_normalization_round_trip():
    rng = random.Random(707)

    def random_conjugator():
        while True:
            M = pl.exact_matrix(
                [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            )
            if pl.mat_det(M) != 0:
                return M

    count = 0
    for family, expected in (("LPrime", 1), ("LPrimeMinus", -1)):
        for _ in range(25):
            a = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
            b1 = Fraction(rng.randint(0, 4), rng.randint(1, 4))
            b2 = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            x1 = cusplie.alg_matrix(LieAlgElem(family, (a, b1)))
            x2 = cusplie.alg_matrix(LieAlgElem(family, (0, b2)))
            G = random_conjugator()
            Gi = pl.mat_inv(G)
            res = cusplie.normalize_algebra_pair(G @ x1 @ Gi, G @ x2 @ Gi)
            assert res.sign == expected and res.residual == 0.0 and res.exact
            count += 1
    errs = []
    for t in (Fraction(1, 4), Fraction(2, 5)):
        rep = fig8.normalization_consistency(t)
        assert rep.sign == 1
        err = abs(rep.dilation_f - fig8.s_of_t(t))
        assert err <= 1e-10
        errs.append(err)
    report(7, f"{count} exact round trips with zero residual; pipeline dilation errors {[f'{e:.1e}' for e in errs]}")


def test_criterion_08_convergence():
    M0, L0 = fig8.limit_pair()
    svals = (1e-1, 1e-2, 1e-3, 1e-4)
    devs = []
    for s in svals:
        Ms, Ls = fig8.normalized_peripheral(s)
        devs.append(max(np.max(np.abs(Ms - M0)), np.max(np.abs(Ls - L0))))
    C = 1.25 * devs[0] / svals[0]
    assert all(dev <= C * s for s, dev in zip(svals, devs))
    res = cusplie.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (0 * u, u), Fraction(1, 3))
    assert [e.params for e in res.limit_elements] == [(1, 0), (0, 1)]
    exp_a = cusplie.group_exp(LieAlgElem("L0", (Fraction(1), Fraction(0))))
    assert all(u == v for u, v in zip(res.limit_generators[0].flat, exp_a.flat))
    with pytest.raises(cusplie.HypothesesError):
        cusplie.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (2 * u, 0 * u), Fraction(1, 3))
    report(8, f"normalized pair within C|s| of the limit (C = {C:.3f}); exact limits on linear paths")


def test_criterion_09_horoball_displacement():
    levels = [2.0 ** k for k in range(11)]
    prof = cuspvol.displacement_profile(S_REF, B_REF, levels, ambient_level=0.95)
    assert all(b < a for a, b in zip(prof.displacements, prof.displacements[1:]))
    assert prof.constancy_spread <= 1e-9
    decay = prof.displacements[-1] / prof.displacements[0]
    assert decay < 0.01
    report(
        9,
        f"displacement strictly decreasing over {len(levels)} doubling levels; "
        f"constancy spread {prof.constancy_spread:.1e}; top/bottom ratio {100 * decay:.2f}%",
    )


def test_criterion_10_domain_facts():
    dp = DomainDPrime()
    rng = np.random.default_rng(1010)
    u = rng.uniform([0.05, -4], [5, 4], size=(10_000, 2))
    w = rng.uniform([0.05, -4], [5, 4], size=(10_000, 2))
    lam = rng.uniform(size=10_000)
    mid = lam[:, None] * u + (1 - lam[:, None]) * w
    F = lambda bb: 0.5 * bb[:, 1] ** 2 - np.log(bb[:, 0])
    assert np.all(F(mid) <= lam * F(u) + (1 - lam) * F(w) + 1e-12)
    pts = np.column_stack(
        [rng.uniform(0.5, 4, 1000), rng.uniform(0.3, 3, 1000), rng.uniform(-1.5, 1.5, 1000)]
    )
    pts[:, 0] += 0.5 * pts[:, 2] ** 2 - np.log(pts[:, 1])
    dirs = rng.normal(size=(1000, 3))
    tm, tp = dp.chord_taus(pts, dirs)
    assert np.all(np.isfinite(tm) | np.isfinite(tp))
    for c in (0.5, 1.0, 2.0):
        for uval in (1.0, 10.0, 1e4, 1e8):
            assert dp.contains([c * uval, uval, 0.0])
    limits = np.array([[c, 1.0, 0.0, 0.0] for c in (0.5, 1.0, 2.0)])
    assert np.linalg.matrix_rank(limits) == 2
    report(10, "convexity on 10^4 samples; no complete line on 10^3 chords; boundary segment witnessed")
