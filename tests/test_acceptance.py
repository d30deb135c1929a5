"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (visible under ``pytest -s`` or on failure).

Each criterion runs the measures of its rows of ``convexcusp.claims``
on its own inputs and asserts the results under tolerances pinned here;
each row's bound is asserted equal to the value pinned here, so the
table behind ``selftest`` cannot drift from the suite.  Quadrature
settings are chosen inside each criterion's stated runtime budget.
"""

import math
import random
from fractions import Fraction

import numpy as np

from convexcusp import claims, cusplie, cuspvol, fig8, hilbert
from convexcusp.cusplie import LieAlgElem

T_REF = Fraction(1, 4)
U_REF, B_REF = fig8.peripheral_lattice(T_REF)  # u = s(1/4) = log 16
ROWS = {row.key: row for row in claims.TABLE}


def measured(key, pinned, **inputs):
    """The measure of row ``key`` on this criterion's inputs; the row's
    bound must be the tolerance pinned by the criterion."""
    assert ROWS[key].bound == pinned, f"{key}: table bound {ROWS[key].bound} is not the pinned {pinned}"
    return ROWS[key].measure(**inputs)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_exact_relation():
    rng = random.Random(101)
    ts = [Fraction(rng.randint(1, 97), rng.randint(98, 301)) for _ in range(20)]
    assert all(0 < t < 1 for t in ts)
    assert measured("relation-exact", 0, ts=ts) == 0
    report(1, f"group relation exactly zero for {len(ts)} random rational parameters")


def test_criterion_02_unipotency_dichotomy():
    rng = random.Random(202)
    ts = [Fraction(rng.randint(1, 23), rng.randint(24, 60)) for _ in range(10)]
    assert measured("unipotency-dichotomy", 0, ts=ts) == 0
    report(2, f"longitude unipotent only at t = 1/2; spectrum {{2t x3, 1/(8t^3)}} for {len(ts)} parameters")


def test_criterion_03_cusp_shape():
    err = measured("limit-cusp-shape", 1e-12, t=Fraction(1, 2) + Fraction(1, 8 * 10 ** 6))
    assert err <= 1e-12
    # negative control: far from t = 1/2 the shape of rho_t's lattice is not the limit's
    assert measured("limit-cusp-shape", 1e-12, t=T_REF) > 0.1
    # the translation/dilation-limit form: parameters (0, mu) and (nu, 0)
    # give exactly -i nu / mu
    mu, nu = Fraction(1, 7), Fraction(3, 5)
    s2 = cusplie.cusp_shape(LieAlgElem("L0", (0, mu)), LieAlgElem("L0", (nu, 0)))
    assert s2.raw_omega == complex(0.0, -float(nu / mu))
    report(3, f"limit cusp shape -2*sqrt(3)i to {err:.2e}; pure-imaginary form reproduced")


def test_criterion_04_metric_oracle():
    worst = measured("ball-distance", 1e-9, radii=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    assert worst <= 1e-9
    dens_err = measured("ball-density", 1e-3)
    assert dens_err <= 1e-3
    report(4, f"ball distances within {worst:.2e} of 2*artanh(r); centre density within {dens_err:.1e} of 1")


def test_criterion_05_closed_form_norms():
    k = 1.0
    points = []
    for x2 in np.linspace(1.0, math.exp(U_REF), 10):
        for x3 in np.linspace(0.0, B_REF, 10):
            floor = max(0.5 * x3 ** 2 - math.log(x2) + k, 0.0)
            points += [(x1, x2, x3) for x1 in np.linspace(floor + 0.25, floor + 10.0, 10)]
    worst = measured("closed-form-norms", 1e-9, points=points)
    assert worst <= 1e-9
    worst_fd = measured("finsler-derivative", 1e-6, seed=404, n=100)
    assert worst_fd <= 1e-6
    report(5, f"closed forms match engine to {worst:.2e} on a 10x10x10 grid; derivative check to {worst_fd:.2e}")


def test_criterion_06_volume_finiteness():
    volume = dict(t=T_REF, floor=1.0, cutoffs=(10, 20, 40, 80), heights=(1e2, 1e3, 1e4),
                  q=hilbert.QuadratureSpec(sphere_nodes=578, grid_shape=(6, 5)))
    low, high = measured("volume-tail-min", 0.5, **volume), measured("volume-tail-max", 0.9, **volume)
    assert 0.5 <= low and high <= 0.9, f"tail ratios from {low} to {high}"
    margin = measured("volume-lower-bound", 0, **volume)
    assert margin > 0
    slope = measured("volume-growth", 1.4, **volume)
    assert slope >= 1.4
    report(
        6,
        f"volumes increasing with tail ratios in [{low:.3f}, {high:.3f}]; "
        f"bound margins at least {margin:.3g}, growth exponent {slope:.3f}",
    )


def test_criterion_07_normalization_round_trip():
    pairs = 25
    assert measured("normalization-roundtrip", 0, seed=707, pairs=pairs) == 0
    err = measured("fig8-normalization", 1e-10, ts=(Fraction(1, 4), Fraction(2, 5)))
    assert err <= 1e-10
    half, tiny = Fraction(1, 2), Fraction(1, 10 ** 12)
    ts = (Fraction(1, 50), Fraction(2, 5), half - tiny, half + tiny, Fraction(31, 3), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7))
    assert measured("meridian-translation-identity", 0, ts=ts) == 0
    report(7, f"{2 * pairs} exact round trips with zero residual; pipeline dilation error {err:.1e}; "
              f"b^2/s = (1 - 4t^2)/(12t) exactly at {len(ts)} t")


def test_criterion_08_convergence():
    order = measured("peripheral-convergence", 1.5, ks=(1, 2, 3, 4, 5, 6))
    assert order >= 1.5
    assert measured("lattice-convergence", 0, u0=Fraction(1, 3)) == 0
    report(8, f"measured b/|u| tends to 1/(2 sqrt 3) at observed order at least {order:.3f} in |u| on both sides of t = 1/2; "
              "exact limits on linear paths")


def test_criterion_09_horoball_displacement():
    levels = tuple(2.0 ** k for k in range(11))
    spread = measured("displacement-constancy", 1e-9, t=T_REF, levels=levels, ambient=0.95)
    assert spread <= 1e-9
    prof = cuspvol.displacement_profile(U_REF, B_REF, levels, ambient_level=0.95)
    decay = prof.displacements[-1] / prof.displacements[0]
    assert decay < 0.01
    report(
        9,
        f"displacement strictly decreasing over {len(levels)} doubling levels; "
        f"constancy spread {spread:.1e}; top/bottom ratio {100 * decay:.2f}%",
    )


def test_criterion_10_domain_facts():
    assert measured("domain-convexity", 0, seed=1010, samples=10_000, chords=1000) == 0
    report(10, "convexity on 10^4 samples; no complete line on 10^3 chords; boundary segment witnessed")


def test_criterion_11_projective_invariance():
    ts, group_params = (0.2, 2.0), ((0.4, -0.3), (-1.2, 0.8), (2.0, 1.5))
    err = measured("projective-invariance", 1e-9, seed=1111, pairs=50, ts=ts, group_params=group_params)
    assert err <= 1e-9
    report(11, f"Hilbert distances of 50 pairs kept to {err:.1e} under vt_map at t = {ts} and 3 LPrime elements")
