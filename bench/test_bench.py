"""Hand-computed cases for the benchmark's oracles and its tracer.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402


def test_ball_density_and_distance():
    assert oracles.ball_density([0, 0, 0]) == 1.0
    assert oracles.ball_density([0.5, 0, 0]) == pytest.approx(16 / 9)
    # from the centre to r along a diameter: log((1 + r)/(1 - r))
    d = oracles.ball_distance([[0, 0, 0]], [[0.5, 0, 0]])
    assert d[0] == pytest.approx(math.log(3.0))
    d = oracles.ball_distance([[-0.5, 0, 0]], [[0.5, 0, 0]])
    assert d[0] == pytest.approx(2 * math.log(3.0))


def test_d0_density_and_projective_map():
    assert oracles.d0_level([1.0, 1.0, 1.0]) == 0.0
    assert oracles.d0_density([1.0, 0.0, 0.0]) == 0.25
    assert np.allclose(oracles.d0_to_ball([[1.0, 0.0, 0.0]]), 0.0)
    # a boundary point of the paraboloid lands on the unit sphere
    y = oracles.d0_to_ball([[0.5, 1.0, 0.0]])[0]
    assert y @ y == pytest.approx(1.0)
    # the vertical chord runs from x1 = 0 to infinity: d((1,0,0), (3,0,0)) = log 3
    assert oracles.d0_distance([[1.0, 0, 0]], [[3.0, 0, 0]])[0] == pytest.approx(math.log(3.0))


def test_dprime_intercepts_and_axis_norms():
    x = oracles.dprime_point(1.0, 1.0, 0.0)
    assert np.array_equal(x, [1.0, 1.0, 0.0])
    k1, k2, k3 = oracles.dprime_intercepts(x)
    assert (k1, k2, k3) == pytest.approx((math.exp(-1.0), 0.0, math.sqrt(2.0)))
    n2, n1, n3 = oracles.dprime_axis_norms(x)
    assert (n2, n1, n3) == pytest.approx((1 / (1 - math.exp(-1.0)), 1.0, math.sqrt(2.0)))


def test_chord_distances():
    assert oracles.chord_distance(0.0, math.inf, 1.0, math.e) == pytest.approx(1.0)
    assert oracles.chord_distance(-1.0, 1.0, 0.0, 0.5) == pytest.approx(math.log(3.0))
    x, y = np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.5])
    r = math.sqrt(2.0)
    assert oracles.dprime_axis_distance(x, y) == pytest.approx(math.log((r + 0.5) / (r - 0.5)))
    # along e1 the chord starts at k2 = 0: d((1,1,0), (2,1,0)) = log 2
    assert oracles.dprime_axis_distance(x, np.array([2.0, 1.0, 0.0])) == pytest.approx(math.log(2.0))


def test_lprime_action_keeps_the_level():
    def level(p):
        return p[0] - 0.5 * p[2] ** 2 + math.log(p[1])

    x = oracles.dprime_point(0.7, 1.3, -0.4)
    gx = oracles.lprime_act(math.log(2.0), 0.0, x)
    assert gx == pytest.approx([x[0] - math.log(2.0), 2 * x[1], x[2]])
    gx = oracles.lprime_act(0.3, -0.8, x)
    assert level(gx) == pytest.approx(level(x)) == pytest.approx(0.7)


def test_vt_map():
    assert np.allclose(oracles.vt_apply(0.5, [1.0, 1.0, 0.0]), [[4.0, 0.0, 0.0]])
    assert np.allclose(oracles.vt_apply(2.0, [3.0, 2.0, 1.0]), [[1.0, 0.5, 0.5]])


def test_horoball_displacement():
    # level - ambient = b^2 gives sigma = 2
    assert oracles.horoball_displacement(1.5, 0.5, 1.0) == pytest.approx(2 * math.log(2.0))


def test_holonomy_closed_forms():
    assert oracles.longitude_spectrum(Fraction(1, 2)) == [(Fraction(1), 4)]
    assert oracles.longitude_spectrum(Fraction(1, 4)) == [(Fraction(1, 2), 3), (Fraction(8), 1)]
    assert oracles.longitude_spectrum(Fraction(1)) == [(Fraction(1, 8), 1), (Fraction(2), 3)]
    assert oracles.dilation(Fraction(1, 2)) == 0.0
    assert oracles.dilation(Fraction(1, 4)) == pytest.approx(math.log(16.0))
    assert oracles.translation_parameter(4.0) == pytest.approx(math.sqrt(4 * math.sinh(1.0) / 3))


def test_pattern_violations():
    z = Fraction(0)
    a, b = Fraction(2, 3), Fraction(-1, 5)
    plus = np.array([[z, z, b, -a], [z, a, z, z], [z, z, z, b], [z] * 4], dtype=object)
    minus = np.array([[z, z, b, a], [z, a, z, z], [z, z, z, b], [z] * 4], dtype=object)
    assert all(v == 0 for v in oracles.lprime_pattern_violations(plus, 1))
    assert all(v == 0 for v in oracles.lprime_pattern_violations(minus, -1))
    assert any(v != 0 for v in oracles.lprime_pattern_violations(plus, -1))


def test_reduced_cusp_volume_with_constant_profile():
    # g = c: the volume over w, x3 in [0, 1] between floor 2 and X is
    # c * (X - 2 - mean F) with mean F = 1/6 - 1/2
    levels = np.geomspace(1.0, 100.0, 9)
    vol = oracles.ReducedCuspVolume(levels, np.full(9, 3.0), 1.0, 1.0, 2.0)
    assert vol.volume(10.0) == pytest.approx(3.0 * (10.0 - 2.0 + 1.0 / 3.0), rel=1e-9)
    with pytest.raises(ValueError):
        vol.volume(100.0)


def test_tracer_wraps_every_reference_and_restores():
    from convexcusp import cusplie, projlin

    import tracing

    original = projlin.minimal_polynomial
    assert cusplie.minimal_polynomial is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        M = projlin.exact_matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        with tracer.item("test", 0):
            projlin.minimal_polynomial(M)
            cusplie.minimal_polynomial(M)
            projlin.real_spectrum(projlin.to_float(M))
    finally:
        tracer.uninstall()
    assert projlin.minimal_polynomial is original and cusplie.minimal_polynomial is original
    calls, total, self_s = tracer.stats["projlin.minimal_polynomial"]
    assert calls == 2 and 0 < self_s <= total
    item = tracer.stats["item.test"]
    assert item[0] == 1 and item[2] < item[1]
    assert tracer.metric("projlin.real_spectrum.float_results", 1) == 0.0
    assert [tracer.names[s[0]] for s in tracer.spans][:2] == ["item.test", "projlin.minimal_polynomial"]
    assert all(s[4] == 0 for s in tracer.spans)
