import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cusplie as cl, fig8, projlin as pl


# ---------------------------------------------------------------------------
# generators and the relation


def test_generator_entries():
    M, N = fig8.generators(Fraction(1, 2))
    assert M[0, 3] == Fraction(-1, 2) and M[2, 3] == 1
    assert N[1, 0] == 4
    _, N1 = fig8.generators(Fraction(1))
    assert N1[1, 0] == 3


def test_generators_reject_zero():
    with pytest.raises(ValueError):
        fig8.generators(0)


def test_generators_unipotent():
    rng = random.Random(31)
    for _ in range(8):
        t = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        M, N = fig8.generators(t)
        assert pl.real_spectrum(M) == [(1, 4)]
        assert pl.real_spectrum(N) == [(1, 4)]


def test_relation_exactly_zero():
    rng = random.Random(5)
    for _ in range(20):
        t = Fraction(rng.randint(1, 40), rng.randint(41, 120))
        resid = fig8.relation_residual(t)
        assert all(v == 0 for v in resid.flat)


def test_relation_float_small():
    resid = fig8.relation_residual(0.3)
    assert pl.max_abs(resid) <= 1e-12


# ---------------------------------------------------------------------------
# the word evaluator against Fraction-array products


def reference_word(t, letters):
    """The word as products of the Fraction (or float) generators and
    their Gauss-Jordan inverses, left to right."""
    M, N = fig8.generators(t)
    mats = {"m": M, "n": N, "M": pl.mat_inv(M), "N": pl.mat_inv(N)}
    return functools.reduce(np.matmul, (mats[c] for c in letters))


def reference_relation_residual(t):
    M, N = fig8.generators(t)
    W = reference_word(t, "nMNm")
    lhs, rhs = M @ W, W @ N
    pos = max(((i, j) for i in range(4) for j in range(4)), key=lambda ij: abs(pl.to_float(rhs)[ij]))
    lam = lhs[pos] / rhs[pos]
    return lhs - lam * rhs


#: negative t, the unipotent point, heights from 10 to about 10^30 and the
#: dyadic rationals of float t that the sweep and the obstruction use
ORACLE_TS = [
    Fraction(-1, 4),
    Fraction(-7, 3),
    Fraction(1, 2),
    Fraction(13, 3),
    Fraction(5, 19),
    Fraction(31, 11),
    Fraction(1001, 3001),
    Fraction(10 ** 30 + 1, 3 * 10 ** 30 + 7),
    Fraction(-(10 ** 29) - 3, 10 ** 30 + 9),
    Fraction(0.1),
    Fraction(0.37),
    Fraction(1.3),
    Fraction(fig8.t_of_s(1e-6)),
] + [Fraction(float(t)) for t in np.linspace(0.3, 0.7, 5)]


def assert_same_fractions(A, B):
    assert A.shape == B.shape == (4, 4) and A.dtype == object
    assert all(isinstance(v, Fraction) for v in A.flat)
    assert all(a == b for a, b in zip(A.flat, B.flat))


@pytest.mark.parametrize("t", ORACLE_TS)
def test_longitude_equals_fraction_product(t):
    assert_same_fractions(fig8.longitude(t), reference_word(t, "nMNmmNMn"))


@pytest.mark.parametrize("letters", ["m", "n", "M", "N", "mM", "Nn", "nMNm", "NNmMMn", "mnMN" * 3])
def test_words_equal_fraction_products(letters):
    for t in (Fraction(-2, 9), Fraction(3, 7), Fraction(10 ** 30 - 1, 10 ** 29 + 3)):
        assert_same_fractions(fig8.word(t, letters), reference_word(t, letters))


@pytest.mark.parametrize("t", ORACLE_TS)
def test_relation_residual_equals_reference(t):
    resid = fig8.relation_residual(t)
    assert_same_fractions(resid, reference_relation_residual(t))
    assert all(v == 0 for v in resid.flat)


@pytest.mark.parametrize("t", [0.3, 0.5, -0.7, 1e-3, 2.5, 1 / 3])
def test_float_words_bit_identical(t):
    # float t keeps the float generators, Gauss-Jordan inverses and the
    # product order, so every bit matches the Fraction-free path's reference
    for letters in ("nMNmmNMn", "nMNm"):
        W = fig8.word(t, letters)
        assert W.dtype == float and np.array_equal(W, reference_word(t, letters))
    assert np.array_equal(fig8.longitude(t), reference_word(t, "nMNmmNMn"))
    assert np.array_equal(fig8.relation_residual(t), reference_relation_residual(t))


# ---------------------------------------------------------------------------
# the longitude


def test_longitude_commutes_with_meridian():
    for t in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)):
        M, _ = fig8.generators(t)
        L = fig8.longitude(t)
        assert pl.proj_equal(L @ M, M @ L)


def test_longitude_spectrum_formula():
    rng = random.Random(6)
    for _ in range(10):
        t = Fraction(rng.randint(1, 15), rng.randint(16, 40))
        spec = dict(fig8.longitude_spectrum(t))
        assert spec == {2 * t: 3, 1 / (8 * t ** 3): 1}


def test_longitude_unipotent_only_at_half():
    assert fig8.longitude_spectrum(Fraction(1, 2)) == [(1, 4)]
    for t in (Fraction(1, 4), Fraction(2, 5), Fraction(5, 8), Fraction(9, 10)):
        assert len(fig8.longitude_spectrum(t)) == 2
    # exact scan across a parameter grid: unipotent exactly once
    grid = [Fraction(k, 20) for k in range(1, 25)]
    unipotent_at = [t for t in grid if not fig8.obstruction_at_t(t)]
    assert unipotent_at == [Fraction(1, 2)]


def test_display_matches_word_under_t_reading():
    for t in (Fraction(1, 3), Fraction(2, 7), Fraction(3, 4)):
        report = fig8.longitude_display_report(t, stray_reading="t")
        assert all(report.values())


def test_display_mismatch_under_2t_reading():
    # the table entry with the stray symbol disagrees exactly there
    for t in (Fraction(1, 3), Fraction(2, 7)):
        report = fig8.longitude_display_report(t, stray_reading="2t")
        assert [k for k, ok in report.items() if not ok] == [(0, 1)]


# ---------------------------------------------------------------------------
# coordinate change


def test_s_at_geometric_point():
    assert fig8.s_of_t(Fraction(1, 2)) == 0.0


def test_t_of_log16():
    assert abs(fig8.t_of_s(math.log(16)) - 0.25) <= 1e-15


def test_round_trip():
    for t in (0.1, 0.25, 0.5, 0.9, 2.0):
        assert abs(fig8.t_of_s(fig8.s_of_t(t)) - t) <= 1e-15 * t
    assert fig8.s_of_t(Fraction(1, 4)) == pytest.approx(math.log(16), abs=1e-15)


def test_s_rejects_nonpositive():
    with pytest.raises(ValueError):
        fig8.s_of_t(-1)


def test_s_monotone_decreasing_in_t():
    ss = [fig8.s_of_t(t) for t in (0.1, 0.2, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(ss, ss[1:]))


# ---------------------------------------------------------------------------
# normalized peripheral pair


def test_normalized_pair_entries():
    s = math.log(16)
    Ms, Ls = fig8.normalized_peripheral(s)
    m = math.sqrt(math.sinh(s / 4) / (3 * s))
    assert abs(Ms[0, 2] - m) <= 1e-15
    assert abs(Ms[0, 3] - m * m / 2) <= 1e-15
    assert abs(Ls[0, 1] - (math.exp(s) - 1) / s) <= 1e-12
    assert abs(Ls[0, 3] - (math.exp(s) - s - 1) / s ** 2) <= 1e-12


def test_normalized_pair_commutes():
    Ms, Ls = fig8.normalized_peripheral(0.7)
    assert np.max(np.abs(Ms @ Ls - Ls @ Ms)) <= 1e-13


def test_normalized_pair_spectrum():
    s = 0.9
    _, Ls = fig8.normalized_peripheral(s)
    spec = pl.real_spectrum(Ls)
    assert [m for _, m in spec] == [3, 1]
    assert abs(spec[1][0] - math.exp(s)) <= 1e-12


def test_normalized_logs_live_in_deformed_algebra():
    s = 0.6
    Ms, Ls = fig8.normalized_peripheral(s)
    m = fig8.meridian_translation(s)
    for mat, params in ((Ms, (0.0, m)), (Ls, (1.0, 0.0))):
        log = pl.mat_log(mat)
        expected = pl.to_float(cl.alg_matrix(cl.LieAlgElem("Lt", params, t=s)))
        assert np.max(np.abs(log - expected)) <= 1e-10


def test_entry_limit_is_parabolic_value():
    for s in (1e-3, 1e-5, 1e-7):
        assert abs(fig8.meridian_translation(s) - 1 / (2 * math.sqrt(3))) <= 1e-6
    assert abs(fig8.meridian_translation(0.0) - 1 / (2 * math.sqrt(3))) <= 1e-16


def test_limit_pair_values():
    M0, L0 = fig8.limit_pair()
    root12 = 1 / (2 * math.sqrt(3))
    assert abs(M0[0, 2] - root12) <= 1e-16
    assert abs(M0[0, 3] - Fraction(1, 24)) <= 1e-16
    assert L0[0, 1] == 1 and L0[0, 3] == 0.5 and L0[1, 3] == 1


def test_normalized_pair_converges_to_limit():
    M0, L0 = fig8.limit_pair()
    svals = (1e-1, 1e-2, 1e-3, 1e-4)
    devs = []
    for s in svals:
        Ms, Ls = fig8.normalized_peripheral(s)
        devs.append(max(np.max(np.abs(Ms - M0)), np.max(np.abs(Ls - L0))))
    C = devs[0] / svals[0] * 1.25
    for s, dev in zip(svals, devs):
        assert dev <= C * s


def test_limit_cusp_shape():
    m, l = fig8.limit_elements()
    shape = cl.cusp_shape(m, l)
    assert abs(shape.raw_omega - complex(0.0, -2 * math.sqrt(3))) <= 1e-12
    assert shape.raw_omega.real == 0.0
    assert shape.inverted_generator and abs(shape.omega.imag - 2 * math.sqrt(3)) <= 1e-12


# ---------------------------------------------------------------------------
# strict convexity obstruction


def test_obstruction_at_geometric_point():
    assert not fig8.strict_convexity_obstruction(0.0)


def test_obstruction_off_geometric_point():
    assert fig8.strict_convexity_obstruction(math.log(16))
    assert fig8.strict_convexity_obstruction(-math.log(16))
    assert fig8.strict_convexity_obstruction(1e-6)


# ---------------------------------------------------------------------------
# the normalization pipeline


def test_pipeline_quarter():
    rep = fig8.normalization_consistency(Fraction(1, 4))
    assert rep.sign == 1 and not rep.degenerate
    assert rep.meridian_class == cl.PURE_TRANSLATION
    assert rep.longitude_class == cl.PURE_DILATION
    assert abs(rep.dilation_f - math.log(16)) <= 1e-10
    s = math.log(16)
    assert rep.meridian_b ** 2 == pytest.approx(s * math.sinh(s / 4) / 3, abs=1e-9)


def test_pipeline_two_fifths():
    rep = fig8.normalization_consistency(Fraction(2, 5))
    assert rep.sign == 1
    assert rep.meridian_class == cl.PURE_TRANSLATION
    expected = -math.log(16 * (2 / 5) ** 4)
    assert abs(rep.dilation_f - expected) <= 1e-10


def test_pipeline_degenerate_at_half():
    rep = fig8.normalization_consistency(Fraction(1, 2))
    assert rep.degenerate and rep.sign == 0


def test_holonomy_params_type():
    assert fig8.s_of_t(Fraction(1, 4)) == pytest.approx(math.log(16), abs=1e-15)
    assert float(fig8.t_of_s(fig8.s_of_t(Fraction(1, 4)))) == pytest.approx(0.25, abs=1e-16)
    assert fig8.t_of_s(fig8.s_of_t(0.37)) == pytest.approx(0.37, abs=1e-16)
    with pytest.raises(ValueError):
        fig8.s_of_t(-1)


def test_peripheral_pair_type():
    # the meridian and the companion generator do not commute: no pair
    M, N = fig8.generators(Fraction(1, 3))
    with pytest.raises(cl.HypothesesError, match="commute"):
        cl.normalize_pair(M, N)


def test_verify_report_fields():
    rep = fig8.verify_report(Fraction(1, 4))
    assert rep["relation_exact"] is True
    assert rep["obstruction"] is True
    assert rep["longitude_spectrum"] == [[0.5, 3], [8.0, 1]]
    assert rep["normalized_params"]["sign"] == 1
    rep_half = fig8.verify_report(Fraction(1, 2))
    assert rep_half["obstruction"] is False
    assert rep_half["normalized_params"]["degenerate"] is True


def test_sweep_rows():
    rows = fig8.sweep_rows(0.3, 0.7, 5)
    assert len(rows) == 5
    for r in rows:
        t = Fraction(r["t"])
        assert (r["closed_triple"], r["closed_single"]) == (float(2 * t), float(1 / (8 * t ** 3)))
        assert r["triple_rel_dev"] == 0.0 and r["single_rel_dev"] == 0.0
    mid = rows[2]
    assert mid["t"] == pytest.approx(0.5)
    assert not mid["obstructed"]
    assert rows[0]["shape_im"] < 0
    # shape converges toward -2 sqrt(3) as t -> 1/2
    assert abs(mid["shape_im"] + 2 * math.sqrt(3)) < abs(rows[0]["shape_im"] + 2 * math.sqrt(3))


def test_sweep_rows_follow_the_longitude(monkeypatch):
    # the spectrum and obstruction columns are computed from longitude(t),
    # not written from the closed forms 2t, 1/(8t^3) and t != 1/2
    def diagonal(*entries):
        return lambda t: pl.exact_matrix([[entries[i] if i == j else 0 for j in range(4)] for i in range(4)])

    monkeypatch.setattr(fig8, "longitude", diagonal(3, 3, 3, 5))
    rows = fig8.sweep_rows(0.3, 0.7, 3)
    assert [(r["eig_triple"], r["eig_single"], r["obstructed"]) for r in rows] == [(3.0, 5.0, True)] * 3
    # the deviation columns measure the spectrum against 2t and 1/(8t^3)
    assert rows[0]["triple_rel_dev"] == abs(3.0 - 0.6) / 0.6
    assert rows[0]["single_rel_dev"] == abs(5.0 - rows[0]["closed_single"]) / rows[0]["closed_single"]
    monkeypatch.setattr(fig8, "longitude", diagonal(2, 2, 2, 2))
    rows = fig8.sweep_rows(0.3, 0.7, 3)
    assert [(r["eig_triple"], r["eig_single"], r["obstructed"]) for r in rows] == [(2.0, 2.0, False)] * 3
