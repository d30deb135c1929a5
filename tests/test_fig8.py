import functools
import json
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cusplie as cl, fig8, projlin as pl
import reference_oracles as ro
from test_projlin import reference_is_proj_unipotent, reference_real_spectrum


# ---------------------------------------------------------------------------
# generators and the relation


def test_generator_entries():
    M, N = (fig8.word(Fraction(1, 2), c) for c in "mn")
    assert M[0, 3] == Fraction(-1, 2) and M[2, 3] == 1
    assert N[1, 0] == 4
    N1 = fig8.word(Fraction(1), "n")
    assert N1[1, 0] == 3


def test_generators_reject_zero():
    with pytest.raises(ValueError):
        fig8.word(0, "m")


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(-7, 3), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7), 0.3])
def test_generators_equal_the_closed_form(t):
    for G, R in zip((fig8.word(t, c) for c in "mn"), ro.reference_generators(t)):
        assert_same_fractions(G, R)


def test_generators_unipotent():
    rng = random.Random(31)
    for _ in range(8):
        t = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        M, N = (fig8.word(t, c) for c in "mn")
        assert pl.real_spectrum(M) == [(1, 4)]
        assert pl.real_spectrum(N) == [(1, 4)]


def test_relation_exactly_zero():
    rng = random.Random(5)
    for _ in range(20):
        t = Fraction(rng.randint(1, 40), rng.randint(41, 120))
        resid = fig8.relation_residual(t)
        assert all(v == 0 for v in resid.flat)


def test_relation_float_small():
    # a float t is the binary rational it denotes: the residual is exactly zero
    resid = fig8.relation_residual(0.3)
    assert resid.dtype == object and all(type(v) is Fraction and v == 0 for v in resid.flat)
    assert fig8.word(0.3, "m").dtype == object


# ---------------------------------------------------------------------------
# the word evaluator against Fraction-array products


def reference_word(t, letters):
    """The word as products of the closed-form Fraction generators and
    their Gauss-Jordan inverses, left to right."""
    M, N = ro.reference_generators(t)
    mats = {"m": M, "n": N, "M": pl.mat_inv(M), "N": pl.mat_inv(N)}
    return functools.reduce(np.matmul, (mats[c] for c in letters))


def reference_relation_residual(t):
    M, N = ro.reference_generators(t)
    W = reference_word(t, "nMNm")
    lhs, rhs = M @ W, W @ N
    pos = max(((i, j) for i in range(4) for j in range(4)), key=lambda ij: abs(pl.to_float(rhs)[ij]))
    lam = lhs[pos] / rhs[pos]
    return lhs - lam * rhs


#: negative t, the unipotent point, heights from 10 to about 10^30 and the
#: dyadic rationals of float t
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


def _integer_word_ts():
    """Seeded rationals of both signs and heights from 10 to 10^12, the
    unipotent point, 1001/3001 and the large-height t of the CI verify."""
    rng = random.Random(1818)
    ts = []
    for _ in range(24):
        k = rng.randint(1, 12)
        ts.append(Fraction(rng.randint(1, 10 ** k), rng.randint(1, 10 ** k)) * rng.choice((1, -1)))
    return ts + [Fraction(1, 2), Fraction(1001, 3001), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7)]


@pytest.mark.parametrize("t", _integer_word_ts())
def test_integer_words_equal_the_fraction_algorithm(t):
    M, N = ro.reference_generators(t)
    letters = fig8._letters(t)
    for c, g in (("m", M), ("n", N), ("M", pl.mat_inv(M)), ("N", pl.mat_inv(N))):
        A, d = letters[c]
        assert all(type(v) is int for v in A.flat) and type(d) is int and d > 0
        assert all(Fraction(a, d) == v for a, v in zip(A.flat, g.flat))
    # the reduced word is integer_scaled of the Fraction product, least d included
    L = reference_word(t, fig8.LONGITUDE)
    A, d = fig8._word(t, fig8.LONGITUDE)
    A_ref, d_ref = pl.integer_scaled(L)
    assert d == d_ref and all(type(a) is int and a == b for a, b in zip(A.flat, A_ref.flat))
    spec = fig8.longitude_spectrum(t)
    assert spec == reference_real_spectrum(L) and all(type(v) is Fraction for v, _ in spec)
    assert fig8.obstruction_at_t(t) is not reference_is_proj_unipotent(L)
    assert all(v == 0 for v in fig8.relation_residual(t).flat)


def test_exact_spectra_go_through_the_traced_entry_points(monkeypatch):
    # the benchmark tracer wraps module attributes; an exact spectrum or
    # unipotency test that bypassed them would escape its float-results count
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fig8, "real_spectrum", spy("real_spectrum", pl.real_spectrum))
    monkeypatch.setattr(pl, "is_proj_unipotent", spy("is_proj_unipotent", pl.is_proj_unipotent))
    t = Fraction(3, 7)
    spec = fig8.longitude_spectrum(t)
    assert not fig8.obstruction_at_t(Fraction(1, 2)) and fig8.obstruction_at_t(t)
    assert [name for name, _ in calls] == ["real_spectrum", "is_proj_unipotent", "is_proj_unipotent"]
    (_, (A, d)), (_, (B,)), (_, (C,)) = calls
    assert d == pl.integer_scaled(fig8.longitude(t))[1]
    assert all(X.dtype == object and all(type(v) is int for v in X.flat) for X in (A, B, C))
    assert all(type(v) is Fraction for v, _ in spec)


# ---------------------------------------------------------------------------
# the longitude


def test_longitude_commutes_with_meridian():
    for t in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)):
        M = fig8.word(t, "m")
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


def test_obstruction_at_float_t_is_exact():
    # a float t is decided at its rational value, where float spectra
    # would cluster 2t and 1/(8t^3) together this close to 1/2
    assert not fig8.obstruction_at_t(0.5)
    assert fig8.obstruction_at_t(0.5 + 1e-7)


def test_longitude_spectrum_at_float_t_is_exact():
    # float eigenvalues of the longitude at 0.49999 cluster 2t and
    # 1/(8t^3) into one fourfold eigenvalue; the exact spectrum keeps both
    t = 0.49999
    spec = fig8.longitude_spectrum(t)
    exact = Fraction(t)
    assert spec == [(2 * exact, 3), (1 / (8 * exact ** 3), 1)]
    assert len(spec) == 2 and fig8.obstruction_at_t(t) is True


def test_display_matches_word_under_t_reading():
    for t in (Fraction(1, 3), Fraction(2, 7), Fraction(3, 4)):
        report = ro.longitude_display_report(t, stray_reading="t")
        assert all(report.values())


def test_display_mismatch_under_2t_reading():
    # the table entry with the stray symbol disagrees exactly there
    for t in (Fraction(1, 3), Fraction(2, 7)):
        report = ro.longitude_display_report(t, stray_reading="2t")
        assert [k for k, ok in report.items() if not ok] == [(0, 1)]


# ---------------------------------------------------------------------------
# coordinate change


def test_s_at_geometric_point():
    # +0.0, not the -0.0 of -4 log1p(0.0), which the verify record wrote as -0.0
    assert math.copysign(1.0, fig8.s_of_t(Fraction(1, 2))) == 1.0
    assert json.dumps(fig8.verify_report(Fraction(1, 2))["s"]) == "0.0"


def test_t_of_log16():
    assert abs(fig8.t_of_s(math.log(16)) - 0.25) <= 1e-15


@pytest.mark.parametrize("s, rounds_to", [(3000.0, "0.0"), (2839.0, "2.87"), (-3000.0, "inf"), (math.nan, "nan")])
def test_t_of_s_out_of_range_names_s(s, rounds_to):
    # exp(-s/4)/2 underflows to 0.0 at 3000, to a subnormal at 2839, and overflows at -3000
    with pytest.raises(ValueError, match=rf"^s = {s!r} is out of range: t = exp\(-s/4\)/2 rounds to {rounds_to}"):
        fig8.t_of_s(s)


def test_t_of_s_keeps_the_normal_floats():
    # t(-2839) = 8.7e307 and t(2830) = 2.7e-308 are still normal floats
    assert fig8.t_of_s(-2839.0) == pytest.approx(0.5 * math.exp(2839.0 / 4.0))
    assert fig8.t_of_s(2830.0) >= sys.float_info.min


def test_round_trip():
    for t in (0.1, 0.25, 0.5, 0.9, 2.0):
        assert abs(fig8.t_of_s(fig8.s_of_t(t)) - t) <= 1e-15 * t
    assert fig8.s_of_t(Fraction(1, 4)) == pytest.approx(math.log(16), abs=1e-15)


@pytest.mark.parametrize("k", range(3, 13))
def test_s_next_to_the_unipotent_point_against_decimal(k):
    # -log(16 t^4) loses about eps / |s| relative here (2.2e-5 at
    # 1/2 - 1e-12); -4 log1p(2t - 1) is accurate to rounding
    for t in (Fraction(1, 2) + Fraction(1, 10 ** k), Fraction(1, 2) - Fraction(1, 10 ** k),
              0.5 + 10.0 ** -k, 0.5 - 10.0 ** -k):
        exact = Fraction(t)
        with localcontext() as ctx:
            ctx.prec = 60
            oracle = -4 * (Decimal(2 * exact.numerator) / Decimal(exact.denominator)).ln()
            assert abs(Decimal(fig8.s_of_t(t)) - oracle) <= Decimal(2.0 ** -52) * abs(oracle)


def test_s_rejects_nonpositive():
    with pytest.raises(ValueError):
        fig8.s_of_t(-1)


@pytest.mark.parametrize("t, text", [(Fraction(10 ** 400), "1e400"), (Fraction(1, 10 ** 400), "1e-400"), (Fraction(25 * 10 ** 399), "2.5e400"), (Fraction(1, 3 * 10 ** 400), None)])
def test_s_names_a_t_whose_2t_leaves_the_float_range(t, text):
    # 2t rounds to inf or to 0; the error names t exactly, in scientific
    # notation where that is shorter than p/q
    with pytest.raises(ValueError, match="out of range") as err:
        fig8.s_of_t(t)
    assert f"t = {text or t} is" in str(err.value)


def test_s_far_from_the_unipotent_point():
    # -4 log(2t) stays finite where 16 t^4 overflows or underflows
    for t in (Fraction(10 ** 300), Fraction(1, 10 ** 300), 1e300, 1e-300):
        s = fig8.s_of_t(t)
        assert math.isfinite(s) and s == pytest.approx(-4 * math.log(2) - 4 * math.log(float(t)), rel=1e-15)


def test_s_monotone_decreasing_in_t():
    ss = [fig8.s_of_t(t) for t in (0.1, 0.2, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(ss, ss[1:]))


# ---------------------------------------------------------------------------
# normalized peripheral pair


def test_normalized_pair_entries():
    s = math.log(16)
    Ms, Ls = ro.normalized_peripheral(s)
    m = math.sqrt(math.sinh(s / 4) / (3 * s))
    assert abs(Ms[0, 2] - m) <= 1e-15
    assert abs(Ms[0, 3] - m * m / 2) <= 1e-15
    assert abs(Ls[0, 1] - (math.exp(s) - 1) / s) <= 1e-12
    assert abs(Ls[0, 3] - (math.exp(s) - s - 1) / s ** 2) <= 1e-12


def test_normalized_pair_commutes():
    Ms, Ls = ro.normalized_peripheral(0.7)
    assert np.max(np.abs(Ms @ Ls - Ls @ Ms)) <= 1e-13


def test_normalized_pair_spectrum():
    s = 0.9
    _, Ls = ro.normalized_peripheral(s)
    spec = pl.real_spectrum(Ls)
    assert [m for _, m in spec] == [3, 1]
    assert abs(spec[1][0] - math.exp(s)) <= 1e-12


def test_normalized_logs_live_in_deformed_algebra():
    # Lt(u, v) at t = s is the conjugate of LPrime(s u, s v) by vt_map(s),
    # so the normal form of the pair reads the logs (0, s m) and (s, 0)
    s = 0.6
    Ms, Ls = ro.normalized_peripheral(s)
    m = ro.meridian_translation(s)
    res = cl.normalize_pair(Ms, Ls)
    (a1, b1), (a2, b2) = res.params
    assert res.sign == 1 and res.residual <= 1e-12
    assert abs(a1) <= 1e-12 and abs(abs(b1) - s * m) <= 1e-12
    assert abs(a2 - s) <= 1e-12 and abs(b2) <= 1e-12


def test_entry_limit_is_parabolic_value():
    for s in (1e-3, 1e-5, 1e-7):
        assert abs(ro.meridian_translation(s) - 1 / (2 * math.sqrt(3))) <= 1e-6
    assert abs(ro.meridian_translation(0.0) - 1 / (2 * math.sqrt(3))) <= 1e-16


def test_limit_pair_values():
    M0, L0 = ro.limit_pair()
    root12 = 1 / (2 * math.sqrt(3))
    assert abs(M0[0, 2] - root12) <= 1e-16
    assert abs(M0[0, 3] - Fraction(1, 24)) <= 1e-16
    assert L0[0, 1] == 1 and L0[0, 3] == 0.5 and L0[1, 3] == 1


def test_normalized_pair_converges_to_limit():
    M0, L0 = ro.limit_pair()
    svals = (1e-1, 1e-2, 1e-3, 1e-4)
    devs = []
    for s in svals:
        Ms, Ls = ro.normalized_peripheral(s)
        devs.append(max(np.max(np.abs(Ms - M0)), np.max(np.abs(Ls - L0))))
    C = devs[0] / svals[0] * 1.25
    for s, dev in zip(svals, devs):
        assert dev <= C * s


def test_normalized_pair_near_the_hyperbolic_point():
    # (e^s - s - 1)/s^2 must not cancel as s -> 0
    M0, L0 = ro.limit_pair()
    for s in (1e-3, 1e-6, 1e-9, -1e-9):
        Ms, Ls = ro.normalized_peripheral(s)
        assert np.max(np.abs(Ls - L0)) <= 2 * abs(s)
        assert np.max(np.abs(Ms - M0)) <= 2 * abs(s)


def test_limit_cusp_shape():
    m, l = ro.limit_elements()
    shape = cl.cusp_shape(m, l)
    assert abs(shape.raw_omega - complex(0.0, -2 * math.sqrt(3))) <= 1e-12
    assert shape.raw_omega.real == 0.0
    assert shape.inverted_generator and abs(shape.omega.imag - 2 * math.sqrt(3)) <= 1e-12


# ---------------------------------------------------------------------------
# strict convexity obstruction


def test_obstruction_at_geometric_point():
    assert not fig8.obstruction_at_t(fig8.t_of_s(0.0))


def test_obstruction_off_geometric_point():
    assert fig8.obstruction_at_t(fig8.t_of_s(math.log(16)))
    assert fig8.obstruction_at_t(fig8.t_of_s(-math.log(16)))
    assert fig8.obstruction_at_t(fig8.t_of_s(1e-6))


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


@pytest.mark.parametrize(
    "t", ["1/50", "1/20", "1/10", "1/4", "2/5", "49/100", "199/400", "499/1000", "501/1000", "3/5", "2", "31/3"]
)
def test_pipeline_dilation_is_s(t):
    # including t within 1/1000 of the unipotent point 1/2, where s ~ 8e-3
    rep = fig8.normalization_consistency(Fraction(t))
    assert rep.sign == 1 and not rep.degenerate
    assert rep.longitude_class == cl.PURE_DILATION
    assert abs(rep.dilation_f - rep.s) <= 1e-9 * abs(rep.s)


@pytest.mark.parametrize("t", [Fraction(1, 4), Fraction(499, 1000), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7)])
def test_pipeline_sheared_pair_meets_the_lprime_pattern(t):
    # the sheared basis images Zm, ZL of m - I and L/(2t) - I are exact:
    # I + Zm is exp(LPrime(0, v)) and I + ZL is exp(LPrime(a, 0)) up to the
    # scale r, so r^2 (e14 of ZL) = -u, with u = log(1/(16 t^4)) = s
    rep = fig8.normalization_consistency(t)
    Zm, ZL = rep.sheared
    I = pl.identity(4, exact=True)
    assert all(type(v) is Fraction for Z in rep.sheared for v in Z.flat)
    assert rep.residual == 0.0 and all(v == 0 for Z in rep.sheared for v in cl._pattern_violations(Z, 0))
    assert Zm[1, 1] == 0 and Zm[0, 2] != 0 and Zm[0, 3] == Zm[0, 2] ** 2 / 2
    assert ZL[0, 2] == 0 and ZL[1, 1] == 1 / (16 * t ** 4) - 1 and ZL[0, 3] != 0
    r2 = (rep.meridian_b / Zm[0, 2]) ** 2
    assert rep.sign == 1 and r2 * ZL[0, 3] == pytest.approx(-rep.s, rel=1e-14)
    assert rep.q == -Zm[0, 2] ** 2 / ZL[0, 3] == (1 - 4 * t ** 2) / (12 * t)  # b^2/u, exactly
    # conjugate to the pair: the same exact commutation and minimal polynomials
    X, Y = fig8.word(t, "m") - I, fig8.longitude(t) / (2 * t) - I
    assert np.array_equal(Zm @ ZL, ZL @ Zm)
    for Z, ref in ((Zm, X), (ZL, Y)):
        assert pl.minimal_polynomial(Z).coeffs == pl.minimal_polynomial(ref).coeffs
    # the classes, decided exactly on the group images
    assert rep.meridian_class == ro.classify(I + Zm) == cl.PURE_TRANSLATION
    assert rep.longitude_class == ro.classify(I + ZL) == cl.PURE_DILATION


@pytest.mark.parametrize("t", [Fraction(1, 10 ** 306), Fraction(10 ** 307)])
def test_pipeline_meridian_b_is_finite_where_b_squared_overflows(t):
    # q = b^2/u and u are finite floats at these t, their product b^2 is not
    rep = fig8.normalization_consistency(t)
    assert math.isfinite(float(rep.q)) and float(rep.q) * rep.dilation_f == math.inf
    assert rep.meridian_b == pytest.approx(abs(rep.s) * ro.meridian_translation(rep.s), rel=1e-12)


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
    M, N = (fig8.word(Fraction(1, 3), c) for c in "mn")
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
    # the golden grid 3/10 + k/50: every row is the record of verify_report
    # at its rational t, read field by field, and k = 10 lands on 1/2
    rows = fig8.sweep_rows(Fraction(3, 10), Fraction(7, 10), 21)
    assert len(rows) == 21
    for k, r in enumerate(rows):
        t = Fraction(3, 10) + Fraction(k, 50)
        rec = fig8.verify_report(t)
        form = rec["normalized_params"]
        spec = dict((mult, lam) for lam, mult in rec["longitude_spectrum"])
        assert r["t"] == str(t) == rec["t"] and r["s"] == rec["s"]
        assert (r["relation_exact"], r["obstruction"]) == (rec["relation_exact"], rec["obstruction"])
        assert (r["eig_triple"], r["eig_single"]) == ((spec[3], spec[1]) if t != Fraction(1, 2) else (spec[4], spec[4]))
        assert (r["sign"], r["u"], r["b"], r["residual"]) == (
            form["sign"], form["longitude"]["f_value"], form["meridian"]["b"], form["residual"])
        if t == Fraction(1, 2):
            assert r["shape_im"] is None and form["degenerate"]
        else:
            assert r["shape_im"] == -abs(rec["s"]) / form["meridian"]["b"]
    mid = rows[10]
    assert mid["t"] == "1/2" and not mid["obstruction"] and mid["sign"] == 0
    assert all(r["obstruction"] for r in rows if r is not mid)
    # the measured shape tends to -2 sqrt(3) as t -> 1/2
    gaps = [abs(r["shape_im"] + 2 * math.sqrt(3)) for r in rows[:10]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_sweep_rows_single_step_and_empty():
    assert [r["t"] for r in fig8.sweep_rows(Fraction(1, 3), Fraction(7, 10), 1)] == ["1/3"]
    # a float bound is the binary rational it denotes
    assert fig8.sweep_rows(0.25, 0.5, 2)[0] == fig8.sweep_row(fig8.verify_report(Fraction(1, 4)))
    assert fig8.sweep_rows(Fraction(1, 4), Fraction(1, 2), 0) == fig8.sweep_rows(Fraction(1, 4), Fraction(1, 2), -3) == []


def test_sweep_rows_follow_the_longitude(monkeypatch):
    # the spectrum and obstruction columns are read from the record, which
    # reads them from the longitude, not from the closed forms 2t, 1/(8t^3)
    # and t != 1/2
    monkeypatch.setattr(fig8, "longitude_spectrum", lambda t: [(Fraction(5), 1), (Fraction(3), 3)])
    monkeypatch.setattr(fig8, "obstruction_at_t", lambda t: False)
    rows = fig8.sweep_rows(Fraction(3, 10), Fraction(7, 10), 3)
    assert [(r["eig_triple"], r["eig_single"], r["obstruction"]) for r in rows] == [(3.0, 5.0, False)] * 3
    monkeypatch.setattr(fig8, "longitude_spectrum", lambda t: [(Fraction(2), 4)])
    rows = fig8.sweep_rows(Fraction(3, 10), Fraction(7, 10), 3)
    assert [(r["eig_triple"], r["eig_single"]) for r in rows] == [(2.0, 2.0)] * 3


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("sign", [-1, 1])
def test_closed_form_oracle_matches_the_measured_meridian_translation(k, sign):
    # t = 1/2 -+ 10^-k/8 puts s at about +-10^-k: the closed normalized
    # meridian's translation m(s) is b/|s| of the exact normal form of rho_t
    rep = fig8.normalization_consistency(Fraction(1, 2) + sign * Fraction(1, 8 * 10 ** k))
    assert 0.9 * 10.0 ** -k <= -sign * rep.s <= 1.1 * 10.0 ** -k
    Ms, _ = ro.normalized_peripheral(rep.s)
    assert abs(Ms[0, 2] - rep.meridian_b / abs(rep.s)) <= 1e-15
    # the lattice that the cusp commands integrate is this report's (u, b)
    assert_lattice_is_the_closed_form(rep.t)


def assert_lattice_is_the_closed_form(t):
    u, b = fig8.peripheral_lattice(t)
    s = fig8.s_of_t(t)
    assert abs(u - s) <= 1e-15 * abs(s)
    assert abs(b - abs(s) * ro.meridian_translation(s)) <= 1e-15 * b


@pytest.mark.parametrize("t", [Fraction(1, 4), Fraction(31, 3), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7)])
def test_closed_form_oracle_matches_the_peripheral_lattice(t):
    assert_lattice_is_the_closed_form(t)

