import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import fig8, projlin as pl
from convexcusp.cusplie import LieAlgElem, alg_matrix, group_exp


def lprime(a, b):
    return alg_matrix(LieAlgElem("LPrime", (a, b)))


def rand_rational_matrix(rng, invertible=True):
    while True:
        M = pl.exact_matrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        )
        if not invertible or pl.mat_det(M) != 0:
            return M


# ---------------------------------------------------------------------------
# projective equality


def test_proj_equal_scalar_multiple():
    A = pl.float_matrix([[1, 2, 0, 0], [0, 1, 1, 0], [2, 0, 1, 0], [0, 0, 0, 3]])
    assert pl.proj_equal(A, 3 * A)


def test_proj_equal_identity():
    assert pl.proj_equal(pl.identity(4, exact=True), pl.identity(4, exact=True))


def test_proj_equal_distinct_generators():
    M, N = fig8.generators(Fraction(1, 2))
    assert not pl.proj_equal(M, N)


def test_proj_equal_rejects_singular():
    S = pl.float_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    with pytest.raises(pl.SingularMatrixError):
        pl.proj_equal(S, np.eye(4))


def test_proj_equal_is_equivalence_relation():
    rng = random.Random(0)
    mats = [rand_rational_matrix(rng) for _ in range(6)]
    mats += [Fraction(3, 2) * mats[0], Fraction(-2) * mats[1]]
    for A in mats:
        assert pl.proj_equal(A, A)
        for B in mats:
            assert pl.proj_equal(A, B) == pl.proj_equal(B, A)
            for C in mats:
                if pl.proj_equal(A, B) and pl.proj_equal(B, C):
                    assert pl.proj_equal(A, C)


# ---------------------------------------------------------------------------
# minimal polynomials


def test_minpoly_generic_element():
    m = pl.minimal_polynomial(lprime(1, 1))
    # t^3 (t - 1)
    assert m.coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(1))


def test_minpoly_identity():
    m = pl.minimal_polynomial(pl.identity(4, exact=True))
    assert m.coeffs == (Fraction(-1), Fraction(1))


def test_minpoly_kernel_element_nilpotency_oracle():
    x = lprime(0, 2)
    # direct nilpotency: x^2 != 0 while x^3 == 0
    x2 = x @ x
    x3 = x2 @ x
    assert any(v != 0 for v in x2.flat)
    assert all(v == 0 for v in x3.flat)
    assert pl.minimal_polynomial(x).coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def test_minpoly_conjugation_invariance():
    rng = random.Random(1)
    base = lprime(Fraction(1, 2), Fraction(2, 3))
    m0 = pl.minimal_polynomial(base)
    for _ in range(50):
        C = rand_rational_matrix(rng)
        conj = C @ base @ pl.mat_inv(C)
        assert pl.minimal_polynomial(conj).coeffs == m0.coeffs


def test_minpoly_float_agrees_with_exact():
    x = lprime(Fraction(1, 2), Fraction(1, 3))
    m_exact = pl.minimal_polynomial(x)
    m_float = pl.minimal_polynomial(pl.to_float(x))
    assert m_float.approx_equal(
        pl.Polynomial(tuple(float(c) for c in m_exact.coeffs)), tol=1e-9
    )


def test_minpoly_float_ill_conditioned_refused():
    M = np.eye(4)
    M[0, 1] = 3e-8
    with pytest.raises(pl.IllConditionedError):
        pl.minimal_polynomial(M)


# ---------------------------------------------------------------------------
# matrix exponential


def test_exp_zero_matrix():
    E = pl.mat_exp(pl.zero_matrix(4, exact=True))
    assert all(E[i, j] == (1 if i == j else 0) for i in range(4) for j in range(4))


def test_exp_parabolic_element():
    x = alg_matrix(LieAlgElem("L0", (1, 0)))
    E = pl.mat_exp(x)
    assert E[0, 1] == 1 and E[0, 3] == Fraction(1, 2) and E[1, 3] == 1


def test_exp_translation_element():
    b = Fraction(3)
    E = pl.mat_exp(lprime(0, b))
    assert E[0, 2] == b and E[0, 3] == b * b / 2 and E[2, 3] == b


def test_exp_nilpotent_series_matches_scaling_squaring():
    rng = random.Random(2)
    for _ in range(10):
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        x = alg_matrix(LieAlgElem("L0", (r, s)))
        exact = pl.to_float(pl.mat_exp(x))
        numeric = pl.mat_exp(pl.to_float(x))
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_identity():
    assert pl.real_spectrum(pl.identity(4, exact=True)) == [(1, 4)]


def test_spectrum_longitude_quarter():
    L = fig8.longitude(Fraction(1, 4))
    # oracle: the exact characteristic polynomial factors as (t-1/2)^3 (t-8)
    expected = pl.poly_from_roots([Fraction(1, 2)] * 3 + [Fraction(8)])
    assert pl.char_poly(L).coeffs == expected.coeffs
    assert pl.real_spectrum(L) == [(Fraction(1, 2), 3), (Fraction(8), 1)]


def test_spectrum_longitude_half_unipotent():
    L = fig8.longitude(Fraction(1, 2))
    assert pl.real_spectrum(L) == [(1, 4)]


def test_spectrum_rejects_complex():
    R = pl.float_matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(pl.NonRealSpectrumError):
        pl.real_spectrum(R)
    Re = pl.exact_matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(pl.NonRealSpectrumError):
        pl.real_spectrum(Re)


@pytest.mark.parametrize("t", [Fraction(97, 301), Fraction(1001, 3001), Fraction(999983, 1000003)])
def test_spectrum_exact_at_large_height(t):
    # the divisor scan of the rational-root search did not finish at 97/301
    spec = fig8.longitude_spectrum(t)
    assert spec == sorted([(2 * t, 3), (1 / (8 * t ** 3), 1)])
    assert all(isinstance(v, Fraction) for v, _ in spec)


def test_spectrum_square_free_factors():
    # char poly (x - 1)^2 (x^2 - 4): the quadratic factor has a square
    # discriminant and gives Fractions
    M = pl.exact_matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 4], [0, 0, 1, 0]])
    assert pl.real_spectrum(M) == [(Fraction(-2), 1), (Fraction(1), 2), (Fraction(2), 1)]
    assert all(isinstance(v, Fraction) for v, _ in pl.real_spectrum(M))
    # char poly (x^2 - 2)^2: irrational roots come out as floats, doubled
    N = pl.exact_matrix([[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]])
    spec = pl.real_spectrum(N)
    assert [m for _, m in spec] == [2, 2]
    assert [float(v) for v, _ in spec] == pytest.approx([-2 ** 0.5, 2 ** 0.5], abs=1e-15)


def _conjugated(rng, block, diag):
    """G T G^-1 for a seeded integer G, with T block upper triangular: the
    square ``block`` first, then ``diag`` on the diagonal, random
    rationals above (a Jordan part for repeated eigenvalues)."""
    k = len(block)
    T = pl.zero_matrix(4, exact=True)
    for i in range(4):
        for j in range(max(i + 1, k), 4):
            T[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    for i, row in enumerate(block):
        T[i, :k] = [Fraction(v) for v in row]
    for i, lam in enumerate(diag, start=k):
        T[i, i] = lam
    while True:
        G = pl.exact_matrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        if pl.mat_det(G) != 0:
            return G @ T @ pl.mat_inv(G)


def _height_rational(rng):
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))


def _correctly_rounded(f, p):
    """Whether p changes sign between the midpoints of f and its float
    neighbours, so its root there rounds to f."""
    lo = (Fraction(f) + Fraction(math.nextafter(f, -math.inf))) / 2
    hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return p(lo) * p(hi) < 0


def test_spectrum_property_rational_conjugates():
    rng = random.Random(606)
    for _ in range(30):
        # 0 is the first bisection midpoint; +-1/2 mix small heights with large
        pool = [_height_rational(rng) for _ in range(3)] + [Fraction(0), Fraction(1, 2), Fraction(-1, 2)]
        diag = [rng.choice(pool) for _ in range(4)]
        spec = pl.real_spectrum(_conjugated(rng, (), diag))
        assert spec == sorted(Counter(diag).items())
        assert all(isinstance(v, Fraction) for v, _ in spec)


def test_spectrum_property_irrational_and_complex_blocks():
    rng = random.Random(607)
    cubic = pl.Polynomial((Fraction(1), Fraction(-3), Fraction(0), Fraction(1)))
    for _ in range(10):
        # t^3 - 3t + 1 shifted by r: three irrational roots r + 2 cos(2 pi k / 9)
        r, lam = _height_rational(rng), _height_rational(rng)
        block = [[r, 0, -1], [1, r, 3], [0, 1, r]]
        spec = pl.real_spectrum(_conjugated(rng, block, [lam]))
        assert [m for _, m in spec] == [1, 1, 1, 1]
        assert [v for v, _ in spec if isinstance(v, Fraction)] == [lam]
        floats = [v for v, _ in spec if isinstance(v, float)]
        assert len(floats) == 3
        assert all(_correctly_rounded(f, lambda x: cubic(x - r)) for f in floats)
        # t^3 - 2 has one real root
        with pytest.raises(pl.NonRealSpectrumError):
            pl.real_spectrum(_conjugated(rng, [[0, 0, 2], [1, 0, 0], [0, 1, 0]], [lam]))


def test_spectrum_irrational_root_next_to_a_rational_one():
    # t (t^2 - 10 t + 1) (t - 3) is one square-free factor: its root 0 is
    # the first bisection midpoint and the left end of the interval that
    # isolates 5 - sqrt(24) = 0.101, whose nearest integer is that 0
    M = _conjugated(random.Random(608), [[0, 0, 0], [1, 0, -1], [0, 1, 10]], [Fraction(3)])
    spec = pl.real_spectrum(M)
    assert [v for v, _ in spec if isinstance(v, Fraction)] == [0, 3]
    p = pl.Polynomial((Fraction(1), Fraction(-10), Fraction(1)))
    floats = [v for v, _ in spec if isinstance(v, float)]
    assert len(floats) == 2 and all(_correctly_rounded(f, p) for f in floats)


@pytest.mark.parametrize("dens", [(1000003, 1000033, 1000037), (46021, 46027, 46049)])
def test_spectrum_of_close_large_height_eigenvalues(dens):
    # three simple eigenvalues of height 1e6 within 4e-11 of each other
    G = pl.exact_matrix([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 2], [2, 1, 0, 1]])
    D = pl.exact_matrix([[Fraction(1, dens[0]), 0, 0, 0], [0, Fraction(1, dens[1]), 0, 0],
                         [0, 0, Fraction(1, dens[2]), 0], [0, 0, 0, 3]])
    start = time.perf_counter()
    spec = pl.real_spectrum(G @ D @ pl.mat_inv(G))
    assert time.perf_counter() - start < 1.0
    assert spec == [(Fraction(1, q), 1) for q in reversed(dens)] + [(Fraction(3), 1)]
    assert all(isinstance(v, Fraction) for v, _ in spec)


def test_spectrum_of_exponential_matches_exp_of_spectrum():
    for fam, params, t in (
        ("LPrime", (Fraction(1, 2), Fraction(1, 3)), None),
        ("Lt", (Fraction(2, 3), Fraction(1, 5)), Fraction(1, 2)),
        ("L0", (Fraction(1, 4), Fraction(3, 5)), None),
    ):
        x = alg_matrix(LieAlgElem(fam, params, t=t))
        spec_x = pl.real_spectrum(x)
        spec_e = pl.real_spectrum(pl.mat_exp(pl.to_float(x)))
        assert len(spec_x) == len(spec_e)
        for (lx, mx), (le, me) in zip(spec_x, spec_e):
            assert mx == me
            assert abs(np.exp(float(lx)) - le) <= 1e-9 * max(1.0, abs(le))


# ---------------------------------------------------------------------------
# logs, points, wire format


def test_mat_log_round_trip():
    g = pl.to_float(group_exp(LieAlgElem("LPrime", (0.7, 0.4))))
    L = pl.mat_log(g)
    assert np.max(np.abs(pl.mat_exp(L) - g)) <= 1e-12


def test_canonical_point():
    p = pl.canonical_point(np.array([2.0, 4.0, 0.0, 0.0]))
    assert np.allclose(p, [0.5, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        pl.canonical_point(np.zeros(4))


def test_matrix_json_round_trip():
    M = pl.exact_matrix([[Fraction(1, 2), 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    obj = pl.matrix_to_json(M)
    assert obj["regime"] == "exact" and obj["rows"][0][0] == "1/2"
    back = pl.matrix_from_json(obj)
    assert all(v == w for v, w in zip(M.flat, back.flat))
    Mf = pl.to_float(M)
    objf = pl.matrix_to_json(Mf)
    assert objf["regime"] == "float"
    assert np.allclose(pl.matrix_from_json(objf), Mf)
