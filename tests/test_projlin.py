import functools
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from convexcusp import cusplie, fig8, projlin as pl
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
    M, N = (fig8.word(Fraction(1, 2), c) for c in "mn")
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


def test_minpoly_float_input_is_refused():
    with pytest.raises(TypeError):
        pl.minimal_polynomial(pl.to_float(lprime(Fraction(1, 2), Fraction(1, 3))))


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


def test_exp_shape_test_does_not_overflow():
    # the test is relative to max|X|^4, which overflows from about 1e77;
    # pytest turns an overflow warning into an error
    E = pl.mat_exp(lprime(0.0, 1e100))
    assert E[0, 2] == 1e100 and E[0, 3] == 5e199 and E[2, 3] == 1e100
    off = np.random.default_rng(1).uniform(0.5, 1.0, (4, 4)) * 1e80
    with pytest.raises(ValueError, match="off the cusp shape"):
        pl.mat_exp(off)


def expm_reference(M):
    """Generic float exponential: scaling and squaring with a degree-20
    Taylor core, which keeps the series remainder below 1e-14 relative."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.max(np.sum(np.abs(M), axis=1))
    s = int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    A = M / (2.0 ** s)
    acc = np.eye(n)
    for k in range(20, 0, -1):
        acc = A @ acc / k + np.eye(n)
    for _ in range(s):
        acc = acc @ acc
    return acc


def test_exp_nilpotent_series_matches_scaling_squaring():
    rng = random.Random(2)
    for _ in range(10):
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        x = alg_matrix(LieAlgElem("L0", (r, s)))
        exact = pl.to_float(pl.mat_exp(x))
        numeric = expm_reference(pl.to_float(x))
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_identity():
    assert pl.real_spectrum(pl.identity(4, exact=True)) == [(1, 4)]


def test_spectrum_longitude_quarter():
    L = fig8.longitude(Fraction(1, 4))
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


# ---------------------------------------------------------------------------
# the Fraction algorithm exact spectra used before they ran on ints: Yun's
# split and Sturm chains on the monic characteristic polynomial in lambda


def poly_from_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return pl.Polynomial.from_coeffs(coeffs)


def _ref_sub(a, b):
    return pl.Polynomial.from_coeffs([x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def _ref_derivative(p):
    return pl.Polynomial.from_coeffs([k * c for k, c in enumerate(p.coeffs)][1:] or [0])


def _ref_divmod(a, b):
    db = b.degree
    if a.degree < db:
        return pl.Polynomial.from_coeffs([0]), a
    rem = list(a.coeffs)
    quot = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        q = rem[k + db] / b.coeffs[-1]
        quot[k] = q
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= q * c
    return pl.Polynomial.from_coeffs(quot), pl.Polynomial.from_coeffs(rem[:db] or [0])


def _ref_gcd(a, b):
    while any(b.coeffs):
        a, b = b, _ref_divmod(a, b)[1]
    return pl.Polynomial(tuple(c / a.coeffs[-1] for c in a.coeffs))


def reference_squarefree(p):
    """Yun's split of a monic Fraction polynomial into monic factors."""
    dp = _ref_derivative(p)
    g = _ref_gcd(p, dp)
    b = _ref_divmod(p, g)[0]
    d = _ref_sub(_ref_divmod(dp, g)[0], _ref_derivative(b))
    out, i = [], 1
    while b.degree > 0:
        a = _ref_gcd(b, d)
        b = _ref_divmod(b, a)[0]
        d = _ref_sub(_ref_divmod(d, a)[0], _ref_derivative(b))
        if a.degree > 0:
            out.append((a, i))
        i += 1
    return out


def _at(p, x):
    """p(x) by Horner, in the scalars of x."""
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc


def _ref_sign_changes(chain, x):
    values = [v for v in (_at(q, x) for q in chain) if v != 0]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def _ref_isolated_root(poly, a, b, lead):
    fb = _at(poly, b)
    tested = False
    while fb != 0:
        if not tested and b - a < Fraction(1, 2 * lead * lead):
            tested = True
            c = ((a + b) / 2).limit_denominator(lead)
            if a < c < b and _at(poly, c) == 0:
                return c
        if tested and float(a) == float(b):
            return float(a)
        m = (a + b) / 2
        fm = _at(poly, m)
        if fm == 0 or (fm > 0) == (fb > 0):
            b, fb = m, fm
        else:
            a = m
    return b


def reference_sturm_chain(poly):
    chain = [poly, _ref_derivative(poly)]
    while chain[-1].degree > 0:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        chain.append(pl.Polynomial(tuple(-c for c in rem.coeffs)))
    return chain


def reference_real_roots(poly):
    """Sturm chain by Fraction remainders, bisection from the Cauchy bound."""
    chain = reference_sturm_chain(poly)
    bound = 1 + max(abs(c / poly.coeffs[-1]) for c in poly.coeffs[:-1])
    v_lo, v_hi = _ref_sign_changes(chain, -bound), _ref_sign_changes(chain, bound)
    if v_lo - v_hi < poly.degree:
        raise pl.NonRealSpectrumError("characteristic polynomial has complex roots")
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    ints = [int(c * den) for c in poly.coeffs]
    lead = abs(ints[-1]) // math.gcd(*ints)
    roots, stack = [], [(-bound, v_lo, bound, v_hi)]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            roots.append(_ref_isolated_root(poly, a, b, lead))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = _ref_sign_changes(chain, m)
            stack += [(a, va, m, vm), (m, vm, b, vb)]
    return roots


def reference_real_spectrum(M):
    out = []
    for factor, mult in reference_squarefree(reference_char_poly(M)):
        if factor.degree == 1:
            roots = [-factor.coeffs[0] / factor.coeffs[1]]
        else:
            roots = reference_real_roots(factor)
        out += [(r, mult) for r in roots]
    return sorted(out, key=lambda rm: rm[0])


def reference_is_proj_unipotent(M):
    lam = sum(M[i, i] for i in range(4)) / 4
    return reference_char_poly(M).coeffs == poly_from_roots([lam] * 4).coeffs


def reference_char_poly(M):
    """The trace recursion on the matrix itself, in its own scalars."""
    n = M.shape[0]
    exact = pl.is_exact(M)
    Mk, I, cs = np.array(M, copy=True), pl.identity(n, exact=exact), []
    for k in range(1, n + 1):
        ck = sum(Mk[i, i] for i in range(n)) / k
        cs.append(ck)
        if k < n:
            Mk = M @ (Mk - ck * I)
    return pl.Polynomial.from_coeffs([-c for c in reversed(cs)] + [Fraction(1) if exact else 1.0])


def _char_poly_cases():
    rng = random.Random(41)
    yield pl.zero_matrix(4, exact=True)
    yield pl.identity(4, exact=True)
    yield fig8.longitude(Fraction(10 ** 30 + 1, 3 * 10 ** 30 + 7))
    for _ in range(30):
        yield rand_rational_matrix(rng, invertible=False)
    for _ in range(10):
        M = rand_rational_matrix(rng)
        M[3] = M[0] * Fraction(rng.randint(-3, 3), rng.randint(1, 4)) - M[1]  # rank at most 3
        yield M
        N = pl.zero_matrix(4, exact=True)  # strictly upper triangular, conjugated: nilpotent
        for i in range(4):
            for j in range(i + 1, 4):
                N[i, j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        G = rand_rational_matrix(rng)
        yield G @ N @ pl.mat_inv(G)
        yield pl.exact_matrix([[_height_rational(rng) for _ in range(4)] for _ in range(4)])


def scaled_reference_char_poly(M):
    """det(tI - d M) for (A, d) = integer_scaled(M): c_k d^(n-k) from the
    Fraction recursion on M itself."""
    d, coeffs = pl.integer_scaled(M)[1], reference_char_poly(M).coeffs
    return [c * d ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]


def test_trace_recursion_is_the_scaled_char_poly():
    cases = list(_char_poly_cases())
    for M in cases:
        p = pl._trace_recursion(pl.integer_scaled(M)[0])
        assert all(type(c) is int for c in p)
        assert p == scaled_reference_char_poly(M)
    # the singular and nilpotent cases are what they claim to be
    assert sum(pl.mat_det(M) == 0 for M in cases) >= 21
    assert sum(reference_char_poly(M).coeffs == (0, 0, 0, 0, 1) for M in cases) >= 11


def test_integer_scaled_is_least():
    M = pl.exact_matrix([["1/6", "-3/4", 0, 5], ["2/9", 1, "7/12", "-1/2"], [0] * 4, [1, 2, 3, "1/8"]])
    A, d = pl.integer_scaled(M)
    assert d == 72 and all(type(v) is int for v in A.flat)
    assert all(Fraction(a, d) == v for a, v in zip(A.flat, M.flat))


def _plain_product(*Ms):
    return functools.reduce(operator.matmul, Ms)


def test_mat_product_is_the_fraction_product(monkeypatch):
    # the integer-scaled product is the Fraction product, exactly, with
    # zero, negative and large-height entries, and a zero matrix
    rng = random.Random(32)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))

    mats = [pl.exact_matrix([[entry() for _ in range(4)] for _ in range(4)]) for _ in range(24)]
    mats.append(pl.zero_matrix(4, exact=True))
    for A, B, C in zip(mats, mats[1:], mats[2:]):
        for factors in ((A, B), (A, B, C), (A, C[:, 1]), (B, A, B[:, 0])):
            product = pl.mat_product(*factors)
            assert all(type(v) is Fraction for v in product.flat)
            assert product.tolist() == _plain_product(*factors).tolist()
    F = pl.to_float(mats[0])
    assert pl.mat_product(F, F, F).tolist() == (F @ F @ F).tolist()
    # rho_t's normal form is the same through either product
    ts = (Fraction(1, 4), Fraction(29, 13), Fraction(1001, 3001))
    reports = [fig8.normalization_consistency(t) for t in ts]
    monkeypatch.setattr(pl, "mat_product", _plain_product)
    for t, report in zip(ts, reports):
        plain = fig8.normalization_consistency(t)
        assert (report.q, report.dilation_f, report.meridian_b) == (plain.q, plain.dilation_f, plain.meridian_b)
        assert [Z.tolist() for Z in report.sheared] == [Z.tolist() for Z in plain.sheared]


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
        assert all(_correctly_rounded(f, lambda x: _at(cubic, x - r)) for f in floats)
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
    assert len(floats) == 2 and all(_correctly_rounded(f, lambda x: _at(p, x)) for f in floats)


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


def _typed(spec):
    """A spectrum with every value tagged by its type, floats by their bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v, m) for v, m in spec]


def _outcome(spectrum, M):
    try:
        return _typed(spectrum(M))
    except pl.NonRealSpectrumError:
        return "complex"


def _property_cases():
    """Longitudes, conjugated Jordan forms and irrational cubic blocks."""
    rng = random.Random(616)
    ts = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(60)]
    for t in ts + [Fraction(1, 2), Fraction(1001, 3001), Fraction(10 ** 12 + 39, 3 * 10 ** 12 + 7)]:
        yield fig8.longitude(t)
    for i in range(200):
        # two eigenvalues for four places: always a repeated one, and the
        # random entries above the diagonal make its Jordan blocks nontrivial
        a, b = _height_rational(rng), Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        s, q = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        if i % 4 == 0:  # a real, irrational or complex pair next to a double eigenvalue
            yield _conjugated(rng, [[0, -q], [1, s]], [a, a])
        elif i % 4 == 1:  # one Jordan block of size 2 for each root of t^2 - s t + q
            yield _conjugated(rng, [[0, -q, 1, 0], [1, s, 0, 1], [0, 0, 0, -q], [0, 0, 1, s]], [])
        else:
            yield _conjugated(rng, (), [rng.choice((a, b)) for _ in range(4)])
    for _ in range(10):
        r, lam = _height_rational(rng), _height_rational(rng)
        yield _conjugated(rng, [[r, 0, -1], [1, r, 3], [0, 1, r]], [lam])


def test_exact_spectra_equal_the_fraction_algorithm():
    outcomes = []
    for M in _property_cases():
        outcome = _outcome(reference_real_spectrum, M)
        assert _outcome(pl.real_spectrum, M) == outcome
        assert pl._trace_recursion(pl.integer_scaled(M)[0]) == scaled_reference_char_poly(M)
        assert pl.is_proj_unipotent(M) == reference_is_proj_unipotent(M)
        outcomes.append(outcome)
    # the cases reach what they are for
    assert len(outcomes) == 273
    assert sum(o == "complex" for o in outcomes) >= 30
    assert sum(any(t is float for t, _, _ in o) for o in outcomes if o != "complex") >= 55
    assert sum(any(m > 1 for _, _, m in o) for o in outcomes if o != "complex") >= 225


def test_irrational_root_is_rounded_once():
    # the factor in x = 3 lambda is x^2 - 2: sqrt(2) / 3 taken through
    # the float sqrt(2) rounds twice and misses the nearest float
    M = pl.exact_matrix([[0, "2/3", 0, 0], ["1/3", 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert pl.integer_scaled(M)[1] == 3
    spec = pl.real_spectrum(M)
    assert [m for _, m in spec] == [1, 1, 2] and spec[2][0] == 1
    root = spec[1][0]
    assert spec[0][0] == -root and root != math.sqrt(2) / 3
    assert _correctly_rounded(root, lambda x: 9 * x * x - 2)


@pytest.mark.parametrize("p, real_roots", [
    ([1, 4, 0, 0, 1], 2), ([1, 1, 0, 0, 1], 0), ([1, -4, 0, 0, 1], 2), ([-2, 0, 9], 2), ([-2, 0, 0, 1], 1),
])
def test_sturm_chain_counts_with_either_leading_sign(p, real_roots):
    # x^4 + c x + e has a first remainder of degree 1, so the next pseudo-
    # remainder carries the cube of that remainder's leading coefficient
    for q in (p, [-c for c in p]):
        ref = reference_sturm_chain(pl.Polynomial(tuple(Fraction(c) for c in q)))
        bound = 1 + max(Fraction(abs(c), abs(q[-1])) for c in q[:-1])
        assert _ref_sign_changes(ref, -bound) - _ref_sign_changes(ref, bound) == real_roots
        chain = pl._sturm_chain(q)
        for x in (-bound, Fraction(-1, 3), Fraction(0), Fraction(1, 3), bound):
            assert pl._sign_changes(chain, x) == _ref_sign_changes(ref, x)
        if real_roots == len(q) - 1:
            assert pl._real_roots(q) == pl._real_roots([-c for c in q])
        else:
            with pytest.raises(pl.NonRealSpectrumError):
                pl._real_roots(q)


def test_exact_spectra_do_not_need_the_least_d(monkeypatch):
    rng = random.Random(618)
    cases = [fig8.longitude(Fraction(3, 7)), 3 * fig8.longitude(Fraction(1, 2)),
             _conjugated(rng, [[0, 0, -1], [1, 0, 3], [0, 1, 0]], [Fraction(2, 5)]),
             _conjugated(rng, (), [Fraction(1, 3)] * 3 + [Fraction(-2)]),
             _conjugated(rng, [[0, 0, 2], [1, 0, 0], [0, 1, 0]], [Fraction(1)])]

    def results():
        return [(_outcome(pl.real_spectrum, M), pl.is_proj_unipotent(M)) for M in cases]

    least = results()
    scaled = pl.integer_scaled
    monkeypatch.setattr(pl, "integer_scaled", lambda M: tuple(6 * v for v in scaled(M)))
    assert pl.integer_scaled(cases[0])[1] == 6 * scaled(cases[0])[1]
    assert results() == least


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


def test_is_proj_unipotent_decides_exactly():
    assert pl.is_proj_unipotent(3 * fig8.longitude(Fraction(1, 2)))
    assert not pl.is_proj_unipotent(fig8.longitude(Fraction(1, 4)))
    with pytest.raises(TypeError):
        pl.is_proj_unipotent(np.eye(4))
    # the same trace as I, and trace 0 with two double eigenvalues
    assert not pl.is_proj_unipotent(pl.exact_matrix([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]))
    assert not pl.is_proj_unipotent(pl.exact_matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]))
    rng = random.Random(619)
    for _ in range(20):
        lam = _height_rational(rng) or Fraction(1)
        N = pl.zero_matrix(4, exact=True)
        for i in range(4):
            for j in range(i + 1, 4):
                N[i, j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        G = rand_rational_matrix(rng)
        T = pl.identity(4, exact=True) + N
        assert pl.is_proj_unipotent(G @ T @ pl.mat_inv(G)) and pl.is_proj_unipotent(lam * T)
        assert pl.is_proj_unipotent(lam * pl.identity(4, exact=True))
        T[3, 3] += Fraction(1, 10 ** 9)  # one eigenvalue moved off the others
        assert not pl.is_proj_unipotent(G @ (lam * T) @ pl.mat_inv(G))


def test_exp_and_log_of_nilpotent_and_unipotent_stay_exact():
    # exp of a nilpotent element is exact, and the group readout
    # (d, v, e14 - v^2/2) of the unipotent g - I is its log's (0, v, e14)
    # exactly
    x = alg_matrix(LieAlgElem("LPrime", (0, Fraction(3, 7))))
    g = pl.mat_exp(x)
    assert pl.is_exact(g) and g[0, 3] == Fraction(9, 98)
    assert cusplie._readout(g - pl.identity(4, exact=True), True) == (0, Fraction(3, 7), 0)
    x = alg_matrix(LieAlgElem("L0", (Fraction(-2, 5), Fraction(1, 3))))
    g = pl.mat_exp(x)
    assert g.tolist() == (pl.identity(4, exact=True) + x + x @ x / 2).tolist()


def test_exp_and_log_reject_matrices_off_the_cusp_shape():
    M = pl.exact_matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    for A in (M, pl.to_float(M), np.random.default_rng(0).normal(size=(4, 4))):
        with pytest.raises(ValueError):
            pl.mat_exp(A)
        # no triple eigenvalue, or a complex one: no canonical lift to read
        with pytest.raises(ValueError):
            cusplie.normalize_pair(A, A)
    # the right shape with a non-positive eigenvalue has no real log
    g = pl.to_float(group_exp(LieAlgElem("LPrime", (0.5, 0.2))))
    g[1, 1] = -g[1, 1]
    with pytest.raises(ValueError, match="positive spectrum"):
        cusplie.proj_normalize_lift(g)


def canonical_point(v):
    """Scale a homogeneous coordinate vector so its last nonzero entry is 1."""
    v = np.array(v, copy=True)
    nz = [i for i in range(len(v)) if v[i] != 0]
    if not nz:
        raise ValueError("zero vector does not define a projective point")
    return v / v[nz[-1]]


def test_canonical_point():
    p = canonical_point(np.array([2.0, 4.0, 0.0, 0.0]))
    assert np.allclose(p, [0.5, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        canonical_point(np.zeros(4))


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
