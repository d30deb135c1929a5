import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cusplie as cl, projlin as pl
from convexcusp.cusplie import LieAlgElem
from convexcusp.domains import DomainDPrime


def rand_rational_matrix(rng):
    while True:
        M = pl.exact_matrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        )
        if pl.mat_det(M) != 0:
            return M


# ---------------------------------------------------------------------------
# families


def test_alg_matrix_parabolic():
    M = cl.alg_matrix(LieAlgElem("L0", (1, 2)))
    assert (M[0, 1], M[0, 2], M[1, 3], M[2, 3]) == (1, 2, 1, 2)
    strict_upper = [(0, 3), (1, 2)]
    assert all(M[i, j] == 0 for i, j in strict_upper)


def test_alg_matrix_normal_family():
    M = cl.alg_matrix(LieAlgElem("LPrime", (1, 1)))
    assert (M[0, 2], M[0, 3], M[1, 1], M[2, 3]) == (1, -1, 1, 1)


def test_alg_matrix_mirror_family():
    M = cl.alg_matrix(LieAlgElem("LPrimeMinus", (1, 0)))
    assert M[0, 3] == 1 and M[1, 1] == 1


def test_family_is_abelian_and_linear():
    a = LieAlgElem("LPrime", (Fraction(1, 2), Fraction(1, 3)))
    b = LieAlgElem("LPrime", (Fraction(-2, 5), Fraction(2)))
    s = a + b
    assert cl.alg_matrix(s).tolist() == (cl.alg_matrix(a) + cl.alg_matrix(b)).tolist()
    # translation subfamily exponentials are exact rational and commute exactly
    A = cl.group_exp(LieAlgElem("LPrime", (0, Fraction(1, 3))))
    B = cl.group_exp(LieAlgElem("LPrime", (0, Fraction(2, 5))))
    assert all(u == v for u, v in zip((A @ B).flat, (B @ A).flat))
    Af, Bf = pl.to_float(cl.group_exp(a)), pl.to_float(cl.group_exp(b))
    assert np.max(np.abs(Af @ Bf - Bf @ Af)) <= 1e-14 * max(1.0, np.max(np.abs(Af @ Bf)))


def test_lt_requires_parameter():
    with pytest.raises(ValueError):
        LieAlgElem("Lt", (1, 1))
    with pytest.raises(ValueError):
        LieAlgElem("Lt", (1, 1), t=0)
    with pytest.raises(ValueError):
        LieAlgElem("L0", (1, 1), t=2)


def test_group_exp_closed_forms():
    G = cl.group_exp(LieAlgElem("L0", (Fraction(2), Fraction(3))))
    assert list(G[0]) == [1, 2, 3, Fraction(13, 2)]
    G = cl.group_exp(LieAlgElem("LPrime", (1.0, 2.0)))
    assert abs(G[0, 3] - (2.0 - 1.0)) < 1e-15 and abs(G[1, 1] - math.e) < 1e-15
    G = cl.group_exp(LieAlgElem("Lt", (1.0, 0.5), t=1.0))
    assert abs(G[0, 1] - (math.e - 1)) < 1e-14
    assert abs(G[1, 3] - (math.e - 1)) < 1e-14
    assert abs(G[0, 3] - (math.e - 2 + 0.125)) < 1e-14


def test_group_exp_matches_generic_exponential():
    rng = np.random.default_rng(6)
    for fam in cl.FAMILIES:
        for _ in range(250):
            t = rng.uniform(0.2, 1.5) if fam == "Lt" else None
            e = LieAlgElem(fam, tuple(rng.uniform(-1.5, 1.5, 2)), t=t)
            closed = pl.to_float(cl.group_exp(e))
            generic = pl.mat_exp(pl.to_float(cl.alg_matrix(e)))
            assert np.max(np.abs(closed - generic)) <= 1e-12 * max(1.0, np.max(np.abs(closed)))


# ---------------------------------------------------------------------------
# minimal polynomial profiles


def test_profile_generic():
    p = cl.minpoly_profile(LieAlgElem("LPrime", (1, 1)))
    assert (p.n, p.f_value, p.kernel_flag) == (3, 1, False)


def test_profile_kernel():
    p = cl.minpoly_profile(LieAlgElem("LPrime", (0, 1)))
    assert (p.n, p.f_value, p.kernel_flag) == (2, 0, True)


def test_profile_zero_element():
    p = cl.minpoly_profile(LieAlgElem("LPrime", (0, 0)))
    assert p.is_zero and p.n is None


def test_profile_wrong_shape():
    M = pl.exact_matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    with pytest.raises(cl.ProfileShapeError):
        cl.minpoly_profile(M)


def test_classify_examples():
    assert cl.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0, 2.0))))) == cl.PURE_TRANSLATION
    assert cl.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (1.0, 0))))) == cl.PURE_DILATION
    assert cl.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (1.0, 1.0))))) == cl.GENERIC
    assert cl.classify(LieAlgElem("LPrimeMinus", (0, Fraction(1, 2)))) == cl.PURE_TRANSLATION


def test_classify_conjugation_invariant():
    rng = random.Random(3)
    for params, expected in (((0, 1), cl.PURE_TRANSLATION), ((1, 0), cl.PURE_DILATION), ((1, 1), cl.GENERIC)):
        g = pl.to_float(cl.group_exp(LieAlgElem("LPrime", params)))
        for _ in range(10):
            C = pl.to_float(rand_rational_matrix(rng))
            conj = C @ g @ np.linalg.inv(C)
            assert cl.classify(conj) == expected


# ---------------------------------------------------------------------------
# normalization


def test_normalize_fast_path_is_identity():
    A = cl.alg_matrix(LieAlgElem("LPrime", (1, 0)))
    B = cl.alg_matrix(LieAlgElem("LPrime", (0, 1)))
    res = cl.normalize_algebra_pair(A, B)
    assert res.sign == 1 and res.residual == 0.0
    assert np.array_equal(pl.to_float(res.conjugator), np.eye(4))


def test_normalize_group_fast_path():
    gA = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (1.0, 0.0))))
    gB = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 1.0))))
    res = cl.normalize_pair(gA, gB)
    assert res.sign == 1 and res.residual == 0.0
    assert np.array_equal(pl.to_float(res.conjugator), np.eye(4))


@pytest.mark.parametrize("family,expected_sign", [("LPrime", 1), ("LPrimeMinus", -1)])
def test_normalize_exact_round_trip(family, expected_sign):
    rng = random.Random(17 if family == "LPrime" else 23)
    for _ in range(25):
        a1 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        b1 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
        b2 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        x1 = cl.alg_matrix(LieAlgElem(family, (a1, b1)))
        x2 = cl.alg_matrix(LieAlgElem(family, (0, b2)))
        G = rand_rational_matrix(rng)
        Gi = pl.mat_inv(G)
        res = cl.normalize_algebra_pair(G @ x1 @ Gi, G @ x2 @ Gi)
        assert res.sign == expected_sign
        assert res.residual == 0.0
        assert res.exact
        # parameter pairs transform back to the inputs up to the sign of b
        (pa1, pb1), (pa2, pb2) = res.params
        assert pa1 == a1 and pa2 == 0
        assert float(pb1) == pytest.approx(float(b1) * float(pb2) / float(b2), abs=1e-12)


def test_normalize_float_round_trip():
    rng = np.random.default_rng(8)
    for fam, expected in (("LPrime", 1), ("LPrimeMinus", -1)):
        for _ in range(10):
            x1 = pl.to_float(cl.alg_matrix(LieAlgElem(fam, tuple(rng.uniform(-1, 1, 2)))))
            x2 = pl.to_float(cl.alg_matrix(LieAlgElem(fam, (0.0, rng.uniform(0.5, 1.5)))))
            G = rng.uniform(-1, 1, (4, 4))
            while abs(np.linalg.det(G)) < 0.1:
                G = rng.uniform(-1, 1, (4, 4))
            Gi = np.linalg.inv(G)
            res = cl.normalize_algebra_pair(G @ x1 @ Gi, G @ x2 @ Gi)
            assert res.sign == expected
            assert res.residual <= 1e-9


def test_normalize_reports_noncommuting():
    A = cl.alg_matrix(LieAlgElem("LPrime", (1, 1)))
    B = pl.exact_matrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(cl.HypothesesError, match="commute"):
        cl.normalize_algebra_pair(A, B)


def test_normalize_reports_dependence():
    A = cl.alg_matrix(LieAlgElem("LPrime", (1, 1)))
    with pytest.raises(cl.HypothesesError):
        cl.normalize_algebra_pair(A, 2 * A)


def test_normalize_exact_rank_test_sees_a_tiny_second_direction():
    # (alpha, alpha + 1e-12 alpha^2) spans two dimensions, which the float
    # singular value test at tol 1e-9 cannot tell from one; exact input
    # decides it exactly and then normalizes or fails on its real defect
    eps = Fraction(1, 10 ** 12)
    rng = random.Random(20)
    normalized = 0
    for k in range(10):
        family = ("LPrime", "LPrimeMinus")[k % 2]
        a1 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        b1 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
        G = rand_rational_matrix(rng)
        A = G @ cl.alg_matrix(LieAlgElem(family, (a1, b1))) @ pl.mat_inv(G)
        B = A + eps * (A @ A)
        with pytest.raises(cl.HypothesesError, match="span less than two"):
            cl.normalize_algebra_pair(pl.to_float(A), pl.to_float(B))
        if b1 == 0:
            # alpha^2 is a multiple of the eigenline projector: B - A has
            # minimal polynomial t^2 - eps a1^2 t, a genuine shape failure
            with pytest.raises(cl.HypothesesError, match="not of shape"):
                cl.normalize_algebra_pair(A, B)
            continue
        res = cl.normalize_algebra_pair(A, B)
        assert res.exact and res.residual == 0.0
        normalized += 1
    assert normalized == 9


def test_normalize_exact_dependence_is_decided_exactly():
    A = cl.alg_matrix(LieAlgElem("LPrime", (Fraction(1, 3), Fraction(2, 7))))
    with pytest.raises(cl.HypothesesError, match="span less than two"):
        cl.normalize_algebra_pair(A, Fraction(-5, 11) * A)
    with pytest.raises(cl.HypothesesError, match="span less than two"):
        cl.normalize_algebra_pair(pl.zero_matrix(exact=True), A)


def test_normalize_reports_missing_generic_element():
    # two pure translations span a line of kernel elements only
    A = cl.alg_matrix(LieAlgElem("L0", (1, 0)))
    B = cl.alg_matrix(LieAlgElem("L0", (0, 1)))
    with pytest.raises(cl.HypothesesError):
        cl.normalize_algebra_pair(A, B)


def test_normalize_rejects_wrong_shape():
    A = pl.exact_matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    B = pl.exact_matrix([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 5]])
    with pytest.raises(cl.HypothesesError):
        cl.normalize_algebra_pair(A, B)


def test_normalize_pair_group_level():
    rng = np.random.default_rng(21)
    G = rng.uniform(-1, 1, (4, 4))
    while abs(np.linalg.det(G)) < 0.1:
        G = rng.uniform(-1, 1, (4, 4))
    Gi = np.linalg.inv(G)
    gA = G @ pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.6, 0.4)))) @ Gi
    gB = G @ pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 0.9)))) @ Gi
    res = cl.normalize_pair(gA, gB)
    assert res.sign == 1 and res.residual <= 1e-9
    assert res.group_images is not None
    for img in res.group_images:
        assert cl._group_pattern_sign(img, tol=1e-7) == 1


@pytest.mark.parametrize("power", [-1, 2])
def test_normalize_pair_rejects_rank_one_model_pair(power):
    # both generators in model form, so the rank test must precede the fast path
    A = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.5, 0.0))))
    with pytest.raises(cl.HypothesesError, match="span less than two"):
        cl.normalize_pair(A, np.linalg.matrix_power(A, power))


def test_normalize_rejects_zero_generator():
    B = pl.to_float(cl.alg_matrix(LieAlgElem("LPrime", (0.0, 0.9))))
    with pytest.raises(cl.HypothesesError, match="span less than two"):
        cl.normalize_algebra_pair(np.zeros((4, 4)), B)
    g = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 0.9))))
    with pytest.raises(cl.HypothesesError, match="span less than two"):
        cl.normalize_pair(np.eye(4), g)


def test_normalize_accepts_scaled_lifts():
    gA = 3.0 * pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.6, 0.4))))
    gB = -2.0 * pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 0.9))))
    res = cl.normalize_pair(gA, gB)
    assert res.sign == 1


# ---------------------------------------------------------------------------
# convergence of conjugated lattices


def test_convergence_linear_paths_exact():
    res = cl.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (0 * u, u), Fraction(1, 3))
    assert res.lt_params == ((1, 0), (0, 1))
    assert [e.params for e in res.limit_elements] == [(1, 0), (0, 1)]
    expected = cl.group_exp(LieAlgElem("L0", (Fraction(1), Fraction(0))))
    assert all(u == v for u, v in zip(res.limit_generators[0].flat, expected.flat))


def test_convergence_mixed_paths():
    res = cl.convergence_conjugate(lambda u: (u, u), lambda u: (u, -u), Fraction(1, 5))
    da, db = res.derivatives
    assert da == (1, 1) and db == (1, -1)


def test_convergence_rejects_dependent_derivatives():
    with pytest.raises(cl.HypothesesError):
        cl.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (2 * u, 0 * u), Fraction(1, 4))


def test_convergence_rejects_nonvanishing_path():
    with pytest.raises(cl.HypothesesError):
        cl.convergence_conjugate(lambda u: (1 + u, 0 * u), lambda u: (0 * u, u), 0.25)


def test_convergence_group_images_in_deformed_group():
    res = cl.convergence_conjugate(lambda u: (u, 0.5 * u), lambda u: (0 * u, u), 0.25)
    for img, params in zip(res.group_images, res.lt_params):
        expected = pl.to_float(cl.group_exp(LieAlgElem("Lt", params, t=0.25)))
        assert np.max(np.abs(img - expected)) <= 1e-9


# ---------------------------------------------------------------------------
# cusp shape and the parabolic model


def test_cusp_shape_square_lattice():
    shape = cl.cusp_shape(LieAlgElem("L0", (1, 0)), LieAlgElem("L0", (0, 1)))
    assert shape.omega == 1j and not shape.inverted_generator


def test_cusp_shape_orientation_normalization():
    m = LieAlgElem("L0", (0, 1 / (2 * math.sqrt(3))))
    l = LieAlgElem("L0", (1, 0))
    shape = cl.cusp_shape(m, l)
    assert abs(shape.raw_omega - (-2 * math.sqrt(3) * 1j)) <= 1e-12
    assert abs(shape.omega - 2 * math.sqrt(3) * 1j) <= 1e-12
    assert shape.inverted_generator


def test_cusp_shape_pure_imaginary_form():
    # translation (0, mu) against dilation-limit (nu, 0) gives -i nu/mu
    mu, nu = 0.7, 1.3
    shape = cl.cusp_shape(LieAlgElem("L0", (0, mu)), LieAlgElem("L0", (nu, 0)))
    assert abs(shape.raw_omega - (-1j * nu / mu)) <= 1e-14
    assert shape.raw_omega.real == 0.0


def test_cusp_shape_rejects_degenerate():
    with pytest.raises(ValueError):
        cl.cusp_shape(LieAlgElem("L0", (0, 0)), LieAlgElem("L0", (1, 0)))
    with pytest.raises(ValueError):
        cl.cusp_shape(LieAlgElem("L0", (1, 0)), LieAlgElem("L0", (2, 0)))


def test_cusp_shape_invariant_under_parameter_scaling():
    # simultaneous rescaling of both generators leaves the modulus alone
    m = LieAlgElem("L0", (Fraction(1, 2), Fraction(1, 3)))
    l = LieAlgElem("L0", (Fraction(-1, 4), Fraction(2, 5)))
    s1 = cl.cusp_shape(m, l)
    s2 = cl.cusp_shape(3 * m, 3 * l)
    assert s1.omega == s2.omega


def test_cusp_shape_invariant_under_conjugation_in_family():
    # the family is abelian, so conjugating both generators inside it
    # leaves the translation parameters (hence the modulus) unchanged
    m = LieAlgElem("L0", (Fraction(1, 2), Fraction(1, 3)))
    l = LieAlgElem("L0", (Fraction(-1, 4), Fraction(2, 5)))
    base = cl.cusp_shape(m, l)
    C = cl.group_exp(LieAlgElem("L0", (Fraction(3, 7), Fraction(-2, 9))))
    Ci = pl.mat_inv(C)
    gm = C @ cl.group_exp(m) @ Ci
    gl = C @ cl.group_exp(l) @ Ci
    conj = cl.cusp_shape(gm, gl)
    assert conj.omega == base.omega


def test_parabolic_model_identity_and_homomorphism():
    assert np.array_equal(cl.l0_to_parabolic(LieAlgElem("L0", (0, 0))), np.eye(2))
    P = cl.l0_to_parabolic(LieAlgElem("L0", (1, 2)))
    assert P[0, 1] == 1 + 2j
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = LieAlgElem("L0", tuple(rng.uniform(-2, 2, 2)))
        b = LieAlgElem("L0", tuple(rng.uniform(-2, 2, 2)))
        lhs = cl.l0_to_parabolic(a) @ cl.l0_to_parabolic(b)
        rhs = cl.l0_to_parabolic(a + b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# the convex orbit distinction


def test_normal_family_preserves_log_domain():
    rng = np.random.default_rng(12)
    dp = DomainDPrime()
    pts = np.column_stack(
        [rng.uniform(0.5, 4, 1000), rng.uniform(0.3, 3, 1000), rng.uniform(-1.5, 1.5, 1000)]
    )
    pts[:, 0] += 0.5 * pts[:, 2] ** 2 - np.log(pts[:, 1])
    for k in range(1000):
        g = pl.to_float(cl.group_exp(LieAlgElem("LPrime", tuple(rng.uniform(-1.5, 1.5, 2)))))
        assert dp.contains(pl.apply_affine_batch(g, pts[k % len(pts)][None, :])[0])
    # and whole orbits of a point cloud for a few group elements
    for _ in range(10):
        g = pl.to_float(cl.group_exp(LieAlgElem("LPrime", tuple(rng.uniform(-1.5, 1.5, 2)))))
        assert dp.contains_batch(pl.apply_affine_batch(g, pts)).all()


def test_mirror_family_escapes_log_domain():
    dp = DomainDPrime()
    escaped = False
    for a in (-1.0, -2.0, -4.0):
        g = pl.to_float(cl.group_exp(LieAlgElem("LPrimeMinus", (a, 0.0))))
        img = pl.apply_affine_batch(g, np.array([[0.5, 1.0, 0.0]]))
        escaped = escaped or not dp.contains_batch(img)[0]
    assert escaped


# ---------------------------------------------------------------------------
# lattices


def test_lattice_validation():
    A = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.5, 0.0))))
    B = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 1.0))))
    assert cl.normalize_pair(A, B).sign == 1
    obj = {"A": pl.matrix_to_json(A), "B": pl.matrix_to_json(B)}
    assert np.allclose(pl.to_float(pl.matrix_from_json(obj["A"])), A)
    assert np.allclose(pl.to_float(pl.matrix_from_json(obj["B"])), B)
    with pytest.raises(cl.HypothesesError):
        cl.normalize_pair(A, np.linalg.inv(A))  # rank 1
    M, N = np.eye(4), np.eye(4).copy()
    N[0, 1] = 1.0
    M2 = N.copy()
    M2[2, 3] = 1.0
    with pytest.raises(cl.HypothesesError):
        cl.normalize_pair(M2, M2 @ M2)  # commuting but rank 1 again
