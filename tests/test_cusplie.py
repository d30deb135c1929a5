import math
import random
from fractions import Fraction

import numpy as np
import pytest

from convexcusp import cusplie as cl, fig8, projlin as pl
from convexcusp.cusplie import LieAlgElem
from convexcusp.domains import DomainDPrime, vt_map
import reference_oracles as ro
from test_projlin import expm_reference


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
    s = LieAlgElem("LPrime", tuple(u + x for u, x in zip(a.params, b.params)))
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
            generic = expm_reference(pl.to_float(cl.alg_matrix(e)))
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


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 4},  # off the cubic
        {(1, 1): 5},  # t (t - f)
        {(0, 1): 5},  # t^2
        {(0, 1): 1e-4, (2, 3): 1e-4},  # t^2 at a small |X|
    ],
)
def test_profile_wrong_shape_in_both_regimes(entries):
    rows = [[entries.get((i, j), 0) for j in range(4)] for i in range(4)]
    for M in (pl.exact_matrix([[Fraction(v) for v in row] for row in rows]), pl.float_matrix(rows)):
        with pytest.raises(cl.ProfileShapeError):
            cl.minpoly_profile(M)


@pytest.mark.parametrize("size", [1e80, 1e-160])
def test_float_profile_of_a_generic_element_far_from_unit_size(size):
    # unscaled, |X|^4 overflows at 1e80, and X^3 underflows at 1e-160, which
    # reads the element as a pure dilation (n = 2)
    p = cl.minpoly_profile(LieAlgElem("LPrime", (size, size)))
    assert (p.n, p.f_value, p.kernel_flag) == (3, size, False)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e80])
def test_exp_and_profile_make_one_shape_decision(scale):
    # the float matrices of the off-shape cases above and of the mat_exp
    # tests: both read X^3 (X - fI) = 0 from projlin.cusp_cubic, at every scale
    cases = [{(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 4}, {(1, 1): 5}, {(0, 1): 5}, {(0, 1): 1e-4, (2, 3): 1e-4}]
    mats = [pl.float_matrix([[e.get((i, j), 0) for j in range(4)] for i in range(4)]) for e in cases]
    mats += [np.random.default_rng(1).uniform(0.5, 1.0, (4, 4)), np.random.default_rng(0).normal(size=(4, 4))]
    decisions = []
    for M in mats:
        off = []
        for f in (pl.mat_exp, cl.minpoly_profile):
            try:
                f(scale * M)
                off.append(False)
            except (ValueError, OverflowError) as err:  # exp(5e80) overflows, on the shape
                off.append("off the cusp shape" in str(err))
        decisions.append(off)
    assert all(a == b for a, b in decisions)
    assert [a for a, _ in decisions] == [True, False, False, False, True, True]


def _conjugated_element(family, G, size, ratio):
    """G x G^-1 for an element x of ``family``, rescaled to |X| = size
    (largest entry) and with f / |X| about ``ratio``; x is the element
    (1, 0) when ``ratio`` is None."""
    t = Fraction(2, 3) if family == "Lt" else None
    Gi = pl.mat_inv(G)
    translation = G @ cl.alg_matrix(LieAlgElem(family, (0, 1), t)) @ Gi
    dilation = G @ cl.alg_matrix(LieAlgElem(family, (1, 0), t)) @ Gi
    f = sum(dilation[i, i] for i in range(4))
    if ratio is None:
        X = dilation
    else:
        X = translation + (ratio * pl.max_abs(translation) / f if f else ratio) * dilation
    return X * (size / pl.max_abs(X))


@pytest.mark.parametrize("family", cl.FAMILIES)
def test_float_profiles_agree_with_exact_ones(family):
    # conjugated elements with |X| from 1e-150 to 1e150, f / |X| from about
    # 1 down to 1e-6 and 0, and the pure dilations; the exact profile is
    # the oracle
    rng = random.Random(11)
    classes, ratios = set(), []
    sizes = (Fraction(1, 10**150), Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1), Fraction(10**3), Fraction(10**150))
    for size in sizes:
        for ratio in (Fraction(1), Fraction(1, 10**3), Fraction(1, 10**6), Fraction(0), None):
            for _ in range(3):
                X = _conjugated_element(family, rand_rational_matrix(rng), size, ratio)
                exact = cl.minpoly_profile(X)
                flt = cl.minpoly_profile(pl.to_float(X))
                assert (flt.n, flt.kernel_flag) == (exact.n, exact.kernel_flag)
                assert abs(flt.f_value - float(exact.f_value)) <= 1e-12 * float(size)
                classes.add((exact.n, exact.kernel_flag))
                ratios.append(abs(exact.f_value) / size)
    if family == "L0":
        assert classes == {(2, True)}
    else:
        assert classes == {(3, False), (2, False), (2, True)}
        assert min(r for r in ratios if r) <= Fraction(101, 10**8)


def test_classify_examples():
    assert ro.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0, 2.0))))) == cl.PURE_TRANSLATION
    assert ro.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (1.0, 0))))) == cl.PURE_DILATION
    assert ro.classify(pl.to_float(cl.group_exp(LieAlgElem("LPrime", (1.0, 1.0))))) == cl.GENERIC
    assert ro.classify(LieAlgElem("LPrimeMinus", (0, Fraction(1, 2)))) == cl.PURE_TRANSLATION


def test_classify_conjugation_invariant():
    rng = random.Random(3)
    for params, expected in (((0, 1), cl.PURE_TRANSLATION), ((1, 0), cl.PURE_DILATION), ((1, 1), cl.GENERIC)):
        g = pl.to_float(cl.group_exp(LieAlgElem("LPrime", params)))
        for _ in range(10):
            C = pl.to_float(rand_rational_matrix(rng))
            conj = C @ g @ np.linalg.inv(C)
            assert ro.classify(conj) == expected


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
    assert res.sign == 1
    # the residual is the images' own; their distance from the model
    # elements is measured apart from it
    assert res.residual <= 1e-12 and _model_distance(res, "LPrime") <= 1e-12
    assert np.array_equal(pl.to_float(res.conjugator), np.eye(4))


def _model_distance(res, family):
    """Largest entry distance of the group images from group_exp of their
    parameters, relative to each image's largest entry."""
    return max(
        float(np.max(np.abs(img - pl.to_float(cl.group_exp(LieAlgElem(family, p)))))) / np.max(np.abs(img))
        for img, p in zip(res.images, res.params)
    )


def test_normalize_group_fast_path_unipotent_first_generator():
    # a unipotent generator fits both model families, so the other one
    # decides the sign
    gA = pl.to_float(cl.group_exp(LieAlgElem("LPrimeMinus", (0.0, 0.7))))
    gB = pl.to_float(cl.group_exp(LieAlgElem("LPrimeMinus", (0.6, 0.2))))
    res = cl.normalize_pair(gA, gB)
    assert res.sign == -1
    assert np.array_equal(pl.to_float(res.conjugator), np.eye(4))
    assert res.residual <= 1e-12 and _model_distance(res, "LPrimeMinus") <= 1e-12
    assert res.params[0][0] == 0.0 and res.params[1][0] == pytest.approx(0.6, rel=1e-15)


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


@pytest.mark.parametrize("sign", [1, -1])
def test_normalize_exact_over_a_quadratic_extension(sign):
    # the top-right entry is 2 (not 1) times the dilation entry, so the
    # final rescaling needs 1/sqrt(2): the conjugator lies over Q(sqrt 2)
    # and still conjugates the pair exactly into the family.  The basis is
    # the Jordan chain of N0 = x2 (trace 0), which reads v = 1 there, so
    # the positive scale leaves b2 = 3 b1 > 0 in both families
    x1 = pl.exact_matrix([[0, 0, 1, -4 * sign], [0, 2, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    x2 = pl.exact_matrix([[0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 0, 0]])
    G = pl.exact_matrix([[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
    Gi = pl.mat_inv(G)
    pair = (G @ x1 @ Gi, G @ x2 @ Gi)
    res = cl.normalize_algebra_pair(*pair)
    C = res.conjugator
    assert res.sign == sign and res.residual == 0.0 and res.exact
    assert all(type(v) is cl._QuadExt for v in C.flat)
    for x, img in zip(pair, res.images):
        assert all(v == 0 for v in (C @ x - img @ C).flat)
    (a1, b1), (a2, b2) = res.params
    assert (a1, a2) == (2, 0) and float(b1) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert float(b2) == pytest.approx(3 * float(b1), rel=1e-15)


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
    C = res.conjugator
    for g, img in zip((gA, gB), res.images):
        assert np.max(np.abs(C @ g - img @ C)) <= 1e-12
    (a1, b1), (a2, b2) = res.params
    assert a1 == pytest.approx(0.6, rel=1e-12) and abs(a2) <= 1e-12
    assert b1 / b2 == pytest.approx(0.4 / 0.9, rel=1e-12)


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


def _conjugated_pair(seed, a, b, family="LPrime"):
    G = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
    Gi = np.linalg.inv(G)
    return tuple(
        G @ pl.to_float(cl.group_exp(LieAlgElem(family, p))) @ Gi for p in ((a, b), (0.0, 1.0))
    )


def test_normalize_pair_small_dilation():
    # the dilation eigenvalue e^a approaches the triple eigenvalue 1, down
    # to the lift's resolution
    for family, sign in (("LPrime", 1), ("LPrimeMinus", -1)):
        for seed in range(5):
            for a in np.geomspace(3.2e-4, 1.0, 22):
                for b in (0.0, 0.5):
                    res = cl.normalize_pair(*_conjugated_pair(seed, a, b, family))
                    assert res.sign == sign and res.residual <= 1e-9


def test_normalize_pair_at_and_below_the_lift_resolution():
    # real_spectrum clusters float eigenvalues at SPECTRUM_CLUSTER_TOL = 3e-4
    # relative: e^a with a = 3.17e-4 stays apart from the triple eigenvalue,
    # and with a = 1e-4 it joins it, which the lift reports
    for family, sign in (("LPrime", 1), ("LPrimeMinus", -1)):
        for b in (0.0, 0.5):
            res = cl.normalize_pair(*_conjugated_pair(3, 3.17e-4, b, family))
            assert res.sign == sign and res.residual <= 1e-9
            with pytest.raises(cl.HypothesesError, match="lift's resolution"):
                cl.normalize_pair(*_conjugated_pair(3, 1e-4, b, family))


def test_normalize_pair_reads_the_parameters_of_conjugated_group_elements():
    # near a coincident eigenvalue (small a) and with a long Jordan chain
    # (b = 3) the parameters read from the lifts are the logs' to 1e-10:
    # (a, b), (0, 1) goes to (a, b b2), (0, b2); the residual pins b2 = +-1,
    # since the family fixes the top-right entry at -a
    mags = np.geomspace(5e-4, 5, 13)
    for seed in range(8):
        for b in (0.0, 0.5, 3.0):
            for a in np.concatenate([mags, -mags]):
                res = cl.normalize_pair(*_conjugated_pair(seed, float(a), b))
                (a1, b1), (a2, b2) = res.params
                assert abs(a1 - a) <= 1e-10 * abs(a) and abs(a2) <= 1e-10
                assert abs(b1 - b * b2) <= 1e-10 * max(1.0, b) and res.residual <= 1e-9
    # beyond that the float lifts carry lambda = e^a, and the rounding of
    # lambda swamps the translation part: the pair reads its parameters to
    # within its residual (relative to the translation part), or is refused;
    # at a = 30 no pair keeps its translation part
    refused = set()
    for seed in range(8):
        for b in (0.0, 0.5, 3.0):
            for a in np.geomspace(5, 30, 9):
                try:
                    res = cl.normalize_pair(*_conjugated_pair(seed, float(a), b))
                except cl.HypothesesError:
                    refused.add(float(a))
                    continue
                (a1, b1), (a2, b2) = res.params
                tol = 1e-10 + 100 * res.residual
                assert res.sign == 1 and abs(a1 - a) <= tol * a and abs(a2) <= tol
                assert abs(b1 - b * b2) <= tol * max(1.0, b)
    assert min(refused) > 10.0 and 30.0 in refused
    # the float rounding of rho_t's peripheral pair: lambda = 6.25e14 at
    # t = 10^-4 and 1.6e6 at 1/100
    for t in (Fraction(1, 10**4), Fraction(1, 10**3), Fraction(1, 100)):
        A, B = fig8.word(t, "m"), fig8.longitude(t)
        b = fig8.normalization_consistency(t).meridian_b
        try:
            res = cl.normalize_pair(pl.to_float(A), pl.to_float(B))
        except cl.HypothesesError:
            assert t != Fraction(1, 100)
            continue
        assert res.sign == 1 and abs(abs(res.params[0][1]) - b) <= (1e-10 + 100 * res.residual) * b


def test_normalize_pair_bounds_u_by_the_resolution_of_a_small_dilation(monkeypatch):
    # lambda = e^a << 1 puts d next to -1, so u = log(1 + d) magnifies d's
    # float resolution by 1/lambda: an accepted pair reads u within its
    # reported bound, and a pair whose unguarded u is off by more than 1e-6
    # is refused with an error that names the resolution
    accepted, refused, worst_refused = set(), set(), 0.0
    for seed in range(8):
        for b in (0.0, 0.5, 3.0):
            for a in np.linspace(-5, -30, 11):
                pair = _conjugated_pair(seed, float(a), b)
                with monkeypatch.context() as m:
                    m.setattr(cl, "_u_error", lambda form, lifts: (0.0, 0.0))
                    try:
                        unguarded = cl.normalize_pair(*pair).params[0][0]
                    except cl.HypothesesError:
                        unguarded = math.nan
                try:
                    res = cl.normalize_pair(*pair)
                except cl.HypothesesError as err:
                    assert "float resolution" in str(err)
                    refused.add(float(a))
                    worst_refused = max(worst_refused, abs(unguarded - a))
                    continue
                accepted.add(float(a))
                assert res.params[0][0] == unguarded and abs(unguarded - a) <= res.u_error[0]
                assert res.u_error[0] <= cl.NORMALIZE_TOL * abs(a) and abs(unguarded - a) <= 1e-6
    assert -5.0 in accepted and -5.0 not in refused and -30.0 in refused and -30.0 not in accepted
    assert worst_refused > 1e-2  # the refusal is not idle: some unguarded u is off by far more
    # rho_(10^4): lambda = 1/(16 t^4) = 6.25e-18 is below the float lift's
    # resolution, refused before the commutation test; the exact pair is read
    t = Fraction(10**4)
    A, B = fig8.word(t, "m"), fig8.longitude(t)
    with pytest.raises(cl.HypothesesError, match="float resolution"):
        cl.normalize_pair(pl.to_float(A), pl.to_float(B))
    res = cl.normalize_pair(A, B)
    assert res.u_error == (0.0, 0.0) and res.params[1][0] == pytest.approx(fig8.s_of_t(t), rel=1e-15)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_normalize_pair_conjugated_dilation_of_a_few_hundredths(b):
    res = cl.normalize_pair(*_conjugated_pair(3, 0.015, b))
    assert res.sign == 1 and res.residual <= 1e-9


@pytest.mark.parametrize("a", [3.2e-4, 5e-4, 7e-4])
def test_normalize_pair_model_pair_at_small_dilation(a):
    # the images of a generic element with small f are profiled as
    # generic, not as nilpotent
    gA = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (a, 0.5))))
    gB = pl.to_float(cl.group_exp(LieAlgElem("LPrime", (0.0, 1.0))))
    res = cl.normalize_pair(gA, gB)
    assert res.sign == 1 and res.residual <= 1e-9


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
    # vt_map(t) conjugates the LPrime group elements of the paths at t onto
    # the Lt group elements of the reported parameters
    paths = (lambda u: (u, 0.5 * u), lambda u: (0 * u, u))
    res = cl.convergence_conjugate(*paths, 0.25)
    V = pl.to_float(vt_map(0.25))
    for path, params in zip(paths, res.lt_params):
        img = V @ pl.to_float(cl.group_exp(LieAlgElem("LPrime", path(0.25)))) @ np.linalg.inv(V)
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
    s2 = cl.cusp_shape(*(LieAlgElem("L0", tuple(3 * u for u in e.params)) for e in (m, l)))
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
