"""Cusp Lie algebra and group families, and their normal forms.

Four abelian families of 4x4 matrices drive everything here, tagged
"L0", "Lt", "LPrime" and "LPrimeMinus".  Elements are stored as a family
tag plus a real parameter pair; ``alg_matrix`` reproduces the closed
matrix forms and ``group_exp`` their exponentials.  Every element X
satisfies X^3 (X - fI) = 0 with f = tr X, so the minimal polynomial of
a nonzero element has the shape t^n (t - f) with n in {2, 3}.
``minpoly_profile`` reads (n, f) from ``minimal_polynomial`` for exact
input and from the scaled powers of ``projlin.cusp_cubic`` for float input.

One core, ``translation_line_form``, puts a commuting pair in the cusp
normal form: the eigenline projector and the Jordan chain of a trace-free
element (``chain_basis``), a shear and a scale, deciding the sign of LPrime
or LPrimeMinus.  It reads algebra elements, and g - I of canonical group
lifts with g = e14 - v^2/2 where the log has its top-right entry.
``normalize_algebra_pair`` scans small integer combinations for the generic
element; exact input stays exact, residual exactly zero, when the final
scale r = sqrt(r2) is rational, and is rounded once into floats if not.
``normalize_pair`` rescales group lifts to triple eigenvalue 1
(``proj_normalize_lift``), reads them directly and bounds each u by the
float resolution of d, and ``fig8`` reads the peripheral pair of rho_t.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import projlin
from .projlin import (
    identity,
    is_exact,
    mat_inv,
    minimal_polynomial,
    proj_equal,
    real_spectrum,
    to_float,
)

PURE_TRANSLATION = "PureTranslation"
PURE_DILATION = "PureDilation"
GENERIC = "Generic"

FAMILIES = ("L0", "Lt", "LPrime", "LPrimeMinus")

#: relative tolerance of the float rank, commutation, model-form and
#: degeneracy decisions of the normalization
NORMALIZE_TOL = 1e-9


class HypothesesError(ValueError):
    """Raised when input violates the normal-form hypotheses; the message
    names the failed hypothesis."""


class ProfileShapeError(ValueError):
    """Raised when a minimal polynomial is not of the t^n (t - f) shape."""


def _exactish(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


@dataclass(frozen=True)
class LieAlgElem:
    """Element of one of the four families, as (family, parameter pair).

    Parameters mean (r, s) for L0/Lt and (a, b) for LPrime/LPrimeMinus;
    each family is an abelian algebra, linear in them.
    """

    family: str
    params: tuple
    t: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "Lt":
            if self.t is None or self.t == 0:
                raise ValueError("family Lt requires a parameter t != 0")
        elif self.t is not None:
            raise ValueError(f"family {self.family} takes no t parameter")


def alg_matrix(e: LieAlgElem):
    """The displayed 4x4 matrix of a Lie algebra element.

    Exact output for exact parameters (and exact t).
    """
    u, v = e.params
    exact = _exactish(u, v) and (e.t is None or _exactish(e.t))
    zero = Fraction(0) if exact else 0.0
    u = Fraction(u) if exact else float(u)
    v = Fraction(v) if exact else float(v)
    if e.family == "L0":
        rows = [[zero, u, v, zero], [zero, zero, zero, u], [zero, zero, zero, v], [zero] * 4]
    elif e.family == "Lt":
        t = Fraction(e.t) if exact else float(e.t)
        rows = [[zero, u, v, zero], [zero, t * u, zero, u], [zero, zero, zero, v], [zero] * 4]
    elif e.family == "LPrime":
        rows = [[zero, zero, v, -u], [zero, u, zero, zero], [zero, zero, zero, v], [zero] * 4]
    else:  # LPrimeMinus
        rows = [[zero, zero, v, u], [zero, u, zero, zero], [zero, zero, zero, v], [zero] * 4]
    return projlin.exact_matrix(rows) if exact else projlin.float_matrix(rows)


def group_exp(e: LieAlgElem):
    """Exponential of a family element, ``projlin.mat_exp`` of its matrix.

    Exact when the element is nilpotent with rational entries (always
    for exact L0; for the other families when the dilation part
    vanishes), float64 otherwise.
    """
    return projlin.mat_exp(alg_matrix(e))


# ---------------------------------------------------------------------------
# minimal polynomial profiles


@dataclass(frozen=True)
class MinPolyProfile:
    """Shape data (n, f) of a minimal polynomial t^n (t - f)."""

    n: int | None
    f_value: object
    kernel_flag: bool
    is_zero: bool = False


def minpoly_profile(x) -> MinPolyProfile:
    """Extract (n, f) from the minimal polynomial of an algebra element.

    Accepts a LieAlgElem or a raw 4x4 matrix in either regime.  The zero
    element is reported separately; anything whose minimal polynomial is
    not t^n (t - f) with n in {2, 3} raises ProfileShapeError.  Exact
    input is decided on ``minimal_polynomial``, float input on the powers of
    Z = X / 2^k, |Z| in [1, 2), of ``projlin.cusp_cubic``: the kernel flag
    |f| <= CUSP_CUBIC_TOL |X|, and n = 2 when Z^2 (Z - 2^-k f I) vanishes
    (Z^3 when f = 0), each Z^j against CUSP_CUBIC_TOL |Z|^j.
    """
    M = alg_matrix(x) if isinstance(x, LieAlgElem) else x
    if all(v == 0 for v in np.asarray(M).flat):
        return MinPolyProfile(None, None, False, is_zero=True)
    if is_exact(M):
        m = minimal_polynomial(M)
        if m.degree not in (3, 4) or any(c != 0 for c in m.coeffs[: m.degree - 1]):
            raise ProfileShapeError(f"minimal polynomial {m} is not of shape t^n (t - f)")
        f = -m.coeffs[-2]
        return MinPolyProfile(m.degree - 1, f, f == 0)
    f, k, (Z, Z2, Z3), on_shape = projlin.cusp_cubic(np.asarray(M, dtype=float))
    if not on_shape:
        raise ProfileShapeError("matrix is off the cusp shape X^3 (X - fI) = 0")
    size, fz = float(np.abs(Z).max()), math.ldexp(f, -k)

    def vanishes(P, j):
        return np.abs(P).max() <= projlin.CUSP_CUBIC_TOL * size ** j

    kernel = abs(fz) <= projlin.CUSP_CUBIC_TOL * size
    if kernel:
        f = fz = 0.0
    if vanishes(Z2 - fz * Z, 2):
        raise ProfileShapeError("minimal polynomial t^2 or t (t - f) is not of shape t^n (t - f)")
    return MinPolyProfile(2 if vanishes(Z3 - fz * Z2, 3) else 3, float(f), kernel)


# ---------------------------------------------------------------------------
# the normalization algorithm


_PATTERN_ZEROS = ((0, 0), (0, 1), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3))


def _pattern_violations(M, sign: int):
    """Values that must vanish for membership in the sign family.

    ``sign`` +1 means LPrime (top-right entry -a), -1 means LPrimeMinus;
    0 leaves that top-right coupling out and checks the zero pattern and
    the translation entries that both families share.
    """
    vals = [M[i, j] for i, j in _PATTERN_ZEROS] + [M[0, 2] - M[2, 3]]
    return vals + [M[0, 3] + sign * M[1, 1]] if sign else vals


def family_pattern_residual(M, sign: int) -> float:
    """Max violation of the sign-family pattern, of float or Fraction entries;
    Fractions are compared exactly, so 0.0 certifies an exact member."""
    vals = _pattern_violations(M, sign)
    if _exactish(*vals) and all(v == 0 for v in vals):
        return 0.0
    return max(abs(float(v)) for v in vals)


@dataclass(frozen=True)
class NormalizationResult:
    sign: int
    conjugator: object
    images: tuple
    params: tuple
    residual: float
    exact: bool  # the images are exact: only Fractions, residual 0.0 (else float64, residual measured)
    u_error: tuple | None = None  # group pairs: the bound d's float resolution sets on each u's error

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "conjugator": projlin.matrix_to_json(to_float(self.conjugator)),
            "residual": self.residual,
        }


def _scan_combinations(limit=3):
    pairs = [
        (i, j)
        for i in range(-limit, limit + 1)
        for j in range(-limit, limit + 1)
        if (i, j) != (0, 0)
    ]
    return sorted(pairs, key=lambda ij: (abs(ij[0]) + abs(ij[1]), ij))


def _dependent(alpha, beta) -> bool:
    """Whether two 4x4 matrices span less than two dimensions.

    Exactly, beta is a multiple of alpha iff alpha[p] beta = beta[p] alpha
    for an entry alpha[p] != 0.  In floats, a zero matrix is dependent and
    otherwise the normalized pair must have its smaller singular value
    above ``NORMALIZE_TOL``.
    """
    if is_exact(alpha) and is_exact(beta):
        p = next((ij for ij, v in np.ndenumerate(alpha) if v != 0), None)
        return p is None or all(v == 0 for v in (alpha[p] * beta - beta[p] * alpha).flat)
    va, vb = to_float(alpha).reshape(-1), to_float(beta).reshape(-1)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return True
    return np.linalg.svd(np.stack([va / na, vb / nb]), compute_uv=False)[-1] <= NORMALIZE_TOL


def chain_basis(P, X, scale=1.0):
    """The basis (X w3, w2, w3 = X w4, w4) that puts X, nilpotent of order 3
    on the range of I - P, and the eigenline projector P in model form: w4 is
    the column of I - P with the largest X^2 w4, w2 the largest column of P.
    A float basis is degenerate relative to ``scale``, the size of X."""
    exact = is_exact(P) and is_exact(X)
    Q = identity(4, exact=exact) - P
    X2Q = projlin.mat_product(X, X, Q)
    k = max(range(4), key=lambda j: projlin.max_abs(X2Q[:, j]))
    w3 = projlin.mat_product(X, Q[:, k])
    w2 = P[:, max(range(4), key=lambda j: projlin.max_abs(P[:, j]))]
    T = np.column_stack([projlin.mat_product(X, w3), w2, w3, Q[:, k]])
    if abs(projlin.mat_det(T)) <= (0 if exact else 1e-14 * max(1.0, scale) ** 4):
        raise HypothesesError("Jordan basis construction degenerated")
    return T


def _readout(Z, group):
    """(d, v, g) = (Z[1, 1], Z[0, 2], Z[0, 3]), less v^2/2 from g for Z = h - I."""
    g = Z[0, 3]
    if group:
        g -= Z[0, 2] ** 2 / 2
    return Z[1, 1], Z[0, 2], g


def _translation_size(Zs) -> float:
    """The largest entry of the Zs off [1, 1]: the size of their translation
    part, which lambda - 1 of a group lift does not swamp."""
    return max(abs(float(Z[ij])) for Z in Zs for ij in np.ndindex(4, 4) if ij != (1, 1))


def _log_lambda(d) -> float:
    """log(1 + d), rounded once: log1p next to d = 0, log num - log den beyond floats."""
    if not isinstance(d, Fraction) or abs(d) <= Fraction(1, 2):
        return math.log1p(float(d))
    x = 1 + d
    if abs(x.numerator.bit_length() - x.denominator.bit_length()) >= 1000:
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


#: ``inverse`` conjugates each generator to ``sheared``, reading (d, v, g) in ``reads``, g/u = -sign/r2
#: for both; ``residual`` is the largest violation of the LPrime/LPrimeMinus pattern (0.0 certifies it),
#: relative to ``_translation_size``
LineForm = namedtuple("LineForm", "sign inverse sheared reads u r2 residual")


def translation_line_form(gens, Y, X, group) -> LineForm:
    """The cusp normal form of the commuting pair ``gens``, short of the scale.

    Y (f = tr Y != 0) and X span the pair: algebra elements, or g - I of
    canonical lifts when ``group``.  P = E^2, E = Y/f - k N0 with the trace-free
    N0 = X - (tr X / f) Y and k = (Y N0)/(f N0^2) at the largest entry of N0^2,
    projects onto the f-eigenline; Y^2 - f Y stands in for an N0 of order below
    3.  In the basis ``chain_basis(P, N0)`` each generator reads (d, v, g)
    (``_readout``), u = d or log(1 + d).  The shear W = I + c e_34,
    c = (g_A u_B - g_B u_A)/(v_A u_B - v_B u_A) (g/v of a unipotent generator,
    exactly; a zero denominator is rank 1), leaves one g/u = -sign/r2, read at
    the larger u.  Violated hypotheses raise HypothesesError.
    """
    exact = all(is_exact(M) for M in (*gens, Y, X))
    f = np.trace(Y)
    for N0 in (X - np.trace(X) / f * Y, projlin.mat_product(Y, Y) - f * Y):
        N2 = projlin.mat_product(N0, N0)
        p = max(np.ndindex(4, 4), key=lambda ij: abs(N2[ij]))
        size = 1.0 if exact else projlin.max_abs(N0)
        if abs(N2[p]) > (0 if exact else NORMALIZE_TOL * size ** 2):
            break
    else:
        raise HypothesesError("generators span less than two dimensions (both are pure dilations)")
    E = Y / f - (Y[p[0]] @ N0[:, p[1]]) / (f * N2[p]) * N0
    # E = P + e N0^2 with N0^2 = x y, y x = 0: E (I - e_q y/y_q) (I - x e_p/x_p) E
    # is P with the large e N0^2 dropped before the product, not squared
    P = projlin.mat_product(E - np.outer(E[:, p[1]], N2[p[0]] / N2[p]), E - np.outer(N2[:, p[1]] / N2[p], E[p[0]]))
    T = chain_basis(P, N0, size)
    Ti = mat_inv(T)
    Zs = [projlin.mat_product(Ti, Z, T) for Z in gens]
    (dA, vA, gA), (dB, vB, gB) = (_readout(Z, group) for Z in Zs)
    uA, uB = dA, dB
    if group:
        uA, uB = _log_lambda(dA), _log_lambda(dB)
    den = vA * uB - vB * uA
    tol = 0 if _exactish(den) else NORMALIZE_TOL * (abs(vA * uB) + abs(vB * uA))
    if abs(den) <= tol:
        raise HypothesesError("generators span less than two dimensions")
    if dA == 0:
        c = gA / vA
    elif dB == 0:
        c = gB / vB
    else:
        c = (gA * uB - gB * uA) / den
    if exact and not _exactish(c):
        Ti, Zs = to_float(Ti), [to_float(Z) for Z in Zs]
    Ti[2] += c * Ti[3]
    for Z in Zs:
        Z[2] += c * Z[3]
        Z[:, 3] -= c * Z[:, 2]
    reads = tuple(_readout(Z, group) for Z in Zs)
    (d, v, g), u = max(zip(reads, (uA, uB)), key=lambda ru: abs(ru[1]))
    if abs(g) <= (0 if exact else NORMALIZE_TOL * abs(u) * max(vA * vA, vB * vB)):
        raise HypothesesError("the dilation has no top-right entry: "
                              "no conjugate of LPrime or LPrimeMinus holds the pair")
    sign = 1 if d * g < 0 else -1
    residual = max(family_pattern_residual(Z, 0) for Z in Zs) / _translation_size(Zs)
    if residual > (0.0 if is_exact(Zs[0]) else 1e-7):
        raise HypothesesError(f"a generator violates the commutant constraints (residual {residual:.3e})")
    return LineForm(sign, Ti, tuple(Zs), reads, (uA, uB), -sign * u / g, residual)


def _scaled_form(form):
    """C = S ``form.inverse`` and the images S Z S^-1 of ``form.sheared``, scaled
    entrywise, with S = diag(r^2, 1, r, 1), r = sqrt(r2): over Q when r2 is the
    square of a rational, else in floats, r2 and then sqrt(r2) rounded once."""
    r2, inverse, sheared = form.r2, form.inverse, form.sheared
    r = projlin._rational_sqrt(r2) if _exactish(r2) else None
    if r is not None:
        s = np.array([r * r, Fraction(1), r, Fraction(1)], dtype=object)
    else:  # math.sqrt rounds a Fraction r2 to float first
        s = np.array([float(r2), 1.0, math.sqrt(r2), 1.0])
        inverse, sheared = to_float(inverse), [to_float(Z) for Z in sheared]
    ratios = np.outer(s, 1 / s)
    return s[:, None] * inverse, tuple(ratios * Z for Z in sheared)


def normalize_algebra_pair(alpha, beta) -> NormalizationResult:
    """Conjugate the algebra spanned by two commuting 4x4 matrices into
    LPrime (sign +1) or LPrimeMinus (sign -1).

    The generic (n = 3) element among small integer combinations is Y of
    ``translation_line_form``, whose form ``_scaled_form`` scales by sqrt(r2):
    exact input stays exact, with an exactly zero residual, when r2 is the
    square of a rational; otherwise r2 is rounded once, and the result is a
    float one (``exact`` False) reporting the max pattern violation.  A pair
    already in a model family (exactly, or within ``NORMALIZE_TOL`` relative
    for float input) keeps the identity conjugator and its measured
    residual.  Violated hypotheses raise HypothesesError naming the failure.
    """
    exact = is_exact(alpha) and is_exact(beta)
    if alpha.shape != (4, 4) or beta.shape != (4, 4):
        raise ValueError("expected 4x4 matrices")
    scale = max(projlin.max_abs(to_float(alpha)), projlin.max_abs(to_float(beta)), 1.0)
    comm = alpha @ beta - beta @ alpha
    comm_resid = projlin.max_abs(to_float(comm))
    if (comm_resid != 0) if exact else (comm_resid > NORMALIZE_TOL * scale ** 2):
        raise HypothesesError(f"generators do not commute (residual {comm_resid:.3e})")
    if _dependent(alpha, beta):
        raise HypothesesError("generators span less than two dimensions")

    # fast path: already in a model family; an element with no dilation
    # part fits both, so the other one decides the sign
    for sgn in (1, -1):
        resid = max(family_pattern_residual(alpha, sgn), family_pattern_residual(beta, sgn))
        if (resid == 0) if exact else (resid <= NORMALIZE_TOL * scale):
            C = identity(4, exact=exact)
            params = tuple((m[1, 1], m[0, 2]) for m in (alpha, beta))
            return NormalizationResult(sgn, C, (alpha, beta), params, resid, exact)

    # scan small integer combinations; among the generic (n = 3) elements
    # keep the one with the largest eigenvalue relative to its size, which
    # conditions the spectral projector best
    gen = None
    best_quality = -1.0
    for i, j in _scan_combinations():
        cand = i * alpha + j * beta
        try:
            profile = minpoly_profile(cand)
        except ProfileShapeError as err:
            raise HypothesesError(f"combination {i},{j}: {err}") from err
        if profile.n == 3 and not profile.kernel_flag:
            quality = abs(float(profile.f_value)) / max(projlin.max_abs(to_float(cand)), 1e-300)
            if quality > best_quality:
                gen, combo = cand, (i, j)
                best_quality = quality
    if gen is None:
        raise HypothesesError("no generic (n = 3) element found among the scanned combinations")
    form = translation_line_form((alpha, beta), gen, beta if combo[0] != 0 else alpha, False)
    C, images = _scaled_form(form)
    residual = max(family_pattern_residual(img, form.sign) for img in images)
    if is_exact(C) and residual != 0.0:
        raise AssertionError("exact normalization left a nonzero residual")
    params = tuple((img[1, 1], img[0, 2]) for img in images)
    return NormalizationResult(form.sign, C, images, params, float(residual), is_exact(C))


def _lift_resolution(lift) -> float:
    """4 eps |g|_2: the float resolution of the eigenvalues of the 4x4 lift g,
    short of their condition numbers."""
    return 4 * np.finfo(float).eps * float(np.linalg.norm(lift, 2))


def proj_normalize_lift(M):
    """Rescale a projective representative so its triple eigenvalue is 1.

    The model cusp groups have spectrum {1, 1, 1, lambda}; an arbitrary
    lift differs by a scalar, recovered from the eigenvalue of algebraic
    multiplicity at least 3.  A float lift resolves lambda only beyond
    ``_lift_resolution`` from 0 and beyond ``projlin.SPECTRUM_CLUSTER_TOL``
    from 1 (one cluster of four with Z^3 above ``projlin.CUSP_CUBIC_TOL`` |Z|^3,
    Z the scaled g - I of ``projlin.cusp_cubic``); either failure raises HypothesesError.
    """
    spec = real_spectrum(M)
    for lam, mult in spec:
        if mult >= 3:
            if float(lam) == 0:
                raise ValueError("singular matrix cannot be normalized")
            lift = M / lam
            if not is_exact(M):
                res = _lift_resolution(lift)
                if any(l != lam and abs(l / lam) <= res for l, _ in spec):
                    raise HypothesesError(f"the dilation eigenvalue lies within the lift's float resolution "
                                          f"{res:.3g} (4 eps |g|) of 0")
            if any(float(l / lam) <= 0 for l, _ in spec):
                raise ValueError("no lift with positive spectrum exists")
            if mult == 4 and not is_exact(M):
                _, _, (Z, _, Z3), _ = projlin.cusp_cubic(lift - np.eye(4))
                if np.abs(Z3).max() > projlin.CUSP_CUBIC_TOL * np.abs(Z).max() ** 3:
                    raise HypothesesError("the dilation eigenvalue lies within the lift's resolution of the triple "
                                          f"eigenvalue (SPECTRUM_CLUSTER_TOL = {projlin.SPECTRUM_CLUSTER_TOL:g} relative)")
            return lift
    raise ValueError("no eigenvalue of multiplicity 3 or more; cannot pick a canonical lift")


def _u_error(form, lifts):
    """The bound on each |u - log lambda| that the float resolution of d sets:
    delta = ``_lift_resolution`` times kappa = |x| |y|, the condition number of
    lambda with x = T e2 and y = e2^T T^-1 of the form's basis, gives
    delta/(lambda - delta), or inf where delta reaches lambda = 1 + d.  A bound
    above ``NORMALIZE_TOL`` max(1, |u|) raises HypothesesError.  For lambda >> 1
    the lift's scale, read from the triple eigenvalue, can err by more."""
    Ti = form.inverse
    kappa = float(np.linalg.norm(np.linalg.inv(Ti)[:, 1]) * np.linalg.norm(Ti[1]))
    bounds = []
    for g, (d, _, _), u in zip(lifts, form.reads, form.u):
        delta, lam = _lift_resolution(g) * kappa, 1 + d
        bound = delta / (lam - delta) if delta < lam else math.inf
        if bound > NORMALIZE_TOL * max(1.0, abs(u)):
            raise HypothesesError(f"u = log(1 + d) is unresolved: d's float resolution {delta:.3g} (4 eps |g| times "
                                  f"lambda's condition number {kappa:.3g}) bounds u's error by {bound:.3g}")
        bounds.append(float(bound))
    return tuple(bounds)


def _group_residual(Zs, sign, u) -> float:
    """The largest violation by the Zs (h - I of both images) of the pattern
    and of g = -sign u, relative to ``_translation_size``."""
    gaps = [abs(_readout(Z, True)[2] + sign * uu) for Z, uu in zip(Zs, u)]
    return max(max(family_pattern_residual(Z, 0) for Z in Zs), *gaps) / _translation_size(Zs)


def normalize_pair(A, B) -> NormalizationResult:
    """Group-level normalization of a commuting pair of projective maps: the lifts
    (``proj_normalize_lift``, taken before the commutation test; exact input stays exact up
    to the logs u) give g - I to ``translation_line_form``, Y the one of larger relative
    trace.  A float pair reports ``_u_error`` and is refused where it is too large.  The
    images are the conjugated lifts, read from the sheared form, with their
    ``_group_residual``; a pair already in model form keeps the identity conjugator."""
    exact = is_exact(A) and is_exact(B)
    lifts = [proj_normalize_lift(g if exact else to_float(g)) for g in (A, B)]
    if not proj_equal(A @ B, B @ A):
        raise HypothesesError("generators do not commute projectively")
    Z = [g - identity(4, exact=exact) for g in lifts]
    sizes = [max(projlin.max_abs(to_float(z)), 1e-300) for z in Z]
    y = max((0, 1), key=lambda i: abs(float(np.trace(Z[i]))) / sizes[i])
    if abs(float(np.trace(Z[y]))) <= NORMALIZE_TOL * sizes[y]:
        raise HypothesesError("generators span less than two dimensions (both are unipotent)")
    form = translation_line_form(Z, Z[y], Z[1 - y], True)
    u_error = (0.0, 0.0) if exact else _u_error(form, lifts)
    C = np.eye(4)
    residual = _group_residual(Z, form.sign, form.u)
    if residual > NORMALIZE_TOL:
        C, Z = _scaled_form(form)
        residual = _group_residual(Z, form.sign, form.u)
    params = tuple((u, z[0, 2]) for u, z in zip(form.u, Z))
    images = tuple(np.eye(4) + to_float(z) for z in Z)
    return NormalizationResult(form.sign, C, images, params, residual, False, u_error)


# ---------------------------------------------------------------------------
# lattice convergence along parameter paths


@dataclass(frozen=True)
class ConvergenceResult:
    lt_params: tuple
    derivatives: tuple
    limit_elements: tuple
    limit_generators: tuple


def convergence_conjugate(a_path, b_path, t, h=None) -> ConvergenceResult:
    """Conjugate a parameter family of LPrime lattices into the Lt family
    and compute its limit in L0.

    ``a_path`` and ``b_path`` map the family parameter to LPrime
    parameter pairs; they must vanish at 0, be differentiable there, and
    have linearly independent derivative vectors (checked numerically,
    HypothesesError otherwise).  The conjugated algebra elements carry
    Lt parameters (u/t, v/t); the limit elements are the L0 elements
    with the derivative parameters.
    """
    from .domains import vt_map  # local import to keep module layering flat

    if t == 0:
        raise ValueError("family parameter must be nonzero")
    exact = isinstance(t, (int, Fraction))
    if h is None:
        h = Fraction(1, 100000) if exact else 1e-5
    for u in (h, h / 16):
        va = np.array([float(x) for x in a_path(u)])
        vb = np.array([float(x) for x in b_path(u)])
        if max(np.max(np.abs(va)), np.max(np.abs(vb))) > 0.1:
            raise HypothesesError("paths do not vanish at the origin")
    da = tuple((ai - bi) / (2 * h) for ai, bi in zip(a_path(h), a_path(-h)))
    db = tuple((ai - bi) / (2 * h) for ai, bi in zip(b_path(h), b_path(-h)))
    det = da[0] * db[1] - da[1] * db[0]
    norm = max(abs(float(da[0])), abs(float(da[1])), abs(float(db[0])), abs(float(db[1])), 1e-30)
    if abs(float(det)) <= 1e-8 * norm ** 2:
        raise HypothesesError("derivative vectors at 0 are linearly dependent")

    at, bt = a_path(t), b_path(t)
    V = vt_map(t)
    Vi = mat_inv(V)
    alg_images = tuple(
        V @ alg_matrix(LieAlgElem("LPrime", tuple(p))) @ Vi for p in (at, bt)
    )
    lt_params = tuple((p[0] / t, p[1] / t) for p in (at, bt))
    for img, p in zip(alg_images, lt_params):
        expect = alg_matrix(LieAlgElem("Lt", p, t=t))
        diff = projlin.max_abs(to_float(img - expect))
        if diff > 1e-9 * max(1.0, projlin.max_abs(to_float(expect))):
            raise AssertionError(f"conjugated element missed the Lt form by {diff:.3e}")
    limit_elements = tuple(LieAlgElem("L0", d) for d in (da, db))
    limit_generators = tuple(group_exp(e) for e in limit_elements)
    return ConvergenceResult(lt_params, (da, db), limit_elements, limit_generators)


# ---------------------------------------------------------------------------
# cusp shape


@dataclass(frozen=True)
class CuspShape:
    """Orientation-normalized cusp modulus with its raw value.

    ``inverted_generator`` records that the second generator was
    replaced by its inverse to make the imaginary part positive.
    """

    omega: complex
    raw_omega: complex
    inverted_generator: bool


def _translation_params(m):
    if isinstance(m, LieAlgElem):
        if m.family != "L0":
            raise ValueError("cusp shape takes L0 elements")
        return m.params
    # parabolic-family matrix (algebra or group form): the translation
    # parameters sit in the first row; exact entries stay exact
    return (m[0, 1], m[0, 2])


def cusp_shape(m, l) -> CuspShape:
    """Cusp modulus (x2 + i y2) / (x1 + i y1) of an ordered L0 pair.

    Normalized to positive imaginary part by inverting the second
    generator when needed (recorded); a real ratio means the pair spans
    only a line and is rejected.  Rational parameters are divided
    exactly before conversion to complex floats.
    """
    x1, y1 = _translation_params(m)
    x2, y2 = _translation_params(l)
    if x1 == 0 and y1 == 0:
        raise ValueError("first generator is trivial")
    if all(isinstance(v, (int, Fraction)) for v in (x1, y1, x2, y2)):
        den = x1 * x1 + y1 * y1
        re = Fraction(x1 * x2 + y1 * y2, 1) / den
        im = Fraction(x1 * y2 - x2 * y1, 1) / den
        raw = complex(float(re), float(im))
        im_sign = im
    else:
        raw = complex(float(x2), float(y2)) / complex(float(x1), float(y1))
        im_sign = raw.imag
    if im_sign == 0:
        raise ValueError("degenerate pair: cusp shape is real (rank below 2)")
    if im_sign < 0:
        return CuspShape(-raw, raw, True)
    return CuspShape(raw, raw, False)
