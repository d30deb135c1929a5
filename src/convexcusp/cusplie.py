"""Cusp Lie algebra and group families, and their normal forms.

Four abelian families of 4x4 matrices drive everything here, tagged
"L0", "Lt", "LPrime" and "LPrimeMinus".  Elements are stored as a family
tag plus a real parameter pair; ``alg_matrix`` and ``group_exp``
reproduce the closed matrix forms, and the minimal polynomial of a
nonzero element always has the shape t^n (t - f) with n in {2, 3}.

``normalize_algebra_pair`` implements the constructive classification:
a two-dimensional abelian algebra whose minimal polynomial map has that
shape is conjugated into LPrime or LPrimeMinus, deciding the sign.  With
exact rational input the conjugation is carried out over Q or, when the
final rescaling needs a square root, over a quadratic extension, so the
reported residual is exactly zero.

Group elements take one path to the same checks: ``proj_normalize_lift``
rescales a lift to triple eigenvalue 1 and ``mat_log`` takes its log.
``classify`` profiles that log, and ``normalize_pair`` tests the pair for
projective commutation and its two logs for rank 2 before it hands them
to ``normalize_algebra_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import projlin
from .projlin import (
    identity,
    is_exact,
    mat_inv,
    mat_log,
    minimal_polynomial,
    proj_equal,
    real_spectrum,
    to_float,
)

PURE_TRANSLATION = "PureTranslation"
PURE_DILATION = "PureDilation"
GENERIC = "Generic"

FAMILIES = ("L0", "Lt", "LPrime", "LPrimeMinus")


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

    Parameters mean (r, s) for L0/Lt and (a, b) for LPrime/LPrimeMinus.
    Each family is an abelian algebra: elements of the same family (and
    the same t) may be added and rescaled.
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

    def __add__(self, other):
        if not isinstance(other, LieAlgElem) or other.family != self.family or other.t != self.t:
            return NotImplemented
        u, v = self.params
        x, y = other.params
        return LieAlgElem(self.family, (u + x, v + y), self.t)

    def __rmul__(self, c):
        u, v = self.params
        return LieAlgElem(self.family, (c * u, c * v), self.t)

    def matrix(self):
        return alg_matrix(self)

    def exp(self):
        return group_exp(self)


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
    """Exponential of a family element.

    Exact whenever every entry is rational (always for L0; for the other
    families when the dilation part vanishes): the element is then
    nilpotent and ``projlin.mat_exp`` sums its finite series in
    Fractions.  Float closed forms otherwise.  Always agrees with the
    generic matrix exponential.
    """
    u, v = e.params
    if _exactish(u, v) and (e.t is None or _exactish(e.t)) and (e.family == "L0" or u == 0):
        return projlin.mat_exp(alg_matrix(e))
    if e.family == "L0":
        x, y = float(u), float(v)
        return projlin.float_matrix(
            [
                [1.0, x, y, (x * x + y * y) / 2],
                [0.0, 1.0, 0.0, x],
                [0.0, 0.0, 1.0, y],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    if e.family == "Lt":
        r, s, t = float(u), float(v), float(e.t)
        etr = math.exp(t * r)
        g1 = (etr - 1.0) / t
        g2 = (etr - t * r - 1.0) / (t * t)
        return projlin.float_matrix(
            [
                [1.0, g1, s, g2 + s * s / 2],
                [0.0, etr, 0.0, g1],
                [0.0, 0.0, 1.0, s],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    sign = -1 if e.family == "LPrime" else 1
    a, b = float(u), float(v)
    return projlin.float_matrix(
        [
            [1.0, 0.0, b, b * b / 2 + sign * a],
            [0.0, math.exp(a), 0.0, 0.0],
            [0.0, 0.0, 1.0, b],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


# ---------------------------------------------------------------------------
# minimal polynomial profiles and classification


@dataclass(frozen=True)
class MinPolyProfile:
    """Shape data (n, f) of a minimal polynomial t^n (t - f)."""

    n: int | None
    f_value: object
    kernel_flag: bool
    is_zero: bool = False


def minpoly_profile(x, tol=1e-9) -> MinPolyProfile:
    """Extract (n, f) from the minimal polynomial of an algebra element.

    Accepts a LieAlgElem or a raw 4x4 matrix in either regime.  The zero
    element is reported separately; anything whose minimal polynomial is
    not t^n (t - f) with n in {2, 3} raises ProfileShapeError.
    """
    M = alg_matrix(x) if isinstance(x, LieAlgElem) else x
    if all(v == 0 for v in np.asarray(M).flat):
        return MinPolyProfile(None, None, False, is_zero=True)
    m = minimal_polynomial(M, tol=tol)
    coeffs = list(m.coeffs)
    deg = m.degree
    scale = max(abs(float(c)) for c in coeffs) or 1.0

    def iszero(c):
        return c == 0 if is_exact(M) else abs(float(c)) <= tol * scale

    if deg < 3 or deg > 4:
        raise ProfileShapeError(f"minimal polynomial {m} is not of shape t^n (t - f)")
    if not all(iszero(c) for c in coeffs[: deg - 1]):
        raise ProfileShapeError(f"minimal polynomial {m} is not of shape t^n (t - f)")
    f = -coeffs[deg - 1]
    if iszero(f):
        # t^deg: the kernel case t^(n+1) with f = 0
        n = deg - 1
        f = Fraction(0) if is_exact(M) else 0.0
        return MinPolyProfile(n, f, True)
    return MinPolyProfile(deg - 1, f, False)


def classify(g, tol=1e-9) -> str:
    """Pure translation / pure dilation / generic, per the (n, f) profile.

    ``g`` is a LieAlgElem or a 4x4 group element whose log lies in a
    conjugate of the model families; a group element is profiled through
    the log of its canonical lift (``proj_normalize_lift``).
    """
    if isinstance(g, LieAlgElem):
        return classify_profile(minpoly_profile(g, tol=tol))
    return classify_profile(minpoly_profile(mat_log(proj_normalize_lift(g, tol=tol), tol=tol), tol=tol))


def classify_profile(profile: MinPolyProfile) -> str:
    if profile.is_zero:
        raise ValueError("identity element has no classification")
    if profile.kernel_flag:
        if profile.n != 2:
            raise ProfileShapeError("kernel element with n = 3 violates the family shape")
        return PURE_TRANSLATION
    return PURE_DILATION if profile.n == 2 else GENERIC


# ---------------------------------------------------------------------------
# quadratic extension arithmetic for the exact final rescaling


class _QuadExt:
    """Exact arithmetic in Q(sqrt(d)) for a fixed positive rational d."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d):
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.d = Fraction(d)

    def _coerce(self, other):
        if isinstance(other, _QuadExt):
            if other.d != self.d:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return _QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _QuadExt(self.p + o.p, self.q + o.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _QuadExt(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _QuadExt(self.p - o.p, self.q - o.q, self.d)

    def __rsub__(self, other):
        return -self.__sub__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _QuadExt(self.p * o.p + self.d * self.q * o.q, self.p * o.q + self.q * o.p, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.p * o.p - self.d * o.q * o.q
        if den == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        num = self * _QuadExt(o.p, -o.q, self.d)
        return _QuadExt(num.p / den, num.q / den, self.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.__truediv__(self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __abs__(self):
        return abs(float(self))

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(float(self.d))

    def __repr__(self):
        return f"({self.p} + {self.q}*sqrt({self.d}))"


# ---------------------------------------------------------------------------
# the normalization algorithm


_PATTERN_ZEROS = ((0, 0), (0, 1), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3))


def _pattern_violations(M, sign: int):
    """Values that must vanish for membership in the sign family.

    ``sign`` +1 means LPrime (top-right entry -a), -1 means LPrimeMinus.
    """
    vals = [M[i, j] for i, j in _PATTERN_ZEROS]
    vals.append(M[0, 2] - M[2, 3])
    vals.append(M[0, 3] - (-1 if sign > 0 else 1) * M[1, 1])
    return vals


def family_pattern_residual(M, sign: int) -> float:
    """Max violation of the sign-family pattern (0.0 means exact member).

    Works for float, Fraction and quadratic-extension entries; the exact
    regimes are compared exactly, so 0.0 is a certificate.
    """
    vals = _pattern_violations(M, sign)
    if all(isinstance(v, (int, Fraction, _QuadExt)) for v in vals) and all(v == 0 for v in vals):
        return 0.0
    return max(abs(float(v)) for v in vals)


@dataclass(frozen=True)
class NormalizationResult:
    sign: int
    conjugator: object
    images: tuple
    params: tuple
    residual: float
    exact: bool
    group_images: tuple = None

    def conjugator_float(self):
        return np.array([[float(v) for v in row] for row in self.conjugator])

    def to_json(self) -> dict:
        C = self.conjugator_float()
        return {
            "sign": self.sign,
            "conjugator": {"regime": "float", "rows": C.tolist()},
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


def _dependent(alpha, beta, tol) -> bool:
    """Whether two 4x4 matrices span less than two dimensions.

    Exactly, beta is a multiple of alpha iff alpha[p] beta = beta[p] alpha
    for an entry alpha[p] != 0.  In floats, a zero matrix is dependent and
    otherwise the normalized pair must have its smaller singular value
    above ``tol``.
    """
    if is_exact(alpha) and is_exact(beta):
        p = next((ij for ij, v in np.ndenumerate(alpha) if v != 0), None)
        return p is None or all(v == 0 for v in (alpha[p] * beta - beta[p] * alpha).flat)
    va, vb = to_float(alpha).reshape(-1), to_float(beta).reshape(-1)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return True
    return np.linalg.svd(np.stack([va / na, vb / nb]), compute_uv=False)[-1] <= tol


def normalize_algebra_pair(alpha, beta, tol=1e-9) -> NormalizationResult:
    """Conjugate the algebra spanned by two commuting 4x4 matrices into
    LPrime (sign +1) or LPrimeMinus (sign -1).

    Follows the constructive classification: scan small integer
    combinations for a generic (n = 3) element, put it in the modified
    Jordan form, read the induced linear form on the span from the
    commutant constraints, then kill the shear and rescale.  Exact input
    yields an exactly zero residual (over Q or Q(sqrt(d))); float input
    reports the max pattern violation.  Violated hypotheses raise
    HypothesesError naming the failure.
    """
    exact = is_exact(alpha) and is_exact(beta)
    if alpha.shape != (4, 4) or beta.shape != (4, 4):
        raise ValueError("expected 4x4 matrices")
    scale = max(projlin.max_abs(to_float(alpha)), projlin.max_abs(to_float(beta)), 1.0)
    comm = alpha @ beta - beta @ alpha
    comm_resid = projlin.max_abs(to_float(comm))
    if (comm_resid != 0) if exact else (comm_resid > tol * scale ** 2):
        raise HypothesesError(f"generators do not commute (residual {comm_resid:.3e})")
    if _dependent(alpha, beta, tol):
        raise HypothesesError("generators span less than two dimensions")

    # fast path: already in a model family
    for sgn in (1, -1):
        if max(family_pattern_residual(alpha, sgn), family_pattern_residual(beta, sgn)) == 0.0:
            C = identity(4, exact=exact)
            params = tuple((m[1, 1], m[0, 2]) for m in (alpha, beta))
            return NormalizationResult(sgn, C, (alpha, beta), params, 0.0, exact)

    # scan small integer combinations; among the generic (n = 3) elements
    # keep the one with the largest eigenvalue relative to its size, which
    # conditions the spectral projector best
    gen = None
    best_quality = -1.0
    for i, j in _scan_combinations():
        cand = i * alpha + j * beta
        try:
            profile = minpoly_profile(cand, tol=tol)
        except ProfileShapeError as err:
            raise HypothesesError(f"combination {i},{j}: {err}") from err
        except projlin.IllConditionedError:
            # borderline rank decision on one combination proves nothing
            # either way; a clean generic element elsewhere suffices
            continue
        if profile.is_zero:
            raise HypothesesError("generators are linearly dependent over the integers")
        if profile.n == 3:
            quality = abs(float(profile.f_value)) / max(projlin.max_abs(to_float(cand)), 1e-300)
            if quality > best_quality:
                gen, gen_profile, combo = cand, profile, (i, j)
                best_quality = quality
    if gen is None:
        raise HypothesesError("no generic (n = 3) element found among the scanned combinations")
    companion = beta if combo[0] != 0 else alpha

    f = gen_profile.f_value
    if not exact:
        f = float(f)
    # spectral projector onto the f-eigenline: (gen/f)^3 is idempotent
    P = gen @ gen @ gen / (f ** 3)
    gen_nil = gen - f * P
    Q = identity(4, exact=exact) - P
    nil2 = gen_nil @ gen_nil
    # Jordan chain w4 -> w3 -> w1 in the nilpotent summand, w2 spans the eigenline
    cand_cols = [(Q @ identity(4, exact=exact)[:, k]) for k in range(4)]
    scores = [projlin.max_abs(to_float((nil2 @ c).reshape(1, -1))) for c in cand_cols]
    k = int(np.argmax(scores))
    if (scores[k] == 0) if exact else (scores[k] <= tol * scale ** 2):
        raise HypothesesError("generic element has nilpotent order below 3")
    w4 = cand_cols[k]
    w3 = gen @ w4
    w1 = gen @ w3
    pcols = [P @ identity(4, exact=exact)[:, k] for k in range(4)]
    pscores = [projlin.max_abs(to_float(c.reshape(1, -1))) for c in pcols]
    w2 = pcols[int(np.argmax(pscores))]
    T = np.empty((4, 4), dtype=object if exact else float)
    for idx, w in enumerate((w1, w2, w3, w4)):
        T[:, idx] = w
    det = projlin.mat_det(T)
    if (det == 0) if exact else (abs(det) <= 1e-14 * max(1.0, scale) ** 4):
        raise HypothesesError("Jordan basis construction degenerated")
    Ti = mat_inv(T)

    beta_j = Ti @ companion @ T
    # commutant constraints for the reduced companion
    must_vanish = [beta_j[i, j] for i, j in ((0, 1), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))]
    must_vanish += [beta_j[0, 0] - beta_j[2, 2], beta_j[0, 0] - beta_j[3, 3], beta_j[0, 2] - beta_j[2, 3]]
    violated = any(v != 0 for v in must_vanish) if exact else max(abs(float(v)) for v in must_vanish) > 1e-7 * scale
    if violated:
        resid = max(abs(float(v)) for v in must_vanish)
        raise HypothesesError(f"companion violates the commutant constraints (residual {resid:.3e})")
    b11 = beta_j[0, 0]
    if (b11 != 0) if exact else (abs(float(b11)) > 1e-7 * scale):
        raise HypothesesError("companion has a nonzero triple eigenvalue (wrong minimal polynomial shape)")
    f_b = beta_j[1, 1]
    b_b = beta_j[0, 2]
    e14_b = beta_j[0, 3]
    denom = f_b - f * b_b
    if (denom == 0) if exact else (abs(float(denom)) <= tol * scale):
        raise HypothesesError("eigenvalue functional is degenerate on the span")
    c1 = e14_b / denom
    c2 = -c1 * f
    if (c1 == 0) if exact else (abs(float(c1)) <= tol):
        raise HypothesesError("top-right functional vanishes (minimal polynomial not divisible by t^2)")
    sign = 1 if float(c1) < 0 else -1

    # shear away c2, then rescale c1 to a unit
    W = identity(4, exact=exact)
    W[2, 3] = c2
    d_abs = abs(c1) if exact else abs(float(c1))
    if exact:
        root = projlin._rational_sqrt(Fraction(d_abs))
        if root is not None:
            v = 1 / root
            S = identity(4, exact=True)
        else:
            v = _QuadExt(0, Fraction(1), d_abs) / d_abs  # 1/sqrt(d) = sqrt(d)/d
            S = np.empty((4, 4), dtype=object)
            for i in range(4):
                for j in range(4):
                    S[i, j] = _QuadExt(Fraction(i == j), 0, d_abs)
        S[0, 0] = v * v if isinstance(v, _QuadExt) else Fraction(v) ** 2
        S[2, 2] = v
    else:
        v = 1.0 / math.sqrt(d_abs)
        S = np.eye(4)
        S[0, 0] = v * v
        S[2, 2] = v
    C = S @ (W @ Ti)
    Cinv = mat_inv(C)

    images = (C @ alpha @ Cinv, C @ beta @ Cinv)
    residual = max(family_pattern_residual(img, sign) for img in images)
    if exact and residual != 0.0:
        raise AssertionError("exact normalization left a nonzero residual")
    params = tuple((img[1, 1], img[0, 2]) for img in images)
    return NormalizationResult(sign, C, images, params, float(residual), exact)


def _group_pattern_sign(M, tol=1e-9):
    """Detect a group element already in model form; returns +-1 or None."""
    Mf = to_float(M)
    scale = max(1.0, projlin.max_abs(Mf))
    zeros = [(0, 1), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    if any(abs(Mf[i, j]) > tol * scale for i, j in zeros):
        return None
    if any(abs(Mf[i, i] - 1.0) > tol * scale for i in (0, 2, 3)):
        return None
    if abs(Mf[0, 2] - Mf[2, 3]) > tol * scale:
        return None
    lam = Mf[1, 1]
    if lam <= 0:
        return None
    a = math.log(lam)
    b = Mf[0, 2]
    if abs(Mf[0, 3] - (b * b / 2 - a)) <= tol * scale:
        return 1
    if abs(Mf[0, 3] - (b * b / 2 + a)) <= tol * scale:
        return -1
    return None


def proj_normalize_lift(M, tol=1e-9):
    """Rescale a projective representative so its triple eigenvalue is 1.

    The model cusp groups have spectrum {1, 1, 1, lambda}; an arbitrary
    lift differs by a scalar, recovered from the eigenvalue of algebraic
    multiplicity at least 3.
    """
    spec = real_spectrum(M, tol=tol)
    for lam, mult in spec:
        if mult >= 3:
            if float(lam) == 0:
                raise ValueError("singular matrix cannot be normalized")
            if any(float(l / lam) <= 0 for l, _ in spec):
                raise ValueError("no lift with positive spectrum exists")
            return M / lam
    raise ValueError("no eigenvalue of multiplicity 3 or more; cannot pick a canonical lift")


def normalize_pair(A, B, tol=1e-9) -> NormalizationResult:
    """Group-level normalization of a commuting pair of projective maps.

    Lifts are normalized so the triple eigenvalue is 1, logs are taken
    (numerically) and tested for rank 2, and the algebra algorithm runs;
    the group images and profiles of both images are attached for
    verification.  Already normalized pairs pass through with the
    identity conjugator.
    """
    if not proj_equal(A @ B, B @ A, tol=tol):
        raise HypothesesError("generators do not commute projectively")
    A = proj_normalize_lift(A, tol=tol)
    B = proj_normalize_lift(B, tol=tol)
    logs = tuple(mat_log(M, tol=tol) for M in (A, B))
    if _dependent(*logs, tol):
        raise HypothesesError("generators span less than two dimensions")
    # fast path: both already in model group form with a consistent sign
    # (unipotent factors match both families and decide nothing)
    sa = _group_pattern_sign(A, tol=tol)
    sb = _group_pattern_sign(B, tol=tol)
    if sa is not None and sb is not None:
        decisive = {s for s, M in ((sa, A), (sb, B)) if not _is_unipotent(M, tol)}
        if len(decisive) == 1:
            sign = decisive.pop()
            C = identity(4, exact=is_exact(A) and is_exact(B))
            params = tuple((L[1, 1], L[0, 2]) for L in logs)
            return NormalizationResult(sign, C, logs, params, 0.0, False, group_images=(A, B))
    res = normalize_algebra_pair(*logs, tol=tol)
    Cf = res.conjugator_float()
    Cfi = np.linalg.inv(Cf)
    group_images = (Cf @ to_float(A) @ Cfi, Cf @ to_float(B) @ Cfi)
    for img in res.images:
        classify_profile(minpoly_profile(np.asarray(img, dtype=float), tol=1e-7))
    return NormalizationResult(
        res.sign, res.conjugator, res.images, res.params, res.residual, res.exact, group_images=group_images
    )


def _is_unipotent(M, tol):
    return abs(float(M[1, 1]) - 1.0) <= tol * max(1.0, projlin.max_abs(to_float(M)))


# ---------------------------------------------------------------------------
# lattice convergence along parameter paths


@dataclass(frozen=True)
class ConvergenceResult:
    t: object
    lt_params: tuple
    algebra_images: tuple
    group_images: tuple
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
    group_images = tuple(projlin.mat_exp(to_float(img)) for img in alg_images)
    limit_elements = tuple(LieAlgElem("L0", d) for d in (da, db))
    limit_generators = tuple(group_exp(e) for e in limit_elements)
    return ConvergenceResult(t, lt_params, alg_images, group_images, (da, db), limit_elements, limit_generators)


# ---------------------------------------------------------------------------
# cusp shape and the parabolic model


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


def l0_to_parabolic(m) -> np.ndarray:
    """The isomorphism onto upper triangular parabolics of PSL(2, C):
    translation parameters (x, y) map to off-diagonal x + i y."""
    x, y = _translation_params(m)
    return np.array([[1.0, complex(float(x), float(y))], [0.0, 1.0]], dtype=complex)
