"""Projective linear algebra on small dense matrices in two scalar regimes.

Exact matrices carry ``fractions.Fraction`` entries inside object-dtype
numpy arrays, so +, -, *, / never round.  Float matrices are plain IEEE
float64 arrays, compared at the relative tolerances named below.
``minimal_polynomial`` is exact-only (float profiles: ``cusplie.minpoly_profile``).
``mat_exp`` is the one cusp-algebra function and ``cusp_cubic`` its shape test;
group lifts are not logged but read by ``cusplie.translation_line_form`` (g =
e14 - v^2/2).  All functions are pure; nothing here mutates its arguments.

Matrices are interchanged with other tools as JSON objects
``{"regime": "exact"|"float", "rows": [[..4 entries..] x4]}`` where exact
entries are strings ``"p/q"`` and float entries are numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class NonRealSpectrumError(ValueError):
    """Raised when a real spectrum is requested but complex eigenvalues exist."""


#: relative tolerance of float projective equality (``proj_equal``)
PROJ_EQUAL_TOL = 1e-9
#: relative radius at which float eigenvalues are clustered
#: (``real_spectrum``): a defective eigenvalue of multiplicity k splits
#: into a cluster of radius about eps^(1/k)
SPECTRUM_CLUSTER_TOL = 3e-4
#: relative tolerance of the float cusp cubic (``cusp_cubic``) and of the profile decisions
#: on its powers: a power Z^j of the scaled element Z vanishes below CUSP_CUBIC_TOL |Z|^j
CUSP_CUBIC_TOL = 1e-9


# ---------------------------------------------------------------------------
# construction and regime handling


def exact_matrix(rows):
    """Build an exact matrix from ints, Fractions or "p/q" strings.

    Floats are rejected: silently promoting a rounded value to an exact
    one would defeat the point of the exact regime.
    """
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, float):
                raise TypeError("float entry in exact matrix; use float_matrix")
            out[i, j] = Fraction(v)
    return out


def float_matrix(rows):
    return np.asarray(rows, dtype=float)


def is_exact(M) -> bool:
    return getattr(M, "dtype", None) == object


def to_float(M):
    """Cast either regime to float64."""
    if is_exact(M):
        return np.array([[float(v) for v in row] for row in M], dtype=float)
    return np.asarray(M, dtype=float)


def integer_scaled(M):
    """(A, d) with A an object array of ints and d > 0 the least integer
    for which M = A / d; M is exact.  Products of integer matrices take
    no gcd, so exact work on A costs a fraction of the same on M."""
    d = math.lcm(*(v.denominator for v in M.flat))
    A = np.array([v.numerator * (d // v.denominator) for v in M.flat], dtype=object)
    return A.reshape(M.shape), d


def from_integer_scaled(A, d):
    """The exact matrix A / d, one gcd per entry."""
    return np.array([Fraction(v, d) for v in A.flat], dtype=object).reshape(A.shape)


def integer_product(*factors):
    """Product of (numerator, denominator) pairs, left to right."""
    num, den = factors[0]
    for A, d in factors[1:]:
        num, den = num @ A, den * d
    return num, den


def mat_product(*Ms):
    """Ms[0] @ Ms[1] @ ..., left to right; exact factors as the integer
    matrices of ``integer_scaled``, reduced to Fractions once at the end."""
    if not all(map(is_exact, Ms)):
        return integer_product(*((M, 1) for M in Ms))[0]
    return from_integer_scaled(*integer_product(*map(integer_scaled, Ms)))


def identity(n=4, exact=False):
    if not exact:
        return np.eye(n)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Fraction(i == j)
    return out


def zero_matrix(n=4, exact=False):
    if not exact:
        return np.zeros((n, n))
    out = np.empty((n, n), dtype=object)
    out[:] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# elementary linear algebra, generic over both regimes


def mat_det(M):
    """Determinant by Gaussian elimination with partial pivoting.

    Supports both regimes (exact result in the exact regime).
    """
    A = np.array(M, copy=True)
    n = A.shape[0]
    det = Fraction(1) if is_exact(A) else 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r, col]))
        if A[piv, col] == 0:
            return det * 0
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            det = -det
        det = det * A[col, col]
        inv = A[col, col]
        for r in range(col + 1, n):
            if A[r, col] != 0:
                factor = A[r, col] / inv
                A[r, col:] = A[r, col:] - factor * A[col, col:]
    return det


def mat_inv(M):
    """Inverse by Gauss-Jordan elimination; exact in the exact regime."""
    A = np.array(M, copy=True)
    n = A.shape[0]
    B = identity(n, exact=is_exact(A))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r, col]))
        if A[piv, col] == 0:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            B[[col, piv]] = B[[piv, col]]
        inv = A[col, col]
        A[col] = A[col] / inv
        B[col] = B[col] / inv
        for r in range(n):
            if r != col and A[r, col] != 0:
                f = A[r, col]
                A[r] = A[r] - f * A[col]
                B[r] = B[r] - f * B[col]
    return B


def max_abs(M) -> float:
    return max(abs(v) for v in np.asarray(M).flat)


# ---------------------------------------------------------------------------
# projective points and maps


def apply_affine_batch(M, pts):
    """Vectorised float chart action on an (n,3) array of affine points."""
    Mf = to_float(M)
    pts = np.asarray(pts, dtype=float)
    hom = pts @ Mf[:3, :3].T + Mf[:3, 3]
    w = pts @ Mf[3, :3] + Mf[3, 3]
    return hom / w[:, None]


def proj_equal(A, B) -> bool:
    """Whether B = lambda*A for a nonzero scalar (projective equality).

    Exact regime: decided exactly.  Float regime: the scalar is taken from
    the ratio at A's largest-magnitude entry and the comparison is
    entrywise with relative tolerance ``PROJ_EQUAL_TOL``.  Singular input
    rejected.
    """
    if mat_det(A) == 0 or mat_det(B) == 0:
        raise SingularMatrixError("projective equality needs invertible matrices")
    n = A.shape[0]
    pos = max(((i, j) for i in range(n) for j in range(n)), key=lambda ij: abs(A[ij]))
    if is_exact(A) and is_exact(B):
        lam = B[pos] / A[pos]
        if lam == 0:
            return False
        return bool(all(B[i, j] == lam * A[i, j] for i in range(n) for j in range(n)))
    Af, Bf = to_float(A), to_float(B)
    lam = Bf[pos] / Af[pos]
    resid = np.max(np.abs(Bf - lam * Af))
    return bool(resid <= PROJ_EQUAL_TOL * max(1.0, np.max(np.abs(Bf))))


# ---------------------------------------------------------------------------
# polynomials (degree <= 4 throughout)


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficient tuple (index = power)."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs):
        return cls(tuple(_trim(list(coeffs))))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        terms = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            base = "1" if p == 0 else ("t" if p == 1 else f"t^{p}")
            if c == 1 and p > 0:
                terms.append(base)
            elif c == -1 and p > 0:
                terms.append(f"-{base}")
            else:
                terms.append(f"{c}" if p == 0 else f"{c}*{base}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _trace_recursion(A):
    """Ascending coefficients of det(tI - A) = t^n - c1 t^(n-1) - ... - cn
    for an integer matrix A, by the trace recursion: every c_k is an
    integer, so the division by k is exact."""
    n, cs, Ak = A.shape[0], [], A
    I = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        cs.append(sum(Ak[i, i] for i in range(n)) // k)
        if k < n:
            Ak = A @ (Ak - cs[-1] * I)
    return [-c for c in reversed(cs)] + [1]


# ---------------------------------------------------------------------------
# minimal polynomial via Krylov dependencies


def _vec(M):
    return np.asarray(M).reshape(-1)


def _solve_exact_dependency(cols, target):
    """Solve sum_i c_i cols[i] = target exactly; None when inconsistent."""
    m = len(target)
    k = len(cols)
    aug = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    # inconsistent iff a zero row has nonzero last column
    for r in range(row, m):
        if not any(aug[r][c] != 0 for c in range(k)) and aug[r][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        sol[col] = aug[r][k]
    # verify (guards the free-variable case)
    for i in range(m):
        if sum(sol[j] * cols[j][i] for j in range(k)) != target[i]:
            return None
    return sol


def minimal_polynomial(M) -> Polynomial:
    """Monic generator of the annihilating ideal of an exact 4x4 matrix,
    from successive Krylov dependencies decided by exact elimination.
    Float input raises TypeError."""
    if not is_exact(M):
        raise TypeError("minimal polynomials are decided exactly; pass an exact matrix")
    n = M.shape[0]
    powers = [identity(n, exact=True)]
    for _ in range(n):
        powers.append(powers[-1] @ M)
    vecs = [_vec(P) for P in powers]
    for d in range(1, n + 1):
        sol = _solve_exact_dependency(vecs[:d], vecs[d])
        if sol is not None:
            return Polynomial.from_coeffs([-c for c in sol] + [Fraction(1)])
    raise AssertionError("Cayley-Hamilton violated")


# ---------------------------------------------------------------------------
# matrix exponential on the cusp algebras


#: 1/k! for k < 20, exact and in floats: double precision at |f| < 1/2
_EXP_SERIES = [Fraction(1, math.factorial(k)) for k in range(20)]
_EXP_FLOATS = [float(c) for c in _EXP_SERIES]


def cusp_cubic(X):
    """(f, k, (Z, Z^2, Z^3), on_shape) with f = tr X and Z = X / 2^k: whether X^3 (X - fI) = 0, the
    shape of every cusp-algebra element, exactly for exact X (k = 0); a float X is scaled exactly to
    |Z| in [1, 2), so no power overflows or underflows, and held to ``CUSP_CUBIC_TOL`` |Z|^4."""
    f = sum(X[i, i] for i in range(X.shape[0]))
    if is_exact(X):
        k, Z, fz, bound = 0, X, f, 0
    else:
        k = math.frexp(size := np.abs(X).max())[1] - 1
        Z, fz = np.ldexp(X, -k), math.ldexp(f, -k)
        bound = CUSP_CUBIC_TOL * math.ldexp(size, -k) ** 4
    Z2 = Z @ Z
    Z3 = Z2 @ Z
    return f, k, (Z, Z2, Z3), np.abs(Z3 @ Z - fz * Z3).max() <= bound


def mat_exp(X):
    """Exponential of a cusp-algebra element: X^3 (X - fI) = 0, f = tr X.

    exp(X) is the cubic in X that agrees with exp to second order at 0 and
    at f: for |f| < 1/2, I + X + X^2/2 + r(f) X^3 with r(f) = (e^f - 1 - f -
    f^2/2) / f^3 summed from its series, smallest terms first, so it does not
    cancel as f -> 0; otherwise I + N + N^2/2 + (e^f - 1) P with the
    eigenline projector P = X^3 / tr X^3 and N = X - fP.  Exact nilpotent
    input gives an exact result, other input float64.  Input off the shape
    (``cusp_cubic``) raises ValueError.
    """
    n = X.shape[0]
    f, k, (_, X2, X3), on_shape = cusp_cubic(X)
    if not on_shape:
        raise ValueError("matrix is off the cusp shape X^3 (X - fI) = 0")
    exact = is_exact(X) and f == 0
    if not exact:
        X, X2, X3, f = to_float(X), np.ldexp(to_float(X2), 2 * k), np.ldexp(to_float(X3), 3 * k), float(f)
    series = _EXP_SERIES if exact else _EXP_FLOATS
    if abs(f) < 0.5:
        r = 0
        for c in reversed(series[3:]):
            r = r * f + c
        return identity(n, exact) + (X + (series[2] * X2 + r * X3))
    P = X3 / sum(X3[i, i] for i in range(n))
    N = X - f * P
    return np.eye(n) + N + series[2] * (N @ N) + (math.exp(f) - 1.0) * P


# ---------------------------------------------------------------------------
# real spectra; exact ones run on integer polynomials, int lists ascending


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:] or [0]


def _pdivmod(a, b):
    """Quotient and remainder of lc(b)^(deg a - deg b + 1) a by b (the
    remainder is a when deg a < deg b): for a monic b, those of a."""
    q, r, lb, db = [0] * max(1, len(a) - len(b) + 1), list(a), b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + db]
        if lb != 1:
            q, r = [lb * v for v in q], [lb * v for v in r]
        q[k] += c
        for j, v in enumerate(b):
            r[k + j] -= c * v
    return q, _trim(r[:db] or [0])


def _primitive(p):
    """p over its content, with a positive leading coefficient."""
    c = math.gcd(*p) or 1
    return [v // (c if p[-1] > 0 else -c) for v in p]


def _int_gcd(a, b):
    """Primitive gcd, positive leading coefficient, by pseudo-remainders."""
    while any(b):
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _primitive(a)


def _squarefree_factors(p):
    """Yun's square-free factorisation of a monic integer polynomial.

    Returns [(a_i, i)] with p = prod a_i^i, each a_i square-free and
    coprime to the others; constant factors are left out.  Every gcd
    divides a monic polynomial, so it is monic and each quotient exact.
    """
    g = _int_gcd(p, _derivative(p))
    b, c = _pdivmod(p, g)[0], _pdivmod(_derivative(p), g)[0]
    out, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _int_gcd(b, d)
        b, c = _pdivmod(b, a)[0], _pdivmod(d, a)[0]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None when it is irrational."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _value(p, x):
    """den^deg(p) p(x) at a Fraction x = num/den, in ints: the sign of p(x)."""
    acc, scale, num, den = p[-1], 1, x.numerator, x.denominator
    for c in reversed(p[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _sign_changes(chain, x):
    """Sign changes along the values of a Sturm chain at x, zeros skipped."""
    values = [v for v in (_value(q, x) for q in chain) if v != 0]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def _isolated_root(poly, a, b, lead):
    """The one root of a square-free integer polynomial in (a, b].

    A rational root has a denominator dividing ``lead``, the leading
    coefficient of the primitive part of ``poly``, so two such numbers
    lie at least 1/lead^2 apart: once the interval is narrower than half
    that, the nearest fraction with denominator at most ``lead`` is the
    one candidate.  An irrational root is narrowed until both ends round
    to the same float, its correctly rounded value.
    """
    fb = _value(poly, b)
    tested = False
    while fb != 0:
        if not tested and b - a < Fraction(1, 2 * lead * lead):
            tested = True
            c = ((a + b) / 2).limit_denominator(lead)
            if a < c < b and _value(poly, c) == 0:
                return c
        if tested and float(a) == float(b):
            return float(a)
        m = (a + b) / 2
        fm = _value(poly, m)
        if fm == 0 or (fm > 0) == (fb > 0):
            b, fb = m, fm
        else:
            a = m
    return b


def _sturm_chain(poly):
    """p, p', -rem(p, p'), ... by pseudo-remainders over their contents,
    scaled by |lc|^k: lc^k would flip signs after a degree gap."""
    chain = [poly, _derivative(poly)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = _pdivmod(a, b)[1]  # times lc(b)^(deg a - deg b + 1)
        content = math.gcd(*rem) * (1 if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else -1)
        chain.append([c // content for c in rem])
    return chain


def _real_roots(poly):
    """Real roots of a square-free integer polynomial of degree >= 2.

    Sturm's theorem counts the roots in (a, b] as V(a) - V(b), the sign
    changes of ``_sturm_chain`` at the two ends.  The roots are isolated
    by bisection from the Cauchy bound; fewer real roots than the degree
    raise NonRealSpectrumError.
    """
    chain = _sturm_chain(poly)
    bound = 1 + max(Fraction(abs(c), abs(poly[-1])) for c in poly[:-1])
    v_lo, v_hi = _sign_changes(chain, -bound), _sign_changes(chain, bound)
    if v_lo - v_hi < len(poly) - 1:
        raise NonRealSpectrumError("characteristic polynomial has complex roots")
    lead = abs(poly[-1]) // math.gcd(*poly)
    roots, stack = [], [(-bound, v_lo, bound, v_hi)]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            roots.append(_isolated_root(poly, a, b, lead))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = _sign_changes(chain, m)
            stack += [(a, va, m, vm), (m, vm, b, vb)]
    return roots


def real_spectrum(M, d=None):
    """Eigenvalues with algebraic multiplicities, sorted ascending.

    Given ``d``, M is an integer object matrix standing for M / d, as
    ``integer_scaled`` returns it; d need not be the least.  Exact regime,
    in ints: det(xI - A) for A = d M is split into
    square-free factors (Yun), whose multiplicities are those of their
    roots.  A linear factor gives its root x / d directly; every other
    factor is rewritten in lambda = x / d, so that a float root is rounded
    once, and its roots are isolated by Sturm chains (``_real_roots``).
    Rational roots come back as Fractions and irrational ones as correctly
    rounded floats; there is no fallback to float eigenvalues.  Float
    regime: numpy eigenvalues, clustered at relative radius
    ``SPECTRUM_CLUSTER_TOL``.  Complex eigenvalues raise
    NonRealSpectrumError, in the exact regime by an exact count.
    """
    if is_exact(M):
        A, d = integer_scaled(M) if d is None else (M, d)
        out = []
        for factor, mult in _squarefree_factors(_trace_recursion(A)):
            roots = ([Fraction(-factor[0], factor[1] * d)] if len(factor) == 2
                     else _real_roots([c * d ** k for k, c in enumerate(factor)]))
            out += [(r, mult) for r in roots]
        return sorted(out, key=lambda rm: rm[0])
    eig = np.linalg.eigvals(np.asarray(M, dtype=float))
    scale = max(1.0, float(np.max(np.abs(eig))))
    # cluster first, then require the cluster means to be real
    ctol = SPECTRUM_CLUSTER_TOL * scale
    order = np.argsort(eig.real + 1e-12 * eig.imag)
    clusters = []
    for v in eig[order]:
        if clusters and abs(v - np.mean(clusters[-1])) <= ctol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    out = []
    for c in clusters:
        mean = complex(np.mean(c))
        if abs(mean.imag) > ctol:
            raise NonRealSpectrumError("matrix has complex eigenvalues")
        out.append((float(mean.real), len(c)))
    return out


def is_proj_unipotent(M) -> bool:
    """Whether all eigenvalues coincide after projective rescaling,
    decided exactly for an exact M: p = det(xI - A), A = d M, is
    (x - tr A / n)^n, that is n^k p_(n-k) = C(n, k) p_(n-1)^k for all k.
    The test is projective, so an integer matrix A stands for every A / d
    and needs no denominator."""
    if not is_exact(M):
        raise TypeError("projective unipotency is decided exactly; pass an exact matrix")
    p = _trace_recursion(integer_scaled(M)[0])
    n = len(p) - 1
    return all(n ** k * p[n - k] == math.comb(n, k) * p[n - 1] ** k for k in range(n + 1))


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_json(M) -> dict:
    if is_exact(M):
        rows = [[f"{v.numerator}/{v.denominator}" for v in row] for row in M]
        return {"regime": "exact", "rows": rows}
    return {"regime": "float", "rows": [[float(v) for v in row] for row in np.asarray(M)]}


def matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, str):
        obj = json.loads(obj)
    regime = obj["regime"]
    rows = obj["rows"]
    if regime == "exact":
        return exact_matrix([[Fraction(v) for v in row] for row in rows])
    if regime == "float":
        return float_matrix(rows)
    raise ValueError(f"unknown matrix regime {regime!r}")
