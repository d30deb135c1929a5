"""Projective linear algebra on small dense matrices in two scalar regimes.

Exact matrices carry ``fractions.Fraction`` entries inside object-dtype
numpy arrays, so +, -, *, / never round.  Float matrices are plain IEEE
float64 arrays and every comparison on them takes an explicit tolerance.
All functions are pure; nothing here mutates its arguments, so concurrent
use is safe.

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


class IllConditionedError(ArithmeticError):
    """Raised when a float-regime rank decision is too close to call."""


class NonRealSpectrumError(ValueError):
    """Raised when a real spectrum is requested but complex eigenvalues exist."""


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


def canonical_point(v):
    """Scale a homogeneous coordinate vector so its last nonzero entry is 1."""
    v = np.array(v, copy=True)
    nz = [i for i in range(len(v)) if v[i] != 0]
    if not nz:
        raise ValueError("zero vector does not define a projective point")
    return v / v[nz[-1]]


def apply_affine_batch(M, pts):
    """Vectorised float chart action on an (n,3) array of affine points."""
    Mf = to_float(M)
    pts = np.asarray(pts, dtype=float)
    hom = pts @ Mf[:3, :3].T + Mf[:3, 3]
    w = pts @ Mf[3, :3] + Mf[3, 3]
    return hom / w[:, None]


def proj_equal(A, B, tol=1e-12) -> bool:
    """Whether B = lambda*A for a nonzero scalar (projective equality).

    Exact regime: decided exactly.  Float regime: the scalar is taken from
    the ratio at A's largest-magnitude entry and the comparison is
    entrywise with relative tolerance ``tol``.  Singular input rejected.
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
    return bool(resid <= tol * max(1.0, np.max(np.abs(Bf))))


# ---------------------------------------------------------------------------
# polynomials (degree <= 4 throughout)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficient tuple (index = power)."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self):
        lead = self.coeffs[-1]
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def mul(self, other):
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def eval_matrix(self, M):
        acc = zero_matrix(M.shape[0], exact=is_exact(M))
        I = identity(M.shape[0], exact=is_exact(M))
        for c in reversed(self.coeffs):
            acc = acc @ M + c * I
        return acc

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


def poly_from_roots(roots, exact=True):
    p = Polynomial((Fraction(1),) if exact else (1.0,))
    for r in roots:
        p = p.mul(Polynomial((-r, Fraction(1) if exact else 1.0)))
    return p


def char_poly(M) -> Polynomial:
    """Characteristic polynomial by the trace recursion (both regimes).

    Returns the monic polynomial det(tI - M) with exact coefficients in
    the exact regime.  There the recursion runs on the integer matrix
    A = d M: every c_k of an integer matrix is an integer, so the
    division by k is exact, and c_k(M) = c_k(A) / d^k.
    """
    n = M.shape[0]
    exact = is_exact(M)
    if exact:
        M, d = integer_scaled(M)
    cs = []
    Mk = np.array(M, copy=True)
    I = np.identity(n, dtype=object) if exact else identity(n)
    for k in range(1, n + 1):
        tr = sum(Mk[i, i] for i in range(n))
        ck = tr // k if exact else tr / k
        cs.append(Fraction(ck, d ** k) if exact else ck)
        if k < n:
            Mk = M @ (Mk - ck * I)
    # det(tI - M) = t^n - c1 t^(n-1) - c2 t^(n-2) - ... - cn
    coeffs = [-c for c in reversed(cs)] + [Fraction(1) if exact else 1.0]
    return Polynomial.from_coeffs(coeffs)


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


def minimal_polynomial(M, tol=1e-9) -> Polynomial:
    """Monic generator of the annihilating ideal of a 4x4 matrix.

    Exact regime: successive Krylov dependencies decided by exact
    elimination.  Float regime: the dependency decision uses the smallest
    relative singular value of the stacked, column-normalised power
    vectors; a decision inside the band [tol, 1000*tol) raises
    IllConditionedError.
    """
    n = M.shape[0]
    exact = is_exact(M)
    powers = [identity(n, exact=exact)]
    for _ in range(n):
        powers.append(powers[-1] @ M)
    vecs = [_vec(P) for P in powers]
    if exact:
        for d in range(1, n + 1):
            sol = _solve_exact_dependency(vecs[:d], vecs[d])
            if sol is not None:
                coeffs = [-c for c in sol] + [Fraction(1)]
                return Polynomial.from_coeffs(coeffs)
        raise AssertionError("Cayley-Hamilton violated")
    scales = []
    fvecs = []
    mscale = max(1.0, float(np.max(np.abs(np.asarray(vecs[1], dtype=float)))))
    for v in vecs:
        v = np.asarray(v, dtype=float)
        s = np.linalg.norm(v)
        scales.append(s if s > 0 else 1.0)
        fvecs.append(v / (s if s > 0 else 1.0))
    for d in range(1, n + 1):
        # an (almost) exactly vanishing power means m(t) = t^d
        if np.linalg.norm(np.asarray(vecs[d], dtype=float)) <= 1e-12 * mscale ** d:
            return Polynomial.from_coeffs([0.0] * d + [1.0])
        stack = np.stack(fvecs[: d + 1], axis=1)
        sv = np.linalg.svd(stack, compute_uv=False)
        ratio = sv[-1] / sv[0]
        if ratio <= tol:
            A = np.stack(fvecs[:d], axis=1)
            b = fvecs[d]
            c, *_ = np.linalg.lstsq(A, b, rcond=None)
            coeffs = [-c[i] * scales[d] / scales[i] for i in range(d)] + [1.0]
            return Polynomial.from_coeffs(coeffs)
        if ratio < 1e3 * tol:
            raise IllConditionedError(
                f"Krylov rank decision ambiguous (relative gap {ratio:.3e})"
            )
    raise AssertionError("Cayley-Hamilton violated")


# ---------------------------------------------------------------------------
# matrix exponential and logarithm


def is_nilpotent(M) -> bool:
    """Exact nilpotency test (M^n == 0); supports both regimes."""
    P = np.linalg.matrix_power(M, M.shape[0])
    return all(v == 0 for v in P.flat)


def mat_exp(M):
    """Matrix exponential.

    Nilpotent exact input: finite Taylor series, exact result.  Anything
    else: scaling and squaring with a degree-20 Taylor core, which keeps
    the series remainder below 1e-14 relative; returns float64.
    """
    n = M.shape[0]
    if is_exact(M):
        if is_nilpotent(M):
            acc = identity(n, exact=True)
            term = identity(n, exact=True)
            for k in range(1, n):
                term = term @ M / k
                acc = acc + term
            return acc
        M = to_float(M)
    Mf = np.asarray(M, dtype=float)
    norm = np.max(np.sum(np.abs(Mf), axis=1))
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    A = Mf / (2.0 ** s)
    acc = np.eye(n)
    for k in range(20, 0, -1):
        acc = A @ acc / k + np.eye(n)
    for _ in range(s):
        acc = acc @ acc
    return acc


def _shift_poly(coeffs, a):
    """Rewrite sum c_k t^k as a polynomial in z = t - a (Taylor shift)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _series_inverse(coeffs, order):
    """Power-series inverse of sum c_k z^k (c_0 != 0) through z^(order-1)."""
    inv = [1.0 / coeffs[0]]
    for k in range(1, order):
        s = 0.0
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else 0.0
            s += cj * inv[k - j]
        inv.append(-s / coeffs[0])
    return inv


def spectral_projectors(M, spectrum=None, tol=1e-9):
    """Projectors onto generalized eigenspaces for a real-split matrix.

    Returns ``[(lam, mult, P)]``; works in float64.  Uses the polynomial
    interpolation that is congruent to 1 modulo (t-lam)^mult and to 0
    modulo the other factors.
    """
    Mf = to_float(M)
    if spectrum is None:
        spectrum = real_spectrum(M, tol=tol)
    spec = [(float(l), m) for l, m in spectrum]
    out = []
    for lam, mult in spec:
        rest = [1.0]
        for mu, mmu in spec:
            if mu == lam:
                continue
            f = Polynomial.from_coeffs(rest)
            for _ in range(mmu):
                f = f.mul(Polynomial((-mu, 1.0)))
            rest = list(f.coeffs)
        # invert the cofactor modulo (t - lam)^mult
        shifted = _shift_poly([float(c) for c in rest], lam)
        inv = _series_inverse(shifted, mult)
        u_poly = Polynomial.from_coeffs(_shift_poly(inv, -lam))
        g = Polynomial.from_coeffs(rest).mul(u_poly)
        P = g.eval_matrix(Mf)
        out.append((lam, mult, P))
    return out


def mat_log(M, tol=1e-9):
    """Principal logarithm of a matrix with positive real spectrum (float64).

    Splits along spectral projectors and takes the finite nilpotent
    series on each block; eigenvalue logs are the only transcendental
    ingredients.
    """
    Mf = to_float(M)
    spectrum = real_spectrum(M, tol=tol)
    if any(float(l) <= 0 for l, _ in spectrum):
        raise ValueError("matrix log requires positive real eigenvalues")
    n = Mf.shape[0]
    out = np.zeros((n, n))
    for lam, mult, P in spectral_projectors(Mf, spectrum=spectrum, tol=tol):
        N = (Mf - lam * np.eye(n)) @ P / lam
        out += math.log(lam) * P
        term = P.copy()
        for k in range(1, mult):
            term = term @ N
            out += ((-1.0) ** (k + 1) / k) * term
    return out


# ---------------------------------------------------------------------------
# real spectra


def _poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return Polynomial.from_coeffs([x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def _poly_derivative(p: Polynomial) -> Polynomial:
    return Polynomial.from_coeffs([k * c for k, c in enumerate(p.coeffs)][1:] or [0])


def _poly_divmod(a: Polynomial, b: Polynomial):
    """Quotient and remainder of exact polynomials; ``b`` is nonzero."""
    db = b.degree
    if a.degree < db:
        return Polynomial.from_coeffs([0]), a
    rem = list(a.coeffs)
    quot = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        q = rem[k + db] / b.coeffs[-1]
        quot[k] = q
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= q * c
    return Polynomial.from_coeffs(quot), Polynomial.from_coeffs(rem[:db] or [0])


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor of exact polynomials, not both zero."""
    while any(b.coeffs):
        a, b = b, _poly_divmod(a, b)[1]
    return a.monic()


def _squarefree_factors(p: Polynomial):
    """Yun's square-free factorisation of a monic exact polynomial.

    Returns [(a_i, i)] with p = prod a_i^i, each a_i monic, square-free
    and coprime to the others; constant factors are left out.
    """
    dp = _poly_derivative(p)
    g = _poly_gcd(p, dp)
    b = _poly_divmod(p, g)[0]
    d = _poly_sub(_poly_divmod(dp, g)[0], _poly_derivative(b))
    out = []
    i = 1
    while b.degree > 0:
        a = _poly_gcd(b, d)
        b = _poly_divmod(b, a)[0]
        d = _poly_sub(_poly_divmod(d, a)[0], _poly_derivative(b))
        if a.degree > 0:
            out.append((a, i))
        i += 1
    return out


def _rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None when it is irrational."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _sign_changes(chain, x):
    """Sign changes along the values of a Sturm chain at x, zeros skipped."""
    values = [v for v in (q(x) for q in chain) if v != 0]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def _isolated_root(poly: Polynomial, a, b, lead):
    """The one root of a square-free exact polynomial in (a, b].

    A rational root has a denominator dividing ``lead``, the leading
    coefficient of the primitive integer multiple of ``poly``, so two
    such numbers lie at least 1/lead^2 apart: once the interval is
    narrower than half that, the nearest fraction with denominator at
    most ``lead`` is the one candidate.  An irrational root is narrowed
    until both ends round to the same float, its correctly rounded value.
    """
    fb = poly(b)
    tested = False
    while fb != 0:
        if not tested and b - a < Fraction(1, 2 * lead * lead):
            tested = True
            c = ((a + b) / 2).limit_denominator(lead)
            if a < c < b and poly(c) == 0:
                return c
        if tested and float(a) == float(b):
            return float(a)
        m = (a + b) / 2
        fm = poly(m)
        if fm == 0 or (fm > 0) == (fb > 0):
            b, fb = m, fm
        else:
            a = m
    return b


def _real_roots(poly: Polynomial):
    """Real roots of a square-free exact polynomial of degree >= 2.

    Sturm's theorem counts the roots in (a, b] as V(a) - V(b), the sign
    changes of the chain p, p', -rem(p, p'), ... at the two ends.  The
    roots are isolated by bisection from the Cauchy bound; fewer real
    roots than the degree raise NonRealSpectrumError.
    """
    chain = [poly, _poly_derivative(poly)]
    while chain[-1].degree > 0:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        chain.append(Polynomial(tuple(-c for c in rem.coeffs)))
    bound = 1 + max(abs(c / poly.coeffs[-1]) for c in poly.coeffs[:-1])
    v_lo, v_hi = _sign_changes(chain, -bound), _sign_changes(chain, bound)
    if v_lo - v_hi < poly.degree:
        raise NonRealSpectrumError("characteristic polynomial has complex roots")
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    ints = [int(c * den) for c in poly.coeffs]
    lead = abs(ints[-1]) // math.gcd(*ints)
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


def real_spectrum(M, tol=1e-9):
    """Eigenvalues with algebraic multiplicities, sorted ascending.

    Exact regime: the characteristic polynomial is split into square-free
    factors (Yun), whose multiplicities are those of their roots.  A
    linear factor is solved directly; the roots of every other factor
    are isolated by Sturm sequences (``_real_roots``).  Rational roots
    come back as Fractions and irrational ones as correctly rounded
    floats; there is no fallback to float eigenvalues.  Float regime:
    numpy eigenvalues, clustered at relative tolerance ``tol``.  Complex
    eigenvalues raise NonRealSpectrumError, in the exact regime by an
    exact count.
    """
    if is_exact(M):
        out = []
        for factor, mult in _squarefree_factors(char_poly(M)):
            if factor.degree == 1:
                roots = [-factor.coeffs[0] / factor.coeffs[1]]
            else:
                roots = _real_roots(factor)
            out += [(r, mult) for r in roots]
        return sorted(out, key=lambda rm: rm[0])
    eig = np.linalg.eigvals(np.asarray(M, dtype=float))
    scale = max(1.0, float(np.max(np.abs(eig))))
    # defective eigenvalues split into complex clusters of radius about
    # eps^(1/k); cluster first, then require the cluster means to be real
    ctol = max(tol, 3e-4) * scale
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


def is_proj_unipotent(M, tol=1e-9) -> bool:
    """Whether all eigenvalues coincide after projective rescaling.

    Exact regime: tests char(t) == (t - tr/4)^4 exactly.
    """
    n = M.shape[0]
    if is_exact(M):
        lam = sum(M[i, i] for i in range(n)) / n
        return char_poly(M).coeffs == poly_from_roots([lam] * n).coeffs
    spec = real_spectrum(M, tol=tol)
    return len(spec) == 1


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
