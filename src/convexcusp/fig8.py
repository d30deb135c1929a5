"""The explicit figure-eight knot holonomy family.

The two-generator presentation < m, n | m w = w n > with
w = n m^-1 n^-1 m is represented by an explicit one-parameter family of
unipotent matrix pairs; the longitude is the word w w_reversed.  Words
are exact for rational parameters, taken in integers over one common
denominator.  s = log(1/(16 t^4)) places the hyperbolic point at 0
(``s_of_t`` also checks t > 0), and the peripheral pair admits closed
normalized forms converging to an explicit pair of parabolic
translations.  The peripheral pair (meridian, longitude) is plain
matrices: ``normalization_consistency`` checks its commutation and rank
through ``cusplie.normalize_pair``.

A closed-form table for the longitude matrix circulates with one
ambiguous entry; the group word is authoritative here and
``longitude_display_report`` compares the two entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cusplie, projlin
from .cusplie import HypothesesError, LieAlgElem
from .projlin import is_exact, mat_inv, real_spectrum, to_float


def _coerce_t(t):
    t = Fraction(t) if isinstance(t, (int, Fraction)) else float(t)
    if t == 0:
        raise ValueError("family parameter t must be nonzero")
    return t


def generators(t):
    """The unipotent generator pair (meridian image, companion image).

    Exact rational matrices for rational t.
    """
    t = _coerce_t(t)
    M = [[1, 0, 1, t - 1], [0, 1, 1, t], [0, 0, 1, t + Fraction(1, 2)], [0, 0, 0, 1]]
    N = [[1, 0, 0, 0], [2 + 1 / t, 1, 0, 0], [2, 1, 1, 0], [1, 1, 0, 1]]
    make = projlin.exact_matrix if isinstance(t, Fraction) else projlin.float_matrix
    return make(M), make(N)


def _letters(t):
    """The generators and their inverses as (numerator, denominator) pairs,
    keyed m, n, M = m^-1 and N = n^-1.

    Rational t: integer object matrices over the common denominator d of
    both generators.  Each generator g = I + X is unipotent, X^4 = 0, so
    g^-1 = I - X + X^2 - X^3 takes no elimination and d^3 g^-1 is an
    integer matrix.  Float t: the float generators and their Gauss-Jordan
    inverses over denominator 1.
    """
    M, N = generators(t)
    if not is_exact(M):
        return {"m": (M, 1), "n": (N, 1), "M": (mat_inv(M), 1), "N": (mat_inv(N), 1)}
    A, d = projlin.integer_scaled(np.hstack([M, N]))
    dI = d * np.identity(4, dtype=object)
    out = {}
    for g, G in (("m", A[:, :4]), ("n", A[:, 4:])):
        X = G - dI  # d (g - I)
        out[g] = (G, d)
        out[g.upper()] = (d * d * dI + X @ (X @ (dI - X) - d * dI), d ** 3)
    return out


def _product(*factors):
    """Product of (numerator, denominator) pairs, left to right."""
    num, den = factors[0]
    for g, e in factors[1:]:
        num, den = num @ g, den * e
    return num, den


def _fractions(num, den):
    """The exact matrix num / den: one gcd per entry, taken once."""
    return np.array([[Fraction(v, den) for v in row] for row in num], dtype=object)


def word(t, letters):
    """The product of the generators named by ``letters`` (m, n and the
    inverses M, N), left to right.  Exact for rational t, where the
    product is taken in Python ints and reduced to Fractions at the end."""
    mats = _letters(t)
    num, den = _product(*(mats[c] for c in letters))
    return _fractions(num, den) if num.dtype == object else num


def relation_residual(t):
    """Residual matrix of the group relation m w = w n, w = n m^-1 n^-1 m.

    The projective scale is fixed from the largest entries; with exact
    rational t the residual is exactly zero.
    """
    mats = _letters(t)
    W = _product(*(mats[c] for c in "nMNm"))
    (lhs, den), (rhs, _) = _product(mats["m"], W), _product(W, mats["n"])
    pos = max(np.ndindex(4, 4), key=lambda ij: abs(rhs[ij]))
    if lhs.dtype == object:
        return _fractions(lhs * rhs[pos] - lhs[pos] * rhs, den * rhs[pos])
    lam = lhs[pos] / rhs[pos]
    return lhs - lam * rhs


def longitude(t):
    """The longitude word n m^-1 n^-1 m^2 n^-1 m^-1 n, evaluated exactly
    for rational t; commutes projectively with the meridian."""
    return word(t, "nMNmmNMn")


def longitude_spectrum(t):
    """Eigenvalues with multiplicities of the longitude (exact for
    rational t); {2t x3, 1/(8 t^3)} away from the unipotent point."""
    return real_spectrum(longitude(t))


def displayed_longitude(t, stray_reading="t"):
    """The closed-form longitude table.

    One entry of the table contains a stray symbol; ``stray_reading``
    selects how to read it ("t" or "2t").  Evaluating the group word
    shows "t" is the reading that reproduces it.
    """
    t = _coerce_t(t)
    stray = {"t": t, "2t": 2 * t}[stray_reading]
    rows = [
        [
            (8 * t ** 3 - 4 * t ** 2 - 2 * t - 1) / (8 * t ** 2),
            (8 * t ** 3 + 4 * t ** 2 + 2 * stray + 1) / (8 * t ** 2),
            (-4 * t ** 2 - 1) / (4 * t ** 2),
            (40 * t ** 3 + 24 * t ** 2 + 4 * t + 3) / (8 * t ** 2),
        ],
        [
            (8 * t ** 4 - 4 * t ** 3 - 2 * t ** 2 - t - 1) / (8 * t ** 3),
            (8 * t ** 4 + 4 * t ** 3 + 2 * t ** 2 + t + 1) / (8 * t ** 3),
            (4 * t ** 3 - 4 * t ** 2 + t - 1) / (4 * t ** 3),
            (56 * t ** 4 + 16 * t ** 3 + 20 * t ** 2 + t + 3) / (8 * t ** 3),
        ],
        [0, 0, 2 * t, 0],
        [0, 0, 0, 2 * t],
    ]
    return (projlin.exact_matrix if isinstance(t, Fraction) else projlin.float_matrix)(rows)


def longitude_display_report(t, stray_reading="t") -> dict:
    """Entrywise comparison of the word longitude against the closed-form
    table under the chosen stray-symbol reading; {(i, j): bool}."""
    t = _coerce_t(t)
    word = longitude(t)
    disp = displayed_longitude(t, stray_reading=stray_reading)
    report = {}
    for i in range(4):
        for j in range(4):
            if isinstance(t, Fraction):
                report[(i, j)] = word[i, j] == disp[i, j]
            else:
                report[(i, j)] = abs(word[i, j] - disp[i, j]) <= 1e-12 * max(1.0, abs(disp[i, j]))
    return report


def s_of_t(t) -> float:
    """Coordinate change s = log(1 / (16 t^4)); s decreases in t."""
    t = _coerce_t(t)
    if float(t) <= 0:
        raise ValueError("s is defined for t > 0")
    return -math.log(16.0 * float(t) ** 4)


def t_of_s(s) -> float:
    """Inverse coordinate change t = (1/2) exp(-s/4)."""
    return 0.5 * math.exp(-float(s) / 4.0)


def _sinh_ratio(s: float) -> float:
    """sinh(s/4) / (3 s), continued through s = 0 by its even series."""
    if abs(s) < 1e-4:
        x = s / 4.0
        return (1.0 + x * x / 6.0 + x ** 4 / 120.0) / 12.0
    return math.sinh(s / 4.0) / (3.0 * s)


def meridian_translation(s) -> float:
    """Positive translation parameter sqrt(sinh(s/4) / (3 s)) of the
    normalized meridian; tends to 1/(2 sqrt(3)) at the hyperbolic point."""
    return math.sqrt(_sinh_ratio(float(s)))


def normalized_peripheral(s):
    """Closed normalized forms of the peripheral pair at parameter s != 0.

    Both matrices lie in the deformed cusp group with family parameter s
    (their logs have parameters (0, meridian_translation(s)) and (1, 0))
    and they commute.
    """
    s = float(s)
    if s == 0:
        raise ValueError("normalized pair is defined for s != 0; use limit_pair at 0")
    m = meridian_translation(s)
    M = projlin.float_matrix(
        [
            [1.0, 0.0, m, m * m / 2.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, m],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    es = math.exp(s)
    g1 = (es - 1.0) / s
    g2 = (es - s - 1.0) / (s * s)
    L = projlin.float_matrix(
        [
            [1.0, g1, 0.0, g2],
            [0.0, es, 0.0, g1],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return M, L


def limit_pair():
    """Limit of the normalized peripheral pair at the hyperbolic point:
    parabolic translations with parameters (0, 1/(2 sqrt 3)) and (1, 0)."""
    return tuple(to_float(cusplie.group_exp(e)) for e in limit_elements())


def limit_elements():
    m = 1.0 / (2.0 * math.sqrt(3.0))
    return LieAlgElem("L0", (0.0, m)), LieAlgElem("L0", (1.0, 0.0))


def strict_convexity_obstruction(s) -> bool:
    """True when the structure cannot be strictly convex: the longitude
    has two distinct positive eigenvalues after projective scaling.

    Decided exactly for the rational parameter t(s) (binary floats are
    rational), via the polynomial identity behind projective unipotency,
    so the answer flips exactly at s = 0.
    """
    return obstruction_at_t(Fraction(t_of_s(s)))


def obstruction_at_t(t) -> bool:
    """Same test parameterized by rational t directly (exact)."""
    return not projlin.is_proj_unipotent(longitude(_coerce_t(t)))


@dataclass(frozen=True)
class NormalizationReport:
    t: object
    s: float
    sign: int
    degenerate: bool
    meridian_class: str | None
    longitude_class: str | None
    dilation_f: float | None
    meridian_b: float | None
    residual: float | None

    def to_json(self) -> dict:
        return {
            "t": str(self.t),
            "s": self.s,
            "sign": self.sign,
            "degenerate": self.degenerate,
            "meridian": {"class": self.meridian_class, "b": self.meridian_b},
            "longitude": {"class": self.longitude_class, "f_value": self.dilation_f},
            "residual": self.residual,
        }


def normalization_consistency(t) -> NormalizationReport:
    """Run the pair normalization on (meridian, longitude / (2t)).

    Away from the unipotent point the pair lands in the convex-orbit
    family (sign +1), the longitude image is a pure dilation whose
    eigenvalue functional equals s(t), and the meridian image is a pure
    translation.  At t = 1/2 the pair is entirely unipotent and the
    degenerate branch is reported instead of an error.
    """
    t = _coerce_t(t)
    s = s_of_t(t)
    M, _ = generators(t)
    L = longitude(t)
    L_scaled = L / (2 * t)
    try:
        res = cusplie.normalize_pair(to_float(M), to_float(L_scaled))
    except HypothesesError:
        if t == Fraction(1, 2):
            return NormalizationReport(t, s, 0, True, None, None, None, None, None)
        raise
    mer_img, lon_img = (np.asarray(img, dtype=float) for img in res.images)
    mer_prof = cusplie.minpoly_profile(mer_img, tol=1e-7)
    lon_prof = cusplie.minpoly_profile(lon_img, tol=1e-7)
    return NormalizationReport(
        t,
        s,
        res.sign,
        False,
        cusplie.classify_profile(mer_prof),
        cusplie.classify_profile(lon_prof),
        float(lon_img[1, 1]),
        float(mer_img[0, 2]),
        res.residual,
    )


def verify_report(t) -> dict:
    """The per-parameter verification record used by the command line."""
    t = _coerce_t(t)
    s = s_of_t(t)  # validates t > 0
    resid = relation_residual(t)
    exact = is_exact(resid)
    resid_max = projlin.max_abs(to_float(resid))
    spec = longitude_spectrum(t)
    report = normalization_consistency(t)
    return {
        "t": str(t) if exact else float(t),
        "s": s,
        "relation_exact": bool(exact and resid_max == 0.0),
        "relation_residual": float(resid_max),
        "longitude_spectrum": [[float(l), m] for l, m in spec],
        "obstruction": obstruction_at_t(t) if exact else strict_convexity_obstruction(s),
        "normalized_params": report.to_json(),
    }


def sweep_rows(t_min: float, t_max: float, steps: int):
    """Spectra and cusp-shape convergence along a parameter sweep.

    eig_triple and eig_single are the eigenvalues of the longitude of
    highest and lowest multiplicity at the rational value of each float
    t, with the closed forms 2t and 1/(8t^3) beside them and the relative
    deviation of each.  obstructed is the exact obstruction test on the
    same spectrum: more than one eigenvalue.  shape_im is the imaginary
    part of the cusp modulus computed from the normalized translation
    parameters; it tends to -2 sqrt(3).
    """
    rows = []
    M0, L0 = limit_pair()
    for t in np.linspace(t_min, t_max, steps):
        t = float(t)
        s = s_of_t(t)
        m = meridian_translation(s)
        if s == 0:
            mdev, ldev = 0.0, 0.0
        else:
            Ms, Ls = normalized_peripheral(s)
            mdev = float(np.max(np.abs(Ms - M0)))
            ldev = float(np.max(np.abs(Ls - L0)))
        exact_t = Fraction(t)  # a binary float is an exact rational
        spec = real_spectrum(longitude(exact_t))
        eigs = [float(lam) for lam, mult in sorted(spec, key=lambda e: -e[1]) for _ in range(mult)]
        triple, single = float(2 * exact_t), float(1 / (8 * exact_t ** 3))
        rows.append(
            {
                "t": t,
                "s": s,
                "eig_triple": eigs[0],
                "eig_single": eigs[-1],
                "obstructed": len(spec) > 1,
                "meridian_dev": mdev,
                "longitude_dev": ldev,
                "shape_im": -1.0 / m,
                "closed_triple": triple,
                "triple_rel_dev": abs(eigs[0] - triple) / abs(triple),
                "closed_single": single,
                "single_rel_dev": abs(eigs[-1] - single) / abs(single),
            }
        )
    return rows
