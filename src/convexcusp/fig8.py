"""The explicit figure-eight knot holonomy family.

The two-generator presentation < m, n | m w = w n > with
w = n m^-1 n^-1 m is represented by an explicit one-parameter family of
unipotent matrix pairs; the longitude is the word w w_reversed.  The
parameter t is always the rational it names (a float is the binary
rational it denotes), so every word is exact: the four letters are
integer matrices in closed form over one denominator, and a word is
reduced once to the least denominator, the form that the exact spectrum
and the unipotency test take.  s = log(1/(16 t^4)) places the hyperbolic
point at 0 (``s_of_t`` also checks t > 0).  ``normalization_consistency``
puts the peripheral pair (meridian, L/(2t)) in the cusp normal form
exactly, in the translation-line basis of ``cusplie.chain_basis``; its
(u, b) is ``peripheral_lattice``.  ``verify_report`` is the one record of
each t, and ``sweep_rows`` projects it along an exact grid of t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

import numpy as np

from . import cusplie, projlin
from .projlin import real_spectrum


def _coerce_t(t) -> Fraction:
    """The family parameter as the rational it names; a float is the
    binary rational it denotes."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("family parameter t must be nonzero")
    return t


def _t_text(t: Fraction) -> str:
    """t as p/q or, where it is shorter, as the exact decimal in
    scientific notation (1e300 for 10^300, 2.5e-7); ties go to p/q."""
    with localcontext() as ctx:
        ctx.traps[Inexact] = True
        try:
            sci = str((Decimal(t.numerator) / t.denominator).normalize()).lower().replace("+", "")
        except Inexact:
            return str(t)
    return min(str(t), sci, key=len)


def _float(x, t, name) -> float:
    """float(x); ValueError names t where the nonzero value ``name`` = x
    rounds to 0.0 or to a subnormal, which keeps fewer than 53 bits, or
    overflows."""
    try:
        y = float(x)
    except OverflowError:
        y = math.inf
    if x and not sys.float_info.min <= abs(y) < math.inf:
        raise ValueError(f"t = {_t_text(t)} is out of range: {name} rounds to {y} as a float")
    return y


def generators(t):
    """The unipotent generator pair (meridian image, companion image) as
    exact rational matrices."""
    return word(t, "m"), word(t, "n")


def _letters(t):
    """The generators and their inverses as (numerator, denominator) pairs,
    keyed m, n, M = m^-1 and N = n^-1.

    For t = p/q: integer object matrices over the one denominator
    d = lcm(2q, |p|), in closed form.  Each generator is unipotent,
    g = I + X with X^3 = 0, so g^-1 = I - X + X^2 has the denominator of g.
    """
    t = _coerce_t(t)
    p, q = t.numerator, t.denominator
    d = math.lcm(2 * q, abs(p))
    dt, dr, h = d * p // q, d * q // p, d // 2  # d t, d / t and d / 2
    rows = {
        "m": [[d, 0, d, dt - d], [0, d, d, dt], [0, 0, d, dt + h], [0, 0, 0, d]],
        "n": [[d, 0, 0, 0], [2 * d + dr, d, 0, 0], [2 * d, d, d, 0], [d, d, 0, d]],
        "M": [[d, 0, -d, 3 * h], [0, d, -d, h], [0, 0, d, -dt - h], [0, 0, 0, d]],
        "N": [[d, 0, 0, 0], [-2 * d - dr, d, 0, 0], [dr, -d, d, 0], [d + dr, -d, 0, d]],
    }
    return {c: (np.array(r, dtype=object), d) for c, r in rows.items()}


def _product(*factors):
    """Product of (numerator, denominator) pairs, left to right."""
    num, den = factors[0]
    for g, e in factors[1:]:
        num, den = num @ g, den * e
    return num, den


def _word(t, letters):
    """The word as a (numerator, denominator) pair: the integer matrix
    and least denominator of ``integer_scaled`` of the word, by one gcd,
    since the reduced denominators of num / den have the lcm
    den / gcd(den, num)."""
    mats = _letters(t)
    num, den = _product(*(mats[c] for c in letters))
    g = math.gcd(den, *num.flat)
    return num // g, den // g


def _fractions(num, den):
    """The exact matrix num / den: one gcd per entry, taken once."""
    return np.array([[Fraction(v, den) for v in row] for row in num], dtype=object)


def word(t, letters):
    """The product of the generators named by ``letters`` (m, n and the
    inverses M, N), left to right, as an exact matrix: the product is
    taken in Python ints and reduced to Fractions at the end."""
    return _fractions(*_word(t, letters))


def relation_residual(t):
    """Residual matrix of the group relation m w = w n, w = n m^-1 n^-1 m.

    The projective scale is fixed from the largest entries; the residual
    is exactly zero.
    """
    mats = _letters(t)
    W = _product(*(mats[c] for c in "nMNm"))
    (lhs, den), (rhs, _) = _product(mats["m"], W), _product(W, mats["n"])
    pos = max(np.ndindex(4, 4), key=lambda ij: abs(rhs[ij]))
    return _fractions(lhs * rhs[pos] - lhs[pos] * rhs, den * rhs[pos])


#: the longitude n m^-1 n^-1 m^2 n^-1 m^-1 n as ``word`` letters
LONGITUDE = "nMNmmNMn"


def longitude(t):
    """The longitude word n m^-1 n^-1 m^2 n^-1 m^-1 n, evaluated exactly;
    commutes projectively with the meridian."""
    return word(t, LONGITUDE)


def longitude_spectrum(t):
    """Exact eigenvalues with multiplicities of the longitude, from its
    integer word; {2t x3, 1/(8 t^3)} away from the unipotent point."""
    return real_spectrum(*_word(t, LONGITUDE))


def s_of_t(t) -> float:
    """Coordinate change s = log(1 / (16 t^4)) = -4 log(2t); s decreases
    in t.  For 1/4 < t < 3/4 it is -4 log1p(2t - 1), accurate next to
    t = 1/2, with 2t - 1 rounded once.  Elsewhere 2t is rounded once, so
    s stays finite wherever 2t rounds to a positive finite float; where
    it rounds to 0 or overflows, ValueError names t."""
    t = _coerce_t(t)
    if t <= 0:
        raise ValueError("s is defined for t > 0")
    if 0.25 < t < 0.75:
        return -4.0 * math.log1p(float(2 * t - 1)) + 0.0  # + 0.0: s(1/2) is 0.0, not -0.0
    return -4.0 * math.log(_float(2 * t, t, "2t"))


def t_of_s(s) -> float:
    """Inverse coordinate change t = (1/2) exp(-s/4).  Where t overflows,
    rounds to 0.0 or to a subnormal, or is nan, ValueError names s."""
    s = float(s)
    try:
        t = 0.5 * math.exp(-s / 4.0)
    except OverflowError:
        t = math.inf
    if not sys.float_info.min <= t < math.inf:
        raise ValueError(f"s = {s!r} is out of range: t = exp(-s/4)/2 rounds to {t} as a float")
    return t


def strict_convexity_obstruction(s) -> bool:
    """True when the structure cannot be strictly convex: the longitude
    has two distinct positive eigenvalues after projective scaling.

    Decided exactly for the rational parameter t(s) (binary floats are
    rational), via the polynomial identity behind projective unipotency,
    so the answer flips exactly at s = 0.
    """
    return obstruction_at_t(t_of_s(s))


def obstruction_at_t(t) -> bool:
    """Same test parameterized by t directly, decided exactly at the
    rational value of t (binary floats are rational)."""
    return not projlin.is_proj_unipotent(_word(t, LONGITUDE)[0])


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
    q: Fraction | None = None  # b^2/u = r^2 v_m^2/u, exact
    sheared: tuple | None = None  # the exact sheared basis images of m - I and L/(2t) - I

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
    """The cusp normal form of the peripheral pair (meridian, L/(2t)), exactly.

    X = m - I, Y = L/(2t) - I; f = tr Y = 0 only at t = 1/2, the degenerate
    report.  ``cusplie.translation_line_form`` (N0 = X, as tr X = 0) reads the
    meridian (0, v_m, 0) and L/(2t) (d_L, 0, g_L); r^2 = -sign u/g_L scales them
    to LPrime(0, b = r v_m) and LPrime(u = log(1 + d_L), 0) (LPrimeMinus at sign
    -1).  u and b are the only floats, q = b^2/u is exact, and a 0.0 residual
    certifies the form.  ``peripheral_lattice`` reads (u, b) from it.
    """
    t = _coerce_t(t)
    s = s_of_t(t)
    I = projlin.identity(4, exact=True)
    X, Y = word(t, "m") - I, longitude(t) / (2 * t) - I
    if np.trace(Y) == 0:
        return NormalizationReport(t, s, 0, True, None, None, None, None, None)
    form = cusplie.translation_line_form((X, Y), Y, X, group=True)
    (_, v_m, _), (_, _, g_L) = form.reads
    q = -form.sign * v_m ** 2 / g_L
    classes = [cusplie.PURE_TRANSLATION if d == 0 else cusplie.PURE_DILATION if v == 0 else cusplie.GENERIC
               for d, v, _ in form.reads]
    b = math.sqrt(abs(_float(q, t, "b^2/u"))) * math.sqrt(abs(form.u[1]))  # q u = b^2 may overflow
    return NormalizationReport(t, s, form.sign, False, *classes, form.u[1], b, form.residual, q, form.sheared)


def peripheral_lattice(t) -> tuple[float, float]:
    """The cusp lattice of rho_t, the one that the cusp commands and claims integrate: the dilation
    u and the meridian translation b of ``normalization_consistency``; ValueError names t at t = 1/2."""
    report = normalization_consistency(t)
    if report.degenerate:
        raise ValueError(f"t = {_t_text(report.t)} has no cusp lattice: the peripheral pair is unipotent there")
    return report.dilation_f, report.meridian_b


def verify_report(t) -> dict:
    """The record of ``fig8 verify``; ``_float`` converts its exact values."""
    t = _coerce_t(t)
    report = normalization_consistency(t)  # s_of_t validates t > 0
    resid = relation_residual(t)
    return {
        "t": str(t),
        "s": report.s,
        "relation_exact": not any(resid.flat),
        "relation_residual": max(_float(abs(v), t, "the relation residual") for v in resid.flat),
        "longitude_spectrum": [[_float(l, t, "a longitude eigenvalue"), m] for l, m in longitude_spectrum(t)],
        "obstruction": obstruction_at_t(t),
        "normalized_params": report.to_json(),
    }


def sweep_row(record) -> dict:
    """The ``fig8 sweep`` row of a ``verify_report`` record, read from it alone:
    the longitude eigenvalues of highest and lowest multiplicity (the one
    eigenvalue twice at t = 1/2), the normal form's sign, u, b and residual,
    and the cusp shape's imaginary part -|s|/b; all but the sign are None
    where the report is degenerate."""
    spec, form = record["longitude_spectrum"], record["normalized_params"]
    b = form["meridian"]["b"]
    return {
        "t": record["t"],
        "s": record["s"],
        "relation_exact": record["relation_exact"],
        "eig_triple": max(spec, key=lambda e: e[1])[0],
        "eig_single": min(spec, key=lambda e: e[1])[0],
        "obstruction": record["obstruction"],
        "sign": form["sign"],
        "u": form["longitude"]["f_value"],
        "b": b,
        "residual": form["residual"],
        "shape_im": None if b is None else -abs(record["s"]) / b,
    }


def sweep_rows(t_min, t_max, steps: int):
    """``sweep_row`` of ``verify_report`` at t_k = t_min + k (t_max - t_min)/(steps - 1),
    k = 0..steps-1, in Fractions (t_min alone at steps = 1, no row below)."""
    t_min, t_max = Fraction(t_min), Fraction(t_max)
    h = (t_max - t_min) / max(steps - 1, 1)
    return [sweep_row(verify_report(t_min + k * h)) for k in range(steps)]
