"""Closed forms the benchmark checks the program against.

Nothing here calls convexcusp: every value is derived from the geometry
of the model domains and the holonomy family, so a check compares two
computations made apart.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


# -- Ball: the Hilbert metric of the unit ball is twice the Klein metric


def ball_density(x):
    """Busemann density (1 - |x|^2)^-2 of the unit ball."""
    x = np.asarray(x, dtype=float)
    return (1.0 - float(x @ x)) ** -2


def ball_distance(X, Y):
    """2 arccosh((1 - x.y) / sqrt((1 - |x|^2)(1 - |y|^2))) for paired rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    c = (1.0 - _dot(X, Y)) / np.sqrt((1.0 - _dot(X, X)) * (1.0 - _dot(Y, Y)))
    return 2.0 * np.arccosh(np.maximum(c, 1.0))


# -- D0: the paraboloid is a projective image of the unit ball


def d0_level(x):
    """Height u = x1 - (x2^2 + x3^2)/2 above the paraboloid."""
    return float(x[0]) - 0.5 * (float(x[1]) ** 2 + float(x[2]) ** 2)


def d0_density(x):
    """Busemann density 1/(4 u^2) of the paraboloid domain."""
    return 0.25 / d0_level(x) ** 2


def d0_to_ball(X):
    """Projective map x -> (x1 - 1, sqrt2 x2, sqrt2 x3)/(x1 + 1) onto the ball."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([X[:, 0] - 1.0, SQRT2 * X[:, 1], SQRT2 * X[:, 2]]) / (X[:, 0] + 1.0)[:, None]


def d0_distance(X, Y):
    return ball_distance(d0_to_ball(X), d0_to_ball(Y))


# -- D': x1 > x3^2/2 - log x2 over x2 > 0


def dprime_point(level, x2, x3):
    """The point of D' at horosphere level ``level`` over the base point."""
    return np.array([0.5 * x3 * x3 - math.log(x2) + level, x2, x3])


def dprime_intercepts(x):
    """Axis chord intercepts (k1, k2, k3) at an interior point of D'.

    Along e2 the chord runs from x2 = k1 to infinity, along e1 from
    x1 = k2 to infinity, and along e3 between x3 = -k3 and x3 = k3.
    """
    x1, x2, x3 = (float(v) for v in x)
    k1 = math.exp(0.5 * x3 * x3 - x1)
    k2 = 0.5 * x3 * x3 - math.log(x2)
    k3 = math.sqrt(2.0 * (x1 + math.log(x2)))
    return k1, k2, k3


def dprime_axis_norms(x):
    """Finsler norms 1/(x2 - k1), 1/(x1 - k2), 2 k3/(k3^2 - x3^2) of e2, e1, e3."""
    k1, k2, k3 = dprime_intercepts(x)
    x1, x2, x3 = (float(v) for v in x)
    return 1.0 / (x2 - k1), 1.0 / (x1 - k2), 2.0 * k3 / (k3 * k3 - x3 * x3)


def dprime_axis_chord(x, axis):
    """Ends (lo, hi) of the chord of D' through x along coordinate ``axis``
    (0 for e1, 1 for e2, 2 for e3), as values of that coordinate."""
    k1, k2, k3 = dprime_intercepts(x)
    return ((k2, math.inf), (k1, math.inf), (-k3, k3))[axis]


def chord_distance(lo, hi, p, q):
    """Hilbert distance between coordinates p, q on the chord (lo, hi);
    an infinite end contributes the factor 1."""
    a, b = min(p, q), max(p, q)
    left = (b - lo) / (a - lo)
    right = 1.0 if math.isinf(hi) else (hi - a) / (hi - b)
    return math.log(left * right)


def dprime_axis_distance(x, y):
    """Closed-form distance between points of D' that differ in one coordinate."""
    (axis,) = np.flatnonzero(np.asarray(x) != np.asarray(y))
    lo, hi = dprime_axis_chord(x, axis)
    return chord_distance(lo, hi, float(x[axis]), float(y[axis]))


def lprime_act(a, b, x):
    """The LPrime group element with parameters (a, b) applied to x:
    x2 -> e^a x2, x3 -> x3 + b, and x1 shifted to keep the level."""
    x1, x2, x3 = (float(v) for v in x)
    return np.array([x1 + b * x3 + 0.5 * b * b - a, math.exp(a) * x2, x3 + b])


# -- Dt = V_t(D'), V_t affine with determinant 1/t^4


def vt_apply(t, X):
    """V_t x = ((x1 + x2 - 1)/t^2, (x2 - 1)/t, x3/t) for rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([(X[:, 0] + X[:, 1] - 1.0) / t ** 2, (X[:, 1] - 1.0) / t, X[:, 2] / t])


# -- horoball displacement of a pure translation


def horoball_displacement(level, ambient_level, b):
    """Displacement 2 log(sigma/(sigma - 1)) of the translation by b at a
    horosphere level, measured in the horoball above ``ambient_level``;
    sigma = (1 + sqrt(1 + 8 (level - ambient_level)/b^2))/2."""
    sigma = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * (level - ambient_level) / b ** 2))
    return 2.0 * math.log(sigma / (sigma - 1.0))


# -- the holonomy family


def longitude_spectrum(t: Fraction):
    """Exact spectrum of the longitude: {2t: 3, 1/(8t^3): 1}, merged at t = 1/2."""
    triple, single = 2 * t, 1 / (8 * t ** 3)
    if triple == single:
        return [(triple, 4)]
    return sorted([(triple, 3), (single, 1)])


def dilation(t) -> float:
    """s(t) = -log(16 t^4)."""
    return -math.log(16.0 * float(t) ** 4)


def translation_parameter(s: float) -> float:
    """b(s) = sqrt(s sinh(s/4)/3), the meridian translation times s."""
    return math.sqrt(s * math.sinh(s / 4.0) / 3.0)


def lprime_pattern_violations(M, sign):
    """Entries that must vanish for M to lie in LPrime (sign +1) or
    LPrimeMinus (sign -1): [[0, 0, b, -sign a], [0, a, 0, 0], [0, 0, 0, b], 0]."""
    zero = [(0, 0), (0, 1), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]
    out = [M[i, j] for i, j in zero]
    out.append(M[0, 2] - M[2, 3])
    out.append(M[0, 3] + sign * M[1, 1])
    return out


# -- cusp volume by the LPrime symmetry


class ReducedCuspVolume:
    """Truncated cusp volumes from a tabulated horosphere profile.

    LPrime acts transitively on each horosphere and scales Lebesgue
    measure by x2, so the density is g(level)/x2 with g(level) the
    density at (level, 1, 0).  Substituting x2 = e^w and x1 = F + level,
    with F = x3^2/2 - log x2, the volume over [1, e^a] x [0, b] between
    the floor and the cutoff X is the integral over (w, x3) of
    G(X - F) - G(max(floor, -F)), G a primitive of g.
    """

    def __init__(self, levels, g, dilation, translation, floor, n_base=64):
        levels = np.asarray(levels, dtype=float)
        g = np.asarray(g, dtype=float)
        # g is smooth and close to a power law, so interpolate log g in log level
        self._fine = np.geomspace(levels[0], levels[-1], 4001)
        gf = np.exp(np.interp(np.log(self._fine), np.log(levels), np.log(g)))
        self._cum = np.concatenate([[0.0], np.cumsum(0.5 * (gf[1:] + gf[:-1]) * np.diff(self._fine))])
        nodes, weights = np.polynomial.legendre.leggauss(n_base)
        w = 0.5 * dilation * (nodes + 1.0)
        x3 = 0.5 * translation * (nodes + 1.0)
        W, X3 = np.meshgrid(w, x3, indexing="ij")
        self._weights = np.outer(0.5 * dilation * weights, 0.5 * translation * weights)
        self._F = 0.5 * X3 ** 2 - W
        self._lo = np.maximum(floor, -self._F)
        if self._lo.min() < levels[0]:
            raise ValueError("profile table starts above the floor")
        self.max_cutoff = levels[-1] + self._F.min()

    def _G(self, level):
        return np.interp(level, self._fine, self._cum)

    def volume(self, cutoff):
        if cutoff > self.max_cutoff:
            raise ValueError("cutoff beyond the tabulated levels")
        inc = np.clip(self._G(cutoff - self._F) - self._G(self._lo), 0.0, None)
        return float(np.sum(self._weights * inc))
