"""Cusp fundamental domains in the log domain and their Busemann volume.

A rank-2 lattice acting on the log domain has a dilation parameter a
(base action x2 -> e^a x2) and a translation parameter b (base action
x3 -> x3 + b); the fundamental domain over the base rectangle
[1, e^a] x [0, b] above a horoball floor is the region whose truncated
volumes are tabulated here.  The D' density is rho(x1 + log x2, 1, x3)/x2,
so the table integrates the dilation out in closed form and takes
densities at x2 = 1 only, on Gauss-Legendre panels in the log of the
level and in x3 (``dilation_nodes``), summed by
``hilbert.busemann_volume``.  The closed-form
directional norms give the x1^(3/2) lower bound for unit-ball volumes,
which controls the x1^(-1/2) tail of the volume table.

Horoball displacement profiles measure how far a pure translation moves
points of a horosphere, in the Hilbert metric of an ambient horoball
regarded as a convex domain in its own right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cusplie import LieAlgElem, group_exp
from .domains import DomainDPrime, UnboundedSearchError, VerticalShiftDomain
from .hilbert import QuadratureSpec, busemann_volume, hilbert_distance_pairs, unit_ball_lebesgue
from .projlin import apply_affine_batch

#: Gauss-Legendre nodes and weights on [-1, 1], by rule size
_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


@dataclass(frozen=True)
class CuspFundamentalDomain:
    """Fundamental domain data: floor level and lattice parameters."""

    floor: float
    dilation: float
    translation: float

    def __post_init__(self):
        if not 0 < self.floor < math.inf:
            raise ValueError(f"horoball floor must be positive and finite, not {self.floor}")
        if not (0 <= self.dilation < math.inf and 0 <= self.translation < math.inf):
            raise ValueError(f"lattice parameters must be nonnegative and finite, not {self.dilation}, {self.translation}")

    @property
    def x2_range(self):
        return (1.0, math.exp(self.dilation))

    @property
    def x3_range(self):
        return (0.0, self.translation)


# ---------------------------------------------------------------------------
# closed-form directional norms


@dataclass(frozen=True)
class DirectionNorms:
    """Axis norms at a point of the log domain with their intercepts.

    k1 is the lower x2 chord intercept, k2 the lower x1 intercept and k3
    the symmetric x3 half width; the norms are 1/(x2 - k1), 1/(x1 - k2)
    and 2 k3 / (k3^2 - x3^2).
    """

    norm_e2: float
    norm_e1: float
    norm_e3: float
    k1: float
    k2: float
    k3: float


def direction_norms(x) -> DirectionNorms:
    """Closed-form Finsler norms along the three axes at an interior point."""
    x1, x2, x3 = (float(v) for v in x)
    k2 = 0.5 * x3 * x3 - math.log(x2) if x2 > 0 else math.inf
    if not (x2 > 0 and x1 > k2):
        raise ValueError("point is not interior to the log domain")
    k1 = math.exp(0.5 * x3 * x3 - x1)
    k3 = math.sqrt(2.0 * (x1 + math.log(x2)))
    return DirectionNorms(
        norm_e2=1.0 / (x2 - k1),
        norm_e1=1.0 / (x1 - k2),
        norm_e3=2.0 * k3 / (k3 * k3 - x3 * x3),
        k1=k1,
        k2=k2,
        k3=k3,
    )


def proof_threshold(fd: CuspFundamentalDomain, grid=5) -> float:
    """Least power of ten at which the three simplex inequalities hold
    over a grid on the base rectangle (recorded in reports)."""
    g2 = np.linspace(*fd.x2_range, grid)
    g3 = np.linspace(*fd.x3_range, grid)
    for exponent in range(0, 9):
        height = 10.0 ** exponent
        try:
            norms = [direction_norms((height, x2, x3)) for x2 in g2 for x3 in g3]
        except ValueError:  # a grid point under the boundary fails the inequalities
            continue
        if not any(
            (height / 2.0) * n.norm_e1 >= 1.0 or (math.sqrt(height) / (3.0 * math.sqrt(2.0))) * n.norm_e3 >= 1.0 or n.norm_e2 <= 0
            for n in norms
        ):
            return height
    raise ArithmeticError("simplex inequalities never stabilized")


@dataclass(frozen=True)
class LowerBoundCheck:
    ball_volume: float
    bound: float
    margin: float
    constant: float
    simplex_width: float
    threshold: float


def lower_bound_check(x, q: QuadratureSpec, threshold: float) -> LowerBoundCheck:
    """Quadrature unit-ball volume against the simplex bound C x1^(3/2).

    The simplex width along the x2 axis is taken as large as the unit
    ball allows; the result records the margin, which the tail estimates
    rely on being positive.  Points below ``threshold`` are rejected.
    """
    x1 = float(x[0])
    if x1 <= threshold:
        raise ValueError(f"bound requires x1 > {threshold}")
    n = direction_norms(x)
    width = (1.0 - 1e-9) / n.norm_e2
    constant = width / (36.0 * math.sqrt(2.0))
    vol = unit_ball_lebesgue(DomainDPrime(), x, q)
    bound = constant * x1 ** 1.5
    return LowerBoundCheck(vol, bound, vol - bound, constant, width, threshold)


# ---------------------------------------------------------------------------
# volume tables


def dilation_nodes(fd: CuspFundamentalDomain, lo, hi, n_sigma, n3):
    """Nodes (sigma, 1, x3) and weights of the shell lo <= x1 <= hi of fd
    with the dilation integrated out: a batch of points (m,3) and (m,)
    weights whose density sum is the shell's Busemann volume.

    LPrime(a, 0) keeps horosphere levels and scales Lebesgue measure by
    e^a, so rho(x1, x2, x3) = rho(x1 + log x2, 1, x3) / x2.  With
    sigma = x1 + log x2 the shell's volume is the integral over
    0 <= x3 <= b and sigma >= k + x3^2/2 of L(sigma) rho(sigma, 1, x3),
    where L(sigma) = min(a, sigma - lo) - max(0, sigma - hi) is the length
    of the dilation orbit inside the shell.  sigma is split into panels at
    the floor and at the kinks lo + a and hi of L, and each panel takes
    n_sigma Gauss-Legendre nodes in log kappa, kappa = sigma - x3^2/2 the
    level.  x3 runs to min(b, sqrt(2 (hi + a - k))), above which the shell is empty, in panels
    of n3 nodes split where the floor meets a kink, x3 = sqrt(2 (c - k)) for c > k in {lo, lo + a, hi}.
    """
    a, b, k = fd.dilation, fd.translation, fd.floor
    if a <= 0 or b <= 0 or hi <= lo or hi + a <= k:
        return np.empty((0, 3)), np.empty(0)
    cap = min(b, math.sqrt(2.0 * (hi + a - k)))
    cuts = [math.sqrt(2.0 * (c - k)) for c in (lo, lo + a, hi) if c > k]
    ends = np.array(sorted({0.0, cap, *(x for x in cuts if x < cap)}))  # np.unique would import numpy.ma
    x3n, w3 = _leggauss(n3)
    x0, span = ends[:-1, None], 0.5 * np.diff(ends)[:, None]
    x3, w3 = (x0 + span * (x3n + 1.0)).ravel(), (span * w3).ravel()
    half = 0.5 * x3 * x3
    start = np.maximum(lo, k + half)
    top = np.maximum(start, hi + a)
    kinks = np.sort(np.clip(np.array([[lo + a, hi]]), start[:, None], top[:, None]), axis=1)
    edges = np.column_stack([start, kinks, top]) - half[:, None]
    left, right = edges[:, :-1], edges[:, 1:]
    row, col = np.nonzero(right > left)
    la, lb = np.log(left[row, col]), np.log(right[row, col])
    un, wu = _leggauss(n_sigma)
    kappa = np.exp(0.5 * (lb - la)[:, None] * un + 0.5 * (la + lb)[:, None])
    sigma = kappa + half[row, None]
    length = np.minimum(a, sigma - lo) - np.maximum(0.0, sigma - hi)
    weights = (w3[row] * 0.5 * (lb - la))[:, None] * wu * kappa * length
    pts = np.column_stack([sigma.ravel(), np.ones(sigma.size), np.repeat(x3[row], n_sigma)])
    return pts, weights.ravel()


def _dilation_volumes(fd, shells, q):
    """Fine and coarse dilation integrals (``dilation_nodes``) of every
    shell from one ``busemann_volume`` call: per shell the fine volume,
    its difference from the coarse one and the worst sphere-quadrature
    gap of the two rules."""
    n_sigma, n3 = q.grid_shape
    shapes = ((n_sigma, n3), (max(2, n_sigma // 2), max(2, n3 // 2)))
    rules = [dilation_nodes(fd, lo, hi, *shape) for lo, hi in shells for shape in shapes]
    vols = busemann_volume(DomainDPrime(), rules, q)
    return [(fine, abs(fine - coarse), max(fine_gap, coarse_gap))
            for (fine, fine_gap), (coarse, coarse_gap) in zip(vols[::2], vols[1::2])]


def cusp_volume_table(fd: CuspFundamentalDomain, cutoffs, q: QuadratureSpec):
    """Truncated Busemann volumes of the fundamental domain.

    Each row reports the volume up to the cutoff; increments are
    integrated over disjoint shells so the table is increasing by
    construction, and the increment ratios expose the x1^(-1/2) tail.
    Each shell has the dilation integrated out in closed form
    (``dilation_nodes``): (n_sigma, n3) = ``q.grid_shape`` nodes per
    sigma panel and in x3; the coarse rule takes half of each, and a
    shell's stderr is the fine/coarse difference, which measures the
    sigma and x3 quadrature only.  The densities of all shells and both
    rules come from one ``busemann_volume`` batch.  ``quad_gap`` is the
    worst sphere-quadrature gap over the shells up to each row's cutoff.
    """
    cutoffs = sorted(float(c) for c in cutoffs)
    shells = list(zip([0.0] + cutoffs[:-1], cutoffs))
    rows = []
    total = 0.0
    var = 0.0
    gap = 0.0
    prev_inc = None
    for X, (inc, err, shell_gap) in zip(cutoffs, _dilation_volumes(fd, shells, q)):
        total += inc
        var += err ** 2
        gap = max(gap, shell_gap)
        ratio = (inc / prev_inc) if prev_inc not in (None, 0.0) else math.nan
        rows.append(
            {
                "cutoff": X,
                "estimate": total,
                "stderr": math.sqrt(var),
                "increment": inc,
                "increment_ratio": ratio,
                "quad_gap": gap,
            }
        )
        prev_inc = inc
    return rows


# ---------------------------------------------------------------------------
# horoball displacement


@dataclass(frozen=True)
class DisplacementProfile:
    """Per-level Hilbert displacement of a pure translation, measured in
    an ambient horoball; constant along each horosphere by equivariance
    (the recorded spread is the numerical check)."""

    s: float
    levels: tuple
    displacements: tuple
    ambient_level: float
    constancy_spread: float


def _unresolved(b, lev, ambient_level) -> ValueError:
    """The error of a translation b whose translate of the level lev is lost to float rounding."""
    top = 0.5 * float(b) * float(b)
    return ValueError(
        f"translation b = {float(b):.6g} is beyond float resolution at level {lev:g}: its translate has x1 near "
        f"b^2/2 = {top:.6g}, where floats are {math.ulp(top):.3g} apart, against the level's height "
        f"{lev - ambient_level:g} above the ambient horoball"
    )


def displacement_profile(s, b, levels, ambient_level=None) -> DisplacementProfile:
    """Displacement d(z, g z) of the translation g = LPrime(0, b) at points
    lifted vertically through the given horosphere levels.  ``ambient_level``
    fixes the horoball used as the ambient domain and must sit below every
    level."""
    levels = [float(v) for v in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if ambient_level is None:
        ambient_level = 0.5 * levels[0]
    if ambient_level >= levels[0]:
        raise ValueError("ambient horoball level must sit below the lowest level")
    if math.isinf(float(b) * float(b)):  # group_exp squares the entry b of g's log
        raise _unresolved(b, levels[0], ambient_level)
    g = group_exp(LieAlgElem("LPrime", (0.0, float(b))))
    ambient = VerticalShiftDomain(DomainDPrime(), ambient_level)
    z = np.array([[lev, 1.0, 0.0] for lev in levels])
    # constancy along the bottom horosphere: move the base point around
    # its orbit with eight group elements and remeasure
    orbit = [
        apply_affine_batch(group_exp(LieAlgElem("LPrime", p)), z[:1])
        for p in ((0.3, 0.0), (-0.4, 0.2), (0.1, -0.5), (0.0, 0.7), (-0.2, -0.3), (0.5, 0.4), (-0.6, 0.1), (0.2, 0.6))
    ]
    X = np.vstack([z, *orbit])
    gX = apply_affine_batch(g, X)
    # a translate has x1 near b^2/2, where the float spacing can exceed its
    # height above the ambient horoball and round it outside; the translates
    # are tested before the solve, since the chord to one can overflow
    out = np.flatnonzero(~ambient.contains_batch(gX))
    try:
        d = None if len(out) else hilbert_distance_pairs(ambient, X, gX)
    except UnboundedSearchError:
        d = None
    if d is None:
        raise _unresolved(b, levels[out[0]] if len(out) and out[0] < len(levels) else levels[0], ambient_level)
    vals, spread_vals = d[: len(levels)].tolist(), d[len(levels):]
    spread = float(np.max(spread_vals) - np.min(spread_vals))
    if spread > 1e-6:
        raise ArithmeticError(f"displacement varies along a horosphere (spread {spread:.3e})")
    return DisplacementProfile(float(s), tuple(levels), tuple(vals), float(ambient_level), float(spread))
