"""Cusp fundamental domains in the log domain and their Busemann volume.

A rank-2 lattice acting on the log domain has a dilation parameter a
(base action x2 -> e^a x2) and a translation parameter b (base action
x3 -> x3 + b); the fundamental domain over the base rectangle
[1, e^a] x [0, b] above a horoball floor is the region whose truncated
volumes are tabulated here.  The closed-form directional norms give the
x1^(3/2) lower bound for unit-ball volumes, which controls the x1^(-1/2)
tail of the volume table.

Horoball displacement profiles measure how far a pure translation moves
points of a horosphere, in the Hilbert metric of an ambient horoball
regarded as a convex domain in its own right.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cusplie import LieAlgElem, group_exp
from .domains import DomainDPrime, VerticalShiftDomain
from .hilbert import QuadratureSpec, Region, busemann_volume, hilbert_distance, unit_ball_lebesgue
from .projlin import to_float


@dataclass(frozen=True)
class CuspFundamentalDomain:
    """Fundamental domain data: floor level and lattice parameters."""

    floor: float
    dilation: float
    translation: float

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("horoball floor must be positive")
        if self.dilation < 0 or self.translation < 0:
            raise ValueError("lattice parameters must be nonnegative")

    @property
    def x2_range(self):
        return (1.0, math.exp(self.dilation))

    @property
    def x3_range(self):
        return (0.0, self.translation)

    def shell(self, lo, hi) -> Region:
        return Region(DomainDPrime(), self.x2_range, self.x3_range, (lo, hi), floor_level=self.floor)


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
        norms = (direction_norms((height, x2, x3)) for x2 in g2 for x3 in g3)
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


def cusp_volume_table(fd: CuspFundamentalDomain, cutoffs, q: QuadratureSpec, method="grid"):
    """Truncated Busemann volumes of the fundamental domain.

    Each row reports the volume up to the cutoff; increments are
    integrated over disjoint shells so the table is increasing by
    construction, and the increment ratios expose the x1^(-1/2) tail.
    ``quad_gap`` is the worst sphere-quadrature gap over the shells up
    to each row's cutoff.
    """
    cutoffs = sorted(float(c) for c in cutoffs)
    rows = []
    total = 0.0
    var = 0.0
    gap = 0.0
    prev_inc = None
    lo = 0.0
    for X in cutoffs:
        est = busemann_volume(fd.shell(lo, X), q, method=method)
        inc = est.estimate
        total += inc
        var += est.stderr ** 2
        gap = max(gap, est.quad_gap)
        ratio = (inc / prev_inc) if prev_inc not in (None, 0.0) else math.nan
        rows.append(
            {
                "cutoff": X,
                "estimate": total,
                "stderr": math.sqrt(var),
                "increment": inc,
                "increment_ratio": ratio,
                "samples": est.samples,
                "seed": est.seed,
                "quad_gap": gap,
            }
        )
        prev_inc = inc
        lo = X
    return rows


def write_volume_table_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        columns = ["cutoff", "estimate", "stderr", "increment_ratio"]
        w.writerow(columns)
        for r in rows:
            w.writerow([f"{r[c]:.12g}" for c in columns])
    return path


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


def _translation_map(b: float):
    return to_float(group_exp(LieAlgElem("LPrime", (0.0, float(b)))))


def _apply(mat, x):
    v = mat @ np.append(np.asarray(x, dtype=float), 1.0)
    return v[:3] / v[3]


def displacement_profile(s, meridian, levels, ambient_level=None) -> DisplacementProfile:
    """Displacement d(z, g z) of the translation g at points lifted
    vertically through the given horosphere levels.

    ``meridian`` is either the translation parameter b or a matrix whose
    (1,3) entry supplies it.  ``ambient_level`` fixes the horoball used
    as the ambient domain and must sit below every level.
    """
    levels = [float(v) for v in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if ambient_level is None:
        ambient_level = 0.5 * levels[0]
    if ambient_level >= levels[0]:
        raise ValueError("ambient horoball level must sit below the lowest level")
    b = float(meridian if np.isscalar(meridian) else to_float(meridian)[0, 2])
    g = _translation_map(b)
    ambient = VerticalShiftDomain(DomainDPrime(), ambient_level)
    vals = []
    for lev in levels:
        z = np.array([lev, 1.0, 0.0])
        vals.append(hilbert_distance(ambient, z, _apply(g, z)))
    # constancy along the bottom horosphere: move the base point around
    # its orbit with eight group elements and remeasure
    spread_vals = []
    z0 = np.array([levels[0], 1.0, 0.0])
    for a_par, b_par in ((0.3, 0.0), (-0.4, 0.2), (0.1, -0.5), (0.0, 0.7), (-0.2, -0.3), (0.5, 0.4), (-0.6, 0.1), (0.2, 0.6)):
        h = to_float(group_exp(LieAlgElem("LPrime", (a_par, b_par))))
        y = _apply(h, z0)
        spread_vals.append(hilbert_distance(ambient, y, _apply(g, y)))
    spread = max(spread_vals) - min(spread_vals)
    if spread > 1e-6:
        raise ArithmeticError(f"displacement varies along a horosphere (spread {spread:.3e})")
    return DisplacementProfile(float(s), tuple(levels), tuple(vals), float(ambient_level), float(spread))


def write_displacement_csv(path, profile: DisplacementProfile):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "displacement"])
        for lev, d in zip(profile.levels, profile.displacements):
            w.writerow([f"{lev:.12g}", f"{d:.12g}"])
    return path


# ---------------------------------------------------------------------------
# lattice tiling of the base


def tiling_overlap_fraction(fd: CuspFundamentalDomain, n_samples=10_000, seed=0) -> float:
    """Fraction of sample points of the doubled base rectangle covered by
    zero or more than one lattice translate of the fundamental rectangle.

    The dilation acts by x2 -> e^a x2 and the translation by
    x3 -> x3 + b; half-open tiles make the fraction vanish exactly up to
    boundary hits.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    a = fd.dilation
    b = fd.translation
    x2 = rng.uniform(1.0, math.exp(2 * a), n_samples)
    x3 = rng.uniform(0.0, 2 * b, n_samples)
    counts = np.zeros(n_samples, dtype=int)
    for i_dil in (0, 1):
        lo2, hi2 = math.exp(i_dil * a), math.exp((i_dil + 1) * a)
        for j_tr in (0, 1):
            lo3, hi3 = j_tr * b, (j_tr + 1) * b
            counts += ((x2 >= lo2) & (x2 < hi2) & (x3 >= lo3) & (x3 < hi3)).astype(int)
    return float(np.mean(counts != 1))
