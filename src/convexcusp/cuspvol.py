"""Cusp fundamental domains in the log domain and their Busemann volume.

A rank-2 lattice acting on the log domain has a dilation parameter a
(base action x2 -> e^a x2) and a translation parameter b (base action
x3 -> x3 + b); the fundamental domain over the base rectangle
[1, e^a] x [0, b] above a horoball floor is the region whose truncated
volumes are tabulated here.  The D' density is rho(x1 + log x2, 1, x3)/x2,
so the table integrates the dilation out in closed form and takes
densities at x2 = 1 only, on Gauss-Legendre panels in the log of the
level and in x3 (``dilation_nodes``).  The closed-form
directional norms give the x1^(3/2) lower bound for unit-ball volumes,
which controls the x1^(-1/2) tail of the volume table.

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
from .domains import DomainDPrime, UnboundedSearchError, VerticalShiftDomain
from .hilbert import (
    QuadratureSpec, Region, _leggauss, busemann_density, busemann_volume, hilbert_distance_pairs, unit_ball_lebesgue,
)
from .projlin import apply_affine_batch


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
    level; x3 takes n3 Gauss-Legendre nodes.
    """
    a, b, k = fd.dilation, fd.translation, fd.floor
    if a <= 0 or b <= 0 or hi <= lo:
        return np.empty((0, 3)), np.empty(0)
    x3n, w3 = _leggauss(n3)
    x3, w3 = 0.5 * b * (x3n + 1.0), 0.5 * b * w3
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
    shell from one unchecked density batch: per shell the fine volume, its
    difference from the coarse one, the fine node count and the worst
    sphere-quadrature gap over both rules' nodes."""
    n1, _, n3 = q.grid_shape
    rules = ((n1, n3), (max(2, n1 // 2), max(2, n3 // 2)))
    nodes = [dilation_nodes(fd, lo, hi, *rule) for lo, hi in shells for rule in rules]
    pts = np.concatenate([np.empty((0, 3)), *(p for p, _ in nodes)])
    rho, gap = busemann_density(DomainDPrime(), pts, q, check=False, return_gap=True)
    ends = np.cumsum([len(w) for _, w in nodes])[:-1]
    vols = [math.fsum(w * r) for (_, w), r in zip(nodes, np.split(rho, ends))]
    gaps = [float(np.max(g, initial=0.0)) for g in np.split(gap, ends[1::2])]
    return [(fine, abs(fine - coarse), len(w), g)
            for fine, coarse, (_, w), g in zip(vols[::2], vols[1::2], nodes[::2], gaps)]


def cusp_volume_table(fd: CuspFundamentalDomain, cutoffs, q: QuadratureSpec, method="grid"):
    """Truncated Busemann volumes of the fundamental domain.

    Each row reports the volume up to the cutoff; increments are
    integrated over disjoint shells so the table is increasing by
    construction, and the increment ratios expose the x1^(-1/2) tail.
    ``method="grid"`` integrates the dilation out in closed form
    (``dilation_nodes``): n1 = ``q.grid_shape[0]`` nodes per sigma panel
    and n3 = ``q.grid_shape[2]`` in x3, n2 unused; the coarse rule takes
    half of each, and a shell's stderr is the fine/coarse difference,
    which measures the sigma and x3 quadrature only.  The densities of
    all shells and both rules come from one batch.  ``method="mc"``
    samples each shell's box (``hilbert.busemann_volume``).
    ``quad_gap`` is the worst sphere-quadrature gap over the shells up
    to each row's cutoff.
    """
    cutoffs = sorted(float(c) for c in cutoffs)
    shells = list(zip([0.0] + cutoffs[:-1], cutoffs))
    if method == "grid":
        parts = _dilation_volumes(fd, shells, q)
    else:
        parts = [(e.estimate, e.stderr, e.samples, e.quad_gap)
                 for e in (busemann_volume(fd.shell(lo, X), q, method=method) for lo, X in shells)]
    rows = []
    total = 0.0
    var = 0.0
    gap = 0.0
    prev_inc = None
    for X, (inc, err, samples, shell_gap) in zip(cutoffs, parts):
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
                "samples": samples,
                "seed": q.seed,
                "quad_gap": gap,
            }
        )
        prev_inc = inc
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
    try:
        d = hilbert_distance_pairs(ambient, X, gX)
    except (ValueError, UnboundedSearchError) as err:
        # a translate has x1 near b^2/2, where the float spacing can exceed
        # its height above the ambient horoball and round it outside
        out = np.flatnonzero(~ambient.contains_batch(gX))
        lev = levels[out[0]] if len(out) and out[0] < len(levels) else levels[0]
        top = 0.5 * float(b) * float(b)
        raise ValueError(
            f"translation b = {float(b):.6g} is beyond float resolution at level {lev:g}: its translate has x1 near "
            f"b^2/2 = {top:.6g}, where floats are {math.ulp(top):.3g} apart, against the level's height "
            f"{lev - ambient_level:g} above the ambient horoball"
        ) from err
    vals, spread_vals = d[: len(levels)].tolist(), d[len(levels):]
    spread = float(np.max(spread_vals) - np.min(spread_vals))
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
