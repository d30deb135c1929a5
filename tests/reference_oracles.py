"""Independent oracles that only the tests use.

Each one reaches a quantity of the package by a route that shares no
code with the route it checks: cross ratios of four collinear points,
Busemann densities from Hilbert metric balls alone, a covering-style
volume estimate, a Monte Carlo volume, the closed-form generators and
longitude table of the figure-eight family, the closed normalized forms
of its peripheral pair and their lattice (meridian translation and
parabolic limit), the class of a cusp element read from its
minimal-polynomial profile, and the tiling of the base by the lattice
rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from convexcusp import cusplie, fig8, projlin
from convexcusp.cusplie import GENERIC, PURE_DILATION, PURE_TRANSLATION, LieAlgElem
from convexcusp.cuspvol import CuspFundamentalDomain
from convexcusp.domains import ConvexDomain
from convexcusp.hilbert import (
    ALPHA3, QuadratureSpec, Region, RegionError, VolumeEstimate, busemann_density, hilbert_distance_pairs, sphere_quadrature,
)

#: relative distance off their line at which ``cross_ratio`` rejects
#: four points
COLLINEAR_TOL = 1e-9


# ---------------------------------------------------------------------------
# cross ratio


def _positions(points, origin, direction):
    return [None if p is None else float(np.dot(np.atleast_1d(p) - origin, direction)) for p in points]


def cross_ratio(a, x, y, b) -> float:
    """Projective cross ratio of four ordered collinear points.

    ``a`` and ``b`` may be None (ideal); the corresponding ratio factor
    is then 1, the one-sided limit convention.  Non-collinear input
    (residual above ``COLLINEAR_TOL`` relative to the configuration
    size) is rejected.
    """
    pts = [None if p is None else np.atleast_1d(np.asarray(p, dtype=float)) for p in (a, x, y, b)]
    finite = [p for p in pts if p is not None]
    dims = {len(p) for p in finite}
    if len(dims) != 1:
        raise ValueError("cross ratio points must share a dimension")
    ref = pts[3] - pts[0] if pts[0] is not None and pts[3] is not None else pts[2] - pts[1]
    scale = max(np.linalg.norm(p - q) for p in finite for q in finite)
    if np.linalg.norm(ref) == 0:
        ref = pts[2] - pts[1]
    if np.linalg.norm(ref) == 0:
        # x == y and no independent direction: degenerate but collinear
        return 1.0
    u = ref / np.linalg.norm(ref)
    if scale > 0:
        resid = max(
            np.linalg.norm((p - finite[0]) - np.dot(p - finite[0], u) * u) for p in finite
        )
        if resid > COLLINEAR_TOL * scale:
            raise ValueError(f"points are not collinear (residual {resid:.3e})")
    ta, tx, ty, tb = _positions(pts, finite[0], u)
    num = (abs(ty - ta) if ta is not None else 1.0) * (abs(tx - tb) if tb is not None else 1.0)
    den = (abs(tx - ta) if ta is not None else 1.0) * (abs(ty - tb) if tb is not None else 1.0)
    if den == 0:
        raise ValueError("degenerate cross ratio (coincident with an endpoint)")
    return num / den


# ---------------------------------------------------------------------------
# metric balls and the covering oracle


def metric_ball_density(dom: ConvexDomain, x, rho=0.02, n_nodes=128) -> float:
    """Density estimated from Hilbert metric balls alone.

    Solves d(x, x + r u) = rho in closed form from the chord parameters
    and divides out rho; independent of the Finsler-norm route, so it
    serves as an oracle for ``busemann_density``.  Antipodal node pairs
    cancel the O(rho) bias.  Only the hemisphere H of the quadrature
    [H; -H] is solved: the two exits of the line along u give the radii
    of both u and -u.
    """
    U, W = sphere_quadrature(n_nodes)
    x = np.asarray(x, dtype=float)
    tm, tp = dom.chord_taus(x, U[: len(U) // 2])
    with np.errstate(divide="ignore"):
        u = np.where(np.isinf(tm), 0.0, -1.0 / tm)
        w = np.where(np.isinf(tp), 0.0, 1.0 / tp)
    K = math.exp(rho)
    r = (K - 1.0) / np.concatenate([u + K * w, w + K * u]) / rho
    vol = float(np.sum(W * r ** 3) / 3.0)
    return ALPHA3 / vol


@dataclass(frozen=True)
class HausdorffEstimate:
    value: float
    raw_cover_sum: float
    cells: int
    max_cell_diameter: float


def hausdorff_oracle(dom: ConvexDomain, region: Region, eps: float, details=False):
    """Covering-style volume oracle for a small box.

    The box is split into a cubical grid that is refined until every
    cell has Hilbert diameter below ``eps``; each cell then contributes
    its Lebesgue volume weighted by the metric-ball density at its
    centre.  The plain covering sum alpha_3 * sum(diam^3) is reported
    alongside for reference (it carries the cube-versus-ball shape
    constant and is a gross overestimate by design).

    Refuses boxes of Hilbert diameter >= 1 (this estimator is meant as a
    local oracle, not an integrator).
    """
    lo = np.array([region.x1_range[0], region.x2_range[0], region.x3_range[0]])
    hi = np.array([region.x1_range[1], region.x2_range[1], region.x3_range[1]])
    if np.all(hi <= lo):
        z = HausdorffEstimate(0.0, 0.0, 0, 0.0)
        return z if details else 0.0
    corners = np.array([[a, b, c] for a in region.x1_range for b in region.x2_range for c in region.x3_range])
    if not dom.contains_batch(corners).all():
        raise RegionError("oracle box must lie inside the domain")
    diam = float(np.max(hilbert_distance_pairs(dom, corners[0], corners[1:])))
    if diam >= 1.0:
        raise RegionError("oracle box too large (Hilbert diameter >= 1)")

    n = 2
    while True:
        edges = [np.linspace(lo[i], hi[i], n + 1) for i in range(3)]
        starts = np.stack(np.meshgrid(*[e[:-1] for e in edges], indexing="ij"), axis=-1).reshape(-1, 3)
        step = (hi - lo) / n
        # cell diameter: the largest Hilbert length among the 4 main diagonals
        dmax = np.zeros(len(starts))
        for sign in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
            d = np.array(sign, dtype=float) * step
            lo_corner = starts + np.where(d < 0, -d, 0.0)
            hi_corner = lo_corner + d
            dmax = np.maximum(dmax, hilbert_distance_pairs(dom, lo_corner, hi_corner))
        if float(dmax.max()) < eps or n >= 32:
            break
        n *= 2
    if float(dmax.max()) >= eps:
        raise RegionError("cover refinement exhausted before reaching eps")
    centers = starts + 0.5 * step
    cell_vol = float(np.prod(step))
    dens = np.array([metric_ball_density(dom, c) for c in centers])
    value = float(np.sum(dens) * cell_vol)
    raw = float(ALPHA3 * np.sum(dmax ** 3))
    out = HausdorffEstimate(value, raw, len(centers), float(dmax.max()))
    return out if details else value


def mc_volume(region: Region, q: QuadratureSpec, samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo Busemann volume over the region's bounding box, an
    integrator independent of the product grid of ``busemann_volume``.

    The samples come from a Philox stream keyed by ``seed``; the ones
    below the floor count 0, and the stderr is the usual sample
    estimate.  A region without a floor that escapes its domain raises
    RegionError.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    lo = np.array([region.x1_range[0], region.x2_range[0], region.x3_range[0]])
    hi = np.array([region.x1_range[1], region.x2_range[1], region.x3_range[1]])
    pts = lo + rng.random((samples, 3)) * (hi - lo)
    if region.floor_level is None:
        if not region.domain.contains_batch(pts).all():
            raise RegionError("region extends outside its domain")
        mask = np.ones(samples, dtype=bool)
    else:
        mask = region.horoball().contains_batch(pts)
    vals = np.zeros(samples)
    vals[mask], gap = busemann_density(region.domain, pts[mask], q, check=False, return_gap=True)
    box = float(np.prod(hi - lo))
    return VolumeEstimate(
        box * float(np.mean(vals)), box * float(np.std(vals) / math.sqrt(samples)), samples, float(np.max(gap, initial=0.0))
    )


# ---------------------------------------------------------------------------
# the generators and the longitude table


def reference_generators(t):
    """The generator pair (meridian image, companion image) in closed form,
    as Fraction matrices, independent of ``fig8``'s integer letters."""
    t = fig8._coerce_t(t)
    M = [[1, 0, 1, t - 1], [0, 1, 1, t], [0, 0, 1, t + Fraction(1, 2)], [0, 0, 0, 1]]
    N = [[1, 0, 0, 0], [2 + 1 / t, 1, 0, 0], [2, 1, 1, 0], [1, 1, 0, 1]]
    return projlin.exact_matrix(M), projlin.exact_matrix(N)


def displayed_longitude(t, stray_reading="t"):
    """The closed-form longitude table.

    One entry of the table contains a stray symbol; ``stray_reading``
    selects how to read it ("t" or "2t").  Evaluating the group word
    shows "t" is the reading that reproduces it.
    """
    t = fig8._coerce_t(t)
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
    t = fig8._coerce_t(t)
    word = fig8.longitude(t)
    disp = displayed_longitude(t, stray_reading=stray_reading)
    report = {}
    for i in range(4):
        for j in range(4):
            if isinstance(t, Fraction):
                report[(i, j)] = word[i, j] == disp[i, j]
            else:
                report[(i, j)] = abs(word[i, j] - disp[i, j]) <= 1e-12 * max(1.0, abs(disp[i, j]))
    return report


# ---------------------------------------------------------------------------
# the closed normalized peripheral pair


def _sinh_ratio(s: float) -> float:
    """sinh(s/4) / (3 s), continued through s = 0 by its even series."""
    if abs(s) < 1e-4:
        x = s / 4.0
        return (1.0 + x * x / 6.0 + x ** 4 / 120.0) / 12.0
    return math.sinh(s / 4.0) / (3.0 * s)


def meridian_translation(s) -> float:
    """Positive translation parameter sqrt(sinh(s/4) / (3 s)) of the
    normalized meridian; tends to 1/(2 sqrt(3)) at the hyperbolic point.
    ``fig8.peripheral_lattice`` measures it as b/|u| on rho_t."""
    return math.sqrt(_sinh_ratio(float(s)))


def limit_elements():
    """The L0 elements of the parabolic limit of the peripheral pair at the
    hyperbolic point: translations (0, 1/(2 sqrt 3)) and (1, 0)."""
    m = 1.0 / (2.0 * math.sqrt(3.0))
    return LieAlgElem("L0", (0.0, m)), LieAlgElem("L0", (1.0, 0.0))


def normalized_peripheral(s):
    """Closed normalized forms of the peripheral pair at parameter s != 0.

    Both matrices lie in the deformed cusp group with family parameter s:
    they are the exponentials of the Lt elements (0, meridian_translation(s))
    and (1, 0) at t = s, so they commute.  ``fig8.normalization_consistency``
    measures the same translation as b/|s| on rho_t.
    """
    s = float(s)
    if s == 0:
        raise ValueError("normalized pair is defined for s != 0; use limit_pair at 0")
    m = meridian_translation(s)
    return tuple(cusplie.group_exp(LieAlgElem("Lt", p, t=s)) for p in ((0.0, m), (1.0, 0.0)))


def limit_pair():
    """Limit of the normalized peripheral pair at the hyperbolic point:
    parabolic translations with parameters (0, 1/(2 sqrt 3)) and (1, 0)."""
    return tuple(projlin.to_float(cusplie.group_exp(e)) for e in limit_elements())


# ---------------------------------------------------------------------------
# classification by the minimal-polynomial profile


def classify(g) -> str:
    """Pure translation / pure dilation / generic, per the (n, f) profile.

    ``g`` is a LieAlgElem or a 4x4 group element whose log lies in a
    conjugate of the model families.  A group element is profiled as
    X = g - I of its canonical lift (``proj_normalize_lift``): X has
    X^3 (X - fI) = 0 with f = lambda - 1 and the (n, kernel) class of
    the log.
    """
    if isinstance(g, LieAlgElem):
        return classify_profile(cusplie.minpoly_profile(g))
    lift = cusplie.proj_normalize_lift(g)
    return classify_profile(cusplie.minpoly_profile(lift - projlin.identity(4, exact=projlin.is_exact(lift))))


def classify_profile(profile: cusplie.MinPolyProfile) -> str:
    if profile.is_zero:
        raise ValueError("identity element has no classification")
    if profile.kernel_flag:
        if profile.n != 2:
            raise cusplie.ProfileShapeError("kernel element with n = 3 violates the family shape")
        return PURE_TRANSLATION
    return PURE_DILATION if profile.n == 2 else GENERIC


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
