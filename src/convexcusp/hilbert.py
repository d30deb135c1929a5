"""Hilbert metric, Finsler norms, and Busemann volume on convex domains.

The distance between interior points is the log of the cross ratio of
the chord through them; the Finsler norm is its infinitesimal version;
the Busemann density at a point is alpha_3 / (Lebesgue volume of the
unit norm ball), where alpha_3 = pi/6 is the Lebesgue volume of the
Euclidean ball of diameter 1.  Volumes of regions are integrals of the
density, by seeded Monte Carlo or a Gauss-Legendre product grid.

``unit_ball_lebesgue`` and ``busemann_density`` take one point (float
result) or an (m,3) batch of points ((m,) array result).  Unit balls
are integrated in each domain's frame (``quadrature_frames``), whose
third row a symmetry of the domain fixing the point negates, one line
per orbit of that reflection and of -1 on the sphere quadrature
(``line_quadrature``); on the ball and D0 the norm is quadratic and
diagonal in the frame, so the rescaled unit ball is round.  A batch is
solved in chunks of points whose chord rows go through one
``chord_taus`` call each, and gives the same values bit for bit as one
point at a time, whatever the chunking.  Each unit-ball volume is also
computed on a coarse sphere quadrature in the same solve: with
``check=True`` a coarse/fine disagreement at any point raises
QuadratureError, with ``check=False`` it never raises and the integrators
record the worst relative gap instead (``VolumeEstimate.quad_gap``).

A slow covering-style oracle estimates the same measure from metric
balls only (no Finsler norm, no density integration) and is used to
cross-check the main pipeline on small boxes.

Monte Carlo sampling uses a counter-based Philox stream keyed by the
seed, with all sample coordinates derived up front, so results are
deterministic for a fixed seed no matter how evaluation is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .domains import CHORD_TOL, ConvexDomain, ParabolicDomain, VerticalShiftDomain

#: Lebesgue volume of the Euclidean ball of diameter 1 (normalising
#: constant of the 3-dimensional Hausdorff measure used throughout)
ALPHA3 = math.pi / 6


class QuadratureError(ArithmeticError):
    """Raised when quadrature refinement fails to agree with itself."""


class RegionError(ValueError):
    """Raised for invalid or out-of-domain integration regions."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and node counts for the numeric geometry.

    ``sphere_nodes`` is realised as a Gauss-Legendre x uniform product
    grid on the sphere with twice as many azimuthal as polar nodes, so
    2312 becomes a 34 x 68 grid.  ``seed`` keys the Philox stream used
    by Monte Carlo integration and is recorded in every report.
    """

    sphere_nodes: int = 2312
    mc_samples: int = 200_000
    seed: int = 0
    chord_tol: float = CHORD_TOL
    cutoff: float | None = None
    rel_target: float = 1e-3
    grid_shape: tuple = (8, 6, 6)

    def __post_init__(self):
        if self.sphere_nodes <= 0 or self.mc_samples <= 0:
            raise ValueError("node and sample counts must be positive")
        if self.chord_tol <= 0:
            raise ValueError("chord tolerance must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# cross ratio and distance


def _positions(points, origin, direction):
    return [None if p is None else float(np.dot(np.atleast_1d(p) - origin, direction)) for p in points]


def cross_ratio(a, x, y, b, collinear_tol=1e-9) -> float:
    """Projective cross ratio of four ordered collinear points.

    ``a`` and ``b`` may be None (ideal); the corresponding ratio factor
    is then 1, the one-sided limit convention.  Non-collinear input
    (residual above ``collinear_tol`` relative to the configuration
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
        if resid > collinear_tol * scale:
            raise ValueError(f"points are not collinear (residual {resid:.3e})")
    ta, tx, ty, tb = _positions(pts, finite[0], u)
    num = (abs(ty - ta) if ta is not None else 1.0) * (abs(tx - tb) if tb is not None else 1.0)
    den = (abs(tx - ta) if ta is not None else 1.0) * (abs(ty - tb) if tb is not None else 1.0)
    if den == 0:
        raise ValueError("degenerate cross ratio (coincident with an endpoint)")
    return num / den


def hilbert_distance(dom: ConvexDomain, x, y, tol=CHORD_TOL) -> float:
    """Hilbert distance between x and y: a batch of one of
    ``hilbert_distance_pairs``."""
    return float(hilbert_distance_pairs(dom, x, y, tol=tol)[0])


def hilbert_distance_pairs(dom: ConvexDomain, X, Y, tol=CHORD_TOL):
    """Distances between paired interior points, via chord parameters.

    X and Y are (n,3) batches, or one of them a single point.
    ``chord_taus`` checks X and the directions; an exterior Y then raises
    ValueError as well."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    V = Y - X
    deg = ~np.any(V, axis=1)
    V = np.where(deg[:, None], np.array([1.0, 0, 0]), V)
    tm, tp = dom.chord_taus(X, V, tol=tol)
    if not dom.contains_batch(Y).all():
        raise ValueError("distance end point must be interior")
    # point positions 0 and 1 in chord units; ideal factors collapse to 1
    with np.errstate(invalid="ignore"):
        left = np.where(np.isinf(tm), 1.0, (1.0 - tm) / (-tm))
        right = np.where(np.isinf(tp), 1.0, tp / (tp - 1.0))
    out = np.log(left * right)
    out[deg] = 0.0
    return out


def hilbert_distance_many(dom: ConvexDomain, x, Y, tol=CHORD_TOL):
    """Distances from one interior point to many others."""
    return hilbert_distance_pairs(dom, np.asarray(x, dtype=float)[None, :], Y, tol=tol)


def finsler_norm(dom: ConvexDomain, x, v, tol=CHORD_TOL) -> float:
    """Tangent norm |v| (1/|x-p_minus| + 1/|x-p_plus|); ideal ends add 0."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return 0.0
    return float(finsler_norm_batch(dom, x, v[None, :], tol=tol)[0])


def finsler_norm_batch(dom: ConvexDomain, x, dirs, tol=CHORD_TOL):
    tm, tp = dom.chord_taus(x, dirs, tol=tol)
    with np.errstate(divide="ignore"):
        u = np.where(np.isinf(tm), 0.0, -1.0 / tm)
        w = np.where(np.isinf(tp), 0.0, 1.0 / tp)
    return u + w


# ---------------------------------------------------------------------------
# unit balls and Busemann density


@lru_cache(maxsize=32)
def sphere_quadrature(n_nodes: int):
    """Product quadrature on the unit sphere, laid out as [H; -H].

    Gauss-Legendre in the polar cosine, midpoint-uniform in azimuth,
    with n_phi = 2 n_theta; returns (directions (n,3), weights) with the
    weights summing to 4 pi.  H is the upper hemisphere (cos theta > 0,
    and azimuth < pi on the equator); -H, its exact negation, has the
    same weights, since ``leggauss`` symmetrises its nodes and weights.
    """
    n_theta = max(2, int(round(math.sqrt(n_nodes / 2.0))))
    n_phi = 2 * n_theta
    xs, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    sin_theta = np.sqrt(1.0 - xs ** 2)
    U = np.column_stack([np.repeat(xs, n_phi), np.outer(sin_theta, np.cos(phi)).ravel(), np.outer(sin_theta, np.sin(phi)).ravel()])
    W = np.repeat(wx * (2 * math.pi / n_phi), n_phi)
    upper = (U[:, 0] > 0) | ((U[:, 0] == 0) & (np.tile(phi, n_theta) < math.pi))
    return np.concatenate([U[upper], -U[upper]]), np.concatenate([W[upper], W[upper]])


@lru_cache(maxsize=32)
def line_quadrature(n_nodes: int):
    """One node per orbit of ``sphere_quadrature(n_nodes)`` under -1 and
    the reflection u2 -> -u2, at the orbit's total weight.  The lines
    {u, -u} are those of H, and the reflection (azimuth phi <-> 2 pi -
    phi) pairs the lines of H with u2 > 0 and u2 < 0 off the equator
    u0 = 0, and phi with pi - phi on it, where the line at phi = pi/2
    (odd polar counts) is its own image.
    """
    U, W = sphere_quadrature(n_nodes)
    U, W = U[: len(U) // 2], 2.0 * W[: len(U) // 2]
    size = np.where(U[:, 2] > 0, 2.0, 0.0)
    # the equator's nodes of H, in increasing azimuth: 2, ..., 2, 1, 0, ..., 0
    equator = np.flatnonzero(U[:, 0] == 0)
    size[equator] = 1.0 + np.sign(len(equator) // 2 - np.arange(len(equator)))
    keep = size > 0
    return U[keep], W[keep] * size[keep]


#: rays per batched chord solve of the density, two for each chord line
#: (a point's 3 frame lines, or its node lines); bounds the working set
#: without changing any value, since every ray is solved independently
#: of the others
DENSITY_CHUNK_ROWS = 4096


def _unit_ball_volumes(dom, X, q):
    """Fine and coarse unit-ball volumes at the rows of an (m,3) array.

    The three frame chords (``dom.quadrature_frames``) of every point go
    into one chord solve per chunk of points, and then, per smaller
    chunk, the fine and coarse nodes of every point, rescaled by the
    frame radii 1/F, into one more, each point the base of its own run
    of directions; the node sets are split afterwards.  One node of
    each orbit of lines of ``line_quadrature`` goes in, at the orbit's
    weight: the norm is even, and invariant under the reflection u2 ->
    -u2 of the frame.
    """
    U, W = line_quadrature(q.sphere_nodes)
    Uc, Wc = line_quadrature(max(8, q.sphere_nodes // 4))
    n_fine, n = len(U), len(U) + len(Uc)
    nodes = np.concatenate([U, Uc])
    frames = dom.quadrature_frames(X)
    radii = np.empty((len(X), 3))
    step = max(1, DENSITY_CHUNK_ROWS // 6)
    for a in range(0, len(X), step):
        P = X[a : a + step]
        frame_norms = finsler_norm_batch(dom, P, frames[a : a + step].reshape(-1, 3), tol=q.chord_tol)
        radii[a : a + len(P)] = 1.0 / frame_norms.reshape(-1, 3)
    fine = np.empty(len(X))
    coarse = np.empty(len(X))
    step = max(1, DENSITY_CHUNK_ROWS // (2 * n))
    for a in range(0, len(X), step):
        P, R = X[a : a + step], radii[a : a + step]
        k = len(P)
        dirs = np.einsum("kni,kij->knj", nodes[None, :, :] * R[:, None, :], frames[a : a + step]).reshape(k * n, 3)
        norms = finsler_norm_batch(dom, P, dirs, tol=q.chord_tol)
        r3 = (1.0 / norms.reshape(k, n)) ** 3
        scale = np.prod(R, axis=1)
        fine[a : a + k] = scale * np.sum(W * r3[:, :n_fine], axis=1) / 3.0
        coarse[a : a + k] = scale * np.sum(Wc * r3[:, n_fine:], axis=1) / 3.0
    return fine, coarse


def _ball_volumes(dom, x, q, check):
    """Fine unit-ball volumes and relative fine/coarse gaps, as (m,) arrays.

    The check runs here, after the solve has returned, so that the
    traceback of a QuadratureError holds no chord arrays.
    """
    X = np.asarray(x, dtype=float).reshape(-1, 3)
    if not dom.contains_batch(X).all():
        raise ValueError("unit ball requested at a non-interior point")
    fine, coarse = _unit_ball_volumes(dom, X, q)
    if check:
        bad = np.abs(fine - coarse) > 10.0 * q.rel_target * np.abs(fine)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(
                f"sphere quadrature not converged (fine {fine[i]:.6g}, coarse {coarse[i]:.6g})"
            )
    return fine, np.abs(fine - coarse) / fine


def unit_ball_lebesgue(dom: ConvexDomain, x, q: QuadratureSpec = DEFAULT_QUADRATURE, check=True):
    """Lebesgue volume of the unit Finsler ball in the tangent space.

    ``x`` is one interior point, giving a float, or an (m,3) batch,
    giving an (m,) array.  Computed as (1/3) * integral of r(u)^3 over
    the sphere, one node per orbit of lines (``line_quadrature``), with
    directions rescaled by the radii along the domain's quadrature frame
    to keep the integrand order-one in anisotropic tangent spaces.  A
    symmetry of the domain fixing x negates the frame's third row, which
    halves the lines.  On the ball and D0 the rescaled unit ball is
    round, so the quadrature is exact to rounding; LPrime keeps the D'
    frame, so D' densities are equivariant to rounding.  A coarse pass
    at a quarter of the nodes is solved alongside the fine one; with
    ``check`` it must agree with the fine pass to within ten times
    ``q.rel_target`` at every point or QuadratureError is raised.  A
    non-interior point raises ValueError.
    """
    fine, _ = _ball_volumes(dom, x, q, check)
    return float(fine[0]) if np.ndim(x) == 1 else fine


def busemann_density(dom: ConvexDomain, x, q: QuadratureSpec = DEFAULT_QUADRATURE, check=True, return_gap=False):
    """Density of the Busemann volume against Lebesgue measure.

    Takes one point (float result) or an (m,3) batch ((m,) array), as
    ``unit_ball_lebesgue`` does, and returns the same values point by
    point either way.  Quadrature convergence failures propagate;
    integrators that sample densely pass ``check=False``, which never
    raises, and ``return_gap=True``, which adds the relative fine/coarse
    gap |fine - coarse|/fine of each unit-ball volume (same shape as
    the densities) so that they can report the worst one.
    """
    fine, gap = _ball_volumes(dom, x, q, check)
    rho = ALPHA3 / fine
    if np.ndim(x) == 1:
        rho, gap = float(rho[0]), float(gap[0])
    return (rho, gap) if return_gap else rho


def metric_ball_density(dom: ConvexDomain, x, rho=0.02, n_nodes=128, tol=CHORD_TOL) -> float:
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
    tm, tp = dom.chord_taus(x, U[: len(U) // 2], tol=tol)
    with np.errstate(divide="ignore"):
        u = np.where(np.isinf(tm), 0.0, -1.0 / tm)
        w = np.where(np.isinf(tp), 0.0, 1.0 / tp)
    K = math.exp(rho)
    r = (K - 1.0) / np.concatenate([u + K * w, w + K * u]) / rho
    vol = float(np.sum(W * r ** 3) / 3.0)
    return ALPHA3 / vol


# ---------------------------------------------------------------------------
# regions and volume integration


@dataclass(frozen=True)
class Region:
    """Box-with-floor region inside a convex domain.

    The region is the set of points with base coordinates in the given
    rectangle, vertical coordinate in ``x1_range`` and, when
    ``floor_level`` is set, inside the horoball above the horosphere at
    that level (``horoball``).
    """

    domain: ConvexDomain
    x2_range: tuple
    x3_range: tuple
    x1_range: tuple
    floor_level: float | None = None

    def is_empty(self) -> bool:
        return any(hi <= lo for lo, hi in (self.x2_range, self.x3_range, self.x1_range))

    def box_volume(self) -> float:
        return math.prod(hi - lo for lo, hi in (self.x1_range, self.x2_range, self.x3_range))

    def horoball(self) -> VerticalShiftDomain:
        """The domain shifted up by the floor level."""
        if not isinstance(self.domain, ParabolicDomain):
            raise RegionError("floor levels require a parabolic domain")
        return VerticalShiftDomain(self.domain, self.floor_level)

    def mask(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.floor_level is None:
            return np.ones(len(pts), dtype=bool)
        return self.horoball().contains_batch(pts)


@dataclass(frozen=True)
class VolumeEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int
    method: str
    #: worst relative gap |fine - coarse|/fine between the sphere
    #: quadratures of the unit-ball volumes behind the estimate
    quad_gap: float = 0.0

    def __float__(self):
        return self.estimate


def busemann_volume(region: Region, q: QuadratureSpec = DEFAULT_QUADRATURE, method="mc") -> VolumeEstimate:
    """Busemann volume of a region, with a standard-error estimate.

    ``method="mc"``: seeded Monte Carlo over the bounding box (stderr is
    the usual sample estimate).  ``method="grid"``: Gauss-Legendre
    product grid adapted to the floor, stderr reported as the difference
    from a half-resolution pass.  Densities are taken unchecked, in one
    batched call per pass, and the worst sphere-quadrature gap over all
    of their nodes is recorded as ``quad_gap``.  A region that escapes
    its domain raises RegionError.
    """
    if region.x1_range[1] is None:
        if q.cutoff is None:
            raise RegionError("open-ended region needs a vertical cutoff in the quadrature spec")
        region = replace(region, x1_range=(region.x1_range[0], q.cutoff))
    if region.is_empty():
        return VolumeEstimate(0.0, 0.0, 0, q.seed, method)
    if method == "mc":
        return _volume_mc(region, q)
    if method == "grid":
        fine, fine_gap = _volume_grid(region, q, q.grid_shape)
        coarse_shape = tuple(max(2, s // 2) for s in q.grid_shape)
        coarse, coarse_gap = _volume_grid(region, q, coarse_shape)
        return VolumeEstimate(
            fine, abs(fine - coarse), int(np.prod(q.grid_shape)), q.seed, "grid", max(fine_gap, coarse_gap)
        )
    raise ValueError(f"unknown integration method {method!r}")


def _volume_mc(region: Region, q: QuadratureSpec) -> VolumeEstimate:
    rng = np.random.Generator(np.random.Philox(q.seed))
    n = q.mc_samples
    lo = np.array([region.x1_range[0], region.x2_range[0], region.x3_range[0]])
    hi = np.array([region.x1_range[1], region.x2_range[1], region.x3_range[1]])
    pts = lo + rng.random((n, 3)) * (hi - lo)
    mask = region.mask(pts)
    if region.floor_level is None:
        inside = region.domain.contains_batch(pts)
        if not inside.all():
            raise RegionError("region extends outside its domain")
    vals = np.zeros(n)
    vals[mask], gap = busemann_density(region.domain, pts[mask], q, check=False, return_gap=True)
    box = region.box_volume()
    est = box * float(np.mean(vals))
    err = box * float(np.std(vals) / math.sqrt(n))
    return VolumeEstimate(est, err, n, q.seed, "mc", float(np.max(gap, initial=0.0)))


#: Gauss-Legendre nodes and weights on [-1, 1], by rule size
_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)
#: math's exp, expm1 and log1p over arrays (numpy's differ in last bits)
_exp, _expm1, _log1p = (lambda x, f=f: np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape) for f in (math.exp, math.expm1, math.log1p))


def _volume_grid(region: Region, q: QuadratureSpec, shape):
    """Grid estimate and worst quadrature gap over the grid's densities.
    The vertical coordinate is log-stretched above the floor: the density
    varies fastest just above it and decays polynomially above."""
    n1, n2, n3 = shape

    def to_interval(n, a, b):
        nodes, weights = _leggauss(n)
        return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights

    (g2, w2), (g3, w3) = to_interval(n2, *region.x2_range), to_interval(n3, *region.x3_range)
    g2, g3, wb = np.repeat(g2, n3), np.tile(g3, n2), np.outer(w2, w3).ravel()
    lo = np.full(n2 * n3, float(region.x1_range[0]))
    if region.floor_level is not None:
        lo = np.maximum(lo, region.horoball().boundary_value_batch(g2, g3))
    base = np.flatnonzero(region.x1_range[1] > lo)
    u, wu = to_interval(n1, 0.0, _log1p(region.x1_range[1] - lo[base])[:, None])
    pts = np.column_stack([(lo[base, None] + _expm1(u)).ravel(), np.repeat(g2[base], n1), np.repeat(g3[base], n1)])
    weights = (wb[base, None] * wu * _exp(u)).ravel()
    if region.floor_level is None and not region.domain.contains_batch(pts).all():
        raise RegionError("region extends outside its domain")
    rho, gap = busemann_density(region.domain, pts, q, check=False, return_gap=True)
    total = 0.0
    for w, r in zip(weights, rho):
        total += w * r
    return total, float(np.max(gap, initial=0.0))


# ---------------------------------------------------------------------------
# covering oracle


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
    diam = float(np.max(hilbert_distance_many(dom, corners[0], corners[1:])))
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

