"""Hilbert metric, Finsler norms, and Busemann volume on convex domains.

The distance between interior points is the log of the cross ratio of
the chord through them; the Finsler norm is its infinitesimal version;
the Busemann density at a point is alpha_3 / (Lebesgue volume of the
unit norm ball), where alpha_3 = pi/6 is the Lebesgue volume of the
Euclidean ball of diameter 1.  A volume is the weighted sum of the
density over the nodes of a quadrature rule (``busemann_volume``).

``unit_ball_lebesgue`` and ``busemann_density`` take one point (float
result) or an (m,3) batch of points ((m,) array result).  Unit balls
are measured in each domain's frame (``quadrature_frames``), whose
third row a symmetry of the domain fixing the point negates.  On the
quadrics (the ball, D0 and its horoballs) the norm is quadratic and
diagonal in the frame, so the unit ball is the ellipsoid on the three
frame radii and its volume a closed form.  On the other domains it is
integrated with one line per orbit of that reflection and of -1 on the
sphere quadrature (``line_quadrature``), whose node u has the direction
sum_i u_i r_i f_i over the frame rows f_i and radii r_i: three broadcast
multiply-adds, rounded as ``np.einsum("kni,kij->knj")`` rounds them
(``_node_directions``).  A batch is solved in chunks of points whose
chord rows go through one ``chord_taus`` call each, and gives the same
values bit for bit as one point at a time, whatever the chunking.
Each quadrature volume is also computed on a coarse sphere
quadrature in the same solve: with ``check=True`` a coarse/fine
disagreement at any point raises QuadratureError, with ``check=False``
it never raises and ``busemann_volume`` reports the worst relative gap
over each rule's nodes instead.  A closed-form volume has no
quadrature to check, and its gap is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import ConvexDomain

#: Lebesgue volume of the Euclidean ball of diameter 1 (normalising
#: constant of the 3-dimensional Hausdorff measure used throughout)
ALPHA3 = math.pi / 6
#: relative accuracy the sphere quadrature aims for: with ``check=True``
#: the fine and coarse unit-ball volumes agree within ten times it
QUADRATURE_RTOL = 1e-3


class QuadratureError(ArithmeticError):
    """Raised when quadrature refinement fails to agree with itself."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts of the numeric geometry.

    ``sphere_nodes`` is realised as a Gauss-Legendre x uniform product
    grid on the sphere with twice as many azimuthal as polar nodes, so
    2312 becomes a 34 x 68 grid.  ``grid_shape`` is the (n_sigma, n3)
    node count of the cusp volume table's rule (``cuspvol.dilation_nodes``).
    Chords are solved to ``domains.CHORD_TOL``, and checked unit-ball
    volumes agree with their coarse pass to ``QUADRATURE_RTOL``.
    """

    sphere_nodes: int = 2312
    grid_shape: tuple = (8, 6)

    def __post_init__(self):
        if len(self.grid_shape) != 2 or min(self.sphere_nodes, *self.grid_shape) < 1:
            raise ValueError(f"node counts must be positive: {self.sphere_nodes}, (n_sigma, n3) = {self.grid_shape}")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# distance


def hilbert_distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance between x and y: a batch of one of
    ``hilbert_distance_pairs``."""
    return float(hilbert_distance_pairs(dom, x, y)[0])


def hilbert_distance_pairs(dom: ConvexDomain, X, Y):
    """Distances between paired interior points, via chord parameters.

    X and Y are (n,3) batches, or one of them a single point.
    ``chord_taus`` checks X and the directions; an exterior Y then raises
    ValueError as well."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    V = Y - X
    deg = ~V.any(axis=1)
    if deg.any():
        V = np.where(deg[:, None], np.array([1.0, 0, 0]), V)
    tm, tp = dom.chord_taus(X, V)
    if not dom.contains_batch(Y).all():
        raise ValueError("distance end point must be interior")
    # point positions 0 and 1 in chord units; ideal factors collapse to 1
    with np.errstate(invalid="ignore"):
        left = np.where(np.isinf(tm), 1.0, (1.0 - tm) / (-tm))
        right = np.where(np.isinf(tp), 1.0, tp / (tp - 1.0))
    out = np.log(left * right)
    out[deg] = 0.0
    return out


def finsler_norm(dom: ConvexDomain, x, v) -> float:
    """Tangent norm |v| (1/|x-p_minus| + 1/|x-p_plus|); ideal ends add 0."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return 0.0
    return float(finsler_norm_batch(dom, x, v[None, :])[0])


def finsler_norm_batch(dom: ConvexDomain, x, dirs):
    return _finsler_norms(*dom.chord_taus(x, dirs))


def _finsler_norms(tm, tp):
    """Tangent norms from the chord parameters of their directions."""
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


def _frame_radii(dom, X, frames):
    """Radii 1/F along the three frame rows of every point, from one
    chord solve per chunk of points, as an (m,3) array.  This solve
    checks the points, once each: a non-interior one raises
    ValueError."""
    radii = np.empty((len(X), 3))
    step = max(1, DENSITY_CHUNK_ROWS // 6)
    for a in range(0, len(X), step):
        P = X[a : a + step]
        frame_norms = finsler_norm_batch(dom, P, frames[a : a + step].reshape(-1, 3))
        radii[a : a + len(P)] = 1.0 / frame_norms.reshape(-1, 3)
    return radii


def _node_directions(nodes, R, F):
    """The rows of (nodes * R_k) @ F_k at the points k, as one (k n, 3) array."""
    A, F = nodes * R[:, None, :], F[:, None]
    return (A[..., :1] * F[..., 0, :] + A[..., 1:2] * F[..., 1, :] + A[..., 2:] * F[..., 2, :]).reshape(-1, 3)


def _unit_ball_volumes(dom, X, q):
    """Fine and coarse unit-ball volumes at the rows of an (m,3) array,
    by the sphere quadrature.

    The three frame chords (``dom.quadrature_frames``) of every point go
    into one chord solve per chunk of points, and then, per smaller
    chunk, the fine and coarse nodes of every point, rescaled by the
    frame radii 1/F, into one more, each point the base of its own run
    of directions; the node sets are split afterwards.  One node of
    each orbit of lines of ``line_quadrature`` goes in, at the orbit's
    weight: the norm is even, and invariant under the reflection u2 ->
    -u2 of the frame.  The node solves skip the input check, which the
    frame solve has made on the same points, and the node directions
    are finite and nonzero, since the radii are.
    """
    U, W = line_quadrature(q.sphere_nodes)
    Uc, Wc = line_quadrature(max(8, q.sphere_nodes // 4))
    n_fine, n = len(U), len(U) + len(Uc)
    nodes = np.concatenate([U, Uc])
    frames = dom.quadrature_frames(X)
    radii = _frame_radii(dom, X, frames)
    fine = np.empty(len(X))
    coarse = np.empty(len(X))
    step = max(1, DENSITY_CHUNK_ROWS // (2 * n))
    for a in range(0, len(X), step):
        P, R = X[a : a + step], radii[a : a + step]
        k = len(P)
        norms = _finsler_norms(*dom.chord_taus(P, _node_directions(nodes, R, frames[a : a + step]), checked=True))
        r3 = (1.0 / norms.reshape(k, n)) ** 3
        scale = np.prod(R, axis=1)
        fine[a : a + k] = scale * np.sum(W * r3[:, :n_fine], axis=1) / 3.0
        coarse[a : a + k] = scale * np.sum(Wc * r3[:, n_fine:], axis=1) / 3.0
    return fine, coarse


def _ball_volumes(dom, x, q, check):
    """Fine unit-ball volumes and relative fine/coarse gaps, as (m,) arrays.

    On a quadric (``dom.quadric``) the norm is quadratic and diagonal in
    the frame, so the unit ball is the ellipsoid on the frame radii, of
    volume (4 pi/3) r1 r2 r3 = 8 alpha_3 r1 r2 r3 and gap 0; every other
    domain takes the sphere quadrature.  Membership is tested once per
    point, by the frame solve (``_frame_radii``).  The quadrature check
    runs here, after the solve has returned, so that the traceback of a
    QuadratureError holds no chord arrays.
    """
    X = np.asarray(x, dtype=float).reshape(-1, 3)
    if dom.quadric:
        return 8.0 * ALPHA3 * np.prod(_frame_radii(dom, X, dom.quadrature_frames(X)), axis=1), np.zeros(len(X))
    fine, coarse = _unit_ball_volumes(dom, X, q)
    if check:
        bad = np.abs(fine - coarse) > 10.0 * QUADRATURE_RTOL * np.abs(fine)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(
                f"sphere quadrature not converged (fine {fine[i]:.6g}, coarse {coarse[i]:.6g})"
            )
    return fine, np.abs(fine - coarse) / fine


def unit_ball_lebesgue(dom: ConvexDomain, x, q: QuadratureSpec = DEFAULT_QUADRATURE, check=True):
    """Lebesgue volume of the unit Finsler ball in the tangent space.

    ``x`` is one interior point, giving a float, or an (m,3) batch,
    giving an (m,) array.  The radii r_i = 1/F(f_i) along the domain's
    quadrature frame come first.  On a quadric (the ball, D0 and its
    horoballs) the norm is quadratic and diagonal in the frame, so the
    unit ball is an ellipsoid and its volume (4 pi/3) r1 r2 r3, from
    those 3 chord lines alone; ``check`` has no quadrature to check
    there and never raises.  Elsewhere it is (1/3) * integral of r(u)^3
    over the sphere, one node per orbit of lines (``line_quadrature``),
    with directions rescaled by the radii to keep the integrand
    order-one in anisotropic tangent spaces.  A symmetry of the domain
    fixing x negates the frame's third row, which halves the lines;
    LPrime keeps the D' frame, so D' densities are equivariant to
    rounding.  A coarse pass at a quarter of the nodes is solved
    alongside the fine one; with ``check`` it must agree with the fine
    pass to within ten times ``QUADRATURE_RTOL`` at every point or
    QuadratureError is raised.  A non-interior point raises ValueError
    from the frame solve, which tests each point once; the node solves
    reuse that test.
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
    the densities) so that they can report the worst one.  On a quadric
    the volume is closed-form, 6 rays per point, and the gap is 0.
    """
    fine, gap = _ball_volumes(dom, x, q, check)
    rho = ALPHA3 / fine
    if np.ndim(x) == 1:
        rho, gap = float(rho[0]), float(gap[0])
    return (rho, gap) if return_gap else rho


# ---------------------------------------------------------------------------
# volume integration


def busemann_volume(dom: ConvexDomain, rules, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """Busemann volumes of weighted node sets, one per rule of a list.

    A rule is a pair of points (m,3) and weights (m,), and its volume is
    ``math.fsum`` of the weighted densities at its points.  The densities
    of every rule come from one unchecked ``busemann_density`` batch.
    Returns one pair per rule: the volume, and the worst relative
    fine/coarse sphere-quadrature gap over that rule's points; an empty
    rule gives (0.0, 0.0).
    """
    pts = np.concatenate([np.empty((0, 3)), *(p for p, _ in rules)])
    rho, gap = busemann_density(dom, pts, q, check=False, return_gap=True)
    ends = np.cumsum([len(w) for _, w in rules])[:-1]
    return [(math.fsum(w * r), float(np.max(g, initial=0.0)))
            for (_, w), r, g in zip(rules, np.split(rho, ends), np.split(gap, ends))]
