"""Model properly convex domains in parabolic coordinates.

Each domain lives in the affine chart ``[x1:x2:x3:1]`` of RP^3 with the
x1 axis vertical.  The paraboloid domain D0 and the log domain DPrime are
graphs of convex boundary functions over a planar base; the deformed
domains Dt are images of DPrime under the triangular coordinate change
``vt_map(t)``.  A Euclidean ball domain is included as a closed-form
metric oracle for the Hilbert geometry code.

Chord endpoints of the log domain are found by Newton's method on its
concave chord function, vectorised over rays.  Dt and vertical shifts
send their chords to that solver through their affine maps, which leave
the chord parameter unchanged.  The ball and D0 keep the generic route,
geometric bracketing plus bisection on the membership predicate, which
also serves as the reference for the Newton solver.  A ray still inside
the domain at ``IDEAL_PROBE`` reports an ideal endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import projlin


class UnboundedSearchError(RuntimeError):
    """Raised when a chord search leaves the range of finite arithmetic."""

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)
        super().__init__(f"chord search diverged along direction {self.direction}")


#: geometric bracketing gives up and declares an endpoint ideal beyond this
IDEAL_CUTOFF = 1e9
#: the largest power of two below IDEAL_CUTOFF, the last point the
#: doubling bracket tests: a ray still inside there is ideal
IDEAL_PROBE = 2.0 ** (math.ceil(math.log2(IDEAL_CUTOFF)) - 1)
#: default absolute tolerance for boundary crossings
CHORD_TOL = 1e-12
#: Newton steps allowed per chord of the log domain before the search
#: counts as diverged
NEWTON_MAX_STEPS = 100


def vt_map(t):
    """The triangular coordinate change carrying DPrime onto Dt.

    Exact for Fraction/int input, float otherwise; determinant 1/t^4.
    """
    if t == 0:
        raise ValueError("coordinate change undefined at t = 0")
    if isinstance(t, (int, Fraction)):
        t = Fraction(t)
        return projlin.exact_matrix(
            [
                [1 / t ** 2, 1 / t ** 2, 0, -1 / (t ** 2)],
                [0, 1 / t, 0, -1 / t],
                [0, 0, 1 / t, 0],
                [0, 0, 0, 1],
            ]
        )
    t = float(t)
    return projlin.float_matrix(
        [
            [1 / t ** 2, 1 / t ** 2, 0, -1 / t ** 2],
            [0, 1 / t, 0, -1 / t],
            [0, 0, 1 / t, 0],
            [0, 0, 0, 1],
        ]
    )


class ConvexDomain:
    """Base class: membership plus generic chord machinery."""

    family = None

    def contains_batch(self, pts):
        raise NotImplementedError

    def contains(self, x) -> bool:
        """Strict interior membership of an affine point."""
        return bool(self.contains_batch(np.asarray(x, dtype=float)[None, :])[0])

    # -- chords --------------------------------------------------------

    def _ray_exit(self, X, V, tol):
        """Exit parameters tau > 0 of rays X + tau*V (inf when ideal)."""
        n = X.shape[0]
        t_lo = np.zeros(n)
        t_hi = np.ones(n)
        ideal = np.zeros(n, dtype=bool)
        # bracket by doubling
        for _ in range(64):
            pts = X + t_hi[:, None] * V
            if not np.isfinite(pts).all():
                bad = ~np.isfinite(pts).all(axis=1)
                raise UnboundedSearchError(V[np.argmax(bad)])
            inside = self.contains_batch(pts)
            grow = inside & ~ideal
            if not grow.any():
                break
            t_lo[grow] = t_hi[grow]
            t_hi[grow] *= 2.0
            ideal |= grow & (t_hi >= IDEAL_CUTOFF)
        else:
            raise UnboundedSearchError(V[0])
        active = ~ideal
        # bisect: t_lo inside, t_hi outside
        for _ in range(200):
            width = t_hi - t_lo
            live = active & (width > np.maximum(tol, 4 * np.spacing(t_hi)))
            if not live.any():
                break
            mid = 0.5 * (t_lo + t_hi)
            pts = X + mid[:, None] * V
            inside = self.contains_batch(pts)
            t_lo = np.where(live & inside, mid, t_lo)
            t_hi = np.where(live & ~inside, mid, t_hi)
        out = 0.5 * (t_lo + t_hi)
        out[ideal] = np.inf
        return out

    def chord_taus(self, x, dirs, tol=CHORD_TOL):
        """Signed boundary parameters along x + tau*dirs.

        ``x`` is one interior point or an (n,3) batch matching ``dirs``;
        returns (tau_minus <= 0, tau_plus >= 0) in units of each direction
        vector, with +-inf marking ideal ends.  The search itself runs in
        Euclidean arc length, so bracketing and the ideal cutoff do not
        depend on how the direction is scaled.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        X = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape).copy()
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0):
            raise ValueError("chord direction must be nonzero")
        U = dirs / norms[:, None]
        plus = self._ray_exit(X, U, tol) / norms
        minus = -self._ray_exit(X, -U, tol) / norms
        return minus, plus

    def chord_endpoints(self, x, v, tol=CHORD_TOL):
        """Both intersections of the line x + R*v with the boundary.

        Returns a pair (p_minus, p_plus); an end that stays interior out
        to the bracketing cutoff is reported as None (ideal).
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if not np.any(v):
            raise ValueError("direction must be nonzero")
        if not self.contains(x):
            raise ValueError("chord base point must be interior")
        tm, tp = self.chord_taus(x, v[None, :], tol=tol)
        p_minus = None if np.isinf(tm[0]) else x + tm[0] * v
        p_plus = None if np.isinf(tp[0]) else x + tp[0] * v
        return p_minus, p_plus


class ParabolicDomain(ConvexDomain):
    """Epigraph of a convex boundary function over a planar base."""

    def base_contains_batch(self, b2, b3):
        raise NotImplementedError

    def boundary_value_batch(self, b2, b3):
        raise NotImplementedError

    def boundary_value(self, x2, x3) -> float:
        """Height of the boundary graph over a base point."""
        b2 = np.asarray([x2], dtype=float)
        b3 = np.asarray([x3], dtype=float)
        if not self.base_contains_batch(b2, b3)[0]:
            raise ValueError(f"base point ({x2}, {x3}) outside the domain base")
        return float(self.boundary_value_batch(b2, b3)[0])

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        b2, b3 = pts[:, 1], pts[:, 2]
        ok = self.base_contains_batch(b2, b3)
        out = np.zeros(len(pts), dtype=bool)
        if ok.any():
            h = self.boundary_value_batch(b2[ok], b3[ok])
            out[ok] = pts[ok, 0] > h
        return out


class DomainD0(ParabolicDomain):
    """Paraboloid domain: x1 > (x2^2 + x3^2)/2 over the whole plane."""

    family = "D0"

    def base_contains_batch(self, b2, b3):
        return np.ones(len(b2), dtype=bool)

    def boundary_value_batch(self, b2, b3):
        return 0.5 * (b2 ** 2 + b3 ** 2)


class DomainDPrime(ParabolicDomain):
    """Log domain: x1 > x3^2/2 - log(x2) over the half plane x2 > 0."""

    family = "DPrime"

    def base_contains_batch(self, b2, b3):
        return b2 > 0

    def boundary_value_batch(self, b2, b3):
        return 0.5 * b3 ** 2 - np.log(b2)

    def contains_batch(self, pts):
        return _dprime_contains(np.asarray(pts, dtype=float))

    def _ray_exit(self, X, V, tol):
        """Exit parameters of rays X + tau*V by Newton's method.

        Along a ray, Q(tau) = x1 + tau v1 - (x3 + tau v3)^2/2 and
        s(tau) = x2 + tau v2; the chord function phi = Q + log s is
        concave and positive exactly inside.  Newton's method on a
        concave function, started outside the domain, moves
        monotonically down onto the exit.  Near the edge x2 = 0 it runs
        on G = s - exp(-Q) instead, which has the same zero, is also
        concave, and stays finite for s <= 0.  A ray leaves the
        iteration once its step is at most max(tol/2, 4 ulp(tau)) or
        not positive.  ``V`` need not be a unit vector.
        """
        if not (np.isfinite(X).all() and np.isfinite(V).all()):
            bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(V).all(axis=1))
            raise UnboundedSearchError(V[np.argmax(bad)])
        if not _dprime_contains(X).all():
            raise ValueError("chord base point must be interior")
        out = np.full(len(X), np.inf)
        rows = np.flatnonzero(~_dprime_contains(X + IDEAL_PROBE * V))
        # the live rays, compacted after every step
        ray = _dprime_ray_coefficients(X[rows], V[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = _dprime_outer_start(*ray)
            for _ in range(NEWTON_MAX_STEPS):
                if not len(rows):
                    return out
                step = _dprime_newton_step(*ray, tau)
                if not np.isfinite(step).all():
                    raise UnboundedSearchError(V[rows[np.argmax(~np.isfinite(step))]])
                keep = step > np.maximum(0.5 * tol, 4 * np.spacing(tau))
                tau = tau - np.maximum(step, 0.0)
                out[rows] = tau
                rows, tau, ray = rows[keep], tau[keep], np.compress(keep, ray, axis=1)
        raise UnboundedSearchError(V[rows[0]])


def _dprime_contains(P):
    """Strict membership of the rows of P in the log domain; the Newton
    solver calls it directly, so that its interior and ideal tests make
    no ``contains_batch`` calls."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return (P[:, 1] > 0) & (P[:, 0] > 0.5 * P[:, 2] ** 2 - np.log(P[:, 1]))


def _dprime_ray_coefficients(X, V):
    """Rows q0, q1, a, x2, v2 with Q(tau) = q0 + q1 tau - a tau^2 and
    s(tau) = x2 + tau v2 along the rays X + tau*V."""
    x1, x2, x3 = X.T
    v1, v2, v3 = V.T
    return np.array([x1 - 0.5 * x3 * x3, v1 - x3 * v3, 0.5 * v3 * v3, x2, v2])


def _dprime_outer_start(q0, q1, a, x2, v2):
    """A parameter at or beyond the exit of every non-ideal ray.

    log s lies below its tangents at s = x2 and at s = 1, so the chord
    function lies below the concave quadratics phi(0) + phi'(0) tau -
    a tau^2 and Q + s - 1, and the exit below the positive root of
    each.  The smaller root is clipped to the edge s = 0, where the
    second bound makes Q > 1 and the iteration starts on G, and to the
    ideal probe; both are outside.
    """
    tau = np.fmin(_positive_root(q0 + np.log(x2), q1 + v2 / x2, a), _positive_root(q0 + x2 - 1.0, q1 + v2, a))
    tau = np.where(v2 < 0, np.fmin(tau, -x2 / v2), tau)
    return np.fmin(tau, IDEAL_PROBE)


def _positive_root(c, b, a):
    """Positive root of c + b tau - a tau^2 (c > 0, a >= 0), by the
    formula that does not cancel; nan when a = b = 0 (root at infinity),
    which np.fmin passes over."""
    root = np.sqrt(b * b + 4.0 * a * c)
    return np.where(b < 0, 2.0 * c / (root - b), (b + root) / (2.0 * a))


def _dprime_newton_step(q0, q1, a, x2, v2, tau):
    """Newton decrements f/f' at parameters tau beyond the exit, on
    G = s - exp(-Q) near the edge (s < 1, Q > -50) and on phi elsewhere."""
    s = x2 + tau * v2
    at = a * tau
    minus_q = tau * (at - q1) - q0
    dq = q1 - (at + at)
    edge = (s < 1.0) & (minus_q < 50.0)
    e = np.exp(np.minimum(minus_q, 50.0))
    f = np.where(edge, s - e, np.log(s) - minus_q)
    df = np.where(edge, v2 + dq * e, dq + v2 / s)
    return f / df


class DomainDt(ParabolicDomain):
    """Deformed domain, represented implicitly as the image of DPrime.

    Membership and chords pull points back through the inverse
    coordinate change and are decided in DPrime; the boundary graph has
    the closed form of ``boundary_value_batch``.
    """

    def __init__(self, t):
        if t == 0:
            raise ValueError("domain family requires t != 0")
        self.t = t
        self.family = "Dt"
        self._V = vt_map(t)
        self._Vinv = projlin.mat_inv(self._V)
        self._pullback = projlin.to_float(self._Vinv)
        self._dprime = DomainDPrime()

    def base_contains_batch(self, b2, b3):
        return b2 > -1.0 / float(self.t)

    def contains_batch(self, pts):
        back = projlin.apply_affine_batch(self._pullback, pts)
        return self._dprime.contains_batch(back)

    def boundary_value_batch(self, b2, b3):
        """Closed form y3^2/2 + y2^2 psi(t y2) of the pulled-back boundary;
        at t = 0 it would be the paraboloid of D0."""
        b2 = np.asarray(b2, dtype=float)
        b3 = np.asarray(b3, dtype=float)
        return 0.5 * b3 ** 2 + b2 ** 2 * _psi(float(self.t) * b2)

    def _ray_exit(self, X, V, tol):
        # an affine pullback keeps the chord parameter tau
        back = projlin.apply_affine_batch(self._pullback, X)
        return self._dprime._ray_exit(back, V @ self._pullback[:3, :3].T, tol)


#: |u| below which psi is summed from its series: u - log1p(u) cancels
#: to a relative error of about 2 eps/|u|, and the 27 terms kept leave
#: a remainder below 1e-17 at |u| = 0.25
_PSI_SERIES_BELOW = 0.25
#: series coefficients (-1)^k / (k + 2) of psi, highest power first
_PSI_SERIES = [(-1) ** k / (k + 2) for k in range(26, -1, -1)]


def _psi(u):
    """psi(u) = (u - log1p(u)) / u^2, the Dt boundary profile (psi(0) = 1/2)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _PSI_SERIES_BELOW
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (u - np.log1p(u)) / (u * u)
    return np.where(small, np.polyval(_PSI_SERIES, u), direct)


class BallDomain(ConvexDomain):
    """Open Euclidean unit ball; the closed-form Hilbert metric oracle."""

    family = "Ball"

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.einsum("ij,ij->i", pts, pts) < 1.0


class VerticalShiftDomain(ParabolicDomain):
    """A parabolic domain shifted vertically by a constant.

    With a positive shift this is a horoball regarded as a properly
    convex domain in its own right; negative shifts give strictly larger
    ambient domains for comparison tests.
    """

    def __init__(self, parent: ParabolicDomain, shift: float):
        self.parent = parent
        self.shift = float(shift)
        self.family = parent.family

    def base_contains_batch(self, b2, b3):
        return self.parent.base_contains_batch(b2, b3)

    def boundary_value_batch(self, b2, b3):
        return self.parent.boundary_value_batch(b2, b3) + self.shift

    def _ray_exit(self, X, V, tol):
        return self.parent._ray_exit(X - np.array([self.shift, 0.0, 0.0]), V, tol)


@dataclass(frozen=True)
class Horosphere:
    """Vertical translate of the boundary graph at level kappa > 0."""

    domain: ParabolicDomain
    level: float

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("horosphere level must be positive")

    def ball_contains(self, x) -> bool:
        """Strict membership in the open horoball above this horosphere."""
        x = np.asarray(x, dtype=float)
        b2 = np.asarray([x[1]])
        b3 = np.asarray([x[2]])
        if not self.domain.base_contains_batch(b2, b3)[0]:
            return False
        return bool(x[0] > self.domain.boundary_value_batch(b2, b3)[0] + self.level)


# ---------------------------------------------------------------------------
# descriptors and exports


def domain_from_descriptor(desc) -> ConvexDomain:
    """Instantiate a domain from ``{"family": ..., "t": ...}``."""
    fam = desc["family"]
    if fam == "D0":
        return DomainD0()
    if fam == "DPrime":
        return DomainDPrime()
    if fam == "Dt":
        return DomainDt(desc["t"])
    raise ValueError(f"unknown domain family {fam!r}")


def descriptor_of(dom: ConvexDomain) -> dict:
    if dom.family == "Dt":
        return {"family": "Dt", "t": float(dom.t)}
    return {"family": dom.family}


def export_boundary_obj(dom: ParabolicDomain, path, x2_range, x3_range, n2=32, n3=32, level=0.0):
    """Triangulated graph of the boundary (or horosphere at ``level``)
    over a rectangular base grid, as a Wavefront OBJ file."""
    g2 = np.linspace(x2_range[0], x2_range[1], n2)
    g3 = np.linspace(x3_range[0], x3_range[1], n3)
    lines = [f"# {dom.family} boundary mesh, level {level}"]
    for b2 in g2:
        h = dom.boundary_value_batch(np.full(n3, b2), g3) + level
        for b3, x1 in zip(g3, h):
            lines.append(f"v {x1:.9g} {b2:.9g} {b3:.9g}")
    for i in range(n2 - 1):
        for j in range(n3 - 1):
            a = i * n3 + j + 1
            b = a + 1
            c = a + n3
            d = c + 1
            lines.append(f"f {a} {b} {d}")
            lines.append(f"f {a} {d} {c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def export_slice_svg(dom: ParabolicDomain, path, x3=0.0, x2_range=(0.25, 4.0), n=200, level=0.0, size=480):
    """SVG polyline of the slice {x1 = h(x2, x3) + level, x3 = const}."""
    g2 = np.linspace(x2_range[0], x2_range[1], n)
    h = dom.boundary_value_batch(g2, np.full(n, x3)) + level
    x_lo, x_hi = float(g2.min()), float(g2.max())
    y_lo, y_hi = float(h.min()), float(h.max())
    y_span = (y_hi - y_lo) or 1.0
    pts = " ".join(
        f"{(x - x_lo) / (x_hi - x_lo) * size:.2f},{size - (y - y_lo) / y_span * size:.2f}"
        for x, y in zip(g2, h)
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>\n'
        f"</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)
    return path
