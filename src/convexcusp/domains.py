"""Model properly convex domains in parabolic coordinates.

Each domain lives in the affine chart ``[x1:x2:x3:1]`` of RP^3 with the
x1 axis vertical.  The parabolic domains form one family: D_t is the
epigraph of h_t(y2, y3) = y3^2/2 + y2^2 psi(t y2), psi(u) =
(u - log1p(u))/u^2, over the base 1 + t y2 > 0.  The paraboloid D0 is
the member t = 0 (psi(0) = 1/2), the deformed domains Dt = V_t(DPrime)
(``vt_map(t)``) are the members t != 0, the log domain DPrime is the
affine preimage of D_1 under (x1 + x2 - 1, x2 - 1, x3), and horoballs
are vertical shifts.  A Euclidean ball domain is included as a
closed-form metric oracle for the Hilbert geometry code.

Membership and boundary values are closed forms in each domain's own
coordinates (at t = 0 the quadric (x2^2 + x3^2)/2 itself, with no
psi), and so are the chords of the two quadrics: the exit of a ray from
the ball, and from D0 and its horoballs, is the positive root of a
quadratic in the chord parameter.  ``chord_taus`` checks its input once,
then solves.  Chord endpoints of the members
t != 0 come from one Newton solver on the concave chord function of the
member, vectorised over rays; the affine maps leave the chord parameter
unchanged.  A ray of a parabolic domain has an ideal end when it lies
in the recession cone of its member, or when it is still inside at
``IDEAL_PROBE``; the ball has none.  Each domain also names the tangent
frames in which its unit balls are integrated (``quadrature_frames``),
each with a third row that a symmetry of the domain fixing the point
negates: Householder reflections onto the radius for the ball,
(e1, (x2, 1, 0), (x3, 0, 1)) for D0 and its horoballs, and (e1, e2,
(x3, 0, 1)) for the other parabolic domains.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import projlin


class UnboundedSearchError(RuntimeError):
    """Raised when a chord search leaves the range of finite arithmetic."""

    def __init__(self, direction):
        self.direction = np.asarray(direction, dtype=float)
        super().__init__(f"chord search diverged along direction {self.direction}")


#: a ray of a parabolic domain still inside at this parameter, in
#: Euclidean arc length, has an ideal end
IDEAL_PROBE = 2.0 ** 29
#: absolute tolerance of the Newton chord exits
CHORD_TOL = 1e-12
#: Newton steps allowed per chord of a parabolic domain before the
#: search counts as diverged
NEWTON_MAX_STEPS = 100
#: the exponent field of a float64
_EXPONENT = np.int64(0x7FF0000000000000)


def vt_map(t):
    """The triangular coordinate change carrying DPrime onto Dt.

    Exact for Fraction/int input, float otherwise; determinant 1/t^4.
    """
    if t == 0:
        raise ValueError("coordinate change undefined at t = 0")
    exact = isinstance(t, (int, Fraction))
    t = Fraction(t) if exact else float(t)
    rows = [[1 / t ** 2, 1 / t ** 2, 0, -1 / t ** 2], [0, 1 / t, 0, -1 / t], [0, 0, 1 / t, 0], [0, 0, 0, 1]]
    return projlin.exact_matrix(rows) if exact else projlin.float_matrix(rows)


class ConvexDomain:
    """Base class: chords from the exits ``_ray_exit`` of each domain."""

    family = None
    #: whether the domain is a projective ball, on which the Hilbert norm
    #: is quadratic and diagonal in ``quadrature_frames``
    quadric = False

    def contains_batch(self, pts):
        raise NotImplementedError

    def contains(self, x) -> bool:
        """Strict interior membership of an affine point."""
        return bool(self.contains_batch(np.asarray(x, dtype=float)[None, :])[0])

    # -- chords --------------------------------------------------------

    def _ray_exit(self, X, V):
        """Exit parameters tau > 0 of rays X + tau*V (inf when ideal)."""
        raise NotImplementedError

    def chord_taus(self, x, dirs, checked=False):
        """Signed boundary parameters along x + tau*dirs.

        ``x`` is one interior point or an (m,3) batch, and the N rows of
        ``dirs`` fall into m runs of N/m consecutive rows, one run per
        point: m = N pairs points with directions and m = 1 shares one
        point among all of them.  Each point is checked once, before it
        is repeated over its run.  Returns (tau_minus <= 0, tau_plus >=
        0), one entry per direction row in units of that direction
        vector, with +-inf marking ideal ends.  Both exits of every line
        come from one ``_ray_exit`` call on the forward rays (X, U)
        stacked over the back rays (X, -U), each row solved on its own.
        Exits are solved along unit directions, so the ideal probe does
        not depend on how a direction is scaled; ``CHORD_TOL`` bounds the
        error of the Newton solver, while the quadrics' closed forms are
        accurate to rounding.

        The input is checked once, before the solve: non-finite input
        raises UnboundedSearchError, then a zero direction or a base point
        outside the domain ValueError, one membership test per base
        point.  ``checked=True`` goes straight to the solve, for a caller
        whose points and directions have passed that check already (the
        node solves of a density, after its frame solve).
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        run = len(dirs) // max(len(x), 1)
        if run * len(x) != len(dirs):
            raise ValueError(f"{len(dirs)} chord directions do not split among {len(x)} base points")
        # np.linalg.norm's own sum of squares, without its set-up
        norms = np.sqrt(np.add.reduce(dirs * dirs, axis=1))
        if not checked:
            # one finiteness test for the batch; the rows only when it fails
            if not math.isfinite(norms.sum() + x.sum()):
                bad = np.repeat(~np.isfinite(x).all(axis=1), run) | ~np.isfinite(norms)
                if bad.any():
                    raise UnboundedSearchError(dirs[np.argmax(bad)])
            if not norms.all():
                raise ValueError("chord direction must be nonzero")
            if not self.contains_batch(x).all():
                raise ValueError("chord base point must be interior")
        X = x if run == 1 else np.repeat(x, run, axis=0)
        U = dirs / norms[:, None]
        X, U = np.concatenate([X, X]), np.concatenate([U, -U])  # the halves go before the solve
        plus, minus = self._ray_exit(X, U).reshape(2, -1) / norms
        return -minus, plus


class ParabolicDomain(ConvexDomain):
    """Epigraph of a convex boundary function over a planar base.

    Every parabolic domain is an affine image of a member of one family,
    D_t = {y1 > h_t(y2, y3)} over the base 1 + t y2 > 0, with
    h_t(y2, y3) = y3^2/2 + y2^2 psi(t y2) and psi(u) = (u - log1p(u))/u^2.
    ``t`` names the member and ``_to_family`` the affine map onto it.
    Membership and boundary values are decided in the domain's own
    coordinates, chords in the member's: an affine map keeps the chord
    parameter.
    """

    t = 0.0

    @property
    def quadric(self):
        """D0 and its horoballs, the members at t = 0, are quadrics."""
        return self.t == 0

    def quadrature_frames(self, X):
        """Unit-ball frames (e1, f2, f3) of determinant 1 at the rows of
        X, as an (m,3,3) array of rows.  f3 = (x3, 0, 1): x3 -> -x3
        followed by the LPrime translation by 2 x3 is an affine
        involution of the domain fixing x, with linear part (v1 - 2 x3
        v3, v2, -v3), which keeps e1 and e2 and negates f3.  f2 = e2 for
        t != 0, where LPrime carries the frames at x onto those at g x
        up to the scale of e2.  At t = 0 (D0 and its horoballs) f2 =
        (x2, 1, 0): the involution with linear part (v1 - 2 x2 v2, -v2,
        v3) negates it and keeps e1 and f3, so the quadratic Hilbert
        norm of the quadric is diagonal in the frame, the unit ball the
        ellipsoid on the frame radii, and its volume a closed form with
        no quadrature to check (gap 0)."""
        frames = np.tile(np.eye(3), (len(X), 1, 1))
        frames[:, 2, 0] = X[:, 2]
        if self.t == 0:
            frames[:, 1, 0] = X[:, 1]
        return frames

    def _to_family(self, X, V):
        """The rays X + tau*V in the coordinates of the family member, as
        columns (y1, y2, y3) and (d1, d2, d3)."""
        return X.T, V.T

    def base_contains_batch(self, b2, b3):
        return 1.0 + float(self.t) * np.asarray(b2, dtype=float) > 0

    def boundary_value_batch(self, b2, b3):
        """h_t at the base points (b2, b3).  At t = 0 (D0 and its
        horoballs) psi is the constant 1/2, and the closed form
        b3^2/2 + b2^2 * 0.5 is the float the psi route gives, with no
        log1p or series."""
        b2 = np.asarray(b2, dtype=float)
        psi = 0.5 if self.t == 0 else _psi(float(self.t) * b2)
        return 0.5 * np.asarray(b3, dtype=float) ** 2 + b2 ** 2 * psi

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        b2, b3 = pts[:, 1], pts[:, 2]
        # off the base the boundary value is nan, and the comparison False
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.base_contains_batch(b2, b3) & (pts[:, 0] > self.boundary_value_batch(b2, b3))

    def _ray_exit(self, X, V):
        """Exit parameters of rays X + tau*V by Newton's method.

        In the family member a ray has Q = y1 + tau d1 - (y3 + tau d3)^2/2
        and w = y2 + tau d2, and the chord function g = Q - w^2 psi(t w)
        is concave and positive exactly inside, so Newton's method
        started outside moves monotonically down onto the exit.  With
        s = 1 + t w the step is taken on t^2 g = Q' + log s, Q' = t^2 Q -
        t w; near the edge s = 0 on G = s - exp(-Q'), which has the same
        zero, is concave and stays finite for s <= 0; and on g itself
        where Q' + log s loses accuracy (``_series_rows``).  A ray leaves
        once its step is at most max(CHORD_TOL/2, 4 ulp(tau)) or not
        positive.
        At t = 0 (D0 and its horoballs) g = Q - w^2/2 is a quadratic in
        tau and its positive root is the exit, with no Newton step.
        Rays in the recession cone of the member are ideal: d2 = d3 = 0
        < d1 at t = 0, else d3 = 0, t d2 >= 0 and t (t d1 - d2) >= 0.  So
        is a ray whose start, or D0 root, is clipped to ``IDEAL_PROBE``
        and which is still inside there.  ``V`` need not be a unit vector.
        """
        t = float(self.t)
        Y, D = self._to_family(X, V)
        recede = (D[2] == 0) & ((D[1] == 0) & (D[0] > 0) if t == 0 else (t * D[1] >= 0) & (t * (t * D[0] - D[1]) >= 0))
        if recede.any():
            Y, D = [y[~recede] for y in Y], [d[~recede] for d in D]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if t == 0:
                (y1, y2, y3), (d1, d2, d3) = Y, D
                ray, tau = [], _positive_root(y1 - 0.5 * (y2 * y2 + y3 * y3), d1 - (y2 * d2 + y3 * d3), 0.5 * (d2 * d2 + d3 * d3))
            else:
                ray, cap = _ray_rows(t, Y, D)
                del Y, D  # freed before the start's temporaries are made
                tau = _ray_start(t, ray, cap)
            out, rows = np.full(len(X), np.inf), np.flatnonzero(~recede)
            live = tau < IDEAL_PROBE
            if not live.all():
                far = np.flatnonzero(~live)
                live[far] = ~self.contains_batch(X[rows[far]] + IDEAL_PROBE * V[rows[far]])
                rows, tau, ray = _compact(live, rows, tau, ray)
            if t == 0:
                _check_finite(tau, V, rows)
                out[rows] = np.fmin(tau, IDEAL_PROBE)
                return out
            # the live rays, compacted after a step that ends some of them
            for _ in range(NEWTON_MAX_STEPS):
                if not len(rows):
                    return out
                step = _newton_step(t, ray, tau)
                _check_finite(step, V, rows)
                keep = step > np.maximum(0.5 * CHORD_TOL, _four_ulp(tau))
                tau = tau - np.maximum(step, 0.0)
                del step  # freed before the next step's temporaries are made
                if not keep.all():
                    out[rows] = tau
                    rows, tau, ray = _compact(keep, rows, tau, ray)
        raise UnboundedSearchError(V[rows[0]])


def _compact(keep, rows, tau, ray):
    """The rays that ``keep`` marks, by one index array; ``ray`` in place."""
    idx = np.flatnonzero(keep)
    for i, r in enumerate(ray):
        ray[i] = r[idx]
    return rows[idx], tau[idx], ray


def _check_finite(a, V, rows):
    """Raise UnboundedSearchError along the direction of the first row
    of ``a`` that is not finite: one sum tests the whole batch, and the
    rows are looked at only when it is not finite."""
    if not math.isfinite(a.sum()):
        bad = ~np.isfinite(a)
        if bad.any():
            raise UnboundedSearchError(V[rows[np.argmax(bad)]])


def _four_ulp(tau):
    """4 * np.spacing(tau) for positive tau, from its exponent bits alone
    (a third of the cost): tau & _EXPONENT is 2^floor(log2 tau)."""
    return (tau.view(np.int64) & _EXPONENT).view(np.float64) * 2.0 ** -50


def _ray_rows(t, Y, D):
    """Coefficient rows of the rays Y + tau*D in the member t, a list of
    1-D arrays, and the root under the tangent at w = 0 (``_ray_start``).

    The rows are p0, p1, pa, m0, sv of Q' = p0 + p1 tau - pa tau^2 and
    s - 1 = m0 + tau sv (s itself is rounded near 1, where the exits
    from points next to y2 = 0 need s - 1), and, for the series rows
    (none when |t| >= 1/2), q0, q1, a, y2, d2 of Q = q0 + q1 tau - a
    tau^2 and w = y2 + tau d2.  The root comes first, while no row is held.
    """
    (y1, y2, y3), (d1, d2, d3) = Y, D
    r3, a = y3 * d3, 0.5 * d3 * d3
    q0, q1 = y1 - 0.5 * y3 * y3, d1 - r3
    cap = _positive_root(q0, q1, a)
    tt = t * t
    # in p1 the w term goes before the quadratic one: in D_1, the image
    # of DPrime, this recovers v1 from v1 + v2 even where v1 << v2
    ray = [t * (t * q0 - y2), t * (t * d1 - d2) - tt * r3, tt * a, t * y2, t * d2]
    return (ray + [q0, q1, a, y2, d2] if tt < 0.25 else ray), cap


def _ray_start(t, ray, cap):
    """A parameter at or beyond the exit of every non-ideal ray, from the
    rows of ``_ray_rows`` (a list of 1-D arrays) and its root ``cap``.

    w^2 psi(t w) is convex in w, so it lies above its tangents at w = y2
    and at w = 0 (zero): g lies below two concave quadratics, and the
    exit below the smaller positive root.  On the series rows the second
    derivative 1/s^2 adds curvature to the first: (d2/s0)^2/2 where s
    does not grow along the ray (exact at t = 0), and where it grows
    (d2/s_c)^2/2, s_c = s(2 r1) for the root r1 of the former, when the
    root lies below 2 r1.  The root is clipped to the edge s = 0, where
    the second bound makes Q' > 1 and G applies, and to the ideal probe;
    both are outside.
    """
    p0, p1, pa, m0, sv = ray[:5]
    s0 = 1.0 + m0
    tau = _positive_root(p0 + np.log1p(m0), p1 + sv / s0, pa)
    if len(ray) > 5:
        q0, q1, a, y2, d2 = ray[5:]
        near = _series_rows(t, y2, d2, 0.0)
        if len(near):
            y, v, s, u = y2[near], d2[near], s0[near], sv[near]
            c, b = q0[near] - y * y * _psi_series(t * y), q1[near] - v * y / s
            r1 = _positive_root(c, b, a[near] + 0.5 * (v / s) ** 2)
            r2 = _positive_root(c, b, a[near] + 0.5 * (v / (s + 2.0 * r1 * u)) ** 2)
            tau[near] = np.where(u <= 0, r1, np.where(r2 <= 2.0 * r1, r2, _positive_root(c, b, a[near])))
    tau = np.fmin(tau, cap)
    tau = np.where(sv < 0, np.fmin(tau, -s0 / sv), tau)
    return np.fmin(tau, IDEAL_PROBE)


def _series_rows(t, y2, d2, tau):
    """Rows on which g is evaluated as it stands: |t w| < 1/4, where
    Q' + log s cancels to a relative error above 8 eps, and |w| >= |t|,
    where its rounding error, eps |w|/|t| in units of g, is above eps.
    The two exclude each other when t^2 >= 1/4."""
    w = y2 + tau * d2
    return np.flatnonzero((np.abs(w) >= abs(t)) & (np.abs(t * w) < _PSI_SERIES_BELOW))


def _positive_root(c, b, a):
    """Positive root of c + b tau - a tau^2 (c > 0, a >= 0), by the
    formula that does not cancel; nan when a = b = 0 (root at infinity),
    which np.fmin passes over."""
    root = np.sqrt(b * b + 4.0 * a * c)
    return np.where(b < 0, 2.0 * c / (root - b), (b + root) / (2.0 * a))


def _newton_step(t, ray, tau):
    """Newton decrements f/f' at parameters tau beyond the exit: on g
    on the series rows, and elsewhere on G = (s - 1) - expm1(-Q') near
    the edge (s < 1, Q' > -50) and on Q' + log1p(s - 1) away from it.
    Both are taken of m = s - 1, so neither cancels where s is near 1.
    With h = pa tau - p1, -Q' = tau h - p0 and -dQ'/dtau = h + pa tau;
    G' = sv + exp(-Q') dQ'/dtau, and the log branch's decrement is
    taken as s (Q' + log s)/(sv + s dQ'/dtau), so both share one
    denominator.  ``ray`` is the list of 1-D rows of ``_ray_rows``, one
    entry per live ray as in tau."""
    p0, p1, pa, m0, sv = ray[:5]
    m = m0 + tau * sv
    pt = pa * tau
    minus_dq = pt - p1  # h, until -Q' is formed
    minus_q = tau * minus_dq - p0
    minus_dq += pt
    edge = (m < 0.0) & (minus_q < 50.0)
    s = np.add(1.0, m, out=pt)  # in the buffer of pa tau
    if edge.any():
        e = np.expm1(minus_q)  # overflows only off the edge rows, where it is unused
        step = np.where(edge, m - e, s * (np.log1p(m) - minus_q)) / (sv - minus_dq * np.where(edge, 1.0 + e, s))
    else:
        step = s * (np.log1p(m) - minus_q) / (sv - minus_dq * s)
    near = _series_rows(t, ray[8], ray[9], tau) if len(ray) > 5 else ()
    if len(near):
        q0, q1, a, y2, d2 = (r[near] for r in ray[5:])
        tn = tau[near]
        w = y2 + tn * d2
        at = a * tn
        step[near] = (q0 + tn * (q1 - at) - w * w * _psi_series(t * w)) / (q1 - (at + at) - d2 * w / s[near])
    return step


class DomainD0(ParabolicDomain):
    """Paraboloid domain x1 > (x2^2 + x3^2)/2 over the whole plane, the
    family member at t = 0 (psi(0) = 1/2)."""

    family = "D0"


class DomainDPrime(ParabolicDomain):
    """Log domain: x1 > x3^2/2 - log(x2) over the half plane x2 > 0,
    carried onto the family member D_1 by (x1 + x2 - 1, x2 - 1, x3)."""

    family = "DPrime"
    t = 1.0

    def base_contains_batch(self, b2, b3):
        return b2 > 0

    def boundary_value_batch(self, b2, b3):
        return 0.5 * b3 ** 2 - np.log(b2)

    def _to_family(self, X, V):
        x1, x2, x3 = X.T
        v1, v2, v3 = V.T
        y2 = x2 - 1.0
        return (x1 + y2, y2, x3), (v1 + v2, v2, v3)


class DomainDt(ParabolicDomain):
    """Deformed domain V_t(DPrime) (``vt_map(t)``), the family member t != 0."""

    family = "Dt"

    def __init__(self, t):
        if t == 0:
            raise ValueError("domain family requires t != 0")
        self.t = t


#: |u| below which psi is summed from a series: u - log1p(u) cancels to
#: a relative error of about 2 eps/|u|
_PSI_SERIES_BELOW = 0.25
#: the coefficients 1/(2j + 3) of S(x) = sum x^j / (2j + 3), highest
#: power first; with x = r^2 <= 1/49 the ten kept leave less than 1e-18
_PSI_SERIES = tuple(1.0 / (2.0 * j + 3.0) for j in range(9, -1, -1))


def _psi(u):
    """psi(u) = (u - log1p(u)) / u^2, the boundary profile (psi(0) = 1/2),
    from its series on the entries with |u| < 1/4 (a 0-d u included)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((u - np.log1p(u)) / (u * u))
    small = np.flatnonzero(np.abs(u) < _PSI_SERIES_BELOW)
    if len(small):
        out.flat[small] = _psi_series(u.flat[small])
    return out


def _psi_series(u):
    """psi at |u| < 1/4 from log1p(u) = 2 atanh(r), r = u/(2 + u):
    psi = (1 - r)/2 (1 - (1 - r) r S(r^2)), and psi(0) = 1/2 exactly.
    S is summed by Horner's rule in np.polyval's order of operations."""
    r = u / (2.0 + u)
    x = r * r
    S = _PSI_SERIES[0] * x + _PSI_SERIES[1]
    for c in _PSI_SERIES[2:]:
        S = S * x + c
    return 0.5 * (1.0 - r) * (1.0 - (1.0 - r) * r * S)


class BallDomain(ConvexDomain):
    """Open Euclidean unit ball; the closed-form Hilbert metric oracle."""

    family = "Ball"
    quadric = True

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.einsum("ij,ij->i", pts, pts) < 1.0

    def quadrature_frames(self, X):
        """Unit-ball frames at the rows of X, as an (m,3,3) array of rows:
        the Householder reflections I - 2 w w^T/|w|^2 with w = e1 +- x/|x|,
        signed as x1 so that |w| >= sqrt(2), and w = e1 at the centre.
        The first row is -+x/|x|, and the reflection in the plane of x and
        the second row fixes x and negates the third.  The Hilbert norm of
        the ball is invariant under the rotations about x, so its form is
        diagonal in the frame, the unit ball the ellipsoid on the frame
        radii, and its volume a closed form with no quadrature to check
        (gap 0).  A non-finite point gets nan rows, which the chord check
        of the frame solve then rejects."""
        r = np.linalg.norm(X, axis=1)[:, None]
        with np.errstate(invalid="ignore"):
            W = np.where(X[:, :1] < 0, -1.0, 1.0) * X / np.where(r > 0, r, 1.0)
        W[:, 0] += 1.0
        return np.eye(3) - 2.0 * W[:, :, None] * W[:, None, :] / np.einsum("ij,ij->i", W, W)[:, None, None]

    def _ray_exit(self, X, V):
        """Exit parameters of rays X + tau*V: ``_positive_root`` of 1 - |X|^2 - 2 (X.V) tau
        - |V|^2 tau^2, accurate to rounding; 1 - |X|^2 > 0 where ``contains_batch`` holds.
        Its dropped branch divides by 0 where X.V < 0 and |V|^2 (1 - |X|^2) << (X.V)^2."""
        b, a = np.einsum("ij,ij->i", X, V), np.einsum("ij,ij->i", V, V)
        with np.errstate(divide="ignore"):
            return _positive_root(1.0 - np.einsum("ij,ij->i", X, X), -2.0 * b, a)


class VerticalShiftDomain(ParabolicDomain):
    """A parabolic domain shifted vertically by a constant.

    With a positive shift this is the horoball above the horosphere at
    that level, a properly convex domain in its own right; negative
    shifts give strictly larger ambient domains for comparison tests.
    """

    def __init__(self, parent: ParabolicDomain, shift: float):
        self.parent = parent
        self.shift = float(shift)
        self.family = parent.family
        self.t = parent.t

    def base_contains_batch(self, b2, b3):
        return self.parent.base_contains_batch(b2, b3)

    def boundary_value_batch(self, b2, b3):
        return self.parent.boundary_value_batch(b2, b3) + self.shift

    def _to_family(self, X, V):
        return self.parent._to_family(X - np.array([self.shift, 0.0, 0.0]), V)


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
    return write_curve_svg(path, g2, h, size=size, margin=0)


def write_curve_svg(path, xs, ys, x_label="x", y_label="y", size=480, margin=40):
    """Single-polyline SVG plot with linear axes (deterministic output).

    The curve is scaled into the square inside ``margin``, which holds a
    frame and the axis labels; with ``margin=0`` the polyline fills the
    image alone.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    inner = size - 2 * margin

    def sx(v):
        return margin + (v - x_lo) / x_span * inner

    def sy(v):
        return size - margin - (v - y_lo) / y_span * inner

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    frame = [f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" fill="none" stroke="#999"/>']
    labels = [
        f'<text x="{size / 2:.0f}" y="{size - 8}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 12 {size / 2:.0f})">{y_label}</text>',
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        *(frame if margin else []),
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>',
        *(labels if margin else []),
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
