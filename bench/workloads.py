"""The benchmark workloads: seeded inputs, the calls into convexcusp that
are timed, and the checks of their results against ``oracles``.

A workload builds its inputs once from the seed.  ``items(k)`` lists the
calls of pass k; every pass makes the same calls, so each run attempts
whole passes and the share of failed items is the same in every run.
Items marked with a fault (F1, F2, F3) reproduce a known defect on
inputs that do not depend on the seed and fail on every pass.

Program functions are looked up on their module at call time, so the
traced run sees the wrappers that ``tracing`` installs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles
from convexcusp import cli, cusplie, cuspvol, domains, fig8, hilbert, projlin

#: accuracy the default sphere quadrature aims for (QuadratureSpec.rel_target)
DENSITY_RTOL = 1e-3
#: chord ends are bisected to 1e-12, so a distance between points at least
#: 1e-5 from the boundary carries an error below about 1e-7
DISTANCE_TOL = 1e-6
#: the displacement profile agrees with its closed form to about 1e-13
DISPLACEMENT_TOL = 1e-9


@dataclass
class Item:
    """One timed call into the program and the check of its result.

    ``check(result, results)`` sees the results of the whole pass by key,
    for checks that relate two calls.  A call that raises stores the
    exception as its result, which no check accepts.
    """

    key: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object, dict], bool]
    fault: str | None = None


def _is_number(v):
    return isinstance(v, (float, np.floating)) and math.isfinite(v)


def _rel_ok(value, ref, rtol):
    return _is_number(value) and abs(value - ref) <= rtol * abs(ref)


def _distances_ok(d, ref, tol=DISTANCE_TOL):
    if not isinstance(d, (np.ndarray, float)):
        return False
    return bool(np.all(np.abs(np.asarray(d, dtype=float) - ref) <= tol * np.maximum(1.0, ref)))


# ---------------------------------------------------------------------------
# exact-algebra


#: t = p/q with p, q distinct odd primes whose product lies in one of six
#: narrow bands.  The exact spectrum's divisor scan costs more as p*q
#: grows; odd prime numerators and denominators keep the number of
#: divisors the same for every seed, so each seed gets one rational of
#: each size and the cost of a pass stays level across seeds.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
HEIGHT_BANDS = ((33, 39), (85, 95), (143, 155), (203, 221), (319, 341), (377, 403))
#: F1: p*q above about 1e5 makes the exact spectrum fall back to floats
F1_T = Fraction(1001, 3001)
HALF = Fraction(1, 2)


def _draw_t(rng, lo, hi):
    choices = [(p, q) for p in PRIMES for q in PRIMES if p < q and lo <= p * q <= hi]
    p, q = rng.choice(choices)
    return Fraction(p, q) if rng.random() < 0.5 else Fraction(q, p)


def _family_matrix(family, a, b):
    """Displayed LPrime / LPrimeMinus algebra matrix with parameters (a, b)."""
    z = Fraction(0)
    top = -a if family == "LPrime" else a
    return projlin.exact_matrix([[z, z, b, top], [z, a, z, z], [z, z, z, b], [z, z, z, z]])


def _draw_pair(rng, family):
    """A rational conjugate of the pair (x(a1, b1), x(0, b2)) of one family."""
    a1 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
    b1 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
    b2 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    while True:
        G = projlin.exact_matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)] for _ in range(4)])
        if projlin.mat_det(G) != 0:
            break
    Gi = projlin.mat_inv(G)
    if not all(v == (i == j) for (i, j), v in np.ndenumerate(G @ Gi)):
        raise ArithmeticError("conjugator inverse is not exact")
    A = G @ _family_matrix(family, a1, b1) @ Gi
    B = G @ _family_matrix(family, Fraction(0), b2) @ Gi
    return family, (a1, b1, b2), A, B


def _relation_ok(r, _):
    return isinstance(r, np.ndarray) and all(isinstance(v, Fraction) and v == 0 for v in r.flat)


def _spectrum_ok(r, t):
    return (
        isinstance(r, list)
        and all(isinstance(v, Fraction) for v, _ in r)
        and [(v, m) for v, m in r] == oracles.longitude_spectrum(t)
    )


def _normalization_ok(r, t):
    if not isinstance(r, fig8.NormalizationReport):
        return False
    if t == HALF:
        return r.degenerate and r.sign == 0
    s = oracles.dilation(t)
    return (
        r.sign == 1
        and not r.degenerate
        and r.meridian_class == cusplie.PURE_TRANSLATION
        and r.longitude_class == cusplie.PURE_DILATION
        and _is_number(r.dilation_f)
        and abs(r.dilation_f - s) <= 1e-9 * max(1.0, abs(s))
    )


def _round_trip_ok(res, family, params, A, B):
    """Exact residual, family pattern, conjugacy and parameters of a normalization."""
    if not isinstance(res, cusplie.NormalizationResult):
        return False
    sign = 1 if family == "LPrime" else -1
    a1, b1, b2 = params
    C = res.conjugator
    img_a, img_b = res.images
    (pa1, pb1), (pa2, pb2) = res.params
    return (
        res.sign == sign
        and res.exact
        and res.residual == 0.0
        and all(v == 0 for img in res.images for v in oracles.lprime_pattern_violations(img, sign))
        and all(v == 0 for v in (C @ A - img_a @ C).flat)
        and all(v == 0 for v in (C @ B - img_b @ C).flat)
        and pa1 == a1
        and pa2 == 0
        and pb1 * b2 == pb2 * b1
    )


class ExactAlgebra:
    """L0 only: the holonomy family and exact pair normalization."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.ts = [HALF]
        self.ts += [_draw_t(rng, lo, hi) for lo, hi in HEIGHT_BANDS]
        self.pairs = [_draw_pair(rng, fam) for fam in ("LPrime", "LPrimeMinus") * 4]
        self._items = self._build()

    def _build(self):
        items = []
        for t in self.ts:
            items += [
                Item(f"relation {t}", "fig8.relation_residual", lambda t=t: fig8.relation_residual(t), _relation_ok),
                Item(
                    f"spectrum {t}",
                    "fig8.longitude_spectrum",
                    lambda t=t: fig8.longitude_spectrum(t),
                    lambda r, _, t=t: _spectrum_ok(r, t),
                ),
                Item(
                    f"obstruction {t}",
                    "fig8.obstruction_at_t",
                    lambda t=t: fig8.obstruction_at_t(t),
                    lambda r, _, t=t: r is (t != HALF),
                ),
                Item(
                    f"normalization {t}",
                    "fig8.normalization_consistency",
                    lambda t=t: fig8.normalization_consistency(t),
                    lambda r, _, t=t: _normalization_ok(r, t),
                ),
            ]
        items.append(
            Item(
                f"spectrum {F1_T}",
                "fig8.longitude_spectrum",
                lambda: fig8.longitude_spectrum(F1_T),
                lambda r, _: _spectrum_ok(r, F1_T),
                fault="F1",
            )
        )
        for i, (family, params, A, B) in enumerate(self.pairs):
            items.append(
                Item(
                    f"normalize {i} {family}",
                    "cusplie.normalize_algebra_pair",
                    lambda A=A, B=B: cusplie.normalize_algebra_pair(A, B),
                    lambda r, _, f=family, p=params, A=A, B=B: _round_trip_ok(r, f, p, A, B),
                )
            )
        return items

    def warm_up(self):
        pass

    def items(self, k):
        return self._items


# ---------------------------------------------------------------------------
# hilbert-queries


#: F2: Dt against its t -> 0 limit D0; t = 1e-2 and 1e-4 hold the O(t) bound
F2_TS = ((1e-2, None), (1e-4, None), (1e-8, "F2"), (1e-9, "F2"))
F2_X = np.array([[1.0, 0.3, -0.2], [0.6, -0.5, 0.4], [2.0, 1.0, 0.5], [0.3, 0.2, 0.1]])
F2_Y = np.array([[2.5, -0.4, 0.5], [0.9, 0.1, -0.3], [1.2, 0.4, 1.1], [4.0, -1.5, 0.8]])
#: F3: points close to a boundary whose normal is tilted against the axes
F3_D0 = np.array([1e-3 + 0.5 * (0.5 ** 2 + 0.2 ** 2), 0.5, 0.2])
F3_BALL = (1.0 - 1e-4) * np.ones(3) / math.sqrt(3.0)


def _strata(rng, lo, hi, n):
    """n draws from [lo, hi), one in each of n equal strata, in random order.

    Item times depend smoothly on where a point lies, so stratified draws
    keep the cost of a pass nearly the same from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _unit(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


def _ball_points(rng, n):
    """Alternately near the sphere (gap 1e-5 to 1e-1) and well inside."""
    near = 1.0 - 10.0 ** _strata(rng, -5, -1, n)
    inner = _strata(rng, 0.0, 0.9, n)
    return _unit(rng, n) * np.where(np.arange(n) % 2 == 0, near, inner)[:, None]


def _d0_points(rng, n, log_u=(-4, 1), width=2.0):
    u = 10.0 ** _strata(rng, *log_u, n)
    x2, x3 = _strata(rng, -width, width, n), _strata(rng, -width, width, n)
    return np.column_stack([u + 0.5 * (x2 ** 2 + x3 ** 2), x2, x3])


def _d0_pairs(rng, n):
    """Half the pairs leave along near-ideal directions (1, eps*n), eps down
    to 1e-6; the other half join two scattered points."""
    X = _d0_points(rng, n)
    Y = _d0_points(rng, n)
    h = n // 2
    eps = 10.0 ** _strata(rng, -6, -1, h)
    ang = _strata(rng, 0, 2 * math.pi, h)
    V = np.column_stack([np.ones(h), eps * np.cos(ang), eps * np.sin(ang)]) * np.exp(_strata(rng, 0, 3, h))[:, None]
    Y[:h] = X[:h] + V
    return X, Y


def _dprime_points(rng, n, log_level=(-0.5, 1.0)):
    levels = 10.0 ** _strata(rng, *log_level, n)
    x2 = np.exp(_strata(rng, -1, 1, n))
    x3 = _strata(rng, -1.5, 1.5, n)
    return np.array([oracles.dprime_point(k, a, b) for k, a, b in zip(levels, x2, x3)])


def _dprime_axis_pairs(rng, n):
    """Pairs of D' points that differ in one coordinate, cycling e1, e2, e3."""
    X = _dprime_points(rng, n)
    Y = X.copy()
    for i, x in enumerate(X):
        axis = i % 3
        lo, hi = oracles.dprime_axis_chord(x, axis)
        if math.isinf(hi):
            Y[i, axis] = lo + (x[axis] - lo) * math.exp(rng.uniform(-2, 2))
        else:
            Y[i, axis] = 0.98 * rng.uniform(lo, hi)
    ref = np.array([oracles.dprime_axis_distance(x, y) for x, y in zip(X, Y)])
    return X, Y, ref


class HilbertQueries:
    """L1 and L2: densities at single points and distances over pairs."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ball, d0, dprime = domains.BallDomain(), domains.DomainD0(), domains.DomainDPrime()
        items = []

        def density(key, dom, x, check, fault=None):
            items.append(
                Item(key, "hilbert.busemann_density", lambda: hilbert.busemann_density(dom, x), check, fault)
            )

        def pairs(key, dom, X, Y, ref, tol=DISTANCE_TOL, fault=None):
            items.append(
                Item(
                    key,
                    "hilbert.hilbert_distance_pairs",
                    lambda: hilbert.hilbert_distance_pairs(dom, X, Y),
                    lambda r, _: _distances_ok(r, ref, tol),
                    fault,
                )
            )

        def scalar(key, dom, x, y, ref):
            items.append(
                Item(
                    key,
                    "hilbert.hilbert_distance",
                    lambda: hilbert.hilbert_distance(dom, x, y),
                    lambda r, _: _distances_ok(r, ref),
                )
            )

        for i, x in enumerate(_unit(rng, 4) * _strata(rng, 0.0, 0.9, 4)[:, None]):
            density(f"density Ball {i}", ball, x, lambda r, _, x=x: _rel_ok(r, oracles.ball_density(x), DENSITY_RTOL))
        for i, x in enumerate(_d0_points(rng, 4, log_u=(-0.5, 0.7), width=1.5)):
            density(f"density D0 {i}", d0, x, lambda r, _, x=x: _rel_ok(r, oracles.d0_density(x), DENSITY_RTOL))

        # D': rho(g x) = e^-a rho(x) for the LPrime element g with parameters (a, b)
        base = _dprime_points(rng, 4)
        for i, (x, a, b) in enumerate(zip(base, _strata(rng, -1, 1, 4), _strata(rng, -1, 1, 4))):
            gx = oracles.lprime_act(a, b, x)
            kx, kg = f"density DPrime {i}", f"density DPrime {i} moved"

            def equivariant(r, res, kx=kx, kg=kg, a=a):
                return _is_number(res[kx]) and _rel_ok(res[kg], math.exp(-a) * res[kx], DENSITY_RTOL)

            density(kx, dprime, x, equivariant)
            density(kg, dprime, gx, equivariant)

        # Dt = V_t(D'): rho_Dt(V_t x) = t^4 rho_D'(x), at the same base points
        for i, (x, t) in enumerate(zip(base, 10.0 ** _strata(rng, -1, math.log10(2.0), 4))):
            kx = f"density DPrime {i}"
            density(
                f"density Dt {i}",
                domains.DomainDt(float(t)),
                oracles.vt_apply(t, x)[0],
                lambda r, res, kx=kx, t=t: _is_number(res[kx]) and _rel_ok(r, t ** 4 * res[kx], DENSITY_RTOL),
            )

        density("density D0 tilted near boundary", d0, F3_D0, lambda r, _: _rel_ok(r, oracles.d0_density(F3_D0), DENSITY_RTOL), "F3")
        density("density Ball tilted near boundary", ball, F3_BALL, lambda r, _: _rel_ok(r, oracles.ball_density(F3_BALL), DENSITY_RTOL), "F3")

        X, Y = _ball_points(rng, 64), _ball_points(rng, 64)
        ball_ref = oracles.ball_distance(X, Y)
        pairs("distances Ball", ball, X, Y, ball_ref)
        for i in range(4):
            scalar(f"distance Ball {i}", ball, X[i], Y[i], ball_ref[i])

        X, Y = _d0_pairs(rng, 64)
        d0_ref = oracles.d0_distance(X, Y)
        pairs("distances D0", d0, X, Y, d0_ref)
        for i in range(4):
            scalar(f"distance D0 {i}", d0, X[i], Y[i], d0_ref[i])

        X, Y, ref = _dprime_axis_pairs(rng, 48)
        pairs("distances DPrime axes", dprime, X, Y, ref)
        for t in 10.0 ** _strata(rng, -1, math.log10(2.0), 2):
            dom = domains.DomainDt(float(t))
            pairs(f"distances Dt {t:.4g}", dom, oracles.vt_apply(t, X), oracles.vt_apply(t, Y), ref)

        s = float(np.exp(rng.uniform(math.log(0.5), math.log(4.0))))
        b = oracles.translation_parameter(s)
        levels = (1.0, 2.0, 4.0, 8.0, 16.0)
        disp_ref = [oracles.horoball_displacement(k, 0.5 * levels[0], b) for k in levels]
        items.append(
            Item(
                "displacement profile",
                "cuspvol.displacement_profile",
                lambda: cuspvol.displacement_profile(s, b, levels),
                lambda r, _: isinstance(r, cuspvol.DisplacementProfile)
                and all(abs(d - e) <= DISPLACEMENT_TOL for d, e in zip(r.displacements, disp_ref))
                and len(r.displacements) == len(levels),
            )
        )

        f2_ref = oracles.d0_distance(F2_X, F2_Y)
        for t, fault in F2_TS:
            pairs(f"distances Dt t={t:g} against D0", domains.DomainDt(t), F2_X, F2_Y, f2_ref, tol=t, fault=fault)
        self._items = items

    def warm_up(self):
        for n in (hilbert.DEFAULT_QUADRATURE.sphere_nodes, hilbert.DEFAULT_QUADRATURE.sphere_nodes // 4):
            hilbert.sphere_quadrature(n)

    def items(self, k):
        return self._items


# ---------------------------------------------------------------------------
# cusp-volume


CUSP_S = math.log(16.0)
CUSP_FLOOR = 1.0
CUSP_CUTOFFS = (10.0, 20.0, 40.0, 80.0)
#: below about 128 sphere nodes a density costs no less: per-call Python
#: overhead in the chord bisection dominates
CUSP_NODES = 128
#: the grid integrator and the symmetry-reduced oracle agree to about 0.5%
CUSP_RTOL = 0.02
#: increment ratios of doubling shells tend to 2^(-1/2) as the tail takes over
TAIL_RATIO = 2.0 ** -0.5
TAIL_TOL = 0.05


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class CuspVolume:
    """L4 -> L3 -> L2 -> L1: the ``cusp volume`` command, in process."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._oracle = None

    def warm_up(self):
        hilbert.sphere_quadrature(CUSP_NODES)

    def items(self, k):
        out = self.workdir / f"cusp-volume-{k}"
        argv = [
            "cusp", "volume", "--s", repr(CUSP_S), "--k", repr(CUSP_FLOOR),
            "--cutoffs", ",".join(f"{c:g}" for c in CUSP_CUTOFFS),
            "--nodes", str(CUSP_NODES), "--seed", str(self.seed), "--out", str(out),
        ]  # fmt: skip
        return [Item(f"cusp volume {k}", "cli.main", lambda: _quiet(cli.main, argv), lambda rc, _: self._check(rc, out))]

    @property
    def oracle(self):
        """Symmetry-reduced volumes from g(level) = density at (level, 1, 0)."""
        if self._oracle is None:
            levels = np.geomspace(0.9, 90.0, 32)
            dom = domains.DomainDPrime()
            g = [hilbert.busemann_density(dom, np.array([k, 1.0, 0.0]), check=True) for k in levels]
            b = oracles.translation_parameter(CUSP_S)
            self._oracle = oracles.ReducedCuspVolume(levels, g, CUSP_S, b, CUSP_FLOOR)
        return self._oracle

    def _check(self, rc, out):
        if rc != 0:
            return False
        with open(out / "cusp_volume.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        cutoffs = tuple(float(r["cutoff"]) for r in rows)
        est = [float(r["estimate"]) for r in rows]
        ratios = [float(r["increment_ratio"]) for r in rows]
        return (
            cutoffs == CUSP_CUTOFFS
            and all(b > a for a, b in zip(est, est[1:]))
            and all(abs(r - TAIL_RATIO) <= TAIL_TOL for r in ratios[2:])
            and all(abs(e - self.oracle.volume(c)) <= CUSP_RTOL * e for c, e in zip(cutoffs, est))
            and manifest["seed"] == self.seed
            and manifest["outputs"] == ["cusp_volume.csv", "cusp_volume.svg"]
            and (out / "cusp_volume.svg").read_text().startswith("<svg")
        )



WORKLOADS = {
    "exact-algebra": ExactAlgebra,
    "hilbert-queries": HilbertQueries,
    "cusp-volume": CuspVolume,
}
