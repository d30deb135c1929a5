"""The paper's claims as one table behind ``selftest`` and the acceptance suite.

A row measures one number (a worst error, a count of violations or a margin) on ``selftest``'s
inputs; the acceptance suite runs the same measure on its own inputs and pins the row's bound.
"""

import functools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import cusplie, cuspvol, fig8, hilbert, projlin
from .cusplie import LieAlgElem
from .domains import BallDomain, DomainDPrime, DomainDt, vt_map


class Claim(NamedTuple):
    key: str
    claim: str
    measure: Callable[..., float]
    inputs: dict
    bound: float
    at_least: bool = False  # the bound is a floor, not a ceiling

    def check(self):  # -> (holds, report line); keys padded to the longest in the table
        key = self.key.ljust(max(len(row.key) for row in TABLE))
        try:
            value = float(self.measure(**self.inputs))
        except Exception as err:  # noqa: BLE001 - a measure that raises fails its row
            return False, f"FAIL {key} {type(err).__name__}: {err}"
        ok, sense = (value >= self.bound, ">=") if self.at_least else (value <= self.bound, "<=")
        return ok, f"{'PASS' if ok else 'FAIL'} {key} {value:<10.3g} {sense} {self.bound:g}"


def _dichotomy_violations(ts):
    half = Fraction(1, 2)
    bad = fig8.obstruction_at_t(half) + (projlin.real_spectrum(fig8.longitude(half)) != [(1, 4)])
    for t in ts:
        bad += dict(fig8.longitude_spectrum(t)) != {2 * t: 3, 1 / (8 * t ** 3): 1}
        bad += t != half and not fig8.obstruction_at_t(t)
    return bad


def _closed_norm_error(points):
    errs = []
    for x in points:
        n, engine = cuspvol.direction_norms(x), hilbert.finsler_norm_batch(DomainDPrime(), np.asarray(x, float), np.eye(3))
        errs += [abs(e - r) / max(1.0, r) for e, r in zip(engine, (n.norm_e1, n.norm_e2, n.norm_e3))]
    return max(errs)


def _finsler_error(seed, n, h=1e-5):
    dp, rng, errs = DomainDPrime(), np.random.default_rng(seed), []
    for _ in range(n):
        x, v = rng.uniform((1.5, 0.6, -0.6), (4, 2, 0.6)), rng.normal(size=3)
        norm = hilbert.finsler_norm(dp, x, v)
        errs.append(abs(hilbert.hilbert_distance(dp, x - h * v, x + h * v) / (2 * h) - norm) / max(1.0, norm))
    return max(errs)


@functools.lru_cache(maxsize=1)  # its four rows run one after another
def _volume(t, floor, cutoffs, heights, q):
    """Least and largest tail ratio (nan unless the volumes increase), least margin over C x1^(3/2), growth exponent."""
    u, b = fig8.peripheral_lattice(t)
    fd = cuspvol.CuspFundamentalDomain(floor=floor, dilation=abs(u), translation=b)
    rows = cuspvol.cusp_volume_table(fd, cutoffs, q)
    increasing = all(b["estimate"] > a["estimate"] for a, b in zip(rows, rows[1:]))
    ratios = [r["increment_ratio"] for r in rows[2:]] if increasing else [math.nan]
    threshold = cuspvol.proof_threshold(fd)
    checks = [cuspvol.lower_bound_check((x1, 1.0, 0.0), q, threshold=threshold) for x1 in heights]
    growth = np.polyfit(np.log(heights), np.log([c.ball_volume for c in checks]), 1)[0]
    return min(ratios), max(ratios), min(c.margin for c in checks), growth


def _normalization_failures(seed, pairs):
    rng, bad = random.Random(seed), 0
    for family, sign in (("LPrime", 1), ("LPrimeMinus", -1)):
        for _ in range(pairs):
            a = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
            b1, b2 = Fraction(rng.randint(0, 4), rng.randint(1, 4)), Fraction(rng.randint(1, 5), rng.randint(1, 4))
            G = projlin.zero_matrix(4, exact=True)
            while projlin.mat_det(G) == 0:
                G = projlin.exact_matrix(
                    [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)])
            Gi = projlin.mat_inv(G)
            x1, x2 = (G @ cusplie.alg_matrix(LieAlgElem(family, p)) @ Gi for p in ((a, b1), (0, b2)))
            res = cusplie.normalize_algebra_pair(x1, x2)
            bad += not (res.sign == sign and res.residual == 0.0 and res.exact)
    return bad


def _fig8_dilation_error(ts):
    reps = [fig8.normalization_consistency(t) for t in ts]
    normal = [(r.sign, r.meridian_class, r.longitude_class) == (1, "PureTranslation", "PureDilation") for r in reps]
    return max(abs(r.dilation_f - fig8.s_of_t(r.t)) if ok else math.inf for r, ok in zip(reps, normal))


def _convergence_order(ks):
    """Least observed order log(dev_k/dev_k+1) / log(|u_k|/|u_k+1|) of the deviation dev of the measured b/|u|
    from 1/(2 sqrt 3), on each side of t = 1/2, at t = 1/2 -+ 10^-k/8 (u about +-10^-k)."""
    orders = []
    for sign in (-1, 1):
        lattices = (fig8.peripheral_lattice(Fraction(1, 2) + sign * Fraction(1, 8 * 10 ** k)) for k in ks)
        devs = [(abs(u), abs(b / abs(u) - 1 / (2 * math.sqrt(3)))) for u, b in lattices]
        orders += [math.log(d0 / d1) / math.log(u0 / u1) for (u0, d0), (u1, d1) in zip(devs, devs[1:])]
    return min(orders)


def _limit_shape_error(t):
    """Distance from -2 sqrt(3) i of the cusp shape of rho_t's lattice read as the L0 pair (0, b/|u|), (1, 0)."""
    u, b = fig8.peripheral_lattice(t)
    shape = cusplie.cusp_shape(LieAlgElem("L0", (0.0, b / abs(u))), LieAlgElem("L0", (1.0, 0.0)))
    return abs(shape.raw_omega + 2j * math.sqrt(3))


def _lattice_violations(u0):
    res = cusplie.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (0 * u, u), u0)
    exp_a = cusplie.group_exp(LieAlgElem("L0", (Fraction(1), Fraction(0))))
    bad = ([e.params for e in res.limit_elements] != [(1, 0), (0, 1)]) + np.any(res.limit_generators[0] != exp_a)
    try:
        cusplie.convergence_conjugate(lambda u: (u, 0 * u), lambda u: (2 * u, 0 * u), u0)
    except cusplie.HypothesesError:
        return bad
    return bad + 1


def _displacement_spread(t, levels, ambient):
    """Infinite unless the displacement strictly decreases with the level; rho_t's meridian translation."""
    prof = cuspvol.displacement_profile(*fig8.peripheral_lattice(t), levels, ambient_level=ambient)
    d = prof.displacements
    return prof.constancy_spread if all(b < a for a, b in zip(d, d[1:])) else math.inf


def _domain_violations(seed, samples, chords):
    dp, rng = DomainDPrime(), np.random.default_rng(seed)
    u, w = (rng.uniform([0.05, -4], [5, 4], size=(samples, 2)) for _ in range(2))
    lam = rng.uniform(size=(samples, 1))
    F = lambda b: 0.5 * b[:, 1] ** 2 - np.log(b[:, 0])
    bad = np.sum(F(lam * u + (1 - lam) * w) > lam[:, 0] * F(u) + (1 - lam[:, 0]) * F(w) + 1e-12)
    pts = np.column_stack([rng.uniform(0.5, 4, chords), rng.uniform(0.3, 3, chords), rng.uniform(-1.5, 1.5, chords)])
    pts[:, 0] += 0.5 * pts[:, 2] ** 2 - np.log(pts[:, 1])
    tm, tp = dp.chord_taus(pts, rng.normal(size=(chords, 3)))
    bad += np.sum(~(np.isfinite(tm) | np.isfinite(tp)))
    bad += sum(not dp.contains([c * v, v, 0.0]) for c in (0.5, 1.0, 2.0) for v in (1.0, 10.0, 1e4, 1e8))
    return bad + (np.linalg.matrix_rank([[c, 1.0, 0.0, 0.0] for c in (0.5, 1.0, 2.0)]) != 2)


def _invariance_error(seed, pairs, ts, group_params):
    dp, rng = DomainDPrime(), np.random.default_rng(seed)
    x, y = (rng.uniform((1.5, 0.5, -0.7), (3, 2, 0.7), size=(pairs, 3)) for _ in range(2))
    d, errs = hilbert.hilbert_distance_pairs(dp, x, y), []
    maps = [(DomainDt(t), vt_map(t)) for t in ts] + [(dp, cusplie.group_exp(LieAlgElem("LPrime", p))) for p in group_params]
    for dom, g in maps:
        gx, gy = (projlin.apply_affine_batch(projlin.to_float(g), z) for z in (x, y))
        errs.append(np.max(np.abs(hilbert.hilbert_distance_pairs(dom, gx, gy) - d) / np.maximum(1.0, d)))
    return max(errs)


VOLUME = dict(t=Fraction(1, 4), floor=1.0, cutoffs=(10, 20, 40, 80), heights=(1e2, 1e3, 1e4),
              q=hilbert.QuadratureSpec(sphere_nodes=578, grid_shape=(6, 5)))

TABLE = (
    Claim("relation-exact", "the figure-eight group relation holds exactly",
          lambda ts: sum(v != 0 for t in ts for v in fig8.relation_residual(t).flat),
          dict(ts=(Fraction(1, 3), Fraction(7, 5), Fraction(2, 9))), 0),
    Claim("unipotency-dichotomy", "the longitude spectrum is {2t x3, 1/(8t^3)}, unipotent only at t = 1/2",
          _dichotomy_violations, dict(ts=(Fraction(1, 4), Fraction(2, 5), Fraction(3, 4))), 0),
    Claim("limit-cusp-shape", "the cusp shape of rho_t tends to -2 sqrt(3) i as t -> 1/2",
          _limit_shape_error, dict(t=Fraction(1, 2) - Fraction(1, 8 * 10 ** 6)), 1e-12),
    Claim("ball-distance", "the Hilbert distance in the ball is 2 artanh r", lambda radii: max(
          abs(hilbert.hilbert_distance(BallDomain(), [0, 0, 0], [r, 0, 0]) - 2 * math.atanh(r)) for r in radii),
          dict(radii=(0.25, 0.5, 0.75)), 1e-9),
    Claim("ball-density", "the Busemann density at the centre of the ball is 1",
          lambda: abs(hilbert.busemann_density(BallDomain(), [0, 0, 0], hilbert.QuadratureSpec()) - 1.0), {}, 1e-3),
    Claim("closed-form-norms", "the axis norms of D' take their closed forms",
          _closed_norm_error, dict(points=((2.0, 1.0, 0.0), (3.5, 2.0, 0.5), (1.5, 0.5, -0.4))), 1e-9),
    Claim("finsler-derivative", "the Finsler norm is the derivative of the distance",
          _finsler_error, dict(seed=5, n=5), 1e-6),
    Claim("volume-tail-min", "truncated volumes increase, with tail ratios at least 1/2",
          lambda **kw: _volume(**kw)[0], VOLUME, 0.5, at_least=True),
    Claim("volume-tail-max", "the tail ratios of the truncated volumes are at most 0.9",
          lambda **kw: _volume(**kw)[1], VOLUME, 0.9),
    Claim("volume-lower-bound", "unit balls exceed the simplex bound C x1^(3/2)",
          lambda **kw: _volume(**kw)[2], VOLUME, 0, at_least=True),
    Claim("volume-growth", "unit-ball volumes grow at least like x1^1.4",
          lambda **kw: _volume(**kw)[3], VOLUME, 1.4, at_least=True),
    Claim("normalization-roundtrip", "conjugated pairs normalize exactly into their family",
          _normalization_failures, dict(seed=2, pairs=2), 0),
    Claim("fig8-normalization", "the normalized longitude is a pure dilation by s(t)",
          _fig8_dilation_error, dict(ts=(Fraction(1, 4),)), 1e-10),
    Claim("meridian-translation-identity", "the meridian translation b has b^2/s = sinh(s/4)/3 = (1 - 4t^2)/(12t) exactly",
          lambda ts: sum(r.q != (1 - 4 * r.t ** 2) / (12 * r.t) for r in map(fig8.normalization_consistency, ts)),
          dict(ts=(Fraction(1, 4), Fraction(499, 1000), Fraction(31, 3))), 0),
    Claim("peripheral-convergence", "the measured b/|u| tends to 1/(2 sqrt 3) at order at least 1.5 in |u|",
          _convergence_order, dict(ks=(1, 2, 3, 4)), 1.5, at_least=True),
    Claim("lattice-convergence", "linear paths converge exactly; dependent paths are rejected",
          _lattice_violations, dict(u0=Fraction(1, 4)), 0),
    Claim("displacement-constancy", "displacement decreases with the level and is constant on horospheres",
          _displacement_spread, dict(t=Fraction(1, 4), levels=(1.0, 2.0, 4.0), ambient=0.5), 1e-9),
    Claim("domain-convexity", "D' is convex, contains no line and has a boundary segment",
          _domain_violations, dict(seed=9, samples=1000, chords=100), 0),
    Claim("projective-invariance", "Hilbert distances are invariant under projective maps",
          _invariance_error, dict(seed=3, pairs=5, ts=(0.5,), group_params=((0.4, -0.3),)), 1e-9),
)
