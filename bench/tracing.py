"""Spans and counts around the calls into each convexcusp module.

The tracer replaces the public functions that the per-layer metrics
name with timing wrappers, in every convexcusp module that holds a
reference to them (``cusplie.minimal_polynomial`` is the same function
as ``projlin.minimal_polynomial`` and is wrapped in both places), and
the chord, membership and boundary methods on the domain classes.
Nothing inside the package changes; ``uninstall`` puts the originals
back.

Each call records a span (name, start, end, parent span, item id) and
its self time, the part of its duration not covered by wrapped calls
made inside it.  A call made while a span of the same name is open
(recursion, or a domain delegating to another domain) belongs to the
open span and records nothing.  Membership and boundary calls run a few
hundred times per Busemann density, so they are folded into counts and
into their caller's child time instead of keeping one span each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

FUNCTIONS = {
    "projlin": ("real_spectrum", "minimal_polynomial"),
    "cusplie": ("normalize_algebra_pair", "minpoly_profile"),
    "fig8": ("relation_residual", "longitude", "longitude_spectrum", "obstruction_at_t", "normalization_consistency"),
    "hilbert": ("busemann_density", "hilbert_distance_pairs", "hilbert_distance", "busemann_volume"),
    "cuspvol": ("cusp_volume_table", "displacement_profile"),
    "cli": ("main",),
}
DOMAIN_METHODS = ("chord_taus", "contains_batch", "boundary_value_batch")
FOLDED = {"domains.contains_batch", "domains.boundary_value_batch"}


def _count_real_spectrum(tr, args, result):
    M = args[0]
    if M.dtype == object and any(not isinstance(v, Fraction) for v, _ in result):
        tr.counts["projlin.real_spectrum.float_results"] += 1


def _count_minpoly_profile(tr, args, result):
    if tr.active["cusplie.normalize_algebra_pair"]:
        tr.counts["cusplie.minpoly_profile.in_normalize"] += 1


def _count_chord_taus(tr, args, result):
    tr.counts["domains.chord_taus.directions"] += len(result[0])


def _count_contains_batch(tr, args, result):
    n = len(args[1])
    tr.counts["domains.contains_batch.points"] += n
    if tr.active["domains.chord_taus"]:
        tr.counts["domains.contains_batch.points_in_chords"] += n


def _count_boundary_value_batch(tr, args, result):
    tr.counts["domains.boundary_value_batch.points"] += len(args[1])


def _count_distance_pairs(tr, args, result):
    tr.counts["hilbert.hilbert_distance_pairs.pairs"] += len(result)


def _count_density(tr, args, result):
    if tr.active["cuspvol.cusp_volume_table"]:
        tr.counts["hilbert.busemann_density.in_tables"] += 1


COUNTERS = {
    "projlin.real_spectrum": _count_real_spectrum,
    "cusplie.minpoly_profile": _count_minpoly_profile,
    "domains.chord_taus": _count_chord_taus,
    "domains.contains_batch": _count_contains_batch,
    "domains.boundary_value_batch": _count_boundary_value_batch,
    "hilbert.hilbert_distance_pairs": _count_distance_pairs,
    "hilbert.busemann_density": _count_density,
}


def _ratio(num, den):
    return num / den if den else 0.0


#: per-layer metrics that are ratios of two counters rather than per-pass totals
RATIOS = {
    "cusplie.minpoly_profile.calls_per_pair": lambda tr: _ratio(
        tr.counts["cusplie.minpoly_profile.in_normalize"], tr.stats.get("cusplie.normalize_algebra_pair", [0])[0]
    ),
    "domains.point_tests_per_direction": lambda tr: _ratio(
        tr.counts["domains.contains_batch.points_in_chords"], tr.counts["domains.chord_taus.directions"]
    ),
    "cuspvol.densities_per_table": lambda tr: _ratio(
        tr.counts["hilbert.busemann_density.in_tables"], tr.stats.get("cuspvol.cusp_volume_table", [0])[0]
    ),
}

STAT_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
#: counters reported per pass
KNOWN_COUNTS = {
    "projlin.real_spectrum.float_results",
    "domains.chord_taus.directions",
    "domains.contains_batch.points",
    "domains.boundary_value_batch.points",
    "hilbert.hilbert_distance_pairs.pairs",
}


class Tracer:
    """In-memory spans and counters; ``install`` starts recording."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent span index, item id, self seconds]
        self.stats = {}  # name -> [calls, seconds, self seconds]
        self.counts = Counter()
        self.active = Counter()
        self._stack = []  # open frames: [span index or -1, start, child seconds, name]
        self._item = -1
        self._patches = []

    # -- recording -----------------------------------------------------

    def _open(self, name, keep_span):
        idx = -1
        if keep_span:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([nid, 0.0, 0.0, parent, self._item, 0.0])
        frame = [idx, time.perf_counter(), 0.0, name]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        idx, start, child, name = frame
        dur = end - start
        if idx >= 0:
            span = self.spans[idx]
            span[1], span[2], span[5] = start, end, dur - child
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def item(self, kind, item_id):
        """Root span of one benchmark item."""
        self._item = item_id
        frame = self._open("item." + kind, True)
        try:
            yield
        finally:
            self._close(frame)
            self._item = -1

    def _wrap(self, name, fn):
        tracer = self
        keep_span = name not in FOLDED
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active[name]:
                return fn(*args, **kwargs)
            tracer.active[name] += 1
            frame = tracer._open(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.active[name] -= 1
                tracer._close(frame)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self):
        modules = {short: importlib.import_module("convexcusp." + short) for short in FUNCTIONS}
        package = [m for n, m in sorted(sys.modules.items()) if n == "convexcusp" or n.startswith("convexcusp.")]
        for short, fns in FUNCTIONS.items():
            module = modules[short]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        domains = importlib.import_module("convexcusp.domains")
        for cls in vars(domains).values():
            if isinstance(cls, type) and issubclass(cls, domains.ConvexDomain):
                for meth in DOMAIN_METHODS:
                    if meth in cls.__dict__:
                        original = cls.__dict__[meth]
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth, self._wrap("domains." + meth, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------

    def metric(self, name, passes):
        """Value of one per-layer metric, per pass for totals."""
        if name in RATIOS:
            return float(RATIOS[name](self))
        base, _, field = name.rpartition(".")
        if field in STAT_FIELDS:
            return self.stats.get(base, [0, 0.0, 0.0])[STAT_FIELDS[field]] / passes
        if name in KNOWN_COUNTS:
            return self.counts[name] / passes
        raise KeyError(f"no per-layer metric named {name!r}")

    def table(self, passes):
        """Per-layer table: calls, seconds and self seconds per pass."""
        lines = [f"{'span':44s} {'calls/pass':>11s} {'s/pass':>10s} {'self_s/pass':>12s}"]
        for name in sorted(self.stats):
            calls, total, self_s = self.stats[name]
            lines.append(f"{name:44s} {calls / passes:11.1f} {total / passes:10.4f} {self_s / passes:12.4f}")
        lines.append("")
        for name in sorted(self.counts):
            lines.append(f"{name:44s} {self.counts[name] / passes:11.1f}")
        return "\n".join(lines)

    def write(self, path, meta):
        """Write spans, per-name totals and counters as one JSON file."""
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "item", "self_s"]
        doc["names"] = self.names
        doc["spans"] = [[s[0], round(s[1], 7), round(s[2], 7), s[3], s[4], round(s[5], 7)] for s in self.spans]
        doc["stats"] = {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())}
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

