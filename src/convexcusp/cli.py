"""Command-line front end.

Subcommands orchestrate the verification suites and write their
artifacts (JSON reports, CSV tables, SVG plots, OBJ meshes) into an
output directory, alongside a manifest recording the invocation, seed
and library versions.  Outputs are byte-identical for identical
configuration and seed.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
Rational parameters are written as "p/q"; decimals are read as floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, cusplie, cuspvol, domains, fig8, hilbert, projlin, selftest


def parse_number(text: str):
    """Exact Fraction for "p/q" or integer literals, float otherwise."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("CONVEXCUSP_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj) -> Path:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(outdir: Path, command: str, params: dict, seed, outputs):
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "outputs": [str(Path(p).name) for p in outputs],
        "versions": {
            "convexcusp": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    return _write_json(outdir / "manifest.json", manifest)


def _quadrature(args) -> hilbert.QuadratureSpec:
    kwargs = {}
    if getattr(args, "nodes", None):
        kwargs["sphere_nodes"] = args.nodes
    if getattr(args, "samples", None):
        kwargs["mc_samples"] = args.samples
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return hilbert.QuadratureSpec(**kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fig8_verify(args) -> int:
    outdir = _out_dir(args)
    t = parse_number(args.t)
    report = fig8.verify_report(t)
    path = _write_json(outdir / "fig8_verify.json", report)
    _write_manifest(outdir, "fig8 verify", {"t": str(t)}, None, [path])
    print(f"t = {t}: relation_exact={report['relation_exact']} obstruction={report['obstruction']}")
    print(f"longitude spectrum: {report['longitude_spectrum']}")
    print(f"wrote {path}")
    return 0 if report["relation_exact"] else 1


def cmd_fig8_sweep(args) -> int:
    outdir = _out_dir(args)
    rows = fig8.sweep_rows(args.t_min, args.t_max, args.steps)
    path = outdir / "fig8_sweep.csv"
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        cols = ["t", "s", "eig_triple", "eig_single", "obstructed", "meridian_dev", "longitude_dev", "shape_im"]
        cols += ["closed_triple", "triple_rel_dev", "closed_single", "single_rel_dev"]
        w.writerow(cols)
        for r in rows:
            w.writerow([f"{r[c]:.12g}" if isinstance(r[c], float) else r[c] for c in cols])
    _write_manifest(
        outdir, "fig8 sweep", {"t_min": args.t_min, "t_max": args.t_max, "steps": args.steps}, None, [path]
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_cusp_volume(args) -> int:
    outdir = _out_dir(args)
    q = _quadrature(args)
    s = float(args.s)
    if s == 0:
        print("cusp volume needs s != 0 (the hyperbolic point has a different normal form)", file=sys.stderr)
        return 2
    b = abs(s) * fig8.meridian_translation(s)
    cutoffs = _float_list(args.cutoffs)
    fd = cuspvol.CuspFundamentalDomain(floor=args.k, dilation=abs(s), translation=b)
    rows = cuspvol.cusp_volume_table(fd, cutoffs, q, method=args.method)
    csv_path = cuspvol.write_volume_table_csv(outdir / "cusp_volume.csv", rows)
    svg_path = domains.write_curve_svg(
        outdir / "cusp_volume.svg",
        [r["cutoff"] for r in rows],
        [r["estimate"] for r in rows],
        x_label="cutoff",
        y_label="volume",
    )
    _write_manifest(
        outdir,
        "cusp volume",
        {"s": s, "k": args.k, "cutoffs": cutoffs, "method": args.method, "nodes": q.sphere_nodes, "samples": q.mc_samples},
        q.seed,
        [csv_path, svg_path],
    )
    for r in rows:
        print(f"X={r['cutoff']:g} volume={r['estimate']:.6f} (+{r['increment']:.6f})")
    print(f"worst sphere-quadrature gap {rows[-1]['quad_gap']:.3g}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def cmd_cusp_displacement(args) -> int:
    outdir = _out_dir(args)
    s = float(args.s)
    levels = _float_list(args.levels)
    if s == 0:
        print("cusp displacement needs s != 0", file=sys.stderr)
        return 2
    b = abs(s) * fig8.meridian_translation(s)
    prof = cuspvol.displacement_profile(s, b, levels, ambient_level=args.ambient_level)
    csv_path = cuspvol.write_displacement_csv(outdir / "displacement.csv", prof)
    svg_path = domains.write_curve_svg(
        outdir / "displacement.svg", prof.levels, prof.displacements, x_label="level", y_label="displacement"
    )
    _write_manifest(
        outdir,
        "cusp displacement",
        {"s": s, "levels": levels, "ambient_level": prof.ambient_level},
        None,
        [csv_path, svg_path],
    )
    for lev, d in zip(prof.levels, prof.displacements):
        print(f"level={lev:g} displacement={d:.9f}")
    print(f"constancy spread {prof.constancy_spread:.3e}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def cmd_lattice_normalize(args) -> int:
    outdir = _out_dir(args)
    with open(args.infile) as fh:
        payload = json.load(fh)
    A, B = (projlin.to_float(projlin.matrix_from_json(payload[k])) for k in ("A", "B"))
    try:
        res = cusplie.normalize_pair(A, B)
    except ValueError as err:
        print(f"normalization failed: {err}", file=sys.stderr)
        return 1
    path = _write_json(outdir / "normalization.json", res.to_json())
    _write_manifest(outdir, "lattice normalize", {"in": str(args.infile)}, None, [path])
    print(f"sign={res.sign} residual={res.residual:.3e}")
    print(f"wrote {path}")
    return 0


def cmd_domain_export(args) -> int:
    outdir = _out_dir(args)
    desc = {"family": args.family}
    if args.family == "Dt":
        if args.t is None:
            print("family Dt requires --t", file=sys.stderr)
            return 2
        desc["t"] = float(args.t)
    dom = domains.domain_from_descriptor(desc)
    outputs = []
    x2r = (args.x2_min, args.x2_max)
    x3r = (args.x3_min, args.x3_max)
    if args.obj:
        outputs.append(
            domains.export_boundary_obj(dom, outdir / args.obj, x2r, x3r, n2=args.grid, n3=args.grid, level=args.level)
        )
    if args.svg:
        outputs.append(
            domains.export_slice_svg(dom, outdir / args.svg, x3=args.x3, x2_range=x2r, n=4 * args.grid, level=args.level)
        )
    if not outputs:
        print("nothing to export; pass --obj and/or --svg", file=sys.stderr)
        return 2
    _write_manifest(outdir, "domain export", {"family": args.family, "t": args.t, "level": args.level}, None, outputs)
    for p in outputs:
        print(f"wrote {p}")
    return 0


def cmd_selftest(args) -> int:
    results = selftest.run_all()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convexcusp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig8_p = sub.add_parser("fig8", help="holonomy family verification")
    fig8_sub = fig8_p.add_subparsers(dest="subcommand", required=True)
    v = fig8_sub.add_parser("verify", help="relation, spectra and obstruction report")
    v.add_argument("--t", required=True, help='family parameter, "p/q" for exact')
    v.add_argument("--out")
    v.set_defaults(func=cmd_fig8_verify)
    sw = fig8_sub.add_parser("sweep", help="CSV sweep of spectra and cusp-shape convergence")
    sw.add_argument("--t-min", type=float, required=True)
    sw.add_argument("--t-max", type=float, required=True)
    sw.add_argument("--steps", type=int, default=21)
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_fig8_sweep)

    cusp_p = sub.add_parser("cusp", help="cusp volume and displacement")
    cusp_sub = cusp_p.add_subparsers(dest="subcommand", required=True)
    cv = cusp_sub.add_parser("volume", help="truncated volume table (CSV + SVG)")
    cv.add_argument("--s", type=float, required=True)
    cv.add_argument("--k", type=float, default=1.0)
    cv.add_argument("--cutoffs", default="10,20,40,80")
    cv.add_argument("--method", choices=("grid", "mc"), default="grid")
    cv.add_argument("--nodes", type=int)
    cv.add_argument("--samples", type=int)
    cv.add_argument("--seed", type=int)
    cv.add_argument("--out")
    cv.set_defaults(func=cmd_cusp_volume)
    cd = cusp_sub.add_parser("displacement", help="horoball displacement profile (CSV + SVG)")
    cd.add_argument("--s", type=float, required=True)
    cd.add_argument("--levels", default="1,2,4,8,16")
    cd.add_argument("--ambient-level", type=float, default=None)
    cd.add_argument("--out")
    cd.set_defaults(func=cmd_cusp_displacement)

    lat_p = sub.add_parser("lattice", help="lattice normal forms")
    lat_sub = lat_p.add_subparsers(dest="subcommand", required=True)
    ln = lat_sub.add_parser("normalize", help="conjugate a generator pair into normal form")
    ln.add_argument("--in", dest="infile", required=True, help="JSON file with generators A, B")
    ln.add_argument("--out")
    ln.set_defaults(func=cmd_lattice_normalize)

    dom_p = sub.add_parser("domain", help="domain exports")
    dom_sub = dom_p.add_subparsers(dest="subcommand", required=True)
    de = dom_sub.add_parser("export", help="boundary/horosphere mesh (OBJ) and slice (SVG)")
    de.add_argument("--family", choices=("D0", "DPrime", "Dt"), required=True)
    de.add_argument("--t", type=float)
    de.add_argument("--level", type=float, default=0.0)
    de.add_argument("--obj")
    de.add_argument("--svg")
    de.add_argument("--x3", type=float, default=0.0)
    de.add_argument("--x2-min", type=float, default=0.5)
    de.add_argument("--x2-max", type=float, default=4.0)
    de.add_argument("--x3-min", type=float, default=-2.0)
    de.add_argument("--x3-max", type=float, default=2.0)
    de.add_argument("--grid", type=int, default=32)
    de.add_argument("--out")
    de.set_defaults(func=cmd_domain_export)

    st = sub.add_parser("selftest", help="run the invariant suite")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, cusplie.HypothesesError, hilbert.RegionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
