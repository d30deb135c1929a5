"""Command-line front end.

Subcommands orchestrate the verification suites and write their
artifacts (JSON reports, CSV tables, SVG plots, OBJ meshes) into an
output directory, alongside a manifest recording the invocation, seed
and library versions.  Outputs are byte-identical for identical
configuration; no output depends on the seed (``cusp volume --seed`` is
only recorded).

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
A float overflow, invalid operation or division by zero is an error (exit 1).
``fig8 verify --t`` and ``fig8 sweep --t-min``/``--t-max`` read "p/q",
integers and decimals exactly (0.3 is 3/10, 1e-3 is 1/1000); every other
numeric option is a float or an integer, finite in the cusp commands' --k,
--cutoffs, --levels, --ambient-level and in ``domain export``'s floats.  The
cusp commands integrate rho_t's lattice ``fig8.peripheral_lattice(t(s))``,
which the manifest records.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, cusplie, cuspvol, domains, fig8, hilbert, projlin


def _finite_float(text: str) -> float:
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str):
    return [_finite_float(v) for v in text.split(",") if v.strip()]


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


def _write_csv(path: Path, header, rows) -> Path:
    """The header line, then one line per row: None as "", floats as .12g, anything else as it is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["" if v is None else f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_fig8_verify(args) -> int:
    outdir = _out_dir(args)
    t = args.t
    report = fig8.verify_report(t)
    path = _write_json(outdir / "fig8_verify.json", report)
    _write_manifest(outdir, "fig8 verify", {"t": str(t)}, None, [path])
    print(f"t = {t}: relation_exact={report['relation_exact']} obstruction={report['obstruction']}")
    print(f"longitude spectrum: {report['longitude_spectrum']}")
    print(f"wrote {path}")
    return 0 if report["relation_exact"] else 1


def cmd_fig8_sweep(args) -> int:
    if args.steps < 1:
        print("fig8 sweep needs --steps >= 1", file=sys.stderr)
        return 2
    outdir = _out_dir(args)
    rows = fig8.sweep_rows(args.t_min, args.t_max, args.steps)
    path = _write_csv(outdir / "fig8_sweep.csv", rows[0], (r.values() for r in rows))
    params = {"t_min": str(args.t_min), "t_max": str(args.t_max), "steps": args.steps}
    _write_manifest(outdir, "fig8 sweep", params, None, [path])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cusp_lattice(s) -> dict:
    """rho_t's cusp lattice (u, b) at t = t(s), the rational that the float t(s) names, as the manifests record it."""
    t = Fraction(fig8.t_of_s(s))
    u, b = fig8.peripheral_lattice(t)
    return {"t": str(t), "u": u, "b": b}


def cmd_cusp_volume(args) -> int:
    if args.nodes < 1:
        print(f"cusp volume needs --nodes >= 1, not {args.nodes}", file=sys.stderr)
        return 2
    outdir = _out_dir(args)
    q = hilbert.QuadratureSpec(sphere_nodes=args.nodes)
    s = float(args.s)
    if s == 0:
        print("cusp volume needs s != 0 (the hyperbolic point has a different normal form)", file=sys.stderr)
        return 2
    if not args.cutoffs:
        print("cusp volume needs at least one --cutoffs value", file=sys.stderr)
        return 2
    lattice = _cusp_lattice(s)
    fd = cuspvol.CuspFundamentalDomain(floor=args.k, dilation=abs(lattice["u"]), translation=lattice["b"])
    rows = cuspvol.cusp_volume_table(fd, args.cutoffs, q)
    columns = ("cutoff", "estimate", "stderr", "increment_ratio")
    csv_path = _write_csv(outdir / "cusp_volume.csv", columns, ([r[c] for c in columns] for r in rows))
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
        {"s": s, "lattice": lattice, "k": args.k, "cutoffs": args.cutoffs, "nodes": q.sphere_nodes},
        args.seed,
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
    if s == 0:
        print("cusp displacement needs s != 0", file=sys.stderr)
        return 2
    if not args.levels:
        print("cusp displacement needs at least one --levels value", file=sys.stderr)
        return 2
    lattice = _cusp_lattice(s)
    prof = cuspvol.displacement_profile(s, lattice["b"], args.levels, ambient_level=args.ambient_level)
    csv_path = _write_csv(outdir / "displacement.csv", ("level", "displacement"), zip(prof.levels, prof.displacements))
    svg_path = domains.write_curve_svg(
        outdir / "displacement.svg", prof.levels, prof.displacements, x_label="level", y_label="displacement"
    )
    _write_manifest(
        outdir,
        "cusp displacement",
        {"s": s, "lattice": lattice, "levels": args.levels, "ambient_level": prof.ambient_level},
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
    if not isinstance(payload, dict) or not {"A", "B"} <= payload.keys():
        print(f"error: {args.infile} does not hold both generators A and B", file=sys.stderr)
        return 2
    gens = []
    for k in ("A", "B"):
        try:
            gens.append(projlin.matrix_from_json(payload[k]))
        except ValueError as err:
            print(f"error: {args.infile}: generator {k}: {err}", file=sys.stderr)
            return 2
    try:
        res = cusplie.normalize_pair(*gens)
    except ValueError as err:
        print(f"normalization failed: {err}", file=sys.stderr)
        return 1
    path = _write_json(outdir / "normalization.json", res.to_json())
    _write_manifest(outdir, "lattice normalize", {"in": str(args.infile)}, None, [path])
    print(f"sign={res.sign} residual={res.residual:.3e}")
    print(f"wrote {path}")
    return 0


def cmd_domain_export(args) -> int:
    if args.grid < 2:
        print(f"domain export needs --grid >= 2, not {args.grid}", file=sys.stderr)
        return 2
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
    from . import claims  # only selftest compiles the table
    results = [row.check() for row in claims.TABLE]
    print("\n".join(line for _, line in results))
    held = sum(ok for ok, _ in results)
    print(f"{held}/{len(results)} claims hold")
    return 0 if held == len(results) else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="convexcusp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig8_p = sub.add_parser("fig8", help="holonomy family verification")
    fig8_sub = fig8_p.add_subparsers(dest="subcommand", required=True)
    v = fig8_sub.add_parser("verify", help="relation, spectra and obstruction report")
    v.add_argument("--t", type=Fraction, required=True, help='family parameter, "p/q" or a decimal, read exactly')
    v.add_argument("--out")
    v.set_defaults(func=cmd_fig8_verify)
    sw = fig8_sub.add_parser("sweep", help="CSV of the verify record along an exact grid of t")
    sw.add_argument("--t-min", type=Fraction, required=True, help="first t, read exactly")
    sw.add_argument("--t-max", type=Fraction, required=True, help="last t, read exactly")
    sw.add_argument("--steps", type=int, default=21)
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_fig8_sweep)

    cusp_p = sub.add_parser("cusp", help="cusp volume and displacement")
    cusp_sub = cusp_p.add_subparsers(dest="subcommand", required=True)
    cv = cusp_sub.add_parser("volume", help="truncated volume table (CSV + SVG)")
    cv.add_argument("--s", type=float, required=True)
    cv.add_argument("--k", type=_finite_float, default=1.0)
    cv.add_argument("--cutoffs", type=_float_list, default="10,20,40,80")
    cv.add_argument("--nodes", type=int, default=hilbert.DEFAULT_QUADRATURE.sphere_nodes)
    cv.add_argument("--seed", type=int, default=0, help="recorded in the manifest; the table does not depend on it")
    cv.add_argument("--out")
    cv.set_defaults(func=cmd_cusp_volume)
    cd = cusp_sub.add_parser("displacement", help="horoball displacement profile (CSV + SVG)")
    cd.add_argument("--s", type=float, required=True)
    cd.add_argument("--levels", type=_float_list, default="1,2,4,8,16")
    cd.add_argument("--ambient-level", type=_finite_float, default=None)
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
    de.add_argument("--t", type=_finite_float)
    de.add_argument("--level", type=_finite_float, default=0.0)
    de.add_argument("--obj")
    de.add_argument("--svg")
    de.add_argument("--x3", type=_finite_float, default=0.0)
    de.add_argument("--x2-min", type=_finite_float, default=0.5)
    de.add_argument("--x2-max", type=_finite_float, default=4.0)
    de.add_argument("--x3-min", type=_finite_float, default=-2.0)
    de.add_argument("--x3-max", type=_finite_float, default=2.0)
    de.add_argument("--grid", type=int, default=32)
    de.add_argument("--out")
    de.set_defaults(func=cmd_domain_export)

    st = sub.add_parser("selftest", help="measure every claim of the table against its bound")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ZeroDivisionError as err:  # Fraction("1/0"); argparse catches only TypeError and ValueError
        parser.error(f"invalid rational: {err}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
