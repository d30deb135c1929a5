import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from convexcusp import claims, cli, cusplie, cuspvol, fig8, hilbert, projlin as pl
from convexcusp.cusplie import LieAlgElem, group_exp


def run(argv):
    return cli.main(argv)


def test_parse_numbers():
    def parse(text):
        return cli.build_parser().parse_args(["fig8", "verify", "--t", text]).t

    assert parse("1/2") == Fraction(1, 2)
    assert parse("3") == 3
    assert parse("0.25") == Fraction(1, 4)
    assert parse("0.3") == Fraction(3, 10) and parse("1e-3") == Fraction(1, 1000)
    assert all(type(parse(text)) is Fraction for text in ("1/2", "3", "0.25"))


def test_fig8_verify(tmp_path, capsys):
    assert run(["fig8", "verify", "--t", "1/2", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "fig8_verify.json"))
    assert report["relation_exact"] is True and report["obstruction"] is False
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["command"] == "fig8 verify"
    assert "fig8_verify.json" in manifest["outputs"]


def test_fig8_verify_quarter(tmp_path):
    assert run(["fig8", "verify", "--t", "1/4", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "fig8_verify.json"))
    assert report["longitude_spectrum"] == [[0.5, 3], [8.0, 1]]
    assert report["obstruction"] is True


def test_fig8_verify_reads_a_decimal_exactly(tmp_path):
    assert run(["fig8", "verify", "--t", "1/4", "--out", str(tmp_path / "q")]) == 0
    assert run(["fig8", "verify", "--t", "0.25", "--out", str(tmp_path / "d")]) == 0
    for name in ("fig8_verify.json", "manifest.json"):
        assert (tmp_path / "q" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
    assert run(["fig8", "verify", "--t", "0.3", "--out", str(tmp_path / "p3")]) == 0
    report = json.load(open(tmp_path / "p3" / "fig8_verify.json"))
    assert report["t"] == "3/10" and report["relation_exact"] is True and report["relation_residual"] == 0.0


@pytest.mark.parametrize("t", ["inf", "nan", "x", "1/0"])
def test_fig8_verify_rejects_a_non_number(tmp_path, t):
    with pytest.raises(SystemExit) as err:
        run(["fig8", "verify", "--t", t, "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("t", ["1e300", "1e-300", "1e400", "1e-400", "1e103", "1e107"])
def test_fig8_verify_out_of_range_is_an_error_line(tmp_path, t):
    # the whole command line, so that a traceback would reach stderr: one
    # error line that names t.  At 1e400 and 1e-400 2t rounds to inf and
    # 0 (s_of_t); at 1e300 the eigenvalue 1/(8t^3) of the record rounds to
    # 0.0, at 1e103 and 1e107 to a subnormal (1.25e-310 and 1.24e-322,
    # with 45 and 5 significant bits), and at 1e-300 it overflows
    # (verify_report)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "convexcusp.cli", "fig8", "verify", "--t", t, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: t = {t} is out of range: ") and proc.stderr.count("\n") == 1


def test_fig8_verify_keeps_the_last_normal_eigenvalue(tmp_path):
    # at 1e102 the eigenvalue 1/(8t^3) = 1.25e-307 is still a normal float
    assert run(["fig8", "verify", "--t", "1e102", "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "fig8_verify.json"))
    assert report["longitude_spectrum"][0][0] == 1.25e-307


@pytest.mark.parametrize(
    "t", [f"{5 * 10 ** (k - 1) + side}/{10 ** k}" for k in range(1, 13) for side in (1, -1)]
    + ["1e-4", "1e-8", "1e-15", "1e-30"]
)
def test_fig8_verify_normalizes_next_to_the_unipotent_point_and_at_small_t(tmp_path, t):
    # t = 1/2 +- 10^-k for k = 1..12, where s is about -+4 10^-k, and small t
    assert run(["fig8", "verify", "--t", t, "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "fig8_verify.json"))
    params, s = report["normalized_params"], report["s"]
    assert params["sign"] == 1 and params["residual"] == 0.0
    assert abs(params["longitude"]["f_value"] - s) <= 1e-9 * abs(s)


def test_fig8_sweep(tmp_path):
    assert run(["fig8", "sweep", "--t-min", "0.3", "--t-max", "0.7", "--steps", "5", "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "fig8_sweep.csv").read().splitlines()
    assert lines[0] == "t,s,relation_exact,eig_triple,eig_single,obstruction,sign,u,b,residual,shape_im"
    assert [line.split(",")[0] for line in lines[1:]] == ["3/10", "2/5", "1/2", "3/5", "7/10"]
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["parameters"] == {"t_min": "3/10", "t_max": "7/10", "steps": 5}


def test_fig8_sweep_golden_grid_reads_one_half_unobstructed(tmp_path):
    # 0.3 and 0.7 are read exactly, so row 10 of 21 is t = 1/2 itself: the
    # degenerate, unipotent record, with its normal-form columns left blank
    assert run(["fig8", "sweep", "--t-min", "0.3", "--t-max", "0.7", "--steps", "21", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig8_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 and all(r["relation_exact"] == "True" for r in rows)
    half = rows[10]
    assert half["t"] == "1/2" and half["obstruction"] == "False" and half["sign"] == "0"
    assert (half["eig_triple"], half["eig_single"]) == ("1", "1")
    assert half["u"] == half["b"] == half["residual"] == half["shape_im"] == ""
    assert all(r["obstruction"] == "True" and r["sign"] == "1" for r in rows if r is not half)


def test_fig8_sweep_single_step_and_bad_steps(tmp_path, capsys):
    assert run(["fig8", "sweep", "--t-min", "1/3", "--t-max", "0.7", "--steps", "1", "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "fig8_sweep.csv").read().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1/3,")
    for steps in ("0", "-2"):
        capsys.readouterr()
        assert run(["fig8", "sweep", "--t-min", "0.3", "--t-max", "0.7", "--steps", steps, "--out", str(tmp_path)]) == 2
        assert "--steps >= 1" in capsys.readouterr().err


def test_cusp_volume(tmp_path):
    rc = run(
        [
            "cusp", "volume", "--s", "2.772588722239781", "--k", "1.0",
            "--cutoffs", "5,10", "--nodes", "288", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = open(tmp_path / "cusp_volume.csv").read().splitlines()
    assert lines[0] == "cutoff,estimate,stderr,increment_ratio"
    assert len(lines) == 3
    assert (tmp_path / "cusp_volume.svg").exists()


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_cusp_volume_needs_a_positive_node_count(tmp_path, capsys, nodes):
    assert run(["cusp", "volume", "--s", "1.5", "--nodes", nodes, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"cusp volume needs --nodes >= 1, not {nodes}\n"


@pytest.mark.parametrize("s", ["40", "2830"])
def test_cusp_volume_at_large_s_integrates_the_shells(tmp_path, s):
    # b = 383 at s = 40 and 9.3e154 at s = 2830, far beyond the shells'
    # x3 <= sqrt(2 (X + u - k)): every estimate within 1e-3 of a 16 x 24
    # node rule, every stderr nonzero, and no overflow on the way
    assert run(["cusp", "volume", "--s", s, "--nodes", "128", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "cusp_volume.csv", newline="")))
    u, b = fig8.peripheral_lattice(Fraction(fig8.t_of_s(float(s))))
    fd = cuspvol.CuspFundamentalDomain(floor=1.0, dilation=abs(u), translation=b)
    fine = cuspvol.cusp_volume_table(fd, [10, 20, 40, 80], hilbert.QuadratureSpec(sphere_nodes=128, grid_shape=(16, 24)))
    assert len(rows) == len(fine) == 4
    for row, ref in zip(rows, fine):
        assert float(row["estimate"]) == pytest.approx(ref["estimate"], rel=1e-3) and float(row["stderr"]) > 0


def test_a_float_fault_is_an_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cuspvol, "cusp_volume_table", lambda *args: np.array([1e308]) * 10)
    assert run(["cusp", "volume", "--s", "1.5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: overflow encountered in multiply\n"


#: the benchmark's cusp volume table (cutoff, estimate, stderr,
#: increment_ratio), the dilation integrated out in closed form; a change
#: that only speeds the density up must keep it.  The stderr is the
#: fine/coarse difference of estimates near 0.6, so it is held to an
#: absolute 1e-15 (a few units in the last place of the estimates)
GOLDEN_VOLUME_TABLE = [
    (10, 0.581669576076, 1.55684028447e-07, float("nan")),
    (20, 0.651267638692, 1.55687376363e-07, 0.119652231231),
    (40, 0.702461326914, 1.55687400866e-07, 0.735561972514),
    (80, 0.739513830155, 1.556874132e-07, 0.723770928181),
]


def test_cusp_volume_golden_table(tmp_path):
    rc = run(
        [
            "cusp", "volume", "--s", "2.772588722239781", "--k", "1", "--cutoffs", "10,20,40,80",
            "--nodes", "128", "--seed", "3", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = open(tmp_path / "cusp_volume.csv").read().splitlines()
    assert lines[0] == "cutoff,estimate,stderr,increment_ratio" and len(lines) == 5
    for line, golden in zip(lines[1:], GOLDEN_VOLUME_TABLE):
        row = [float(v) for v in line.split(",")]
        assert row[0] == golden[0]
        np.testing.assert_allclose(row[1:], golden[1:], rtol=1e-10, atol=1e-15, equal_nan=True)
        assert row[2] < 1e-5


def test_cusp_volume_determinism(tmp_path):
    # one route, whatever the seed: the manifest records it, and nothing
    # else reads it; a run without --seed records 0
    args = ["cusp", "volume", "--s", "1.5", "--cutoffs", "4,8", "--nodes", "288"]
    outs = {seed: tmp_path / str(seed) for seed in (3, 7, None)}
    for seed, out in outs.items():
        assert run(args + ([] if seed is None else ["--seed", str(seed)]) + ["--out", str(out)]) == 0
    for name in ("cusp_volume.csv", "cusp_volume.svg"):
        assert (outs[3] / name).read_bytes() == (outs[7] / name).read_bytes() == (outs[None] / name).read_bytes()
    manifests = {seed: json.load(open(out / "manifest.json")) for seed, out in outs.items()}
    assert [manifests[seed].pop("seed") for seed in (3, 7, None)] == [3, 7, 0]
    assert manifests[3] == manifests[7] == manifests[None]
    assert not {"method", "samples"} & manifests[3]["parameters"].keys()


@pytest.mark.parametrize("option", [["--method", "mc"], ["--samples", "200"]])
def test_cusp_volume_has_no_integrator_options(tmp_path, option):
    with pytest.raises(SystemExit) as err:
        run(["cusp", "volume", "--s", "1.5", *option, "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("command, option", [("volume", "--cutoffs"), ("displacement", "--levels")])
@pytest.mark.parametrize("text", ["", ","])
def test_cusp_commands_with_an_empty_list_are_a_usage_error(tmp_path, capsys, command, option, text):
    # one stderr line that names the option, as for --s 0
    assert run(["cusp", command, "--s", "1.5", option, text, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"cusp {command} needs at least one {option} value\n"


@pytest.mark.parametrize("command, option, text", [
    ("volume", "--k", "nan"), ("volume", "--k", "inf"), ("volume", "--cutoffs", "nan"), ("volume", "--cutoffs", "10,inf"),
    ("displacement", "--levels", "nan"), ("displacement", "--levels", "1,inf"), ("displacement", "--ambient-level", "nan"),
])
def test_cusp_commands_refuse_a_non_finite_option(tmp_path, capsys, command, option, text):
    # a usage error that names the option, before any integration
    with pytest.raises(SystemExit) as err:
        run(["cusp", command, "--s", "1.5", option, text, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: not a finite number: {text.split(',')[-1]!r}\n")
    assert not any(tmp_path.iterdir())


def test_cusp_displacement(tmp_path):
    rc = run(["cusp", "displacement", "--s", "2.7725887", "--levels", "1,2,4", "--out", str(tmp_path)])
    assert rc == 0
    lines = open(tmp_path / "displacement.csv").read().splitlines()
    assert lines[0] == "level,displacement" and len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("s", [2.772588722239781, -0.7])
def test_cusp_commands_record_the_lattice_of_rho_t(tmp_path, s):
    # both commands integrate rho_t's exact normal form at t = t(s), and the
    # manifest records that lattice; t(log 16) is 1/4 exactly
    t = Fraction(fig8.t_of_s(s))
    rep = fig8.normalization_consistency(t)
    assert rep.dilation_f == pytest.approx(s, rel=1e-15)
    volume = ["cusp", "volume", "--s", repr(s), "--cutoffs", "4", "--nodes", "128", "--out", str(tmp_path / "v")]
    displacement = ["cusp", "displacement", "--s", repr(s), "--levels", "1,2", "--out", str(tmp_path / "d")]
    for argv, out in ((volume, "v"), (displacement, "d")):
        assert run(argv) == 0
        lattice = json.load(open(tmp_path / out / "manifest.json"))["parameters"]["lattice"]
        assert lattice == {"t": str(t), "u": rep.dilation_f, "b": rep.meridian_b}
    if s > 0:
        assert lattice["t"] == "1/4"


@pytest.mark.parametrize("command", ["volume", "displacement"])
def test_cusp_commands_at_the_unipotent_point(tmp_path, capsys, command):
    # s = 0 is a usage error; s = 1e-17 names t(s) = 1/2 exactly, where rho_t has no lattice
    assert run(["cusp", command, "--s", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["cusp", command, "--s", "1e-17", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: t = 1/2 has no cusp lattice")


@pytest.mark.parametrize("command", ["volume", "displacement"])
@pytest.mark.parametrize("s, rounds_to", [("3000", "0.0"), ("-3000", "inf")])
def test_cusp_commands_at_an_s_whose_t_leaves_the_floats(tmp_path, capsys, command, s, rounds_to):
    # t(s) = exp(-s/4)/2 underflows at 3000 and overflows at -3000: one error line that names s
    assert run(["cusp", command, f"--s={s}", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: s = {float(s)!r} is out of range: t = exp(-s/4)/2 rounds to {rounds_to} as a float\n"


# at b = 2.2e153 (s = 2800) the translate's x1 is near 2.4e306: no overflow
# warning, which pytest turns into an error, from group_exp's cubic test or
# from the chord to the translate, which is tested before any solve; at
# b = 9.3e154 (s = 2830) b^2 overflows, and b is tested before group_exp
@pytest.mark.parametrize("s", ["140", "700", "2800", "2830"])
def test_cusp_displacement_beyond_float_resolution_names_b(tmp_path, capsys, s):
    # from s = 140 (b = 1.9e8) the translate of a level-1 point has x1 near
    # b^2/2, whose float spacing exceeds its height 0.5 above the ambient horoball
    b = fig8.peripheral_lattice(Fraction(fig8.t_of_s(float(s))))[1]
    assert run(["cusp", "displacement", "--s", s, "--levels", "1,2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: translation b = {b:.6g} is beyond float resolution at level 1: ")
    assert err.count("\n") == 1 and "floats are" in err and "height 0.5 above the ambient horoball" in err


def test_cusp_displacement_below_float_resolution(tmp_path):
    # s = 130 (b = 5.3e7) still measures
    assert run(["cusp", "displacement", "--s", "130", "--levels", "1,2", "--out", str(tmp_path)]) == 0
    values = [float(line.split(",")[1]) for line in open(tmp_path / "displacement.csv").read().splitlines()[1:]]
    assert values[0] > values[1] > 0


def test_lattice_normalize(tmp_path):
    A = pl.to_float(group_exp(LieAlgElem("LPrime", (0.6, 0.2))))
    B = pl.to_float(group_exp(LieAlgElem("LPrime", (0.0, 0.9))))
    G = np.array([[1.0, 0.5, 0, 0], [0, 1, 0.25, 0], [0.5, 0, 1, 0], [0, 0, 0.5, 1]])
    Gi = np.linalg.inv(G)
    infile = tmp_path / "gens.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(G @ A @ Gi), "B": pl.matrix_to_json(G @ B @ Gi)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 0
    report = json.load(open(tmp_path / "normalization.json"))
    assert report["sign"] == 1
    assert report["residual"] <= 1e-9
    assert len(report["conjugator"]["rows"]) == 4


def test_lattice_normalize_file_keeps_its_wire_format(tmp_path):
    # normalization.json holds the bytes of the hand-built float wire
    # format that NormalizationResult.to_json wrote before it went
    # through projlin.matrix_to_json
    G = np.array([[1.0, 0.5, 0, 0], [0, 1, 0.25, 0], [0.5, 0, 1, 0], [0, 0, 0.5, 1]])
    A, B = (G @ pl.to_float(group_exp(LieAlgElem("LPrime", p))) @ np.linalg.inv(G) for p in ((0.6, 0.2), (0.0, 0.9)))
    infile = tmp_path / "gens.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(A), "B": pl.matrix_to_json(B)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 0
    res = cusplie.normalize_pair(A, B)
    C = np.array([[float(v) for v in row] for row in res.conjugator])
    old = {"sign": res.sign, "conjugator": {"regime": "float", "rows": C.tolist()}, "residual": res.residual}
    expected = json.dumps(old, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "normalization.json").read_text() == expected


def test_lattice_normalize_reads_an_exact_pair_exactly(tmp_path):
    # the peripheral pair of rho_(1/4) as exact JSON: the lifts and the
    # translation-line basis stay exact, and the logs u are the one float step
    t = Fraction(1, 4)
    A, B = fig8.word(t, "m"), fig8.longitude(t)
    infile = tmp_path / "exact.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(A), "B": pl.matrix_to_json(B)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 0
    res = cusplie.normalize_pair(A, B)
    expected = json.dumps(res.to_json(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "normalization.json").read_text() == expected
    assert res.to_json() != cusplie.normalize_pair(pl.to_float(A), pl.to_float(B)).to_json()
    (a1, b1), (a2, b2) = res.params
    assert res.sign == 1 and res.residual <= 1e-14 and a1 == 0.0 and abs(b2) <= 1e-15
    assert a2 == pytest.approx(fig8.s_of_t(t), rel=1e-15)
    assert abs(b1) == pytest.approx(fig8.normalization_consistency(t).meridian_b, rel=1e-14)


def test_lattice_normalize_bad_input(tmp_path):
    # commuting pair of rank 1 is rejected with a nonzero exit
    A = pl.to_float(group_exp(LieAlgElem("LPrime", (0.5, 0.0))))
    infile = tmp_path / "bad.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(A), "B": pl.matrix_to_json(A @ A)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 1


def test_lattice_normalize_rejects_trivial_generator(tmp_path, capsys):
    # the identity has a zero log, so the pair spans at most one dimension
    B = pl.to_float(group_exp(LieAlgElem("LPrime", (0.0, 0.9))))
    infile = tmp_path / "trivial.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(np.eye(4)), "B": pl.matrix_to_json(B)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 1
    assert "normalization failed: generators span less than two dimensions" in capsys.readouterr().err
    assert not (tmp_path / "normalization.json").exists()


def test_lattice_normalize_missing_generator_is_usage_error(tmp_path, capsys):
    A = pl.to_float(group_exp(LieAlgElem("LPrime", (0.5, 0.0))))
    infile = tmp_path / "one.json"
    with open(infile, "w") as fh:
        json.dump({"A": pl.matrix_to_json(A)}, fh)
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 2
    assert "does not hold both generators A and B" in capsys.readouterr().err
    assert not (tmp_path / "normalization.json").exists()


_FLOAT_ROWS = {"regime": "float", "rows": np.eye(4).tolist()}


@pytest.mark.parametrize("payload,generator,reason", [
    ({"A": [1, 2], "B": 3}, "A", "not a matrix object"),
    ({"A": {"rows": np.eye(4).tolist()}, "B": _FLOAT_ROWS}, "A", "not a matrix object"),
    ({"A": _FLOAT_ROWS, "B": {"regime": "float", "rows": np.eye(3).tolist()}}, "B", "rows are not 4x4"),
])
def test_lattice_normalize_malformed_generator_is_usage_error(tmp_path, capsys, payload, generator, reason):
    # a list, a generator with no "regime" key and 3x3 rows: one error line
    # naming the file and the generator, exit 2, before any normalization
    infile = tmp_path / "malformed.json"
    infile.write_text(json.dumps(payload))
    assert run(["lattice", "normalize", "--in", str(infile), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {infile}: generator {generator}: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "normalization.json").exists()


def test_domain_export(tmp_path):
    rc = run(
        ["domain", "export", "--family", "Dt", "--t", "0.5", "--obj", "d.obj", "--svg", "d.svg",
         "--x2-min", "0.2", "--x2-max", "2.0", "--grid", "8", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "d.obj").exists() and (tmp_path / "d.svg").exists()


def test_domain_export_requires_format(tmp_path):
    assert run(["domain", "export", "--family", "D0", "--out", str(tmp_path)]) == 2


def test_domain_export_dt_requires_t(tmp_path):
    assert run(["domain", "export", "--family", "Dt", "--obj", "x.obj", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("option,value", [
    ("--t", "nan"), ("--t", "inf"), ("--level", "nan"), ("--x3", "-inf"), ("--x2-min", "nan"),
    ("--x2-max", "inf"), ("--x3-min", "nan"), ("--x3-max", "inf"), ("--grid", "0"), ("--grid", "1"),
])
def test_domain_export_refuses_bad_numbers(tmp_path, capsys, option, value):
    # a non-finite float option is an argparse usage error, and so is a
    # grid with fewer than two nodes a side; neither writes a mesh
    argv = ["domain", "export", "--family", "Dt", "--t", "0.5", "--obj", "d.obj", f"{option}={value}", "--out", str(tmp_path)]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    message = (f"domain export needs --grid >= 2, not {value}" if option == "--grid"
               else f"error: argument {option}: not a finite number: {value!r}")
    assert code == 2 and capsys.readouterr().err.endswith(message + "\n")
    assert not any(tmp_path.iterdir())


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["lattice", "normalize", "--in", str(bad), "--out", str(tmp_path)]) == 2
    assert run(["lattice", "normalize", "--in", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def test_output_directory_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVEXCUSP_OUT", str(tmp_path / "envout"))
    assert run(["fig8", "verify", "--t", "1/2"]) == 0
    assert (tmp_path / "envout" / "fig8_verify.json").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["fig8", "verify"])  # missing --t
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["nonsense"])
    assert err.value.code == 2


def test_selftest_prints_every_row_and_is_deterministic():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        subprocess.run([sys.executable, "-m", "convexcusp.cli", "selftest"], env=dict(env, PYTHONHASHSEED=seed),
                       capture_output=True, check=False)
        for seed in ("1", "2")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.decode().splitlines()
    n = len(claims.TABLE)
    assert n >= 13 and len({row.key for row in claims.TABLE}) == n
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", row.key] for row in claims.TABLE]
    assert lines[-1] == f"{n}/{n} claims hold"


def test_readme_lists_every_claim_row():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    assert re.findall(r"^\| `([a-z0-9-]+)` \|", readme, flags=re.M) == [row.key for row in claims.TABLE]


def test_selftest_fails_a_row_over_its_bound(monkeypatch, capsys):
    row = next(r for r in claims.TABLE if r.key == "limit-cusp-shape")
    value = row.measure(**row.inputs)
    monkeypatch.setattr(claims, "TABLE", (row._replace(bound=value / 2),))
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["FAIL", "limit-cusp-shape", f"{value:.3g}", "<=", f"{value / 2:g}"]
    assert out[1] == "0/1 claims hold"


def test_selftest_fails_a_row_under_its_floor(monkeypatch, capsys):
    row = next(r for r in claims.TABLE if r.key == "peripheral-convergence")
    value = row.measure(**row.inputs)
    monkeypatch.setattr(claims, "TABLE", (row._replace(bound=2 * value),))
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["FAIL", "peripheral-convergence", f"{value:.3g}", ">=", f"{2 * value:g}"]
    assert out[1] == "0/1 claims hold"


def test_selftest_fails_a_row_whose_measure_raises(monkeypatch, capsys):
    def diverges():
        raise ArithmeticError("no convergence")

    broken = claims.TABLE[0]._replace(measure=diverges, inputs={})
    monkeypatch.setattr(claims, "TABLE", (broken, claims.TABLE[1]))
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["FAIL", broken.key, "ArithmeticError:", "no", "convergence"]
    assert out[1].startswith(f"PASS {claims.TABLE[1].key}") and out[2] == "1/2 claims hold"
