import json

import numpy as np
import pytest

from convexcusp import cli, projlin as pl
from convexcusp.cusplie import LieAlgElem, group_exp


def run(argv):
    return cli.main(argv)


def test_parse_numbers():
    from fractions import Fraction

    assert cli.parse_number("1/2") == Fraction(1, 2)
    assert cli.parse_number("3") == 3
    assert cli.parse_number("0.25") == 0.25


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


def test_fig8_sweep(tmp_path):
    assert run(["fig8", "sweep", "--t-min", "0.3", "--t-max", "0.7", "--steps", "5", "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "fig8_sweep.csv").read().splitlines()
    assert lines[0] == (
        "t,s,eig_triple,eig_single,obstructed,meridian_dev,longitude_dev,shape_im,"
        "closed_triple,triple_rel_dev,closed_single,single_rel_dev"
    )
    assert len(lines) == 6


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


#: the benchmark's cusp volume table (cutoff, estimate, stderr,
#: increment_ratio) with every unit ball integrated in its domain's
#: reflection frame; a change that only speeds the density up must keep it
GOLDEN_VOLUME_TABLE = [
    (10, 0.578759286034, 0.0090578794742, float("nan")),
    (20, 0.648093602749, 0.0101136985036, 0.119798193114),
    (40, 0.699122980239, 0.0105335371827, 0.735990198028),
    (80, 0.736066114906, 0.010723017464, 0.723958168511),
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
        np.testing.assert_allclose(row[1:], golden[1:], rtol=1e-10, atol=0, equal_nan=True)


def test_cusp_volume_determinism(tmp_path):
    args = ["cusp", "volume", "--s", "1.5", "--cutoffs", "4,8", "--nodes", "288",
            "--method", "mc", "--samples", "200", "--seed", "7"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "cusp_volume.csv").read_bytes() == (out2 / "cusp_volume.csv").read_bytes()
    assert (out1 / "cusp_volume.svg").read_bytes() == (out2 / "cusp_volume.svg").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_cusp_displacement(tmp_path):
    rc = run(["cusp", "displacement", "--s", "2.7725887", "--levels", "1,2,4", "--out", str(tmp_path)])
    assert rc == 0
    lines = open(tmp_path / "displacement.csv").read().splitlines()
    assert lines[0] == "level,displacement" and len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]


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
