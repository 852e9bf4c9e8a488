import json
from fractions import Fraction

import argparse
import pytest

from quadrinomials import cli
from quadrinomials.polycore import NoConvergence, RootSet


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_kappa_grammar():
    assert cli.parse_kappa("5/3") == Fraction(5, 3)
    assert cli.parse_kappa(" -2 ") == Fraction(-2)
    assert isinstance(cli.parse_kappa("3"), Fraction)
    v = cli.parse_kappa("1.25")
    assert isinstance(v, float) and v == 1.25
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_kappa("jam")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_kappa("5/0")


def test_criterion_json_envelope(capsys):
    code, out, err = run(
        capsys, "criterion", "--family", "P", "--kappa", "5/3", "--N", "5", "--json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "criterion"
    assert doc["params"] == {"family": "P", "kappa": "5/3", "N": "5"}
    assert doc["payload"]["predicted"] is True
    assert doc["payload"]["observed"] is True
    assert doc["payload"]["worst_deviation"] <= 1e-6


def test_roots_text_output(capsys):
    code, out, _ = run(capsys, "roots", "--family", "Q", "--kappa", "1", "--N", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family Q  kappa 1  N 5"
    assert lines[-1] == "on circle 5, inside 0, outside 0"


def test_factor_exact_kappa(capsys):
    code, out, _ = run(capsys, "factor", "--family", "P", "--kappa", "5/3", "--N", "5")
    assert code == 0
    assert "(1+z)^3" in out
    code, out, _ = run(
        capsys, "factor", "--family", "P", "--kappa", "5/3", "--N", "5", "--json"
    )
    doc = json.loads(out)
    assert doc["payload"]["linear"] == [[-1, 3]]
    assert doc["payload"]["max_deviation"] <= 1e-10


def test_factor_requires_exact_limit_kappa(capsys):
    code, _, err = run(
        capsys, "factor", "--family", "P", "--kappa", "1.6666666666666667", "--N", "5"
    )
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "factor", "--family", "P", "--kappa", "1", "--N", "5")
    assert code == 2


def test_cusps(capsys):
    code, out, _ = run(capsys, "cusps", "--N", "11", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["payload"]["angles"]) == 4
    assert len(doc["payload"]["differences"]) == 3
    code, _, err = run(capsys, "cusps", "--N", "6")
    assert code == 2 and "error:" in err


def test_stability_text_is_csv(capsys):
    code, out, _ = run(capsys, "stability", "--n", "4", "--samples", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "curve,t,a,b"
    assert len(lines) == 1 + 2 * 10 + 2 * 11
    code, out, _ = run(capsys, "stability", "--n", "4", "--samples", "10", "--json")
    doc = json.loads(out)
    assert len(doc["payload"]["curves"]["III"]) == 11


def test_cohn(capsys):
    code, out, _ = run(capsys, "cohn", "--coeffs=-1,0,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["on_circle"] is True
    assert doc["payload"]["self_reciprocal"] == -1
    code, out, _ = run(capsys, "cohn", "--coeffs", "1,0.5,0.3")
    assert code == 0 and "False" in out
    code, _, err = run(capsys, "cohn", "--coeffs", "3")
    assert code == 2


def test_univalent_with_checks(capsys):
    code, out, _ = run(capsys, "univalent", "--s", "0", "--N", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["coefficients"][1] == 1.0
    phi = doc["payload"]["phi_k"]
    assert [v["k"] for v in phi] == [1, 2, 3, 4, 5]
    assert max(v["max_circle_deviation"] for v in phi[:-1]) <= 1e-8
    assert phi[-1]["max_circle_deviation"] > 1.0  # the k = N kernel leaves the circle
    w = doc["payload"]["W"]
    assert w["derivative_magnitudes"][:5] == [0.0] * 5
    assert w["identity_deviation"] <= 1e-10


def test_univalent_summary_separates_top_kernel(capsys):
    code, out, _ = run(capsys, "univalent", "--s", "0", "--N", "5")
    assert code == 0
    line = next(row for row in out.splitlines() if row.startswith("phi_k"))
    below, top = line.split(";")
    assert "k=1..4:" in below and float(below.split(":")[1]) <= 1e-8
    assert "k=5" in top and float(top.split(":")[1]) > 1.0


def test_univalent_boundary_samples(capsys):
    code, out, _ = run(
        capsys, "univalent", "--s", "1", "--N", "5", "--boundary", "64", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["boundary"]["simple"] is True
    assert len(doc["payload"]["boundary"]["samples"]) == 64
    code, out, _ = run(
        capsys, "univalent", "--s", "1", "--N", "5", "--boundary", "64"
    )
    rows = out.splitlines()
    start = rows.index("t,re,im")
    for row in rows[start + 1 : start + 4]:
        t, re, im = (float(x) for x in row.split(","))


def test_univalent_parity_error(capsys):
    code, _, err = run(capsys, "univalent", "--s", "1", "--N", "6")
    assert code == 2 and "error:" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "angles.json"
    code, out, _ = run(
        capsys, "cusps", "--N", "9", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "cusps"
    assert len(doc["payload"]["angles"]) == 3


def test_argparse_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["factor", "--family", "P", "--N", "5"])  # missing kappa
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        cli.main(["roots", "--family", "X", "--kappa", "1", "--N", "5"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_numeric_failure_exit_code(capsys, monkeypatch):
    def boom(p, options=None):
        raise NoConvergence("stalled", RootSet((), p.degree))

    monkeypatch.setattr(cli, "find_roots", boom)
    code, _, err = run(capsys, "roots", "--family", "P", "--kappa", "1", "--N", "5")
    assert code == 3 and "numeric failure" in err
