import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import argparse
import numpy as np
import pytest

from quadrinomials import cli
from quadrinomials.families import QuadSpec, build_quadrinomial, kappa_limits
from quadrinomials.polycore import NoConvergence, RootSet, find_roots
from quadrinomials.stability import CurveSet
from quadrinomials.univalent import BoundaryImage


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
    assert code == 2 and "error:" in err and "got 6" in err


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


def test_univalent_solves_half_the_phi_k_and_mirrors_the_rest(capsys, monkeypatch):
    """phi_k(N, N-k)(z) = phi_k(N, k)(-z), so only k <= (N-1)/2 and k = N are
    solved; row N-k repeats row k, and each row is within 1e-12 of a direct solve."""
    solved = []
    phi_k = cli.phi_k
    monkeypatch.setattr(cli, "phi_k", lambda N, k: solved.append(k) or phi_k(N, k))
    code, out, _ = run(capsys, "univalent", "--s", "0", "--N", "9", "--json")
    assert code == 0
    assert solved == [1, 2, 3, 4, 9]
    devs = [row["max_circle_deviation"] for row in json.loads(out)["payload"]["phi_k"]]
    assert devs[:8] == devs[7::-1]
    for k, d in enumerate(devs, 1):
        direct = max(abs(abs(r.value) - 1.0) for r in find_roots(phi_k(9, k)).roots)
        assert d == direct if k in solved else abs(d - direct) <= 1e-12


def test_univalent_summary_separates_top_kernel(capsys):
    code, out, _ = run(capsys, "univalent", "--s", "0", "--N", "5")
    assert code == 0
    line = next(row for row in out.splitlines() if row.startswith("phi_k"))
    below, top = line.split(";")
    assert "k=1..4:" in below and float(below.split(":")[1]) <= 1e-8
    assert "k=5" in top and float(top.split(":")[1]) > 1.0
    assert "top kernel" not in top and "not a kernel" in top


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


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "angles.json"
    code, out, err = run(capsys, "cusps", "--N", "5", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error:") and str(target) in err
    # the computation runs before the file is opened, so a failed one creates none
    target = tmp_path / "angles.json"
    code, out, err = run(capsys, "cusps", "--N", "6", "--out", str(target))
    assert code == 2 and out == "" and not target.exists()


def test_json_output_formats_no_csv(capsys, monkeypatch):
    def refuse(self, stream):
        raise AssertionError("CSV formatted for --json")

    monkeypatch.setattr(CurveSet, "to_csv", refuse)
    monkeypatch.setattr(BoundaryImage, "to_csv", refuse)
    code, out, _ = run(capsys, "stability", "--n", "4", "--samples", "10", "--json")
    assert code == 0 and json.loads(out)["command"] == "stability"
    code, out, _ = run(capsys, "univalent", "--s", "1", "--N", "5", "--boundary", "64", "--json")
    assert code == 0 and len(json.loads(out)["payload"]["boundary"]["samples"]) == 64


def test_argparse_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["factor", "--family", "P", "--N", "5"])  # missing kappa
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        cli.main(["roots", "--family", "X", "--kappa", "1", "--N", "5"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_roots_json_is_strict_at_an_overflowing_root(capsys):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    # _polish warns on the |z|^N overflow at the root near -3; pytest turns that into an error.
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run(capsys, "roots", "--family", "P", "--kappa", "3", "--N", "1000", "--json")
    assert code == 0
    roots = json.loads(out, parse_constant=reject)["payload"]["roots"]
    assert sum(r["multiplicity"] for r in roots) == 1000
    assert max(r["residual"] for r in roots) <= 1e-12


def test_numeric_failure_exit_code(capsys, monkeypatch):
    def boom(p):
        raise NoConvergence("stalled", RootSet((), p.degree))

    monkeypatch.setattr(cli, "find_roots", boom)
    code, _, err = run(capsys, "roots", "--family", "P", "--kappa", "1", "--N", "5")
    assert code == 3 and "numeric failure" in err


@pytest.mark.parametrize("family, kappa, N", [("P", "1e16", 11), ("Q", "1e30", 5)])
def test_uncertified_cluster_at_large_kappa_is_a_numeric_failure(capsys, family, kappa, N):
    # The companion seeds collapse onto the root -1/kappa, a tight cluster that
    # certification refuses; it used to come back as one multiple root and a
    # wrong circle count with exit 0.
    with pytest.raises(NoConvergence) as exc:
        find_roots(build_quadrinomial(QuadSpec(family, float(kappa), N)))
    assert max(r.multiplicity for r in exc.value.best.roots) > 1
    code, out, err = run(capsys, "roots", "--family", family, "--kappa", kappa, "--N", str(N))
    assert code == 3 and out == "" and "numeric failure" in err


@pytest.mark.parametrize("command", ["roots", "criterion"])
def test_exact_kappa_beyond_the_float_range_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--family", "P", "--kappa", "1" + "0" * 400, "--N", "5")
    assert code == 2 and out == "" and "kappa must be finite" in err


def test_criterion_observed_is_the_roots_classification(capsys):
    # criterion's "observed" and roots' circle count are one decision: both
    # families, N = 3..41, each exact interval end and one float near it.
    # A refused solve exits 3 from both commands.
    rng = np.random.default_rng(20)
    solved = 0
    for family in "PQ":
        for N in range(3, 42):
            for edge in kappa_limits(family, N):
                near = float(edge) + float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(-15, -2)
                for kappa in (str(edge), repr(near)):
                    argv = ["--family", family, f"--kappa={kappa}", "--N", str(N), "--json"]
                    code, out, _ = run(capsys, "criterion", *argv)
                    roots_code, roots_out, _ = run(capsys, "roots", *argv)
                    assert code in (0, 3) and roots_code == code
                    if code == 0:
                        observed = json.loads(out)["payload"]["observed"]
                        on_circle = json.loads(roots_out)["payload"]["classification"]["on_circle"]
                        assert observed == (on_circle == N), (family, kappa, N)
                        solved += 1
    assert solved >= 300  # of 312


def _module_command(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    pins = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(src), **pins)
    return [sys.executable, "-W", "error", "-m", "quadrinomials.cli", *argv], env


def _run_module(*argv):
    cmd, env = _module_command(*argv)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_exit_codes():
    done = _run_module("criterion", "--family", "P", "--kappa", "5/3", "--N", "5", "--json")
    golden = Path(__file__).with_name("cli_golden") / "criterion_family_P_kappa_5_3_N_5_json.txt"
    assert (done.returncode, done.stdout, done.stderr) == (0, golden.read_text(), "")
    done = _run_module("factor", "--family", "P", "--kappa", "0.5", "--N", "5")
    assert done.returncode == 2 and done.stdout == "" and "error:" in done.stderr
    # two simple zeros at 1 +- 8.08e-7, not a double root the residual gate refuses
    done = _run_module("roots", "--family", "P", "--kappa=-1.0000000000058746", "--N", "19", "--json")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["payload"]["classification"]["on_circle"] == 17


def test_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while the CLI still writes
    cmd, env = _module_command("stability", "--n", "4", "--samples", "20000")
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "curve,t,a,b\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
    assert proc.returncode == 1
