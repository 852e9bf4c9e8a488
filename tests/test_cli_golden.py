"""Byte-for-byte contract of the CLI's stdout, text and --json, on a fixed set
of invocations.  The files under tests/cli_golden/ hold the expected output;
`PYTHONPATH=src python tests/test_cli_golden.py` rewrites them from the current
code, which is only right when an output change is intended and stated.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from quadrinomials import cli

GOLDEN = Path(__file__).with_name("cli_golden")

INVOCATIONS = [
    "roots --family Q --kappa 1 --N 5",
    "roots --family p --kappa 0.5 --N 6",
    "criterion --family P --kappa 5/3 --N 5",
    "criterion --family q --kappa 1.2 --N 21",
    "factor --family P --kappa 5/3 --N 5",
    "factor --family Q --kappa 3/2 --N 6",
    "cusps --N 11",
    "stability --n 4 --samples 10",
    "stability --n 3 --samples 4",
    "cohn --coeffs=-1,0,1",
    "cohn --coeffs 1,0.5,0.3",
    "fejer --N 7",
    "alexander --N 6",
    "alexander --N 1",
    "univalent --s 0 --N 5",
    "univalent --s 1 --N 5 --boundary 16",
    "univalent --s 3 --N 6",
]
# params of univalent leave out --boundary when it is 0, the same as when absent
JSON_ONLY = ["univalent --s 1 --N 5 --boundary 0"]
CASES = [inv.split() for inv in INVOCATIONS] + [
    inv.split() + ["--json"] for inv in INVOCATIONS + JSON_ONLY
]


def _golden_path(argv) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)).strip("_") + ".txt")


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: _golden_path(argv).stem)
def test_cli_stdout_matches_golden(argv):
    assert _stdout(argv) == _golden_path(argv).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in CASES:
        _golden_path(argv).write_text(_stdout(argv))
