"""Print the verdicts of the two disk tests on a fixed set of quadrinomials.

    python tests/disk_verdicts.py > verdicts.txt

Run from the repository root on two trees and diff the outputs: an empty diff
means ``cohn_on_circle(p)`` and ``trinomial_in_disk`` on the line of p' give
the same verdicts, and raise ``NoConvergence`` on the same inputs.  Each line
is one input, its family, the hex of its float kappa (or the exact end) and N,
then the two verdicts, each True, False or NoConvergence.

The set covers both families at N = 3..201: both interval ends at exact
rational kappa, three draws per end at float(end) +- 10^U(-16, -1) (the sign
drawn first), where p' has zeros at or next to +-1 and Schur-Cohn declines,
and two draws of kappa uniform on [lo - 0.5, hi + 0.5].  That is 3980 inputs
and 7960 verdicts.

The eigensolver's rounding depends on the BLAS thread count, so BLAS is
pinned to one thread unless the environment already sets a count.  This
file is not collected by pytest.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadrinomials.families import QuadSpec, build_quadrinomial, kappa_limits  # noqa: E402
from quadrinomials.polycore import NoConvergence  # noqa: E402
from quadrinomials.stability import (  # noqa: E402
    cohn_on_circle,
    quadrinomial_derivative_line,
    trinomial_in_disk,
)


def cases():
    rng = random.Random(2401)
    for family in ("P", "Q"):
        for N in range(3, 202):
            lo, hi = kappa_limits(family, N)
            for end in (lo, hi):
                yield f"end {family} {end} N={N}", QuadSpec(family, end, N)
                for _ in range(3):
                    sign = rng.choice((-1.0, 1.0))
                    kappa = float(end) + sign * 10 ** rng.uniform(-16.0, -1.0)
                    yield f"nearend {family} {kappa.hex()} N={N}", QuadSpec(family, kappa, N)
            for _ in range(2):
                kappa = rng.uniform(float(lo) - 0.5, float(hi) + 0.5)
                yield f"uniform {family} {kappa.hex()} N={N}", QuadSpec(family, kappa, N)


def verdict(test, *args) -> str:
    try:
        return str(test(*args))
    except NoConvergence:
        return "NoConvergence"


def main() -> int:
    for name, spec in cases():
        cohn = verdict(cohn_on_circle, build_quadrinomial(spec))
        disk = verdict(trinomial_in_disk, *quadrinomial_derivative_line(spec))
        print(f"{name}: {cohn} {disk}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
