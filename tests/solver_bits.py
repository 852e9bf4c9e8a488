"""Print the exact bits of find_roots on a fixed set of polynomials.

    OPENBLAS_NUM_THREADS=1 python tests/solver_bits.py > bits.txt

Run from the repository root on two trees and diff the outputs: an empty
diff means the solver returns the same roots, multiplicities and residuals
bit for bit.  Each line is one case: its name, then per root the hex of the
real and imaginary parts, the multiplicity and the hex of the residual; a
case that raises NoConvergence prints that and its ``best`` root set.

The set covers the eight tabulated endpoint cases and their derivatives at
N = 3..101, 171, 201 and 400; four seeded float kappa per (family, N) and
their derivatives at the same N; phi_k(N, k) for odd N = 5..21 and
k = 1..N; every Suffridge kernel of F_family(s, N) for N <= 32; and 600
seeded dense polynomials of degree 1..39.

The eigensolver's rounding depends on the BLAS thread count, so BLAS is
pinned to one thread unless the environment already sets a count.  This
file is not collected by pytest.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadrinomials.families import QuadSpec, build_quadrinomial, kappa_limits  # noqa: E402
from quadrinomials.polycore import NoConvergence, RealPoly, find_roots  # noqa: E402
from quadrinomials.univalent import F_family, ParityMismatch, phi_k  # noqa: E402

DEGREES = list(range(3, 102)) + [171, 201, 400]


def endpoint_kappas(N: int) -> list[tuple[str, Fraction]]:
    edge = Fraction(N, N - 2)
    if N % 2:
        return [("P", Fraction(-1)), ("P", edge), ("Q", -edge), ("Q", Fraction(1))]
    return [("P", Fraction(-1)), ("P", Fraction(1)), ("Q", -edge), ("Q", edge)]


def suffridge_kernels(s: int, N: int):
    """The n = N-1 difference-quotient kernels that suffridge_membership solves."""
    f = F_family(s, N)
    n = N - 1
    for k in range(1, n + 1):
        alpha = k * math.pi / (n + 1)
        sa = math.sin(alpha)
        kernel = RealPoly.of(f.coeff(j) * math.sin(j * alpha) / sa for j in range(1, n + 1))
        if kernel.degree >= 1:
            yield k, kernel


def cases():
    rng = random.Random(20240)
    for N in DEGREES:
        for family, kappa in endpoint_kappas(N):
            p = build_quadrinomial(QuadSpec(family, kappa, N))
            yield f"endpoint {family} {kappa} N={N}", p
            yield f"endpoint' {family} {kappa} N={N}", p.derivative()
        for family in ("P", "Q"):
            lo, hi = kappa_limits(family, N)
            for _ in range(4):
                kappa = rng.uniform(float(lo) - 0.5, float(hi) + 0.5)
                p = build_quadrinomial(QuadSpec(family, kappa, N))
                yield f"float {family} {kappa.hex()} N={N}", p
                yield f"float' {family} {kappa.hex()} N={N}", p.derivative()
    for N in range(5, 22, 2):
        for k in range(1, N + 1):
            yield f"phi_k N={N} k={k}", phi_k(N, k)
    for s in range(5):
        for N in range(5, 33):
            try:
                kernels = list(suffridge_kernels(s, N))
            except ParityMismatch:
                continue
            for k, kernel in kernels:
                yield f"kernel s={s} N={N} k={k}", kernel
    for i in range(600):
        degree = rng.randint(1, 39)
        c = [rng.gauss(0.0, 1.0) for _ in range(degree)] + [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)]
        yield f"dense {i} degree={degree}", RealPoly.of(c)


def describe(rs) -> str:
    return " ".join(
        f"{r.value.real.hex()},{r.value.imag.hex()},{r.multiplicity},{r.residual.hex()}"
        for r in rs.roots
    )


def main() -> int:
    for name, p in cases():
        try:
            line = describe(find_roots(p))
        except NoConvergence as exc:
            line = "NoConvergence best " + describe(exc.best)
        print(f"{name}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
