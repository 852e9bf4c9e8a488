"""Print the exact bits of find_roots on a fixed set of polynomials.

    OPENBLAS_NUM_THREADS=1 python tests/solver_bits.py > bits.txt
    python tests/solver_bits.py --compare old.txt new.txt

Run from the repository root on two trees and diff the outputs: an empty
diff means the solver returns the same roots, multiplicities and residuals
bit for bit.  Each line is one case: its name, then per root the hex of the
real and imaginary parts, the multiplicity and the hex of the residual; a
case that raises NoConvergence prints that and its ``best`` root set.

``--compare`` checks the solver contract between two such outputs instead:
every case keeps its NoConvergence status, its root count and its
multiplicities in order; every root moves by at most
1e-10 * max(1, |z|); and every residual of a converged case stays within
``polycore.RESIDUAL_SCALE``.  It prints the number of identical cases, the
number of changed cases per kind (the first word of the case name), the worst
relative root move per multiplicity and the worst residual, and exits 1 on a
breach.

The set covers the eight tabulated endpoint cases and their derivatives at
N = 3..101, 171, 201 and 400; four seeded float kappa per (family, N) and
their derivatives at the same N; phi_k(N, k) for odd N = 5..21 and
k = 1..N; every Suffridge kernel of F_family(s, N) for N <= 32; 600
seeded dense polynomials of degree 1..39; and 60 seeded ``cluster`` cases, an
m-fold root a (m = 2 or 3) with a simple root a + d within 4.5e-3 and up to
three roots more than 0.05 from a, which reach the split of a refused cluster;
then ``nearedge`` quadrinomials at float(end) +- 10^e for each interval end,
e in {-11.6, -11, -10.1} and N = 19, 41, 101 and 201, the band where the
double zero at an end splits into two simple zeros a few 1e-6 apart; and last,
``scaled``: each ``nearedge`` case times 2^-40 and 2^40.  A power of two moves
no zero, and the backward error is relative, so each ``scaled`` line must
print the roots, multiplicities and residuals of its ``nearedge`` twin; an
absolute term in the residual test shows up there as a changed multiplicity.

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

from numpy.polynomial import polynomial as npp  # noqa: E402

from quadrinomials.families import QuadSpec, build_quadrinomial, kappa_limits  # noqa: E402
from quadrinomials.polycore import RESIDUAL_SCALE, NoConvergence, RealPoly, find_roots  # noqa: E402
from quadrinomials.univalent import F_family, ParityMismatch, phi_k  # noqa: E402

DEGREES = list(range(3, 102)) + [171, 201, 400]


def endpoint_kappas(N: int) -> list[tuple[str, Fraction]]:
    edge = Fraction(N, N - 2)
    if N % 2:
        return [("P", Fraction(-1)), ("P", edge), ("Q", -edge), ("Q", Fraction(1))]
    return [("P", Fraction(-1)), ("P", Fraction(1)), ("Q", -edge), ("Q", edge)]


def suffridge_kernels(s: int, N: int):
    """All n = N-1 difference-quotient kernels; suffridge_membership solves the
    first ceil(n/2) and covers kernel n+1-k as kernel k at -z."""
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
    rng = random.Random(1931)
    for i in range(60):
        m = rng.choice((2, 3))
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        d = rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 4.5e-3)
        others = []
        while len(others) < i % 4:
            x = rng.uniform(-3.0, 3.0)
            if abs(x - a) > 0.05:
                others.append(x)
        yield f"cluster {i} m={m}", RealPoly.of(npp.polyfromroots([a] * m + [a + d] + others))
    nearedge = []
    for family in ("P", "Q"):
        for N in (19, 41, 101, 201):
            for edge in kappa_limits(family, N):
                for e in (-11.6, -11.0, -10.1):
                    for sign in (-1.0, 1.0):
                        kappa = float(edge) + sign * 10**e
                        nearedge.append((f"{family} {kappa.hex()} N={N}", build_quadrinomial(QuadSpec(family, kappa, N))))
    for name, p in nearedge:
        yield f"nearedge {name}", p
    for name, p in nearedge:
        for e in (-40, 40):
            yield f"scaled 2^{e} {name}", RealPoly.of(math.ldexp(v, e) for v in p.coeffs)


def describe(rs) -> str:
    return " ".join(
        f"{r.value.real.hex()},{r.value.imag.hex()},{r.multiplicity},{r.residual.hex()}"
        for r in rs.roots
    )


def parse(path: str) -> list[tuple[str, bool, list[tuple[complex, int, float]]]]:
    out = []
    for line in Path(path).read_text().splitlines():
        name, _, rest = line.partition(": ")
        failed = rest.startswith("NoConvergence best")
        roots = []
        for item in rest.split()[2 if failed else 0:]:
            real, imag, m, res = item.split(",")
            roots.append((complex(float.fromhex(real), float.fromhex(imag)), int(m), float.fromhex(res)))
        out.append((name, failed, roots))
    return out


def compare(old_path: str, new_path: str) -> int:
    old, new = parse(old_path), parse(new_path)
    bound = RESIDUAL_SCALE
    breaches: list[str] = []
    if [case[0] for case in old] != [case[0] for case in new]:
        breaches.append("the two outputs hold different cases")
    identical, changed, worst_move, worst_residual = 0, {}, {}, (0.0, "")
    for (name, old_failed, old_roots), (_, failed, roots) in zip(old, new):
        same = (old_failed, old_roots) == (failed, roots)
        identical += same
        kind = name.split()[0]
        changed[kind] = changed.get(kind, 0) + (not same)
        if failed != old_failed or [r[1] for r in roots] != [r[1] for r in old_roots]:
            breaches.append(f"{name}: NoConvergence status, root count or multiplicities differ")
            continue
        for (z0, m, _), (z, _, res) in zip(old_roots, roots):
            move = abs(z - z0) / max(1.0, abs(z0))
            if move > worst_move.get(m, (-1.0, ""))[0]:
                worst_move[m] = (move, name)
            if move > 1e-10:
                breaches.append(f"{name}: root {z0} moved by {move:.3e} relative")
            if not failed and res > bound:
                breaches.append(f"{name}: residual {res:.3e} exceeds {bound:.3e}")
            if not failed and res > worst_residual[0]:
                worst_residual = (res, name)
    print(f"identical cases: {identical} of {len(new)}")
    print("changed cases per kind: " + ", ".join(f"{kind} {n}" for kind, n in changed.items()))
    for m in sorted(worst_move):
        print(f"worst relative |dz|, multiplicity {m}: {worst_move[m][0]:.3e} ({worst_move[m][1]})")
    print(f"worst residual of a converged case: {worst_residual[0]:.3e} ({worst_residual[1]})")
    for line in breaches:
        print("BREACH", line)
    return 1 if breaches else 0


def main() -> int:
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        return compare(sys.argv[2], sys.argv[3])
    for name, p in cases():
        try:
            line = describe(find_roots(p))
        except NoConvergence as exc:
            line = "NoConvergence best " + describe(exc.best)
        print(f"{name}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
