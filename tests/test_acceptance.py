"""Acceptance gate: each test checks one shipped claim end to end and prints
a single verdict line.  Criterion 5 covers the phi_k kernels k = 1..N-1 that
the univalence argument uses, and asserts that the top index k = N, which is
not a kernel, leaves the circle; see the phi_k tests in test_univalent.py for
the exact N = 5 counterexample and the kernel identity.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np

from quadrinomials import cli
from quadrinomials.families import (
    QuadSpec,
    kappa_limits,
    verify_criterion,
    verify_factorization,
)
from quadrinomials.polycore import RealPoly, find_roots
from quadrinomials.stability import (
    boundary_point,
    cohn_on_circle,
    corner_point,
    stability_boundary,
    trinomial_in_disk,
)
from quadrinomials.univalent import (
    F_family,
    alexander,
    alexander_derivative_factored,
    boundary_image,
    fejer,
    fejer_derivative_factored,
    phi_k,
    quasi_extremal_checks,
    simple_curve_scan,
)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    # Bypass pytest's capture so every criterion reports a visible line,
    # pass or fail, in the plain ``pytest -v`` output.
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_cusp_angle_table(capsys):
    stated_angles = [0.3173, 0.9527, 1.5911, 2.2398]
    stated_diffs = [0.6354, 0.6383, 0.6487]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["cusps", "--N", "11", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(buf.getvalue())
    angles = doc["payload"]["angles"]
    diffs = doc["payload"]["differences"]
    angle_err = max(abs(a - s) for a, s in zip(angles, stated_angles))
    diff_err = max(abs(d - s) for d, s in zip(diffs, stated_diffs))
    ok = (
        code == 0
        and len(angles) == 4
        and angle_err < 1e-4
        and diff_err < 1e-4
        and elapsed < 0.1
    )
    _verdict(capsys, 1, ok, f"angle err {angle_err:.1e}, diff err {diff_err:.1e}, {elapsed:.3f} s")
    assert ok


def test_criterion_2_criterion_equivalence_sweep(capsys):
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for N in range(3, 41):
        for fam in "PQ":
            lo, hi = (float(x) for x in kappa_limits(fam, N))
            for kap in np.linspace(lo - 0.5, hi + 0.5, 81):
                if abs(kap - lo) <= 1e-6 or abs(kap - hi) <= 1e-6:
                    continue
                chk = verify_criterion(QuadSpec(fam, float(kap), N))
                checked += 1
                if chk.predicted != chk.observed:
                    mismatches.append((fam, N, float(kap)))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _verdict(capsys, 2, ok, f"{checked} (family, N, kappa) points, "
                    f"{len(mismatches)} mismatches, {elapsed:.1f} s")
    assert ok, mismatches[:5]


def test_criterion_3_factorization_identities(capsys):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for N in range(3, 102):
        cases = [("P", Fraction(-1)), ("Q", Fraction(-N, N - 2))]
        if N % 2 == 0:
            cases += [("P", Fraction(1)), ("Q", Fraction(N, N - 2))]
        else:
            cases += [("P", Fraction(N, N - 2)), ("Q", Fraction(1))]
        for fam, kap in cases:
            worst = max(worst, verify_factorization(QuadSpec(fam, kap, N)))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(capsys, 3, ok, f"{count} limit cases through N=101, worst {worst:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_4_fejer_alexander_factorizations(capsys):
    worst_fejer = worst_alex = worst_closed = 0.0
    cube = RealPoly.of((1.0, -3.0, 3.0, -1.0))  # (1-z)^3
    for N in range(2, 61):
        worst_fejer = max(
            worst_fejer,
            (fejer_derivative_factored(N).expand() - fejer(N).poly.derivative()).norm_inf,
        )
        worst_alex = max(
            worst_alex,
            (alexander_derivative_factored(N).expand()
             - alexander(N).poly.derivative()).norm_inf,
        )
        # N (1-z)^3 sigma'_N = N - (N+2) z + (N+2) z^(N+1) - N z^(N+2)
        lhs = (fejer(N).poly.derivative() * cube).scaled(float(N))
        rhs = [0.0] * (N + 3)
        rhs[0], rhs[1] = float(N), -(N + 2.0)
        rhs[N + 1], rhs[N + 2] = N + 2.0, -float(N)
        worst_closed = max(worst_closed, (lhs - RealPoly.of(rhs)).norm_inf)
    ok = max(worst_fejer, worst_alex, worst_closed) <= 1e-10
    _verdict(capsys, 4, ok, f"factored {worst_fejer:.2e}/{worst_alex:.2e}, "
                    f"closed form {worst_closed:.2e}, N<=60")
    assert ok


def test_criterion_5_phi_circle_property(capsys):
    # For k = 1..N-1, phi_k(N, k) is (1 + 2 cos(a_k) z + z^2)^2 times the
    # difference-quotient kernel of tilde_p(N) at a_k = k pi / N, so its
    # zeros are on the circle.  At k = N, sin(a_k) = 0 and there is no
    # kernel: the top index is asserted to leave the circle.
    off_circle = []
    on_circle_top = []
    worst_kernel = 0.0
    least_top = math.inf
    for N in range(5, 22, 2):
        for k in range(1, N + 1):
            rs = find_roots(phi_k(N, k))
            dev = max(abs(abs(r.value) - 1.0) for r in rs.roots)
            if k < N:
                worst_kernel = max(worst_kernel, dev)
                if dev > 1e-5:
                    off_circle.append((N, k, round(dev, 3)))
            else:
                least_top = min(least_top, dev)
                if dev <= 1e-5:
                    on_circle_top.append((N, dev))
    ok = not off_circle and not on_circle_top
    _verdict(capsys, 5, ok, f"N=5..21, k=1..N-1: worst circle deviation "
                    f"{worst_kernel:.1e}, off-circle {off_circle}; k=N: least "
                    f"deviation {least_top:.3f}, on-circle {on_circle_top}")
    assert not off_circle, f"phi_k kernels k <= N-1 leave the unit circle: {off_circle}"
    assert not on_circle_top, f"phi_k(N, N) has all zeros on the unit circle: {on_circle_top}"


def test_criterion_6_quasi_extremality(capsys):
    worst_low = worst_other = worst_identity = 0.0
    fifth_ok = True
    for N in range(5, 22, 2):
        ch = quasi_extremal_checks(N)
        worst_low = max(worst_low, max(ch.derivative_magnitudes[:5]) / ch.scale)
        fifth_ok = fifth_ok and ch.derivative_magnitudes[5] > 1e-3 * ch.scale
        worst_other = max(worst_other, ch.deflated_circle_deviation)
        worst_identity = max(worst_identity, ch.identity_deviation)
    ok = (
        worst_low <= 1e-8
        and fifth_ok
        and worst_other <= 1e-5
        and worst_identity <= 1e-10
    )
    _verdict(capsys, 6, ok, f"low-order/scale {worst_low:.1e}, circle dev of the other "
                    f"roots {worst_other:.1e}, identity {worst_identity:.1e}")
    assert ok


def _mirror_poly(rng) -> RealPoly:
    deg = int(rng.integers(2, 13))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    half = rng.uniform(0.3, 1.0, size=deg // 2 + 1)
    half *= rng.choice([-1.0, 1.0], size=half.size)
    c = np.zeros(deg + 1)
    for j, v in enumerate(half):
        c[j] += v
        c[deg - j] += sign * v
    return RealPoly.of(c)


def test_criterion_7_cohn_equivalence(capsys):
    rng = np.random.default_rng(2026)
    mismatches = 0
    on_circle_count = 0
    polys = []
    for _ in range(200):
        p = _mirror_poly(rng)
        if p.degree < 1:
            continue
        polys.append(p)
        rs = find_roots(p)
        direct = all(abs(abs(r.value) - 1.0) <= 1e-6 for r in rs.roots)
        on_circle_count += direct
        if cohn_on_circle(p) != direct:
            mismatches += 1
    broken = 0
    for p in polys[:200]:
        c = list(p.coeffs)
        # The constant term pairs with the leading one and is never its own
        # mirror partner, so this breaks both symmetries at every degree.
        c[0] += 0.01
        if cohn_on_circle(RealPoly.of(c)):
            broken += 1
    ok = mismatches == 0 and broken == 0
    _verdict(capsys, 7, ok, f"{len(polys)} mirrored ({on_circle_count} on-circle), "
                    f"{mismatches} mismatches; {broken} perturbed false positives")
    assert ok


def test_criterion_8_stability_boundary_sharpness(capsys):
    failures = []
    for n in range(3, 11):
        cs = stability_boundary(n, 22)
        for name in ("I", "II", "III", "IV"):
            for row in cs.curves[name][1:21]:
                a, b = (row[0], row[1]) if name in ("I", "II") else (row[1], row[2])
                v = math.hypot(a, b)
                ua, ub = -a / v, -b / v
                if not trinomial_in_disk(n, a + 1e-2 * ua, b + 1e-2 * ub):
                    failures.append(("inward", n, name, a, b))
                if trinomial_in_disk(n, a - 1e-2 * ua, b - 1e-2 * ub):
                    failures.append(("outward", n, name, a, b))
    corner_gap = 0.0
    for n in range(4, 11, 2):
        pa, pb = boundary_point("III", n, math.pi - 1e-6)
        ca, cb = corner_point("III", n)
        corner_gap = max(corner_gap, abs(pa - ca), abs(pb - cb))
    ok = not failures and corner_gap <= 1e-9
    _verdict(capsys, 8, ok, f"{len(failures)} nudge failures over n=3..10; "
                    f"even-n corner gap {corner_gap:.1e}")
    assert ok, failures[:5]


def test_criterion_9_univalence_heuristic_scan(capsys):
    odd, even = (5, 11, 21, 31, 51, 75, 101), (6, 12, 22, 32, 52, 76, 100)
    results = {}
    for s in range(5):
        for N in odd if s <= 2 else even:
            results[(s, N)] = simple_curve_scan(boundary_image(F_family(s, N), 65536))
    failed = [key for key, simple in results.items() if not simple]
    ok = not failed
    _verdict(capsys, 9, ok, f"{len(results)} boundary scans at 65536, s = 0..4, "
                            f"N 5..101; not simple: {failed}")
    assert ok
