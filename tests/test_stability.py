import csv
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from quadrinomials.families import (
    QuadSpec,
    build_quadrinomial,
    circle_criterion,
    kappa_limits,
)
from quadrinomials import stability
from quadrinomials.polycore import NoConvergence, RealPoly, find_roots
from quadrinomials.stability import (
    DISK_TOL,
    T_START_OFFSET,
    _in_disk,
    _schur_cohn,
    boundary_point,
    cohn_on_circle,
    corner_point,
    quadrinomial_derivative_line,
    stability_boundary,
    trinomial,
    trinomial_in_disk,
)


def test_trinomial_coefficients():
    assert trinomial(3, 2.0, 0.5).coeffs == (0.5, 0.0, 2.0, 1.0)
    assert trinomial(2, -1.0, 0.25).coeffs == (0.25, -1.0, 1.0)


def test_in_disk_obvious_cases():
    assert trinomial_in_disk(4, 0.0, 0.0)  # z^4
    assert not trinomial_in_disk(3, 3.0, 0.0)  # factor (z + 3)
    # |b| is the product of the root moduli, so |b| > 1 forces one outside
    assert not trinomial_in_disk(5, 0.0, 1.5)
    with pytest.raises(ValueError):
        trinomial_in_disk(1, 0.0, 0.0)


def test_boundary_point_frozen_values():
    """Curve values at n = 3, t = 5 pi/6, where all sines are exact."""
    a, b = boundary_point("III", 3, 5 * math.pi / 6)
    assert_allclose((a, b), (2 / math.sqrt(3), -1 / math.sqrt(3)), rtol=1e-12)
    a, b = boundary_point("IV", 3, 5 * math.pi / 6)
    assert_allclose((a, b), (-2 / math.sqrt(3), 1 / math.sqrt(3)), rtol=1e-12)
    with pytest.raises(ValueError):
        boundary_point("V", 3, 3.0)


def test_corner_values_and_parametric_limit():
    for n in range(2, 11):
        assert corner_point("III", n) == (n / (n - 1.0), (-1.0) ** n / (n - 1.0))
        assert corner_point("IV", n) == (-n / (n - 1.0), 1.0 / (n - 1.0))
        for name in ("III", "IV"):
            pa, pb = boundary_point(name, n, math.pi - 1e-6)
            ca, cb = corner_point(name, n)
            assert abs(pa - ca) <= 1e-9 and abs(pb - cb) <= 1e-9
    with pytest.raises(ValueError):
        corner_point("II", 3)


def test_boundary_sampling_structure():
    n, samples = 5, 40
    cs = stability_boundary(n, samples)
    assert cs.n == n
    assert cs.t_range == ((n - 1) * math.pi / n + T_START_OFFSET, math.pi)
    assert len(cs.curves["I"]) == len(cs.curves["II"]) == samples
    assert len(cs.curves["III"]) == len(cs.curves["IV"]) == samples + 1

    edge = n / (n - 1.0)
    assert cs.curves["I"][0] == (-edge, edge - 1.0)
    assert cs.curves["I"][-1] == (0.0, -1.0)
    assert cs.curves["II"][0] == (0.0, (-1.0) ** n * -1.0)
    assert cs.curves["II"][-1] == (edge, (-1.0) ** n * (edge - 1.0))
    # III/IV close with the analytic corner at t = pi
    for name in ("III", "IV"):
        t, a, b = cs.curves[name][-1]
        assert t == math.pi and (a, b) == corner_point(name, n)

    with pytest.raises(ValueError):
        stability_boundary(1, 10)
    with pytest.raises(ValueError):
        stability_boundary(5, 1)


def test_boundary_curves_are_continuous():
    """No singularity inside the t-window: consecutive samples stay close."""
    for n in (2, 3, 8):
        cs = stability_boundary(n, 400)
        for name in ("III", "IV"):
            pts = np.array([(a, b) for _, a, b in cs.curves[name]])
            steps = np.hypot(*np.diff(pts, axis=0).T)
            assert np.max(steps) < 0.05, (n, name)


def test_membership_flips_across_each_curve():
    for n in (3, 4, 7):
        cs = stability_boundary(n, 101)
        for name in ("I", "II", "III", "IV"):
            rows = cs.curves[name]
            row = rows[len(rows) // 2]
            a, b = (row[0], row[1]) if name in ("I", "II") else (row[1], row[2])
            v = math.hypot(a, b)
            ua, ub = -a / v, -b / v
            assert trinomial_in_disk(n, a + 1e-2 * ua, b + 1e-2 * ub), (n, name)
            assert not trinomial_in_disk(n, a - 1e-2 * ua, b - 1e-2 * ub), (n, name)


def test_csv_round_trip():
    cs = stability_boundary(4, 25)
    buf = io.StringIO()
    cs.to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["curve", "t", "a", "b"]
    body = rows[1:]
    assert len(body) == 2 * 25 + 2 * 26
    for name, t, a, b in body:
        assert name in ("I", "II", "III", "IV")
        assert (t == "") == (name in ("I", "II"))
        float(a), float(b)
        if t:
            float(t)
    assert not any("-0.0" == cell for row in body for cell in row)


def test_derivative_line_exact_rationals():
    n, a, b = quadrinomial_derivative_line(QuadSpec("P", Fraction(5, 3), 5))
    assert (n, a, b) == (4, Fraction(4, 3), Fraction(1, 3))
    assert isinstance(a, Fraction) and isinstance(b, Fraction)
    n, a, b = quadrinomial_derivative_line(QuadSpec("Q", Fraction(5, 3), 5))
    assert (n, a, b) == (4, Fraction(4, 3), Fraction(-1, 3))
    # an int kappa is exact; a float or numpy integer gives floats
    for kappa, a, b in (
        (2, Fraction(3, 2), Fraction(1, 2)),
        (2.0, 1.5, 0.5),
        (np.int64(2), np.float64(1.5), np.float64(0.5)),
    ):
        got = quadrinomial_derivative_line(QuadSpec("P", kappa, 4))
        assert got == (3, a, b) and [type(x) for x in got] == [int, type(a), type(b)]


def test_derivative_line_matches_actual_derivative():
    for fam, sign in (("P", 1.0), ("Q", -1.0)):
        for N in (3, 4, 8, 13):
            spec = QuadSpec(fam, 0.85, N)
            n, a, b = quadrinomial_derivative_line(spec)
            assert n == N - 1
            scaled = trinomial(n, float(a), float(b)).scaled(sign * N)
            assert_allclose(
                scaled.coeffs, build_quadrinomial(spec).derivative().coeffs,
                rtol=1e-14, atol=1e-14,
            )


def test_cohn_basic_cases():
    assert cohn_on_circle(RealPoly.of([-1.0, 0.0, 1.0]))  # z^2 - 1
    assert cohn_on_circle(RealPoly.of([1.0, 1.0]))  # 1 + z
    assert not cohn_on_circle(RealPoly.of([1.0, 0.5, 0.3]))  # not self-reciprocal
    # palindromic but zeros off the circle: (z - 2)(z - 1/2) scaled
    assert not cohn_on_circle(RealPoly.of([1.0, -2.5, 1.0]))
    with pytest.raises(ValueError):
        cohn_on_circle(RealPoly.of([3.0]))


def test_cohn_verdict_does_not_depend_on_scale():
    # zeros of modulus 1 - 1e-16 (numerically on the circle) ...
    big = [1e8, 3e7, math.nextafter(1e8, 2e8)]
    assert_allclose(np.abs(np.roots(big[::-1])), 1.0, rtol=1e-14)
    assert cohn_on_circle(RealPoly.of(big))
    # ... and zeros of modulus sqrt(2), far off it
    tiny = [1e-13, 0.0, 5e-14]
    assert_allclose(np.abs(np.roots(tiny[::-1])), math.sqrt(2.0), rtol=1e-14)
    assert not cohn_on_circle(RealPoly.of(tiny))
    # p' has one zero at 1 + 4.5e-8, which Schur-Cohn leaves undecided, so
    # p' is not divided by z - 1 at any scale, however small p(1) is; near the
    # top of the float range sum_j |c_j| of p' overflows unless p' is rescaled
    for scale in (2.0**-1000, 1e-5, 1.0, 1e5, 0.5e308, 0.8e308):
        p = RealPoly.of([scale, -2.00000008997 * scale, scale])
        assert _schur_cohn(p.derivative().coeffs, 1.0 + DISK_TOL) is None
        assert not cohn_on_circle(p), scale


def test_cohn_agrees_with_circle_criterion():
    rng = np.random.default_rng(41)
    for _ in range(24):
        fam = "PQ"[int(rng.integers(2))]
        N = int(rng.integers(3, 9))
        lo, hi = (float(x) for x in kappa_limits(fam, N))
        kap = float(rng.uniform(lo - 0.6, hi + 0.6))
        spec = QuadSpec(fam, kap, N)
        assert cohn_on_circle(build_quadrinomial(spec)) == circle_criterion(spec)


# A zero of modulus radius +- gap: a real zero (angle 0 or pi) or a
# conjugate pair.  The gap keeps every zero at least 1e-3 off the circle.
_zero = st.tuples(
    st.sampled_from([-1.0, 1.0]),
    st.floats(1e-3, 0.45),
    st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.05, math.pi - 0.05)),
)


@given(
    radius=st.one_of(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9]), st.floats(0.5, 2.0)),
    zeros=st.lists(_zero, min_size=1, max_size=30),
    scale=st.floats(1e-3, 1e3),
)
def test_schur_cohn_never_returns_the_wrong_verdict(radius, zeros, scale):
    points = []
    for side, gap, angle in zeros:
        z = (radius + side * gap) * complex(math.cos(angle), math.sin(angle))
        points += [z] if angle in (0.0, math.pi) else [z, z.conjugate()]
    assume(len(points) <= 30)
    # well-separated zeros, so that rounding the coefficients cannot move a
    # zero across the circle and the verdict is the one the zeros were built for
    pts = np.array(points)
    dist = np.abs(pts[:, None] - pts[None, :]) + np.eye(pts.size)
    assume(dist.min() >= 0.05)
    c = np.array([scale])
    for z in points:
        if z.imag == 0:
            c = npp.polymul(c, [-z.real, 1.0])
        elif z.imag > 0:
            c = npp.polymul(c, [abs(z) ** 2, -2.0 * z.real, 1.0])
    truth = all(abs(z) < radius for z in points)
    assert _schur_cohn(c, radius) in (truth, None)


def _dense_schur_cohn(c, radius):
    """The dense O(n^2) recursion that _schur_cohn ran on every input before its
    trinomial branch: the reference for that branch."""
    a = np.asarray(c, dtype=float) * radius ** np.arange(len(c))
    a = a / a[-1]
    while a.size > 1:
        k = a[0]
        if abs(1.0 - abs(k)) <= stability.SCHUR_GUARD:
            return None
        if abs(k) > 1.0:
            return False
        a = (a[1:] - k * a[-2::-1]) / (1.0 - k * k)
    return True


_signed_decades = st.one_of(
    st.just(0.0),
    st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 3.0)),
)


@st.composite
def _trinomial_shapes(draw):
    """Coefficients with support {0, n-1, n}: a and b over several decades with
    either sign, a point within 1e-7 relative of curve III or IV, where some
    step's |k| meets the guard, or the p' of a P or Q quadrinomial."""
    kind = draw(st.sampled_from(["decades", "curve", "derivative"]))
    n = draw(st.integers(1 if kind == "decades" else 2, 400))
    if kind == "derivative":
        spec = QuadSpec(draw(st.sampled_from("PQ")), draw(st.floats(-4.0, 4.0)), n + 1)
        return build_quadrinomial(spec).derivative().coeffs
    if kind == "decades":
        a, b = draw(_signed_decades), draw(_signed_decades)
    else:
        t = draw(st.floats((n - 1) * math.pi / n, math.pi, exclude_max=True))
        a, b = boundary_point(draw(st.sampled_from(["III", "IV"])), n, t)
        a, b = (x * (1.0 + draw(st.floats(-1e-7, 1e-7))) for x in (a, b))
    return trinomial(n, a, b).coeffs


@seed(4021)
@settings(max_examples=400, deadline=None)
@given(
    c=_trinomial_shapes(),
    radius=st.one_of(st.sampled_from([1.0 - DISK_TOL, 1.0, 1.0 + DISK_TOL]), st.floats(0.5, 2.0)),
)
def test_trinomial_branch_matches_the_dense_recursion(c, radius):
    assert _schur_cohn(c, radius) is _dense_schur_cohn(c, radius)


def test_schur_cohn_declines_zeros_on_the_circle():
    # (1 + z)^2 (1 + z + z^2): a double zero and a pair on |z| = 1
    assert _schur_cohn([1.0, 3.0, 4.0, 3.0, 1.0], 1.0 + 1e-9) is None
    assert _schur_cohn([-(1.0 - 1e-12), 1.0], 1.0) is None


def _root_decisions(spec):
    """(Cohn, trinomial) verdicts from the zeros of p' themselves."""
    moduli = [abs(r.value) for r in find_roots(build_quadrinomial(spec).derivative()).roots]
    return (
        all(m <= 1.0 + DISK_TOL for m in moduli),
        all(m < 1.0 - DISK_TOL for m in moduli),
    )


def test_in_disk_fallback_is_as_strict_as_schur_cohn():
    # a zero exactly on the test circle: Schur-Cohn declines, and the root
    # comparison decides |z| < radius as Schur-Cohn would, so it is not inside
    r = 1.0 + DISK_TOL
    p = RealPoly.of([-r, 1.0])
    assert _schur_cohn(p.coeffs, r) is None
    assert _in_disk(p, r) is False
    assert _in_disk(p, math.nextafter(r, 2.0)) is True


def _disk_test_draws():
    """(spec, near_end): 150 draws off an end or uniform, then 120 at or right
    next to an end, where Schur-Cohn declines on p' and the zeros at +-1 are
    stripped before any root is found."""
    rng = np.random.default_rng(2024)
    for i in range(150):
        fam = "PQ"[int(rng.integers(2))]
        N = int(rng.integers(3, 102))
        lo, hi = (float(x) for x in kappa_limits(fam, N))
        if i % 3 == 0:
            edge = (lo, hi)[int(rng.integers(2))]
            kap = edge + float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(-9, -1)
        else:
            kap = float(rng.uniform(lo - 0.5, hi + 0.5))
        yield QuadSpec(fam, kap, N), False
    rng = np.random.default_rng(2025)
    for i in range(120):
        fam = "PQ"[int(rng.integers(2))]
        N = int(rng.integers(3, 102))
        end = kappa_limits(fam, N)[int(rng.integers(2))]
        if i % 4 == 0:
            yield QuadSpec(fam, end, N), True
        else:
            kap = float(end) + float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(-16, -9)
            yield QuadSpec(fam, kap, N), True


def test_disk_tests_match_the_root_decision(record_property):
    unjudged = []  # near-end draws where find_roots refuses p': the Cohn verdict, unchecked
    for spec, near_end in _disk_test_draws():
        p = build_quadrinomial(spec)
        try:
            want = _root_decisions(spec)
        except NoConvergence:
            if not near_end:
                raise
            try:
                unjudged.append((spec, cohn_on_circle(p)))
            except NoConvergence:
                unjudged.append((spec, "NoConvergence"))
            continue
        got = (cohn_on_circle(p), trinomial_in_disk(*quadrinomial_derivative_line(spec)))
        assert got == want, spec
    record_property("unjudged_cohn_verdicts", repr(unjudged))
    assert len(unjudged) <= 10, unjudged  # 4 of the 120 near-end draws


def test_cohn_true_on_every_endpoint_case(monkeypatch):
    def no_roots(p):
        raise AssertionError(f"find_roots called on a degree {p.degree} polynomial")

    monkeypatch.setattr(stability, "find_roots", no_roots)
    for N in list(range(3, 102)) + [171, 201]:
        edge = Fraction(N, N - 2)
        if N % 2 == 0:
            kappas = (("P", -1), ("P", 1), ("Q", -edge), ("Q", edge))
        else:
            kappas = (("P", -1), ("P", edge), ("Q", -edge), ("Q", 1))
        for fam, kap in kappas:
            p = build_quadrinomial(QuadSpec(fam, Fraction(kap), N))
            # p' has zeros on the circle at +-1, so Schur-Cohn declines on it;
            # each has relative backward error within RESIDUAL_SCALE and is stripped, and
            # Schur-Cohn decides the quotient with no root found
            assert _schur_cohn(p.derivative().coeffs, 1.0 + DISK_TOL) is None
            assert cohn_on_circle(p), (fam, kap, N)


@pytest.mark.parametrize("N", [171, 201, 501, 1000, 20001])
@pytest.mark.parametrize("family", ["P", "Q"])
@pytest.mark.parametrize("kappa", [0.3, 1.5])
def test_disk_tests_clean_at_high_degree(family, N, kappa):
    spec = QuadSpec(family, kappa, N)
    p = build_quadrinomial(spec)
    line = quadrinomial_derivative_line(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # both stay on the Schur-Cohn path, whose monic step divides by 1 - k^2
        assert _schur_cohn(p.derivative().coeffs, 1.0 + DISK_TOL) is not None
        assert _schur_cohn(trinomial(*line).coeffs, 1.0 - DISK_TOL) is not None
        assert cohn_on_circle(p) == trinomial_in_disk(*line) == (kappa == 0.3)
