import csv
import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from quadrinomials.families import QuadSpec, build_quadrinomial
from quadrinomials.polycore import RealPoly, find_roots, self_reciprocal_sign
from quadrinomials.univalent import (
    BoundaryImage,
    NormalizedPoly,
    ParityMismatch,
    alexander,
    alexander_derivative_factored,
    boundary_image,
    fejer,
    fejer_derivative_factored,
    F_family,
    phi_k,
    quasi_extremal_checks,
    quasi_extremal_W,
    simple_curve_scan,
    suffridge_membership,
    suffridge_transform,
    tilde_p,
)


def _np(coeffs, n):
    return NormalizedPoly(RealPoly.of(coeffs), n)


def test_normalized_poly_validation():
    f = _np([0.0, 1.0, 0.5], 3)
    assert f.coeff(2) == 0.5 and f.coeff(3) == 0.0 and f.coeff(7) == 0.0
    with pytest.raises(ValueError):
        _np([1.0, 1.0], 2)  # constant term present
    with pytest.raises(ValueError):
        _np([0.0, 2.0], 2)  # wrong leading normalization
    with pytest.raises(ValueError):
        _np([0.0, 1.0, 0.0, 1.0], 2)  # degree above declared bound


def test_transform_damps_coefficients():
    out = suffridge_transform(_np([0.0, 1.0, 1.0, 1.0], 3), 3)
    assert_allclose(out.poly.coeffs, (0.0, 1.0, 2.0 / 3.0, 1.0 / 3.0), rtol=1e-15)
    with pytest.raises(ValueError):
        suffridge_transform(_np([0.0, 1.0, 0.0, 1.0], 3), 2)


def test_transform_equals_derivative_form():
    """a_j -> (1-(j-1)/n) a_j is the same map as ((n+1) f - z f') / n."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        c = [0.0, 1.0] + list(rng.normal(size=n - 1))
        f = _np(c, n)
        out = suffridge_transform(f, n)
        zfp = RealPoly.of([0.0] + list(f.poly.derivative().coeffs))
        alt = (f.poly.scaled(n + 1.0) - zfp).scaled(1.0 / n)
        assert_allclose(out.poly.coeffs, alt.coeffs, rtol=1e-13, atol=1e-15)


def test_membership_hand_cases():
    # kernels of z + z^2 at n = 2 are 1 + z and 1 - z: zeros on the circle
    assert suffridge_membership(_np([0.0, 1.0, 1.0], 2), 2)
    # pushing the top coefficient further moves a kernel zero inside
    assert not suffridge_membership(_np([0.0, 1.0, 1.05], 2), 2)
    # f = z has constant kernels, which cannot vanish
    assert suffridge_membership(_np([0.0, 1.0], 5), 5)
    with pytest.raises(ValueError):
        suffridge_membership(_np([0.0, 1.0, 0.0, 1.0], 3), 2)


def test_fejer_coefficients():
    assert_allclose(fejer(4).poly.coeffs, (0.0, 1.0, 0.75, 0.5, 0.25), rtol=1e-15)
    assert fejer(1).poly.coeffs == (0.0, 1.0)
    with pytest.raises(ValueError):
        fejer(0)


def test_fejer_derivative_factorization():
    for N in range(2, 13):
        f = fejer_derivative_factored(N)
        assert f.linear == (() if N % 2 == 1 else ((-1, 1),))
        direct = fejer(N).poly.derivative()
        assert_allclose(f.expand().coeffs, direct.coeffs, atol=1e-12)
    with pytest.raises(ValueError):
        fejer_derivative_factored(1)


def test_alexander_coefficients():
    assert_allclose(alexander(3).poly.coeffs, (0.0, 1.0, 0.5, 1.0 / 3.0), rtol=1e-15)
    with pytest.raises(ValueError):
        alexander(0)


def test_alexander_derivative_factorization():
    # w'_N is the geometric sum 1 + z + ... + z^(N-1)
    for N in range(1, 13):
        f = alexander_derivative_factored(N)
        assert_allclose(f.expand().coeffs, (1.0,) * N, atol=1e-12)


def test_tilde_p_small_case_and_identity():
    assert_allclose(
        tilde_p(5).poly.coeffs,
        (0.0, 1.0, -1.0 / 3.0, -1.0 / 3.0, 1.0),
        rtol=1e-15,
    )
    for N in (5, 7, 9, 11, 21):
        lhs = RealPoly.of((1.0, 2.0, 1.0)) * tilde_p(N).poly
        p = build_quadrinomial(QuadSpec("P", Fraction(N, N - 2), N))
        rhs = RealPoly.of((0.0,) + p.coeffs)
        assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    with pytest.raises(ParityMismatch):
        tilde_p(6)
    with pytest.raises(ParityMismatch):
        tilde_p(3)


def test_family_frozen_small_cases():
    assert_allclose(
        F_family(0, 5).poly.coeffs,
        (0.0, 1.0, -0.25, -1.0 / 6.0, 0.25),
        rtol=1e-15,
    )
    assert_allclose(
        F_family(1, 5).poly.coeffs,
        (0.0, 1.0, 0.25, -1.0 / 6.0, -0.25),
        rtol=1e-15,
    )
    assert_allclose(
        F_family(2, 5).poly.coeffs,
        (0.0, 1.0, 0.25, 1.0 / 6.0, 0.25),
        rtol=1e-15,
    )
    assert_allclose(
        F_family(3, 6).poly.coeffs,
        (0.0, 1.0, 0.4, 0.0, -0.2, -0.2),
        rtol=1e-15,
    )
    assert_allclose(
        F_family(4, 6).poly.coeffs,
        (0.0, 1.0, 0.4, 0.0, 0.2, 0.2),
        rtol=1e-15,
    )


def test_family_parity_dispatch():
    with pytest.raises(ParityMismatch):
        F_family(1, 6)
    with pytest.raises(ParityMismatch):
        F_family(3, 5)
    with pytest.raises(ParityMismatch):
        F_family(3, 4)
    with pytest.raises(ParityMismatch):
        F_family(0, 4)
    with pytest.raises(ValueError):
        F_family(5, 7)


def test_family_zero_is_transformed_tilde_p():
    for N in (5, 7, 9, 11, 15):
        direct = F_family(0, N).poly.coeffs
        via = suffridge_transform(tilde_p(N), N - 1).poly.coeffs
        assert_allclose(direct, via, atol=1e-14)


def test_family_one_is_reflected_family_zero():
    for N in (5, 9, 13):
        f0 = F_family(0, N).poly.coeffs
        f1 = F_family(1, N).poly.coeffs
        reflected = tuple((-1.0) ** (j + 1) * c for j, c in enumerate(f0))
        assert_allclose(f1, reflected, rtol=1e-15)


def test_family_zero_membership():
    assert suffridge_membership(F_family(0, 5), 4)
    assert suffridge_membership(F_family(0, 9), 8)


# ---------------------------------------------------------------------------
# phi kernels


def test_phi_frozen_coefficients():
    got = phi_k(5, 5)
    expected = [0.0] * 8
    expected[0], expected[7] = 1.0, 1.0
    expected[1] = expected[6] = -10.0 / 3.0
    expected[2] = expected[5] = 7.0 / 3.0
    assert_allclose(got.coeffs, expected, rtol=1e-15)
    assert phi_k(5, 1).degree == 7


def test_phi_argument_checks():
    with pytest.raises(ValueError):
        phi_k(5, 0)
    with pytest.raises(ValueError):
        phi_k(5, 6)
    with pytest.raises(ParityMismatch):
        phi_k(6, 1)


def test_phi_reciprocal_symmetry():
    for N in (5, 9):
        for k in range(1, N + 1):
            assert self_reciprocal_sign(phi_k(N, k)) == (1 if k % 2 == 1 else -1)


def test_phi_zeros_on_circle_below_top_index():
    for N in (5, 9, 11):
        for k in range(1, N):
            rs = find_roots(phi_k(N, k))
            dev = max(abs(abs(r.value) - 1.0) for r in rs.roots)
            assert dev <= 1e-10, (N, k, dev)


def test_phi_top_index_leaves_circle():
    # The k = N kernel genuinely has off-circle zeros; the deviation shrinks
    # as N grows but stays far above the circle tolerance.
    for N, floor in ((5, 1.0), (11, 0.4), (21, 0.2)):
        rs = find_roots(phi_k(N, N))
        dev = max(abs(abs(r.value) - 1.0) for r in rs.roots)
        assert dev > floor, (N, dev)


def test_phi_top_index_exact_sign_change():
    # phi_k(5, 5) from its closed form 1, -2N/(N-2), (N+2)/(N-2), mirrored,
    # in exact arithmetic: a sign change on (2/5, 9/20) puts a real zero of
    # modulus below 9/20 off the circle.
    N = 5
    head = [Fraction(1), Fraction(-2 * N, N - 2), Fraction(N + 2, N - 2)]
    exact = head + [Fraction(0)] * (N - 3) + head[::-1]
    assert [float(c) for c in exact] == list(phi_k(N, N).coeffs)

    def value(x):
        return sum(c * x**j for j, c in enumerate(exact))

    lo, hi = value(Fraction(2, 5)), value(Fraction(9, 20))
    assert lo == Fraction(4053, 78125)
    assert hi == Fraction(-10734031, 1280000000)
    assert lo > 0 > hi


def test_phi_is_squared_quadratic_times_tilde_p_kernel():
    # For k <= N-1, phi_k(N, k) = (1 + 2 cos(a) z + z^2)^2 K_k(z), where K_k is
    # the difference-quotient kernel of tilde_p(N) at a = k pi / N that
    # suffridge_membership(tilde_p(N), N-1) tests.
    for N in range(5, 22, 2):
        f = tilde_p(N)
        assert suffridge_membership(f, N - 1), N
        for k in range(1, N):
            alpha = k * math.pi / N
            kernel = [f.coeff(j) * math.sin(j * alpha) / math.sin(alpha)
                      for j in range(1, N)]
            quadratic = (1.0, 2.0 * math.cos(alpha), 1.0)
            product = npp.polymul(npp.polymul(quadratic, quadratic), kernel)
            phi = np.asarray(phi_k(N, k).coeffs)
            assert len(product) == len(phi), (N, k)
            gap = np.max(np.abs(product - phi)) / np.max(np.abs(phi))
            assert gap <= 1e-12, (N, k, gap)


# ---------------------------------------------------------------------------
# quasi-extremal witness


def test_W_frozen_coefficients():
    assert quasi_extremal_W(5).coeffs == (12.0, 42.0, 42.0, 0.0, 0.0, 42.0, 42.0, 12.0)
    with pytest.raises(ParityMismatch):
        quasi_extremal_W(6)


def test_W_checks():
    for N in (5, 9, 13):
        ch = quasi_extremal_checks(N)
        assert ch.derivative_magnitudes[:5] == (0.0,) * 5
        assert ch.derivative_magnitudes[5] > 1e-3 * ch.scale
        assert ch.deflated_circle_deviation <= 1e-8
        assert ch.identity_deviation <= 1e-11
    # N = 5: the fifth derivative at -1 is exactly 7!/1 = 5040
    assert quasi_extremal_checks(5).derivative_magnitudes[5] == 5040.0


# ---------------------------------------------------------------------------
# boundary images and the self-intersection scan


def test_boundary_image_of_identity():
    img = boundary_image(_np([0.0, 1.0], 1), resolution=64)
    assert img.resolution == 64 and img.ts.shape == (64,)
    assert_allclose(img.points, np.exp(1j * img.ts), rtol=1e-12)
    with pytest.raises(ValueError):
        boundary_image(_np([0.0, 1.0], 1), resolution=8)


def test_boundary_image_csv():
    img = boundary_image(_np([0.0, 1.0, 0.3], 2), resolution=32)
    buf = io.StringIO()
    img.to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["t", "re", "im"]
    assert len(rows) == 33
    t, re, im = (float(x) for x in rows[5])
    z = complex(math.cos(t), math.sin(t))
    w = z + 0.3 * z * z
    assert abs(complex(re, im) - w) < 1e-12


def test_scan_simple_curves():
    assert simple_curve_scan(boundary_image(_np([0.0, 1.0], 1), 256))
    assert simple_curve_scan(boundary_image(_np([0.0, 1.0, 0.3], 2), 512))
    assert simple_curve_scan(boundary_image(F_family(1, 11), 1024))


def test_scan_flags_doubled_circle():
    ts = np.arange(128) * (2.0 * math.pi / 128)
    img = BoundaryImage(ts, np.exp(2j * ts), 128)
    assert not simple_curve_scan(img)


def test_scan_flags_inner_loop():
    # |a_2| > 1/2 bends the image of the circle into a limacon with a loop
    assert not simple_curve_scan(boundary_image(_np([0.0, 1.0, 0.6], 2), 512))


def test_scan_proper_crossing_small_polyline():
    pts = np.array([0 + 0j, 1 + 1j, 1 + 0j, 0 + 1j])
    img = BoundaryImage(np.arange(4.0), pts, 4)
    assert not simple_curve_scan(img)


@pytest.mark.parametrize("scale", [1e-100, 1e150])
def test_scan_crossing_at_extreme_scales(scale):
    # a product of two orientations underflows to 0 at 1e-100 and overflows at 1e150
    pts = scale * np.array([0 + 0j, 1 + 1j, 1 + 0j, 0 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not simple_curve_scan(BoundaryImage(np.arange(4.0), pts, 4))


def _segments_meet(p1, p2, q1, q2) -> bool:
    """Exact test on integer points: solve p1 + t(p2-p1) = q1 + u(q2-q1)."""

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def on_segment(c, a, b):
        if a == b:
            return c == a
        ab, ac = sub(b, a), sub(c, a)
        dot = ac[0] * ab[0] + ac[1] * ab[1]
        return cross(ab, ac) == 0 and 0 <= dot <= ab[0] ** 2 + ab[1] ** 2

    r, s, w = sub(p2, p1), sub(q2, q1), sub(q1, p1)
    det = cross(r, s)
    if det != 0:
        t, u = Fraction(cross(w, s), det), Fraction(cross(w, r), det)
        return 0 <= t <= 1 and 0 <= u <= 1
    # parallel or degenerate: the segments meet iff an endpoint lies on the other
    return (on_segment(p1, q1, q2) or on_segment(p2, q1, q2)
            or on_segment(q1, p1, p2) or on_segment(q2, p1, p2))


def _brute_force_simple(pts) -> bool:
    m = len(pts)
    seg = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
    return not any(
        _segments_meet(*seg[i], *seg[j])
        for i in range(m)
        for j in range(i + 2, m)
        if not (i == 0 and j == m - 1)
    )


def test_scan_matches_exact_brute_force_on_grid_polylines():
    # a 4x4 grid makes collinear overlaps and vertex-on-segment contacts common
    rng = random.Random(2024)
    verdicts = []
    for _ in range(3000):
        m = rng.randint(3, 9)
        pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)]
        img = BoundaryImage(np.arange(float(m)), np.array([complex(x, y) for x, y in pts]), m)
        expected = _brute_force_simple(pts)
        assert simple_curve_scan(img) == expected, pts
        verdicts.append(expected)
    assert 300 < sum(verdicts) < 2700


def test_scan_degenerate_touch():
    # vertex of one segment lands exactly on a non-adjacent segment
    pts = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0.5 + 0j, 0 + 1j])
    img = BoundaryImage(np.arange(5.0), pts, 5)
    assert not simple_curve_scan(img)


def test_scan_tiny_polyline_trivially_simple():
    img = BoundaryImage(np.arange(3.0), np.array([0j, 1j, 1 + 1j]), 3)
    assert simple_curve_scan(img)
