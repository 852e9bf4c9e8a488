import csv
import io
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from quadrinomials import univalent
from quadrinomials.chebyshev import positive_roots_U_prime
from quadrinomials.families import QuadSpec, build_quadrinomial
from quadrinomials.polycore import NoConvergence, RealPoly, find_roots, self_reciprocal_sign
from quadrinomials.stability import DISK_TOL
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
    SCAN_CHUNK,
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


def test_transform_is_within_two_roundings_of_exact():
    """a_j (n+1-j)/n rounds twice, so every coefficient is within 2u of the
    exact rational result (u = 2^-53), the top index j = n included, where
    the form (1 - (j-1)/n) a_j cancels."""
    u = Fraction(1, 2**53)
    rng = np.random.default_rng(29)
    for n in range(2, 1001):
        c = [0.0, 1.0] + list(rng.normal(size=n - 1))
        out = suffridge_transform(_np(c, n), n).poly.coeffs
        for j in {2, n, *rng.integers(2, n + 1, size=4).tolist()}:
            exact = Fraction(c[j]) * (n + 1 - j) / n
            assert abs(Fraction(out[j]) - exact) <= 2 * u * abs(exact), (n, j)


def test_membership_hand_cases():
    # kernels of z + z^2 at n = 2 are 1 + z and 1 - z: zeros on the circle
    assert suffridge_membership(_np([0.0, 1.0, 1.0], 2), 2)
    # pushing the top coefficient further moves a kernel zero inside
    assert not suffridge_membership(_np([0.0, 1.0, 1.05], 2), 2)
    # f = z has constant kernels, which cannot vanish
    assert suffridge_membership(_np([0.0, 1.0], 5), 5)
    with pytest.raises(ValueError):
        suffridge_membership(_np([0.0, 1.0, 0.0, 1.0], 3), 2)


def _kernel(f, n, k):
    """Kernel k of f by suffridge_membership's expression: the coefficient of
    z^(j-1) is a_j sin(j a)/sin(a) at a = k pi/(n+1)."""
    alpha = k * math.pi / (n + 1)
    s = math.sin(alpha)
    return np.array([f.coeff(j) * math.sin(j * alpha) / s for j in range(1, n + 1)])


def _membership_all_kernels(f, n):
    """The membership loop over all n kernels, without the mirror shortcut."""
    for k in range(1, n + 1):
        kernel = RealPoly.of(_kernel(f, n, k))
        if kernel.degree < 1:
            continue
        if any(abs(r.value) < 1.0 - DISK_TOL for r in find_roots(kernel).roots):
            return False
    return True


def _families(top):
    """(s, N) of every F_family(s, N) with N <= top."""
    return [(s, N) for N in range(5, top + 1) for s in ((0, 1, 2) if N % 2 else (3, 4) if N >= 6 else ())]


def test_mirror_kernel_is_kernel_at_minus_z():
    """Kernel n+1-k is kernel k at -z: c'_j = (-1)^j c_j up to the rounding
    of sin(j a), within 8 n u max|c| (u = 2^-53)."""
    u = 2.0**-53
    worst = 0.0
    for s, N in _families(101):
        f, n = F_family(s, N), N - 1
        signs = (-1.0) ** np.arange(n)
        for k in range(1, n + 1):
            c, mirror = _kernel(f, n, k), _kernel(f, n, n + 1 - k)
            gap = np.max(np.abs(mirror - signs * c)) / (n * u * np.max(np.abs(c)))
            worst = max(worst, gap)
            assert gap <= 8.0, (s, N, k, gap)
    assert worst > 0.0  # the mirror is built from its own angle, not copied


def test_membership_equals_the_all_kernel_loop():
    """Solving kernels 1..ceil(n/2) gives the verdict of solving all n, on
    the families (all members) and on a seeded sweep with many non-members."""
    cases = [F_family(s, N) for s, N in _families(61)] + [tilde_p(N) for N in range(5, 62, 2)]
    for f in cases:
        assert suffridge_membership(f, f.n) and _membership_all_kernels(f, f.n), f.poly.coeffs
    rng = random.Random(1976)
    verdicts = []
    for _ in range(400):
        n = rng.randint(2, 14)
        scale = rng.uniform(0.0, 1.0)
        f = _np([0.0, 1.0] + [rng.gauss(0.0, scale) / j for j in range(2, n + 1)], n)
        verdict = suffridge_membership(f, n)
        assert verdict == _membership_all_kernels(f, n), (n, f.poly.coeffs)
        verdicts.append(verdict)
    # at least 100 non-members, so the test cannot pass by always saying True
    assert 100 <= len(verdicts) - sum(verdicts) <= len(verdicts) - 100


def test_membership_catches_a_non_member_bad_only_in_the_last_kept_pair():
    # n = 4: kernel 1 (and its mirror 4) keeps its zeros outside, |z| >= 1.2,
    # while kernel 2 (and its mirror 3) has a zero at |z| = 0.94
    f = _np([0.0, 1.0, -1.35, 1.0, -0.4], 4)
    least = [min(abs(r.value) for r in find_roots(RealPoly.of(_kernel(f, 4, k))).roots) for k in (1, 2, 3, 4)]
    assert min(least[0], least[3]) > 1.2 and max(least[1], least[2]) < 0.95
    assert not suffridge_membership(f, 4)


def test_fejer_coefficients():
    assert_allclose(fejer(4).poly.coeffs, (0.0, 1.0, 0.75, 0.5, 0.25), rtol=1e-15)
    assert fejer(1).poly.coeffs == (0.0, 1.0)
    with pytest.raises(ValueError):
        fejer(0)


def test_fejer_coefficients_are_correctly_rounded():
    """Each a_j = (n+1-j)/n is the float nearest the exact ratio."""
    for n in range(1, 401):
        c = fejer(n).poly.coeffs
        assert c == (0.0, *(float(Fraction(n + 1 - j, n)) for j in range(1, n + 1))), n


def test_fejer_derivative_factorization():
    for N in range(2, 102):
        f = fejer_derivative_factored(N)
        assert f.linear == (() if N % 2 == 1 else ((-1, 1),))
        assert f.quadratics == tuple(-g for g in positive_roots_U_prime(N).mapped)
        direct = fejer(N).poly.derivative()
        # the balanced expansion keeps about 1e-11 through degree 101
        assert_allclose(f.expand().coeffs, direct.coeffs, atol=1e-12 if N <= 12 else 1e-11)
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
    for N in range(5, 202, 2):
        direct = F_family(0, N).poly.coeffs
        via = suffridge_transform(tilde_p(N), N - 1).poly.coeffs
        assert direct == via


def _displayed_family(s, N):
    """The displayed coefficients: c_j = w_j (N-j)/(N-1) and
    c_(N-j) = +/- w_j j/(N-1), w_j = 1 - 2(j-1)/(N-2), over 1 <= j < N/2;
    w_j alternates for s = 0 and the tail sign is -1 for s in {1, 3}."""
    c = [0.0] * N
    for j in range(1, (N + 1) // 2):
        w = 1.0 - 2.0 * (j - 1.0) / (N - 2.0)
        if s == 0:
            w *= (-1.0) ** (j - 1)
        c[j] += w * (N - j) / (N - 1.0)
        c[N - j] += (-1.0 if s in (1, 3) else 1.0) * w * j / (N - 1.0)
    return RealPoly.of(c).coeffs


def test_family_bits_match_the_displayed_formula():
    for s in range(5):
        for N in range(5 if s < 3 else 6, 202, 2):
            got = [c.hex() for c in F_family(s, N).poly.coeffs]
            assert got == [c.hex() for c in _displayed_family(s, N)], (s, N)


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


def test_phi_mirror_index_is_phi_at_minus_z():
    """phi_k(N, N-k)(z) = phi_k(N, k)(-z) within 16u max|c| for k <= N-1: the
    mirror identity of the kernels, carried to their numerators."""
    u = 2.0**-53
    for N in range(5, 42, 2):
        signs = (-1.0) ** np.arange(N + 3)
        for k in range(1, N):
            c, mirror = np.asarray(phi_k(N, k).coeffs), np.asarray(phi_k(N, N - k).coeffs)
            gap = np.max(np.abs(mirror - signs * c)) / (u * np.max(np.abs(c)))
            assert gap <= 16.0, (N, k, gap)


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
    # suffridge_membership(tilde_p(N), N-1) tests: it solves K_k for
    # k <= (N-1)/2 and covers k > (N-1)/2 as the mirror K_(N-k)(-z).
    for N in range(5, 22, 2):
        f = tilde_p(N)
        assert suffridge_membership(f, N - 1), N
        for k in range(1, N):
            alpha = k * math.pi / N
            kernel = _kernel(f, N - 1, k)
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
    for N in (5, 9, 13, 101, 201):
        ch = quasi_extremal_checks(N)
        assert ch.derivative_magnitudes[:5] == (0.0,) * 5
        assert ch.derivative_magnitudes[5] > 1e-3 * ch.scale
        assert ch.deflated_circle_deviation <= 1e-13
        if N <= 13:
            assert ch.identity_deviation <= 1e-11
    # N = 5: the fifth derivative at -1 is exactly 7!/1 = 5040
    assert quasi_extremal_checks(5).derivative_magnitudes[5] == 5040.0


def test_W_checks_refuse_a_split_root_at_minus_one(monkeypatch):
    # A relative 1e-6 change in the constant term splits the 5-fold root at -1
    # into simple roots, so no deviation over "the other roots" is defined.
    def perturbed(N):
        c = list(quasi_extremal_W(N).coeffs)
        c[0] *= 1.0 + 1e-6
        return RealPoly.of(c)

    monkeypatch.setattr(univalent, "quasi_extremal_W", perturbed)
    for N in (5, 7, 21):
        with pytest.raises(NoConvergence, match="multiplicity 1 near -1"):
            quasi_extremal_checks(N)


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


@pytest.mark.parametrize("scale", [1e-100, 1e-150, 1e150])
def test_scan_crossing_at_extreme_scales(scale):
    # a product of two orientations underflows to 0 at 1e-100 and overflows at
    # 1e150; the limacons add the box sweep over 4096 segments at each scale
    pts = scale * np.array([0 + 0j, 1 + 1j, 1 + 0j, 0 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not simple_curve_scan(BoundaryImage(np.arange(4.0), pts, 4))
        for a, simple in ((0.3, True), (0.6, False)):
            img = boundary_image(_np([0.0, 1.0, a], 2), 4096)
            img = BoundaryImage(img.ts, scale * img.points, 4096)
            assert simple_curve_scan(img) is simple


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _on_segment(c, a, b):
    """c on the closed segment ab (a point if a == b), exactly in integers."""
    ab, ac = b - a, c - a
    dot = np.sum(ac * ab, axis=-1)
    on_line = (_cross(ab, ac) == 0) & (0 <= dot) & (dot <= np.sum(ab * ab, axis=-1))
    return on_line & (np.any(ab != 0, axis=-1) | np.all(ac == 0, axis=-1))


def _nonadjacent_pairs(m):
    """Index pairs i < j of the closed polyline's segments that share no end."""
    i, j = np.triu_indices(m, 2)
    keep = ~((i == 0) & (j == m - 1))
    return i[keep], j[keep]


def _brute_force_simple(pts) -> bool:
    """Exact reference on integer points: for every pair of non-adjacent
    segments solve p1 + t(p2-p1) = q1 + u(q2-q1) in int64 arithmetic."""
    p = np.array(pts, dtype=np.int64)
    assert np.abs(p).max() < 2**20  # every product below stays exact
    i, j = _nonadjacent_pairs(len(p))
    p1, p2, q1, q2 = p[i], np.roll(p, -1, 0)[i], p[j], np.roll(p, -1, 0)[j]
    r, s, w = p2 - p1, q2 - q1, q1 - p1
    det = _cross(r, s)
    # t = cross(w, s) / det and u = cross(w, r) / det both in [0, 1]
    ts, us, d = np.sign(det) * _cross(w, s), np.sign(det) * _cross(w, r), np.abs(det)
    if np.any((det != 0) & (0 <= ts) & (ts <= d) & (0 <= us) & (us <= d)):
        return False
    # parallel or degenerate: the segments meet iff an endpoint lies on the other
    par = det == 0
    p1, p2, q1, q2 = p1[par], p2[par], q1[par], q2[par]
    return not np.any(
        _on_segment(p1, q1, q2) | _on_segment(p2, q1, q2)
        | _on_segment(q1, p1, p2) | _on_segment(q2, p1, p2)
    )


def _scan_points(pts) -> bool:
    z = np.array([complex(x, y) for x, y in pts])
    return simple_curve_scan(BoundaryImage(np.arange(float(len(z))), z, len(z)))


def test_scan_matches_exact_brute_force_on_grid_polylines():
    # a 4x4 grid makes collinear overlaps and vertex-on-segment contacts common
    rng = random.Random(2024)
    verdicts = []
    for _ in range(3000):
        m = rng.randint(3, 9)
        pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(m)]
        expected = _brute_force_simple(pts)
        assert _scan_points(pts) == expected, pts
        verdicts.append(expected)
    assert 300 < sum(verdicts) < 2700


def _star_polygon(rng, m, spiky):
    """m integer points sorted by angle about the origin, one per direction.
    Spiky ones mix radii 5..100, so many segment boxes overlap near 0."""
    pts = {}
    while len(pts) < m:
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(5.0, 100.0) if spiky and rng.random() < 0.5 else rng.uniform(80.0, 100.0)
        x, y = round(r * math.cos(a)), round(r * math.sin(a))
        g = math.gcd(x, y)
        pts.setdefault((x // g, y // g), (x, y))
    return sorted(pts.values(), key=lambda p: math.atan2(p[1], p[0]))


def _lattice_point_on(a, b, rng):
    g = math.gcd(b[0] - a[0], b[1] - a[1]) or 1
    k = rng.randint(0, g)
    return (a[0] + k * (b[0] - a[0]) // g, a[1] + k * (b[1] - a[1]) // g)


def _perturb(pts, rng):
    """Make contact with an edge e not adjacent to vertex k's two edges."""
    m = len(pts)
    k = rng.randrange(m)
    e = (k + rng.randint(2, m - 2)) % m
    a, b = pts[e], pts[(e + 1) % m]
    kind = rng.randrange(3)
    if kind == 0:  # vertex exactly on the edge, its ends included
        pts[k] = _lattice_point_on(a, b, rng)
    elif kind == 1:  # segment k on edge e's line: collinear overlap
        pts[k], pts[(k + 1) % m] = _lattice_point_on(a, b, rng), _lattice_point_on(a, b, rng)
    else:  # vertex on the edge's end, next vertex beyond it in x: boxes touch at lo == hi
        pts[k] = a
        pts[(k + 1) % m] = (a[0] + (a[0] - b[0] or 1), pts[(k + 1) % m][1])
    return pts


def _candidate_pairs_lower_bound(pts) -> int:
    """Non-adjacent segment pairs whose closed boxes overlap on both axes."""
    p = np.array(pts, dtype=float)
    lo, hi = np.minimum(p, np.roll(p, -1, 0)), np.maximum(p, np.roll(p, -1, 0))
    i, j = _nonadjacent_pairs(len(p))
    return int(np.sum(np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)))


def test_scan_matches_exact_brute_force_on_star_polygons():
    rng = random.Random(2025)
    curves = []
    for _ in range(400):
        m = round(30 * 10 ** rng.random())  # 30..300, log-uniform
        pts = _star_polygon(rng, m, rng.random() < 0.5)
        curves.append(_perturb(pts, rng) if rng.random() < 0.4 else pts)
    # 300 spikes to radius 1000 between radius-100 valleys: some 9000 box
    # pairs overlap, more than four chunks; then the same with a small bow tie
    # at one tip, whose crossing is the last candidate pair the y sweep reaches
    spikes = [
        (round(r * math.cos(a)), round(r * math.sin(a)))
        for k in range(300)
        for a, r in [(2 * math.pi * k / 300, 1000.0 if k % 2 else 100.0)]
    ]
    assert _candidate_pairs_lower_bound(spikes) > 4 * SCAN_CHUNK
    x, y = spikes[37]
    bow_tie = [(x, y), (x + 20, y + 20), (x + 20, y), (x, y + 20)]
    curves += [spikes, spikes[:37] + bow_tie + spikes[38:]]
    verdicts = []
    for pts in curves:
        expected = _brute_force_simple(pts)
        assert _scan_points(pts) == expected, pts
        verdicts.append(expected)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def _memory_case(case):
    if case == "F_family(1, 101)":
        return boundary_image(F_family(1, 101), 65536), True
    m = 4096 if case == "doubled circle" else 1024
    ts = np.arange(m) * (2.0 * math.pi / m)
    if case == "doubled circle":
        return BoundaryImage(ts, np.exp(2j * ts), m), False
    # 512 spikes from radius 0.05 to 1: each segment box overlaps about m/4
    # others on both axes, so the broad phase passes O(m^2) pairs
    radius = np.where(np.arange(m) % 2, 1.0, 0.05)
    return BoundaryImage(ts, radius * np.exp(1j * ts), m), True


@pytest.mark.parametrize("case", ["F_family(1, 101)", "doubled circle", "spiky star"])
def test_scan_working_memory_is_linear_in_samples(case):
    img, simple = _memory_case(case)
    tracemalloc.start()
    try:
        assert simple_curve_scan(img) is simple
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * len(img.points)


def test_scan_degenerate_touch():
    # vertex of one segment lands exactly on a non-adjacent segment
    pts = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0.5 + 0j, 0 + 1j])
    img = BoundaryImage(np.arange(5.0), pts, 5)
    assert not simple_curve_scan(img)


def test_scan_tiny_polyline_trivially_simple():
    img = BoundaryImage(np.arange(3.0), np.array([0j, 1j, 1 + 1j]), 3)
    assert simple_curve_scan(img)
