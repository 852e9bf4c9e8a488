import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadrinomials.chebyshev import (
    BracketFailure,
    ChebRootList,
    _newton_in_bracket,
    positive_roots_U,
    positive_roots_U_prime,
)


# Scalar oracles for U_n and U'_n, independent of the closed forms and the
# Newton iteration in quadrinomials.chebyshev.


def cheb_U(n: int, x: float) -> float:
    """U_n(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def cheb_U_prime(n: int, x: float) -> float:
    """d/dx U_n(x), switching to the exact limit near x = +/-1.

    Away from the endpoints this is ((n+2) U_{n-1} - n U_{n+1}) / (2(1-x^2));
    at x = +/-1 the limit is (+/-1)^(n-1) n(n+1)(n+2)/3.
    """
    if n < 1:
        return 0.0
    if abs(abs(x) - 1.0) <= 1e-8:
        sign = 1.0 if x > 0 else (-1.0) ** (n - 1)
        return sign * n * (n + 1) * (n + 2) / 3.0
    return ((n + 2) * cheb_U(n - 1, x) - n * cheb_U(n + 1, x)) / (2.0 * (1.0 - x * x))


def test_low_degree_closed_forms():
    for x in (-1.3, -0.4, 0.0, 0.25, 0.9, 2.0):
        assert cheb_U(0, x) == 1.0
        assert cheb_U(1, x) == 2.0 * x
        assert_allclose(cheb_U(2, x), 4 * x * x - 1, rtol=1e-14)
        assert_allclose(cheb_U(3, x), 8 * x**3 - 4 * x, rtol=1e-13, atol=1e-14)


def test_endpoint_values():
    for n in range(12):
        assert_allclose(cheb_U(n, 1.0), n + 1, rtol=1e-13)
        assert_allclose(cheb_U(n, -1.0), (-1) ** n * (n + 1), rtol=1e-13)


def test_trig_identity():
    """sin t * U_n(cos t) = sin((n+1) t) away from t = 0, pi."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        t = rng.uniform(0.05, math.pi - 0.05)
        lhs = math.sin(t) * cheb_U(n, math.cos(t))
        assert_allclose(lhs, math.sin((n + 1) * t), atol=1e-11)


def test_parity():
    rng = np.random.default_rng(11)
    for n in range(1, 15):
        for x in rng.uniform(-1.5, 1.5, size=4):
            assert_allclose(cheb_U(n, -x), (-1) ** n * cheb_U(n, x), rtol=1e-11, atol=1e-11)


def test_leading_coefficient_behavior():
    # U_n(x) = (2x)^n - (n-1)(2x)^(n-2) + ..., so at x = 1000 the ratio
    # against (2x)^n is 1 up to O(n/x^2).
    for n in range(1, 9):
        ratio = cheb_U(n, 1000.0) / (2000.0**n)
        assert abs(ratio - 1.0) < 1e-4


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(30):
        n = int(rng.integers(1, 15))
        x = rng.uniform(-0.95, 0.95)
        fd = (cheb_U(n, x + h) - cheb_U(n, x - h)) / (2 * h)
        d = cheb_U_prime(n, x)
        assert abs(fd - d) <= 1e-4 * (1.0 + abs(d))


def test_derivative_endpoint_formula_and_continuity():
    for n in range(1, 20):
        val = n * (n + 1) * (n + 2) / 3.0
        assert cheb_U_prime(n, 1.0) == val
        assert cheb_U_prime(n, -1.0) == (-1.0) ** (n - 1) * val
    # the rational expression just outside the switchover agrees with the limit
    for n in (3, 7, 12):
        lim = n * (n + 1) * (n + 2) / 3.0
        direct = cheb_U_prime(n, 1.0 - 2e-8)
        assert abs(direct - lim) < 1e-5 * lim


def test_derivative_n0_is_zero():
    assert cheb_U_prime(0, 0.3) == 0.0


def test_positive_roots_closed_form():
    for n in range(1, 30):
        got = positive_roots_U(n)
        assert got.kind == "U" and got.n == n
        # cos(j pi/(n+1)) is positive exactly when 2j < n+1; the float
        # cosine of pi/2 is ~6e-17, so filter by index, not by value
        expected = [math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1) if 2 * j < n + 1]
        assert_allclose(got.values, expected, rtol=1e-15, atol=1e-15)
        assert len(got.values) == (n - n % 2) // 2
        assert all(1 > a > b > 0 for a, b in zip(got.values, got.values[1:]))


def test_positive_roots_rejects_bad_n():
    with pytest.raises(ValueError):
        positive_roots_U(0)
    with pytest.raises(ValueError):
        positive_roots_U_prime(1)


def test_derivative_roots_count_and_interlacing():
    for n in [*range(2, 101), 101, 255, 500, 1000]:
        mu = positive_roots_U(n).values
        nu = positive_roots_U_prime(n)
        assert nu.kind == "U_prime"
        expected_count = (n - 1) // 2 if n % 2 == 1 else (n - 2) // 2
        assert len(nu.values) == expected_count
        # strictly interlaced: one derivative zero per gap, descending
        for i, v in enumerate(nu.values):
            hi = mu[i]
            lo = mu[i + 1] if i + 1 < len(mu) else 0.0
            assert lo < v < hi
        # each reported value really is a zero of U'_n (scale ~ n^3)
        scale = n * (n + 1) * (n + 2) / 3.0
        for v in nu.values:
            assert abs(cheb_U_prime(n, v)) <= 1e-9 * scale


def test_derivative_roots_match_second_derivative_of_T():
    # U_n = T'_{n+1} / (n+1), so U'_n and T''_{n+1} share their zeros; numpy
    # finds those from the Chebyshev-basis companion matrix, not from U_n
    for n in range(2, 61):
        oracle = np.polynomial.Chebyshev.basis(n + 1).deriv(2).roots()
        assert np.all(np.abs(oracle.imag) <= 1e-10)
        oracle = np.sort(oracle.real[oracle.real > 1e-10])[::-1]
        assert_allclose(positive_roots_U_prime(n).values, oracle, rtol=0, atol=1e-10)


def test_derivative_roots_small_cases():
    # U'_3 = 24 x^2 - 4 vanishes at 1/sqrt(6); U'_4 = 64 x^3 - 24 x at sqrt(3/8)
    assert_allclose(positive_roots_U_prime(3).values, [1 / math.sqrt(6)], rtol=1e-12)
    assert_allclose(positive_roots_U_prime(4).values, [math.sqrt(3.0 / 8.0)], rtol=1e-12)
    assert positive_roots_U_prime(2).values == ()


def test_product_representation():
    """U_n(x) = 2^n * prod (x - zero), with zeros symmetric about 0."""
    for n in range(1, 13):
        nu = positive_roots_U(n).values
        for x in (0.3, 1.7, -0.8):
            prod = 2.0**n * np.prod([x * x - v * v for v in nu])
            if n % 2 == 1:
                prod *= x
            assert_allclose(prod, cheb_U(n, x), rtol=1e-11, atol=1e-12)


def test_mapped_is_cosine_of_doubled_arcsine():
    for lst in (positive_roots_U(9), positive_roots_U_prime(9)):
        for v, m in zip(lst.values, lst.mapped):
            assert_allclose(m, math.cos(2 * math.asin(v)), rtol=1e-13)
            assert_allclose(m, 1 - 2 * v * v, rtol=1e-15)


def test_bracket_failure_raised_without_sign_change():
    with pytest.raises(BracketFailure):
        _newton_in_bracket(4, 0.05, 0.1)


def test_root_list_is_frozen():
    lst = ChebRootList("U", 3, (0.5,))
    with pytest.raises(Exception):
        lst.values = (0.1,)
