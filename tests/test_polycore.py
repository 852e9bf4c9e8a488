import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from quadrinomials.families import QuadSpec, build_quadrinomial
from quadrinomials.polycore import (
    NoConvergence,
    RealPoly,
    Root,
    RootNotPresent,
    RootSet,
    SolverOptions,
    _TaylorChain,
    classify_roots,
    deflate,
    find_roots,
    self_reciprocal_sign,
)

QUINTIC = RealPoly.of([1, 5 / 3, 0, 0, 5 / 3, 1])  # (1+z)^3 (1 - (4/3)z + z^2)


def test_eval_quadratic_at_i():
    assert RealPoly.of([1, 0, 1])(1j) == 0


def test_eval_unit_circle_sum():
    assert RealPoly.of([1, 0, 0, 0, 1])(1.0) == 2.0


def test_eval_quintic_at_minus_one():
    assert abs(QUINTIC(-1.0)) < 1e-15


def test_eval_vectorized_matches_scalar():
    p = RealPoly.of([0.3, -1.2, 0.0, 2.5])
    zs = np.array([0.5 + 0.1j, -2.0 + 0j, 1j])
    got = p(zs)
    for z, w in zip(zs, got):
        assert abs(w - p(complex(z))) < 1e-14


def test_derivative_basic():
    assert RealPoly.of([1, 1, 0, 1, 1]).derivative().coeffs == (1.0, 0.0, 3.0, 4.0)


def test_derivative_constant_is_zero_poly():
    assert RealPoly.of([7.0]).derivative().coeffs == ()


def test_derivative_quadrinomial_shape():
    # derivative of 1 + k(z + z^(N-1)) + z^N is k + k(N-1) z^(N-2) + N z^(N-1)
    N, k = 7, 0.35
    c = [0.0] * (N + 1)
    c[0], c[1], c[N - 1], c[N] = 1.0, k, k, 1.0
    d = RealPoly.of(c).derivative()
    expect = [0.0] * N
    expect[0], expect[N - 2], expect[N - 1] = k, k * (N - 1), N
    assert_allclose(d.coeffs, expect, rtol=0, atol=0)


def test_multiply_difference_of_squares():
    assert (RealPoly.of([1, 1]) * RealPoly.of([1, -1])).coeffs == (1.0, 0.0, -1.0)


def test_multiply_quintic_factors():
    cube = RealPoly.of([1, 1])
    prod = cube * cube * cube * RealPoly.of([1, -4 / 3, 1])
    assert_allclose(prod.coeffs, QUINTIC.coeffs, atol=1e-15)


def test_multiply_sparse():
    got = RealPoly.of([1, 1]) * RealPoly.of([1, 0, 0, 1])
    assert got.coeffs == (1.0, 1.0, 0.0, 1.0, 1.0)


def test_multiply_commutative_degree_additive():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = RealPoly.of(rng.normal(size=rng.integers(1, 9)))
        q = RealPoly.of(rng.normal(size=rng.integers(1, 9)))
        if p.degree < 0 or q.degree < 0:
            continue
        assert_allclose((p * q).coeffs, (q * p).coeffs, rtol=1e-13, atol=1e-13)
        assert (p * q).degree == p.degree + q.degree


def test_deflate_triple_root():
    assert_allclose(deflate(QUINTIC, -1.0, 3).coeffs, [1.0, -4 / 3, 1.0], atol=1e-12)


def test_deflate_sign_convention():
    # (1 - z^2) / (z - 1) = -(1 + z)
    assert deflate(RealPoly.of([1, 0, -1]), 1.0, 1).coeffs == (-1.0, -1.0)


def test_deflate_missing_root_raises():
    with pytest.raises(RootNotPresent):
        deflate(RealPoly.of([1, 0, 1]), 1.0, 1)


def test_deflate_multiply_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = RealPoly.of(rng.normal(size=5))
        if q.degree < 1:
            continue
        root = float(rng.choice([-1.0, 1.0]))
        m = int(rng.integers(1, 4))
        p = q
        for _ in range(m):
            p = p * RealPoly.of([-root, 1.0])
        back = deflate(p, root, m)
        assert_allclose(back.coeffs, q.coeffs, atol=1e-12 * (1 + p.norm_inf))


def test_find_roots_conjugate_pair():
    rs = find_roots(RealPoly.of([1, 0, 1]))
    vals = sorted(rs.values(), key=lambda z: z.imag)
    assert_allclose([vals[0].real, vals[0].imag], [0, -1], atol=1e-12)
    assert_allclose([vals[1].real, vals[1].imag], [0, 1], atol=1e-12)


def test_find_roots_double_root_quartic():
    # 1 + z + z^3 + z^4 = (1+z)^2 (1 - z + z^2)
    rs = find_roots(RealPoly.of([1, 1, 0, 1, 1]))
    assert rs.total == 4
    by_mult = {r.multiplicity: r for r in rs.roots}
    assert sorted(r.multiplicity for r in rs.roots) == [1, 1, 2]
    assert abs(by_mult[2].value + 1.0) < 1e-7
    singles = sorted((r.value for r in rs.roots if r.multiplicity == 1), key=lambda z: z.imag)
    assert_allclose([singles[1].real, singles[1].imag], [0.5, np.sqrt(3) / 2], atol=1e-12)


def test_find_roots_triple_root_quintic():
    rs = find_roots(QUINTIC)
    assert rs.total == 5
    triple = [r for r in rs.roots if r.multiplicity == 3]
    assert len(triple) == 1
    assert abs(triple[0].value + 1.0) < 1e-9
    pair = sorted((r.value for r in rs.roots if r.multiplicity == 1), key=lambda z: z.imag)
    assert_allclose([pair[1].real, pair[1].imag], [2 / 3, np.sqrt(5) / 3], atol=1e-12)
    assert all(abs(abs(v) - 1.0) < 1e-9 for v in rs.values())


def test_find_roots_strips_zero_roots():
    # z^2 (z - 2)
    rs = find_roots(RealPoly.of([0, 0, -2, 1]))
    zero = [r for r in rs.roots if r.value == 0]
    assert zero and zero[0].multiplicity == 2 and zero[0].residual == 0.0
    assert any(abs(r.value - 2.0) < 1e-12 for r in rs.roots)


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(RealPoly.of([3.0]))


def test_residual_bound_raises_and_reports_best():
    with pytest.raises(NoConvergence) as exc:
        find_roots(QUINTIC, SolverOptions(residual_scale=1e-30))
    assert exc.value.best is not None
    assert exc.value.best.total == 5


def test_residual_is_the_backward_error_that_gates():
    # A root of modulus 1.6: |p|/(1+|p|_inf) would overstate its backward error.
    p = RealPoly.of([6, -5, 1, 0, 2])
    worst = max(r.residual for r in find_roots(p).roots)
    assert worst > 0
    find_roots(p, SolverOptions(residual_scale=worst))
    with pytest.raises(NoConvergence):
        find_roots(p, SolverOptions(residual_scale=0.99 * worst))


def test_taylor_chain_matches_raw_derivatives():
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = rng.normal(size=int(rng.integers(2, 62)))
        chain = _TaylorChain(c)
        for k in range(len(c)):
            assert_allclose(chain[k] * math.factorial(k), npp.polyder(c, k), rtol=1e-12, atol=0)


@pytest.mark.parametrize("N", [171, 201, 501, 1000])
@pytest.mark.parametrize("family", ["P", "Q"])
def test_find_roots_clean_at_high_degree(family, N):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = find_roots(build_quadrinomial(QuadSpec(family, 0.3, N)))
    assert rs.total == N


def _product_from_roots(real_roots, upper_roots, shuffle_rng):
    # Multiply factors in shuffled order: multiplying along increasing
    # angle confines intermediate root sets to an arc, whose coefficients
    # grow combinatorially and wreck the final accuracy.
    c = np.array([1.0])
    for r in real_roots:
        c = npp.polymul(c, [-r, 1.0])
    upper_roots = np.asarray(upper_roots)
    for u in upper_roots[shuffle_rng.permutation(upper_roots.size)]:
        c = npp.polymul(c, [abs(u) ** 2, -2 * u.real, 1.0])
    return c


def test_reconstruction_degree_64():
    rng = np.random.default_rng(3)
    real_roots = np.array([-1.004, 0.996])
    radii = rng.uniform(0.995, 1.005, size=31)
    upper = radii * np.exp(1j * np.pi * (np.arange(31) + 0.5) / 32)
    coeffs = _product_from_roots(real_roots, upper, rng)
    assert len(coeffs) == 65

    rs = find_roots(RealPoly.of(coeffs))
    found = np.array(rs.with_multiplicity())
    assert found.size == 64
    known = np.concatenate([real_roots.astype(complex), upper, np.conj(upper)])
    recovery = np.max(np.min(np.abs(found[:, None] - known[None, :]), axis=1))
    assert recovery < 1e-8

    rebuilt = _product_from_roots(
        found[np.abs(found.imag) <= 1e-8].real,
        found[found.imag > 1e-8],
        rng,
    )
    assert np.max(np.abs(rebuilt - coeffs)) < 1e-8


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(10):
        p = RealPoly.of(rng.normal(size=rng.integers(2, 22)))
        if p.degree < 1:
            continue
        d = p.derivative()
        for x in rng.uniform(-1, 1, size=5):
            fd = (p(x + h) - p(x - h)) / (2 * h)
            assert abs(fd - d(x)) <= 1e-6 * (1 + abs(d(x)))


def test_self_reciprocal_signs():
    assert self_reciprocal_sign(RealPoly.of([1, 0.4, 0.4, 1])) == 1
    assert self_reciprocal_sign(RealPoly.of([1, 0.4, -0.4, -1])) == -1
    assert self_reciprocal_sign(RealPoly.of([1, 2])) is None


def test_classify_all_on_circle():
    counts = classify_roots(find_roots(RealPoly.of([1, 0, 0, 0, 1])))
    assert counts == (4, 0, 0)


def test_classify_inside_outside():
    # z^2 - 4 has roots at -2 and +2, both outside the unit circle.
    counts = classify_roots(find_roots(RealPoly.of([-4, 0, 1])))
    assert counts == (0, 0, 2)
    # z^2 - 4z has roots at 0 and 4: one inside, one outside.
    counts = classify_roots(find_roots(RealPoly.of([0, -4, 1])))
    assert counts == (0, 1, 1)


def test_classify_multiplicity_relaxes_tolerance():
    rs = RootSet((Root(complex(1 + 5e-6, 0), 2, 0.0), Root(complex(1 + 5e-6, 0), 1, 0.0)), 3)
    counts = classify_roots(rs, circle_tol=1e-8)
    assert counts.on_circle == 2 and counts.outside == 1


def test_classify_counts_sum_to_degree():
    # Roots drawn from a bounded annulus: with unconstrained coefficients
    # a root of modulus ~2.5 pushes the evaluation noise floor
    # eps * sum |c_j| |z|^j past the solver's residual bound.
    rng = np.random.default_rng(23)
    for _ in range(15):
        n_real = int(rng.integers(0, 3))
        n_pairs = int(rng.integers(1, 5))
        reals = rng.uniform(0.4, 1.6, size=n_real) * rng.choice([-1.0, 1.0], size=n_real)
        moduli = rng.uniform(0.4, 1.6, size=n_pairs)
        moduli[rng.random(size=n_pairs) < 0.3] = 1.0
        upper = moduli * np.exp(1j * rng.uniform(0.1, np.pi - 0.1, size=n_pairs))
        p = RealPoly.of(_product_from_roots(reals, upper, rng))
        rs = find_roots(p)
        counts = classify_roots(rs)
        assert sum(counts) == rs.total == p.degree == n_real + 2 * n_pairs
