import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp
from numpy.testing import assert_allclose

from quadrinomials import cli, polycore
from quadrinomials.families import QuadSpec, build_quadrinomial, kappa_limits, verify_criterion
from quadrinomials.polycore import (
    NoConvergence,
    RealPoly,
    Root,
    STALL_PATIENCE,
    RootSet,
    _TaylorChain,
    _components,
    _evaluate,
    _horner,
    _polish,
    _sparse_form,
    classify_roots,
    find_roots,
    self_reciprocal_sign,
)
from quadrinomials.stability import cohn_on_circle
from quadrinomials.univalent import F_family, phi_k, quasi_extremal_W, suffridge_membership

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


def test_find_roots_conjugate_pair():
    rs = find_roots(RealPoly.of([1, 0, 1]))
    vals = sorted((r.value for r in rs.roots), key=lambda z: z.imag)
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
    assert all(abs(abs(r.value) - 1.0) < 1e-9 for r in rs.roots)


def test_find_roots_strips_zero_roots():
    # z^2 (z - 2)
    rs = find_roots(RealPoly.of([0, 0, -2, 1]))
    zero = [r for r in rs.roots if r.value == 0]
    assert zero and zero[0].multiplicity == 2 and zero[0].residual == 0.0
    assert any(abs(r.value - 2.0) < 1e-12 for r in rs.roots)


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(RealPoly.of([3.0]))


def test_residual_bound_raises_and_reports_best(monkeypatch):
    monkeypatch.setattr(polycore, "RESIDUAL_SCALE", 1e-30)
    with pytest.raises(NoConvergence) as exc:
        find_roots(QUINTIC)
    assert exc.value.best is not None
    assert exc.value.best.total == 5


def test_residual_is_the_backward_error_that_gates(monkeypatch):
    # A root of modulus 1.6: |p|/(1+|p|_inf) would overstate its backward error.
    p = RealPoly.of([6, -5, 1, 0, 2])
    worst = max(r.residual for r in find_roots(p).roots)
    assert worst > 0
    monkeypatch.setattr(polycore, "RESIDUAL_SCALE", worst)
    find_roots(p)
    monkeypatch.setattr(polycore, "RESIDUAL_SCALE", 0.99 * worst)
    with pytest.raises(NoConvergence):
        find_roots(p)


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


@pytest.mark.parametrize("kappa, N", [(3.0, 1000), (2.6, 1000), (30.0, 400)])
def test_overflowing_root_gets_a_finite_backward_error(kappa, N):
    # At the root near -kappa, |z|^N overflows, so the forward residual is inf/inf;
    # the reversed coefficients at 1/z give the same backward error.  _polish still
    # warns on this overflow, which pytest turns into errors, hence the errstate.
    with np.errstate(over="ignore", invalid="ignore"):
        rs = find_roots(build_quadrinomial(QuadSpec("P", kappa, N)))
    residuals = [r.residual for r in rs.roots]
    assert rs.total == N
    assert all(math.isfinite(r) and r <= polycore.RESIDUAL_SCALE for r in residuals)
    far = [r for r in rs.roots if abs(r.value) > 2.0]
    assert len(far) == 1 and abs(far[0].value + kappa) < 1e-12 * kappa
    assert far[0].residual <= 4 * np.finfo(float).eps


def test_backward_error_scale_stays_finite_near_the_float_maximum(capsys):
    # sum_j |c_j| of these coefficients overflows unless c is scaled exactly first;
    # the second input is the CLI's own find_roots on p' = -1.000000045e308 + 1e308 z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = find_roots(RealPoly.of([-1e308, 1e308]))
        assert cli.main(["cohn", "--coeffs", "0.5e308,-1.000000045e308,0.5e308"]) == 0
    assert rs.roots == (Root(1 + 0j, 1, 0.0),)
    assert "p' root 1.000000045" in capsys.readouterr().out


def test_non_finite_residual_fails_the_gate(monkeypatch):
    monkeypatch.setattr(polycore, "_backward_errors", lambda c, values: np.full(len(values), np.nan))
    with pytest.raises(NoConvergence):
        find_roots(QUINTIC)


def test_solver_and_circle_tests_take_no_tuning_arguments():
    for fn in (find_roots, verify_criterion, classify_roots, self_reciprocal_sign, cohn_on_circle):
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__


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
    found = np.array([r.value for r in rs.roots for _ in range(r.multiplicity)])
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


def test_self_reciprocal_sign_tolerance_is_relative():
    # a one-ulp mismatch in large coefficients is still palindromic ...
    big = RealPoly.of([1e8, 3e7, math.nextafter(1e8, 2e8)])
    assert self_reciprocal_sign(big) == 1
    assert self_reciprocal_sign(RealPoly.of([-1e8, 0.0, math.nextafter(1e8, 2e8)])) == -1
    # ... and tiny coefficients that differ by a factor of 2 are not
    assert self_reciprocal_sign(RealPoly.of([1e-13, 0.0, 5e-14])) is None


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
    counts = classify_roots(rs)
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


# --- bit identity of the array evaluator and the clustering ----------------
#
# find_roots evaluates arrays with the in-place _horner, which must round
# exactly as npp.polyval does.  Bits are compared as integers, so a signed
# zero or a NaN payload that differs fails too.


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _sparse(n, entries):
    c = np.zeros(n + 1)
    for j, v in entries:
        c[j] += v
    return c


def _coefficient_vectors(rng):
    for n in range(201):
        yield rng.normal(size=n + 1)
    for n in (3, 4, 7, 20, 51, 100, 171, 200):
        k = float(rng.uniform(-2.0, 2.0))
        yield _sparse(n, [(0, 1.0), (1, k), (n - 1, k), (n, 1.0)])  # p
        yield _sparse(n, [(0, 1.0), (1, k), (n - 1, -k), (n, -1.0)])  # q
        yield _sparse(n, [(0, k), (n - 2, k * (n - 1)), (n - 1, n)])  # p'
        yield _sparse(n, [(0, -k / n), (1, -k * (n - 1) / n), (n, 1.0)])  # trinomial


def _points(rng, size):
    circle = np.exp(1j * rng.uniform(-np.pi, np.pi, size=size))
    x = rng.uniform(-3.0, 3.0, size=size)
    on_axis = x + 0j
    below_axis = x - 0j
    below_axis.imag = -0.0
    radii = 10.0 ** rng.uniform(-3.0, 3.0, size=size)
    wide = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, size=size))
    return [circle, on_axis, below_axis, wide, x, radii * rng.choice([-1.0, 1.0], size=size)]


def test_horner_matches_polyval_bitwise():
    rng = np.random.default_rng(401)
    with np.errstate(all="ignore"):  # |z| = 1e3 at degree 200 overflows in both
        for c in _coefficient_vectors(rng):
            for z in _points(rng, int(rng.integers(1, 40))):
                assert _same_bits(_horner(c, z), npp.polyval(z, c))


def test_derivative_matches_polyder_bitwise():
    rng = np.random.default_rng(403)
    for c in _coefficient_vectors(rng):
        if len(c) < 2:
            continue
        chain = _TaylorChain(c)
        assert _same_bits(chain[1], npp.polyder(c))
        for k in range(1, min(len(c), 8)):
            assert _same_bits(chain[k], npp.polyder(chain[k - 1]) / k)


def _polish_by_polyval(c, z, budget):
    """The Newton polish written with npp.polyval and npp.polyder throughout."""
    cp = npp.polyder(c)
    best, pz = z.copy(), npp.polyval(z, c)
    best_val, stalled = np.abs(pz), 0
    for _ in range(budget):
        dv = npp.polyval(z, cp)
        step = np.where(dv == 0, 0.0, pz / np.where(dv == 0, 1.0, dv))
        z = z - step
        pz = npp.polyval(z, c)
        val = np.abs(pz)
        better = val < best_val
        best[better], best_val[better] = z[better], val[better]
        stalled = 0 if better.any() else stalled + 1
        if stalled >= STALL_PATIENCE or np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            break
    return best


def _solve(p):
    try:
        return False, find_roots(p)
    except NoConvergence as exc:
        return True, exc.best


def test_polish_and_residuals_match_polyval_bitwise(monkeypatch):
    """Dense terms polish bit for bit as npp.polyval does; a polish that takes the
    sparse form of p or p' (the N = 12 p' and the N = 33 quadrinomials) meets the
    solver contract against the all-dense solve instead: the same NoConvergence
    status and multiplicities, roots within 1e-10 * max(1, |z|) and residuals
    within RESIDUAL_SCALE.  Every residual keeps the npp.polyval bits."""
    rng = np.random.default_rng(409)
    polys = [RealPoly.of(rng.normal(size=int(rng.integers(2, 40)))) for _ in range(40)]
    polys += [build_quadrinomial(QuadSpec(f, k, N)) for f in "PQ" for k in (-1, 0.4, 1.2) for N in (5, 12, 33)]
    polys.append(QUINTIC)
    sparse_path = 0
    for p in polys:
        c = p.as_array()
        seeds = npp.polyroots(c).astype(complex)
        if _sparse_form(c) is None and _sparse_form(_TaylorChain(c)[1]) is None:
            chain = _TaylorChain(c)
            assert _same_bits(_polish(chain[0], chain[1], seeds, 500), _polish_by_polyval(c, seeds, 500))
            failed, rs = _solve(p)
        else:
            sparse_path += 1
            with monkeypatch.context() as m:
                m.setattr(polycore, "_SPARSE_SHARE", 0.0)
                dense_failed, dense = _solve(p)
            failed, rs = _solve(p)
            assert failed == dense_failed
            assert [r.multiplicity for r in rs.roots] == [r.multiplicity for r in dense.roots]
            for got, want in zip(rs.roots, dense.roots):
                assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))
                assert failed or got.residual <= polycore.RESIDUAL_SCALE
        values = np.array([r.value for r in rs.roots])
        scale = npp.polyval(np.maximum(1.0, np.abs(values)), np.abs(c))
        expected = np.abs(npp.polyval(values, c)) / scale
        assert _same_bits([r.residual for r in rs.roots], expected)
    assert sparse_path == 12


def _sparse_vector(kind, N, kappa, k):
    """A coefficient vector of degree about N with few nonzero terms."""
    odd = max(5, N | 1)
    if kind == "phi_k":
        return phi_k(odd, 1 + k % odd).as_array()
    if kind == "W":
        return quasi_extremal_W(odd).as_array()
    if kind == "p''/2":  # the Taylor term t_2 that certification evaluates: no constant term
        return _TaylorChain(_sparse_vector("p", N, kappa, k))[2]
    return _sparse(N, {
        "p": [(0, 1.0), (1, kappa), (N - 1, kappa), (N, 1.0)],
        "q": [(0, 1.0), (1, kappa), (N - 1, -kappa), (N, -1.0)],
        "p'": [(0, kappa), (N - 2, kappa * (N - 1)), (N - 1, N)],
        "trinomial": [(0, -kappa / N), (1, -kappa * (N - 1) / N), (N, 1.0)],
    }[kind])


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["p", "q", "p'", "p''/2", "trinomial", "phi_k", "W"]),
    N=st.integers(3, 1000),
    kappa=st.floats(-3.0, 3.0),
    k=st.integers(0, 1000),
    log_radius=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8),
)
@example(kind="p'", N=294, kappa=0.0, k=0, log_radius=-1.0625, angles=[0.0])  # 294 z^293 is subnormal
def test_sparse_evaluation_within_forward_error_bound(kind, N, kappa, k, log_radius, angles):
    """The sparse form against npp.polyval, at an array and at each scalar point.

    Horner's forward error in complex arithmetic is at most about
    4 (n+1) u sum_j |c_j| |z|^j (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 5.1), and binary powering keeps the sparse form under
    the same bound, so the two differ by at most 8 (n+1) u sum_j |c_j| |z|^j.
    Where a product underflows, it also carries an absolute error of up to the
    smallest subnormal eta, so 8 (n+1) eta (sum_j |c_j| + max(1,|z|)^n) is
    added.  The radius is capped where |z|^n would overflow in both.
    """
    c = _sparse_vector(kind, N, kappa, k)
    n = len(c) - 1
    e = np.flatnonzero(c)
    form = (e.tolist(), c[e].tolist())
    z = 10.0 ** min(log_radius, 300.0 / n) * np.exp(1j * np.array(angles))
    bound = 8 * (n + 1) * np.finfo(float).eps / 2 * npp.polyval(np.abs(z), np.abs(c))
    bound += 8 * (n + 1) * np.finfo(float).smallest_subnormal * (np.abs(c).sum() + np.maximum(1.0, np.abs(z)) ** n)
    want = npp.polyval(z, c)
    assert np.all(np.abs(_evaluate(c, form, {1: z}) - want) <= bound)
    for zi, wi, bi in zip(z.tolist(), want, bound):
        assert abs(_evaluate(c, form, {1: zi}) - wi) <= bi
    if 4 * len(e) <= len(c):  # the polish takes this form
        assert _sparse_form(c) == form


def test_dense_kernels_keep_the_horner_path(monkeypatch):
    """The Suffridge kernels of F_family are dense, so no evaluation of theirs
    takes the sparse form; a sparse quadrinomial does."""
    def no_sparse(powers, g):
        raise AssertionError("sparse evaluation")

    monkeypatch.setattr(polycore, "_power", no_sparse)
    for s, N in ((0, 11), (1, 21), (2, 15), (3, 12), (4, 32)):
        assert suffridge_membership(F_family(s, N), N - 1)
    with pytest.raises(AssertionError, match="sparse evaluation"):
        find_roots(build_quadrinomial(QuadSpec("P", 0.4, 33)))


def _union_find(dist, radius):
    parent = list(range(len(dist)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(dist)):
        for j in range(i + 1, len(dist)):
            if dist[i, j] <= radius:
                parent[root(j)] = root(i)
    comps: dict[int, list[int]] = {}
    for i in range(len(dist)):
        comps.setdefault(root(i), []).append(i)
    return sorted(comps.values())


def _point_sets(rng, r):
    yield np.array([0j])
    yield np.arange(12) * 3.0 * r + 0j  # all singletons
    yield rng.uniform(-1, 1, size=30) + 1j * rng.uniform(-1, 1, size=30)
    yield np.array([0, 0.9 * r, 1.8 * r, 5 * r, 5.9 * r]) + 0j  # chains a~b~c, a and c apart
    for _ in range(20):
        centers = rng.uniform(-60 * r, 60 * r, size=6) + 1j * rng.uniform(-60 * r, 60 * r, size=6)
        sizes = rng.integers(1, 5, size=6)
        pts = np.concatenate([
            c + (r / 3) * (rng.uniform(-1, 1, size=k) + 1j * rng.uniform(-1, 1, size=k))
            for c, k in zip(centers, sizes)
        ])
        chain = pts[0] + 0.9 * r * np.arange(1, int(rng.integers(2, 6)))
        yield rng.permutation(np.concatenate([pts, chain]))


def test_components_match_union_find():
    rng = np.random.default_rng(419)
    r = 1e-3
    seen_chain = seen_singletons = False
    for z in _point_sets(rng, r):
        dist = np.abs(z[:, None] - z[None, :])
        expected = _union_find(dist, r)
        assert _components(dist <= r) == expected
        seen_singletons |= all(len(comp) == 1 for comp in expected) and len(z) > 1
        seen_chain |= any(dist[comp][:, comp].max() > r for comp in expected)
    assert seen_chain and seen_singletons


def test_refused_pair_inside_split_radius_stays_uncertified(monkeypatch):
    # zeros 1, 1.001, -2: the pair is 1e-3 apart, inside SUSPICION_RADIUS and,
    # patched, inside CLUSTER_RADIUS too.  Certification refuses the pair, its
    # split is the whole pair again, and best keeps it as one uncertified cluster.
    p = RealPoly.of(npp.polyfromroots([1.0, 1.001, -2.0]))
    with monkeypatch.context() as m:
        m.setattr(polycore, "CLUSTER_RADIUS", 2e-3)
        assert polycore.CLUSTER_RADIUS < polycore.SUSPICION_RADIUS
        with pytest.raises(NoConvergence) as exc:
            find_roots(p)
    best = exc.value.best
    assert best.total == 3
    assert sorted(r.multiplicity for r in best.roots) == [1, 2]
    double = next(r for r in best.roots if r.multiplicity == 2)
    assert abs(double.value - 1.0005) < 1e-12
    assert len(find_roots(p).roots) == 3  # default radii keep the pair apart


def test_refused_cluster_keeps_its_certified_tight_part():
    # (z+1)^2 (z+1.0015) (z-2)^2: the three points near -1 lie within
    # SUSPICION_RADIUS but are no triple root, so that cluster is refused and
    # split at CLUSTER_RADIUS; the double root at -1 is certified on its own.
    rs = find_roots(RealPoly.of(npp.polyfromroots([-1.0, -1.0, -1.0015, 2.0, 2.0])))
    assert rs.total == 5
    by_value = sorted(rs.roots, key=lambda r: r.value.real)
    assert [r.multiplicity for r in by_value] == [1, 2, 2]
    assert abs(by_value[0].value + 1.0015) < 1e-9
    assert abs(by_value[1].value + 1.0) < 1e-9
    assert abs(by_value[2].value - 2.0) < 1e-9


def test_triple_root_beside_a_near_simple_root_is_certified():
    # (z-0.5)^3 (z-0.503) (z+1): the triple root's points scatter about 1e-5
    # apart, wider than CLUSTER_RADIUS.  The cluster of four is refused and
    # splits at halving radii until 0.503 stands alone; the triple is then
    # certified, not returned as three simple roots.
    rs = find_roots(RealPoly.of(npp.polyfromroots([0.5, 0.5, 0.5, 0.503, -1.0])))
    assert rs.total == 5
    by_value = sorted(rs.roots, key=lambda r: r.value.real)
    assert [r.multiplicity for r in by_value] == [1, 3, 1]
    assert abs(by_value[0].value + 1.0) < 1e-9
    assert abs(by_value[1].value - 0.5) < 1e-6
    assert abs(by_value[2].value - 0.503) < 1e-6


def test_double_root_beside_a_near_simple_root_is_not_split():
    """A double root a with a simple root within 4.5e-3 and up to three roots
    farther off: find_roots either refuses or returns a root of multiplicity
    at least 2 near a, never the double root as two simple roots."""
    rng = np.random.default_rng(1931)
    split = []
    for _ in range(300):
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        d = rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 4.5e-3)
        others = []
        for _ in range(int(rng.integers(0, 4))):
            x = rng.uniform(-3.0, 3.0)
            while abs(x - a) <= 0.05:
                x = rng.uniform(-3.0, 3.0)
            others.append(x)
        try:
            rs = find_roots(RealPoly.of(npp.polyfromroots([a, a, a + d] + others)))
        except NoConvergence:
            continue
        if not any(r.multiplicity >= 2 and abs(r.value - a) < 0.01 for r in rs.roots):
            split.append((a, d, others))
    assert split == []


def test_near_end_pair_is_two_simple_roots():
    # P at kappa = -1 - 5.87e-12, N = 19: the zeros next to +1 sit at
    # 1 +- 8.08e-7.  A double root at their mean would have backward error
    # 2.35e-12, past RESIDUAL_SCALE, so the pair is two simple roots.
    spec = QuadSpec("P", -1.0000000000058746, 19)
    rs = find_roots(build_quadrinomial(spec))
    near = sorted((r for r in rs.roots if abs(r.value - 1.0) < 1e-3), key=lambda r: r.value.real)
    assert [r.multiplicity for r in near] == [1, 1]
    assert abs(near[0].value - (1.0 - 8.08e-7)) < 1e-9
    assert abs(near[1].value - (1.0 + 8.08e-7)) < 1e-9
    assert classify_roots(rs) == (17, 1, 1)
    check = verify_criterion(spec)
    assert (check.predicted, check.observed) == (False, False)


def test_certification_never_accepts_what_the_gate_refuses():
    """Near-end quadrinomials, kappa = end +- 10^U(-12, -10): each solve returns
    or refuses an uncertified cluster, never a certified root the
    RESIDUAL_SCALE gate then refuses."""
    rng = np.random.default_rng(21)
    outcomes = {"solved": 0, "cluster": 0}
    for _ in range(300):
        family = "PQ"[int(rng.integers(2))]
        N = int(rng.integers(3, 102))
        edge = kappa_limits(family, N)[int(rng.integers(2))]
        kappa = float(edge) + float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(-12, -10)
        try:
            find_roots(build_quadrinomial(QuadSpec(family, kappa, N)))
            outcomes["solved"] += 1
        except NoConvergence as exc:
            assert "failed certification" in str(exc), (family, kappa, N, str(exc))
            outcomes["cluster"] += 1
    assert outcomes["solved"] > 200 and outcomes["cluster"] > 0


def test_find_roots_does_not_depend_on_scale():
    """An exact power-of-two factor moves no zero of p, and find_roots returns the
    same bits for it: companion seeds, Newton steps, the stall test and the
    relative backward error are all unchanged by it.  The named case, P at
    kappa = -1 - 5.87e-12, N = 19, has two simple zeros at 1 +- 8.08e-7; under
    an absolute residual test, p * 2^-5 came back with a certified double root
    at 1 and 19 zeros on the circle."""
    rng = np.random.default_rng(2025)
    polys = [build_quadrinomial(QuadSpec("P", -1.0000000000058746, 19))]
    for family in "PQ":
        for N in (5, 12, 19, 33, 41, 101):
            lo, hi = kappa_limits(family, N)
            for kappa in (lo, hi, float(lo) - 1e-12, float(hi) + 1e-12):
                polys.append(build_quadrinomial(QuadSpec(family, kappa, N)))
    polys += [phi_k(N, k) for N in (5, 9, 21) for k in range(1, N + 1)]
    for degree in range(1, 40):
        polys.append(RealPoly.of(np.append(rng.normal(size=degree), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in polys:
            want = _solve(p)  # Root equality compares value, multiplicity and residual
            for e in (-900, -40, -5, 7, 900):
                assert _solve(RealPoly.of(np.ldexp(p.as_array(), e))) == want, (p.coeffs, e)
