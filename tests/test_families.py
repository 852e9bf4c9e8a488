import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadrinomials.chebyshev import positive_roots_U
from quadrinomials.families import (
    FactoredForm,
    NotALimitCase,
    ParityMismatch,
    QuadSpec,
    build_quadrinomial,
    circle_criterion,
    cusp_angles,
    factorize_limit_case,
    kappa_limits,
    verify_criterion,
    verify_factorization,
)
from quadrinomials.families import _bit_reversed
from quadrinomials.polycore import RealPoly, find_roots, self_reciprocal_sign
from quadrinomials.univalent import alexander_derivative_factored, fejer_derivative_factored, quasi_extremal_W


def test_spec_validation():
    s = QuadSpec("p", Fraction(1), 5)
    assert s.family == "P"
    with pytest.raises(ValueError):
        QuadSpec("R", 1, 5)
    with pytest.raises(ValueError):
        QuadSpec("P", 1, 2)
    with pytest.raises(ValueError):
        QuadSpec("P", 1, 5.0)  # type: ignore[arg-type]
    huge = 10**400  # exact, but beyond the float range
    for kappa in (float("inf"), huge, Fraction(-huge), Fraction(huge, 3)):
        with pytest.raises(ValueError, match="kappa must be finite"):
            QuadSpec("P", kappa, 5)
    assert QuadSpec("P", Fraction(10**300, 7), 5).kappa == Fraction(10**300, 7)
    # an int (bool included) is stored as a Fraction, the one exact type;
    # floats and numpy scalars stay as given
    for kappa in (1, True):
        assert type(QuadSpec("P", kappa, 5).kappa) is Fraction
        assert QuadSpec("P", kappa, 5).kappa == Fraction(1)
    assert type(QuadSpec("P", np.int64(1), 4).kappa) is np.int64
    assert type(QuadSpec("P", 0.5, 4).kappa) is float


def test_build_examples():
    assert build_quadrinomial(QuadSpec("P", 2, 4)).coeffs == (1.0, 2.0, 0.0, 2.0, 1.0)
    assert build_quadrinomial(QuadSpec("Q", 2, 4)).coeffs == (1.0, 2.0, 0.0, -2.0, -1.0)
    # at N = 3 the two kappa terms share the z and z^2 slots
    assert build_quadrinomial(QuadSpec("P", Fraction(1, 2), 3)).coeffs == (1.0, 0.5, 0.5, 1.0)
    assert build_quadrinomial(QuadSpec("Q", Fraction(1, 2), 3)).coeffs == (1.0, 0.5, -0.5, -1.0)


def test_build_reciprocal_symmetry():
    """P builds are palindromic, Q builds anti-palindromic."""
    for N in (3, 4, 9, 14):
        p = build_quadrinomial(QuadSpec("P", 0.37, N))
        q = build_quadrinomial(QuadSpec("Q", 0.37, N))
        assert p.coeffs == p.coeffs[::-1]
        assert q.coeffs == tuple(-c for c in q.coeffs[::-1])
        assert self_reciprocal_sign(p) == 1
        assert self_reciprocal_sign(q) == -1


def test_kappa_limits_exact():
    assert kappa_limits("P", 5) == (Fraction(-1), Fraction(5, 3))
    assert kappa_limits("P", 6) == (Fraction(-1), Fraction(1))
    assert kappa_limits("Q", 5) == (Fraction(-5, 3), Fraction(1))
    assert kappa_limits("Q", 6) == (Fraction(-3, 2), Fraction(3, 2))
    assert kappa_limits("q", 3) == (Fraction(-3), Fraction(1))
    with pytest.raises(ValueError):
        kappa_limits("P", 2)
    with pytest.raises(ValueError):
        kappa_limits("X", 5)


def test_criterion_closed_at_endpoints():
    assert circle_criterion(QuadSpec("P", Fraction(5, 3), 5))
    assert circle_criterion(QuadSpec("P", -1, 5))
    assert not circle_criterion(QuadSpec("P", Fraction(5, 3) + Fraction(1, 10**9), 5))
    assert not circle_criterion(QuadSpec("Q", Fraction(-3, 2) - Fraction(1, 10**9), 6))
    assert circle_criterion(QuadSpec("Q", Fraction(-3, 2), 6))


def test_verify_criterion_matches_roots():
    inside = verify_criterion(QuadSpec("P", Fraction(5, 3), 5))
    assert inside.predicted and inside.observed
    assert inside.worst_deviation <= 1e-8

    outside = verify_criterion(QuadSpec("P", 2.2, 5))
    assert not outside.predicted and not outside.observed
    assert outside.worst_deviation > 1e-3


def test_verify_criterion_small_sweep():
    rng = np.random.default_rng(29)
    for N in (3, 4, 5, 6, 11):
        for fam in "PQ":
            lo, hi = kappa_limits(fam, N)
            for u in rng.uniform(0.02, 0.98, size=3):
                kap = float(lo) + u * (float(hi) - float(lo))
                chk = verify_criterion(QuadSpec(fam, kap, N))
                assert chk.predicted and chk.observed, (fam, N, kap)
            for kap in (float(lo) - 0.3, float(hi) + 0.3):
                chk = verify_criterion(QuadSpec(fam, kap, N))
                assert not chk.predicted and not chk.observed, (fam, N, kap)


# ---------------------------------------------------------------------------
# the eight endpoint factorizations


def test_factor_P_minus_one_odd():
    f = factorize_limit_case(QuadSpec("P", -1, 5))
    assert f.linear == ((-1, 1), (1, 2))
    assert_allclose(f.quadratics, [0.0], atol=1e-15)  # U_3 zero 1/sqrt(2) maps to 0
    assert f.degree == 5
    assert verify_factorization(QuadSpec("P", -1, 5)) <= 1e-12


def test_factor_P_minus_one_even():
    f = factorize_limit_case(QuadSpec("P", -1, 4))
    assert f.linear == ((1, 2),)
    # U_2 has positive zero 1/2, mapping to 1 - 2/4 = 1/2; negated here
    assert_allclose(f.quadratics, [-0.5], atol=1e-15)
    assert f.expand().coeffs == pytest.approx((1.0, -1.0, 0.0, -1.0, 1.0), abs=1e-14)


def test_factor_P_plus_one_even():
    f = factorize_limit_case(QuadSpec("P", 1, 4))
    assert f.linear == ((-1, 2),)
    assert_allclose(f.quadratics, [0.5], atol=1e-15)
    assert f.expand().coeffs == pytest.approx((1.0, 1.0, 0.0, 1.0, 1.0), abs=1e-14)


def test_factor_P_edge_odd():
    f = factorize_limit_case(QuadSpec("P", Fraction(5, 3), 5))
    assert f.linear == ((-1, 3),)
    assert_allclose(f.quadratics, [2.0 / 3.0], rtol=1e-14)  # U'_3 zero 1/sqrt(6)
    assert verify_factorization(QuadSpec("P", Fraction(5, 3), 5)) <= 1e-12


def test_factor_Q_minus_edge_odd():
    f = factorize_limit_case(QuadSpec("Q", -3, 3))
    assert f.linear == ((1, 3),)
    assert f.quadratics == ()  # U'_1 has no positive zeros
    assert f.expand().coeffs == (1.0, -3.0, 3.0, -1.0)


def test_factor_Q_minus_edge_even():
    f = factorize_limit_case(QuadSpec("Q", -2, 4))
    assert f.linear == ((-1, 1), (1, 3))
    assert f.quadratics == ()
    assert f.expand().coeffs == pytest.approx((1.0, -2.0, 0.0, 2.0, -1.0), abs=1e-14)


def test_factor_Q_plus_edge_even():
    f = factorize_limit_case(QuadSpec("Q", 2, 4))
    assert f.linear == ((1, 1), (-1, 3))
    assert f.quadratics == ()
    assert f.expand().coeffs == pytest.approx((1.0, 2.0, 0.0, -2.0, -1.0), abs=1e-14)


def test_factor_Q_plus_one_odd():
    f = factorize_limit_case(QuadSpec("Q", 1, 5))
    assert f.linear == ((1, 1), (-1, 2))
    assert_allclose(f.quadratics, [0.0], atol=1e-15)
    assert f.expand().coeffs == pytest.approx((1.0, 1.0, 0.0, 0.0, -1.0, -1.0), abs=1e-14)
    # the mapped U_5 zeros form a set closed under negation; the sign still sets the order
    f = factorize_limit_case(QuadSpec("Q", 1, 7))
    assert f.quadratics == tuple(-c for c in positive_roots_U(5).mapped)


def test_factor_rejects_non_limit_cases():
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", 1.0, 4))  # float kappa never dispatches
    for inexact in (np.int64(1), 0.5):  # nor does a numpy scalar
        with pytest.raises(NotALimitCase, match="exact rational"):
            factorize_limit_case(QuadSpec("P", inexact, 4))
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", 1, 5))  # +1 is interior for odd N
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", Fraction(5, 3), 6))
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("Q", -1, 4))
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("Q", Fraction(1, 2), 5))
    # The table and the interval agree: of -1, 1 and +/-N/(N-2), exactly the
    # two ends of kappa_limits factor.
    for N in range(3, 102):
        edge = Fraction(N, N - 2)
        for fam in "PQ":
            ends = kappa_limits(fam, N)
            for kap in (Fraction(-1), Fraction(1), -edge, edge):
                if kap in ends:
                    assert factorize_limit_case(QuadSpec(fam, kap, N)).degree == N
                else:
                    with pytest.raises(NotALimitCase):
                        factorize_limit_case(QuadSpec(fam, kap, N))


def _endpoint_specs(Ns):
    """The four tabulated endpoint cases at each N."""
    for N in Ns:
        edge = Fraction(N, N - 2)
        if N % 2 == 0:
            kappas = (("P", -1), ("P", 1), ("Q", -edge), ("Q", edge))
        else:
            kappas = (("P", -1), ("P", edge), ("Q", -edge), ("Q", 1))
        for fam, kap in kappas:
            yield QuadSpec(fam, Fraction(kap), N)


def test_factorization_matches_build_moderate_degrees():
    for spec in _endpoint_specs(range(3, 32)):
        assert verify_factorization(spec) <= 1e-10, spec


def test_endpoint_multiplicities_match_factorization():
    """Every multiple root comes back certified at +/-1 with the factorization's
    multiplicity, refined to within 16 eps of it; W(N) has its 5-fold root at -1."""
    cases = [(build_quadrinomial(spec), factorize_limit_case(spec).linear, spec)
             for spec in _endpoint_specs([*range(3, 13), 31, 57, 101])]
    cases += [(quasi_extremal_W(N), ((-1, 5),), f"W N={N}") for N in range(5, 40, 2)]
    for p, linear, case in cases:
        rs = find_roots(p)
        multiple = sorted(
            (round(r.value.real), r.multiplicity) for r in rs.roots if r.multiplicity > 1
        )
        expected = sorted((root, m) for root, m in linear if m > 1)
        assert multiple == expected, case
        for r in rs.roots:
            if r.multiplicity > 1:
                assert abs(r.value - round(r.value.real)) <= 16 * np.finfo(float).eps, case


def test_edge_case_has_triple_root():
    """At kappa = N/(N-2) the root at -1 carries multiplicity three."""
    rs = find_roots(build_quadrinomial(QuadSpec("P", Fraction(5, 3), 5)))
    triple = [r for r in rs.roots if abs(r.value - (-1.0)) < 1e-4]
    assert len(triple) == 1 and triple[0].multiplicity == 3
    assert rs.total == 5


# ---------------------------------------------------------------------------
# cusp angles


def test_cusp_angles_smallest_case():
    assert_allclose(cusp_angles(5), [math.acos(2.0 / 3.0)], rtol=1e-14)


def test_cusp_angles_reference_values():
    got = cusp_angles(11)
    stated = [0.3173, 0.9527, 1.5911, 2.2398]
    assert len(got) == 4
    for g, s in zip(got, stated):
        assert abs(g - s) < 1e-4


def test_cusp_angles_ascending_uneven_spacing():
    for N in (9, 11, 15, 21):
        got = cusp_angles(N)
        assert len(got) == (N - 3) // 2
        assert all(b > a for a, b in zip(got, got[1:]))
        diffs = np.diff(got)
        if diffs.size > 1:
            assert np.max(diffs) - np.min(diffs) > 1e-4  # close to even, not even


def test_cusp_angles_rejects_bad_N():
    with pytest.raises(ParityMismatch, match="got 6"):
        cusp_angles(6)
    with pytest.raises(ParityMismatch):
        cusp_angles(3)


def test_factored_form_degree_and_scale():
    f = FactoredForm(((1, 2), (-1, 1)), (0.25,), scale=3.0)
    assert f.degree == 5
    assert f.expand().coeffs[0] == 3.0
    assert FactoredForm((), ()).expand().coeffs == (1.0,)


def _expand_pairwise(form: FactoredForm) -> RealPoly:
    """The reference product: one RealPoly per factor and per partial product."""
    factors = [RealPoly.of((1.0, -float(root))) for root, mult in form.linear for _ in range(mult)]
    factors += [RealPoly.of((1.0, -2.0 * c, 1.0)) for c in form.quadratics]
    if not factors:
        return RealPoly.of((form.scale,))
    factors = [factors[i] for i in _bit_reversed(len(factors))]
    while len(factors) > 1:
        paired = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        factors = paired + factors[len(paired) * 2:]
    return factors[0] if form.scale == 1.0 else factors[0].scaled(form.scale)


def _bit_reversed_by_sort(k: int) -> list[int]:
    """range(k) sorted by the bit reversal of each index over (k-1).bit_length() bits."""
    bits = (k - 1).bit_length() if k > 1 else 0
    def rev(i: int) -> int:
        out = 0
        for _ in range(bits):
            out = (out << 1) | (i & 1)
            i >>= 1
        return out
    return sorted(range(k), key=rev)


def test_bit_reversed_matches_sort_by_reversed_key():
    for k in [*range(1025), *range(1025, 4097, 61), 2047, 2048, 2049, 4095, 4096]:
        assert _bit_reversed(k) == _bit_reversed_by_sort(k), k


def test_expand_matches_pairwise_product_bitwise():
    forms = [factorize_limit_case(spec) for spec in _endpoint_specs(range(3, 102))]
    forms += [fejer_derivative_factored(N) for N in range(2, 102)]
    forms += [alexander_derivative_factored(N) for N in range(1, 102)]
    forms += [FactoredForm(((1, 2), (-1, 1)), (0.25, -0.0), scale=3.0), FactoredForm((), (), 2.0)]
    for form in forms:
        got, want = form.expand().coeffs, _expand_pairwise(form).coeffs
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64)), form
