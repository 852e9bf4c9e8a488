import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadrinomials.families import (
    FactoredForm,
    NotALimitCase,
    QuadSpec,
    build_quadrinomial,
    circle_criterion,
    cusp_angles,
    factorize_limit_case,
    kappa_limits,
    verify_criterion,
    verify_factorization,
)
from quadrinomials.polycore import find_roots, self_reciprocal_sign


def test_spec_validation():
    s = QuadSpec("p", Fraction(1), 5)
    assert s.family == "P"
    with pytest.raises(ValueError):
        QuadSpec("R", 1, 5)
    with pytest.raises(ValueError):
        QuadSpec("P", 1, 2)
    with pytest.raises(ValueError):
        QuadSpec("P", 1, 5.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        QuadSpec("P", float("inf"), 5)


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


def test_factor_rejects_non_limit_cases():
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", 1.0, 4))  # float kappa never dispatches
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", 1, 5))  # +1 is interior for odd N
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("P", Fraction(5, 3), 6))
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("Q", -1, 4))
    with pytest.raises(NotALimitCase):
        factorize_limit_case(QuadSpec("Q", Fraction(1, 2), 5))


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
    for spec in _endpoint_specs([*range(3, 13), 31, 57, 101]):
        rs = find_roots(build_quadrinomial(spec))
        multiple = sorted(
            (round(r.value.real), r.multiplicity) for r in rs.roots if r.multiplicity > 1
        )
        expected = sorted((root, m) for root, m in factorize_limit_case(spec).linear if m > 1)
        assert multiple == expected, spec
        for r in rs.roots:
            if r.multiplicity > 1:
                assert abs(r.value - round(r.value.real)) <= 1e-4, spec


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
    with pytest.raises(ValueError):
        cusp_angles(6)
    with pytest.raises(ValueError):
        cusp_angles(3)


def test_factored_form_degree_and_scale():
    f = FactoredForm(((1, 2), (-1, 1)), (0.25,), scale=3.0)
    assert f.degree == 5
    assert f.expand().coeffs[0] == 3.0
    assert FactoredForm((), ()).expand().coeffs == (1.0,)
