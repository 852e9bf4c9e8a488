"""The quadrinomial families and their unit-circle structure.

Family P is 1 + kappa(z + z^(N-1)) + z^N, family Q is
1 + kappa(z - z^(N-1)) - z^N.  All zeros sit on the unit circle exactly
when kappa lies in a closed interval depending on family and the parity
of N; at the interval endpoints the polynomial factors into (1 +/- z)
powers times quadratics whose cosines come from zeros of U_{N-2} or
U'_{N-2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chebyshev import positive_roots_U, positive_roots_U_prime
from .polycore import RealPoly, classify_roots, find_roots


class NotALimitCase(ValueError):
    """The (family, kappa, parity) combination has no tabulated factorization."""


class ParityMismatch(ValueError):
    """The requested family variant needs the other parity of N."""


def _require_odd(N: int):
    if N % 2 == 0 or N < 5:
        raise ParityMismatch(f"N must be odd and >= 5, got {N}")


@dataclass(frozen=True)
class QuadSpec:
    """One quadrinomial; an int kappa is stored as a Fraction, the exact type (floats are not)."""

    family: str  # "P" or "Q"
    kappa: Fraction | float
    N: int

    def __post_init__(self):
        fam = str(self.family).upper()
        if fam not in ("P", "Q"):
            raise ValueError("family must be P or Q")
        object.__setattr__(self, "family", fam)
        if isinstance(self.kappa, int):
            object.__setattr__(self, "kappa", Fraction(self.kappa))
        if not isinstance(self.N, int) or self.N < 3:
            raise ValueError("N must be an integer >= 3")
        try:
            finite = math.isfinite(float(self.kappa))
        except OverflowError:  # an exact kappa beyond the float range
            finite = False
        if not finite:
            raise ValueError("kappa must be finite")


@dataclass(frozen=True)
class FactoredForm:
    """Product of (1 - root*z)^mult linear parts and quadratics 1 + z^2 - 2cz."""

    linear: tuple[tuple[int, int], ...]  # (root in {-1, +1}, multiplicity)
    quadratics: tuple[float, ...]  # c values, each |c| <= 1
    scale: float = 1.0

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.linear) + 2 * len(self.quadratics)

    def expand(self) -> RealPoly:
        """Multiply out, pairing factors in bit-reversed order.

        Sequential left-to-right products let intermediate coefficients grow
        huge before cancellation and lose double precision by N around 60;
        the balanced tree with interleaved factor order keeps every partial
        product tame (observed max deviation under 1e-11 through N = 101).
        """
        factors = [np.array([1.0, -float(r)]) for r, mult in self.linear for _ in range(mult)]
        factors += [np.array([1.0, -2.0 * c, 1.0]) for c in self.quadratics]
        factors = [factors[i] for i in _bit_reversed(len(factors))] or [np.ones(1)]
        while len(factors) > 1:  # plain arrays; one RealPoly at the end
            paired = [np.convolve(a, b) for a, b in zip(factors[::2], factors[1::2])]
            factors = paired + factors[2 * len(paired):]
        return RealPoly.of(self.scale * factors[0])


def _bit_reversed(k: int) -> list[int]:
    """range(k) in bit-reversed order: the evens, then the odds, each half in this order.
    Built by that split for the next power of two, then cut to range(k)."""
    order = [0]
    while len(order) < k:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    return [i for i in order if i < k]


def _mirrored(degree: int, low, sign: float) -> RealPoly:
    """sum_j low[j] (z^j + sign z^(degree-j)), with sign +1 or -1."""
    c = [0.0] * (degree + 1)
    for j, v in enumerate(low):
        c[j] += v
        c[degree - j] += sign * v
    return RealPoly.of(c)


def build_quadrinomial(spec: QuadSpec) -> RealPoly:
    return _mirrored(spec.N, (1.0, float(spec.kappa)), 1.0 if spec.family == "P" else -1.0)


class _End(NamedTuple):
    """One end of the kappa interval: kappa = sign * (N/(N-2) if edge else 1).
    The factorization there is the linear parts (root, multiplicity) times
    quadratics 1 + z^2 - 2cz with c = cos_sign * (mapped zero of U'_{N-2} if
    edge else of U_{N-2})."""

    sign: int
    edge: bool
    linear: tuple[tuple[int, int], ...]
    cos_sign: int


_ENDS = {  # (family, N odd) -> (lower end, upper end)
    ("P", False): (_End(-1, False, ((1, 2),), -1), _End(1, False, ((-1, 2),), 1)),
    ("P", True): (_End(-1, False, ((-1, 1), (1, 2)), -1), _End(1, True, ((-1, 3),), 1)),
    ("Q", False): (_End(-1, True, ((-1, 1), (1, 3)), -1), _End(1, True, ((1, 1), (-1, 3)), 1)),
    ("Q", True): (_End(-1, True, ((1, 3),), -1), _End(1, False, ((1, 1), (-1, 2)), -1)),
}


def _end_kappa(end: _End, N: int) -> Fraction:
    return Fraction(end.sign * N, N - 2) if end.edge else Fraction(end.sign)


def kappa_limits(family: str, N: int) -> tuple[Fraction, Fraction]:
    """Closed kappa interval on which all zeros lie on the unit circle."""
    if N < 3:
        raise ValueError("N must be >= 3")
    ends = _ENDS.get((family.upper(), N % 2 == 1))
    if ends is None:
        raise ValueError("family must be P or Q")
    return (_end_kappa(ends[0], N), _end_kappa(ends[1], N))


def circle_criterion(spec: QuadSpec) -> bool:
    lo, hi = kappa_limits(spec.family, spec.N)
    return lo <= spec.kappa <= hi


class CriterionCheck(NamedTuple):
    predicted: bool
    observed: bool
    worst_deviation: float


def verify_criterion(spec: QuadSpec) -> CriterionCheck:
    """The interval rule against the computed roots: observed is classify_roots
    counting all N zeros on the circle; worst_deviation is the largest ||z| - 1|."""
    rs = find_roots(build_quadrinomial(spec))
    worst = max(abs(abs(r.value) - 1.0) for r in rs.roots)
    return CriterionCheck(circle_criterion(spec), classify_roots(rs).on_circle == spec.N, worst)


def factorize_limit_case(spec: QuadSpec) -> FactoredForm:
    """Closed-form factorization at the two ends of the kappa interval (_ENDS).

    Quadratic cosines come from the mapped zeros 1 - 2x^2 of U_{N-2}
    (kappa = +/-1 cases) or U'_{N-2} (kappa = +/-N/(N-2) cases).  Dispatch
    demands an exact rational kappa; a float never matches.
    """
    if not isinstance(spec.kappa, Fraction):
        raise NotALimitCase("limit-case dispatch requires exact rational kappa")
    N = spec.N
    for end in _ENDS[spec.family, N % 2 == 1]:
        if spec.kappa == _end_kappa(end, N):
            if end.edge:
                cosines = positive_roots_U_prime(N - 2).mapped if N >= 4 else ()
            else:
                cosines = positive_roots_U(N - 2).mapped
            return FactoredForm(end.linear, tuple(end.cos_sign * c for c in cosines), 1.0)
    raise NotALimitCase(f"no tabulated case for {spec.family}, kappa={spec.kappa}, N={N}")


def verify_factorization(spec: QuadSpec) -> float:
    """Max |coefficient| gap between the factored expansion and the direct build."""
    diff = factorize_limit_case(spec).expand() - build_quadrinomial(spec)
    return diff.norm_inf


def cusp_angles(N: int) -> list[float]:
    """Angles arccos(gamma_j), ascending, for odd N >= 5.

    These locate the boundary cusps of the endpoint quadrinomial; their
    consecutive differences are close to but not exactly equal.
    """
    _require_odd(N)
    return sorted(math.acos(g) for g in positive_roots_U_prime(N - 2).mapped)
