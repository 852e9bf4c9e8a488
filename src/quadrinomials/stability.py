"""Stability domain of the trinomial z^n + a z^(n-1) + b, plus the
self-reciprocal circle test.

The boundary of the (a, b) region where all trinomial zeros lie in the open
unit disk consists of two line segments (I, II) and two parametric arcs
(III, IV) ending at corner points reached only as t -> pi; the corners are
appended analytically since the parametric quotient degenerates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import QuadSpec
from .polycore import RESIDUAL_SCALE, RealPoly, find_roots, self_reciprocal_sign

DISK_TOL = 1e-9  # band around |z| = 1 that the disk tests ignore
T_START_OFFSET = 1e-6
SCHUR_GUARD = 1e-7


def _schur_cohn(c, radius: float) -> bool | None:
    """Every zero of sum c_j z^j in |z| < radius, by the Schur-Cohn recursion
    (Marden, Geometry of Polynomials, sections 42-45) on the monic c_j radius^j;
    None when some step's constant term k has |1 - |k|| <= SCHUR_GUARD, where
    rounding decides.  O(n) on the trinomial shape z^n + a z^(n-1) + b, O(n^2)
    on any other input.
    """
    a = np.asarray(c, dtype=float) * radius ** np.arange(len(c))
    for k in _schur_constants(a / a[-1]):
        if abs(1.0 - abs(k)) <= SCHUR_GUARD:
            return None
        if abs(k) > 1.0:
            return False
    return True


def _schur_constants(a: np.ndarray):
    """The constant term k of each Schur-Cohn step on the monic a; the step runs
    once the caller asks for the next k, so only after |k| < 1 is settled."""
    if a.size > 1 and not a[1:-2].any():
        # support {0, n-1, n} maps to itself one degree lower, so carry (beta, alpha)
        # = (a[0], a[-2]) as floats with the dense step's operations, whose a[1] is 0
        # above degree 2 and alpha at it; the leading d / d stays exactly 1
        beta, alpha = float(a[0]), float(a[-2])
        for n in range(a.size - 1, 0, -1):
            yield beta
            d = 1.0 - beta * beta
            beta, alpha = ((alpha if n == 2 else 0.0) - beta * alpha) / d, (alpha - beta * 0.0) / d
        return
    while a.size > 1:
        k = a[0]
        yield k
        # |k| < 1: by Rouche a - k a* (a* = a reversed) has as many zeros in
        # the disk as a, one of them z = 0
        a = (a[1:] - k * a[-2::-1]) / (1.0 - k * k)


def _in_disk(p: RealPoly, radius: float) -> bool:
    """Every zero of p in |z| < radius: by Schur-Cohn, or, where it declines,
    by the same strict comparison on the moduli of the found roots.

    Before the roots are found, a disk wider than the unit circle scales p
    exactly, by a power of two to max_j |c_j| in [1/2, 1), which keeps the sums
    below finite; then it strips each factor z - s, s = +-1, at which p passes
    find_roots' gate |p(s)| / sum_j |c_j| <= RESIDUAL_SCALE.  Such a zero lies
    on the circle, so inside; Schur-Cohn then decides the quotient, as for the
    zeros at +-1 of p' at every interval end.
    """
    verdict = _schur_cohn(p.coeffs, radius)
    if verdict is None and radius > 1.0:
        p = RealPoly.of(np.ldexp(p.as_array(), -np.frexp(p.norm_inf)[1]))
        c = p.as_array()
        for s in (1.0, -1.0):
            sign = s ** np.arange(len(c))
            while len(c) > 1 and abs(c @ sign[: len(c)]) <= RESIDUAL_SCALE * np.abs(c).sum():
                # synthetic division by z - s: q_(k-1) = s^k sum_(j>=k) s^j c_j, exact products
                c = np.cumsum((c * sign[: len(c)])[:0:-1])[::-1] * sign[1 : len(c)]
        verdict = _schur_cohn(c, radius)  # a constant quotient: True
    if verdict is None:
        verdict = all(abs(r.value) < radius for r in find_roots(p).roots)
    return verdict


def trinomial(n: int, a: float, b: float) -> RealPoly:
    c = [0.0] * (n + 1)
    c[0] = float(b)
    c[n - 1] += float(a)
    c[n] += 1.0
    return RealPoly.of(c)


def trinomial_in_disk(n: int, a: float, b: float) -> bool:
    """True iff every zero of z^n + a z^(n-1) + b has |z| < 1 - DISK_TOL.

    Root-free unless a zero is within about SCHUR_GUARD of that circle.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return _in_disk(trinomial(n, a, b), 1.0 - DISK_TOL)


def boundary_point(curve: str, n: int, t: float) -> tuple[float, float]:
    """Evaluate parametric curve III or IV at t in [(n-1)pi/n, pi)."""
    s = math.sin((n - 1) * t)
    if curve == "III":
        return (-math.sin(n * t) / s, math.sin(t) / s)
    if curve == "IV":
        return (math.sin(n * t) / s, (-1.0) ** n * math.sin(t) / s)
    raise ValueError("curve must be III or IV")


def corner_point(curve: str, n: int) -> tuple[float, float]:
    """Analytic t -> pi limit of curve III or IV."""
    if curve == "III":
        return (n / (n - 1.0), (-1.0) ** n / (n - 1.0))
    if curve == "IV":
        return (-n / (n - 1.0), 1.0 / (n - 1.0))
    raise ValueError("curve must be III or IV")


@dataclass
class CurveSet:
    """Sampled boundary curves; I/II hold (a, b) rows, III/IV hold (t, a, b)."""

    n: int
    curves: dict = field(default_factory=dict)
    t_range: tuple[float, float] = (0.0, math.pi)

    def to_csv(self, stream) -> None:
        stream.write("curve,t,a,b\n")
        for name in ("I", "II"):
            for a, b in self.curves[name]:
                stream.write(f"{name},,{a!r},{b!r}\n")
        for name in ("III", "IV"):
            for t, a, b in self.curves[name]:
                stream.write(f"{name},{t!r},{a!r},{b!r}\n")


def stability_boundary(n: int, samples: int) -> CurveSet:
    """Sample all four boundary curves with `samples` points each.

    III and IV are sampled on [start, pi) and close with the analytic corner,
    so those lists carry samples + 1 rows.
    """
    if n < 2 or samples < 2:
        raise ValueError("need n >= 2 and samples >= 2")
    edge = n / (n - 1.0)
    curves: dict[str, list] = {}
    a_i = np.linspace(-edge, 0.0, samples)
    curves["I"] = [(float(a), float(-a - 1.0) + 0.0) for a in a_i]
    a_ii = np.linspace(0.0, edge, samples)
    curves["II"] = [(float(a), float((-1.0) ** n * (a - 1.0)) + 0.0) for a in a_ii]
    t0 = (n - 1) * math.pi / n + T_START_OFFSET
    ts = np.linspace(t0, math.pi, samples, endpoint=False)
    for name in ("III", "IV"):
        rows = []
        for t in ts:
            a, b = boundary_point(name, n, float(t))
            rows.append((float(t), a, b))
        ca, cb = corner_point(name, n)
        rows.append((math.pi, ca, cb))
        curves[name] = rows
    return CurveSet(n=n, curves=curves, t_range=(t0, math.pi))


def quadrinomial_derivative_line(spec: QuadSpec):
    """Trinomial parameters (n, a, b) of the scaled quadrinomial derivative.

    p'(z)/N is a trinomial with n = N-1, a = kappa*n/(n+1), b = kappa/(n+1);
    the Q family flips the sign of b.  Exact rational kappa gives exact
    rational a, b.
    """
    n = spec.N - 1
    a = spec.kappa * n / (n + 1)
    b = spec.kappa / (n + 1)
    if spec.family == "Q":
        b = -b
    return (n, a, b)


def cohn_on_circle(p: RealPoly) -> bool:
    """All zeros of p on the unit circle, by Cohn's theorem.

    Requires p self-reciprocal (either sign) and every zero of p' in the
    closed unit disk, tested as |z| < 1 + DISK_TOL: root-free unless a zero of
    p' other than +-1 is within about SCHUR_GUARD of that circle.  On every
    interval edge p' has zeros at +-1, which are stripped before Schur-Cohn.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if self_reciprocal_sign(p) is None:
        return False
    return _in_disk(p.derivative(), 1.0 + DISK_TOL)
