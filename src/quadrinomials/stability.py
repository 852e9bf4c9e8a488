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

from .families import QuadSpec, _exact_kappa
from .polycore import RealPoly, find_roots, self_reciprocal_sign

STRICTNESS_TOL = 1e-9
T_START_OFFSET = 1e-6
SCHUR_GUARD = 1e-7


def _schur_cohn(c, radius: float) -> bool | None:
    """Every zero of sum c_j z^j in |z| < radius, by the Schur-Cohn recursion
    (Marden, Geometry of Polynomials, sections 42-45) on the monic c_j radius^j;
    None when some step's constant term k has |1 - |k|| <= SCHUR_GUARD, where
    rounding decides.
    """
    a = np.asarray(c, dtype=float) * radius ** np.arange(len(c))
    a = a / a[-1]
    while a.size > 1:
        k = a[0]
        if abs(1.0 - abs(k)) <= SCHUR_GUARD:
            return None
        if abs(k) > 1.0:
            return False
        # |k| < 1: by Rouche a - k a* (a* = a reversed) has as many zeros in
        # the disk as a, one of them z = 0
        a = (a[1:] - k * a[-2::-1]) / (1.0 - k * k)
    return True


def _in_disk(p: RealPoly, radius: float, closed: bool) -> bool:
    """Zeros of p in |z| < radius (<= if closed); found only if Schur-Cohn declines."""
    verdict = _schur_cohn(p.coeffs, radius)
    if verdict is None:
        moduli = [abs(r.value) for r in find_roots(p).roots]
        verdict = all(m <= radius if closed else m < radius for m in moduli)
    return verdict


def trinomial(n: int, a: float, b: float) -> RealPoly:
    c = [0.0] * (n + 1)
    c[0] = float(b)
    c[n - 1] += float(a)
    c[n] += 1.0
    return RealPoly.of(c)


def trinomial_in_disk(n: int, a: float, b: float) -> bool:
    """True iff every zero of z^n + a z^(n-1) + b has |z| < 1 - tol.

    Root-free unless a zero is within about SCHUR_GUARD of that circle.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return _in_disk(trinomial(n, a, b), 1.0 - STRICTNESS_TOL, closed=False)


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
    kap = _exact_kappa(spec.kappa)
    if kap is None:
        kap = spec.kappa
    a = kap * n / (n + 1)
    b = kap / (n + 1)
    if spec.family == "Q":
        b = -b
    return (n, a, b)


def cohn_on_circle(p: RealPoly, tol: float = STRICTNESS_TOL) -> bool:
    """All zeros of p on the unit circle, by Cohn's theorem.

    Requires p self-reciprocal (either sign) and every zero of p' inside the
    closed unit disk (|z| <= 1 + tol), tested root-free unless a zero of p'
    is within about SCHUR_GUARD of that circle, as on every interval edge.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if self_reciprocal_sign(p) is None:
        return False
    return _in_disk(p.derivative(), 1.0 + tol, closed=True)
