"""Normalized polynomial families with unit-disk injectivity machinery.

Covers the difference-quotient kernel membership test and coefficient
transform, the Fejer and Alexander polynomials with factored derivatives,
the tilde_p / F families tied to the endpoint quadrinomials, the phi_k
kernels, the quasi-extremal witness W, and a boundary self-intersection
scan used as a falsifier for injectivity claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .chebyshev import positive_roots_U, positive_roots_U_prime
from .families import FactoredForm
from .polycore import RealPoly, deflate, find_roots

INNER_TOL = 1e-9


class ParityMismatch(ValueError):
    """The requested family variant needs the other parity of N."""


@dataclass(frozen=True)
class NormalizedPoly:
    """Polynomial z + a_2 z^2 + ... + a_n z^n with declared degree bound n."""

    poly: RealPoly
    n: int

    def __post_init__(self):
        c = self.poly.coeffs
        if len(c) < 2 or c[0] != 0.0 or c[1] != 1.0:
            raise ValueError("normalized polynomial must start z + ...")
        if self.poly.degree > self.n:
            raise ValueError("degree exceeds declared bound")

    def coeff(self, j: int) -> float:
        c = self.poly.coeffs
        return c[j] if 0 <= j < len(c) else 0.0


def suffridge_transform(f: NormalizedPoly, n: int) -> NormalizedPoly:
    """Coefficient damping a_j -> (1 - (j-1)/n) a_j; kills the z^(n+1)-free top.

    Equals ((n+1)/n) f - (1/n) z f' on polynomials of degree <= n.
    """
    if f.poly.degree > n:
        raise ValueError("transform needs degree <= n")
    c = [(1.0 - (j - 1.0) / n) * v for j, v in enumerate(f.poly.coeffs)]
    return NormalizedPoly(RealPoly.of(c), n)


def suffridge_membership(f: NormalizedPoly, n: int) -> bool:
    """True iff none of the n difference-quotient kernels vanish in the disk.

    Kernel k is 1 + sum_j a_j (sin(j a_k)/sin(a_k)) z^(j-1) with
    a_k = k pi/(n+1); membership requires every kernel zero to satisfy
    |z| >= 1 - INNER_TOL.
    """
    if f.poly.degree > n:
        raise ValueError("membership needs degree <= n")
    for k in range(1, n + 1):
        alpha = k * math.pi / (n + 1)
        s = math.sin(alpha)
        kernel = RealPoly.of(
            f.coeff(j) * math.sin(j * alpha) / s for j in range(1, n + 1)
        )
        if kernel.degree < 1:
            continue
        rs = find_roots(kernel)
        if any(abs(r.value) < 1.0 - INNER_TOL for r in rs.roots):
            return False
    return True


def fejer(n: int) -> NormalizedPoly:
    """sigma_n(z) = sum_{j=1}^n (1 - (j-1)/n) z^j."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = [0.0] + [1.0 - (j - 1.0) / n for j in range(1, n + 1)]
    return NormalizedPoly(RealPoly.of(c), n)


def fejer_derivative_factored(N: int) -> FactoredForm:
    """sigma'_N as quadratics from U'_N zeros, with a (1+z) factor for even N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    gammas = positive_roots_U_prime(N).mapped
    linear = () if N % 2 == 1 else ((-1, 1),)
    return FactoredForm(linear, tuple(-g for g in gammas), 1.0)


def alexander(N: int) -> NormalizedPoly:
    """w_N(z) = sum_{j=1}^N z^j / j."""
    if N < 1:
        raise ValueError("N must be >= 1")
    c = [0.0] + [1.0 / j for j in range(1, N + 1)]
    return NormalizedPoly(RealPoly.of(c), N)


def alexander_derivative_factored(N: int) -> FactoredForm:
    """w'_N = 1 + z + ... + z^(N-1) via U_{N-1} zeros; (1+z) extra for even N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return FactoredForm((), (), 1.0)
    betas = positive_roots_U(N - 1).mapped
    linear = () if N % 2 == 1 else ((-1, 1),)
    return FactoredForm(linear, tuple(-b for b in betas), 1.0)


def _require_odd(N: int, minimum: int = 5):
    if N % 2 == 0 or N < minimum:
        raise ParityMismatch(f"N must be odd and >= {minimum}, got {N}")


def tilde_p(N: int) -> NormalizedPoly:
    """Alternating-weight palindromic core of the endpoint quadrinomial.

    Satisfies (1+z)^2 tilde_p(z) = z p(z) at kappa = N/(N-2), family P.
    """
    _require_odd(N)
    c = [0.0] * N
    for j in range(1, (N - 1) // 2 + 1):
        b = (-1.0) ** (j - 1) * (1.0 - 2.0 * (j - 1.0) / (N - 2.0))
        c[j] += b
        c[N - j] += b
    return NormalizedPoly(RealPoly.of(c), N - 1)


def F_family(s: int, N: int) -> NormalizedPoly:
    """The univalent families; s = 0 is the transformed tilde_p, with
    alternating signs; s in 1..4 are the displayed variants without them
    (1, 2 for odd N with -/+ tails; 3, 4 for even N likewise)."""
    if s not in (0, 1, 2, 3, 4):
        raise ValueError("s must be in 0..4")
    if s in (0, 1, 2):
        _require_odd(N)
        jmax = (N - 1) // 2
    else:
        if N % 2 == 1 or N < 6:
            raise ParityMismatch(f"N must be even and >= 6, got {N}")
        jmax = (N - 2) // 2
    c = [0.0] * N
    for j in range(1, jmax + 1):
        w = 1.0 - 2.0 * (j - 1.0) / (N - 2.0)
        if s == 0:
            w *= (-1.0) ** (j - 1)
        lo = w * (N - j) / (N - 1.0)
        hi = w * j / (N - 1.0)
        if s in (1, 3):
            hi = -hi
        c[j] += lo
        c[N - j] += hi
    return NormalizedPoly(RealPoly.of(c), N - 1)


def phi_k(N: int, k: int) -> RealPoly:
    """Degree N+2 polynomial for angle alpha_k = k pi / N.

    For k = 1..N-1 it is the kernel numerator
    (1 + 2 cos(alpha_k) z + z^2)^2 K_k(z), where K_k is the difference-quotient
    kernel of tilde_p(N) at alpha_k that suffridge_membership(tilde_p(N), N-1)
    tests; its zeros lie on |z| = 1.  k = N (alpha = pi, sin alpha = 0) is
    accepted but is not a kernel numerator, and it has zeros off the circle.
    """
    _require_odd(N)
    if not 1 <= k <= N:
        raise ValueError("k must be in 1..N")
    alpha = k * math.pi / N
    sgn = (-1.0) ** k
    c = [0.0] * (N + 3)
    c[0] += 1.0
    c[N + 2] += -sgn
    mid = 2.0 * N / (N - 2.0) * math.cos(alpha)
    c[1] += mid
    c[N + 1] += -sgn * mid
    top = (N + 2.0) / (N - 2.0)
    c[2] += top
    c[N] += -sgn * top
    return RealPoly.of(c)


def quasi_extremal_W(N: int) -> RealPoly:
    """(N-1)(N-2)(1 + z^(N+2)) + 2(N-2)(N+2)(z + z^(N+1)) + (N+1)(N+2)(z^2 + z^N)."""
    _require_odd(N)
    c = [0.0] * (N + 3)
    for offset, coeff in (
        (0, (N - 1.0) * (N - 2.0)),
        (1, 2.0 * (N - 2.0) * (N + 2.0)),
        (2, (N + 1.0) * (N + 2.0)),
    ):
        c[offset] += coeff
        c[N + 2 - offset] += coeff
    return RealPoly.of(c)


@dataclass(frozen=True)
class WChecks:
    derivative_magnitudes: tuple[float, ...]  # |W^(k)(-1)| for k = 0..5
    scale: float  # |W|_inf
    deflated_circle_deviation: float  # max ||z|-1| over roots of W/(1+z)^5
    identity_deviation: float  # |F' (N-1)(N-2)(1+z)^4 - W|_inf


def quasi_extremal_checks(N: int) -> WChecks:
    """Numbers behind the order-5 vanishing of W at -1 and its tie to F'."""
    w = quasi_extremal_W(N)
    mags = []
    d = w
    for _ in range(6):
        mags.append(abs(d(-1.0)))
        d = d.derivative()
    reduced = deflate(w, -1.0, 5)
    rs = find_roots(reduced)
    circle_dev = max(abs(abs(r.value) - 1.0) for r in rs.roots)
    f = F_family(0, N)
    quartic = RealPoly.of((1.0, 4.0, 6.0, 4.0, 1.0))
    lhs = (f.poly.derivative() * quartic).scaled((N - 1.0) * (N - 2.0))
    return WChecks(tuple(mags), w.norm_inf, circle_dev, (lhs - w).norm_inf)


@dataclass(frozen=True)
class BoundaryImage:
    ts: np.ndarray
    points: np.ndarray  # complex f(e^(it))
    resolution: int

    def to_csv(self, stream) -> None:
        stream.write("t,re,im\n")
        for t, w in zip(self.ts, self.points):
            stream.write(f"{float(t)!r},{float(w.real)!r},{float(w.imag)!r}\n")


def boundary_image(f: NormalizedPoly, resolution: int = 4096) -> BoundaryImage:
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    ts = np.arange(resolution) * (2.0 * math.pi / resolution)
    pts = npp.polyval(np.exp(1j * ts), f.poly.as_array())
    return BoundaryImage(ts, pts, resolution)


def _within(c, u, v) -> np.ndarray:
    """Points c in the bounding boxes of segments uv (broadcast over rows)."""
    return np.all((np.minimum(u, v) <= c) & (c <= np.maximum(u, v)), axis=-1)


def simple_curve_scan(img: BoundaryImage) -> bool:
    """True iff no pair of non-adjacent polyline segments intersects.

    Exact orientation tests decide proper crossings vectorized per row; in
    the pairs with a zero orientation, the endpoint on the other segment's
    line touches it (endpoint or collinear-overlap contact) iff it lies in
    that segment's bounding box.  Necessary (not sufficient) for injectivity
    at the sampled resolution.
    """
    m = len(img.points)
    if m < 4:
        return True
    pts = np.column_stack([img.points.real, img.points.imag])
    pts = np.vstack([pts, pts[:1]])  # segment k runs from pts[k] to pts[k + 1]
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    sx, sy = np.diff(x), np.diff(y)
    for i in range(m - 2):
        j0 = i + 2
        j1 = m - 1 if i == 0 else m
        q = slice(j0, j1 + 1)  # endpoints of segments j0..j1-1
        # orientation signs of segment i's ends against each segment's line
        # (rows p1, p2), and of each q endpoint against segment i's line.
        # Signs are multiplied, never orientations: those products underflow
        # to 0 or overflow on tiny or huge curves.
        p_side = np.sign(
            (x[i : i + 2, None] - x[j0:j1]) * sy[j0:j1]
            - (y[i : i + 2, None] - y[j0:j1]) * sx[j0:j1]
        )
        q_side = np.sign((x[q] - x[i]) * sy[i] - (y[q] - y[i]) * sx[i])
        p_prod = p_side[0] * p_side[1]
        q_prod = q_side[:-1] * q_side[1:]
        if np.any((p_prod < 0) & (q_prod < 0)):
            return False
        zero = (p_prod == 0) | (q_prod == 0)
        if np.any(zero):
            p1, p2 = pts[i], pts[i + 1]
            q1, q2 = pts[j0:j1][zero], pts[j0 + 1 : j1 + 1][zero]
            touch = (
                (p_side[0][zero] == 0) & _within(p1, q1, q2)
                | (p_side[1][zero] == 0) & _within(p2, q1, q2)
                | (q_side[:-1][zero] == 0) & _within(q1, p1, p2)
                | (q_side[1:][zero] == 0) & _within(q2, p1, p2)
            )
            if np.any(touch):
                return False
    return True
