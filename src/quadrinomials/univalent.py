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
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npp

from .chebyshev import positive_roots_U
from .families import FactoredForm, ParityMismatch, QuadSpec, _mirrored, _require_odd, factorize_limit_case
from .polycore import NoConvergence, RealPoly, find_roots
from .stability import DISK_TOL

SCAN_CHUNK = 2048  # candidate pairs per simple_curve_scan chunk: ~200 KB of work arrays


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
    """Coefficient damping a_j -> a_j (n+1-j)/n, that is ((n+1)/n) f - (1/n) z f'
    on degree <= n; the integer n+1-j is exact, so each a_j is rounded twice."""
    if f.poly.degree > n:
        raise ValueError("transform needs degree <= n")
    c = [v * (n + 1 - j) / n for j, v in enumerate(f.poly.coeffs)]
    return NormalizedPoly(RealPoly.of(c), n)


def suffridge_membership(f: NormalizedPoly, n: int) -> bool:
    """True iff none of the n difference-quotient kernels vanish in the disk.

    Kernel k is 1 + sum_j a_j (sin(j a_k)/sin(a_k)) z^(j-1) with
    a_k = k pi/(n+1); membership requires every kernel zero to satisfy
    |z| >= 1 - DISK_TOL.  As sin(j(pi - a)) = (-1)^(j+1) sin(j a), kernel
    n+1-k is kernel k at -z, exactly for real a_j: its zeros are the negatives
    of kernel k's, same moduli.  So only k <= ceil(n/2) are solved; the odd-n
    middle kernel (a = pi/2) is its own mirror.
    """
    if f.poly.degree > n:
        raise ValueError("membership needs degree <= n")
    for k in range(1, (n + 1) // 2 + 1):
        alpha = k * math.pi / (n + 1)
        s = math.sin(alpha)
        kernel = RealPoly.of(
            f.coeff(j) * math.sin(j * alpha) / s for j in range(1, n + 1)
        )
        if kernel.degree < 1:
            continue
        rs = find_roots(kernel)
        if any(abs(r.value) < 1.0 - DISK_TOL for r in rs.roots):
            return False
    return True


def fejer(n: int) -> NormalizedPoly:
    """sigma_n(z) = sum_{j=1}^n ((n+1-j)/n) z^j: the transform of z + ... + z^n,
    so each coefficient is rounded once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return suffridge_transform(NormalizedPoly(RealPoly.of([0.0] + [1.0] * n), n), n)


def fejer_derivative_factored(N: int) -> FactoredForm:
    """sigma'_N as quadratics from U'_N zeros, (1+z) for even N.  (1-z)^3 sigma'_N is
    q of degree N+2 at kappa = -(N+2)/N: its endpoint factorization less (1-z)^3."""
    if N < 2:
        raise ValueError("N must be >= 2")
    q = factorize_limit_case(QuadSpec("Q", Fraction(-(N + 2), N), N + 2))
    return FactoredForm(tuple(part for part in q.linear if part != (1, 3)), q.quadratics, 1.0)


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


def _core(N: int, sign: float, tail: float) -> NormalizedPoly:
    """sum_j sign^(j-1) w_j (z^j + tail z^(N-j)) over 1 <= j < N/2, with
    weights w_j = 1 - 2(j-1)/(N-2) and sign, tail each +1 or -1."""
    w = [sign ** (j - 1) * (1.0 - 2.0 * (j - 1.0) / (N - 2.0)) for j in range(1, (N + 1) // 2)]
    return NormalizedPoly(_mirrored(N, [0.0] + w, tail), N - 1)


def tilde_p(N: int) -> NormalizedPoly:
    """Alternating-weight palindromic core of the endpoint quadrinomial.

    Satisfies (1+z)^2 tilde_p(z) = z p(z) at kappa = N/(N-2), family P.
    """
    _require_odd(N)
    return _core(N, -1.0, 1.0)


def F_family(s: int, N: int) -> NormalizedPoly:
    """The univalent families: the Suffridge transform (n = N-1) of a mirrored
    core.  s = 0 transforms tilde_p; s in 1..4 drop its alternating signs
    (1, 2 for odd N with -/+ tails; 3, 4 for even N likewise)."""
    if s not in (0, 1, 2, 3, 4):
        raise ValueError("s must be in 0..4")
    if s in (0, 1, 2):
        _require_odd(N)
    elif N % 2 == 1 or N < 6:
        raise ParityMismatch(f"N must be even and >= 6, got {N}")
    core = tilde_p(N) if s == 0 else _core(N, 1.0, -1.0 if s in (1, 3) else 1.0)
    return suffridge_transform(core, N - 1)


def phi_k(N: int, k: int) -> RealPoly:
    """Degree N+2 polynomial for angle alpha_k = k pi / N.

    For k = 1..N-1 it is the kernel numerator
    (1 + 2 cos(alpha_k) z + z^2)^2 K_k(z), where K_k is the difference-quotient
    kernel of tilde_p(N) at alpha_k that suffridge_membership(tilde_p(N), N-1)
    tests, for k > (N-1)/2 as its mirror K_(N-k)(-z); its zeros lie on |z| = 1.
    k = N (alpha = pi, sin alpha = 0) is accepted but is not a kernel
    numerator, and it has zeros off the circle.
    """
    _require_odd(N)
    if not 1 <= k <= N:
        raise ValueError("k must be in 1..N")
    alpha = k * math.pi / N
    mid = 2.0 * N / (N - 2.0) * math.cos(alpha)
    return _mirrored(N + 2, (1.0, mid, (N + 2.0) / (N - 2.0)), -((-1.0) ** k))


def quasi_extremal_W(N: int) -> RealPoly:
    """(N-1)(N-2)(1 + z^(N+2)) + 2(N-2)(N+2)(z + z^(N+1)) + (N+1)(N+2)(z^2 + z^N)."""
    _require_odd(N)
    return _mirrored(N + 2, ((N - 1.0) * (N - 2.0), 2.0 * (N - 2.0) * (N + 2.0), (N + 1.0) * (N + 2.0)), 1.0)


@dataclass(frozen=True)
class WChecks:
    derivative_magnitudes: tuple[float, ...]  # |W^(k)(-1)| for k = 0..5
    scale: float  # |W|_inf
    deflated_circle_deviation: float  # max ||z|-1| over the roots of W other than the 5-fold -1
    identity_deviation: float  # |F' (N-1)(N-2)(1+z)^4 - W|_inf


def quasi_extremal_checks(N: int) -> WChecks:
    """Numbers behind the order-5 vanishing of W at -1 and its tie to F'."""
    w = quasi_extremal_W(N)
    mags = []
    d = w
    for _ in range(6):
        mags.append(abs(float(d(-1.0))))
        d = d.derivative()
    rs = find_roots(w)
    at_minus_one = min(rs.roots, key=lambda r: abs(r.value + 1.0))
    if at_minus_one.multiplicity != 5:
        raise NoConvergence(f"W has a root of multiplicity {at_minus_one.multiplicity} near -1, not 5", best=rs)
    circle_dev = max(abs(abs(r.value) - 1.0) for r in rs.roots if r is not at_minus_one)
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


def _any_meet(pts, lo, hi, i, j) -> bool:
    """Exact test: does segment i[n] meet segment j[n] for some n?  Segment k
    runs from pts[k] to pts[k + 1] and has the closed box lo[k]..hi[k]."""
    ix = (i, i + 1, j, j + 1)
    x, y = [pts[e, 0] for e in ix], [pts[e, 1] for e in ix]

    def side(c, a):  # orientation sign of end c against the segment from end a
        return np.sign((x[c] - x[a]) * (y[a + 1] - y[a]) - (y[c] - y[a]) * (x[a + 1] - x[a]))

    # Signs are multiplied, never orientations: those products underflow to 0
    # or overflow on tiny or huge curves.
    s = (side(0, 2), side(1, 2), side(2, 0), side(3, 0))
    if np.any((s[0] * s[1] < 0) & (s[2] * s[3] < 0)):
        return True
    # an end on the other segment's line touches it (endpoint or collinear
    # overlap contact) iff it lies in that segment's box
    for c, a in ((0, 2), (1, 2), (2, 0), (3, 0)):
        on_line = s[c] == 0
        e, k = ix[c][on_line], ix[a][on_line]
        if np.any(np.all((lo[k] <= pts[e]) & (pts[e] <= hi[k]), axis=1)):
            return True
    return False


def simple_curve_scan(img: BoundaryImage) -> bool:
    """True iff no pair of non-adjacent polyline segments intersects.

    Broad phase: a sweep over the segments' closed bounding boxes sorted by
    y; images of real polynomials are symmetric about the real axis, so
    mirrored segments share an x-range but not a y-range.  The candidate
    pairs are built SCAN_CHUNK at a time and filtered by overlap in x and
    by adjacency; disjoint boxes cannot meet.  Narrow
    phase, exact: orientation signs decide proper crossings, and an end on
    the other segment's line touches it iff it lies in that segment's box.
    The scan returns False after the first chunk with a meeting pair.

    Typical curves take O(m log m) time.  A curve whose boxes overlap
    pairwise, such as a star with long spikes, takes O(m^2) time, still in
    O(m + SCAN_CHUNK) memory.  Necessary (not sufficient) for injectivity at
    the sampled resolution.
    """
    m = len(img.points)
    if m < 4:
        return True
    pts = np.column_stack([img.points.real, img.points.imag])
    pts = np.vstack([pts, pts[:1]])  # segment k runs from pts[k] to pts[k + 1]
    lo, hi = np.minimum(pts[:-1], pts[1:]), np.maximum(pts[:-1], pts[1:])
    order = np.argsort(lo[:, 1])  # sorted box r overlaps sorted boxes r+1 .. ends[r]-1 in y
    ends = np.searchsorted(lo[order, 1], hi[order, 1], side="right")
    cum = np.cumsum(ends - np.arange(1, m + 1))  # running count of those pairs
    for start in range(0, int(cum[-1]), SCAN_CHUNK):
        flat = np.arange(start, min(start + SCAN_CHUNK, cum[-1]))
        # flat pair index -> sorted box r and the later sorted box it overlaps
        r = np.searchsorted(cum, flat, side="right")
        u, v = order[r], order[ends[r] + flat - cum[r]]
        gap = np.abs(u - v)
        # adjacent segments share an end, and so do 0 and m-1
        keep = (gap >= 2) & (gap < m - 1)
        keep &= (lo[u, 0] <= hi[v, 0]) & (lo[v, 0] <= hi[u, 0])
        u, v = u[keep], v[keep]
        if _any_meet(pts, lo, hi, np.minimum(u, v), np.maximum(u, v)):
            return False
    return True
