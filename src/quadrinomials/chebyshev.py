"""Chebyshev polynomials of the second kind and their positive zeros.

U_n(cos t) = sin(kt)/sin t with k = n+1, so the zeros of U_n are known in
closed form.  With x = cos t, U'_n(x) = -g(t)/sin(t)**3 where
g(t) = k sin t cos kt - cos t sin kt and g'(t) = -n(n+2) sin t sin kt, so
one vectorized Newton iteration in t, O(1) per zero and step, finds all zeros
of U'_n inside the brackets that interlacing with the zeros of U_n supplies.
Each zero x also carries the mapped value 1 - 2x**2, the cosine of the doubled
arcsine angle used by the quadrinomial factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BracketFailure(RuntimeError):
    """An expected sign change was missing; indicates a bug, not bad data."""


@dataclass(frozen=True)
class ChebRootList:
    kind: str  # "U" or "U_prime"
    n: int
    values: tuple[float, ...]  # positive zeros, strictly descending

    @property
    def mapped(self) -> tuple[float, ...]:
        return tuple(1.0 - 2.0 * v * v for v in self.values)


def positive_roots_U(n: int) -> ChebRootList:
    """Positive zeros of U_n, descending: cos(j*pi/(n+1)) for j below (n+1)/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = tuple(math.cos(j * math.pi / (n + 1)) for j in range(1, n // 2 + 1))
    return ChebRootList("U", n, values)


def _newton_in_bracket(n: int, lo, hi) -> np.ndarray:
    """The zero of U'_n in each x-bracket [lo, hi] (scalars or arrays), by Newton in t.

    A step that leaves its shrinking bracket is replaced by bisection.  Each
    root is frozen once its step is at rounding level, about five steps from
    the midpoint; bisection alone would need about 55, so 100 means a bug.
    """
    k = n + 1

    def g(t):
        return k * np.sin(t) * np.cos(k * t) - np.cos(t) * np.sin(k * t)

    a = np.arccos(np.asarray(hi, dtype=float))  # x = cos t decreases in t
    b = np.arccos(np.asarray(lo, dtype=float))
    sign_a = np.sign(g(a))
    if not np.all(sign_a * np.sign(g(b)) < 0):
        raise BracketFailure(f"no sign change of U'_{n} on [{lo}, {hi}]")
    t = 0.5 * (a + b)
    live = np.ones(t.shape, dtype=bool)
    for _ in range(100):
        gt = g(t)
        left = np.sign(gt) == sign_a
        a, b = np.where(left, t, a), np.where(left, b, t)
        dg = -n * (n + 2) * np.sin(t) * np.sin(k * t)
        nxt = t - np.divide(gt, dg, out=np.full_like(t, np.inf), where=dg != 0)
        nxt = np.where((a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
        step = np.abs(nxt - t)
        t = np.where(live, nxt, t)
        live &= step > 4 * np.spacing(t)
        if not live.any():
            return np.cos(t)
    raise ArithmeticError(f"Newton for the zeros of U'_{n} did not settle in 100 steps")


def positive_roots_U_prime(n: int) -> ChebRootList:
    """Positive zeros of U'_n, descending, via brackets from interlacing.

    U'_n has exactly one zero between consecutive zeros of U_n.  For odd n
    the innermost bracket is closed by x = 0 (U'_n is even there), giving
    (n-1)/2 positive zeros; for even n there are (n-2)/2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    mu = np.array(positive_roots_U(n).values)
    lo = np.append(mu[1:], 0.0) if n % 2 == 1 else mu[1:]
    values = _newton_in_bracket(n, lo, mu[: len(lo)])
    return ChebRootList("U_prime", n, tuple(values.tolist()))
