"""Real-coefficient polynomials with a polished complex root solver.

Coefficients are stored ascending: coeffs[j] multiplies z**j.  Root finding
seeds from companion-matrix eigenvalues, polishes with Newton steps, then
merges root clusters so multiple roots come back with the right multiplicity
instead of as a scatter of simple roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npp

DEFLATION_TOL = 1e-9
STALL_PATIENCE = 5  # polish iterations with no seed improving before stopping


class RootNotPresent(ArithmeticError):
    """Synthetic division left a remainder larger than the deflation tolerance."""


class NoConvergence(ArithmeticError):
    """The solver missed its residual bound; ``best`` holds the best iterate."""

    def __init__(self, message: str, best: "RootSet | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class RealPoly:
    """Polynomial sum(coeffs[j] * z**j); the zero polynomial has no coefficients."""

    coeffs: tuple[float, ...]

    @staticmethod
    def of(values: Iterable[float]) -> "RealPoly":
        """Build from any coefficient iterable, dropping trailing exact zeros."""
        c = [float(v) for v in values]
        for v in c:
            if not math.isfinite(v):
                raise ValueError("coefficients must be finite")
        while c and c[-1] == 0.0:
            c.pop()
        return RealPoly(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def norm_inf(self) -> float:
        return max((abs(v) for v in self.coeffs), default=0.0)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def __call__(self, z):
        """Evaluate at a scalar or ndarray of points (Horner)."""
        if not self.coeffs:
            return np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0
        if isinstance(z, np.ndarray):
            return npp.polyval(z, self.as_array())
        acc = 0j if isinstance(z, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "RealPoly":
        return RealPoly.of(j * c for j, c in enumerate(self.coeffs) if j > 0)

    def __mul__(self, other: "RealPoly") -> "RealPoly":
        if not self.coeffs or not other.coeffs:
            return RealPoly(())
        return RealPoly.of(np.convolve(self.as_array(), other.as_array()))

    def _plus(self, other: "RealPoly", sign: float) -> "RealPoly":
        a = np.zeros(max(len(self.coeffs), len(other.coeffs)))
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += sign * np.asarray(other.coeffs)
        return RealPoly.of(a)

    def __add__(self, other: "RealPoly") -> "RealPoly":
        return self._plus(other, 1.0)

    def __sub__(self, other: "RealPoly") -> "RealPoly":
        return self._plus(other, -1.0)

    def scaled(self, factor: float) -> "RealPoly":
        return RealPoly.of(factor * v for v in self.coeffs)


def deflate(p: RealPoly, root: float, multiplicity: int) -> RealPoly:
    """Divide p by (z - root)^multiplicity using synthetic division.

    Each stage checks its remainder against DEFLATION_TOL * (1 + |stage|_inf)
    and raises RootNotPresent when the claimed root is not actually there.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    c = list(p.coeffs)
    for _ in range(multiplicity):
        if len(c) < 2:
            raise RootNotPresent(f"degree too low to remove root {root}")
        scale = 1.0 + max(abs(v) for v in c)
        q = [0.0] * (len(c) - 1)
        acc = c[-1]
        for j in range(len(c) - 2, -1, -1):
            q[j] = acc
            acc = c[j] + root * acc
        if abs(acc) > DEFLATION_TOL * scale:
            raise RootNotPresent(
                f"remainder {abs(acc):.3e} at root {root} exceeds tolerance"
            )
        c = q
    return RealPoly.of(c)


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    total: int

    def values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def with_multiplicity(self) -> list[complex]:
        out: list[complex] = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 500
    residual_scale: float = 1e-12
    cluster_radius: float = 1e-6
    suspicion_radius: float = 5e-3


def _polish(c: np.ndarray, z: np.ndarray, budget: int) -> np.ndarray:
    """Newton-polish all seeds at once, keeping the lowest-|p| iterate seen.

    Newton creeps only linearly into an m-fold root and then jitters at the
    rounding floor, where the step test never fires; so polishing also stops
    once no seed has lowered its best |p| for STALL_PATIENCE iterations.
    """
    cp = npp.polyder(c)
    best = z.copy()
    pz = npp.polyval(z, c)
    best_val = np.abs(pz)
    stalled = 0
    for _ in range(budget):
        dv = npp.polyval(z, cp)
        safe = np.where(dv == 0, 1.0, dv)
        step = np.where(dv == 0, 0.0, pz / safe)
        z = z - step
        pz = npp.polyval(z, c)
        val = np.abs(pz)
        better = val < best_val
        best[better] = z[better]
        best_val[better] = val[better]
        stalled = 0 if better.any() else stalled + 1
        if stalled >= STALL_PATIENCE or np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            break
    return best


def _components(z: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage components of points under a merging radius."""
    m = len(z)
    near = np.abs(z[:, None] - z[None, :]) <= radius
    if np.count_nonzero(near) == m:
        return [[i] for i in range(m)]
    seen = [False] * m
    comps = []
    for i in range(m):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            j = stack.pop()
            comp.append(j)
            for k in np.nonzero(near[j])[0]:
                if not seen[k]:
                    seen[k] = True
                    stack.append(int(k))
        comps.append(sorted(comp))
    return comps


class _TaylorChain:
    """Scaled Taylor coefficients t_k = p^(k)/k! of p, built on demand.

    Only the entries up to the largest candidate multiplicity are formed.
    The raw derivative p^(k) carries a factor k! that overflows from
    k = 171 on; t_k[j] = binom(j+k, k) c[j+k] stays finite.
    """

    def __init__(self, c: np.ndarray):
        self._terms = [c]

    def __getitem__(self, k: int) -> np.ndarray:
        while len(self._terms) <= k:
            self._terms.append(npp.polyder(self._terms[-1]) / len(self._terms))
        return self._terms[k]


def _abs_scale(c: np.ndarray, z):
    """Backward-error scale sum_j |c_j| max(1,|z|)^j + 1 at a point or array."""
    r = np.maximum(1.0, np.abs(z))
    return npp.polyval(r, np.abs(c)) + 1.0


def _newton_scalar(c: np.ndarray, cp: np.ndarray, z: complex, iters: int) -> complex:
    for _ in range(iters):
        dv = npp.polyval(z, cp)
        if dv == 0:
            break
        step = npp.polyval(z, c) / dv
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _confirm_multiple(
    chain: _TaylorChain, z0: complex, members: np.ndarray, m: int, opts: SolverOptions
) -> complex | None:
    """Try to certify a multiplicity-m root near z0.

    Refines z0 against t_{m-1}, where the root is simple, then demands that
    all lower Taylor coefficients vanish to rounding level and that every
    member of the cluster sits within the expected rounding-scatter radius.
    """
    if m >= len(chain[0]):
        return None
    z = _newton_scalar(chain[m - 1], m * chain[m], z0, 100)
    for k in range(m):
        if abs(npp.polyval(z, chain[k])) > 1e-8 * _abs_scale(chain[k], z):
            return None
    lead = abs(npp.polyval(z, chain[m]))
    if lead > 0:
        eps = 1e-15 * _abs_scale(chain[0], z)
        scatter = 20.0 * (eps / lead) ** (1.0 / m)
    else:
        scatter = opts.suspicion_radius
    limit = max(opts.cluster_radius, min(scatter, 2 * opts.suspicion_radius))
    if np.any(np.abs(members - z) > limit):
        return None
    return z


def _merge_clusters(c: np.ndarray, polished: np.ndarray, opts: SolverOptions):
    """Two-stage clustering: unconditional tight merge, then certified wide merge."""
    chain = _TaylorChain(c)
    groups: list[tuple[complex, int, np.ndarray]] = []
    for comp in _components(polished, opts.cluster_radius):
        members = polished[comp]
        center = complex(members.mean())
        m = len(comp)
        refined = _confirm_multiple(chain, center, members, m, opts) if m > 1 else None
        groups.append((center if refined is None else refined, m, members))

    centers = np.array([g[0] for g in groups])
    merged: list[tuple[complex, int]] = []
    for comp in _components(centers, opts.suspicion_radius):
        refined = None
        if len(comp) > 1:
            members = np.concatenate([groups[i][2] for i in comp])
            total = sum(groups[i][1] for i in comp)
            refined = _confirm_multiple(chain, complex(members.mean()), members, total, opts)
        if refined is not None:
            merged.append((refined, total))
        else:
            merged.extend((groups[i][0], groups[i][1]) for i in comp)
    return merged


def find_roots(p: RealPoly, options: SolverOptions | None = None) -> RootSet:
    """All complex roots of p with multiplicities and backward errors.

    Exact zero roots are stripped first; the rest are companion-matrix seeds
    polished by Newton iteration and merged by the two-stage clustering.
    Each root's ``residual`` is its backward error
    |p(z)| / (sum_j |c_j| max(1,|z|)^j + 1): a root with residual r is an
    exact root of a polynomial whose coefficients are relatively perturbed
    by at most r.  A bound tied to |p|_inf alone is unattainable for roots
    of modulus much above 1, where the evaluation noise floor grows like
    eps * sum |c_j| |z|^j.  Raises NoConvergence (with the best RootSet
    attached) when some residual exceeds ``residual_scale``.
    """
    opts = options or SolverOptions()
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    c = p.as_array()
    nz = int(np.argmax(c != 0.0))
    pairs: list[tuple[complex, int]] = []
    if nz:
        pairs.append((0j, nz))
    work = c[nz:]
    if len(work) > 1:
        seeds = np.atleast_1d(npp.polyroots(work))
        polished = _polish(work, seeds.astype(complex), opts.max_iterations)
        pairs.extend(_merge_clusters(work, polished, opts))

    values = np.array([v for v, _ in pairs], dtype=complex)
    residuals = np.abs(npp.polyval(values, c)) / _abs_scale(c, values)
    roots = [Root(complex(v), m, float(res)) for (v, m), res in zip(pairs, residuals)]
    roots.sort(key=lambda r: (cmath.phase(r.value), abs(r.value)))
    out = RootSet(tuple(roots), sum(r.multiplicity for r in roots))
    worst = float(residuals.max())
    if worst > opts.residual_scale:
        raise NoConvergence(
            f"worst backward error {worst:.3e} exceeds "
            f"bound {opts.residual_scale:.3e}",
            best=out,
        )
    return out


def self_reciprocal_sign(p: RealPoly, tol: float = 1e-12) -> int | None:
    """+1 for palindromic coefficients, -1 for anti-palindromic, else None."""
    c = p.coeffs
    if not c:
        return None
    rev = c[::-1]
    if all(abs(a - b) <= tol for a, b in zip(c, rev)):
        return 1
    if all(abs(a + b) <= tol for a, b in zip(c, rev)):
        return -1
    return None


class CircleCounts(NamedTuple):
    on_circle: int
    inside: int
    outside: int


def classify_roots(rs: RootSet, circle_tol: float = 1e-8) -> CircleCounts:
    """Bucket roots by |z| vs 1; multiple roots get a tolerance floor of 1e-5.

    A cluster of multiplicity m is only locatable to about eps**(1/m), so the
    circle band must widen once multiplicities appear.
    """
    on = inside = outside = 0
    for r in rs.roots:
        tol = circle_tol if r.multiplicity == 1 else max(circle_tol, 1e-5)
        d = abs(r.value) - 1.0
        if abs(d) <= tol:
            on += r.multiplicity
        elif d < 0:
            inside += r.multiplicity
        else:
            outside += r.multiplicity
    return CircleCounts(on, inside, outside)
