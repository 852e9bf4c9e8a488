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

MAX_ITERATIONS = 500  # Newton polish steps per find_roots call
RESIDUAL_SCALE = 1e-12  # largest backward error find_roots accepts
CLUSTER_RADIUS = 1e-6  # floor of the halving split radius; find_roots refuses a cluster refused at it
SUSPICION_RADIUS = 5e-3  # polished points this close form a cluster, one root if certified, else split at half
RECIPROCAL_TOL = 1e-12  # self_reciprocal_sign, relative to max |c_j|
CLASSIFY_TOL = 1e-8  # classify_roots' circle band for simple roots; 1e-5 for multiple ones
STALL_PATIENCE = 5  # polish iterations with no seed improving before stopping
_SPARSE_SHARE = 0.25  # terms this sparse are evaluated sparsely: 2.4x+ faster; Horner wins at 0.6+


class NoConvergence(ArithmeticError):
    """The solver missed its residual bound or could not certify a multiple root;
    ``best`` holds the best iterate."""

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
        return npp.polyval(z, self.as_array())

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


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    total: int


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """npp.polyval(z, c) for an array z: same operation order and bits, two buffers.

    An in-place complex multiply of length 1 rounds unlike the array loop, hence
    ``prod``; certification evaluates at a single point as a length-1 array.
    """
    acc = c[-1] + z * 0
    prod = np.empty_like(acc)
    for cj in c[-2::-1].astype(acc.dtype):  # the cast an add would make, done once
        np.multiply(acc, z, prod)
        np.add(prod, cj, acc)
    return acc


def _sparse_form(c: np.ndarray):
    """Nonzero exponents and values of c if at most _SPARSE_SHARE of c is nonzero, else None."""
    e = np.flatnonzero(c) if 0 < int(np.count_nonzero(c)) <= _SPARSE_SHARE * len(c) else None
    return None if e is None else (e.tolist(), c[e].tolist())


def _power(powers: dict, g: int):
    """powers[1] ** g by binary powering from the top bit; every power formed stays in powers."""
    if g not in powers:
        half = _power(powers, g >> 1)
        powers[g] = half * half if g % 2 == 0 else half * half * powers[1]
    return powers[g]


def _evaluate(c: np.ndarray, form, powers: dict):
    """c at the array z = powers[1], as acc * z**gap + c_j over the nonzero terms of a
    _sparse_form, else with the bits of _horner."""
    if form is None:
        return _horner(c, powers[1])
    exps, vals = form
    acc = vals[-1]
    for k in range(len(exps) - 2, -1, -1):
        acc = acc * _power(powers, exps[k + 1] - exps[k]) + vals[k]
    return acc * _power(powers, exps[0]) if exps[0] else acc


def _polish(c: np.ndarray, cp: np.ndarray, z: np.ndarray, budget: int) -> np.ndarray:
    """Newton-polish all seeds z of c (derivative cp) at once, keeping the lowest-|c| iterate.

    Newton creeps only linearly into an m-fold root and then jitters at the
    rounding floor, where the step test never fires; so polishing also stops
    once no seed has lowered its best |c| for STALL_PATIENCE iterations.
    """
    forms = _sparse_form(c), _sparse_form(cp)
    best = z.copy()
    powers = {1: z}
    pz = _evaluate(c, forms[0], powers)
    best_val = np.abs(pz)
    stalled = 0
    for _ in range(budget):
        dv = _evaluate(cp, forms[1], powers)
        step = np.divide(pz, dv, out=np.zeros_like(pz), where=dv != 0)
        z = z - step
        powers = {1: z}
        pz = _evaluate(c, forms[0], powers)
        val = np.abs(pz)
        better = val < best_val
        best[better] = z[better]
        best_val[better] = val[better]
        stalled = 0 if better.any() else stalled + 1
        if stalled >= STALL_PATIENCE or np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            break
    return best


def _components(near: np.ndarray) -> list[list[int]]:
    """Connected components of the symmetric ``near`` (true diagonal), by smallest index."""
    alone = (np.count_nonzero(near, axis=1) == 1).tolist()
    seen = [False] * len(near)
    comps = []
    for i in range(len(near)):
        if alone[i]:
            comps.append([i])
        elif not seen[i]:
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
            t = self._terms[-1]  # the products j * c_j of npp.polyder, then the 1/k
            self._terms.append(t[1:] * np.arange(1, len(t)) / len(self._terms))
        return self._terms[k]


def _abs_scale(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Certification's scale sum_j |c_j| max(1,|z|)^j, with |c| in its _sparse_form."""
    a = np.abs(c)
    return _evaluate(a, _sparse_form(a), {1: np.maximum(1.0, np.abs(z))})


def _confirm_multiple(chain: _TaylorChain, members: np.ndarray) -> complex | None:
    """Try to certify a root of multiplicity m = len(members) near their mean.

    Polishes the mean against t_{m-1}, where the root is simple and whose
    derivative is m t_m.  Relative to _abs_scale of each term, t_0 = p must
    vanish within RESIDUAL_SCALE, the bound find_roots gates with, and
    t_1..t_{m-1} within 1e-8; then every member must sit within the
    expected rounding-scatter radius.
    """
    m = len(members)
    z = _polish(chain[m - 1], m * chain[m], np.array([members.mean()]), 100)
    powers = {1: z}
    for k in range(m):
        bound = 1e-8 if k else RESIDUAL_SCALE
        if np.abs(_evaluate(chain[k], _sparse_form(chain[k]), powers)) > bound * _abs_scale(chain[k], z):
            return None
    lead = np.abs(_evaluate(chain[m], _sparse_form(chain[m]), powers))[0]
    if lead > 0:
        eps = 1e-15 * _abs_scale(chain[0], z)[0]
        scatter = 20.0 * (eps / lead) ** (1.0 / m)
    else:
        scatter = SUSPICION_RADIUS
    limit = max(CLUSTER_RADIUS, min(scatter, 2 * SUSPICION_RADIUS))
    if np.any(np.abs(members - z) > limit):
        return None
    return complex(z[0])


def _merge_clusters(chain: _TaylorChain, polished: np.ndarray):
    """Points within SUSPICION_RADIUS of each other form a cluster, settled by one rule:
    a cluster of several points is certified once by _confirm_multiple; a refused one
    splits at max(radius / 2, CLUSTER_RADIUS) and each part is settled the same way,
    a part that is the whole cluster again without a second certification.  A cluster
    refused at CLUSTER_RADIUS comes back uncertified at its mean.  Returns (root,
    multiplicity, certified) triples, a multiplicity counting the points merged.
    """
    dist = np.abs(polished[:, None] - polished[None, :])
    points = polished.tolist()
    merged: list[tuple[complex, int, bool]] = []

    def settle(comp: list[int], radius: float, refused: bool) -> None:
        if len(comp) == 1:
            merged.append((points[comp[0]], 1, True))
        elif not refused and (refined := _confirm_multiple(chain, polished[comp])) is not None:
            merged.append((refined, len(comp), True))
        elif radius <= CLUSTER_RADIUS:
            merged.append((complex(polished[comp].mean()), len(comp), False))
        else:
            radius = max(radius / 2, CLUSTER_RADIUS)
            for part in _components(dist[np.ix_(comp, comp)] <= radius):
                settle([comp[i] for i in part], radius, len(part) == len(comp))

    for comp in _components(dist <= SUSPICION_RADIUS):
        settle(comp, SUSPICION_RADIUS, False)
    return merged


def _backward_errors(c: np.ndarray, values: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_j |c_j| max(1,|z|)^j at each z, with c scaled exactly to max_j |c_j|
    in [1/2, 1) so that sum_j |c_j| is finite; where that scale overflows, the
    same ratio divided through by |z|^n, from the reversed c at w = 1/z."""
    c = np.ldexp(c, -np.frexp(np.abs(c).max())[1])
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed points are redone below
        scale = _horner(np.abs(c), np.maximum(1.0, np.abs(values)))
        out = np.abs(_horner(c, values)) / scale
    far = np.isinf(scale)
    if far.any():
        w, rev = 1.0 / values[far], c[::-1]
        out[far] = np.abs(_horner(rev, w)) / _horner(np.abs(rev), np.abs(w))
    return out


def find_roots(p: RealPoly) -> RootSet:
    """All complex roots of p with multiplicities and backward errors.

    Exact zero roots are stripped first; the rest are companion-matrix seeds
    polished by Newton iteration and merged by one rule: a cluster is certified
    once, and a refused one splits at half its radius, down to CLUSTER_RADIUS.
    Each root's ``residual`` is its backward error
    |p(z)| / sum_j |c_j| max(1,|z|)^j: a root with residual r is an exact
    root of a polynomial whose coefficients are relatively perturbed by at
    most r, whatever the scale of p.  A bound tied to |p|_inf alone is
    unattainable for roots of modulus much above 1, where the evaluation
    noise floor grows like eps * sum |c_j| |z|^j.  Raises NoConvergence (with
    the best RootSet attached) when some residual exceeds RESIDUAL_SCALE or
    is not finite, or when a cluster is still refused at CLUSTER_RADIUS.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    c = p.as_array()
    nz = int(np.argmax(c != 0.0))
    triples: list[tuple[complex, int, bool]] = []
    if nz:
        triples.append((0j, nz, True))  # exact zero roots need no certificate
    work = c[nz:]
    if len(work) > 1:
        seeds = np.atleast_1d(npp.polyroots(work))
        chain = _TaylorChain(work)
        polished = _polish(chain[0], chain[1], seeds.astype(complex), MAX_ITERATIONS)
        triples.extend(_merge_clusters(chain, polished))

    values = np.array([v for v, _, _ in triples], dtype=complex)
    residuals = _backward_errors(c, values)
    roots = [Root(complex(v), m, float(res)) for (v, m, _), res in zip(triples, residuals)]
    roots.sort(key=lambda r: (cmath.phase(r.value), abs(r.value)))
    out = RootSet(tuple(roots), sum(r.multiplicity for r in roots))
    for v, m, certified in triples:
        if not certified:
            raise NoConvergence(f"{m}-fold cluster at {v:.6g} failed certification", best=out)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_SCALE:  # a NaN fails too
        raise NoConvergence(
            f"worst backward error {worst:.3e} exceeds "
            f"bound {RESIDUAL_SCALE:.3e}",
            best=out,
        )
    return out


def self_reciprocal_sign(p: RealPoly) -> int | None:
    """+1 if palindromic, -1 if anti-palindromic, else None, to RECIPROCAL_TOL."""
    c = p.coeffs
    if not c:
        return None
    atol = RECIPROCAL_TOL * max(abs(a) for a in c)
    rev = c[::-1]
    if all(abs(a - b) <= atol for a, b in zip(c, rev)):
        return 1
    if all(abs(a + b) <= atol for a, b in zip(c, rev)):
        return -1
    return None


class CircleCounts(NamedTuple):
    on_circle: int
    inside: int
    outside: int


def classify_roots(rs: RootSet) -> CircleCounts:
    """Bucket roots by |z| vs 1 within CLASSIFY_TOL; multiple roots within 1e-5.

    A cluster of multiplicity m is only locatable to about eps**(1/m), so the
    circle band must widen once multiplicities appear.
    """
    on = inside = outside = 0
    for r in rs.roots:
        tol = CLASSIFY_TOL if r.multiplicity == 1 else 1e-5
        d = abs(r.value) - 1.0
        if abs(d) <= tol:
            on += r.multiplicity
        elif d < 0:
            inside += r.multiplicity
        else:
            outside += r.multiplicity
    return CircleCounts(on, inside, outside)
