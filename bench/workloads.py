"""The four seeded workloads of the verdict-throughput benchmark.

Each workload is an endless stream of ``Op``s built from a ``random.Random``.
An op's ``call`` is the timed library work; its ``check`` runs afterwards,
outside the timed region, and returns ``None`` when every verdict matches
the oracle or a one-line reason when one does not.  Oracles never reuse the
code path being timed: interval verdicts come from the exact ``Fraction``
rule below, endpoint multiplicities from the tabulated factorizations, and
the phi_k / W / boundary verdicts from the facts the README and the
acceptance criteria state.

Inputs are drawn in stratified blocks (one draw from each slice of every
size range, then shuffled) so that the mix of cheap and expensive ops in a
time-bounded run hardly depends on the seed; the seed still chooses every
family, N, kappa, resolution and order.  Library functions are looked up as
module attributes at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from quadrinomials import cli, families, polycore, stability, univalent

CIRCLE_TOL = 1e-5  # phi_k circle tolerance of acceptance criterion 5


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def interval(family: str, N: int) -> tuple[Fraction, Fraction]:
    """Closed kappa interval on which all N zeros lie on the unit circle."""
    edge = Fraction(N, N - 2)
    if family == "P":
        return Fraction(-1), (Fraction(1) if N % 2 == 0 else edge)
    return -edge, (Fraction(1) if N % 2 == 1 else edge)


def on_circle_rule(family: str, kappa, N: int) -> bool:
    lo, hi = interval(family, N)
    return lo <= Fraction(kappa) <= hi


def endpoint_cases(N: int) -> list[tuple[str, Fraction, tuple[tuple[int, int], ...]]]:
    """The four tabulated endpoint cases at N with their linear factors.

    ``(root, m)`` stands for the factor (1 - root z)^m, a zero of
    multiplicity m at z = root.
    """
    edge = Fraction(N, N - 2)
    if N % 2 == 1:
        return [
            ("P", Fraction(-1), ((-1, 1), (1, 2))),
            ("P", edge, ((-1, 3),)),
            ("Q", -edge, ((1, 3),)),
            ("Q", Fraction(1), ((1, 1), (-1, 2))),
        ]
    return [
        ("P", Fraction(-1), ((1, 2),)),
        ("P", Fraction(1), ((-1, 2),)),
        ("Q", -edge, ((-1, 1), (1, 3))),
        ("Q", edge, ((1, 1), (-1, 3))),
    ]


def spread_ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer of lo..hi from each of count equal slices."""
    values = list(range(lo, hi + 1))
    out = []
    for i in range(count):
        a = i * len(values) // count
        b = (i + 1) * len(values) // count
        out.append(values[rng.randrange(a, b)])
    return out


def balanced_order(rng: random.Random, strata: dict) -> list:
    """Shuffle so that every prefix holds each stratum in proportion."""
    keyed = []
    for members in strata.values():
        slots = list(range(len(members)))
        rng.shuffle(slots)
        for slot, item in zip(slots, members):
            keyed.append(((slot + rng.random()) / len(members), item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


# --- criterion_sweep -------------------------------------------------------

# (lowest N, highest N, draws per block): weighted toward small N, with one
# draw in 32 at N >= 171 where _derivative_chain overflows.
SWEEP_STRATA = ((3, 20, 16), (21, 50, 8), (51, 101, 7), (171, 201, 1))


def criterion_op(family: str, kappa: float, N: int) -> Op:
    spec = families.QuadSpec(family, kappa, N)
    truth = on_circle_rule(family, kappa, N)

    def call():
        chk = families.verify_criterion(spec)
        cohn = stability.cohn_on_circle(families.build_quadrinomial(spec))
        disk = stability.trinomial_in_disk(*stability.quadrinomial_derivative_line(spec))
        return chk.predicted, chk.observed, cohn, disk

    def check(got):
        names = ("predicted", "observed", "cohn_on_circle", "trinomial_in_disk")
        wrong = [n for n, v in zip(names, got) if v != truth]
        return f"{wrong} disagree with exact rule {truth}" if wrong else None

    return Op("criterion", f"{family} kappa={kappa!r} N={N}", call, check)


def criterion_sweep(rng: random.Random) -> Iterator[Op]:
    while True:
        block = []
        for lo_n, hi_n, count in SWEEP_STRATA:
            for N in spread_ints(rng, lo_n, hi_n, count):
                family = rng.choice("PQ")
                lo, hi = interval(family, N)
                block.append((family, rng.uniform(float(lo) - 0.5, float(hi) + 0.5), N))
        rng.shuffle(block)
        for family, kappa, N in block:
            yield criterion_op(family, kappa, N)


# --- edge_multiplicity -----------------------------------------------------

EDGE_N = (3, 101)
PHI_N = (5, 21)


def endpoint_op(family: str, kappa: Fraction, N: int, linear) -> Op:
    spec = families.QuadSpec(family, kappa, N)
    expected = sorted((root, m) for root, m in linear if m > 1)

    def call():
        rs = polycore.find_roots(families.build_quadrinomial(spec))
        counts = polycore.classify_roots(rs)
        form = families.factorize_limit_case(spec)
        cohn = stability.cohn_on_circle(families.build_quadrinomial(spec))
        gap = families.verify_factorization(spec)
        return rs, counts, form, cohn, gap

    def check(got):
        rs, counts, form, cohn, gap = got
        multiple = [r for r in rs.roots if r.multiplicity > 1]
        found = sorted((round(r.value.real), r.multiplicity) for r in multiple)
        stray = [r.value for r in multiple if abs(r.value - round(r.value.real)) > 1e-4]
        problems = []
        if found != expected or stray:
            problems.append(f"multiple roots {found} (off +-1: {stray}) != {expected}")
        if counts.on_circle != N:
            problems.append(f"{counts.on_circle} of {N} roots on the circle")
        if tuple(form.linear) != tuple(linear) or form.degree != N:
            problems.append(f"factorization {form.linear} degree {form.degree}")
        if not cohn:
            problems.append("cohn_on_circle is False")
        if not gap <= 1e-10:
            problems.append(f"factorization gap {gap:.2e}")
        return "; ".join(problems) or None

    return Op("endpoint", f"{family} kappa={kappa} N={N}", call, check)


def phi_op(N: int, k: int) -> Op:
    def call():
        rs = polycore.find_roots(univalent.phi_k(N, k))
        return max(abs(abs(r.value) - 1.0) for r in rs.roots)

    def check(dev):
        # The k = N kernel has angle pi and genuinely leaves the circle.
        if k < N and not dev <= CIRCLE_TOL:
            return f"circle deviation {dev:.2e} > {CIRCLE_TOL}"
        if k == N and not dev > CIRCLE_TOL:
            return f"top kernel deviation {dev:.2e} should exceed {CIRCLE_TOL}"
        return None

    return Op("phi_k", f"phi_k N={N} k={k}", call, check)


def quasi_extremal_op(N: int) -> Op:
    def check(ch):
        low = max(ch.derivative_magnitudes[:5]) / ch.scale
        if (
            low <= 1e-8
            and ch.derivative_magnitudes[5] > 1e-3 * ch.scale
            and ch.deflated_circle_deviation <= 1e-5
            and ch.identity_deviation <= 1e-10
        ):
            return None
        return f"W checks out of bounds: {ch}"

    return Op("quasi_extremal", f"W N={N}", lambda: univalent.quasi_extremal_checks(N), check)


def edge_multiplicity(rng: random.Random) -> Iterator[Op]:
    """Passes over every tabulated endpoint case at N 3..101, plus a seeded
    phi_k(N, k < N), the top kernel phi_k(N, N) and the W checks for each
    odd N 5..21.  Endpoint costs jump erratically with N, so the stream is
    whole passes rather than draws, ordered so that any prefix holds each
    (case, N decade) group in proportion; a run covers most of one pass.
    The seed sets the order and the phi_k indices.
    """
    while True:
        strata: dict = {}
        for N in range(EDGE_N[0], EDGE_N[1] + 1):
            for case, (family, kappa, linear) in enumerate(endpoint_cases(N)):
                key = ("endpoint", N % 2, case, (N - EDGE_N[0]) // 10)
                strata.setdefault(key, []).append((endpoint_op, (family, kappa, N, linear)))
        for N in range(PHI_N[0], PHI_N[1] + 1, 2):
            strata.setdefault("phi", []).append((phi_op, (N, rng.randint(1, N - 1))))
            strata.setdefault("phi_top", []).append((phi_op, (N, N)))
            strata.setdefault("W", []).append((quasi_extremal_op, (N,)))
        for make, args in balanced_order(rng, strata):
            yield make(*args)


# --- boundary_scan ---------------------------------------------------------

RESOLUTION = (2048, 4096)
CONTROL_A = (0.75, 2.0)


def family_scan_op(s: int, N: int, resolution: int) -> Op:
    f = univalent.F_family(s, N)

    def call():
        img = univalent.boundary_image(f, resolution)
        return univalent.simple_curve_scan(img), univalent.suffridge_membership(f, N - 1)

    def check(got):
        simple, member = got
        if simple and member:
            return None
        return f"simple={simple} member={member}, both expected True"

    return Op("family_scan", f"F s={s} N={N} res={resolution}", call, check)


def control_scan_op(a: float, resolution: int) -> Op:
    f = univalent.NormalizedPoly(polycore.RealPoly.of((0.0, 1.0, a)), 2)

    def call():
        return univalent.simple_curve_scan(univalent.boundary_image(f, resolution))

    def check(simple):
        # z + a z^2 with a > 1/2 traces a limacon with an inner loop.
        return None if simple is False else "limacon control scanned as simple"

    return Op("control_scan", f"z+{a!r}z^2 res={resolution}", call, check)


def boundary_scan(rng: random.Random) -> Iterator[Op]:
    """Blocks of F_N^(s) for s = 0..4 plus two limacon controls, with the
    seven resolutions spread over 2048..4096 (the scan is O(resolution^2))."""
    while True:
        resolutions = spread_ints(rng, RESOLUTION[0], RESOLUTION[1], 7)
        rng.shuffle(resolutions)
        block = []
        for s, res in zip(range(5), resolutions):
            N = rng.randrange(5, 32, 2) if s <= 2 else rng.randrange(6, 33, 2)
            block.append(family_scan_op(s, N, res))
        for res in resolutions[5:]:
            block.append(control_scan_op(rng.uniform(*CONTROL_A), res))
        rng.shuffle(block)
        yield from block


# --- cli_json --------------------------------------------------------------


def _kappa_arg(kappa) -> str:
    text = f"{kappa.numerator}/{kappa.denominator}" if isinstance(kappa, Fraction) else repr(kappa)
    return f"--kappa={text}"


def _read_envelope(path: str, command: str):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != "1" or doc.get("command") != command:
        raise ValueError(f"envelope {doc.get('schema_version')!r}/{doc.get('command')!r}")
    return doc["payload"]


def _same(a, b) -> bool:
    """JSON-decoded payload value equals the library value."""
    if isinstance(b, (list, tuple)):
        return isinstance(a, list) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def cli_op(argv: list[str], out: str, expect: Callable[[dict], "str | None"]) -> Op:
    command = argv[0]

    def call():
        return cli.main(argv + ["--json", "--out", out])

    def check(code):
        if code != 0:
            return f"exit code {code}"
        try:
            return expect(_read_envelope(out, command))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"bad envelope or payload: {exc!r}"

    return Op(f"cli_{command}", " ".join(argv), call, check)


def _mirror_coeffs(rng: random.Random) -> list[float]:
    deg = rng.randint(2, 12)
    sign = rng.choice((1.0, -1.0))
    c = [0.0] * (deg + 1)
    for j in range(deg // 2 + 1):
        v = rng.uniform(0.3, 1.0) * rng.choice((1.0, -1.0))
        c[j] += v
        c[deg - j] += sign * v
    if rng.random() < 0.5:
        c[0] += 0.01  # breaks both symmetries
    return c


def cli_roots(rng, out):
    family, N = rng.choice("PQ"), rng.randint(3, 41)
    lo, hi = interval(family, N)
    kappa = rng.uniform(float(lo) - 0.5, float(hi) + 0.5)
    if rng.random() < 0.5:
        kappa = Fraction(round(kappa * 9), 9)
    truth = on_circle_rule(family, kappa, N)

    def expect(payload):
        spec = families.QuadSpec(family, kappa, N)
        counts = polycore.classify_roots(polycore.find_roots(families.build_quadrinomial(spec)))
        got = payload["classification"]
        if payload["degree"] != N or [got["on_circle"], got["inside"], got["outside"]] != list(counts):
            return f"classification {got} != library {counts}"
        if (got["on_circle"] == N) != truth:
            return f"classification {got} disagrees with exact rule {truth}"
        return None

    return cli_op(["roots", "--family", family.lower(), _kappa_arg(kappa), "--N", str(N)], out, expect)


def cli_criterion(rng, out):
    family, N = rng.choice("PQ"), rng.randint(3, 41)
    lo, hi = interval(family, N)
    kappa = rng.uniform(float(lo) - 0.5, float(hi) + 0.5)
    truth = on_circle_rule(family, kappa, N)

    def expect(payload):
        if payload["predicted"] == payload["observed"] == truth:
            return None
        return f"predicted {payload['predicted']} observed {payload['observed']} rule {truth}"

    return cli_op(["criterion", "--family", family, _kappa_arg(kappa), "--N", str(N)], out, expect)


def cli_factor(rng, out):
    N = rng.randint(3, 61)
    family, kappa, linear = rng.choice(endpoint_cases(N))

    def expect(payload):
        spec = families.QuadSpec(family, kappa, N)
        form = families.factorize_limit_case(spec)
        if not _same(payload["linear"], linear) or not _same(payload["quadratics"], form.quadratics):
            return f"factors {payload['linear']} differ from {linear} / library"
        if not payload["max_deviation"] <= 1e-10:
            return f"max_deviation {payload['max_deviation']:.2e}"
        return None

    return cli_op(["factor", "--family", family.lower(), _kappa_arg(kappa), "--N", str(N)], out, expect)


def cli_cusps(rng, out):
    N = rng.randrange(5, 42, 2)

    def expect(payload):
        angles = families.cusp_angles(N)
        ok = _same(payload["angles"], angles) and len(angles) == (N - 3) // 2
        return None if ok else f"angles differ from library at N={N}"

    return cli_op(["cusps", "--N", str(N)], out, expect)


def cli_stability(rng, out):
    n, samples = rng.randint(2, 10), rng.randint(128, 512)

    def expect(payload):
        cs = stability.stability_boundary(n, samples)
        bad = [k for k in ("I", "II", "III", "IV") if not _same(payload["curves"][k], cs.curves[k])]
        return f"curves {bad} differ from library" if bad else None

    return cli_op(["stability", "--n", str(n), "--samples", str(samples)], out, expect)


def cli_cohn(rng, out):
    coeffs = _mirror_coeffs(rng)

    def expect(payload):
        p = polycore.RealPoly.of(coeffs)
        want = (stability.cohn_on_circle(p), polycore.self_reciprocal_sign(p))
        got = (payload["on_circle"], payload["self_reciprocal"])
        return None if got == want else f"{got} != library {want}"

    return cli_op(["cohn", "--coeffs=" + ",".join(repr(c) for c in coeffs)], out, expect)


def _cli_factored(name, poly_fn, factored_fn, rng, out):
    N = rng.randint(2, 60)

    def expect(payload):
        form = factored_fn(N)
        if not _same(payload["linear"], form.linear) or not _same(payload["coefficients"], poly_fn(N).poly.coeffs):
            return f"{name} payload differs from library at N={N}"
        if not payload["max_deviation"] <= 1e-10:
            return f"max_deviation {payload['max_deviation']:.2e}"
        return None

    return cli_op([name, "--N", str(N)], out, expect)


def cli_fejer(rng, out):
    return _cli_factored("fejer", univalent.fejer, univalent.fejer_derivative_factored, rng, out)


def cli_alexander(rng, out):
    return _cli_factored("alexander", univalent.alexander, univalent.alexander_derivative_factored, rng, out)


def _family_n(rng, s: int, top: int) -> int:
    return rng.randrange(5, top + 1, 2) if s <= 2 else rng.randrange(6, top + 2, 2)


def cli_univalent(rng, out, variant: str, size: int = 0):
    """variant "plain" (coefficients only), "boundary" (``size`` samples)
    or "s0" (N = ``size``, with the phi_k and W checks)."""
    if variant == "s0":
        s, N = 0, size
    else:
        s = rng.randint(1, 4)
        N = _family_n(rng, s, 21 if variant == "plain" else 11)
    argv = ["univalent", "--s", str(s), "--N", str(N)]
    resolution = size if variant == "boundary" else 0
    if resolution:
        argv += ["--boundary", str(resolution)]

    def expect(payload):
        if not _same(payload["coefficients"], univalent.F_family(s, N).poly.coeffs):
            return "coefficients differ from library"
        if s == 0:
            devs = {row["k"]: row["max_circle_deviation"] for row in payload["phi_k"]}
            bad = [k for k, d in devs.items() if (d <= CIRCLE_TOL) != (k < N)]
            if sorted(devs) != list(range(1, N + 1)) or bad:
                return f"phi_k verdicts wrong for k={bad}"
            w = payload["W"]
            if not (w["deflated_circle_deviation"] <= 1e-5 and w["identity_deviation"] <= 1e-10):
                return f"W checks out of bounds: {w}"
        if resolution:
            b = payload["boundary"]
            if b["simple"] is not True or len(b["samples"]) != resolution:
                return f"boundary simple={b['simple']} with {len(b['samples'])} samples"
        return None

    return cli_op(argv, out, expect)


CLI_LIGHT = (cli_roots, cli_criterion, cli_factor, cli_cusps, cli_stability, cli_cohn, cli_fejer, cli_alexander)


def cli_json(rng: random.Random, out: str) -> Iterator[Op]:
    """Blocks of 18 invocations: two of each light subcommand, one
    coefficient-only univalent and one heavy univalent.  The heavy ones cycle
    through s = 0 at N = 5, 7, 9 and --boundary at three resolutions spread
    over 512..1024, in seeded order."""
    heavy: list[tuple[str, int]] = []
    while True:
        if not heavy:
            heavy = [("s0", N) for N in (5, 7, 9)]
            heavy += [("boundary", r) for r in spread_ints(rng, 512, 1024, 3)]
            rng.shuffle(heavy)
        block = [make(rng, out) for make in CLI_LIGHT for _ in range(2)]
        block.append(cli_univalent(rng, out, "plain"))
        block.append(cli_univalent(rng, out, *heavy.pop()))
        rng.shuffle(block)
        yield from block


WORKLOADS = {
    "criterion_sweep": lambda rng, out: criterion_sweep(rng),
    "edge_multiplicity": lambda rng, out: edge_multiplicity(rng),
    "boundary_scan": lambda rng, out: boundary_scan(rng),
    "cli_json": cli_json,
}


def stream(name: str, seed: int, purpose: str, out: str) -> Iterator[Op]:
    """The op stream of one workload; ``purpose`` separates warm-up from the run."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}/{purpose}"), out)
