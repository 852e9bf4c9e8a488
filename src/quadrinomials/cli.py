"""Command line front end; every subcommand can emit JSON (--json) or text,
optionally into a file (--out).  Exit codes: 0 ok, 2 bad arguments, 3 the
numerics failed to converge.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .families import (
    NotALimitCase,
    QuadSpec,
    build_quadrinomial,
    cusp_angles,
    factorize_limit_case,
    verify_criterion,
    verify_factorization,
)
from .polycore import NoConvergence, RealPoly, RootNotPresent, classify_roots, find_roots, self_reciprocal_sign
from .stability import cohn_on_circle, stability_boundary
from .univalent import (
    ParityMismatch,
    F_family,
    alexander,
    alexander_derivative_factored,
    boundary_image,
    fejer,
    fejer_derivative_factored,
    phi_k,
    quasi_extremal_checks,
    simple_curve_scan,
)

SCHEMA_VERSION = "1"


def parse_kappa(text: str):
    """INT and INT/INT parse exactly; anything else must be a decimal float."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid kappa {text!r}") from None


def parse_coeffs(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid coefficient list {text!r}") from None


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _emit(args, command: str, params: dict, payload: dict, text_lines) -> int:
    stream = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.json:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "params": {k: str(v) for k, v in params.items()},
                "payload": payload,
            }
            json.dump(doc, stream, indent=2)
            stream.write("\n")
        else:
            for line in text_lines:
                stream.write(line + "\n")
    finally:
        if args.out:
            stream.close()
    return 0


def _root_rows(rs):
    return [
        {
            "re": r.value.real,
            "im": r.value.imag,
            "multiplicity": r.multiplicity,
            "residual": r.residual,
        }
        for r in rs.roots
    ]


def _format_factored(form) -> str:
    parts = []
    for root, mult in form.linear:
        base = "(1+z)" if root == -1 else "(1-z)"
        parts.append(base + (f"^{mult}" if mult > 1 else ""))
    for c in form.quadratics:
        parts.append(f"[1{-2 * c:+.10g}z+z^2]")
    if form.scale != 1.0:
        parts.insert(0, _fmt(form.scale))
    return " ".join(parts) if parts else "1"


def cmd_roots(args) -> int:
    spec = QuadSpec(args.family.upper(), args.kappa, args.N)
    rs = find_roots(build_quadrinomial(spec))
    counts = classify_roots(rs)
    payload = {
        "degree": rs.total,
        "roots": _root_rows(rs),
        "classification": {
            "on_circle": counts.on_circle,
            "inside": counts.inside,
            "outside": counts.outside,
        },
    }
    lines = [f"family {spec.family}  kappa {spec.kappa}  N {spec.N}"]
    for r in rs.roots:
        lines.append(
            f"  {_fmt(r.value.real)} {r.value.imag:+.12g}i"
            f"  mult {r.multiplicity}  residual {r.residual:.2e}"
        )
    lines.append(
        f"on circle {counts.on_circle}, inside {counts.inside}, outside {counts.outside}"
    )
    params = {"family": args.family, "kappa": args.kappa, "N": args.N}
    return _emit(args, "roots", params, payload, lines)


def cmd_criterion(args) -> int:
    spec = QuadSpec(args.family.upper(), args.kappa, args.N)
    check = verify_criterion(spec)
    payload = {
        "predicted": check.predicted,
        "observed": check.observed,
        "worst_deviation": check.worst_deviation,
    }
    lines = [
        f"predicted={check.predicted} observed={check.observed} "
        f"worst_deviation={check.worst_deviation:.3e}"
    ]
    params = {"family": args.family, "kappa": args.kappa, "N": args.N}
    return _emit(args, "criterion", params, payload, lines)


def cmd_factor(args) -> int:
    spec = QuadSpec(args.family.upper(), args.kappa, args.N)
    form = factorize_limit_case(spec)
    deviation = verify_factorization(spec)
    payload = {
        "linear": [[root, mult] for root, mult in form.linear],
        "quadratics": list(form.quadratics),
        "scale": form.scale,
        "max_deviation": deviation,
    }
    lines = [_format_factored(form), f"max coefficient deviation {deviation:.3e}"]
    params = {"family": args.family, "kappa": args.kappa, "N": args.N}
    return _emit(args, "factor", params, payload, lines)


def cmd_cusps(args) -> int:
    angles = cusp_angles(args.N)
    diffs = [b - a for a, b in zip(angles, angles[1:])]
    payload = {"N": args.N, "angles": angles, "differences": diffs}
    lines = [f"cusp angles for N={args.N}"]
    lines += [f"  {_fmt(a)}" for a in angles]
    if diffs:
        lines.append("differences " + " ".join(_fmt(d) for d in diffs))
    return _emit(args, "cusps", {"N": args.N}, payload, lines)


def cmd_stability(args) -> int:
    cs = stability_boundary(args.n, args.samples)
    payload = {
        "n": cs.n,
        "t_range": [cs.t_range[0], cs.t_range[1]],
        "curves": {
            "I": [[a, b] for a, b in cs.curves["I"]],
            "II": [[a, b] for a, b in cs.curves["II"]],
            "III": [[t, a, b] for t, a, b in cs.curves["III"]],
            "IV": [[t, a, b] for t, a, b in cs.curves["IV"]],
        },
    }
    buf = io.StringIO()
    cs.to_csv(buf)
    lines = buf.getvalue().splitlines()
    params = {"n": args.n, "samples": args.samples}
    return _emit(args, "stability", params, payload, lines)


def cmd_cohn(args) -> int:
    p = RealPoly.of(args.coeffs)
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    verdict = cohn_on_circle(p)
    sign = self_reciprocal_sign(p)
    dp = p.derivative()
    rows = []
    if dp.degree >= 1:
        rows = _root_rows(find_roots(dp))
    payload = {
        "on_circle": verdict,
        "self_reciprocal": sign,
        "derivative_roots": rows,
    }
    lines = [
        f"all zeros on unit circle: {verdict}",
        f"self-reciprocal sign: {sign}",
    ]
    for r in rows:
        lines.append(
            f"  p' root {_fmt(r['re'])} {_fmt(r['im'])}i  mult {r['multiplicity']}"
        )
    return _emit(args, "cohn", {"coeffs": args.coeffs}, payload, lines)


def _cmd_factored_family(args, name, poly_fn, factored_fn) -> int:
    f = poly_fn(args.N)
    form = factored_fn(args.N)
    deviation = (form.expand() - f.poly.derivative()).norm_inf
    payload = {
        "N": args.N,
        "coefficients": list(f.poly.coeffs),
        "linear": [[root, mult] for root, mult in form.linear],
        "quadratics": list(form.quadratics),
        "max_deviation": deviation,
    }
    lines = [
        f"{name}({args.N}) derivative = {_format_factored(form)}",
        f"max coefficient deviation {deviation:.3e}",
    ]
    return _emit(args, name, {"N": args.N}, payload, lines)


def cmd_fejer(args) -> int:
    return _cmd_factored_family(args, "fejer", fejer, fejer_derivative_factored)


def cmd_alexander(args) -> int:
    return _cmd_factored_family(args, "alexander", alexander, alexander_derivative_factored)


def cmd_univalent(args) -> int:
    f = F_family(args.s, args.N)
    payload = {"s": args.s, "N": args.N, "coefficients": list(f.poly.coeffs)}
    lines = [f"F_{args.N}^({args.s}) coefficients"]
    lines += [f"  z^{j}: {_fmt(c)}" for j, c in enumerate(f.poly.coeffs) if c != 0.0]
    if args.s == 0:
        devs = [
            max(abs(abs(r.value) - 1.0) for r in find_roots(phi_k(args.N, k)).roots)
            for k in range(1, args.N + 1)
        ]
        payload["phi_k"] = [{"k": k, "max_circle_deviation": d} for k, d in enumerate(devs, 1)]
        lines.append(
            f"phi_k worst circle deviation over k=1..{args.N - 1}: {max(devs[:-1]):.3e}; "
            f"top index k={args.N} (angle pi, not a kernel): {devs[-1]:.3e}"
        )
        checks = quasi_extremal_checks(args.N)
        payload["W"] = {
            "derivative_magnitudes": list(checks.derivative_magnitudes),
            "scale": checks.scale,
            "deflated_circle_deviation": checks.deflated_circle_deviation,
            "identity_deviation": checks.identity_deviation,
        }
        lines.append(
            "W at -1: "
            + " ".join(f"{v:.2e}" for v in checks.derivative_magnitudes)
            + f"  deflated circle dev {checks.deflated_circle_deviation:.2e}"
            + f"  identity dev {checks.identity_deviation:.2e}"
        )
    if args.boundary:
        img = boundary_image(f, args.boundary)
        simple = simple_curve_scan(img)
        payload["boundary"] = {
            "resolution": args.boundary,
            "simple": simple,
            "samples": [[float(t), w.real, w.imag] for t, w in zip(img.ts, img.points)],
        }
        lines.append(f"boundary simple at resolution {args.boundary}: {simple}")
        lines.append("t,re,im")
        lines += [
            f"{float(t)!r},{float(w.real)!r},{float(w.imag)!r}"
            for t, w in zip(img.ts, img.points)
        ]
    params = {"s": args.s, "N": args.N}
    if args.boundary:
        params["boundary"] = args.boundary
    return _emit(args, "univalent", params, payload, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrinomials",
        description="Quadrinomial circle criteria, factorizations, and univalent families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    def fam_args(p):
        p.add_argument("--family", required=True, choices=["p", "q", "P", "Q"])
        p.add_argument("--kappa", required=True, type=parse_kappa)
        p.add_argument("--N", required=True, type=int)

    p = sub.add_parser("roots", help="roots of the quadrinomial")
    fam_args(p)
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("criterion", help="circle criterion vs observed roots")
    fam_args(p)
    common(p)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("factor", help="limit-case factorization")
    fam_args(p)
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("cusps", help="cusp angle table for odd N")
    p.add_argument("--N", required=True, type=int)
    common(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("stability", help="trinomial stability boundary curves")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("cohn", help="self-reciprocal circle test")
    p.add_argument("--coeffs", required=True, type=parse_coeffs, help="c0,c1,...")
    common(p)
    p.set_defaults(func=cmd_cohn)

    p = sub.add_parser("fejer", help="Fejer polynomial derivative factorization")
    p.add_argument("--N", required=True, type=int)
    common(p)
    p.set_defaults(func=cmd_fejer)

    p = sub.add_parser("alexander", help="Alexander polynomial derivative factorization")
    p.add_argument("--N", required=True, type=int)
    common(p)
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("univalent", help="univalent family member with checks")
    p.add_argument("--s", required=True, type=int, choices=[0, 1, 2, 3, 4])
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--boundary", type=int, metavar="RES", help="emit boundary samples")
    common(p)
    p.set_defaults(func=cmd_univalent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotALimitCase, ParityMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, RootNotPresent) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
