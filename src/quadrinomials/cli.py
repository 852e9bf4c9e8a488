"""Command line front end; every subcommand can emit JSON (--json) or text,
optionally into a file (--out).  Exit codes: 0 ok, 1 the reader closed stdout
before all output was written, 2 bad arguments or an --out file that cannot
be opened, 3 the numerics failed to converge.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .families import (
    QuadSpec,
    build_quadrinomial,
    cusp_angles,
    factorize_limit_case,
    verify_criterion,
    verify_factorization,
)
from .polycore import NoConvergence, RealPoly, classify_roots, find_roots, self_reciprocal_sign
from .stability import cohn_on_circle, stability_boundary
from .univalent import (
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


def _spec(args) -> QuadSpec:
    return QuadSpec(args.family.upper(), args.kappa, args.N)


def cmd_roots(args):
    spec = _spec(args)
    rs = find_roots(build_quadrinomial(spec))
    counts = classify_roots(rs)
    lines = [f"family {spec.family}  kappa {spec.kappa}  N {spec.N}"]
    lines += [
        f"  {_fmt(r.value.real)} {r.value.imag:+.12g}i"
        f"  mult {r.multiplicity}  residual {r.residual:.2e}"
        for r in rs.roots
    ]
    lines.append(
        f"on circle {counts.on_circle}, inside {counts.inside}, outside {counts.outside}"
    )
    payload = {"degree": rs.total, "roots": _root_rows(rs), "classification": counts._asdict()}
    return payload, lines


def cmd_criterion(args):
    check = verify_criterion(_spec(args))
    lines = [
        f"predicted={check.predicted} observed={check.observed} "
        f"worst_deviation={check.worst_deviation:.3e}"
    ]
    return check._asdict(), lines


def cmd_factor(args):
    spec = _spec(args)
    form = factorize_limit_case(spec)
    deviation = verify_factorization(spec)
    payload = {
        "linear": form.linear,
        "quadratics": form.quadratics,
        "scale": form.scale,
        "max_deviation": deviation,
    }
    return payload, [_format_factored(form), f"max coefficient deviation {deviation:.3e}"]


def cmd_cusps(args):
    angles = cusp_angles(args.N)
    diffs = [b - a for a, b in zip(angles, angles[1:])]
    lines = [f"cusp angles for N={args.N}"]
    lines += [f"  {_fmt(a)}" for a in angles]
    if diffs:
        lines.append("differences " + " ".join(_fmt(d) for d in diffs))
    return {"N": args.N, "angles": angles, "differences": diffs}, lines


def _csv_lines(table):
    """The lines of table.to_csv, written only when the first one is asked for."""
    buf = io.StringIO()
    table.to_csv(buf)
    yield from buf.getvalue().splitlines()


def cmd_stability(args):
    cs = stability_boundary(args.n, args.samples)
    return {"n": cs.n, "t_range": cs.t_range, "curves": cs.curves}, _csv_lines(cs)


def cmd_cohn(args):
    p = RealPoly.of(args.coeffs)
    verdict = cohn_on_circle(p)
    sign = self_reciprocal_sign(p)
    dp = p.derivative()
    rows = _root_rows(find_roots(dp)) if dp.degree >= 1 else []
    lines = [
        f"all zeros on unit circle: {verdict}",
        f"self-reciprocal sign: {sign}",
    ]
    lines += [
        f"  p' root {_fmt(r['re'])} {_fmt(r['im'])}i  mult {r['multiplicity']}" for r in rows
    ]
    return {"on_circle": verdict, "self_reciprocal": sign, "derivative_roots": rows}, lines


def _cmd_derivative(args):
    # the fejer and alexander subcommands; args.command picks the family
    if args.command == "fejer":
        f, form = fejer(args.N), fejer_derivative_factored(args.N)
    else:
        f, form = alexander(args.N), alexander_derivative_factored(args.N)
    deviation = (form.expand() - f.poly.derivative()).norm_inf
    payload = {
        "N": args.N,
        "coefficients": f.poly.coeffs,
        "linear": form.linear,
        "quadratics": form.quadratics,
        "max_deviation": deviation,
    }
    lines = [
        f"{args.command}({args.N}) derivative = {_format_factored(form)}",
        f"max coefficient deviation {deviation:.3e}",
    ]
    return payload, lines


def cmd_univalent(args):
    f = F_family(args.s, args.N)
    payload = {"s": args.s, "N": args.N, "coefficients": f.poly.coeffs}
    lines = [f"F_{args.N}^({args.s}) coefficients"]
    lines += [f"  z^{j}: {_fmt(c)}" for j, c in enumerate(f.poly.coeffs) if c != 0.0]
    if args.s == 0:
        ks = [*range(1, (args.N + 1) // 2), args.N]
        *low, top = (max(abs(abs(r.value) - 1.0) for r in find_roots(phi_k(args.N, k)).roots) for k in ks)
        devs = low + low[::-1] + [top]  # row N-k: phi_k(N, N-k)(z) = phi_k(N, k)(-z)
        payload["phi_k"] = [{"k": k, "max_circle_deviation": d} for k, d in enumerate(devs, 1)]
        lines.append(
            f"phi_k worst circle deviation over k=1..{args.N - 1}: {max(devs[:-1]):.3e}; "
            f"top index k={args.N} (angle pi, not a kernel): {devs[-1]:.3e}"
        )
        checks = quasi_extremal_checks(args.N)
        payload["W"] = asdict(checks)
        lines.append(
            "W at -1: "
            + " ".join(f"{v:.2e}" for v in checks.derivative_magnitudes)
            + f"  circle dev of the other roots {checks.deflated_circle_deviation:.2e}"
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
        lines = itertools.chain(lines, _csv_lines(img))
    return payload, lines


_FAMILY = (
    ("--family", {"required": True, "choices": ["p", "q", "P", "Q"]}),
    ("--kappa", {"required": True, "type": parse_kappa}),
    ("--N", {"required": True, "type": int}),
)
_N = (("--N", {"required": True, "type": int}),)

# Subcommand -> (help, arguments in params order, handler name).  Handlers are
# looked up by name when the parser is built, so a cmd_* rebound after import
# (the span tracer in bench/spans.py) is the one that runs.
_COMMANDS = {
    "roots": ("roots of the quadrinomial", _FAMILY, "cmd_roots"),
    "criterion": ("circle criterion vs observed roots", _FAMILY, "cmd_criterion"),
    "factor": ("limit-case factorization", _FAMILY, "cmd_factor"),
    "cusps": ("cusp angle table for odd N", _N, "cmd_cusps"),
    "stability": (
        "trinomial stability boundary curves",
        (("--n", {"required": True, "type": int}), ("--samples", {"type": int, "default": 256})),
        "cmd_stability",
    ),
    "cohn": (
        "self-reciprocal circle test",
        (("--coeffs", {"required": True, "type": parse_coeffs, "help": "c0,c1,..."}),),
        "cmd_cohn",
    ),
    "fejer": ("Fejer polynomial derivative factorization", _N, "_cmd_derivative"),
    "alexander": ("Alexander polynomial derivative factorization", _N, "_cmd_derivative"),
    "univalent": (
        "univalent family member with checks",
        (
            ("--s", {"required": True, "type": int, "choices": [0, 1, 2, 3, 4]}),
            ("--N", {"required": True, "type": int}),
            ("--boundary", {"type": int, "metavar": "RES", "help": "emit boundary samples"}),
        ),
        "cmd_univalent",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrinomials",
        description="Quadrinomial circle criteria, factorizations, and univalent families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = args.func(args)
    except ValueError as exc:  # NotALimitCase and ParityMismatch among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    params = {}
    for flag, spec in _COMMANDS[args.command][1]:
        value = getattr(args, flag[2:])
        # an optional argument left unset or 0 (univalent --boundary) stays out
        if spec.get("required") or value:
            params[flag[2:]] = str(value)
    try:
        target = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "params": params, "payload": payload}
    try:
        with target as stream:
            if args.json:
                json.dump(doc, stream, indent=2)
                stream.write("\n")
            else:
                stream.writelines(line + "\n" for line in lines)
            stream.flush()
    except BrokenPipeError:  # the reader closed stdout; devnull takes what is left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
