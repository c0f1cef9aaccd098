"""Command-line front end.

Spectra are passed as comma-separated complex literals ("3,-1,-1" or
"1+2i,1-2i,-1/3"), or as "@path" to read one literal per line from a
file.  Every command prints either a human-readable report (default) or
a canonical machine-readable JSON document (--format machine).

Exit codes: 0 success or certified, 1 a checked condition failed or no
route certified, 2 input error or a depth too large to hold, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import serialize
from .errors import NumericError, ParseError
from .harness import (
    ENSEMBLES,
    HuntConfig,
    VerifyConfig,
    _ROUTES,
    _certificate,
    _certify,
    _RouteFailure,
    antiderivative_chain,
    hunt,
    verify_critical_realizability,
)
from .moments import check_necessary_conditions, power_sums
from .differentiator import compression_critical_points, critical_compression, power_traces
from .polynomial import from_roots
from .realizers import d_companion, real_d_companion
from .spectra import SpectrumList, as_spectrum

__all__ = ["parse_complex", "parse_spectrum", "run", "main"]

_REAL_RE = re.compile(
    r"^[+-]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)$"
)


def _parse_real(token: str, original: str) -> float:
    if not _REAL_RE.match(token):
        raise ParseError(f"malformed number {token!r} in {original!r}", token=token)
    try:
        value = float(Fraction(token)) if "/" in token else float(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", token=token) from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(
            f"number {token!r} in {original!r} is out of range", token=token
        )
    return value


def parse_complex(text: str) -> complex:
    """Parse a complex literal: decimals, exact rationals p/q, and an
    optional trailing imaginary part ending in i."""
    s = text.strip().replace("−", "-").replace(" ", "")
    if not s:
        raise ParseError("empty complex literal", token=text)
    if not s.endswith("i"):
        return complex(_parse_real(s, text), 0.0)
    body = s[:-1]
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    if split > 0:
        real_part = _parse_real(body[:split], text)
        imag_token = body[split:]
    else:
        real_part = 0.0
        imag_token = body
    if imag_token in ("", "+"):
        imag = 1.0
    elif imag_token == "-":
        imag = -1.0
    else:
        imag = _parse_real(imag_token, text)
    return complex(real_part, imag)


def parse_spectrum(text: str) -> SpectrumList:
    """Parse a comma-separated spectrum, or @path for one literal per line."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                tokens = [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise ParseError(f"cannot read spectrum file: {exc}", token=text) from None
    else:
        tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError("empty spectrum", token=text)
    return as_spectrum(parse_complex(t) for t in tokens)


def _fmt_real(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt_real(z.real)
    if z.real == 0:
        return f"{_fmt_real(z.imag)}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def _format_entry(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.10g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.10g}{sign}{abs(z.imag):.10g}i"


def format_matrix(M: np.ndarray, indent: str = "  ") -> str:
    M = np.asarray(M)
    cells = [[_format_entry(complex(v)) for v in row] for row in M]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append(indent + "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
    return "\n".join(lines)


def format_spectrum(spec: SpectrumList) -> str:
    return ", ".join(format_complex(z) for z in spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critspec",
        description=(
            "Critical points of complex spectra: necessary-condition checks "
            "and explicit realizing-matrix constructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spectrum: bool = True) -> None:
        if spectrum:
            p.add_argument("spectrum", help="comma-separated complex literals, or @file")
        p.add_argument(
            "--format",
            choices=("human", "machine"),
            default="human",
            dest="fmt",
            help="output format",
        )

    def add_depths(p: argparse.ArgumentParser, jll: bool = True) -> None:
        p.add_argument("--kmax", type=int, default=None, help="moment depth (default 4n)")
        if jll:
            p.add_argument("--jll", type=int, default=8, help="power-sum inequality depth")

    p = sub.add_parser("check", help="run the necessary conditions on a list")
    add_common(p)
    add_depths(p)

    p = sub.add_parser("critical", help="critical points and their moments")
    add_common(p)
    add_depths(p, jll=False)

    p = sub.add_parser("realize", help="construct one realizing matrix for the critical points")
    add_common(p)
    p.add_argument(
        "--route",
        choices=("companion", "dcomp", "real-dcomp", "dft", "circulant"),
        required=True,
        help="construction to use (dft and circulant are synonyms)",
    )
    p.add_argument("--pivot", type=int, default=None, help="1-based pivot for dcomp")

    p = sub.add_parser("verify", help="full realizability verification of the critical points")
    add_common(p)
    add_depths(p)

    p = sub.add_parser("hunt", help="randomized stress test over realizable spectra")
    add_common(p, spectrum=False)
    p.add_argument("--n", required=True, help="matrix order, a value like 5 or a range like 4-6")
    p.add_argument("--samples", type=int, default=100, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--ensemble", choices=ENSEMBLES, default="dense-uniform")
    add_depths(p)

    p = sub.add_parser("chain", help="iterated monic antiderivatives of the list's polynomial")
    add_common(p)
    p.add_argument(
        "--constants",
        required=True,
        help="comma-separated constants, one per antiderivative step",
    )
    return parser


def _parse_order_range(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)(?:(?:\.\.|-)(\d+))?$", text.strip())
    if not m:
        raise ParseError(f"malformed order range {text!r}", token=text)
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    return lo, hi


def _print_condition_summary(r, out) -> None:
    def mark(ok: bool) -> str:
        return "pass" if ok else "FAIL"

    failing_k = (np.flatnonzero(~r.moment_passed) + 1).tolist()
    failing_jll = [tuple(km) for km in (np.argwhere(~r.jll_passed) + 1).tolist()]
    print(f"self-conjugate:          {mark(r.self_conjugate)} "
          f"(pairing residual {r.pairing_residual:.3e})", file=out)
    print(f"spectral radius in list: {mark(r.spectral_radius_in_list)} "
          f"(margin {r.spectral_radius_margin:.3e})", file=out)
    label = f"moments k=1..{r.moment_depth}:"
    if failing_k:
        print(f"{label:<24} FAIL at k={failing_k}", file=out)
    else:
        print(f"{label:<24} pass", file=out)
    if failing_jll:
        print(f"power-sum inequality:    FAIL at (k,m)={failing_jll}", file=out)
    else:
        print(f"power-sum inequality:    pass (depth {r.jll_depth})", file=out)
    print(f"overall:                 {mark(r.overall)}", file=out)


def _cmd_check(args, out) -> int:
    spec = parse_spectrum(args.spectrum)
    report = check_necessary_conditions(spec, kmax=args.kmax, jll_depth=args.jll)
    if args.fmt == "machine":
        config = {"kmax": args.kmax, "jll": args.jll}
        record = serialize.condition_report_record(report)
        print(serialize.document("check", spec, config, record), file=out)
    else:
        print(f"list (n={len(spec)}): {format_spectrum(spec)}", file=out)
        _print_condition_summary(report, out)
    return 0 if report.overall else 1


def _cmd_critical(args, out) -> int:
    spec = parse_spectrum(args.spectrum)
    B = critical_compression(spec)
    crit = compression_critical_points(spec, B)
    depth = args.kmax if args.kmax is not None else 4 * len(spec)
    trace = power_traces(B, depth)
    direct = power_sums(crit, depth)
    bad = np.flatnonzero(~(np.isfinite(trace) & np.isfinite(direct)))
    if bad.size:
        raise NumericError(
            f"moment k={int(bad[0]) + 1} of the critical points is not finite "
            f"in double precision"
        )
    if args.fmt == "machine":
        record = serialize.critical_record(crit, trace, direct)
        print(serialize.document("critical", spec, {"kmax": args.kmax}, record), file=out)
    else:
        print(f"input (n={len(spec)}): {format_spectrum(spec)}", file=out)
        print(f"critical points (n={len(crit)}): {format_spectrum(crit)}", file=out)
        print("moments of the critical points (trace of B^k | direct):", file=out)
        for k, t, d in zip(range(1, depth + 1), trace, direct):
            print(f"  k={k:<3d} {format_complex(t):>24s} | {format_complex(d)}", file=out)
    return 0


def _build_realizer(args, spec: SpectrumList):
    """Returns (matrix or None, failure reason or None).

    companion, dft and circulant are verify's route builds.
    """
    if args.route == "dcomp":
        return d_companion(spec, pivot=args.pivot), None
    if args.route == "real-dcomp":
        return real_d_companion(spec), None
    build = dict(_ROUTES)["companion" if args.route == "companion" else "dft-circulant"]
    try:
        return build(spec, VerifyConfig()), None
    except _RouteFailure as exc:
        return None, str(exc)


def _cmd_realize(args, out) -> int:
    """Build one route's matrix and report on it.

    The critical points are verify's, the eigenvalues of the
    differentiator compression, and every route's matrix, real-dcomp's
    too, is certified by verify's one test (harness._certificate), so
    realize and verify agree.  Unlike verify, which stops at a route's
    failed sign test to skip the eigenvalue solve, realize always shows
    the matrix as built, the sign class _certificate found and the
    backward error of its spectrum, so a failed route can be inspected;
    a certified route shows the certificate and its own backward error.
    Each candidate's spectrum is solved once.  A matrix with non-finite
    entries is a NumericError.
    """
    if args.pivot is not None and args.route != "dcomp":
        raise ParseError("--pivot applies only to --route dcomp")
    spec = parse_spectrum(args.spectrum)
    crit = compression_critical_points(spec)
    M, reason = _build_realizer(args, spec)
    sign = residual = cert = None
    if M is not None:
        cert, residual, reason, sign = _certificate(M, spec, crit)
        if residual is None:
            # M is complex or failed the sign test, so no solve ran.
            residual, mismatch = _certify(M, spec, crit)
            reason = mismatch or reason
        M = M if cert is None else cert
    certified = cert is not None
    if args.fmt == "machine":
        config = {"route": args.route, "pivot": args.pivot}
        record = serialize.realize_record(crit, args.route, M, sign, residual, certified, reason)
        print(serialize.document("realize", spec, config, record), file=out)
    else:
        print(f"input (n={len(spec)}): {format_spectrum(spec)}", file=out)
        print(f"critical points (n={len(crit)}): {format_spectrum(crit)}", file=out)
        print(f"route: {args.route}", file=out)
        if M is None:
            print(f"failed: {reason}", file=out)
        else:
            print(f"sign class: {'none' if sign is None else sign.value}", file=out)
            print(f"spectrum backward error: {residual:.3e}", file=out)
            print(f"certified: {'yes' if certified else 'no'}", file=out)
            if not certified and reason:
                print(f"reason: {reason}", file=out)
            print(f"matrix (order {M.shape[0]}):", file=out)
            print(format_matrix(M), file=out)
    return 0 if certified else 1


def _cmd_verify(args, out) -> int:
    spec = parse_spectrum(args.spectrum)
    cfg = VerifyConfig(kmax=args.kmax, jll_depth=args.jll)
    report = verify_critical_realizability(spec, cfg)
    if args.fmt == "machine":
        record = serialize.realizability_record(report)
        spectrum = serialize.report_input_record(record)
        config = {"kmax": args.kmax, "jll": args.jll}
        print(serialize.document("verify", spectrum, config, record), file=out)
    else:
        print(f"input (n={len(spec)}): {format_spectrum(spec)}", file=out)
        print(f"critical points (n={len(report.critical)}): "
              f"{format_spectrum(report.critical)}", file=out)
        _print_condition_summary(report.conditions, out)
        print("routes:", file=out)
        for r in report.routes:
            if not r.attempted:
                print(f"  {r.name:<14s} not attempted: {r.reason}", file=out)
            elif r.succeeded:
                print(f"  {r.name:<14s} succeeded (backward error {r.residual:.3e})",
                      file=out)
            else:
                print(f"  {r.name:<14s} failed: {r.reason}", file=out)
        print(f"verdict: {report.verdict}", file=out)
        for r in report.routes:
            if r.succeeded:
                print(f"certificate from route {r.name} (order {r.certificate.shape[0]}):",
                      file=out)
                print(format_matrix(r.certificate), file=out)
                break
    return 0 if report.verdict == "certified" else 1


def _cmd_hunt(args, out) -> int:
    n_min, n_max = _parse_order_range(args.n)
    config = HuntConfig(
        n_min=n_min,
        n_max=n_max,
        samples=args.samples,
        seed=args.seed,
        ensemble=args.ensemble,
        kmax=args.kmax,
        jll_depth=args.jll,
    )
    report = hunt(config)
    if args.fmt == "machine":
        config = {
            "kmax": args.kmax,
            "jll": args.jll,
            "seed": args.seed,
            "samples": args.samples,
            "ensemble": args.ensemble,
            "n_min": n_min,
            "n_max": n_max,
        }
        print(serialize.document("hunt", None, config, serialize.hunt_record(report)), file=out)
    else:
        print(f"ensemble: {report.ensemble}  seed: {report.seed}  "
              f"samples: {report.samples}  orders: {report.n_min}..{report.n_max}",
              file=out)
        print(f"certified: {report.certified}  uncertified: {report.uncertified}  "
              f"alarms: {len(report.alarms)}", file=out)
        successes = "  ".join(f"{k}: {v}" for k, v in report.route_successes.items())
        print(f"route successes: {successes}", file=out)
        for alarm in report.alarms:
            print(f"ALARM at sample {alarm.sample_index} (order {alarm.order}): "
                  f"input {format_spectrum(alarm.report.input)}", file=out)
        print(f"wall clock: {report.wall_clock:.2f} s", file=out)
    return 0 if not report.alarms else 1


def _cmd_chain(args, out) -> int:
    spec = parse_spectrum(args.spectrum)
    constants = [parse_complex(t) for t in args.constants.split(",") if t.strip()]
    if not constants:
        raise ParseError("no constants given", token=args.constants)
    p = from_roots(spec)
    report = antiderivative_chain(p, constants)
    if args.fmt == "machine":
        config = {"constants": [serialize.complex_record(c) for c in constants]}
        print(serialize.document("chain", spec, config, serialize.chain_record(report)), file=out)
    else:
        print(f"input (n={len(spec)}): {format_spectrum(spec)}", file=out)
        print(f"start degree: {report.start.degree}", file=out)
        for idx, step in enumerate(report.steps, start=1):
            print(f"step {idx}: constant {format_complex(step.constant)}  "
                  f"degree {step.polynomial.degree}  "
                  f"companion sign class: {step.sign_class.value}", file=out)
            print(f"  roots: {format_spectrum(step.root_list)}", file=out)
        print(f"all companion-nonnegative: {'yes' if report.all_nonnegative else 'no'}",
              file=out)
    return 0 if report.all_nonnegative else 1


_DISPATCH = {
    "check": _cmd_check,
    "critical": _cmd_critical,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
    "chain": _cmd_chain,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args keeps no state between calls."""
    return build_parser()


def run(argv: list[str], out=None) -> int:
    """Parse arguments, dispatch, and return the exit code."""
    out = sys.stdout if out is None else out
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A depth whose arrays cannot be allocated; numpy refuses up front.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
