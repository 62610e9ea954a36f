"""Command line interface.

Subcommands analyze a form coming from --poly text, a --file, or a
named --family member.  Output is a short text report by default or a
JSON document with --json.  Exit codes: 0 when the analysis completed
(whatever the verdict), 2 on bad input, 3 when a budget refusal was
raised under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .apolar import catalecticant, conciseness, hilbert
from .bounds import CertificateStrategy, wild_certificate
from .families import build, evaluate_formula, family_info
from .hessian import (BudgetExceeded, RankPolicy, generic_rank,
                      hessian_determinant, lefschetz_check,
                      lefschetz_property, mixed_hessian)
from .poly import Form, LinearForm, check_partition, parse, render
from .powersum import binary_waring_rank

SCHEMA = "wildforms-cli/1"


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    src = shared.add_argument_group("input")
    src.add_argument("--poly", help="polynomial text, e.g. 'x^2*y + y^3'")
    src.add_argument("--file", help="path of a file holding polynomial text")
    src.add_argument("--family",
                     help="family spec, e.g. ikeda or exceptional(3,5)")
    src.add_argument("--vars", help="comma separated variables for --poly/--file")
    src.add_argument("--partition",
                     help="variable partition like 'X=x,y;U=u,v'")
    shared.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--rank-trials", type=int, default=8)
    shared.add_argument("--max-symbolic-dim", type=int, default=12)
    shared.add_argument("--strict", action="store_true",
                        help="refuse instead of degrading to sampled evidence")
    shared.add_argument("--deterministic", action="store_true",
                        help="suppress wall clock fields in the output")

    parser = argparse.ArgumentParser(
        prog="wildforms",
        description="exact apolarity, Hessian, and Waring bound toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[shared],
                   help="Hilbert facts plus a wild certificate")
    sub.add_parser("hilbert", parents=[shared],
                   help="Hilbert function, symmetry, unimodality")
    p = sub.add_parser("hessian", parents=[shared],
                       help="generic rank of a mixed Hessian slice")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int)
    p = sub.add_parser("lefschetz", parents=[shared],
                       help="weak or strong Lefschetz property")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wlp", action="store_true")
    group.add_argument("--slp", action="store_true")
    p.add_argument("--element",
                   help="comma separated coefficients of one linear element")
    sub.add_parser("binary-rank", parents=[shared],
                   help="Waring rank of a binary form")
    sub.add_parser("bounds", parents=[shared],
                   help="border and cactus bounds with a wildness verdict")
    p = sub.add_parser("family", parents=[shared],
                       help="list families or evaluate formula-only bounds")
    p.add_argument("--list", action="store_true", dest="list_families")
    p.add_argument("--formula",
                   help="formula spec: power-family-large(d) or "
                        "gn-quartic-formula(s[,e])")
    return parser


def _parse_partition(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    blocks = [b for b in text.split(";") if b.strip()]
    if len(blocks) != 2:
        raise ValueError("partition needs two blocks like 'X=x,y;U=u,v'")
    sides = []
    for block in blocks:
        if "=" not in block:
            raise ValueError(f"partition block {block!r} lacks '='")
        _, _, csv = block.partition("=")
        names = tuple(v.strip() for v in csv.split(",") if v.strip())
        if not names:
            raise ValueError(f"partition block {block!r} names no variables")
        sides.append(names)
    return sides[0], sides[1]


def _resolve_input(args) -> tuple[Form, CertificateStrategy]:
    policy = RankPolicy(seed=args.seed, trials=args.rank_trials,
                        max_symbolic_dim=args.max_symbolic_dim,
                        strict=args.strict)
    sources = [s for s in (args.poly, args.file, args.family) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --poly, --file, --family")
    if args.family:
        result = build(args.family, seed=args.seed)
        strategy = result.strategy
        strategy.policy = policy
        f = result.form
    else:
        text = args.poly
        if args.file:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        if not args.vars:
            raise ValueError("--vars is required with --poly/--file")
        variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        f = parse(text, variables)
        if f is None:
            raise ValueError("the polynomial is zero; nothing to analyze")
        strategy = CertificateStrategy(policy=policy)
    if args.partition:
        x_vars, u_vars = _parse_partition(args.partition)
        check_partition(f.variables, x_vars, u_vars)
        strategy.x_vars = x_vars
        strategy.u_vars = u_vars
    return f, strategy


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _hilbert_payload(f: Form) -> tuple[dict, list[str]]:
    hf = hilbert(f)
    k = conciseness(f)
    payload = {"hilbert": list(hf), "symmetric": hf.is_symmetric,
               "unimodal": hf.is_unimodal, "conciseness": k}
    lines = ["hilbert: " + " ".join(str(a) for a in hf),
             f"symmetric: {hf.is_symmetric}",
             f"unimodal: {hf.is_unimodal}",
             f"conciseness: {k}"]
    return payload, lines


def _summarize_certificate(cert: dict) -> list[str]:
    lines = [f"form: {cert['form']}", f"degree: {cert['degree']}",
             "hilbert: " + " ".join(str(a) for a in cert["hilbert"]),
             f"conciseness: {cert['conciseness']}"]
    border = cert["border"]
    if border is None:
        lines.append("border: no certified upper bound")
    else:
        lines.append(f"border: <= {border['value']} ({border['method']})")
    cactus = cert["cactus"]
    if cactus is None:
        lines.append("cactus: no certified lower bound")
    else:
        how = cactus["evidence"].get("method",
                                     cactus["evidence"].get("criterion"))
        lines.append(f"cactus: > {cactus['value']} ({cactus['route']}, {how})")
    lines.append(f"verdict: {cert['verdict']}")
    for reason in cert["reasons"]:
        lines.append(f"reason: {reason}")
    for note in cert["notes"]:
        lines.append(f"note: {note}")
    return lines


def _cmd_certificate(args) -> int:
    """analyze and bounds: the wild certificate; analyze adds the Hilbert facts."""
    f, strategy = _resolve_input(args)
    started = time.monotonic()
    cert = wild_certificate(f, strategy)
    payload = {"schema": SCHEMA, "command": args.command, "certificate": cert}
    lines = _summarize_certificate(cert)
    if args.command == "analyze":
        hf_payload, _ = _hilbert_payload(f)
        payload.update(hf_payload)
        lines.insert(3, f"symmetric: {hf_payload['symmetric']}, "
                        f"unimodal: {hf_payload['unimodal']}")
    if not args.deterministic:
        payload["elapsed_seconds"] = round(time.monotonic() - started, 3)
        lines.append(f"elapsed: {payload['elapsed_seconds']}s")
    _emit(args, payload, lines)
    return 0


def _cmd_hilbert(args) -> int:
    f, _ = _resolve_input(args)
    payload, lines = _hilbert_payload(f)
    payload = {"schema": SCHEMA, "command": "hilbert", "form": render(f),
               **payload}
    _emit(args, payload, lines)
    return 0


def _cmd_hessian(args) -> int:
    f, strategy = _resolve_input(args)
    k = args.k
    l = args.l if args.l is not None else k
    hess = mixed_hessian(f, k, l)
    report = generic_rank(hess, strategy.policy)
    payload = {"schema": SCHEMA, "command": "hessian", "k": k, "l": l,
               "rank": report.to_dict()}
    lines = [f"Hess^({k},{l}): {hess.nrows} x {hess.ncols}",
             f"generic rank: {report.value} ({report.certainty}, "
             f"{report.method})",
             f"degenerate: {report.degenerate}"]
    if k == l and hess.nrows <= strategy.policy.max_symbolic_dim:
        det = hessian_determinant(f, k, strategy.policy)
        payload["determinant_vanishes"] = det is None
        lines.append(f"hess^{k} vanishes identically: {det is None}")
    _emit(args, payload, lines)
    return 0


def _cmd_lefschetz(args) -> int:
    f, strategy = _resolve_input(args)
    prop = "wlp" if args.wlp else "slp"
    if args.element:
        try:
            coeffs = tuple(Fraction(tok.strip())
                           for tok in args.element.split(","))
        except ZeroDivisionError:
            raise ValueError(f"--element {args.element!r} divides by zero") from None
        if len(coeffs) != f.nvars:
            raise ValueError(f"the element needs {f.nvars} coefficients")
        report = lefschetz_check(f, LinearForm(f.variables, coeffs), prop)
    else:
        report = lefschetz_property(f, prop, strategy.policy)
    payload = {"schema": SCHEMA, "command": "lefschetz",
               "report": report.to_dict()}
    lines = [f"property: {prop}", f"verdict: {report.verdict}"]
    if report.element is not None:
        lines.append("element: "
                     + ", ".join(str(c) for c in report.element.coefficients))
    for check in report.checks:
        lines.append(f"map A_{check['source']} -> A_{check['target']}: "
                     f"rank {check['achieved']} of {check['required']}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(args, payload, lines)
    return 0


def _cmd_binary_rank(args) -> int:
    f, _ = _resolve_input(args)
    value = binary_waring_rank(f)
    payload = {"schema": SCHEMA, "command": "binary-rank",
               "form": render(f), "rank": value}
    _emit(args, payload, [f"rank: {value}"])
    return 0


def _cmd_family(args) -> int:
    if args.list_families == bool(args.formula):
        raise ValueError("family needs exactly one of --list or --formula")
    if args.list_families:
        rows = family_info()
        payload = {"schema": SCHEMA, "command": "family", "families": rows}
        lines = []
        for row in rows:
            arity = ("formula-only" if not row["buildable"]
                     else f"{row['parameters']} parameter(s)")
            lines.append(f"{row['name']}: {row['description']} [{arity}]")
        _emit(args, payload, lines)
        return 0
    name, result = evaluate_formula(args.formula)
    payload = {"schema": SCHEMA, "command": "family", "formula": name,
               "bounds": result}
    lines = [f"{key}: {value}" for key, value in result.items()]
    _emit(args, payload, lines)
    return 0


_COMMANDS = {
    "analyze": _cmd_certificate,
    "hilbert": _cmd_hilbert,
    "hessian": _cmd_hessian,
    "lefschetz": _cmd_lefschetz,
    "binary-rank": _cmd_binary_rank,
    "bounds": _cmd_certificate,
    "family": _cmd_family,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
