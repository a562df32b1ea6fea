"""Command-line front-end: expansions, verification suites, and tables.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error (bad flags, incompatible method/relation, unreadable or
malformed input).
All randomized suites take an explicit seed so output is reproducible
byte for byte.  The ``verify`` and ``hermite`` commands import
:mod:`ncbinom.verify` when they run, so the other commands never load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import SUITES
from .binomial import (
    EXPAND_METHODS,
    exp_defect,
    expansion_report,
    gamma_factors,
    weyl_m_text,
)
from .rewrite import BudgetExceededError, InvalidSystemError
from .scalars import factorial


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":")))


def _cmd_expand(args) -> int:
    report = expansion_report(args.n, args.method, args.relation)
    if args.format == "json":
        _print_json(report.to_json())
    else:
        if args.method == "closed_weyl":
            body = f"M-basis: {weyl_m_text(args.n)}"
        else:
            body = report.result.text()
        flag = "true" if report.oracle_match else "false"
        print(f"{body} | oracle_match: {flag}")
    return 0 if report.oracle_match else 1


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, args.max_n, args.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    if passed == len(results):
        return 0
    first = next(
        (r.counterexample for r in results if not r.passed and r.counterexample),
        None,
    )
    if first is not None:
        _print_json(first)
    return 1


def _cmd_hermite(args) -> int:
    from .verify import hermite_paths

    values, disagreement = hermite_paths(args.n)
    if disagreement is not None:
        print(f"error: generation paths disagree at n={disagreement['n']}", file=sys.stderr)
        return 1
    for value in values:
        if args.format == "json":
            _print_json(value.to_json())
        else:
            print(value.text())
    return 0


def _cmd_gamma(args) -> int:
    ok = True
    for k, value in enumerate(gamma_factors(args.n)):
        at_zero = value.evaluate({"h": 0})
        at_one = value.evaluate({"h": 1})
        print(f"gamma_{k} = {value.text()} | h=0: {at_zero} | h=1: {at_one}")
        ok = ok and at_zero == 1 and at_one == factorial(k)
    if not ok:
        print("error: gamma checkpoint values do not match", file=sys.stderr)
        return 1
    return 0


def _cmd_exp_check(args) -> int:
    ok = True
    for which in ("factored", "split"):
        defect = exp_defect(which, args.order)
        if defect.is_zero():
            print(f"PASS {which}: defect 0 through total degree {args.order}")
        else:
            ok = False
            print(f"FAIL {which}: defect {defect.text()}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncbinom",
        description="Exact non-commutative binomial expansions, closed forms, "
        "and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser(
        "expand", help="run one expansion method against the brute-force oracle"
    )
    expand.add_argument("--n", type=int, required=True, help="expansion order")
    expand.add_argument(
        "--method", choices=EXPAND_METHODS, required=True,
        help="expansion engine; closed_hsq/closed_weyl imply their relation",
    )
    expand.add_argument(
        "--relation",
        help="relation family (commutative, hsq, weyl) or a JSON system file",
    )
    expand.add_argument("--format", choices=("text", "json"), default="text")
    expand.set_defaults(handler=_cmd_expand)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    verify.add_argument(
        "--max-n", dest="max_n", type=int, default=None,
        help="replace every range cap in the suite (default: documented ranges)",
    )
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized checks")
    verify.set_defaults(handler=_cmd_verify)

    hermite_cmd = sub.add_parser(
        "hermite", help="print He_0..He_n, cross-checked over three paths"
    )
    hermite_cmd.add_argument("--n", type=int, required=True)
    hermite_cmd.add_argument("--format", choices=("text", "json"), default="text")
    hermite_cmd.set_defaults(handler=_cmd_hermite)

    gamma_cmd = sub.add_parser(
        "gamma", help="print gamma_0..gamma_n with values at h=0 and h=1"
    )
    gamma_cmd.add_argument("--n", type=int, required=True)
    gamma_cmd.set_defaults(handler=_cmd_gamma)

    exp_check = sub.add_parser(
        "exp-check", help="check both truncated exponential factorizations"
    )
    exp_check.add_argument("--order", type=int, default=6,
                           help="truncation degree (default 6)")
    exp_check.set_defaults(handler=_cmd_exp_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on first use and never handed out."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidSystemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
