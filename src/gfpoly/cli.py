"""Command line front end.

Verbs: families, term, gcd, verify, table.  Every verb takes --json for
machine-readable output; grid verbs emit JSON-lines, one object per line.
Exit status is 0 only when everything asked for passed, 1 when a check or
identity failed, and 2 for usage errors (unknown family, bad index, bad
inline JSON).  A reader that closes the output pipe early ends the run with
status 1 and no traceback.  Output is deterministic for identical
invocations, including fixed --seed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Iterable

from .families import (
    PARTNER,
    VALID,
    Family,
    Kind,
    UnknownFamilyError,
    builtin_family,
    clear_sequences,
    equivalent_family,
    random_pair,
    sequence,
)
from .gcd_theorems import GcdCase, closed_gcd, compare, iter_table, oracle_gcd
from .identities import IDENTITY_GROUPS, iter_reports
from .polyring import ONE

MAX_TERM_INDEX = 10_000
MAX_RANDOM_PAIRS = 10_000  # bounds verify's time; it draws the pairs again for each group
MAX_TABLE_INDEX = 64

# Rows of tables 3-5: the six classical pairs, by their Fibonacci-type member.
TABLE_ROWS = ("fibonacci", "pell", "fermat", "chebyshev2", "jacobsthal", "morgan-voyce-b")


class UsageError(ValueError):
    pass


def _resolve_family(text: str) -> Family:
    """A builtin name, or an inline JSON family definition."""
    if text.lstrip().startswith("{"):
        try:
            family = Family.from_json(json.loads(text))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise UsageError(f"bad family JSON: {exc}") from None
    else:
        try:
            family = builtin_family(text)
        except UnknownFamilyError as exc:
            raise UsageError(str(exc)) from None
    problems = family.violations()
    if problems:
        raise UsageError(f"family {family.name!r} is not valid: {'; '.join(problems)}")
    return family


def _check_index(n: int) -> int:
    if n < 0:
        raise UsageError("term index must be nonnegative")
    if n > MAX_TERM_INDEX:
        raise UsageError(f"term index {n} exceeds the cap of {MAX_TERM_INDEX}")
    return n


def cmd_families(args: argparse.Namespace) -> int:
    rows = VALID
    if args.kind:
        rows = [f for f in rows if f.kind is Kind(args.kind)]
    if args.json:
        out = []
        for f in rows:
            data = f.to_json()
            data["partner"] = PARTNER.get(f.name)
            out.append(data)
        print(json.dumps(out, indent=2))
        return 0
    name_w = max(len(f.name) for f in rows)
    for f in rows:
        partner = PARTNER.get(f.name, "-")
        print(f"{f.name:<{name_w}}  {f.kind.value:<9}  d={f.d}  g={f.g}  "
              f"p0={f.p0}  p1={f.p1}  partner={partner}")
    return 0


def cmd_term(args: argparse.Namespace) -> int:
    family = _resolve_family(args.family)
    n = _check_index(args.n)
    value = sequence(family).term(n)
    if args.json:
        print(json.dumps({"family": family.name, "n": n,
                          "coeffs": value.to_json(), "text": str(value)}))
    else:
        print(value)
    return 0


def cmd_gcd(args: argparse.Namespace) -> int:
    fa = _resolve_family(args.family_a)
    fb = _resolve_family(args.family_b)
    m, n = _check_index(args.m), _check_index(args.n)
    closed = closed_gcd(fa, fb, m, n)
    data: dict = {"family_a": fa.name, "family_b": fb.name, "m": m, "n": n,
                  "case_tag": None, "closed_form": None, "oracle": None, "agrees": None}
    status = 0
    if closed is None:
        value = oracle_gcd(fa, fb, m, n)
        data["oracle"] = value.to_json()
        lines = [f"oracle: {value}"]
    else:
        value, case = closed
        data["case_tag"] = case.value
        data["closed_form"] = value.to_json()
        lines = [f"closed form: {value}", f"case: {case.value}"]
        if args.check:
            report = compare(fa, fb, m, n, value, case)
            data.update(report.to_json())
            lines += [f"oracle: {report.oracle}", f"agrees: {str(report.agrees).lower()}"]
            if not report.agrees:
                status = 1
    print(json.dumps(data) if args.json else "\n".join(lines))
    return status


def _verify_pairs(spec: str, seed: int) -> Iterable[tuple[Family, Family]]:
    """Check a --families spec, then return its pairs; random:K draws them as they are read."""
    spec = spec.strip()
    if spec == "builtin":
        spec = ",".join(f.name for f in VALID)  # both halves of a pair complete to it, kept once
    if spec.startswith("random:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad family spec {spec!r}") from None
        if count < 1:
            raise UsageError("random family count must be positive")
        if count > MAX_RANDOM_PAIRS:
            raise UsageError(f"random family count {count} exceeds the cap of {MAX_RANDOM_PAIRS}")
        rng = random.Random(seed)
        return (random_pair(rng, f"random-{i:03d}") for i in range(count))
    # An inline family is one name: its JSON has commas of its own.
    names = [spec] if spec.startswith("{") else [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise UsageError("no families selected")
    pairs = []
    for name in names:
        family = _resolve_family(name)
        other = equivalent_family(family)
        pair = (family, other) if family.kind is Kind.FIBONACCI else (other, family)
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def cmd_verify(args: argparse.Namespace) -> int:
    if args.identity not in (*IDENTITY_GROUPS, "all"):
        raise UsageError(f"unknown identity {args.identity!r}; known: {', '.join(IDENTITY_GROUPS)}, all")
    groups = IDENTITY_GROUPS if args.identity == "all" else (args.identity,)
    k = args.max_index
    if k < 1:
        raise UsageError("--max-index must be positive")
    if k * k + k - 1 > MAX_TERM_INDEX:  # dic2-decompose walks to L[k*k + k - 1]
        raise UsageError(f"--max-index {k} needs term index {k * k + k - 1}, past the cap of {MAX_TERM_INDEX}")
    by_group: dict[str, list[int]] = {g: [0, 0] for g in groups}
    for group, tally in by_group.items():
        for fib, lucas in _verify_pairs(args.families, args.seed):  # the first call refuses a bad spec
            clear_sequences()  # hold one pair's terms at a time
            for report in iter_reports(group, fib, lucas, k):
                tally[0 if report.passed else 1] += 1
                if args.json:
                    print(json.dumps(report.to_json()))
    passed = sum(p for p, _ in by_group.values())
    failed = sum(f for _, f in by_group.values())
    summary = {"passed": passed, "failed": failed,
               "groups": {g: {"passed": p, "failed": f} for g, (p, f) in by_group.items()}}
    if args.json:
        print(json.dumps({"summary": summary}))
    else:
        for g, (p, f) in by_group.items():
            print(f"{g}: {p} passed, {f} failed")
        print(f"total: {passed} passed, {failed} failed")
    return 1 if failed else 0


def cmd_table(args: argparse.Namespace) -> int:
    if not 1 <= args.max_index <= MAX_TABLE_INDEX:
        raise UsageError(f"--max-index must be in 1..{MAX_TABLE_INDEX}")
    k = args.max_index
    status = 0
    for fib, lucas in _verify_pairs(",".join(TABLE_ROWS), 0):
        fa, fb = {3: (fib, fib), 4: (lucas, lucas), 5: (fib, lucas)}[args.which]
        agree = ones_seen = 0
        cases: dict[str, int] = {}
        for report in iter_table(fa, fb, k):
            ok = report.agrees
            if report.case is GcdCase.LUCAS_UNEQUAL_E2:  # table 4 claims the value 1 there
                ones_seen += report.closed_form == ONE
                ok = ok and report.closed_form == ONE
            agree += ok
            cases[report.case.value] = cases.get(report.case.value, 0) + 1
        label = fa.name if fa is fb else f"{fa.name}/{fb.name}"
        row = {"table": args.which, "row": label, "max_index": k,
               "agree": agree, "total": k * k, "cases": cases}
        if args.which == 4:
            row["unequal_e2_equal_one"] = [ones_seen, cases.get(GcdCase.LUCAS_UNEQUAL_E2.value, 0)]
        if agree != k * k:
            status = 1
        if args.json:
            print(json.dumps(row))
        else:
            case_text = ", ".join(f"{key}={v}" for key, v in sorted(cases.items()))
            extra = ", unequal-E2 gcd=1: {}/{}".format(*row["unequal_e2_equal_one"]) if args.which == 4 else ""
            print(f"table {args.which} | {label}: {agree}/{k * k} agree ({case_text}{extra})")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfp",
        description="Generalized Fibonacci polynomial sequences: terms, closed-form gcds, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list the built-in family registry")
    p.add_argument("--kind", choices=[k.value for k in Kind])
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("term", help="print one term of a family")
    p.add_argument("family", help="builtin name or inline JSON definition")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_term)

    p = sub.add_parser("gcd", help="gcd of two terms, closed form when one applies")
    p.add_argument("family_a")
    p.add_argument("m", type=int)
    p.add_argument("family_b")
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true", help="also run the brute-force oracle and compare")
    p.set_defaults(func=cmd_gcd)

    p = sub.add_parser("verify", help="sweep identity checks over family grids")
    p.add_argument("--identity", default="all", help=f"one of: {', '.join(IDENTITY_GROUPS)}, all")
    p.add_argument("--families", default="builtin",
                   help="'builtin', 'random:K', comma-separated names, or one inline JSON family")
    p.add_argument("--max-index", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reproduce a gcd grid table against the oracle")
    p.add_argument("which", type=int, choices=(3, 4, 5))
    p.add_argument("--max-index", type=int, default=24)
    p.set_defaults(func=cmd_table)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # CPython >= 3.10.7 caps int <-> str at 4,300 digits
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gfp: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`gfp ... | head`).  Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
