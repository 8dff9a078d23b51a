"""The benchmark's workloads: which gfp commands each one runs, and how
each command's output is checked.

A command's operations are the units its output can get wrong: grid points
for `table`, identity reports for `verify`, terms for `term`.  A check
returns how many of them failed.  A child that exits nonzero, is killed or
times out fails every operation of its command.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

# --- tables -----------------------------------------------------------------

TABLE_MAX_INDEX = 32
TABLE_ROWS = 6  # the six classical families, one row each


def check_table(stdout: str, which: int, max_index: int) -> int:
    """Failed grid points of one `gfp table --json` run.

    Each of the six rows must cover max_index**2 points, all agreeing with
    the oracle; a missing or malformed row fails all of its points.
    """
    points = max_index * max_index
    failed = TABLE_ROWS * points
    seen: set[str] = set()
    for line in stdout.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not isinstance(row, dict) or len(seen) == TABLE_ROWS:
            continue
        name, agree, cases = row.get("row"), row.get("agree"), row.get("cases")
        if (row.get("table") != which or row.get("max_index") != max_index
                or row.get("total") != points or name in seen
                or not isinstance(agree, int) or not 0 <= agree <= points
                or not isinstance(cases, dict) or sum(cases.values()) != points):
            continue
        if which == 4:
            ones = row.get("unequal_e2_equal_one")
            if not (isinstance(ones, list) and len(ones) == 2 and ones[0] == ones[1]):
                continue
        seen.add(name)
        failed -= agree
    return failed


# --- verify -----------------------------------------------------------------

VERIFY_MAX_INDEX = 14
VERIFY_PAIRS = 7  # `--families builtin`: the seven built-in equivalent pairs


def expected_reports(max_index: int) -> dict[str, int]:
    """Reports `gfp verify` yields per family pair, by identity group.

    Counted from the index grids each group sweeps; the counts depend on
    max_index only, not on the families.
    """
    r = range(max_index + 1)
    pos = range(1, max_index + 1)
    cap = max(4, 2 * max_index)
    pow2 = sum(cap // 2 ** n for n in range(2, cap.bit_length()) if 2 ** n <= cap)
    return {
        "convolution": len(r) ** 2,
        "addition": 2 * sum(1 for m in r for n in r if n >= m),
        "addition-cross": sum(1 for m in r for n in r if n >= m),
        "discriminant": 2 * len(r) ** 2,
        "lucas-addition": sum(1 for m in r for n in r if n >= m),
        "dic2-decompose": sum(min(m, max_index + 1) for m in pos for _ in pos),
        "dic2-pow2": pow2,
        "divides-iff": len(pos) ** 2,
        "odd-divisor": sum(1 for m in pos for q in range(1, m + 1, 2) if m % q == 0),
        "neighbor-gcd": 2 * sum(1 for m in pos for n in (m + 1, m + 2) if n <= max_index),
        "mixed-shift": sum(2 if m != n else 1 for m in pos for n in pos),
    }


_GROUP_LINE = re.compile(r"^(\S+): (\d+) passed, (\d+) failed$")


def check_verify(stdout: str, pairs: int, max_index: int) -> int:
    """Failed identity reports of one text-mode `gfp verify` run.

    Every group must report exactly pairs * expected reports, none failed,
    and the total line must add up; a group that is missing or miscounted
    fails all of its reports.
    """
    expected = {g: pairs * n for g, n in expected_reports(max_index).items()}
    counts: dict[str, tuple[int, int]] = {}
    for line in stdout.splitlines():
        match = _GROUP_LINE.match(line)
        if match:
            counts[match[1]] = (int(match[2]), int(match[3]))
    group_counts = [counts.get(g, (0, 0)) for g in expected]
    total = counts.get("total")
    if total != tuple(map(sum, zip(*group_counts))):
        return sum(expected.values())
    failed = 0
    for (passed, bad), want in zip(group_counts, expected.values()):
        failed += bad if passed + bad == want else want
    return failed


# --- deep terms -------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFamily:
    """A Fibonacci-type family (G0 = 0, G1 = 1) specialised at integer x."""

    name: str
    d: Callable[[int], int]
    g: Callable[[int], int]

    def term_at(self, n: int, x: int) -> int:
        d, g = self.d(x), self.g(x)
        cur, nxt = 0, 1
        for _ in range(n):
            cur, nxt = nxt, d * nxt + g * cur
        return cur


DEEP_TERMS = (
    (ScalarFamily("fibonacci", lambda x: x, lambda x: 1), 3000),
    (ScalarFamily("fermat", lambda x: 3 * x, lambda x: -2), 1500),
)
EVAL_POINTS = (1, 2)

_MONOMIAL = re.compile(r"(\d*)(x(?:\^(\d+))?)?")


def eval_poly_text(text: str, points: tuple[int, ...]) -> tuple[int, ...] | None:
    """Evaluate printed polynomial text ("3x^2 - x + 4") at integer points.

    Independent of the package: returns None for text that does not parse.
    """
    tokens = text.split(" ")
    if not tokens or not tokens[0]:
        return None
    first = tokens[0]
    signs_terms = [("-" if first.startswith("-") else "+", first.lstrip("-"))]
    if len(tokens) % 2 == 0:
        return None
    signs_terms += list(zip(tokens[1::2], tokens[2::2]))
    sums = [0] * len(points)
    for sign, term in signs_terms:
        match = _MONOMIAL.fullmatch(term)
        if sign not in "+-" or not term or match is None:
            return None
        digits, var, exp = match.groups()
        if not digits and not var:
            return None
        coeff = int(digits) if digits else 1
        if sign == "-":
            coeff = -coeff
        power = 0 if var is None else int(exp) if exp else 1
        for i, x in enumerate(points):
            sums[i] += coeff * x ** power
    return tuple(sums)


def check_term(stdout: str, expected: tuple[int, ...]) -> int:
    """1 when the printed term's values at EVAL_POINTS differ from expected."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return 1
    return int(eval_poly_text(lines[0], EVAL_POINTS) != expected)


# --- the workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]         # gfp arguments
    ops: int                      # operations the output is checked on
    check: Callable[[str], int]   # stdout -> failed operations


WORKLOADS = ("paper", "deep-term")


def commands(workload: str) -> tuple[Command, ...]:
    """The gfp commands of one repetition of a workload."""
    if workload == "paper":
        n, m = TABLE_MAX_INDEX, VERIFY_MAX_INDEX
        tables = [Command(("table", str(which), "--max-index", str(n), "--json"), TABLE_ROWS * n * n,
                          lambda out, which=which: check_table(out, which, n))
                  for which in (3, 4, 5)]
        verify = Command(("verify", "--max-index", str(m)), VERIFY_PAIRS * sum(expected_reports(m).values()),
                         lambda out: check_verify(out, VERIFY_PAIRS, m))
        return (*tables, verify)
    if workload == "deep-term":
        out = []
        for family, n in DEEP_TERMS:
            want = tuple(family.term_at(n, x) for x in EVAL_POINTS)
            out.append(Command(("term", family.name, str(n)), 1,
                               lambda text, want=want: check_term(text, want)))
        return tuple(out)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
