"""Mutation sampler: does some test fail when one operator of a module changes?

    python tools/mutants.py MODULE [--sample N] [--list]

MODULE is a module of src/gfpoly, such as cli.  A mutant makes one AST edit
at one site: it flips a comparison (< and <=, > and >=, == and !=, is and
is not, in and not in), swaps + and -, swaps * and //, swaps `and` and
`or`, adds 1 to an int literal, or drops a `not`.  The mutated module is
written with ast.unparse into a temporary copy of src/, tests/, tools/,
pyproject.toml and README.md, whose examples tests/test_docs.py runs,
and tests/test_MODULE.py runs with -x.  A mutant that survives runs again
against all of tests/.  The unmutated copy must pass both first, and
those two runs are timed.  One child runs at a time,
under a 2 GiB address-space limit and a timeout of SLOWDOWN times the
unmutated run of the same tests; a timeout counts as a kill.  Each
child runs in a session of its own, and its whole process group is
killed when it ends, so no gfp command that a test started outlives it.
SIGTERM ends the tool the same way and removes the temporary copy.

Every site is tried unless --sample N picks N of them, with the fixed
seed SEED, so a sample is the same on every run.  Sites listed in
EQUIVALENT are skipped: no test can tell those mutants from the
original.  A key of MODULE that names none of its sites stops the tool
with a message before it lists or runs anything.  The exit status is 1
when a mutant survives all of tests/, else 0.  This is not part of the
test suite: a mutant takes from 1 s to a minute.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 2 << 30
SEED = 1
SLOWDOWN = 5

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.And: ast.Or, ast.Or: ast.And}

# Mutants that no test can kill, each as (module, source line without its
# comment, edit, n): the one after n earlier sites with the same line and
# edit, in the order --list prints, which also shows n.
EQUIVALENT = {
    # No k has k*k + k - 1 = MAX_TERM_INDEX, and k*k + k - 2 or + 1 cross
    # 10,000 between the same k = 99 and k = 100.
    ("cli", "if k * k + k - 1 > MAX_TERM_INDEX:", "Gt -> GtE", 0),
    ("cli", "if k * k + k - 1 > MAX_TERM_INDEX:", "Sub -> Add", 0),
    ("cli", "if k * k + k - 1 > MAX_TERM_INDEX:", "1 -> 2", 0),
    # A spec of names draws no random pair, so its seed is unused.
    ("cli", 'for fib, lucas in _verify_pairs(",".join(TABLE_ROWS), 0):', "0 -> 1", 0),
    # d^2 + g and d^2 - g have the same parity, coefficient by coefficient.
    ("gcd_theorems", "odd = any(c % 2 for c in (family.d * family.d - family.g).coeffs)", "Sub -> Add", 0),
    # RETAINED sets how many terms a cache keeps, not what any term is.
    ("families", "RETAINED = 256", "256 -> 257", 0),
    # step's store-in-place path only skips adding into zeros: two more
    # zeros at the top, which Poly trims, or a row added into a stretch
    # still all zeros give the same sum.
    ("families", "out = [0] * (max(len(d) + len(t1), len(g) + len(t0)) - 1)", "Sub -> Add", 0),
    ("families", "unwritten = 0", "0 -> 1", 0),
    ("families", "if i >= unwritten:", "GtE -> Gt", 0),
    # 4 and 5 have the same bit length and the same quotient by 2^2, so
    # the dic2-pow2 sweep visits the same (n, r) at every k.
    ("identities", "cap = max(4, 2 * k)", "4 -> 5", 0),
    # Two more zeros at the top of the sum, which _remultiplies trims before
    # it compares.
    ("identities", "out = [0] * max(len(w) + divisor[-1][0], len(p) + len(l) - 1)", "Sub -> Add", 0),
    # m + 2 in place of m + 1 adds at most q = m + 1, which never divides m.
    ("identities", "for q in range(1, m + 1, 2):", "1 -> 2", 1),
    # sign is 1 or -1, and floor division by it is multiplication by it.
    ("identities", "kick = power * -(alpha * sign)", "Mult -> FloorDiv", 1),
    # An equal-length sum with its operands swapped, or a sign test that
    # counts 0 on the other side: the leads and coefficients tested are
    # never 0, and normalized's only lead of 0 is the zero polynomial's,
    # whose negation is itself.
    ("polyring", "if len(a) < len(b):", "Lt -> LtE", 0),
    ("polyring", "if p.coeffs[-1] < 0:", "Lt -> LtE", 0),
    ("polyring", "if p.coeffs[-1] < 0:", "0 -> 1", 0),
    ("polyring", "if self.leading > 0:", "Gt -> GtE", 0),
    ("polyring", 'parts.append(("-" if c < 0 else "+", body))', "Lt -> LtE", 0),
    ("polyring", 'parts.append(("-" if c < 0 else "+", body))', "0 -> 1", 0),
    # Longer buffers: the extra zeros at the top are trimmed by Poly.
    ("polyring", "out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)", "Sub -> Add", 0),
    ("polyring", "quo = [0] * (dn - dd + 1)", "Sub -> Add", 0),
    ("polyring", "quo = [0] * (dn - dd + 1)", "1 -> 2", 0),
    # The growth factor sets only how fast xi grows: every answer is still
    # proved, and the xi of TestGcdRetries keep their bit lengths.
    ("polyring", "xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011", "73794 -> 73795", 0),
    # poly_gcd_z's constant-operand branch is a speed path: GCDHEU returns
    # ONE for a constant primitive part too, at its first xi.
    ("polyring", "if len(p.coeffs) == 1 or len(q.coeffs) == 1:", "Or -> And", 0),
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """(node, index of the comparison operator or None, edit), in walk order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out += [(node, k, f"{type(op).__name__} -> {FLIP[type(op)].__name__}")
                    for k, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in FLIP:
            out.append((node, None, f"{type(node.op).__name__} -> {FLIP[type(node.op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, None, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, None, "drop not"))
    return out


class DropNot(ast.NodeTransformer):
    """Replaces one `not x` node by x."""

    def __init__(self, target: ast.UnaryOp):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant(source: str, index: int) -> str:
    """source with the edit of site index applied, written by ast.unparse."""
    tree = ast.parse(source)
    node, k, edit = sites(tree)[index]
    if k is not None:
        node.ops[k] = FLIP[type(node.ops[k])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif edit == "drop not":
        tree = DropNot(node).visit(tree)
    else:
        node.op = FLIP[type(node.op)]()
    return ast.unparse(tree)


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def killed(copy: Path, tests: str, timeout: float | None) -> bool:
    """Whether pytest -x over tests fails (or times out) in the copy.

    Whatever the outcome, every process left in pytest's group is killed."""
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests],
        cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=limit_address_space, start_new_session=True)
    try:
        return child.wait(timeout) != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through killed and the temporary copy


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("--sample", type=int, help="try N sites, not all")
    parser.add_argument("--list", action="store_true", help="list the sites and stop")
    args = parser.parse_args(argv)
    source = (ROOT / "src" / "gfpoly" / f"{args.module}.py").read_text()
    lines = [line.split("#")[0].strip() for line in source.splitlines()]
    found = [(i, node.lineno, edit) for i, (node, _, edit) in enumerate(sites(ast.parse(source)))]
    keys = [(args.module, lines[lineno - 1], edit) for _, lineno, edit in found]
    keys = [(*key, keys[:i].count(key)) for i, key in enumerate(keys)]
    stale = [key for key in EQUIVALENT if key[0] == args.module and key not in keys]
    if stale:
        raise SystemExit(f"EQUIVALENT keys that name no site of {args.module}: {stale}")
    if args.list:
        for i, lineno, edit in found:
            print(f"{i:4} line {lineno:4}  {edit:16} {keys[i][3]}  {lines[lineno - 1]}")
        return 0
    if args.sample is not None:
        found = sorted(random.Random(SEED).sample(found, min(args.sample, len(found))))
    own_tests = f"tests/test_{args.module}.py"
    counts = {"killed": 0, "equivalent": 0, "killed by tests/": 0, "survived": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, copy)
        timeouts = {}
        for tests in (own_tests, "tests"):
            start = time.perf_counter()
            if killed(copy, tests, None):
                raise SystemExit(f"{tests} fail on the unmutated copy, so no mutant can be judged")
            timeouts[tests] = SLOWDOWN * (time.perf_counter() - start)
        path = copy / "src" / "gfpoly" / f"{args.module}.py"
        for i, lineno, edit in found:
            if keys[i] in EQUIVALENT:
                verdict = "equivalent"
            else:
                path.write_text(mutant(source, i))
                if killed(copy, own_tests, timeouts[own_tests]):
                    verdict = "killed"
                elif killed(copy, "tests", timeouts["tests"]):
                    verdict = "killed by tests/"
                else:
                    verdict = "survived"
                path.write_text(source)
            counts[verdict] += 1
            print(f"site {i} line {lineno} {edit}: {verdict}", flush=True)
    print(f"{args.module}: {len(found)} mutants, "
          + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
