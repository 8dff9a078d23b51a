"""The CLI's exit contract on drawn argv, not on hand-picked inputs.

A small grammar draws each verb's arguments: built-in, missing and
case-changed family names, with blanks drawn around each; padded,
comma-joined and empty --families specs; random:K around 0; inline JSON
that is valid or broken in one place (a missing key, a float, a bool,
nesting, a non-ASCII digit, a huge integer, truncation); and indices at
-1, 0, 1, small values and one past each cap.  cli.main runs in process, and every draw must keep the
contract of the module docstring of gfpoly.cli:

- the exit status is 0, 1 or 2, and no traceback reaches stderr;
- status 2 prints nothing to stdout and either one `gfp:` line or
  argparse's usage error to stderr;
- status 0 with --json prints JSON (one object per line for the grid
  verbs, one document for families);
- a --families spec padded with whitespace prints what the trimmed spec
  prints;
- a family argument of term or gcd, or a name in a --families list,
  padded with whitespace gives the status and output of its trimmed form.

Accepted sizes stay small: no random:10000 and no index near a cap, whose
runs take minutes to hours.  Draws are derandomized, so every run tries
the same argv.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from gfpoly import cli
from gfpoly.families import BUILTIN
from gfpoly.identities import IDENTITY_GROUPS

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

# Each strategy draws an accepted value about half the time.
NAMES = st.one_of(
    st.sampled_from(sorted(BUILTIN)),
    st.one_of(st.sampled_from(sorted(BUILTIN)).map(str.upper), st.sampled_from(sorted(BUILTIN)).map(str.title),
              st.sampled_from(["", "nosuch", "fib", "builtin", "random:1"])),
)
PAD = st.sampled_from(["", " ", "  ", "\t"])


def padded(strategy: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(PAD, strategy, PAD).map("".join)


FIB_JSON = {"name": "j", "kind": "fibonacci", "d": ["0", "1"], "g": ["1"], "p0": [], "p1": ["1"]}
LUCAS_JSON = {"name": "jl", "kind": "lucas", "d": ["0", "1"], "g": ["1"], "p0": ["2"], "p1": ["0", "1"]}
HUGE = "9" * 5000  # past int <-> str's default cap of 4,300 digits
BAD_VALUES = [1.5, True, None, "x", {}, [[1]], ["1.5"], ["١"], [True], ["HUGE"], ["-" + HUGE],
              "fibonacci", "Lucas", 7]


@st.composite
def inline_json(draw) -> str:
    data = dict(draw(st.sampled_from([FIB_JSON, LUCAS_JSON])))
    change = draw(st.sampled_from(["none", "none", "none", "drop", "value", "truncate", "nest"]))
    key = draw(st.sampled_from(sorted(data)))
    if change == "drop":
        del data[key]
    elif change == "value":
        data[key] = draw(st.sampled_from(BAD_VALUES))
    elif change == "nest":
        return '{"name": ' + "[" * 5000 + "]" * 5000 + "}"
    text = json.dumps(data).replace('"HUGE"', HUGE)  # a bare integer
    if change == "truncate":
        text = text[:draw(st.integers(1, len(text) - 1))]
    return text


FAMILIES = st.one_of(NAMES, inline_json())


@st.composite
def specs(draw) -> str:
    """A --families spec: blanks may pad its names, but not the whole spec."""
    kind = draw(st.sampled_from(["builtin", "random", "names", "json", "empty"]))
    if kind == "builtin":
        return "builtin"
    if kind == "random":
        return "random:" + draw(st.sampled_from(["-1", "0", "1", "2", "", "x", " 1"]))
    if kind == "names":
        return ",".join(draw(st.lists(padded(NAMES), min_size=1, max_size=3)))
    if kind == "json":
        return draw(inline_json())
    return draw(st.sampled_from(["", ",", " , "]))


# The largest --max-index that verify accepts: dic2-decompose walks to L[k*k + k - 1].
VERIFY_CAP = max(k for k in range(math.isqrt(cli.MAX_TERM_INDEX) + 1) if k * k + k - 1 <= cli.MAX_TERM_INDEX)


def index(cap: int, low: int = 0) -> st.SearchStrategy[str]:
    return st.one_of(st.integers(low, 3).map(str), st.sampled_from([str(low - 1), str(cap + 1), "x", "1.5"]))


JSON_FLAG = st.sampled_from([[], ["--json"]])


@st.composite
def argvs(draw) -> list[str]:
    verb = draw(st.sampled_from(["families", "term", "gcd", "verify", "table"]))
    if verb == "families":
        argv = ["families", *draw(st.sampled_from([[], ["--kind", "lucas"], ["--kind", "Lucas"]]))]
    elif verb == "term":
        argv = ["term", draw(padded(FAMILIES)), draw(index(cli.MAX_TERM_INDEX))]
    elif verb == "gcd":
        argv = ["gcd", draw(padded(FAMILIES)), draw(index(cli.MAX_TERM_INDEX)), draw(padded(FAMILIES)),
                draw(index(cli.MAX_TERM_INDEX)), *draw(st.sampled_from([[], ["--check"]]))]
    elif verb == "verify":
        identity = draw(st.one_of(st.sampled_from([*IDENTITY_GROUPS, "all"]),
                                  st.sampled_from(["nosuch", "Convolution", ""])))
        argv = ["verify", "--identity", identity, "--families", draw(PAD) + draw(specs()) + draw(PAD),
                "--max-index", draw(index(VERIFY_CAP, 1)), "--seed", draw(st.sampled_from(["0", "-1", "7"]))]
    else:
        argv = ["table", draw(st.sampled_from(["3", "4", "5", "6"])), "--max-index",
                draw(index(cli.MAX_TABLE_INDEX, 1))]
    return argv + draw(JSON_FLAG)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
    return status, out.getvalue(), err.getvalue()


@SETTINGS
@given(argv=argvs())
def test_every_argv_keeps_the_exit_contract(argv):
    status, out, err = run(argv)
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in err
    if status == 2:
        assert out == ""
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            assert lines[-1].startswith("gfp ") and ": error: " in lines[-1], err
        else:
            assert len(lines) == 1 and lines[0].startswith("gfp: "), err
    elif status == 0 and "--json" in argv:
        if argv[0] == "families":
            json.loads(out)
        else:
            for line in out.splitlines():
                json.loads(line)


@settings(SETTINGS, max_examples=40)
@given(identity=st.sampled_from(IDENTITY_GROUPS), spec=specs(), left=PAD, right=PAD,
       k=st.integers(1, 3), flags=JSON_FLAG)
def test_a_padded_spec_prints_what_its_trimmed_spec_prints(identity, spec, left, right, k, flags):
    argv = ["verify", "--identity", identity, "--max-index", str(k), *flags, "--families"]
    trimmed = spec.strip()
    assert run(argv + [left + trimmed + right]) == run(argv + [trimmed])


@st.composite
def family_argvs(draw) -> tuple[list[str], list[str]]:
    """An argv of term, gcd or verify over a list of names, with its family
    arguments trimmed, and the same argv with blanks drawn around each."""
    verb = draw(st.sampled_from(["term", "gcd", "verify"]))
    if verb == "verify":
        names = draw(st.lists(NAMES, min_size=1, max_size=3))
    else:
        names = [draw(FAMILIES) for _ in range(2 if verb == "gcd" else 1)]
    names = [name.strip() for name in names]  # a truncated inline JSON can end in a blank
    pads = [(draw(PAD), draw(PAD)) for _ in names]

    def argv(families: list[str]) -> list[str]:
        if verb == "term":
            return ["term", families[0], "3"]
        if verb == "gcd":
            return ["gcd", families[0], "3", families[1], "6", "--check"]
        return ["verify", "--identity", "addition", "--max-index", "2", "--families", ",".join(families)]

    return argv(names), argv([left + name + right for name, (left, right) in zip(names, pads)])


@settings(SETTINGS, max_examples=60)
@given(argvs=family_argvs(), flags=JSON_FLAG)
def test_a_padded_family_argument_acts_as_its_trimmed_form(argvs, flags):
    trimmed, padded_argv = argvs
    assert run(padded_argv + flags) == run(trimmed + flags)
