"""Reads the text that str(Poly) prints, for tests.

A position scanner: a sign, a term matched at the position, then a
whitespace gap that must end in a sign.  The package has no parser; the
tests use this one to read printed terms back and to check that str is
injective.
"""

from __future__ import annotations

import re

from gfpoly.polyring import Poly

_REF_TERM_RE = re.compile(r"(\d+)?(x(?:\^(\d+))?)?")


def reference_parse(text: str) -> Poly:
    """The Poly whose str is text, up to whitespace; ValueError when none is."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    acc: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            while pos < len(s) and s[pos].isspace():
                pos += 1
        elif not first:
            raise ValueError(f"missing sign before {s[pos:]!r}")
        m = _REF_TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        num, xpart, exp = m.groups()
        coeff = sign * (int(num) if num is not None else 1)
        e = 0 if xpart is None else (1 if exp is None else int(exp))
        acc[e] = acc.get(e, 0) + coeff
        pos = m.end()
        first = False
        gap = pos
        while gap < len(s) and s[gap].isspace():
            gap += 1
        if gap > pos and gap < len(s) and s[gap] not in "+-":
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        pos = gap
    out = [0] * (max(acc) + 1)
    for e, c in acc.items():
        out[e] = c
    return Poly(out)
