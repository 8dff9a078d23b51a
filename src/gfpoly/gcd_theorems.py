"""Closed forms for gcds of generalized Fibonacci polynomial terms.

Fibonacci-type families are strong divisibility sequences:

    gcd(F[m], F[n]) = F[gcd(m, n)]

and that property characterizes the Fibonacci-type initial values.  For a
Lucas-type family the answer depends on the 2-adic valuations of the
indices: it is L[gcd(m, n)] when they agree and gcd(L[gcd(m, n)], p0),
which is 1 or 2, when they differ.  For a mixed pair over the same (d, g)
the Lucas term wins exactly when the Fibonacci-side index carries strictly
more factors of two.  That 'otherwise' value follows from the parity of
d, g and p0 alone (see min_even_index), so no closed form takes a gcd.
closed_gcd picks the theorem that applies to two families, if any.  Every
closed form is checked against oracle_gcd, a brute-force Z[x] gcd of the
actual terms.
"""

from __future__ import annotations

import enum
import math
from itertools import product
from typing import Iterator, NamedTuple

from . import polyring
from .families import Family, Kind, require_kind, require_pair, require_positive, sequence
from .polyring import ONE, Poly

__all__ = [
    "GcdCase",
    "GcdReport",
    "closed_gcd",
    "compare",
    "gcd_fib_closed",
    "gcd_lucas_closed",
    "gcd_mixed_closed",
    "gcd_with_initial",
    "min_even_index",
    "oracle_gcd",
    "two_adic_valuation",
]


class GcdCase(enum.Enum):
    FIB_STRONG = "FibStrong"
    LUCAS_EQUAL_E2 = "LucasEqualE2"
    LUCAS_UNEQUAL_E2 = "LucasUnequalE2"
    MIXED_DOMINANT = "MixedDominant"
    MIXED_OTHERWISE = "MixedOtherwise"


class GcdReport(NamedTuple):
    m: int
    n: int
    closed_form: Poly
    oracle: Poly
    agrees: bool
    case: GcdCase

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "case_tag": self.case.value,
            "closed_form": self.closed_form.to_json(),
            "oracle": self.oracle.to_json(),
            "agrees": self.agrees,
        }


def two_adic_valuation(n: int) -> int:
    """Largest k with 2**k dividing n.  Defined for positive n only.

    >>> [two_adic_valuation(n) for n in (1, 2, 12, 96)]
    [0, 1, 2, 5]
    """
    if n < 1:
        raise ValueError("two_adic_valuation needs a positive integer")
    return (n & -n).bit_length() - 1


def gcd_fib_closed(family: Family, m: int, n: int) -> Poly:
    """gcd(F[m], F[n]) by strong divisibility: F[gcd(m, n)], sign-normalized."""
    require_kind(family, Kind.FIBONACCI, "gcd_fib_closed")
    require_positive(m, n)
    return sequence(family).term(math.gcd(m, n)).normalized()


def gcd_with_initial(family: Family, n: int) -> Poly:
    """gcd(L[n], p0), the 'otherwise' value: 2 when n is a multiple of the
    family's period (see min_even_index), else 1.

    No term is built; under min_even_index's hypothesis the value is the gcd.
    """
    require_kind(family, Kind.LUCAS, "gcd_with_initial")
    require_positive(n)
    k = min_even_index(family)
    return Poly([2]) if k and n % k == 0 else ONE


def gcd_lucas_closed(family: Family, m: int, n: int) -> tuple[Poly, GcdCase]:
    """gcd(L[m], L[n]): L[gcd(m, n)] when the 2-adic valuations of m and n
    agree, else gcd(L[gcd(m, n)], p0)."""
    require_kind(family, Kind.LUCAS, "gcd_lucas_closed")
    require_positive(m, n)
    d = math.gcd(m, n)
    if two_adic_valuation(m) == two_adic_valuation(n):
        return sequence(family).term(d).normalized(), GcdCase.LUCAS_EQUAL_E2
    return gcd_with_initial(family, d), GcdCase.LUCAS_UNEQUAL_E2


def gcd_mixed_closed(fib: Family, lucas: Family, m: int, n: int) -> tuple[Poly, GcdCase]:
    """gcd(F[m], L[n]) for an equivalent pair: L[gcd(m, n)] when the
    Fibonacci-side index m has strictly larger 2-adic valuation, else
    gcd(L[gcd(m, n)], p0)."""
    require_pair(fib, lucas, "gcd_mixed_closed")
    require_positive(m, n)
    d = math.gcd(m, n)
    if two_adic_valuation(m) > two_adic_valuation(n):
        return sequence(lucas).term(d).normalized(), GcdCase.MIXED_DOMINANT
    return gcd_with_initial(lucas, d), GcdCase.MIXED_OTHERWISE


def closed_gcd(fa: Family, fb: Family, m: int, n: int) -> tuple[Poly, GcdCase] | None:
    """gcd(A[m], B[n]) and its case by the theorem that applies, or None.

    A theorem applies to positive indices of one family (names aside) or of
    an equivalent pair, in either order."""
    if min(m, n) < 1:
        return None
    if (fa.kind, fa.d, fa.g, fa.p0, fa.p1) == (fb.kind, fb.d, fb.g, fb.p0, fb.p1):
        if fa.kind is Kind.FIBONACCI:
            return gcd_fib_closed(fa, m, n), GcdCase.FIB_STRONG
        return gcd_lucas_closed(fa, m, n)
    if fa.is_equivalent(fb):
        if fa.kind is Kind.FIBONACCI:
            return gcd_mixed_closed(fa, fb, m, n)
        return gcd_mixed_closed(fb, fa, n, m)
    return None


def oracle_gcd(family_a: Family, family_b: Family, m: int, n: int) -> Poly:
    """Brute force: build both terms and take their Z[x] gcd.

    The only caller of poly_gcd_z here; no closed form shares it.
    """
    return polyring.poly_gcd_z(sequence(family_a).term(m), sequence(family_b).term(n))


def compare(family_a: Family, family_b: Family, m: int, n: int,
            closed: Poly, case: GcdCase) -> GcdReport:
    """Pit a closed form against the brute-force oracle for one index pair."""
    oracle = oracle_gcd(family_a, family_b, m, n)
    return GcdReport(m, n, closed, oracle, closed == oracle, case)


def iter_table(fa: Family, fb: Family, max_index: int) -> Iterator[GcdReport]:
    """Reports of gcd(A[m], B[n]) for 1 <= m, n <= max_index, row-major in
    (m, n).  closed_gcd must apply to fa and fb."""
    oracles: dict[tuple[int, int], Poly] = {}
    for m, n in product(range(1, max_index + 1), repeat=2):
        closed, case = closed_gcd(fa, fb, m, n)
        if fa is fb and m > n:  # the canonical gcd is symmetric: reuse (n, m)'s oracle
            yield GcdReport(m, n, closed, oracles[n, m], closed == oracles[n, m], case)
        else:
            report = compare(fa, fb, m, n, closed, case)
            if fa is fb:
                oracles[m, n] = report.oracle
            yield report


def min_even_index(family: Family) -> int | None:
    """The period of gcd(L[n], p0) = 2, or None: it holds exactly at the
    period's multiples, so the period is the smallest such n >= 1.

    The hypothesis is a constant p0 with |p0| in {1, 2} and 2 * p1 = p0 * d.
    The parity of d, g and p0 then fixes the period, with no term built
    (the README derives it): 1 when |p0| = 2 and content(d) is even, so
    that every term is even; 3 when |p0| = 2, content(d) is odd and
    content(d^2 - g) is even; None otherwise.  A Lucas-kind family outside
    the hypothesis gets the same rule, whose answer then need not be its gcd.
    """
    require_kind(family, Kind.LUCAS, "min_even_index")
    if abs(family.p0.leading) != 2:
        return None
    if family.d.content() % 2 == 0:
        return 1
    return None if (family.d * family.d - family.g).content() % 2 else 3
