"""Terms of a family from their explicit sums, for tests.

A second term oracle beside reference_terms: it never steps the
recurrence, so a fault shared by SequenceCache and a recurrence walk
cannot hide behind it.  With n >= 1,

    F[n] = sum_j C(n-1-j, j) d^(n-1-2j) g^j
    L[n] = (p0/2) sum_j (n/(n-j)) C(n-j, j) d^(n-2j) g^j

where F starts 0, 1 and L is Lucas type (constant p0 with |p0| in {1, 2}
and 2 * p1 = p0 * d).  Any other start (p0, p1) gives
p1 F[n] + g p0 F[n-1].  Every coefficient is an exact integer: n/(n-j)
C(n-j, j) is one, and for |p0| = 1 the content of d is even, so the sum
is too.
"""

from __future__ import annotations

from math import comb

from gfpoly.families import Family
from gfpoly.polyring import ONE, ZERO, Poly


def _weighted_sum(d: Poly, g: Poly, top: int, weight) -> Poly:
    """sum over j <= top/2 of weight(j) d^(top-2j) g^j, by Horner's rule in
    (d^2, g): acc = acc * d^2 + weight(j) g^j."""
    dd = d * d
    acc, gj = ZERO, ONE
    for j in range(top // 2 + 1):
        acc = acc * dd + gj * weight(j)
        gj = gj * g
    return acc * d if top % 2 else acc


def _fibonacci(d: Poly, g: Poly, n: int) -> Poly:
    """F[n] for n >= 0."""
    return _weighted_sum(d, g, n - 1, lambda j: comb(n - 1 - j, j)) if n else ZERO


def _is_lucas_type(family: Family) -> bool:
    p0 = family.p0
    return p0.degree == 0 and abs(p0.leading) in (1, 2) and family.p1 * 2 == p0 * family.d


def explicit_term(family: Family, n: int) -> Poly:
    """Term n of family from the explicit sums, with no recurrence step."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if n == 0:
        return family.p0
    d, g, p0 = family.d, family.g, family.p0
    if not _is_lucas_type(family):
        shifted = g * p0 * _fibonacci(d, g, n - 1) if p0 else ZERO
        return family.p1 * _fibonacci(d, g, n) + shifted
    total = _weighted_sum(d, g, n, lambda j: n * comb(n - j, j) // (n - j))
    lead = p0.leading
    assert all(c * lead % 2 == 0 for c in total.coeffs), "p0 / 2 times the sum is not integral"
    return Poly(c * lead // 2 for c in total.coeffs)
