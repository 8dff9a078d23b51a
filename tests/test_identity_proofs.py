"""Proofs, not samples: five equational identity groups hold at every index
for every family.

`gfp verify` checks the identity catalog up to --max-index.  For the five
equational groups (convolution, addition, addition-cross, discriminant,
lucas-addition) a finite check is a proof.  This module runs identities'
own check functions on a finite grid of indices and constant families, and
the argument below says why that grid covers every index and every family.

Universal terms.  Fix alpha in {1, -1, 2, -2} and let F[n], L[n] in
Q[d, g] follow X[n] = d X[n-1] + g X[n-2] from F[0] = 0, F[1] = 1 and
L[0] = 2/alpha, L[1] = d/alpha.  A pair of the library with that alpha
over any d(x), g(x) in Z[x] (valid or not) has p0 = 2/alpha and
p1 = p0 d / 2 = d/alpha, so the ring map d -> d(x), g -> g(x) sends the
universal terms to its terms.  An identity of Q[d, g] therefore holds for
every such pair.

Indices.  Let a, b be the roots of t^2 = d t + g over an algebraic closure
of Q(d, g): a + b = d, ab = -g, and a != b since (a - b)^2 = d^2 + 4g is
not 0.  Then F[n] = (a^n - b^n) / (a - b) and L[n] = (a^n + b^n) / alpha
for n >= 0: both sides follow the recurrence and agree at n = 0 and 1.
Let Delta(i, j) be the difference of an identity's two sides in its free
indices.  Suppose Delta(i, j) is a sum of c r^i s^j with r from a list R
and s from a list S.  For fixed j, i -> Delta(i, j) then follows the
recurrence whose characteristic polynomial is the product of (t - r) over
R, of order |R|, so zeros at i = 0..|R|-1 make it zero at every i >= 0.
Zeros on the grid {0..|R|-1} x {0..|S|-1} thus give zeros at every i for
each j < |S|, and the same argument along j gives zeros everywhere.

- Convolution and the two discriminant laws, free (i, j) = (m, n) >= 0.
  Each term of a side is a constant, or g, or d^2 + 4g, times F or L at
  m + n + c, or times one factor at m + c and one at n + c.  Each of
  these lies in the span of a^m, b^m, and likewise in n: R = S = (a, b),
  a 2 x 2 grid.
- The addition laws, addition-cross and lucas-addition need n >= m; take
  (i, j) = (m, k) with n = m + k.  In m, F or L at 2m + k lies in the
  span of a^2m, b^2m; a product of a factor at m and one at m + k in the
  span of a^2m, (ab)^m, b^2m; and (-g)^m, or g^m up to sign, is (ab)^m up
  to sign.  Each product has exactly one factor at k + c.  So
  R = (a^2, ab, b^2) and S = (a, b), a 3 x 2 grid in (m, k).

Families.  Give d weight 1 and g weight 2.  By induction on the
recurrence, whose two terms d X[n-1] and g X[n-2] add 1 and 2 to the
weight, F[n] (n >= 1) is a sum of monomials d^i g^j of weight i + 2j =
n - 1, and L[n] one of weight n; F[0] = 0.  Every identity here has both
sides of one weight w at (m, n): m + n for convolution and lucas-addition
(g^m L[n-m] has 2m + n - m), m + n - 1 for the addition laws and
addition-cross (F[n+m]; (-g)^m F[n-m] has 2m + n - m - 1), m + n + 2 for
the discriminant laws (d^2 + 4g times F[m+n+1]).  So the difference P is
a sum of monomials d^i g^j with i + 2j = w: deg_d P <= w and
deg_g P <= w // 2.  By the grid lemma (Alon, "Combinatorial
Nullstellensatz", 1999, Lemma 2.1), P is 0 once it vanishes on A x B
with more than deg_d P values in A and more than deg_g P in B: for each
d in A, P(d, g) has more roots than its degree in g, so each coefficient
c_j(d) of g^j is 0 on A, and then has more roots than its degree.  With W
the largest weight over the index grids, W + 1 values of d and
W // 2 + 1 values of g per alpha prove every family.  For |alpha| = 2
the values of d are even, so that p1 = d/alpha is an integer; any
distinct values serve.  At (d, g) the family with constant d and g
evaluates P there exactly, and SequenceCache does not validate, so d = 0
and g = 0 are points like any other.

The orders and weights are written once, in LAWS; the grids are computed
from them.  The other six groups are not equational (dic2-decompose,
dic2-pow2, divides-iff, odd-divisor, neighbor-gcd, mixed-shift), and
`gfp verify` checks them only up to --max-index.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple

import pytest

from gfpoly.families import Family, Kind, clear_sequences, sequence
from gfpoly.identities import (
    IDENTITY_GROUPS,
    IdentityReport,
    check_addition_cross,
    check_addition_laws,
    check_convolution,
    check_discriminant_laws,
    check_lucas_addition,
)
from gfpoly.polyring import ONE, X, ZERO, Poly

ALPHAS = (1, -1, 2, -2)


class Law(NamedTuple):
    reports: Callable[[Family, Family, int, int], tuple[IdentityReport, ...]]
    orders: tuple[int, int]  # (|R|, |S|)
    shifted: bool  # free indices (m, k) with n = m + k, else (m, n)
    weight: Callable[[int, int], int]  # weight of both sides at (m, n)


LAWS = {
    "convolution": Law(lambda f, l, m, n: (check_convolution(f, m, n),), (2, 2), False,
                       lambda m, n: m + n),
    "addition": Law(check_addition_laws, (3, 2), True, lambda m, n: m + n - 1),
    "addition-cross": Law(lambda f, l, m, n: (check_addition_cross(f, l, m, n),), (3, 2), True,
                          lambda m, n: m + n - 1),
    "discriminant": Law(check_discriminant_laws, (2, 2), False, lambda m, n: m + n + 2),
    "lucas-addition": Law(lambda f, l, m, n: (check_lucas_addition(l, m, n),), (3, 2), True,
                          lambda m, n: m + n),
}


def index_points(law: Law) -> list[tuple[int, int]]:
    """The (m, n) of law's index grid."""
    rows, cols = law.orders
    return [(i, i + j if law.shifted else j) for i, j in product(range(rows), range(cols))]


WEIGHT = max(law.weight(m, n) for law in LAWS.values() for m, n in index_points(law))


def family_points(alpha: int) -> list[tuple[int, int]]:
    """The (d, g) grid for alpha: WEIGHT + 1 values of d, even when
    |alpha| = 2, and WEIGHT // 2 + 1 values of g."""
    spacing = 2 if abs(alpha) == 2 else 1
    return list(product(range(0, spacing * (WEIGHT + 1), spacing), range(WEIGHT // 2 + 1)))


def constant_pair(alpha: int, d: int, g: int) -> tuple[Family, Family]:
    name = f"a={alpha},d={d},g={g}"
    fib = Family(f"F[{name}]", Kind.FIBONACCI, Poly([d]), Poly([g]), ZERO, ONE)
    lucas = Family(f"L[{name}]", Kind.LUCAS, Poly([d]), Poly([g]), Poly([2 // alpha]), Poly([d // alpha]))
    assert lucas.alpha() == alpha and lucas.p1 * 2 == lucas.p0 * lucas.d
    return fib, lucas


def grid() -> list[tuple[int, int, int, Family, Family]]:
    return [(alpha, d, g, *constant_pair(alpha, d, g)) for alpha in ALPHAS for d, g in family_points(alpha)]


@pytest.fixture(autouse=True)
def _fresh_registry():
    yield
    clear_sequences()


def test_laws_are_the_equational_groups():
    assert set(LAWS) <= set(IDENTITY_GROUPS)
    assert len(IDENTITY_GROUPS) - len(LAWS) == 6


def test_grids_follow_from_the_orders_and_weights():
    assert index_points(LAWS["convolution"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert index_points(LAWS["lucas-addition"]) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
    # lucas-addition at (m, n) = (2, 3) has the largest weight.
    assert WEIGHT == 5
    for alpha in ALPHAS:
        points = family_points(alpha)
        ds, gs = {d for d, _ in points}, {g for _, g in points}
        assert (len(ds), len(gs), len(points)) == (WEIGHT + 1, WEIGHT // 2 + 1, 18)
        assert all(d % 2 == 0 for d in ds) or abs(alpha) == 1


def test_sides_have_the_stated_weight():
    # With d = c x and g = x^2, a side of weight w is a multiple of x^w.
    for alpha in ALPHAS:
        d = Poly([0, 2 if abs(alpha) == 2 else 1])
        fib = Family("F", Kind.FIBONACCI, d, X * X, ZERO, ONE)
        lucas = Family("L", Kind.LUCAS, d, X * X, Poly([2 // alpha]), Poly(c // alpha for c in d.coeffs))
        for group, law in LAWS.items():
            for m, n in index_points(law):
                for report in law.reports(fib, lucas, m, n):
                    w = law.weight(m, n)
                    for side in (report.lhs, report.rhs):
                        assert side.is_zero or (side.degree == w and not any(side.coeffs[:w])), \
                            (group, alpha, m, n)


def test_equational_groups_hold_at_every_index_for_every_family():
    count = 0
    for alpha, d, g, fib, lucas in grid():
        for group, law in LAWS.items():
            for m, n in index_points(law):
                for report in law.reports(fib, lucas, m, n):
                    assert report.passed, (group, alpha, d, g, report.identity_id, m, n)
                    count += 1
    # Per (d, g): 4 convolution, 6 * 2 addition, 6 addition-cross,
    # 4 * 2 discriminant and 6 lucas-addition reports.
    assert count == 4 * 18 * (4 + 12 + 6 + 8 + 6)


def wrong_convolution(fib: Family, lucas: Family, m: int, n: int) -> bool:
    """Whether F[m+n+1] = F[m+1]F[n+1] - g F[m]F[n], with -g for +g."""
    f = sequence(fib).term
    return f(m + n + 1) == f(m + 1) * f(n + 1) - fib.g * f(m) * f(n)


def wrong_lucas_addition(fib: Family, lucas: Family, m: int, n: int) -> bool:
    """Whether L[m+n] = a L[m]L[n] + (-1)^m g^m L[n-m], the g^m term's sign flipped."""
    seq = sequence(lucas)
    l = seq.term
    return l(m + n) == l(m) * l(n) * lucas.alpha() + seq.g_power(m) * l(n - m) * (-1) ** m


def test_the_proof_can_fail():
    # Each wrong identity has the same orders and weights as the law it
    # corrupts, so the argument above says it must fail inside the grid.
    wrong = {"convolution": wrong_convolution, "lucas-addition": wrong_lucas_addition}
    failures = {name: [] for name in wrong}
    for alpha, d, g, fib, lucas in grid():
        for name, holds in wrong.items():
            for m, n in index_points(LAWS[name]):
                if not holds(fib, lucas, m, n):
                    failures[name].append((alpha, d, g, m, n))
    # convolution is off by 2g F[m]F[n], nonzero at (1, 1) when g != 0;
    # lucas-addition by 2 g^m L[n-m], nonzero at (0, 0) since L[0] = 2/alpha.
    assert failures["convolution"][0] == (1, 0, 1, 1, 1)
    assert failures["lucas-addition"][0] == (1, 0, 0, 0, 0)
    assert all(g and m and n for _, _, g, m, n in failures["convolution"])
