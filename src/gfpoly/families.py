"""Generalized Fibonacci polynomial families and their term sequences.

A family is the data (d, g, p0, p1) driving the second-order recurrence

    G[0] = p0,  G[1] = p1,  G[n] = d * G[n-1] + g * G[n-2]

over Z[x].  Two shapes are distinguished.  Fibonacci type starts 0, 1.
Lucas type starts with a constant p0 of absolute value 1 or 2 and with
2 * p1 = p0 * d, which makes alpha = 2 / p0 an integer in {1, -1, 2, -2}.
A Fibonacci-type and a Lucas-type family sharing the same (d, g) are
called equivalent; the closed-form mixed gcds below need such pairs.
"""

from __future__ import annotations

import enum
import functools
import random
from operator import add, neg, sub
from typing import NamedTuple

from .polyring import ONE, X, ZERO, Poly, poly_gcd_z

__all__ = [
    "BUILTIN",
    "PARTNER",
    "Family",
    "Kind",
    "NoValidEquivalentError",
    "NotEquivalentError",
    "SequenceCache",
    "UnknownFamilyError",
    "builtin_family",
    "clear_sequences",
    "equivalent_family",
    "random_pair",
    "sequence",
]


class Kind(enum.Enum):
    FIBONACCI = "fibonacci"
    LUCAS = "lucas"


class UnknownFamilyError(ValueError):
    """Name not present in the built-in registry."""


class NoValidEquivalentError(ValueError):
    """No Lucas-type initial values satisfy the side conditions for this (d, g)."""


class NotEquivalentError(ValueError):
    """The two families do not share the same recurrence (d, g)."""


class Family(NamedTuple):
    name: str
    kind: Kind
    d: Poly
    g: Poly
    p0: Poly
    p1: Poly

    def violations(self) -> list[str]:
        """All rule violations, empty when the family is well formed.

        Shared rules: d and g nonzero, gcd(d, g) = 1.  Fibonacci type fixes
        p0 = 0 and p1 = 1.  Lucas type needs a constant p0 with |p0| in {1, 2},
        the coupling 2 * p1 = p0 * d, and gcd(p0, d) = 1, so gcd(p0, p1) = 1.
        """
        problems = []
        if self.d.is_zero:
            problems.append("d must be nonzero")
        if self.g.is_zero:
            problems.append("g must be nonzero")
        if not self.d.is_zero and not self.g.is_zero and poly_gcd_z(self.d, self.g) != ONE:
            problems.append("gcd(d, g) != 1")
        if self.kind is Kind.FIBONACCI:
            if self.p0 != ZERO:
                problems.append("p0 must be 0")
            if self.p1 != ONE:
                problems.append("p1 must be 1")
            return problems
        if self.p0.degree != 0 or abs(self.p0.leading) not in (1, 2):
            problems.append("p0 must be a constant of absolute value 1 or 2")
            return problems
        if self.p1 * 2 != self.p0 * self.d:
            problems.append("2*p1 must equal p0*d")
        if poly_gcd_z(self.p0, self.d) != ONE:
            problems.append("gcd(p0, d) != 1")
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.violations()

    def is_equivalent(self, other: Family) -> bool:
        """Opposite kind over the same recurrence (d, g)."""
        return self.kind is not other.kind and (self.d, self.g) == (other.d, other.g)

    def discriminant(self) -> Poly:
        """d**2 + 4g, the square of the difference of the recurrence roots."""
        return self.d * self.d + self.g * 4

    def alpha(self) -> int:
        """2 / p0 as an exact integer.  Defined for Lucas-type families only."""
        if self.kind is not Kind.LUCAS:
            raise ValueError("alpha is defined for Lucas-type families only")
        return 2 // self.p0.leading

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "d": self.d.to_json(),
            "g": self.g.to_json(),
            "p0": self.p0.to_json(),
            "p1": self.p1.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> Family:
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"family name must be a string, not {type(name).__name__}")
        return cls(
            name=name,
            kind=Kind(data["kind"]),
            d=Poly.from_json(data["d"]),
            g=Poly.from_json(data["g"]),
            p0=Poly.from_json(data["p0"]),
            p1=Poly.from_json(data["p1"]),
        )


def require_kind(family: Family, kind: Kind, who: str) -> None:
    """Refuse a family of the wrong kind; who names the caller in the message."""
    if family.kind is not kind:
        raise ValueError(f"{who} needs a {kind.value}-type family, got {family.kind.value}")


def require_pair(fib: Family, lucas: Family, who: str) -> str:
    """Refuse anything but an equivalent (Fibonacci, Lucas) pair; returns its label."""
    require_kind(fib, Kind.FIBONACCI, who)
    require_kind(lucas, Kind.LUCAS, who)
    if not fib.is_equivalent(lucas):
        raise NotEquivalentError(f"{fib.name} and {lucas.name} do not share the same (d, g)")
    return f"{fib.name}/{lucas.name}"


def require_positive(*indices: int) -> None:
    for i in indices:
        if i < 1:
            raise ValueError("indices must be positive")


def _fib(name: str, d: Poly, g: Poly) -> Family:
    return Family(name, Kind.FIBONACCI, d, g, ZERO, ONE)


def _lucas(name: str, d: Poly, g: Poly, p0: int, p1: Poly) -> Family:
    return Family(name, Kind.LUCAS, d, g, Poly([p0]), p1)


_TWO_X = Poly([0, 2])
_THREE_X = Poly([0, 3])
_X_PLUS_2 = Poly([2, 1])
_TWO_X_PLUS_1 = Poly([1, 2])

BUILTIN: dict[str, Family] = {
    f.name: f
    for f in (
        _fib("fibonacci", X, ONE),
        _lucas("lucas", X, ONE, 2, X),
        _fib("pell", _TWO_X, ONE),
        # Kept for the validator: fails the Lucas-type side conditions.
        _lucas("pell-lucas", _TWO_X, ONE, 2, _TWO_X),
        _lucas("pell-lucas-prime", _TWO_X, ONE, 1, X),
        _fib("fermat", _THREE_X, Poly([-2])),
        _lucas("fermat-lucas", _THREE_X, Poly([-2]), 2, _THREE_X),
        _fib("chebyshev2", _TWO_X, Poly([-1])),
        _lucas("chebyshev1", _TWO_X, Poly([-1]), 1, X),
        _fib("jacobsthal", ONE, _TWO_X),
        _lucas("jacobsthal-lucas", ONE, _TWO_X, 2, ONE),
        _fib("morgan-voyce-b", _X_PLUS_2, Poly([-1])),
        _lucas("morgan-voyce-c", _X_PLUS_2, Poly([-1]), 2, _X_PLUS_2),
        _fib("paper-2x1-fib", _TWO_X_PLUS_1, ONE),
        _lucas("paper-2x1-lucas", _TWO_X_PLUS_1, ONE, 2, _TWO_X_PLUS_1),
    )
}

VALID: tuple[Family, ...] = tuple(f for f in BUILTIN.values() if f.is_valid)

PARTNER: dict[str, str] = {a.name: b.name for a in VALID for b in VALID if a.is_equivalent(b)}


def builtin_family(name: str) -> Family:
    try:
        return BUILTIN[name]
    except KeyError:
        raise UnknownFamilyError(f"unknown family {name!r}; known: {', '.join(BUILTIN)}") from None


def equivalent_family(family: Family) -> Family:
    """The partner of the opposite kind over the same (d, g).

    Lucas to Fibonacci always exists (start 0, 1).  Fibonacci to Lucas
    takes p0 = 2 with p1 = d, which makes alpha = 1, when the content of d
    is odd, and p0 = 1 with p1 = d / 2 when it is even.  Either way
    gcd(p0, d) = 1, so the partner is invalid only when d or g breaks a
    shared rule.  Built-in inputs resolve to their registered partner.
    """
    if family.name in PARTNER:
        partner = BUILTIN[PARTNER[family.name]]
        if partner.is_equivalent(family):
            return partner
    if family.kind is Kind.LUCAS:
        return _fib(f"{family.name}.fib", family.d, family.g)
    if family.d.content() % 2:
        p0, p1 = 2, family.d
    else:
        p0, p1 = 1, Poly(c // 2 for c in family.d.coeffs)
    partner = _lucas(f"{family.name}.lucas", family.d, family.g, p0, p1)
    if not partner.is_valid:
        raise NoValidEquivalentError(
            f"no Lucas-type initial values fit d={family.d}, g={family.g}"
        )
    return partner


# Terms 0..RETAINED stay cached; past it a cache keeps two terms.  It must
# cover the indices the identity catalog revisits out of order (verify
# --max-index 14 reaches term 30 and g^98).  The dic2-decompose sweep walks
# its witnesses and every target past L[k] itself.
RETAINED = 256


def step(d: tuple[int, ...], g: tuple[int, ...], t1: tuple[int, ...], t0: tuple[int, ...]) -> Poly:
    """d * t1 + g * t0 on ascending coefficient tuples, built as one Poly.

    It steps SequenceCache's terms and the dic2-decompose witnesses and targets.

    Zero coefficients of d and g are skipped, and a coefficient of +-1 adds
    or subtracts a term's row without multiplying.  The first row to land
    on a stretch of the output not yet written is stored as it is, so a
    monic shift such as x * t1 costs no arithmetic.  Rows go through map,
    where a zero coefficient of a term costs a small-int operation only.
    """
    out = [0] * (max(len(d) + len(t1), len(g) + len(t0)) - 1)
    unwritten = 0  # out[unwritten:] is still all zeros
    for a, t in ((d, t1), (g, t0)):
        m = len(t)
        for i, c in enumerate(a):
            if not c:
                continue
            if i >= unwritten:
                out[i:i + m] = t if c == 1 else map(neg if c == -1 else c.__mul__, t)
            elif c == 1:
                out[i:i + m] = map(add, out[i:i + m], t)
            elif c == -1:
                out[i:i + m] = map(sub, out[i:i + m], t)
            else:
                out[i:i + m] = map(add, out[i:i + m], map(c.__mul__, t))
            unwritten = max(unwritten, i + m)
    return Poly(out)


class SequenceCache:
    """Terms of one recurrence: a retained prefix and a two-term tail.

    One walk builds every term: it advances the tail (k, T[k-1], T[k]) and,
    while k <= RETAINED, appends each term to the prefix, which serves
    callers that revisit small indices in any order.  A request behind the
    tail restarts it from the end of the prefix.  Memory is the prefix plus
    two terms at any index.
    """

    def __init__(self, d: Poly, g: Poly, p0: Poly, p1: Poly):
        self._d, self._g = d.coeffs, g.coeffs
        self._prefix = [p0, p1]
        self._tail = (1, p0, p1)

    def g_power(self, e: int) -> Poly:
        """The e-th power of g: term e of the recurrence P[e] = g * P[e-1],
        P[0] = 1, whose cache every recurrence over the same g shares."""
        return _shared(self._g, ZERO.coeffs, ONE.coeffs, self._g).term(e)

    def term(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("term index must be nonnegative")
        prefix = self._prefix
        if n < len(prefix):
            return prefix[n]
        k, t0, t1 = self._tail
        if k > n:  # then the prefix is full
            k, t0, t1 = len(prefix) - 1, prefix[-2], prefix[-1]
        while k < n:
            k, t0, t1 = k + 1, t1, step(self._d, self._g, t1.coeffs, t0.coeffs)
            if k <= RETAINED:
                prefix.append(t1)
        self._tail = (k, t0, t1)
        return t1


# One cache per recurrence, keyed by the coefficient tuples of (d, g, p0, p1)
# so that a lookup hashes no Poly; clear_sequences() drops them all.
_shared = functools.cache(lambda *coeffs: SequenceCache(*map(Poly, coeffs)))
clear_sequences = _shared.cache_clear


def sequence(family: Family) -> SequenceCache:
    """Shared cache per recurrence; callers in one process reuse computed terms.

    The key is the coefficients of (d, g, p0, p1), not the family, so
    copies that differ only in name share one cache.  The registry keeps
    each cache until clear_sequences(), which `gfp verify` calls before
    each pair's sweep, so a run holds one pair's terms at a time.
    """
    return _shared(family.d.coeffs, family.g.coeffs, family.p0.coeffs, family.p1.coeffs)


def random_pair(rng: random.Random, name: str) -> tuple[Family, Family]:
    """A random valid Fibonacci-type family and its Lucas-type partner.

    d and g are drawn with degree at most 3 and coefficients in [-5, 5],
    then rejection-sampled until the Fibonacci-type family validates; its
    partner then always exists (see equivalent_family).  Draws where d and
    g are both constants are rejected too: they give integer sequences, for
    which the polynomial theorems do not hold (d = 1, g = -2 has
    F[4] = F[8] = -3).
    """

    def draw() -> Poly:
        degree = rng.randint(0, 3)
        return Poly(rng.randint(-5, 5) for _ in range(degree + 1))

    while True:
        fib = _fib(name, draw(), draw())
        if fib.is_valid and not (fib.d.degree == 0 and fib.g.degree == 0):
            return fib, equivalent_family(fib)
