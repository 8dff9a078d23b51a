"""Dense univariate polynomials over the integers.

Coefficients are arbitrary-precision ints stored in ascending order of
degree: index i holds the coefficient of x**i.  The canonical form never
stores trailing zeros, so the zero polynomial is the empty tuple and two
polynomials are equal exactly when their coefficient tuples are equal.

The gcd here is the full Z[x] gcd: integer content is part of the answer,
not factored away.  gcd(4x + 4, 6) is 2, not 1.  The gcd of the primitive
parts is the heuristic GCDHEU, each answer proved by exact division; see
_heuristic_gcd.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

__all__ = [
    "ONE",
    "X",
    "ZERO",
    "Poly",
    "exact_div",
    "poly_gcd_z",
]


class Poly:
    """An element of Z[x].

    Immutable: setting or deleting an attribute raises AttributeError.  It
    hashes as its coefficient tuple does.

    >>> Poly([1, 0, 1])
    Poly('x^2 + 1')
    >>> Poly([0, 2]) * Poly([3, 1]) + Poly([5])
    Poly('2x^2 + 6x + 5')
    >>> Poly([0, 0, 0]).is_zero
    True
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Poly is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # for copy and pickle, whose slot state __setattr__ refuses
        return Poly, (self.coeffs,)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (degree minus infinity)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if isinstance(other, Poly) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        add_product(out, self.coeffs, [(j, b) for j, b in enumerate(other.coeffs) if b])
        return Poly(out)

    __rmul__ = __mul__

    def eval_at(self, x0: int) -> int:
        """Evaluate at an integer point by Horner's rule.

        >>> Poly([3, 0, 4, 0, 1]).eval_at(2)
        35
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def content(self) -> int:
        """Nonnegative gcd of all coefficients; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> Poly:
        """self divided by its content, sign-fixed to a positive leading coefficient.

        Already primitive with a positive lead, self is returned as it is.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no primitive part")
        return _primitive(self, self.content())

    def normalized(self) -> Poly:
        """Sign-canonical form: leading coefficient made positive. Content is kept."""
        if self.leading > 0:
            return self
        return -self

    def to_json(self) -> list[str]:
        """Ascending coefficients as decimal strings; over 4,300 digits needs sys.set_int_max_str_digits(0)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str | int]) -> Poly:
        """Inverse of to_json.  Plain ints are accepted too, but nothing looser."""
        if not isinstance(data, list):
            raise ValueError(f"coefficients must be a list, not {data!r}")
        for c in data:
            if type(c) is not int and not (type(c) is str and _DECIMAL_RE.fullmatch(c)):
                raise ValueError(f"coefficient {c!r} is neither an integer nor a decimal string")
        return cls(int(c) for c in data)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


_DECIMAL_RE = re.compile(r"-?[0-9]+")

ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def add_product(out: list[int], a: tuple[int, ...], terms: list[tuple[int, int]]) -> None:
    """Add a * b into the ascending coefficient list out, which must be long
    enough; b is given as its nonzero (index, coefficient) terms."""
    for i, c in enumerate(a):
        if c:
            for j, b in terms:
                out[i + j] += c * b


def exact_div(num: Poly, den: Poly) -> Poly | None:
    """Exact quotient in Z[x]: the q with num == den * q, or None.

    Long division from the top; any step that fails integrality, or a
    nonzero final remainder, means no such q exists over the integers.

    >>> exact_div(Poly([0, 2, 0, 1]), Poly([2, 0, 1]))
    Poly('x')
    >>> exact_div(Poly([1, 1]), Poly([0, 1])) is None
    True
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    dn, dd = len(num.coeffs) - 1, len(den.coeffs) - 1
    lead = den.coeffs[-1]
    terms = [(i, dc) for i, dc in enumerate(den.coeffs) if dc]
    rem = list(num.coeffs)
    quo = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        head = rem[k + dd]
        if head == 0:
            continue
        c, leftover = divmod(head, lead)
        if leftover:
            return None
        quo[k] = c
        for i, dc in terms:
            rem[k + i] -= c * dc
    if any(rem[:dd]):
        return None
    return Poly(quo)


def _balanced_digits(n: int, xi: int) -> list[int]:
    # Ascending digits of n in base xi, each in (-xi/2, xi/2].
    if xi < 3:
        raise ValueError("balanced digits need a base of at least 3: base 2 has no negative digit")
    half = xi // 2
    digits = []
    while n:
        n, d = divmod(n, xi)
        if d > half:
            d -= xi
            n += 1
        digits.append(d)
    return digits


def _primitive(p: Poly, content: int) -> Poly:
    # Nonzero p divided by its content, leading coefficient made positive;
    # p itself when it is already primitive with a positive lead.
    if p.coeffs[-1] < 0:
        content = -content
    if content == 1:
        return p
    return Poly(x // content for x in p.coeffs)


def _heuristic_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of primitive a, b of positive degree by GCDHEU.

    Evaluate both at an integer xi, starting at 2 min(|a|, |b|) + 2 (max
    norms), take the integer gcd, and read its balanced base-xi digits as
    a candidate.  At such an xi a primitive candidate that divides both
    inputs is their gcd (Char, Geddes & Gonnet 1989), so exact_div proves
    every answer.  A constant candidate's primitive part is 1, which
    divides both, so ONE is returned without the two divisions.  A
    rejected candidate makes xi larger, as in sympy's dup_zz_heu_gcd.

    The loop ends.  Write a = g a' and b = g b'.  Then gcd(a(xi), b(xi))
    is g(xi) delta, where delta divides the nonzero resultant R of a' and
    b'.  Once xi > 2 |R| |g|, the balanced digits are delta g, whose
    primitive part g is proved; xi grows without bound, so it gets there.
    """
    xi = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 2
    while True:
        h = _balanced_digits(math.gcd(a.eval_at(xi), b.eval_at(xi)), xi)
        if len(h) == 1:
            return ONE
        candidate = Poly(h).primitive_part()
        if exact_div(a, candidate) is not None and exact_div(b, candidate) is not None:
            return candidate
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def poly_gcd_z(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor in Z[x], integer content included.

    Canonical representative: positive leading coefficient.  gcd(p, 0) is
    p sign-normalized and gcd(0, 0) = 0.  Computed as gcd of contents times
    the gcd of primitive parts, which _heuristic_gcd finds by GCDHEU.

    >>> poly_gcd_z(Poly([0, 2, 0, 1]), Poly([0, 3, 0, 4, 0, 1]))
    Poly('x')
    >>> poly_gcd_z(Poly([4, 12, 12, 8]), Poly([2]))
    Poly('2')
    """
    if p.is_zero:
        return q.normalized()
    if q.is_zero:
        return p.normalized()
    cp, cq = p.content(), q.content()
    c = math.gcd(cp, cq)
    if len(p.coeffs) == 1 or len(q.coeffs) == 1:
        return Poly([c])
    h = _heuristic_gcd(_primitive(p, cp), _primitive(q, cq))
    return h if c == 1 else h * c
