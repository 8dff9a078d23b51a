"""Catalog of checkable identities for generalized Fibonacci polynomials.

Every check returns IdentityReport records carrying the compared values, a
verdict, and (for the divisibility decompositions) a quotient witness that
re-multiplies to the original term.  Witnesses come from exact division,
except in the dic2-decompose sweep (see _sweep_dic2_decompose).  Families
named F below are Fibonacci type, L are Lucas type; pair checks take an
equivalent (F, L) pair sharing one recurrence (d, g) and use alpha = 2 / p0
of the Lucas side.

Checked shapes, with all indices restricted as noted:

  convolution       F[m+n+1] = F[m+1]F[n+1] + g F[m]F[n]
  addition-minus    F[n+m] = a F[n]L[m] - (-g)^m F[n-m]          (n >= m)
  addition-plus     F[n+m] = a F[m]L[n] + (-g)^m F[n-m]          (n >= m)
  addition-cross    2(-g)^m F[n-m] = a (F[n]L[m] - F[m]L[n])     (n >= m)
  discriminant-fib  (d^2+4g) F[m+n+1] = a^2 (L[m+1]L[n+1] + g L[m]L[n])
  discriminant-lucas L[m+n+2] = a L[m+1]L[n+1] + g (a L[m]L[n] - L[m+n])
  lucas-addition    L[m+n] = a L[m]L[n] + (-1)^(m+1) g^m L[n-m]  (m <= n)
  dic2-decompose    L[mq+r] = L[m] T + correction                (r < m)
  dic2-pow2         L[(2^n) r] = L[r] T + p0 g^((2^(n-1)) r)     (n >= 2)
  divides-iff       F[m] | F[n]  iff  m | n
  odd-divisor       L[m/q] | L[m] for odd divisors q of m
  neighbor-gcd      gcd of terms at distance 1 or 2
  mixed-shift       three gcd shift reductions across a pair
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Callable, Iterator, NamedTuple

from .families import Family, Kind, require_kind, require_pair, require_positive, sequence, step
from .polyring import ONE, ZERO, Poly, add_product, exact_div, poly_gcd_z

__all__ = [
    "IDENTITY_GROUPS",
    "IdentityReport",
    "check_addition_cross",
    "check_addition_laws",
    "check_convolution",
    "check_discriminant_laws",
    "check_lucas_addition",
    "decompose_mod_gm",
    "decompose_pow2",
    "divides_iff",
    "iter_reports",
    "mixed_shift_gcd",
    "neighbor_gcd",
    "odd_divisor_divides",
]


class IdentityReport(NamedTuple):
    identity_id: str
    family: str
    params: tuple[int, ...]
    lhs: Poly
    rhs: Poly
    passed: bool
    witness: Poly | None = None

    def to_json(self) -> dict:
        data = {
            "identity_id": self.identity_id,
            "family": self.family,
            "params": list(self.params),
            "pass": self.passed,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
        return data


def _equation(identity_id: str, family: str, params: tuple[int, ...], lhs: Poly, rhs: Poly) -> IdentityReport:
    return IdentityReport(identity_id, family, params, lhs, rhs, lhs == rhs)


def _decomposition(identity_id: str, family: str, params: tuple[int, ...],
                   target: Poly, divisor: Poly, correction: Poly = ZERO) -> IdentityReport:
    """Check target = divisor * witness + correction, the witness from exact
    division.  The witness is re-multiplied into rhs, so pass means it
    exists and rhs equals target bit for bit."""
    witness = exact_div(target - correction, divisor)
    rhs = divisor * witness + correction if witness is not None else correction
    return IdentityReport(identity_id, family, params, target, rhs, witness is not None and target == rhs, witness)


def check_convolution(family: Family, m: int, n: int) -> IdentityReport:
    require_kind(family, Kind.FIBONACCI, "check_convolution")
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    f = sequence(family).term
    lhs = f(m + n + 1)
    rhs = f(m + 1) * f(n + 1) + family.g * f(m) * f(n)
    return _equation("convolution", family.name, (m, n), lhs, rhs)


def check_addition_laws(fib: Family, lucas: Family, m: int, n: int) -> tuple[IdentityReport, IdentityReport]:
    """The two shift laws expressing F[n+m] through the equivalent pair."""
    label = require_pair(fib, lucas, "check_addition_laws")
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    seq = sequence(fib)
    f, l = seq.term, sequence(lucas).term
    alpha = lucas.alpha()
    swing = seq.g_power(m) * f(n - m) * (-1) ** m
    lhs = f(n + m)
    minus = _equation("addition-minus", label, (m, n), lhs, f(n) * l(m) * alpha - swing)
    plus = _equation("addition-plus", label, (m, n), lhs, f(m) * l(n) * alpha + swing)
    return minus, plus


def check_addition_cross(fib: Family, lucas: Family, m: int, n: int) -> IdentityReport:
    """Difference of the two addition laws; isolates the swing term."""
    label = require_pair(fib, lucas, "check_addition_cross")
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    seq = sequence(fib)
    f, l = seq.term, sequence(lucas).term
    alpha = lucas.alpha()
    lhs = seq.g_power(m) * f(n - m) * ((-1) ** m * 2)
    rhs = (f(n) * l(m) - f(m) * l(n)) * alpha
    return _equation("addition-cross", label, (m, n), lhs, rhs)


def check_discriminant_laws(fib: Family, lucas: Family, m: int, n: int) -> tuple[IdentityReport, IdentityReport]:
    label = require_pair(fib, lucas, "check_discriminant_laws")
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    f, l = sequence(fib).term, sequence(lucas).term
    alpha = lucas.alpha()
    a2 = alpha * alpha
    outer, inner = l(m + 1) * l(n + 1), l(m) * l(n)
    first = _equation(
        "discriminant-fib", label, (m, n),
        fib.discriminant() * f(m + n + 1),
        outer * a2 + lucas.g * inner * a2,
    )
    second = _equation(
        "discriminant-lucas", label, (m, n),
        l(m + n + 2),
        outer * alpha + lucas.g * (inner * alpha - l(m + n)),
    )
    return first, second


def check_lucas_addition(lucas: Family, m: int, n: int) -> IdentityReport:
    require_kind(lucas, Kind.LUCAS, "check_lucas_addition")
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    seq = sequence(lucas)
    l = seq.term
    alpha = lucas.alpha()
    sign = -1 if m % 2 == 0 else 1
    rhs = l(m) * l(n) * alpha + seq.g_power(m) * l(n - m) * sign
    return _equation("lucas-addition", lucas.name, (m, n), l(m + n), rhs)


def decompose_mod_gm(lucas: Family, m: int, q: int, r: int) -> IdentityReport:
    """L[mq+r] split into a multiple of L[m] plus a signed g-power correction.

    The correction is (-1)^(e+t) g^e L[i] with t = ceil(q / 2), where
    (e, i) = ((t-1)m + r, m - r) for odd q and (mt, r) for even q.
    """
    require_kind(lucas, Kind.LUCAS, "decompose_mod_gm")
    if m < 1 or q < 1 or r < 0:
        raise ValueError("need m >= 1, q >= 1, r >= 0")
    if r >= m:
        raise ValueError("need r < m")
    seq = sequence(lucas)
    e, i, sign = _correction(m, q, r)
    correction = seq.g_power(e) * seq.term(i) * sign
    return _decomposition("dic2-decompose", lucas.name, (m, q, r), seq.term(m * q + r), seq.term(m), correction)


def _correction(m: int, q: int, r: int) -> tuple[int, int, int]:
    """(e, i, sign) of decompose_mod_gm's correction sign * g^e * L[i]."""
    t = (q + 1) // 2
    e, i = ((t - 1) * m + r, m - r) if q % 2 else (m * t, r)
    return e, i, (-1) ** (e + t)


def _remultiplies(divisor: list[tuple[int, int]], witness: Poly, power: Poly, low: Poly,
                  sign: int, target: Poly) -> bool:
    """Whether divisor * witness + sign * power * low equals target, summed
    into one coefficient list with no intermediate Poly.  divisor is given
    as its nonzero (index, coefficient) terms, at least one."""
    w, p, l = witness.coeffs, power.coeffs, low.coeffs
    out = [0] * max(len(w) + divisor[-1][0], len(p) + len(l) - 1)
    add_product(out, w, divisor)
    add_product(out, p, [(j, sign * b) for j, b in enumerate(l) if b])
    while out and not out[-1]:
        out.pop()
    return out == list(target.coeffs)


def decompose_pow2(lucas: Family, n: int, r: int) -> IdentityReport:
    """L[(2^n) r] = L[r] T + p0 g^((2^(n-1)) r) with an exact witness T.

    This is decompose_mod_gm at (m, q, r) = (r, 2^n, 0), relabelled: there
    t = 2^(n-1) and e = r t are even for n >= 2, so the correction is
    +g^e L[0].
    """
    require_kind(lucas, Kind.LUCAS, "decompose_pow2")
    if n < 2:
        raise ValueError("need n >= 2")
    if r < 1:
        raise ValueError("need r >= 1")
    return decompose_mod_gm(lucas, r, 2 ** n, 0)._replace(identity_id="dic2-pow2", params=(n, r))


def divides_iff(fib: Family, m: int, n: int) -> IdentityReport:
    """F[m] divides F[n] exactly when m divides n.

    lhs and rhs are the two operands F[n] and F[m], not an equation; passed
    states the biconditional.  The only-if direction is vacuous when F[m]
    is zero or a unit (anything divides by those), which happens for
    degenerate recurrences and for families whose d is the constant 1.
    It needs a polynomial sequence: the integer sequence of d = 1, g = -2
    has F[4] = F[8] = -3, so (m, n) = (8, 4) fails, and truly so.
    """
    require_kind(fib, Kind.FIBONACCI, "divides_iff")
    require_positive(m, n)
    f = sequence(fib).term
    num, den = f(n), f(m)
    if den.is_zero:
        divisible = num.is_zero
        witness = None
    else:
        witness = exact_div(num, den)
        divisible = witness is not None
    should = n % m == 0
    uninformative = den.is_zero or (den.degree == 0 and abs(den.leading) == 1)
    passed = divisible if should else (not divisible or uninformative)
    return IdentityReport("divides-iff", fib.name, (m, n), num, den, passed, witness)


def odd_divisor_divides(lucas: Family, m: int, q: int) -> IdentityReport:
    """L[m/q] divides L[m] for any odd divisor q of m."""
    require_kind(lucas, Kind.LUCAS, "odd_divisor_divides")
    if m < 1:
        raise ValueError("m must be positive")
    if q < 1 or q % 2 == 0 or m % q != 0:
        raise ValueError("q must be an odd divisor of m")
    l = sequence(lucas).term
    return _decomposition("odd-divisor", lucas.name, (m, q), l(m), l(m // q))


def neighbor_gcd(family: Family, m: int, n: int) -> IdentityReport:
    """gcd of terms whose indices differ by 1 or 2.

    Lucas type: L[1] when both indices are odd, else 1.  Fibonacci type:
    F[2] when both are even, else 1.
    """
    require_positive(m, n)
    if not 0 < abs(m - n) <= 2:
        raise ValueError("indices must differ by 1 or 2")
    t = sequence(family).term
    if family.kind is Kind.LUCAS:
        predicted = t(1).normalized() if m % 2 == 1 and n % 2 == 1 else ONE
    else:
        predicted = t(2).normalized() if m % 2 == 0 and n % 2 == 0 else ONE
    oracle = poly_gcd_z(t(m), t(n))
    return _equation("neighbor-gcd", family.name, (m, n), oracle, predicted)


def mixed_shift_gcd(fib: Family, lucas: Family, m: int, n: int) -> list[IdentityReport]:
    """Shift reductions for gcd(F[i], L[n]) against gcd(L[j], L[n]).

    Part 1 always applies; part 2 needs m > n and part 3 needs m < n, so a
    call yields one or two reports.
    """
    label = require_pair(fib, lucas, "mixed_shift_gcd")
    require_positive(m, n)
    f, l = sequence(fib).term, sequence(lucas).term
    ln = l(n)
    up = poly_gcd_z(l(m + 1), ln)  # parts 1 and 2 share it
    reports = [_equation("mixed-shift-1", label, (m, n), poly_gcd_z(f(m + n + 1), ln), up)]
    if m > n:
        reports.append(_equation("mixed-shift-2", label, (m, n), poly_gcd_z(f(m - n + 1), ln), up))
    elif m < n:
        reports.append(_equation("mixed-shift-3", label, (m, n),
                                 poly_gcd_z(f(n - m + 1), ln), poly_gcd_z(l(m - 1), ln)))
    return reports


# Sweeps: each runs one identity group over an equivalent pair up to the
# index bound k; single-family identities use the half they apply to.
def _sweep_convolution(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in product(range(k + 1), repeat=2):
        yield check_convolution(fib, m, n)


def _sweep_addition(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in combinations_with_replacement(range(k + 1), 2):
        yield from check_addition_laws(fib, lucas, m, n)


def _sweep_addition_cross(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in combinations_with_replacement(range(k + 1), 2):
        yield check_addition_cross(fib, lucas, m, n)


def _sweep_discriminant(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in product(range(k + 1), repeat=2):
        yield from check_discriminant_laws(fib, lucas, m, n)


def _sweep_lucas_addition(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in combinations_with_replacement(range(k + 1), 2):
        yield check_lucas_addition(lucas, m, n)


def _sweep_dic2_decompose(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    """Walks n = mq + r for each m, stepping the witnesses (T[q, r],
    T[q, r+1]) before each check and the targets (L[n-1], L[n]) after it.

    Along r the target, the correction and so the witness follow the
    family's recurrence, and since L[-n] = L[n] / (-g)^n a row walked past
    r = m - 1 goes on into the next.  At r = 0 of each odd row q the Lucas
    addition law adds kick * (L[0], L[1]) to the witnesses, where kick =
    -alpha * sign * g^e and sign * g^e * L[m] is row q's correction: row
    q - 1's at r = 0 has the same e and the opposite sign.  Row 0's
    witnesses are 0, and step to 0 at (1, 0).

    The targets are stepped to L[m(k+1)], one past the last, so the shared
    cache is asked for no term past L[k].  Each candidate is re-multiplied
    with its correction in one coefficient list.  A miss is divided from
    the walked target, as decompose_mod_gm divides it, and a zero L[m]
    raises exact_div's ZeroDivisionError.
    """
    seq = sequence(lucas)
    alpha = lucas.alpha()
    d, g = lucas.d.coeffs, lucas.g.coeffs
    for m in range(1, k + 1):
        divisor = seq.term(m)
        terms = [(j, b) for j, b in enumerate(divisor.coeffs) if b]
        witness, ahead = ZERO, ZERO  # T[q, r], T[q, r+1]
        before, target = seq.term(m - 1), divisor  # L[n-1], L[n]
        for q, r in product(range(1, k + 1), range(m)):
            witness, ahead = ahead, step(d, g, ahead.coeffs, witness.coeffs)
            e, i, sign = _correction(m, q, r)
            power = seq.g_power(e)
            if q % 2 and not r:
                kick = power * -(alpha * sign)
                witness, ahead = witness + kick * seq.term(0), ahead + kick * seq.term(1)
            if terms and _remultiplies(terms, witness, power, seq.term(i), sign, target):
                yield IdentityReport("dic2-decompose", lucas.name, (m, q, r), target, target, True, witness)
            else:
                yield _decomposition("dic2-decompose", lucas.name, (m, q, r), target, divisor,
                                     power * seq.term(i) * sign)
            before, target = target, step(d, g, target.coeffs, before.coeffs)


def _sweep_dic2_pow2(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    """Bounds the sequence index (2^n) r by 2k, since n scales it exponentially."""
    cap = max(4, 2 * k)
    for n in range(2, cap.bit_length()):
        for r in range(1, cap // 2 ** n + 1):
            yield decompose_pow2(lucas, n, r)


def _sweep_divides_iff(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in product(range(1, k + 1), repeat=2):
        yield divides_iff(fib, m, n)


def _sweep_odd_divisor(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m in range(1, k + 1):
        for q in range(1, m + 1, 2):
            if m % q == 0:
                yield odd_divisor_divides(lucas, m, q)


def _sweep_neighbor_gcd(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for family in (fib, lucas):
        for m in range(1, k):
            for n in (m + 1, m + 2):
                if n <= k:
                    yield neighbor_gcd(family, m, n)


def _sweep_mixed_shift(fib: Family, lucas: Family, k: int) -> Iterator[IdentityReport]:
    for m, n in product(range(1, k + 1), repeat=2):
        yield from mixed_shift_gcd(fib, lucas, m, n)


_SWEEPS: dict[str, Callable[[Family, Family, int], Iterator[IdentityReport]]] = {
    "convolution": _sweep_convolution,
    "addition": _sweep_addition,
    "addition-cross": _sweep_addition_cross,
    "discriminant": _sweep_discriminant,
    "lucas-addition": _sweep_lucas_addition,
    "dic2-decompose": _sweep_dic2_decompose,
    "dic2-pow2": _sweep_dic2_pow2,
    "divides-iff": _sweep_divides_iff,
    "odd-divisor": _sweep_odd_divisor,
    "neighbor-gcd": _sweep_neighbor_gcd,
    "mixed-shift": _sweep_mixed_shift,
}

IDENTITY_GROUPS: tuple[str, ...] = tuple(_SWEEPS)


def iter_reports(group: str, fib: Family, lucas: Family, max_index: int) -> Iterator[IdentityReport]:
    """Sweep one identity group over an equivalent pair up to max_index."""
    sweep = _SWEEPS.get(group)
    if sweep is None:
        raise ValueError(f"unknown identity group {group!r}; known: {', '.join(IDENTITY_GROUPS)}")
    yield from sweep(fib, lucas, max_index)
