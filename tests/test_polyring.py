"""Polynomial ring: representation, arithmetic, division, gcd, formats.

exact_div is checked against an independent reference that divides over
the rationals and then validates integrality.  poly_gcd_z is checked on
hand-expanded products and through algebraic laws; the theorem-level
suites elsewhere lean on it as the oracle, so it gets the heaviest
property coverage here.  It is checked against a Poly-based primitive
remainder sequence and, when sympy is installed, against sympy, and on
inputs that need many values of xi before GCDHEU's proof succeeds.  str
is checked to be injective by reading its output back with the position
scanner in polytext.
"""

from __future__ import annotations

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfpoly import polyring
from gfpoly.families import BUILTIN, sequence
from gfpoly.polyring import ONE, X, ZERO, Poly, exact_div, poly_gcd_z
from polytext import reference_parse

coeffs = st.lists(st.integers(-40, 40), max_size=7)
polys = st.builds(Poly, coeffs)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
# Mostly zeros, as in the terms of families whose d is a multiple of x:
# mul and exact_div skip the zero coefficients of their inner operand.
sparse_polys = st.builds(Poly, st.lists(st.one_of(st.just(0), st.just(0), st.integers(-40, 40)), max_size=30))
nonzero_sparse_polys = sparse_polys.filter(lambda p: not p.is_zero)
content_factors = st.integers(-12, 12).filter(bool)


def reference_mul(p: Poly, q: Poly) -> Poly:
    # Every pair of coefficients, zeros included.
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def reference_div(num: Poly, den: Poly) -> Poly | None:
    # Long division over Q; divisible over Z iff the remainder vanishes
    # and every quotient coefficient is an integer.
    if den.is_zero:
        raise ZeroDivisionError
    if num.is_zero:
        return ZERO
    if num.degree < den.degree:
        return None
    dd = den.degree
    lead = Fraction(den.coeffs[-1])
    rem = [Fraction(c) for c in num.coeffs]
    quo = [Fraction(0)] * (num.degree - dd + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dd] / lead
        quo[k] = c
        for i, dc in enumerate(den.coeffs):
            rem[k + i] -= c * dc
    if any(rem[:dd]):
        return None
    if any(q.denominator != 1 for q in quo):
        return None
    return Poly(int(q) for q in quo)


def _pseudo_rem(f: Poly, g: Poly) -> Poly:
    # Remainder of lc(g)**k * f by g for some k >= 0; stays in Z[x] with no
    # rational arithmetic.  Requires deg f >= deg g and g nonzero.
    dg = len(g.coeffs) - 1
    lead = g.coeffs[-1]
    r = f
    while not r.is_zero and len(r.coeffs) - 1 >= dg:
        shift = len(r.coeffs) - 1 - dg
        r = r * lead - Poly((0,) * shift + (g * r.coeffs[-1]).coeffs)
    return r


def reference_gcd(p: Poly, q: Poly) -> Poly:
    # Gcd of contents times the primitive PRS of the primitive parts, one
    # new Poly per reduction step: slow, independent of polyring's gcd.
    if p.is_zero:
        return q.normalized()
    if q.is_zero:
        return p.normalized()
    c = math.gcd(p.content(), q.content())
    a, b = p.primitive_part(), q.primitive_part()
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, (r.primitive_part() if not r.is_zero else ZERO)
    return a * c


class TestRepresentation:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0, 0]).coeffs == ()
        assert Poly([]).coeffs == ()

    def test_zero_identity(self):
        assert Poly([0]) == ZERO
        assert ZERO.is_zero
        assert not bool(ZERO)
        assert bool(ONE)

    def test_degree(self):
        assert ZERO.degree is None
        assert ONE.degree == 0
        assert X.degree == 1
        assert Poly([4, 12, 12, 8]).degree == 3

    def test_leading(self):
        assert ZERO.leading == 0
        assert Poly([4, 12, 12, 8]).leading == 8
        assert Poly([1, -2]).leading == -2

    def test_equality_is_structural(self):
        assert Poly([1, 2]) == Poly((1, 2, 0))
        assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))
        assert Poly([1, 2]) != Poly([1, 2, 3])


class TestHash:
    """Equal polys hash equal, and hashing a Poly changes nothing else about it."""

    @given(coeffs, polys, st.integers(0, 3))
    def test_equal_polys_hash_equal_whichever_is_hashed_first(self, cs, q, zeros):
        def builds():
            return (Poly(cs), Poly(cs + [0] * zeros), (Poly(cs) + q) - q,
                    Poly.from_json([str(c) for c in cs]))

        for first in range(4):
            ps = builds()
            h = hash(ps[first])
            assert [hash(p) for p in ps] == [h] * 4
            assert set(builds()) == {ps[first]}

    def test_kept_hash_does_not_change_equality_repr_or_json(self):
        hashed, fresh = Poly([3, 0, -1]), Poly([3, 0, -1])
        hash(hashed)
        assert hashed == fresh and fresh == hashed
        assert hashed != Poly([3, 0, 1])
        assert repr(hashed) == repr(fresh) == "Poly('-x^2 + 3')"
        assert hashed.to_json() == fresh.to_json() == ["3", "0", "-1"]
        assert Poly.from_json(hashed.to_json()) == hashed


class TestImmutability:
    """A Poly cannot change once built, and equals only another Poly."""

    def test_attributes_cannot_be_assigned_or_deleted(self):
        p = Poly([1, 2])
        hash(p)
        for name in ("coeffs", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, (5,))
        for name in ("coeffs", "_hash"):
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p.coeffs == (1, 2) and hash(p) == hash((1, 2))

    def test_equals_no_other_type(self):
        assert not Poly([1]) == 1 and Poly([1]) != 1
        assert not Poly([1]) == (1,) and Poly([1]) != (1,)
        assert not Poly() == () and not Poly() == 0

    @pytest.mark.parametrize("hashed", [False, True])
    def test_copies_and_pickles_equal_the_original(self, hashed):
        p = Poly([3, 0, -1])
        if hashed:
            hash(p)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and hash(q) == hash(p) and repr(q) == repr(p)


class TestArithmetic:
    def test_known_product(self):
        # (x + 2)(x^2 + 1) = x^3 + 2x^2 + x + 2
        assert Poly([2, 1]) * Poly([1, 0, 1]) == Poly([2, 1, 2, 1])

    def test_known_sum_and_difference(self):
        assert Poly([1, 1]) + Poly([2, -1, 3]) == Poly([3, 0, 3])
        assert Poly([1, 1]) - Poly([1, 1]) == ZERO

    def test_scalar_multiplication(self):
        assert Poly([1, 2]) * 3 == Poly([3, 6])
        assert -2 * Poly([1, 2]) == Poly([-2, -4])
        assert Poly([1, 2]) * 0 == ZERO

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_str_operand_is_refused(self, op):
        with pytest.raises(TypeError):
            op(Poly([1, 2]), "x")
        with pytest.raises(TypeError):
            op("x", Poly([1, 2]))

    def test_eval_at(self):
        assert Poly([3, 0, 4, 0, 1]).eval_at(2) == 35
        assert Poly([0, 3, 0, 4, 0, 1]).eval_at(1) == 8
        assert ZERO.eval_at(17) == 0

    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ZERO == p
        assert p * ONE == p
        assert p + (-p) == ZERO

    @given(polys, polys)
    def test_no_zero_divisors(self, p, q):
        assert (p * q).is_zero == (p.is_zero or q.is_zero)

    @given(polys, polys, st.integers(0, 200))
    def test_evaluation_is_a_homomorphism(self, p, q, x0):
        assert (p * q).eval_at(x0) == p.eval_at(x0) * q.eval_at(x0)
        assert (p + q).eval_at(x0) == p.eval_at(x0) + q.eval_at(x0)


class TestContentAndPrimitive:
    def test_content_examples(self):
        assert Poly([4, 12, 12, 8]).content() == 4
        assert Poly([0, 3, 0, 1]).content() == 1
        assert Poly([-4, -6]).content() == 2
        assert ZERO.content() == 0

    def test_primitive_part_examples(self):
        assert Poly([4, 12, 12, 8]).primitive_part() == Poly([1, 3, 3, 2])
        assert Poly([-4, -6]).primitive_part() == Poly([2, 3])
        assert Poly([0, -3]).primitive_part() == Poly([0, 1])
        # Already primitive with a positive lead: no copy.
        p = Poly([-2, 0, 3])
        assert p.primitive_part() is p

    def test_primitive_part_of_zero_raises(self):
        with pytest.raises(ValueError):
            ZERO.primitive_part()

    def test_normalized(self):
        assert Poly([1, -2]).normalized() == Poly([-1, 2])
        assert Poly([1, 2]).normalized() == Poly([1, 2])
        assert ZERO.normalized() == ZERO

    @given(nonzero_polys)
    def test_content_times_primitive_reconstructs(self, p):
        pp = p.primitive_part()
        assert pp.content() == 1
        assert pp.leading > 0
        assert pp * (p.content() if p.leading > 0 else -p.content()) == p


class TestExactDiv:
    def test_known_quotients(self):
        # (x^3 + 2x) / (x^2 + 2) = x
        assert exact_div(Poly([0, 2, 0, 1]), Poly([2, 0, 1])) == X
        assert exact_div(Poly([4, 12, 12, 8]), Poly([2])) == Poly([2, 6, 6, 4])
        assert exact_div(ZERO, Poly([5, 1])) == ZERO

    def test_not_divisible(self):
        assert exact_div(Poly([1, 1]), X) is None
        # over Q the quotient is x/2 + 1/2: divisible there, not over Z
        assert exact_div(Poly([-1, 0, 1]), Poly([-2, 2])) is None
        assert exact_div(Poly([1]), Poly([2])) is None

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    @given(polys, nonzero_polys)
    def test_matches_rational_reference(self, num, den):
        assert exact_div(num, den) == reference_div(num, den)

    @given(polys, nonzero_polys)
    def test_product_division_roundtrip(self, p, q):
        assert exact_div(p * q, q) == p


class TestSparseOperands:
    @settings(max_examples=300)
    @given(sparse_polys, sparse_polys)
    def test_mul_matches_reference(self, p, q):
        assert p * q == reference_mul(p, q)

    @given(sparse_polys, sparse_polys, sparse_polys)
    def test_add_product_adds_into_what_is_there(self, p, q, r):
        out = list(r.coeffs) + [0] * (len(p.coeffs) + len(q.coeffs))
        polyring.add_product(out, p.coeffs, [(j, b) for j, b in enumerate(q.coeffs) if b])
        assert Poly(out) == r + reference_mul(p, q)

    @settings(max_examples=300)
    @given(sparse_polys, nonzero_sparse_polys)
    @example(Poly([0, 0, 1]), Poly([2, 0, 0, 0, 1]))  # degree too low: None
    @example(Poly([0, 0, 0, 0, 2, 0, 0, 0, 1]), Poly([0, 0, 0, 0, 2]))  # quotient 1 + x^4/2: None
    def test_exact_div_matches_reference(self, num, den):
        assert exact_div(num, den) == reference_div(num, den)

    @given(sparse_polys, nonzero_sparse_polys, sparse_polys)
    def test_exact_div_of_a_product(self, p, q, r):
        assert exact_div(p * q, q) == p
        rest = Poly(r.coeffs[:q.degree])  # a remainder of degree below q's
        assert exact_div(p * q + rest, q) == (p if rest.is_zero else None)


class TestGcd:
    def test_known_values(self):
        # gcd(x^3 + 2x, x^5 + 4x^3 + 3x) = x
        assert poly_gcd_z(Poly([0, 2, 0, 1]), Poly([0, 3, 0, 4, 0, 1])) == X
        # content is part of the answer
        assert poly_gcd_z(Poly([4, 12, 12, 8]), Poly([2])) == Poly([2])
        assert poly_gcd_z(Poly([0, 4]), Poly([6])) == Poly([2])

    def test_hand_built_common_factor(self):
        f = Poly([1, 1]) * Poly([3, 0, 2])     # (x+1)(2x^2+3)
        g = Poly([-2, 1]) * Poly([3, 0, 2])    # (x-2)(2x^2+3)
        assert poly_gcd_z(f, g) == Poly([3, 0, 2])

    def test_zero_cases(self):
        assert poly_gcd_z(ZERO, ZERO) == ZERO
        assert poly_gcd_z(ZERO, Poly([1, -2])) == Poly([-1, 2])
        assert poly_gcd_z(Poly([0, -4]), ZERO) == Poly([0, 4])

    def test_coprime(self):
        assert poly_gcd_z(Poly([1, 0, 1]), X) == ONE
        assert poly_gcd_z(Poly([2]), Poly([0, 3])) == ONE

    def test_sign_never_negative(self):
        assert poly_gcd_z(Poly([0, -2]), Poly([0, -4])).leading > 0

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert poly_gcd_z(p, q) == poly_gcd_z(q, p)

    @given(polys, polys)
    def test_divides_both_arguments(self, p, q):
        g = poly_gcd_z(p, q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
        else:
            assert exact_div(p, g) is not None
            assert exact_div(q, g) is not None

    @given(nonzero_polys)
    def test_self_gcd(self, p):
        assert poly_gcd_z(p, p) == p.normalized()

    @settings(max_examples=60)
    @given(polys, polys, nonzero_polys)
    def test_common_factor_scales(self, p, q, r):
        assert poly_gcd_z(p * r, q * r) == (poly_gcd_z(p, q) * r).normalized()

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_linear_combination_invariance(self, r, s, t):
        # divisors of {r, t} and of {r, rs - t} coincide
        assert poly_gcd_z(r, t) == poly_gcd_z(r, r * s - t)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_constants_reduce_to_integer_gcd(self, a, b):
        assert poly_gcd_z(Poly([a]), Poly([b])) == Poly([math.gcd(a, b)])

    @given(polys, polys, content_factors, content_factors)
    def test_content_is_gcd_of_contents(self, p, q, k, m):
        g = poly_gcd_z(p * k, q * m)
        assert g.content() == math.gcd((p * k).content(), (q * m).content())


class TestGcdProof:
    """The divisions GCDHEU runs to prove its answer, and its sign and content."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        calls = []

        def counting(num, den):
            calls.append(den)
            return exact_div(num, den)

        monkeypatch.setattr(polyring, "exact_div", counting)
        return calls

    def test_constant_candidate_is_accepted_without_dividing(self, divisions):
        fib = sequence(BUILTIN["fibonacci"])
        assert poly_gcd_z(fib.term(31), fib.term(32)) == ONE
        assert poly_gcd_z(fib.term(32), fib.term(31) * -3) == ONE
        assert divisions == []

    def test_nonconstant_candidate_is_proved_by_two_divisions(self, divisions):
        fib = sequence(BUILTIN["fibonacci"])
        assert poly_gcd_z(fib.term(12), fib.term(18)) == fib.term(6)
        assert divisions == [fib.term(6), fib.term(6)]

    def test_negative_leads_and_content_give_the_normalized_gcd(self):
        assert poly_gcd_z(Poly([-6, 0, -6]), Poly([12, 4])) == Poly([2])
        assert poly_gcd_z(Poly([12, 4]), Poly([-6, 0, -6])) == Poly([2])
        # -4(x + 1)(x - 2) and -6(x + 1)
        assert poly_gcd_z(Poly([8, 4, -4]), Poly([-6, -6])) == Poly([2, 2])
        assert poly_gcd_z(Poly([-3, 0, -3]), Poly([0, -1, 0, -1])) == Poly([1, 0, 1])


def _linear_product(*roots: tuple[int, int]) -> Poly:
    # The product of the factors s*x - r, one for each (r, s).
    out = ONE
    for r, s in roots:
        out = out * Poly([-r, s])
    return out


class TestBalancedDigits:
    """GCDHEU's candidate is read from balanced base-xi digits, each in
    (-xi/2, xi/2].  Its proving divisions would hide a skewed range, so the
    range is checked here directly."""

    # GCDHEU's xi is at least 4; base 2 is refused (test_base_two_is_refused).
    @given(st.integers(-10**40, 10**40), st.integers(3, 1000))
    @example(5, 10)  # a digit of exactly xi/2 stays positive
    @example(-5, 10)
    @example(4, 10)  # a digit above xi/3
    @example(3, 7)  # odd xi: the largest positive digit
    @example(4, 7)
    @example(-5, 3)  # the smallest base allowed
    def test_digits_recompose_n_inside_half_of_xi(self, n, xi):
        digits = polyring._balanced_digits(n, xi)
        assert sum(d * xi ** i for i, d in enumerate(digits)) == n
        assert all(-xi < 2 * d <= xi for d in digits)

    def test_base_two_is_refused(self):
        # Digits 0 and 1 cannot write a negative n, so base 2 is refused
        # before any digit is taken.
        for n in (0, 5, -5):  # -5 last: unchecked, base 2 would loop on it forever
            with pytest.raises(ValueError, match="base of at least 3"):
                polyring._balanced_digits(n, 2)


class TestGcdRetries:
    """GCDHEU makes xi larger after each rejected candidate until one is proved."""

    @pytest.fixture
    def xis(self, monkeypatch):
        calls = []
        digits = polyring._balanced_digits

        def counting(n, xi):
            calls.append(xi)
            return digits(n, xi)

        monkeypatch.setattr(polyring, "_balanced_digits", counting)
        return calls

    def test_seventh_value_of_xi_proves_a_coprime_pair(self, xis):
        # |b| = 1, so xi starts at 4; the first six candidates all fail to divide.
        a = _linear_product((9, 1), (9, 1), (7, 1), (6, 1), (3, 1), (-2, 1), (-2, 1), (-2, 1), (-5, 1),
                            (-7, 1), (-7, 1), (-7, 1), (-9, 1), (-9, 2), (7, 4))
        b = Poly([0, 0, 0, -1, 0, 1])
        for p, q in ((a, b), (b, a)):
            xis.clear()
            assert poly_gcd_z(p, q) == ONE == reference_gcd(p, q)
            assert [xi.bit_length() for xi in xis] == [3, 4, 5, 8, 11, 15, 19]

    def test_sixth_value_of_xi_proves_a_common_factor(self, xis):
        a = _linear_product((0, 1), (2, 1), (2, 1), (1, 1), (-1, 1), (-1, 1))
        b = _linear_product((0, 1), (9, 1), (8, 1), (5, 1), (4, 1), (2, 1), (-2, 1), (5, 2), (1, 2),
                            (-1, 2), (-7, 2), (-5, 3), (7, 4), (5, 4), (1, 4), (-9, 4), (-9, 4))
        for p, q in ((a, b), (b, a)):
            xis.clear()
            assert poly_gcd_z(p, q) == Poly([0, -2, 1]) == reference_gcd(p, q)
            assert len(xis) == 6


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestGcdDifferential:
    """poly_gcd_z against reference_gcd and, when installed, sympy."""

    @settings(max_examples=300)
    @given(polys, polys, nonzero_polys, content_factors, content_factors)
    def test_products_match_reference(self, p, q, r, k, m):
        a, b = p * r * k, q * r * m
        assert poly_gcd_z(a, b) == reference_gcd(a, b)

    def test_builtin_term_grid_matches_reference(self):
        # Every pair of the first 40 terms of every built-in family.  The
        # reference is symmetric, so it runs once per unordered pair.
        for family in BUILTIN.values():
            terms = [sequence(family).term(n) for n in range(40)]
            for m, a in enumerate(terms):
                for n in range(m, 40):
                    b = terms[n]
                    expected = reference_gcd(a, b)
                    assert poly_gcd_z(a, b) == expected, (family.name, m, n)
                    assert poly_gcd_z(b, a) == expected, (family.name, n, m)

    @settings(max_examples=200, deadline=None)  # sympy's first calls are slow
    @given(polys, polys, nonzero_polys, content_factors, content_factors)
    def test_products_match_sympy(self, sympy, p, q, r, k, m):
        x = sympy.Symbol("x")

        def to_sympy(f: Poly):
            return sympy.Poly(list(reversed(f.coeffs)) or [0], x, domain=sympy.ZZ)

        a, b = p * r * k, q * r * m
        expected = to_sympy(a).gcd(to_sympy(b)).all_coeffs()
        assert poly_gcd_z(a, b) == Poly(reversed(expected))


class TestTextFormat:
    def test_frozen_strings(self):
        assert str(Poly([4, 12, 12, 8])) == "8x^3 + 12x^2 + 12x + 4"
        assert str(Poly([0, 3, 0, 4, 0, 1])) == "x^5 + 4x^3 + 3x"
        assert str(Poly([-2, 0, 9])) == "9x^2 - 2"
        assert str(Poly([2, 1])) == "x + 2"
        assert str(ZERO) == "0"
        assert str(Poly([-7])) == "-7"
        assert str(Poly([0, -1])) == "-x"
        assert str(Poly([0, 0, -3])) == "-3x^2"

    # The scanner in polytext reads printed terms back in the other tests,
    # so its own reading of the format is pinned here.
    def test_parse_frozen_strings(self):
        assert reference_parse("8x^3 + 12x^2 + 12x + 4") == Poly([4, 12, 12, 8])
        assert reference_parse("9x^2 - 2") == Poly([-2, 0, 9])
        assert reference_parse("0") == ZERO
        assert reference_parse("-x") == Poly([0, -1])
        assert reference_parse("x^2+1") == Poly([1, 0, 1])
        assert reference_parse("+3") == Poly([3])

    def test_parse_merges_repeated_powers(self):
        assert reference_parse("x + x") == Poly([0, 2])
        assert reference_parse("x - x") == ZERO

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "2y", "1 2", "x**2", "3 +", "^2"):
            with pytest.raises(ValueError):
                reference_parse(bad)

    @given(polys)
    def test_text_roundtrip_is_bit_exact(self, p):
        assert reference_parse(str(p)) == p

    @given(polys)
    def test_json_roundtrip_is_bit_exact(self, p):
        data = p.to_json()
        assert all(isinstance(c, str) for c in data)
        assert Poly.from_json(data) == p

    def test_json_is_ascending_strings(self):
        assert Poly([4, 12, 12, 8]).to_json() == ["4", "12", "12", "8"]
        assert Poly.from_json(["4", "12", "12", "8"]) == Poly([4, 12, 12, 8])
        assert ZERO.to_json() == []

    def test_json_accepts_plain_ints(self):
        assert Poly.from_json([1, "-2", 3]) == Poly([1, -2, 3])

    @pytest.mark.parametrize("bad", [
        "12", ("1",), {"0": "1"},                     # not a list
        [1.7, 1], [True, 1], [None], ["1", 2.0],      # not an int or a string
        ["1.7"], [" 1"], ["1_0"], ["+1"], ["0x1"], [""], ["\u0661"],  # not a decimal string
    ])
    def test_json_refuses_loose_coefficients(self, bad):
        with pytest.raises(ValueError):
            Poly.from_json(bad)

    def test_big_coefficients_survive_json(self):
        p = Poly([10 ** 40, -(3 ** 90)])
        assert Poly.from_json(p.to_json()) == p
