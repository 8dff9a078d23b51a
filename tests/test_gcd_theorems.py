"""Closed-form gcd results checked against the brute-force Z[x] oracle.

Every closed form here has an independent check: oracle_gcd builds the two
terms explicitly and runs the generic polynomial gcd, so the closed forms
never get to grade their own homework.  Frozen examples pin the individual
branch outputs; grid sweeps then compare branch selection wholesale.
"""

from __future__ import annotations

import math
import random
from itertools import product

import pytest

import gfpoly.gcd_theorems as gcd_theorems_module
from gfpoly import polyring
from gfpoly.families import BUILTIN, VALID, Family, Kind, NotEquivalentError, builtin_family, random_pair, sequence
from gfpoly.gcd_theorems import (
    GcdCase,
    GcdReport,
    closed_gcd,
    compare,
    gcd_fib_closed,
    gcd_lucas_closed,
    gcd_mixed_closed,
    gcd_with_initial,
    iter_table,
    min_even_index,
    oracle_gcd,
    two_adic_valuation,
)
from gfpoly.polyring import ONE, Poly, poly_gcd_z

FIB = builtin_family("fibonacci")
LUC = builtin_family("lucas")


def _random_pairs() -> list[tuple[Family, Family]]:
    rng = random.Random(7)
    return [random_pair(rng, f"r{i}") for i in range(10)]


def _coupled_lucas(name: str, d: Poly, g: Poly, p0: int) -> Family:
    """The Lucas-kind family over (d, g) with constant p0 and 2 * p1 = p0 * d."""
    return Family(name, Kind.LUCAS, d, g, Poly([p0]), Poly(c * p0 // 2 for c in d.coeffs))


# Coupled families with |p0| = 2, each with its min_even_index.  The first
# three have odd content(d) and d^2 - g with even coefficients, so period 3;
# the last has even content(d) and every term even, like pell-lucas, which
# makes it invalid.
HAND_MADE_LUCAS = [
    (_coupled_lucas("2x+1", Poly([1, 2]), ONE, 2), 3),
    (_coupled_lucas("x+1", Poly([1, 1]), Poly([1, 0, 1]), 2), 3),
    (_coupled_lucas("2x-1", Poly([-1, 2]), Poly([3, 2]), -2), 3),
    (_coupled_lucas("4x", Poly([0, 4]), ONE, 2), 1),
]


class TestTwoAdicValuation:
    def test_values(self):
        assert [two_adic_valuation(n) for n in range(1, 13)] == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2]
        assert two_adic_valuation(1 << 20) == 20

    def test_rejects_nonpositive(self):
        for bad in (0, -1, -8):
            with pytest.raises(ValueError):
                two_adic_valuation(bad)

    def test_doubling_law(self):
        for n in range(1, 200):
            assert two_adic_valuation(2 * n) == two_adic_valuation(n) + 1
            assert two_adic_valuation(2 * n + 1) == 0


class TestFibonacciGcd:
    def test_frozen_examples(self):
        assert gcd_fib_closed(FIB, 4, 6) == Poly([0, 1])
        assert gcd_fib_closed(FIB, 3, 9) == Poly([1, 0, 1])
        assert gcd_fib_closed(FIB, 5, 7) == ONE
        assert gcd_fib_closed(FIB, 6, 6) == Poly([0, 3, 0, 4, 0, 1])

    def test_matches_oracle_on_grid(self):
        for name in ("fibonacci", "jacobsthal", "paper-2x1-fib"):
            f = builtin_family(name)
            for m in range(1, 13):
                for n in range(m, 13):
                    assert gcd_fib_closed(f, m, n) == oracle_gcd(f, f, m, n), (name, m, n)

    def test_sign_normalized_even_for_negative_leading(self):
        # chebyshev2 terms alternate sign patterns; gcd output must have a
        # positive leading coefficient regardless
        f = builtin_family("chebyshev2")
        for m, n in [(3, 6), (4, 6), (5, 10), (6, 9)]:
            got = gcd_fib_closed(f, m, n)
            assert got.leading > 0
            assert got == oracle_gcd(f, f, m, n)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="fibonacci-type"):
            gcd_fib_closed(LUC, 2, 3)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            gcd_fib_closed(FIB, 0, 3)


class TestLucasGcd:
    def test_equal_valuation_branch(self):
        got, case = gcd_lucas_closed(LUC, 3, 9)
        assert got == Poly([0, 3, 0, 1])
        assert case is GcdCase.LUCAS_EQUAL_E2

    def test_unequal_valuation_branch_value_one(self):
        got, case = gcd_lucas_closed(LUC, 2, 4)
        assert got == ONE
        assert case is GcdCase.LUCAS_UNEQUAL_E2

    def test_unequal_valuation_branch_value_two(self):
        f = builtin_family("paper-2x1-lucas")
        got, case = gcd_lucas_closed(f, 3, 6)
        assert got == Poly([2])
        assert case is GcdCase.LUCAS_UNEQUAL_E2
        assert oracle_gcd(f, f, 3, 6) == Poly([2])

    def test_unequal_result_is_constant_one_or_two(self):
        for name in ("lucas", "fermat-lucas", "jacobsthal-lucas", "paper-2x1-lucas"):
            f = builtin_family(name)
            for m in range(1, 13):
                for n in range(m, 13):
                    if two_adic_valuation(m) == two_adic_valuation(n):
                        continue
                    got, _ = gcd_lucas_closed(f, m, n)
                    assert got.coeffs in ((1,), (2,)), (name, m, n, got)

    def test_matches_oracle_on_grid(self):
        for name in ("lucas", "pell-lucas-prime", "chebyshev1", "paper-2x1-lucas"):
            f = builtin_family(name)
            for m in range(1, 13):
                for n in range(m, 13):
                    got, _ = gcd_lucas_closed(f, m, n)
                    assert got == oracle_gcd(f, f, m, n), (name, m, n)

    def test_gcd_with_initial_values(self):
        assert gcd_with_initial(LUC, 1) == ONE
        assert gcd_with_initial(builtin_family("paper-2x1-lucas"), 3) == Poly([2])
        assert gcd_with_initial(builtin_family("paper-2x1-lucas"), 2) == ONE
        with pytest.raises(ValueError):
            gcd_with_initial(FIB, 2)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="lucas-type"):
            gcd_lucas_closed(FIB, 2, 3)

    @pytest.mark.parametrize("family, period", HAND_MADE_LUCAS, ids=lambda v: getattr(v, "name", v))
    def test_hand_made_p0_two_families_match_oracle(self, family, period):
        assert family.is_valid is (period == 3)
        assert min_even_index(family) == period
        fib = Family(f"{family.name}.fib", Kind.FIBONACCI, family.d, family.g, Poly(), ONE)
        for m, n in product(range(1, 13), repeat=2):
            got, _ = gcd_lucas_closed(family, m, n)
            assert got == oracle_gcd(family, family, m, n), (m, n)
            if family.is_valid:  # the mixed theorem needs the side conditions
                got, _ = gcd_mixed_closed(fib, family, m, n)
                assert got == oracle_gcd(fib, family, m, n), (m, n)

    def test_otherwise_value_is_the_gcd_with_p0(self):
        # The parity rule against the gcd it replaces, on every Lucas-kind
        # built-in (pell-lucas among them), the hand-made families and 200
        # random partners; the period is the first n where that gcd is 2.
        rng = random.Random(1)
        families = [f for f in BUILTIN.values() if f.kind is Kind.LUCAS]
        families += [family for family, _ in HAND_MADE_LUCAS]
        families += [random_pair(rng, f"r{i}")[1] for i in range(200)]
        twos = 0
        periods = set()
        for family in families:
            t = sequence(family).term
            even = []
            for n in range(1, 31):
                got = gcd_with_initial(family, n)
                assert got == poly_gcd_z(t(n), family.p0), (family.name, n)
                if got == Poly([2]):
                    even.append(n)
            period = min_even_index(family)
            assert period == min(even, default=None), family.name
            periods.add(period)
            twos += len(even)
        assert twos > 30
        assert periods == {None, 1, 3}

    def test_otherwise_branches_build_no_term_and_take_no_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the 'otherwise' value needs no term and no gcd")

        assert "poly_gcd_z" not in vars(gcd_theorems_module)
        monkeypatch.setattr(gcd_theorems_module, "sequence", refuse)
        monkeypatch.setattr(polyring, "poly_gcd_z", refuse)
        assert gcd_lucas_closed(LUC, 3000, 4500) == (ONE, GcdCase.LUCAS_UNEQUAL_E2)
        assert gcd_mixed_closed(FIB, LUC, 1, 2) == (ONE, GcdCase.MIXED_OTHERWISE)
        paper = builtin_family("paper-2x1-lucas")
        assert gcd_lucas_closed(paper, 6, 9) == (Poly([2]), GcdCase.LUCAS_UNEQUAL_E2)
        assert min_even_index(paper) == 3


class TestMixedGcd:
    def test_dominant_branch(self):
        got, case = gcd_mixed_closed(FIB, LUC, 4, 2)
        assert got == Poly([2, 0, 1])
        assert case is GcdCase.MIXED_DOMINANT
        assert oracle_gcd(FIB, LUC, 4, 2) == Poly([2, 0, 1])

    def test_otherwise_branch(self):
        got, case = gcd_mixed_closed(FIB, LUC, 3, 6)
        assert got == ONE
        assert case is GcdCase.MIXED_OTHERWISE

    def test_equal_valuations_take_otherwise_branch(self):
        _, case = gcd_mixed_closed(FIB, LUC, 6, 2)
        assert case is GcdCase.MIXED_OTHERWISE

    def test_matches_oracle_on_grid(self):
        pairs = [("fibonacci", "lucas"), ("jacobsthal", "jacobsthal-lucas"),
                 ("paper-2x1-fib", "paper-2x1-lucas")]
        for fib_name, lucas_name in pairs:
            fib = builtin_family(fib_name)
            lucas = builtin_family(lucas_name)
            for m in range(1, 13):
                for n in range(1, 13):
                    got, _ = gcd_mixed_closed(fib, lucas, m, n)
                    assert got == oracle_gcd(fib, lucas, m, n), (fib_name, m, n)

    def test_orientation_matters(self):
        # feeding the Lucas index where the Fibonacci index belongs must
        # break on some pairs; (m, n) = (4, 2) is one
        fib, lucas = FIB, LUC
        swapped, _ = gcd_mixed_closed(fib, lucas, 2, 4)
        assert swapped != oracle_gcd(fib, lucas, 4, 2)

    def test_requires_matching_recurrence(self):
        with pytest.raises(NotEquivalentError):
            gcd_mixed_closed(FIB, builtin_family("pell-lucas-prime"), 2, 3)

    def test_requires_correct_kinds(self):
        with pytest.raises(ValueError):
            gcd_mixed_closed(LUC, FIB, 2, 3)


class TestClosedGcd:
    def test_renamed_inline_copy_gets_the_closed_form(self):
        copy = Family.from_json({**LUC.to_json(), "name": "my-lucas"})
        for m, n in ((6, 9), (4, 6), (3, 9)):
            assert closed_gcd(LUC, copy, m, n) == gcd_lucas_closed(LUC, m, n)
            assert closed_gcd(copy, LUC, m, n) == gcd_lucas_closed(LUC, m, n)

    def test_other_initial_values_have_no_closed_form(self):
        # Same kind and (d, g) as lucas, but p0 = -2 and p1 = -x.
        negated = Family.from_json({"name": "neg-lucas", "kind": "lucas", "d": ["0", "1"],
                                    "g": ["1"], "p0": ["-2"], "p1": ["0", "-1"]})
        assert negated.is_valid
        assert closed_gcd(LUC, negated, 6, 9) is None
        assert closed_gcd(negated, LUC, 6, 9) is None

    def test_mixed_pair_in_either_order(self):
        for m in range(1, 13):
            for n in range(1, 13):
                expected = gcd_mixed_closed(FIB, LUC, m, n)
                assert closed_gcd(FIB, LUC, m, n) == expected
                assert closed_gcd(LUC, FIB, n, m) == expected

    def test_calls_the_theorems_through_module_globals(self, monkeypatch):
        # Per-layer tracing rebinds these names in the module; a reference
        # captured at import time would bypass it.
        seen = []
        for name in ("gcd_fib_closed", "gcd_lucas_closed", "gcd_mixed_closed"):
            real = getattr(gcd_theorems_module, name)

            def spy(*args, name=name, real=real):
                seen.append(name)
                return real(*args)

            monkeypatch.setattr(gcd_theorems_module, name, spy)
        closed_gcd(FIB, FIB, 4, 6)
        closed_gcd(LUC, LUC, 4, 6)
        closed_gcd(LUC, FIB, 4, 6)
        assert seen == ["gcd_fib_closed", "gcd_lucas_closed", "gcd_mixed_closed"]


class TestCompare:
    def test_agreeing_report(self):
        closed, case = gcd_lucas_closed(LUC, 3, 9)
        report = compare(LUC, LUC, 3, 9, closed, case)
        assert report.agrees
        assert report.closed_form == report.oracle == Poly([0, 3, 0, 1])

    def test_disagreeing_report(self):
        report = compare(FIB, FIB, 4, 6, Poly([7]), GcdCase.FIB_STRONG)
        assert not report.agrees
        assert report.oracle == Poly([0, 1])

    def test_oracle_refuses_negative_indices(self):
        assert oracle_gcd(FIB, LUC, 0, 0) == Poly([2])
        for m, n in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError):
                oracle_gcd(FIB, LUC, m, n)

    def test_json_shape(self):
        report = GcdReport(3, 9, Poly([0, 1]), Poly([0, 1]), True, GcdCase.FIB_STRONG)
        assert report.to_json() == {
            "m": 3,
            "n": 9,
            "case_tag": "FibStrong",
            "closed_form": ["0", "1"],
            "oracle": ["0", "1"],
            "agrees": True,
        }

    def test_fields_cannot_be_set(self):
        report = compare(FIB, FIB, 2, 4, *closed_gcd(FIB, FIB, 2, 4))
        for name in ("m", "n", "closed_form", "oracle", "agrees", "case", "extra"):
            with pytest.raises(AttributeError):
                setattr(report, name, 0)
        assert (report.m, report.n, report.agrees) == (2, 4, True)

    def test_repr(self):
        report = compare(FIB, FIB, 2, 4, *closed_gcd(FIB, FIB, 2, 4))
        assert repr(report) == (
            "GcdReport(m=2, n=4, closed_form=Poly('x'), oracle=Poly('x'), "
            "agrees=True, case=<GcdCase.FIB_STRONG: 'FibStrong'>)")


class TestMinEvenIndex:
    def test_paper_2x1(self):
        assert min_even_index(builtin_family("paper-2x1-lucas")) == 3

    def test_period_one_when_every_term_is_even(self):
        # The invalid pell-lucas has gcd(L[1], p0) = gcd(2x, 2) = 2.
        assert min_even_index(BUILTIN["pell-lucas"]) == 1

    def test_families_without_even_gcd(self):
        # p0 = 1 families can never reach 2; the classical Lucas family has
        # odd content(d) and d^2 - g = x^2 - 1 with odd coefficients
        assert min_even_index(builtin_family("chebyshev1")) is None
        assert min_even_index(builtin_family("lucas")) is None

    def test_jacobsthal_lucas(self):
        # terms have constant coefficient 1, so the gcd with p0 = 2 stays 1
        assert min_even_index(builtin_family("jacobsthal-lucas")) is None

    def test_multiples_characterization(self):
        # where the minimum exists, gcd(L[n], p0) = 2 exactly at its multiples
        f = builtin_family("paper-2x1-lucas")
        k = min_even_index(f)
        for n in range(1, 25):
            expect = Poly([2]) if n % k == 0 else ONE
            assert gcd_with_initial(f, n) == expect, n

    def test_preconditions(self):
        with pytest.raises(ValueError):
            min_even_index(FIB)


class TestClosedFormsOnRandomPairs:
    def test_match_oracle_and_otherwise_value_follows_min_even_index(self):
        # A random Lucas partner can have gcd(L[d], p0) = 2, so the 'otherwise'
        # value must agree with the oracle, not with table 4's value 1: it is 2
        # exactly when min_even_index divides gcd(m, n).
        two = Poly([2])
        points = otherwise = twos = 0
        for fib, lucas in _random_pairs():
            k = min_even_index(lucas)
            for fa, fb in ((fib, fib), (lucas, lucas), (fib, lucas), (lucas, fib)):
                for m in range(1, 13):
                    for n in range(1, 13):
                        value, case = closed_gcd(fa, fb, m, n)
                        assert value == oracle_gcd(fa, fb, m, n), (fa.name, fb.name, m, n)
                        points += 1
                        if case in (GcdCase.LUCAS_UNEQUAL_E2, GcdCase.MIXED_OTHERWISE):
                            even = k is not None and math.gcd(m, n) % k == 0
                            assert value == (two if even else ONE), (fa.name, fb.name, m, n, k)
                            otherwise += 1
                            twos += even
        assert (points, otherwise) == (5760, 2880)
        assert 0 < twos < otherwise


class TestIterTable:
    def test_reports_match_a_fresh_compare_at_every_point(self):
        # r1's Lucas partner has min_even_index 3, so table 4 has points
        # whose closed form, like the oracle, is 2 and not table 4's value 1.
        fib, lucas = _random_pairs()[1]
        assert min_even_index(lucas) == 3
        for table, (fa, fb) in {3: (fib, fib), 4: (lucas, lucas), 5: (fib, lucas)}.items():
            reports = list(iter_table(fa, fb, 8))
            assert [(r.m, r.n) for r in reports] == list(product(range(1, 9), repeat=2))
            for r in reports:
                assert r == compare(fa, fb, r.m, r.n, *closed_gcd(fa, fb, r.m, r.n)), (table, r.m, r.n)
                assert r.agrees, (table, r.m, r.n)
            if table == 4:
                assert Poly([2]) in {r.closed_form for r in reports}


class TestStrongDivisibilityCharacterization:
    def test_lucas_type_initial_values_break_strong_divisibility(self):
        # The converse half, checked empirically: every valid Lucas-type
        # family here has some 1 <= m < n <= 4 with gcd(L[m], L[n]) != L[gcd(m, n)].
        lucas_families = [f for f in VALID if f.kind is Kind.LUCAS]
        lucas_families += [lucas for _, lucas in _random_pairs()]
        for family in lucas_families:
            t = sequence(family).term
            assert any(poly_gcd_z(t(m), t(n)) != t(math.gcd(m, n)).normalized()
                       for n in range(2, 5) for m in range(1, n)), family.name

    def test_divisibility_ladder(self):
        # m | n forces F[m] | F[n]; the quotient has integer coefficients
        from gfpoly.polyring import exact_div
        t = sequence(FIB).term
        for m in range(1, 7):
            for k in range(1, 5):
                assert exact_div(t(m * k), t(m)) is not None, (m, k)

    def test_gcd_index_reduction(self):
        # gcd runs through index gcd even when m, n are coprime to each other
        for m in range(1, 10):
            for n in range(1, 10):
                if math.gcd(m, n) == 1:
                    assert oracle_gcd(FIB, FIB, m, n) == ONE, (m, n)
