"""Family registry, validation, equivalence, and sequence generation.

The registry parameters are frozen here coefficient by coefficient; the
recurrence terms are checked against independently written closed forms
and hand expansions.  The gcd side conditions that every valid family must
satisfy (coprimality of d, g, and the initial values with the terms they
must stay coprime to) are swept for all built-ins.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gfpoly
from gfpoly import families
from gfpoly.families import (
    BUILTIN,
    PARTNER,
    VALID,
    Family,
    Kind,
    NoValidEquivalentError,
    SequenceCache,
    UnknownFamilyError,
    builtin_family,
    clear_sequences,
    equivalent_family,
    random_pair,
    sequence,
)
from gfpoly.gcd_theorems import closed_gcd, compare
from gfpoly.polyring import ONE, X, ZERO, Poly, exact_div, poly_gcd_z

from explicit import explicit_term

FIB_BUILTINS = ["fibonacci", "pell", "fermat", "chebyshev2", "jacobsthal",
                "morgan-voyce-b", "paper-2x1-fib"]
LUCAS_BUILTINS = ["lucas", "pell-lucas-prime", "fermat-lucas", "chebyshev1",
                  "jacobsthal-lucas", "morgan-voyce-c", "paper-2x1-lucas"]


class TestRegistry:
    def test_names(self):
        assert set(BUILTIN) == set(FIB_BUILTINS) | set(LUCAS_BUILTINS) | {"pell-lucas"}
        assert len(BUILTIN) == 15

    def test_frozen_parameters(self):
        expect = {
            # name: (kind, d, g, p0, p1)
            "fibonacci": (Kind.FIBONACCI, (0, 1), (1,), (), (1,)),
            "lucas": (Kind.LUCAS, (0, 1), (1,), (2,), (0, 1)),
            "pell": (Kind.FIBONACCI, (0, 2), (1,), (), (1,)),
            "pell-lucas": (Kind.LUCAS, (0, 2), (1,), (2,), (0, 2)),
            "pell-lucas-prime": (Kind.LUCAS, (0, 2), (1,), (1,), (0, 1)),
            "fermat": (Kind.FIBONACCI, (0, 3), (-2,), (), (1,)),
            "fermat-lucas": (Kind.LUCAS, (0, 3), (-2,), (2,), (0, 3)),
            "chebyshev2": (Kind.FIBONACCI, (0, 2), (-1,), (), (1,)),
            "chebyshev1": (Kind.LUCAS, (0, 2), (-1,), (1,), (0, 1)),
            "jacobsthal": (Kind.FIBONACCI, (1,), (0, 2), (), (1,)),
            "jacobsthal-lucas": (Kind.LUCAS, (1,), (0, 2), (2,), (1,)),
            "morgan-voyce-b": (Kind.FIBONACCI, (2, 1), (-1,), (), (1,)),
            "morgan-voyce-c": (Kind.LUCAS, (2, 1), (-1,), (2,), (2, 1)),
            "paper-2x1-fib": (Kind.FIBONACCI, (1, 2), (1,), (), (1,)),
            "paper-2x1-lucas": (Kind.LUCAS, (1, 2), (1,), (2,), (1, 2)),
        }
        assert set(expect) == set(BUILTIN)
        for name, (kind, d, g, p0, p1) in expect.items():
            f = builtin_family(name)
            assert (f.kind, f.d.coeffs, f.g.coeffs, f.p0.coeffs, f.p1.coeffs) == (kind, d, g, p0, p1), name

    def test_partner_pairs_the_valid_builtins(self):
        pairs = {
            "fibonacci": "lucas",
            "pell": "pell-lucas-prime",
            "fermat": "fermat-lucas",
            "chebyshev2": "chebyshev1",
            "jacobsthal": "jacobsthal-lucas",
            "morgan-voyce-b": "morgan-voyce-c",
            "paper-2x1-fib": "paper-2x1-lucas",
        }
        assert PARTNER == {**pairs, **{lucas: fib for fib, lucas in pairs.items()}}
        assert len(PARTNER) == 14
        assert all(PARTNER[PARTNER[name]] == name for name in PARTNER)
        assert "pell-lucas" not in PARTNER

    def test_valid_is_the_registry_minus_pell_lucas_in_order(self):
        assert VALID == tuple(f for name, f in BUILTIN.items() if name != "pell-lucas")

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            builtin_family("tribonacci")

    def test_all_but_pell_lucas_valid(self):
        for name, family in BUILTIN.items():
            if name == "pell-lucas":
                assert not family.is_valid
            else:
                assert family.is_valid, (name, family.violations())


class TestPublicNamespace:
    def test_all_has_no_duplicates(self):
        assert len(gfpoly.__all__) == len(set(gfpoly.__all__))

    def test_every_export_resolves(self):
        for name in gfpoly.__all__:
            assert hasattr(gfpoly, name), name

    def test_all_is_the_module_lists(self):
        modules = (gfpoly.polyring, gfpoly.families, gfpoly.gcd_theorems, gfpoly.identities)
        lists = [module.__all__ for module in modules]
        assert gfpoly.__all__ == [name for names in lists for name in names] + ["__version__"]
        assert sum(map(len, lists)) == len(set().union(*lists))
        for module in modules:
            for name in module.__all__:
                assert getattr(gfpoly, name) is getattr(module, name), (module.__name__, name)


class TestValidation:
    def test_pell_lucas_fails_coprimality(self):
        problems = builtin_family("pell-lucas").violations()
        assert "gcd(p0, d) != 1" in problems
        assert not any("gcd(p0, p1)" in p for p in problems)

    def test_one_rule_is_gcd_p0_p1_under_the_coupling(self):
        # With |p0| = 1 both gcds are 1; with |p0| = 2 the coupling makes
        # p1 = +-d.  So the one rule gcd(p0, d) = 1 refuses exactly the
        # coupled families whose gcd(p0, p1) is not 1.
        seen = set()
        for p0 in (1, -1, 2, -2):
            for d in (ONE, Poly([2]), X, Poly([0, 2]), Poly([1, 2]), Poly([2, 4]),
                      Poly([6, 0, 4]), Poly([3, 0, 1])):
                p1 = exact_div(d * p0, Poly([2]))
                if p1 is None:
                    continue
                family = Family("coupled", Kind.LUCAS, d, ONE, Poly([p0]), p1)
                refused = "gcd(p0, d) != 1" in family.violations()
                assert refused == (poly_gcd_z(family.p0, p1) != ONE), (p0, d)
                seen.add(refused)
        assert seen == {True, False}

    def test_zero_d(self):
        f = Family("bad", Kind.FIBONACCI, ZERO, ONE, ZERO, ONE)
        assert "d must be nonzero" in f.violations()

    def test_zero_g(self):
        f = Family("bad", Kind.FIBONACCI, X, ZERO, ZERO, ONE)
        assert "g must be nonzero" in f.violations()

    def test_non_coprime_d_g(self):
        f = Family("bad", Kind.FIBONACCI, Poly([0, 2]), Poly([0, 0, 4]), ZERO, ONE)
        assert "gcd(d, g) != 1" in f.violations()

    def test_fibonacci_start_enforced(self):
        f = Family("bad", Kind.FIBONACCI, X, ONE, ONE, ONE)
        assert "p0 must be 0" in f.violations()
        f = Family("bad", Kind.FIBONACCI, X, ONE, ZERO, X)
        assert "p1 must be 1" in f.violations()

    def test_lucas_p0_magnitude(self):
        f = Family("bad", Kind.LUCAS, Poly([0, 2]), ONE, Poly([3]), Poly([0, 3]))
        assert any("absolute value 1 or 2" in p for p in f.violations())
        f = Family("bad", Kind.LUCAS, X, ONE, X, X)
        assert any("constant" in p for p in f.violations())

    def test_lucas_coupling(self):
        f = Family("bad", Kind.LUCAS, X, ONE, Poly([2]), Poly([0, 3]))
        assert "2*p1 must equal p0*d" in f.violations()

    def test_negative_p0_allowed(self):
        f = Family("neg", Kind.LUCAS, X, ONE, Poly([-2]), Poly([0, -1]))
        assert f.is_valid
        assert f.alpha() == -1

    def test_valid_families_have_no_violations(self):
        assert builtin_family("lucas").violations() == []
        assert builtin_family("fermat-lucas").violations() == []
        assert builtin_family("jacobsthal-lucas").violations() == []


class TestAlphaAndDiscriminant:
    def test_alpha_values(self):
        assert builtin_family("lucas").alpha() == 1
        assert builtin_family("pell-lucas-prime").alpha() == 2
        assert builtin_family("chebyshev1").alpha() == 2
        assert builtin_family("jacobsthal-lucas").alpha() == 1

    def test_alpha_wrong_kind(self):
        with pytest.raises(ValueError, match="Lucas-type"):
            builtin_family("fibonacci").alpha()

    def test_alpha_times_p0_is_two(self):
        for name in LUCAS_BUILTINS:
            f = builtin_family(name)
            assert f.p0 * f.alpha() == Poly([2])

    def test_discriminants(self):
        cases = {
            "fibonacci": (4, 0, 1),       # x^2 + 4
            "pell": (4, 0, 4),            # 4x^2 + 4
            "fermat": (-8, 0, 9),         # 9x^2 - 8
            "chebyshev1": (-4, 0, 4),     # 4x^2 - 4
            "jacobsthal": (1, 8),         # 8x + 1
            "morgan-voyce-b": (0, 4, 1),  # x^2 + 4x
            "paper-2x1-lucas": (5, 4, 4), # 4x^2 + 4x + 5
        }
        for name, coeffs in cases.items():
            assert builtin_family(name).discriminant() == Poly(coeffs), name

    def test_equivalent_pair_shares_discriminant(self):
        for fib_name, lucas_name in [("fibonacci", "lucas"), ("fermat", "fermat-lucas")]:
            assert builtin_family(fib_name).discriminant() == builtin_family(lucas_name).discriminant()


class TestIsEquivalent:
    def test_opposite_kind_over_the_same_recurrence(self):
        fib, lucas = builtin_family("fibonacci"), builtin_family("lucas")
        assert fib.is_equivalent(lucas) and lucas.is_equivalent(fib)

    def test_same_kind_is_not_equivalent(self):
        fib = builtin_family("fibonacci")
        assert not fib.is_equivalent(fib)
        assert not builtin_family("pell-lucas").is_equivalent(builtin_family("pell-lucas-prime"))

    def test_other_d_or_g_is_not_equivalent(self):
        fib = builtin_family("fibonacci")
        assert not fib.is_equivalent(builtin_family("pell-lucas-prime"))  # other d
        assert not builtin_family("pell").is_equivalent(builtin_family("chebyshev1"))  # other g

    def test_initial_values_and_names_do_not_matter(self):
        odd = Family("odd", Kind.LUCAS, X, ONE, Poly([-1]), Poly([0, -1]))
        assert builtin_family("fibonacci").is_equivalent(odd)


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(Poly)


class TestEquivalentFamily:
    def test_builtin_pairs_resolve_to_registry(self):
        for fib_name, lucas_name in [
            ("fibonacci", "lucas"),
            ("pell", "pell-lucas-prime"),
            ("fermat", "fermat-lucas"),
            ("chebyshev2", "chebyshev1"),
            ("jacobsthal", "jacobsthal-lucas"),
            ("morgan-voyce-b", "morgan-voyce-c"),
            ("paper-2x1-fib", "paper-2x1-lucas"),
        ]:
            assert equivalent_family(builtin_family(fib_name)).name == lucas_name
            assert equivalent_family(builtin_family(lucas_name)).name == fib_name
            assert PARTNER[fib_name] == lucas_name
            assert PARTNER[lucas_name] == fib_name

    def test_prefers_p0_two(self):
        f = Family("odd-d", Kind.FIBONACCI, Poly([1, 0, 3]), Poly([2]), ZERO, ONE)
        partner = equivalent_family(f)
        assert partner.kind is Kind.LUCAS
        assert partner.p0 == Poly([2])
        assert partner.p1 == f.d
        assert partner.is_valid

    def test_falls_back_to_p0_one_for_even_d(self):
        # even content in d rules out p0 = 2, as with pell -> pell-lucas-prime
        f = Family("even-d", Kind.FIBONACCI, Poly([2, 4]), Poly([1, 1]), ZERO, ONE)
        partner = equivalent_family(f)
        assert partner.p0 == ONE
        assert partner.p1 == Poly([1, 2])
        assert partner.alpha() == 2
        assert partner.is_valid

    def test_lucas_to_fibonacci(self):
        partner = equivalent_family(builtin_family("morgan-voyce-c"))
        assert partner.kind is Kind.FIBONACCI
        assert (partner.p0, partner.p1) == (ZERO, ONE)

    def test_roundtrip_for_synthetic_family(self):
        f = Family("synthetic", Kind.FIBONACCI, Poly([1, 0, 3]), Poly([2]), ZERO, ONE)
        back = equivalent_family(equivalent_family(f))
        assert (back.kind, back.d, back.g, back.p0, back.p1) == (f.kind, f.d, f.g, f.p0, f.p1)

    def test_builtin_name_of_the_other_kind_is_not_its_own_partner(self):
        # A Lucas-type family that borrows the name "fibonacci" pairs with a
        # Fibonacci-type family, not with the built-in lucas.
        f = Family("fibonacci", Kind.LUCAS, X, ONE, Poly([2]), X)
        partner = equivalent_family(f)
        assert partner.kind is Kind.FIBONACCI
        assert (partner.d, partner.g) == (X, ONE)

    @settings(max_examples=200)
    @given(small_polys, small_polys)
    def test_every_valid_fibonacci_family_has_a_partner(self, d, g):
        # content(d) odd: p0 = 2, p1 = d; even: p0 = 1, p1 = d / 2.
        f = Family("drawn", Kind.FIBONACCI, d, g, ZERO, ONE)
        assume(f.is_valid)
        partner = equivalent_family(f)
        assert partner.kind is Kind.LUCAS and partner.is_valid
        assert (partner.d, partner.g) == (d, g)
        assert (partner.p0 == Poly([2])) == (d.content() % 2 == 1)

    def test_invalid_input_has_no_partner(self):
        broken = Family("broken", Kind.FIBONACCI, ZERO, ZERO, ZERO, ONE)
        with pytest.raises(NoValidEquivalentError):
            equivalent_family(broken)


class TestSequences:
    def test_fibonacci_terms(self):
        t = sequence(builtin_family("fibonacci")).term
        expect = [(), (1,), (0, 1), (1, 0, 1), (0, 2, 0, 1), (1, 0, 3, 0, 1), (0, 3, 0, 4, 0, 1)]
        for n, coeffs in enumerate(expect):
            assert t(n).coeffs == coeffs, n

    def test_lucas_terms(self):
        t = sequence(builtin_family("lucas")).term
        expect = [(2,), (0, 1), (2, 0, 1), (0, 3, 0, 1), (2, 0, 4, 0, 1)]
        for n, coeffs in enumerate(expect):
            assert t(n).coeffs == coeffs, n

    def test_2x1_lucas_terms(self):
        t = sequence(builtin_family("paper-2x1-lucas")).term
        assert t(0) == Poly([2])
        assert t(1) == Poly([1, 2])
        assert t(2) == Poly([3, 4, 4])
        assert t(3) == Poly([4, 12, 12, 8])
        assert t(3).content() == 4
        # hand factorization: 4(2x + 1)(x^2 + x + 1)
        assert t(3) == Poly([1, 2]) * Poly([1, 1, 1]) * 4

    def test_fermat_lucas_terms(self):
        t = sequence(builtin_family("fermat-lucas")).term
        assert t(2) == Poly([-4, 0, 9])
        assert t(3) == Poly([0, -18, 0, 27])

    def test_chebyshev_terms_satisfy_cos_identity(self):
        # T_n(cos t) = cos nt pins both Chebyshev kinds at integer points
        # via the recurrences; spot check the classical expansions.
        t1 = sequence(builtin_family("chebyshev1")).term
        t2 = sequence(builtin_family("chebyshev2")).term
        assert t1(2) == Poly([-1, 0, 2])
        assert t1(3) == Poly([0, -3, 0, 4])
        assert t1(4) == Poly([1, 0, -8, 0, 8])
        assert t2(3) == Poly([-1, 0, 4])
        assert t2(4) == Poly([0, -4, 0, 8])

    def test_jacobsthal_terms(self):
        t = sequence(builtin_family("jacobsthal")).term
        assert t(2) == ONE
        assert t(3) == Poly([1, 2])
        assert t(4) == Poly([1, 4])
        assert t(5) == Poly([1, 6, 4])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sequence(builtin_family("fibonacci")).term(-1)

    def test_cache_is_shared_and_consistent(self):
        f = builtin_family("pell")
        assert sequence(f) is sequence(f)
        fresh = fresh_cache(f)
        for n in range(0, 30):
            assert fresh.term(n) == sequence(f).term(n)

    def test_clear_sequences_gives_a_new_cache_with_equal_terms(self):
        f = builtin_family("fibonacci")
        before = sequence(f)
        term = before.term(40)
        clear_sequences()
        after = sequence(f)
        assert after is not before
        assert after.term(40) == term

    def test_recurrence_linearity(self):
        for name in ("fibonacci", "lucas", "jacobsthal-lucas", "paper-2x1-fib"):
            f = builtin_family(name)
            t = sequence(f).term
            for n in range(2, 20):
                assert t(n) == f.d * t(n - 1) + f.g * t(n - 2), (name, n)


def reference_terms(family: Family, n: int) -> list[Poly]:
    """T[0..n] by the recurrence in plain Poly arithmetic: d * t1 + g * t0."""
    terms = [family.p0, family.p1]
    while len(terms) <= n:
        terms.append(family.d * terms[-1] + family.g * terms[-2])
    return terms[:n + 1]


def _hand_made(d: list[int], g: list[int], p0: list[int], p1: list[int]) -> Family:
    # SequenceCache does not validate, so any initial values will do.
    return Family("hand-made", Kind.FIBONACCI, Poly(d), Poly(g), Poly(p0), Poly(p1))


def fresh_cache(family: Family) -> SequenceCache:
    """A new cache over family's recurrence, outside the shared registry."""
    return SequenceCache(family.d, family.g, family.p0, family.p1)


def powers_of(g: Poly) -> SequenceCache:
    """The shared cache that serves g_power: P[e] = g * P[e-1], P[0] = 1."""
    return families._shared(g.coeffs, ZERO.coeffs, ONE.coeffs, g.coeffs)


@contextmanager
def patched_retained(retained: int):
    """RETAINED patched, in a registry cleared before and after, so no
    shared cache built under the patch outlives it."""
    clear_sequences()
    try:
        with mock.patch.object(families, "RETAINED", retained):
            yield
    finally:
        clear_sequences()


# Interior zeros, +-1 and negative leading coefficients all come up.
_small = st.lists(st.sampled_from([-3, -1, 0, 1, 2]), min_size=1, max_size=4)
any_family = st.one_of(
    st.sampled_from(list(BUILTIN.values())),
    st.integers(0, 999).map(lambda seed: random_pair(random.Random(seed), "r")[seed % 2]),
    st.builds(_hand_made, _small, _small, _small, _small),
)


class TestRetainedPrefixAndTail:
    """SequenceCache against reference_terms and explicit_term, across the
    end of the prefix."""

    @settings(max_examples=200, deadline=None)
    @given(any_family, st.integers(1, 8), st.lists(st.integers(0, 30), min_size=1, max_size=10))
    @example(_hand_made([0, 1, 0, -1], [-1, 0, 2], [], [1]), 4, [20, 5, 12, 4, 5, 30, 6])
    @example(_hand_made([1, -3, 0, -1], [0, 0, -1], [2], [-1, 0, 1]), 1, [9, 2, 1, 0, 10, 3])
    def test_matches_reference(self, family, retained, indices):
        want = reference_terms(family, max(indices))
        with patched_retained(retained):
            cache = fresh_cache(family)
            for n in indices:
                assert cache.term(n) == want[n] == explicit_term(family, n), n

    @pytest.mark.parametrize("name", list(BUILTIN))
    def test_builtins_out_of_order_across_the_prefix_end(self, name):
        family = builtin_family(name)
        want = reference_terms(family, 700)
        # The explicit sums cost O(n^2) each, so they check the prefix end
        # and the restarted tail only.
        explicit = {n: explicit_term(family, n) for n in (5, 256, 258)}
        cache = fresh_cache(family)
        for n in (600, 300, 700, 5, 257, 256, 258):
            got = cache.term(n)
            assert got == want[n], n
            assert got == explicit.get(n, got), n

    @pytest.mark.parametrize("name", list(BUILTIN))
    def test_shared_prefix_matches_explicit_sums(self, name):
        family = builtin_family(name)
        t = sequence(family).term
        for n in range(41):
            assert t(n) == explicit_term(family, n), n

    def test_prefix_stops_growing_at_retained(self):
        with patched_retained(10):
            cache = fresh_cache(builtin_family("lucas"))
            cache.term(50)
            assert len(cache._prefix) == 11
            assert cache._tail[0] == 50

    def test_renamed_copy_shares_the_cache(self):
        lucas = builtin_family("lucas")
        copy = Family.from_json({**lucas.to_json(), "name": "my-lucas"})
        assert sequence(copy) is sequence(lucas)

    @pytest.mark.parametrize("rebuilt_first", [False, True])
    def test_equal_but_distinct_recurrence_polys_share_the_cache(self, rebuilt_first):
        # One side's recurrence is registered before the other's is looked up.
        clear_sequences()
        fib = builtin_family("fibonacci")
        rebuilt = Family("fib-again", fib.kind, X * ONE, ONE + ZERO, Poly([0, 0]), Poly((1, 0)))
        for a, b in zip((fib.d, fib.g, fib.p0, fib.p1), (rebuilt.d, rebuilt.g, rebuilt.p0, rebuilt.p1)):
            assert a == b and a is not b
        first, second = (rebuilt, fib) if rebuilt_first else (fib, rebuilt)
        assert sequence(second) is sequence(first)
        assert families._shared.cache_info().currsize == 1

    def test_closed_form_and_oracle_on_a_renamed_copy_leave_one_cache(self):
        clear_sequences()
        lucas = builtin_family("lucas")
        copy = Family.from_json({**lucas.to_json(), "name": "my-lucas"})
        closed, case = closed_gcd(lucas, copy, 30, 45)
        assert compare(lucas, copy, 30, 45, closed, case).agrees
        assert families._shared.cache_info().currsize == 1


class TestGPower:
    """SequenceCache.g_power against a repeated product and against
    Cassini's identity on explicit terms, across the end of the prefix."""

    FAMILIES = [*BUILTIN.values(), *(f for seed in range(4) for f in random_pair(random.Random(seed), "r"))]

    @pytest.mark.parametrize("retained", [0, 1, 6])
    def test_matches_repeated_product_below_at_and_past_retained(self, retained):
        with patched_retained(retained):
            for family in self.FAMILIES:
                want = [ONE]
                while len(want) <= retained + 3:
                    want.append(want[-1] * family.g)
                # Cassini: (-g)^e = F[e+1]^2 - F[e+2] F[e], F of start 0, 1.
                f = Family("f", Kind.FIBONACCI, family.d, family.g, ZERO, ONE)
                cassini = [explicit_term(f, e + 1) * explicit_term(f, e + 1)
                           - explicit_term(f, e + 2) * explicit_term(f, e) for e in range(retained + 4)]
                cache = fresh_cache(family)
                for e in (retained + 3, retained, 0, retained + 1, 1, retained // 2, retained):
                    assert cache.g_power(e) == want[e] == cassini[e] * (-1) ** e, (family.name, e)
                    assert len(powers_of(family.g)._prefix) <= max(retained, 1) + 1

    def test_power_prefix_fills_to_retained_and_stops(self):
        fermat = builtin_family("fermat")
        with patched_retained(6):
            cache = fresh_cache(fermat)
            cache.g_power(40)
            powers = powers_of(fermat.g)
            assert (len(powers._prefix), powers._tail[0]) == (7, 40)
            cache.g_power(6)
            assert (len(powers._prefix), powers._tail[0]) == (7, 40)

    @pytest.mark.parametrize("fib_name", FIB_BUILTINS)
    def test_equivalent_pair_shares_one_power_sequence(self, fib_name):
        fib, lucas = builtin_family(fib_name), builtin_family(PARTNER[fib_name])
        for e in (1, 2, 7, 40, families.RETAINED, families.RETAINED + 44):
            assert sequence(fib).g_power(e) is sequence(lucas).g_power(e), e

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            fresh_cache(builtin_family("fermat")).g_power(-1)


class TestCoprimalitySweeps:
    # Terms must stay coprime to g, and d-gcds alternate with parity.

    def test_gcd_d_with_odd_terms_is_first_term(self):
        for name in FIB_BUILTINS + LUCAS_BUILTINS:
            f = builtin_family(name)
            t = sequence(f).term
            for n in range(1, 11):
                got = poly_gcd_z(f.d, t(2 * n + 1))
                assert got == t(1).normalized(), (name, n, got)

    def test_gcd_d_with_even_terms(self):
        for name in LUCAS_BUILTINS:
            f = builtin_family(name)
            t = sequence(f).term
            for n in range(1, 11):
                assert poly_gcd_z(f.d, t(2 * n)) == ONE, (name, n)
        for name in FIB_BUILTINS:
            f = builtin_family(name)
            t = sequence(f).term
            for n in range(1, 11):
                assert poly_gcd_z(f.d, t(2 * n)) == f.d.normalized(), (name, n)

    def test_gcd_g_with_terms_is_one(self):
        for name in FIB_BUILTINS + LUCAS_BUILTINS:
            f = builtin_family(name)
            t = sequence(f).term
            for n in range(1, 21):
                assert poly_gcd_z(f.g, t(n)) == ONE, (name, n)

    def test_alpha_stays_coprime_to_lucas_terms(self):
        # for |p0| = 1 families alpha is 2, so every term needs odd content
        for name in LUCAS_BUILTINS:
            f = builtin_family(name)
            t = sequence(f).term
            alpha = Poly([abs(f.alpha())])
            for n in range(0, 21):
                assert poly_gcd_z(alpha, t(n)) == ONE, (name, n)


class TestFamilyJson:
    def test_roundtrip(self):
        for name in BUILTIN:
            f = builtin_family(name)
            assert Family.from_json(f.to_json()) == f

    def test_shape(self):
        data = builtin_family("paper-2x1-lucas").to_json()
        assert data == {
            "name": "paper-2x1-lucas",
            "kind": "lucas",
            "d": ["1", "2"],
            "g": ["1"],
            "p0": ["2"],
            "p1": ["1", "2"],
        }


class TestFamilyRecord:
    def test_fields_cannot_be_set(self):
        fib = BUILTIN["fibonacci"]
        for name in ("name", "kind", "d", "g", "p0", "p1", "extra"):
            with pytest.raises(AttributeError):
                setattr(fib, name, ZERO)
        assert fib.d == X and fib.name == "fibonacci"

    def test_repr(self):
        assert repr(BUILTIN["fibonacci"]) == (
            "Family(name='fibonacci', kind=<Kind.FIBONACCI: 'fibonacci'>, "
            "d=Poly('x'), g=Poly('1'), p0=Poly('0'), p1=Poly('1'))")


class TestRandomPair:
    def test_deterministic_for_seed(self):
        a = random_pair(random.Random(42), "r")
        b = random_pair(random.Random(42), "r")
        assert a == b

    def test_pairs_are_valid_and_equivalent(self):
        rng = random.Random(7)
        for i in range(30):
            fib, lucas = random_pair(rng, f"r{i}")
            assert fib.is_valid and lucas.is_valid
            assert fib.kind is Kind.FIBONACCI and lucas.kind is Kind.LUCAS
            assert (fib.d, fib.g) == (lucas.d, lucas.g)
            assert fib.d.degree <= 3 and fib.g.degree <= 3
            assert all(abs(c) <= 5 for c in fib.d.coeffs)
            assert all(abs(c) <= 5 for c in fib.g.coeffs)

    def test_never_an_integer_sequence(self):
        # Constant d and g give integer sequences, where the polynomial
        # theorems fail: d = 1, g = -2 has F[4] = F[8] = -3.
        rng = random.Random(2)
        for i in range(400):
            fib, _ = random_pair(rng, f"r{i}")
            assert fib.d.degree > 0 or fib.g.degree > 0
