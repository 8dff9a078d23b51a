"""Identity catalog checks with frozen hand-expanded examples.

Each identity gets at least one example whose both sides were expanded by
hand (or whose witness was computed by independent long division) before
being frozen here, plus sweep coverage through iter_reports.  Witness-style
reports must re-multiply exactly: a passing one's rhs is the target its
witness re-multiplied to.
"""

from __future__ import annotations

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpoly import families, identities
from gfpoly.families import (
    Family,
    Kind,
    NotEquivalentError,
    builtin_family,
    clear_sequences,
    random_pair,
    sequence,
)
from gfpoly.identities import (
    IDENTITY_GROUPS,
    IdentityReport,
    check_addition_cross,
    check_addition_laws,
    check_convolution,
    check_discriminant_laws,
    check_lucas_addition,
    decompose_mod_gm,
    decompose_pow2,
    divides_iff,
    iter_reports,
    mixed_shift_gcd,
    neighbor_gcd,
    odd_divisor_divides,
)
from gfpoly.polyring import ONE, X, ZERO, Poly, poly_gcd_z

from explicit import explicit_term

FIB = builtin_family("fibonacci")
LUC = builtin_family("lucas")
PAIRS = [
    ("fibonacci", "lucas"),
    ("pell", "pell-lucas-prime"),
    ("fermat", "fermat-lucas"),
    ("chebyshev2", "chebyshev1"),
    ("jacobsthal", "jacobsthal-lucas"),
    ("morgan-voyce-b", "morgan-voyce-c"),
    ("paper-2x1-fib", "paper-2x1-lucas"),
]


def builtin_pair(fib_name: str, lucas_name: str):
    return builtin_family(fib_name), builtin_family(lucas_name)


class TestConvolution:
    def test_frozen_example(self):
        report = check_convolution(FIB, 2, 3)
        assert report.lhs == report.rhs == Poly([0, 3, 0, 4, 0, 1])
        assert report.passed
        assert report.identity_id == "convolution"
        assert report.params == (2, 3)

    def test_wrong_kind(self):
        with pytest.raises(ValueError):
            check_convolution(LUC, 1, 1)

    def test_negative_index(self):
        # Either index alone is refused by the check, not by the term cache.
        for m, n in [(-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="^indices must be nonnegative"):
                check_convolution(FIB, m, n)


class TestAdditionLaws:
    def test_frozen_classic(self):
        minus, plus = check_addition_laws(FIB, LUC, 1, 2)
        assert minus.lhs == Poly([1, 0, 1])
        assert minus.passed and plus.passed
        assert minus.identity_id == "addition-minus"
        assert plus.identity_id == "addition-plus"
        assert minus.family == "fibonacci/lucas"

    def test_frozen_alpha_two(self):
        fib, lucas = builtin_pair("pell", "pell-lucas-prime")
        minus, plus = check_addition_laws(fib, lucas, 1, 2)
        assert minus.lhs == Poly([1, 0, 4])
        assert minus.passed and plus.passed

    def test_cross_law(self):
        report = check_addition_cross(FIB, LUC, 1, 2)
        assert report.passed
        # lhs is the doubled swing term: 2 (-g)^1 F[1] = -2
        assert report.lhs == Poly([-2])

    def test_order_enforced(self):
        for m, n in [(3, 2), (-1, 2)]:
            with pytest.raises(ValueError, match="^need 0 <= m <= n"):
                check_addition_laws(FIB, LUC, m, n)
            with pytest.raises(ValueError, match="^need 0 <= m <= n"):
                check_addition_cross(FIB, LUC, m, n)

    def test_mismatched_pair(self):
        with pytest.raises(NotEquivalentError):
            check_addition_laws(FIB, builtin_family("pell-lucas-prime"), 1, 2)


class TestDiscriminantLaws:
    def test_frozen_base_case(self):
        first, second = check_discriminant_laws(FIB, LUC, 0, 0)
        assert first.lhs == Poly([4, 0, 1])    # (x^2 + 4) F[1]
        assert second.lhs == Poly([2, 0, 1])   # L[2]
        assert first.passed and second.passed

    def test_all_pairs_spot(self):
        for fib_name, lucas_name in PAIRS:
            fib, lucas = builtin_pair(fib_name, lucas_name)
            for m, n in [(0, 0), (1, 2), (3, 3), (2, 5)]:
                first, second = check_discriminant_laws(fib, lucas, m, n)
                assert first.passed and second.passed, (fib_name, m, n)

    def test_negative_index(self):
        for m, n in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="^indices must be nonnegative"):
                check_discriminant_laws(FIB, LUC, m, n)


class TestLucasAddition:
    def test_frozen_chebyshev(self):
        f = builtin_family("chebyshev1")
        report = check_lucas_addition(f, 1, 3)
        assert report.lhs == Poly([1, 0, -8, 0, 8])
        assert report.passed

    def test_sign_alternation(self):
        # even m flips the correction sign; both parities must pass
        for m, n in [(0, 4), (1, 4), (2, 4), (3, 4)]:
            assert check_lucas_addition(LUC, m, n).passed

    def test_wrong_kind(self):
        with pytest.raises(ValueError):
            check_lucas_addition(FIB, 1, 2)

    def test_order_enforced(self):
        for m, n in [(-1, 2), (3, 2)]:
            with pytest.raises(ValueError, match="^need 0 <= m <= n"):
                check_lucas_addition(LUC, m, n)


class TestDecomposeModGm:
    def test_frozen_small(self):
        report = decompose_mod_gm(LUC, 2, 1, 1)
        assert report.lhs == Poly([0, 3, 0, 1])
        assert report.witness == Poly([0, 1])
        assert report.passed

    def test_frozen_even_q(self):
        report = decompose_mod_gm(LUC, 3, 2, 0)
        # L[6] = L[3] L[3] + g^3 L[0]
        assert report.witness == Poly([0, 3, 0, 1])
        assert report.passed

    def test_frozen_odd_q_negative_sign(self):
        report = decompose_mod_gm(LUC, 2, 3, 1)
        # L[7] = L[2] T - g^3 L[1]
        assert report.witness == Poly([0, 4, 0, 5, 0, 1])
        assert report.passed

    def test_witness_remultiplies(self):
        for lucas_name in ("lucas", "fermat-lucas", "paper-2x1-lucas"):
            lucas = builtin_family(lucas_name)
            l = sequence(lucas).term
            for m, q, r in [(1, 1, 0), (2, 2, 1), (3, 4, 2), (4, 3, 3), (5, 2, 0)]:
                report = decompose_mod_gm(lucas, m, q, r)
                assert report.passed, (lucas_name, m, q, r)
                assert report.witness is not None
                assert report.rhs == report.lhs == l(m * q + r)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="^need r < m"):
            decompose_mod_gm(LUC, 2, 1, 2)
        for m, q, r in [(0, 1, 0), (2, 0, 1), (2, 1, -1)]:
            with pytest.raises(ValueError, match="^need m >= 1, q >= 1, r >= 0"):
                decompose_mod_gm(LUC, m, q, r)
        with pytest.raises(ValueError):
            decompose_mod_gm(FIB, 2, 1, 1)


# Lucas-kind families for the dic2-pow2 relation: the valid built-ins, a few
# random partners, two valid hand-made families with negative p0, and one
# whose p0 is not a constant (outside the hypothesis; its correction takes
# L[0] = p0 whole).
POW2_FAMILIES = [
    *(builtin_family(lucas_name) for _, lucas_name in PAIRS),
    *(random_pair(random.Random(seed), f"r{seed}")[1] for seed in range(3)),
    Family("minus-one", Kind.LUCAS, Poly([0, 2]), ONE, Poly([-1]), Poly([0, -1])),
    Family("minus-two", Kind.LUCAS, X, ONE, Poly([-2]), Poly([0, -1])),
    Family("p0-x-plus-2", Kind.LUCAS, X, ONE, Poly([2, 1]), X),
]


class TestDecomposePow2:
    def test_hand_made_families_are_the_intended_ones(self):
        *valid, outside = POW2_FAMILIES[-3:]
        assert all(f.is_valid for f in valid)
        assert [f.p0.leading for f in valid] == [-1, -2]
        assert outside.p0.degree == 1

    @pytest.mark.parametrize("lucas", POW2_FAMILIES, ids=lambda f: f.name)
    def test_is_decompose_mod_gm_relabelled(self, lucas):
        for n, r in product(range(2, 5), range(1, 4)):
            relabelled = decompose_mod_gm(lucas, r, 2 ** n, 0)._replace(identity_id="dic2-pow2", params=(n, r))
            assert decompose_pow2(lucas, n, r) == relabelled, (n, r)

    def test_frozen_lucas(self):
        report = decompose_pow2(LUC, 2, 1)
        assert report.lhs == Poly([2, 0, 4, 0, 1])
        assert report.witness == Poly([0, 4, 0, 1])
        assert report.passed

    def test_frozen_chebyshev(self):
        report = decompose_pow2(builtin_family("chebyshev1"), 2, 1)
        assert report.witness == Poly([0, -8, 0, 8])
        assert report.passed

    def test_various_indices(self):
        for lucas_name in ("lucas", "jacobsthal-lucas", "paper-2x1-lucas"):
            lucas = builtin_family(lucas_name)
            for n, r in [(2, 1), (2, 3), (3, 1), (4, 1)]:
                report = decompose_pow2(lucas, n, r)
                assert report.passed, (lucas_name, n, r)
                assert report.witness is not None

    def test_preconditions(self):
        with pytest.raises(ValueError, match="^need n >= 2"):
            decompose_pow2(LUC, 1, 1)
        with pytest.raises(ValueError, match="^need r >= 1"):
            decompose_pow2(LUC, 2, 0)
        with pytest.raises(ValueError):
            decompose_pow2(FIB, 2, 1)


class TestDividesIff:
    def test_divides_with_witness(self):
        report = divides_iff(FIB, 3, 9)
        assert report.passed
        assert report.witness is not None
        assert report.witness * report.rhs == report.lhs

    def test_simple_quotient(self):
        report = divides_iff(FIB, 2, 4)
        assert report.witness == Poly([2, 0, 1])

    def test_not_divisible(self):
        report = divides_iff(FIB, 4, 6)
        assert report.passed
        assert report.witness is None

    def test_unit_divisor_is_vacuous(self):
        # jacobsthal has J[2] = 1, so divisibility holds even though 2 does
        # not divide 3; the biconditional is waived for unit divisors
        report = divides_iff(builtin_family("jacobsthal"), 2, 3)
        assert report.passed
        assert report.witness == Poly([1, 2])

    def test_monic_or_constant_non_unit_divisor_counts(self):
        # gcd(d, g) != 1 breaks the theorem: F[2] divides F[3] though 2 does
        # not divide 3, and F[2] is x (monic) or 2 (constant), not a unit.
        for d, g in [(X, X), (Poly([2]), Poly([2]))]:
            report = divides_iff(Family("shared-factor", Kind.FIBONACCI, d, g, ZERO, ONE), 2, 3)
            assert report.witness is not None and not report.passed, d

    def test_full_grid_fibonacci(self):
        for m in range(1, 13):
            for n in range(1, 13):
                assert divides_iff(FIB, m, n).passed, (m, n)

    def test_zero_divisor_divides_only_zero(self):
        # d = 1, g = -1 runs 0, 1, 1, 0, -1, -1, 0: F[3] = F[6] = 0.
        fib = Family.from_json({"name": "period-6", "kind": "fibonacci", "d": ["1"], "g": ["-1"],
                                "p0": [], "p1": ["1"]})
        assert [sequence(fib).term(n) for n in range(7)] == [Poly([c]) for c in (0, 1, 1, 0, -1, -1, 0)]
        for m in (3, 6):
            for n in range(1, 7):
                report = divides_iff(fib, m, n)
                assert report.passed and report.witness is None, (m, n)

    def test_positive_indices_required(self):
        for m, n in [(0, 3), (3, 0)]:
            with pytest.raises(ValueError, match="^indices must be positive"):
                divides_iff(FIB, m, n)

    def test_only_if_half_needs_a_polynomial_sequence(self):
        # d = 1, g = -2 is an integer sequence with F[4] = F[8] = -3, so F[8]
        # divides F[4] though 8 does not divide 4: the report is a true failure.
        fib = Family("int", Kind.FIBONACCI, ONE, Poly([-2]), ZERO, ONE)
        assert sequence(fib).term(4) == sequence(fib).term(8) == Poly([-3])
        report = divides_iff(fib, 8, 4)
        assert report.passed is False
        assert report.witness == ONE


class TestOddDivisor:
    def test_frozen_example(self):
        report = odd_divisor_divides(LUC, 6, 3)
        assert report.witness == Poly([1, 0, 4, 0, 1])
        assert report.passed
        assert report.rhs == report.lhs

    def test_q_one_is_trivial(self):
        report = odd_divisor_divides(LUC, 5, 1)
        assert report.passed
        assert report.witness == ONE

    def test_all_odd_divisors(self):
        for lucas_name in ("lucas", "chebyshev1", "paper-2x1-lucas"):
            lucas = builtin_family(lucas_name)
            for m in range(1, 19):
                for q in range(1, m + 1, 2):
                    if m % q == 0:
                        assert odd_divisor_divides(lucas, m, q).passed, (lucas_name, m, q)

    def test_bad_divisors(self):
        for q in (2, 5, 0, -3):  # even, not a divisor, zero, negative
            with pytest.raises(ValueError, match="^q must be an odd divisor of m"):
                odd_divisor_divides(LUC, 6, q)
        with pytest.raises(ValueError, match="^m must be positive"):
            odd_divisor_divides(LUC, 0, 1)
        with pytest.raises(ValueError):
            odd_divisor_divides(FIB, 6, 3)


class TestWitnessRule:
    def test_wrong_witness_fails_every_witness_identity(self, monkeypatch):
        # A witness must re-multiply to the target; finding one is not enough.
        monkeypatch.setattr(identities, "exact_div", lambda num, den: ONE)
        reports = [decompose_mod_gm(LUC, 3, 2, 1), decompose_pow2(LUC, 2, 3), odd_divisor_divides(LUC, 9, 3)]
        for report in reports:
            assert report.witness == ONE
            assert report.passed is False, report.identity_id


def counting_divisions():
    """Patch identities.exact_div with a wrapper; the list grows per call."""
    calls = []
    real = identities.exact_div

    def counted(num, den):
        calls.append((num, den))
        return real(num, den)

    return mock.patch.object(identities, "exact_div", counted), calls


# Lucas-kind families whose p1 + 1 breaks the addition law, so most
# dic2-decompose points have no witness: d = x, g = 1, p0 = 2, p1 = x + 1,
# and two seeded random partners with p1 + 1.
BENT_FAMILIES = [
    Family("bent", Kind.LUCAS, X, ONE, Poly([2]), Poly([1, 1])),
    *(lucas._replace(name=f"{lucas.name}-bent", p1=lucas.p1 + ONE)
      for lucas in (random_pair(random.Random(seed), f"r{seed}")[1] for seed in (0, 1))),
]


class TestDecomposeSweep:
    """The sweep walks one witness pair and one target pair by the
    recurrence, with an addition-law kick at each odd row; decompose_mod_gm
    divides.  Every report must be the same, field for field."""

    def test_builtin_pairs_match_division_without_dividing(self):
        # k = 17 walks each row to L[305], past the RETAINED terms a cache keeps.
        assert 17 * 17 + 16 > families.RETAINED
        for fib_name, lucas_name in PAIRS:
            fib, lucas = builtin_pair(fib_name, lucas_name)
            patch, calls = counting_divisions()
            with patch:
                reports = list(iter_reports("dic2-decompose", fib, lucas, 17))
            assert calls == [], fib_name
            for report in reports:
                assert report == decompose_mod_gm(lucas, *report.params), (fib_name, report.params)
            for report in random.Random(fib_name).sample(reports, 4):
                m, q, r = report.params
                assert report.lhs == explicit_term(lucas, m * q + r), (fib_name, report.params)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 999), k=st.integers(1, 8), retained=st.integers(0, 40))
    def test_random_pairs_match_division_at_any_retained_prefix(self, seed, k, retained):
        fib, lucas = random_pair(random.Random(seed), "r")
        patch, calls = counting_divisions()
        # No shared cache built under the patched prefix outlives it.
        clear_sequences()
        try:
            with mock.patch.object(families, "RETAINED", retained):
                with patch:
                    reports = list(iter_reports("dic2-decompose", fib, lucas, k))
                # Both pairs are walked, not looked up, so no point divides at any prefix.
                assert calls == []
                for report in reports:
                    assert report.passed, report.params
                    assert report == decompose_mod_gm(lucas, *report.params), report.params
                for report in random.Random(seed).sample(reports, min(2, len(reports))):
                    m, q, r = report.params
                    assert report.lhs == explicit_term(lucas, m * q + r), report.params
        finally:
            clear_sequences()

    @pytest.mark.parametrize("bent", BENT_FAMILIES, ids=lambda family: family.name)
    def test_failing_family_gets_the_division_reports(self, bent):
        reports = list(iter_reports("dic2-decompose", FIB, bent, 6))
        assert any(report.witness is None for report in reports)
        for report in reports:
            assert report == decompose_mod_gm(bent, *report.params), report.params

    def test_zero_divisor_raises_what_decompose_mod_gm_raises(self):
        # d = 2, g = -2 and L[0] = L[1] = 1 give L[2] = 0.
        zero = Family("zero", Kind.LUCAS, Poly([2]), Poly([-2]), Poly([1]), Poly([1]))
        assert sequence(zero).term(2).is_zero
        with pytest.raises(ZeroDivisionError) as direct:
            decompose_mod_gm(zero, 2, 1, 0)
        reports = []
        with pytest.raises(ZeroDivisionError, match=f"^{direct.value}$"):
            reports.extend(iter_reports("dic2-decompose", FIB, zero, 3))
        assert [report.params for report in reports] == [(1, 1, 0), (1, 2, 0), (1, 3, 0)]

    @pytest.mark.parametrize("m, q, r", [(1, 1, 0), (3, 2, 1), (4, 5, 0), (5, 3, 4)])
    def test_wrong_candidate_falls_back_to_division(self, m, q, r):
        report = decompose_mod_gm(LUC, m, q, r)
        seq = sequence(LUC)
        e, i, sign = identities._correction(m, q, r)
        divisor, correction = seq.term(m), (seq.g_power(e), seq.term(i), sign)
        assert identities._remultiplies(divisor, report.witness, *correction, report.lhs)
        for candidate in (ONE, Poly([0, 1])):
            assert not identities._remultiplies(divisor, candidate, *correction, report.lhs)
            assert identities._decomposition("dic2-decompose", LUC.name, (m, q, r), report.lhs, divisor,
                                             *correction, candidate) == report

    @pytest.mark.parametrize("divisor, witness, power, low", [
        (Poly([3]), ZERO, Poly([1]), Poly([0, 1])),  # zero witness
        (Poly([0, 1]), Poly([0, 1]), Poly([1]), ZERO),  # zero correction
        (Poly([0, 1]), Poly([0, 1]), Poly([-1]), Poly([0, 0, 1])),  # the sum cancels to zero
        (Poly([2]), Poly([-5]), Poly([-2]), Poly([7])),  # constants
        (Poly([0, 3, 0, 1]), Poly([2, 0, 4, 0, 1]), Poly([0, 0, 4]), Poly([0, 1, 0, 1])),  # parity-sparse
        (Poly([1, 2]), Poly([2, 0, 0, 0, 0, 0, 1]), Poly([0, 0, 0, 0, 0, 0, 0, 0, 8]), Poly([-1, 2])),  # correction longer
        (Poly([1, -2, 3]), Poly([4, 5, -6, 7]), Poly([1, 1, 1, 1]), Poly([2, -3, 5, -7, 11])),  # dense
    ])
    def test_remultiplies_agrees_with_poly_arithmetic(self, divisor, witness, power, low):
        for sign in (1, -1):
            rhs = divisor * witness + power * low * sign
            assert identities._remultiplies(divisor, witness, power, low, sign, rhs)
            # Off in the constant, one term longer, one term shorter.
            for other in (rhs + ONE, rhs + Poly([0] * len(rhs.coeffs) + [1]), Poly(rhs.coeffs[:-1])):
                assert other == rhs or not identities._remultiplies(divisor, witness, power, low, sign, other)
            # A zero divisor never re-multiplies, not even to the correction
            # alone, so that exact division raises on it.
            assert not identities._remultiplies(ZERO, witness, power, low, sign, power * low * sign)

    def test_sweep_asks_the_shared_lucas_cache_for_no_term_past_k(self, monkeypatch):
        # The targets L[mq+r] reach L[k*k + k - 1]; the sweep walks them
        # itself, and divides a miss from the walked target.
        asked = []
        term = families.SequenceCache.term
        monkeypatch.setattr(families.SequenceCache, "term", lambda cache, n: asked.append((cache, n)) or term(cache, n))
        pairs = [(*builtin_pair(fib_name, lucas_name), 14) for fib_name, lucas_name in PAIRS]
        for fib, lucas, k in [*pairs, (FIB, BENT_FAMILIES[0], 6)]:
            clear_sequences()
            reports = list(iter_reports("dic2-decompose", fib, lucas, k))
            assert max(report.params[0] * report.params[1] + report.params[2] for report in reports) == k * k + k - 1
            seq = sequence(lucas)
            assert max(n for cache, n in asked if cache is seq) <= k, lucas.name
            asked.clear()


class TestNeighborGcd:
    def test_lucas_both_odd(self):
        report = neighbor_gcd(LUC, 3, 5)
        assert report.rhs == Poly([0, 1])
        assert report.passed

    def test_fib_both_even(self):
        report = neighbor_gcd(FIB, 2, 4)
        assert report.rhs == Poly([0, 1])
        assert report.passed

    def test_mixed_parity_is_one(self):
        assert neighbor_gcd(FIB, 2, 3).rhs == ONE
        assert neighbor_gcd(LUC, 4, 5).rhs == ONE

    def test_lucas_both_even_is_one(self):
        report = neighbor_gcd(LUC, 4, 6)
        assert report.rhs == ONE
        assert report.passed

    def test_sweep_all_builtins(self):
        for fib_name, lucas_name in PAIRS:
            for family in builtin_pair(fib_name, lucas_name):
                for m in range(1, 17):
                    for n in (m + 1, m + 2):
                        assert neighbor_gcd(family, m, n).passed, (family.name, m, n)

    def test_distance_enforced(self):
        for m, n in [(2, 5), (5, 2), (3, 3)]:
            with pytest.raises(ValueError, match="^indices must differ by 1 or 2"):
                neighbor_gcd(FIB, m, n)
        for m, n in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="^indices must be positive"):
                neighbor_gcd(FIB, m, n)


class TestMixedShift:
    def test_part_counts(self):
        assert len(mixed_shift_gcd(FIB, LUC, 2, 2)) == 1
        assert len(mixed_shift_gcd(FIB, LUC, 5, 2)) == 2
        assert len(mixed_shift_gcd(FIB, LUC, 2, 5)) == 2

    def test_frozen_low_shift(self):
        reports = mixed_shift_gcd(FIB, LUC, 1, 3)
        assert [r.identity_id for r in reports] == ["mixed-shift-1", "mixed-shift-3"]
        part3 = reports[1]
        # gcd(F[3], L[3]) against gcd(L[0], L[3]); both sides are 1 here
        assert part3.lhs == part3.rhs == ONE
        assert part3.passed

    def test_part2_example(self):
        # L[n] = F[n+1] is no Lucas-type family, so gcd(F[m+n+1], L[n]) can
        # differ from part 2's gcd(F[m-n+1], L[n]): x^2 + 1 against 1 here.
        shifted = Family("shifted", Kind.LUCAS, X, ONE, ONE, X)
        for lucas, m, n in [(LUC, 5, 2), (shifted, 3, 2)]:
            part2 = mixed_shift_gcd(FIB, lucas, m, n)[1]
            assert part2.identity_id == "mixed-shift-2"
            l = sequence(lucas).term
            f = sequence(FIB).term
            assert part2.lhs == poly_gcd_z(f(m - n + 1), l(n))
            assert part2.passed

    def test_sweep(self):
        for fib_name, lucas_name in PAIRS:
            fib, lucas = builtin_pair(fib_name, lucas_name)
            for m in range(1, 11):
                for n in range(1, 11):
                    for report in mixed_shift_gcd(fib, lucas, m, n):
                        assert report.passed, (fib_name, m, n, report.identity_id)

    def test_positive_indices(self):
        for m, n in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="^indices must be positive"):
                mixed_shift_gcd(FIB, LUC, m, n)


class TestIterReports:
    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown identity group"):
            list(iter_reports("nope", FIB, LUC, 4))

    def test_group_names_are_exhaustive(self):
        assert len(IDENTITY_GROUPS) == 11
        for group in IDENTITY_GROUPS:
            reports = list(iter_reports(group, FIB, LUC, 5))
            assert reports, group
            assert all(r.passed for r in reports), group

    def test_every_builtin_pair_passes_everything(self):
        for fib_name, lucas_name in PAIRS:
            fib, lucas = builtin_pair(fib_name, lucas_name)
            for group in IDENTITY_GROUPS:
                for report in iter_reports(group, fib, lucas, 8):
                    assert report.passed, (fib_name, group, report.params)

    def test_sweep_sizes(self):
        # grid shapes are part of the interface: verify against closed counts
        n = 6
        assert len(list(iter_reports("convolution", FIB, LUC, n))) == (n + 1) ** 2
        assert len(list(iter_reports("addition", FIB, LUC, n))) == (n + 1) * (n + 2)
        assert len(list(iter_reports("divides-iff", FIB, LUC, n))) == n * n

    def test_decompose_sweep_respects_r_bound(self):
        for report in iter_reports("dic2-decompose", FIB, LUC, 5):
            m, q, r = report.params
            assert 1 <= m <= 5 and 1 <= q <= 5 and 0 <= r < m

    def test_pow2_sweep_bounds_index(self):
        for report in iter_reports("dic2-pow2", FIB, LUC, 8):
            n, r = report.params
            assert n >= 2 and r >= 1
            assert 2 ** n * r <= 16


class TestReportJson:
    def test_equation_shape(self):
        report = check_convolution(FIB, 1, 1)
        data = report.to_json()
        assert data == {
            "identity_id": "convolution",
            "family": "fibonacci",
            "params": [1, 1],
            "pass": True,
            "lhs": ["1", "0", "1"],
            "rhs": ["1", "0", "1"],
        }
        assert "witness" not in data

    def test_witness_shape(self):
        data = decompose_pow2(LUC, 2, 1).to_json()
        assert data["witness"] == ["0", "4", "0", "1"]
        assert data["pass"] is True

    def test_failed_report_shows_pass_false(self):
        report = IdentityReport("demo", "f", (0,), ONE, Poly([2]), False)
        assert report.to_json()["pass"] is False

    def test_fields_cannot_be_set(self):
        report = check_convolution(FIB, 1, 2)
        for name in ("identity_id", "family", "params", "lhs", "rhs", "passed", "witness", "extra"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
        assert report.passed and report.witness is None

    def test_repr(self):
        assert repr(check_convolution(FIB, 1, 2)) == (
            "IdentityReport(identity_id='convolution', family='fibonacci', params=(1, 2), "
            "lhs=Poly('x^3 + 2x'), rhs=Poly('x^3 + 2x'), passed=True, witness=None)")


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 12), n=st.integers(0, 12))
def test_convolution_property(m, n):
    assert check_convolution(FIB, m, n).passed
    assert check_convolution(builtin_family("paper-2x1-fib"), m, n).passed


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 10), n=st.integers(0, 10))
def test_addition_property(m, n):
    m, n = min(m, n), max(m, n)
    fib, lucas = builtin_family("fermat"), builtin_family("fermat-lucas")
    minus, plus = check_addition_laws(fib, lucas, m, n)
    assert minus.passed and plus.passed
    assert check_addition_cross(fib, lucas, m, n).passed
    assert check_lucas_addition(lucas, m, n).passed
