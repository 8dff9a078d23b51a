"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS line naming
what was established (visible with -s, or as the test's own pass/fail line
under -v).  All arithmetic is exact, so "tolerance" everywhere means
bit-identical equality.  Budgets are enforced with wall-clock asserts.
"""

from __future__ import annotations

import math
import random
import time

from gfpoly.families import SequenceCache, builtin_family, random_pair, sequence
from gfpoly.gcd_theorems import (
    GcdCase,
    gcd_fib_closed,
    gcd_lucas_closed,
    gcd_mixed_closed,
    min_even_index,
    oracle_gcd,
    two_adic_valuation,
)
from gfpoly.identities import IDENTITY_GROUPS, iter_reports
from gfpoly.polyring import ONE, Poly, poly_gcd_z

FIB_ROWS = ("fibonacci", "pell", "fermat", "chebyshev2", "jacobsthal", "morgan-voyce-b")
LUCAS_ROWS = ("lucas", "pell-lucas-prime", "fermat-lucas", "chebyshev1",
              "jacobsthal-lucas", "morgan-voyce-c")
PAIRS = tuple(zip(FIB_ROWS, LUCAS_ROWS)) + (("paper-2x1-fib", "paper-2x1-lucas"),)
GRID = 24


def test_criterion_1_fibonacci_grid_matches_oracle():
    start = time.monotonic()
    total = 0
    for name in FIB_ROWS:
        family = builtin_family(name)
        for m in range(1, GRID + 1):
            for n in range(1, GRID + 1):
                assert gcd_fib_closed(family, m, n) == oracle_gcd(family, family, m, n), (name, m, n)
                total += 1
    elapsed = time.monotonic() - start
    assert total == 6 * GRID * GRID == 3456
    assert elapsed < 30
    print(f"PASS: criterion 1 - strong divisibility closed form matches the oracle "
          f"on all {total} grid points across 6 families ({elapsed:.1f}s)")


def test_criterion_2_lucas_grid_matches_oracle_with_unit_otherwise():
    start = time.monotonic()
    total = equal = unequal = 0
    for name in LUCAS_ROWS:
        family = builtin_family(name)
        for m in range(1, GRID + 1):
            for n in range(1, GRID + 1):
                closed, case = gcd_lucas_closed(family, m, n)
                assert closed == oracle_gcd(family, family, m, n), (name, m, n)
                total += 1
                if case is GcdCase.LUCAS_EQUAL_E2:
                    equal += 1
                else:
                    unequal += 1
                    assert closed == ONE, (name, m, n, closed)
    elapsed = time.monotonic() - start
    assert total == 3456
    assert (equal, unequal) == (6 * 194, 6 * 382)
    assert elapsed < 30
    print(f"PASS: criterion 2 - Lucas closed form matches the oracle on {total} grid "
          f"points; all {unequal} unequal-valuation gcds are exactly 1 ({elapsed:.1f}s)")


def test_criterion_3_mixed_grid_matches_oracle_and_orientation_is_essential():
    start = time.monotonic()
    total = dominant = otherwise = 0
    swapped_mismatches = {}
    for fib_name, lucas_name in zip(FIB_ROWS, LUCAS_ROWS):
        fib, lucas = builtin_family(fib_name), builtin_family(lucas_name)
        wrong = 0
        for m in range(1, GRID + 1):
            for n in range(1, GRID + 1):
                closed, case = gcd_mixed_closed(fib, lucas, m, n)
                oracle = oracle_gcd(fib, lucas, m, n)
                assert closed == oracle, (fib_name, m, n)
                total += 1
                if case is GcdCase.MIXED_DOMINANT:
                    dominant += 1
                else:
                    otherwise += 1
                swapped, _ = gcd_mixed_closed(fib, lucas, n, m)
                wrong += swapped != oracle
        assert wrong > 0, fib_name
        swapped_mismatches[fib_name] = wrong
    elapsed = time.monotonic() - start
    assert total == 3456
    assert (dominant, otherwise) == (6 * 191, 6 * 385)
    assert elapsed < 30
    worst = ", ".join(f"{k}={v}" for k, v in swapped_mismatches.items())
    print(f"PASS: criterion 3 - mixed-pair closed form matches the oracle on {total} "
          f"grid points, both branches hit; swapping the index roles breaks it "
          f"({worst}) ({elapsed:.1f}s)")


def test_criterion_4_content_two_family_characterization():
    family = builtin_family("paper-2x1-lucas")
    assert min_even_index(family) == 3
    seq = sequence(family).term
    checked = twos = 0
    for m in range(1, 19):
        for n in range(1, 19):
            closed, case = gcd_lucas_closed(family, m, n)
            assert closed == oracle_gcd(family, family, m, n), (m, n)
            d = math.gcd(m, n)
            allowed = {ONE, Poly([2]), seq(d).normalized()}
            assert closed in allowed, (m, n, closed)
            is_two = closed == Poly([2])
            expect_two = two_adic_valuation(m) != two_adic_valuation(n) and d % 3 == 0
            assert is_two == expect_two, (m, n)
            checked += 1
            twos += is_two
    assert twos > 0
    print(f"PASS: criterion 4 - content-2 family: first even-gcd index is 3 and the "
          f"gcd equals 2 exactly when valuations differ and 3 divides gcd(m, n) "
          f"({checked} pairs, {twos} of them giving 2)")


def test_criterion_5_naive_lucas_closed_form_is_falsified():
    lucas_names = LUCAS_ROWS + ("paper-2x1-lucas",)
    for name in lucas_names:
        family = builtin_family(name)
        seq = sequence(family).term
        mismatches = 0
        for m in range(1, 9):
            for n in range(1, 9):
                naive = seq(math.gcd(m, n)).normalized()
                if naive != oracle_gcd(family, family, m, n):
                    mismatches += 1
        assert mismatches > 0, name
        witness = seq(2).normalized()
        assert witness != oracle_gcd(family, family, 2, 4), name
    print(f"PASS: criterion 5 - the unconditional L[gcd(m, n)] formula fails for all "
          f"{len(lucas_names)} Lucas-type families, with (m, n) = (2, 4) as witness")


def _witness_soundness(report, fresh_terms):
    """Re-derive the dividend from an independent cache and re-check."""
    if report.identity_id == "dic2-decompose":
        m, q, r = report.params
        idx = m * q + r
    elif report.identity_id == "dic2-pow2":
        n, r = report.params
        idx = 2 ** n * r
    elif report.identity_id == "odd-divisor":
        m, q = report.params
        idx = m
        assert report.witness * fresh_terms(m // q) == report.lhs
    else:
        return
    assert report.witness is not None
    assert report.lhs == fresh_terms(idx)
    assert report.rhs == report.lhs


def test_criterion_6_identity_catalog_passes_builtin_and_random():
    start = time.monotonic()
    builtin_count = 0
    for fib_name, lucas_name in PAIRS:
        fib, lucas = builtin_family(fib_name), builtin_family(lucas_name)
        fresh = SequenceCache(lucas.d, lucas.g, lucas.p0, lucas.p1)
        for group in IDENTITY_GROUPS:
            for report in iter_reports(group, fib, lucas, 15):
                assert report.passed, (fib_name, group, report.params)
                _witness_soundness(report, fresh.term)
                builtin_count += 1
    rng = random.Random(1009)
    random_count = 0
    for i in range(50):
        fib, lucas = random_pair(rng, f"accept-{i:03d}")
        for group in IDENTITY_GROUPS:
            for report in iter_reports(group, fib, lucas, 8):
                assert report.passed, (fib.d, fib.g, group, report.params)
                random_count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"PASS: criterion 6 - identity catalog: {builtin_count} built-in checks "
          f"(witnesses re-verified against a fresh cache) and {random_count} checks "
          f"over 50 random valid pairs, all exact ({elapsed:.1f}s)")


def _random_poly(rng: random.Random) -> Poly:
    while True:
        p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
        if not p.is_zero:
            return p


def test_criterion_7_product_gcd_decompositions():
    start = time.monotonic()
    rng = random.Random(4242)

    def coprime_quad(first_cond, second_cond):
        while True:
            p, q, r, s = (_random_poly(rng) for _ in range(4))
            if poly_gcd_z(*first_cond(p, q, r, s)) == ONE and poly_gcd_z(*second_cond(p, q, r, s)) == ONE:
                return p, q, r, s

    for _ in range(500):
        p, q, r, s = coprime_quad(lambda p, q, r, s: (p, q), lambda p, q, r, s: (r, s))
        lhs = poly_gcd_z(p * q, r * s)
        rhs = poly_gcd_z(p, r) * poly_gcd_z(p, s) * poly_gcd_z(q, r) * poly_gcd_z(q, s)
        assert lhs == rhs.normalized(), (p, q, r, s)

    for _ in range(500):
        p, q, r, s = coprime_quad(lambda p, q, r, s: (p, r), lambda p, q, r, s: (q, s))
        lhs = poly_gcd_z(p * q, r * s)
        rhs = poly_gcd_z(p, s) * poly_gcd_z(q, r)
        assert lhs == rhs.normalized(), (p, q, r, s)

    for _ in range(500):
        p, q, r, s = coprime_quad(lambda p, q, r, s: (p, q), lambda p, q, r, s: (r, s))
        z1, z2 = poly_gcd_z(p, r), poly_gcd_z(q, s)
        lhs = poly_gcd_z(p * q, r * s) * z1 * z2
        rhs = poly_gcd_z(z2 * p, z1 * s) * poly_gcd_z(z1 * q, z2 * r)
        assert lhs.normalized() == rhs.normalized(), (p, q, r, s)

    for _ in range(500):
        rpoly, spoly, tpoly = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert poly_gcd_z(rpoly, tpoly) == poly_gcd_z(rpoly, rpoly * spoly - tpoly)

    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"PASS: criterion 7 - product gcd decompositions (three forms) and the "
          f"linear-combination reduction hold on 500 random instances each ({elapsed:.1f}s)")


def test_criterion_8_integer_specialization_at_one():
    fib_numbers = [0, 1]
    lucas_numbers = [2, 1]
    for _ in range(19):
        fib_numbers.append(fib_numbers[-1] + fib_numbers[-2])
        lucas_numbers.append(lucas_numbers[-1] + lucas_numbers[-2])
    f = sequence(builtin_family("fibonacci")).term
    l = sequence(builtin_family("lucas")).term
    for n in range(21):
        assert f(n).eval_at(1) == fib_numbers[n], n
        assert l(n).eval_at(1) == lucas_numbers[n], n
    for m in range(1, 13):
        for n in range(1, 13):
            assert math.gcd(f(m).eval_at(1), f(n).eval_at(1)) == fib_numbers[math.gcd(m, n)]
    print("PASS: criterion 8 - terms specialize at x = 1 to the integer Fibonacci "
          "and Lucas numbers, and the integer gcd law agrees through n = 12")
