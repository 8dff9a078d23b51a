"""End-to-end CLI behavior through main(argv), covering output text, JSON
shapes, exit status, and determinism.

Exit contract: 0 all good, 1 a requested check failed, 2 usage errors.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gfpoly
from gfpoly import cli, families, gcd_theorems, identities
from gfpoly.cli import TABLE_ROWS, main
from gfpoly.gcd_theorems import GcdCase
from gfpoly.polyring import ONE, Poly
from polytext import reference_parse

FIB_JSON = json.dumps({
    "name": "custom-fib", "kind": "fibonacci",
    "d": ["0", "1"], "g": ["1"], "p0": [], "p1": ["1"],
})


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def gfp_process(*argv: str, **popen_args) -> subprocess.Popen:
    """`python -m gfpoly ARGV` in a child, importing this checkout's package."""
    src = str(Path(gfpoly.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "gfpoly", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen_args,
    )


class RawJSON(str):
    """JSON text spliced into an inline family as it is."""


class TestFamilies:
    def test_lists_valid_builtins(self, capsys):
        status, out, err = run_cli(capsys, "families")
        assert status == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert not any(line.startswith("pell-lucas ") for line in lines)
        assert any(line.startswith("fibonacci") and "partner=lucas" in line for line in lines)

    def test_kind_filter(self, capsys):
        for kind, count in (("fibonacci", 7), ("lucas", 7)):
            status, out, _ = run_cli(capsys, "families", "--kind", kind)
            assert status == 0
            assert len(out.strip().splitlines()) == count

    def test_json(self, capsys):
        status, out, _ = run_cli(capsys, "families", "--json")
        assert status == 0
        rows = json.loads(out)
        assert len(rows) == 14
        by_name = {row["name"]: row for row in rows}
        assert "pell-lucas" not in by_name
        assert by_name["fibonacci"]["partner"] == "lucas"
        assert by_name["pell-lucas-prime"]["partner"] == "pell"
        assert by_name["lucas"]["d"] == ["0", "1"]
        assert set(by_name["lucas"]) == {"name", "kind", "d", "g", "p0", "p1", "partner"}


class TestTerm:
    def test_text(self, capsys):
        status, out, _ = run_cli(capsys, "term", "fibonacci", "6")
        assert status == 0
        assert out == "x^5 + 4x^3 + 3x\n"

    def test_content_heavy_term(self, capsys):
        status, out, _ = run_cli(capsys, "term", "paper-2x1-lucas", "3")
        assert status == 0
        assert out == "8x^3 + 12x^2 + 12x + 4\n"

    def test_json(self, capsys):
        status, out, _ = run_cli(capsys, "term", "fibonacci", "6", "--json")
        assert status == 0
        data = json.loads(out)
        assert data == {"family": "fibonacci", "n": 6,
                        "coeffs": ["0", "3", "0", "4", "0", "1"],
                        "text": "x^5 + 4x^3 + 3x"}

    def test_inline_json_family(self, capsys):
        status, out, _ = run_cli(capsys, "term", FIB_JSON, "5")
        assert status == 0
        assert out == "x^4 + 3x^2 + 1\n"

    def test_deep_term_runs_in_bounded_memory(self):
        # Retaining every term needed about 1 GB here and died of MemoryError.
        resource = pytest.importorskip("resource")
        cap = 256 * 2**20

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = gfp_process("term", "fibonacci", "4000", preexec_fn=limit_address_space)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        a, b = 0, 1
        for _ in range(4000):
            a, b = b, a + b
        assert reference_parse(out).eval_at(1) == a

    def test_unknown_family(self, capsys):
        status, _, err = run_cli(capsys, "term", "tribonacci", "3")
        assert status == 2
        assert "tribonacci" in err

    def test_blanks_around_the_family_are_ignored(self, capsys):
        assert run_cli(capsys, "term", " fibonacci ", "3") == (0, "x^2 + 1\n", "")
        assert run_cli(capsys, "term", f"\t{FIB_JSON} ", "5") == run_cli(capsys, "term", FIB_JSON, "5")

    def test_padded_unknown_family(self, capsys):
        status, out, err = run_cli(capsys, "term", " tribonacci\t", "3")
        assert (status, out) == (2, "")
        assert err.startswith("gfp: unknown family 'tribonacci'; known: ") and err.count("\n") == 1

    def test_invalid_builtin_rejected(self, capsys):
        status, _, err = run_cli(capsys, "term", "pell-lucas", "3")
        assert status == 2
        assert "not valid" in err

    def test_negative_index(self, capsys):
        status, _, err = run_cli(capsys, "term", "fibonacci", "-1")
        assert status == 2
        assert "nonnegative" in err

    def test_index_cap(self, capsys):
        status, _, err = run_cli(capsys, "term", "fibonacci", "10001")
        assert status == 2
        assert "cap" in err

    def test_malformed_inline_json(self, capsys):
        status, _, err = run_cli(capsys, "term", '{"name": "x"}', "3")
        assert status == 2
        assert "bad family JSON" in err

    @pytest.mark.parametrize("field, value", [
        ("name", ["a"]),        # unhashable: used to crash with a traceback
        ("name", {"a": "b"}),
        ("d", [1.7, 1]),        # used to be truncated to x + 1
        ("d", "12"),            # used to be read digit by digit as 2x + 1
        ("d", [True, 1]),
        # json.loads raises RecursionError: used to crash with a traceback
        pytest.param("name", RawJSON("[" * 5000 + "]" * 5000), id="name-nested"),
    ])
    def test_inline_json_with_wrong_types_is_refused(self, capsys, field, value):
        raw = value if isinstance(value, RawJSON) else json.dumps(value)
        family = json.dumps({**json.loads(FIB_JSON), field: None}).replace(f'"{field}": null', f'"{field}": {raw}')
        for argv in (("term", family, "5"), ("gcd", family, "3", "fibonacci", "6")):
            status, out, err = run_cli(capsys, *argv)
            assert status == 2 and out == ""
            assert err.startswith("gfp: bad family JSON: ") and err.count("\n") == 1

    def test_huge_coefficients_are_printed_in_full(self):
        # F[1100] leads with 10000^1099 = 10^4396, past the 4,300 digits that
        # CPython >= 3.10.7 converts to str by default.
        big = json.dumps({"name": "big", "kind": "fibonacci", "d": ["0", "10000"], "g": ["1"], "p0": [], "p1": ["1"]})
        lead = "1" + "0" * 4396
        for argv in (("term", big, "1100"), ("term", big, "1100", "--json"), ("gcd", big, "1100", big, "2200")):
            proc = gfp_process(*argv)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0 and err == "", err[-300:]
            if "--json" in argv:
                assert json.loads(out)["coeffs"][-1] == lead
            else:
                assert (lead + "x^1099 + ") in out

    def test_non_integer_index_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term", "fibonacci", "six"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestGcd:
    @pytest.mark.parametrize("a, b", [("lucas\t", "lucas"), ("lucas", " lucas"), (" lucas ", "\tlucas ")])
    def test_blanks_around_either_family_are_ignored(self, capsys, a, b):
        expected = run_cli(capsys, "gcd", "lucas", "3", "lucas", "9")
        assert expected[0] == 0
        assert run_cli(capsys, "gcd", a, "3", b, "9") == expected

    def test_same_family_lucas(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "lucas", "3", "lucas", "9")
        assert status == 0
        assert out == "closed form: x^3 + 3x\ncase: LucasEqualE2\n"

    def test_check_agrees(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "lucas", "3", "lucas", "9", "--check")
        assert status == 0
        assert "oracle: x^3 + 3x" in out
        assert "agrees: true" in out

    def test_unequal_e2_constant(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "paper-2x1-lucas", "3", "paper-2x1-lucas", "6")
        assert status == 0
        assert out.splitlines()[0] == "closed form: 2"
        assert "LucasUnequalE2" in out

    def test_index_at_the_cap_is_accepted(self, capsys):
        # gcd(10000, 1) = 1, so the closed form reads only F[1].
        status, out, _ = run_cli(capsys, "gcd", "fibonacci", "10000", "fibonacci", "1")
        assert status == 0
        assert out == "closed form: 1\ncase: FibStrong\n"

    def test_mixed_pair_json(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "fibonacci", "4", "lucas", "2", "--json")
        assert status == 0
        data = json.loads(out)
        assert data["case_tag"] == "MixedDominant"
        assert data["closed_form"] == ["2", "0", "1"]
        assert data["agrees"] is None

    def test_mixed_pair_reversed_arguments(self, capsys):
        # the Lucas family may come first; orientation is by kind, not position
        status, out, _ = run_cli(capsys, "gcd", "lucas", "2", "fibonacci", "4", "--json")
        assert status == 0
        data = json.loads(out)
        assert data["case_tag"] == "MixedDominant"
        assert data["closed_form"] == ["2", "0", "1"]

    def test_unrelated_families_fall_back_to_oracle(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "fibonacci", "3", "pell", "4", "--json")
        assert status == 0
        data = json.loads(out)
        assert data["case_tag"] is None
        assert data["closed_form"] is None
        assert data["oracle"] == ["1"]

    def test_index_zero_uses_oracle(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "fibonacci", "0", "fibonacci", "5")
        assert status == 0
        assert out == "oracle: x^4 + 3x^2 + 1\n"

    def test_check_json_fields(self, capsys):
        status, out, _ = run_cli(capsys, "gcd", "fibonacci", "4", "fibonacci", "6",
                                 "--check", "--json")
        assert status == 0
        data = json.loads(out)
        assert data["case_tag"] == "FibStrong"
        assert data["closed_form"] == data["oracle"] == ["0", "1"]
        assert data["agrees"] is True

    def test_bad_index(self, capsys):
        status, _, err = run_cli(capsys, "gcd", "fibonacci", "-2", "fibonacci", "3")
        assert status == 2
        assert "nonnegative" in err

    def test_check_that_disagrees_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(gcd_theorems, "gcd_lucas_closed", lambda *args: (Poly([7]), GcdCase.LUCAS_EQUAL_E2))
        status, out, _ = run_cli(capsys, "gcd", "lucas", "3", "lucas", "9", "--check")
        assert status == 1
        assert out.splitlines()[-1] == "agrees: false"


class TestVerify:
    def test_single_group_text(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--identity", "convolution",
                                 "--families", "fibonacci", "--max-index", "4")
        assert status == 0
        assert "convolution: 25 passed, 0 failed" in out
        assert "total: 25 passed, 0 failed" in out

    def test_json_lines(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--identity", "convolution",
                                 "--families", "fibonacci", "--max-index", "2", "--json")
        assert status == 0
        lines = out.strip().splitlines()
        reports = [json.loads(line) for line in lines]
        assert "summary" in reports[-1]
        assert reports[-1]["summary"]["passed"] == 9
        assert reports[-1]["summary"]["failed"] == 0
        body = reports[:-1]
        assert len(body) == 9
        assert all(r["identity_id"] == "convolution" and r["pass"] for r in body)

    def test_all_groups_over_one_pair(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--families", "paper-2x1-fib",
                                 "--max-index", "5")
        assert status == 0
        assert "0 failed" in out.strip().splitlines()[-1]
        assert len(out.strip().splitlines()) == 12  # 11 groups + total

    def test_family_list_dedupes_pairs(self, capsys):
        def verify(spec):
            status, out, _ = run_cli(capsys, "verify", "--identity", "convolution",
                                     "--families", spec, "--seed", "11", "--max-index", "3")
            assert status == 0, spec
            return out

        assert verify("fibonacci") == verify("fibonacci,lucas")
        # Spaces around the whole spec are trimmed, as around each name.
        for spec in (" random:3", " builtin", "builtin "):
            assert verify(spec) == verify(spec.strip()), spec

    def test_random_families(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--identity", "addition",
                                 "--families", "random:3", "--seed", "11",
                                 "--max-index", "4")
        assert status == 0
        assert "0 failed" in out

    def test_random_families_are_never_integer_sequences(self, capsys):
        # This seed once drew d = 1, g = -2, an integer sequence on which
        # divides-iff is false (F[4] = F[8] = -3).
        status, out, _ = run_cli(capsys, "verify", "--families", "random:20",
                                 "--seed", "2", "--max-index", "8")
        assert status == 0
        assert out.strip().splitlines()[-1].endswith(" 0 failed")

    def test_failed_report_exits_one(self, capsys, monkeypatch):
        # A witness of 1 is right only for q = 1, so (m, q) = (3, 3) fails.
        monkeypatch.setattr(identities, "exact_div", lambda num, den: ONE)
        status, out, _ = run_cli(capsys, "verify", "--identity", "odd-divisor",
                                 "--families", "lucas", "--max-index", "3")
        assert status == 1
        assert out.splitlines()[-1] == "total: 3 passed, 1 failed"

    def test_registry_holds_one_pair_at_a_time(self, capsys):
        # The last pair's Fibonacci and Lucas terms and its powers of g.
        status, _, _ = run_cli(capsys, "verify", "--families", "random:5",
                               "--seed", "7", "--max-index", "8")
        assert status == 0
        assert families._shared.cache_info().currsize <= 3

    def test_random_pairs_are_drawn_again_for_each_group(self, capsys, monkeypatch):
        # A run holds one pair at a time: each pair is drawn just before its
        # sweep, and every group draws the same pairs in the same order.
        events, drawn = [], []
        draw, sweep = cli.random_pair, cli.iter_reports

        def drawing(rng, name):
            pair = draw(rng, name)
            events.append(("draw", name))
            drawn.append(pair)
            return pair

        def sweeping(group, fib, lucas, k):
            events.append(("sweep", group, fib.name))
            return sweep(group, fib, lucas, k)

        monkeypatch.setattr(cli, "random_pair", drawing)
        monkeypatch.setattr(cli, "iter_reports", sweeping)
        status, _, _ = run_cli(capsys, "verify", "--families", "random:3", "--max-index", "2")
        assert status == 0
        names = [f"random-{i:03d}" for i in range(3)]
        assert events == [event for group in identities.IDENTITY_GROUPS for name in names
                          for event in (("draw", name), ("sweep", group, name))]
        assert drawn == drawn[:3] * len(identities.IDENTITY_GROUPS)

    @pytest.mark.parametrize("spec, message", [
        ("fibonacci,nope", "gfp: unknown family 'nope'"),
        ("fibonacci, nope\t", "gfp: unknown family 'nope'"),
        ("random:x", "gfp: bad family spec 'random:x'\n"),
    ])
    def test_bad_spec_is_refused_before_any_output(self, capsys, spec, message):
        status, out, err = run_cli(capsys, "verify", "--json", "--families", spec)
        assert (status, out) == (2, "")
        assert err.startswith(message)

    def test_closed_pipe_exits_quietly(self):
        proc = gfp_process("verify", "--json")
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert json.loads(first)["identity_id"] == "convolution"
        assert err == ""

    def test_deterministic_output(self, capsys):
        args = ("verify", "--identity", "neighbor-gcd", "--families", "random:2",
                "--seed", "5", "--max-index", "6", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_defaults_to_zero(self, capsys):
        args = ("verify", "--identity", "convolution", "--families", "random:2", "--max-index", "2", "--json")
        _, default, _ = run_cli(capsys, *args)
        _, zero, _ = run_cli(capsys, *args, "--seed", "0")
        _, one, _ = run_cli(capsys, *args, "--seed", "1")
        assert default == zero != one

    def test_unknown_identity(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--identity", "nope")
        assert status == 2
        assert "unknown identity" in err

    def test_bad_random_spec(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--families", "random:x")
        assert status == 2
        assert "bad family spec" in err
        status, _, err = run_cli(capsys, "verify", "--families", "random:0")
        assert status == 2
        status, _, err = run_cli(capsys, "verify", "--families", "random:2:1")
        assert status == 2
        assert "bad family spec" in err

    @pytest.mark.parametrize("count", ["10001", "99999999999"])
    def test_random_count_is_capped(self, count):
        # The cap bounds time: each group draws and sweeps every pair again.
        proc = gfp_process("verify", "--families", f"random:{count}", "--max-index", "1")
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 2
        assert out == ""
        assert err == f"gfp: random family count {count} exceeds the cap of 10000\n"

    def test_random_count_at_the_cap_is_accepted(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--identity", "dic2-pow2",
                                 "--families", "random:10000", "--max-index", "1")
        assert status == 0
        assert out.splitlines()[-1] == "total: 10000 passed, 0 failed"

    def test_bad_max_index(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--max-index", "0")
        assert status == 2
        assert "max-index" in err

    @pytest.mark.parametrize("argv, status", [
        (("--max-index", "100"), 2),
        (("--identity", "odd-divisor", "--families", "fibonacci", "--max-index", "99"), 0),
    ])
    def test_max_index_keeps_terms_under_the_cap(self, argv, status):
        # dic2-decompose reads L[k*k + k - 1]: 9,899 at k = 99, 10,099 at k = 100.
        proc = gfp_process("verify", *argv)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == status
        if status == 2:
            assert err == "gfp: --max-index 100 needs term index 10099, past the cap of 10000\n"

    def test_empty_family_list(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--families", " , ")
        assert status == 2
        assert "no families" in err

    def test_inline_json_family(self, capsys):
        # The spec is one family, commas of its JSON included.
        neg = json.dumps({"name": "neg", "kind": "lucas", "d": ["0", "1"], "g": ["1"],
                          "p0": ["-2"], "p1": ["0", "-1"]})
        status, out, err = run_cli(capsys, "verify", "--families", neg, "--max-index", "6", "--json")
        assert (status, err) == (0, "")
        reports = [json.loads(line) for line in out.splitlines()[:-1]]
        assert {r["family"] for r in reports} >= {"neg", "neg.fib/neg"}
        assert all(r["pass"] for r in reports)

    def test_help_names_the_inline_json_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "one inline JSON family" in help_text

    def test_malformed_inline_json_family(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--families", '{"name": "neg", "kind"}')
        assert (status, out) == (2, "")
        assert err.startswith("gfp: bad family JSON: ")


class TestTable:
    def test_table3_text(self, capsys):
        status, out, _ = run_cli(capsys, "table", "3", "--max-index", "6")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all("36/36 agree" in line for line in lines)
        assert lines[0].startswith("table 3 | fibonacci:")

    def test_table4_json(self, capsys):
        status, out, _ = run_cli(capsys, "table", "4", "--max-index", "6", "--json")
        assert status == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["row"] for row in rows] == [
            "lucas", "pell-lucas-prime", "fermat-lucas", "chebyshev1",
            "jacobsthal-lucas", "morgan-voyce-c"]
        for row in rows:
            assert row["agree"] == row["total"] == 36
            seen, expected = row["unequal_e2_equal_one"]
            assert seen == expected > 0
            assert row["cases"]["LucasEqualE2"] + row["cases"]["LucasUnequalE2"] == 36

    def test_table5_rows_are_pairs(self, capsys):
        status, out, _ = run_cli(capsys, "table", "5", "--max-index", "5", "--json")
        assert status == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["row"] == "fibonacci/lucas"
        for row in rows:
            assert row["agree"] == row["total"] == 25
            assert set(row["cases"]) <= {"MixedDominant", "MixedOtherwise"}
            assert row["cases"]["MixedDominant"] > 0

    @pytest.mark.parametrize("table, per_row", [(3, 6 * 7 // 2), (4, 6 * 7 // 2), (5, 6 * 6)])
    def test_oracle_runs_once_per_unordered_pair_of_one_family(self, capsys, monkeypatch, table, per_row):
        # Tables 3 and 4 reuse the oracle of (n, m) at (m, n); table 5 pairs two families.
        calls = []
        oracle_gcd = gcd_theorems.oracle_gcd
        monkeypatch.setattr(gcd_theorems, "oracle_gcd", lambda *args: calls.append(args) or oracle_gcd(*args))
        status, out, _ = run_cli(capsys, "table", str(table), "--max-index", "6", "--json")
        assert status == 0
        assert all(json.loads(line)["agree"] == 36 for line in out.splitlines())
        assert len(calls) == per_row * len(TABLE_ROWS)
        if table != 5:
            assert all(m <= n for _, _, m, n in calls)

    def test_row_that_disagrees_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(gcd_theorems, "gcd_fib_closed", lambda *args: Poly([7]))
        status, out, _ = run_cli(capsys, "table", "3", "--max-index", "4")
        assert status == 1
        assert all("0/16 agree" in line for line in out.splitlines())

    def test_unequal_e2_value_one_must_also_match_the_oracle(self, capsys, monkeypatch):
        # A wrong theorem that answers 1 everywhere agrees only where the
        # oracle is 1, even though every point then carries table 4's value.
        monkeypatch.setattr(gcd_theorems, "gcd_lucas_closed", lambda *args: (ONE, GcdCase.LUCAS_UNEQUAL_E2))
        status, out, _ = run_cli(capsys, "table", "4", "--max-index", "4", "--json")
        assert status == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(row["row"], row["agree"]) for row in rows] == [
            ("lucas", 10), ("pell-lucas-prime", 10), ("fermat-lucas", 10), ("chebyshev1", 10),
            ("jacobsthal-lucas", 13), ("morgan-voyce-c", 10)]
        assert all(row["unequal_e2_equal_one"] == [16, 16] for row in rows)

    def test_table4_without_unequal_e2_points(self, capsys):
        status, out, _ = run_cli(capsys, "table", "4", "--max-index", "1", "--json")
        assert status == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == len(TABLE_ROWS)
        for row in rows:
            assert row["cases"] == {"LucasEqualE2": 1}
            assert row["unequal_e2_equal_one"] == [0, 0]

    def test_max_index_cap(self, capsys):
        status, _, err = run_cli(capsys, "table", "3", "--max-index", "65")
        assert status == 2
        assert "1..64" in err
        status, _, _ = run_cli(capsys, "table", "3", "--max-index", "0")
        assert status == 2

    def test_max_index_at_the_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_ROWS", ("fibonacci",))
        status, out, _ = run_cli(capsys, "table", "3", "--max-index", "64")
        assert status == 0
        assert "4096/4096 agree" in out

    def test_max_index_defaults_to_24(self, capsys):
        status, out, _ = run_cli(capsys, "table", "3")
        assert status == 0
        assert "576/576 agree" in out
        assert run_cli(capsys, "table", "3", "--max-index", "24") == (status, out, "")

    def test_invalid_table_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "6"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestImport:
    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # Every gfp process pays for this import before any work; dataclasses
        # alone pulled in inspect, ast, dis and tokenize.  A bare interpreter's
        # own modules (site may preload some) are subtracted.
        src = str(Path(gfpoly.__file__).resolve().parents[1])

        def modules_after(statement: str) -> set[str]:
            code = f"{statement}; import sys; print(*sys.modules)"
            out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                                 capture_output=True, text=True, check=True, timeout=60).stdout
            return set(out.split())

        added = modules_after("import gfpoly.cli") - modules_after("pass")
        assert "gfpoly.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"}

    def test_package_imports_only_the_standard_library(self):
        # Five verbs run in a fresh interpreter, so that pytest's own modules do not count.
        code = textwrap.dedent("""
            import contextlib, io, sys
            before = set(sys.modules)
            from gfpoly.cli import main
            for argv in (["verify", "--max-index", "3"], ["table", "5", "--max-index", "3"],
                         ["gcd", "fibonacci", "4", "lucas", "2", "--check"],
                         ["families", "--json"], ["term", "fibonacci", "30", "--json"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
            print(*{name.partition(".")[0] for name in set(sys.modules) - before})
        """)
        src = str(Path(gfpoly.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120).stdout
        imported = set(out.split())
        assert "gfpoly" in imported
        assert imported - set(sys.stdlib_module_names) - {"gfpoly"} == set()

    def test_no_module_imports_another_modules_underscore_name(self):
        package = Path(gfpoly.__file__).resolve().parent
        private = [f"{path.name}:{node.lineno}: {alias.name}"
                   for path in sorted(package.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


class TestNoPolyHashed:
    """The term registry is keyed by coefficient tuples, so no verb hashes a Poly."""

    @pytest.mark.parametrize("argv", [
        ["families"],
        ["term", "fibonacci", "30"],
        ["gcd", "fibonacci", "4", "lucas", "2", "--check"],
        ["verify", "--max-index", "3"],
        ["table", "5", "--max-index", "3"],
    ], ids=lambda argv: argv[0])
    def test_verb_hashes_no_poly(self, capsys, monkeypatch, argv):
        hashed = []
        poly_hash = Poly.__hash__

        def counting_hash(self):
            hashed.append(self)
            return poly_hash(self)

        monkeypatch.setattr(Poly, "__hash__", counting_hash)
        status, _, _ = run_cli(capsys, *argv)
        assert status == 0
        assert hashed == []
