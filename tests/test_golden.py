"""Golden CLI output: exit status and the sha256 of stdout, pinned.

Each case runs in-process through main(argv).  The commands are the `gfp`
examples of README.md, with `random:5` in place of the README's
`random:50` to keep the suite fast, plus the three tables at
--max-index 24 in text and JSON, `gcd --json` with a closed form,
with --check, and with the oracle alone, the random pairs in --json,
which pins their labels and witnesses, and the commands of the
benchmark's `paper` workload (its verify in --json), and `gcd --check
--json` on two deep pairs of terms.  A change that alters any byte
of this output, or any exit status, fails here; refactors must keep
them all.
"""

from __future__ import annotations

import hashlib

import pytest

from gfpoly.cli import main

INLINE_FIB = '{"name": "mine", "kind": "fibonacci", "d": ["0", "1"], "g": ["1"], "p0": [], "p1": ["1"]}'

GOLDEN = [
    (("families",), 0, "af53efa2c133d274b0844612722e21988a7d9396849c3ce91af20880aa3470b7"),
    (("families", "--kind", "lucas"), 0, "ee2eeeca08fde4ee35fd108e9fd471dd7424da251beab0e9064074e92a562c35"),
    (("families", "--json"), 0, "92a89551f4b60a5299359f12ce502f035ad03e322dc6319cf3fa23b4dad65cbc"),
    (("term", "fibonacci", "6"), 0, "29719ddeeaefafa3e0ba95ec1268dbe20ee78e1c195a2da4f2a14c9f2f424ce6"),
    (("term", "paper-2x1-lucas", "3"), 0, "79b8e0251f73eb4a3a0da4c534585f572eef1593d272d923464bfa363fd378e2"),
    (("term", "fibonacci", "6", "--json"), 0, "0e921d5d7078d378beba0ee314abfcc523d704a253813e027693c63573997aa9"),
    (("term", INLINE_FIB, "5"), 0, "b94f628284aabbfad47aec9bd8bf712dbc11dca1e4c5b1bda3993274e7065dad"),
    (("gcd", "lucas", "3", "lucas", "9"), 0, "ba5094e793a706dea9f125420d47371904ca33986930e60f650b463ba3767d0f"),
    (("gcd", "fibonacci", "4", "lucas", "2", "--check"), 0,
     "f37ffc4fedc2e35750d114cdf9c9960b75e9ad360c57c08fef64bd0a20a27cbc"),
    (("gcd", "lucas", "3", "lucas", "9", "--json"), 0,
     "21c8cc80b2b03651a9bfefa444096410c66b5d2df1c5378cc8c999fbaa42955d"),
    (("gcd", "fibonacci", "4", "lucas", "2", "--check", "--json"), 0,
     "dea0699a5afc975c1b11500c5ef0ab6baa05399575602ce4b4f8b98e2a7907b2"),
    (("gcd", "fibonacci", "3", "pell", "4", "--json"), 0,
     "56382a9ca58e428e793fb75d1dce4362f4a896745337af4c7347c750ead4417f"),
    (("verify",), 0, "3d399bdda9123942983ecdef873fdd690a1f3d78374ca12337003842e963745b"),
    (("verify", "--identity", "convolution", "--families", "fibonacci", "--max-index", "20"), 0,
     "c339290d8586d0fa9db8dc317452510407f49aeca1f06d2acd661668bea95bed"),
    (("verify", "--families", "random:5", "--seed", "7", "--max-index", "8"), 0,
     "6653cbff1a0482a3c4aa4bf6691074d7beeff3a30ae9d01d66398c6cf4dd2e1b"),
    (("verify", "--families", "random:5", "--seed", "7", "--max-index", "8", "--json"), 0,
     "fbec600d73f193102598138e4fd41f33cb4be510f8d8d00e790eb76977edffd4"),
    # 9.2 MB of JSON lines; only the digest is kept.
    (("verify", "--json"), 0, "0fdd8b082e5877a89b14dbee1aa9a48a965f73c4e49388b0291ddcafab10083c"),
    # A walk to L[305]; pins every witness.
    (("verify", "--identity", "dic2-decompose", "--families", "fibonacci", "--max-index", "17", "--json"), 0,
     "d249113a243cbb0af47c2ec78aab95dd793ec07613ae8b6169a2b146c492d6a8"),
    # d = 3x + 4 and g = 4x: general coefficients of d and g in the row step, on a walk to L[271].
    (("verify", "--identity", "dic2-decompose", "--families", "random:1", "--seed", "3", "--max-index", "16",
      "--json"), 0, "cfefbb6049d82dc71884ba51bea6b4089e0d6bafbaf311f63bd06912f8931c36"),
    # g = 2x with exponents up to g^275, past the retained prefix of the powers of g.
    (("verify", "--identity", "dic2-decompose", "--families", "jacobsthal", "--max-index", "23", "--json"), 0,
     "6c7d99b140aee915a924eaf7d5f29dd0dfdce293c9591320f665973f89ea054f"),
    (("table", "3", "--max-index", "24"), 0, "b30de34e24fc0ee23fbe14b9a236bbced6d6dff63d62ebdc0a6ba165d9170d5d"),
    (("table", "3", "--max-index", "24", "--json"), 0,
     "1ad7117ad8d5a98f2b2cc6abd0d97393991ed495bbd2b6681f37229f942f2765"),
    (("table", "4", "--max-index", "24"), 0, "b9dad3b75bbf3ffd20b43163564a6383c0192db3b2d1d42cf4bf9f58b7955d9f"),
    (("table", "4", "--max-index", "24", "--json"), 0,
     "a38d6b318d688d857d54c47ead7fecc2f6324a573f08e37f1bcedd1a9f9010df"),
    (("table", "5", "--max-index", "24"), 0, "bb075b42313557dc9041a2d81b9e6c8e193e98f051df899690be298104d899f7"),
    (("table", "5", "--max-index", "24", "--json"), 0,
     "e47f49407004500e86261b745e5fef7ef027f5bb15f0289059c3ca0df5fe03ea"),
    # The benchmark's `paper` workload: its three tables as it runs them, and its verify in --json,
    # which pins every witness.
    (("table", "3", "--max-index", "32", "--json"), 0,
     "ff0b243bbec03b61553fd4ceb1ea51b9548411dcdfb94e76dbc228a4868650a9"),
    (("table", "4", "--max-index", "32", "--json"), 0,
     "0b2952cb86e0adb193b0ed27537c4ee5caf897a3f588eb60498a837c8393bde5"),
    (("table", "5", "--max-index", "32", "--json"), 0,
     "31d9abf2b35459a7387b90323222acb6e3414ca08ac8ed370237665fecba1410"),
    (("verify", "--max-index", "14", "--json"), 0,
     "06ebc66da4bd5e1873705595b77f754d281bcecac1fd0b2979efa7279d7ce7ab"),
    # The gcd oracle on deep terms: a gcd of degree 199, and a coprime pair.
    (("gcd", "fermat", "400", "fermat", "600", "--check", "--json"), 0,
     "ba3cf5480054080a4964105da2dd03c09734e2287a2ae401e737a20452652769"),
    (("gcd", "lucas", "400", "lucas", "600", "--check", "--json"), 0,
     "6a08cf4c7165c8bde8a9f164b0a29e0ac74b8e1047c536a342b551be5b4c588b"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[" ".join(argv)[:60] for argv, _, _ in GOLDEN])
def test_stdout_and_status_are_unchanged(capsys, argv, status, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
