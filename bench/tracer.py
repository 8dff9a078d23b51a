"""Per-layer spans around gfpoly, taken from outside the package.

    python bench/tracer.py gfp ARGS...   # run `gfp ARGS...` with spans
    python bench/tracer.py kernels       # time the polyring kernel cases

In `gfp` mode the command's stdout and exit status are those of gfp; the
trace follows on stderr as one JSON line after TRACE_MARKER.  In `kernels`
mode one JSON line on stdout holds ns/op for each case and how many case
results were wrong.

The package is not edited.  Each layer's public functions are replaced by
wrappers in every gfpoly module that binds them, because `from ... import`
copies the name into the importing module.  A span's self time is its
duration minus the time of the spans it opened.  polyring is the leaf
layer: a call into it from inside a polyring span is part of that span, so
the multiplications inside a gcd count as gcd time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

TRACE_MARKER = "bench-trace "


class Spans:
    """Span bookkeeping: calls, self time and total time per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # child seconds of each open span
        self._in_leaf = False

    def wrap(self, name, fn, leaf=False, observe=None):
        """fn with a span named name; observe(args, result) runs untimed."""
        clock = time.perf_counter
        stack = self._open

        def traced(*args, **kwargs):
            if leaf and self._in_leaf:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            self._in_leaf = leaf
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._in_leaf = False
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                self.total_s[name] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class LayerTrace:
    """Wraps the five gfpoly layers and gathers their counters."""

    def __init__(self, modules) -> None:
        self.spans = Spans()
        self.modules = modules
        self.gcd_max_degree = 0
        self.exact_div_misses = 0
        self.term_hits = 0
        self.term_max_coeff_bits = 0
        self.term_max: dict[int, int] = {}  # id(cache) -> highest index requested
        self.agree = 0
        self.reports = 0
        self.reports_passed = 0

    def _rebind(self, attr, wrapper) -> None:
        original = wrapper.__wrapped__
        for module in self.modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    def install(self) -> None:
        from gfpoly import cli, families, gcd_theorems, polyring

        wrap = self.spans.wrap
        poly = polyring.Poly
        mul = wrap("polyring.mul", poly.__mul__, leaf=True)
        poly.__mul__ = poly.__rmul__ = mul
        poly.__add__ = wrap("polyring.add", poly.__add__, leaf=True)
        self._rebind("poly_gcd_z", wrap("polyring.gcd", polyring.poly_gcd_z, leaf=True,
                                        observe=self._seen_gcd))
        self._rebind("exact_div", wrap("polyring.exact_div", polyring.exact_div, leaf=True,
                                       observe=self._seen_exact_div))
        cache = families.SequenceCache
        cache.term = wrap("families.term", cache.term, observe=self._seen_term)
        for attr in ("gcd_fib_closed", "gcd_lucas_closed", "gcd_mixed_closed"):
            self._rebind(attr, wrap("gcd_theorems.closed", getattr(gcd_theorems, attr)))
        self._rebind("oracle_gcd", wrap("gcd_theorems.oracle", gcd_theorems.oracle_gcd))
        self._rebind("compare", wrap("gcd_theorems.compare", gcd_theorems.compare,
                                     observe=self._seen_compare))
        cli.iter_reports = self._traced_reports(cli.iter_reports)

    def _seen_gcd(self, args, result) -> None:
        p, q = args
        self.gcd_max_degree = max(self.gcd_max_degree, len(p.coeffs) - 1, len(q.coeffs) - 1)

    def _seen_exact_div(self, args, result) -> None:
        self.exact_div_misses += result is None

    def _seen_term(self, args, result) -> None:
        cache, n = args
        highest = self.term_max.get(id(cache), 0)
        self.term_max[id(cache)] = max(highest, n)
        if n <= max(highest, 1):  # indices 0 and 1 are stored from the start
            self.term_hits += 1
            return
        bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
        self.term_max_coeff_bits = max(self.term_max_coeff_bits, bits)

    def _seen_compare(self, args, result) -> None:
        self.agree += result.agrees

    def _traced_reports(self, iter_reports):
        """iter_reports whose generator is timed only inside each next()."""
        def reports(group, *args):
            step = self.spans.wrap(f"identities.{group}", iter_reports(group, *args).__next__)
            for report in iter(step, None):
                self.reports += 1
                self.reports_passed += report.passed
                yield report
        return reports

    def summary(self, import_s: float) -> dict:
        return {
            "calls": dict(self.spans.calls),
            "self_s": dict(self.spans.self_s),
            "total_s": dict(self.spans.total_s),
            "import_s": import_s,
            "gcd_max_degree": self.gcd_max_degree,
            "exact_div_misses": self.exact_div_misses,
            "term_hits": self.term_hits,
            "term_max_index": max(self.term_max.values(), default=0),
            "term_built": sum(self.term_max.values()),
            "caches": len(self.term_max),
            "term_max_coeff_bits": self.term_max_coeff_bits,
            "agree": self.agree,
            "reports": self.reports,
            "reports_passed": self.reports_passed,
        }


def run_gfp(argv: list[str]) -> int:
    start = time.perf_counter()
    import gfpoly.cli
    import_s = time.perf_counter() - start
    modules = [m for name, m in sys.modules.items() if name == "gfpoly" or name.startswith("gfpoly.")]
    trace = LayerTrace(modules)
    trace.install()
    status = trace.spans.wrap("cli", gfpoly.cli.main)(argv)
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(trace.summary(import_s)), file=sys.stderr)
    return status


# --- polyring kernel cases --------------------------------------------------

KERNEL_FAMILIES = ("fibonacci", "fermat", "paper-2x1-lucas")
KERNEL_DEGREES = (24, 64, 128)
BATCH_S = 0.02   # each timed batch runs at least this long
BATCHES = 5


def _ns_per_call(fn) -> float:
    """Median ns per call over BATCHES batches of a calibrated size."""
    clock = time.perf_counter_ns
    calls = 1
    while True:
        start = clock()
        for _ in range(calls):
            fn()
        elapsed = clock() - start
        if elapsed >= BATCH_S * 1e9:
            break
        calls *= 2
    samples = [elapsed / calls]
    for _ in range(BATCHES - 1):
        start = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - start) / calls)
    return statistics.median(samples)


def _eval2(coeffs) -> int:
    return sum(c << i for i, c in enumerate(coeffs))


def run_kernels() -> dict:
    """mul, exact_div and gcd on neighbouring terms of degree D and D - 1.

    Neighbouring terms of these families are coprime, so gcd runs its full
    remainder sequence and must return 1; exact_div divides the product
    back and must return the first factor.
    """
    from gfpoly.families import builtin_family, sequence
    from gfpoly.polyring import exact_div, poly_gcd_z

    ns: dict[str, float] = {}
    failed = 0
    for name in KERNEL_FAMILIES:
        seq = sequence(builtin_family(name))
        index: dict[int, int] = {}  # degree -> first index with that degree
        n = 0
        while max(index, default=-1) < max(KERNEL_DEGREES):
            degree = seq.term(n).degree
            if degree is not None:
                index.setdefault(degree, n)
            n += 1
        for degree in KERNEL_DEGREES:
            a, b = seq.term(index[degree]), seq.term(index[degree - 1])
            product = a * b
            failed += _eval2(product.coeffs) != _eval2(a.coeffs) * _eval2(b.coeffs)
            failed += exact_div(product, b) != a
            failed += poly_gcd_z(a, b).coeffs != (1,)
            key = f"{name}.d{degree}_ns"
            ns[f"mul.{key}"] = _ns_per_call(lambda: a * b)
            ns[f"exact_div.{key}"] = _ns_per_call(lambda: exact_div(product, b))
            ns[f"gcd.{key}"] = _ns_per_call(lambda: poly_gcd_z(a, b))
    return {"ns": ns, "cases": 3 * len(KERNEL_FAMILIES) * len(KERNEL_DEGREES), "failed": failed}


def main(argv: list[str]) -> int:
    if argv[:1] == ["gfp"]:
        return run_gfp(argv[1:])
    if argv == ["kernels"]:
        print(json.dumps(run_kernels()))
        return 0
    print("usage: tracer.py gfp ARGS... | tracer.py kernels", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
