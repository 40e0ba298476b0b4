"""Spans around the public functions of the kloostercodes layers, installed
from outside the package.

Each traced function is replaced, in every kloostercodes module that binds
it (the defining module, the package namespace and modules that re-bind it
with `from .codes import weight_prefix_dp`), by a wrapper that records a span
[name, start, end, parent, error].  Spans stay in memory for the whole pass.
A span's self time is its duration minus the time its child spans cover.
Counters derived from call arguments and results are kept at the same
boundaries.
"""

import functools
import sys
import time
from math import comb

# layer -> traced public functions.  combinat is a helper, so its time counts
# toward the codes or moments function that calls it; FieldContext methods
# run millions of times per pass and count toward their caller.
TRACED = {
    "gf3r": ("field_create",),
    "charsums": ("kloosterman", "kloosterman_on_squares", "sk_moment", "delta_count"),
    "ogroups": ("histogram_closed_form",),
    "gauss": ("gauss_sum_closed", "kloosterman_gl"),
    "codes": ("weight_prefix_dp", "codeword_weight_formula"),
    "moments": ("sk_recursive_chain", "sk2_recursive_chain", "pless_check", "verify_report"),
    "cli": ("run_command",),
}
LAYERS = tuple(TRACED)
SPAN_NAMES = tuple("%s.%s" % (layer, fn) for layer, fns in TRACED.items() for fn in fns)

# counters reported as metrics, each with its unit
COUNTERS = (
    ("charsums.char_evals", "count"),
    ("charsums.delta_ops", "count"),
    ("codes.prefix_j_max", "count"),
    ("codes.dp_updates_bound", "count"),
    ("moments.recursion_steps", "count"),
    ("moments.max_int_bits", "bits"),
    ("cli.nonzero_exits", "count"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


def _on_kloosterman(tracer, index, args, kwargs, result):
    # one character evaluation per nonzero x
    tracer.add("charsums.char_evals", _arg(args, kwargs, 0, "ctx").q - 1)


def _on_k_table(tracer, index, args, kwargs, result):
    # a read filled the table exactly when it evaluated Kloosterman sums
    tracer.add("charsums.k_table.reads", 1)
    if len(tracer.spans) == index + 1:
        tracer.add("charsums.k_table.hits", 1)


def _on_delta(tracer, index, args, kwargs, result):
    q = _arg(args, kwargs, 0, "ctx").q
    tracer.add("charsums.delta_ops", max(_arg(args, kwargs, 1, "m") - 1, 0) * q * q)


def _on_prefix(tracer, index, args, kwargs, result):
    hist = _arg(args, kwargs, 0, "hist")
    q = _arg(args, kwargs, 1, "ctx").q
    j = _arg(args, kwargs, 2, "j_max")
    classes = sum(1 for n in hist.counts if n)
    tracer.peak("codes.prefix_j_max", j)
    # classes * q * sum_{d=0}^{j} C(j-d+2, 2), and that sum is C(j+3, 3)
    tracer.add("codes.dp_updates_bound", classes * q * comb(j + 3, 3))


def _on_chain(h_pos):
    def hook(tracer, index, args, kwargs, result):
        tracer.add("moments.recursion_steps", _arg(args, kwargs, h_pos, "h_max"))
        tracer.peak("moments.max_int_bits", _bits(result))
    return hook


def _on_pless(tracer, index, args, kwargs, result):
    tracer.peak("moments.max_int_bits", _bits((result.lhs, result.rhs)))


def _on_verify_report(tracer, index, args, kwargs, result):
    tracer.peak("moments.max_int_bits",
                _bits(v for rep in result for row in rep.rows for v in (row.direct, row.recursive)))


def _on_run_command(tracer, index, args, kwargs, result):
    if result != 0:
        tracer.add("cli.nonzero_exits", 1)


HOOKS = {
    "charsums.kloosterman": _on_kloosterman,
    "charsums.kloosterman_on_squares": _on_k_table,
    "charsums.delta_count": _on_delta,
    "codes.weight_prefix_dp": _on_prefix,
    "moments.sk_recursive_chain": _on_chain(2),
    "moments.sk2_recursive_chain": _on_chain(1),
    "moments.pless_check": _on_pless,
    "moments.verify_report": _on_verify_report,
    "cli.run_command": _on_run_command,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, exception or None]
        self.counters = {}
        self._open = []  # indices of the spans still running, innermost last

    def add(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name, n):
        self.counters[name] = max(self.counters.get(name, 0), n)

    def install(self):
        """Wrap every traced function that the package defines; a function
        a later version no longer has simply reports no calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kloostercodes" or n.startswith("kloostercodes.")]
        for name in SPAN_NAMES:
            layer, fn_name = name.split(".")
            original = getattr(sys.modules.get("kloostercodes." + layer), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, HOOKS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = exc
                raise
            finally:
                span[2] = clock()
                open_.pop()
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        return traced

    def summary(self, wall_s):
        """Per-layer metrics of the pass whose job list took wall_s."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[name + ".s"] = 0.0
            out[name + ".calls"] = 0
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
            out[layer + ".errors"] = 0
        charged = set()
        spanned = 0.0
        # innermost spans come last, so an error is charged to the layer that raised it
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, error = spans[i]
            layer = name.split(".")[0]
            self_s = end - start - covered[i]
            out[name + ".s"] += self_s
            out[name + ".calls"] += 1
            out[layer + ".self_s"] += self_s
            if error is not None and id(error) not in charged:
                charged.add(id(error))
                out[layer + ".errors"] += 1
            if parent < 0:
                spanned += end - start
        for name, _ in COUNTERS:
            out[name] = self.counters.get(name, 0)
        reads = self.counters.get("charsums.k_table.reads", 0)
        out["charsums.k_table.hit_ratio"] = self.counters.get("charsums.k_table.hits", 0) / reads if reads else 0.0
        out["trace.unspanned_s"] = wall_s - spanned
        return out

    def export(self, origin):
        """The spans as JSON-ready rows, times in seconds from origin."""
        return [[name, start - origin, end - origin, parent,
                 None if error is None else type(error).__name__]
                for name, start, end, parent, error in self.spans]
