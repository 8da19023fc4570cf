"""Per-layer spans and call counts, taken from outside the program.

:class:`Tracer` replaces qhcontract's public functions and methods with
wrappers while it is installed.  A span wrapper adds its call's self time
(its duration minus the time of the spans it encloses) to a total per
name; a counter wrapper only counts calls.  Everything stays in memory
until :meth:`Tracer.metrics` reads it out at the end of the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, qualified name, metric stem): timed spans around layer boundaries
SPANS = (
    ("cli", "parse_script", "cli.parse_script"),
    ("cli", "parse_expression", "cli.parse_expression"),
    ("cli", "Runner.run", "cli.Runner.run"),
    ("cli", "report", "cli.report"),
    ("rewrite", "orient", "rewrite.orient"),
    ("rewrite", "RuleSystem.check_confluence", "rewrite.check_confluence"),
    ("contract", "Substitution.apply", "contract.Substitution.apply"),
    ("contract", "relation_span", "contract.relation_span"),
    ("contract", "limit_span", "contract.limit_span"),
    ("contract", "RelationSpan.rank", "contract.RelationSpan.rank"),
    ("contract", "span_equal", "contract.span_equal"),
    ("matalg", "rtt_residual", "matalg.rtt_residual"),
    ("matalg", "qybe_residual", "matalg.qybe_residual"),
    ("matalg", "similarity", "matalg.similarity"),
    ("grgroup", "combined_covariance_span", "grgroup.combined_covariance_span"),
    ("grgroup", "inverse_check", "grgroup.inverse_check"),
    ("grgroup", "product_theorem", "grgroup.product_theorem"),
    ("superalgebra", "Element.free_mul", "superalgebra.Element.free_mul"),
)

# (module, qualified name, metric stem): call counts only, on the hot paths
# where a timer per call would cost more than the call itself
COUNTERS = (
    ("rewrite", "RuleSystem.reduce_at", "rewrite.reduce_at"),
    ("coeffring", "Coeff.__add__", "coeffring.Coeff.add"),
    ("coeffring", "Coeff.__mul__", "coeffring.Coeff.mul"),
    ("coeffring", "Coeff.try_inv", "coeffring.Coeff.try_inv"),
    ("coeffring", "Coeff.limit_q1", "coeffring.Coeff.limit_q1"),
    ("coeffring", "QHPoly.__mul__", "coeffring.QHPoly.mul"),
    ("coeffring", "QHPoly.exact_div", "coeffring.QHPoly.exact_div"),
    ("coeffring", "QHPoly.div_q1", "coeffring.QHPoly.div_q1"),
)

SUITE_CHECKS = 12

TIME_METRICS = tuple(f"suite.check_{i:02d}_s" for i in range(1, SUITE_CHECKS + 1)) + tuple(
    stem + "_s" for _m, _n, stem in SPANS + (("rewrite", "", "rewrite.normal_form"),)
)
COUNT_METRICS = tuple(stem + "_calls" for _m, _n, stem in COUNTERS) + (
    "rewrite.orient_calls",
    "rewrite.normal_form_calls",
    "rewrite.normal_form_terms_in",
    "rewrite.normal_form_terms_out",
    "contract.limit_span_calls",
    "superalgebra.Element.free_mul_calls",
)


class Tracer:
    """Installs span and counter wrappers into the loaded qhcontract modules."""

    def __init__(self):
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._open = []  # child seconds accumulated by each open span
        self._patched = []  # (owner, attribute, original value)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, stem, fn):
        self_s, counts, open_spans = self.self_s, self.counts, self._open
        time_key, calls_key = stem + "_s", stem + "_calls"
        if calls_key not in counts:
            calls_key = None

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[time_key] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                if calls_key:
                    counts[calls_key] += 1

        return wrapper

    def _counter(self, stem, fn):
        counts, key = self.counts, stem + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _normal_form(self, fn):
        counts = self.counts
        timed = self._span("rewrite.normal_form", fn)

        def wrapper(rs, e):
            out = timed(rs, e)
            counts["rewrite.normal_form_terms_in"] += len(e.terms)
            counts["rewrite.normal_form_terms_out"] += len(out.terms)
            return out

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, modname, qualname, make):
        """Replace one function or method everywhere the package binds it."""
        module = sys.modules.get("qhcontract." + modname)
        owner, _dot, attr = qualname.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, "__dict__", {}).get(attr)
        if original is None:
            print(f"perfbench: qhcontract.{modname} has no {qualname}; "
                  "its metrics read 0", file=sys.stderr)
            return
        wrapper = make(original)
        if owner:  # a method: rebind every alias in the class, e.g. __radd__
            targets = [holder]
        else:  # a function: rebind every module that imported it by name
            targets = [m for name, m in sys.modules.items()
                       if name.startswith("qhcontract") and m is not None]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._set(target, name, wrapper)

    def install(self) -> None:
        import qhcontract.cli  # noqa: F401  (loads every layer)

        for modname, qualname, stem in SPANS:
            self._wrap(modname, qualname, lambda fn, stem=stem: self._span(stem, fn))
        for modname, qualname, stem in COUNTERS:
            self._wrap(modname, qualname, lambda fn, stem=stem: self._counter(stem, fn))
        self._wrap("rewrite", "RuleSystem.normal_form", self._normal_form)
        self._wrap_suite_checks()

    def _wrap_suite_checks(self) -> None:
        suite = sys.modules["qhcontract.suite"]
        checks = getattr(suite, "ALL_CHECKS", ())
        if len(checks) != SUITE_CHECKS:
            print("perfbench: qhcontract.suite.ALL_CHECKS is not the 12 checks; "
                  "suite metrics read 0", file=sys.stderr)
            return
        wrapped = []
        for number, check in enumerate(checks, 1):
            wrapper = self._span(f"suite.check_{number:02d}", check)
            for name, value in list(vars(suite).items()):
                if value is check:
                    self._set(suite, name, wrapper)
            wrapped.append(wrapper)
        self._set(suite, "ALL_CHECKS", tuple(wrapped))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current totals: self seconds per span and counts per counter."""
        return {**self.self_s, **self.counts}
