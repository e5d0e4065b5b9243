"""Per-layer tracing of wncalc from outside the package.

The tracer wraps public functions of each wncalc module and installs the
wrapper in every module namespace that bound the name, because a module
that did ``from .legendre import legendre_transform`` holds its own
reference.  ``WeightFunction.log_eval`` runs about a million times per
dual-weight build, so it is counted but not spanned.

Spans stay in memory as tuples (name, start, end, parent, operation) and
are written once, after the timed loop.  Inclusive time per name counts
only the outermost span of that name, so a u* build nested inside another
``minimize_scalar`` call is not counted twice; self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs traced with a span; the wrapper replaces the
# attribute in the defining module and in every module listed in REBIND
SPANNED = [
    ("optimize", "minimize_scalar"),
    ("legendre", "dual_function"),
    ("legendre", "legendre_transform"),
    ("legendre", "dual_weight"),
    ("sequences", "bell_numbers"),
    ("sequences", "alpha_from_u"),
    ("chaos", "check_test_bound"),
    ("chaos", "check_dist_bound"),
    ("chaos", "s_transform_many"),
    ("chaos", "dual_of"),
    ("chaos", "log_ell_sequence"),
    ("measures", "mittag_leffler"),
    ("measures", "check_positive_definite"),
    ("measures", "sample"),
    ("measures", "validate_sampler"),
    ("measures", "integrability_check"),
]
REBIND = ["wncalc", "wncalc.cli", "wncalc.legendre", "wncalc.chaos",
          "wncalc.sequences", "wncalc.measures", "wncalc.optimize"]

# a call to the key "misses" when the value's call count rose underneath it
MISS_OF = {
    "chaos.dual_of": "legendre.dual_weight",
    "chaos.log_ell_sequence": "legendre.legendre_transform",
}

_SIGMA_RE = re.compile(r"deviation ([0-9.eE+-]+) sigma")

OP_SPAN = "cli.run"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []      # indices of open spans
        self._child: list[float] = []    # child time of each open span
        self._open = Counter()           # open spans per name
        self.op = -1
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.max_time = defaultdict(float)
        self.misses = Counter()
        self.evals = 0
        self.log_eval_calls = 0
        self.worst_sigma = 0.0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        self._open[name] += 1
        self.calls[name] += 1
        return idx, time.perf_counter()

    def _exit(self, name: str, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        child = self._child.pop()
        self._open[name] -= 1
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else -1
        if self._child:
            self._child[-1] += dur
        self.spans[idx] = (name, t0, t1, parent, self.op)
        self.self_time[name] += dur - child
        if not self._open[name]:
            self.inclusive[name] += dur
        if dur > self.max_time[name]:
            self.max_time[name] = dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx, t0 = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, idx, t0)

    def wrap(self, name: str, fn):
        miss_of = MISS_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self.calls[miss_of] if miss_of else 0
            idx, t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "measures.validate_sampler":
                    m = _SIGMA_RE.search(str(exc))
                    if m:
                        self.worst_sigma = max(self.worst_sigma, float(m.group(1)))
                raise
            finally:
                self._exit(name, idx, t0)
                if miss_of and self.calls[miss_of] > before:
                    self.misses[name] += 1
            if name == "optimize.minimize_scalar":
                self.evals += result.evaluations
            elif name == "measures.validate_sampler":
                self.worst_sigma = max(self.worst_sigma, float(result["worst_sigma"]))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every wncalc module that bound them."""
        from wncalc import chaos, weights

        mods = [importlib.import_module(m) for m in REBIND]
        for modname, attr in SPANNED:
            src = sys.modules["wncalc." + modname]
            orig = getattr(src, attr)
            wrapped = self.wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

        tracer = self
        log_eval = weights.WeightFunction.log_eval

        def counted_log_eval(u, r):
            tracer.log_eval_calls += 1
            return log_eval(u, r)

        weights.WeightFunction.log_eval = counted_log_eval

        init = chaos.FiniteGaussianModel.__init__

        def traced_init(model, *args, **kwargs):
            return tracer.call("chaos.FiniteGaussianModel", init, model, *args, **kwargs)

        chaos.FiniteGaussianModel.__init__ = traced_init

    # -- results -----------------------------------------------------------

    def metrics(self, verdicts: int) -> dict:
        """Per-layer metrics, each per successful verdict unless a maximum."""
        per = max(1, verdicts)

        def s(name):
            return self.inclusive[name] / per

        def n(value):
            return value / per

        return {
            "weights.log_eval.calls": (n(self.log_eval_calls), "count"),
            "optimize.minimize_scalar.calls": (n(self.calls["optimize.minimize_scalar"]), "count"),
            "optimize.minimize_scalar.evals": (n(self.evals), "count"),
            "optimize.minimize_scalar.self_s": (self.self_time["optimize.minimize_scalar"] / per, "s"),
            "legendre.dual_function.calls": (n(self.calls["legendre.dual_function"]), "count"),
            "legendre.dual_function.s": (s("legendre.dual_function"), "s"),
            "legendre.legendre_transform.calls": (n(self.calls["legendre.legendre_transform"]), "count"),
            "legendre.legendre_transform.s": (s("legendre.legendre_transform"), "s"),
            "legendre.dual_weight.calls": (n(self.calls["legendre.dual_weight"]), "count"),
            "sequences.bell_numbers.s": (s("sequences.bell_numbers"), "s"),
            "sequences.alpha_from_u.s": (s("sequences.alpha_from_u"), "s"),
            "chaos.check_test_bound.s": (s("chaos.check_test_bound"), "s"),
            "chaos.check_dist_bound.s": (s("chaos.check_dist_bound"), "s"),
            "chaos.s_transform_many.s": (s("chaos.s_transform_many"), "s"),
            "chaos.FiniteGaussianModel.s": (s("chaos.FiniteGaussianModel"), "s"),
            "chaos.dual_of.calls": (n(self.calls["chaos.dual_of"]), "count"),
            "chaos.dual_of.misses": (n(self.misses["chaos.dual_of"]), "count"),
            "chaos.log_ell_sequence.calls": (n(self.calls["chaos.log_ell_sequence"]), "count"),
            "chaos.log_ell_sequence.misses": (n(self.misses["chaos.log_ell_sequence"]), "count"),
            "measures.mittag_leffler.calls": (n(self.calls["measures.mittag_leffler"]), "count"),
            "measures.mittag_leffler.s": (s("measures.mittag_leffler"), "s"),
            "measures.mittag_leffler.max_s": (self.max_time["measures.mittag_leffler"], "s"),
            "measures.check_positive_definite.s": (s("measures.check_positive_definite"), "s"),
            "measures.sample.s": (s("measures.sample"), "s"),
            "measures.validate_sampler.s": (s("measures.validate_sampler"), "s"),
            "measures.integrability_check.s": (s("measures.integrability_check"), "s"),
            "measures.validate_sampler.worst_sigma": (self.worst_sigma, "sigma"),
            "cli.run.self_s": (self.self_time[OP_SPAN] / per, "s"),
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: [name, start_s, end_s, parent_index, op]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# count metrics that must repeat exactly for the same operations
COUNT_METRICS = [
    "weights.log_eval.calls",
    "optimize.minimize_scalar.calls",
    "optimize.minimize_scalar.evals",
    "legendre.dual_function.calls",
    "legendre.legendre_transform.calls",
    "legendre.dual_weight.calls",
    "chaos.dual_of.calls",
    "chaos.dual_of.misses",
    "chaos.log_ell_sequence.calls",
    "chaos.log_ell_sequence.misses",
    "measures.mittag_leffler.calls",
]
