"""Per-layer tracing of the package from outside it.

Wrappers go onto module attributes and class methods while a traced pass
runs and come off before its answers are checked, so ``src/`` carries no
tracing code.  A wrapper replaces every reference to its function that the
package's modules hold (``from .x import f`` copies, the ``remixed``
re-exports, the ``cli._SUITES`` table), so a call is seen whichever name it
goes through.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, query id),
  kept in memory and written out when the run ends;
* fold: calls too frequent to keep one by one (QPoly arithmetic runs
  about 10^6 times in one verify command) add to per-name call counts and
  times only.

Both kinds charge their self time (duration minus the wrapped calls made
inside) to the layer, i.e. the module, that defines the function.  Time in
functions left unwrapped counts toward the innermost wrapped caller.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

import remixed
from remixed import cli, config, engine, formulas, qcalc, simulate
from workloads import ROUTES

LAYERS = {
    "qcalc": qcalc,
    "config": config,
    "engine": engine,
    "formulas": formulas,
    "simulate": simulate,
    "cli": cli,
}
MODULES = (remixed, *LAYERS.values())
SUITES = ("families", "congruence", "corrective", "abelian")

SPAN, FOLD = True, False
TARGETS = {
    "qcalc": [
        ("interpolate", SPAN),
        ("QPoly.__mul__", FOLD),
        ("QPoly.__post_init__", FOLD),
        ("QPoly.__add__", FOLD),
        ("QPoly.__sub__", FOLD),
        ("QPoly.__neg__", FOLD),
        ("QPoly.__pow__", FOLD),
        ("QPoly.shift", FOLD),
        ("QPoly.evaluate", FOLD),
        ("q_int", FOLD),
        ("q_factorial", FOLD),
        ("q_binomial", FOLD),
        ("poly_divexact", FOLD),
        ("poly_reverse", FOLD),
        ("series_mul", FOLD),
        ("series_equal_mod", FOLD),
        ("q_pochhammer", FOLD),
    ],
    "config": [
        ("classify", FOLD),
        ("Configuration.__post_init__", FOLD),
        ("parse_config", FOLD),
        ("heights", FOLD),
        ("left_to_right_order", FOLD),
        ("core", FOLD),
        ("reverse", FOLD),
        ("shifted_config", FOLD),
        ("max_weakly_shift", FOLD),
        ("one_hole_decompose", FOLD),
        ("weak_order_ok", FOLD),
    ],
    "engine": [
        ("exact_sweep", SPAN),
        ("_interp_consecutive", SPAN),
        ("remixed_exact", SPAN),
        ("success_probability", SPAN),
        ("remixed_induction", SPAN),
        ("drop_order_check", FOLD),
        ("_success_for_order", FOLD),
        ("_wt", FOLD),
    ],
    "formulas": [
        ("dispatch", SPAN),
        ("core_series", SPAN),
        ("corrective_series", SPAN),
        ("a_lukasiewicz", FOLD),
        ("a_almost_lukasiewicz", FOLD),
        ("a_connected", FOLD),
        ("a_weakly_lukasiewicz", FOLD),
        ("a_one_hole", FOLD),
        ("_assemble", FOLD),
        ("_Term.poly", FOLD),
        ("_shifted_sum_terms", FOLD),
        ("_one_hole_terms", FOLD),
        ("_one_hole_prefactor", FOLD),
    ],
    "simulate": [
        ("estimate_success", SPAN),
        ("simulate_batch", SPAN),
        ("_mix_np", FOLD),
    ],
    "cli": [
        ("main", SPAN),
        ("verify_families", SPAN),
        ("verify_congruence", SPAN),
        ("verify_corrective", SPAN),
        ("verify_abelian", SPAN),
    ],
}


class Tracer:
    """Spans and per-name totals of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.routes: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.suites: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.sim_trials = 0
        self.sim_peak_bytes = 0
        self.query = -1
        self.missing: list[str] = []
        # child-time accumulators of the open wrapped calls; [0] is the root
        self._child = [0.0]
        # indices of the open spans; -1 stands for no parent
        self._open = [-1]
        self._undo: list = []

    # wrapping

    def _wrapper(self, layer: str, name: str, fn, span: bool, after=None):
        child, open_, spans = self._child, self._open, self.spans
        calls, seconds, self_s = self.calls, self.seconds, self.self_s

        def wrapper(*args, **kwargs):
            child.append(0.0)
            if span:
                open_.append(len(spans))
                spans.append(None)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                self_s[layer] += dt - child.pop()
                child[-1] += dt
                calls[name] += 1
                seconds[name] += dt
                if span:
                    idx = open_.pop()
                    spans[idx] = (name, t0, t1, open_[-1], self.query)
            if after is not None:
                after(result, dt)
            return result

        return wrapper

    def _after_dispatch(self, report, dt: float) -> None:
        entry = self.routes[report.method]
        entry[0] += 1
        entry[1] += dt

    def _after_suite(self, result: dict, dt: float) -> None:
        checks = result["checks"]
        entry = self.suites[result["name"]]
        entry[0] += dt
        entry[1] += sum(checks.values()) if isinstance(checks, dict) else checks

    def _after_batch(self, flags, dt: float) -> None:
        self.sim_trials += len(flags)

    def _with_tracemalloc(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sim_peak_bytes = max(self.sim_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _replace(self, original, wrapper, owners) -> None:
        """Point every attribute of the owners, and every entry of their
        dicts, that holds the original at the wrapper instead."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._undo.append((setattr, owner, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))

    def install(self) -> None:
        for layer, targets in TARGETS.items():
            module = LAYERS[layer]
            for path, span in targets:
                name = f"{layer}.{path}"
                cls_name, _, attr = path.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    # renamed or removed since this list was written: its
                    # metrics read 0 and the report names it
                    self.missing.append(name)
                    continue
                if cls_name:
                    self._replace(original, self._wrapper(layer, name, original, span), [owner])
                    continue
                fn, after = original, None
                if path == "dispatch":
                    after = self._after_dispatch
                elif path.startswith("verify_"):
                    after = self._after_suite
                elif path == "simulate_batch":
                    fn, after = self._with_tracemalloc(original), self._after_batch
                self._replace(original, self._wrapper(layer, name, fn, span, after), MODULES)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # results

    def metrics(self, wall_s: float, untraced_s: float, memo: tuple[int, int], qbin_size: int) -> dict:
        """Per-layer metrics of the pass, as {name: (value, unit)}.

        wall_s and untraced_s are summed query times of the traced pass and
        of the same queries untraced; memo holds the recursion's memo hits
        and misses, and qbin_size the q_binomial cache size, at its end.
        """
        c, s = self.calls, self.seconds
        out = {
            "qcalc.mul_calls": (c["qcalc.QPoly.__mul__"], "count"),
            "qcalc.mul_s": (s["qcalc.QPoly.__mul__"], "s"),
            "qcalc.qpoly_init_s": (s["qcalc.QPoly.__post_init__"], "s"),
            "qcalc.series_mul_s": (s["qcalc.series_mul"], "s"),
            "qcalc.q_binomial_calls": (c["qcalc.q_binomial"], "count"),
            "qcalc.q_binomial_cache_size": (qbin_size, "count"),
            "qcalc.interpolate_s": (s["qcalc.interpolate"], "s"),
            "engine.exact_sweep_s": (s["engine.exact_sweep"], "s"),
            "engine.sweep_interp_s": (s["engine._interp_consecutive"], "s"),
            "engine.sweep_dp_s": (s["engine.exact_sweep"] - s["engine._interp_consecutive"], "s"),
            "engine.remixed_exact_s": (s["engine.remixed_exact"], "s"),
            "engine.exact_points": (c["engine._success_for_order"], "count"),
            "engine.success_probability_s": (s["engine.success_probability"], "s"),
            "engine.induction_s": (s["engine.remixed_induction"], "s"),
            "engine.induction_memo_hits": (memo[0], "count"),
            "engine.induction_memo_misses": (memo[1], "count"),
        }
        for route in ROUTES:
            count, secs = self.routes.get(route, (0, 0.0))
            out[f"formulas.route_count.{route}"] = (count, "count")
            out[f"formulas.dispatch_s.{route}"] = (secs, "s")
        out["formulas.core_series_s"] = (s["formulas.core_series"], "s")
        out["formulas.corrective_series_s"] = (s["formulas.corrective_series"], "s")
        out["config.classify_calls"] = (c["config.classify"], "count")
        out["config.classify_s"] = (s["config.classify"], "s")
        out["simulate.batch_s"] = (s["simulate.simulate_batch"], "s")
        out["simulate.trials"] = (self.sim_trials, "count")
        out["simulate.traced_peak_mb"] = (self.sim_peak_bytes / 2**20, "MB")
        for suite in SUITES:
            secs, checks = self.suites.get(suite, (0.0, 0))
            out[f"cli.suite_s.{suite}"] = (secs, "s")
            out[f"cli.checks.{suite}"] = (checks, "count")
        for layer, secs in self.self_s.items():
            out[f"{layer}.self_s"] = (secs, "s")
        out["bench.self_s"] = (wall_s - self._child[0], "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.untraced_s"] = (untraced_s, "s")
        out["trace.overhead_s"] = (wall_s - untraced_s, "s")
        return out

    def write(self, path, header: dict) -> None:
        """Header line, then one JSON line per span: name, start, end, parent, query."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
