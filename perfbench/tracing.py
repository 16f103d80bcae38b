"""Spans and counters recorded around calls into the engine's layers.

The tracer patches the names each calling module imported, for example
``ccgscope.chart.unify_cat`` (what the chart's rules call) rather than
``ccgscope.categories.unify_cat`` (what unify_cat's own recursion calls), so
recursion inside a layer is timed once.  Nothing under src/ is changed: the
patches are installed for the traced phase of a run and removed after it.

A span has a name, start, end, parent span and op id.  Spans of the coarse
boundaries are kept; hot leaf calls (unification, cell keys, rule attempts)
only add to per-name totals.  Every span's duration is added to its
parent's child time, so a span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable, Optional

from ccgscope import baseline, categories, chart, cli, lexicon, readings
from ccgscope.categories import Atomic


class Tracer:
    def __init__(self) -> None:
        self.active = False       # wrappers record only while an op runs
        self.op: Optional[int] = None
        self.stack: list = []     # open spans: [child seconds, kept span index]
        self.spans: list = []     # kept spans: [name, start, end, parent, op]
        self.totals: dict = {}    # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._undo: list = []

    def wrap(self, name: str, fn: Callable, keep: bool,
             hook: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; hook(tracer, result, *args) adds counters."""
        stack, spans = self.stack, self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.op])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if keep:
                    spans[frame[1]][1:3] = [start, end]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(self, result, *args)
                # Counting is the tracer's own work: keep it out of the
                # parent's self time.
                if stack:
                    stack[-1][0] += perf_counter() - end
            return result

        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = False,
              hook: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep, hook))

    def install(self) -> None:
        """Patch every layer boundary the benchmark reports on."""
        p = self.patch
        p(cli, "main", "cli.main", keep=True)
        p(cli, "default_lexicon", "lexicon.load", keep=True, hook=_lexicon_loaded)
        p(lexicon.Lexicon, "lookup", "lexicon.lookup")
        for owner in (cli, readings):
            p(owner, "parse", "chart.parse", keep=True, hook=_chart_built)
            p(owner, "count_derivations", "chart.count_derivations", keep=True,
              hook=_derivations_counted)
        p(chart, "unify_cat", "categories.unify_cat")
        p(chart, "subst_cat", "categories.subst_cat")
        p(chart, "cat_key", "categories.cat_key")
        p(chart, "eta_reduce_sets", "terms.eta_reduce_sets")
        p(categories, "unify", "terms.unify")
        for owner in (cli, baseline, readings):
            p(owner, "readings", "readings.readings", keep=True)
        p(readings, "readings_from_chart", "readings.from_chart", keep=True,
          hook=_readings_collapsed)
        p(readings, "normalize", "readings.normalize", keep=True)
        p(readings, "canonicalize", "terms.canonicalize")
        for owner in (cli, baseline):
            p(owner, "compare", "baseline.compare", keep=True, hook=_compared)
        p(baseline, "enumerate_orderings", "baseline.enumerate", keep=True,
          hook=lambda t, forms, *a: t.counts.update({"baseline.orders": len(forms)}))
        p(baseline, "uvc_filter", "baseline.uvc", keep=True,
          hook=lambda t, kept, *a: t.counts.update({"baseline.uvc_survivors": len(kept)}))
        self._undo.append((chart, "RULES", chart.RULES))
        chart.RULES = tuple((label, self.wrap(f"chart.rule.{fn.__name__}", fn, False,
                                              _rule_counter(fn.__name__)))
                            for label, fn in chart.RULES)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, op: Optional[int], fn: Callable):
        """Run fn as op number op, with recording on."""
        self.op, self.active = op, True
        try:
            return fn()
        finally:
            self.active, self.op = False, None

    def note_max(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def structural(self) -> dict:
        """Counts that depend only on the inputs: call counts and counters."""
        out = {f"calls.{name}": t[0] for name, t in sorted(self.totals.items())}
        out.update(self.counts)
        return out


def _lexicon_loaded(tracer, lex, *args) -> None:
    tracer.note_max("lexicon.entries", len(lex.entries))


def _chart_built(tracer, ch, *args) -> None:
    items = ch.items.values()
    tracer.counts.update({"chart.items": len(ch.items),
                          "chart.full_span_items": len(ch.full_span()),
                          "chart.backpointers": sum(len(it.backs) for it in items)})
    tracer.note_max("chart.items_per_cell_max", max(map(len, ch.cells.values()), default=0))


def _derivations_counted(tracer, memo, ch) -> None:
    tracer.counts["chart.derivations"] += sum(memo[it.id] for it in ch.full_span())


def _readings_collapsed(tracer, rs, ch) -> None:
    full = [it for it in ch.full_span() if isinstance(it.cat, Atomic) and it.cat.sort == "s"]
    tracer.counts.update({"readings.full_span_lfs": len(full),
                          "readings.readings": len(rs),
                          "readings.multiplicity": sum(r.multiplicity for r in rs)})


def _compared(tracer, report, *args) -> None:
    tracer.counts["baseline.gap_orders"] += len(report.gap)


def _rule_counter(rule: str) -> Callable:
    attempts, successes = f"chart.rule_attempts.{rule}", f"chart.rule_successes.{rule}"

    def count(tracer, out, *args) -> None:
        tracer.counts[attempts] += 1
        if out is not None:
            tracer.counts[successes] += 1
    return count


RULE_NAMES = tuple(fn.__name__ for _, fn in chart.RULES)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics: seconds and counts per traced op, and ratios."""
    def calls(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[1] / ops

    def self_secs(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[2] / ops

    def count(name):
        return tracer.counts.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    loads = calls("lexicon.load")
    m = {
        "lexicon.load_s": ratio(tracer.totals["lexicon.load"][1], loads),
        "lexicon.entries": tracer.maxima.get("lexicon.entries", 0),
        "lexicon.lookup_calls": calls("lexicon.lookup") / ops,
        "lexicon.lookup_s": secs("lexicon.lookup"),
        "chart.parse_self_s": self_secs("chart.parse"),
        "chart.items": count("chart.items"),
        "chart.full_span_items": count("chart.full_span_items"),
        "chart.backpointers": count("chart.backpointers"),
        "chart.items_per_cell_max": tracer.maxima.get("chart.items_per_cell_max", 0),
    }
    for rule in RULE_NAMES:
        attempts = tracer.counts.get(f"chart.rule_attempts.{rule}", 0)
        successes = tracer.counts.get(f"chart.rule_successes.{rule}", 0)
        m[f"chart.rule_attempts.{rule}"] = attempts / ops
        m[f"chart.rule_successes.{rule}"] = successes / ops
        m[f"chart.rule_success_ratio.{rule}"] = ratio(successes, attempts)
    full_span_lfs = tracer.counts.get("readings.full_span_lfs", 0)
    normalized = calls("readings.normalize")
    orders = tracer.counts.get("baseline.orders", 0)
    m.update({
        "chart.count_derivations_s": secs("chart.count_derivations"),
        "chart.derivations": count("chart.derivations"),
        "categories.unify_cat_calls": calls("categories.unify_cat") / ops,
        "categories.unify_cat_s": secs("categories.unify_cat"),
        "categories.subst_cat_s": secs("categories.subst_cat"),
        "categories.cat_key_calls": calls("categories.cat_key") / ops,
        "categories.cat_key_s": secs("categories.cat_key"),
        "terms.unify_calls": calls("terms.unify") / ops,
        "terms.unify_s": secs("terms.unify"),
        "terms.eta_reduce_s": secs("terms.eta_reduce_sets"),
        "terms.canonicalize_s": secs("terms.canonicalize"),
        "readings.from_chart_self_s": self_secs("readings.from_chart"),
        "readings.normalize_calls": normalized / ops,
        "readings.normalize_s": secs("readings.normalize"),
        "readings.full_span_lfs": full_span_lfs / ops,
        "readings.filtered_out": (full_span_lfs - normalized) / ops,
        "readings.readings": count("readings.readings"),
        "readings.collapse_ratio": ratio(tracer.counts.get("readings.readings", 0), normalized),
        "baseline.enumerate_s": secs("baseline.enumerate"),
        "baseline.orders": orders / ops,
        "baseline.uvc_s": secs("baseline.uvc"),
        "baseline.uvc_survivors": count("baseline.uvc_survivors"),
        "baseline.uvc_ratio": ratio(tracer.counts.get("baseline.uvc_survivors", 0), orders),
        "baseline.match_self_s": self_secs("baseline.compare"),
        "baseline.gap_orders": count("baseline.gap_orders"),
        "cli.self_s": self_secs("cli.main"),
    })
    return m
