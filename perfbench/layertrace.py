"""Per-layer tracing of verma-lab, done from outside the package.

``install()`` rebinds the public functions of each layer to timing
wrappers.  Every module attribute and class attribute that holds the
original function is rebound, so names imported with ``from .ring import
exact_div`` and aliases such as ``FieldElem.__radd__`` are traced too.

Two kinds of hook share one call stack:

* coarse calls (suite functions, report items, ``solve_linear``, matmul,
  block builds) each leave a span ``(id, parent, name, start, end)``;
* hot leaf calls (``exact_div``, ``MultiPoly.__mul__``,
  ``MultiPoly.evaluate``, field add and mul, ...) only feed count and
  self-time accumulators, so trace memory does not grow with them.

Self time is a call's duration minus the time spent in traced calls
below it.  Spans stay in memory until ``write_spans`` at the end of the
run; past ``MAX_SPANS`` they are counted but not kept.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

MAX_SPANS = 200_000

# Functions imported by name into other modules, or aliased inside a
# class, and the least number of bindings each must have had rebound.
# A refactor that drops one of these bindings makes install() fail
# instead of silently tracing less.
REQUIRED_BINDINGS = {
    "ring.exact_div": 2,  # vermalab.ring, vermalab.field
    "ring.poly_gcd": 2,  # vermalab.ring, vermalab.field
    "ring.poly_lcm": 2,  # vermalab.ring, vermalab.linalg
    "field.add": 2,  # FieldElem.__add__, FieldElem.__radd__
    "field.mul": 2,  # FieldElem.__mul__, FieldElem.__rmul__
}


class LayerStat:
    __slots__ = ("calls", "self_s", "extra", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = Counter()  # named counts: failures, hinted calls, hits, ...
        self.sizes = Counter()  # operand size -> number of calls


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # a frame is [start, time in traced children, enclosing span id]
        self.stack = [[self.clock(), 0.0, 0]]
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_span = 1
        self.item_mark = self.clock()
        self.bindings: Counter = Counter()

    def stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.spans_dropped += 1

    def wrap(self, name: str, fn, *, coarse: bool = False, before=None, after=None):
        """Return a wrapper of fn that times it as layer ``name``.

        ``before(stat, args)`` runs before the clock starts and
        ``after(stat, args, result)`` after it stops, so the bookkeeping
        of operand sizes is not charged to the layer.
        """
        stat = self.stat(name)
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(stat, args)
            parent = stack[-1][2]
            sid = tracer.next_span if coarse else parent
            if coarse:
                tracer.next_span += 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if coarse:
                    tracer._keep((sid, parent, name, frame[0], end))
            if after is not None:
                after(stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def report_item(self, label: str) -> None:
        """Close the span of one report item: the time since the previous
        item of the same suite (or the suite's start)."""
        now = self.clock()
        self._keep((self.next_span, self.stack[-1][2], f"item:{label}", self.item_mark, now))
        self.next_span += 1
        self.item_mark = now

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")


def _vermalab_namespaces():
    """Every module namespace and class namespace of the loaded package."""
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "vermalab" or modname.startswith("vermalab.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def rebind(original, replacement) -> int:
    """Rebind every attribute holding ``original``; return how many."""
    count = 0
    for ns in _vermalab_namespaces():
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                count += 1
    if count == 0:
        raise RuntimeError(f"no binding of {original!r} found to trace")
    return count


def _terms(stat, args):
    a = args[0]
    stat.sizes[len(a.terms)] += 1


def _div_outcome(stat, args, result):
    if result is None:
        stat.extra["failed"] += 1


def _term_products(stat, args):
    stat.extra["term_products"] += len(args[0].terms) * len(args[1].terms)


def _hinted(stat, args):
    # FieldElem takes its hinted path when both operands carry a factored
    # denominator (``dfac``); a plain int or Fraction operand carries none
    a, b = args
    if getattr(a, "dfac", None) is not None and getattr(b, "dfac", None) is not None:
        stat.extra["hinted"] += 1


def _entry_products(stat, args):
    a, b = args
    per_row = Counter(r for r, _ in b.entries)
    stat.extra["entry_products"] += sum(per_row[k] for _, k in a.entries)


def _block_hit(stat, args):
    # the key under which VermaContext.eij_block caches off-diagonal blocks
    ctx, a, b, d = args
    if a != b and ("E", a, b, tuple(d)) in ctx._blocks:
        stat.extra["hits"] += 1


def install(tracer: Tracer) -> None:
    """Trace the layers of the already imported ``vermalab`` package."""
    from vermalab import field, linalg, patterns, report, ring, shiftarg, suites, verma, whittaker

    def hook(name, original, **kw):
        tracer.bindings[name] += rebind(original, tracer.wrap(name, original, **kw))

    # ring
    hook("ring.exact_div", ring.exact_div, before=_terms, after=_div_outcome)
    hook("ring.mul", ring.MultiPoly.__mul__, before=_term_products)
    hook("ring.poly_gcd", ring.poly_gcd)
    hook("ring.poly_lcm", ring.poly_lcm)
    hook("ring.evaluate", ring.MultiPoly.evaluate)
    # field
    hook("field.add", field.FieldElem.__add__, before=_hinted)
    hook("field.mul", field.FieldElem.__mul__, before=_hinted)
    hook("field.evaluate_complex", field.FieldElem.evaluate_complex)
    # linalg
    hook("linalg.matmul", linalg.SparseMatrix.__matmul__, coarse=True, before=_entry_products)
    hook("linalg.solve_linear", linalg.solve_linear, coarse=True)
    # verma, patterns, whittaker
    hook("verma.eij_block", verma.VermaContext.eij_block, coarse=True, before=_block_hit)
    hook("patterns.enumerate_patterns", patterns.enumerate_patterns)
    hook("whittaker.component", whittaker.WhittakerSolver.component, coarse=True)
    # shiftarg: lazy_qc operators build their blocks on demand, so the
    # block-building function of each returned operator is wrapped
    hook("shiftarg.transport", shiftarg.monodromy_transport, coarse=True)
    lazy_qc = shiftarg.lazy_qc

    def traced_lazy_qc(*args, **kwargs):
        op = lazy_qc(*args, **kwargs)
        op.builder = tracer.wrap("shiftarg.qc_block", op.builder, coarse=True)
        return op

    tracer.bindings["shiftarg.qc_block"] += rebind(lazy_qc, traced_lazy_qc)
    # suites and their report items: an item's span runs from the end of
    # the previous item, or from the start of the suite
    def mark(stat, args):
        tracer.item_mark = tracer.clock()

    for attr, value in list(vars(suites).items()):
        if attr.startswith("suite_") and callable(value):
            hook(f"suites.{attr}", value, coarse=True, before=mark)

    def traced_item(original):
        def item(self, label, *args, **kwargs):
            result = original(self, label, *args, **kwargs)
            tracer.report_item(label)
            return result

        return item

    for method in ("add", "add_check"):
        original = getattr(report.VerificationReport, method)
        rebind(original, traced_item(original))

    for name, least in REQUIRED_BINDINGS.items():
        if tracer.bindings[name] < least:
            raise RuntimeError(
                f"{name}: rebound {tracer.bindings[name]} bindings, expected at least {least}"
            )


def _percentile(sizes: Counter, pct: int) -> int:
    """Nearest-rank percentile of a size histogram; pct in percent."""
    total = sum(sizes.values())
    rank = max(1, -(-pct * total // 100))
    seen = 0
    for size in sorted(sizes):
        seen += sizes[size]
        if seen >= rank:
            return size
    return 0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten the accumulators into ``<module>.<function>.<stat>``."""
    out: dict[str, float] = {}

    def st(name):
        return tracer.stats.get(name) or LayerStat()

    def ratio(num, den):
        return num / den if den else 0.0

    for name in (
        "ring.exact_div", "ring.mul", "ring.poly_gcd", "ring.poly_lcm", "ring.evaluate",
        "field.add", "field.mul", "field.evaluate_complex",
        "linalg.matmul", "linalg.solve_linear", "verma.eij_block",
        "shiftarg.qc_block", "shiftarg.transport", "whittaker.component",
        "patterns.enumerate_patterns",
    ):
        s = st(name)
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_s
    div = st("ring.exact_div")
    out["ring.exact_div.fail_ratio"] = ratio(div.extra["failed"], div.calls)
    out["ring.exact_div.dividend_terms_p50"] = _percentile(div.sizes, 50)
    out["ring.exact_div.dividend_terms_p95"] = _percentile(div.sizes, 95)
    out["ring.exact_div.dividend_gt16_ratio"] = ratio(
        sum(c for size, c in div.sizes.items() if size > 16), div.calls
    )
    out["ring.mul.term_products"] = st("ring.mul").extra["term_products"]
    out["field.add.hinted_ratio"] = ratio(st("field.add").extra["hinted"], st("field.add").calls)
    out["field.mul.hinted_ratio"] = ratio(st("field.mul").extra["hinted"], st("field.mul").calls)
    out["linalg.matmul.entry_products"] = st("linalg.matmul").extra["entry_products"]
    blk = st("verma.eij_block")
    out["verma.eij_block.hit_ratio"] = ratio(blk.extra["hits"], blk.calls)
    return out


def exact_counts(tracer: Tracer) -> dict:
    """Everything a traced run counts, which must repeat exactly across
    runs of the same code: calls, named counts, size histograms and the
    number of spans of each name."""
    return {
        "layers": {
            name: {
                "calls": s.calls,
                "extra": dict(sorted(s.extra.items())),
                "sizes": {str(k): v for k, v in sorted(s.sizes.items())},
            }
            for name, s in sorted(tracer.stats.items())
        },
        "spans": tracer.next_span - 1,
        "span_names": Counter(name for _, _, name, _, _ in tracer.spans),
    }
