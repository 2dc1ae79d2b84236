"""Tracing for the benchmark's per-layer run.

The tracer wraps public functions of the skeinlab modules, and the names
the modules import from one another (`engine.analyze` is the same
function as `diagrams.analyze` under another name), from outside: the
program is not changed. Each wrapped call is one span with its name,
start, end, parent span and thread. Self time is a span's duration
minus the time its child spans cover; it is computed as spans close.

State is per thread (the `verify` command fans out over a thread pool),
so counters are exact without a lock on the hot path; a thread's state
is registered once, under a lock, and merged when a round ends.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from time import perf_counter


class _ThreadState:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list = []
        self.counts: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.spans: list = []


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list = []
        self._ids = itertools.count(1)
        self._patches: list = []
        self.keep_spans = False

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def add(self, key: str, n: int = 1) -> None:
        self._state().counts[key] += n

    def top(self):
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records a span. `name` may be a function
        of the call's arguments; `before(args)` and `after(result)` add
        counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            label = name(*args, **kwargs) if callable(name) else name
            if before is not None:
                before(args)
            parent = st.stack[-1] if st.stack else None
            frame = [label, next(tracer._ids), 0.0]
            st.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                st.stack.pop()
                end = perf_counter()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                st.counts[label] += 1
                st.total[label] += dur
                st.self_time[label] += dur - frame[2]
                if tracer.keep_spans:
                    st.spans.append((label, start, end, frame[1],
                                     parent[1] if parent else None, st.thread))
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        with self._lock:
            self._states = []
        self._local = threading.local()

    def snapshot(self) -> dict:
        """Merged counts, total and self times, and spans of every thread."""
        counts, total, self_time, spans = Counter(), Counter(), Counter(), []
        with self._lock:
            states = list(self._states)
        for st in states:
            counts.update(st.counts)
            total.update(st.total)
            self_time.update(st.self_time)
            spans.extend(st.spans)
        spans.sort(key=lambda s: s[1])
        return {"counts": counts, "total": total, "self": self_time, "spans": spans}


def install(tracer: Tracer, sk: dict) -> None:
    """Wrap the layer boundaries of the skeinlab modules in `sk`."""
    cli, corpus, textio = sk["cli"], sk["corpus"], sk["textio"]
    diagrams, engine, scalars = sk["diagrams"], sk["engine"], sk["scalars"]
    jaeger, coproduct = sk["jaeger"], sk["coproduct"]
    add = tracer.add

    tracer.patch(cli, "main", tracer.span("cli.main", cli.main))
    load = "corpus.load"
    tracer.patch(corpus, "load_path", tracer.span(load, corpus.load_path))
    tracer.patch(corpus, "load_builtin", tracer.span(load, corpus.load_builtin))

    tracer.patch(textio, "parse_morse", tracer.span("textio.parse_morse", textio.parse_morse))

    def rendered(text):
        add("textio.render_bytes", len(text.encode()))
    for fn in ("render", "render_morse"):
        tracer.patch(textio, fn, tracer.span("textio.render", getattr(textio, fn),
                                             after=rendered))

    analyze = tracer.span("diagrams.analyze", diagrams.analyze,
                          before=lambda a: add("diagrams.analyze_events", len(a[0].events)))
    for mod in (diagrams, engine, jaeger, coproduct):
        tracer.patch(mod, "analyze", analyze)

    Scalar = scalars.Scalar

    def mul_pairs(a):
        other = a[1]
        add("scalars.mul_term_pairs",
            len(a[0].terms) * (len(other.terms) if isinstance(other, Scalar) else 1))
    mul = tracer.span("scalars.mul", Scalar.__mul__, before=mul_pairs)
    plus = tracer.span("scalars.add", Scalar.__add__)
    for attr, fn in (("__mul__", mul), ("__rmul__", mul), ("__add__", plus), ("__radd__", plus)):
        tracer.patch(Scalar, attr, fn)

    tracer.patch(engine, "eval_one_colour",
                 tracer.span("engine.eval_one_colour", engine.eval_one_colour))
    resolve = engine._resolve
    word_key = diagrams.word_key

    def counted_resolve(word, memo, state):
        add("engine.visits")
        if word_key(word) not in memo:
            add("engine.nodes")
        return resolve(word, memo, state)
    tracer.patch(engine, "_resolve", counted_resolve)

    tracer.patch(jaeger, "state_sum", tracer.span("jaeger.state_sum", jaeger.state_sum))
    enumerate_admissible = jaeger.enumerate_admissible

    def counted_labellings(*args, **kwargs):
        for labelling in enumerate_admissible(*args, **kwargs):
            add("jaeger.labellings")
            yield labelling
    tracer.patch(jaeger, "enumerate_admissible", counted_labellings)

    tracer.patch(coproduct, "coproduct_diagram",
                 tracer.span("coproduct.coproduct_diagram", coproduct.coproduct_diagram,
                             after=lambda el: add("coproduct.terms_out", len(el.terms))))
    tracer.patch(coproduct, "coproduct_iterated",
                 tracer.span("coproduct.coproduct_iterated", coproduct.coproduct_iterated))
    tracer.patch(coproduct, "annulus_eval_family",
                 tracer.span("coproduct.annulus_eval_family", coproduct.annulus_eval_family))
    tracer.patch(coproduct, "verify",
                 tracer.span(lambda identity, *a, **k: f"coproduct.verify.{identity}",
                             coproduct.verify))
    Element = coproduct.CoproductElement
    tracer.patch(Element, "evaluate", tracer.span("coproduct.evaluate", Element.evaluate))
    element_add = Element.add

    def counted_add(self, words, coeff):
        if tracer.top() == "coproduct.coproduct_diagram":
            add("coproduct.terms_added")
        return element_add(self, words, coeff)
    tracer.patch(Element, "add", counted_add)


def per_layer(snap: dict) -> dict:
    """Per-layer metrics (value, unit) from one traced round's snapshot."""
    c, total, self_time = snap["counts"], snap["total"], snap["self"]

    def ratio(a, b):
        return a / b if b else 0.0

    visits, nodes = c["engine.visits"], c["engine.nodes"]
    added, out = c["coproduct.terms_added"], c["coproduct.terms_out"]
    m = {
        "engine.eval_calls": (c["engine.eval_one_colour"], "count"),
        "engine.visits": (visits, "count"),
        "engine.nodes": (nodes, "count"),
        "engine.memo_hit_rate": (ratio(visits - nodes, visits), "ratio"),
        "engine.eval_self_s": (self_time["engine.eval_one_colour"], "s"),
        "diagrams.analyze_calls": (c["diagrams.analyze"], "count"),
        "diagrams.analyze_events": (c["diagrams.analyze_events"], "count"),
        "diagrams.analyze_s": (total["diagrams.analyze"], "s"),
        "scalars.mul_calls": (c["scalars.mul"], "count"),
        "scalars.mul_term_pairs": (c["scalars.mul_term_pairs"], "count"),
        "scalars.mul_s": (total["scalars.mul"], "s"),
        "scalars.add_calls": (c["scalars.add"], "count"),
        "scalars.add_s": (total["scalars.add"], "s"),
        "coproduct.diagram_calls": (c["coproduct.coproduct_diagram"], "count"),
        "coproduct.diagram_self_s": (self_time["coproduct.coproduct_diagram"], "s"),
        "coproduct.terms_added": (added, "count"),
        "coproduct.terms_out": (out, "count"),
        "coproduct.merge_ratio": (ratio(out, added), "ratio"),
        "coproduct.iterated_s": (total["coproduct.coproduct_iterated"], "s"),
        "coproduct.evaluate_s": (total["coproduct.evaluate"], "s"),
        "coproduct.eval_family_s": (total["coproduct.annulus_eval_family"], "s"),
    }
    for identity in ("jaeger", "coassoc", "counit", "mult", "framing-remark"):
        m[f"coproduct.verify.{identity}_s"] = (total[f"coproduct.verify.{identity}"], "s")
    m.update({
        "jaeger.state_sum_calls": (c["jaeger.state_sum"], "count"),
        "jaeger.labellings": (c["jaeger.labellings"], "count"),
        "jaeger.state_sum_self_s": (self_time["jaeger.state_sum"], "s"),
        "textio.parse_calls": (c["textio.parse_morse"], "count"),
        "textio.parse_s": (total["textio.parse_morse"], "s"),
        "textio.render_s": (total["textio.render"], "s"),
        "textio.render_bytes": (c["textio.render_bytes"], "B"),
        "corpus.load_s": (total["corpus.load"], "s"),
        "cli.main_s": (total["cli.main"], "s"),
    })
    return m
