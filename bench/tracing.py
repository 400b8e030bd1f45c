"""Spans around the calls into each opine layer, for the traced run only.

The engine carries no instrumentation of its own, so the traced run rebinds
the public function names of each layer in the modules that call them, and
restores every one of them afterwards.  A span is (name, start, end, parent
index); spans live in memory for one document and are folded into per-name
totals when the document ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from opine import annotations, render, rules, spaces


def layer_bindings() -> dict:
    """Span name -> the (module, attribute) pairs whose calls it covers.

    A function is rebound in every module that calls it by its global name;
    the benchmark itself calls parse_document, the renderers and dumps
    through their modules.
    """
    return {
        "annotations.parse": [(annotations, "parse_document")],
        "graph.build": [(rules, "build_input_graph")],
        "composition.compose": [(rules, "run_composition")],
        "rules.fixpoint": [(rules, "run_to_fixpoint")],
        "rules.match": [(rules, "match")],
        "rules.fire": [(rules, "fire")],
        "rules.evidence_check": [(rules, "blocked_by_evidence")],
        "rules.assumption_basis": [(rules, "assumption_basis")],
        "rules.check_consistency": [(rules, "check_consistency")],
        "spaces.extend": [(rules, "extend_spaces")],
        "spaces.would_contradict": [(rules, "would_contradict"), (spaces, "would_contradict")],
        "spaces.place": [(rules, "place"), (spaces, "place")],
        "spaces.space_index": [(rules, "space_index"), (spaces, "space_index"),
                               (render, "space_index")],
        "spaces.index_rebuild": [(spaces, "SpaceIndex")],
        "render.text": [(render, "render_graph"), (render, "render_by_spaces"),
                        (render, "render_trace")],
        "render.json": [(render, "dumps")],
    }


class Tracer:
    """Records spans for the current document and folds them into totals."""

    def __init__(self, hooks: dict | None = None):
        """hooks: span name -> hook(counts, result), called after each span."""
        self.spans: list = []
        self._open: list[int] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hooks = hooks or {}

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, perf_counter
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def end_document(self) -> None:
        """Fold the current document's spans into the totals and drop them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
        self.spans.clear()

    @contextmanager
    def rebound(self, bindings: dict):
        """Rebind every listed attribute to a traced wrapper; restore on exit."""
        saved = []
        try:
            for name, sites in bindings.items():
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
