"""Differential check of what the trace logs.

``rules._log`` logs a fire when it creates a node, or when it reports
something its binding (``fire_key``) has not reported yet: an existing node,
or a block's (cause, detail, space).  The reference is the earlier rule, kept
below: log a fire unless it created nothing and its (rule, fire_key, existing
ids, blocks) signature was logged already, run in the naive loop of
``test_seminaive``, which fires every binding on every pass.  That trace
repeats each productive fire's confirmation.  The engine's trace must be the
reference trace minus exactly the events that report nothing new for their
binding, with the same facts, the same creating events, and the same
(binding, node) and (binding, block) pairs.
"""

import random

import pytest

from opine import Config, parse_document, process_document
from opine import rules
from opine.errors import InputError
from opine.graph import TraceEvent
from opine.render import render_by_spaces, render_graph, structural_inventory

from test_properties import deep_document, random_document, rule_orders
from test_seminaive import naive_run_to_fixpoint

RANDOM_DOCUMENTS = 200  # the first documents of the fixed-seed random suite
DEEP_DOCUMENTS = 100  # the first deep documents of seed 2


def reference_log(g, state, rule, binding, iteration, outcome):
    """_log deduplicating on one signature per event, over all bindings."""
    logged = vars(state).setdefault("logged", set())
    existing_ids = tuple(n.node_id for n in outcome.existing)
    if not outcome.created:
        signature = (rule.name, binding.fire_key, existing_ids,
                     tuple(b[2:] for b in outcome.blocks))
        if signature in logged:
            return
        logged.add(signature)
        if not existing_ids and not outcome.blocks:
            return
    g.trace.append(
        TraceEvent("fire", rule.name, iteration, tuple(p.node_id for p in binding.ps),
                   tuple(n.node_id for n in outcome.assumptions),
                   tuple(n.node_id for n in outcome.created), existing_ids, outcome.blocks)
    )


def keyed(log, keys):
    """A log that also records the fire_key of each event it appends."""
    def keyed_log(g, state, rule, binding, iteration, outcome):
        before = len(g.trace)
        log(g, state, rule, binding, iteration, outcome)
        if len(g.trace) > before:
            keys.append(binding.fire_key)
    return keyed_log


def run(text, lexicon, cfg, monkeypatch, reference):
    """Each sentence's facts and views, and the fire events, each with its
    binding's fire_key; or the input error raised."""
    keys = []
    with monkeypatch.context() as m:
        if reference:
            m.setattr(rules, "run_to_fixpoint", naive_run_to_fixpoint)
            m.setattr(rules, "_log", keyed(reference_log, keys))
        else:
            m.setattr(rules, "_log", keyed(rules._log, keys))
        try:
            results = process_document(parse_document(text), lexicon, cfg)
        except InputError as exc:
            return (type(exc), str(exc)), []
    views = [(structural_inventory(r.graph), render_graph(r.graph), render_by_spaces(r))
             for r in results]
    events = [(e.rule, e.iteration, e.preconditions, e.assumptions, e.created, e.existing,
               tuple(e.blocks))
              for r in results for e in r.trace if e.kind == "fire"]
    assert len(events) == len(keys)
    return views, list(zip(keys, events))


def reported(key, event):
    """The (binding, node) and (binding, block) pairs an event reports."""
    _, _, _, _, created, existing, blocks = event
    return {(key, node_id) for node_id in created + existing} | {
        (key, block[2:]) for block in blocks}


def new_to_binding(events):
    """The events that create a node or report something new for their binding."""
    seen = set()
    kept = []
    for key, event in events:
        pairs = reported(key, event)
        if event[4] or not pairs <= seen:
            kept.append((key, event))
        seen |= pairs
    return kept


def texts(corpus_files):
    random_rng = random.Random(20240214)
    deep_rng = random.Random(2)
    return ([path.read_text(encoding="utf-8") for path in corpus_files]
            + [random_document(random_rng) for _ in range(RANDOM_DOCUMENTS)]
            + [deep_document(deep_rng) for _ in range(DEEP_DOCUMENTS)])


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_trace_is_the_reference_minus_repeats(lexicon, corpus_files, monkeypatch, extended):
    documents = texts(corpus_files)
    dropped = 0
    for order in rule_orders(2):
        for fire_once in (True, False):
            cfg = Config(rule_order=order, fire_once=fire_once,
                         extended_belief_spaces=extended)
            for text in documents:
                views, events = run(text, lexicon, cfg, monkeypatch, reference=False)
                expected_views, expected = run(text, lexicon, cfg, monkeypatch, reference=True)
                context = (order, fire_once, text)
                assert views == expected_views, context
                assert ([e for e in events if e[1][4]]
                        == [e for e in expected if e[1][4]]), context
                assert (set().union(*[reported(*e) for e in events])
                        == set().union(*[reported(*e) for e in expected])), context
                assert events == new_to_binding(expected), context
                dropped += len(expected) - len(events)
    assert dropped > 1000, dropped
