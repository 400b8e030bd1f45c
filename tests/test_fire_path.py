"""Differential check of the fire path.

``rules.fire``, ``rules._log`` and ``spaces.extend_spaces`` pay per fire only
for what the fire places: each space stores its kind (negative belief, belief
variant) when the index creates it, a fire's created/existing bookkeeping is
a set, and block reports are built only for a blocked fire.  Once a fire has
interned its additions, later spaces check the nodes instead of the facts,
and ``place`` takes each level's source from a chain of the space.  The
copies below do all of that work on every fire, as the engine did before;
the tests swap them in and compare every output byte for byte.
"""

import random

import pytest

from opine import Config, parse_document, process_document
from opine import rules, spaces
from opine.errors import InputError, NoCommonSpace
from opine.graph import BELIEVES_TRUE, NEGATIVE, SENTIMENT, WRITER, BlockReport, TraceEvent
from opine.render import dumps, render_by_spaces, render_graph, render_trace
from opine.spaces import EPSILON

from test_properties import deep_document
from test_space_index import belief_variant

DEEP_DOCUMENTS = 100  # the first deep documents of seed 2


# -- reference copies -----------------------------------------------------------

def placement_spaces(node, g, index):
    """Spaces a precondition counts as occupying, including the writer level."""
    found = set(index.memberships.get(node.node_id, ()))
    if g.is_writer_level(node):
        found = found | {EPSILON}
    return found


def has_negative_belief(steps):
    return any(att == BELIEVES_TRUE and pol == NEGATIVE for _, att, pol in steps)


def reference_place(g, node, steps):
    """place looking up each level's source entity by name."""
    created = []
    current = node
    for src, att, pol in reversed(steps):
        before = len(g.nodes)
        current = g.private_state(src, att, pol, current)
        if len(g.nodes) != before:
            created.append(current)
    if current.is_chain_node() and current.source_name == WRITER:
        g.add_root(current)
    elif not steps:
        g.add_top_level(current)
    return current, created


def reference_extend_spaces(g, ps, assumptions, conclusions, *, extended_belief_spaces=False):
    """extend_spaces recomputing each space's kind and scanning lists per fire,
    checking every space's additions as facts, and placing by source name."""
    index = spaces.space_index(g)
    if ps:
        base = None
        for p in ps:
            ours = placement_spaces(p, g, index)
            base = ours if base is None else (base & ours)
        base = base or set()
    else:
        base = {EPSILON}
    if not base:
        raise NoCommonSpace("preconditions share no private-state space")

    outcome = spaces.ExtensionOutcome(fired=False)
    ordered = sorted(base, key=lambda s: spaces._order_key(s, index))
    candidates = []
    for steps in ordered:
        if has_negative_belief(steps):
            outcome.blocked.append((steps, "negative-belief-path", spaces.format_space(steps)))
            continue
        candidates.append((steps, False))
    for steps, _ in list(candidates):
        if any(att == SENTIMENT for _, att, _ in steps):
            variant = belief_variant(steps)
            if all(variant != s for s, _ in candidates):
                candidates.append((variant, True))

    def record(node, is_new):
        if node in outcome.created or node in outcome.existing:
            return
        (outcome.created if is_new else outcome.existing).append(node)

    additions = [*assumptions, *conclusions]
    variant_ps = [p for p in ps if p.is_proposition() or extended_belief_spaces]
    bare = []
    for steps, is_variant in candidates:
        props = (additions + variant_ps) if is_variant else additions
        clash = None
        for prop in props:
            clash = spaces.would_contradict(steps, prop, g, index)
            if clash is not None:
                break
        if clash is not None:
            outcome.blocked.append((steps, "space-contradiction", f"node {clash.node_id}"))
            continue
        if not outcome.fired:
            outcome.fired = True
            for fact in additions:
                start = len(g.nodes)
                node = g.intern(fact)
                for fresh in g.nodes[start:]:
                    record(fresh, True)
                record(node, False)
                bare.append(node)
        for node in (bare + variant_ps) if is_variant else bare:
            top, wrappers = reference_place(g, node, steps)
            for w in wrappers:
                record(w, True)
            record(top, False)
        index = spaces.space_index(g)
    return outcome


def reference_fire(rule, binding, g, cfg, state=None, iteration=0):
    """fire building the binding's ids, a report closure and every block report."""
    state = state or rules.EngineState()
    binding_ids = tuple(p.node_id for p in binding.ps)

    def report(cause, detail, space=None):
        block = BlockReport(rule.name, binding_ids, cause, detail, space)
        outcome = rules.FireOutcome(False, blocks=[block])
        reference_log(g, state, rule, binding, iteration, outcome)
        return outcome

    for facts in (binding.assumptions, binding.conclusions):
        for fact in facts:
            evidence = rules.blocked_by_evidence(g, fact)
            if evidence is not None:
                return report("evidence", f"evidence {evidence.fact_id}")
    for fact in binding.assumptions:
        if rules.assumption_basis(g, fact) is None:
            return report("no-assumption-basis", rules._describe_assumption(fact))

    try:
        extension = reference_extend_spaces(
            g, binding.ps, binding.assumptions, binding.conclusions,
            extended_belief_spaces=cfg.extended_belief_spaces,
        )
    except NoCommonSpace:
        return rules.FireOutcome(False)

    blocks = [
        BlockReport(rule.name, binding_ids, cause, detail, space)
        for space, cause, detail in extension.blocked
    ]
    assumed = [g.lookup(fact) for fact in binding.assumptions]
    outcome = rules.FireOutcome(
        fired=extension.fired,
        created=extension.created,
        existing=extension.existing,
        assumptions=[n for n in assumed if n is not None],
        blocks=blocks,
    )
    reference_log(g, state, rule, binding, iteration, outcome)
    return outcome


def reference_log(g, state, rule, binding, iteration, outcome):
    """_log building every id list and each block's (cause, detail, space) on
    every call, and testing each reported item on its own."""
    created_ids = [n.node_id for n in outcome.created]
    existing_ids = [n.node_id for n in outcome.existing]
    block_sigs = [(b.cause, b.detail, b.space) for b in outcome.blocks]
    reported = state.reported.setdefault(binding.fire_key, set())
    new = [item for item in outcome.existing + block_sigs if item not in reported]
    reported.update(outcome.created, outcome.existing, block_sigs)
    if not created_ids and not new:
        return
    g.trace.append(
        TraceEvent(
            kind="fire",
            rule=rule.name,
            iteration=iteration,
            preconditions=[p.node_id for p in binding.ps],
            assumptions=[n.node_id for n in outcome.assumptions],
            created=created_ids,
            existing=existing_ids,
            blocks=outcome.blocks,
        )
    )


# -- the checks -----------------------------------------------------------------

def outputs(text, lexicon, cfg):
    """The export and each sentence's text views, or the input error raised."""
    try:
        results = process_document(parse_document(text), lexicon, cfg)
    except InputError as exc:
        return type(exc), str(exc)
    views = [(render_graph(r.graph), render_by_spaces(r), render_trace(r)) for r in results]
    return dumps(results), views


def compare_with_reference(texts, lexicon, monkeypatch, cfg):
    """Assert the engine's fire path and the reference copies agree on every
    text; return the reference's fires."""
    fires = 0

    def counted_fire(*args, **kwargs):
        nonlocal fires
        fires += 1
        return reference_fire(*args, **kwargs)

    for text in texts:
        got = outputs(text, lexicon, cfg)
        with monkeypatch.context() as m:
            m.setattr(rules, "fire", counted_fire)
            m.setattr(rules, "_log", reference_log)
            m.setattr(rules, "extend_spaces", reference_extend_spaces)
            expected = outputs(text, lexicon, cfg)
        assert got == expected, (cfg, text)
    return fires


@pytest.mark.parametrize("fire_once", [True, False], ids=["fire-once", "refire"])
@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_fire_path_matches_reference_on_corpus(lexicon, corpus_files, monkeypatch,
                                               extended, fire_once):
    cfg = Config(fire_once=fire_once, extended_belief_spaces=extended)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    assert compare_with_reference(texts, lexicon, monkeypatch, cfg) > 100


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_fire_path_matches_reference_on_deep_documents(lexicon, monkeypatch, extended):
    rng = random.Random(2)
    texts = [deep_document(rng) for _ in range(DEEP_DOCUMENTS)]
    cfg = Config(extended_belief_spaces=extended)
    assert compare_with_reference(texts, lexicon, monkeypatch, cfg) > 1000
