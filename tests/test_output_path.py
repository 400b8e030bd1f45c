"""Differential check of the text views and the input stamp.

The views build each node's display once per view, through a memo keyed by
node, and nest a child's display by indenting its lines; the by-spaces view
formats each space's label once, from the membership key.  The fixpoint's
input stamp is one int, the sum of terms that only grow.  The copies below
are the straightforward versions they replaced: a display rebuilt at every
indent, a label re-derived from every chain, and a stamp that keeps each
term apart.  The tests swap them in and compare every output byte for byte.
"""

import random

import pytest

from opine import Config, parse_document, process_document
from opine import render, rules
from opine.errors import InputError
from opine.graph import (
    AGREEMENT,
    ANIM,
    BELIEVES_TRUE,
    GFBF,
    IDEA_OF,
    INFLUENCER,
    INTENDS,
    P_X,
    POSITIVE,
    PRIVATE_STATE,
    THING,
    Graph,
)
from opine.rules import InferenceResult
from opine.spaces import format_space, space_index

from test_properties import deep_document
from test_seminaive import STAMP_DOCUMENTS
from test_space_index import step_of

DEEP_DOCUMENTS = 100  # the first deep documents of seed 2
INDENT = "  "


# -- reference copies -----------------------------------------------------------

def reference_render_node(node, indent=0):
    pad = INDENT * indent
    t = node.node_type
    if t in (ANIM, THING):
        return f"{pad}{node.node_id} {node.name}"
    if t == GFBF:
        word = node.anchor or node.effect
        lines = [f"{pad}{node.node_id} {node.agent.name} {word} {node.object.name}"]
        derived = node.role2
        if derived is not None:
            lines.append(
                f"{pad}{INDENT}{derived.node_id} {derived.agent.name};"
                f" which is {derived.effect} {derived.object.name}"
            )
        return "\n".join(lines)
    if t == IDEA_OF:
        return f"{pad}{node.node_id} ideaOf\n" + reference_render_node(node.idea_object, indent + 1)
    if t == P_X:
        return f"{pad}{node.node_id} {node.property}\n" + reference_render_node(node.x, indent + 1)
    if t == AGREEMENT:
        verb = "agrees" if node.polarity == POSITIVE else "disagrees"
        head = f"{pad}{node.node_id} {node.source.name} {verb} with {node.with_whom.name} that"
        return head + "\n" + reference_render_node(node.target, indent + 1)
    if t == PRIVATE_STATE:
        prop = f" {node.property}" if node.property else ""
        head = f"{pad}{node.node_id} {node.source.name} {node.polarity} {node.att_type}{prop}"
        return head + "\n" + reference_render_node(node.target, indent + 1)
    if t == INFLUENCER:
        head = f"{pad}{node.node_id} {node.agent.name} <{node.property}>"
        return head + "\n" + reference_render_node(node.target, indent + 1)
    raise ValueError(f"unrenderable node type {t!r}")


def reference_render_evidence(fact):
    if fact.att_type == INTENDS:
        qualifier = "intentional" if fact.polarity == POSITIVE else "not intentional"
        head = f"{fact.fact_id} There is evidence that the following is {qualifier}:"
    elif fact.att_type == BELIEVES_TRUE:
        qualifier = "substantial" if fact.polarity == POSITIVE else "not substantial"
        head = f"{fact.fact_id} There is evidence that the following is {qualifier}"
    else:
        head = f"{fact.fact_id} (evidence,{fact.holder},{fact.polarity},{fact.att_type})"
    return head + "\n" + reference_render_node(fact.target, 1)


def reference_space_label(path):
    """A chain's space, as format_space writes it, led by the chain's root id."""
    return f"[{path[0].node_id} {format_space(tuple(map(step_of, path)))[1:]}"


def reference_render_by_spaces(result):
    g = result.graph if isinstance(result, InferenceResult) else result
    index = space_index(g)
    chunks = []
    shown = [
        node
        for node in g.nodes
        if render._shown_in_by_spaces(node) and node.node_id in index.memberships
    ]
    for node in sorted(shown, key=lambda n: n.node_id):
        paths = sorted(index.memberships[node.node_id].values(), key=lambda p: p[0].node_id)
        lines = []
        for path in paths:
            prefix = "From Input: " if all(n.from_input for n in path) else ""
            lines.append(prefix + reference_space_label(path))
        lines.append(reference_render_node(node))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def reference_render_graph(g: Graph):
    tops = sorted(list(g.roots) + list(g.top_level), key=lambda n: n.node_id)
    parts = [reference_render_node(n) for n in tops]
    parts.extend(reference_render_evidence(f) for f in g.evidence if not f.retired)
    return "\n".join(parts) + ("\n" if parts else "")


def reference_input_stamp(g, ps):
    """Each term of the stamp kept apart, in a tuple."""
    index = space_index(g)
    memberships = index.memberships
    return (
        index.first_root_moves,
        tuple((len(memberships.get(p.node_id, ())), g.is_writer_level(p)) for p in ps),
    )


# -- the checks -----------------------------------------------------------------

def render_node(node, indent=0):
    """The engine's display of one node, every line indented."""
    pad = INDENT * indent
    return pad + render._display(node, {}).replace("\n", "\n" + pad)


def outputs(text, lexicon, cfg, node_view=render_node):
    """The export and each sentence's text views, or the input error raised."""
    try:
        results = process_document(parse_document(text), lexicon, cfg)
    except InputError as exc:
        return type(exc), str(exc)
    views = [
        (render.render_graph(r.graph), render.render_by_spaces(r), render.render_trace(r),
         [node_view(n, 2) for n in r.graph.nodes])
        for r in results
    ]
    return render.dumps(results), views


def compare_with_reference(texts, lexicon, monkeypatch, cfg):
    """Assert the engine's views and stamp and the reference copies agree on
    every text; return the stamps the reference took."""
    stamps = 0

    def counted_stamp(g, ps):
        nonlocal stamps
        stamps += 1
        return reference_input_stamp(g, ps)

    for text in texts:
        got = outputs(text, lexicon, cfg)
        with monkeypatch.context() as m:
            m.setattr(render, "render_graph", reference_render_graph)
            m.setattr(render, "render_by_spaces", reference_render_by_spaces)
            m.setattr(rules, "_input_stamp", counted_stamp)
            expected = outputs(text, lexicon, cfg, reference_render_node)
        assert got == expected, (cfg, text)
    return stamps


@pytest.mark.parametrize("fire_once", [True, False], ids=["fire-once", "refire"])
@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_output_path_matches_reference_on_corpus(lexicon, corpus_files, monkeypatch,
                                                 extended, fire_once):
    """The corpus, and the documents that tell each part of the stamp apart."""
    cfg = Config(fire_once=fire_once, extended_belief_spaces=extended)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files] + STAMP_DOCUMENTS
    assert compare_with_reference(texts, lexicon, monkeypatch, cfg) > 100


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_output_path_matches_reference_on_deep_documents(lexicon, monkeypatch, extended):
    rng = random.Random(2)
    texts = [deep_document(rng) for _ in range(DEEP_DOCUMENTS)]
    cfg = Config(extended_belief_spaces=extended)
    assert compare_with_reference(texts, lexicon, monkeypatch, cfg) > 1000
