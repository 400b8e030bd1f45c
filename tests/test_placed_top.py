"""Checks of the placement shortcut's guards and of what it skips.

``extend_spaces`` neither checks nor places an addition the space index
already holds as placed (``SpaceIndex.placed_top``): in a space, through a
chain it recorded, and at the writer level, as a root or top-level fact.  The
``--extended-belief-spaces`` closure skips such a member before its check.
With ``placed_top`` patched to find nothing, every addition is checked and
placed as before.  The tests show on named corpus documents that each of
``placed_top``'s three guards is needed, and check in a live run that what
the shortcut skips would have been a clash-free placement creating nothing.
"""

import random

import pytest

from opine import Config, parse_document, process_document
from opine import rules, spaces
from opine.errors import InputError
from opine.render import dumps, render_by_spaces, render_graph, render_trace

from test_properties import deep_document
from test_seminaive import STAMP_DOCUMENTS


def outputs(text, lexicon, cfg):
    """The export, each sentence's text views and passes, or the input error raised."""
    try:
        results = process_document(parse_document(text), lexicon, cfg)
    except InputError as exc:
        return type(exc), str(exc)
    views = [(render_graph(r.graph), render_by_spaces(r), render_trace(r), r.iterations)
             for r in results]
    return dumps(results), views


def finds_nothing(self, node, steps):
    return None


def without_guard(guard):
    """placed_top without its writer-level guard, its substantial-link guard
    or its direct-target guard."""

    def placed_top(self, node, steps):
        if not steps:
            return node if guard == "writer-level" or node in self.writer_level else None
        by_space = self.memberships.get(node.node_id)
        path = by_space.get(steps) if by_space else None
        if path is None:
            return None
        if guard != "role2" and path[-1].target is not node:
            return None
        if guard != "substantial" and any(link.property is not None for link in path):
            return None
        return path[0]

    return placed_top


def reference_outputs(text, lexicon, cfg, monkeypatch, placed_top=finds_nothing):
    with monkeypatch.context() as m:
        m.setattr(spaces.SpaceIndex, "placed_top", placed_top)
        return outputs(text, lexicon, cfg)


def corpus_texts(corpus_files):
    return [path.read_text(encoding="utf-8") for path in corpus_files]


@pytest.mark.parametrize("guard, name", [
    # A member of [writer +S republicans +B] reached only through
    # republicans +B substantial, which place would not build.
    ("substantial", "accusing"),
    # A gfbf's role2 node is a member through the gfbf's chain, which does
    # not end in it.
    ("role2", "deprive"),
    # A conclusion the writer holds is put at the writer level by its first
    # placement, which the shortcut must not skip.
    ("writer-level", "moveon"),
])
def test_each_guard_is_needed(lexicon, corpus_files, monkeypatch, guard, name):
    (path,) = [p for p in corpus_files if p.stem == name]
    text = path.read_text(encoding="utf-8")
    cfg = Config(extended_belief_spaces=True)
    expected = reference_outputs(text, lexicon, cfg, monkeypatch)
    assert outputs(text, lexicon, cfg) == expected
    mutant = reference_outputs(text, lexicon, cfg, monkeypatch, without_guard(guard))
    assert mutant != expected


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_a_placed_top_is_a_placement_creating_nothing(lexicon, corpus_files,
                                                      monkeypatch, extended):
    """Whenever placed_top finds a top outside a negative-belief space, a
    fresh index finds no clash for the node there, and placing it creates
    nothing and returns that top."""
    placed_top = spaces.SpaceIndex.placed_top
    run_to_fixpoint = rules.run_to_fixpoint
    current = {}
    counts = {"tops": 0, "negative_belief": 0, "writer_level": 0}

    def recording_run_to_fixpoint(g, cfg=None):
        current["graph"], current["index"] = g, None
        return run_to_fixpoint(g, cfg)

    def fresh_index(g):
        """An index built from scratch, kept until a root or top-level fact is added."""
        size = (len(g.roots), len(g.top_level))
        if current["index"] is None or current["size"] != size:
            current["index"], current["size"] = spaces.SpaceIndex(g), size
        return current["index"]

    def checked_placed_top(self, node, steps):
        top = placed_top(self, node, steps)
        if top is None:
            return None
        if steps and self.spaces[steps].negative_belief:
            counts["negative_belief"] += 1
            return top
        g = current["graph"]
        assert spaces.would_contradict(steps, node, g, fresh_index(g)) is None
        before = (len(g.nodes), len(g.roots), len(g.top_level))
        chain = self.memberships[node.node_id][steps] if steps else ()
        assert spaces.place(g, node, steps, chain) == (top, [])
        assert (len(g.nodes), len(g.roots), len(g.top_level)) == before
        counts["tops"] += 1
        counts["writer_level"] += not steps
        return top

    monkeypatch.setattr(rules, "run_to_fixpoint", recording_run_to_fixpoint)
    monkeypatch.setattr(spaces.SpaceIndex, "placed_top", checked_placed_top)
    rng = random.Random(2)
    texts = corpus_texts(corpus_files) + STAMP_DOCUMENTS
    texts += [deep_document(rng) for _ in range(40)]
    cfg = Config(extended_belief_spaces=extended)
    for text in texts:
        outputs(text, lexicon, cfg)
    assert counts["tops"] > 500, counts
    assert counts["writer_level"] > 500, counts
    # Only the closure asks about a negative-belief space's variant.
    assert (counts["negative_belief"] > 0) == extended, counts
