from pathlib import Path

import pytest

from opine import Config, parse_document, parse_lexicon, process_document
from opine.spaces import space_index

CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture(scope="session")
def lexicon():
    return parse_lexicon((CORPUS / "base.lex").read_text(), "base.lex")


@pytest.fixture(scope="session")
def corpus_files():
    return sorted(CORPUS.glob("*.ann"))


@pytest.fixture(scope="session")
def run_sentence(lexicon):
    """Parse a corpus file and run its (single) sentence to fixpoint."""
    cache = {}

    def _run(name, cfg=None):
        key = (name, cfg.extended_belief_spaces if cfg else False,
               cfg.fire_once if cfg else True)
        if key not in cache:
            doc = parse_document((CORPUS / f"{name}.ann").read_text(), f"{name}.ann")
            cache[key] = process_document(doc, lexicon, cfg or Config())[0]
        return cache[key]

    return _run


def load_doc(name):
    return parse_document((CORPUS / f"{name}.ann").read_text(), f"{name}.ann")


def spaces_of(node, g):
    """Spaces containing the node.  A root defines spaces but is in none."""
    return set(space_index(g).memberships.get(node.node_id, ()))


def parts_of(node):
    """A node's (label, part) pairs, read through its accessors, in the order
    the graph module gives its fact's parts."""
    t = node.node_type
    if t == "gfbf":
        pairs = [("agent", node.agent), ("object", node.object)]
        if node.role2 is not None:
            pairs.append(("role2", node.role2))
        return pairs
    if t == "ideaOf":
        return [("ideaObject", node.idea_object)]
    if t == "p_x":
        return [("x", node.x)]
    if t == "privateState":
        return [("source", node.source), ("target", node.target)]
    if t == "agreement":
        return [("source", node.source), ("withWhom", node.with_whom), ("target", node.target)]
    if t == "influencer":
        return [("agent", node.agent), ("target", node.target)]
    return []


def assert_acyclic(g):
    """No node is a part of itself, at any depth.  A part is interned before
    the key holding it, and a second-role relation joins two entities, so
    the engine builds no cycle; this walk checks that it does not."""
    seen, stack = set(), set()

    def visit(node):
        if node in seen:
            return
        assert node not in stack, f"cycle through node {node.node_id}"
        stack.add(node)
        for _, child in parts_of(node):
            visit(child)
        stack.discard(node)
        seen.add(node)

    for node in g.nodes:
        visit(node)
