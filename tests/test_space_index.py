"""Differential checks of the incremental space index and the clash tables.

The index is kept up to date as roots arrive, and ``would_contradict``
answers by probing clash tables.  Both are compared, during real fixpoint
runs, with the straightforward versions they replaced: an index built from
scratch by walking every root, and a contradiction check that scans the
members of every prefix space.
"""

import random
import re

import pytest

from opine import Config, Graph, parse_document, process_document
from opine import rules, spaces
from opine.errors import InputError, InvariantViolation
from opine.graph import (
    AGREEMENT,
    BELIEVES_TRUE,
    GFBF,
    NEGATIVE,
    POSITIVE,
    PRIVATE_STATE,
    SENTIMENT,
    Node,
    entity_fact,
    ps_fact,
)
from opine.spaces import EPSILON, space_index

from conftest import parts_of
from test_properties import deep_document, random_document, rule_orders

DOCUMENTS = 100  # the first documents of the fixed-seed random suite
DEEP_DOCUMENTS = 50  # of the fixed-seed deeper suite; two reach a clash below a placed chain
KIND_DEEP_DOCUMENTS = 100  # the first deep documents of seed 2

# A placement that clashes both in its space and below its own chain; the
# clash in its space is the one reported.
BOTH_CLASHES_DOCUMENT = """"Two clashes."
E1 gfbf <carol, goodFor (x1), dave>
S0 subjectivity <carol, negative sentiment (w), E1>
S1 subjectivity <writer, negative intends (w), E1>
S2 subjectivity <bob, positive sentiment (w), E1>
S3 subjectivity <bob, negative sentiment (w), S2>
S4 subjectivity <carol, negative believesTrue (w), S2>
B1 privateState <writer, negative sentiment (w), S0>
B2 privateState <writer, negative believesTrue (w), S1>
B3 privateState <writer, positive sentiment (w), S3>
B4 privateState <writer, negative sentiment (w), S4>
V1 evidence <none, positive sentiment (e), E1>
"""


# -- reference implementations --------------------------------------------------

def step_of(node):
    """The step a chain node adds: (source name, attitude type, polarity)."""
    return (node.source_name, node.att_type, node.polarity)


def belief_variant(steps):
    """Every sentiment step replaced by a positive belief of the same source."""
    return tuple(
        (src, BELIEVES_TRUE, POSITIVE) if att == SENTIMENT else (src, att, pol)
        for src, att, pol in steps
    )


def reference_index(g):
    """(spaces, memberships) from walking every root, as the index once did."""
    # Roots only grow, and attach_role2 is the one change to an existing node.
    version = (len(g.roots), sum(n.node_type == GFBF and n.role2 is not None for n in g.nodes))
    cached = getattr(g, "_reference_index", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    found = {}  # steps -> (paths, members)
    memberships = {}
    for root in g.roots:
        path = []
        node = root
        while node is not None and node.is_chain_node():
            path.append(node)
            steps = tuple(step_of(n) for n in path)
            member = node.target
            paths, members = found.setdefault(steps, ([], []))
            paths.append(tuple(path))
            held = [member]
            if member.node_type == "gfbf" and member.role2 is not None:
                held.append(member.role2)
            for m in held:
                if m not in members:
                    members.append(m)
                memberships.setdefault(m.node_id, {}).setdefault(steps, tuple(path))
            node = member
    g._reference_index = (version, (found, memberships))
    return found, memberships


def clash_table(members):
    """A space's clash table, built from its members in order."""
    table = {}
    for member in members:
        spaces._add_to_table(table, member)
    return table


def _parts(prop):
    """The parts of a node, read through its accessors, or of a fact."""
    if isinstance(prop, Node):
        return [part for _, part in parts_of(prop)]
    return list(prop.parts)


def _is(node, part):
    """Whether node is the part: the node itself, or a fact of its structure."""
    if isinstance(part, Node):
        return node is part
    label = node.effect if node.node_type == GFBF else node.name
    children = _parts(node)
    return (
        (node.node_type, node.att_type, node.polarity, node.property, label) == part[:5]
        and len(children) == len(part.parts)
        and all(_is(child, p) for child, p in zip(children, part.parts))
    )


def _conflicts(existing, prop):
    """Same private state or agreement as prop, but for its polarity and property."""
    return (
        prop.node_type in (PRIVATE_STATE, AGREEMENT)
        and existing.node_type == prop.node_type
        and existing.att_type == prop.att_type
        and existing.polarity != prop.polarity
        and all(_is(child, p) for child, p in zip(_parts(existing), _parts(prop)))
    )


def reference_would_contradict(steps, prop, g):
    """The member-scanning contradiction check."""
    found, _ = reference_index(g)

    def members_of(prefix):
        if prefix == EPSILON:
            return list(g.roots) + list(g.top_level)
        return list(found[prefix][1]) if prefix in found else []

    for path in found.get(steps, ([], []))[0]:
        last = path[-1]
        if last.att_type == BELIEVES_TRUE and last.polarity == NEGATIVE:
            if _is(last.target, prop):
                return last
    level_fact = prop
    for depth in range(len(steps), -1, -1):
        for existing in members_of(steps[:depth]):
            if _conflicts(existing, level_fact):
                return existing
        if depth > 0:
            src, att, pol = steps[depth - 1]
            level_fact = ps_fact(entity_fact(src), att, pol, level_fact)
    # A chain prop defines the space one step below, where its target is a
    # member, and so on down its chain.
    step = _chain_step(prop)
    while step is not None:
        steps += (step,)
        prop = prop.target
        for existing in members_of(steps):
            if _conflicts(existing, prop):
                return existing
        step = _chain_step(prop)
    return None


def _chain_step(prop):
    if prop.node_type == PRIVATE_STATE and prop.att_type in (BELIEVES_TRUE, SENTIMENT):
        return (prop.source.name, prop.att_type, prop.polarity)
    return None


# -- the checks -----------------------------------------------------------------

def assert_index_matches_reference(g):
    index = space_index(g)
    found, memberships = reference_index(g)
    assert list(index.spaces) == list(found)
    for steps, (paths, members) in found.items():
        inst = index.spaces[steps]
        assert inst.paths == paths
        assert list(inst.members.values()) == members
        assert list(inst.members) == [m.node_id for m in members]
        assert inst.first_root == min(path[0].node_id for path in paths)
        assert inst.clash == clash_table(members), steps
    assert index.writer_clash == clash_table([*g.roots, *g.top_level])
    assert index.memberships == memberships
    # A membership shares its space's step list and one of its chains, so
    # the index keeps no second copy of either alive.
    paths_of = {steps: {id(path) for path in inst.paths} for steps, inst in index.spaces.items()}
    for by_space in index.memberships.values():
        for steps, path in by_space.items():
            assert steps is index.spaces[steps].steps
            assert id(path) in paths_of[steps]


@pytest.fixture
def checked_engine(monkeypatch):
    """Check the index after every fire and every would_contradict answer."""
    stats = {"fires": 0, "contradiction_checks": 0}
    fire, would_contradict = rules.fire, spaces.would_contradict

    def checked_fire(rule, binding, g, *args, **kwargs):
        outcome = fire(rule, binding, g, *args, **kwargs)
        assert_index_matches_reference(g)
        stats["fires"] += 1
        return outcome

    def checked_would_contradict(steps, prop, g, index=None):
        got = would_contradict(steps, prop, g, index)
        assert got is reference_would_contradict(steps, prop, g), (steps, prop)
        stats["contradiction_checks"] += 1
        return got

    monkeypatch.setattr(rules, "fire", checked_fire)
    monkeypatch.setattr(rules, "would_contradict", checked_would_contradict)
    monkeypatch.setattr(spaces, "would_contradict", checked_would_contradict)
    return stats


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_incremental_index_matches_scans(lexicon, checked_engine, extended):
    rng = random.Random(20240214)
    texts = [random_document(rng) for _ in range(DOCUMENTS)]
    for order in rule_orders():
        cfg = Config(rule_order=order, extended_belief_spaces=extended)
        for text in texts:
            process_document(parse_document(text), lexicon, cfg)
    assert checked_engine["fires"] > 1000
    assert checked_engine["contradiction_checks"] > 1000


def test_incremental_index_matches_scans_on_deep_documents(lexicon, checked_engine):
    """Deeper chains, where a placed chain can clash below its own space."""
    rng = random.Random(20240214)
    texts = [deep_document(rng) for _ in range(DEEP_DOCUMENTS)] + [BOTH_CLASHES_DOCUMENT]
    for order in rule_orders():
        for extended in (False, True):
            cfg = Config(rule_order=order, extended_belief_spaces=extended)
            for text in texts:
                process_document(parse_document(text), lexicon, cfg)
    assert checked_engine["contradiction_checks"] > 1000


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_each_space_stores_its_kind(lexicon, corpus_files, extended):
    """The kind a space stores when the index creates it, read on every fire,
    is what a scan of its steps gives.  The deep documents' longer chains
    build variants from a parent's variant and from its non-sentiment steps."""
    kinds = set()
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    rng = random.Random(2)
    texts += [deep_document(rng) for _ in range(KIND_DEEP_DOCUMENTS)]
    for text in texts:
        try:
            results = process_document(parse_document(text), lexicon,
                                       Config(extended_belief_spaces=extended))
        except InputError:
            continue
        for result in results:
            for steps, inst in space_index(result.graph).spaces.items():
                negative = any(att == BELIEVES_TRUE and pol == NEGATIVE for _, att, pol in steps)
                sentiment = any(att == SENTIMENT for _, att, _ in steps)
                assert inst.negative_belief == negative, steps
                assert inst.variant == (belief_variant(steps) if sentiment else None), steps
                kinds.add((negative, sentiment))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_attach_role2_after_the_index_is_built_raises():
    """The index is never rebuilt, so a second role attached once it exists
    would be missing from the event's spaces; the graph refuses it."""
    g = Graph()
    event = g.gfbf(g.entity("a"), "badFor", g.entity("b"))
    g.add_root(g.private_state("writer", "sentiment", "negative", event))
    index = space_index(g)
    derived = g.gfbf(g.entity("c"), "goodFor", g.entity("b"))
    old_key = event.key
    with pytest.raises(InvariantViolation, match="after the space index was built"):
        g.attach_role2(event, derived)
    assert event.role2 is None and g.lookup(old_key) is event
    assert space_index(g) is index
    assert_index_matches_reference(g)


def test_first_root_goes_down_when_an_older_root_arrives():
    g = Graph()
    older, newer = (
        g.private_state("writer", "sentiment", "positive",
                        g.private_state("a", "sentiment", "positive", g.entity(name)))
        for name in ("x", "y")
    )
    g.add_root(newer)
    index = space_index(g)
    assert [inst.first_root for inst in index.spaces.values()] == [newer.node_id] * 2
    g.add_root(older)  # the older node is the first root of both spaces now
    assert [inst.first_root for inst in index.spaces.values()] == [older.node_id] * 2


@pytest.mark.parametrize("top_level", [False, True], ids=["nested", "writer-level"])
def test_check_consistency_reads_the_clash_tables(top_level):
    g = Graph()
    x = g.entity("x")
    if top_level:
        g.add_root(g.private_state("writer", "sentiment", "positive", x))
        g.add_top_level(g.private_state("writer", "sentiment", "negative", x))
        label = "[]"
    else:
        for polarity in ("positive", "negative"):
            held = g.private_state("S1", "sentiment", polarity, x)
            g.add_root(g.private_state("writer", BELIEVES_TRUE, "positive", held))
        label = "[writer +B]"
    message = re.escape(f"space {label} ") + r".*nodes \d+ and \d+"
    with pytest.raises(InvariantViolation, match=message):
        rules.check_consistency(g)
