from opine import Config, Graph
from opine.graph import entity_fact, ps_fact
from opine.rules import RULES, Binding, fire
from opine.spaces import (
    extend_spaces,
    format_space,
    space_index,
    would_contradict,
)

from conftest import spaces_of


def named_ps(source, att_type, polarity, target, **kwargs):
    """A private-state fact whose source is given by name."""
    return ps_fact(entity_fact(source), att_type, polarity, target, **kwargs)


def chain_graph():
    """writer +B (mother -S (tree badFor boy)) plus writer +B-substantial event."""
    g = Graph()
    g.things.add("the tree")
    tree = g.entity("the tree")
    boy = g.entity("the boy")
    event = g.gfbf(tree, "badFor", boy)
    inner = g.private_state("mother", "sentiment", "negative", event)
    root = g.private_state("writer", "believesTrue", "positive", inner)
    g.add_root(root)
    sub = g.private_state("writer", "believesTrue", "positive", event, substantial=True)
    g.add_root(sub)
    return g, event, inner, root


def test_root_is_in_no_space():
    g, event, inner, root = chain_graph()
    assert spaces_of(root, g) == set()


def test_chain_membership():
    g, event, inner, root = chain_graph()
    assert spaces_of(inner, g) == {(("writer", "believesTrue", "positive"),)}
    assert spaces_of(event, g) == {
        (("writer", "believesTrue", "positive"), ("mother", "sentiment", "negative")),
        (("writer", "believesTrue", "positive"),),
    }


def test_same_steps_same_space():
    # Substantial does not factor into space identity: the plain and the
    # substantial writer beliefs define the same space.
    g, event, inner, root = chain_graph()
    spaces = spaces_of(event, g)
    assert (("writer", "believesTrue", "positive"),) in spaces
    steps = (("writer", "believesTrue", "positive"),)
    assert len(space_index(g).spaces[steps].members) == 2


def test_taxes_space_inventory(run_sentence):
    result = run_sentence("taxes")
    g = result.graph
    node = next(n for n in g.nodes if n.name == "taxes on the rich")
    labels = {format_space(s) for s in spaces_of(node, g)}
    assert labels == {
        "[writer +B MoveOn -S the Republicans -S]",
        "[writer +B MoveOn +B the Republicans -S]",
        "[writer +B MoveOn +S]",
        "[writer +B MoveOn -S the Republicans -S Obama +S]",
        "[writer +B MoveOn +B the Republicans -S Obama +S]",
        "[writer +B MoveOn +B the Republicans +B Obama +S]",
        "[writer +B MoveOn +S Obama +S]",
        "[writer +B MoveOn +B Obama +S]",
    }


def test_rich_in_two_spaces(run_sentence):
    result = run_sentence("accusing")
    g = result.graph
    rich = next(n for n in g.nodes if n.name == "the rich")
    assert len(spaces_of(rich, g)) == 2


def test_extension_into_base_and_belief_variant():
    g = Graph()
    mccain = g.entity("Senator McCain")
    event = g.gfbf(g.entity("MoveOn"), "badFor", mccain)
    root = g.private_state("writer", "sentiment", "negative", event)
    g.add_root(root)
    q = named_ps("MoveOn", "intends", "positive", event)
    created, existing, blocks = extend_spaces(g, [event], [], [q])
    assert created
    keys = {n.structural_key() for n in created}
    assert "(ps writer sentiment negative (ps MoveOn intends positive (gfbf MoveOn badFor Senator McCain)))" in keys
    assert "(ps writer believesTrue positive (ps MoveOn intends positive (gfbf MoveOn badFor Senator McCain)))" in keys


def test_extension_skips_negative_belief_space():
    g = Graph()
    rich = g.entity("the rich")
    event = g.gfbf(g.entity("obama"), "badFor", rich)
    root = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    g.add_root(root)
    q = named_ps("obama", "intends", "positive", event)
    created, existing, blocks = extend_spaces(g, [event], [], [q])
    assert created == existing == []
    assert blocks[0][1] == "negative-belief-path"


def test_extension_at_writer_level_makes_roots():
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    root = g.private_state("writer", "sentiment", "negative", event)
    g.add_root(root)
    q = named_ps("writer", "sentiment", "negative", g.idea_of(event))
    created, existing, blocks = extend_spaces(g, [root], [], [q])
    assert created
    assert len(g.roots) == 2


def no_common_space_graph():
    """Two events in two spaces: writer +B, and writer +B (mother -S)."""
    g = Graph()
    e1 = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    e2 = g.gfbf(g.entity("c"), "goodFor", g.entity("d"))
    r1 = g.private_state("writer", "believesTrue", "positive", e1)
    inner = g.private_state("mother", "sentiment", "negative", e2)
    r2 = g.private_state("writer", "believesTrue", "positive", inner)
    g.add_root(r1)
    g.add_root(r2)
    return g, e1, e2


def test_extension_requires_common_space():
    g, e1, e2 = no_common_space_graph()
    nodes, roots = list(g.nodes), list(g.roots)
    created, existing, blocks = extend_spaces(
        g, [e1, e2], [], [named_ps("writer", "sentiment", "positive", e1)])
    assert created == existing == blocks == []
    assert g.nodes == nodes and g.roots == roots


def test_fire_without_a_common_space_logs_nothing():
    g, e1, e2 = no_common_space_graph()
    q = named_ps("writer", "sentiment", "positive", e1)
    event = fire(RULES["rule1"], Binding("rule1", [e1, e2], [], [q]), g, Config(), {})
    assert event.created == event.existing == () and event.blocks == []
    assert g.trace == []


def test_would_contradict_opposite_polarity():
    g, event, inner, root = chain_graph()
    space = (("writer", "believesTrue", "positive"),)
    clash = would_contradict(space, named_ps("mother", "sentiment", "positive", event), g,
                             space_index(g))
    assert clash is inner
    assert would_contradict(space, named_ps("mother", "sentiment", "negative", event), g,
                            space_index(g)) is None


def test_would_contradict_different_target():
    g, event, inner, root = chain_graph()
    boy = next(n for n in g.nodes if n.name == "the boy")
    space = (("writer", "believesTrue", "positive"),)
    assert would_contradict(space, named_ps("mother", "sentiment", "negative", boy), g,
                            space_index(g)) is None


def test_would_contradict_rightmost_negative_belief():
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    root = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    g.add_root(root)
    space = (("writer", "believesTrue", "negative"),)
    assert would_contradict(space, event, g, space_index(g)) is root


def test_belief_variant_replaces_all_sentiments():
    g = Graph()
    event = g.gfbf(g.entity("a"), "badFor", g.entity("b"))
    obama = g.private_state("Obama", "sentiment", "positive", event)
    moveon = g.private_state("MoveOn", "sentiment", "negative", obama)
    g.add_root(g.private_state("writer", "believesTrue", "positive", moveon))
    steps = (
        ("writer", "believesTrue", "positive"),
        ("MoveOn", "sentiment", "negative"),
        ("Obama", "sentiment", "positive"),
    )
    assert space_index(g).spaces[steps].variant == (
        ("writer", "believesTrue", "positive"),
        ("MoveOn", "believesTrue", "positive"),
        ("Obama", "believesTrue", "positive"),
    )


def test_no_contradictions_after_extensions(run_sentence, corpus_files):
    from opine import check_consistency

    for path in corpus_files:
        if path.stem == "empty":
            continue
        check_consistency(run_sentence(path.stem).graph)


def test_gfbf_not_placed_into_variant(run_sentence):
    # The chain event itself is not believed into variant spaces by default:
    # no bare writer-believes-event root appears for the MoveOn sentence.
    g = run_sentence("moveon").graph
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer believesTrue positive (gfbf MoveOn badFor Senator McCain))" not in keys


def test_extended_belief_spaces_flag(run_sentence):
    from opine import Config
    from opine.spaces import format_space

    base = run_sentence("judge")
    murderer = next(n for n in base.graph.nodes if n.name == "the murderer")
    assert len(spaces_of(murderer, base.graph)) == 3

    extended = run_sentence("judge", Config(extended_belief_spaces=True))
    murderer = next(n for n in extended.graph.nodes if n.name == "the murderer")
    labels = {format_space(s) for s in spaces_of(murderer, extended.graph)}
    assert labels == {
        "[writer +B mother -S]",
        "[writer +B mother -S the judge +S]",
        "[writer +B mother +B the judge +S]",
        "[writer +B mother +B]",
        "[writer +B mother +B the judge +B]",
    }
