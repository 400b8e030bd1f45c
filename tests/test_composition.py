from itertools import product

from opine import Graph, build_input_graph, parse_lexicon, resolve_chains
from opine.composition import expand_extra_roles

from conftest import load_doc


def test_virus_chain_flips_event_and_evidence(lexicon):
    doc = load_doc("virus")
    g = build_input_graph(doc.sentences[0], lexicon)
    result = resolve_chains(g)
    assert len(result.new_gfbfs) == 1
    new = result.new_gfbfs[0]
    assert new.structural_key() == "(gfbf the tech staff goodFor the virus)"
    flipped = {(f.att_type, f.polarity) for f in result.new_evidence}
    assert flipped == {("intends", "negative"), ("believesTrue", "positive")}
    # originals retired, originals' chain excluded from matching
    old = next(n for n in g.nodes if n.structural_key() == "(gfbf the tech staff badFor the virus)")
    assert old.retired
    assert all(f.retired for f in g.evidence if f.target is old)
    # the writer's sentiment now holds the new event
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer sentiment negative (gfbf the tech staff goodFor the virus))" in keys


def test_retainer_chain_keeps_effect(lexicon):
    doc = load_doc("orders")
    g = build_input_graph(doc.sentences[0], lexicon)
    result = resolve_chains(g)
    new = result.new_gfbfs[0]
    assert new.structural_key() == "(gfbf Obama badFor Osama bin Laden)"
    assert result.new_evidence == []
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer believesTrue positive (gfbf Obama badFor Osama bin Laden))" in keys


def build_chain(kinds, effect="badFor"):
    """Influencer chain over <X badFor Bill>, outermost influencer first."""
    g = Graph()
    bill = g.entity("Bill")
    node = g.gfbf(g.entity("X"), effect, bill)
    terminal = node
    for kind in reversed(kinds):
        node = g.influencer(g.entity("He"), kind, node)
    g.add_root(g.private_state("writer", "sentiment", "negative", node))
    return g, terminal


def test_influencer_sign_law_exhaustive():
    # effective effect = terminal effect, flipped once per reverser, for every
    # chain of length 1..4 over both terminal effects
    for effect in ("goodFor", "badFor"):
        for n in range(1, 4):
            for kinds in product(("retain", "reverse"), repeat=n):
                g, terminal = build_chain(list(kinds), effect)
                result = resolve_chains(g)
                reversals = kinds.count("reverse")
                expected = effect
                if reversals % 2:
                    expected = "goodFor" if effect == "badFor" else "badFor"
                assert result.new_gfbfs[0].effect == expected, (effect, kinds)


def test_stopped_trying_to_kill_bill():
    # reverse(stop) over retain(trying) over badFor(kill Bill) -> goodFor Bill
    g, _ = build_chain(["reverse", "retain"], "badFor")
    result = resolve_chains(g)
    assert result.new_gfbfs[0].structural_key() == "(gfbf He goodFor Bill)"


def test_evidence_flip_parity():
    # evidence flips exactly when the reverser count is odd
    for kinds in [["reverse"], ["retain"], ["reverse", "reverse"], ["reverse", "retain"]]:
        g, terminal = build_chain(kinds, "badFor")
        g.add_evidence("intends", "positive", terminal, from_input=True)
        result = resolve_chains(g)
        fact = result.new_evidence[0]
        expected = "negative" if kinds.count("reverse") % 2 else "positive"
        assert fact.polarity == expected, kinds


def test_sentiment_evidence_carried_unflipped_and_wrapped():
    g, terminal = build_chain(["reverse"], "badFor")
    g.add_evidence("sentiment", "negative", g.idea_of(terminal), holder="He", from_input=True)
    result = resolve_chains(g)
    fact = result.new_evidence[0]
    assert fact.polarity == "negative"
    assert fact.target.node_type == "ideaOf"
    assert fact.target.idea_object is result.new_gfbfs[0]


def test_deprive_second_role(lexicon):
    doc = load_doc("deprive")
    g = build_input_graph(doc.sentences[0], lexicon)
    derived = expand_extra_roles(g, lexicon)
    assert len(derived) == 1
    assert derived[0].structural_key() == "(gfbf food goodFor the children)"
    event = next(n for n in g.nodes if n.node_type == "gfbf" and n.agent.name == "the leader")
    assert event.role2 is derived[0]


def test_no_entry_no_expansion(lexicon):
    text = (
        '"No entry."\n'
        "E1 gfbf <a, badFor (robbed,rob:lexEntry), b, c>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    from opine import parse_document

    doc = parse_document(text)
    g = build_input_graph(doc.sentences[0], lexicon)
    assert expand_extra_roles(g, lexicon) == []


def test_role2_effect_symmetry():
    # A hypothetical badFor second role derives a badFor relation.
    lex = parse_lexicon("gfbf strip badFor role2=badFor\n")
    text = (
        '"Symmetric."\n'
        "E1 gfbf <the leader, badFor (stripped,strip:lexEntry), the children, armor:thing>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    from opine import parse_document

    doc = parse_document(text)
    g = build_input_graph(doc.sentences[0], lex)
    derived = expand_extra_roles(g, lex)
    assert derived[0].structural_key() == "(gfbf armor badFor the children)"
