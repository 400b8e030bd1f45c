from itertools import product

from opine import Graph, build_input_graph, parse_document, parse_lexicon, resolve_chains
from opine.composition import expand_extra_roles

from conftest import load_doc


def composed(g):
    """The new gfbf and the carried evidence of the graph's one influencer
    chain, read from the chain's composition trace event."""
    [event] = [e for e in g.trace if e.kind == "composition" and e.rule == "influencer-chain"]
    created = set(event.created)
    [new] = [n for n in g.nodes if n.node_id in created and n.node_type == "gfbf"]
    return new, [f for f in g.evidence if f.fact_id in created]


def extra_roles(g):
    """The gfbf relations created by the graph's second roles, read from the
    ``extra-role`` composition trace events."""
    created = {i for e in g.trace if e.kind == "composition" and e.rule == "extra-role"
               for i in e.created}
    return [n for n in g.nodes if n.node_id in created and n.node_type == "gfbf"]


def test_virus_chain_flips_event_and_evidence(lexicon):
    doc = load_doc("virus")
    g = build_input_graph(doc.sentences[0], lexicon)
    resolve_chains(g)
    new, evidence = composed(g)
    assert new.structural_key() == "(gfbf the tech staff goodFor the virus)"
    flipped = {(f.att_type, f.polarity) for f in evidence}
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
    resolve_chains(g)
    new, evidence = composed(g)
    assert new.structural_key() == "(gfbf Obama badFor Osama bin Laden)"
    assert evidence == []
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer believesTrue positive (gfbf Obama badFor Osama bin Laden))" in keys


def test_nested_holders_get_a_rooted_counterpart_chain(lexicon):
    text = (
        '"The staff failed to stop the virus, Bob dreads, the writer believes."\n'
        "E1 gfbf <the tech staff, badFor (stop), the virus>\n"
        "I1 influencer <the tech staff, reverse (failed), E1>\n"
        "S1 subjectivity <Bob, negative sentiment (dreads), I1>\n"
        "B1 privateState <writer, positive believesTrue (believes), S1>\n"
    )
    g = build_input_graph(parse_document(text).sentences[0], lexicon)
    resolve_chains(g)
    new, _ = composed(g)
    root = next(n for n in g.roots if n.target.target is new)
    assert root.structural_key() == (
        "(ps writer believesTrue positive"
        " (ps Bob sentiment negative (gfbf the tech staff goodFor the virus)))"
    )
    [event] = [e for e in g.trace if e.rule == "influencer-chain"]
    assert {root.node_id, root.target.node_id} <= set(event.created)
    # each counterpart stands for the line its original stands for
    assert [g.input_lines[n.node_id].line_id for n in (root.target, root)] == ["S1", "B1"]
    assert root.from_input and root.target.from_input
    # the original chain stays rooted, for display
    assert any(r.target.target.node_type == "influencer" for r in g.roots)


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
    # chain of length 1..3 over both terminal effects
    for effect in ("goodFor", "badFor"):
        for n in range(1, 4):
            for kinds in product(("retain", "reverse"), repeat=n):
                g, terminal = build_chain(list(kinds), effect)
                resolve_chains(g)
                reversals = kinds.count("reverse")
                expected = effect
                if reversals % 2:
                    expected = "goodFor" if effect == "badFor" else "badFor"
                assert composed(g)[0].effect == expected, (effect, kinds)


def test_stopped_trying_to_kill_bill():
    # reverse(stop) over retain(trying) over badFor(kill Bill) -> goodFor Bill
    g, _ = build_chain(["reverse", "retain"], "badFor")
    resolve_chains(g)
    assert composed(g)[0].structural_key() == "(gfbf He goodFor Bill)"


def test_evidence_flip_parity():
    # evidence flips exactly when the reverser count is odd
    for kinds in [["reverse"], ["retain"], ["reverse", "reverse"], ["reverse", "retain"]]:
        g, terminal = build_chain(kinds, "badFor")
        g.add_evidence("intends", "positive", terminal)
        resolve_chains(g)
        fact = composed(g)[1][0]
        expected = "negative" if kinds.count("reverse") % 2 else "positive"
        assert fact.polarity == expected, kinds


def test_sentiment_evidence_carried_unflipped_and_wrapped():
    g, terminal = build_chain(["reverse"], "badFor")
    g.add_evidence("sentiment", "negative", g.idea_of(terminal), holder="He")
    resolve_chains(g)
    new, [fact] = composed(g)
    assert fact.polarity == "negative"
    assert fact.target.node_type == "ideaOf"
    assert fact.target.idea_object is new


def test_deprive_second_role(lexicon):
    doc = load_doc("deprive")
    g = build_input_graph(doc.sentences[0], lexicon)
    expand_extra_roles(g)
    derived = extra_roles(g)
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
    doc = parse_document(text)
    g = build_input_graph(doc.sentences[0], lexicon)
    expand_extra_roles(g)
    assert extra_roles(g) == []
    assert all(n.role2 is None for n in g.nodes if n.node_type == "gfbf")


def test_role2_effect_symmetry():
    # A hypothetical badFor second role derives a badFor relation.
    lex = parse_lexicon("gfbf strip badFor role2=badFor\n")
    text = (
        '"Symmetric."\n'
        "E1 gfbf <the leader, badFor (stripped,strip:lexEntry), the children, armor:thing>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    doc = parse_document(text)
    g = build_input_graph(doc.sentences[0], lex)
    expand_extra_roles(g)
    derived = extra_roles(g)
    assert derived[0].structural_key() == "(gfbf armor badFor the children)"
