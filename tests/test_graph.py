import pytest

from opine import (
    Config,
    Graph,
    IllFormedNode,
    build_input_graph,
    parse_document,
    process_document,
    structural_signature,
)
from opine.graph import (
    PRIVATE_STATE,
    agreement_fact,
    entity_fact,
    idea_of_fact,
    p_x_fact,
    ps_fact,
)

from conftest import load_doc


def simple_graph():
    g = Graph()
    moveon = g.entity("MoveOn")
    mccain = g.entity("Senator McCain")
    event = g.gfbf(moveon, "badFor", mccain, anchor="attack")
    return g, moveon, mccain, event


def test_intern_idempotent():
    g, moveon, mccain, event = simple_graph()
    twice = g.gfbf(moveon, "badFor", mccain)
    assert twice is event
    first = g.private_state("writer", "sentiment", "negative", event)
    second = g.private_state("writer", "sentiment", "negative", event)
    assert first is second


def test_intern_distinguishes_effect():
    g, moveon, mccain, _ = simple_graph()
    good = g.gfbf(moveon, "goodFor", mccain)
    bad = g.gfbf(moveon, "badFor", mccain)
    assert good is not bad
    assert structural_signature(good) != structural_signature(bad)


def test_signature_ignores_ids_and_provenance():
    g, moveon, mccain, event = simple_graph()
    ps = g.private_state("mother", "sentiment", "negative", event)
    ps.from_input = True
    # Field-wise comparison: every signature component must ignore node_id
    # and from_input, so a rule-derived twin interns to the same node.
    other = Graph()
    twin_event = other.gfbf(other.entity("MoveOn"), "badFor", other.entity("Senator McCain"))
    twin = other.private_state("mother", "sentiment", "negative", twin_event)
    for left, right in zip(structural_signature(ps), structural_signature(twin)):
        if isinstance(left, tuple):
            assert [l for l, _ in left] == [r for r, _ in right]
        else:
            assert left == right
    assert ps.structural_key() == twin.structural_key()


def test_signature_separates_polarity():
    g, _, mccain, _ = simple_graph()
    pos = g.private_state("writer", "sentiment", "positive", mccain)
    neg = g.private_state("writer", "sentiment", "negative", mccain)
    assert pos is not neg


def test_entities_have_no_children():
    g = Graph()
    tree = g.entity("the tree", thing=True)
    assert tree.node_type == "thing"
    assert tree.children == {}


def test_illformed_nodes_rejected():
    g, moveon, mccain, event = simple_graph()
    with pytest.raises(IllFormedNode):
        g.gfbf(moveon, "sideways", mccain)
    with pytest.raises(IllFormedNode):
        g.private_state("writer", "intends", "positive", mccain)  # intends needs a gfbf
    with pytest.raises(IllFormedNode):
        g.private_state("writer", "sentiment", "positive", event, substantial=True)
    with pytest.raises(IllFormedNode):
        g.idea_of(mccain)
    with pytest.raises(IllFormedNode):
        g.p_x("isSoSo", mccain)
    tree = g.entity("the tree", thing=True)
    with pytest.raises(IllFormedNode):
        g.private_state(tree, "sentiment", "positive", event)  # thing source


def test_build_blooming_inputs(lexicon):
    doc = load_doc("blooming")
    g = build_input_graph(doc.sentences[0], lexicon)
    assert len(g.roots) == 2
    keys = {n.structural_key() for n in g.roots}
    assert (
        "(ps writer believesTrue positive (ps Mayor-Blooming-idiot sentiment positive "
        "(gfbf Congress goodFor gun control)))" in keys
    )
    assert "(ps writer sentiment negative Mayor-Blooming-idiot)" in keys
    assert all(n.from_input for n in g.nodes)


def test_build_tree_substantial_root(lexicon):
    doc = load_doc("tree")
    g = build_input_graph(doc.sentences[0], lexicon)
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer believesTrue positive substantial (gfbf the tree badFor the boy))" in keys
    tree = next(n for n in g.nodes if n.name == "the tree")
    assert tree.node_type == "thing"


def test_build_empty_sentence(lexicon):
    from opine import SentenceAnnotation

    g = build_input_graph(SentenceAnnotation(text="nothing"), lexicon)
    assert g.roots == [] and g.nodes == []


def test_evidence_lines_become_facts(lexicon):
    doc = load_doc("insurance")
    g = build_input_graph(doc.sentences[0], lexicon)
    assert len(g.evidence) == 1
    fact = g.evidence[0]
    assert fact.att_type == "sentiment"
    assert fact.holder == "insurance-companies"
    assert fact.target.node_type == "ideaOf"


def test_believes_true_evidence_is_substantial(lexicon):
    doc = load_doc("virus")
    g = build_input_graph(doc.sentences[0], lexicon)
    by_att = {f.att_type: f for f in g.evidence}
    assert by_att["believesTrue"].property == "substantial"
    assert by_att["intends"].property is None


def test_acyclicity_holds_after_build(lexicon, corpus_files):
    for path in corpus_files:
        from opine import parse_document

        doc = parse_document(path.read_text(), path.name)
        for sent in doc.sentences:
            build_input_graph(sent, lexicon).assert_acyclic()


def test_negative_belief_single_form(lexicon):
    # There is exactly one node form for a negative believesTrue; no separate
    # believes-false form can be constructed or distinguished.
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    neg = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    again = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    assert neg is again
    assert sum(1 for n in g.nodes if n.node_type == PRIVATE_STATE) == 1


def test_nodes_by_type_splits_the_nodes_in_order(run_sentence):
    g = run_sentence("blooming").graph
    assert sum(map(len, g.nodes_by_type.values())) == len(g.nodes)
    for node_type, nodes in g.nodes_by_type.items():
        assert nodes == [n for n in g.nodes if n.node_type == node_type]


def test_sentence_graphs_are_independent(lexicon):
    text = (
        '"First."\n'
        "E1 gfbf <a, goodFor (x), b>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
        "\n"
        '"Second."\n'
        "E1 gfbf <a, goodFor (x), b>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    from opine import IdAllocator, parse_document

    doc = parse_document(text)
    ids = IdAllocator()
    g1 = build_input_graph(doc.sentences[0], lexicon, ids)
    g2 = build_input_graph(doc.sentences[1], lexicon, ids)
    assert {n.node_id for n in g1.nodes}.isdisjoint({n.node_id for n in g2.nodes})
    assert g1.nodes[0].structural_key() == g2.nodes[0].structural_key()


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_every_node_looks_up_under_its_signature(lexicon, corpus_files, extended):
    rekeyed = 0
    for path in corpus_files:
        doc = parse_document(path.read_text(), path.name)
        for result in process_document(doc, lexicon, Config(extended_belief_spaces=extended)):
            g = result.graph
            for node in g.nodes:
                assert g.lookup(structural_signature(node)) is node, (path.name, node)
            rekeyed += sum(1 for n in g.nodes if "role2" in n.children)
    assert rekeyed  # a gfbf re-keyed by attach_role2 is among them


def test_nested_facts_look_up_after_intern():
    g, moveon, mccain, event = simple_graph()
    writer = g.entity("writer")
    nested = [
        idea_of_fact(event),
        p_x_fact("isBad", event),
        ps_fact(writer, "sentiment", "negative", idea_of_fact(event)),
        agreement_fact(writer, "positive", moveon, p_x_fact("isGood", mccain)),
    ]
    for fact in nested:
        assert g.lookup(fact) is None
        node = g.intern(fact)
        assert g.lookup(fact) is node
        assert g.lookup(structural_signature(node)) is node
        assert g.intern(fact) is node


def test_intern_creates_only_the_missing_nodes_in_order():
    g, moveon, mccain, event = simple_graph()
    idea = g.idea_of(event)
    fact = agreement_fact(
        entity_fact("writer"), "negative", moveon,
        p_x_fact("isGood", ps_fact(entity_fact("Mother"), "sentiment", "positive",
                                   idea_of_fact(event))),
    )
    before = list(g.nodes)
    top = g.intern(fact)
    created = g.nodes[len(before):]
    assert g.nodes[:len(before)] == before
    assert [n.structural_key() for n in created] == [
        "writer",
        "Mother",
        "(ps Mother sentiment positive (ideaOf (gfbf MoveOn badFor Senator McCain)))",
        "(px isGood (ps Mother sentiment positive (ideaOf (gfbf MoveOn badFor Senator McCain))))",
        top.structural_key(),
    ]
    assert created[2].target is idea
    size = len(g.nodes)
    assert g.intern(fact) is top and len(g.nodes) == size


def test_intern_validates_through_the_constructors():
    g, moveon, mccain, event = simple_graph()
    with pytest.raises(IllFormedNode):
        g.intern(ps_fact(moveon, "intends", "positive", mccain))  # intends needs a gfbf
    with pytest.raises(IllFormedNode):
        g.intern(idea_of_fact(mccain))
    assert g.lookup(ps_fact(moveon, "intends", "positive", mccain)) is None
