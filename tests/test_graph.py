import gc
import random
import types
from pathlib import Path

import pytest

from opine import (
    Config,
    Graph,
    IllFormedNode,
    build_input_graph,
    parse_document,
    process_document,
)
from opine.render import (
    dumps,
    render_by_spaces,
    render_graph,
    render_trace,
)
from opine.graph import (
    PRIVATE_STATE,
    agreement_fact,
    entity_fact,
    idea_of_fact,
    p_x_fact,
    ps_fact,
)

from conftest import assert_acyclic, load_doc, parts_of


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
    assert good.key != bad.key


def test_signature_ignores_ids_and_provenance():
    g, moveon, mccain, event = simple_graph()
    ps = g.private_state("mother", "sentiment", "negative", event)
    ps.from_input = True
    # Field-wise comparison: every signature component must ignore node_id
    # and from_input, so a rule-derived twin interns to the same node.
    other = Graph()
    twin_event = other.gfbf(other.entity("MoveOn"), "badFor", other.entity("Senator McCain"))
    twin = other.private_state("mother", "sentiment", "negative", twin_event)
    assert ps.key[:5] == twin.key[:5]
    assert ([(label, part.structural_key()) for label, part in parts_of(ps)]
            == [(label, part.structural_key()) for label, part in parts_of(twin)])
    assert ps.structural_key() == twin.structural_key()


def test_signature_separates_polarity():
    g, _, mccain, _ = simple_graph()
    pos = g.private_state("writer", "sentiment", "positive", mccain)
    neg = g.private_state("writer", "sentiment", "negative", mccain)
    assert pos is not neg


def test_entities_have_no_children():
    g = Graph()
    g.things.add("the tree")
    tree = g.entity("the tree")
    assert tree.node_type == "thing"
    assert tree.key.parts == ()


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
    g.things.add("the tree")
    tree = g.entity("the tree")
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
            assert_acyclic(build_input_graph(sent, lexicon))


def test_negative_belief_single_form(lexicon):
    # There is exactly one node form for a negative believesTrue; no separate
    # believes-false form can be constructed or distinguished.
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    neg = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    again = g.private_state("writer", "believesTrue", "negative", event, substantial=True)
    assert neg is again
    assert sum(1 for n in g.nodes if n.node_type == PRIVATE_STATE) == 1


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
                assert g.lookup(node.key) is node, (path.name, node)
            rekeyed += sum(1 for n in g.nodes if n.role2 is not None)
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
        assert g.lookup(node.key) is node
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


def test_attach_role2_rekeys_the_event():
    g = Graph()
    a, b, c = (g.entity(name) for name in ("a", "b", "c"))
    event = g.gfbf(a, "badFor", b)
    derived = g.gfbf(c, "goodFor", b)
    old_key = event.key
    assert g.attach_role2(event, derived) is event
    assert g.lookup(old_key) is None
    assert g.lookup(event.key) is event
    assert event.role2 is derived
    assert event.structural_key() == "(gfbf a badFor b (gfbf c goodFor b))"


def test_attach_role2_guards():
    g = Graph()
    a, b, c = (g.entity(name) for name in ("a", "b", "c"))
    event = g.gfbf(a, "badFor", b)
    derived = g.gfbf(c, "goodFor", b)
    with pytest.raises(IllFormedNode):  # role2 joins gfbf nodes only
        g.attach_role2(g.idea_of(event), derived)
    with pytest.raises(IllFormedNode):  # an event keyed on itself
        g.attach_role2(event, event)
    assert event.role2 is None and g.lookup(event.key) is event
    g.attach_role2(event, derived)
    with pytest.raises(IllFormedNode):  # a second role2 on one event
        g.attach_role2(event, g.gfbf(c, "badFor", b))
    # A fresh gfbf with the event's old structure would, given the same
    # role2, equal the re-keyed event.
    twin = g.gfbf(a, "badFor", b)
    assert twin is not event
    with pytest.raises(IllFormedNode):
        g.attach_role2(twin, derived)
    assert twin.role2 is None and g.lookup(twin.key) is twin
    assert g.lookup(event.key) is event


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    """bench/workloads.py, compiled from its source so nothing is written under bench/."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_tracked_objects_per_node(lexicon):
    # The cyclic collector scans every tracked object, so the objects a
    # derived node leaves behind set the fixpoint's collection cost.  Counted
    # with the collector off, and again after one collection, which stops
    # tracking the tuples that hold only untracked objects (a list would stay).
    # Measured on Python 3.11: 8.47 and 7.38.
    doc = parse_document(load_workloads().wide_document(random.Random("sweep-12"), 12))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        results = process_document(doc, lexicon, Config())
        after = len(gc.get_objects())
        gc.collect()
        collected = len(gc.get_objects())
    finally:
        gc.enable()
    nodes = sum(len(result.graph.nodes) for result in results)
    assert (after - before) / nodes <= 8.6, (after - before, nodes)
    assert (collected - before) / nodes <= 7.5, (collected - before, nodes)


def test_no_reference_cycles_per_document(lexicon, corpus_files):
    # What a document leaves behind must be freed by reference counting: a
    # cycle waits for the collector, and makes it run sooner.
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    texts.append(load_workloads().wide_document(random.Random("sweep-12"), 12))
    gc.collect()
    gc.disable()
    try:
        for extended in (False, True):
            cfg = Config(extended_belief_spaces=extended)
            for text in texts:
                results = process_document(parse_document(text), lexicon, cfg)
                dumps(results)
                for result in results:
                    render_graph(result.graph)
                    render_by_spaces(result)
                    render_trace(result)
                del results
                assert gc.collect() == 0, (extended, text)
    finally:
        gc.enable()
