import pytest

from opine import (
    Config,
    Graph,
    IterationLimitExceeded,
    assumption_basis,
    blocked_by_evidence,
    build_input_graph,
    fire,
    match,
    run_to_fixpoint,
)
from opine.graph import entity_fact, ps_fact
from opine.rules import RULES

from conftest import load_doc


def named_ps(source, att_type, polarity, target, **kwargs):
    """A private-state fact whose source is given by name."""
    return ps_fact(entity_fact(source), att_type, polarity, target, **kwargs)


def keys_of(g):
    return {n.structural_key() for n in g.nodes}


def test_rule8_matches_belief_plus_sentiment(run_sentence):
    doc = load_doc("skyrocket")
    g = build_input_graph(doc.sentences[0], run_sentence("moveon").graph.lexicon)
    bindings = match(RULES["rule8"], g)
    assert len(bindings) == 1
    belief, sentiment = bindings[0].ps
    assert belief.att_type == "believesTrue"
    assert sentiment.target.name == "skyrocketing-health-care-costs"
    q = bindings[0].conclusions[0]
    # negative sentiment toward the object of a badFor event -> positive toward the event
    assert q.polarity == "positive"


def test_rule9_requires_thing_agent(lexicon):
    doc = load_doc("moveon")
    g = build_input_graph(doc.sentences[0], lexicon)
    assert match(RULES["rule9"], g) == []  # MoveOn is animate
    doc = load_doc("tree")
    g = build_input_graph(doc.sentences[0], lexicon)
    assert len(match(RULES["rule9"], g)) == 1


def test_rule6_binds_every_animate_gfbf(lexicon):
    doc = load_doc("wars")
    g = build_input_graph(doc.sentences[0], lexicon)
    bindings = match(RULES["rule6"], g)
    assert len(bindings) == 2  # trigger wars, revive industry
    assert all(b.ps[0].node_type == "gfbf" for b in bindings)


def test_assumption_basis_from_writer_belief(lexicon):
    doc = load_doc("tree")
    g = build_input_graph(doc.sentences[0], lexicon)
    event = next(n for n in g.nodes if n.node_type == "gfbf")
    basis = assumption_basis(
        g, named_ps("mother", "believesTrue", "positive", event, substantial=True)
    )
    assert basis is not None and basis.property == "substantial"


def test_assumption_basis_negative_writer_belief_fails(lexicon):
    doc = load_doc("tree_didnt")
    g = build_input_graph(doc.sentences[0], lexicon)
    event = next(n for n in g.nodes if n.node_type == "gfbf")
    basis = assumption_basis(
        g, named_ps("mother", "believesTrue", "positive", event, substantial=True)
    )
    assert basis is None


def test_assumption_basis_from_other_attitude_type():
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    inner = g.private_state("S", "sentiment", "positive", event)
    g.add_root(g.private_state("writer", "believesTrue", "positive", inner))
    basis = assumption_basis(g, named_ps("S", "believesTrue", "positive", event))
    assert basis is inner  # the sentiment grounds a belief of a different type


def test_blocked_by_evidence_cases(lexicon):
    g = Graph()
    virus = g.entity("the virus")
    event = g.gfbf(g.entity("the tech staff"), "goodFor", virus)
    g.add_root(g.private_state("writer", "sentiment", "negative", event))
    g.add_evidence("intends", "negative", event)
    blocked = blocked_by_evidence(g, named_ps("the tech staff", "intends", "positive", event))
    assert blocked is not None
    # different attitude type untouched
    sentiment = named_ps("the tech staff", "sentiment", "positive", event)
    assert blocked_by_evidence(g, sentiment) is None
    # holder restriction
    g2 = Graph()
    event2 = g2.gfbf(g2.entity("ins"), "goodFor", g2.entity("care"))
    idea = g2.idea_of(event2)
    g2.add_evidence("sentiment", "negative", idea, holder="ins")
    assert blocked_by_evidence(g2, named_ps("ins", "sentiment", "positive", idea)) is not None
    assert blocked_by_evidence(g2, named_ps("writer", "sentiment", "positive", idea)) is None


def test_no_evidence_never_blocks():
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    assert blocked_by_evidence(g, named_ps("a", "intends", "positive", event)) is None


def test_fire_records_existing_on_refire(run_sentence):
    result = run_sentence("moveon")
    refires = [
        e for e in result.trace
        if e.rule == "rule4" and e.existing and not e.created
    ]
    assert refires, "rule4's second firing should resolve to the existing node"


def test_fire_returns_the_trace_event_it_logs():
    g = Graph()
    event = g.gfbf(g.entity("a"), "goodFor", g.entity("b"))
    g.add_root(g.private_state("writer", "sentiment", "negative", event))
    rule, reported = RULES["rule6"], {}
    (binding,) = match(rule, g)
    first = fire(rule, binding, g, Config(), reported)
    assert first.created and g.trace[-1] is first
    # Fired again with nothing new, the binding reports what it did before,
    # and its event is returned but not logged.
    again = fire(rule, binding, g, Config(), reported)
    assert again is not first and again.created == ()
    assert set(again.existing) <= set(first.created) and again.existing
    assert g.trace == [first]


def test_rule10_conclusion_is_writer_root(run_sentence):
    g = run_sentence("wars").graph
    keys = {n.structural_key() for n in g.roots}
    assert "(ps writer sentiment negative wars)" in keys


# The writer's sentiment toward a believesShould: the one input in the suite
# on which rule3.3 creates nodes.
BELIEVES_SHOULD_DOCUMENT = """"The senate should pass the bill."
E1 gfbf <senate, goodFor (pass), bill>
B1 privateState <Mary, positive believesShould (should), E1>
S1 subjectivity <writer, positive sentiment (hopes), B1>
"""


def test_rule33_concludes_writer_believes_should(lexicon):
    from opine import parse_document, process_document
    from opine.render import writer_fact_keys

    (result,) = process_document(parse_document(BELIEVES_SHOULD_DOCUMENT), lexicon)
    keys = writer_fact_keys(result.graph)
    assert "(ps writer believesShould positive (gfbf senate goodFor bill))" in keys
    assert "(agree writer Mary positive (px should (gfbf senate goodFor bill)))" in keys
    assert [e.rule for e in result.trace if e.created] == ["rule3.3", "rule4"]


# Two input attitudes of one holder (rule5source), and two input events of one
# agent (rule5agent), under the writer's sentiment toward that holder or
# agent: each document's lines, the two lines whose order is swapped, and the
# conclusion the rule draws from each attitude or event.
RULE5_DOCUMENTS = {
    "rule5source": (
        ["E1 gfbf <a, goodFor (x), b>",
         "E2 gfbf <a, badFor (y), c>",
         "S1 subjectivity <Mayor, positive sentiment (p), E1>",
         "S2 subjectivity <Mayor, negative sentiment (q), E2>",
         'B1 privateState <writer, positive believesTrue (""), S1>',
         'B2 privateState <writer, positive believesTrue (""), S2>',
         "S3 subjectivity <writer, negative sentiment (r), Mayor>"],
        ("S1", "S2"),
        ["(ps writer sentiment negative (ps Mayor sentiment positive (gfbf a goodFor b)))",
         "(ps writer sentiment negative (ps Mayor sentiment negative (gfbf a badFor c)))"],
    ),
    "rule5agent": (
        ["E1 gfbf <Mayor, goodFor (x), b>",
         "E2 gfbf <Mayor, badFor (y), c>",
         'B1 privateState <writer, positive believesTrue (""), E1>',
         'B2 privateState <writer, positive believesTrue (""), E2>',
         "S3 subjectivity <writer, negative sentiment (r), Mayor>"],
        ("E1", "E2"),
        ["(ps writer sentiment negative (gfbf Mayor goodFor b))",
         "(ps writer sentiment negative (gfbf Mayor badFor c))"],
    ),
}


def line_orders(rule):
    """The rule's document in its own line order and with its two lines swapped."""
    lines, (first, second), _ = RULE5_DOCUMENTS[rule]
    i, j = (next(k for k, ln in enumerate(lines) if ln.startswith(line_id + " "))
            for line_id in (first, second))
    swapped = list(lines)
    swapped[i], swapped[j] = lines[j], lines[i]
    return ['"Two inputs."\n' + "\n".join(order) + "\n" for order in (lines, swapped)]


@pytest.mark.parametrize("rule", sorted(RULE5_DOCUMENTS))
def test_rule5_answer_does_not_depend_on_line_order(lexicon, rule):
    # rule5source and rule5agent fire for each input attitude of the holder
    # and each input event of the agent, so neither line order drops one.
    from opine import parse_document, process_document
    from opine.render import writer_fact_keys

    answers = []
    for text in line_orders(rule):
        g = process_document(parse_document(text), lexicon)[0].graph
        assert set(RULE5_DOCUMENTS[rule][2]) <= keys_of(g), text
        answers.append(writer_fact_keys(g))
    assert answers[0] == answers[1]


def test_rule5source_skips_an_attitude_over_a_composed_chain(lexicon):
    # Composition retires the influencer chain and gives the Mayor's input
    # attitude toward it a counterpart toward the composed event; the first
    # is over a retired node, so rule5source reads the counterpart alone.
    from opine import parse_document, process_document

    text = ('"The Mayor hopes the staff fails to stop the virus."\n'
            "E1 gfbf <the staff, badFor (stop), the virus:thing>\n"
            "I1 influencer <the staff, reverse (fails), E1>\n"
            "S1 subjectivity <Mayor, positive sentiment (hopes), I1>\n"
            "B1 privateState <writer, positive believesTrue (w), S1>\n"
            "S2 subjectivity <writer, negative sentiment (w), Mayor>\n")
    g = process_document(parse_document(text), lexicon)[0].graph
    derived = [n.structural_key() for n in g.nodes if not n.from_input]
    assert ("(ps writer sentiment negative (ps Mayor sentiment positive"
            " (gfbf the staff goodFor the virus)))") in derived
    assert not [key for key in derived if "(infl " in key]


def test_rule5agent_assumption_equals_conclusion(run_sentence):
    result = run_sentence("orders")
    events = [e for e in result.trace if e.rule == "rule5agent" and e.created]
    assert events
    event = events[0]
    assert event.assumptions  # the assumed sentiment is recorded
    g = result.graph
    keys = keys_of(g)
    assert "(ps writer believesTrue positive (ps Muslims sentiment negative (gfbf Obama badFor Osama bin Laden)))" in keys


def test_explicit_attitude_blocks_default(lexicon):
    # An explicit "did not intend" private state keeps rule6 from adding the
    # default intention to the same space, and rule7 never gets going.
    text = (
        '"He did not mean to hurt Bill."\n'
        "E1 gfbf <He, badFor (hurt), Bill>\n"
        "I1 privateState <He, negative intends (accident), E1>\n"
        "B1 privateState <writer, positive believesTrue (\"\"), I1>\n"
        "B2 privateState <writer, positive believesTrue (\"\"), E1>\n"
    )
    from opine import parse_document, process_document

    result = process_document(parse_document(text), lexicon)[0]
    keys = keys_of(result.graph)
    assert "(ps He intends positive (gfbf He badFor Bill))" not in keys
    assert "(ps He sentiment positive (ideaOf (gfbf He badFor Bill)))" not in keys
    assert any(
        b.rule == "rule6" and b.cause == "space-contradiction"
        for b in result.block_reports()
    )


def test_run_to_fixpoint_empty(lexicon):
    from opine import SentenceAnnotation

    g = build_input_graph(SentenceAnnotation(text="quiet"), lexicon)
    result = run_to_fixpoint(g, Config())
    assert result.iterations == 1
    assert g.nodes == []


def test_iteration_limit_raises(lexicon):
    doc = load_doc("taxes")
    g = build_input_graph(doc.sentences[0], lexicon)
    with pytest.raises(IterationLimitExceeded):
        run_to_fixpoint(g, Config(max_iterations=1))


def test_monotone_growth(lexicon):
    doc = load_doc("blooming")
    g = build_input_graph(doc.sentences[0], lexicon)
    result = run_to_fixpoint(g, Config())
    ids = [n.node_id for n in g.nodes]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    assert result.iterations < 50


def test_every_created_node_in_exactly_one_event(lexicon, corpus_files):
    from opine import parse_document
    from opine.composition import run_composition

    for path in corpus_files:
        if path.stem == "empty":
            continue
        doc = parse_document(path.read_text(), path.name)
        for sent in doc.sentences:
            g = build_input_graph(sent, lexicon)
            input_ids = {n.node_id for n in g.nodes}
            input_ids |= {f.fact_id for f in g.evidence}
            run_composition(g)
            result = run_to_fixpoint(g, Config())
            created = [i for e in result.trace for i in e.created]
            derived = {n.node_id for n in g.nodes} - input_ids
            derived |= {f.fact_id for f in g.evidence} - input_ids
            assert len(created) == len(set(created)), path.name
            assert derived == set(created), path.name


def test_rule_order_override(lexicon):
    doc = load_doc("moveon")
    g = build_input_graph(doc.sentences[0], lexicon)
    reversed_order = tuple(reversed(Config().rule_order))
    result = run_to_fixpoint(g, Config(rule_order=reversed_order))
    keys = keys_of(result.graph)
    assert "(ps writer sentiment positive Senator McCain)" in keys


def test_order_robustness_on_corpus(lexicon, corpus_files, recwarn):
    # Diagnostic, not a gate: reversed rule order should leave the structural node set unchanged; report any divergence.
    import warnings

    from opine import parse_document, process_document
    from opine.render import structural_inventory

    for path in corpus_files:
        if path.stem == "empty":
            continue
        doc = parse_document(path.read_text(), path.name)
        default = process_document(doc, lexicon, Config())
        flipped = process_document(
            doc, lexicon, Config(rule_order=tuple(reversed(Config().rule_order))),
        )
        for a, b in zip(default, flipped):
            if structural_inventory(a.graph) != structural_inventory(b.graph):
                warnings.warn(f"rule-order divergence on {path.name}")
