"""Acceptance suite: one test per criterion, each printing a pass line.

Golden checks compare structural fact sets (source chain, attitude type,
polarity, target structure), never node numbers.  Run with ``pytest -v -s``
to see the per-criterion lines.
"""

from opine import check_consistency
from opine.spaces import format_space

import test_properties
from conftest import load_doc, spaces_of


def keys_of(g):
    return {n.structural_key() for n in g.nodes}


def first_creation_index(result, structural_key):
    by_id = {n.node_id: n for n in result.graph.nodes}
    for i, event in enumerate(result.trace):
        for nid in event.created:
            if by_id[nid].structural_key() == structural_key:
                return i, event.rule
    raise AssertionError(f"never created: {structural_key}")


MOVEON_EVENT = "(gfbf MoveOn badFor Senator McCain)"
MOVEON_ROOTS = {
    f"(ps writer sentiment negative {MOVEON_EVENT})",  # input
    f"(ps writer sentiment negative (ideaOf {MOVEON_EVENT}))",
    "(ps writer sentiment positive Senator McCain)",
    "(ps writer sentiment negative MoveOn)",
    f"(ps writer believesTrue positive (ps MoveOn intends positive {MOVEON_EVENT}))",
    f"(ps writer sentiment negative (ps MoveOn intends positive {MOVEON_EVENT}))",
    f"(ps writer believesTrue positive (ps MoveOn sentiment positive (ideaOf {MOVEON_EVENT})))",
    f"(ps writer sentiment negative (ps MoveOn sentiment positive (ideaOf {MOVEON_EVENT})))",
    "(ps writer believesTrue positive (ps MoveOn sentiment negative Senator McCain))",
    "(ps writer sentiment negative (ps MoveOn sentiment negative Senator McCain))",
}
MOVEON_AGREEMENTS = {
    f"(agree writer MoveOn negative (px isGood (ideaOf {MOVEON_EVENT})))",
    "(agree writer MoveOn negative (px isBad Senator McCain))",
}


def test_criterion_1_moveon_fixpoint(run_sentence):
    result = run_sentence("moveon")
    g = result.graph
    assert {n.structural_key() for n in g.roots} == MOVEON_ROOTS
    assert {n.structural_key() for n in g.top_level} == MOVEON_AGREEMENTS
    check_consistency(g)  # zero contradiction-invariant violations
    print("PASS 1: MoveOn fixpoint holds exactly the expected writer-level facts")


def test_criterion_2_wars_chain(run_sentence):
    result = run_sentence("wars")
    g = result.graph
    keys = keys_of(g)
    event = "(gfbf He goodFor wars)"
    wanted = [
        ("rule10", "(ps writer sentiment negative wars)"),
        ("rule8", f"(ps writer sentiment negative {event})"),
        ("rule6", f"(ps writer sentiment negative (ps He intends positive {event}))"),
        ("rule7", f"(ps writer sentiment negative (ps He sentiment positive (ideaOf {event})))"),
        ("rule3.1", f"(agree writer He negative (px isGood (ideaOf {event})))"),
        ("rule4", "(ps writer sentiment negative He)"),
    ]
    # the ascribed beliefs ride along with the sentiment-side conclusions
    assert f"(ps writer believesTrue positive (ps He intends positive {event}))" in keys
    assert f"(ps writer believesTrue positive (ps He sentiment positive (ideaOf {event})))" in keys
    indexes = []
    for rule, key in wanted:
        assert key in keys, key
        index, created_by = first_creation_index(result, key)
        assert created_by == rule, (key, created_by)
        indexes.append(index)
    assert indexes == sorted(indexes)
    print("PASS 2: wars derivation runs rule10->rule8->rule6->rule7->rule3.1->rule4")


def test_criterion_3_blooming_agreements(run_sentence):
    g = run_sentence("blooming").graph
    agreements = [n for n in g.nodes if n.node_type == "agreement"]
    assert len(agreements) == 10
    print("PASS 3: Blooming-idiot fixpoint holds exactly 10 agreement nodes")


def test_criterion_4_accusing(run_sentence):
    result = run_sentence("accusing")
    g = result.graph
    rich = next(n for n in g.nodes if n.name == "the rich")
    labels = {format_space(s) for s in spaces_of(rich, g)}
    assert labels == {
        "[writer +B republicans +B obama -S]",
        "[writer -S republicans +B obama -S]",
    }
    agreements = [n for n in g.nodes if n.node_type == "agreement"]
    assert len(agreements) == 1
    assert agreements[0].structural_key() == (
        "(agree writer republicans negative (px isTrue (gfbf obama badFor the rich)))"
    )
    blocks = [b for b in result.block_reports() if b.cause == "negative-belief-path"]
    assert blocks and blocks[0].space == (("writer", "believesTrue", "negative"),)
    print("PASS 4: accusing-Obama spaces, single agreement, and blocked [writer -B] extension")


def test_criterion_5_denial(run_sentence):
    g = run_sentence("denial").graph
    keys = keys_of(g)
    event = "(gfbf obama goodFor the middle class)"
    assert f"(agree writer republicans negative (px isFalse {event}))" in keys
    assert f"(ps writer believesTrue positive substantial {event})" in keys
    print("PASS 5: denial variant yields disagrees-isFalse and a positive substantial belief")


def test_criterion_6_virus(run_sentence):
    result = run_sentence("virus")
    g = result.graph
    composed = "(gfbf the tech staff goodFor the virus)"
    assert composed in keys_of(g)
    live = [f for f in g.evidence if not f.retired]
    assert {(f.att_type, f.polarity, f.property) for f in live} == {
        ("intends", "negative", None),
        ("believesTrue", "positive", "substantial"),
    }
    assert all(f.target.structural_key() == composed for f in live)
    assert any(
        b.rule == "rule6" and b.cause == "evidence" for b in result.block_reports()
    )
    staff_attitudes = [
        n for n in g.nodes
        if n.node_type == "privateState" and n.source_name == "the tech staff"
    ]
    assert staff_attitudes == []
    print("PASS 6: virus chain composes, evidence flips, and rule6 stays blocked")


def test_criterion_7_insurance(run_sentence):
    result = run_sentence("insurance")
    keys = keys_of(result.graph)
    assert any(
        b.rule == "rule7" and b.cause == "evidence" for b in result.block_reports()
    )
    assert "(ps writer sentiment positive health-care-quality-improvement)" in keys
    assert "(ps writer sentiment positive insurance-companies)" not in keys
    print("PASS 7: insurance sentiment evidence blocks rule7; no writer sentiment toward the companies")


def test_criterion_8_tree_variants(run_sentence):
    event = "(gfbf the tree badFor the boy)"
    positive = run_sentence("tree")
    keys = keys_of(positive.graph)
    assert "(ps mother sentiment negative the tree)" in keys
    assert f"(ps mother believesTrue positive substantial {event})" in keys
    rule9_events = [e for e in positive.trace if e.rule == "rule9" and e.created]
    assert rule9_events and rule9_events[0].assumptions
    assert "(ps mother sentiment positive the boy)" in keys

    didnt = run_sentence("tree_didnt")
    keys = keys_of(didnt.graph)
    assert "(ps mother sentiment negative the tree)" not in keys
    assert "(ps mother sentiment positive the tree)" not in keys
    assert "(ps mother sentiment positive the boy)" in keys
    assert any(
        b.rule == "rule9" and b.cause == "no-assumption-basis"
        for b in didnt.block_reports()
    )
    print("PASS 8: tree variants; rule9 fires with a basis and reports when the basis is missing")


TAXES_EVENT = "(gfbf Obama goodFor taxes on the rich)"


def test_criterion_9_taxes_spaces(run_sentence):
    g = run_sentence("taxes").graph
    expect = {
        "taxes on the rich": {
            "[writer +B MoveOn -S the Republicans -S]",
            "[writer +B MoveOn +B the Republicans -S]",
            "[writer +B MoveOn +S]",
            "[writer +B MoveOn -S the Republicans -S Obama +S]",
            "[writer +B MoveOn +B the Republicans -S Obama +S]",
            "[writer +B MoveOn +B the Republicans +B Obama +S]",
            "[writer +B MoveOn +S Obama +S]",
            "[writer +B MoveOn +B Obama +S]",
        },
        "Obama": {
            "[writer +B MoveOn -S the Republicans -S]",
            "[writer +B MoveOn +B the Republicans -S]",
            "[writer +B MoveOn +S]",
        },
        "the Republicans": {"[writer +B MoveOn -S]"},
    }
    for name, want in expect.items():
        node = next(n for n in g.nodes if n.name == name)
        assert {format_space(s) for s in spaces_of(node, g)} == want, name
    idea = next(n for n in g.nodes if n.node_type == "ideaOf")
    assert {format_space(s) for s in spaces_of(idea, g)} == expect["taxes on the rich"]

    keys = keys_of(g)
    # the agreement facts the listing shows, with their writer-belief space
    shown = [
        "(agree MoveOn the Republicans negative (px isBad "
        f"(ps Obama sentiment positive taxes on the rich)))",
        "(agree MoveOn the Republicans negative (px isBad Obama))",
        "(agree MoveOn Obama positive (px isGood taxes on the rich))",
    ]
    for key in shown:
        assert key in keys, key
        node = next(n for n in g.nodes if n.structural_key() == key)
        assert {format_space(s) for s in spaces_of(node, g)} == {"[writer +B]"}
    print("PASS 9: taxes-on-the-rich space inventory matches the listing exactly")


def test_criterion_10_property_suites(lexicon, corpus_files):
    test_properties.test_rule8_sign_law()
    test_properties.test_rule1_preserves_sign()
    test_properties.test_rule2_sign_law()
    test_properties.test_rule31_sign_laws()
    test_properties.test_rule32_sign_laws()
    test_properties.test_rule33_sign_laws()
    test_properties.test_rule4_sign_law()
    test_properties.test_rule9_preserves_sign()
    test_properties.test_interning_idempotence_random()

    from test_composition import test_influencer_sign_law_exhaustive

    test_influencer_sign_law_exhaustive()
    test_properties.test_fixpoint_on_random_inputs(lexicon)
    test_properties.test_determinism_double_run(lexicon, corpus_files)
    print("PASS 10: sign laws, interning, invariants, termination, and determinism")


def test_criterion_11_whatif(lexicon):
    from opine import whatif_diff

    doc = load_doc("moveon")
    (only_base, only_flip), = whatif_diff(doc, lexicon, "S1", "positive")

    base_entities = {k for k in only_base if k.endswith(" MoveOn)") or k.endswith(" Senator McCain)")}
    flip_entities = {k for k in only_flip if k.endswith(" MoveOn)") or k.endswith(" Senator McCain)")}
    assert base_entities == {
        "(ps writer sentiment negative MoveOn)",
        "(ps writer sentiment positive Senator McCain)",
    }
    assert flip_entities == {
        "(ps writer sentiment positive MoveOn)",
        "(ps writer sentiment negative Senator McCain)",
    }

    # The two runs are mirror images: every differing writer-level fact maps
    # onto its counterpart by flipping the writer's own polarity, and nothing
    # else differs.  (The ascribed beliefs are positive either way and shared.)
    def flip_outer(key: str) -> str:
        tokens = key.split(" ")
        tokens[3] = {"positive": "negative", "negative": "positive"}[tokens[3]]
        return " ".join(tokens)

    assert {flip_outer(k) for k in only_base} == set(only_flip)
    print("PASS 11: flipping the root sentiment swaps both entity sentiments exactly")
