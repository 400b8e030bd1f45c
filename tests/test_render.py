import json
import random

import pytest

from opine import (
    Config,
    Graph,
    InputError,
    graph_from_json,
    parse_document,
    process_document,
    render_by_spaces,
    render_graph,
    render_node,
    render_trace,
    sentence_to_json,
)
from opine.render import document_to_json, dumps, render_evidence, structural_inventory

from test_properties import random_document


def test_render_private_state_chain():
    g = Graph()
    gc = g.entity("gun control")
    event = g.gfbf(g.entity("Congress"), "goodFor", gc, anchor="voting for")
    inner = g.private_state("Mayor-Blooming-idiot", "sentiment", "positive", event)
    root = g.private_state("writer", "believesTrue", "positive", inner)
    lines = render_node(root).splitlines()
    assert lines[0].endswith("writer positive believesTrue")
    assert lines[1].strip().endswith("Mayor-Blooming-idiot positive sentiment")
    assert lines[2].strip().endswith("Congress voting for gun control")


def test_render_bare_entity():
    g = Graph()
    node = g.entity("Mayor-Blooming-idiot")
    assert render_node(node) == f"{node.node_id} Mayor-Blooming-idiot"


def test_render_substantial_belief():
    g = Graph()
    event = g.gfbf(g.entity("the tree", thing=True), "badFor", g.entity("the boy"))
    root = g.private_state("writer", "believesTrue", "positive", event, substantial=True)
    assert render_node(root).splitlines()[0].endswith("writer positive believesTrue substantial")


def test_render_agreement_and_px():
    g = Graph()
    mccain = g.entity("Senator McCain")
    px = g.p_x("isBad", mccain)
    agr = g.agreement("writer", "negative", "MoveOn", px)
    lines = render_node(agr).splitlines()
    assert lines[0].endswith("writer disagrees with MoveOn that")
    assert lines[1].strip().endswith("isBad")
    assert lines[2].strip().endswith("Senator McCain")


def test_render_evidence_forms():
    g = Graph()
    event = g.gfbf(g.entity("the tech staff"), "goodFor", g.entity("the virus"))
    intends = g.add_evidence("intends", "negative", event)
    substantial = g.add_evidence("believesTrue", "positive", event, property="substantial")
    sentiment = g.add_evidence(
        "sentiment", "negative", g.idea_of(event), holder="insurance-companies"
    )
    assert "There is evidence that the following is not intentional:" in render_evidence(intends)
    assert "There is evidence that the following is substantial" in render_evidence(substantial)
    assert "(evidence,insurance-companies,negative,sentiment)" in render_evidence(sentiment)


def test_render_composed_gfbf_uses_effect_word(run_sentence):
    g = run_sentence("virus").graph
    new = next(n for n in g.nodes if n.structural_key() == "(gfbf the tech staff goodFor the virus)")
    assert render_node(new).endswith("the tech staff goodFor the virus")


def test_by_spaces_tree(run_sentence):
    text = render_by_spaces(run_sentence("tree"))
    blocks = text.strip().split("\n\n")
    tree_block = next(b for b in blocks if b.splitlines()[-1].endswith(" the tree"))
    assert "writer +B mother -S]" in tree_block
    event_block = next(
        b for b in blocks
        if b.splitlines()[-1].endswith("the tree fell on the boy") and len(b.splitlines()) > 2
    )
    assert sum(1 for line in event_block.splitlines() if line.startswith("From Input:")) == 2
    assert "writer +B mother +B]" in event_block


def test_by_spaces_omits_spaceless_nodes():
    g = Graph()
    g.entity("orphan")
    assert render_by_spaces(g) == ""


def test_by_spaces_taxes_eight_lines(run_sentence):
    text = render_by_spaces(run_sentence("taxes"))
    blocks = text.strip().split("\n\n")
    taxes_block = next(
        b for b in blocks
        if b.splitlines()[-1].endswith(" taxes on the rich") and "[" in b
    )
    space_lines = [l for l in taxes_block.splitlines() if l.lstrip().startswith("[") or l.startswith("From Input:")]
    assert len(space_lines) == 8


def test_trace_render_mentions_blocks(run_sentence):
    text = render_trace(run_sentence("virus"))
    assert "blocked" in text and "evidence" in text
    assert "[composition] influencer-chain" in text


def test_json_round_trip_corpus(run_sentence, corpus_files):
    for path in corpus_files:
        if path.stem == "empty":
            continue
        result = run_sentence(path.stem)
        payload = sentence_to_json(result)
        json.dumps(payload)  # serializable
        rebuilt = graph_from_json(json.loads(json.dumps(payload)))
        assert structural_inventory(rebuilt) == structural_inventory(result.graph), path.stem


def test_json_shape(run_sentence):
    payload = sentence_to_json(run_sentence("moveon"))
    assert set(payload) == {
        "text", "nodes", "roots", "topLevel", "evidence", "spaces", "trace", "blocks",
    }
    node = payload["nodes"][0]
    assert set(node) == {
        "id", "type", "attType", "polarity", "property", "name", "anchor",
        "fromInput", "retired", "children",
    }
    assert all(isinstance(s["steps"], list) for s in payload["spaces"])


def test_render_graph_lists_roots_in_id_order(run_sentence):
    text = render_graph(run_sentence("moveon").graph)
    ids = [int(line.split()[0]) for line in text.splitlines() if not line.startswith(" ")]
    assert ids == sorted(ids)


# -- the export writer against json.dumps ---------------------------------------

def reference_dumps(results):
    """What dumps must write: json's own indent=2 layout of the dict API."""
    return json.dumps(document_to_json(results), indent=2, ensure_ascii=False) + "\n"


CONFIGS = [Config(), Config(extended_belief_spaces=True)]
CONFIG_IDS = ["default", "extended"]

# A quote, a backslash, a tab, a control character, non-ASCII and a character
# outside the BMP, in the sentence text and in names; a second sentence too.
ESCAPES_DOCUMENT = (
    '"Republicans said "class warfare" \\ on\tTV\x01 — café \U0001F600"\n'
    "E1 gfbf <Obaça, badFor (waging class warfare against,wagingClassWarfare:lexEntry),"
    " the rich \U0001F4B0>\n"
    "B1 subjectivity <republicans, positive believesTrue (accusing), E1>\n"
    'B2 privateState <writer, positive believesTrue (""), B1>\n'
    "Prop1 p(B1,substantial)\n"
    "S1 subjectivity <writer, negative sentiment (roared), republicans>\n"
    "\n"
    '"A second sentence."\n'
    "E1 gfbf <alice, goodFor (x1), bob>\n"
    'B1 privateState <writer, positive sentiment (""), E1>\n'
)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_dumps_matches_json_on_corpus(lexicon, corpus_files, cfg):
    for path in corpus_files:
        results = process_document(parse_document(path.read_text(), path.name), lexicon, cfg)
        assert dumps(results) == reference_dumps(results), path.name


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_dumps_matches_json_on_random_documents(lexicon, cfg):
    rng = random.Random(20240214)
    for _ in range(200):  # the first documents of the fixed-seed random suite
        try:
            results = process_document(parse_document(random_document(rng)), lexicon, cfg)
        except InputError:
            continue
        assert dumps(results) == reference_dumps(results)


def test_dumps_matches_json_on_escapes_and_empty_containers(lexicon):
    results = process_document(parse_document(ESCAPES_DOCUMENT), lexicon)
    assert any(block.space for block in results[0].block_reports())
    assert any(not node.key.children for node in results[0].graph.nodes)
    exported = dumps(results)
    assert exported == reference_dumps(results)
    assert json.loads(exported)["sentences"][0]["text"] == (
        'Republicans said "class warfare" \\ on\tTV\x01 — café \U0001F600'
    )
    assert dumps([]) == reference_dumps([])
