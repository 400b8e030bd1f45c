import json
import random

import pytest

from opine import (
    Config,
    Graph,
    InputError,
    parse_document,
    process_document,
    render_by_spaces,
    render_graph,
    render_trace,
)
from opine.graph import (
    AGREEMENT,
    ANIM,
    GFBF,
    IDEA_OF,
    INFLUENCER,
    P_X,
    PRIVATE_STATE,
    SUBSTANTIAL,
    THING,
    IdAllocator,
    Node,
)
from opine.render import _display, _evidence_display, dumps, structural_inventory
from opine.rules import InferenceResult
from opine.spaces import space_index

from conftest import parts_of
from test_properties import random_document


def render_node(node):
    return _display(node, {})


def render_evidence(fact):
    return _evidence_display(fact, {})


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
    g.things.add("the tree")
    event = g.gfbf(g.entity("the tree"), "badFor", g.entity("the boy"))
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
    assert render_by_spaces(InferenceResult(g, 0)) == ""


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


def exported_sentence(result):
    """The sentence's object in the export, read back with json."""
    return json.loads(dumps([result]))["sentences"][0]


def test_json_round_trip_corpus(run_sentence, corpus_files):
    for path in corpus_files:
        if path.stem == "empty":
            continue
        result = run_sentence(path.stem)
        rebuilt = graph_from_json(exported_sentence(result))
        assert structural_inventory(rebuilt) == structural_inventory(result.graph), path.stem


def test_json_shape(run_sentence):
    payload = exported_sentence(run_sentence("moveon"))
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


# -- the export writer against json.dumps of the export as dicts ----------------

def _node_to_json(node: Node) -> dict:
    return {
        "id": node.node_id,
        "type": node.node_type,
        "attType": node.att_type,
        "polarity": node.polarity,
        "property": node.property,
        "name": node.name,
        "anchor": node.anchor,
        "fromInput": node.from_input,
        "retired": node.retired,
        "children": _children_to_json(node),
    }


def _children_to_json(node: Node) -> dict:
    """The node's parts by label, sorted, from its accessors; a gfbf names its
    object under its effect too."""
    pairs = parts_of(node)
    if node.node_type == GFBF:
        pairs.append((node.effect, node.object))
    return {label: child.node_id for label, child in sorted(pairs, key=lambda p: p[0])}


def _block_to_json(block) -> dict:
    return {
        "rule": block.rule,
        "binding": list(block.binding),
        "cause": block.cause,
        "detail": block.detail,
        "space": [list(step) for step in block.space] if block.space else None,
    }


def sentence_to_json(result: InferenceResult) -> dict:
    g = result.graph
    index = space_index(g)
    spaces = []
    for steps in sorted(index.spaces, key=lambda s: (len(s), s)):
        inst = index.spaces[steps]
        spaces.append(
            {
                "steps": [list(step) for step in steps],
                "members": sorted(inst.members),
            }
        )
    trace = []
    for event in g.trace:
        trace.append(
            {
                "kind": event.kind,
                "rule": event.rule,
                "iteration": event.iteration,
                "preconditions": list(event.preconditions),
                "assumptions": list(event.assumptions),
                "created": list(event.created),
                "existing": list(event.existing),
                "blocks": [_block_to_json(b) for b in event.blocks],
            }
        )
    return {
        "text": g.text,
        "nodes": [_node_to_json(n) for n in g.nodes],
        "roots": [n.node_id for n in g.roots],
        "topLevel": [n.node_id for n in g.top_level],
        "evidence": [
            {
                "id": f.fact_id,
                "holder": f.holder,
                "attType": f.att_type,
                "polarity": f.polarity,
                "property": f.property,
                "target": f.target.node_id,
                "fromInput": True,  # every evidence fact stands for an input line
                "retired": f.retired,
            }
            for f in g.evidence
        ],
        "spaces": spaces,
        "trace": trace,
        "blocks": [_block_to_json(b) for b in result.block_reports()],
    }


def document_to_json(results: list[InferenceResult]) -> dict:
    return {
        "format_version": 2,
        "sentences": [sentence_to_json(r) for r in results],
    }


def graph_from_json(sentence: dict) -> Graph:
    """Rebuild a graph from its JSON form (ids are reassigned)."""
    g = Graph(IdAllocator(), text=sentence.get("text", ""))
    by_old_id: dict[int, Node] = {}
    # Second-role relations are attached to an earlier node, so defer them.
    pending_role2: list[tuple[int, int]] = []
    for obj in sorted(sentence["nodes"], key=lambda o: o["id"]):
        children = {
            label: by_old_id[cid]
            for label, cid in obj["children"].items()
            if not (label == "role2" and cid not in by_old_id)
        }
        t = obj["type"]
        if t in (ANIM, THING):
            if t == THING:
                g.things.add(obj["name"])
            node = g.entity(obj["name"])
        elif t == GFBF:
            effect = "goodFor" if "goodFor" in children else "badFor"
            node = g.gfbf(children["agent"], effect, children["object"], anchor=obj["anchor"])
            if "role2" in children:
                node = g.attach_role2(node, children["role2"])
            elif "role2" in obj["children"]:
                pending_role2.append((obj["id"], obj["children"]["role2"]))
        elif t == IDEA_OF:
            node = g.idea_of(children["ideaObject"])
        elif t == P_X:
            node = g.p_x(obj["property"], children["x"])
        elif t == AGREEMENT:
            node = g.agreement(children["source"], obj["polarity"], children["withWhom"],
                               children["target"])
        elif t == PRIVATE_STATE:
            node = g.private_state(
                children["source"], obj["attType"], obj["polarity"], children["target"],
                substantial=obj["property"] == SUBSTANTIAL, anchor=obj["anchor"],
            )
        elif t == INFLUENCER:
            node = g.influencer(children["agent"], obj["property"], children["target"],
                                anchor=obj["anchor"])
        else:
            raise ValueError(f"unknown node type in JSON: {t!r}")
        node.from_input = obj["fromInput"]
        node.retired = obj["retired"]
        by_old_id[obj["id"]] = node
    for event_id, derived_id in pending_role2:
        g.attach_role2(by_old_id[event_id], by_old_id[derived_id])
    for old_id in sentence["roots"]:
        g.add_root(by_old_id[old_id])
    for old_id in sentence["topLevel"]:
        g.add_top_level(by_old_id[old_id])
    for ev in sentence["evidence"]:
        g.add_evidence(
            ev["attType"], ev["polarity"], by_old_id[ev["target"]],
            holder=ev["holder"], property=ev["property"],
        ).retired = ev["retired"]
    return g


def reference_dumps(results):
    """What dumps must write: json's own indent=2 layout of the dicts above."""
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
    assert any(not node.key.parts for node in results[0].graph.nodes)
    exported = dumps(results)
    assert exported == reference_dumps(results)
    assert json.loads(exported)["sentences"][0]["text"] == (
        'Republicans said "class warfare" \\ on\tTV\x01 — café \U0001F600'
    )
    assert dumps([]) == reference_dumps([])
