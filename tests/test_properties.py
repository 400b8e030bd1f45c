"""Exhaustive sign-law checks, randomized termination, and determinism."""

import random
from itertools import product

from opine import (
    Config,
    Graph,
    InputError,
    check_consistency,
    match,
    parse_document,
    process_document,
)
from opine.graph import polarity_of, sign
from opine.rules import DEFAULT_RULE_ORDER, RULES

from conftest import assert_acyclic

POLS = ("positive", "negative")
EFFECTS = ("goodFor", "badFor")


def esign(effect):
    return 1 if effect == "goodFor" else -1


def writer_event_graph(effect):
    g = Graph()
    event = g.gfbf(g.entity("agent"), effect, g.entity("object"))
    return g, event


def test_rule8_sign_law():
    # sentiment toward the event = sentiment toward the object x effect
    for s_pol, effect in product(POLS, EFFECTS):
        g, event = writer_event_graph(effect)
        g.add_root(g.private_state("writer", "believesTrue", "positive", event))
        g.add_root(g.private_state("writer", "sentiment", s_pol, event.object))
        (binding,) = match(RULES["rule8"], g)
        assert binding.conclusions[0].polarity == polarity_of(sign(s_pol) * esign(effect))


def test_rule1_preserves_sign():
    for s_pol, effect in product(POLS, EFFECTS):
        g, event = writer_event_graph(effect)
        g.add_root(g.private_state("writer", "sentiment", s_pol, event))
        (binding,) = match(RULES["rule1"], g)
        assert binding.conclusions[0].polarity == s_pol


def test_rule2_sign_law():
    for s_pol, effect in product(POLS, EFFECTS):
        g, event = writer_event_graph(effect)
        g.add_root(g.private_state("writer", "sentiment", s_pol, g.idea_of(event)))
        (binding,) = match(RULES["rule2"], g)
        q = binding.conclusions[0]
        assert q.target is event.object
        assert q.polarity == polarity_of(sign(s_pol) * esign(effect))


def test_rule31_sign_laws():
    for outer, inner in product(POLS, POLS):
        g, event = writer_event_graph("goodFor")
        nested = g.private_state("He", "sentiment", inner, g.idea_of(event))
        g.add_root(g.private_state("writer", "sentiment", outer, nested))
        (binding,) = match(RULES["rule3.1"], g)
        agreement, sentiment = binding.conclusions
        assert agreement.polarity == outer
        assert agreement.target.property == ("isGood" if inner == "positive" else "isBad")
        assert sentiment.polarity == polarity_of(sign(outer) * sign(inner))


def test_rule32_sign_laws():
    for outer, inner in product(POLS, POLS):
        g, event = writer_event_graph("badFor")
        nested = g.private_state("He", "believesTrue", inner, event, substantial=True)
        g.add_root(g.private_state("writer", "sentiment", outer, nested))
        (binding,) = match(RULES["rule3.2"], g)
        agreement, belief = binding.conclusions
        assert agreement.polarity == outer
        assert agreement.target.property == ("isTrue" if inner == "positive" else "isFalse")
        assert belief.att_type == "believesTrue" and belief.property == "substantial"
        assert belief.polarity == polarity_of(sign(outer) * sign(inner))


def test_rule33_sign_laws():
    for outer, inner in product(POLS, POLS):
        g, event = writer_event_graph("badFor")
        nested = g.private_state("He", "believesShould", inner, event)
        g.add_root(g.private_state("writer", "sentiment", outer, nested))
        (binding,) = match(RULES["rule3.3"], g)
        agreement, deontic = binding.conclusions
        assert agreement.target.property == ("should" if inner == "positive" else "shouldNot")
        assert deontic.att_type == "believesShould"
        assert deontic.polarity == polarity_of(sign(outer) * sign(inner))


def test_rule4_sign_law():
    for pol in POLS:
        g = Graph()
        px = g.p_x("isGood", g.entity("thing", thing=True))
        agr = g.agreement("writer", pol, "He", px)
        g.add_top_level(agr)
        (binding,) = match(RULES["rule4"], g)
        q = binding.conclusions[0]
        assert q.polarity == pol
        assert q.target.name == "He"


def test_rule9_preserves_sign():
    for pol, effect in product(POLS, EFFECTS):
        g = Graph()
        event = g.gfbf(g.entity("the rock", thing=True), effect, g.entity("boy"))
        inner = g.private_state("mother", "sentiment", pol, event)
        g.add_root(g.private_state("writer", "believesTrue", "positive", inner))
        (binding,) = match(RULES["rule9"], g)
        assert binding.conclusions[0].polarity == pol
        assert binding.assumptions[0].property == "substantial"


def test_rule6_and_rule7_always_positive():
    for effect in EFFECTS:
        g, event = writer_event_graph(effect)
        g.add_root(g.private_state("writer", "sentiment", "negative", event))
        (binding,) = match(RULES["rule6"], g)
        assert binding.conclusions[0].att_type == "intends"
        assert binding.conclusions[0].polarity == "positive"
        g.add_root(g.private_state("writer", "believesTrue", "positive",
                                   g.private_state("agent", "intends", "positive", event)))
        (binding,) = match(RULES["rule7"], g)
        assert binding.conclusions[0].polarity == "positive"


def test_interning_idempotence_random():
    rng = random.Random(7)
    g = Graph()
    entities = [g.entity(name) for name in ("a", "b", "c")]
    for _ in range(200):
        agent, obj = rng.sample(entities, 2)
        effect = rng.choice(EFFECTS)
        first = g.gfbf(agent, effect, obj)
        second = g.gfbf(agent, effect, obj)
        assert first is second
        ps1 = g.private_state("writer", "sentiment", rng.choice(POLS), first)
        ps2 = g.private_state("writer", ps1.att_type, ps1.polarity, first)
        assert ps1 is ps2


# -- randomized well-formed inputs -------------------------------------------

NAMES = ["alice", "bob", "carol", "dave"]
THINGS = ["the rock:thing", "the storm:thing"]


def random_events(rng: random.Random, lines: list[str]) -> list[tuple[str, str, str]]:
    """One to three distinct (agent, effect, object) events, written as E lines."""
    triples = []  # distinct (agent, effect, object) events, in input order
    n_events = rng.randint(1, 3)
    while len(triples) < n_events:
        agent = rng.choice(NAMES + THINGS)
        obj = rng.choice([n for n in NAMES + THINGS if n != agent])
        effect = rng.choice(EFFECTS)
        if (agent, effect, obj) in triples:
            continue
        triples.append((agent, effect, obj))
        lines.append(f"E{len(triples)} gfbf <{agent}, {effect} (x{len(triples)}), {obj}>")
    return triples


def random_document(rng: random.Random) -> str:
    lines = []
    used = set()  # (source, attitude-type, target) triples already asserted
    triples = random_events(rng, lines)
    n_events = len(triples)
    content_ids = [f"E{i}" for i in range(1, n_events + 1)]
    if rng.random() < 0.4:
        kind = rng.choice(["retain", "reverse"])
        infl_agent = rng.choice(NAMES)
        e1_agent, e1_effect, e1_obj = triples[0]
        effective = e1_effect
        if kind == "reverse":
            effective = "goodFor" if e1_effect == "badFor" else "badFor"
        composed = (infl_agent, effective, e1_obj)
        # avoid composing onto a distinct existing event: the writer may hold
        # attitudes toward it already, and inputs are assumed consistent
        if composed not in triples or composed == triples[0]:
            lines.append(f"I1 influencer <{infl_agent}, {kind} (inf), E1>")
            content_ids[0] = "I1"
    wrap_count = 0
    for cid in content_ids:
        wrap_count += 1
        inner_id = cid
        if rng.random() < 0.5:
            holder = rng.choice(NAMES)
            pol = rng.choice(POLS)
            att = rng.choice(["sentiment", "believesTrue"])
            key = (holder, att, inner_id)
            if key not in used:
                used.add(key)
                lines.append(
                    f"S{wrap_count}9 subjectivity <{holder}, {pol} {att} (w), {inner_id}>"
                )
                inner_id = f"S{wrap_count}9"
        pol = rng.choice(POLS)
        att = rng.choice(["sentiment", "believesTrue"])
        key = ("writer", att, inner_id)
        if key in used:
            att = "sentiment" if att == "believesTrue" else "believesTrue"
            key = ("writer", att, inner_id)
        if key in used:
            continue
        used.add(key)
        lines.append(f"B{wrap_count}9 privateState <writer, {pol} {att} (w), {inner_id}>")
    if rng.random() < 0.3:
        att = rng.choice(["intends", "believesTrue", "sentiment"])
        lines.append(f"V1 evidence <none, {rng.choice(POLS)} {att} (e), E{n_events}>")
    body = "\n".join(lines)
    return f'"A random sentence."\n{body}\n'


def deep_document(rng: random.Random) -> str:
    """A document that nests deeper than random_document, with intends and props.

    Up to six subjectivity lines, each over an event or an earlier line, and a
    writer line over every line that nothing else targets; sometimes a
    ``p(...,substantial)`` line over a belief in an event, and an evidence line.
    """
    lines = []
    events = [f"E{i}" for i in range(1, len(random_events(rng, lines)) + 1)]
    ids = list(events)
    targeted = set()
    roots = set()  # writer lines that are roots by themselves
    used = set()  # (source, attitude-type, target) triples already asserted
    believed_events = []  # believesTrue lines over an event, which p(...) may mark
    for i in range(rng.randint(3, 6)):
        target = rng.choice(ids)
        holder = rng.choice(["alice", "bob", "carol", "writer"])
        att = rng.choice(["sentiment", "believesTrue"] + (["intends"] if target in events else []))
        if (holder, att, target) in used:
            continue
        used.add((holder, att, target))
        lines.append(f"S{i} subjectivity <{holder}, {rng.choice(POLS)} {att} (w), {target}>")
        ids.append(f"S{i}")
        targeted.add(target)
        if holder == "writer" and att != "intends":
            roots.add(f"S{i}")
        if att == "believesTrue" and target in events:
            believed_events.append(f"S{i}")
    uncovered = [i for i in ids if i not in targeted and i not in roots]
    for n, line_id in enumerate(uncovered, 1):
        att = rng.choice(["sentiment", "believesTrue"])
        lines.append(f"B{n} privateState <writer, {rng.choice(POLS)} {att} (w), {line_id}>")
    if believed_events and rng.random() < 0.8:
        lines.append(f"P0 p({rng.choice(believed_events)},substantial)")
    if rng.random() < 0.5:
        att = rng.choice(["intends", "believesTrue", "sentiment"])
        lines.append(f"V1 evidence <none, {rng.choice(POLS)} {att} (e), {rng.choice(events)}>")
    body = "\n".join(lines)
    return f'"A deeper sentence."\n{body}\n'


def test_fixpoint_on_random_inputs(lexicon):
    rng = random.Random(20240214)
    cfg = Config()
    for trial in range(1000):
        text = random_document(rng)
        doc = parse_document(text)
        if not any(
            ln.kind in ("subjectivity", "privateState") and ln.source
            and ln.source.name == "writer"
            for ln in doc.sentences[0].lines
        ):
            continue
        results = process_document(doc, lexicon, cfg)
        g = results[0].graph
        assert_acyclic(g)
        check_consistency(g)


def test_determinism_double_run(lexicon, corpus_files):
    from opine.render import dumps

    for path in corpus_files:
        doc_text = path.read_text()
        first = dumps(process_document(parse_document(doc_text), lexicon))
        second = dumps(process_document(parse_document(doc_text), lexicon))
        assert first == second, path.name


def rule_orders(shuffled: int = 3) -> list[tuple[str, ...]]:
    """The default rule order followed by fixed-seed shuffles of it."""
    rng = random.Random(1404)
    orders = [DEFAULT_RULE_ORDER]
    for _ in range(shuffled):
        order = list(DEFAULT_RULE_ORDER)
        rng.shuffle(order)
        orders.append(tuple(order))
    return orders


def test_no_internal_error_on_random_inputs(lexicon):
    # Shuffled rule orders are diagnostics, and they may derive different
    # fact sets (competing defaults), but no order and no flag may let a
    # well-formed input reach an internal error.
    rng = random.Random(20240214)
    texts = [random_document(rng) for _ in range(100)]
    for order, extended in product(rule_orders(), (False, True)):
        cfg = Config(rule_order=order, extended_belief_spaces=extended)
        for text in texts:
            try:
                process_document(parse_document(text), lexicon, cfg)
            except InputError:
                pass


def test_no_internal_error_on_deep_inputs(lexicon):
    # Deeper chains reach spaces the fixed random set never does: a chain
    # placed at the writer level can carry its target into a space that
    # already holds the opposite attitude.
    rng = random.Random(20240214)
    texts = [deep_document(rng) for _ in range(100)]
    for order, extended in product(rule_orders(), (False, True)):
        cfg = Config(rule_order=order, extended_belief_spaces=extended)
        for text in texts:
            try:
                process_document(parse_document(text), lexicon, cfg)
            except InputError:
                pass


# -- mutated corpus documents ---------------------------------------------------

ATTITUDES = ("sentiment", "believesTrue", "intends", "believesShould")
SWAPS = {"positive": "negative", "negative": "positive", "goodFor": "badFor", "badFor": "goodFor"}


def mutate(text: str, rng: random.Random) -> str:
    """The document with one to three random edits to its annotation lines.

    An edit flips a polarity or an effect, swaps an attitude type, retargets
    a line to an earlier id, or adds an evidence, prop or influencer line (the
    influencer under a writer line of its own).  Most results stay well
    formed; the others must be input errors.
    """
    sentence, *lines = text.splitlines()
    ids = [line.split()[0] for line in lines]
    for n in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        words = line.replace("<", " ").replace(">", " ").replace(",", " ").split()
        edit = rng.choice(("swap", "attitude", "retarget", "evidence", "prop", "influencer"))
        if edit == "swap" and SWAPS.keys() & set(words):
            word = rng.choice(sorted(SWAPS.keys() & set(words)))
            lines[i] = line.replace(f" {word} ", f" {SWAPS[word]} ", 1)
        elif edit == "attitude" and set(ATTITUDES) & set(words):
            word = rng.choice(sorted(set(ATTITUDES) & set(words)))
            lines[i] = line.replace(f" {word} ", f" {rng.choice(ATTITUDES)} ", 1)
        elif edit == "retarget" and i > 0 and "<" in line:
            head, _, body = line.partition("<")
            fields = body.rstrip(">").split(", ")
            if len(fields) >= 3:
                fields[2] = rng.choice(ids[:i])
                lines[i] = f"{head}<{', '.join(fields)}>"
        elif edit == "evidence":
            holder = rng.choice(("none", rng.choice(NAMES)))
            lines.append(f"Z{n}V evidence <{holder}, {rng.choice(POLS)}"
                         f" {rng.choice(('intends', 'believesTrue', 'sentiment'))} (\"\"),"
                         f" {rng.choice(ids[:i + 1])}>")
        elif edit == "prop":
            lines.append(f"Z{n}P p({rng.choice(ids[:i + 1])},substantial)")
        elif edit == "influencer":
            lines.append(f"Z{n}I influencer <{rng.choice(NAMES)},"
                         f" {rng.choice(('retain', 'reverse'))} (x), {rng.choice(ids[:i + 1])}>")
            lines.append(f"Z{n}W privateState <writer, {rng.choice(POLS)} sentiment (w), Z{n}I>")
    return "\n".join([sentence, *lines]) + "\n"


MUTATED_DOCUMENTS = 300


def test_no_internal_error_on_mutated_corpus_documents(tmp_path, capsys, corpus_files):
    # Aim 3: whatever the edit, the CLI answers or reports an input error
    # (exit 1); an internal error (exit 2) is a bug, under any flag.
    from opine.cli import main

    rng = random.Random(20261019)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    texts = [text for text in texts if text.strip()]
    lexicon = str(corpus_files[0].parent / "base.lex")
    doc = tmp_path / "mutated.ann"
    codes = []
    for _ in range(MUTATED_DOCUMENTS):
        text = mutate(rng.choice(texts), rng)
        doc.write_text(text, encoding="utf-8")
        for flags in ([], ["--extended-belief-spaces"]):
            code = main(["--input", str(doc), "--lexicon", lexicon, *flags])
            err = capsys.readouterr().err
            assert code != 2, (flags, text, err)
            codes.append(code)
    # Both outcomes occur, so the edits reach the engine and the checks.
    assert codes.count(0) > len(codes) // 4 and codes.count(1) > len(codes) // 10
