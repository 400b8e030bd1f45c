"""Differential checks of semi-naive firing and the closure.

``run_to_fixpoint`` builds each binding once per run and skips a binding
whose inputs have not changed since its last fire settled it;
``_expected_space_closure`` visits each space member once.  Each is compared
with what it replaces: ``rules.match`` on the same graph, and copies of the
loop that fires every binding on every pass and of the closure that visits
every member on every pass.
"""

import random

import pytest

from opine import Config, parse_document, process_document
from opine import rules, spaces
from opine.errors import InputError, IterationLimitExceeded
from opine.render import dumps, render_trace

from test_properties import deep_document, random_document, rule_orders
from test_space_index import belief_variant

DOCUMENTS = 100  # the first documents of the fixed-seed random suite
DEEP_DOCUMENTS = 50  # the first deep documents of seed 2

# Documents with deeper nesting and props than random_document writes.  Each
# one tells the semi-naive loop from the naive one when the input stamp
# misses one of its parts: a fire that makes an existing chain node a root,
# and so changes its own preconditions' spaces (the stamp is taken before
# the fire); a precondition turning writer-level; an assumption basis that
# appears in a later pass; and a space whose first root moves.  The last two
# reach a clash below a placed chain, and a block whose clash moves.
STAMP_DOCUMENTS = [
    """"Nested beliefs."
E1 gfbf <carol, goodFor (x1), alice>
S0 subjectivity <carol, negative sentiment (w), E1>
S1 subjectivity <writer, positive believesTrue (w), S0>
S2 subjectivity <bob, positive believesTrue (w), S1>
S3 subjectivity <dave, positive believesTrue (w), E1>
S4 subjectivity <alice, positive sentiment (w), S2>
S5 subjectivity <dave, positive sentiment (w), S0>
B1 privateState <writer, positive believesTrue (w), S2>
B2 privateState <writer, positive sentiment (w), S3>
B3 privateState <writer, negative believesTrue (w), S4>
B4 privateState <writer, negative sentiment (w), S5>
V1 evidence <none, negative intends (e), E1>
""",
    """"A writer-level precondition."
E1 gfbf <carol, goodFor (x1), dave>
E2 gfbf <the rock:thing, goodFor (x2), dave>
S0 subjectivity <writer, negative sentiment (w), E1>
S1 subjectivity <carol, positive sentiment (w), E2>
S2 subjectivity <dave, positive sentiment (w), S0>
S3 subjectivity <writer, positive sentiment (w), S2>
S5 subjectivity <bob, positive believesTrue (w), E1>
B1 privateState <writer, positive believesTrue (w), E2>
B2 privateState <writer, positive believesTrue (w), S1>
B3 privateState <writer, positive sentiment (w), S5>
P0 p(S5,substantial)
""",
    """"A late assumption basis."
E1 gfbf <carol, badFor (x1), dave>
E2 gfbf <bob, goodFor (x2), the war (war:lexEntry)>
E3 gfbf <dave, badFor (x3), bob>
S0 subjectivity <bob, negative sentiment (w), E2>
S1 subjectivity <bob, negative believesTrue (w), E3>
S2 subjectivity <bob, negative believesTrue (w), S0>
S3 subjectivity <bob, negative intends (w), E2>
S4 subjectivity <bob, negative sentiment (w), S0>
B1 privateState <writer, positive sentiment (w), E1>
B2 privateState <writer, negative believesTrue (w), E2>
B3 privateState <writer, positive sentiment (w), E3>
B4 privateState <writer, negative believesTrue (w), S0>
B5 privateState <writer, negative sentiment (w), S1>
B6 privateState <writer, positive sentiment (w), S2>
B7 privateState <writer, negative believesTrue (w), S3>
B8 privateState <writer, negative sentiment (w), S4>
P0 p(S1,substantial)
V1 evidence <none, negative believesTrue (e), E1>
""",
    """"A first root that moves."
E1 gfbf <the rock:thing, badFor (x1), justice (justice:lexEntry)>
E2 gfbf <bob, goodFor (x2), dave>
S0 subjectivity <alice, negative intends (w), E1>
S1 subjectivity <writer, positive sentiment (w), E2>
S2 subjectivity <dave, negative sentiment (w), S1>
S3 subjectivity <bob, positive believesTrue (w), E2>
S4 subjectivity <bob, negative sentiment (w), S2>
B1 privateState <writer, positive believesTrue (w), E1>
B2 privateState <writer, negative believesTrue (w), S0>
B3 privateState <writer, positive believesTrue (w), S2>
B4 privateState <writer, positive sentiment (w), S3>
B5 privateState <writer, positive believesTrue (w), S4>
P0 p(S3,substantial)
V1 evidence <none, negative sentiment (e), E1>
""",
    # Rule 3.1 would place writer -S (dave +intends E1) as a root, and so put
    # its target into [writer -S], which holds dave -intends E1 (S0 under S4).
    """"A clash below the placed chain."
E1 gfbf <dave, badFor (x1), the storm:thing>
S0 subjectivity <dave, negative intends (w), E1>
S1 subjectivity <bob, positive sentiment (w), S0>
S2 subjectivity <bob, negative sentiment (w), E1>
S3 subjectivity <carol, positive believesTrue (w), E1>
S4 subjectivity <writer, negative sentiment (w), S0>
B1 privateState <writer, negative believesTrue (w), S1>
B2 privateState <writer, positive sentiment (w), S2>
B3 privateState <writer, negative believesTrue (w), S3>
P0 p(S3,substantial)
""",
    # A space-contradiction block whose clashing node changes in a later pass.
    """"A moving clash."
E1 gfbf <alice, badFor (x1), carol>
E2 gfbf <alice, goodFor (x2), carol>
E3 gfbf <the rock:thing, badFor (x3), alice>
S0 subjectivity <carol, negative intends (w), E1>
S1 subjectivity <alice, negative sentiment (w), E1>
S2 subjectivity <carol, negative sentiment (w), E1>
S3 subjectivity <bob, negative sentiment (w), S2>
S4 subjectivity <carol, negative sentiment (w), S0>
S5 subjectivity <alice, positive sentiment (w), S4>
B1 privateState <writer, negative believesTrue (w), E2>
B2 privateState <writer, positive believesTrue (w), E3>
B3 privateState <writer, negative sentiment (w), S1>
B4 privateState <writer, negative sentiment (w), S3>
B5 privateState <writer, positive sentiment (w), S5>
V1 evidence <none, negative believesTrue (e), E3>
""",
    # A fire whose precondition is alice +S (alice -S E1) passes the checks of
    # [writer +B alice -S] and of its belief variant [writer +B].  Placing
    # alice -S E1 into the first puts alice -S (alice -S E1) into [writer +B],
    # so the variant, which also receives the precondition, is blocked.
    """"A deeper sentence."
E1 gfbf <alice, goodFor (x1), carol>
S0 subjectivity <alice, negative sentiment (w), E1>
S1 subjectivity <alice, positive sentiment (w), S0>
S2 subjectivity <carol, negative sentiment (w), S1>
S3 subjectivity <alice, positive sentiment (w), S2>
S4 subjectivity <writer, positive sentiment (w), S0>
S5 subjectivity <writer, positive sentiment (w), S2>
B1 privateState <writer, positive believesTrue (w), S3>
""",
]
CHAIN_TARGET_DOCUMENT = STAMP_DOCUMENTS[4]
VARIANT_CLASH_DOCUMENT = STAMP_DOCUMENTS[6]


def naive_expected_space_closure(g):
    """The closure visiting every member of every space on every pass."""
    changed = True
    while changed:
        changed = False
        # Snapshot the members: placing below adds to the (live) index.
        index = spaces.space_index(g)
        snapshot = [(steps, inst.paths[0], list(inst.members.values()))
                    for steps, inst in index.spaces.items()]
        for steps, chain, members in snapshot:
            variant = belief_variant(steps)
            if variant == steps:
                continue
            for member in members:
                if member.retired:
                    continue
                if rules.would_contradict(variant, member, g, index) is not None:
                    continue
                _, created = rules.place(g, member, variant, chain)
                index = spaces.space_index(g)  # take in the chain just placed
                if created:
                    changed = True


def naive_run_to_fixpoint(g, cfg=None):
    """The fixpoint loop without settled bindings: every binding fires every
    pass, and the closure visits every space member every pass."""
    cfg = cfg or Config()
    state = rules.EngineState()
    order = [rules.RULES[name] for name in cfg.rule_order]
    iterations = 0
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        before = len(g.nodes)
        for rule in order:
            for binding in rules.match(rule, g):
                if rule.fire_once and cfg.fire_once and binding.fire_key in state.consumed:
                    continue
                outcome = rules.fire(rule, binding, g, cfg, state, iteration)
                if outcome.fired and rule.fire_once and cfg.fire_once:
                    state.consumed.add(binding.fire_key)
        if cfg.extended_belief_spaces:
            naive_expected_space_closure(g)
        if len(g.nodes) == before:
            break
    else:
        raise IterationLimitExceeded(f"no fixpoint after {cfg.max_iterations} iterations")
    rules.check_consistency(g)
    return rules.InferenceResult(graph=g, iterations=iterations)


def outputs(text, lexicon, cfg):
    """The export and each sentence's trace text, or the input error raised."""
    try:
        results = process_document(parse_document(text), lexicon, cfg)
    except InputError as exc:
        return type(exc), str(exc)
    return dumps(results), [render_trace(r) for r in results], [r.iterations for r in results]


def compare_with_naive_loop(texts, lexicon, monkeypatch, extended):
    """Assert the two loops give the same outputs on every text, under every
    rule order and fire_once on and off; return the fires of each loop."""
    fires = {"semi-naive": 0, "naive": 0}
    fire = rules.fire
    loop = "semi-naive"

    def counted_fire(*args, **kwargs):
        fires[loop] += 1
        return fire(*args, **kwargs)

    monkeypatch.setattr(rules, "fire", counted_fire)
    for order in rule_orders():
        for fire_once in (True, False):
            cfg = Config(rule_order=order, fire_once=fire_once,
                         extended_belief_spaces=extended)
            for text in texts:
                loop = "semi-naive"
                got = outputs(text, lexicon, cfg)
                loop = "naive"
                with monkeypatch.context() as m:
                    m.setattr(rules, "run_to_fixpoint", naive_run_to_fixpoint)
                    expected = outputs(text, lexicon, cfg)
                assert got == expected, (order, fire_once, text)
    return fires


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_semi_naive_loop_matches_naive_loop(lexicon, monkeypatch, extended):
    rng = random.Random(20240214)
    texts = [random_document(rng) for _ in range(DOCUMENTS)] + STAMP_DOCUMENTS
    fires = compare_with_naive_loop(texts, lexicon, monkeypatch, extended)
    assert fires["semi-naive"] < 0.8 * fires["naive"], fires
    # A binding whose stamp is unchanged calls no fire.  Measured share of
    # the naive loop's fires: 0.44 (default) and 0.45 (extended); 0.63 and
    # 0.61 when each productive fire was fired again to confirm it.
    assert fires["semi-naive"] < 0.5 * fires["naive"], fires


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_semi_naive_loop_matches_naive_loop_on_deep_documents(lexicon, monkeypatch, extended):
    """Deeper nesting than the random suite, where skipped bindings meet
    chains placed several levels down."""
    rng = random.Random(2)
    texts = [deep_document(rng) for _ in range(DEEP_DOCUMENTS)]
    fires = compare_with_naive_loop(texts, lexicon, monkeypatch, extended)
    # Measured share of the naive loop's fires: 0.44 (default) and 0.45
    # (extended); 0.62 and 0.61 when each productive fire was fired again.
    assert fires["semi-naive"] < 0.5 * fires["naive"], fires


@pytest.mark.parametrize("extended", [False, True], ids=["default", "extended"])
def test_fixpoint_walks_the_bindings_match_returns(lexicon, corpus_files, monkeypatch, extended):
    """At each rule's turn in every pass, the fixpoint walks the bindings
    rules.match returns on the same graph, in order, and meets a binding in
    later passes as the same object."""
    cfg = Config(extended_belief_spaces=extended)
    current = rules._Bindings.current
    run = {"graph": None, "first": {}}
    counts = {"walked": 0, "met_again": 0}

    def binding_key(binding):
        return (binding.rule, tuple(binding.ps), tuple(binding.assumptions),
                tuple(binding.conclusions), binding.fire_key)

    def checked_current(self, g):
        walked = current(self, g)
        # Bindings compare by rule, ps, assumptions, conclusions and fire_key.
        assert ([binding_key(b) for b in walked]
                == [binding_key(b) for b in rules.match(self.rule, g)]), self.rule.name
        if g is not run["graph"]:
            run["graph"], run["first"] = g, {}
        for binding in walked:
            key = binding_key(binding)
            first = run["first"].get(key)
            if first is None:
                run["first"][key] = binding
            else:
                assert first is binding, binding
                counts["met_again"] += 1
        counts["walked"] += len(walked)
        return walked

    monkeypatch.setattr(rules._Bindings, "current", checked_current)
    rng = random.Random(20240214)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    texts += [random_document(rng) for _ in range(DOCUMENTS)] + STAMP_DOCUMENTS
    for text in texts:
        outputs(text, lexicon, cfg)
    assert counts["met_again"] > 1000, counts


def test_closure_visits_each_member_once(lexicon, corpus_files, monkeypatch):
    """On the corpus, the closure gives the naive closure's outputs with under
    half its contradiction checks (extend_spaces checks through spaces)."""
    calls = 0
    would_contradict = rules.would_contradict

    def counted_would_contradict(*args):
        nonlocal calls
        calls += 1
        return would_contradict(*args)

    monkeypatch.setattr(rules, "would_contradict", counted_would_contradict)
    cfg = Config(extended_belief_spaces=True)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files]
    got = [outputs(text, lexicon, cfg) for text in texts]
    semi_naive, calls = calls, 0
    monkeypatch.setattr(rules, "_expected_space_closure", naive_expected_space_closure)
    expected = [outputs(text, lexicon, cfg) for text in texts]
    assert got == expected
    assert semi_naive < 0.5 * calls, (semi_naive, calls)
